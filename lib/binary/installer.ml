type report = {
  built : string list;
  reused : string list;
  from_cache : string list;
  rewired : string list;
  fallback_built : string list;
  rewire_fallbacks : string list;
  reloc : Relocate.stats;
  fetch_telemetry : Mirror.telemetry option;
  link_result : (int, Linker.error list) result;
}

(* Where an already-built binary and its build-time prefixes can be
   found: the local store, a directly-attached buildcache, or a fetch
   through the mirror layer (which returns a cache entry). *)
type source =
  | From_store of Store.record
  | From_cache of Buildcache.entry

let find_source store caches ~hash =
  match Store.installed store ~hash with
  | Some r -> Some (From_store r)
  | None ->
    List.find_map
      (fun c -> Option.map (fun e -> From_cache e) (Buildcache.find c ~hash))
      caches

let source_spec = function
  | From_store r -> r.Store.spec
  | From_cache e -> e.Buildcache.e_spec

let source_prefix_of store = function
  | From_store _ ->
    fun hash -> Option.map (fun (r : Store.record) -> r.Store.prefix) (Store.installed store ~hash)
  | From_cache e -> fun hash -> List.assoc_opt hash e.Buildcache.e_prefixes

let source_objects store = function
  | From_store r ->
    let vfs = Store.vfs store in
    Vfs.list_prefix vfs r.Store.prefix
    |> List.filter_map (fun path ->
           match Vfs.read vfs path with
           | Some (Vfs.Object o) -> Some (Buildcache.relative ~prefix:r.Store.prefix path, o)
           | _ -> None)
  | From_cache e -> e.Buildcache.e_objects

(* Pair the original node's direct link dependencies with the spliced
   node's: same names pair up; the replaced dependencies are the
   leftovers, paired in name order (a splice replaces like with like —
   one substitute per replaced dependency). Build-only dependencies of
   the original are irrelevant to the binary and are excluded. A
   replaced/replacement count mismatch cannot be paired meaningfully
   and is a typed error, not a silent drop. *)
let pair_children ~node ~old_children ~new_children =
  let link l = List.filter (fun ((_ : string), dt) -> dt.Spec.Types.link) l in
  let old_children = link old_children and new_children = link new_children in
  let olds = List.map fst old_children and news = List.map fst new_children in
  let shared = List.filter (fun c -> List.mem c news) olds in
  let only_old = List.sort String.compare (List.filter (fun c -> not (List.mem c news)) olds) in
  let only_new = List.sort String.compare (List.filter (fun c -> not (List.mem c olds)) news) in
  if List.length only_old <> List.length only_new then
    Errors.raise_error
      (Errors.Splice_arity_mismatch
         { node; replaced = only_old; replacements = only_new });
  List.map (fun c -> (c, c)) shared @ List.combine only_old only_new

let rewire_node store ~spec ~node ~build_hash ~source =
  let n = Spec.Concrete.node spec node in
  let hash = Spec.Concrete.node_hash spec node in
  let old_spec = source_spec source in
  let old_prefix_of = source_prefix_of store source in
  let old_root = Spec.Concrete.root old_spec in
  let old_children = Spec.Concrete.children old_spec old_root in
  let new_children = Spec.Concrete.children spec node in
  let new_prefix_of c =
    let cn = Spec.Concrete.node spec c in
    Spec.Concrete.node_hash spec c
    |> fun h ->
    Store.prefix_for store ~name:cn.Spec.Concrete.name ~version:cn.Spec.Concrete.version ~hash:h
  in
  let prefix =
    Store.prefix_for store ~name:n.Spec.Concrete.name ~version:n.Spec.Concrete.version ~hash
  in
  let pairs = pair_children ~node ~old_children ~new_children in
  let mapping =
    (match old_prefix_of build_hash with
    | Some old_self -> [ (old_self, prefix) ]
    | None -> [])
    @ List.filter_map
        (fun (old_c, new_c) ->
          match old_prefix_of (Spec.Concrete.node_hash old_spec old_c) with
          | Some old_p ->
            let new_p = new_prefix_of new_c in
            if String.equal old_p new_p then None else Some (old_p, new_p)
          | None -> None)
        pairs
  in
  (* Cross-name splices (mpich -> mpiabi) also need their NEEDED
     entries retargeted — patchelf --replace-needed in real life. *)
  let renames =
    List.filter_map
      (fun (old_c, new_c) ->
        if String.equal old_c new_c then None
        else Some (Store.soname_of old_c, Store.soname_of new_c))
      pairs
  in
  let rename soname =
    match List.assoc_opt soname renames with Some s -> s | None -> soname
  in
  let sub = Spec.Concrete.subdag spec node in
  match Store.claim store ~hash ~prefix with
  | Store.Present _ ->
    (* A concurrent install delivered the same hash while we prepared:
       its bytes are our bytes (content addressing), nothing to patch. *)
    Relocate.empty_stats
  | Store.Claimed txn -> (
    let finish () =
      let stats = ref Relocate.empty_stats in
      List.iter
        (fun (rel, o) ->
          let o = Object_file.copy o in
          stats := Relocate.add_stats !stats (Relocate.relocate_object o ~mapping);
          let o =
            { o with
              Object_file.needed = List.map rename o.Object_file.needed;
              imports = List.map (fun (s, surf) -> (rename s, surf)) o.Object_file.imports }
          in
          Store.stage store txn ~rel (Vfs.Object o))
        (source_objects store source);
      Store.stage store txn ~rel:".spack/spec.json"
        (Vfs.Text (Spec.Codec.to_string ~pretty:true sub));
      ignore (Store.commit store txn ~spec:sub);
      !stats
    in
    try finish () with
    | Store.Crashed _ as e -> raise e
    | e ->
      Store.abort store txn;
      raise e)

let snapshot_telemetry g =
  let t = Mirror.telemetry g in
  let s = Mirror.fresh_telemetry () in
  Mirror.add_telemetry s t;
  s

let diff_telemetry ~before ~after =
  let open Mirror in
  { fetched = after.fetched - before.fetched;
    attempts = after.attempts - before.attempts;
    retries = after.retries - before.retries;
    failovers = after.failovers - before.failovers;
    breaker_skips = after.breaker_skips - before.breaker_skips;
    breaker_trips = after.breaker_trips - before.breaker_trips;
    quarantines = after.quarantines - before.quarantines;
    backoff_ms = after.backoff_ms -. before.backoff_ms }

(* Shared accumulators for one install plan. A mutex (not per-list
   atomics) because updates are multi-field: an action appends to its
   hash list AND the committed list AND merges stats. *)
type acc = {
  mutable a_built : string list;
  mutable a_reused : string list;
  mutable a_from_cache : string list;
  mutable a_rewired : string list;
  mutable a_fallback_built : string list;
  mutable a_rewire_fallbacks : string list;
  mutable a_reloc : Relocate.stats;
  mutable a_committed : string list;
  a_mu : Mutex.t;
}

let with_acc acc f =
  Mutex.lock acc.a_mu;
  let v = f () in
  Mutex.unlock acc.a_mu;
  v

(* One node of the plan, dependencies already installed. Runs on
   whichever domain picked the node up; everything it touches is either
   domain-safe (store, vfs, mirrors, obs) or guarded by [acc.a_mu]. *)
let install_node store ~repo ~caches ~mirrors ~fallback ~obs ~spec ~acc node nspan =
  let action a = Obs.set_attr nspan "action" (Obs.S a) in
  let t0 = Obs.Clock.now_s () in
  let n = Spec.Concrete.node spec node in
  let hash = Spec.Concrete.node_hash spec node in
  Obs.set_attr nspan "hash" (Obs.S (Chash.short hash));
  let can_build name = Pkg.Repo.mem repo name in
  let build_from_source counter =
    ignore (Builder.build_node_exn store ~repo ~spec ~node);
    with_acc acc (fun () ->
        acc.a_committed <- hash :: acc.a_committed;
        counter acc hash)
  in
  let record_cache_install stats =
    with_acc acc (fun () ->
        acc.a_committed <- hash :: acc.a_committed;
        acc.a_reloc <- Relocate.add_stats acc.a_reloc stats;
        acc.a_from_cache <- hash :: acc.a_from_cache)
  in
  let rewire ~build_hash source =
    action "rewired";
    let stats = rewire_node store ~spec ~node ~build_hash ~source in
    with_acc acc (fun () ->
        acc.a_committed <- hash :: acc.a_committed;
        acc.a_reloc <- Relocate.add_stats acc.a_reloc stats;
        acc.a_rewired <- hash :: acc.a_rewired)
  in
  (if Store.is_installed store ~hash then begin
     action "reused";
     with_acc acc (fun () -> acc.a_reused <- hash :: acc.a_reused)
   end
   else
     match n.Spec.Concrete.build_hash with
     | Some build_hash -> (
       (* A spliced node: rewire its original binary if any source
          can deliver it; degrade to a source rebuild otherwise. *)
       match find_source store caches ~hash:build_hash with
       | Some source -> rewire ~build_hash source
       | None -> (
         let fetched =
           match mirrors with
           | Some g -> (
             match Mirror.fetch_entry g ~hash:build_hash with
             | Ok e -> Some e
             | Error _ -> None)
           | None -> None
         in
         match fetched with
         | Some e -> rewire ~build_hash (From_cache e)
         | None ->
           if fallback && can_build n.Spec.Concrete.name then begin
             action "rewire_fallback";
             build_from_source (fun acc h ->
                 acc.a_rewire_fallbacks <- h :: acc.a_rewire_fallbacks)
           end
           else
             Errors.raise_error
               (Errors.Original_binary_missing { node; build_hash })))
     | None -> (
       (* Look each cache up exactly once and install the entry we
          found — probing with [mem] and re-querying opened a
          vanished-entry window. *)
       match List.find_map (fun c -> Buildcache.find c ~hash) caches with
       | Some entry ->
         action "from_cache";
         let _, stats = Buildcache.install_entry store ~hash entry in
         record_cache_install stats
       | None -> (
         match mirrors with
         | None ->
           action "built";
           build_from_source (fun acc h -> acc.a_built <- h :: acc.a_built)
         | Some g -> (
           match Mirror.fetch_entry g ~hash with
           | Ok entry ->
             action "from_cache";
             let _, stats = Buildcache.install_entry store ~hash entry in
             record_cache_install stats
           | Error verdicts ->
             let authoritative_miss =
               verdicts <> []
               && List.for_all (fun (_, e) -> e = Mirror.Absent) verdicts
             in
             if authoritative_miss || verdicts = [] then begin
               (* a plain miss: building was always the plan *)
               action "built";
               build_from_source (fun acc h -> acc.a_built <- h :: acc.a_built)
             end
             else if fallback && can_build n.Spec.Concrete.name then begin
               action "fallback_built";
               build_from_source (fun acc h ->
                   acc.a_fallback_built <- h :: acc.a_fallback_built)
             end
             else
               Errors.raise_error
                 (Errors.Fetch_failed
                    { hash;
                      attempts = List.length verdicts;
                      mirrors =
                        List.map
                          (fun (m, e) -> (m, Mirror.describe_error e))
                          verdicts })))));
  Obs.observe obs "install.node_ms" ((Obs.Clock.now_s () -. t0) *. 1000.)

(* Ready-set scheduler: a node becomes ready when all its dependencies
   have committed; [jobs] domains pull ready nodes until the plan
   drains or a node fails. On failure remaining ready nodes are
   abandoned but in-flight nodes run to completion (commit or abort),
   so when the workers join every transaction this plan opened is
   settled — rollback is then plain uninstalls, never journal surgery
   that could clobber concurrent installs. *)
let run_parallel store ~repo ~caches ~mirrors ~fallback ~obs ~spec ~acc ~jobs =
  let nodes = Array.of_list (Spec.Concrete.nodes spec) in
  let n_total = Array.length nodes in
  let index = Hashtbl.create (2 * n_total) in
  Array.iteri (fun i (n : Spec.Concrete.node) -> Hashtbl.replace index n.Spec.Concrete.name i) nodes;
  let pending = Array.make n_total 0 in
  let dependents = Array.make n_total [] in
  Array.iteri
    (fun i (n : Spec.Concrete.node) ->
      let cs = Spec.Concrete.children spec n.Spec.Concrete.name in
      pending.(i) <- List.length cs;
      List.iter
        (fun (c, _) ->
          let ci = Hashtbl.find index c in
          dependents.(ci) <- i :: dependents.(ci))
        cs)
    nodes;
  let mu = Mutex.create () and cond = Condition.create () in
  let ready = Queue.create () in
  (* Leaves seed the ready set in topological-list order — a stable
     starting schedule, though interleavings beyond it are free. *)
  Array.iteri (fun i _ -> if pending.(i) = 0 then Queue.push i ready) pending;
  let finished = ref 0 and stop = ref false in
  let errors = ref [] in
  let rec worker () =
    Mutex.lock mu;
    while Queue.is_empty ready && not !stop && !finished < n_total do
      Condition.wait cond mu
    done;
    if !stop || Queue.is_empty ready then Mutex.unlock mu
    else begin
      let i = Queue.pop ready in
      Mutex.unlock mu;
      let name = nodes.(i).Spec.Concrete.name in
      (match
         Obs.with_span obs ~cat:"install" "install.node"
           ~attrs:[ ("node", Obs.S name) ]
           (fun nspan ->
             install_node store ~repo ~caches ~mirrors ~fallback ~obs ~spec ~acc
               name nspan)
       with
      | () ->
        Mutex.lock mu;
        incr finished;
        List.iter
          (fun p ->
            pending.(p) <- pending.(p) - 1;
            if pending.(p) = 0 then Queue.push p ready)
          dependents.(i);
        Condition.broadcast cond;
        Mutex.unlock mu
      | exception e ->
        Mutex.lock mu;
        incr finished;
        errors := (i, e) :: !errors;
        stop := true;
        Condition.broadcast cond;
        Mutex.unlock mu);
      worker ()
    end
  in
  let others = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join others;
  (* Error priority is deterministic regardless of which domain lost
     the race to report first: a crash dominates (the store is dead —
     typed cleanup below would be fiction), then the typed error of the
     smallest topological index — the one the serial walk would have
     hit. *)
  match List.sort (fun (i, _) (j, _) -> compare i j) !errors with
  | [] -> ()
  | errs -> (
    match List.find_opt (fun (_, e) -> match e with Store.Crashed _ -> true | _ -> false) errs with
    | Some (_, e) -> raise e
    | None ->
      let _, e = List.hd errs in
      (match e with
      | Errors.Binary_error _ ->
        List.iter (fun h -> Store.uninstall store ~hash:h) acc.a_committed
      | _ -> ());
      raise e)

let run_serial store ~repo ~caches ~mirrors ~fallback ~obs ~spec ~acc =
  let visited = Hashtbl.create 16 in
  let rec go node =
    if not (Hashtbl.mem visited node) then begin
      Hashtbl.replace visited node ();
      List.iter (fun (c, _) -> go c) (Spec.Concrete.children spec node);
      (* Opened after the dependencies ran, so a node's span holds its
         own install only and the walk's spans sum to at most the
         install, as on the parallel path. *)
      Obs.with_span obs ~cat:"install" "install.node"
        ~attrs:[ ("node", Obs.S node) ]
        (install_node store ~repo ~caches ~mirrors ~fallback ~obs ~spec ~acc node)
    end
  in
  try go (Spec.Concrete.root spec)
  with Errors.Binary_error e ->
    (* A typed failure must leave the store as it found it: the failing
       node's transaction already aborted at its claim site, so only
       the committed nodes need dropping. (A simulated crash —
       Store.Crashed — is NOT caught: power loss cannot clean up after
       itself; that is Store.recover's job.) *)
    List.iter (fun h -> Store.uninstall store ~hash:h) acc.a_committed;
    Errors.raise_error e

let install_exn store ~repo ?(caches = []) ?mirrors ?(fallback = true)
    ?(obs = Obs.disabled) ?(jobs = 1) spec =
  if Obs.enabled obs then Store.set_obs store obs;
  Obs.with_span obs ~cat:"install" "install"
    ~attrs:[ ("root", Obs.S (Spec.Concrete.root spec)); ("jobs", Obs.I jobs) ]
  @@ fun _root_span ->
  let acc =
    { a_built = [];
      a_reused = [];
      a_from_cache = [];
      a_rewired = [];
      a_fallback_built = [];
      a_rewire_fallbacks = [];
      a_reloc = Relocate.empty_stats;
      a_committed = [];
      a_mu = Mutex.create () }
  in
  let tel_before = Option.map snapshot_telemetry mirrors in
  if jobs <= 1 then run_serial store ~repo ~caches ~mirrors ~fallback ~obs ~spec ~acc
  else run_parallel store ~repo ~caches ~mirrors ~fallback ~obs ~spec ~acc ~jobs;
  let root_record =
    match Store.installed store ~hash:(Spec.Concrete.dag_hash spec) with
    | Some r -> r
    | None -> Errors.raise_error Errors.Root_not_installed
  in
  let root_obj =
    Store.lib_path ~prefix:root_record.Store.prefix
      ~soname:(Store.soname_of (Spec.Concrete.root spec))
  in
  (* Hash lists are sorted at construction, not left in visit order:
     visit order is a schedule artifact, and reports must be
    byte-identical whether the plan ran serial or on N domains. *)
  let canon l = List.sort String.compare l in
  { built = canon acc.a_built;
    reused = canon acc.a_reused;
    from_cache = canon acc.a_from_cache;
    rewired = canon acc.a_rewired;
    fallback_built = canon acc.a_fallback_built;
    rewire_fallbacks = canon acc.a_rewire_fallbacks;
    reloc = acc.a_reloc;
    fetch_telemetry =
      (match (mirrors, tel_before) with
      | Some g, Some before -> Some (diff_telemetry ~before ~after:(Mirror.telemetry g))
      | _ -> None);
    link_result = Linker.load (Store.vfs store) root_obj }

let install store ~repo ?caches ?mirrors ?fallback ?obs ?jobs spec =
  Errors.guard (fun () ->
      install_exn store ~repo ?caches ?mirrors ?fallback ?obs ?jobs spec)

let rebuild_count r = List.length r.built

let degraded_count r = List.length r.fallback_built + List.length r.rewire_fallbacks

let canonical_report r =
  let sec name l = name ^ "=" ^ String.concat "," l in
  String.concat "\n"
    [ sec "built" r.built;
      sec "reused" r.reused;
      sec "from_cache" r.from_cache;
      sec "rewired" r.rewired;
      sec "fallback_built" r.fallback_built;
      sec "rewire_fallbacks" r.rewire_fallbacks;
      Format.asprintf "reloc=%a" Relocate.pp_stats r.reloc;
      (match r.link_result with
      | Ok n -> Printf.sprintf "link=ok:%d" n
      | Error es -> Printf.sprintf "link=errors:%d" (List.length es)) ]

let pp_report fmt r =
  Format.fprintf fmt "built=%d reused=%d from-cache=%d rewired=%d reloc(%a) link=%s"
    (List.length r.built) (List.length r.reused) (List.length r.from_cache)
    (List.length r.rewired) Relocate.pp_stats r.reloc
    (match r.link_result with
    | Ok n -> Printf.sprintf "ok(%d objects)" n
    | Error es -> Printf.sprintf "FAILED(%d errors)" (List.length es));
  if degraded_count r > 0 then
    Format.fprintf fmt " degraded(fallback-built=%d rewire-fallbacks=%d)"
      (List.length r.fallback_built)
      (List.length r.rewire_fallbacks);
  match r.fetch_telemetry with
  | Some t -> Format.fprintf fmt " mirrors(%a)" Mirror.pp_telemetry t
  | None -> ()
