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

(* The one copy-relocate-stage loop: copy [objects] into [hash]'s
   store transaction, relocating each through [mapping] and, for a
   rewire, retargeting its NEEDED entries through [renames]. Empty
   stats when another writer installed the hash meanwhile: its bytes
   are our bytes (content addressing), and nothing moved. *)
let relocate_into store ~hash ~prefix ~spec ~mapping ?(renames = []) objects =
  let rename soname = Option.value (List.assoc_opt soname renames) ~default:soname in
  Option.value ~default:Relocate.empty_stats
  @@ Store.install store ~hash ~prefix ~spec
  @@ fun stage ->
  List.fold_left
    (fun stats (rel, o) ->
      let o = Object_file.copy o in
      let stats = Relocate.add_stats stats (Relocate.relocate_object o ~mapping) in
      let o =
        if renames = [] then o
        else
          { o with
            Object_file.needed = List.map rename o.Object_file.needed;
            imports = List.map (fun (s, surf) -> (rename s, surf)) o.Object_file.imports }
      in
      stage rel (Vfs.Object o);
      stats)
    Relocate.empty_stats objects

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

(* Rewire a spliced node (§4.2): relocate its original binary's
   references from the prefixes it was built against to this store's
   prefixes of the node and its ABI-compatible substitutes. The
   original comes as its spec, a map from its nodes' hashes to their
   build-time prefixes, and its objects. *)
let rewire store ~spec ~node ~hash ~prefix ~build_hash ~old_spec ~old_prefix_of objects =
  let old_children = Spec.Concrete.children old_spec (Spec.Concrete.root old_spec) in
  let pairs =
    pair_children ~node ~old_children ~new_children:(Spec.Concrete.children spec node)
  in
  let new_prefix_of c =
    let cn = Spec.Concrete.node spec c in
    Store.prefix_for store ~name:cn.Spec.Concrete.name ~version:cn.Spec.Concrete.version
      ~hash:(Spec.Concrete.node_hash spec c)
  in
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
  relocate_into store ~hash ~prefix ~spec:(Spec.Concrete.subdag spec node) ~mapping
    ~renames objects

type action = Reused | Built | From_cache | Rewired | Fallback_built | Rewire_fallback

let action_name = function
  | Reused -> "reused"
  | Built -> "built"
  | From_cache -> "from_cache"
  | Rewired -> "rewired"
  | Fallback_built -> "fallback_built"
  | Rewire_fallback -> "rewire_fallback"

(* What one node's install did: the slot the scheduler fills. *)
type outcome = {
  hash : string;
  action : action;
  reloc : Relocate.stats;
  fetched : Mirror.telemetry option;  (* the node's own mirror fetch *)
}

(* Where a looked-up hash is: installed, in a cache or delivered by a
   mirror, or missing (with the mirrors' verdicts, [] without any). *)
type found =
  | Installed of Store.record
  | Entry of Buildcache.entry
  | Missing of (string * Mirror.fetch_error) list

(* One node of the plan, dependencies already installed. Runs on
   whichever domain picked the node up and touches only domain-safe
   state (store, vfs, mirrors). A plain node looks its own hash up, a
   spliced one its original's ([build_hash]), each exactly once and in
   one order: the store, each cache, the mirrors. *)
let install_node store ~repo ~caches ~mirrors ~fallback ~spec ~node ~hash =
  let n = Spec.Concrete.node spec node in
  let fetched = ref None in
  let lookup hash =
    match Store.installed store ~hash with
    | Some r -> Installed r
    | None -> (
      match List.find_map (fun c -> Buildcache.find c ~hash) caches with
      | Some e -> Entry e
      | None -> (
        match mirrors with
        | None -> Missing []
        | Some g -> (
          let result, tel = Mirror.fetch_entry g ~hash in
          fetched := Some tel;
          match result with Ok e -> Entry e | Error verdicts -> Missing verdicts)))
  in
  let outcome ?(reloc = Relocate.empty_stats) action =
    { hash; action; reloc; fetched = !fetched }
  in
  let build action =
    Builder.build_node_exn store ~repo ~spec ~node;
    outcome action
  in
  let prefix_for h (m : Spec.Concrete.node) =
    Store.prefix_for store ~name:m.Spec.Concrete.name ~version:m.Spec.Concrete.version
      ~hash:h
  in
  let can_fall_back = fallback && Pkg.Repo.mem repo n.Spec.Concrete.name in
  match n.Spec.Concrete.build_hash with
  | Some _ when Store.is_installed store ~hash -> outcome Reused
  | Some build_hash -> (
    let rewire_from ~old_spec ~old_prefix_of objects =
      outcome Rewired
        ~reloc:
          (rewire store ~spec ~node ~hash ~prefix:(prefix_for hash n) ~build_hash
             ~old_spec ~old_prefix_of objects)
    in
    match lookup build_hash with
    | Installed r ->
      let vfs = Store.vfs store in
      rewire_from ~old_spec:r.Store.spec
        ~old_prefix_of:(fun h ->
          Option.map (fun (d : Store.record) -> d.Store.prefix) (Store.installed store ~hash:h))
        (Vfs.list_prefix vfs r.Store.prefix
        |> List.filter_map (fun path ->
               match Vfs.read vfs path with
               | Some (Vfs.Object o) ->
                 Some (Buildcache.relative ~prefix:r.Store.prefix path, o)
               | _ -> None))
    | Entry e ->
      rewire_from ~old_spec:e.Buildcache.e_spec
        ~old_prefix_of:(fun h -> List.assoc_opt h e.Buildcache.e_prefixes)
        e.Buildcache.e_objects
    | Missing _ ->
      (* No source can deliver the original: degrade to a rebuild. *)
      if can_fall_back then build Rewire_fallback
      else Errors.raise_error (Errors.Original_binary_missing { node; build_hash }))
  | None -> (
    match lookup hash with
    | Installed _ -> outcome Reused
    | Entry e ->
      (* Map every build-time prefix in the entry's sub-DAG to its
         location in this store. *)
      let mapping =
        List.filter_map
          (fun (m : Spec.Concrete.node) ->
            let h = Spec.Concrete.node_hash e.Buildcache.e_spec m.Spec.Concrete.name in
            Option.map
              (fun old_prefix -> (old_prefix, prefix_for h m))
              (List.assoc_opt h e.Buildcache.e_prefixes))
          (Spec.Concrete.nodes e.Buildcache.e_spec)
      in
      outcome From_cache
        ~reloc:
          (relocate_into store ~hash
             ~prefix:(prefix_for hash (Spec.Concrete.root_node e.Buildcache.e_spec))
             ~spec:e.Buildcache.e_spec ~mapping e.Buildcache.e_objects)
    | Missing verdicts ->
      (* Every mirror answering "absent" (or no mirror at all) is a
         plain miss: building was always the plan. *)
      if List.for_all (fun (_, e) -> e = Mirror.Absent) verdicts then build Built
      else if can_fall_back then build Fallback_built
      else
        Errors.raise_error
          (Errors.Fetch_failed
             { hash;
               attempts = List.length verdicts;
               mirrors = List.map (fun (m, e) -> (m, Mirror.describe_error e)) verdicts }))

module Ranks = Set.Make (Int)

(* The ready-set scheduler. Nodes are ranked in depth-first post-order
   from the root (children in [Concrete.children] order), a node
   becomes ready when all its dependencies have installed, and each of
   [jobs] workers (the calling domain plus [jobs - 1] spawned ones)
   takes the lowest-ranked ready node. With one worker, nodes install
   in exactly that post-order: the lowest-ranked unfinished node always
   has its dependencies, which rank below it, installed. On failure
   the remaining ready nodes are abandoned but in-flight ones run to
   completion (commit or abort), so at the join every transaction this
   plan opened is settled, and rollback is plain uninstalls, never
   journal surgery that could clobber concurrent installs. *)
let install_exn store ~repo ?(caches = []) ?mirrors ?(fallback = true)
    ?(obs = Obs.disabled) ?(jobs = 1) spec =
  if Obs.enabled obs then Store.set_obs store obs;
  Obs.with_span obs ~cat:"install" "install"
    ~attrs:[ ("root", Obs.S (Spec.Concrete.root spec)); ("jobs", Obs.I jobs) ]
  @@ fun _root_span ->
  let rank = Hashtbl.create 16 and n_total = ref 0 in
  let rec visit name =
    if not (Hashtbl.mem rank name) then begin
      Hashtbl.replace rank name (-1);
      List.iter (fun (c, _) -> visit c) (Spec.Concrete.children spec name);
      Hashtbl.replace rank name !n_total;
      incr n_total
    end
  in
  visit (Spec.Concrete.root spec);
  let n_total = !n_total in
  (* No array starts from a fresh value: making one of more than 256
     slots that way would empty the minor heap. *)
  let names = Array.make n_total "" in
  Hashtbl.iter (fun name i -> names.(i) <- name) rank;
  let pending = Array.make n_total 0 and dependents = Array.make n_total [] in
  Array.iteri
    (fun i name ->
      let cs = Spec.Concrete.children spec name in
      pending.(i) <- List.length cs;
      List.iter
        (fun (c, _) ->
          let ci = Hashtbl.find rank c in
          dependents.(ci) <- i :: dependents.(ci))
        cs)
    names;
  let slots = Array.make n_total None in
  let mu = Mutex.create () and cond = Condition.create () in
  let ready = ref Ranks.empty in
  Array.iteri (fun i p -> if p = 0 then ready := Ranks.add i !ready) pending;
  let finished = ref 0 and stop = ref false and errors = ref [] in
  let run i =
    let node = names.(i) in
    let hash = Spec.Concrete.node_hash spec node in
    Obs.with_span obs ~cat:"install" "install.node"
      ~attrs:[ ("node", Obs.S node); ("hash", Obs.S (Chash.short hash)) ]
    @@ fun nspan ->
    let t0 = Obs.Clock.now_s () in
    let o = install_node store ~repo ~caches ~mirrors ~fallback ~spec ~node ~hash in
    Obs.set_attr nspan "action" (Obs.S (action_name o.action));
    Obs.observe obs "install.node_ms" ((Obs.Clock.now_s () -. t0) *. 1000.);
    o
  in
  let rec worker () =
    Mutex.lock mu;
    while Ranks.is_empty !ready && (not !stop) && !finished < n_total do
      Condition.wait cond mu
    done;
    if !stop || Ranks.is_empty !ready then Mutex.unlock mu
    else begin
      let i = Ranks.min_elt !ready in
      ready := Ranks.remove i !ready;
      Mutex.unlock mu;
      let failure =
        match run i with
        | o ->
          slots.(i) <- Some o;
          None
        | exception e -> Some e
      in
      Mutex.lock mu;
      incr finished;
      (match failure with
      | None ->
        List.iter
          (fun p ->
            pending.(p) <- pending.(p) - 1;
            if pending.(p) = 0 then ready := Ranks.add p !ready)
          dependents.(i)
      | Some e ->
        errors := (i, e) :: !errors;
        stop := true);
      Condition.broadcast cond;
      Mutex.unlock mu;
      worker ()
    end
  in
  let others = List.init (max 0 (jobs - 1)) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join others;
  let outcomes = Array.to_list slots |> List.filter_map Fun.id in
  (* A crash dominates (the store is dead, and typed cleanup would be
     fiction); otherwise the error of the lowest-ranked failed node
     wins, whichever domain reported first. *)
  (match List.sort (fun (i, _) (j, _) -> compare i j) !errors with
  | [] -> ()
  | errs -> (
    match List.find_opt (function _, Store.Crashed _ -> true | _ -> false) errs with
    | Some (_, e) -> raise e
    | None ->
      let _, e = List.hd errs in
      (match e with
      | Errors.Binary_error _ ->
        (* The failed node's own transaction aborted already; only
           the nodes this plan installed need dropping. *)
        List.iter
          (fun o -> if o.action <> Reused then Store.uninstall store ~hash:o.hash)
          outcomes
      | _ -> ());
      raise e));
  let root_record =
    match Store.installed store ~hash:(Spec.Concrete.dag_hash spec) with
    | Some r -> r
    | None -> Errors.raise_error Errors.Root_not_installed
  in
  let root_obj =
    Store.lib_path ~prefix:root_record.Store.prefix
      ~soname:(Store.soname_of (Spec.Concrete.root spec))
  in
  (* Hash lists are sorted, not left in schedule order, so reports are
     byte-identical whatever the number of workers. *)
  let hashes a =
    List.filter_map (fun o -> if o.action = a then Some o.hash else None) outcomes
    |> List.sort String.compare
  in
  { built = hashes Built;
    reused = hashes Reused;
    from_cache = hashes From_cache;
    rewired = hashes Rewired;
    fallback_built = hashes Fallback_built;
    rewire_fallbacks = hashes Rewire_fallback;
    reloc =
      List.fold_left (fun s o -> Relocate.add_stats s o.reloc) Relocate.empty_stats outcomes;
    fetch_telemetry =
      Option.map
        (fun _ ->
          let t = Mirror.fresh_telemetry () in
          List.iter (fun o -> Option.iter (Mirror.add_telemetry t) o.fetched) outcomes;
          t)
        mirrors;
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
