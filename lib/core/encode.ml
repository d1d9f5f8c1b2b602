open Asp.Ast
module T = Asp.Term

type encoding = Old | Hash_attr

type request = {
  req : Spec.Abstract.t;
  forbid : string list;
}

let request_of_string ?(forbid = []) s = { req = Spec.Parser.parse s; forbid }

type reuse_pool = { by_hash : (string, Spec.Concrete.t) Hashtbl.t }

let build_pool specs =
  let by_hash = Hashtbl.create 256 in
  List.iter
    (fun spec ->
      List.iter
        (fun (n : Spec.Concrete.node) ->
          let h = Spec.Concrete.node_hash spec n.Spec.Concrete.name in
          if not (Hashtbl.mem by_hash h) then
            Hashtbl.replace by_hash h (Spec.Concrete.subdag spec n.Spec.Concrete.name))
        (Spec.Concrete.nodes spec))
    specs;
  { by_hash }

(* One-entry memo per domain, keyed on the physical identity of the
   reuse list. Callers hand the same (immutable) list to every request
   — the CLI once per process, the server once per generation — so the
   pool is built once per list and domain instead of once per request.
   A different list, even a structurally equal one, is a miss. Per
   domain, the memo needs no lock: batch and server domains each keep
   their own. *)
let pool_memo : (Spec.Concrete.t list * reuse_pool) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let pool_of_specs specs =
  let memo = Domain.DLS.get pool_memo in
  match !memo with
  | Some (s, pool) when s == specs -> pool
  | _ ->
    let pool = build_pool specs in
    memo := Some (specs, pool);
    pool

let pool_size pool = Hashtbl.length pool.by_hash

type t = {
  facts : statement list;
  rules : statement list;
  pool : reuse_pool;
  pool_total : int;
}

(* Term shorthands. Constants go through the interner: package names
   and hashes recur across thousands of facts, and interned terms make
   the grounder's joins pointer comparisons. *)
let str s = T.str s
let node_t p = T.App ("node", [ T.str p ])
let f name args = fact (atom name args)

let vstr v = Vers.Version.to_string v

(* ---- the version universe -------------------------------------- *)

(* Collect every version any package is known at: declarations plus
   versions appearing in reusable specs. Range constraints are
   precompiled against this. *)
let version_universe ~repo ~pool =
  let tbl : (string, Vers.Version.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let add p v =
    match Hashtbl.find_opt tbl p with
    | Some l -> if not (List.exists (Vers.Version.equal v) !l) then l := v :: !l
    | None -> Hashtbl.add tbl p (ref [ v ])
  in
  List.iter
    (fun (pkg : Pkg.Package.t) ->
      List.iter (add pkg.Pkg.Package.name) pkg.Pkg.Package.versions)
    (Pkg.Repo.packages repo);
  Hashtbl.iter
    (fun _ spec ->
      let n = Spec.Concrete.root_node spec in
      add n.Spec.Concrete.name n.Spec.Concrete.version)
    pool.by_hash;
  tbl

let versions_of universe p =
  match Hashtbl.find_opt universe p with Some l -> !l | None -> []

let versions_satisfying universe p range =
  List.filter (fun v -> Vers.Range.satisfies v range) (versions_of universe p)

(* ---- package facts ---------------------------------------------- *)

let bool_values = [ "True"; "False" ]

let encode_variant_decl pname (v : Pkg.Package.variant_decl) =
  let values =
    match v.Pkg.Package.v_values with Some vs -> vs | None -> bool_values
  in
  f "variant_decl" [ str pname; str v.Pkg.Package.v_name ]
  :: f "variant_default"
       [ str pname;
         str v.Pkg.Package.v_name;
         str (Spec.Types.variant_value_to_string v.Pkg.Package.v_default) ]
  :: List.map
       (fun value ->
         f "variant_possible" [ str pname; str v.Pkg.Package.v_name; str value ])
       values

(* Conditions: every directive with a [when] becomes a condition id
   with requirements; unconditional directives get a condition whose
   only requirement is the node's presence (§5.1.1). Condition ids are
   drawn from a per-encode counter, not a global: batch concretization
   encodes in parallel domains. *)
let fresh_cond counter =
  incr counter;
  Printf.sprintf "c%d" !counter

let encode_when universe pname (w : Spec.Abstract.node option) cid =
  let base = [ f "condition_requirement" [ str cid; str "node"; str pname ] ] in
  match w with
  | None -> base
  | Some n ->
    let version_reqs =
      if Vers.Range.is_any n.Spec.Abstract.version then []
      else
        f "condition_requirement" [ str cid; str "version_ok"; str pname ]
        :: List.map
             (fun v -> f "cond_version_ok" [ str cid; str (vstr v) ])
             (versions_satisfying universe pname n.Spec.Abstract.version)
    in
    let variant_reqs =
      Spec.Types.Smap.fold
        (fun var value acc ->
          f "condition_requirement"
            [ str cid; str "variant"; str pname; str var;
              str (Spec.Types.variant_value_to_string value) ]
          :: acc)
        n.Spec.Abstract.variants []
    in
    base @ version_reqs @ variant_reqs

let deptype_atoms (dt : Spec.Types.deptypes) =
  (if dt.Spec.Types.link then [ "link" ] else [])
  @ if dt.Spec.Types.build then [ "build" ] else []

let encode_dependency cond universe pname (d : Pkg.Package.dep_decl) =
  let cid = fresh_cond cond in
  let dname = d.Pkg.Package.d_spec.Spec.Abstract.root.Spec.Abstract.name in
  let droot = d.Pkg.Package.d_spec.Spec.Abstract.root in
  let base =
    (f "condition" [ str cid ]
    :: encode_when universe pname d.Pkg.Package.d_when cid)
    @ List.map
        (fun dt -> f "imposed_dep" [ str cid; str pname; str dname; str dt ])
        (deptype_atoms d.Pkg.Package.d_types)
  in
  let version_constraint =
    if Vers.Range.is_any droot.Spec.Abstract.version then []
    else
      f "dep_req_version" [ str cid; str dname ]
      :: List.map
           (fun v -> f "dep_version_ok" [ str cid; str (vstr v) ])
           (versions_satisfying universe dname droot.Spec.Abstract.version)
  in
  let variant_constraints =
    Spec.Types.Smap.fold
      (fun var value acc ->
        f "dep_req_variant"
          [ str cid; str dname; str var;
            str (Spec.Types.variant_value_to_string value) ]
        :: acc)
      droot.Spec.Abstract.variants []
  in
  base @ version_constraint @ variant_constraints

let encode_conflict cond universe pname (c : Pkg.Package.conflict_decl) =
  let cid = fresh_cond cond in
  (* The conflict fires when both the when-condition and the conflicting
     configuration hold: merge both into the requirements. *)
  let merged =
    match c.Pkg.Package.c_when with
    | None -> Some c.Pkg.Package.c_spec
    | Some w -> Spec.Abstract.node_intersect w c.Pkg.Package.c_spec
  in
  match merged with
  | None -> [] (* contradictory condition can never fire *)
  | Some m ->
    (f "condition" [ str cid ] :: encode_when universe pname (Some m) cid)
    @ [ f "imposed_conflict" [ str cid ] ]

let encode_package cond universe (pkg : Pkg.Package.t) =
  let pname = pkg.Pkg.Package.name in
  let versions =
    List.concat
      (List.mapi
         (fun i v ->
           [ f "version_decl" [ str pname; str (vstr v) ];
             f "version_weight" [ str pname; str (vstr v); T.Int i ] ])
         pkg.Pkg.Package.versions)
  in
  versions
  @ List.concat_map (encode_variant_decl pname) pkg.Pkg.Package.variants
  @ List.concat_map
      (encode_dependency cond universe pname)
      pkg.Pkg.Package.dependencies
  @ List.concat_map
      (fun (p : Pkg.Package.provide_decl) ->
        [ f "provides" [ str pname; str p.Pkg.Package.p_virtual ];
          f "virtual" [ str p.Pkg.Package.p_virtual ] ])
      pkg.Pkg.Package.provides
  @ List.concat_map (encode_conflict cond universe pname) pkg.Pkg.Package.conflicts

(* Versions present only in the reuse pool still need version_decl /
   version_weight facts so the choice rule can select them; they rank
   after all declared versions. *)
let encode_pool_versions ~repo universe =
  Hashtbl.fold
    (fun p versions acc ->
      let declared =
        match Pkg.Repo.find repo p with
        | Some pkg -> pkg.Pkg.Package.versions
        | None -> []
      in
      List.fold_left
        (fun acc v ->
          if List.exists (Vers.Version.equal v) declared then acc
          else
            f "version_decl" [ str p; str (vstr v) ]
            :: f "version_weight" [ str p; str (vstr v); T.Int 20 ]
            :: acc)
        acc !versions)
    universe []

(* ---- user requests ---------------------------------------------- *)

let encode_node_constraints universe ~prefix name (n : Spec.Abstract.node) =
  let version =
    if Vers.Range.is_any n.Spec.Abstract.version then []
    else
      f (prefix ^ "_version_req") [ str name ]
      :: List.map
           (fun v -> f (prefix ^ "_version_ok") [ str name; str (vstr v) ])
           (versions_satisfying universe name n.Spec.Abstract.version)
  in
  let variants =
    Spec.Types.Smap.fold
      (fun var value acc ->
        f (prefix ^ "_variant")
          [ str name; str var; str (Spec.Types.variant_value_to_string value) ]
        :: acc)
      n.Spec.Abstract.variants []
  in
  version @ variants

let encode_request universe (r : request) =
  let root = r.req.Spec.Abstract.root in
  let rname = root.Spec.Abstract.name in
  (fact { pred = "attr"; args = [ str "root"; node_t rname ] }
  :: encode_node_constraints universe ~prefix:"user" rname root)
  @ List.concat_map
      (fun (d : Spec.Abstract.dep) ->
        let dname = d.Spec.Abstract.node.Spec.Abstract.name in
        f "user_dep" [ str rname; str dname ]
        :: encode_node_constraints universe ~prefix:"user_dep" dname d.Spec.Abstract.node)
      r.req.Spec.Abstract.deps
  @ List.map (fun p -> f "user_forbid" [ str p ]) r.forbid

(* ---- reusable specs --------------------------------------------- *)

(* Attribute tuples shared by both encodings; the predicate differs
   (imposed_constraint directly, or hash_attr + recovery rules). *)
let entry_tuples h spec =
  let n = Spec.Concrete.root_node spec in
  let p = n.Spec.Concrete.name in
  let base =
    [ [ h; "version"; p; vstr n.Spec.Concrete.version ];
      [ h; "node_os"; p; n.Spec.Concrete.os ];
      [ h; "node_target"; p; n.Spec.Concrete.target ] ]
  in
  let variants =
    Spec.Types.Smap.fold
      (fun var value acc ->
        [ h; "variant"; p; var; Spec.Types.variant_value_to_string value ] :: acc)
      n.Spec.Concrete.variants []
  in
  let deps =
    List.concat_map
      (fun (c, (dt : Spec.Types.deptypes)) ->
        if not dt.Spec.Types.link then []
        else
          [ [ h; "depends_on"; p; c; "link" ];
            [ h; "hash"; c; Spec.Concrete.node_hash spec c ] ])
      (Spec.Concrete.children spec p)
  in
  (p, base @ variants @ deps)

let reusable_tuples pool =
  Hashtbl.fold
    (fun h spec acc ->
      let p, tuples = entry_tuples h spec in
      (h, p, tuples) :: acc)
    pool.by_hash []

(* Child hashes some entry imposes whose own sub-DAG is not an installed
   candidate. [pool_of_specs] closes pools over sub-DAGs, so this is
   empty for pools built there; an externally indexed buildcache can
   hold a parent without its child, and the linear at-most-one encoding
   (the stray_hash constraint in {!Program}) needs those pairs called
   out. Deterministic order: entries by hash, children in DAG order. *)
let stray_hashes pool =
  let seen = Hashtbl.create 16 in
  let strays = ref [] in
  let hashes =
    Hashtbl.fold (fun h _ acc -> h :: acc) pool.by_hash []
    |> List.sort String.compare
  in
  List.iter
    (fun h ->
      let spec = Hashtbl.find pool.by_hash h in
      let p = (Spec.Concrete.root_node spec).Spec.Concrete.name in
      List.iter
        (fun (c, (dt : Spec.Types.deptypes)) ->
          if dt.Spec.Types.link then begin
            let ch = Spec.Concrete.node_hash spec c in
            let installed =
              match Hashtbl.find_opt pool.by_hash ch with
              | Some s ->
                String.equal (Spec.Concrete.root_node s).Spec.Concrete.name c
              | None -> false
            in
            if (not installed) && not (Hashtbl.mem seen (c, ch)) then begin
              Hashtbl.replace seen (c, ch) ();
              strays := (c, ch) :: !strays
            end
          end)
        (Spec.Concrete.children spec p))
    hashes;
  List.rev !strays

let encode_reusable ~encoding pool =
  let pred = match encoding with Old -> "imposed_constraint" | Hash_attr -> "hash_attr" in
  List.concat_map
    (fun (h, p, tuples) ->
      f "installed_hash" [ str p; str h ]
      :: List.map (fun args -> f pred (List.map str args)) tuples)
    (reusable_tuples pool)
  @ List.map (fun (c, ch) -> f "stray_hash" [ str c; str ch ]) (stray_hashes pool)

(* ---- can_splice rules (Fig. 4a) ---------------------------------- *)

(* One rule per directive:
   can_splice(node(S), T, Hash) :-
     installed_hash(T, Hash), attr("node", node(S)),
     <when-conditions over node(S)>, <target conditions over hash_attr>. *)
let encode_can_splice scounter universe (pkg : Pkg.Package.t)
    (s : Pkg.Package.splice_decl) =
  incr scounter;
  let sid = Printf.sprintf "s%d" !scounter in
  let sname = pkg.Pkg.Package.name in
  let target = s.Pkg.Package.s_target.Spec.Abstract.root in
  let tname = target.Spec.Abstract.name in
  let hash = T.Var "Hash" in
  let facts = ref [] in
  let when_body =
    let w = s.Pkg.Package.s_when in
    let version =
      if Vers.Range.is_any w.Spec.Abstract.version then []
      else begin
        facts :=
          List.map
            (fun v -> f "splice_when_version_ok" [ str sid; str (vstr v) ])
            (versions_satisfying universe sname w.Spec.Abstract.version)
          @ !facts;
        [ Pos (atom "attr" [ str "version"; node_t sname; T.Var "Vw" ]);
          Pos (atom "splice_when_version_ok" [ str sid; T.Var "Vw" ]) ]
      end
    in
    let variants =
      Spec.Types.Smap.fold
        (fun var value acc ->
          Pos
            (atom "attr"
               [ str "variant_value"; node_t sname; str var;
                 str (Spec.Types.variant_value_to_string value) ])
          :: acc)
        w.Spec.Abstract.variants []
    in
    version @ variants
  in
  let target_body =
    let version =
      if Vers.Range.is_any target.Spec.Abstract.version then []
      else begin
        facts :=
          List.map
            (fun v -> f "splice_target_version_ok" [ str sid; str (vstr v) ])
            (versions_satisfying universe tname target.Spec.Abstract.version)
          @ !facts;
        [ Pos (atom "hash_attr" [ hash; str "version"; str tname; T.Var "Vt" ]);
          Pos (atom "splice_target_version_ok" [ str sid; T.Var "Vt" ]) ]
      end
    in
    let variants =
      Spec.Types.Smap.fold
        (fun var value acc ->
          Pos
            (atom "hash_attr"
               [ hash; str "variant"; str tname; str var;
                 str (Spec.Types.variant_value_to_string value) ])
          :: acc)
        target.Spec.Abstract.variants []
    in
    version @ variants
  in
  let rule =
    Rule
      { head = Head_atom (atom "can_splice" [ node_t sname; str tname; hash ]);
        body =
          Pos (atom "installed_hash" [ str tname; hash ])
          :: Pos (atom "attr" [ str "node"; node_t sname ])
          :: (when_body @ target_body) }
  in
  (rule, !facts)

(* ---- reuse-pool pruning ------------------------------------------- *)

(* The dependency closure of a set of root package names: every package
   whose [attr("node", node(P))] atom the grounder could possibly
   derive for a request rooted there. Expansion follows
   - every dependency directive, unconditionally (phase 1 of the
     grounder ignores when-conditions the same way),
   - virtual names to all their providers (the provider choice rule),
   - [can_splice] directives of a closure package S to their target T
     (a can_splice rule only fires when node(S) is already possible,
     and then makes T's installed specs selectable), and
   - reusable sub-DAGs rooted at a closure package to every node they
     impose (a chosen hash imposes its children even if the current
     repo no longer reaches them). *)
let closure ~repo ~splicing ~pool roots =
  let pool_by_name : (string, Spec.Concrete.t list ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ spec ->
      let n = (Spec.Concrete.root_node spec).Spec.Concrete.name in
      match Hashtbl.find_opt pool_by_name n with
      | Some l -> l := spec :: !l
      | None -> Hashtbl.add pool_by_name n (ref [ spec ]))
    pool.by_hash;
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      Queue.add n queue
    end
  in
  List.iter add roots;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    List.iter (fun (q : Pkg.Package.t) -> add q.Pkg.Package.name) (Pkg.Repo.providers repo n);
    (match Pkg.Repo.find repo n with
    | None -> ()
    | Some pkg ->
      List.iter
        (fun (d : Pkg.Package.dep_decl) ->
          add d.Pkg.Package.d_spec.Spec.Abstract.root.Spec.Abstract.name)
        pkg.Pkg.Package.dependencies;
      if splicing then
        List.iter
          (fun (s : Pkg.Package.splice_decl) ->
            add s.Pkg.Package.s_target.Spec.Abstract.root.Spec.Abstract.name)
          pkg.Pkg.Package.splices);
    match Hashtbl.find_opt pool_by_name n with
    | None -> ()
    | Some specs ->
      List.iter
        (fun spec ->
          List.iter
            (fun (node : Spec.Concrete.node) -> add node.Spec.Concrete.name)
            (Spec.Concrete.nodes spec))
        !specs
  done;
  seen

(* ---- top level ---------------------------------------------------- *)

(* Provider weights rank a virtual's full provider list, so pruning
   must keep the list (and hence the indices) intact: it only drops
   virtuals no closure package provides — all providers of a virtual
   that is actually requirable lie in the closure by construction. *)
let provider_weight_facts ~repo packages =
  let virtuals =
    List.concat_map
      (fun (p : Pkg.Package.t) ->
        List.map (fun (pr : Pkg.Package.provide_decl) -> pr.Pkg.Package.p_virtual)
          p.Pkg.Package.provides)
      packages
    |> List.sort_uniq String.compare
  in
  List.concat_map
    (fun v ->
      List.mapi
        (fun i (q : Pkg.Package.t) ->
          f "provider_weight" [ str q.Pkg.Package.name; str v; T.Int i ])
        (Pkg.Repo.providers repo v))
    virtuals

(* Binaries built for the host's target or any of its ancestors are
   deployable here (microarchitecture compatibility). *)
let target_ok_facts host_target =
  List.map (fun t -> f "target_ok" [ str t ]) (Spec.Targets.ancestors host_target)

let encode ~repo ~encoding ~splicing ~reuse ?(prune = false) ?(obs = Obs.disabled)
    ~host_os ~host_target requests =
  let roots =
    List.map
      (fun (r : request) -> r.req.Spec.Abstract.root.Spec.Abstract.name)
      requests
  in
  let cond = ref 0 in
  let scounter = ref 0 in
  let full_pool = pool_of_specs reuse in
  let pool_total = pool_size full_pool in
  let keep =
    if prune then
      Some
        (Obs.with_span obs ~cat:"encode" "encode.closure" (fun sp ->
             let cl = closure ~repo ~splicing ~pool:full_pool roots in
             Obs.set_attr sp "pool_total" (Obs.I pool_total);
             Obs.set_attr sp "closure_packages" (Obs.I (Hashtbl.length cl));
             cl))
    else None
  in
  let in_closure name =
    match keep with None -> true | Some cl -> Hashtbl.mem cl name
  in
  let pool =
    match keep with
    | None -> full_pool
    | Some cl ->
      let by_hash = Hashtbl.create 256 in
      Hashtbl.iter
        (fun h spec ->
          if Hashtbl.mem cl (Spec.Concrete.root_node spec).Spec.Concrete.name then
            Hashtbl.replace by_hash h spec)
        full_pool.by_hash;
      { by_hash }
  in
  let universe = version_universe ~repo ~pool in
  let packages =
    List.filter
      (fun (p : Pkg.Package.t) -> in_closure p.Pkg.Package.name)
      (Pkg.Repo.packages repo)
  in
  let package_facts = List.concat_map (encode_package cond universe) packages in
  let splice_rules, splice_facts =
    if splicing then begin
      if encoding = Old then
        invalid_arg "encode: splicing requires the hash_attr encoding (§5.3)";
      List.fold_left
        (fun (rules, facts) (pkg : Pkg.Package.t) ->
          List.fold_left
            (fun (rules, facts) decl ->
              let r, fs = encode_can_splice scounter universe pkg decl in
              (r :: rules, fs @ facts))
            (rules, facts) pkg.Pkg.Package.splices)
        ([], []) packages
    end
    else ([], [])
  in
  let facts =
    (f "host_os" [ str host_os ] :: f "host_target" [ str host_target ] :: package_facts)
    @ target_ok_facts host_target
    @ provider_weight_facts ~repo packages
    @ encode_pool_versions ~repo universe
    @ encode_reusable ~encoding pool
    @ splice_facts
    @ List.concat_map (encode_request universe) requests
  in
  Obs.gauge obs "encode.pool_total" pool_total;
  Obs.gauge obs "encode.pool_kept" (pool_size pool);
  { facts; rules = splice_rules; pool; pool_total }
