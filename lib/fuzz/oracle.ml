(* Oracle harnesses: everything we can demand of the stack on a random
   universe without trusting the solver.

   - every SAT answer must pass [Core.Verify.check_solution] (an
     independent reimplementation of the semantics);
   - every UNSAT answer must carry a DRUP certificate accepted by the
     independent {!Drup} checker;
   - on small instances, UNSAT answers are cross-checked against a
     brute-force reference enumerator (completeness);
   - [Old] and [Hash_attr] encodings must agree on optimum costs and
     the root DAG hash;
   - metamorphic: adding an irrelevant cached spec must not change the
     solution; a solver-chosen splice of a declared-compatible package
     must install by rewiring and link cleanly under {!Abi}. *)

type stats = {
  mutable sat_verified : int;
  mutable unsat_certified : int;
  mutable brute_confirmed : int;
  mutable encodings_agreed : int;
  mutable metamorphic_ok : int;
  mutable splices_linked : int;
}

let fresh_stats () =
  { sat_verified = 0;
    unsat_certified = 0;
    brute_confirmed = 0;
    encodings_agreed = 0;
    metamorphic_ok = 0;
    splices_linked = 0 }

let add_stats a b =
  a.sat_verified <- a.sat_verified + b.sat_verified;
  a.unsat_certified <- a.unsat_certified + b.unsat_certified;
  a.brute_confirmed <- a.brute_confirmed + b.brute_confirmed;
  a.encodings_agreed <- a.encodings_agreed + b.encodings_agreed;
  a.metamorphic_ok <- a.metamorphic_ok + b.metamorphic_ok;
  a.splices_linked <- a.splices_linked + b.splices_linked

let pp_stats fmt s =
  Format.fprintf fmt
    "sat-verified=%d unsat-certified=%d brute-confirmed=%d encodings-agreed=%d metamorphic=%d splices-linked=%d"
    s.sat_verified s.unsat_certified s.brute_confirmed s.encodings_agreed
    s.metamorphic_ok s.splices_linked

let is_unsat (f : Core.Concretizer.failure) =
  match f.Core.Concretizer.f_kind with
  | Core.Concretizer.Unsat _ -> true
  | Core.Concretizer.Timeout | Core.Concretizer.Other -> false

(* ---- brute-force reference enumerator ---------------------------- *)

(* Enumerate every candidate concrete DAG for [request]: a version per
   package, a value per declared variant, a provider per virtual; the
   dependency closure from the root then follows deterministically from
   the package directives. A candidate counts iff the independent
   validator accepts it. Used only when the choice space is small. *)

exception Found

let brute_has_solution ~repo (u : Gen.t) request_text =
  let pkgs =
    List.filter (fun (p : Gen.upkg) -> p.Gen.up_name <> Gen.stray_name) u.Gen.u_pkgs
  in
  let providers =
    List.filter (fun (p : Gen.upkg) -> p.Gen.up_provides <> None) pkgs
  in
  let dims =
    List.concat_map
      (fun (p : Gen.upkg) ->
        List.length p.Gen.up_versions
        :: (match p.Gen.up_variant with Some _ -> [ 2 ] | None -> []))
      pkgs
    @ (if providers = [] then [] else [ List.length providers ])
  in
  let space = List.fold_left ( * ) 1 dims in
  if space > 4096 then None
  else begin
    let request = Spec.Parser.parse request_text in
    let root_name = request.Spec.Abstract.root.Spec.Abstract.name in
    let try_candidate choices =
      (* Decode the choice vector back into per-package picks. *)
      let rest = ref choices in
      let take () =
        match !rest with
        | c :: tl ->
          rest := tl;
          c
        | [] -> assert false
      in
      let picks =
        List.map
          (fun (p : Gen.upkg) ->
            let v = List.nth p.Gen.up_versions (take ()) in
            let fast =
              match p.Gen.up_variant with
              | Some _ -> Some (take () = 0)
              | None -> None
            in
            (p, v, fast))
          pkgs
      in
      let provider =
        if providers = [] then None
        else
          Some (List.nth providers (take ())).Gen.up_name
      in
      let node_of (p : Gen.upkg) v fast =
        { Spec.Concrete.name = p.Gen.up_name;
          version = Vers.Version.of_string v;
          variants =
            (match fast with
            | Some b -> Spec.Types.Smap.singleton "fast" (Spec.Types.Bool b)
            | None -> Spec.Types.Smap.empty);
          os = "linux";
          target = "x86_64";
          build_hash = None }
      in
      let pick_of name =
        List.find_opt (fun ((p : Gen.upkg), _, _) -> p.Gen.up_name = name) picks
      in
      (* Dependency closure from the root under this assignment. *)
      let nodes = Hashtbl.create 8 in
      let edges = ref [] in
      let rec visit name =
        if not (Hashtbl.mem nodes name) then
          match pick_of name with
          | None -> ()
          | Some (p, v, fast) ->
            let node = node_of p v fast in
            Hashtbl.replace nodes name node;
            List.iter
              (fun (d : Gen.udep) ->
                let applies =
                  match d.Gen.ud_when with
                  | None -> true
                  | Some w ->
                    Spec.Concrete.node_satisfies node (Spec.Parser.parse_node w)
                in
                if applies then begin
                  let target_name =
                    (Spec.Parser.parse d.Gen.ud_target).Spec.Abstract.root
                      .Spec.Abstract.name
                  in
                  let target_name =
                    if target_name = Gen.virtual_name then
                      match provider with Some pr -> pr | None -> target_name
                    else target_name
                  in
                  let dt =
                    if d.Gen.ud_build_only then Spec.Types.dt_build
                    else Spec.Types.dt_both
                  in
                  edges := (name, target_name, dt) :: !edges;
                  visit target_name
                end)
              p.Gen.up_deps
      in
      visit root_name;
      match Hashtbl.length nodes with
      | 0 -> ()
      | _ -> (
        let node_list = Hashtbl.fold (fun _ n acc -> n :: acc) nodes [] in
        (* Drop edges into packages that never resolved (e.g. a virtual
           with no provider picked): Concrete.create would reject them,
           and the validator will flag the missing dependency anyway. *)
        let edges =
          List.filter (fun (_, d, _) -> Hashtbl.mem nodes d) !edges
        in
        match
          Spec.Concrete.create ~root:root_name ~nodes:node_list ~edges ()
        with
        | exception Invalid_argument _ -> ()
        | spec ->
          let violations =
            Core.Verify.check_solution ~repo ~request ~host_os:"linux"
              ~host_target:"x86_64" spec
          in
          if violations = [] then raise Found)
    in
    let rec enumerate acc = function
      | [] -> try_candidate (List.rev acc)
      | d :: rest ->
        for c = 0 to d - 1 do
          enumerate (c :: acc) rest
        done
    in
    match enumerate [] dims with
    | () -> Some false
    | exception Found -> Some true
  end

(* ---- the oracle proper ------------------------------------------- *)

let options ?(encoding = Core.Encode.Hash_attr) ?(splicing = false)
    ?(reuse = []) ?(certify = false) () =
  { Core.Concretizer.default_options with
    Core.Concretizer.encoding;
    splicing;
    reuse;
    certify }

let concretize ~repo ~options request_text =
  Core.Concretizer.concretize_v ~repo ~options
    [ Core.Encode.request_of_string request_text ]

let root_spec (o : Core.Concretizer.outcome) =
  List.hd o.Core.Concretizer.solution.Core.Decode.specs

let costs (o : Core.Concretizer.outcome) = o.Core.Concretizer.stats.Core.Concretizer.costs

let check ?(stats = fresh_stats ()) (u : Gen.t) =
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  (try
     let repo = Gen.to_repo u in
     (match Pkg.Repo.validate repo with
     | Ok () -> ()
     | Error es -> fail "generator bug: invalid repo: %s" (String.concat "; " es));
     (* Populate a buildcache from the cache roots (skipping any that
        fail to concretize — random universes may be UNSAT). *)
     let vfs = Binary.Vfs.create () in
     let farm = Binary.Store.create ~root:"/farm" vfs in
     let cache = Binary.Buildcache.create ~name:"fuzz" in
     List.iter
       (fun r ->
         match concretize ~repo ~options:(options ()) r with
         | Error _ -> ()
         | Ok o -> (
           let spec = root_spec o in
           match Binary.Builder.build_all farm ~repo spec with
           | Error e ->
             fail "cache build %s: %s" r (Binary.Errors.to_string e)
           | Ok _ -> (
             match Binary.Buildcache.push cache farm spec with
             | Error e -> fail "cache push %s: %s" r (Binary.Errors.to_string e)
             | Ok _ -> ())))
       u.Gen.u_cache_roots;
     let pool = Binary.Buildcache.specs cache in
     let stray_spec =
       match concretize ~repo ~options:(options ()) Gen.stray_name with
       | Ok o -> Some (root_spec o)
       | Error _ -> None
     in
     List.iter
       (fun r ->
         (* 1. plain concretization, certified *)
         (match concretize ~repo ~options:(options ~certify:true ()) r with
         | Ok o ->
           let spec = root_spec o in
           let vs =
             Core.Verify.check_solution ~repo ~request:(Spec.Parser.parse r) spec
           in
           if vs <> [] then
             fail "request %s: solver output fails validation: %s" r
               (String.concat "; "
                  (List.map
                     (Format.asprintf "%a" Core.Verify.pp_violation)
                     vs))
           else stats.sat_verified <- stats.sat_verified + 1;
           (* Self-check of the reference enumerator: if the solver has
              a (validated) solution the brute-force search must find
              one too, or its UNSAT cross-checks are worthless. *)
           (match brute_has_solution ~repo u r with
           | Some false ->
             fail "request %s: brute-force reference missed the solver's valid solution" r
           | Some true -> stats.brute_confirmed <- stats.brute_confirmed + 1
           | None -> ())
         | Error { Core.Concretizer.f_kind = Core.Concretizer.Unsat proof; _ } -> (
           (match proof with
           | None -> fail "request %s: UNSAT without a proof" r
           | Some steps -> (
             match Drup.check steps with
             | Ok () -> stats.unsat_certified <- stats.unsat_certified + 1
             | Error e -> fail "request %s: UNSAT proof rejected: %s" r e));
           match brute_has_solution ~repo u r with
           | Some true ->
             fail "request %s: solver says UNSAT but brute force found a valid solution" r
           | Some false -> stats.brute_confirmed <- stats.brute_confirmed + 1
           | None -> ())
         | Error f -> fail "request %s: %s" r f.Core.Concretizer.f_message);
         (* 2. encoding agreement over the populated pool *)
         (let old_r =
            concretize ~repo
              ~options:(options ~encoding:Core.Encode.Old ~reuse:pool ())
              r
          in
          let new_r = concretize ~repo ~options:(options ~reuse:pool ()) r in
          match (old_r, new_r) with
          | Ok a, Ok b ->
            if costs a <> costs b then
              fail "request %s: encodings disagree on costs (old %s, hash_attr %s)"
                r
                (String.concat ","
                   (List.map (fun (p, c) -> Printf.sprintf "%d@%d" c p) (costs a)))
                (String.concat ","
                   (List.map (fun (p, c) -> Printf.sprintf "%d@%d" c p) (costs b)))
            else if
              Spec.Concrete.dag_hash (root_spec a)
              <> Spec.Concrete.dag_hash (root_spec b)
            then fail "request %s: encodings disagree on the root DAG" r
            else stats.encodings_agreed <- stats.encodings_agreed + 1
          | Error a, Error b
            when is_unsat a && is_unsat b ->
            stats.encodings_agreed <- stats.encodings_agreed + 1
          | Ok _, Error f ->
            fail "request %s: old encoding SAT but hash_attr failed: %s" r
              f.Core.Concretizer.f_message
          | Error f, Ok _ ->
            fail "request %s: hash_attr SAT but old encoding failed: %s" r
              f.Core.Concretizer.f_message
          | Error a, Error b ->
            fail "request %s: encodings fail differently: %s / %s" r
              a.Core.Concretizer.f_message b.Core.Concretizer.f_message);
         (* 3. metamorphic: an irrelevant cached spec changes nothing *)
         (match stray_spec with
         | None -> ()
         | Some stray -> (
           let base = concretize ~repo ~options:(options ~reuse:pool ()) r in
           let extended =
             concretize ~repo ~options:(options ~reuse:(pool @ [ stray ]) ()) r
           in
           match (base, extended) with
           | Ok a, Ok b ->
             if
               Spec.Concrete.dag_hash (root_spec a)
               <> Spec.Concrete.dag_hash (root_spec b)
               || costs a <> costs b
             then
               fail "request %s: an irrelevant cached spec changed the solution" r
             else stats.metamorphic_ok <- stats.metamorphic_ok + 1
           | Error a, Error b
             when is_unsat a && is_unsat b ->
             stats.metamorphic_ok <- stats.metamorphic_ok + 1
           | _ ->
             fail "request %s: an irrelevant cached spec flipped SAT/UNSAT" r));
         (* 4. a solver-chosen splice must rewire and link *)
         if pool <> [] then
           match
             concretize ~repo ~options:(options ~reuse:pool ~splicing:true ()) r
           with
           | Error _ -> ()
           | Ok o ->
             let sol = o.Core.Concretizer.solution in
             if sol.Core.Decode.splices <> [] then begin
               let spec = root_spec o in
               let vs =
                 Core.Verify.check_solution ~repo
                   ~request:(Spec.Parser.parse r) spec
               in
               if vs <> [] then
                 fail "request %s: spliced solution fails validation: %s" r
                   (String.concat "; "
                      (List.map
                         (Format.asprintf "%a" Core.Verify.pp_violation)
                         vs));
               let cvfs = Binary.Vfs.create () in
               let cluster = Binary.Store.create ~root:"/cluster" cvfs in
               match
                 Binary.Installer.install cluster ~repo ~caches:[ cache ] spec
               with
               | Error e ->
                 fail "request %s: spliced install failed: %s" r
                   (Binary.Errors.to_string e)
               | Ok report -> (
                 match report.Binary.Installer.link_result with
                 | Ok _ -> stats.splices_linked <- stats.splices_linked + 1
                 | Error es ->
                   fail
                     "request %s: declared-compatible splice fails to link (%d errors)"
                     r (List.length es))
             end)
       u.Gen.u_requests
   with e ->
     violations :=
       Printf.sprintf "exception: %s" (Printexc.to_string e) :: !violations);
  List.rev !violations
