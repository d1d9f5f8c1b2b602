(* The concretizer end to end: selection semantics, user constraints,
   virtuals, conflicts, reuse, and automatic splice synthesis (5.4). *)

open Spec.Types
module CC = Core.Concretizer

let repo =
  Pkg.Repo.of_packages
    Pkg.Package.
      [ make "example"
        |> version "1.1.0" |> version "1.0.0"
        |> variant "bzip" ~default:(Bool true)
        |> depends_on "bzip2" ~when_:"+bzip"
        |> depends_on "zlib@1.2" ~when_:"@1.0.0"
        |> depends_on "zlib@1.3" ~when_:"@1.1.0"
        |> depends_on "mpi";
        make "bzip2" |> version "1.0.8";
        make "zlib" |> version "1.3.1" |> version "1.2.13";
        make "mpich" ~abi_family:"mpich-abi"
        |> version "4.1.2" |> version "3.4.3"
        |> provides "mpi" |> depends_on "zlib";
        make "openmpi" ~abi_family:"ompi" |> version "4.1.5" |> provides "mpi";
        make "mpiabi" ~abi_family:"mpich-abi"
        |> version "1.0" |> provides "mpi" |> depends_on "zlib"
        |> can_splice "mpich@3.4.3" ~when_:"@1.0";
        make "grumpy" |> version "1.0"
        |> variant "fire" ~default:(Bool false)
        |> conflicts "+fire" ~when_:"@1.0";
        make "picky" |> version "1.0" |> depends_on "zlib@1.2";
        make "tool" |> version "2.0";
        make "builder-user" |> version "1.0" |> depends_on "zlib"
        |> depends_on "tool" ~deptypes:dt_build ]

let concretize ?options text =
  match CC.concretize_spec ~repo ?options text with
  | Ok o -> o
  | Error e -> Alcotest.failf "concretize %S: %s" text e

let spec_of o = List.hd o.CC.solution.Core.Decode.specs

let test_defaults () =
  let s = spec_of (concretize "example") in
  let root = Spec.Concrete.root_node s in
  Alcotest.(check string) "newest version" "1.1.0" (Vers.Version.to_string root.Spec.Concrete.version);
  Alcotest.(check bool) "default variant on" true
    (Smap.find "bzip" root.Spec.Concrete.variants = Bool true);
  Alcotest.(check bool) "bzip2 pulled" true (Spec.Concrete.find_node s "bzip2" <> None);
  Alcotest.(check string) "zlib 1.3 branch" "1.3.1"
    (Vers.Version.to_string (Spec.Concrete.node s "zlib").Spec.Concrete.version);
  Alcotest.(check string) "host os" "linux" root.Spec.Concrete.os

let test_conditional_dep_switches () =
  let s = spec_of (concretize "example@1.0.0") in
  Alcotest.(check string) "older zlib branch" "1.2.13"
    (Vers.Version.to_string (Spec.Concrete.node s "zlib").Spec.Concrete.version)

let test_variant_off_drops_dep () =
  let s = spec_of (concretize "example~bzip") in
  Alcotest.(check bool) "no bzip2" true (Spec.Concrete.find_node s "bzip2" = None)

let test_user_constraints_hold () =
  let s = spec_of (concretize "example@1.0.0 ^zlib@=1.2.13") in
  Alcotest.(check bool) "satisfies request" true
    (Spec.Concrete.satisfies s (Spec.Parser.parse "example@1.0.0 ^zlib@=1.2.13"))

let test_impossible_request () =
  (match CC.concretize_spec ~repo "example@9.9" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown version must not concretize");
  match CC.concretize_spec ~repo "picky ^zlib@1.3" with
  | Error _ -> () (* picky requires zlib@1.2 *)
  | Ok _ -> Alcotest.fail "contradictory constraints must fail"

let test_virtual_single_provider () =
  let s = spec_of (concretize "example ^openmpi") in
  Alcotest.(check bool) "openmpi in" true (Spec.Concrete.find_node s "openmpi" <> None);
  Alcotest.(check bool) "mpich out" true (Spec.Concrete.find_node s "mpich" = None)

let test_conflict () =
  (match CC.concretize_spec ~repo "grumpy+fire" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conflict must block");
  ignore (concretize "grumpy~fire")

let test_build_deps_present_for_builds () =
  let s = spec_of (concretize "builder-user") in
  match Spec.Concrete.children s "builder-user" with
  | cs ->
    let tool_dt = List.assoc "tool" cs in
    Alcotest.(check bool) "build-only edge" true
      (tool_dt.build && not tool_dt.link)

let test_joint_concretization () =
  match
    CC.concretize ~repo
      [ Core.Encode.request_of_string "example";
        Core.Encode.request_of_string "picky" ]
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    (match o.CC.solution.Core.Decode.specs with
    | [ a; b ] ->
      Alcotest.(check string) "first root" "example" (Spec.Concrete.root a);
      Alcotest.(check string) "second root" "picky" (Spec.Concrete.root b)
      (* Joint solving forces a single zlib: example would prefer 1.3
         but picky needs 1.2, and they must agree. *);
      Alcotest.(check string) "shared zlib" "1.2.13"
        (Vers.Version.to_string (Spec.Concrete.node a "zlib").Spec.Concrete.version)
    | _ -> Alcotest.fail "expected two specs")

(* ---- reuse ---- *)

let built_with_mpich () = spec_of (concretize "example ^mpich@3.4.3")

let test_reuse_prefers_installed () =
  let cached = built_with_mpich () in
  let options = { CC.default_options with CC.reuse = [ cached ] } in
  let o = concretize ~options "example ^mpich@3.4.3" in
  Alcotest.(check (list string)) "nothing to build" [] o.CC.solution.Core.Decode.built;
  Alcotest.(check string) "same spec back" (Spec.Concrete.dag_hash cached)
    (Spec.Concrete.dag_hash (spec_of o))

let test_partial_reuse () =
  let cached = built_with_mpich () in
  let options = { CC.default_options with CC.reuse = [ cached ] } in
  (* A different root configuration can still reuse the subtrees. *)
  let o = concretize ~options "example~bzip ^mpich@3.4.3" in
  Alcotest.(check bool) "root rebuilt" true
    (List.mem "example" o.CC.solution.Core.Decode.built);
  Alcotest.(check bool) "mpich reused" true
    (List.mem_assoc "mpich" o.CC.solution.Core.Decode.reused)

let test_forbid_node () =
  let options = CC.default_options in
  match
    CC.concretize ~repo ~options
      [ Core.Encode.request_of_string ~forbid:[ "mpich" ] "example" ]
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let s = spec_of o in
    Alcotest.(check bool) "mpich forbidden" true (Spec.Concrete.find_node s "mpich" = None)

(* The reuse pool is memoized per domain on the reuse list's physical
   identity. Switching lists back and forth, and handing in a
   structurally equal copy, must give exactly the answer a fresh
   domain (with an empty memo) computes for the same list. *)
let test_pool_memo_never_stale () =
  let with_mpich = built_with_mpich () in
  let zlib = spec_of (concretize "zlib@1.2.13") in
  let a = [ zlib; with_mpich ] in
  let b = [ zlib ] in
  let answer reuse =
    let options = { CC.default_options with CC.reuse } in
    Sjson.to_string
      (Core.Serve.canonical_of_result
         (CC.concretize_v ~repo ~options [ Core.Encode.request_of_string "example" ]))
  in
  let fresh reuse = Domain.join (Domain.spawn (fun () -> answer reuse)) in
  let answers =
    List.map
      (fun (name, reuse) ->
        let got = answer reuse in
        Alcotest.(check string) name (fresh reuse) got;
        got)
      [ ("A", a); ("B", b); ("A again", a); ("copy of A", List.map Fun.id a) ]
  in
  Alcotest.(check bool) "A and B differ" true (List.nth answers 0 <> List.nth answers 1)

(* ---- automatic splicing ---- *)

let test_splice_synthesis () =
  let cached = built_with_mpich () in
  let options =
    { CC.default_options with CC.reuse = [ cached ]; CC.splicing = true }
  in
  let o = concretize ~options "example ^mpiabi" in
  let sol = o.CC.solution in
  Alcotest.(check bool) "spliced" true (Core.Decode.is_spliced_solution sol);
  let s = spec_of o in
  Alcotest.(check bool) "example relinked, not rebuilt" true
    (not (List.mem "example" sol.Core.Decode.built));
  Alcotest.(check (option string)) "provenance points at the cached build"
    (Some (Spec.Concrete.dag_hash cached))
    (Spec.Concrete.node s "example").Spec.Concrete.build_hash;
  Alcotest.(check bool) "mpich gone" true (Spec.Concrete.find_node s "mpich" = None);
  Alcotest.(check bool) "mpiabi in" true (Spec.Concrete.find_node s "mpiabi" <> None);
  (match sol.Core.Decode.splices with
  | [ sp ] ->
    Alcotest.(check string) "parent" "example" sp.Core.Decode.sp_parent;
    Alcotest.(check string) "old" "mpich" sp.Core.Decode.sp_old;
    Alcotest.(check string) "new" "mpiabi" sp.Core.Decode.sp_new
  | l -> Alcotest.failf "expected one splice, got %d" (List.length l))

let test_splice_needs_enabling () =
  let cached = built_with_mpich () in
  let options =
    { CC.default_options with CC.reuse = [ cached ]; CC.splicing = false }
  in
  let o = concretize ~options "example ^mpiabi" in
  Alcotest.(check bool) "no splice when disabled" false
    (Core.Decode.is_spliced_solution o.CC.solution);
  Alcotest.(check bool) "example rebuilt instead" true
    (List.mem "example" o.CC.solution.Core.Decode.built)

let test_splice_respects_target_constraint () =
  (* mpiabi can only replace mpich@3.4.3; a 4.1.2 build is not eligible. *)
  let cached = spec_of (concretize "example ^mpich@4.1.2") in
  let options =
    { CC.default_options with CC.reuse = [ cached ]; CC.splicing = true }
  in
  let o = concretize ~options "example ^mpiabi" in
  Alcotest.(check bool) "no spliced solution possible" false
    (Core.Decode.is_spliced_solution o.CC.solution);
  Alcotest.(check bool) "rebuild instead" true
    (List.mem "example" o.CC.solution.Core.Decode.built)

let test_plain_reuse_beats_splice () =
  (* If a compatible non-spliced spec exists, do not splice. *)
  let with_mpich = built_with_mpich () in
  let with_mpiabi = spec_of (concretize "example ^mpiabi") in
  let options =
    { CC.default_options with
      CC.reuse = [ with_mpich; with_mpiabi ];
      CC.splicing = true }
  in
  let o = concretize ~options "example ^mpiabi" in
  Alcotest.(check bool) "clean reuse, no splice" false
    (Core.Decode.is_spliced_solution o.CC.solution);
  Alcotest.(check (list string)) "zero builds" [] o.CC.solution.Core.Decode.built

let test_encodings_agree_without_splicing () =
  (* RQ1 correctness half: both encodings produce identical solutions
     when splicing is off. *)
  let cached = built_with_mpich () in
  List.iter
    (fun request ->
      let solve encoding =
        let options =
          { CC.default_options with CC.reuse = [ cached ]; CC.encoding = encoding }
        in
        Spec.Concrete.dag_hash (spec_of (concretize ~options request))
      in
      Alcotest.(check string) request (solve Core.Encode.Old) (solve Core.Encode.Hash_attr))
    [ "example"; "example ^mpich@3.4.3"; "example@1.0.0"; "example~bzip ^openmpi" ]

(* ---- golden local answers ---- *)

(* The [install-local] setting: the repository, and splicing on over
   the 64-spec local cache. *)
let local_setup =
  lazy
    (let repo = Radiuss.Universe.repo () in
     let local = Radiuss.Caches.local ~repo () in
     ( repo,
       { CC.default_options with
         CC.reuse = Radiuss.Caches.reusable_specs local;
         CC.splicing = true } ))

(* The [install-local] requests: every top-level RADIUSS objective
   (MPI-dependent ones as [^mpiabi]), splicing on, against the 64-spec
   local cache. One line per request: root DAG hash, cost vector, ground
   atom and rule counts, an MD5 of the unsorted [Asp.Ground.pp] text,
   which pins atom ids and rule order, and the SAT core's conflict,
   decision and propagation counts, which pin the search path. Each
   request's statements grounded over [Program.prepared] must also
   print the same text as the whole program grounded at once. To
   regenerate, run
   [LOCAL_GOLDEN_OUT=test/local_golden.expected dune exec
   test/test_concretizer.exe -- test golden] from the repository root. *)
let local_text name =
  if List.mem name Radiuss.Universe.mpi_dependent then name ^ " ^mpiabi" else name

let golden_lines () =
  let repo, options = Lazy.force local_setup in
  List.map
    (fun name ->
      let text = local_text name in
      let request = Core.Encode.request_of_string text in
      let o =
        match CC.concretize_v ~repo ~options [ request ] with
        | Ok o -> o
        | Error f -> Alcotest.failf "%s: %s" text f.CC.f_message
      in
      let encoded =
        Core.Encode.encode ~repo ~encoding:options.CC.encoding
          ~splicing:options.CC.splicing ~reuse:options.CC.reuse ~prune:options.CC.prune
          ~host_os:options.CC.host_os ~host_target:options.CC.host_target [ request ]
      in
      let request_stmts = encoded.Core.Encode.rules @ encoded.Core.Encode.facts in
      let ground =
        Asp.Ground.ground
          (Core.Program.statements ~encoding:options.CC.encoding
             ~splicing:options.CC.splicing
          @ request_stmts)
      in
      let pp g = Format.asprintf "%a" Asp.Ground.pp g in
      Alcotest.(check string)
        (text ^ ": grounding over the prepared base")
        (pp ground)
        (pp
           (Asp.Ground.ground
              ~base:
                (Core.Program.prepared ~encoding:options.CC.encoding
                   ~splicing:options.CC.splicing)
              request_stmts));
      let sat k = Option.value ~default:0 (List.assoc_opt k o.CC.stats.CC.sat_stats) in
      Printf.sprintf "%s %s %s atoms=%d rules=%d pp=%s conflicts=%d decisions=%d propagations=%d"
        text
        (Spec.Concrete.dag_hash (spec_of o))
        (String.concat ","
           (List.map (fun (p, c) -> Printf.sprintf "%d:%d" p c) o.CC.stats.CC.costs))
        (Asp.Ground.atom_count ground)
        (List.length (Asp.Ground.rules ground))
        (Digest.to_hex (Digest.string (pp ground)))
        (sat "conflicts") (sat "decisions") (sat "propagations"))
    Radiuss.Universe.top_level

let test_local_golden () =
  let lines = golden_lines () in
  match Sys.getenv_opt "LOCAL_GOLDEN_OUT" with
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines)
  | None ->
    (* under [dune runtest] the file sits in the working directory; under
       [dune exec] from the repository root, in test/ *)
    let file =
      List.find Sys.file_exists [ "local_golden.expected"; "test/local_golden.expected" ]
    in
    let expected =
      String.split_on_char '\n' (In_channel.with_open_text file In_channel.input_all)
      |> List.filter (( <> ) "")
    in
    Alcotest.(check int) "one line per objective" (List.length expected) (List.length lines);
    List.iter2 (fun want got -> Alcotest.(check string) "answer" want got) expected lines

(* A local request allocates less than a 4M-word minor heap holds, so
   it runs without a minor collection unless something forces one,
   as [Array.make] of more than 256 slots from a young value does. *)
let test_local_request_no_minor_gc () =
  let repo, options = Lazy.force local_setup in
  let request = Core.Encode.request_of_string "mfem ^mpiabi" in
  let solve () =
    match CC.concretize_v ~repo ~options [ request ] with
    | Ok _ -> ()
    | Error f -> Alcotest.fail f.CC.f_message
  in
  solve ();
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let collections () = (Gc.quick_stat ()).Gc.minor_collections in
  let before, after =
    Fun.protect
      ~finally:(fun () -> Gc.set saved)
      (fun () ->
        Gc.minor ();
        let before = collections () in
        solve ();
        (before, collections ()))
  in
  Alcotest.(check int) "minor collections during the request" 0 (after - before)

(* Solving a local ground program allocates fewer than 100 minor words
   per ground rule: a ground program reaches the SAT core through int
   arrays, with no list built per rule (the 32 programs take 38-72).
   The bound is per rule because the 32 programs differ in size by
   more than tenfold. *)
let test_local_solve_allocation () =
  let repo, options = Lazy.force local_setup in
  List.iter
    (fun name ->
      let text = local_text name in
      let encoded =
        Core.Encode.encode ~repo ~encoding:options.CC.encoding
          ~splicing:options.CC.splicing ~reuse:options.CC.reuse ~prune:options.CC.prune
          ~host_os:options.CC.host_os ~host_target:options.CC.host_target
          [ Core.Encode.request_of_string text ]
      in
      let ground =
        Asp.Ground.ground
          ~base:
            (Core.Program.prepared ~encoding:options.CC.encoding
               ~splicing:options.CC.splicing)
          (encoded.Core.Encode.rules @ encoded.Core.Encode.facts)
      in
      ignore (Asp.Logic.solve ground);
      let before = Gc.minor_words () in
      ignore (Asp.Logic.solve ground);
      let words = Gc.minor_words () -. before in
      let rules = List.length (Asp.Ground.rules ground) in
      if words > 100.0 *. float_of_int rules then
        Alcotest.failf "%s: %.0f minor words for %d ground rules (bound: 100 per rule)"
          text words rules)
    Radiuss.Universe.top_level

let () =
  Alcotest.run "concretizer"
    [ ( "selection",
        [ Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "conditional deps" `Quick test_conditional_dep_switches;
          Alcotest.test_case "variant off" `Quick test_variant_off_drops_dep;
          Alcotest.test_case "user constraints" `Quick test_user_constraints_hold;
          Alcotest.test_case "impossible" `Quick test_impossible_request;
          Alcotest.test_case "virtual provider" `Quick test_virtual_single_provider;
          Alcotest.test_case "conflicts" `Quick test_conflict;
          Alcotest.test_case "build deps" `Quick test_build_deps_present_for_builds;
          Alcotest.test_case "joint" `Quick test_joint_concretization;
          Alcotest.test_case "forbid" `Quick test_forbid_node ] );
      ( "reuse",
        [ Alcotest.test_case "full reuse" `Quick test_reuse_prefers_installed;
          Alcotest.test_case "partial reuse" `Quick test_partial_reuse;
          Alcotest.test_case "pool memo never stale" `Quick test_pool_memo_never_stale;
          Alcotest.test_case "encodings agree" `Quick test_encodings_agree_without_splicing ] );
      ( "splicing",
        [ Alcotest.test_case "synthesis" `Quick test_splice_synthesis;
          Alcotest.test_case "opt-in" `Quick test_splice_needs_enabling;
          Alcotest.test_case "target constraint" `Quick test_splice_respects_target_constraint;
          Alcotest.test_case "reuse beats splice" `Quick test_plain_reuse_beats_splice ] );
      ( "golden",
        [ Alcotest.test_case "local answers" `Quick test_local_golden ] );
      ( "allocation",
        [ Alcotest.test_case "local request forces no minor collection" `Quick
            test_local_request_no_minor_gc;
          Alcotest.test_case "local solve allocation per ground rule" `Quick
            test_local_solve_allocation ] ) ]
