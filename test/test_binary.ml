(* The binary substrate: VFS, object slots, relocation vs patchelf,
   store, builder + dynamic linker, buildcache round-trips, installer
   counters, and a deliberately broken splice failing at link time. *)

open Spec.Types
module B = Binary

let v = Vers.Version.of_string

let node name version =
  { Spec.Concrete.name; version = v version; variants = Smap.empty;
    os = "linux"; target = "x86_64"; build_hash = None }

let repo =
  Pkg.Repo.of_packages
    Pkg.Package.
      [ make "app" |> version "1.0" |> depends_on "libx" |> depends_on "zlib";
        make "libx" |> version "2.0" |> depends_on "zlib";
        make "zlib" |> version "1.3.1" |> version "1.2.13";
        make "zlib-evil" ~abi_family:"not-zlib" |> version "1.3.1" ]

let app_spec =
  Spec.Concrete.create ~root:"app"
    ~nodes:[ node "app" "1.0"; node "libx" "2.0"; node "zlib" "1.3.1" ]
    ~edges:
      [ ("app", "libx", dt_link); ("app", "zlib", dt_link); ("libx", "zlib", dt_link) ]
    ()

(* ---- vfs ---- *)

let test_vfs () =
  let vfs = B.Vfs.create () in
  B.Vfs.write vfs "/a/b/c.txt" (B.Vfs.Text "hello");
  B.Vfs.write vfs "/a/b/d.txt" (B.Vfs.Text "world");
  B.Vfs.write vfs "/a/x.txt" (B.Vfs.Text "!");
  Alcotest.(check bool) "read" true (B.Vfs.read vfs "/a/b/c.txt" = Some (B.Vfs.Text "hello"));
  Alcotest.(check (list string)) "list_prefix" [ "/a/b/c.txt"; "/a/b/d.txt" ]
    (B.Vfs.list_prefix vfs "/a/b");
  Alcotest.(check int) "remove_prefix" 2 (B.Vfs.remove_prefix vfs "/a/b");
  Alcotest.(check int) "one left" 1 (B.Vfs.file_count vfs);
  Alcotest.(check bool) "no partial prefix match" true
    (B.Vfs.list_prefix vfs "/a/x" = [])

(* ---- relocation ---- *)

let mk_obj rpaths =
  B.Object_file.create ~soname:"libfoo.so"
    ~exports:(Abi.synthesize ~family:"foo" ~interface_version:"1" ())
    ~imports:[] ~needed:[] ~rpaths ~embedded:[ "/old/prefix" ] ~slot_padding:4 ()

let test_relocate_in_place () =
  let o = mk_obj [ "/old/dep1/lib" ] in
  let stats = B.Relocate.relocate_object o ~mapping:[ ("/old", "/new") ] in
  (* same length: fits in the slot *)
  Alcotest.(check int) "patched" 2 stats.B.Relocate.patched;
  Alcotest.(check int) "no patchelf" 0 stats.B.Relocate.grown;
  Alcotest.(check (list string)) "rpath rewritten" [ "/new/dep1/lib" ]
    (B.Object_file.rpath_dirs o)

let test_relocate_patchelf () =
  let o = mk_obj [ "/old/dep1/lib" ] in
  let long = "/a/very/much/longer/prefix/than/the/slot/can/hold" in
  let stats = B.Relocate.relocate_object o ~mapping:[ ("/old", long) ] in
  Alcotest.(check int) "grown" 2 stats.B.Relocate.grown;
  Alcotest.(check (list string)) "rpath rewritten" [ long ^ "/dep1/lib" ]
    (B.Object_file.rpath_dirs o)

let test_relocate_first_rule_wins () =
  Alcotest.(check (option string)) "first match" (Some "/b/x")
    (B.Relocate.map_path [ ("/a", "/b"); ("/a", "/c") ] "/a/x");
  Alcotest.(check (option string)) "no match" None
    (B.Relocate.map_path [ ("/a", "/b") ] "/z/x")

(* ---- store + builder + linker ---- *)

let fresh_store root =
  let vfs = B.Vfs.create () in
  (vfs, B.Store.create ~root vfs)

let test_build_and_link () =
  let _vfs, store = fresh_store "/opt/store" in
  let built = B.Errors.ok_exn (B.Builder.build_all store ~repo app_spec) in
  Alcotest.(check int) "three builds" 3 (List.length built);
  let root_rec =
    Option.get (B.Store.installed store ~hash:(Spec.Concrete.dag_hash app_spec))
  in
  let obj_path = B.Store.lib_path ~prefix:root_rec.B.Store.prefix ~soname:"libapp.so" in
  (match B.Linker.load (B.Store.vfs store) obj_path with
  | Ok n -> Alcotest.(check int) "all objects mapped" 3 n
  | Error es ->
    Alcotest.failf "link errors: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" B.Linker.pp_error) es)));
  (* idempotent *)
  Alcotest.(check int) "rebuild is a no-op" 0
    (List.length (B.Errors.ok_exn (B.Builder.build_all store ~repo app_spec)))

(* The failure is raised inside the node's store transaction, which
   must abort: no journal entry, no staged file, no lease left. *)
let test_builder_requires_deps () =
  let vfs, store = fresh_store "/opt/store2" in
  Alcotest.(check bool) "missing dep fails" true
    (match B.Builder.build_node store ~repo ~spec:app_spec ~node:"app" with
    | Error (B.Errors.Dependency_not_installed { node = "app"; _ }) -> true
    | _ -> false);
  Alcotest.(check (list string)) "the transaction aborted" []
    (B.Vfs.list_prefix vfs "/opt/store2");
  Alcotest.(check (list string)) "no lease left" [] (B.Store.in_flight store)

let test_linker_missing_lib () =
  let vfs = B.Vfs.create () in
  let o =
    B.Object_file.create ~soname:"liborphan.so"
      ~exports:(Abi.synthesize ~family:"o" ~interface_version:"1" ())
      ~imports:[] ~needed:[ "libghost.so" ] ~rpaths:[ "/nowhere/lib" ] ~embedded:[] ()
  in
  B.Vfs.write vfs "/x/liborphan.so" (B.Vfs.Object o);
  match B.Linker.load vfs "/x/liborphan.so" with
  | Error [ B.Linker.Library_not_found { needed = "libghost.so"; _ } ] -> ()
  | _ -> Alcotest.fail "expected library-not-found"

(* ---- buildcache ---- *)

let test_buildcache_roundtrip () =
  let _vfs, farm = fresh_store "/buildfarm" in
  ignore (B.Errors.ok_exn (B.Builder.build_all farm ~repo app_spec));
  let cache = B.Buildcache.create ~name:"c" in
  let created = B.Errors.ok_exn (B.Buildcache.push cache farm app_spec) in
  Alcotest.(check int) "one entry per node" 3 created;
  Alcotest.(check int) "push is idempotent" 0 (B.Errors.ok_exn (B.Buildcache.push cache farm app_spec));
  (* install into a different store rooted elsewhere: relocation runs *)
  let _vfs2, cluster = fresh_store "/cluster/spack" in
  let ah = Spec.Concrete.dag_hash app_spec in
  let report = B.Installer.install_exn cluster ~repo ~caches:[ cache ] app_spec in
  Alcotest.(check int) "every node from the cache" 3
    (List.length report.B.Installer.from_cache);
  let stats = report.B.Installer.reloc in
  Alcotest.(check bool) "relocations happened" true (stats.B.Relocate.patched > 0 || stats.B.Relocate.grown > 0);
  let root_rec = Option.get (B.Store.installed cluster ~hash:ah) in
  (match B.Linker.load (B.Store.vfs cluster) (B.Store.lib_path ~prefix:root_rec.B.Store.prefix ~soname:"libapp.so") with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "expected 3 objects, got %d" n
  | Error es ->
    Alcotest.failf "relocated install does not link: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" B.Linker.pp_error) es)))

(* ---- installer ---- *)

let test_installer_counters () =
  let _vfs, farm = fresh_store "/farm" in
  ignore (B.Errors.ok_exn (B.Builder.build_all farm ~repo app_spec));
  let cache = B.Buildcache.create ~name:"c" in
  ignore (B.Errors.ok_exn (B.Buildcache.push cache farm app_spec));
  let _vfs2, cluster = fresh_store "/cluster" in
  let r1 = B.Installer.install_exn cluster ~repo ~caches:[ cache ] app_spec in
  Alcotest.(check int) "from cache" 3 (List.length r1.B.Installer.from_cache);
  Alcotest.(check int) "no builds" 0 (B.Installer.rebuild_count r1);
  let r2 = B.Installer.install_exn cluster ~repo ~caches:[ cache ] app_spec in
  Alcotest.(check int) "reused" 3 (List.length r2.B.Installer.reused);
  (* no cache: source build *)
  let _vfs3, lonely = fresh_store "/lonely" in
  let r3 = B.Installer.install_exn lonely ~repo app_spec in
  Alcotest.(check int) "built" 3 (B.Installer.rebuild_count r3)

(* A serial install's [install.node] spans each hold one node's own
   work: none contains another's, so together they fit inside the
   [install] span. At one job they start in depth-first post-order
   from the root, children by name. *)
let test_serial_node_spans () =
  let _vfs, farm = fresh_store "/farm" in
  ignore (B.Errors.ok_exn (B.Builder.build_all farm ~repo app_spec));
  let cache = B.Buildcache.create ~name:"c" in
  ignore (B.Errors.ok_exn (B.Buildcache.push cache farm app_spec));
  let _vfs2, cluster = fresh_store "/cluster" in
  let obs = Obs.create () in
  ignore (B.Installer.install_exn cluster ~repo ~caches:[ cache ] ~obs ~jobs:1 app_spec);
  let spans name =
    List.filter_map
      (function
        | Obs.Span { name = n; t0_ns; dur_ns; attrs; _ } when n = name ->
          Some (t0_ns, dur_ns, List.assoc_opt "node" attrs)
        | _ -> None)
      (Obs.events obs)
  in
  let named = List.sort compare (spans "install.node") in
  Alcotest.(check (list string)) "spans start in serial post-order"
    [ "zlib"; "libx"; "app" ]
    (List.map
       (function _, _, Some (Obs.S node) -> node | _ -> "?")
       named);
  let nodes = List.map (fun (t0, d, _) -> (t0, d)) named in
  Alcotest.(check int) "one span per node" 3 (List.length nodes);
  let rec disjoint = function
    | (t0, d) :: ((t1, _) :: _ as rest) -> Int64.add t0 d <= t1 && disjoint rest
    | _ -> true
  in
  Alcotest.(check bool) "no node span contains another" true (disjoint nodes);
  let total = List.fold_left (fun acc (_, d) -> Int64.add acc d) 0L nodes in
  match spans "install" with
  | [ (_, install, _) ] ->
    Alcotest.(check bool) "node spans sum to at most the install" true (total <= install)
  | l -> Alcotest.failf "%d install spans" (List.length l)

(* ---- a lying splice fails the linker ---- *)

let test_bad_splice_fails_link () =
  (* Build the stack, then rewire app's zlib to zlib-evil (different
     ABI family): the rewired binary must fail symbol resolution. *)
  let _vfs, store = fresh_store "/opt/abi" in
  ignore (B.Errors.ok_exn (B.Builder.build_all store ~repo app_spec));
  let evil_spec =
    Spec.Concrete.create ~root:"zlib-evil"
      ~nodes:[ node "zlib-evil" "1.3.1" ]
      ~edges:[] ()
  in
  ignore (B.Errors.ok_exn (B.Builder.build_all store ~repo evil_spec));
  let spliced =
    Core.Splice.splice ~replace:"zlib" ~target:app_spec ~replacement:evil_spec
      ~transitive:true ()
  in
  let report = B.Installer.install_exn store ~repo spliced in
  Alcotest.(check int) "rewired, not rebuilt" 0 (B.Installer.rebuild_count report);
  match report.B.Installer.link_result with
  | Error es ->
    Alcotest.(check bool) "ABI violation caught by the linker" true
      (List.exists (function B.Linker.Bad_symbol _ -> true | _ -> false) es)
  | Ok _ -> Alcotest.fail "an ABI-incompatible splice must not link"

let () =
  Alcotest.run "binary"
    [ ( "vfs",
        [ Alcotest.test_case "basics" `Quick test_vfs ] );
      ( "relocate",
        [ Alcotest.test_case "in place" `Quick test_relocate_in_place;
          Alcotest.test_case "patchelf growth" `Quick test_relocate_patchelf;
          Alcotest.test_case "mapping rules" `Quick test_relocate_first_rule_wins ] );
      ( "builder+linker",
        [ Alcotest.test_case "build and link" `Quick test_build_and_link;
          Alcotest.test_case "missing dep" `Quick test_builder_requires_deps;
          Alcotest.test_case "missing lib" `Quick test_linker_missing_lib ] );
      ( "buildcache",
        [ Alcotest.test_case "roundtrip" `Quick test_buildcache_roundtrip ] );
      ( "installer",
        [ Alcotest.test_case "counters" `Quick test_installer_counters;
          Alcotest.test_case "serial node spans" `Quick test_serial_node_spans;
          Alcotest.test_case "bad splice fails link" `Quick test_bad_splice_fails_link ] ) ]
