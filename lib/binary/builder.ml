let import_fraction = 0.6

let family_of repo name =
  match Pkg.Repo.find repo name with
  | Some p -> p.Pkg.Package.abi_family
  | None -> name

let build_node_exn store ~repo ~spec ~node =
  let n = Spec.Concrete.node spec node in
  let hash = Spec.Concrete.node_hash spec node in
  let prefix =
    Store.prefix_for store ~name:n.Spec.Concrete.name ~version:n.Spec.Concrete.version
      ~hash
  in
  ignore
  @@ Store.install store ~hash ~prefix ~spec:(Spec.Concrete.subdag spec node)
  @@ fun stage ->
  let deps = Spec.Concrete.children spec node in
  let link_deps = List.filter (fun ((_ : string), dt) -> dt.Spec.Types.link) deps in
  let dep_records =
    List.map
      (fun (c, _) ->
        let ch = Spec.Concrete.node_hash spec c in
        match Store.installed store ~hash:ch with
        | Some r -> (c, r)
        | None ->
          Errors.raise_error
            (Errors.Dependency_not_installed { node; dep = c; hash = ch }))
      link_deps
  in
  let dep_surface (c, (r : Store.record)) =
    let soname = Store.soname_of c in
    match Vfs.read_object (Store.vfs store) (Store.lib_path ~prefix:r.prefix ~soname) with
    | Some o -> (soname, Abi.required_of o.Object_file.exports ~fraction:import_fraction)
    | None -> Errors.raise_error (Errors.No_object_in_prefix { node; dep = c })
  in
  let exports =
    (* Family-private extras derive from the family, not the package:
       implementations of one ABI must export identical surfaces. *)
    let family = family_of repo n.Spec.Concrete.name in
    Abi.synthesize ~family ~interface_version:"1"
      ~extra_symbols:(Hashtbl.hash family mod 3)
      ()
  in
  let obj =
    Object_file.create
      ~soname:(Store.soname_of node)
      ~exports
      ~imports:(List.map dep_surface dep_records)
      ~needed:(List.map (fun (c, _) -> Store.soname_of c) link_deps)
      ~rpaths:(List.map (fun (_, (r : Store.record)) -> r.Store.prefix ^ "/lib") dep_records)
      ~embedded:[ prefix ]
      ()
  in
  stage ("lib/" ^ obj.Object_file.soname) (Vfs.Object obj)

let build_node store ~repo ~spec ~node =
  Errors.guard (fun () -> build_node_exn store ~repo ~spec ~node)

let build_all store ~repo spec =
  Errors.guard (fun () ->
      let built = ref [] in
      let rec go node =
        List.iter (fun (c, _) -> go c) (Spec.Concrete.children spec node);
        let hash = Spec.Concrete.node_hash spec node in
        if not (Store.is_installed store ~hash) then begin
          build_node_exn store ~repo ~spec ~node;
          built := hash :: !built
        end
      in
      go (Spec.Concrete.root spec);
      List.rev !built)
