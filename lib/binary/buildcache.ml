type entry = {
  e_spec : Spec.Concrete.t;
  e_objects : (string * Object_file.t) list;
  e_prefixes : (string * string) list;
}

type t = {
  cache_name : string;
  entries : (string, entry) Hashtbl.t;
}

let create ~name = { cache_name = name; entries = Hashtbl.create 64 }

let name t = t.cache_name

let size t = Hashtbl.length t.entries

let find t ~hash = Hashtbl.find_opt t.entries hash

let specs t = Hashtbl.fold (fun _ e acc -> e.e_spec :: acc) t.entries []

let relative ~prefix path =
  (* Demand the '/' separator: a prefix of "/opt/foo" must not strip
     paths under "/opt/foobar". *)
  let p = prefix ^ "/" in
  let plen = String.length p in
  if String.length path > plen && String.sub path 0 plen = p then
    String.sub path plen (String.length path - plen)
  else path

let push_exn t store spec =
  let vfs = Store.vfs store in
  let created = ref 0 in
  List.iter
    (fun (n : Spec.Concrete.node) ->
      let hash = Spec.Concrete.node_hash spec n.Spec.Concrete.name in
      if not (Hashtbl.mem t.entries hash) then begin
        match Store.installed store ~hash with
        | None ->
          Errors.raise_error
            (Errors.Not_installed { name = n.Spec.Concrete.name; hash })
        | Some r ->
          let sub = Spec.Concrete.subdag spec n.Spec.Concrete.name in
          let objects =
            Vfs.list_prefix vfs r.Store.prefix
            |> List.filter_map (fun path ->
                   match Vfs.read vfs path with
                   | Some (Vfs.Object o) ->
                     Some (relative ~prefix:r.Store.prefix path, Object_file.copy o)
                   | Some (Vfs.Text _) | None -> None)
          in
          let prefixes =
            List.map
              (fun (d : Spec.Concrete.node) ->
                let dh = Spec.Concrete.node_hash sub d.Spec.Concrete.name in
                match Store.installed store ~hash:dh with
                | Some dr -> (dh, dr.Store.prefix)
                | None ->
                  (* A missing dependency record would poison every
                     future relocation of this entry. *)
                  Errors.raise_error
                    (Errors.Dependency_not_installed
                       { node = n.Spec.Concrete.name;
                         dep = d.Spec.Concrete.name;
                         hash = dh }))
              (Spec.Concrete.nodes sub)
          in
          Hashtbl.replace t.entries hash
            { e_spec = sub; e_objects = objects; e_prefixes = prefixes };
          incr created
      end)
    (Spec.Concrete.nodes spec);
  !created

let push t store spec = Errors.guard (fun () -> push_exn t store spec)
