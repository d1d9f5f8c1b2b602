(* Parameterized random package universes.

   A universe is a first-class *description* — plain data, not a
   [Pkg.Repo.t] — so the shrinker can delete pieces of it and the
   harness can print any failing instance as a paste-ready regression
   test. [to_repo] compiles the description through the ordinary
   packaging DSL.

   Shape: layered DAGs (package [pi] may depend only on [pj], j > i, so
   cycles are impossible by construction), an optional virtual with two
   same-ABI-family providers (one declaring [can_splice] for the
   other), conditional and build-only dependencies, conflicts —
   including "poisoned" packages whose every version conflicts, the
   seed of certifiable UNSATs — plus a [stray] package nothing ever
   references (the metamorphic no-op cache entry) and a request list
   with occasional unsatisfiable version pins. *)

type udep = {
  ud_target : string;  (* dependency spec text, e.g. "p2@2.0" or "vmpi" *)
  ud_when : string option;
  ud_build_only : bool;
}

type upkg = {
  up_name : string;
  up_versions : string list;  (* newest-preferred first *)
  up_variant : bool option;  (* boolean variant "fast" with this default *)
  up_family : string option;
  up_provides : string option;
  up_deps : udep list;
  up_conflicts : (string * string option) list;  (* (forbidden self, when) *)
  up_splices : (string * string) list;  (* (target spec, when) *)
}

type t = {
  u_pkgs : upkg list;
  u_cache_roots : string list;  (* requests concretized+built into the cache *)
  u_requests : string list;
}

let plain name versions =
  { up_name = name;
    up_versions = versions;
    up_variant = None;
    up_family = None;
    up_provides = None;
    up_deps = [];
    up_conflicts = [];
    up_splices = [] }

let virtual_name = "vmpi"
let stray_name = "stray"

let generate rng =
  let n = Rng.range rng 3 7 in
  let name i = Printf.sprintf "p%d" i in
  let with_virtual = Rng.chance rng 60 in
  let core =
    List.init n (fun i ->
        let versions =
          if Rng.chance rng 70 then [ "2.0"; "1.0" ] else [ "1.0" ]
        in
        let variant = if Rng.chance rng 50 then Some (Rng.bool rng) else None in
        let deps =
          List.concat
            (List.init (n - i - 1) (fun k ->
                 let j = i + 1 + k in
                 if not (Rng.chance rng 35) then []
                 else
                   let target =
                     if Rng.chance rng 20 then name j ^ "@2.0" else name j
                   in
                   let when_ =
                     if Rng.chance rng 25 then Some "@2.0"
                     else if variant <> None && Rng.chance rng 15 then
                       Some "+fast"
                     else None
                   in
                   [ { ud_target = target;
                       ud_when = when_;
                       ud_build_only = Rng.chance rng 15 } ]))
        in
        let conflicts =
          if variant <> None && Rng.chance rng 20 then
            [ ("+fast", Some "@1.0") ]
          else if Rng.chance rng 8 then
            (* poisoned: every declared version conflicts -> any
               solution through this package is UNSAT *)
            List.map (fun v -> ("@" ^ v, None)) versions
          else []
        in
        { (plain (name i) versions) with
          up_variant = variant;
          up_deps = deps;
          up_conflicts = conflicts })
  in
  let user = if with_virtual then Some (Rng.int rng n) else None in
  let core =
    match user with
    | None -> core
    | Some user ->
      List.mapi
        (fun i p ->
          if i = user then
            { p with
              up_deps =
                { ud_target = virtual_name; ud_when = None; ud_build_only = false }
                :: p.up_deps }
          else p)
        core
  in
  let providers =
    if not with_virtual then []
    else
      let prov i = Printf.sprintf "prov%d" i in
      let base i =
        { (plain (prov i) [ "1.0" ]) with
          up_family = Some "vmpi-abi";
          up_provides = Some virtual_name }
      in
      let p0 = base 0 in
      let p1 =
        if Rng.chance rng 50 then
          { (base 1) with up_splices = [ (prov 0 ^ "@1.0", "@1.0") ] }
        else base 1
      in
      [ p0; p1 ]
  in
  let stray = plain stray_name [ "1.0" ] in
  let requests =
    let reqs =
      List.concat
        (List.init n (fun i ->
             if not (Rng.chance rng 45) then []
             else if Rng.chance rng 20 then [ name i ^ "@9.9" ] (* never exists *)
             else if Rng.chance rng 25 then [ name i ^ "@2.0" ]
             else [ name i ]))
    in
    if reqs = [] then [ name 0 ] else reqs
  in
  let cache_roots =
    List.filter (fun r -> not (String.contains r '@') && Rng.chance rng 60) requests
  in
  (* When a provider declares [can_splice], set up the paper's
     scenario: cache the virtual's user built against the default
     provider, then request it pinned to the *other* provider — with
     splicing on, the only way to reuse the cached binary is a splice,
     so the splice-must-link oracle actually fires. *)
  let requests, cache_roots =
    match (user, providers) with
    | Some user, _ :: { up_splices = _ :: _; up_name = alt; _ } :: _
      when Rng.chance rng 70 ->
      let user_name = name user in
      ( (user_name ^ " ^" ^ alt) :: requests,
        user_name :: cache_roots )
    | _ -> (requests, cache_roots)
  in
  { u_pkgs = core @ providers @ [ stray ];
    u_cache_roots = cache_roots;
    u_requests = requests }

let to_repo u =
  let compile p =
    let open Pkg.Package in
    let pk = match p.up_family with
      | Some f -> make ~abi_family:f p.up_name
      | None -> make p.up_name
    in
    let pk = List.fold_left (fun pk v -> version v pk) pk p.up_versions in
    let pk =
      match p.up_variant with
      | Some d -> variant "fast" ~default:(Spec.Types.Bool d) pk
      | None -> pk
    in
    let pk =
      match p.up_provides with Some v -> provides v pk | None -> pk
    in
    let pk =
      List.fold_left
        (fun pk d ->
          let deptypes =
            if d.ud_build_only then Spec.Types.dt_build else Spec.Types.dt_both
          in
          depends_on ~deptypes ?when_:d.ud_when d.ud_target pk)
        pk p.up_deps
    in
    let pk =
      List.fold_left
        (fun pk (c, when_) -> conflicts ?when_ c pk)
        pk p.up_conflicts
    in
    List.fold_left
      (fun pk (target, when_) -> can_splice target ~when_ pk)
      pk p.up_splices
  in
  Pkg.Repo.of_packages (List.map compile u.u_pkgs)

(* Render the universe as paste-ready OCaml: a repo definition plus
   the requests, for dropping a shrunk failure into the test suite. *)
let to_ocaml u =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "let repo =\n  Pkg.Repo.of_packages\n    Pkg.Package.\n      [ ";
  let first = ref true in
  List.iter
    (fun p ->
      if not !first then pf ";\n        ";
      first := false;
      (match p.up_family with
      | Some f -> pf "make ~abi_family:%S %S" f p.up_name
      | None -> pf "make %S" p.up_name);
      List.iter (fun v -> pf " |> version %S" v) p.up_versions;
      (match p.up_variant with
      | Some d -> pf " |> variant \"fast\" ~default:(Bool %b)" d
      | None -> ());
      (match p.up_provides with Some v -> pf " |> provides %S" v | None -> ());
      List.iter
        (fun d ->
          pf " |> depends_on %S" d.ud_target;
          (match d.ud_when with Some w -> pf " ~when_:%S" w | None -> ());
          if d.ud_build_only then pf " ~deptypes:dt_build")
        p.up_deps;
      List.iter
        (fun (c, when_) ->
          pf " |> conflicts %S" c;
          match when_ with Some w -> pf " ~when_:%S" w | None -> ())
        p.up_conflicts;
      List.iter
        (fun (t, w) -> pf " |> can_splice %S ~when_:%S" t w)
        p.up_splices)
    u.u_pkgs;
  pf " ]\n\n";
  pf "let requests = [ %s ]\n"
    (String.concat "; " (List.map (Printf.sprintf "%S") u.u_requests));
  pf "let cache_roots = [ %s ]\n"
    (String.concat "; " (List.map (Printf.sprintf "%S") u.u_cache_roots));
  Buffer.contents b

let size u = List.length u.u_pkgs

let summary u =
  Printf.sprintf "%d packages, %d requests, %d cache roots" (size u)
    (List.length u.u_requests)
    (List.length u.u_cache_roots)
