type layout = {
  type_name : string;
  opaque : bool;
  size : int;
  repr : string;
}

type symbol = {
  mangled : string;
  sig_digest : string;
}

type surface = {
  symbols : symbol list;
  layouts : layout list;
}

(* Itanium-style mangling: _Z<len><name>... over a synthetic C++-ish
   name. Only needs to be deterministic and collision-free. *)
let mangle ~family name =
  Printf.sprintf "_Z%d%s%d%sEv" (String.length family) family (String.length name) name

let digest_of ~family ~interface_version name =
  Chash.short ~len:12 (Chash.hash_string (family ^ "|" ^ interface_version ^ "|" ^ name))

(* The synthetic interface: a fixed roster of entry points per family
   (names shared across families so surfaces collide on purpose when
   families differ only in digests), plus a couple of exported types,
   one opaque. Mirrors the MPI example: every family exports comm_t
   (opaque — repr depends on the family) and status_t (concrete). *)
let base_entry_points =
  [ "init"; "finalize"; "send"; "recv"; "barrier"; "bcast"; "reduce";
    "gather"; "scatter"; "wait"; "test"; "comm_rank"; "comm_size";
    "comm_split"; "comm_dup" ]

let synthesize ~family ~interface_version ?(extra_symbols = 0) () =
  let symbols =
    List.map
      (fun name ->
        { mangled = mangle ~family:"iface" name;
          sig_digest = digest_of ~family ~interface_version name })
      base_entry_points
    @ List.init extra_symbols (fun i ->
          let name = Printf.sprintf "ext%d" i in
          { mangled = mangle ~family name;
            sig_digest = digest_of ~family ~interface_version name })
  in
  let layouts =
    [ { type_name = "comm_t";
        opaque = true;
        (* Opaque representation is the family's private choice. *)
        size = 4 + (Hashtbl.hash family mod 3 * 4);
        repr = Chash.short ~len:8 (Chash.hash_string ("repr|" ^ family)) };
      { type_name = "status_t"; opaque = false; size = 24; repr = "c-struct" } ]
  in
  { symbols = List.sort (fun a b -> String.compare a.mangled b.mangled) symbols;
    layouts = List.sort (fun a b -> String.compare a.type_name b.type_name) layouts }

type incompatibility =
  | Missing_symbol of string
  | Signature_mismatch of string
  | Layout_mismatch of string

let check ~provider ~required =
  let problems = ref [] in
  List.iter
    (fun need ->
      match
        List.find_opt (fun s -> String.equal s.mangled need.mangled) provider.symbols
      with
      | None -> problems := Missing_symbol need.mangled :: !problems
      | Some got ->
        if not (String.equal got.sig_digest need.sig_digest) then
          problems := Signature_mismatch need.mangled :: !problems)
    required.symbols;
  List.iter
    (fun need ->
      match
        List.find_opt
          (fun l -> String.equal l.type_name need.type_name)
          provider.layouts
      with
      | None -> problems := Layout_mismatch need.type_name :: !problems
      | Some got ->
        if got.size <> need.size || not (String.equal got.repr need.repr) then
          problems := Layout_mismatch need.type_name :: !problems)
    required.layouts;
  List.rev !problems

let compatible ~provider ~required = check ~provider ~required = []

let required_of surface ~fraction =
  let keep s =
    let h = Hashtbl.hash s.mangled land 0xFFFF in
    float_of_int h /. 65536.0 < fraction
  in
  let symbols =
    match List.filter keep surface.symbols with
    | [] -> (match surface.symbols with [] -> [] | s :: _ -> [ s ])
    | l -> l
  in
  { surface with symbols }

let pp_incompatibility fmt = function
  | Missing_symbol s -> Format.fprintf fmt "undefined symbol: %s" s
  | Signature_mismatch s -> Format.fprintf fmt "signature mismatch: %s" s
  | Layout_mismatch t -> Format.fprintf fmt "type layout mismatch: %s" t
