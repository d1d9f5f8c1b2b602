open Types

type node = {
  name : string;
  version : Vers.Range.t;
  variants : variant_value Smap.t;
  os : string option;
  target : string option;
}

type dep = { dtypes : deptypes; node : node }

type t = { root : node; deps : dep list }

let node_any name =
  { name; version = Vers.Range.any; variants = Smap.empty; os = None; target = None }

let node_satisfies ~name ~version ~variants ~os ~target c =
  (c.name = "" || String.equal c.name name)
  && Vers.Range.satisfies version c.version
  && Smap.for_all
       (fun k v ->
         match Smap.find_opt k variants with
         | Some v' -> variant_value_equal v v'
         | None -> false)
       c.variants
  && (match c.os with None -> true | Some o -> String.equal o os)
  && match c.target with None -> true | Some t -> String.equal t target

let merge_opt a b =
  match (a, b) with
  | None, x | x, None -> Some x
  | Some x, Some y -> if String.equal x y then Some (Some x) else None

let node_intersect a b =
  let name_ok =
    if a.name = "" then Some b.name
    else if b.name = "" || String.equal a.name b.name then Some a.name
    else None
  in
  match name_ok with
  | None -> None
  | Some name ->
    if not (Vers.Range.intersects a.version b.version) then None
    else
      let conflict = ref false in
      let variants =
        Smap.union
          (fun _ va vb ->
            if variant_value_equal va vb then Some va
            else begin
              conflict := true;
              Some va
            end)
          a.variants b.variants
      in
      let version =
        (* Keep the tighter side when one subsumes the other; otherwise
           keep both constraints' textual conjunction by picking the
           subset if detectable. *)
        if Vers.Range.subset a.version b.version then a.version
        else if Vers.Range.subset b.version a.version then b.version
        else a.version
      in
      (match (merge_opt a.os b.os, merge_opt a.target b.target) with
      | Some os, Some target when not !conflict ->
        Some { name; version; variants; os; target }
      | _ -> None)

(* Node-constraint implication: [general] accepts everything [specific]
   accepts. *)
let node_subsumes general specific =
  (general.name = "" || String.equal general.name specific.name)
  && Vers.Range.subset specific.version general.version
  && Smap.for_all
       (fun k v ->
         match Smap.find_opt k specific.variants with
         | Some v' -> variant_value_equal v v'
         | None -> false)
       general.variants
  && (match general.os with
     | None -> true
     | Some o -> specific.os = Some o)
  && match general.target with None -> true | Some t -> specific.target = Some t

let subsumes general specific =
  node_subsumes general.root specific.root
  && List.for_all
       (fun (gd : dep) ->
         List.exists
           (fun (sd : dep) -> node_subsumes gd.node sd.node)
           specific.deps)
       general.deps

let pp_variants fmt variants =
  Smap.iter
    (fun k v ->
      match v with
      | Bool true -> Format.fprintf fmt "+%s" k
      | Bool false -> Format.fprintf fmt "~%s" k
      | Str s -> Format.fprintf fmt " %s=%s" k s)
    variants

let pp_node fmt n =
  Format.pp_print_string fmt n.name;
  if not (Vers.Range.is_any n.version) then
    Format.fprintf fmt "@%s" (Vers.Range.to_string n.version);
  pp_variants fmt n.variants;
  (match n.os with None -> () | Some o -> Format.fprintf fmt " os=%s" o);
  match n.target with None -> () | Some t -> Format.fprintf fmt " target=%s" t

let pp fmt t =
  pp_node fmt t.root;
  List.iter
    (fun d ->
      let sigil = if d.dtypes.link then " ^" else " %" in
      Format.fprintf fmt "%s%a" sigil pp_node d.node)
    t.deps

let to_string t = Format.asprintf "%a" pp t
