type atom = { pred : string; args : Term.t list }

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type body_lit =
  | Pos of atom
  | Neg of atom
  | Cmp of cmp_op * Term.t * Term.t

type choice_elem = { elem : atom; cond : body_lit list }

type head =
  | Head_atom of atom
  | Head_choice of { lo : int option; hi : int option; elems : choice_elem list }
  | Head_none

type rule = { head : head; body : body_lit list }

type min_elem = {
  weight : Term.t;
  priority : int;
  terms : Term.t list;
  mcond : body_lit list;
}

type statement = Rule of rule | Minimize of min_elem list

type program = statement list

let atom pred args = { pred; args }

let fact a = Rule { head = Head_atom a; body = [] }

let atom_equal a b =
  a == b
  || ((a.pred == b.pred || String.equal a.pred b.pred)
     && List.equal Term.equal a.args b.args)

let atom_hash a =
  List.fold_left
    (fun acc t -> ((acc * 131) + Term.hash t) land max_int)
    (Term.hash_string a.pred) a.args

(* Hashtable keyed by atoms: interned-constant-aware equality plus a
   sampled hash, replacing polymorphic hashing on the grounder's
   hottest table. *)
module Atom_tbl = Hashtbl.Make (struct
  type t = atom

  let equal = atom_equal
  let hash = atom_hash
end)

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
  |> List.rev

let atom_vars a = dedup (List.concat_map Term.vars a.args)

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_atom fmt a =
  if a.args = [] then Format.pp_print_string fmt a.pred
  else
    Format.fprintf fmt "%s(%a)" a.pred
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
         Term.pp)
      a.args

let pp_body_lit fmt = function
  | Pos a -> pp_atom fmt a
  | Neg a -> Format.fprintf fmt "not %a" pp_atom a
  | Cmp (op, l, r) -> Format.fprintf fmt "%a %s %a" Term.pp l (cmp_to_string op) Term.pp r

let pp_body fmt body =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    pp_body_lit fmt body

let pp_choice_elem fmt { elem; cond } =
  pp_atom fmt elem;
  if cond <> [] then Format.fprintf fmt " : %a" pp_body cond

let pp_head fmt = function
  | Head_atom a -> pp_atom fmt a
  | Head_none -> ()
  | Head_choice { lo; hi; elems } ->
    (match lo with Some l -> Format.fprintf fmt "%d " l | None -> ());
    Format.fprintf fmt "{ %a }"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ; ")
         pp_choice_elem)
      elems;
    (match hi with Some h -> Format.fprintf fmt " %d" h | None -> ())

let pp_statement fmt = function
  | Rule { head = Head_none; body } -> Format.fprintf fmt ":- %a." pp_body body
  | Rule { head; body = [] } -> Format.fprintf fmt "%a." pp_head head
  | Rule { head; body } -> Format.fprintf fmt "%a :- %a." pp_head head pp_body body
  | Minimize elems ->
    let pp_elem fmt e =
      Format.fprintf fmt "%a@@%d" Term.pp e.weight e.priority;
      List.iter (fun t -> Format.fprintf fmt ",%a" Term.pp t) e.terms;
      if e.mcond <> [] then Format.fprintf fmt " : %a" pp_body e.mcond
    in
    Format.fprintf fmt "#minimize { %a }."
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ; ")
         pp_elem)
      elems

let positive_vars body =
  List.concat_map (function Pos a -> atom_vars a | Neg _ | Cmp _ -> []) body

(* A comparison [V = t] binds V once every variable of [t] is bound
   (the grounder evaluates it as an assignment); iterate to a fixpoint
   so chains like [Y = X, Z = Y] work. *)
let eq_bound_vars body =
  let seed = positive_vars body in
  let rec fixpoint bound =
    let bound' =
      List.fold_left
        (fun acc lit ->
          match lit with
          | Cmp (Eq, Term.Var v, t) when List.for_all (fun x -> List.mem x acc) (Term.vars t)
            ->
            if List.mem v acc then acc else v :: acc
          | Cmp (Eq, t, Term.Var v) when List.for_all (fun x -> List.mem x acc) (Term.vars t)
            ->
            if List.mem v acc then acc else v :: acc
          | _ -> acc)
        bound body
    in
    if List.length bound' = List.length bound then bound else fixpoint bound'
  in
  let all = fixpoint seed in
  List.filter (fun v -> not (List.mem v seed)) all

let negated_condition = function
  | Head_choice { elems; _ } ->
    List.exists (fun e -> List.exists (function Neg _ -> true | _ -> false) e.cond) elems
  | Head_atom _ | Head_none -> false

let check_rule_safety i (r : rule) =
  if negated_condition r.head then
    Error
      (Format.asprintf "rule %d: negative literal in a choice-element condition: %a" i
         pp_statement (Rule r))
  else
  let bound = positive_vars r.body @ eq_bound_vars r.body in
  let need_bound =
    (match r.head with
    | Head_atom a -> atom_vars a
    | Head_none -> []
    | Head_choice { elems; _ } ->
      (* Elem vars may be bound by the elem's own condition. *)
      List.concat_map
        (fun e ->
          let local = positive_vars e.cond @ eq_bound_vars e.cond in
          List.filter (fun v -> not (List.mem v local)) (atom_vars e.elem))
        elems)
    @ List.concat_map
        (function
          | Neg a -> atom_vars a
          | Cmp (_, l, rt) -> dedup (Term.vars l @ Term.vars rt)
          | Pos _ -> [])
        r.body
  in
  match List.find_opt (fun v -> not (List.mem v bound)) need_bound with
  | None -> Ok ()
  | Some v ->
    Error
      (Format.asprintf "rule %d: unsafe variable %s in %a" i v pp_statement (Rule r))

let check_safety ?(first = 0) prog =
  let rec go i = function
    | [] -> Ok ()
    | Rule { head = Head_atom a; body = [] } :: rest
      when List.for_all Term.is_ground a.args ->
      (* a ground fact binds nothing and needs nothing bound *)
      go (i + 1) rest
    | Rule r :: rest -> (
      match check_rule_safety i r with Ok () -> go (i + 1) rest | Error e -> Error e)
    | Minimize elems :: rest ->
      let bad =
        List.find_opt
          (fun e ->
            let bound = positive_vars e.mcond @ eq_bound_vars e.mcond in
            let need = dedup (List.concat_map Term.vars (e.weight :: e.terms)) in
            List.exists (fun v -> not (List.mem v bound)) need)
          elems
      in
      (match bad with
      | Some _ -> Error (Format.asprintf "minimize statement %d: unsafe variable" i)
      | None -> go (i + 1) rest)
  in
  go first prog
