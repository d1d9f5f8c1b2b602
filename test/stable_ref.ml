(* Reference semantics for the ASP engine's tests: a brute-force
   stable-model enumerator, a generator of small random programs (with
   positive loops), and the full least-fixpoint unfounded-set check
   that {!Asp.Logic.unfounded} restricts to positive loops. *)

(* [lo { elems } hi :- cpos, not cneg]. *)
type choice = {
  lo : int option;
  hi : int option;
  elems : int list;  (* distinct *)
  cpos : int list;
  cneg : int list;
}

(* Atoms [a0] .. [a(nvars - 1)]. A rule is (head, positive body,
   negative body); one with neither body is a fact. *)
type program = {
  nvars : int;
  choices : choice list;
  rules : (int * int list * int list) list;
  constraints : (int list * int list) list;
}

let brute_stable p =
  let models = ref [] in
  for mask = 0 to (1 lsl p.nvars) - 1 do
    let truth a = mask land (1 lsl a) <> 0 in
    let body_sat pos neg =
      List.for_all truth pos && List.for_all (fun a -> not (truth a)) neg
    in
    (* a choice's bounds hold wherever its body does *)
    let within c =
      (not (body_sat c.cpos c.cneg))
      ||
      let k = List.length (List.filter truth c.elems) in
      Option.fold ~none:true ~some:(fun l -> k >= l) c.lo
      && Option.fold ~none:true ~some:(fun h -> k <= h) c.hi
    in
    if
      List.for_all (fun (pos, neg) -> not (body_sat pos neg)) p.constraints
      && List.for_all within p.choices
    then begin
      let derived = Array.make p.nvars false in
      let derive a =
        if not derived.(a) then begin
          derived.(a) <- true;
          true
        end
        else false
      in
      let fires pos neg =
        List.for_all (fun a -> derived.(a)) pos && List.for_all (fun a -> not (truth a)) neg
      in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (h, pos, neg) -> if fires pos neg && derive h then changed := true)
          p.rules;
        (* a choice whose body fires supports its true elements *)
        List.iter
          (fun c ->
            if fires c.cpos c.cneg then
              List.iter (fun e -> if truth e && derive e then changed := true) c.elems)
          p.choices
      done;
      if List.for_all (fun a -> truth a = derived.(a)) (List.init p.nvars Fun.id) then
        models := mask :: !models
    end
  done;
  !models

(* Besides rules with positive loops, a program may get:
   - a body-less, unbounded choice over the first atoms;
   - choice rules with a body and lo/hi bounds (the PB constraints
     with a body literal);
   - two rules sharing one body of two or more literals (the body
     cache);
   - a fact that is also an element of a bounded choice (a decided
     atom that gets a SAT variable fixed by a unit clause). *)
let gen_program =
  QCheck.Gen.(
    let* nvars = int_range 2 5 in
    let atom = int_range 0 (nvars - 1) in
    let lits lo hi = list_size (int_range lo hi) atom in
    let* nchoice = int_range 0 nvars in
    let* bounded =
      list_size (int_range 0 2)
        (let* elems = lits 1 3 in
         let* lo = opt (int_range 0 2) in
         let* hi = opt (int_range 0 3) in
         let* cpos = lits 0 2 in
         let* cneg = lits 0 1 in
         return { lo; hi; elems = List.sort_uniq Int.compare elems; cpos; cneg })
    in
    let* rules = list_size (int_range 0 8) (triple atom (lits 0 2) (lits 0 2)) in
    let* shared = opt (triple (pair atom atom) (lits 1 2) (lits 1 1)) in
    let* fact_elem = bool in
    let* constraints = list_size (int_range 0 2) (pair (lits 1 2) (lits 0 1)) in
    let free =
      if nchoice = 0 then []
      else [ { lo = None; hi = None; elems = List.init nchoice Fun.id; cpos = []; cneg = [] } ]
    in
    let rules =
      match shared with
      | Some ((h1, h2), pos, neg) -> rules @ [ (h1, pos, neg); (h2, pos, neg) ]
      | None -> rules
    in
    let rules =
      match (fact_elem, bounded) with
      | true, c :: _ -> (List.hd c.elems, [], []) :: rules
      | _ -> rules
    in
    return { nvars; choices = free @ bounded; rules; constraints })

let program_text p =
  let a i = Printf.sprintf "a%d" i in
  let body pos neg = List.map a pos @ List.map (fun x -> "not " ^ a x) neg in
  let rule head = function
    | [] -> head ^ ".\n"
    | b -> Printf.sprintf "%s :- %s.\n" head (String.concat ", " b)
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      let bound f = Option.fold ~none:"" ~some:f in
      Buffer.add_string buf
        (rule
           (Printf.sprintf "%s{ %s }%s"
              (bound (Printf.sprintf "%d ") c.lo)
              (String.concat " ; " (List.map a c.elems))
              (bound (Printf.sprintf " %d") c.hi))
           (body c.cpos c.cneg)))
    p.choices;
  List.iter (fun (h, pos, neg) -> Buffer.add_string buf (rule (a h) (body pos neg))) p.rules;
  List.iter
    (fun (pos, neg) -> Buffer.add_string buf (rule "" (body pos neg)))
    p.constraints;
  Buffer.contents buf

let arb_program = QCheck.make ~print:program_text gen_program

(* The solver's answer to [p] is one of its brute-force stable models,
   or UNSAT when there are none. *)
let agrees_with_brute_force p =
  let expected = brute_stable p in
  match Asp.solve_text (program_text p) with
  | Asp.Logic.Unsat _ -> expected = []
  | Asp.Logic.Sat m ->
    let mask =
      List.fold_left
        (fun acc i ->
          if
            List.exists
              (fun (a : Asp.Ast.atom) ->
                a.Asp.Ast.pred = Printf.sprintf "a%d" i && a.Asp.Ast.args = [])
              m.Asp.Logic.atoms
          then acc lor (1 lsl i)
          else acc)
        0 (List.init p.nvars Fun.id)
    in
    List.mem mask expected

(* ---- the full stability check ---- *)

let heads (r : Asp.Ground.grule) =
  match r.Asp.Ground.ghead with
  | Asp.Ground.Gatom h -> [ h ]
  | Asp.Ground.Gchoice { gelems; _ } -> gelems
  | Asp.Ground.Gconstraint -> []

(* The least model of the reduct of [g] w.r.t. the interpretation
   [truth], over every rule; returns the true atoms it does not derive
   (the unfounded set), in descending id order. *)
let full_unfounded g truth =
  let n = Asp.Ground.atom_count g in
  let derived = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Asp.Ground.grule) ->
        if
          List.for_all (fun id -> derived.(id)) r.Asp.Ground.gpos
          && not (List.exists truth r.Asp.Ground.gneg)
        then
          List.iter
            (fun h ->
              let fires =
                match r.Asp.Ground.ghead with Asp.Ground.Gatom _ -> true | _ -> truth h
              in
              if fires && not derived.(h) then begin
                derived.(h) <- true;
                changed := true
              end)
            (heads r))
      (Asp.Ground.rules g)
  done;
  List.filter (fun id -> truth id && not derived.(id)) (List.init n Fun.id) |> List.rev

(* Every supported interpretation of [g]: possible atoms only, every
   atom rule satisfied, every true atom the head of a rule whose body
   holds — the candidate models the solver's completion admits. *)
let supported_interpretations g =
  let n = Asp.Ground.atom_count g in
  let rules = Asp.Ground.rules g in
  List.filter_map
    (fun mask ->
      let truth id = mask land (1 lsl id) <> 0 in
      let body (r : Asp.Ground.grule) =
        List.for_all truth r.Asp.Ground.gpos
        && not (List.exists truth r.Asp.Ground.gneg)
      in
      let model =
        List.for_all
          (fun (r : Asp.Ground.grule) ->
            match r.Asp.Ground.ghead with
            | Asp.Ground.Gatom h -> (not (body r)) || truth h
            | _ -> true)
          rules
      in
      let supported id =
        (not (truth id))
        || Asp.Ground.possible g id
           && List.exists (fun r -> List.mem id (heads r) && body r) rules
      in
      if model && List.for_all supported (List.init n Fun.id) then Some truth else None)
    (List.init (1 lsl n) Fun.id)
