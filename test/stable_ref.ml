(* Reference semantics for the ASP engine's tests: a brute-force
   stable-model enumerator, a generator of small random programs (with
   positive loops), and the full least-fixpoint unfounded-set check
   that {!Asp.Logic.unfounded} restricts to positive loops. *)

let brute_stable nvars choice_elems rules constraints =
  let models = ref [] in
  for mask = 0 to (1 lsl nvars) - 1 do
    let truth a = mask land (1 lsl a) <> 0 in
    let body_sat (pos, neg) =
      List.for_all truth pos && List.for_all (fun a -> not (truth a)) neg
    in
    if List.for_all (fun b -> not (body_sat b)) constraints then begin
      let derived = Array.make nvars false in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (h, pos, neg) ->
            if
              (not derived.(h))
              && List.for_all (fun p -> derived.(p)) pos
              && List.for_all (fun a -> not (truth a)) neg
            then begin
              derived.(h) <- true;
              changed := true
            end)
          rules;
        List.iter
          (fun e ->
            if truth e && not derived.(e) then begin
              derived.(e) <- true;
              changed := true
            end)
          choice_elems
      done;
      if List.for_all (fun a -> truth a = derived.(a)) (List.init nvars Fun.id) then
        models := mask :: !models
    end
  done;
  !models

let gen_program =
  QCheck.Gen.(
    let* nvars = int_range 2 5 in
    let atom = int_range 0 (nvars - 1) in
    let* nchoice = int_range 0 nvars in
    let* rules =
      list_size (int_range 0 8)
        (triple atom (list_size (int_range 0 2) atom) (list_size (int_range 0 2) atom))
    in
    let* constraints =
      list_size (int_range 0 2)
        (pair (list_size (int_range 1 2) atom) (list_size (int_range 0 1) atom))
    in
    return (nvars, List.init nchoice Fun.id, rules, constraints))

let program_text (nvars, choice_elems, rules, constraints) =
  ignore nvars;
  let a i = Printf.sprintf "a%d" i in
  let buf = Buffer.create 256 in
  if choice_elems <> [] then
    Buffer.add_string buf
      (Printf.sprintf "{ %s }.\n" (String.concat " ; " (List.map a choice_elems)));
  List.iter
    (fun (h, pos, neg) ->
      let body = List.map a pos @ List.map (fun x -> "not " ^ a x) neg in
      if body = [] then Buffer.add_string buf (a h ^ ".\n")
      else Buffer.add_string buf (Printf.sprintf "%s :- %s.\n" (a h) (String.concat ", " body)))
    rules;
  List.iter
    (fun (pos, neg) ->
      let body = List.map a pos @ List.map (fun x -> "not " ^ a x) neg in
      Buffer.add_string buf (Printf.sprintf ":- %s.\n" (String.concat ", " body)))
    constraints;
  Buffer.contents buf

let arb_program = QCheck.make ~print:program_text gen_program

(* The solver's answer to [p] is one of its brute-force stable models,
   or UNSAT when there are none. *)
let agrees_with_brute_force ((nvars, choice_elems, rules, constraints) as p) =
  let expected = brute_stable nvars choice_elems rules constraints in
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
        0 (List.init nvars Fun.id)
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
