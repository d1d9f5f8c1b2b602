type model = {
  atoms : Ast.atom list;
  costs : (int * int) list;
  sat_stats : (string * int) list;
  stable_checks : int;
  loop_clauses : int;
}

type outcome = Sat of model | Unsat of Sat.proof_step list option

(* Fault-injection hook for the fuzz harness: skip the stability
   check, accepting possibly non-stable SAT models. *)
let hook_skip_unfounded = ref false

(* ----- positive loops -------------------------------------------- *)

(* The positive dependency graph has an edge from each rule head (every
   element of a choice head) to each positive body atom. Only atoms in
   its non-trivial strongly connected components — cyclic atoms — can
   be unfounded in a supported model (Lin-Zhao: a violated loop lies
   inside one SCC), so the stability check works on them alone. *)
type loops = {
  dense : int array;  (* atom id -> index among cyclic atoms, or -1 *)
  catoms : int array;  (* cyclic atoms, ascending *)
  crules : Ground.grule array;  (* rules with a cyclic head *)
  watch : int list array;  (* cyclic atom index -> crules it is a positive subgoal of *)
}

let heads (r : Ground.grule) =
  match r.Ground.ghead with
  | Ground.Gatom h -> [ h ]
  | Ground.Gchoice { gelems; _ } -> gelems
  | Ground.Gconstraint -> []

(* Mark the atoms of non-trivial SCCs: Tarjan with an explicit call
   stack, since recursion depth would grow with the pool. *)
let cyclic_atoms n rules =
  let succ = Array.make n [] in
  List.iter
    (fun (r : Ground.grule) ->
      List.iter (fun h -> succ.(h) <- List.rev_append r.Ground.gpos succ.(h)) (heads r))
    rules;
  let todo = Array.copy succ in  (* edges not yet explored, per atom *)
  let index = Array.make n (-1) and low = Array.make n 0 and next = ref 0 in
  let on_stack = Bytes.make n '\000' and cyclic = Bytes.make n '\000' in
  let stack = ref [] in
  let visit v calls =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    Bytes.set on_stack v '\001';
    v :: calls
  in
  let pop_component v =
    let rec pop comp =
      match !stack with
      | [] -> comp
      | w :: rest ->
        stack := rest;
        Bytes.set on_stack w '\000';
        if w = v then w :: comp else pop (w :: comp)
    in
    match pop [] with
    | [ w ] when not (List.mem w succ.(w)) -> ()
    | comp -> List.iter (fun w -> Bytes.set cyclic w '\001') comp
  in
  let rec explore = function
    | [] -> ()
    | v :: parents as calls -> (
      match todo.(v) with
      | w :: rest ->
        todo.(v) <- rest;
        if index.(w) < 0 then explore (visit w calls)
        else begin
          if Bytes.get on_stack w = '\001' then low.(v) <- min low.(v) index.(w);
          explore calls
        end
      | [] ->
        (match parents with u :: _ -> low.(u) <- min low.(u) low.(v) | [] -> ());
        if low.(v) = index.(v) then pop_component v;
        explore parents)
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then explore (visit v [])
  done;
  cyclic

let loops g =
  let n = Ground.atom_count g in
  let rules = Ground.rules g in
  let cyclic = cyclic_atoms n rules in
  let dense = Array.make n (-1) in
  let catoms = ref [] and k = ref 0 in
  for id = 0 to n - 1 do
    if Bytes.get cyclic id = '\001' then begin
      dense.(id) <- !k;
      incr k;
      catoms := id :: !catoms
    end
  done;
  let crules =
    if !k = 0 then [||]
    else
      Array.of_list
        (List.filter (fun r -> List.exists (fun h -> dense.(h) >= 0) (heads r)) rules)
  in
  let watch = Array.make !k [] in
  Array.iteri
    (fun i (r : Ground.grule) ->
      List.iter
        (fun p -> if dense.(p) >= 0 then watch.(dense.(p)) <- i :: watch.(dense.(p)))
        r.Ground.gpos)
    crules;
  { dense; catoms = Array.of_list (List.rev !catoms); crules; watch }

let scc_atoms l = Array.length l.catoms

(* Sound only for a supported model [truth]: a non-cyclic atom counts
   as founded exactly when it is true. *)
let unfounded l truth =
  let derived = Bytes.make (Array.length l.catoms) '\000' in
  let queue = Queue.create () in
  let derive id =
    let c = l.dense.(id) in
    if c >= 0 && Bytes.get derived c = '\000' then begin
      Bytes.set derived c '\001';
      Queue.add c queue
    end
  in
  let fire (r : Ground.grule) =
    match r.Ground.ghead with
    | Ground.Gatom h -> derive h
    | _ -> List.iter (fun e -> if truth e then derive e) (heads r)
  in
  (* Outstanding cyclic subgoals per rule; -1 marks a rule outside
     the reduct or blocked by a false non-cyclic subgoal. *)
  let counts =
    Array.map
      (fun (r : Ground.grule) ->
        if List.exists truth r.Ground.gneg then -1
        else
          List.fold_left
            (fun c p ->
              if c < 0 then c
              else if l.dense.(p) >= 0 then c + 1
              else if truth p then c
              else -1)
            0 r.Ground.gpos)
      l.crules
  in
  Array.iteri (fun i c -> if c = 0 then fire l.crules.(i)) counts;
  while not (Queue.is_empty queue) do
    List.iter
      (fun i ->
        if counts.(i) > 0 then begin
          counts.(i) <- counts.(i) - 1;
          if counts.(i) = 0 then fire l.crules.(i)
        end)
      l.watch.(Queue.pop queue)
  done;
  let out = ref [] in
  Array.iteri
    (fun c id -> if truth id && Bytes.get derived c = '\000' then out := id :: !out)
    l.catoms;
  !out

(* Internal record of a rule after translation, for loop clauses. *)
type trule = {
  t_head : thead;
  t_pos : int list;  (* atom ids *)
  t_neg : int list;
  t_body_lit : int;  (* SAT literal of the body conjunction; -1 = empty body *)
}

and thead = T_atom of int | T_choice of int list

type ctx = {
  g : Ground.t;
  sat : Sat.t;
  (* atom id -> SAT var, -1 for a decided atom no clause refers to *)
  atom_var : int array;
  trules : trule list;
  loops : loops;
  mutable stable_checks : int;
  mutable loop_clauses : int;
  obs : Obs.ctx;
}

(* Open atoms are the search problem: possible, and not facts. Facts
   and impossible atoms are decided by the ground program, so they get
   no variable of their own (clingo likewise maps facts to the true
   literal before search). *)
let is_open g id = Ground.possible g id && not (Ground.fact g id)

(* An atom's truth in the current model: decided atoms read it from
   the ground program, open ones from the SAT core. *)
let truth ctx id =
  if Ground.fact ctx.g id then true
  else if not (Ground.possible ctx.g id) then false
  else Sat.value ctx.sat ctx.atom_var.(id)

(* The SAT variable of an atom a clause refers to. A decided atom gets
   one on first use, fixed by a unit clause: [simplify] strips facts
   and impossible atoms from bodies and conditions, but a fact can
   still be a choice element, whose cardinality bounds must count it. *)
let var_of ctx id =
  let v = ctx.atom_var.(id) in
  if v >= 0 then v
  else begin
    let v = Sat.new_var ctx.sat in
    ctx.atom_var.(id) <- v;
    Sat.add_clause ctx.sat [ (if Ground.fact ctx.g id then Sat.pos v else Sat.neg v) ];
    v
  end

let body_lits ctx pos neg =
  List.map (fun id -> Sat.pos (var_of ctx id)) pos
  @ List.map (fun id -> Sat.neg (var_of ctx id)) neg

(* A literal equivalent to the conjunction of the body: single-literal
   bodies are represented by that literal directly; longer bodies get a
   defined variable, shared across identical bodies. Returns -1 for the
   empty (constant-true) body. *)
let make_body_lit ctx cache pos neg =
  match (pos, neg) with
  | [], [] -> -1
  | [ x ], [] -> Sat.pos (var_of ctx x)
  | [], [ y ] -> Sat.neg (var_of ctx y)
  | _ -> (
    let key = (List.sort Int.compare pos, List.sort Int.compare neg) in
    match Hashtbl.find_opt cache key with
    | Some l -> l
    | None ->
      let v = Sat.new_var ctx.sat in
      let lits = body_lits ctx pos neg in
      List.iter (fun l -> Sat.add_clause ctx.sat [ Sat.neg v; l ]) lits;
      Sat.add_clause ctx.sat (Sat.pos v :: List.map Sat.lit_not lits);
      Hashtbl.add cache key (Sat.pos v);
      Sat.pos v)

let translate ?(certify = false) ?(obs = Obs.disabled) g =
  Obs.with_span obs ~cat:"solve" "logic.translate" @@ fun span ->
  let n = Ground.atom_count g in
  let rules = Ground.rules g in
  let nopen = ref 0 in
  for id = 0 to n - 1 do
    if is_open g id then incr nopen
  done;
  (* The variables a solve makes: one per open atom, at most one per
     body of two or more literals, at most one per [#minimize]
     instance, and a few for the descent. Sizing the solver's arrays
     for them up front spares the doubling copies, most of which would
     be allocated straight into the major heap. *)
  let bodies =
    List.fold_left
      (fun k (r : Ground.grule) ->
        match (r.gpos, r.gneg) with
        | ([] | [ _ ]), [] | [], [ _ ] -> k
        | _ -> k + 1)
      0 rules
  in
  let sat =
    Sat.create ~vars:(!nopen + bodies + List.length (Ground.minimizes g) + 16) ()
  in
  Sat.set_obs sat obs;
  if certify then Sat.enable_proof sat;
  let atom_var = Array.make n (-1) in
  for id = 0 to n - 1 do
    if is_open g id then atom_var.(id) <- Sat.new_var sat
  done;
  let ctx =
    { g;
      sat;
      atom_var;
      trules = [];
      loops = loops g;
      stable_checks = 0;
      loop_clauses = 0;
      obs }
  in
  Obs.incr obs ~by:(scc_atoms ctx.loops) "logic.scc_atoms";
  Obs.set_attr span "atoms" (Obs.I n);
  let body_cache = Hashtbl.create 64 in
  (* per atom: the bodies that support it, and whether a body-less
     choice rule makes it free *)
  let supports = Array.make n [] and free = Bytes.make n '\000' in
  let trules = ref [] in
  List.iter
    (fun (r : Ground.grule) ->
      match r.Ground.ghead with
      | Ground.Gconstraint ->
        Sat.add_clause sat (List.map Sat.lit_not (body_lits ctx r.gpos r.gneg))
      | Ground.Gatom _ when r.gpos = [] && r.gneg = [] ->
        (* a fact: decided, nothing to translate *)
        ()
      | Ground.Gatom h ->
        let b = make_body_lit ctx body_cache r.gpos r.gneg in
        (* body -> head *)
        Sat.add_clause sat [ Sat.lit_not b; Sat.pos (var_of ctx h) ];
        supports.(h) <- b :: supports.(h);
        trules :=
          { t_head = T_atom h; t_pos = r.gpos; t_neg = r.gneg; t_body_lit = b } :: !trules
      | Ground.Gchoice { lo; hi; gelems } ->
        let b_lit =
          match make_body_lit ctx body_cache r.gpos r.gneg with
          | -1 -> None
          | l -> Some l
        in
        List.iter
          (fun e ->
            match b_lit with
            | None ->
              (* Unconditional choice: the element is supported
                 outright and needs no completion constraint. *)
              Bytes.set free e '\001'
            | Some l -> supports.(e) <- l :: supports.(e))
          gelems;
        trules :=
          { t_head = T_choice gelems;
            t_pos = r.gpos;
            t_neg = r.gneg;
            t_body_lit = (match b_lit with Some l -> l | None -> -1) }
          :: !trules;
        let ne = List.length gelems in
        (* Upper bound: sum of elems <= hi whenever the body holds. *)
        (match hi with
        | Some u when u < ne ->
          if u < 0 then
            (match b_lit with
            | None -> Sat.add_clause sat []
            | Some l -> Sat.add_clause sat [ Sat.lit_not l ])
          else
            let wl = List.map (fun e -> (1, Sat.pos (var_of ctx e))) gelems in
            let wl, bound =
              match b_lit with
              | None -> (wl, u)
              | Some l -> ((ne - u, l) :: wl, ne)
            in
            Sat.add_pb_le sat wl bound
        | _ -> ());
        (* Lower bound: sum of elems >= lo, i.e. sum of negations
           <= ne - lo, whenever the body holds. *)
        (match lo with
        | Some l0 when l0 > 0 ->
          if l0 > ne then
            (match b_lit with
            | None -> Sat.add_clause sat []
            | Some l -> Sat.add_clause sat [ Sat.lit_not l ])
          else
            let wl = List.map (fun e -> (1, Sat.neg (var_of ctx e))) gelems in
            let wl, bound =
              match b_lit with
              | None -> (wl, ne - l0)
              | Some l -> ((l0, l) :: wl, ne)
            in
            Sat.add_pb_le sat wl bound
        | _ -> ()))
    rules;
  (* Completion: every true open atom needs some support. *)
  for id = 0 to n - 1 do
    if is_open g id && Bytes.get free id = '\000' then
      Sat.add_clause sat (Sat.neg atom_var.(id) :: supports.(id))
  done;
  { ctx with trules = !trules }

(* ----- optimization objectives ------------------------------------ *)

type objective = {
  priority : int;
  terms : (int * int) list;  (* (weight, tuple var) *)
}

let build_objectives ctx =
  let groups : (string, int * int * Sat.lit list list) Hashtbl.t = Hashtbl.create 64 in
  (* key -> (weight, priority, list of condition clauses) *)
  List.iter
    (fun (m : Ground.gmin) ->
      if m.Ground.gweight < 0 then
        invalid_arg "minimize: negative weights are not supported";
      let cond = body_lits ctx m.gcond_pos m.gcond_neg in
      match Hashtbl.find_opt groups m.gkey with
      | Some (w, p, conds) -> Hashtbl.replace groups m.gkey (w, p, cond :: conds)
      | None -> Hashtbl.add groups m.gkey (m.gweight, m.gpriority, [ cond ]))
    (Ground.minimizes ctx.g);
  let by_priority : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _key (w, p, conds) ->
      if w > 0 then begin
        let t = Sat.new_var ctx.sat in
        (* Each satisfied condition forces the tuple to count. *)
        List.iter
          (fun cond ->
            Sat.add_clause ctx.sat (Sat.pos t :: List.map Sat.lit_not cond))
          conds;
        match Hashtbl.find_opt by_priority p with
        | Some r -> r := (w, t) :: !r
        | None -> Hashtbl.add by_priority p (ref [ (w, t) ])
      end)
    groups;
  (* Priorities whose instances all pruned or simplified away still
     count as (trivially 0-cost) objectives, so cost vectors compare
     structurally across differently-pruned groundings. *)
  List.iter
    (fun p ->
      if not (Hashtbl.mem by_priority p) then Hashtbl.add by_priority p (ref []))
    (Ground.minimize_priorities ctx.g);
  Hashtbl.fold (fun p r acc -> { priority = p; terms = !r } :: acc) by_priority []
  |> List.sort (fun a b -> Int.compare b.priority a.priority)

let objective_cost ctx obj =
  List.fold_left
    (fun acc (w, t) -> if Sat.value ctx.sat t then acc + w else acc)
    0 obj.terms

(* Cut an unfounded set. For any atom set U, if every rule that can
   derive into U needs some of U itself (no external support body is
   true), then no atom of U can hold in a stable model. The clauses
   [not a \/ ext(U)] for each a in U are therefore globally valid — and
   the externals belong to the set as a whole, not to the individual
   atom, since internal rules may pass support around once anything in
   U is externally established. *)
let add_loop_clauses ctx unfounded =
  let in_u = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_u id ()) unfounded;
  let externals = ref [] in
  List.iter
    (fun r ->
      let heads = match r.t_head with T_atom h -> [ h ] | T_choice es -> es in
      if
        List.exists (fun h -> Hashtbl.mem in_u h) heads
        && (not (List.exists (fun p -> Hashtbl.mem in_u p) r.t_pos))
        && r.t_body_lit >= 0
      then
        let l = r.t_body_lit in
        if not (List.mem l !externals) then externals := l :: !externals)
    ctx.trules;
  List.iter
    (fun a ->
      Sat.add_clause ctx.sat (Sat.neg (var_of ctx a) :: !externals);
      ctx.loop_clauses <- ctx.loop_clauses + 1)
    unfounded

(* Solve and keep refining until the SAT model is a stable model. *)
let sat_solve_traced ctx ~assumptions =
  Obs.with_span ctx.obs ~cat:"solve" "sat.solve" (fun sp ->
      let before = if Obs.enabled ctx.obs then Sat.stats ctx.sat else [] in
      let r = Sat.solve ~assumptions ctx.sat in
      if Obs.enabled ctx.obs then
        List.iter
          (fun (k, v) -> Obs.set_attr sp k (Obs.I v))
          (Sat.stats_delta ~before ctx.sat);
      Obs.set_attr sp "sat" (Obs.B r);
      r)

(* A candidate is a supported model: on a tight program (no cyclic
   atoms) it is stable outright (Fages), so the check runs only where
   positive loops exist. *)
let solve_stable ctx ~assumptions =
  let truth = truth ctx in
  let rec go () =
    if not (sat_solve_traced ctx ~assumptions) then false
    else if scc_atoms ctx.loops = 0 then begin
      Obs.incr ctx.obs "logic.stable_checks_skipped";
      true
    end
    else if !hook_skip_unfounded then true
    else begin
      ctx.stable_checks <- ctx.stable_checks + 1;
      Obs.incr ctx.obs "logic.stable_checks";
      match
        Obs.with_span ctx.obs ~cat:"solve" "logic.stable" (fun _ ->
            unfounded ctx.loops truth)
      with
      | [] -> true
      | u ->
        add_loop_clauses ctx u;
        Obs.incr ctx.obs ~by:(List.length u) "logic.unfounded_atoms";
        go ()
    end
  in
  go ()

let extract_atoms ctx =
  let out = ref [] in
  for id = Ground.atom_count ctx.g - 1 downto 0 do
    if truth ctx id then out := Ground.atom_of_id ctx.g id :: !out
  done;
  !out

(* Lexicographic descent: fix each priority level at its minimum before
   optimizing the next. Bound probes and level freezes are
   pseudo-Boolean constraints gated by a fresh activation literal —
   inactive (hence trivially satisfied) unless assumed — so a failed
   probe is retired by permanently clausing its activation literal
   false. Returns the per-priority costs of the optimal model (left
   loaded in the SAT core), or [None] when UNSAT. *)
let optimize ?(portfolio = 1) ctx objectives =
  (* Only the initial (pre-descent) stable solve is raced: it carries
     the bulk of the search, and under the byte-identity election rule
     racers contribute UNSAT verdicts only — the primary's own model
     and learnt state are untouched. The descent probes below must run
     single: their learnt clauses seed every later probe, so taking
     them from a race would make costs depend on scheduling. *)
  let initial_stable () =
    if portfolio <= 1 then solve_stable ctx ~assumptions:[]
    else begin
      Sat.set_portfolio ctx.sat (Some (Sat.portfolio portfolio));
      Fun.protect
        ~finally:(fun () -> Sat.set_portfolio ctx.sat None)
        (fun () -> solve_stable ctx ~assumptions:[])
    end
  in
  if not (initial_stable ()) then None
  else begin
    (* Activation literals of the freezes accumulated so far. *)
    let frozen = ref [] in
    let assume extra = extra @ !frozen in
    Obs.with_span ctx.obs ~cat:"solve" "opt.descent" @@ fun _ ->
    List.iter
      (fun obj ->
        let terms = List.map (fun (w, t) -> (w, Sat.pos t)) obj.terms in
        let total = List.fold_left (fun acc (w, _) -> acc + w) 0 obj.terms in
        let current = ref (objective_cost ctx obj) in
        let improved = ref true in
        while !improved && !current > 0 do
          let bound = !current - 1 in
          if bound >= total then improved := false
          else begin
            let a = Sat.new_var ctx.sat in
            (* sum + (total - bound) * a <= total: active iff a. *)
            Sat.add_pb_le ctx.sat ((total - bound, Sat.pos a) :: terms) total;
            let probe_sat =
              Obs.with_span ctx.obs ~cat:"solve" "opt.probe"
                ~attrs:
                  [ ("priority", Obs.I obj.priority); ("bound", Obs.I bound) ]
                (fun sp ->
                  let r = solve_stable ctx ~assumptions:(assume [ Sat.pos a ]) in
                  Obs.set_attr sp "sat" (Obs.B r);
                  r)
            in
            Obs.incr ctx.obs "opt.bound_probes";
            if probe_sat then begin
              let c = objective_cost ctx obj in
              (* A model satisfying [sum <= current - 1] has cost
                 strictly below [current]; anything else means the PB
                 layer failed to enforce the bound. Stop rather than
                 descend forever. *)
              if c >= !current then improved := false else current := c
            end
            else begin
              Sat.add_clause ctx.sat [ Sat.neg a ];
              improved := false;
              (* Re-establish a model consistent with the frozen levels
                 for cost extraction at lower levels. *)
              let ok = solve_stable ctx ~assumptions:(assume []) in
              assert ok
            end
          end
        done;
        (* Freeze this level at its minimum for the levels below. *)
        if !current < total then begin
          let f = Sat.new_var ctx.sat in
          Sat.add_pb_le ctx.sat ((total - !current, Sat.pos f) :: terms) total;
          frozen := Sat.pos f :: !frozen;
          let ok = solve_stable ctx ~assumptions:(assume []) in
          assert ok
        end)
      objectives;
    Some (List.map (fun o -> (o.priority, objective_cost ctx o)) objectives)
  end

let solve ?(certify = false) ?(obs = Obs.disabled) ?budget ?(portfolio = 1) g =
  let ctx = translate ~certify ~obs g in
  Sat.set_budget ctx.sat budget;
  let objectives =
    Obs.with_span obs ~cat:"solve" "logic.objectives" (fun _ -> build_objectives ctx)
  in
  match optimize ~portfolio ctx objectives with
  | None -> Unsat (Sat.proof ctx.sat)
  | Some costs ->
    let atoms =
      Obs.with_span obs ~cat:"solve" "logic.extract" (fun _ -> extract_atoms ctx)
    in
    Sat
      { atoms;
        costs;
        sat_stats = Sat.stats ctx.sat;
        stable_checks = ctx.stable_checks;
        loop_clauses = ctx.loop_clauses }

let holds m a = List.exists (fun a' -> a' = a) m.atoms

let enumerate ?(limit = 64) g =
  let ctx = translate g in
  let models = ref [] in
  let continue_search = ref true in
  while !continue_search && List.length !models < limit do
    if solve_stable ctx ~assumptions:[] then begin
      let atoms = extract_atoms ctx in
      models :=
        { atoms;
          costs = [];
          sat_stats = Sat.stats ctx.sat;
          stable_checks = ctx.stable_checks;
          loop_clauses = ctx.loop_clauses }
        :: !models;
      (* Block this exact assignment over the open atoms. *)
      let blocking =
        List.concat
          (List.init (Ground.atom_count ctx.g) (fun id ->
               if not (is_open ctx.g id) then []
               else if Sat.value ctx.sat ctx.atom_var.(id) then
                 [ Sat.neg ctx.atom_var.(id) ]
               else [ Sat.pos ctx.atom_var.(id) ]))
      in
      if blocking = [] then continue_search := false
      else Sat.add_clause ctx.sat blocking
    end
    else continue_search := false
  done;
  List.rev !models
