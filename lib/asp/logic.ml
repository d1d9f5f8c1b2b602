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
  crules : Ground.grule array;  (* rules with a cyclic head, in rule order *)
  wstart : int array;  (* cyclic atom index c -> the crules it is a positive *)
  wrules : int array;  (* subgoal of: wrules.(wstart.(c) .. wstart.(c + 1) - 1) *)
}

let no_rule = { Ground.ghead = Ground.Gconstraint; gpos = []; gneg = [] }

(* Int arrays a translation needs only while it runs: a compressed
   sparse row table ([off], [succ]) — first the positive dependency
   graph, then each atom's supports — and Tarjan's state. Arrays over
   the atom count are allocated straight into the major heap, which
   paces the major collector, so each domain keeps one set, grown to
   the largest program it has translated, and every translation there
   reuses it. Contents are unspecified between uses. *)
type scratch = {
  mutable off : int array;
  mutable succ : int array;
  mutable index : int array;
  mutable low : int array;
  mutable next : int array;
  mutable path : int array;
  mutable stack : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { off = [||]; succ = [||]; index = [||]; low = [||]; next = [||]; path = [||];
        stack = [||] })

(* [a], or a fresh array if it has fewer than [n] slots. *)
let fit a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* [sc.off], zeroed over [0 .. n]. *)
let zeroed_off sc n =
  sc.off <- fit sc.off (n + 1);
  let off = sc.off in
  for i = 0 to n do
    off.(i) <- 0
  done;
  off

let rec add_degree off k = function
  | [] -> ()
  | h :: hs ->
    off.(h) <- off.(h) + k;
    add_degree off k hs

(* File the edges from [h] to the atoms of [pos]: [off.(h)] counts
   down from the end of [h]'s row. A self-loop makes [h] cyclic. *)
let rec add_edges off succ cyclic h = function
  | [] -> ()
  | p :: ps ->
    off.(h) <- off.(h) - 1;
    succ.(off.(h)) <- p;
    if p = h then Bytes.set cyclic h '\001';
    add_edges off succ cyclic h ps

let rec add_head_edges off succ cyclic pos = function
  | [] -> ()
  | h :: hs ->
    add_edges off succ cyclic h pos;
    add_head_edges off succ cyclic pos hs

(* Mark the atoms of non-trivial SCCs. The graph is in compressed
   sparse rows — atom [h]'s successors are [succ.(off.(h))] ..
   [succ.(off.(h + 1) - 1)] — and Tarjan keeps its DFS path and its
   component stack in arrays, since recursion depth would grow with
   the pool. *)
let cyclic_atoms n rules =
  let sc = Domain.DLS.get scratch_key in
  let off = zeroed_off sc n in
  List.iter
    (fun (r : Ground.grule) ->
      match (r.Ground.gpos, r.Ground.ghead) with
      | [], _ | _, Ground.Gconstraint -> ()
      | pos, Ground.Gatom h -> off.(h) <- off.(h) + List.length pos
      | pos, Ground.Gchoice { gelems; _ } -> add_degree off (List.length pos) gelems)
    rules;
  for h = 1 to n do
    off.(h) <- off.(h) + off.(h - 1)
  done;
  sc.succ <- fit sc.succ off.(n);
  let succ = sc.succ and cyclic = Bytes.make n '\000' in
  List.iter
    (fun (r : Ground.grule) ->
      match (r.Ground.gpos, r.Ground.ghead) with
      | [], _ | _, Ground.Gconstraint -> ()
      | pos, Ground.Gatom h -> add_edges off succ cyclic h pos
      | pos, Ground.Gchoice { gelems; _ } -> add_head_edges off succ cyclic pos gelems)
    rules;
  sc.index <- fit sc.index n;
  sc.low <- fit sc.low n;
  sc.next <- fit sc.next n;
  sc.path <- fit sc.path n;
  sc.stack <- fit sc.stack n;
  let index = sc.index and low = sc.low and next = sc.next in
  for v = 0 to n - 1 do
    index.(v) <- -1
  done;
  let path = sc.path and depth = ref 0 in
  let stack = sc.stack and top = ref 0 and on_stack = Bytes.make n '\000' in
  let count = ref 0 in
  let visit v =
    index.(v) <- !count;
    low.(v) <- !count;
    incr count;
    next.(v) <- off.(v);
    stack.(!top) <- v;
    incr top;
    Bytes.set on_stack v '\001';
    path.(!depth) <- v;
    incr depth
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !depth > 0 do
        let v = path.(!depth - 1) in
        if next.(v) < off.(v + 1) then begin
          let w = succ.(next.(v)) in
          next.(v) <- next.(v) + 1;
          if index.(w) < 0 then visit w
          else if Bytes.get on_stack w = '\001' then low.(v) <- Int.min low.(v) index.(w)
        end
        else begin
          decr depth;
          if !depth > 0 then begin
            let u = path.(!depth - 1) in
            low.(u) <- Int.min low.(u) low.(v)
          end;
          if low.(v) = index.(v) then begin
            let last = !top in
            let rec pop () =
              decr top;
              let w = stack.(!top) in
              Bytes.set on_stack w '\000';
              if w <> v then pop ()
            in
            pop ();
            if last - !top > 1 then
              for i = !top to last - 1 do
                Bytes.set cyclic stack.(i) '\001'
              done
          end
        end
      done
    end
  done;
  cyclic

let rec any_cyclic dense = function
  | [] -> false
  | e :: es -> dense.(e) >= 0 || any_cyclic dense es

let cyclic_head dense (r : Ground.grule) =
  match r.Ground.ghead with
  | Ground.Gatom h -> dense.(h) >= 0
  | Ground.Gchoice { gelems; _ } -> any_cyclic dense gelems
  | Ground.Gconstraint -> false

let rec count_cyclic dense wstart = function
  | [] -> ()
  | p :: ps ->
    if dense.(p) >= 0 then wstart.(dense.(p)) <- wstart.(dense.(p)) + 1;
    count_cyclic dense wstart ps

let rec file_cyclic dense wstart wrules i = function
  | [] -> ()
  | p :: ps ->
    let c = dense.(p) in
    if c >= 0 then begin
      wstart.(c) <- wstart.(c) - 1;
      wrules.(wstart.(c)) <- i
    end;
    file_cyclic dense wstart wrules i ps

let loops g =
  let n = Ground.atom_count g in
  let rules = Ground.rules g in
  let cyclic = cyclic_atoms n rules in
  let k = ref 0 in
  for id = 0 to n - 1 do
    if Bytes.get cyclic id = '\001' then incr k
  done;
  (* A tight program, the common case, needs no atom index. *)
  let dense = if !k = 0 then [||] else Array.make n (-1) in
  let catoms = Array.make !k 0 in
  let c = ref 0 in
  for id = 0 to n - 1 do
    if Bytes.get cyclic id = '\001' then begin
      dense.(id) <- !c;
      catoms.(!c) <- id;
      incr c
    end
  done;
  let ncr =
    if !k = 0 then 0
    else List.fold_left (fun m r -> if cyclic_head dense r then m + 1 else m) 0 rules
  in
  let crules = Array.make ncr no_rule in
  if ncr > 0 then
    ignore
      (List.fold_left
         (fun i r ->
           if cyclic_head dense r then begin
             crules.(i) <- r;
             i + 1
           end
           else i)
         0 rules);
  let wstart = Array.make (!k + 1) 0 in
  Array.iter (fun (r : Ground.grule) -> count_cyclic dense wstart r.Ground.gpos) crules;
  for c = 1 to !k do
    wstart.(c) <- wstart.(c) + wstart.(c - 1)
  done;
  let wrules = Array.make wstart.(!k) 0 in
  Array.iteri
    (fun i (r : Ground.grule) -> file_cyclic dense wstart wrules i r.Ground.gpos)
    crules;
  { dense; catoms; crules; wstart; wrules }

let scc_atoms l = Array.length l.catoms

let heads (r : Ground.grule) =
  match r.Ground.ghead with
  | Ground.Gatom h -> [ h ]
  | Ground.Gchoice { gelems; _ } -> gelems
  | Ground.Gconstraint -> []

(* Sound only for a supported model [truth]: a non-cyclic atom counts
   as founded exactly when it is true. *)
let unfounded l truth =
  let k = Array.length l.catoms in
  let derived = Bytes.make k '\000' in
  (* cyclic atoms derived but not yet propagated; each enters once *)
  let pending = Array.make k 0 and np = ref 0 in
  let derive id =
    let c = l.dense.(id) in
    if c >= 0 && Bytes.get derived c = '\000' then begin
      Bytes.set derived c '\001';
      pending.(!np) <- c;
      incr np
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
  while !np > 0 do
    decr np;
    let c = pending.(!np) in
    for j = l.wstart.(c) to l.wstart.(c + 1) - 1 do
      let i = l.wrules.(j) in
      if counts.(i) > 0 then begin
        counts.(i) <- counts.(i) - 1;
        if counts.(i) = 0 then fire l.crules.(i)
      end
    done
  done;
  let out = ref [] in
  Array.iteri
    (fun c id -> if truth id && Bytes.get derived c = '\000' then out := id :: !out)
    l.catoms;
  !out

(* Bodies of two or more literals, keyed by their sorted atom ids:
   [| npos; nneg; pos ids ascending; neg ids ascending |]. A lookup key
   may run on into unused slots, which hashing and equality ignore. *)
module Body_tbl = Hashtbl.Make (struct
  type t = int array

  let length k = 2 + k.(0) + k.(1)

  let rec same a b i n = i >= n || (a.(i) = b.(i) && same a b (i + 1) n)

  let equal a b = a.(0) = b.(0) && a.(1) = b.(1) && same a b 2 (length a)

  let hash k =
    let h = ref 0 in
    for i = 0 to length k - 1 do
      h := (!h * 31) + k.(i)
    done;
    !h land max_int
end)

type ctx = {
  g : Ground.t;
  sat : Sat.t;
  (* atom id -> SAT var, -1 for a decided atom no clause refers to *)
  atom_var : int array;
  loops : loops;
  cbody : int array;  (* body literal of each of [loops.crules]; -1 = empty body *)
  bodies : int Body_tbl.t;
  (* The one literal buffer: each clause or PB constraint is assembled
     in [lits] (and [ws]) from slot 0 to [len] before it goes to the
     solver; [key] holds a body's lookup key. *)
  mutable lits : int array;
  mutable ws : int array;
  mutable len : int;
  mutable key : int array;
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
   still be a choice element, whose cardinality bounds must count it.
   The unit goes through the list entry point, since the buffer may
   hold a constraint being assembled. *)
let var_of ctx id =
  let v = ctx.atom_var.(id) in
  if v >= 0 then v
  else begin
    let v = Sat.new_var ctx.sat in
    ctx.atom_var.(id) <- v;
    Sat.add_clause ctx.sat [ (if Ground.fact ctx.g id then Sat.pos v else Sat.neg v) ];
    v
  end

let push ctx w l =
  if ctx.len = Array.length ctx.lits then begin
    let grow a =
      let b = Array.make (2 * ctx.len) 0 in
      Array.blit a 0 b 0 ctx.len;
      b
    in
    ctx.lits <- grow ctx.lits;
    ctx.ws <- grow ctx.ws
  end;
  ctx.ws.(ctx.len) <- w;
  ctx.lits.(ctx.len) <- l;
  ctx.len <- ctx.len + 1

(* Push each atom's literal, negated if [neg], with weight [w]. *)
let rec push_atoms ctx w neg = function
  | [] -> ()
  | id :: ids ->
    let v = var_of ctx id in
    push ctx w (if neg then Sat.neg v else Sat.pos v);
    push_atoms ctx w neg ids

let add_clause ctx = Sat.add_clause_array ctx.sat ctx.lits ctx.len

let add_pb ctx bound = Sat.add_pb_le_array ctx.sat ctx.ws ctx.lits ctx.len bound

let clause2 ctx a b =
  ctx.len <- 0;
  push ctx 1 a;
  push ctx 1 b;
  add_clause ctx

(* The clause [first \/ not body]: the body's positive atoms negated,
   its negative atoms positive. *)
let not_body ctx first pos neg =
  ctx.len <- 0;
  if first >= 0 then push ctx 1 first;
  push_atoms ctx 1 true pos;
  push_atoms ctx 1 false neg;
  add_clause ctx

(* [v -> l] for each body literal [l], in body order. *)
let rec body_implies ctx v neg = function
  | [] -> ()
  | id :: ids ->
    let x = var_of ctx id in
    clause2 ctx (Sat.neg v) (if neg then Sat.neg x else Sat.pos x);
    body_implies ctx v neg ids

let rec fill_key key i = function
  | [] -> ()
  | id :: ids ->
    key.(i) <- id;
    fill_key key (i + 1) ids

let sort_range a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* A literal equivalent to the conjunction of the body: single-literal
   bodies are represented by that literal directly; longer bodies get a
   defined variable, shared across bodies with the same atoms. Returns
   -1 for the empty (constant-true) body. *)
let body_lit ctx pos neg =
  match (pos, neg) with
  | [], [] -> -1
  | [ x ], [] -> Sat.pos (var_of ctx x)
  | [], [ y ] -> Sat.neg (var_of ctx y)
  | _ -> (
    let np = List.length pos and nn = List.length neg in
    let len = 2 + np + nn in
    if Array.length ctx.key < len then ctx.key <- Array.make (2 * len) 0;
    let key = ctx.key in
    key.(0) <- np;
    key.(1) <- nn;
    fill_key key 2 pos;
    fill_key key (2 + np) neg;
    sort_range key 2 (2 + np);
    sort_range key (2 + np) len;
    match Body_tbl.find ctx.bodies key with
    | l -> l
    | exception Not_found ->
      let v = Sat.new_var ctx.sat in
      body_implies ctx v false pos;
      body_implies ctx v true neg;
      not_body ctx (Sat.pos v) pos neg;
      Body_tbl.add ctx.bodies (Array.sub key 0 len) (Sat.pos v);
      Sat.pos v)

(* The body literal [b] never holds: the unit [not b], or for the
   empty body (-1) the empty clause. *)
let body_never ctx b =
  ctx.len <- 0;
  if b >= 0 then push ctx 1 (Sat.lit_not b);
  add_clause ctx

let rec mark_free free = function
  | [] -> ()
  | e :: es ->
    Bytes.set free e '\001';
    mark_free free es

(* Supports sit in one flat array: atom [h]'s body literals are
   [sups.(off.(h))] .. [sups.(off.(h + 1) - 1)], filled by counting
   [off.(h)] down from the end of [h]'s row. *)
let rec add_supports off sups b = function
  | [] -> ()
  | e :: es ->
    off.(e) <- off.(e) - 1;
    sups.(off.(e)) <- b;
    add_supports off sups b es

(* Clause-arena words for the problem clauses a rule can add: the
   defining clause of a body of two or more literals, or an integrity
   constraint of three or more. *)
let rule_words (r : Ground.grule) =
  let k = List.length r.Ground.gpos + List.length r.Ground.gneg in
  match r.Ground.ghead with
  | Ground.Gconstraint -> if k >= 3 then k + 3 else 0
  | _ -> if k >= 2 then k + 4 else 0

let translate ?(certify = false) ?(obs = Obs.disabled) g =
  Obs.with_span obs ~cat:"solve" "logic.translate" @@ fun span ->
  let n = Ground.atom_count g in
  let rules = Ground.rules g in
  (* [loops] is done with the scratch arrays before the supports take
     them over. *)
  let loops = loops g in
  let sc = Domain.DLS.get scratch_key in
  (* One pass sizes everything: the bodies of two or more literals,
     each atom's support count (kept in [off]), the atoms a body-less
     choice rule makes free, and the arena words of the problem
     clauses. *)
  let off = zeroed_off sc n and free = Bytes.make n '\000' in
  let bodies = ref 0 and words = ref 0 in
  List.iter
    (fun (r : Ground.grule) ->
      (match (r.Ground.gpos, r.Ground.gneg) with
      | ([] | [ _ ]), [] | [], [ _ ] -> ()
      | _ -> incr bodies);
      words := !words + rule_words r;
      match (r.Ground.ghead, r.Ground.gpos, r.Ground.gneg) with
      | Ground.Gconstraint, _, _ | Ground.Gatom _, [], [] -> ()
      | Ground.Gatom h, _, _ -> off.(h) <- off.(h) + 1
      | Ground.Gchoice { gelems; _ }, [], [] -> mark_free free gelems
      | Ground.Gchoice { gelems; _ }, _, _ -> add_degree off 1 gelems)
    rules;
  let nopen = ref 0 in
  for id = 0 to n - 1 do
    if is_open g id then begin
      incr nopen;
      if Bytes.get free id = '\000' && off.(id) >= 2 then words := !words + off.(id) + 4
    end
  done;
  List.iter
    (fun (m : Ground.gmin) ->
      let k = List.length m.Ground.gcond_pos + List.length m.Ground.gcond_neg in
      if k >= 2 then words := !words + k + 4)
    (Ground.minimizes g);
  for h = 1 to n do
    off.(h) <- off.(h) + off.(h - 1)
  done;
  sc.succ <- fit sc.succ off.(n);
  let sups = sc.succ in
  (* The variables a solve makes: one per open atom, at most one per
     body of two or more literals, at most one per [#minimize]
     instance, and a few for the descent. Sizing the solver's arrays
     for them up front spares the doubling copies, most of which would
     be allocated straight into the major heap. The arena likewise
     holds the problem clauses, with a quarter more for learnt and
     loop clauses. *)
  let sat =
    Sat.create
      ~vars:(!nopen + !bodies + List.length (Ground.minimizes g) + 16)
      ~arena:(!words + (!words / 4))
      ()
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
      loops;
      cbody = Array.make (Array.length loops.crules) (-1);
      (* at most 256 buckets: a larger bucket array would be a
         major-heap array filled with young entries *)
      bodies = Body_tbl.create (min 256 (max 16 !bodies));
      lits = Array.make 16 0;
      ws = Array.make 16 0;
      len = 0;
      key = Array.make 16 0;
      stable_checks = 0;
      loop_clauses = 0;
      obs }
  in
  Obs.incr obs ~by:(scc_atoms loops) "logic.scc_atoms";
  Obs.set_attr span "atoms" (Obs.I n);
  (* rules with a cyclic head come in rule order: [ci] is the next *)
  let ci = ref 0 in
  let note_cyclic r b =
    if !ci < Array.length loops.crules && loops.crules.(!ci) == r then begin
      ctx.cbody.(!ci) <- b;
      incr ci
    end
  in
  (* The choice rule's bound [sum of elems <= bound], or with a body
     literal [b], [weight * b + sum of elems <= bound]; elements
     negated if [neg]. *)
  let choice_pb b weight neg gelems bound =
    ctx.len <- 0;
    if b >= 0 then push ctx weight b;
    push_atoms ctx 1 neg gelems;
    add_pb ctx bound
  in
  List.iter
    (fun (r : Ground.grule) ->
      match (r.Ground.ghead, r.Ground.gpos, r.Ground.gneg) with
      | Ground.Gconstraint, pos, neg -> not_body ctx (-1) pos neg
      | Ground.Gatom _, [], [] ->
        (* a fact: decided, nothing to translate *)
        note_cyclic r (-1)
      | Ground.Gatom h, pos, neg ->
        let b = body_lit ctx pos neg in
        (* body -> head *)
        clause2 ctx (Sat.lit_not b) (Sat.pos (var_of ctx h));
        off.(h) <- off.(h) - 1;
        sups.(off.(h)) <- b;
        note_cyclic r b
      | Ground.Gchoice { lo; hi; gelems }, pos, neg ->
        (* An element of an unconditional choice is supported outright
           and needs no completion constraint. *)
        let b = body_lit ctx pos neg in
        if b >= 0 then add_supports off sups b gelems;
        note_cyclic r b;
        let ne = List.length gelems in
        (* Upper bound: sum of elems <= hi whenever the body holds. *)
        (match hi with
        | Some u when u < ne ->
          if u < 0 then body_never ctx b
          else if b < 0 then choice_pb b 0 false gelems u
          else choice_pb b (ne - u) false gelems ne
        | _ -> ());
        (* Lower bound: sum of elems >= lo, i.e. sum of negations
           <= ne - lo, whenever the body holds. *)
        (match lo with
        | Some l0 when l0 > 0 ->
          if l0 > ne then body_never ctx b
          else if b < 0 then choice_pb b 0 true gelems (ne - l0)
          else choice_pb b l0 true gelems ne
        | _ -> ()))
    rules;
  (* Completion: every true open atom needs some support. *)
  for id = 0 to n - 1 do
    if is_open g id && Bytes.get free id = '\000' then begin
      ctx.len <- 0;
      push ctx 1 (Sat.neg atom_var.(id));
      for j = off.(id) to off.(id + 1) - 1 do
        push ctx 1 sups.(j)
      done;
      add_clause ctx
    end
  done;
  ctx

(* ----- optimization objectives ------------------------------------ *)

type objective = {
  priority : int;
  terms : (int * int) list;  (* (weight, tuple var) *)
}

(* A [#minimize] tuple: its weight and priority (those of its first
   instance) and its newest instance, the head of a chain through
   [build_objectives]'s [older] array. *)
type tuple = { weight : int; prio : int; mutable newest : int }

let no_min =
  { Ground.gweight = 0; gpriority = 0; gkey = ""; gcond_pos = []; gcond_neg = [] }

let build_objectives ctx =
  let mins = Ground.minimizes ctx.g in
  let m = List.length mins in
  let inst = Array.make m no_min and older = Array.make m (-1) in
  let tuples : (string, tuple) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i (gm : Ground.gmin) ->
      if gm.Ground.gweight < 0 then
        invalid_arg "minimize: negative weights are not supported";
      inst.(i) <- gm;
      match Hashtbl.find tuples gm.gkey with
      | t ->
        older.(i) <- t.newest;
        t.newest <- i
      | exception Not_found ->
        Hashtbl.add tuples gm.gkey { weight = gm.gweight; prio = gm.gpriority; newest = i })
    mins;
  let by_priority : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _key t ->
      if t.weight > 0 then begin
        let v = Sat.new_var ctx.sat in
        (* Each satisfied condition forces the tuple to count; the
           newest instance first. *)
        let i = ref t.newest in
        while !i >= 0 do
          not_body ctx (Sat.pos v) inst.(!i).gcond_pos inst.(!i).gcond_neg;
          i := older.(!i)
        done;
        match Hashtbl.find_opt by_priority t.prio with
        | Some r -> r := (t.weight, v) :: !r
        | None -> Hashtbl.add by_priority t.prio (ref [ (t.weight, v) ])
      end)
    tuples;
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
   U is externally established. U holds cyclic atoms only, so only the
   rules with a cyclic head can support it. *)
let add_loop_clauses ctx unfounded =
  let l = ctx.loops in
  let in_u = Bytes.make (Array.length l.catoms) '\000' in
  List.iter (fun id -> Bytes.set in_u l.dense.(id) '\001') unfounded;
  let in_u id = l.dense.(id) >= 0 && Bytes.get in_u l.dense.(id) = '\001' in
  let externals = ref [] in
  Array.iteri
    (fun i r ->
      let b = ctx.cbody.(i) in
      if
        b >= 0
        && List.exists in_u (heads r)
        && (not (List.exists in_u r.Ground.gpos))
        && not (List.mem b !externals)
      then externals := b :: !externals)
    l.crules;
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
let optimize ctx objectives =
  if not (solve_stable ctx ~assumptions:[]) then None
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

let solve ?(certify = false) ?(obs = Obs.disabled) ?budget ?portfolio:_ g =
  let ctx = translate ~certify ~obs g in
  Sat.set_budget ctx.sat budget;
  let objectives =
    Obs.with_span obs ~cat:"solve" "logic.objectives" (fun _ -> build_objectives ctx)
  in
  match optimize ctx objectives with
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
