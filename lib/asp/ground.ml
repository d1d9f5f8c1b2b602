type atom_id = int

type ghead =
  | Gatom of atom_id
  | Gchoice of { lo : int option; hi : int option; gelems : atom_id list }
  | Gconstraint

type grule = { ghead : ghead; gpos : atom_id list; gneg : atom_id list }

type gmin = {
  gweight : int;
  gpriority : int;
  gkey : string;
  gcond_pos : atom_id list;
  gcond_neg : atom_id list;
}

(* Index keyed by (pred, arity, argument position, ground argument).
   Interned constants make the term component a pointer comparison in
   the common case. *)
module Arg_tbl = Hashtbl.Make (struct
  type t = string * int * int * Term.t

  let equal (p1, a1, i1, t1) (p2, a2, i2, t2) =
    a1 = a2 && i1 = i2 && (p1 == p2 || String.equal p1 p2) && Term.equal t1 t2

  let hash (p, a, i, t) =
    ((Hashtbl.hash p * 131) + (a * 8191) + (i * 524287) + Term.hash t) land max_int
end)

(* Interned atom store. Atoms interned with [~possible:true] can be
   true in some model; atoms interned only through negative literals
   (whose subject is never derivable) are constant false. Indexes: by
   predicate, and by predicate plus each argument position, so joins
   can seed from whichever argument the pattern has ground — not just
   the first. *)
(* A posting list with its length cached, so join seeding can compare
   the selectivity of several candidate indexes without walking them. *)
type posting = { mutable p_ids : atom_id list; mutable p_n : int }

type store = {
  tbl : atom_id Ast.Atom_tbl.t;
  mutable arr : Ast.atom array;
  mutable possible : Bytes.t;
  mutable count : int;
  by_pred : (string * int, atom_id list ref) Hashtbl.t;
  by_pred_arg : posting Arg_tbl.t;
  mutable hits : int;  (** joins seeded through an argument index *)
  mutable misses : int;  (** joins that scanned the whole predicate *)
}

(* [n] is the expected atom count; the arrays double past it. *)
let store_create n =
  { tbl = Ast.Atom_tbl.create n;
    arr = Array.make n { Ast.pred = ""; args = [] };
    possible = Bytes.make n '\000';
    count = 0;
    by_pred = Hashtbl.create 64;
    by_pred_arg = Arg_tbl.create n;
    hits = 0;
    misses = 0 }

let store_grow st =
  if st.count >= Array.length st.arr then begin
    let arr = Array.make (2 * Array.length st.arr) { Ast.pred = ""; args = [] } in
    Array.blit st.arr 0 arr 0 st.count;
    st.arr <- arr;
    let possible = Bytes.make (2 * Bytes.length st.possible) '\000' in
    Bytes.blit st.possible 0 possible 0 st.count;
    st.possible <- possible
  end

let push_index tbl key id =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := id :: !l
  | None -> Hashtbl.add tbl key (ref [ id ])

let push_arg_index tbl key id =
  match Arg_tbl.find_opt tbl key with
  | Some p ->
    p.p_ids <- id :: p.p_ids;
    p.p_n <- p.p_n + 1
  | None -> Arg_tbl.add tbl key { p_ids = [ id ]; p_n = 1 }

(* Returns (id, freshly_marked_possible). *)
let intern st (a : Ast.atom) ~possible =
  match Ast.Atom_tbl.find_opt st.tbl a with
  | Some id ->
    if possible && Bytes.get st.possible id = '\000' then begin
      Bytes.set st.possible id '\001';
      (id, true)
    end
    else (id, false)
  | None ->
    store_grow st;
    let id = st.count in
    st.count <- id + 1;
    Ast.Atom_tbl.add st.tbl a id;
    st.arr.(id) <- a;
    if possible then Bytes.set st.possible id '\001';
    let arity = List.length a.Ast.args in
    push_index st.by_pred (a.Ast.pred, arity) id;
    List.iteri
      (fun i arg -> push_arg_index st.by_pred_arg (a.Ast.pred, arity, i, arg) id)
      a.Ast.args;
    (id, possible)

(* Candidate atoms possibly matching a (partially instantiated) pattern
   atom: seed from the most selective {e ground} argument — the one
   whose posting list is shortest. Position alone is a poor guide:
   patterns like [attr("hash", node(P), H)] are ground at position 0,
   but that posting list holds every hash attribute in the store, while
   [node(P)] at position 1 narrows to one package. Every posting list
   is in descending atom-id order, so the surviving matches enumerate
   in the same order whichever index seeds the join. *)
let candidates st (pattern : Ast.atom) =
  let arity = List.length pattern.Ast.args in
  let best = ref None in
  let empty = ref false in
  List.iteri
    (fun i arg ->
      if (not !empty) && Term.is_ground arg then
        match Arg_tbl.find_opt st.by_pred_arg (pattern.Ast.pred, arity, i, arg) with
        | None ->
          (* no stored atom has this term here: nothing can match *)
          empty := true
        | Some p -> (
          match !best with
          | Some b when b.p_n <= p.p_n -> ()
          | _ -> best := Some p))
    pattern.Ast.args;
  if !empty then begin
    st.hits <- st.hits + 1;
    []
  end
  else
    match !best with
    | Some p ->
      st.hits <- st.hits + 1;
      p.p_ids
    | None -> (
      st.misses <- st.misses + 1;
      match Hashtbl.find_opt st.by_pred (pattern.Ast.pred, arity) with
      | Some l -> !l
      | None -> [])

let match_atom ~(pattern : Ast.atom) subst (subject : Ast.atom) =
  (* arity mismatch falls out of the [go] recursion's catch-all — no
     need for two O(arity) length walks per candidate *)
  if String.equal pattern.Ast.pred subject.Ast.pred then
    let rec go s = function
      | [], [] -> Some s
      | p :: ps, t :: ts -> (
        match Term.match_term ~pattern:p s t with
        | Some s' -> go s' (ps, ts)
        | None -> None)
      | _ -> None
    in
    go subst (pattern.Ast.args, subject.Ast.args)
  else None

let subst_atom (a : Ast.atom) subst =
  { a with Ast.args = List.map (Term.subst_term subst) a.Ast.args }

(* Ground-term comparison: ints numerically, otherwise structural. *)
let term_cmp_value op l r =
  let c =
    match (l, r) with
    | Term.Int a, Term.Int b -> Int.compare a b
    | _ -> Term.compare l r
  in
  match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

exception Stuck_cmp

(* One comparison under [subst]: tested when both sides are ground,
   [V = t] with [t] ground binds [V], and anything else must wait. *)
let eval_cmp subst op l r =
  let l = Term.subst_term subst l and r = Term.subst_term subst r in
  match (Term.is_ground l, Term.is_ground r) with
  | true, true -> if term_cmp_value op l r then `Holds subst else `Fails
  | false, true when op = Ast.Eq -> (
    match l with Term.Var v -> `Holds (Term.Smap.add v r subst) | _ -> `Waits)
  | true, false when op = Ast.Eq -> (
    match r with Term.Var v -> `Holds (Term.Smap.add v l subst) | _ -> `Waits)
  | _ -> `Waits

(* The comparisons still waiting at the end of a body. A binding one
   can ground another, so passes repeat while the list shrinks. [None]
   when a comparison fails. *)
let rec settle subst delayed =
  let rec pass subst waiting = function
    | [] -> Some (subst, waiting)
    | ((op, l, r) as c) :: rest -> (
      match eval_cmp subst op l r with
      | `Holds subst -> pass subst waiting rest
      | `Fails -> None
      | `Waits -> pass subst (c :: waiting) rest)
  in
  match pass subst [] delayed with
  | None -> None
  | Some (subst, []) -> Some subst
  | Some (subst, waiting) ->
    if List.compare_lengths waiting delayed < 0 then settle subst waiting
    else raise Stuck_cmp

(* Enumerate all substitutions extending [subst] that satisfy the
   positive literals and comparisons of [lits]; [k] receives each with
   the ids of the atoms its positive literals matched, in literal
   order. Positive literals join against the possible atoms;
   comparisons are evaluated as soon as they can be ({!eval_cmp}), the
   rest by {!settle} at the end of the body. Negative literals are
   skipped: the caller instantiates them under the finished
   substitution ({!ground_negs}). *)
let join st lits subst ~k =
  let rec go lits delayed subst ids =
    match lits with
    | [] -> (
      match settle subst delayed with
      | Some subst -> k subst (List.rev ids)
      | None -> ())
    | Ast.Pos pattern :: rest ->
      (* the first literal of every seeding joins under the empty
         substitution — skip the per-candidate pattern rebuild there *)
      let pattern' =
        if Term.Smap.is_empty subst then pattern
        else
          { pattern with Ast.args = List.map (Term.subst_term subst) pattern.Ast.args }
      in
      List.iter
        (fun id ->
          let subject = st.arr.(id) in
          if Bytes.get st.possible id = '\001' then
            match match_atom ~pattern:pattern' subst subject with
            | Some subst' -> go rest delayed subst' (id :: ids)
            | None -> ())
        (candidates st pattern')
    | Ast.Cmp (op, l, r) :: rest -> (
      match eval_cmp subst op l r with
      | `Holds subst -> go rest delayed subst ids
      | `Fails -> ()
      | `Waits -> go rest ((op, l, r) :: delayed) subst ids)
    | Ast.Neg _ :: rest -> go rest delayed subst ids
  in
  go lits [] subst []

(* The negative literals of [body] under a substitution from {!join},
   interned in literal order. *)
let ground_negs st body subst =
  List.filter_map
    (function
      | Ast.Neg pattern ->
        let a = subst_atom pattern subst in
        if not (List.for_all Term.is_ground a.Ast.args) then
          invalid_arg
            (Format.asprintf "unsafe negative literal after grounding: %a" Ast.pp_atom a);
        Some (fst (intern st a ~possible:false))
      | _ -> None)
    body

type t = {
  st : store;
  grules : grule list;
  gmins : gmin list;
  gmin_priorities : int list;
      (* every priority declared by a program #minimize, even when it
         grounds to no instances: an empty objective has cost 0, and
         keeping it makes reported cost vectors structurally stable
         across encodings that prune its candidate atoms away *)
}

(* Duplicate-rule filter keyed by the rule itself: two rules are the
   same when their heads are equal and their bodies hold the same ids
   in any order. The generic [Hashtbl.hash] samples a bounded prefix of
   the structure (10 meaningful words), and ground rules overwhelmingly
   share body prefixes — at buildcache scale, hundreds of thousands of
   instances would land in a handful of buckets. Here every id is mixed
   and the mixes summed, so the hash is full-depth and independent of
   body order, and no sorted copy of a body is kept. Equality sorts only
   when two bodies hash alike but differ in order. *)
module Rule_tbl = Hashtbl.Make (struct
  type t = grule

  let mix id =
    let x = (id lxor (id lsr 16)) * 0x45d9f3b in
    let x = (x lxor (x lsr 16)) * 0x45d9f3b in
    x lxor (x lsr 16)

  let hash_set = List.fold_left (fun h id -> h + mix id) 0

  let hash_head = function
    | Gconstraint -> 0
    | Gatom id -> (id * 2) + 1
    | Gchoice { lo; hi; gelems } ->
      let b = function None -> -2 | Some v -> v in
      List.fold_left
        (fun h id -> (h * 31) + id + 1)
        ((((b lo * 31) + b hi) * 31) + 7)
        gelems

  let same_ids a b =
    List.equal Int.equal a b
    || List.compare_lengths a b = 0
       && List.equal Int.equal (List.sort Int.compare a) (List.sort Int.compare b)

  let equal r1 r2 =
    same_ids r1.gpos r2.gpos && same_ids r1.gneg r2.gneg
    &&
    match (r1.ghead, r2.ghead) with
    | Gconstraint, Gconstraint -> true
    | Gatom a, Gatom b -> a = b
    | Gchoice c1, Gchoice c2 ->
      c1.lo = c2.lo && c1.hi = c2.hi && List.equal Int.equal c1.gelems c2.gelems
    | _ -> false

  let hash r =
    ((((hash_head r.ghead * 31) + hash_set r.gpos) * 17) + hash_set r.gneg) land max_int
end)

(* Phase 1: the possible-atom fixpoint, emitting normal rules as it
   goes. Each normal rule derives its head; each element of a choice
   rule derives its atom under the rule's body and its own condition,
   and emits nothing (the choice rule waits for the final pass).
   [pstmt] is the index of the statement it came from. *)
type pseudo = { phead : Ast.atom; pbody : Ast.body_lit list; pemit : bool; pstmt : int }

let pseudo_rules prog =
  List.concat
    (List.mapi
       (fun pstmt -> function
         | Ast.Rule { head = Ast.Head_atom h; body } ->
           [ { phead = h; pbody = body; pemit = true; pstmt } ]
         | Ast.Rule { head = Ast.Head_none; _ } -> []
         | Ast.Rule { head = Ast.Head_choice { elems; _ }; body } ->
           List.map
             (fun (e : Ast.choice_elem) ->
               { phead = e.elem; pbody = body @ e.cond; pemit = false; pstmt })
             elems
         | Ast.Minimize _ -> [])
       prog)

(* A phase-1 trigger: when an atom matching [tr_seed] appears, the
   pseudo-rule re-fires with the join seeded there and run over the
   rest of its body. The split is made once, when the index is built;
   [tr_rank] is the seed's place among the positive literals, where its
   id goes back into the ground body. *)
type trigger = {
  tr_rule : pseudo;
  tr_seed : Ast.atom;
  tr_rank : int;
  tr_rest : Ast.body_lit list;
}

(* Index triggers by the predicates of their positive body literals,
   so a new atom only retriggers relevant rules. *)
let build_trigger_index pseudos =
  let by_trigger : (string * int, trigger list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun p ->
      ignore
        (List.fold_left
           (fun (li, rank) lit ->
             match lit with
             | Ast.Pos a ->
               push_index by_trigger
                 (a.Ast.pred, List.length a.Ast.args)
                 { tr_rule = p;
                   tr_seed = a;
                   tr_rank = rank;
                   tr_rest = List.filteri (fun i _ -> i <> li) p.pbody };
               (li + 1, rank + 1)
             | _ -> (li + 1, rank))
           (0, 0) p.pbody))
    pseudos;
  by_trigger

let rec insert_at rank id ids =
  if rank = 0 then id :: ids
  else
    match ids with x :: rest -> x :: insert_at (rank - 1) id rest | [] -> [ id ]

(* A normal rule's body instance is complete when the last of its
   positive atoms is popped: the join seeded there sees every other
   body atom as possible. Earlier pops of its other atoms may find the
   same instance; [simplify] drops the repeats. *)
let phase1 st prog ~emit =
  let pseudos = pseudo_rules prog in
  let by_trigger = build_trigger_index pseudos in
  let queue = Queue.create () in
  let fire p lits subst seed =
    try
      join st lits subst ~k:(fun subst ids ->
          let hid, fresh = intern st (subst_atom p.phead subst) ~possible:true in
          if fresh then Queue.add hid queue;
          if p.pemit then
            let gpos =
              match seed with Some (rank, id) -> insert_at rank id ids | None -> ids
            in
            emit p.pstmt { ghead = Gatom hid; gpos; gneg = ground_negs st p.pbody subst })
    with Stuck_cmp ->
      invalid_arg "grounder: comparison with unbound variables (unsafe rule)"
  in
  (* Seed: rules with no positive body literal fire immediately. *)
  List.iter
    (fun p ->
      if not (List.exists (function Ast.Pos _ -> true | _ -> false) p.pbody) then
        fire p p.pbody Term.Smap.empty None)
    pseudos;
  (* Delta loop: for each new atom, re-evaluate rules triggered through
     the matching body position, seeding the join there. *)
  let iters = ref 0 in
  while not (Queue.is_empty queue) do
    incr iters;
    let id = Queue.pop queue in
    let atom = st.arr.(id) in
    match Hashtbl.find_opt by_trigger (atom.Ast.pred, List.length atom.Ast.args) with
    | None -> ()
    | Some triggers ->
      List.iter
        (fun tr ->
          match match_atom ~pattern:tr.tr_seed Term.Smap.empty atom with
          | None -> ()
          | Some subst -> fire tr.tr_rule tr.tr_rest subst (Some (tr.tr_rank, id)))
        !triggers
  done;
  !iters

let choice_elems st (elems : Ast.choice_elem list) subst =
  let gelems = ref [] in
  List.iter
    (fun (e : Ast.choice_elem) ->
      join st e.cond subst ~k:(fun subst' _ ->
          let id, _ = intern st (subst_atom e.elem subst') ~possible:true in
          if not (List.mem id !gelems) then gelems := id :: !gelems))
    elems;
  List.rev !gelems

let ground_min (e : Ast.min_elem) subst pos neg =
  let w =
    match Term.subst_term subst e.weight with
    | Term.Int n -> n
    | t -> invalid_arg (Format.asprintf "minimize weight is not an integer: %a" Term.pp t)
  in
  let key =
    Format.asprintf "%d@%d|%a" w e.priority
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ',')
         Term.pp)
      (List.map (Term.subst_term subst) e.terms)
  in
  { gweight = w; gpriority = e.priority; gkey = key; gcond_pos = pos; gcond_neg = neg }

(* The final pass, over the fixed atom set: choice rules, whose element
   lists need every possible atom, and the statements that derive no
   atom — constraints and #minimize — which a seeded join would find
   once per positive literal. Each is joined once. *)
let final_pass st prog ~emit =
  let gmins = ref [] in
  let body_instances body k =
    try
      join st body Term.Smap.empty ~k:(fun subst pos ->
          k subst pos (ground_negs st body subst))
    with Stuck_cmp -> invalid_arg "grounder: unsafe comparison"
  in
  List.iteri
    (fun i -> function
      | Ast.Rule { head = Ast.Head_atom _; _ } -> ()
      | Ast.Rule { head = Ast.Head_none; body } ->
        body_instances body (fun _ gpos gneg ->
            emit i { ghead = Gconstraint; gpos; gneg })
      | Ast.Rule { head = Ast.Head_choice { lo; hi; elems }; body } ->
        body_instances body (fun subst gpos gneg ->
            let gelems = choice_elems st elems subst in
            emit i { ghead = Gchoice { lo; hi; gelems }; gpos; gneg })
      | Ast.Minimize elems ->
        List.iter
          (fun (e : Ast.min_elem) ->
            body_instances e.mcond (fun subst pos neg ->
                gmins := ground_min e subst pos neg :: !gmins))
          elems)
    prog;
  List.rev !gmins

(* Fact propagation (what clingo's grounder does): atoms that are
   certainly true — derivable through rules with no remaining negative
   or undecided positive subgoals — become facts; their occurrences in
   bodies are simplified away, rules that can no longer fire are
   dropped, and rules whose head is a fact disappear. The hash_attr
   recovery rules of 5.3 compile to pure copies of facts, so this pass
   is what keeps the new encoding's overhead at clingo-like levels. *)
let simplify st grules gmins =
  let possible id = Bytes.get st.possible id = '\001' in
  (* 1. negative literals on impossible atoms are trivially true.
     Most bodies are negation-free, so only copy records when a
     literal is actually dropped. *)
  let clean_negs negs =
    if List.for_all possible negs then negs else List.filter possible negs
  in
  let grules =
    List.map
      (fun r ->
        let n = clean_negs r.gneg in
        if n == r.gneg then r else { r with gneg = n })
      grules
  in
  let gmins =
    List.map
      (fun m ->
        let n = clean_negs m.gcond_neg in
        if n == m.gcond_neg then m else { m with gcond_neg = n })
      gmins
  in
  (* 2. least fixpoint of certain atoms over negation-free atom rules *)
  let certain = Bytes.make st.count '\000' in
  let is_certain id = Bytes.get certain id = '\001' in
  let sources =
    List.filter_map
      (fun r ->
        match r.ghead with
        | Gatom h when r.gneg = [] -> Some (h, r.gpos)
        | _ -> None)
      grules
  in
  let rule_arr = Array.of_list sources in
  let counts = Array.map (fun (_, pos) -> List.length pos) rule_arr in
  let by_atom = Array.make st.count [] in
  Array.iteri
    (fun i (_, pos) -> List.iter (fun id -> by_atom.(id) <- i :: by_atom.(id)) pos)
    rule_arr;
  let queue = Queue.create () in
  let derive id =
    if not (is_certain id) then begin
      Bytes.set certain id '\001';
      Queue.add id queue
    end
  in
  Array.iteri (fun i c -> if c = 0 then derive (fst rule_arr.(i))) counts;
  while not (Queue.is_empty queue) do
    List.iter
      (fun i ->
        counts.(i) <- counts.(i) - 1;
        if counts.(i) = 0 then derive (fst rule_arr.(i)))
      by_atom.(Queue.pop queue)
  done;
  (* 3. rewrite: certain atoms become facts, in atom-id order. This is
     the grounding's one duplicate filter: it drops the instances
     phase 1 found more than once, and rules that became equal when
     certain atoms left their bodies. *)
  let out = ref [] in
  let seen = Rule_tbl.create (List.length grules) in
  let emit r =
    if not (Rule_tbl.mem seen r) then begin
      Rule_tbl.add seen r ();
      out := r :: !out
    end
  in
  for id = 0 to st.count - 1 do
    if is_certain id then emit { ghead = Gatom id; gpos = []; gneg = [] }
  done;
  List.iter
    (fun r ->
      (* a rule is dead if some negative literal is certainly true *)
      if not (List.exists is_certain r.gneg) then begin
        match r.ghead with
        | Gatom h when is_certain h -> () (* subsumed by the fact *)
        | _ ->
          if List.exists is_certain r.gpos then
            emit { r with gpos = List.filter (fun id -> not (is_certain id)) r.gpos }
          else emit r
      end)
    grules;
  let gmins =
    List.filter_map
      (fun m ->
        if List.exists is_certain m.gcond_neg then None
        else
          Some
            { m with
              gcond_pos = List.filter (fun id -> not (is_certain id)) m.gcond_pos })
      gmins
  in
  (List.rev !out, gmins)

let declared_priorities prog =
  List.concat_map
    (function
      | Ast.Minimize elems ->
        List.map (fun (e : Ast.min_elem) -> e.Ast.priority) elems
      | _ -> [])
    prog
  |> List.sort_uniq Int.compare

let ground ?(obs = Obs.disabled) ?jobs:_ prog =
  (match Ast.check_safety prog with
  | Ok () -> ()
  | Error e -> invalid_arg ("grounder: " ^ e));
  (* Most statements are facts, one atom each: the statement count is
     a cheap estimate of the atom count. *)
  let nstmts = List.length prog in
  let st = store_create (max 64 nstmts) in
  (* Rules are kept per statement and listed in statement order, the
     order a grounder joining one statement after another lists them:
     the SAT core's search depends on the order its clauses arrive.
     [simplify] drops the repeats. *)
  let by_stmt = Array.make nstmts [] and emitted = ref 0 in
  let emit i r =
    by_stmt.(i) <- r :: by_stmt.(i);
    incr emitted
  in
  let iters =
    Obs.with_span obs ~cat:"ground" "ground.phase1" (fun sp ->
        let iters = phase1 st prog ~emit in
        Obs.set_attr sp "fixpoint_iters" (Obs.I iters);
        Obs.set_attr sp "possible_atoms" (Obs.I st.count);
        Obs.set_attr sp "rules" (Obs.I !emitted);
        iters)
  in
  let gmins =
    Obs.with_span obs ~cat:"ground" "ground.phase2" (fun sp ->
        let before = !emitted in
        let gmins = final_pass st prog ~emit in
        Obs.set_attr sp "rules" (Obs.I (!emitted - before));
        gmins)
  in
  let pre_simplify = !emitted in
  let grules = Array.fold_right (fun rs acc -> List.rev_append rs acc) by_stmt [] in
  let grules, gmins =
    Obs.with_span obs ~cat:"ground" "ground.simplify" (fun sp ->
        let grules, gmins = simplify st grules gmins in
        Obs.set_attr sp "rules_in" (Obs.I pre_simplify);
        Obs.set_attr sp "rules_out" (Obs.I (List.length grules));
        (grules, gmins))
  in
  Obs.incr obs ~by:(List.length grules) "ground.rules";
  Obs.incr obs ~by:iters "ground.fixpoint_iters";
  Obs.incr obs ~by:st.hits "ground.index_hits";
  Obs.incr obs ~by:st.misses "ground.index_misses";
  Obs.gauge obs "ground.atoms" st.count;
  { st; grules; gmins; gmin_priorities = declared_priorities prog }

let rules t = t.grules

let minimizes t = t.gmins

let minimize_priorities t = t.gmin_priorities

let atom_count t = t.st.count

let index_hits t = t.st.hits

let index_misses t = t.st.misses

let possible t id = Bytes.get t.st.possible id = '\001'

let atom_of_id t id = t.st.arr.(id)

let pp_atom_id t fmt id = Ast.pp_atom fmt (atom_of_id t id)

let pp fmt t =
  let pp_ids fmt ids =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      (pp_atom_id t) fmt ids
  in
  List.iter
    (fun r ->
      (match r.ghead with
      | Gatom id -> pp_atom_id t fmt id
      | Gconstraint -> ()
      | Gchoice { lo; hi; gelems } ->
        (match lo with Some l -> Format.fprintf fmt "%d " l | None -> ());
        Format.fprintf fmt "{ %a }" pp_ids gelems;
        (match hi with Some h -> Format.fprintf fmt " %d" h | None -> ()));
      if r.gpos <> [] || r.gneg <> [] then begin
        Format.fprintf fmt " :- %a" pp_ids r.gpos;
        if r.gneg <> [] then begin
          if r.gpos <> [] then Format.pp_print_string fmt ", ";
          Format.pp_print_list
            ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
            (fun fmt id -> Format.fprintf fmt "not %a" (pp_atom_id t) id)
            fmt r.gneg
        end
      end;
      Format.fprintf fmt ".@.")
    t.grules
