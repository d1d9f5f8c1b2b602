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

(* Join-index hit/miss tally. The store carries one for the whole
   grounding; parallel phase-2 workers use private tallies so counts
   stay deterministic (no racy increments). *)
type tally = { mutable t_hits : int; mutable t_misses : int }

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
  st_tally : tally;
}

(* [n] is the expected atom count; the arrays double past it. *)
let store_create n =
  { tbl = Ast.Atom_tbl.create n;
    arr = Array.make n { Ast.pred = ""; args = [] };
    possible = Bytes.make n '\000';
    count = 0;
    by_pred = Hashtbl.create 64;
    by_pred_arg = Arg_tbl.create n;
    st_tally = { t_hits = 0; t_misses = 0 } }

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
   in the same order whichever index seeds the join — grounding output
   stays byte-identical. *)
let candidates ?tally st (pattern : Ast.atom) =
  let tally = match tally with Some t -> t | None -> st.st_tally in
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
    tally.t_hits <- tally.t_hits + 1;
    []
  end
  else
    match !best with
    | Some p ->
      tally.t_hits <- tally.t_hits + 1;
      p.p_ids
    | None -> (
      tally.t_misses <- tally.t_misses + 1;
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

(* Enumerate all substitutions extending [subst] that satisfy the body
   literals. Positive literals join against the store; comparisons are
   evaluated when ground, with [V = ground-term] acting as a binding;
   not-yet-evaluable comparisons are delayed past the next positive
   literal. Negative literals are handled by [on_neg] (phase 1 ignores
   them; phase 2 records them). *)
let join ?tally st lits subst ~on_neg ~k =
  let rec go lits delayed subst negs =
    match lits with
    | [] ->
      (* Flush delayed comparisons; they must be ground now. *)
      let ok =
        List.for_all
          (fun (op, l, r) ->
            let l = Term.subst_term subst l and r = Term.subst_term subst r in
            if Term.is_ground l && Term.is_ground r then term_cmp_value op l r
            else raise Stuck_cmp)
          delayed
      in
      if ok then k subst (List.rev negs)
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
            | Some subst' -> go rest delayed subst' negs
            | None -> ())
        (candidates ?tally st pattern')
    | Ast.Cmp (op, l, r) :: rest -> (
      let l' = Term.subst_term subst l and r' = Term.subst_term subst r in
      match (Term.is_ground l', Term.is_ground r') with
      | true, true -> if term_cmp_value op l' r' then go rest delayed subst negs
      | false, true when op = Ast.Eq -> (
        match l' with
        | Term.Var v -> go rest delayed (Term.Smap.add v r' subst) negs
        | _ -> go rest ((op, l, r) :: delayed) subst negs)
      | true, false when op = Ast.Eq -> (
        match r' with
        | Term.Var v -> go rest delayed (Term.Smap.add v l' subst) negs
        | _ -> go rest ((op, l, r) :: delayed) subst negs)
      | _ -> go rest ((op, l, r) :: delayed) subst negs)
    | Ast.Neg pattern :: rest -> (
      match on_neg with
      | `Ignore -> go rest delayed subst negs
      | `Record ->
        let a =
          { pattern with Ast.args = List.map (Term.subst_term subst) pattern.Ast.args }
        in
        if not (List.for_all Term.is_ground a.Ast.args) then
          invalid_arg
            (Format.asprintf "unsafe negative literal after grounding: %a" Ast.pp_atom a);
        go rest delayed subst (a :: negs))
  in
  go lits [] subst []

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

(* Phase 1: possible-atom fixpoint over derivation pseudo-rules
   (head, positive body). *)
type pseudo = { phead : Ast.atom; pbody : Ast.body_lit list }

let pseudo_rules prog =
  List.concat_map
    (function
      | Ast.Rule { head = Ast.Head_atom h; body } -> [ { phead = h; pbody = body } ]
      | Ast.Rule { head = Ast.Head_none; _ } -> []
      | Ast.Rule { head = Ast.Head_choice { elems; _ }; body } ->
        List.map (fun (e : Ast.choice_elem) -> { phead = e.elem; pbody = body @ e.cond }) elems
      | Ast.Minimize _ -> [])
    prog

(* A phase-1 trigger: when an atom matching [tr_seed] appears, the
   pseudo-rule re-fires with the join seeded there and run over the
   rest of its body. The split is made once, when the index is built. *)
type trigger = { tr_head : Ast.atom; tr_seed : Ast.atom; tr_rest : Ast.body_lit list }

(* Index triggers by the predicates of their positive body literals,
   so a new atom only retriggers relevant rules. *)
let build_trigger_index pseudos =
  let by_trigger : (string * int, trigger list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iteri
        (fun li lit ->
          match lit with
          | Ast.Pos a ->
            push_index by_trigger
              (a.Ast.pred, List.length a.Ast.args)
              { tr_head = p.phead;
                tr_seed = a;
                tr_rest = List.filteri (fun i _ -> i <> li) p.pbody }
          | _ -> ())
        p.pbody)
    pseudos;
  by_trigger

let phase1 st prog =
  let pseudos = pseudo_rules prog in
  let by_trigger = build_trigger_index pseudos in
  let queue = Queue.create () in
  let fire head lits subst =
    try
      join st lits subst ~on_neg:`Ignore ~k:(fun subst _ ->
          let hid, fresh = intern st (subst_atom head subst) ~possible:true in
          if fresh then Queue.add hid queue)
    with Stuck_cmp ->
      invalid_arg "grounder: comparison with unbound variables (unsafe rule)"
  in
  (* Seed: rules with no positive body literal fire immediately. *)
  List.iter
    (fun p ->
      if not (List.exists (function Ast.Pos _ -> true | _ -> false) p.pbody) then
        fire p.phead p.pbody Term.Smap.empty)
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
          | Some subst -> fire tr.tr_head tr.tr_rest subst)
        !triggers
  done;
  !iters

(* Phase 2: emit ground statements over the fixed atom set. The
   emitter abstracts where atoms are interned and where output lands:
   the serial path writes straight into the store and rule list,
   parallel workers write into private overlays merged
   deterministically afterwards. *)
type emitter = {
  em_intern : Ast.atom -> possible:bool -> atom_id;
  em_rule : grule -> unit;
  em_min : gmin -> unit;
  em_tally : tally option;
}

let choice_elems st em (elems : Ast.choice_elem list) subst =
  let gelems = ref [] in
  List.iter
    (fun (e : Ast.choice_elem) ->
      try
        join ?tally:em.em_tally st e.cond subst ~on_neg:`Ignore ~k:(fun subst' _ ->
            let a = subst_atom e.elem subst' in
            let id = em.em_intern a ~possible:true in
            if not (List.mem id !gelems) then gelems := id :: !gelems)
      with Stuck_cmp -> invalid_arg "grounder: unsafe comparison")
    elems;
  List.rev !gelems

(* Solve [body]; for every solution, hand back the interned positive
   body and negatives. *)
let ground_body st em body k =
  join ?tally:em.em_tally st body Term.Smap.empty ~on_neg:`Record
    ~k:(fun subst negs ->
      let pos =
        List.filter_map
          (function
            | Ast.Pos a -> Some (em.em_intern (subst_atom a subst) ~possible:false)
            | _ -> None)
          body
      in
      (* Positive atoms were matched against possible atoms, so the
         lookup above finds existing ids. *)
      let neg = List.map (fun a -> em.em_intern a ~possible:false) negs in
      k subst pos neg)

let emit_head st em (head : Ast.head) subst pos neg =
  match head with
  | Ast.Head_atom h ->
    let ghead = Gatom (em.em_intern (subst_atom h subst) ~possible:true) in
    em.em_rule { ghead; gpos = pos; gneg = neg }
  | Ast.Head_none -> em.em_rule { ghead = Gconstraint; gpos = pos; gneg = neg }
  | Ast.Head_choice { lo; hi; elems } ->
    let gelems = choice_elems st em elems subst in
    em.em_rule { ghead = Gchoice { lo; hi; gelems }; gpos = pos; gneg = neg }

let emit_min em (e : Ast.min_elem) subst pos neg =
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
  em.em_min
    { gweight = w; gpriority = e.priority; gkey = key; gcond_pos = pos; gcond_neg = neg }

let ground_stmt st em (stmt : Ast.statement) =
  match stmt with
  | Ast.Rule { head; body } -> (
    try
      ground_body st em body (fun subst pos neg -> emit_head st em head subst pos neg)
    with Stuck_cmp -> invalid_arg "grounder: unsafe comparison")
  | Ast.Minimize elems ->
    List.iter
      (fun (e : Ast.min_elem) ->
        try ground_body st em e.mcond (fun subst pos neg -> emit_min em e subst pos neg)
        with Stuck_cmp -> invalid_arg "grounder: unsafe comparison")
      elems

(* Bodies of length 0/1 are already sorted; skip the sort allocation —
   at buildcache scale most rules have tiny bodies. *)
let sort_ids = function ([] | [ _ ]) as l -> l | l -> List.sort Int.compare l

let rule_key r = (r.ghead, sort_ids r.gpos, sort_ids r.gneg)

(* Duplicate-rule filter table with a full-depth hash. The generic
   [Hashtbl.hash] samples a bounded prefix of the structure (10
   meaningful words), and ground rules overwhelmingly share body
   prefixes — at buildcache scale, hundreds of thousands of instances
   land in a handful of buckets and dedup turns quadratic. Mixing every
   atom id keeps the chains at O(1). *)
module Rule_key_tbl = Hashtbl.Make (struct
  type t = ghead * atom_id list * atom_id list

  let hash_ids = List.fold_left (fun h id -> (h * 31) + id + 1)

  let hash_head = function
    | Gconstraint -> 0
    | Gatom id -> (id * 2) + 1
    | Gchoice { lo; hi; gelems } ->
      let b = function None -> -2 | Some v -> v in
      hash_ids ((((b lo * 31) + b hi) * 31) + 7) gelems

  let equal (h1, p1, n1) (h2, p2, n2) =
    List.equal Int.equal p1 p2 && List.equal Int.equal n1 n2
    &&
    match (h1, h2) with
    | Gconstraint, Gconstraint -> true
    | Gatom a, Gatom b -> a = b
    | Gchoice c1, Gchoice c2 ->
      c1.lo = c2.lo && c1.hi = c2.hi && List.equal Int.equal c1.gelems c2.gelems
    | _ -> false

  let hash (h, p, n) = hash_ids (hash_ids (hash_head h) p * 17) n land max_int
end)

(* Every table is sized from what it indexes — here from the atom
   count, in [simplify] from the atom or the rule count — so a small
   request does not allocate tables sized for the largest pool. *)
let phase2 st prog =
  let grules = ref [] in
  let gmins = ref [] in
  let seen_rules = Rule_key_tbl.create st.count in
  let em =
    { em_intern = (fun a ~possible -> fst (intern st a ~possible));
      em_rule =
        (fun r ->
          let key = rule_key r in
          if not (Rule_key_tbl.mem seen_rules key) then begin
            Rule_key_tbl.add seen_rules key ();
            grules := r :: !grules
          end);
      em_min = (fun m -> gmins := m :: !gmins);
      em_tally = None }
  in
  List.iter (ground_stmt st em) prog;
  (List.rev !grules, List.rev !gmins)

(* Parallel phase 2: statements are partitioned round-robin across
   domains. The store is frozen during the workers' joins — phase 1
   over-approximated every derivable head, so workers only ever look
   atoms up; genuinely new atoms (negative literals over underivable
   subjects) go to a per-worker overlay with private ids. A serial
   merge in statement order re-interns overlay atoms in first-use
   order and re-applies the duplicate-rule filter, which makes the
   result — ids, rule order, everything — byte-identical to the serial
   grounding for any number of jobs. *)
type remit = Rrule of grule | Rmin of gmin

let phase2_par st prog jobs =
  let stmts = Array.of_list prog in
  let n = Array.length stmts in
  let base_n = st.count in
  let outs = Array.make n [] in
  let errs = Array.make n None in
  let ov_atoms = Array.make jobs [||] in
  let ov_poss = Array.make jobs (Hashtbl.create 0) in
  let tallies = Array.init jobs (fun _ -> { t_hits = 0; t_misses = 0 }) in
  let work d =
    let local_tbl = Ast.Atom_tbl.create 256 in
    let local_poss = Hashtbl.create 16 in
    let local_atoms = ref [] in
    let local_count = ref 0 in
    let ov_intern (a : Ast.atom) ~possible =
      match Ast.Atom_tbl.find_opt st.tbl a with
      | Some id ->
        if possible && Bytes.get st.possible id = '\000' then
          Hashtbl.replace local_poss id ();
        id
      | None -> (
        match Ast.Atom_tbl.find_opt local_tbl a with
        | Some id ->
          if possible then Hashtbl.replace local_poss id ();
          id
        | None ->
          let id = base_n + !local_count in
          incr local_count;
          Ast.Atom_tbl.add local_tbl a id;
          local_atoms := a :: !local_atoms;
          if possible then Hashtbl.replace local_poss id ();
          id)
    in
    let si = ref d in
    while !si < n do
      let acc = ref [] in
      let em =
        { em_intern = ov_intern;
          em_rule = (fun r -> acc := Rrule r :: !acc);
          em_min = (fun m -> acc := Rmin m :: !acc);
          em_tally = Some tallies.(d) }
      in
      (try ground_stmt st em stmts.(!si) with e -> errs.(!si) <- Some e);
      outs.(!si) <- List.rev !acc;
      si := !si + jobs
    done;
    ov_atoms.(d) <- Array.of_list (List.rev !local_atoms);
    ov_poss.(d) <- local_poss
  in
  let doms = List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> work (k + 1))) in
  work 0;
  List.iter Domain.join doms;
  (* Deterministic merge in statement order. *)
  let remaps = Array.init jobs (fun d -> Array.make (Array.length ov_atoms.(d)) (-1)) in
  let grules = ref [] in
  let gmins = ref [] in
  let seen_rules =
    Rule_key_tbl.create (Array.fold_left (fun n out -> n + List.length out) 0 outs)
  in
  for si = 0 to n - 1 do
    (match errs.(si) with Some e -> raise e | None -> ());
    let d = si mod jobs in
    let remap id =
      if id < base_n then id
      else begin
        let k = id - base_n in
        if remaps.(d).(k) >= 0 then remaps.(d).(k)
        else begin
          let possible = Hashtbl.mem ov_poss.(d) id in
          let gid = fst (intern st ov_atoms.(d).(k) ~possible) in
          remaps.(d).(k) <- gid;
          gid
        end
      end
    in
    List.iter
      (function
        | Rrule r ->
          let ghead =
            match r.ghead with
            | Gatom id -> Gatom (remap id)
            | Gchoice { lo; hi; gelems } ->
              Gchoice { lo; hi; gelems = List.map remap gelems }
            | Gconstraint -> Gconstraint
          in
          let r =
            { ghead; gpos = List.map remap r.gpos; gneg = List.map remap r.gneg }
          in
          let key = rule_key r in
          if not (Rule_key_tbl.mem seen_rules key) then begin
            Rule_key_tbl.add seen_rules key ();
            grules := r :: !grules
          end
        | Rmin m ->
          gmins :=
            { m with
              gcond_pos = List.map remap m.gcond_pos;
              gcond_neg = List.map remap m.gcond_neg }
            :: !gmins)
      outs.(si)
  done;
  (* Shared atoms a worker wanted promoted to possible (defensive: a
     phase-1-complete program never hits this). *)
  Array.iter
    (fun poss ->
      Hashtbl.iter (fun id () -> if id < base_n then Bytes.set st.possible id '\001') poss)
    ov_poss;
  Array.iter
    (fun t ->
      st.st_tally.t_hits <- st.st_tally.t_hits + t.t_hits;
      st.st_tally.t_misses <- st.st_tally.t_misses + t.t_misses)
    tallies;
  (List.rev !grules, List.rev !gmins)

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
  (* 3. rewrite: certain atoms become facts, in atom-id order *)
  let out = ref [] in
  let seen = Rule_key_tbl.create (List.length grules) in
  let emit r =
    let key = (r.ghead, r.gpos, r.gneg) in
    if not (Rule_key_tbl.mem seen key) then begin
      Rule_key_tbl.add seen key ();
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

let ground ?(obs = Obs.disabled) ?(jobs = 1) prog =
  (match Ast.check_safety prog with
  | Ok () -> ()
  | Error e -> invalid_arg ("grounder: " ^ e));
  (* Most statements are facts, one atom each: the statement count is
     a cheap estimate of the atom count. *)
  let st = store_create (max 64 (List.length prog)) in
  let iters =
    Obs.with_span obs ~cat:"ground" "ground.phase1" (fun sp ->
        let iters = phase1 st prog in
        Obs.set_attr sp "fixpoint_iters" (Obs.I iters);
        Obs.set_attr sp "possible_atoms" (Obs.I st.count);
        iters)
  in
  let grules, gmins =
    Obs.with_span obs ~cat:"ground" "ground.phase2" (fun sp ->
        let grules, gmins =
          if jobs <= 1 then phase2 st prog else phase2_par st prog jobs
        in
        Obs.set_attr sp "rules" (Obs.I (List.length grules));
        Obs.set_attr sp "jobs" (Obs.I (max 1 jobs));
        (grules, gmins))
  in
  let pre_simplify = List.length grules in
  let grules, gmins =
    Obs.with_span obs ~cat:"ground" "ground.simplify" (fun sp ->
        let grules, gmins = simplify st grules gmins in
        Obs.set_attr sp "rules_in" (Obs.I pre_simplify);
        Obs.set_attr sp "rules_out" (Obs.I (List.length grules));
        (grules, gmins))
  in
  Obs.incr obs ~by:(List.length grules) "ground.rules";
  Obs.incr obs ~by:iters "ground.fixpoint_iters";
  Obs.incr obs ~by:st.st_tally.t_hits "ground.index_hits";
  Obs.incr obs ~by:st.st_tally.t_misses "ground.index_misses";
  Obs.gauge obs "ground.atoms" st.count;
  { st; grules; gmins; gmin_priorities = declared_priorities prog }

let rules t = t.grules

let minimizes t = t.gmins

let minimize_priorities t = t.gmin_priorities

let atom_count t = t.st.count

let index_hits t = t.st.st_tally.t_hits

let index_misses t = t.st.st_tally.t_misses

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
