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

(* ---- compiled statements and the atom store ------------------------ *)

(* Ground terms as hash keys: interned constants make equality a
   pointer comparison in the common case. *)
module Term_tbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

module Pred_tbl = Hashtbl.Make (struct
  type t = string * int

  let equal (p1, a1) (p2, a2) = a1 = a2 && (p1 == p2 || String.equal p1 p2)
  let hash (p, a) = (Term.hash_string p + a) land max_int
end)

(* A posting list with its length cached, so join seeding can compare
   the selectivity of several candidate indexes without walking them. *)
type posting = { mutable p_ids : atom_id list; mutable p_n : int }

(* A term of a statement, with its variables numbered: [Slot i] is the
   statement's [i]-th variable. *)
type cterm = Const of Term.t | Slot of int | Fn of string * cterm list

(* The grounder's record of one predicate (name and arity): its atoms,
   newest first, a posting table per argument position ([||] until the
   first atom), and the phase-1 triggers of the body literals over it,
   the base's apart from the request's (see {!base}). Compiled atoms
   point at their predicate's record, so no join, intern or trigger
   lookup hashes a predicate name. *)
type pred_index = {
  mutable all : atom_id list;
  mutable by_arg : posting Term_tbl.t array;
  mutable base_triggers : trigger list;  (* fixed once the base is prepared *)
  mutable triggers : trigger list;  (* the request's; newer statements first *)
}

and catom = {
  src : Ast.atom;  (* as written: interned as is when ground *)
  cground : bool;
  cargs : cterm list;
  pi : pred_index;
}

and clit = Cpos of catom | Cneg of catom | Ccmp of Ast.cmp_op * cterm * cterm

(* Phase 1's view of a rule. Each normal rule derives its head; each
   element of a choice rule derives its atom under the rule's body and
   its own condition, and emits nothing (the choice rule waits for the
   final pass). [pstmt] is the index of the statement it came from. *)
and pseudo = { phead : catom; pbody : clit list; pemit : bool; pstmt : int; penv : env }

(* A phase-1 trigger: when an atom matching [tr_seed] appears, the
   pseudo-rule re-fires with the join seeded there and run over the
   rest of its body. [tr_rank] is the seed's place among the positive
   literals, where its id goes back into the ground body. *)
and trigger = { tr_rule : pseudo; tr_seed : catom; tr_rank : int; tr_rest : clit list }

(* A statement's substitution: one slot per variable, bound by the join
   and unbound again on backtracking, newest binding last on [trail]. *)
and env = { slots : Term.t array; trail : int array; mutable top : int }

(* A [#minimize] element; each has its own variables. *)
type cmin = {
  mweight : cterm;
  mpriority : int;
  mterms : cterm list;
  mcond : clit list;
  menv : env;
}

(* A compiled statement, made once by {!prepare} for a base's
   statements and once per [ground] call for the request's. *)
type cstmt =
  | C_fact of Ast.atom * pred_index  (* ground and body-less: no join *)
  | C_rule of pseudo  (* a normal rule *)
  | C_constraint of clit list * env
  | C_choice of {
      lo : int option;
      hi : int option;
      elems : (catom * clit list) list;
      body : clit list;
      env : env;
      pseudos : pseudo list;  (* one per element, for phase 1 *)
    }
  | C_minimize of cmin list

(* Interned atom store, one per [ground] call. Atoms interned with
   [~possible:true] can be true in some model; atoms interned only
   through negative literals (whose subject is never derivable) are
   constant false. *)
type store = {
  tbl : atom_id Ast.Atom_tbl.t;
  mutable arr : Ast.atom array;
  mutable preds : pred_index array;  (* per atom: its predicate *)
  mutable possible : Bytes.t;
  mutable count : int;
  mutable fresh : bool;  (* the last [intern] newly marked its atom possible *)
  mutable hits : int;  (** joins seeded through an argument index *)
  mutable misses : int;  (** joins that scanned the whole predicate *)
}

let no_atom = { Ast.pred = ""; args = [] }

let new_pred () = { all = []; by_arg = [||]; base_triggers = []; triggers = [] }

let no_pred = new_pred ()

(* [n] is the expected atom count; the arrays double past it. *)
let store_create n =
  { tbl = Ast.Atom_tbl.create n;
    arr = Array.make n no_atom;
    preds = Array.make n no_pred;
    possible = Bytes.make n '\000';
    count = 0;
    fresh = false;
    hits = 0;
    misses = 0 }

let store_grow st =
  let n = Array.length st.arr in
  if st.count >= n then begin
    let arr = Array.make (2 * n) no_atom in
    Array.blit st.arr 0 arr 0 st.count;
    st.arr <- arr;
    let preds = Array.make (2 * n) no_pred in
    Array.blit st.preds 0 preds 0 st.count;
    st.preds <- preds;
    let possible = Bytes.make (2 * n) '\000' in
    Bytes.blit st.possible 0 possible 0 st.count;
    st.possible <- possible
  end

(* Where compiling finds a predicate's record: in the base's table,
   else in the table of the statements being compiled, which gains it
   on first sight. A request's own predicates never enter the base. *)
type scope = { shared : pred_index Pred_tbl.t; own : pred_index Pred_tbl.t }

let pred_index sc pred arity =
  match Pred_tbl.find_opt sc.shared (pred, arity) with
  | Some pi -> pi
  | None -> (
    match Pred_tbl.find_opt sc.own (pred, arity) with
    | Some pi -> pi
    | None ->
      let pi = new_pred () in
      Pred_tbl.add sc.own (pred, arity) pi;
      pi)

let push_posting tbl key id =
  match Term_tbl.find tbl key with
  | p ->
    p.p_ids <- id :: p.p_ids;
    p.p_n <- p.p_n + 1
  | exception Not_found -> Term_tbl.add tbl key { p_ids = [ id ]; p_n = 1 }

(* The atom's id; [st.fresh] tells whether this call marked it
   possible. [pi] is the atom's predicate record. *)
let intern st pi (a : Ast.atom) ~possible =
  match Ast.Atom_tbl.find st.tbl a with
  | id ->
    st.fresh <- possible && Bytes.get st.possible id = '\000';
    if st.fresh then Bytes.set st.possible id '\001';
    id
  | exception Not_found ->
    store_grow st;
    let id = st.count in
    st.count <- id + 1;
    Ast.Atom_tbl.add st.tbl a id;
    st.arr.(id) <- a;
    st.preds.(id) <- pi;
    if possible then Bytes.set st.possible id '\001';
    st.fresh <- possible;
    pi.all <- id :: pi.all;
    if a.Ast.args <> [] then begin
      if Array.length pi.by_arg = 0 then
        pi.by_arg <- Array.init (List.length a.Ast.args) (fun _ -> Term_tbl.create 8);
      List.iteri (fun i arg -> push_posting pi.by_arg.(i) arg id) a.Ast.args
    end;
    id

(* ---- substitutions -------------------------------------------------- *)

(* The value of an unbound slot; compared by physical equality. *)
let unbound = Term.Var "_unbound"

let env_create n = { slots = Array.make n unbound; trail = Array.make n 0; top = 0 }

let bind env i t =
  env.slots.(i) <- t;
  env.trail.(env.top) <- i;
  env.top <- env.top + 1

(* Unbind every slot bound since the trail stood at [mark]. *)
let undo env mark =
  while env.top > mark do
    env.top <- env.top - 1;
    env.slots.(env.trail.(env.top)) <- unbound
  done

let rec is_bound env = function
  | Const _ -> true
  | Slot i -> env.slots.(i) != unbound
  | Fn (_, args) -> all_bound env args

and all_bound env = function [] -> true | c :: cs -> is_bound env c && all_bound env cs

(* The ground term under the current bindings; every variable must be
   bound ({!Ast.check_safety} sees to it). *)
let rec inst env = function
  | Const t -> t
  | Slot i ->
    let t = env.slots.(i) in
    if t == unbound then invalid_arg "grounder: unbound variable (unsafe rule)";
    t
  | Fn (f, args) -> Term.App (f, inst_list env args)

and inst_list env = function [] -> [] | c :: cs -> inst env c :: inst_list env cs

let inst_atom env a =
  if a.cground then a.src else { Ast.pred = a.src.Ast.pred; args = inst_list env a.cargs }

(* One-way matching of a compiled pattern against a ground term,
   binding the pattern's unbound slots. On [false] the caller undoes
   the partial bindings. *)
let rec unify env c t =
  match c with
  | Const k -> Term.equal k t
  | Slot i ->
    let b = env.slots.(i) in
    if b == unbound then begin
      bind env i t;
      true
    end
    else Term.equal b t
  | Fn (f, cs) -> (
    match t with
    | Term.App (g, ts) -> (f == g || String.equal f g) && unify_list env cs ts
    | _ -> false)

and unify_list env cs ts =
  match (cs, ts) with
  | [], [] -> true
  | c :: cs, t :: ts -> unify env c t && unify_list env cs ts
  | _ -> false

(* ---- compiling a statement ------------------------------------------ *)

(* Numbers the variables of one scope as they are met. *)
let slot_of vars v =
  match List.assoc_opt v !vars with
  | Some i -> i
  | None ->
    let i = List.length !vars in
    vars := (v, i) :: !vars;
    i

let rec compile_term vars t =
  if Term.is_ground t then Const t
  else
    match t with
    | Term.Var v -> Slot (slot_of vars v)
    | Term.App (f, args) -> Fn (f, List.map (compile_term vars) args)
    | Term.Int _ | Term.Sym _ | Term.Str _ -> Const t

let compile_atom sc vars (a : Ast.atom) =
  { src = a;
    cground = List.for_all Term.is_ground a.Ast.args;
    cargs = List.map (compile_term vars) a.Ast.args;
    pi = pred_index sc a.Ast.pred (List.length a.Ast.args) }

let compile_body sc vars =
  List.map (function
    | Ast.Pos a -> Cpos (compile_atom sc vars a)
    | Ast.Neg a -> Cneg (compile_atom sc vars a)
    | Ast.Cmp (op, l, r) -> Ccmp (op, compile_term vars l, compile_term vars r))

let compile sc pstmt = function
  | Ast.Rule { head = Ast.Head_atom h; body = [] }
    when List.for_all Term.is_ground h.Ast.args ->
    C_fact (h, pred_index sc h.Ast.pred (List.length h.Ast.args))
  | Ast.Rule { head = Ast.Head_atom h; body } ->
    let vars = ref [] in
    let pbody = compile_body sc vars body in
    let phead = compile_atom sc vars h in
    let penv = env_create (List.length !vars) in
    C_rule { phead; pbody; pemit = true; pstmt; penv }
  | Ast.Rule { head = Ast.Head_none; body } ->
    let vars = ref [] in
    let body = compile_body sc vars body in
    C_constraint (body, env_create (List.length !vars))
  | Ast.Rule { head = Ast.Head_choice { lo; hi; elems }; body } ->
    (* the body and every element share one scope: a variable of an
       element that also occurs in the body is the body's *)
    let vars = ref [] in
    let body = compile_body sc vars body in
    let elems =
      List.map
        (fun (e : Ast.choice_elem) ->
          let cond = compile_body sc vars e.cond in
          (compile_atom sc vars e.elem, cond))
        elems
    in
    let env = env_create (List.length !vars) in
    let pseudos =
      List.map
        (fun (phead, cond) ->
          { phead; pbody = body @ cond; pemit = false; pstmt; penv = env })
        elems
    in
    C_choice { lo; hi; elems; body; env; pseudos }
  | Ast.Minimize elems ->
    C_minimize
      (List.map
         (fun (e : Ast.min_elem) ->
           let vars = ref [] in
           let mcond = compile_body sc vars e.mcond in
           let mweight = compile_term vars e.weight in
           let mterms = List.map (compile_term vars) e.terms in
           let menv = env_create (List.length !vars) in
           { mweight; mpriority = e.priority; mterms; mcond; menv })
         elems)

(* ---- joins ----------------------------------------------------------- *)

(* Candidate atoms possibly matching a pattern under the current
   bindings: seed from the most selective {e bound} argument — the one
   whose posting list is shortest. Position alone is a poor guide:
   patterns like [attr("hash", node(P), H)] are ground at position 0,
   but that posting list holds every hash attribute in the store, while
   [node(P)] at position 1 narrows to one package. Every posting list
   is in descending atom-id order, so the surviving matches enumerate
   in the same order whichever index seeds the join. *)
let no_posting = { p_ids = []; p_n = max_int }

let rec scan st env pi i best = function
  | [] ->
    if best == no_posting then begin
      st.misses <- st.misses + 1;
      pi.all
    end
    else begin
      st.hits <- st.hits + 1;
      best.p_ids
    end
  | c :: rest ->
    if not (is_bound env c) then scan st env pi (i + 1) best rest
    else if Array.length pi.by_arg = 0 then begin
      (* no stored atom has this term here: nothing can match *)
      st.hits <- st.hits + 1;
      []
    end
    else (
      match Term_tbl.find pi.by_arg.(i) (inst env c) with
      | p -> scan st env pi (i + 1) (if p.p_n < best.p_n then p else best) rest
      | exception Not_found ->
        st.hits <- st.hits + 1;
        [])

let candidates st env (a : catom) = scan st env a.pi 0 no_posting a.cargs

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

type cmp_outcome = Holds | Fails | Waits

(* One comparison under the current bindings: tested when both sides
   are bound, [V = t] with [t] bound binds [V] (the caller undoes it),
   and anything else must wait. *)
let eval_cmp env op l r =
  match (is_bound env l, is_bound env r) with
  | true, true -> if term_cmp_value op (inst env l) (inst env r) then Holds else Fails
  | false, true when op = Ast.Eq -> (
    match l with
    | Slot i ->
      bind env i (inst env r);
      Holds
    | _ -> Waits)
  | true, false when op = Ast.Eq -> (
    match r with
    | Slot i ->
      bind env i (inst env l);
      Holds
    | _ -> Waits)
  | _ -> Waits

(* The comparisons still waiting at the end of a body. A binding one
   can ground another, so passes repeat while the list shrinks; [k]
   runs once all hold. *)
let rec settle env delayed k =
  let rec pass waiting = function
    | [] -> Some waiting
    | ((op, l, r) as c) :: rest -> (
      match eval_cmp env op l r with
      | Holds -> pass waiting rest
      | Fails -> None
      | Waits -> pass (c :: waiting) rest)
  in
  match pass [] delayed with
  | None -> ()
  | Some [] -> k ()
  | Some waiting ->
    if List.compare_lengths waiting delayed < 0 then settle env waiting k
    else raise Stuck_cmp

(* Enumerate every extension of [env]'s bindings that satisfies the
   positive literals and comparisons of [lits]; [k] runs under each,
   with the ids of the atoms its positive literals matched, in literal
   order. Positive literals join against the possible atoms;
   comparisons are evaluated as soon as they can be ({!eval_cmp}), the
   rest by {!settle} at the end of the body. Negative literals are
   skipped: the caller instantiates them under the finished bindings
   ({!ground_negs}). [env] is left as it was found. *)
let join st env lits ~k =
  let rec go lits delayed ids =
    match lits with
    | [] ->
      let mark = env.top in
      (match delayed with
      | [] -> k (List.rev ids)
      | _ -> settle env delayed (fun () -> k (List.rev ids)));
      undo env mark
    | Cpos a :: rest -> each a rest delayed ids (candidates st env a)
    | Ccmp (op, l, r) :: rest ->
      let mark = env.top in
      (match eval_cmp env op l r with
      | Holds -> go rest delayed ids
      | Fails -> ()
      | Waits -> go rest ((op, l, r) :: delayed) ids);
      undo env mark
    | Cneg _ :: rest -> go rest delayed ids
  and each a rest delayed ids = function
    | [] -> ()
    | id :: more ->
      if Bytes.get st.possible id = '\001' then begin
        let mark = env.top in
        if unify_list env a.cargs st.arr.(id).Ast.args then go rest delayed (id :: ids);
        undo env mark
      end;
      each a rest delayed ids more
  in
  go lits [] []

(* The negative literals of [body] under the current bindings,
   interned in literal order. *)
let rec ground_negs st env = function
  | [] -> []
  | Cneg a :: rest ->
    let id = intern st a.pi (inst_atom env a) ~possible:false in
    id :: ground_negs st env rest
  | (Cpos _ | Ccmp _) :: rest -> ground_negs st env rest

(* The ground program. It keeps the atoms and their bits, not the
   store's table and indexes, so those die with the [ground] call. *)
type t = {
  atoms : Ast.atom array;  (* by id; slots from [count] on are unused *)
  count : int;
  possible : Bytes.t;  (* per atom: '\001' iff some model may hold it *)
  certain : Bytes.t;  (* per atom: '\001' iff it is a fact of [grules] *)
  hits : int;
  misses : int;
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

(* Index triggers by the predicates of their positive body literals,
   so a new atom only retriggers relevant rules. A base's statements
   file theirs under [base_triggers], a request's under [triggers]. *)
let add_triggers ~base p =
  ignore
    (List.fold_left
       (fun (li, rank) lit ->
         match lit with
         | Cpos a ->
           let tr =
             { tr_rule = p;
               tr_seed = a;
               tr_rank = rank;
               tr_rest = List.filteri (fun i _ -> i <> li) p.pbody }
           in
           if base then a.pi.base_triggers <- tr :: a.pi.base_triggers
           else a.pi.triggers <- tr :: a.pi.triggers;
           (li + 1, rank + 1)
         | Cneg _ | Ccmp _ -> (li + 1, rank))
       (0, 0) p.pbody)

let rec insert_at rank id ids =
  if rank = 0 then id :: ids
  else
    match ids with x :: rest -> x :: insert_at (rank - 1) id rest | [] -> [ id ]

let pseudos_of = function
  | C_rule p -> [ p ]
  | C_choice { pseudos; _ } -> pseudos
  | C_fact _ | C_constraint _ | C_minimize _ -> []

let iter_envs f = function
  | C_fact _ -> ()
  | C_rule p -> f p.penv
  | C_constraint (_, env) | C_choice { env; _ } -> f env
  | C_minimize ms -> List.iter (fun m -> f m.menv) ms

(* A program prefix compiled once: its statements in order, its
   predicates' records with the phase-1 triggers of its rules, and its
   declared [#minimize] priorities. [ground] mutates the records and
   the statements' substitutions while it runs, so a base serves one
   domain; between calls it holds no atom, posting, request trigger or
   binding ({!reset}). *)
type base = {
  bstmts : cstmt list;
  blen : int;
  bpreds : pred_index Pred_tbl.t;
  bpriorities : int list;
}

(* Clear what a [ground] call left on the base, even one that raised. *)
let reset base =
  Pred_tbl.iter
    (fun _ pi ->
      pi.all <- [];
      pi.by_arg <- [||];
      pi.triggers <- [])
    base.bpreds;
  List.iter (iter_envs (fun env -> undo env 0)) base.bstmts

(* [f i cs] over the base's statements, then the request's, [i] being
   the statement's index in the program the two make together. *)
let iter_stmts base cstmts f =
  List.iteri f base.bstmts;
  List.iteri (fun i cs -> f (base.blen + i) cs) cstmts

(* Phase 1: the possible-atom fixpoint, emitting normal rules as it
   goes. A normal rule's body instance is complete when the last of its
   positive atoms is popped: the join seeded there sees every other
   body atom as possible. Earlier pops of its other atoms may find the
   same instance; [simplify] drops the repeats. *)
let phase1 st base cstmts ~emit =
  List.iter (fun cs -> List.iter (add_triggers ~base:false) (pseudos_of cs)) cstmts;
  let queue = Queue.create () in
  (* [rank] < 0: no seed atom *)
  let fire p lits rank seed =
    try
      join st p.penv lits ~k:(fun ids ->
          let hid = intern st p.phead.pi (inst_atom p.penv p.phead) ~possible:true in
          if st.fresh then Queue.add hid queue;
          if p.pemit then
            let gpos = if rank >= 0 then insert_at rank seed ids else ids in
            let gneg = ground_negs st p.penv p.pbody in
            emit p.pstmt { ghead = Gatom hid; gpos; gneg })
    with Stuck_cmp ->
      invalid_arg "grounder: comparison with unbound variables (unsafe rule)"
  in
  (* Seed: facts are interned outright; other rules with no positive
     body literal fire immediately. *)
  iter_stmts base cstmts (fun i -> function
    | C_fact (a, pi) ->
      let hid = intern st pi a ~possible:true in
      if st.fresh then Queue.add hid queue;
      emit i { ghead = Gatom hid; gpos = []; gneg = [] }
    | cs ->
      List.iter
        (fun p ->
          if not (List.exists (function Cpos _ -> true | _ -> false) p.pbody) then
            fire p p.pbody (-1) (-1))
        (pseudos_of cs));
  (* Delta loop: for each new atom, re-evaluate rules triggered through
     the matching body position, seeding the join there: the request's
     triggers, then the base's, the order a single program's list of
     triggers would have. *)
  let rec retrigger id args = function
    | [] -> ()
    | tr :: more ->
      let env = tr.tr_rule.penv in
      if unify_list env tr.tr_seed.cargs args then fire tr.tr_rule tr.tr_rest tr.tr_rank id;
      undo env 0;
      retrigger id args more
  in
  let iters = ref 0 in
  while not (Queue.is_empty queue) do
    incr iters;
    let id = Queue.pop queue in
    let args = st.arr.(id).Ast.args and pi = st.preds.(id) in
    retrigger id args pi.triggers;
    retrigger id args pi.base_triggers
  done;
  !iters

let choice_elems st env elems =
  let gelems = ref [] in
  List.iter
    (fun (elem, cond) ->
      join st env cond ~k:(fun _ ->
          let id = intern st elem.pi (inst_atom env elem) ~possible:true in
          if not (List.mem id !gelems) then gelems := id :: !gelems))
    elems;
  List.rev !gelems

(* A [#minimize] instance. Its key is the rendered tuple
   [w@p|t1,...,tn]: instances with equal keys count once. *)
let ground_min buf m pos neg =
  let w =
    match inst m.menv m.mweight with
    | Term.Int n -> n
    | t -> invalid_arg (Format.asprintf "minimize weight is not an integer: %a" Term.pp t)
  in
  Buffer.clear buf;
  Buffer.add_string buf (string_of_int w);
  Buffer.add_char buf '@';
  Buffer.add_string buf (string_of_int m.mpriority);
  Buffer.add_char buf '|';
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Term.add_to_buffer buf (inst m.menv c))
    m.mterms;
  { gweight = w;
    gpriority = m.mpriority;
    gkey = Buffer.contents buf;
    gcond_pos = pos;
    gcond_neg = neg }

(* The final pass, over the fixed atom set: choice rules, whose element
   lists need every possible atom, and the statements that derive no
   atom — constraints and #minimize — which a seeded join would find
   once per positive literal. Each is joined once. *)
let final_pass st base cstmts ~emit =
  let gmins = ref [] and buf = Buffer.create 64 in
  let body_instances env body k =
    try join st env body ~k:(fun pos -> k pos (ground_negs st env body))
    with Stuck_cmp -> invalid_arg "grounder: unsafe comparison"
  in
  iter_stmts base cstmts (fun i -> function
    | C_fact _ | C_rule _ -> ()
    | C_constraint (body, env) ->
      body_instances env body (fun gpos gneg -> emit i { ghead = Gconstraint; gpos; gneg })
    | C_choice { lo; hi; elems; body; env; _ } ->
      body_instances env body (fun gpos gneg ->
          let gelems = choice_elems st env elems in
          emit i { ghead = Gchoice { lo; hi; gelems }; gpos; gneg })
    | C_minimize ms ->
      List.iter
        (fun m ->
          body_instances m.menv m.mcond (fun pos neg ->
              gmins := ground_min buf m pos neg :: !gmins))
        ms);
  List.rev !gmins

(* Fact propagation (what clingo's grounder does): atoms that are
   certainly true — derivable through rules with no remaining negative
   or undecided positive subgoals — become facts; their occurrences in
   bodies are simplified away, rules that can no longer fire are
   dropped, and rules whose head is a fact disappear. The hash_attr
   recovery rules of 5.3 compile to pure copies of facts, so this pass
   is what keeps the new encoding's overhead at clingo-like levels. *)
let simplify (st : store) grules gmins =
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
  (* 2. least fixpoint of certain atoms over negation-free atom rules,
     the sources; the [i]-th has head [heads.(i)] and [counts.(i)]
     positive subgoals not yet certain *)
  let certain = Bytes.make st.count '\000' in
  let is_certain id = Bytes.get certain id = '\001' in
  let is_source r = match r.ghead with Gatom _ -> r.gneg = [] | _ -> false in
  let n = List.fold_left (fun n r -> if is_source r then n + 1 else n) 0 grules in
  let heads = Array.make n 0 and counts = Array.make n 0 in
  let by_atom = Array.make st.count [] in
  let i = ref 0 in
  List.iter
    (fun r ->
      match r.ghead with
      | Gatom h when r.gneg = [] ->
        heads.(!i) <- h;
        counts.(!i) <- List.length r.gpos;
        List.iter (fun id -> by_atom.(id) <- !i :: by_atom.(id)) r.gpos;
        incr i
      | _ -> ())
    grules;
  let queue = Queue.create () in
  let derive id =
    if not (is_certain id) then begin
      Bytes.set certain id '\001';
      Queue.add id queue
    end
  in
  Array.iteri (fun i c -> if c = 0 then derive heads.(i)) counts;
  while not (Queue.is_empty queue) do
    List.iter
      (fun i ->
        counts.(i) <- counts.(i) - 1;
        if counts.(i) = 0 then derive heads.(i))
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
  (certain, List.rev !out, gmins)

let declared_priorities prog =
  List.concat_map
    (function
      | Ast.Minimize elems ->
        List.map (fun (e : Ast.min_elem) -> e.Ast.priority) elems
      | _ -> [])
    prog
  |> List.sort_uniq Int.compare

let check ?first prog =
  match Ast.check_safety ?first prog with
  | Ok () -> ()
  | Error e -> invalid_arg ("grounder: " ^ e)

(* The base of a program grounded on its own: no statement, and an
   empty predicate table that is only ever read, so every domain can
   share it. *)
let no_base = { bstmts = []; blen = 0; bpreds = Pred_tbl.create 1; bpriorities = [] }

let prepare prog =
  check prog;
  let sc = { shared = no_base.bpreds; own = Pred_tbl.create 64 } in
  let bstmts = List.mapi (compile sc) prog in
  List.iter (fun cs -> List.iter (add_triggers ~base:true) (pseudos_of cs)) bstmts;
  { bstmts; blen = List.length prog; bpreds = sc.own; bpriorities = declared_priorities prog }

let ground_with obs base prog =
  let nb = base.blen in
  (* Most statements are facts, one atom each: the statement count is
     a cheap estimate of the atom count. *)
  let nstmts = nb + List.length prog in
  let st = store_create (max 64 nstmts) in
  let sc = { shared = base.bpreds; own = Pred_tbl.create 16 } in
  let cstmts = List.mapi (fun i -> compile sc (nb + i)) prog in
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
        let iters = phase1 st base cstmts ~emit in
        Obs.set_attr sp "fixpoint_iters" (Obs.I iters);
        Obs.set_attr sp "possible_atoms" (Obs.I st.count);
        Obs.set_attr sp "rules" (Obs.I !emitted);
        iters)
  in
  let gmins =
    Obs.with_span obs ~cat:"ground" "ground.final" (fun sp ->
        let before = !emitted in
        let gmins = final_pass st base cstmts ~emit in
        Obs.set_attr sp "rules" (Obs.I (!emitted - before));
        gmins)
  in
  let pre_simplify = !emitted in
  let grules = Array.fold_right (fun rs acc -> List.rev_append rs acc) by_stmt [] in
  let certain, grules, gmins =
    Obs.with_span obs ~cat:"ground" "ground.simplify" (fun sp ->
        let ((_, grules, _) as out) = simplify st grules gmins in
        Obs.set_attr sp "rules_in" (Obs.I pre_simplify);
        Obs.set_attr sp "rules_out" (Obs.I (List.length grules));
        out)
  in
  Obs.incr obs ~by:(List.length grules) "ground.rules";
  Obs.incr obs ~by:iters "ground.fixpoint_iters";
  Obs.incr obs ~by:st.hits "ground.index_hits";
  Obs.incr obs ~by:st.misses "ground.index_misses";
  Obs.gauge obs "ground.atoms" st.count;
  let gmin_priorities =
    List.sort_uniq Int.compare (base.bpriorities @ declared_priorities prog)
  in
  { atoms = st.arr;
    count = st.count;
    possible = st.possible;
    certain;
    hits = st.hits;
    misses = st.misses;
    grules;
    gmins;
    gmin_priorities }

let ground ?(obs = Obs.disabled) ?jobs:_ ?base prog =
  match base with
  | None ->
    check prog;
    ground_with obs no_base prog
  | Some base -> (
    check ~first:base.blen prog;
    reset base;
    match ground_with obs base prog with
    | t ->
      reset base;
      t
    | exception e ->
      reset base;
      raise e)

let rules t = t.grules

let minimizes t = t.gmins

let minimize_priorities t = t.gmin_priorities

let atom_count t = t.count

let index_hits t = t.hits

let index_misses t = t.misses

let possible t id = Bytes.get t.possible id = '\001'

let fact t id = Bytes.get t.certain id = '\001'

let atom_of_id t id = t.atoms.(id)

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
