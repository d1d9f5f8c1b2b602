(* Glucose-class CDCL core. Its data structures and policies:

   - clauses of size >= 3 live in a flat growable int array (the
     arena); a clause reference ([cref]) is the index of its header.
     Header layout (3 words, literals follow):
       word0 = (size lsl 3) lor flags   flags: bit0 learnt,
                                               bit1 deleted,
                                               bit2 relocated (GC)
       word1 = LBD (learnt) / 0         or forward cref during GC
       word2 = touch stamp              conflict count at last use;
                                        an integer recency score, so
                                        "clause activity" never needs
                                        a rescale walk
   - watch lists are flat int vectors of (blocker, payload) pairs.
     A satisfied blocker skips the clause without touching the arena.
     payload = cref lsl 1 for arena clauses, or
               (otherlit lsl 1) lor 1 for an inline binary clause
     (2-clauses never enter the arena at all).
   - reasons are ints: -2 none, -1 decision, -3 PB (the implying PB
     in [pb_src]; conflict analysis rebuilds the explanation from the
     trail positions in [tpos]), even = arena cref * 2, odd = binary
     other-lit * 2+1.
   - learnt-clause quality is literal block distance (LBD), computed
     at learn time and refreshed when a learnt clause is reused in
     conflict analysis. LBD drives glucose-style EMA restarts and
     tiered DB reduction: glue (lbd <= 2) is kept forever, the rest
     ranked (lbd desc, stamp asc) and the worst half deleted, with
     [P_delete] proof steps.
   - first-UIP clauses are shrunk by recursive (self-subsuming)
     minimization before being logged/attached.
   - target-phase rephasing at restart boundaries is the one search
     heuristic beyond these: it gets the solver out of phase traps.

   Deletion leaves dead words behind; a compacting GC pass rewrites
   the arena and patches watcher payloads and reason references when
   more than a third of it is garbage. *)

type lit = int

let pos v = 2 * v
let neg v = (2 * v) + 1
let lit_not l = l lxor 1
let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0 (* true = positive *)

(* Dynamic arrays (watch lists and cref lists are int vecs). *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  (* No storage until the first push: most literals' watch lists of a
     small instance stay empty. *)
  let create dummy = { data = [||]; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (max 4 (2 * v.len)) v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.len

  (* Clear the abandoned slots: for boxed payloads a popped pointer
     would otherwise keep its object reachable forever. *)
  let shrink v n =
    for i = n to v.len - 1 do
      v.data.(i) <- v.dummy
    done;
    v.len <- n
end

(* A per-solve resource budget, set once on a solver and honored by
   every subsequent [solve] call until replaced. [b_conflicts] caps the
   conflicts a single [solve] call may spend; [b_stop] is an external
   preemption probe (typically "has this request's deadline passed?")
   polled every [stop_poll_interval] conflicts, so a wedged search is
   interrupted within a bounded amount of work. *)
type budget = {
  b_conflicts : int option;
  b_stop : (unit -> bool) option;
}

(* Conflicts between two [b_stop] polls. Small enough that a deadline
   overrun is noticed promptly, large enough that polling (a closure
   call, possibly a clock read) stays off the hot path. *)
let stop_poll_interval = 32

(* Raised by [solve] when the active budget is exhausted. The solver is
   left at decision level 0 and remains usable. *)
exception Timeout

type pb = {
  wlits : (int * lit) array;  (* (weight, lit), sorted by weight desc *)
  bound : int;
  mutable sum_true : int;
  origin : int;          (* index of the P_pb_input step this came from *)
  prefix : lit list;     (* negations of level-0-true lits folded into [bound] *)
}

(* Fills [pb_src] where no PB implied the variable; never watched. *)
let no_pb = { wlits = [||]; bound = 0; sum_true = 0; origin = -1; prefix = [] }

type proof_step =
  | P_input of lit list
  | P_pb_input of (int * lit) list * int
  | P_pb_lemma of int * lit list
  | P_derived of lit list
  | P_delete of lit list

(* Reason encoding (per assigned variable):
   -2 no reason (level-0 enqueue), -1 decision,
   -3 PB propagation (the implying PB in [pb_src]; its explanation is
      rebuilt on demand), even r = arena cref r/2, odd r = inline
      binary clause whose other literal is r/2. *)
let r_none = -2
let r_decision = -1
let r_pb = -3

type confl =
  | C_cref of int           (* conflict clause in the arena *)
  | C_lits of int array     (* binary or PB-explanation conflict *)

type t = {
  mutable nvars : int;
  mutable assign : Bytes.t;          (* per var: 0 unassigned, 1 true, 2 false *)
  mutable level : int array;
  mutable reason : int array;
  mutable pb_src : pb array;          (* per var: the PB that implied it *)
  mutable tpos : int array;          (* per assigned var: its trail index *)
  mutable activity : float array;
  mutable act_gen : int array;       (* rescale generation per var *)
  mutable gen : int;                 (* current rescale generation *)
  mutable phase : Bytes.t;           (* saved phase: 1 true, 0 false *)
  mutable watches : int Vec.t array; (* per literal: (blocker, payload) pairs *)
  mutable pb_watch : (pb * int) list array; (* per literal: PBs containing it *)
  mutable model : Bytes.t;
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* clause arena *)
  mutable arena : int array;
  mutable arena_top : int;
  mutable wasted : int;              (* words owned by deleted clauses *)
  clauses : int Vec.t;               (* crefs of problem clauses (size >= 3) *)
  mutable learnts : int Vec.t;       (* crefs of learnt clauses (size >= 3) *)
  mutable n_clauses : int;           (* live problem clauses incl. binaries *)
  mutable n_learnts : int;           (* live learnt clauses incl. binaries *)
  mutable n_arena_learnts : int;     (* live learnt clauses in the arena *)
  mutable pbs : pb list;
  mutable var_inc : float;
  mutable ok : bool;
  (* heap of variables ordered by activity *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable heap_pos : int array;      (* var -> index in heap, -1 if absent *)
  stat_set : Obs.Stats.t;
  c_conflicts : Obs.Stats.counter;
  c_decisions : Obs.Stats.counter;
  c_propagations : Obs.Stats.counter;
  c_learnts : Obs.Stats.counter;
  c_restarts : Obs.Stats.counter;
  c_reduces : Obs.Stats.counter;
  c_removed : Obs.Stats.counter;
  c_minimized : Obs.Stats.counter;
  c_rephases : Obs.Stats.counter;
  mutable obs : Obs.ctx;
  mutable at_restart : int * int * int; (* conflicts, decisions, props *)
  (* scratch for analysis *)
  mutable seen : Bytes.t;
  to_clear : int Vec.t;              (* vars whose seen bit must be reset *)
  min_stack : int Vec.t;             (* lit_redundant worklist *)
  mutable lbd_mark : int array;      (* per decision level, stamped *)
  mutable lbd_stamp : int;
  (* restart state *)
  mutable ema_fast : float;          (* recent LBD average  (alpha 1/32) *)
  mutable ema_slow : float;          (* long-term LBD average (alpha 1/8192) *)
  mutable conflict_count : int;      (* int mirror of c_conflicts *)
  (* learnt-DB reduction *)
  mutable max_learnts : int;         (* arena-learnt count triggering reduce *)
  (* proof logging: [None] = off; steps are kept newest-first *)
  mutable proof : proof_step list option;
  mutable n_pb_inputs : int;
  (* preemption budget, applied per [solve] call *)
  mutable budget : budget option;
  (* target-phase rephasing *)
  mutable target_phase : Bytes.t;    (* assignment at the deepest trail seen *)
  mutable best_trail : int;
  mutable next_rephase : int;
  mutable rephase_interval : int;
  mutable rephase_kind : int;        (* cycles target/inverted/random/reset *)
  mutable rng : int;                 (* xorshift state for random phases *)
}

let blank () =
  let stat_set = Obs.Stats.create () in
  (* Registration order fixes the [stats] output order; the pre-arena
     counters keep their slots, new ones are appended. *)
  let c_conflicts = Obs.Stats.counter stat_set "conflicts" in
  let c_decisions = Obs.Stats.counter stat_set "decisions" in
  let c_propagations = Obs.Stats.counter stat_set "propagations" in
  let c_learnts = Obs.Stats.counter stat_set "learnts" in
  let c_restarts = Obs.Stats.counter stat_set "restarts" in
  let c_reduces = Obs.Stats.counter stat_set "reduces" in
  let c_removed = Obs.Stats.counter stat_set "removed" in
  let c_minimized = Obs.Stats.counter stat_set "minimized" in
  let c_rephases = Obs.Stats.counter stat_set "rephases" in
  { nvars = 0;
    assign = Bytes.create 0;
    level = [||];
    reason = [||];
    pb_src = [||];
    tpos = [||];
    activity = [||];
    act_gen = [||];
    gen = 0;
    phase = Bytes.create 0;
    watches = [||];
    pb_watch = [||];
    model = Bytes.create 0;
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    arena = Array.make 1024 0;
    arena_top = 0;
    wasted = 0;
    clauses = Vec.create 0;
    learnts = Vec.create 0;
    n_clauses = 0;
    n_learnts = 0;
    n_arena_learnts = 0;
    pbs = [];
    var_inc = 1.0;
    ok = true;
    heap = [||];
    heap_len = 0;
    heap_pos = [||];
    stat_set;
    c_conflicts;
    c_decisions;
    c_propagations;
    c_learnts;
    c_restarts;
    c_reduces;
    c_removed;
    c_minimized;
    c_rephases;
    obs = Obs.disabled;
    at_restart = (0, 0, 0);
    seen = Bytes.create 0;
    to_clear = Vec.create 0;
    min_stack = Vec.create 0;
    lbd_mark = [||];
    lbd_stamp = 0;
    ema_fast = 0.0;
    ema_slow = 0.0;
    conflict_count = 0;
    max_learnts = 2000;
    proof = None;
    n_pb_inputs = 0;
    budget = None;
    target_phase = Bytes.create 0;
    best_trail = 0;
    next_rephase = 1000;
    rephase_interval = 1000;
    rephase_kind = 0;
    rng = 0x9E3779B9 }

let nvars s = s.nvars

let enable_proof s = s.proof <- Some []

let proof s = Option.map List.rev s.proof

let log_step s step =
  match s.proof with Some ps -> s.proof <- Some (step :: ps) | None -> ()

(* Fault-injection hook for the fuzz harness: when set, [add_pb_le]
   silently discards its constraint, so cardinality bounds vanish. *)
let hook_drop_pb = ref false

let set_budget s b = s.budget <- b

(* Arena-learnt count that triggers [reduce_db]; tests lower it to
   force reductions on small instances. *)
let set_reduce_interval s n = s.max_learnts <- max 1 n

(* -- arena --------------------------------------------------------- *)

let f_learnt = 1
let f_deleted = 2
let f_reloc = 4

let cl_size s cref = s.arena.(cref) lsr 3
let cl_learnt s cref = s.arena.(cref) land f_learnt <> 0
let cl_deleted s cref = s.arena.(cref) land f_deleted <> 0
let cl_lbd s cref = s.arena.(cref + 1)
let cl_set_lbd s cref lbd = s.arena.(cref + 1) <- lbd
let cl_stamp s cref = s.arena.(cref + 2)
let cl_touch s cref = s.arena.(cref + 2) <- s.conflict_count
let cl_lit s cref i = s.arena.(cref + 3 + i)

let cl_delete s cref =
  s.arena.(cref) <- s.arena.(cref) lor f_deleted;
  s.wasted <- s.wasted + cl_size s cref + 3

let arena_ensure s need =
  let cap = Array.length s.arena in
  if s.arena_top + need > cap then begin
    let cap' = ref (2 * cap) in
    while s.arena_top + need > !cap' do
      cap' := 2 * !cap'
    done;
    let arena = Array.make !cap' 0 in
    Array.blit s.arena 0 arena 0 s.arena_top;
    s.arena <- arena
  end

let alloc_clause s lits ~learnt ~lbd =
  let size = Array.length lits in
  arena_ensure s (size + 3);
  let cref = s.arena_top in
  s.arena.(cref) <- (size lsl 3) lor (if learnt then f_learnt else 0);
  s.arena.(cref + 1) <- lbd;
  s.arena.(cref + 2) <- s.conflict_count;
  Array.blit lits 0 s.arena (cref + 3) size;
  s.arena_top <- cref + size + 3;
  cref

(* -- activity heap ------------------------------------------------- *)

(* Effective activity under lazy rescale: a variable [gen - act_gen]
   generations stale is smaller by that many factors of 1e-100.
   [var_bump] normalizes on touch, so staleness only matters when
   ordering untouched variables, where "vanishingly small" is all the
   heap needs to know. *)
let[@inline] eff_act s v =
  let d = s.gen - s.act_gen.(v) in
  if d = 0 then s.activity.(v)
  else if d = 1 then s.activity.(v) *. 1e-100
  else if d = 2 then s.activity.(v) *. 1e-200
  else 0.0

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if eff_act s s.heap.(i) > eff_act s s.heap.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && eff_act s s.heap.(l) > eff_act s s.heap.(!best) then
    best := l;
  if r < s.heap_len && eff_act s s.heap.(r) > eff_act s s.heap.(!best) then
    best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    let i = s.heap_len in
    s.heap_len <- i + 1;
    s.heap.(i) <- v;
    s.heap_pos.(v) <- i;
    heap_up s i
  end

let heap_pop s =
  let top = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap_pos.(top) <- -1;
  if s.heap_len > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_len);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  top

let heap_bump s v =
  let i = s.heap_pos.(v) in
  if i >= 0 then heap_up s i

(* -- variables ----------------------------------------------------- *)

(* Grow the per-variable arrays to hold [cap] variables. *)
let reserve s cap =
  let old = Bytes.length s.assign in
  if cap > old then begin
    let assign = Bytes.make cap '\000' in
    Bytes.blit s.assign 0 assign 0 old;
    s.assign <- assign;
    let phase = Bytes.make cap '\000' in
    Bytes.blit s.phase 0 phase 0 old;
    s.phase <- phase;
    let target_phase = Bytes.make cap '\000' in
    Bytes.blit s.target_phase 0 target_phase 0 old;
    s.target_phase <- target_phase;
    let model = Bytes.make cap '\000' in
    Bytes.blit s.model 0 model 0 old;
    s.model <- model;
    let seen = Bytes.make cap '\000' in
    Bytes.blit s.seen 0 seen 0 old;
    s.seen <- seen;
    let level = Array.make cap (-1) in
    Array.blit s.level 0 level 0 old;
    s.level <- level;
    let reason = Array.make cap r_none in
    Array.blit s.reason 0 reason 0 old;
    s.reason <- reason;
    let pb_src = Array.make cap no_pb in
    Array.blit s.pb_src 0 pb_src 0 old;
    s.pb_src <- pb_src;
    let tpos = Array.make cap 0 in
    Array.blit s.tpos 0 tpos 0 old;
    s.tpos <- tpos;
    let activity = Array.make cap 0.0 in
    Array.blit s.activity 0 activity 0 old;
    s.activity <- activity;
    let act_gen = Array.make cap s.gen in
    Array.blit s.act_gen 0 act_gen 0 old;
    s.act_gen <- act_gen;
    (* Decision levels never exceed nvars, so cap+1 marks suffice. *)
    let lbd_mark = Array.make (cap + 1) 0 in
    Array.blit s.lbd_mark 0 lbd_mark 0 (Array.length s.lbd_mark);
    s.lbd_mark <- lbd_mark;
    let watches = Array.make (2 * cap) (Vec.create 0) in
    Array.blit s.watches 0 watches 0 (2 * old);
    for i = 2 * old to (2 * cap) - 1 do
      watches.(i) <- Vec.create 0
    done;
    s.watches <- watches;
    let pb_watch = Array.make (2 * cap) [] in
    Array.blit s.pb_watch 0 pb_watch 0 (2 * old);
    s.pb_watch <- pb_watch;
    let heap = Array.make cap 0 in
    Array.blit s.heap 0 heap 0 s.heap_len;
    s.heap <- heap;
    let heap_pos = Array.make cap (-1) in
    Array.blit s.heap_pos 0 heap_pos 0 old;
    s.heap_pos <- heap_pos
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  let cap = Bytes.length s.assign in
  if s.nvars > cap then reserve s (max 16 (2 * cap));
  heap_insert s v;
  v

let create ?(vars = 0) () =
  let s = blank () in
  reserve s vars;
  s

(* -- assignment ---------------------------------------------------- *)

let lit_value s l =
  (* 0 = unassigned, 1 = true, 2 = false for the literal *)
  match Bytes.get s.assign (lit_var l) with
  | '\000' -> 0
  | '\001' -> if lit_sign l then 1 else 2
  | _ -> if lit_sign l then 2 else 1

let decision_level s = Vec.size s.trail_lim

let enqueue s l reason =
  (* precondition: l unassigned *)
  let v = lit_var l in
  Bytes.set s.assign v (if lit_sign l then '\001' else '\002');
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.tpos.(v) <- Vec.size s.trail;
  Bytes.set s.phase v (if lit_sign l then '\001' else '\000');
  (* PB sums track assignment (mirrored exactly by [cancel_until]);
     bound checks happen when the literal is dequeued in [propagate]. *)
  List.iter (fun (pb, w) -> pb.sum_true <- pb.sum_true + w) s.pb_watch.(l);
  Vec.push s.trail l

(* -- propagation --------------------------------------------------- *)

exception Conflict of confl

(* The negations of the PB's currently-true literals, last true one
   first, after [first] slots left for the caller. *)
let pb_true_negations pb s ~first =
  let wl = pb.wlits in
  let n = ref 0 in
  for i = 0 to Array.length wl - 1 do
    if lit_value s (snd wl.(i)) = 1 then incr n
  done;
  let out = Array.make (first + !n) 0 in
  let k = ref (first + !n) in
  for i = 0 to Array.length wl - 1 do
    let l = snd wl.(i) in
    if lit_value s l = 1 then begin
      decr k;
      out.(!k) <- lit_not l
    end
  done;
  out

let pb_explain_conflict pb s =
  (* All currently-true literals of the PB jointly overflow the bound:
     learn that they can't all be true. *)
  let lits = pb_true_negations pb s ~first:0 in
  if s.proof <> None then
    log_step s (P_pb_lemma (pb.origin, pb.prefix @ Array.to_list lits));
  lits

(* [pb] forces [l]: its explanation, true-lits -> l, is rebuilt only
   if conflict analysis asks ({!reason_iter_other}). A proof logs it
   now, as the lemma the checker will need. *)
let enqueue_pb s l pb =
  if s.proof <> None then begin
    let lits = pb_true_negations pb s ~first:1 in
    lits.(0) <- l;
    log_step s (P_pb_lemma (pb.origin, pb.prefix @ Array.to_list lits))
  end;
  s.pb_src.(lit_var l) <- pb;
  enqueue s l r_pb

(* Any unassigned literal of a PB heavier than its slack is forced
   false; wlits is sorted by weight descending. *)
let rec pb_check s = function
  | [] -> ()
  | (pb, _) :: rest ->
    if pb.sum_true > pb.bound then raise (Conflict (C_lits (pb_explain_conflict pb s)));
    let slack = pb.bound - pb.sum_true in
    let wl = pb.wlits in
    let i = ref 0 in
    while !i < Array.length wl && fst wl.(!i) > slack do
      let l' = snd wl.(!i) in
      if lit_value s l' = 0 then enqueue_pb s (lit_not l') pb;
      incr i
    done;
    pb_check s rest

let propagate s =
  try
    while s.qhead < Vec.size s.trail do
      let l = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      Obs.Stats.incr s.c_propagations;
      (* PB checks for l being true (sums were updated at enqueue). *)
      pb_check s s.pb_watch.(l);
      (* Clause propagation: literal [not l] just became false; watch
         pairs are filed under the literal that became true. *)
      let falsified = lit_not l in
      let ws = s.watches.(l) in
      let j = ref 0 in
      let i = ref 0 in
      while !i < Vec.size ws do
        let blocker = Vec.get ws !i in
        let payload = Vec.get ws (!i + 1) in
        i := !i + 2;
        if lit_value s blocker = 1 then begin
          (* Blocking literal satisfied: skip without touching the
             arena. *)
          Vec.set ws !j blocker;
          Vec.set ws (!j + 1) payload;
          j := !j + 2
        end
        else if payload land 1 = 1 then begin
          (* Inline binary clause (blocker \/ falsified). *)
          Vec.set ws !j blocker;
          Vec.set ws (!j + 1) payload;
          j := !j + 2;
          match lit_value s blocker with
          | 2 ->
            (* Conflict: copy remaining pairs and raise. *)
            while !i < Vec.size ws do
              Vec.set ws !j (Vec.get ws !i);
              incr i;
              incr j
            done;
            Vec.shrink ws !j;
            raise (Conflict (C_lits [| blocker; falsified |]))
          | 0 -> enqueue s blocker ((falsified lsl 1) lor 1)
          | _ -> ()
        end
        else begin
          let cref = payload lsr 1 in
          if cl_deleted s cref then
            (* Lazily drop watchers of clauses retired by reduce_db:
               the pair is simply not copied down. *)
            ()
          else begin
            let base = cref + 3 in
            let lits = s.arena in
            (* Ensure falsified watch is at position 1. *)
            if lits.(base) = falsified then begin
              lits.(base) <- lits.(base + 1);
              lits.(base + 1) <- falsified
            end;
            let first = lits.(base) in
            if first <> blocker && lit_value s first = 1 then begin
              (* Satisfied by the other watch: keep, with a better
                 blocker for next time. *)
              Vec.set ws !j first;
              Vec.set ws (!j + 1) payload;
              j := !j + 2
            end
            else begin
              (* Look for a new literal to watch. *)
              let size = cl_size s cref in
              let found = ref false in
              let k = ref 2 in
              while (not !found) && !k < size do
                if lit_value s lits.(base + !k) <> 2 then begin
                  lits.(base + 1) <- lits.(base + !k);
                  lits.(base + !k) <- falsified;
                  let wl = s.watches.(lit_not lits.(base + 1)) in
                  Vec.push wl first;
                  Vec.push wl payload;
                  found := true
                end;
                incr k
              done;
              if not !found then begin
                (* Unit or conflict. *)
                Vec.set ws !j first;
                Vec.set ws (!j + 1) payload;
                j := !j + 2;
                if lit_value s first = 2 then begin
                  while !i < Vec.size ws do
                    Vec.set ws !j (Vec.get ws !i);
                    incr i;
                    incr j
                  done;
                  Vec.shrink ws !j;
                  raise (Conflict (C_cref cref))
                end
                else enqueue s first (cref lsl 1)
              end
            end
          end
        end
      done;
      Vec.shrink ws !j
    done;
    None
  with Conflict c -> Some c

(* -- backtracking -------------------------------------------------- *)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = lit_var l in
      List.iter (fun (pb, w) -> pb.sum_true <- pb.sum_true - w) s.pb_watch.(l);
      Bytes.set s.assign v '\000';
      s.reason.(v) <- r_none;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- Vec.size s.trail
  end

(* -- conflict analysis (first UIP) --------------------------------- *)

let var_bump s v =
  (* Lazy rescale: normalize the variable to the current generation,
     bump, and on overflow open a new generation instead of walking
     all activities (the pre-arena core scanned O(nvars) here). *)
  let d = s.gen - s.act_gen.(v) in
  if d > 0 then begin
    s.activity.(v) <- eff_act s v;
    s.act_gen.(v) <- s.gen
  end;
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    s.gen <- s.gen + 1;
    s.var_inc <- s.var_inc *. 1e-100;
    s.activity.(v) <- s.activity.(v) *. 1e-100;
    s.act_gen.(v) <- s.gen
  end;
  heap_bump s v

(* Literal block distance: number of distinct decision levels among
   the literals, via a stamped per-level mark array. *)
let lbd_of_array s arr n =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let st = s.lbd_stamp in
  let cnt = ref 0 in
  for i = 0 to n - 1 do
    let lv = s.level.(lit_var arr.(i)) in
    if lv > 0 && s.lbd_mark.(lv) <> st then begin
      s.lbd_mark.(lv) <- st;
      incr cnt
    end
  done;
  !cnt

let lbd_of_cref s cref =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let st = s.lbd_stamp in
  let cnt = ref 0 in
  let size = cl_size s cref in
  for i = 0 to size - 1 do
    let lv = s.level.(lit_var (cl_lit s cref i)) in
    if lv > 0 && s.lbd_mark.(lv) <> st then begin
      s.lbd_mark.(lv) <- st;
      incr cnt
    end
  done;
  !cnt

(* Touch a clause used in conflict analysis: refresh its recency stamp
   and tighten its stored LBD if the current assignment gives a better
   one (glucose's "LBD on re-use"). *)
let cl_on_use s cref =
  cl_touch s cref;
  if cl_learnt s cref then begin
    let lbd = lbd_of_cref s cref in
    if lbd > 0 && lbd < cl_lbd s cref then cl_set_lbd s cref lbd
  end

(* Iterate the non-implied literals of the reason for assigned var
   [v]; [f] may raise (Exit is used as an early abort). *)
let reason_iter_other s v f =
  let r = s.reason.(v) in
  if r >= 0 then begin
    if r land 1 = 1 then f (r lsr 1)
    else begin
      let cref = r lsr 1 in
      cl_on_use s cref;
      let size = cl_size s cref in
      for i = 1 to size - 1 do
        f (cl_lit s cref i)
      done
    end
  end
  else if r = r_pb then begin
    (* The PB's literals that were true when it forced [v], i.e. are
       true and earlier on the trail, last one first. *)
    let wl = s.pb_src.(v).wlits and at = s.tpos.(v) in
    for i = Array.length wl - 1 downto 0 do
      let l = snd wl.(i) in
      if lit_value s l = 1 && s.tpos.(lit_var l) < at then f (lit_not l)
    done
  end
  else assert false

let abstract_level s v = 1 lsl (s.level.(v) land 31)

(* Self-subsuming minimization: a clause literal is redundant if its
   reason chain bottoms out in other clause literals (seen) without
   crossing a decision or leaving the clause's level set. *)
let lit_redundant s abstract_levels l =
  let stack = s.min_stack in
  Vec.shrink stack 0;
  Vec.push stack l;
  let top = Vec.size s.to_clear in
  let ok = ref true in
  (try
     while Vec.size stack > 0 do
       let q = Vec.get stack (Vec.size stack - 1) in
       Vec.shrink stack (Vec.size stack - 1);
       reason_iter_other s (lit_var q) (fun t ->
           let vt = lit_var t in
           if Bytes.get s.seen vt = '\000' && s.level.(vt) > 0 then begin
             let rt = s.reason.(vt) in
             if
               rt <> r_decision && rt <> r_none
               && abstract_level s vt land abstract_levels <> 0
             then begin
               Bytes.set s.seen vt '\001';
               Vec.push stack t;
               Vec.push s.to_clear vt
             end
             else raise Exit
           end)
     done
   with Exit -> ok := false);
  if not !ok then begin
    (* Roll back the marks made during this (failed) probe. *)
    for j = top to Vec.size s.to_clear - 1 do
      Bytes.set s.seen (Vec.get s.to_clear j) '\000'
    done;
    Vec.shrink s.to_clear top
  end;
  !ok

let analyze s confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let confl = ref (Some confl) in
  let idx = ref (Vec.size s.trail - 1) in
  Vec.shrink s.to_clear 0;
  let mark q =
    let v = lit_var q in
    if Bytes.get s.seen v = '\000' && s.level.(v) > 0 then begin
      Bytes.set s.seen v '\001';
      Vec.push s.to_clear v;
      var_bump s v;
      if s.level.(v) >= decision_level s then incr path
      else learnt := q :: !learnt
    end
  in
  let continue_loop = ref true in
  while !continue_loop do
    (match !confl with
    | Some (C_cref cref) ->
      cl_on_use s cref;
      let size = cl_size s cref in
      for i = 0 to size - 1 do
        mark (cl_lit s cref i)
      done
    | Some (C_lits arr) -> Array.iter mark arr
    | None -> reason_iter_other s (lit_var !p) mark);
    (* Walk the trail back to the next marked literal. *)
    while Bytes.get s.seen (lit_var (Vec.get s.trail !idx)) = '\000' do
      decr idx
    done;
    let q = Vec.get s.trail !idx in
    decr idx;
    let v = lit_var q in
    Bytes.set s.seen v '\000';
    decr path;
    p := q;
    if !path <= 0 then continue_loop := false else confl := None
  done;
  let learnt_lits = Array.of_list (lit_not !p :: !learnt) in
  (* Recursive minimization of everything but the asserting literal. *)
  let n = Array.length learnt_lits in
  let abstract_levels = ref 0 in
  for i = 1 to n - 1 do
    abstract_levels :=
      !abstract_levels lor abstract_level s (lit_var learnt_lits.(i))
  done;
  let kept = ref [] in
  let removed = ref 0 in
  for i = n - 1 downto 1 do
    let l = learnt_lits.(i) in
    let r = s.reason.(lit_var l) in
    if r = r_decision || r = r_none || not (lit_redundant s !abstract_levels l)
    then kept := l :: !kept
    else incr removed
  done;
  if !removed > 0 then Obs.Stats.add s.c_minimized !removed;
  let learnt_lits = Array.of_list (learnt_lits.(0) :: !kept) in
  (* Clear all seen marks (analysis + minimization probes). *)
  for j = 0 to Vec.size s.to_clear - 1 do
    Bytes.set s.seen (Vec.get s.to_clear j) '\000'
  done;
  Vec.shrink s.to_clear 0;
  (* Watch invariant: position 1 must hold a literal of the backtrack
     level so the clause is inspected when that level's assignment is
     undone. *)
  let btlevel = ref 0 in
  if Array.length learnt_lits > 1 then begin
    let best = ref 1 in
    for i = 2 to Array.length learnt_lits - 1 do
      if
        s.level.(lit_var learnt_lits.(i))
        > s.level.(lit_var learnt_lits.(!best))
      then best := i
    done;
    let tmp = learnt_lits.(1) in
    learnt_lits.(1) <- learnt_lits.(!best);
    learnt_lits.(!best) <- tmp;
    btlevel := s.level.(lit_var learnt_lits.(1))
  end;
  let lbd = lbd_of_array s learnt_lits (Array.length learnt_lits) in
  (learnt_lits, !btlevel, lbd)

(* -- clause management --------------------------------------------- *)

let watch_pair s l blocker payload =
  let ws = s.watches.(l) in
  Vec.push ws blocker;
  Vec.push ws payload

let attach_binary s a b =
  (* Clause (a \/ b), stored only in the two watch lists. *)
  watch_pair s (lit_not a) b ((b lsl 1) lor 1);
  watch_pair s (lit_not b) a ((a lsl 1) lor 1)

let attach_cref s cref =
  let l0 = cl_lit s cref 0 and l1 = cl_lit s cref 1 in
  watch_pair s (lit_not l0) l1 (cref lsl 1);
  watch_pair s (lit_not l1) l0 (cref lsl 1)

let add_clause s lits =
  if s.ok then begin
    assert (decision_level s = 0);
    log_step s (P_input lits);
    (* Simplify: dedup, drop false lits, detect tautology/satisfied. *)
    let lits = List.sort_uniq Int.compare lits in
    let tautology =
      let rec tst = function
        | a :: (b :: _ as rest) -> (a lxor b) = 1 || tst rest
        | _ -> false
      in
      tst lits
    in
    if not tautology then begin
      let satisfied = List.exists (fun l -> lit_value s l = 1) lits in
      if not satisfied then begin
        let lits = List.filter (fun l -> lit_value s l <> 2) lits in
        match lits with
        | [] ->
          log_step s (P_derived []);
          s.ok <- false
        | [ l ] ->
          enqueue s l r_none;
          (match propagate s with
          | Some _ ->
            log_step s (P_derived []);
            s.ok <- false
          | None -> ())
        | [ a; b ] ->
          attach_binary s a b;
          s.n_clauses <- s.n_clauses + 1
        | _ ->
          let cref = alloc_clause s (Array.of_list lits) ~learnt:false ~lbd:0 in
          Vec.push s.clauses cref;
          attach_cref s cref;
          s.n_clauses <- s.n_clauses + 1
      end
    end
  end

let add_pb_le s wlits bound =
  if s.ok && not !hook_drop_pb then begin
    assert (decision_level s = 0);
    List.iter (fun (w, _) -> if w <= 0 then invalid_arg "add_pb_le: weight <= 0") wlits;
    let origin = s.n_pb_inputs in
    s.n_pb_inputs <- origin + 1;
    log_step s (P_pb_input (wlits, bound));
    (* Account for literals already true at level 0; drop false ones. *)
    let fixed_true, rest =
      List.partition (fun (_, l) -> lit_value s l = 1) wlits
    in
    let rest = List.filter (fun (_, l) -> lit_value s l = 0) rest in
    let base = List.fold_left (fun acc (w, _) -> acc + w) 0 fixed_true in
    (* Lemmas derived from the residual constraint are only valid
       against the *original* PB once the negations of the absorbed
       level-0-true literals are tacked back on. *)
    let prefix = List.map (fun (_, l) -> lit_not l) fixed_true in
    if base > bound then begin
      log_step s (P_pb_lemma (origin, prefix));
      log_step s (P_derived []);
      s.ok <- false
    end
    else begin
      let slack = bound - base in
      let heavy, light = List.partition (fun (w, _) -> w > slack) rest in
      (* Attach the constraint over the light literals first, so any
         propagation triggered below keeps its sum in step. *)
      if light <> [] then begin
        let arr = Array.of_list light in
        Array.sort (fun (w1, _) (w2, _) -> Int.compare w2 w1) arr;
        let pb = { wlits = arr; bound = slack; sum_true = 0; origin; prefix } in
        s.pbs <- pb :: s.pbs;
        Array.iter (fun (w, l) -> s.pb_watch.(l) <- (pb, w) :: s.pb_watch.(l)) arr
      end;
      (* Literals heavier than the remaining slack are forced false. *)
      List.iter
        (fun (_, l) ->
          if s.ok then
            match lit_value s l with
            | 0 -> (
              log_step s (P_pb_lemma (origin, prefix @ [ lit_not l ]));
              enqueue s (lit_not l) r_none;
              match propagate s with
              | Some _ ->
                log_step s (P_derived []);
                s.ok <- false
              | None -> ())
            | 1 ->
              (* already true: bound unachievable *)
              log_step s (P_pb_lemma (origin, prefix @ [ lit_not l ]));
              log_step s (P_derived []);
              s.ok <- false
            | _ -> ())
        heavy;
      if s.ok then
        match propagate s with
        | Some _ ->
          log_step s (P_derived []);
          s.ok <- false
        | None -> ()
    end
  end

(* -- learnt-DB reduction and arena GC ------------------------------ *)

(* A clause is locked while it is the reason of its first literal's
   assignment; locked clauses must survive reduction. *)
let cl_locked s cref =
  let l0 = cl_lit s cref 0 in
  lit_value s l0 = 1 && s.reason.(lit_var l0) = cref lsl 1

let cl_lits_list s cref =
  let size = cl_size s cref in
  let rec go i acc = if i < 0 then acc else go (i - 1) (cl_lit s cref i :: acc) in
  go (size - 1) []

(* Compacting GC: copy live clauses into a fresh arena, leave forward
   pointers behind, then patch crefs in the clause lists, watch lists
   and reason slots. Deleted clauses simply vanish (their watcher
   pairs are dropped here rather than lazily). *)
let compact_arena s =
  let live = s.arena_top - s.wasted in
  let cap = ref 1024 in
  while !cap < live do
    cap := 2 * !cap
  done;
  let old = s.arena in
  let fresh = Array.make !cap 0 in
  let top = ref 0 in
  let relocate vec =
    let out = Vec.create 0 in
    for i = 0 to Vec.size vec - 1 do
      let cref = Vec.get vec i in
      let w0 = old.(cref) in
      if w0 land f_deleted = 0 then begin
        let size = w0 lsr 3 in
        Array.blit old cref fresh !top (size + 3);
        old.(cref) <- w0 lor f_reloc;
        old.(cref + 1) <- !top;
        Vec.push out !top;
        top := !top + size + 3
      end
    done;
    out
  in
  let clauses' = relocate s.clauses in
  Vec.shrink s.clauses 0;
  for i = 0 to Vec.size clauses' - 1 do
    Vec.push s.clauses (Vec.get clauses' i)
  done;
  s.learnts <- relocate s.learnts;
  (* Patch watch lists: binary pairs pass through, relocated crefs are
     rewritten, dead crefs dropped. *)
  for l = 0 to (2 * s.nvars) - 1 do
    let ws = s.watches.(l) in
    let j = ref 0 in
    let i = ref 0 in
    while !i < Vec.size ws do
      let blocker = Vec.get ws !i in
      let payload = Vec.get ws (!i + 1) in
      i := !i + 2;
      if payload land 1 = 1 then begin
        Vec.set ws !j blocker;
        Vec.set ws (!j + 1) payload;
        j := !j + 2
      end
      else begin
        let cref = payload lsr 1 in
        let w0 = old.(cref) in
        if w0 land f_reloc <> 0 then begin
          Vec.set ws !j blocker;
          Vec.set ws (!j + 1) (old.(cref + 1) lsl 1);
          j := !j + 2
        end
      end
    done;
    Vec.shrink ws !j
  done;
  (* Patch reasons of assigned variables. *)
  for i = 0 to Vec.size s.trail - 1 do
    let v = lit_var (Vec.get s.trail i) in
    let r = s.reason.(v) in
    if r >= 0 && r land 1 = 0 then begin
      let cref = r lsr 1 in
      (* Locked clauses are never deleted, so the slot must forward. *)
      assert (old.(cref) land f_reloc <> 0);
      s.reason.(v) <- old.(cref + 1) lsl 1
    end
  done;
  s.arena <- fresh;
  s.arena_top <- !top;
  s.wasted <- 0

let reduce_db s =
  Obs.Stats.incr s.c_reduces;
  (* Rank non-glue, non-locked learnts: worst = high LBD, then least
     recently touched. Glue (lbd <= 2) is kept forever. *)
  let cands = ref [] in
  let ncands = ref 0 in
  for i = 0 to Vec.size s.learnts - 1 do
    let cref = Vec.get s.learnts i in
    if not (cl_deleted s cref) && cl_lbd s cref > 2 && not (cl_locked s cref)
    then begin
      cands := cref :: !cands;
      incr ncands
    end
  done;
  let arr = Array.of_list !cands in
  Array.sort
    (fun a b ->
      let c = Int.compare (cl_lbd s b) (cl_lbd s a) in
      if c <> 0 then c else Int.compare (cl_stamp s a) (cl_stamp s b))
    arr;
  let to_remove = !ncands / 2 in
  for i = 0 to to_remove - 1 do
    let cref = arr.(i) in
    log_step s (P_delete (cl_lits_list s cref));
    cl_delete s cref;
    s.n_learnts <- s.n_learnts - 1;
    s.n_arena_learnts <- s.n_arena_learnts - 1
  done;
  if to_remove > 0 then Obs.Stats.add s.c_removed to_remove;
  (* Drop dead crefs from the learnt list eagerly. *)
  let live = Vec.create 0 in
  for i = 0 to Vec.size s.learnts - 1 do
    let cref = Vec.get s.learnts i in
    if not (cl_deleted s cref) then Vec.push live cref
  done;
  s.learnts <- live;
  (* Invariant check: no assigned variable may point at a deleted
     reason clause (the locked test above must have protected it). *)
  for i = 0 to Vec.size s.trail - 1 do
    let v = lit_var (Vec.get s.trail i) in
    let r = s.reason.(v) in
    if r >= 0 && r land 1 = 0 then assert (not (cl_deleted s (r lsr 1)))
  done;
  if s.wasted * 3 > s.arena_top then compact_arena s

(* -- rephasing ------------------------------------------------------ *)

let xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = (x lxor (x lsl 17)) land max_int in
  if x = 0 then 0x9E3779B9 else x

(* Remember the polarity of every variable at the deepest trail ever
   reached: the assignment that got closest to a model. Rephasing jumps
   back to it ("target phases", CaDiCaL-style). *)
let update_target_phase s =
  for v = 0 to s.nvars - 1 do
    match Bytes.get s.assign v with
    | '\001' -> Bytes.set s.target_phase v '\001'
    | '\002' -> Bytes.set s.target_phase v '\000'
    | _ -> ()
  done

let rephase s =
  Obs.Stats.incr s.c_rephases;
  (match s.rephase_kind land 3 with
  | 0 -> Bytes.blit s.target_phase 0 s.phase 0 s.nvars
  | 1 ->
    for v = 0 to s.nvars - 1 do
      Bytes.set s.phase v
        (if Bytes.get s.phase v = '\000' then '\001' else '\000')
    done
  | 2 ->
    for v = 0 to s.nvars - 1 do
      s.rng <- xorshift s.rng;
      Bytes.set s.phase v (if s.rng land 1 = 0 then '\000' else '\001')
    done
  | _ ->
    (* Back to the default negative polarity, and let a fresh best
       trail rebuild the targets. *)
    Bytes.fill s.phase 0 s.nvars '\000';
    s.best_trail <- 0);
  s.rephase_kind <- s.rephase_kind + 1;
  s.rephase_interval <- s.rephase_interval + (s.rephase_interval / 2);
  s.next_rephase <- s.conflict_count + s.rephase_interval

(* -- search -------------------------------------------------------- *)

let pick_branch_var s =
  let rec go () =
    if s.heap_len = 0 then -1
    else
      let v = heap_pop s in
      if Bytes.get s.assign v = '\000' then v else go ()
  in
  go ()

let record_model s =
  Bytes.blit s.assign 0 s.model 0 s.nvars

exception Unsat_exc
exception Sat_exc

(* Internal marker for budget exhaustion: translated to
   [Timeout] after the trail is unwound to level 0. *)
exception Budget_exc

(* Called once per conflict with the number of conflicts this [solve]
   call has spent. The conflict cap is checked every time; the external
   stop probe only every [stop_poll_interval] conflicts. *)
let check_budget s spent =
  match s.budget with
  | None -> ()
  | Some b ->
    (match b.b_conflicts with
    | Some cap when spent >= cap -> raise Budget_exc
    | _ -> ());
    (match b.b_stop with
    | Some stop when spent mod stop_poll_interval = 0 && stop () ->
      raise Budget_exc
    | _ -> ())

let set_obs s obs = s.obs <- obs

(* Restarts are rare, so per-restart tracing can afford histogram
   updates. *)
let note_restart s =
  if Obs.enabled s.obs then begin
    let c = Obs.Stats.value s.c_conflicts
    and d = Obs.Stats.value s.c_decisions
    and p = Obs.Stats.value s.c_propagations in
    let c0, d0, p0 = s.at_restart in
    Obs.observe s.obs "sat.conflicts_per_restart" (float_of_int (c - c0));
    Obs.observe s.obs "sat.decisions_per_restart" (float_of_int (d - d0));
    Obs.observe s.obs "sat.propagations_per_restart" (float_of_int (p - p0));
    Obs.gauge s.obs "sat.learnt_db" s.n_learnts;
    s.at_restart <- (c, d, p)
  end

(* Glucose EMA parameters: restart when the recent conflict-LBD
   average runs hot against the long-term one. *)
let ema_fast_alpha = 1.0 /. 32.0
let ema_slow_alpha = 1.0 /. 8192.0
let restart_ratio = 1.25
let restart_min_conflicts = 50

let learn_lbd s lbd =
  let f = float_of_int lbd in
  s.ema_fast <- s.ema_fast +. ((f -. s.ema_fast) *. ema_fast_alpha);
  s.ema_slow <- s.ema_slow +. ((f -. s.ema_slow) *. ema_slow_alpha);
  if Obs.enabled s.obs then Obs.observe s.obs "sat.lbd" f

let solve ?(assumptions = []) s =
  if not s.ok then false
  else begin
    cancel_until s 0;
    (match propagate s with
    | Some _ ->
      log_step s (P_derived []);
      s.ok <- false
    | None -> ());
    if not s.ok then false
    else begin
      let assumptions = Array.of_list assumptions in
      let nassum = Array.length assumptions in
      let since_restart = ref 0 in
      let spent = ref 0 in
      let result = ref None in
      (try
         while true do
           match propagate s with
           | Some confl ->
             Obs.Stats.incr s.c_conflicts;
             s.conflict_count <- s.conflict_count + 1;
             incr since_restart;
             incr spent;
             check_budget s !spent;
             if Vec.size s.trail > s.best_trail then begin
               s.best_trail <- Vec.size s.trail;
               update_target_phase s
             end;
             if decision_level s = 0 then begin
               log_step s (P_derived []);
               s.ok <- false;
               raise Unsat_exc
             end;
             (* If the conflict is below the assumption levels we treat
                it like any other; analysis may drive us to level 0. *)
             let learnt, btlevel, lbd = analyze s confl in
             cancel_until s btlevel;
             log_step s (P_derived (Array.to_list learnt));
             learn_lbd s lbd;
             (match Array.length learnt with
             | 0 ->
               s.ok <- false;
               raise Unsat_exc
             | 1 ->
               (* Asserting unit at level btlevel (= 0 normally). *)
               if lit_value s learnt.(0) = 0 then enqueue s learnt.(0) r_none
               else if lit_value s learnt.(0) = 2 then begin
                 log_step s (P_derived []);
                 s.ok <- false;
                 raise Unsat_exc
               end
             | 2 ->
               attach_binary s learnt.(0) learnt.(1);
               s.n_learnts <- s.n_learnts + 1;
               Obs.Stats.incr s.c_learnts;
               if lit_value s learnt.(0) = 0 then
                 enqueue s learnt.(0) ((learnt.(1) lsl 1) lor 1)
             | _ ->
               let cref = alloc_clause s learnt ~learnt:true ~lbd in
               Vec.push s.learnts cref;
               s.n_learnts <- s.n_learnts + 1;
               s.n_arena_learnts <- s.n_arena_learnts + 1;
               Obs.Stats.incr s.c_learnts;
               attach_cref s cref;
               if lit_value s learnt.(0) = 0 then
                 enqueue s learnt.(0) (cref lsl 1));
             s.var_inc <- s.var_inc /. 0.95;
             if s.n_arena_learnts > s.max_learnts then begin
               reduce_db s;
               s.max_learnts <- s.max_learnts + 300
             end
           | None ->
             let want_restart =
               !since_restart >= restart_min_conflicts
               && s.conflict_count >= 100
               && s.ema_fast > restart_ratio *. s.ema_slow
             in
             if want_restart && decision_level s > nassum then begin
               (* Restart, keeping assumptions. *)
               Obs.Stats.incr s.c_restarts;
               note_restart s;
               since_restart := 0;
               if s.conflict_count >= s.next_rephase then begin
                 (* Rephasing runs at level 0; any assumptions are
                    re-placed by the [dl < nassum] branch below. *)
                 cancel_until s 0;
                 rephase s
               end
               else cancel_until s (min (decision_level s) nassum)
             end
             else begin
               let dl = decision_level s in
               if dl < nassum then begin
                 (* Place the next assumption. *)
                 let a = assumptions.(dl) in
                 match lit_value s a with
                 | 1 ->
                   (* Already satisfied; open an empty level to keep the
                      level/assumption indexing aligned. *)
                   Vec.push s.trail_lim (Vec.size s.trail)
                 | 2 -> raise Unsat_exc (* conflicting assumption *)
                 | _ ->
                   Vec.push s.trail_lim (Vec.size s.trail);
                   enqueue s a r_decision
               end
               else begin
                 let v = pick_branch_var s in
                 if v < 0 then begin
                   record_model s;
                   raise Sat_exc
                 end
                 else begin
                   Obs.Stats.incr s.c_decisions;
                   Vec.push s.trail_lim (Vec.size s.trail);
                   let l = if Bytes.get s.phase v = '\001' then pos v else neg v in
                   enqueue s l r_decision
                 end
               end
             end
         done
       with
      | Sat_exc -> result := Some true
      | Unsat_exc -> result := Some false
      | Budget_exc ->
        (* Preempted: unwind to level 0 (keeping every learnt clause,
           activity and phase — they are all consequences of the
           database) and surface the typed timeout. The solver stays
           reusable. *)
        cancel_until s 0;
        raise Timeout);
      cancel_until s 0;
      match !result with Some r -> r | None -> assert false
    end
  end

let value s v = Bytes.get s.model v = '\001'

let lit_value_in_model s l = if lit_sign l then value s (lit_var l) else not (value s (lit_var l))

(* Shims over the Obs.Stats set: the pre-arena keys keep their order,
   new counters and the learnt-DB size are appended. *)
let stats s =
  Obs.Stats.snapshot s.stat_set
    ~extra:
      [ ("clauses", s.n_clauses);
        ("pbs", List.length s.pbs);
        ("vars", s.nvars);
        ("learnt_db", s.n_learnts);
        ("arena_words", s.arena_top) ]

let stats_delta ~before s =
  Obs.Stats.delta ~monotonic:(Obs.Stats.names s.stat_set) ~before (stats s)
