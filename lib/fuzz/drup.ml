(* Independent checker for the SAT core's refutation certificates.

   The solver under test ([Asp.Sat]) emits a step list: inputs
   (trusted), PB-derived lemmas (checked by a weight sum against the
   recorded constraint — no search), and derived clauses (checked by
   reverse unit propagation). This module shares no code with the
   solver: it is a minimal two-watched-literal propagator written from
   scratch, so a bug in the solver's propagation or conflict analysis
   cannot also hide here.

   A certificate is accepted iff every step checks AND the empty
   clause is established — i.e. the UNSAT claim is proved, not just
   plausible. *)

type lit = int

let lit_not l = l lxor 1
let lit_var l = l lsr 1

module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 4 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.len
  let shrink v n = v.len <- n
end

(* Clauses carry a tombstone so [P_delete] steps can retire them: the
   solver's reduce_db really removes clauses, and the checker must not
   keep using them for later RUP checks (that would certify proofs the
   solver's own database can no longer support). Dead clauses are
   dropped lazily as propagation walks the watch lists. *)
type clause = { lits : int array; mutable dead : bool }

let dummy_clause = { lits = [||]; dead = false }

type t = {
  mutable nvars : int;
  mutable assign : Bytes.t;  (* per var: 0 unassigned, 1 true, 2 false *)
  mutable watches : clause Vec.t array;  (* per lit *)
  trail : int Vec.t;
  mutable qhead : int;
  mutable contradiction : bool;
  pbs : ((int * lit) list * int) Vec.t;
  (* int-hash of sorted literals -> (sorted literals, clause) pairs,
     for deletion lookup. Keyed by a cheap integer fold rather than the
     literal list itself: polymorphic hashing/equality of lists walks
     the spine on every probe, which made deletion-heavy proofs
     quadratic to check. Exact match is confirmed against the stored
     sorted array. *)
  db : (int, (int array * clause) list ref) Hashtbl.t;
}

(* Order-independent is not needed (keys are built from sorted lists),
   but the fold must be cheap and spread adjacent literal ids. *)
let clause_key lits =
  List.fold_left (fun h l -> ((h * 31) + l) land max_int) 17 lits

let arrays_equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let create () =
  { nvars = 0;
    assign = Bytes.create 0;
    watches = [||];
    trail = Vec.create 0;
    qhead = 0;
    contradiction = false;
    pbs = Vec.create ([], 0);
    db = Hashtbl.create 64 }

let ensure_var t v =
  if v >= t.nvars then begin
    let old = t.nvars in
    t.nvars <- v + 1;
    if t.nvars > Bytes.length t.assign then begin
      let cap = max 16 (max t.nvars (2 * Bytes.length t.assign)) in
      let assign = Bytes.make cap '\000' in
      Bytes.blit t.assign 0 assign 0 old;
      t.assign <- assign;
      let watches = Array.make (2 * cap) (Vec.create dummy_clause) in
      Array.blit t.watches 0 watches 0 (2 * old);
      for i = 2 * old to (2 * cap) - 1 do
        watches.(i) <- Vec.create dummy_clause
      done;
      t.watches <- watches
    end
  end

let lit_value t l =
  match Bytes.get t.assign (lit_var l) with
  | '\000' -> 0
  | '\001' -> if l land 1 = 0 then 1 else 2
  | _ -> if l land 1 = 0 then 2 else 1

let assign_lit t l =
  Bytes.set t.assign (lit_var l) (if l land 1 = 0 then '\001' else '\002');
  Vec.push t.trail l

(* Unit propagation from [qhead]; [true] = conflict found. The watch
   lists stay consistent whether or not a conflict is hit, so checks
   can resume after an undo. *)
let propagate t =
  let conflict = ref false in
  while (not !conflict) && t.qhead < Vec.size t.trail do
    let l = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let falsified = lit_not l in
    let ws = t.watches.(l) in
    let i = ref 0 and j = ref 0 in
    while !i < Vec.size ws do
      let c = Vec.get ws !i in
      incr i;
      if c.dead then
        (* Deleted by a P_delete step: drop the watcher. *)
        ()
      else begin
      let lits = c.lits in
      if lits.(0) = falsified then begin
        lits.(0) <- lits.(1);
        lits.(1) <- falsified
      end;
      if lit_value t lits.(0) = 1 then begin
        Vec.set ws !j c;
        incr j
      end
      else begin
        let found = ref false in
        let k = ref 2 in
        let n = Array.length lits in
        while (not !found) && !k < n do
          if lit_value t lits.(!k) <> 2 then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- falsified;
            Vec.push t.watches.(lit_not lits.(1)) c;
            found := true
          end;
          incr k
        done;
        if not !found then begin
          Vec.set ws !j c;
          incr j;
          if lit_value t lits.(0) = 2 then begin
            (* Conflict: keep the remaining watchers and stop. *)
            while !i < Vec.size ws do
              Vec.set ws !j (Vec.get ws !i);
              incr i;
              incr j
            done;
            conflict := true
          end
          else assign_lit t lits.(0)
        end
      end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

let undo_to t mark =
  for i = Vec.size t.trail - 1 downto mark do
    Bytes.set t.assign (lit_var (Vec.get t.trail i)) '\000'
  done;
  Vec.shrink t.trail mark;
  t.qhead <- mark

(* Add a clause to the database under the current top-level
   assignment. Purely structural — validity was established by the
   caller (trusted input or a checked derivation). *)
let add_clause t lits =
  if not t.contradiction then begin
    (* Dedupe — a clause like [x; x] is unit, and watching the same
       literal twice would hide that. Tautologies carry no content. *)
    let lits = List.sort_uniq Int.compare lits in
    if List.exists (fun l -> List.mem (lit_not l) lits) lits then ()
    else begin
    List.iter (fun l -> ensure_var t (lit_var l)) lits;
    (* [arr] gets permuted by watch maintenance; the index keeps its
       own sorted copy for exact-match lookups. *)
    let key_arr = Array.of_list lits in
    let arr = Array.copy key_arr in
    (* Put two non-false literals up front to watch. *)
    let n = Array.length arr in
    let swap a b =
      let x = arr.(a) in
      arr.(a) <- arr.(b);
      arr.(b) <- x
    in
    let placed = ref 0 in
    (try
       for i = 0 to n - 1 do
         if lit_value t arr.(i) <> 2 then begin
           swap !placed i;
           incr placed;
           if !placed = 2 then raise Exit
         end
       done
     with Exit -> ());
    match !placed with
    | 0 ->
      (* every literal already false at top level (or clause empty) *)
      t.contradiction <- true
    | 1 ->
      (* effectively unit: enqueue and propagate at top level *)
      (if lit_value t arr.(0) = 0 then assign_lit t arr.(0));
      if propagate t then t.contradiction <- true
    | _ ->
      let c = { lits = arr; dead = false } in
      Vec.push t.watches.(lit_not arr.(0)) c;
      Vec.push t.watches.(lit_not arr.(1)) c;
      let key = clause_key lits in
      let bucket =
        match Hashtbl.find_opt t.db key with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.add t.db key b;
          b
      in
      bucket := (key_arr, c) :: !bucket
    end
  end

(* Honor a deletion: find a live watched clause with these literals
   and tombstone it. Deletions of clauses the checker never watched
   (units absorbed at add time, tautologies, duplicates) are ignored —
   like classic drup-trim, dropping a deletion only ever makes later
   RUP checks easier for the prover being audited, never unsound. *)
let delete_clause t lits =
  let sorted = List.sort_uniq Int.compare lits in
  let key_arr = Array.of_list sorted in
  match Hashtbl.find_opt t.db (clause_key sorted) with
  | None -> ()
  | Some bucket -> (
    match
      List.find_opt
        (fun (k, c) -> (not c.dead) && arrays_equal k key_arr)
        !bucket
    with
    | None -> ()
    | Some (_, c) ->
      c.dead <- true;
      bucket := List.filter (fun (_, c') -> not c'.dead) !bucket)

(* Reverse-unit-propagation check: assume the negation of every
   literal, propagate, demand a conflict. *)
let rup t lits =
  if t.contradiction then true
  else begin
    let mark = Vec.size t.trail in
    let conflict = ref false in
    List.iter
      (fun l ->
        if not !conflict then begin
          ensure_var t (lit_var l);
          match lit_value t (lit_not l) with
          | 2 -> conflict := true (* l already true: clause implied *)
          | 0 -> assign_lit t (lit_not l)
          | _ -> ()
        end)
      lits;
    let ok = !conflict || propagate t in
    undo_to t mark;
    ok
  end

(* A clause is implied by [sum w_i l_i <= bound] alone iff the weights
   of the constraint literals whose negation appears in the clause
   already overshoot the bound: every assignment falsifying the clause
   makes all those literals true. *)
let pb_implies (wlits, bound) clause =
  let sum =
    List.fold_left
      (fun acc (w, l) -> if List.mem (lit_not l) clause then acc + w else acc)
      0 wlits
  in
  sum > bound

let pp_clause fmt lits =
  Format.fprintf fmt "[%s]"
    (String.concat " " (List.map string_of_int lits))

let check steps =
  let t = create () in
  let err i fmt = Format.kasprintf (fun s -> Error (Printf.sprintf "step %d: %s" i s)) fmt in
  let rec go i = function
    | [] ->
      if t.contradiction then Ok ()
      else Error "no refutation: the proof never derives the empty clause"
    | step :: rest -> (
      match step with
      | Asp.Sat.P_input lits ->
        add_clause t lits;
        go (i + 1) rest
      | Asp.Sat.P_pb_input (wlits, bound) ->
        if List.exists (fun (w, _) -> w <= 0) wlits then
          err i "PB input with non-positive weight"
        else begin
          List.iter (fun (_, l) -> ensure_var t (lit_var l)) wlits;
          Vec.push t.pbs (wlits, bound);
          go (i + 1) rest
        end
      | Asp.Sat.P_pb_lemma (k, lits) ->
        if k < 0 || k >= Vec.size t.pbs then
          err i "PB lemma cites unknown constraint %d" k
        else if not (pb_implies (Vec.get t.pbs k) lits) then
          err i "PB lemma %a does not follow from constraint %d"
            pp_clause lits k
        else begin
          add_clause t lits;
          go (i + 1) rest
        end
      | Asp.Sat.P_derived lits ->
        if not (rup t lits) then
          err i "derived clause %a is not RUP" pp_clause lits
        else begin
          add_clause t lits;
          go (i + 1) rest
        end
      | Asp.Sat.P_delete lits ->
        delete_clause t lits;
        go (i + 1) rest)
  in
  go 0 steps
