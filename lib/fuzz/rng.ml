(* Deterministic splitmix64 PRNG. The harness never touches [Random]:
   a (seed, round) pair fully determines a universe, so every failure
   report is reproducible from its two integers. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.mul (Int64.of_int (seed + 1)) golden }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (next t) land max_int mod n

let range t lo hi = lo + int t (hi - lo + 1)

let bool t = int t 2 = 0

let chance t pct = int t 100 < pct

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))
