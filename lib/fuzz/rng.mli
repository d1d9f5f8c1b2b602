(** Deterministic splitmix64 PRNG.

    The harness never touches [Random]: a (seed, round) pair fully
    determines a universe, so any failure is reproducible from two
    integers in its report. *)

type t

val create : int -> t

val next : t -> int64

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val bool : t -> bool

val chance : t -> int -> bool
(** [chance t pct] is true with probability [pct]/100. *)

val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on the empty list. *)
