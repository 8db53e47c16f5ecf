(** Tolerant floating-point comparison helpers.

    Latency and failure-probability computations mix sums of quotients, so
    exact equality is meaningless; all cross-checks in relpipe (analytic vs
    simulated, exact vs DP) go through these helpers. *)

val default_eps : float
(** Absolute/relative tolerance used when none is supplied ([1e-9]). *)

val approx_eq : ?eps:float -> float -> float -> bool
(** [approx_eq a b] holds when [a] and [b] differ by at most [eps]
    absolutely, or by at most [eps] relative to the larger magnitude.
    Two non-finite values are equal iff they are identical. *)

val leq : ?eps:float -> float -> float -> bool
(** [leq a b] is [a <= b] up to tolerance: true when [a < b] or
    [approx_eq a b]. *)

val approx_eq_rel : ?eps:float -> float -> float -> bool
(** Like {!approx_eq} but with a {e relative-only} tolerance — required when
    comparing quantities that are legitimately tiny (e.g. failure
    probabilities near the [exp (-S/2)] thresholds of the Theorem 7
    reduction), where an absolute [1e-9] slack would blur distinct
    values. *)

val leq_rel : ?eps:float -> float -> float -> bool
(** [a <= b] up to relative-only tolerance. *)

val geq : ?eps:float -> float -> float -> bool
(** Mirror of {!leq}. *)

val compare : ?eps:float -> float -> float -> int
(** Three-way comparison collapsing approximately equal values to [0]. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] restricts [x] to [\[lo, hi\]]. *)

val same_bits : float -> float -> bool
(** Bit-for-bit equality, with no tolerance: [same_bits 0.0 (-0.0)] is
    false, and a NaN equals only a NaN with the same payload.  For checks
    that a replay, a warm re-solve or a round-trip reproduced a value
    exactly. *)

val is_probability : float -> bool
(** True when the value is finite and within [\[0, 1\]] (no tolerance). *)
