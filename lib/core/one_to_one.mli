(** One-to-one latency minimization on Fully Heterogeneous platforms
    (paper Theorem 3).

    Each of the [n] stages goes to a distinct processor ([n <= m], no
    replication).  The paper proves this NP-hard by reduction from TSP, so
    we provide an exact branch-and-bound for the small instances used to
    validate the reduction, plus a greedy construction and a local search
    for larger instances. *)

open Relpipe_model

val cost : Instance.t -> int array -> float
(** Latency of the one-to-one assignment [procs] (stage [k] on
    [procs.(k-1)]); the entries must be distinct.  Equals
    {!Relpipe_model.Latency.of_assignment} for injective assignments.
    @raise Invalid_argument on arity mismatch. *)

val exact : Instance.t -> (float * Mapping.t) option
(** Optimal one-to-one mapping by branch-and-bound over injective
    assignments.  [None] when [n > m].  Worst-case exponential: intended
    for [n <= 10] or so. *)

val greedy : Instance.t -> (float * Mapping.t) option
(** Stage-by-stage greedy: each stage takes the unused processor that
    minimizes the incremental (communication + computation) cost. *)

val local_search : ?seed:int -> Instance.t -> (float * Mapping.t) option
(** Greedy start plus hill climbing over two moves — swapping the
    processors of two stages, and retargeting one stage to an unused
    processor — with 8 random restarts. *)

val exact_bicriteria : Instance.t -> Instance.objective -> Solution.t option
(** Optimal one-to-one mapping for a bi-criteria objective.  Without
    replication the failure probability is
    [1 - prod_k (1 - fp_(u_k))] over the enrolled processors, so both
    latency and FP grow monotonically along the branch-and-bound's
    partial assignments — both are used as pruning bounds.  [None] when
    [n > m] or no assignment meets the threshold. *)
