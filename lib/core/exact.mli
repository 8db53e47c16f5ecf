(** Exhaustive reference solvers: the test oracle.

    These enumerate the full mapping space (interval partitions times
    disjoint replication-set assignments), so they run in exponential time.
    {!Solver}'s exact answers come from {!Bb}; these exist to (i) certify
    the polynomial algorithms, the heuristics and the branch and bound on
    small instances, as tests and fuzz oracles, (ii) decide the NP-hard
    instances produced by the reductions, and (iii) run the experiments
    on the case the paper leaves open (Communication Homogeneous with
    heterogeneous failures).  Guard rail: a search whose space, counted
    in closed form, exceeds its budget is refused before any
    enumeration. *)

open Relpipe_model

exception Too_large of string
(** Raised, before any work, by a search whose mapping space exceeds its
    budget. *)

val iter_mappings : n:int -> m:int -> (Mapping.t -> unit) -> unit
(** Enumerate every interval mapping with replication of an [n]-stage
    pipeline over [m] processors: all interval partitions (at most
    [min n m] parts) combined with all assignments of pairwise-disjoint
    non-empty processor subsets.
    @raise Invalid_argument when [m] exceeds {!Relpipe_util.Bitset.max_width}. *)

val count_mappings : n:int -> m:int -> unit -> int
(** Size of the space {!iter_mappings} walks, in closed form without
    enumerating: the sum over p of C(n-1, p-1) p! S(m+1, p+1), with S
    the Stirling numbers of the second kind.  Saturates at [max_int]
    instead of overflowing. *)

val max_mappings : int
(** [5_000_000]: the mapping space {!solve} and
    {!Tri.exact_min_failure} accept. *)

val within_budget : budget:int -> n:int -> m:int -> bool
(** [count_mappings ~n ~m () <= budget]: the one check every exact
    search runs before any work.
    @raise Invalid_argument as {!iter_mappings} does when [m] exceeds
    {!Relpipe_util.Bitset.max_width}. *)

val check_budget : budget:int -> n:int -> m:int -> unit
(** {!within_budget} as a refusal.
    @raise Too_large ["Exact.solve: more than <budget> mappings (n=.. m=..)"]
    when the space exceeds [budget]. *)

val solve : Instance.t -> Instance.objective -> Solution.t option
(** Optimal interval mapping for the objective by full enumeration.
    @raise Too_large before enumerating when the space exceeds
    {!max_mappings}. *)

val solve_single_interval :
  Instance.t -> Instance.objective -> Solution.t option
(** Optimum restricted to single-interval mappings (enumerates the [2^m - 1]
    replication sets) — the restricted space that Lemma 1 proves sufficient
    on Fully Homogeneous and Comm. Homogeneous + Failure Homogeneous
    platforms. *)

val min_latency_unreplicated : Instance.t -> (float * Mapping.t) option
(** Exact minimum-latency {e interval} mapping without replication (each
    interval on one distinct processor) — the problem the paper leaves open
    on Fully Heterogeneous platforms (Section 4.1).  Enumerates interval
    partitions times injective processor choices. *)

val min_latency : Instance.t -> float
(** Minimum latency over all interval mappings with replication (no
    failure constraint). *)
