(** Exhaustive reference solvers.

    These enumerate the full mapping space (interval partitions times
    disjoint replication-set assignments), so they run in exponential time
    and exist to (i) certify the polynomial algorithms and heuristics on
    small instances, (ii) decide the NP-hard instances produced by the
    reductions, and (iii) solve the cases whose complexity the paper leaves
    open (Communication Homogeneous with heterogeneous failures).  Guard
    rails: enumeration size is capped (configurable) and exceeding the cap
    raises. *)

open Relpipe_model

exception Too_large of string
(** Raised when the enumeration would exceed the configured budget. *)

val iter_mappings : n:int -> m:int -> (Mapping.t -> unit) -> unit
(** Enumerate every interval mapping with replication of an [n]-stage
    pipeline over [m] processors: all interval partitions (at most
    [min n m] parts) combined with all assignments of pairwise-disjoint
    non-empty processor subsets.
    @raise Invalid_argument when [m] exceeds {!Relpipe_util.Bitset.max_width}. *)

val count_mappings : n:int -> m:int -> unit -> int
(** Size of the space {!iter_mappings} walks. *)

val solve : ?budget:int -> Instance.t -> Instance.objective -> Solution.t option
(** Optimal interval mapping for the objective by full enumeration.
    [budget] caps the number of evaluated mappings (default [5_000_000]).
    @raise Too_large when the budget is exceeded. *)

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
