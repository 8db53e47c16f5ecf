(** Tri-criteria optimization: reliability under latency {e and} throughput
    constraints.

    The paper's conclusion announces "the study of the interplay between
    throughput, latency and reliability" as future work.  With the period
    model of {!Relpipe_model.Period} the natural formulation is: minimize
    the failure probability subject to a latency threshold (response time
    per data set) and a period threshold (sustained input rate).

    Replication now pulls in three directions: it improves reliability,
    degrades latency (serialized input sends), and degrades the period
    (both the serialized sends and the extra per-replica work).  The
    module provides the exhaustive optimum for small instances and a
    greedy constructive heuristic, mirroring the bi-criteria tooling. *)

open Relpipe_model

type evaluation = { latency : float; period : float; failure : float }

type constraints = { max_latency : float; max_period : float }

type solution = { mapping : Mapping.t; evaluation : evaluation }

val evaluate : Instance.t -> Mapping.t -> evaluation
(** All three metrics of a mapping. *)

val feasible : ?eps:float -> constraints -> evaluation -> bool

val exact_min_failure : Instance.t -> constraints -> solution option
(** Exhaustive optimum over the space {!Exact.solve} walks.
    @raise Exact.Too_large before enumerating when the space exceeds
    {!Exact.max_mappings}. *)

val greedy_min_failure : Instance.t -> constraints -> solution option
(** Constructive heuristic: balanced interval splits seeded with the
    fastest processors, then replica additions that reduce FP while both
    thresholds hold (the tri-criteria analogue of
    {!Heuristics.split_replicate}). *)

val pp_evaluation : Format.formatter -> evaluation -> unit
