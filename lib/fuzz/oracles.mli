(** The registered oracle suite.

    Eight invariants, each cross-checking an independent implementation
    pair (differential testing) or a re-derivable property of the paper's
    algorithms:

    + [interval-dp] — the [O(n^2 m^2 2^m)] interval DP of
      {!Relpipe_core.Interval_exact} agrees with brute-force interval
      enumeration ({!Relpipe_core.Exact.min_latency_unreplicated}) on
      small instances, and its mapping prices at the claimed latency;
    + [general-shortest-path] — the four general-mapping solvers
      (Dijkstra, Bellman–Ford, DAG sweep, direct DP) agree, and their
      optimum lower-bounds the interval optimum (Theorem 4 vs the
      interval restriction);
    + [heuristics-pareto] — every heuristic's solution is feasible,
      evaluation-consistent, never beats the exhaustive optimum, and is
      dominated-or-equal by the exhaustive Pareto front;
    + [validate-lint] — [Solver.run Auto] outputs survive
      {!Relpipe_core.Validate.check} and [relpipe lint] with zero
      [Error]-level diagnostics;
    + [canon-invariance] — renumbering the processors of a
      link-homogeneous instance yields the same {!Relpipe_service.Canon}
      key, a cache hit through the batch {!Relpipe_service.Engine}, and a
      permutation-translated identical mapping;
    + [text-roundtrip] — {!Relpipe_model.Textio},
      {!Relpipe_model.Mapping_syntax} and
      {!Relpipe_service.Protocol} print→parse→print byte-identically;
    + [json-floats] — {!Relpipe_obs.Json} number round-trips are
      bit-identical on adversarial floats (subnormals, [-0.], 1e±308,
      non-finite spellings, random bit patterns);
    + [lru] — {!Relpipe_util.Lru} matches a reference model under random
      op sequences at the edge capacities 0 and 1 and a random small
      capacity. *)

val all : unit -> Oracle.t list
(** The registry, in the documented order. *)

val names : unit -> string list

val find : string -> Oracle.t option

(** {1 Exposed single checks}

    The reusable cores of the property oracles, for fixed-seed unit
    tests. *)

val json_float_roundtrip : float -> (unit, string) result
(** [parse (to_string (Json.float v))] decodes to a bit-identical float
    (NaNs compare by class: the payload has no textual spelling). *)

val lru_check :
  Relpipe_util.Rng.t -> capacity:int -> ops:int -> (unit, string) result
(** Drive a fresh [Lru.create ~capacity] with [ops] random operations
    drawn from [rng], mirroring every step against a reference
    association-list model: find results, lengths and the hit/miss/
    eviction counters must agree throughout. *)
