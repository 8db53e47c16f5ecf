(** The batch-solving engine: canonicalization, result cache, worker
    pool, protocol — assembled.

    A batch runs in four phases; only phase 3 is parallel, and its jobs
    are pure, so the whole engine is {b deterministic}: the same request
    stream against a fresh engine produces byte-identical response lines
    for {e every} worker count and scheduling.

    + {b prepare} (sequential) — resolve [instance_file] sources, parse
      instance text ({!Relpipe_analysis.Analysis.parse_instance_text}),
      canonicalize ({!Canon.normalize});
    + {b plan} (sequential, submission order) — look each canonical key
      up in the LRU result cache; group unresolved duplicates behind the
      first request with that key (a {e shared} hit);
    + {b solve} (parallel) — run [Solver.run] once per unique miss on the
      {!Relpipe_pool.Pool};
    + {b emit} (sequential) — populate the cache in job order, re-index
      cached mappings through {!Canon.translate} for symmetric hits, and
      encode responses in submission order.

    Cached entries store the full [Solver.run] outcome — including typed
    errors and definitive infeasibility — so failing requests are not
    re-solved either. *)

open Relpipe_model

type t

val create :
  ?obs:Relpipe_obs.Obs.t ->
  ?workers:int ->
  ?cap_to_cpus:bool ->
  ?cache_capacity:int ->
  ?cache_shards:int ->
  unit ->
  t
(** [workers] defaults to {!Relpipe_pool.Pool.cpu_count}[ ()] and is
    clamped by [min(requested, cpu_count)] unless [cap_to_cpus] is [false]
    (testing: oversubscribe a small machine).  [cache_capacity] (default
    [1024]) bounds the LRU; [cache_shards] (default [1]) splits it into
    that many independently locked shards ({!Relpipe_util.Lru.Sharded}) so
    a serve daemon can share one engine across concurrent sessions — with one
    shard the hit/miss/eviction sequence is exactly the historical
    single-cache behaviour.  A request that carries no ["budget"] gets
    {!Relpipe_core.Solver.default_exact_budget}.

    The engine always records, into [obs] or, when given none, into a
    registry of its own: counters
    [engine.requests/solved/infeasible/failed/jobs/shared], the LRU's
    [engine.cache.hits/misses/evictions] (the counters {!stats} reads)
    and the solver kernels' metrics; when [obs] traces, also phase spans
    ([engine.phase.prepare/plan/solve/emit]), one [engine.job] span per
    solver run (on a per-job forked clock, merged back in job order) and
    a per-response [engine.request] instant.  Instrumentation never changes
    responses, and under a virtual clock the recorded trace and metric
    snapshots are byte-identical for every worker count. *)

val workers : t -> int
(** The effective worker count after clamping. *)

val run_batch : t -> (Protocol.request, string) result array -> Protocol.response array
(** Answer a batch.  [Error msg] slots (e.g. protocol decode failures)
    become per-request [error] responses, never exceptions; response [i]
    answers request [i].  The cache persists across calls on the same
    engine. *)

val run_requests : t -> Protocol.request array -> Protocol.response array
(** {!run_batch} over all-well-formed requests. *)

val run_lines : t -> string list -> string list
(** Decode JSONL request lines (blank lines are dropped), run the batch,
    encode JSONL response lines in request order. *)

val normalize :
  ?method_:Relpipe_core.Solver.method_ ->
  ?budget:int ->
  Instance.t ->
  Instance.objective ->
  Canon.normalized
(** The canonical form every engine computes for a request ([budget]
    defaults to {!Relpipe_core.Solver.default_exact_budget}, [method_] to
    [Auto]) — the hook the fuzzer's cache-invariance oracle uses to
    compare keys without running a solve. *)

val solve_instance :
  t ->
  ?method_:Relpipe_core.Solver.method_ ->
  ?budget:int ->
  Instance.t ->
  Instance.objective ->
  Protocol.response
(** One in-memory instance through the engine (index 0, no id) — the
    cache-aware replacement for a bare [Solver.run] in sweep loops. *)

(** {1 Statistics} *)

type stats = {
  requests : int;  (** requests answered since [create] *)
  solved : int;
  infeasible : int;
  failed : int;
  jobs : int;  (** solver executions (unique cache misses) *)
  shared : int;  (** within-batch duplicates served from a sibling's job *)
  cache : Relpipe_util.Lru.stats;
  cache_len : int;
  cache_capacity : int;
  effective_workers : int;
}

val stats : t -> stats
(** Read from the engine's registry (an unrecorded counter is [0]). *)

val hit_rate : stats -> float
(** [(cache.hits + shared) / requests], [0.] on an empty engine — the
    fraction of requests that did not need their own solver run. *)

val pp_stats : Format.formatter -> stats -> unit
(** The multi-line [--stats] report. *)
