(** Streaming atlas driver: a request stream through the engine, chunk
    by chunk, with fully online aggregation.

    The atlas answers "what does this service look like under a
    million-request workload?" without ever materializing the workload:
    the driver holds one [chunk] of requests plus O(1) aggregator state
    ({!Relpipe_obs.Stream} sketches, EWMAs, a bloom filter), so peak
    memory is independent of the stream length.

    {b Determinism.}  Everything in the {!report} derives from response
    {e contents} (outcomes, cache origins, mapping latencies) and the
    event sequence — all of which the engine guarantees are byte-identical
    at every worker count — so {!render} is a worker-count-independent
    artifact; the atlas snapshot test pins it at workers 1, 2 and 8.

    {b Layering.}  This module knows nothing about workload generation or
    transports: the {!source} carries pre-rendered slot texts and an event
    iterator (the CLI adapts [Relpipe_workload.Stream_gen]; the fuzz
    oracle feeds hand-built slots), and [solve] is any batch function —
    an {!Engine.run_requests} closure or a [relpipe serve] client. *)

open Relpipe_model

(** {1 Workload source} *)

type slot = {
  sl_text : string;  (** instance text, rendered once *)
  sl_objective : Instance.objective;
  sl_method : Relpipe_core.Solver.method_;
  sl_class : string;  (** grouping tag for the report (platform class) *)
}

type event = {
  ev_index : int;  (** 0-based stream position *)
  ev_slot : int;  (** index into {!source.slots} *)
  ev_gap_ns : int;  (** arrival gap since the previous event *)
}

type source = {
  slots : slot array;
  events : (event -> unit) -> unit;
      (** Must call the callback once per request, in stream order;
          it is called at most [chunk] requests ahead of the solver. *)
}

(** {1 Running} *)

type report = {
  requests : int;
  pool : int;  (** number of slots *)
  chunk : int;
  chunks : int;  (** solver calls made *)
  solved : int;
  infeasible : int;
  failed : int;
  cache_hits : int;  (** responses with [r_cache = Hit] *)
  distinct_slots : int;  (** slots actually touched (exact) *)
  bloom_dups : int;  (** adds the bloom filter flagged as possibly-seen *)
  bloom_bits : int;
  bloom_hashes : int;
  bloom_set_bits : int;
  latency : Relpipe_obs.Stream.Quantile.t;
      (** sketch over solved mapping latencies *)
  gap_ewma_ns : float;  (** smoothed arrival gap, ns *)
  hit_ewma : float;  (** smoothed instantaneous hit indicator *)
  total_gap_ns : int;  (** exact sum of gaps (virtual stream duration) *)
  curve : (int * float) list;
      (** cumulative hit rate at decade checkpoints (and the stream end) *)
  class_counts : (string * int) list;
      (** requests per slot class, sorted by class tag *)
}

val run :
  ?obs:Relpipe_obs.Obs.t ->
  ?chunk:int ->
  solve:(Protocol.request array -> Protocol.response array) ->
  source ->
  report
(** Stream the source through [solve] in [chunk]-sized batches (default
    [512]).  The latency sketch has relative accuracy [0.01], both
    smoothers weight [0.05], and the duplicate filter is sized for a
    [0.01] false-positive rate at [65536] distinct keys.
    With [obs], records [atlas.*] counters/histograms and [stream.*]
    gauges as the stream progresses.
    @raise Invalid_argument on an empty slot array, a non-positive
    [chunk], an event whose slot is out of range, or [solve] returning
    the wrong number of responses. *)

val hit_rate : report -> float
(** [cache_hits / requests] ([0.] on an empty stream). *)

val render : report -> string
(** The deterministic plain-text atlas report (ends with a newline). *)
