(** The metrics registry: named counters, gauges and histograms.

    {b Determinism.}  Counters and gauges hold integers behind [Atomic]
    operations, and histogram bucket counts are integers, so their final
    values are independent of the order in which concurrent domains
    record — a batch instrumented at 8 workers snapshots the same bytes
    as at 1 worker.  Histogram {e sums} are floats; they stay exact (and
    therefore order-independent) as long as the recorded values are
    integral and small enough to add exactly, which is the case for the
    virtual-clock durations the test harness pins.

    Every registry records: code switches observability off by passing
    no {!Obs.t} at all ([None]), never through a registry. *)

module Counter : sig
  type t

  val make : unit -> t
  (** A standalone (unregistered) counter. *)

  val incr : t -> unit

  val add : t -> int -> unit
  (** Atomic: concurrent adds from multiple domains lose no updates. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val make : unit -> t
  val set : t -> int -> unit

  val record_max : t -> int -> unit
  (** Monotone high-water mark (atomic compare-and-set loop). *)

  val value : t -> int
end

module Histogram : sig
  (** Fixed log-scale buckets: bucket [0] is the underflow bucket
      (values [< 1.0], including zero, negatives and NaN), buckets
      [1..40] hold values in [[2^(i-1), 2^i)], and the last bucket
      collects everything [>= 2^40] (including [infinity]).  Every float
      lands in exactly one bucket. *)

  type t

  val num_buckets : int
  (** [42]. *)

  val bucket_index : float -> int
  (** Total function into [0 .. num_buckets - 1]. *)

  val bucket_lower : int -> float
  (** Inclusive lower edge of a bucket ([neg_infinity] for bucket 0). *)

  val make : unit -> t

  val observe : t -> float -> unit
  (** Record one value (mutex-protected; safe from multiple domains). *)

  val count : t -> int
  val sum : t -> float

  val counts : t -> int array
  (** Per-bucket counts, length {!num_buckets} (a copy). *)

  val merge : t -> t -> t
  (** A fresh histogram holding both operands' samples: bucket counts and
      totals add; the sum is [sum a +. sum b]. *)
end

type t
(** A registry: a mutable name -> instrument table. *)

val create : unit -> t

val counter : t -> string -> Counter.t
(** Get or create.  @raise Invalid_argument if the name is already bound
    to a different instrument kind. *)

val gauge : t -> string -> Gauge.t
val histogram : t -> string -> Histogram.t

type view =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of { count : int; sum : float }
      (** Snapshot of one instrument, for table renderers. *)

val bindings : t -> (string * view) list
(** Current instruments with their values, sorted by name. *)

val view_to_json : string * view -> Json.t
(** The one metric object, shared by the {!render_jsonl} lines and the
    serve [stats] reply:
    [{"name":N,"type":"counter"|"gauge","value":V}] or
    [{"name":N,"type":"histogram","count":C,"sum":S}], where an integral
    sum prints without a fraction ([2000], not [2000.0]). *)

val view_of_json : Json.t -> (string * view, string) result
(** The inverse of {!view_to_json}; extra fields such as [buckets] are
    ignored. *)

val render_jsonl : t -> string
(** One JSON object per line, sorted by metric name (byte-deterministic
    given deterministic instrument contents):
    {v
{"name":"engine.jobs","type":"counter","value":3}
{"name":"pool.task.duration_ns","type":"histogram","count":2,"sum":2000,"buckets":[[11,2]]}
    v}
    Each line is the {!view_to_json} object; a histogram's line adds
    [buckets], the [[index, count]] pairs of its non-empty buckets. *)
