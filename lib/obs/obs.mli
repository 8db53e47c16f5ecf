(** The observability context: one {!Metric.t} registry, an optional
    {!Trace.t} tracer and the {!Clock.t} they share.

    Instrumented code takes a [t option] (or reads the domain-local
    {!ambient}) and calls the [option]-accepting conveniences below,
    which do nothing on [None].  [None] is the one way to switch
    observability off; a context always records into a live registry,
    whose cost on the solver kernels [bench/main.exe --obs-guard] holds
    under 2%.  Recording never perturbs results (the
    [metrics-invariance] fuzz oracle checks this end to end).

    {b Parallel work.}  {!fork} derives a per-job view: the {e same}
    metrics registry (counters are atomic and integer-valued, so their
    totals are scheduling-independent) but a private tracer over a
    {!Clock.fork}ed clock.  The parent merges children back {e in job
    order} with {!merge_child}, keeping traces byte-identical across
    worker counts under a virtual clock. *)

type t = {
  metrics : Metric.t;
  trace : Trace.t option;
  clock : Clock.t;
}

val create : ?tracing:bool -> ?clock:Clock.t -> unit -> t
(** Fresh registry; [tracing] (default [false]) attaches a tracer;
    [clock] defaults to {!Clock.monotonic}. *)

val fork : t -> int -> t
(** The per-job view for job [i] (see above). *)

val merge_child : into:t -> t -> unit
(** Append a forked child's trace events to the parent's tracer (no-op
    when either side does not trace). *)

(** {1 Ambient context}

    A domain-local slot for code (DP kernels, branch-and-bound) whose
    call chains would otherwise need an [obs] argument through many
    layers.  Workers set it around each job; the default is [None]. *)

val ambient : unit -> t option
val set_ambient : t option -> unit

val with_ambient : t option -> (unit -> 'a) -> 'a
(** Set, run, restore (exception-safe). *)

(** {1 Option-accepting conveniences}

    All are no-ops on [None]; metric lookups go through the registry by
    name. *)

val add : t option -> string -> int -> unit
val incr : t option -> string -> unit
val observe : t option -> string -> float -> unit
val gauge_set : t option -> string -> int -> unit
val gauge_max : t option -> string -> int -> unit

val span : t option -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Runs the body directly when tracing is off. *)

val instant : t option -> ?attrs:(string * string) list -> string -> unit

(** {1 Snapshots} *)

val metrics_jsonl : t -> string
(** {!Metric.render_jsonl} of the registry (sorted by name). *)

val trace_jsonl : t -> string
(** The trace as JSONL, [""] when tracing is off. *)
