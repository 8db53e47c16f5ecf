(** Injectable time source for metrics and tracing.

    Every instrumented component reads time through a [Clock.t] so tests
    can swap the wall clock ({!monotonic}: despite the name it reads
    [Unix.gettimeofday], which a change of system time moves) for a
    {e virtual} one whose reads are a pure function of the read count:
    each [now_ns] returns the current virtual time and advances it by a
    fixed tick.  Traces and duration histograms recorded under a virtual
    clock are therefore byte-stable across runs — and, combined with
    {!fork}, across worker counts.

    {!fork} derives a deterministic child clock for parallel work: job
    [i] gets its own virtual timeline starting at [(i + 1)] seconds, so
    timestamps taken on worker domains depend only on the job index,
    never on scheduling.  Forking the wall clock returns the wall
    clock. *)

type t

val monotonic : unit -> t
(** Wall-clock nanoseconds (via [Unix.gettimeofday]; resolution is
    platform-dependent). *)

val virtual_ : ?start:int -> ?tick:int -> unit -> t
(** A deterministic clock: the first [now_ns] returns [start] (default
    [0]) and every read advances time by [tick] nanoseconds (default
    [1000], i.e. 1us per read). *)

val is_virtual : t -> bool

val now_ns : t -> int
(** Current time in integer nanoseconds.  On a virtual clock this
    advances the clock by its tick. *)

val fork : t -> int -> t
(** [fork clock i] is a deterministic child clock for parallel job [i]:
    virtual clocks yield a fresh virtual clock based at
    [(i + 1) * 1_000_000_000] with the same tick; the wall clock is
    returned unchanged. *)
