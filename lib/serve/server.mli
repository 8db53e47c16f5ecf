(** The live daemon: listeners, per-session I/O threads, one
    dispatcher thread (the caller's), all multiplexed onto the engine's
    domain pool.

    {b Backpressure.}  Two bounded stages keep a slow or flooding
    client away from the pool: a per-session in-flight window (the
    reader blocks — and so does the client's socket — while too many of
    that session's lines are unanswered or unwritten) and a bounded
    global admission queue (all readers block when the dispatcher falls
    behind).  The dispatcher never blocks on a session; writer threads
    absorb slow consumers.

    {b Drain.}  {!signal_drain} is safe to call from a signal handler
    (it only sets an atomic flag and writes a wake-up byte).  The server
    then stops accepting, EOFs the receive side of every session,
    answers {e everything already admitted}, flushes the writers and
    returns — the [relpipe serve] process exits 0.  A [shutdown]
    protocol request triggers exactly the same path.

    {b Recording.}  With [record], every dispatch batch is appended to
    a [.session] transcript ({!Script}), tick boundaries included — the
    input {!Replay} needs to reproduce the run byte-for-byte at any
    worker count. *)

type endpoint = Unix_sock of string  (** socket path (replaced if stale) *)
  | Tcp of string * int  (** host, port (0 picks a free port) *)

type config = {
  endpoints : endpoint list;  (** at least one *)
  queue_capacity : int;  (** global admission bound, default 256 *)
  session_window : int;  (** per-session in-flight bound, default 32 *)
  record : string option;  (** [.session] transcript path *)
}

val default_config : config
(** No endpoints (callers must add one), queue 256, window 32. *)

type report = {
  accepted : int;  (** sessions accepted over the run *)
  ticks : int;  (** dispatch batches formed *)
  answered : int;  (** reply lines produced *)
}

val run :
  ?obs:Relpipe_obs.Obs.t ->
  engine:Relpipe_service.Engine.t ->
  ?config:config ->
  ?on_ready:(Unix.sockaddr list -> unit) ->
  unit ->
  report
(** Serve until drained; the calling thread becomes the dispatcher.
    [on_ready] fires once the listeners are bound (its [sockaddr]s
    carry the actual TCP port when [Tcp (_, 0)] was requested), before
    the first accept — the hook tests and the CLI use to report
    readiness.  Installs [Signal_ignore] on [SIGPIPE].  Pass the same
    [obs] as the engine's so the [stats] method sees all registries.

    @raise Invalid_argument when [config.endpoints] is empty. *)

val signal_drain : unit -> unit
(** Request drain: async-signal-safe (atomic flag + self-pipe byte).
    Wire it to SIGTERM/SIGINT in the CLI. *)

val draining : unit -> bool
(** Whether a drain has been requested (process-wide). *)
