(** Newline-delimited framing over a raw file descriptor, with a hard
    per-line size guard so one client cannot balloon its session buffer.

    The reader is blocking and single-threaded (one per session); CRLF
    line endings are tolerated and a final unterminated line before EOF
    still counts as a line. *)

type reader

val reader : ?max_line:int -> Unix.file_descr -> reader
(** [max_line] is the per-line guard in bytes (default 16 MiB). *)

type read_result =
  | Line of string  (** next frame, newline stripped *)
  | Eof  (** orderly end of stream (also connection reset) *)
  | Too_long  (** the guard tripped; the session should be dropped *)

val read_line : reader -> read_result
(** Blocks until a full line, EOF or the size guard.  [EINTR] is
    retried; connection errors read as {!Eof}. *)

val write_line : Unix.file_descr -> string -> unit
(** Write [line ^ "\n"], retrying short writes and [EINTR].  Connection
    errors ([EPIPE], ...) escape as [Unix.Unix_error] — the caller owns
    dead-peer policy. *)
