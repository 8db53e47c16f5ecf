(** JSON values, parser and printer: the one codec for all JSON the
    system writes or reads — protocol requests and replies, metric and
    trace JSONL, lint and devlint reports, and benchmark reports.

    The toolchain ships no JSON library, so relpipe carries its own, in
    the bottom library so that every writer can use it: a strict
    recursive-descent parser (RFC 8259 values, [\uXXXX] escapes
    including surrogate pairs) and a deterministic printer (object fields
    in construction order, floats as ["%.17g"] so numeric payloads
    round-trip bit-exactly).  Non-finite floats have no JSON encoding;
    {!to_string} renders them as the strings ["inf"], ["-inf"], ["nan"]
    and {!to_float} decodes those strings back, keeping the codec
    total. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in declaration order *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing non-whitespace is an error, and so
    are a number outside RFC 8259's grammar (a leading zero as in [007],
    a point with no digit after it as in [1.]) and a raw byte
    0x00-0x1f inside a string (it must be escaped).
    Errors read ["offset N: message"].  The literal ["-0"] parses as
    [Float (-0.)] (not [Int 0]) so negative zero survives a print→parse
    round-trip bit-identically. *)

val to_string : t -> string
(** Compact single-line rendering (no newlines, no spaces), suitable for
    JSON-lines output. *)

(** {1 Accessors}

    All return [Option]; absent fields and type mismatches are [None]. *)

val member : string -> t -> t option
(** Field of an object ([None] on non-objects too). *)

val to_int : t -> int option
(** [Int], or a [Float] with integral value. *)

val to_float : t -> float option
(** [Int] or [Float], plus the non-finite spellings (["inf"], ["-inf"],
    ["nan"], case-insensitive) as strings. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val float : float -> t
(** Non-finite-safe constructor: finite values become [Float], non-finite
    ones the string spellings accepted by {!to_float}. *)
