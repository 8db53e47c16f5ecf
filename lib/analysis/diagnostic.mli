(** A single lint finding: a stable rule ID, a severity, a message and an
    optional source span (findings on constructed in-memory values have no
    span). *)

type t = {
  rule : string;  (** stable ID, e.g. ["RP-I001"] *)
  severity : Severity.t;
  message : string;
  span : Relpipe_util.Loc.span option;
}

val make :
  rule:string ->
  severity:Severity.t ->
  ?span:Relpipe_util.Loc.span ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [make ~rule ~severity ?span fmt ...] formats the message. *)

val compare : t -> t -> int
(** Worst severity first, then by source position, then rule ID. *)

val sort : t list -> t list

val max_severity : t list -> Severity.t option

val exit_code : t list -> int
(** {!Severity.exit_code} of {!max_severity}. *)

val errors : t list -> t list
(** Only the [Error]-level findings. *)

val pp : ?file:string -> Format.formatter -> t -> unit
(** ["file:LINE:COL-COL: severity[RULE]: message"]; the position part is
    omitted for spanless findings, the file part when [file] is absent. *)

val to_string : ?file:string -> t -> string

(** {1 JSON} *)

val json_fields : t -> (string * Relpipe_obs.Json.t) list
(** The fields of {!to_json}'s object, in order, for reports that embed
    a finding in a larger object. *)

val to_json : t -> string
(** One finding as a JSON object:
    [{"rule":…,"severity":…,"message":…,"span":{"line":…,"col":…,
    "end_line":…,"end_col":…}}]; ["span"] is [null] when absent. *)

val report_to_json : ?file:string -> t list -> string
(** The full report object documented in the README:
    [{"version":1,"file":…,"findings":[…],
    "summary":{"error":N,"warning":N,"hint":N}}]. *)
