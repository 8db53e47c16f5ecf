module Loc = Relpipe_util.Loc

type t = {
  rule : string;
  severity : Severity.t;
  message : string;
  span : Loc.span option;
}

let make ~rule ~severity ?span fmt =
  Format.kasprintf (fun message -> { rule; severity; message; span }) fmt

let compare_span_opt a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some a, Some b -> Loc.compare_span a b

let compare a b =
  let c = Int.compare (Severity.rank b.severity) (Severity.rank a.severity) in
  if c <> 0 then c
  else
    let c = compare_span_opt a.span b.span in
    if c <> 0 then c else String.compare a.rule b.rule

let sort ds = List.stable_sort (fun a b -> compare a b) ds

let max_severity = function
  | [] -> None
  | d :: tl ->
      Some (List.fold_left (fun acc d -> Severity.max acc d.severity) d.severity tl)

let exit_code ds = Severity.exit_code (max_severity ds)

let errors ds = List.filter (fun d -> d.severity = Severity.Error) ds

let pp ?file ppf d =
  (match file with Some f -> Format.fprintf ppf "%s:" f | None -> ());
  (match d.span with
  | Some span -> Format.fprintf ppf "%a: " Loc.pp_span span
  | None -> if file <> None then Format.pp_print_string ppf " ");
  Format.fprintf ppf "%a[%s]: %s" Severity.pp d.severity d.rule d.message

let to_string ?file d = Format.asprintf "%a" (pp ?file) d

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = Relpipe_obs.Json

let span_json = function
  | None -> Json.Null
  | Some { Loc.start; stop } ->
      Json.Obj
        [
          ("line", Json.Int start.Loc.line); ("col", Json.Int start.Loc.col);
          ("end_line", Json.Int stop.Loc.line); ("end_col", Json.Int stop.Loc.col);
        ]

let json_fields d =
  [
    ("rule", Json.Str d.rule);
    ("severity", Json.Str (Severity.to_string d.severity));
    ("message", Json.Str d.message);
    ("span", span_json d.span);
  ]

let to_json d = Json.to_string (Json.Obj (json_fields d))

let report_to_json ?file ds =
  let ds = sort ds in
  let count sev =
    Json.Int (List.length (List.filter (fun d -> d.severity = sev) ds))
  in
  let file = match file with Some f -> [ ("file", Json.Str f) ] | None -> [] in
  Json.to_string
    (Json.Obj
       ((("version", Json.Int 1) :: file)
       @ [
           ("findings", Json.List (List.map (fun d -> Json.Obj (json_fields d)) ds));
           ( "summary",
             Json.Obj
               [
                 ("error", count Severity.Error);
                 ("warning", count Severity.Warning);
                 ("hint", count Severity.Hint);
               ] );
         ]))
