module Severity = Relpipe_analysis.Severity
module Diagnostic = Relpipe_analysis.Diagnostic
module Loc = Relpipe_util.Loc
module Json = Relpipe_obs.Json

(* Pseudo-rules owned by the driver itself. *)
let rule ~id ~severity ~title ~rationale ~example =
  Drule.register
    { Drule.id; family = "driver"; severity; title; rationale; example }

let r_parse =
  rule ~id:"RP-S001" ~severity:Severity.Error ~title:"source file does not parse"
    ~rationale:
      "devlint parses with the compiler's own parser; a file it cannot \
       parse cannot be vouched for (and will not build either)."
    ~example:"let x = (   (* unclosed *)"

let r_stale_baseline =
  rule ~id:"RP-S002" ~severity:Severity.Hint ~title:"stale baseline entry"
    ~rationale:
      "A devlint.baseline entry that matches no finding usually outlives \
       the code it vetted; prune it so the allowlist stays an honest \
       inventory of exceptions."
    ~example:"RP-S202 lib/gone.ml -- removed module"

(* The four rule families, keyed as `--family` selects them. *)
let passes =
  [
    ("compare", Rule_compare.check);
    ("determinism", Rule_determinism.check);
    ("race", Rule_race.check);
    ("obs-names", Rule_obs_names.check);
  ]

let rules () =
  ignore Rule_compare.rules;
  ignore Rule_determinism.rules;
  ignore Rule_race.rules;
  ignore Rule_obs_names.rules;
  Drule.all ()

(* ------------------------------------------------------------------ *)
(* In-source suppressions                                              *)
(* ------------------------------------------------------------------ *)

(* A comment containing "devlint: allow RP-Sxxx [RP-Syyy ...] [— reason]"
   suppresses those rules on its own line and the next one (so the
   comment can sit on the offending line or immediately above it). *)
let allow_marker = "devlint: allow"

let rule_ids_after line start =
  let n = String.length line in
  let is_id_char = function
    | 'A' .. 'Z' | '0' .. '9' | '-' -> true
    | _ -> false
  in
  let rec tokens i acc =
    if i >= n then acc
    else if is_id_char line.[i] then begin
      let j = ref i in
      while !j < n && is_id_char line.[!j] do incr j done;
      let tok = String.sub line i (!j - i) in
      let acc =
        if String.length tok > 3 && String.sub tok 0 3 = "RP-" then tok :: acc
        else acc
      in
      tokens !j acc
    end
    else tokens (i + 1) acc
  in
  List.rev (tokens start [])

let find_substring hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub hay i m = needle then Some i
    else go (i + 1)
  in
  go 0

(* (line, rule) pairs suppressed in this text. *)
let suppressions text =
  let acc = ref [] in
  List.iteri
    (fun i line ->
      match find_substring line allow_marker with
      | None -> ()
      | Some at ->
          let ids = rule_ids_after line (at + String.length allow_marker) in
          List.iter
            (fun id -> acc := (i + 1, id) :: (i + 2, id) :: !acc)
            ids)
    (String.split_on_char '\n' text);
  !acc

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type finding = { file : string; diag : Diagnostic.t }

type report = {
  findings : finding list;  (** survivors, sorted file-major *)
  files : int;
  suppressed : int;
  baselined : int;
}

let compare_pair (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let span_key = function
      | Some s -> (s.Loc.start.Loc.line, s.Loc.start.Loc.col)
      | None -> (0, 0)
    in
    let c =
      compare_pair (span_key a.diag.Diagnostic.span)
        (span_key b.diag.Diagnostic.span)
    in
    if c <> 0 then c
    else String.compare a.diag.Diagnostic.rule b.diag.Diagnostic.rule

let selected_passes families =
  match families with
  | [] -> List.map snd passes
  | fs ->
      List.filter_map
        (fun (name, check) -> if List.mem name fs then Some check else None)
        passes

let run ?(baseline = Baseline.empty) ?(families = []) sources =
  ignore (rules ());
  let checks = selected_passes families in
  let suppressed = ref 0 and baselined = ref 0 and acc = ref [] in
  let nfiles = ref 0 in
  List.iter
    (fun (path, text) ->
      incr nfiles;
      match Source.parse_text ~path text with
      | Error { Source.span; reason } ->
          acc :=
            { file = Source.normalize_path path;
              diag = Drule.diag r_parse ~span "%s" reason }
            :: !acc
      | Ok src ->
          let allows = suppressions text in
          let emit d =
            let line =
              match d.Diagnostic.span with
              | Some s -> s.Loc.start.Loc.line
              | None -> 0
            in
            if List.mem (line, d.Diagnostic.rule) allows then incr suppressed
            else if Baseline.matches baseline ~file:src.Source.path d then
              incr baselined
            else acc := { file = src.Source.path; diag = d } :: !acc
          in
          List.iter (fun check -> check src emit) checks)
    sources;
  (* Under --family filtering, a baseline entry for an unselected rule
     never had a chance to match; only selected families can be stale. *)
  let could_fire (e : Baseline.entry) =
    families = []
    ||
    match Drule.find e.Baseline.rule with
    | Some r -> List.mem r.Drule.family families
    | None -> true
  in
  let stale =
    List.map
      (fun (e : Baseline.entry) ->
        {
          file = baseline.Baseline.source;
          diag =
            Drule.diag r_stale_baseline
              "baseline entry \"%s %s%s\" matched no finding; prune it"
              e.Baseline.rule e.Baseline.path
              (match e.Baseline.line with
              | Some l -> ":" ^ string_of_int l
              | None -> "");
        })
      (List.filter could_fire (Baseline.unused baseline))
  in
  {
    findings = List.sort compare_finding (stale @ !acc);
    files = !nfiles;
    suppressed = !suppressed;
    baselined = !baselined;
  }

(* ------------------------------------------------------------------ *)
(* File discovery                                                      *)
(* ------------------------------------------------------------------ *)

let skip_dirs = [ "_build"; ".git"; "fixtures"; "snapshots" ]

let discover roots =
  let acc = ref [] in
  let rec visit path =
    if Sys.is_directory path then begin
      if not (List.mem (Filename.basename path) skip_dirs) then
        Array.iter
          (fun entry -> visit (Filename.concat path entry))
          (let entries = Sys.readdir path in
           Array.sort String.compare entries;
           entries)
    end
    else if Filename.check_suffix path ".ml" then acc := path :: !acc
  in
  List.iter
    (fun root -> if Sys.file_exists root then visit root)
    roots;
  List.sort String.compare (List.rev_map Source.normalize_path !acc)

let run_paths ?baseline ?families roots =
  let files = discover roots in
  let sources =
    List.map
      (fun path ->
        (path, In_channel.with_open_text path In_channel.input_all))
      files
  in
  run ?baseline ?families sources

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let summary_counts report =
  let count sev =
    List.length
      (List.filter
         (fun f -> f.diag.Diagnostic.severity = sev)
         report.findings)
  in
  (count Severity.Error, count Severity.Warning, count Severity.Hint)

let render_text report =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Diagnostic.to_string ~file:f.file f.diag);
      Buffer.add_char buf '\n')
    report.findings;
  let e, w, h = summary_counts report in
  Buffer.add_string buf
    (if report.findings = [] then
       Printf.sprintf "devlint: %d files clean (%d suppressed, %d baselined)\n"
         report.files report.suppressed report.baselined
     else
       Printf.sprintf
         "devlint: %d files, %d error(s), %d warning(s), %d hint(s) (%d \
          suppressed, %d baselined)\n"
         report.files e w h report.suppressed report.baselined);
  Buffer.contents buf

let render_json report =
  let e, w, h = summary_counts report in
  let finding f =
    Json.Obj (("file", Json.Str f.file) :: Diagnostic.json_fields f.diag)
  in
  Json.to_string
    (Json.Obj
       [
         ("version", Json.Int 1);
         ("tool", Json.Str "relpipe devlint");
         ("findings", Json.List (List.map finding report.findings));
         ( "summary",
           Json.Obj
             [
               ("files", Json.Int report.files); ("error", Json.Int e);
               ("warning", Json.Int w); ("hint", Json.Int h);
               ("suppressed", Json.Int report.suppressed);
               ("baselined", Json.Int report.baselined);
             ] );
       ])

let exit_code report =
  Severity.exit_code
    (Diagnostic.max_severity (List.map (fun f -> f.diag) report.findings))
