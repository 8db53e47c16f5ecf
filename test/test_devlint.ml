(* Tests for relpipe.devlint, the AST-grounded source linter: every rule
   must fire exactly once per seeded violation (with the right span),
   clean fixtures must lint clean, suppression comments and the baseline
   must drop exactly the vetted findings, and the three acceptance
   mutations (polymorphic compare, un-clocked Sys.time, unguarded ref
   write in a Pool closure) must each turn the gate red.  The CLI
   surfaces (--list-rules, --format json) are pinned byte-for-byte by
   the golden-snapshot harness. *)

module DL = Relpipe_devlint
module Driver = DL.Driver
module Baseline = DL.Baseline
module Drule = DL.Drule
module Diagnostic = Relpipe_analysis.Diagnostic
module Loc = Relpipe_util.Loc
module Snapshot = Helpers.Snapshot

let test = Helpers.test

let fixture name =
  In_channel.with_open_text
    (Filename.concat (Filename.concat "fixtures" "devlint") name)
    In_channel.input_all

let run_text ?baseline ?families ~path text =
  Driver.run ?baseline ?families [ (path, text) ]

let rules_of report =
  List.map (fun f -> f.Driver.diag.Diagnostic.rule) report.Driver.findings

(* Last occurrence of [needle] in [hay], as a 1-based column. *)
let last_col ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let best = ref (-1) in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then best := i
  done;
  if !best < 0 then Alcotest.failf "marker %S not in %S" needle hay;
  !best + 1

(* ------------------------------------------------------------------ *)
(* Fixture corpus: one violating and one clean file per rule           *)
(* ------------------------------------------------------------------ *)

(* (fixture, rule, 1-based line of the span, marker substring whose last
   occurrence on that line is the span's start column). *)
let bad_cases =
  [
    ("bad_s101.ml", "RP-S101", 1, "compare xs");
    ("bad_s102.ml", "RP-S102", 1, "x = 0.0");
    ("bad_s103.ml", "RP-S103", 1, "Hashtbl.hash");
    ("bad_s201.ml", "RP-S201", 1, "Random.float");
    ("bad_s202.ml", "RP-S202", 1, "Sys.time");
    ("bad_s203.ml", "RP-S203", 1, "Domain.self");
    ("bad_s204.ml", "RP-S204", 1, "Hashtbl.iter");
    ("bad_s301.ml", "RP-S301", 3, "sum := !sum + j");
    ("bad_s401.ml", "RP-S401", 1, "\"Solved-Requests\"");
    ("bad_s402.ml", "RP-S402", 1, "name");
  ]

let check_bad (file, rule, line, marker) () =
  let text = fixture file in
  let report = run_text ~path:file text in
  (match report.Driver.findings with
  | [ f ] -> (
      Alcotest.(check string) (file ^ " rule") rule f.Driver.diag.Diagnostic.rule;
      match f.Driver.diag.Diagnostic.span with
      | None -> Alcotest.failf "%s: finding has no span" file
      | Some s ->
          Alcotest.(check int) (file ^ " span line") line s.Loc.start.Loc.line;
          let src_line =
            List.nth (String.split_on_char '\n' text) (line - 1)
          in
          Alcotest.(check int)
            (file ^ " span col")
            (last_col ~needle:marker src_line)
            s.Loc.start.Loc.col)
  | fs ->
      Alcotest.failf "%s: expected exactly 1 finding, got %d [%s]" file
        (List.length fs)
        (String.concat ", " (rules_of report)))

let check_clean file () =
  let report = run_text ~path:file (fixture file) in
  match report.Driver.findings with
  | [] -> ()
  | _ ->
      Alcotest.failf "%s: expected no findings, got [%s]" file
        (String.concat ", " (rules_of report))

let corpus_tests =
  List.map
    (fun ((file, _, _, _) as case) -> test ("fixture " ^ file) (check_bad case))
    bad_cases
  @ List.map
      (fun (bad, _, _, _) ->
        let clean = "clean_" ^ String.sub bad 4 (String.length bad - 4) in
        test ("fixture " ^ clean) (check_clean clean))
      bad_cases

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_catalog () =
  let rules = Driver.rules () in
  Alcotest.(check int) "12 source rules" 12 (List.length rules);
  let ids = List.map (fun r -> r.Drule.id) rules in
  Alcotest.(check bool)
    "ids sorted and unique" true
    (List.sort_uniq String.compare ids = ids);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Drule.id ^ " id shape") true
        (String.length r.Drule.id = 7 && String.sub r.Drule.id 0 4 = "RP-S");
      Alcotest.(check bool)
        (r.Drule.id ^ " has docs") true
        (r.Drule.title <> "" && r.Drule.rationale <> "" && r.Drule.example <> ""))
    rules

let test_family_filter () =
  (* A wall-clock read is invisible to the compare family. *)
  let text = fixture "bad_s202.ml" in
  let report =
    run_text ~families:[ "compare" ] ~path:"bad_s202.ml" text
  in
  Alcotest.(check int) "filtered out" 0 (List.length report.Driver.findings);
  let report = run_text ~families:[ "determinism" ] ~path:"bad_s202.ml" text in
  Alcotest.(check int) "selected in" 1 (List.length report.Driver.findings)

(* ------------------------------------------------------------------ *)
(* Property: each violation fires exactly once, on its own line        *)
(* ------------------------------------------------------------------ *)

let violation_lines =
  [
    ("RP-S101", "let f xs = List.sort compare xs");
    ("RP-S102", "let g x = x = 1.0");
    ("RP-S202", "let h () = Sys.time ()");
    ("RP-S204", "let d t = Hashtbl.iter ignore t");
  ]

let prop_fires_once_per_violation =
  QCheck.Test.make ~name:"k copies of a violation yield exactly k findings"
    ~count:60
    QCheck.(pair (int_bound (List.length violation_lines - 1)) (int_range 1 8))
    (fun (which, k) ->
      let rule, line = List.nth violation_lines which in
      let text = String.concat "\n" (List.init k (fun _ -> line)) in
      let report = run_text ~path:"prop.ml" text in
      let hits =
        List.filter
          (fun f -> f.Driver.diag.Diagnostic.rule = rule)
          report.Driver.findings
      in
      List.length hits = k
      && List.for_all2
           (fun f i ->
             match f.Driver.diag.Diagnostic.span with
             | Some s -> s.Loc.start.Loc.line = i
             | None -> false)
           hits
           (List.init k (fun i -> i + 1)))

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)
(* ------------------------------------------------------------------ *)

let test_suppression_above () =
  let text = "(* devlint: allow RP-S202 -- vetted here *)\nlet t0 = Sys.time ()\n" in
  let report = run_text ~path:"s.ml" text in
  Alcotest.(check int) "no findings" 0 (List.length report.Driver.findings);
  Alcotest.(check int) "counted as suppressed" 1 report.Driver.suppressed

let test_suppression_same_line () =
  let text = "let t0 = Sys.time () (* devlint: allow RP-S202 *)\n" in
  let report = run_text ~path:"s.ml" text in
  Alcotest.(check int) "no findings" 0 (List.length report.Driver.findings);
  Alcotest.(check int) "counted as suppressed" 1 report.Driver.suppressed

let test_suppression_wrong_rule_does_not_mask () =
  let text = "(* devlint: allow RP-S201 *)\nlet t0 = Sys.time ()\n" in
  let report = run_text ~path:"s.ml" text in
  Alcotest.(check (list string)) "finding survives" [ "RP-S202" ]
    (rules_of report);
  Alcotest.(check int) "nothing suppressed" 0 report.Driver.suppressed

let test_suppression_does_not_leak_two_lines_down () =
  let text =
    "(* devlint: allow RP-S202 *)\nlet a = 1\nlet t0 = Sys.time ()\n"
  in
  let report = run_text ~path:"s.ml" text in
  Alcotest.(check (list string)) "finding survives" [ "RP-S202" ]
    (rules_of report)

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let baseline_of text =
  match Baseline.parse ~source:"test.baseline" text with
  | Ok b -> b
  | Error e -> Alcotest.failf "baseline parse failed: %s" e

let test_baseline_match () =
  let b = baseline_of "# vetted\nRP-S202 s.ml -- bench needs wall time\n" in
  let report = run_text ~baseline:b ~path:"s.ml" "let t0 = Sys.time ()\n" in
  Alcotest.(check int) "no findings" 0 (List.length report.Driver.findings);
  Alcotest.(check int) "counted as baselined" 1 report.Driver.baselined

let test_baseline_line_pinning () =
  let b = baseline_of "RP-S202 s.ml:1\n" in
  let report = run_text ~baseline:b ~path:"s.ml" "let t0 = Sys.time ()\n" in
  Alcotest.(check int) "line 1 matches" 0 (List.length report.Driver.findings);
  let b = baseline_of "RP-S202 s.ml:5\n" in
  let report = run_text ~baseline:b ~path:"s.ml" "let t0 = Sys.time ()\n" in
  (* The finding survives and the mismatched entry is reported stale. *)
  Alcotest.(check (list string))
    "survives + stale entry" [ "RP-S002"; "RP-S202" ]
    (List.sort String.compare (rules_of report))

let test_baseline_stale_entry () =
  let b = baseline_of "RP-S201 gone.ml -- removed module\n" in
  let report = run_text ~baseline:b ~path:"s.ml" "let x = 1\n" in
  match report.Driver.findings with
  | [ f ] ->
      Alcotest.(check string) "stale rule" "RP-S002" f.Driver.diag.Diagnostic.rule;
      Alcotest.(check string) "on the baseline file" "test.baseline" f.Driver.file
  | fs -> Alcotest.failf "expected 1 stale hint, got %d" (List.length fs)

let test_baseline_rejects_garbage () =
  match Baseline.parse ~source:"bad" "not-a-rule-id\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* ------------------------------------------------------------------ *)
(* Acceptance mutations: each must turn the gate red (exit 2)          *)
(* ------------------------------------------------------------------ *)

let mutation_cases =
  [
    ("polymorphic compare", "let order a b = compare a b\n");
    ("un-clocked Sys.time", "let t0 = Sys.time ()\n");
    ( "unguarded ref write in a Pool closure",
      "let go pool jobs =\n\
      \  let hits = ref 0 in\n\
      \  let _ = Pool.map pool (fun j -> hits := !hits + j) jobs in\n\
      \  !hits\n" );
  ]

let test_mutations_turn_gate_red () =
  List.iter
    (fun (label, text) ->
      let report = run_text ~path:"mutant.ml" text in
      Alcotest.(check int) (label ^ " exits 2") 2 (Driver.exit_code report))
    mutation_cases

let test_parse_error_is_an_error () =
  let report = run_text ~path:"broken.ml" "let x = (\n" in
  Alcotest.(check (list string)) "RP-S001" [ "RP-S001" ] (rules_of report);
  Alcotest.(check int) "exits 2" 2 (Driver.exit_code report)

(* ------------------------------------------------------------------ *)
(* Negatives: the sanctioned forms stay silent                         *)
(* ------------------------------------------------------------------ *)

let negative_cases =
  [
    ("Float.equal", "let same a b = Float.equal a b\n");
    ("typed comparator", "let xs l = List.sort Float.compare l\n");
    ( "Atomic in a Pool closure",
      "let go pool jobs =\n\
      \  let hits = Atomic.make 0 in\n\
      \  let _ = Pool.map pool (fun j -> Atomic.incr hits; j) jobs in\n\
      \  Atomic.get hits\n" );
    ( "Mutex.lock/unlock around the write",
      "let go pool mu hits jobs =\n\
      \  Pool.map pool\n\
      \    (fun j ->\n\
      \      Mutex.lock mu;\n\
      \      hits := !hits + j;\n\
      \      Mutex.unlock mu;\n\
      \      j)\n\
      \    jobs\n" );
    ( "module defining its own compare",
      "let compare a b = Int.compare a.rank b.rank\n\
       let sorted xs = List.sort compare xs\n" );
    ("obs name with a vetted literal head",
     "let c reg s = Metric.counter reg (\"engine.cache.\" ^ s)\n");
  ]

let test_negatives_stay_silent () =
  List.iter
    (fun (label, text) ->
      let report = run_text ~path:"neg.ml" text in
      match report.Driver.findings with
      | [] -> ()
      | _ ->
          Alcotest.failf "%s: expected silence, got [%s]" label
            (String.concat ", " (rules_of report)))
    negative_cases

let test_obs_bad_literal_head () =
  let report =
    run_text ~path:"n.ml" "let c reg s = Metric.counter reg (\"bogus.\" ^ s)\n"
  in
  Alcotest.(check (list string)) "bad concat head" [ "RP-S401" ]
    (rules_of report)

(* ------------------------------------------------------------------ *)
(* CLI: byte-pinned --list-rules and JSON report                       *)
(* ------------------------------------------------------------------ *)

let test_cli_list_rules_snapshot () =
  let code, out, err = Helpers.run_cli [ "devlint"; "--list-rules" ] in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check string) "stderr empty" "" err;
  Snapshot.check "devlint-list-rules.snap" out

let test_cli_json_snapshot () =
  let code, out, _ =
    Helpers.run_cli
      [
        "devlint"; "--no-baseline"; "--format"; "json";
        "fixtures/devlint/bad_s101.ml";
      ]
  in
  Alcotest.(check int) "error finding exits 2" 2 code;
  Snapshot.check "devlint-bad-s101-json.snap" out

let test_cli_clean_fixture_exits_zero () =
  let code, out, err =
    Helpers.run_cli
      [ "devlint"; "--no-baseline"; "fixtures/devlint/clean_s101.ml" ]
  in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check string) "stderr empty" "" err;
  Alcotest.(check string) "clean summary"
    "devlint: 1 files clean (0 suppressed, 0 baselined)\n" out

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "devlint"
    [
      ("corpus", corpus_tests);
      ( "engine",
        [
          test "rule catalog" test_catalog;
          test "family filter" test_family_filter;
          QCheck_alcotest.to_alcotest prop_fires_once_per_violation;
        ] );
      ( "suppressions",
        [
          test "comment above the line" test_suppression_above;
          test "comment on the line" test_suppression_same_line;
          test "wrong rule id does not mask" test_suppression_wrong_rule_does_not_mask;
          test "does not leak two lines down"
            test_suppression_does_not_leak_two_lines_down;
        ] );
      ( "baseline",
        [
          test "entry drops the finding" test_baseline_match;
          test "line pinning" test_baseline_line_pinning;
          test "stale entry is reported" test_baseline_stale_entry;
          test "garbage is rejected" test_baseline_rejects_garbage;
        ] );
      ( "gate",
        [
          test "acceptance mutations turn it red" test_mutations_turn_gate_red;
          test "parse error is an error" test_parse_error_is_an_error;
          test "sanctioned forms stay silent" test_negatives_stay_silent;
          test "bad literal head is caught" test_obs_bad_literal_head;
        ] );
      ( "cli",
        [
          test "--list-rules golden snapshot" test_cli_list_rules_snapshot;
          test "json report golden snapshot" test_cli_json_snapshot;
          test "clean fixture exits zero" test_cli_clean_fixture_exits_zero;
        ] );
    ]
