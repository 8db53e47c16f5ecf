(* Tests for the relpipe.analysis diagnostics engine: fixture files with
   seeded defects must trip exactly the expected rules (with the right
   spans), clean fixtures must lint clean, and the solver/validator
   integration must surface findings as typed values. *)

open Relpipe_model
open Relpipe_analysis
module Rng = Relpipe_util.Rng

let test = Helpers.test

let fixture name =
  In_channel.with_open_text (Filename.concat "fixtures" name)
    In_channel.input_all

let tally ds =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let r = d.Diagnostic.rule in
      Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r)))
    ds;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (* devlint: allow RP-S204 — the fold's order is erased by the sort *)
    (Hashtbl.fold (fun r c acc -> (r, c) :: acc) tbl [])

let pp_tally t =
  String.concat ", " (List.map (fun (r, c) -> Printf.sprintf "%s x%d" r c) t)

(* Expected findings per fixture: (rule, count) pairs, plus the 1-based
   line the named rule's span must start on (None = the finding must be
   spanless). *)
let fixture_cases =
  [
    ("clean_fully_homog.relpipe", [], None);
    ("clean_comm_homog.relpipe", [], None);
    ("clean_fully_hetero.relpipe", [], None);
    ("defect_I001.relpipe", [ ("RP-I001", 1) ], Some ("RP-I001", Some 4));
    ("defect_I002.relpipe", [ ("RP-I002", 1) ], Some ("RP-I002", Some 4));
    ("defect_I003.relpipe", [ ("RP-I003", 1) ], Some ("RP-I003", Some 4));
    ("defect_I004.relpipe", [ ("RP-I004", 1) ], Some ("RP-I004", Some 2));
    ("defect_I005.relpipe", [ ("RP-I005", 1) ], Some ("RP-I005", Some 3));
    ("defect_I006.relpipe", [ ("RP-I006", 1) ], Some ("RP-I006", Some 7));
    ("defect_I007.relpipe", [ ("RP-I007", 1) ], Some ("RP-I007", Some 7));
    ("defect_I008.relpipe", [ ("RP-I008", 1) ], Some ("RP-I008", None));
    ( "defect_I009.relpipe",
      [ ("RP-I006", 3); ("RP-I009", 1) ],
      Some ("RP-I009", Some 5) );
    ("defect_I010.relpipe", [ ("RP-I010", 1) ], Some ("RP-I010", Some 5));
    ("defect_I011.relpipe", [ ("RP-I011", 1) ], Some ("RP-I011", Some 2));
    ("defect_I012.relpipe", [ ("RP-I012", 1) ], Some ("RP-I012", Some 8));
    ("defect_I013.relpipe", [ ("RP-I013", 1) ], Some ("RP-I013", None));
    ( "defect_I014.relpipe",
      [ ("RP-I008", 3); ("RP-I014", 1) ],
      Some ("RP-I014", Some 5) );
    ("defect_N001.relpipe", [ ("RP-N001", 1) ], Some ("RP-N001", None));
    ("defect_N002.relpipe", [ ("RP-N002", 1) ], Some ("RP-N002", Some 3));
    ("defect_N003.relpipe", [ ("RP-N003", 1) ], Some ("RP-N003", Some 4));
    ( "defect_N004.relpipe",
      [ ("RP-N001", 1); ("RP-N004", 1) ],
      Some ("RP-N004", Some 4) );
    ("defect_P001.relpipe", [ ("RP-P001", 1) ], Some ("RP-P001", Some 2));
  ]

let check_fixture (file, expected, span_check) () =
  let ds = Analysis.lint_instance_text (fixture file) in
  let got = tally ds in
  if got <> expected then
    Alcotest.failf "%s: expected [%s] but linted [%s]" file (pp_tally expected)
      (pp_tally got);
  match span_check with
  | None -> ()
  | Some (rule, expected_line) -> (
      let d = List.find (fun d -> d.Diagnostic.rule = rule) ds in
      match d.Diagnostic.span, expected_line with
      | None, None -> ()
      | Some s, Some line ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s span line" file rule)
            line s.Relpipe_util.Loc.start.Relpipe_util.Loc.line
      | Some s, None ->
          Alcotest.failf "%s: %s should be spanless but spans %s" file rule
            (Relpipe_util.Loc.to_string s)
      | None, Some line ->
          Alcotest.failf "%s: %s should span line %d but has no span" file rule
            line)

let fixture_tests =
  List.map
    (fun ((file, _, _) as case) ->
      test (Printf.sprintf "fixture %s" file) (check_fixture case))
    fixture_cases

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  let rules = Analysis.rules () in
  Alcotest.(check int) "26 registered rules" 26 (List.length rules);
  let ids = List.map (fun r -> r.Rule.id) rules in
  Alcotest.(check bool)
    "ids sorted and unique" true
    (List.sort_uniq String.compare ids = ids);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Rule.id ^ " id shape") true
        (String.length r.Rule.id = 7 && String.sub r.Rule.id 0 3 = "RP-");
      Alcotest.(check bool)
        (r.Rule.id ^ " has docs") true
        (r.Rule.title <> "" && r.Rule.rationale <> "" && r.Rule.example <> ""))
    rules

(* ------------------------------------------------------------------ *)
(* Mapping pass                                                        *)
(* ------------------------------------------------------------------ *)

let mapping_cases =
  [
    ("3-2:0", [ ("RP-M001", 1) ]);
    ("1:0; 3-4:1", [ ("RP-M002", 1) ]);
    ("1-2:7; 3-4:0", [ ("RP-M003", 1) ]);
    ("1-2:0; 3-4:0,1", [ ("RP-M004", 1) ]);
    ("1-4:0,1,2,3,0", [ ("RP-M004", 1); ("RP-M005", 1) ]);
    ("1-2:0,1; 3-4:2,3", [ ("RP-M006", 1) ]);
    ("1-2-3:0", [ ("RP-P002", 1) ]);
    ("1-2:0; 3-4:1", []);
  ]

let test_mapping_lint () =
  List.iter
    (fun (text, expected) ->
      let got = tally (Analysis.lint_mapping_text ~n:4 ~m:4 text) in
      if got <> expected then
        Alcotest.failf "%S: expected [%s] but linted [%s]" text
          (pp_tally expected) (pp_tally got))
    mapping_cases

let test_mapping_value_lint () =
  (* A structurally valid Mapping.t still gets the one-port warning. *)
  let mapping =
    Mapping.make ~n:4 ~m:4
      [
        { Mapping.first = 1; last = 2; procs = [ 0; 1 ] };
        { Mapping.first = 3; last = 4; procs = [ 2; 3 ] };
      ]
  in
  Alcotest.(check (list string))
    "one-port warning" [ "RP-M006" ]
    (List.map
       (fun d -> d.Diagnostic.rule)
       (Analysis.lint_mapping ~n:4 ~m:4 mapping))

(* ------------------------------------------------------------------ *)
(* Solver and validator integration                                    *)
(* ------------------------------------------------------------------ *)

(* Platform.make accepts fp = 1.0 but the analysis flags it as an error
   (a dead machine breaks the bi-criteria trade-off), so solver entry
   points must reject the instance with a typed diagnostic. *)
let dead_machine_instance () =
  let pipeline = Pipeline.of_costs ~input:4.0 [ (5.0, 2.0); (7.0, 1.0) ] in
  let platform =
    Platform.uniform_links ~speeds:[| 2.0; 3.0 |] ~failures:[| 0.2; 1.0 |]
      ~bandwidth:4.0
  in
  Instance.make pipeline platform

let test_solver_guard () =
  let inst = dead_machine_instance () in
  let objective = Instance.Min_latency { max_failure = 0.9 } in
  (match Relpipe_core.Solver.run inst objective with
  | Error (Relpipe_core.Solver.Invalid_instance ds) ->
      Alcotest.(check (list string))
        "guard reports the dead machine" [ "RP-I002" ]
        (List.map (fun d -> d.Diagnostic.rule) ds)
  | Error e ->
      Alcotest.failf "expected Invalid_instance, got %s"
        (Relpipe_core.Solver.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Invalid_instance, got Ok");
  match Relpipe_core.Solver.solve inst objective with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "legacy solve raises with the rule id" true
        (Helpers.contains ~needle:"RP-I002" msg)
  | _ -> Alcotest.fail "legacy solve should raise Invalid_argument"

let test_solver_guard_objective () =
  let inst =
    Instance.make
      (Pipeline.of_costs ~input:4.0 [ (5.0, 2.0); (7.0, 1.0) ])
      (Platform.fully_homogeneous ~m:2 ~speed:2.0 ~failure:0.2 ~bandwidth:4.0)
  in
  match
    Relpipe_core.Solver.run inst (Instance.Min_latency { max_failure = Float.nan })
  with
  | Error (Relpipe_core.Solver.Invalid_objective _) -> ()
  | _ -> Alcotest.fail "NaN threshold should be Invalid_objective"

let test_solver_clean_instances_pass () =
  (* Random well-formed instances must never trip the guard. *)
  for seed = 0 to 19 do
    let rng = Rng.create seed in
    let inst = Helpers.random_fully_hetero rng ~n:3 ~m:3 in
    match Analysis.instance_errors inst with
    | [] -> ()
    | ds ->
        Alcotest.failf "seed %d: clean instance flagged: %s" seed
          (String.concat "; " (List.map (fun d -> Diagnostic.to_string d) ds))
  done

let test_validate_diagnostics () =
  let inst =
    Instance.make
      (Pipeline.of_costs ~input:4.0 [ (5.0, 2.0); (7.0, 1.0) ])
      (Platform.fully_homogeneous ~m:4 ~speed:2.0 ~failure:0.2 ~bandwidth:4.0)
  in
  let mapping =
    Mapping.make ~n:2 ~m:4
      [
        { Mapping.first = 1; last = 1; procs = [ 0; 1 ] };
        { Mapping.first = 2; last = 2; procs = [ 2; 3 ] };
      ]
  in
  let s = Relpipe_core.Solution.of_mapping inst mapping in
  let objective = Instance.Min_latency { max_failure = 0.9 } in
  let report = Relpipe_core.Validate.check inst objective s in
  Alcotest.(check bool)
    "one-port warning in diagnostics" true
    (List.exists
       (fun d -> d.Diagnostic.rule = "RP-M006")
       report.Relpipe_core.Validate.diagnostics);
  Alcotest.(check bool)
    "warning rendered into messages" true
    (List.exists
       (fun msg -> Helpers.contains ~needle:"RP-M006" msg)
       report.Relpipe_core.Validate.messages)

(* ------------------------------------------------------------------ *)
(* Severity, exit codes, JSON                                          *)
(* ------------------------------------------------------------------ *)

let test_severity_lattice () =
  Alcotest.(check int) "empty exits 0" 0 (Diagnostic.exit_code []);
  let d severity =
    Diagnostic.make ~rule:"RP-XXXX" ~severity "synthetic"
  in
  Alcotest.(check int) "hint exits 0" 0 (Diagnostic.exit_code [ d Severity.Hint ]);
  Alcotest.(check int)
    "warning exits 1" 1
    (Diagnostic.exit_code [ d Severity.Hint; d Severity.Warning ]);
  Alcotest.(check int)
    "error exits 2" 2
    (Diagnostic.exit_code [ d Severity.Warning; d Severity.Error ]);
  Alcotest.(check bool)
    "sort puts errors first" true
    (match Diagnostic.sort [ d Severity.Hint; d Severity.Error ] with
    | { Diagnostic.severity = Severity.Error; _ } :: _ -> true
    | _ -> false)

let test_json_report () =
  let ds = Analysis.lint_instance_text (fixture "defect_I001.relpipe") in
  let json = Diagnostic.report_to_json ~file:"defect_I001.relpipe" ds in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true
        (Helpers.contains ~needle json))
    [
      {|"version":1|}; {|"file":"defect_I001.relpipe"|}; {|"rule":"RP-I001"|};
      {|"severity":"error"|}; {|"line":4|}; {|"summary"|};
    ];
  let escaped =
    Diagnostic.to_json
      (Diagnostic.make ~rule:"RP-XXXX" ~severity:Severity.Hint
         "quote \" backslash \\ newline \n done")
  in
  Alcotest.(check bool)
    "json escapes specials" true
    (Helpers.contains ~needle:{|quote \" backslash \\ newline \n done|} escaped)

(* ------------------------------------------------------------------ *)
(* Properties: parse errors carry positions; clean inputs round-trip   *)
(* ------------------------------------------------------------------ *)

let bad_instance_lines =
  [ "stage x y"; "proc 1"; "link in"; "bogus 3"; "input"; "link 0 q 5" ]

let prop_instance_errors_positioned =
  QCheck.Test.make ~name:"instance parse errors carry line/col" ~count:100
    QCheck.(pair (int_bound (List.length bad_instance_lines - 1)) (int_bound 5))
    (fun (bad_idx, padding) ->
      (* A valid prefix of [padding] lines, then one malformed line: the
         reported span must sit exactly on the malformed line. *)
      let prefix = List.init padding (fun _ -> "input 4") in
      let text =
        String.concat "\n" (prefix @ [ List.nth bad_instance_lines bad_idx ])
      in
      match Textio.parse_raw text with
      | Ok _ -> false
      | Error { Textio.span = None; _ } -> false
      | Error { Textio.span = Some s; _ } ->
          s.Relpipe_util.Loc.start.Relpipe_util.Loc.line = padding + 1
          && s.Relpipe_util.Loc.start.Relpipe_util.Loc.col >= 1)

let bad_mapping_texts =
  [ "1-:0"; "a-2:0"; "1-2:"; "1-2:x"; "1;2"; ":0"; "1-2:0 1" ]

let prop_mapping_errors_positioned =
  QCheck.Test.make ~name:"mapping parse errors carry line/col" ~count:100
    QCheck.(int_bound (List.length bad_mapping_texts - 1))
    (fun idx ->
      match Mapping_syntax.parse_raw (List.nth bad_mapping_texts idx) with
      | Ok _ -> false
      | Error { Mapping_syntax.span = None; _ } -> false
      | Error { Mapping_syntax.span = Some s; _ } ->
          s.Relpipe_util.Loc.start.Relpipe_util.Loc.line = 1
          && s.Relpipe_util.Loc.start.Relpipe_util.Loc.col >= 1)

let prop_clean_roundtrip =
  QCheck.Test.make ~name:"lint-clean instances round-trip unchanged" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let inst =
        match seed mod 3 with
        | 0 -> Helpers.random_fully_homog rng ~n:3 ~m:3
        | 1 -> Helpers.random_comm_homog rng ~n:4 ~m:3
        | _ -> Helpers.random_fully_hetero rng ~n:3 ~m:4
      in
      let text = Textio.to_string inst in
      QCheck.assume (Diagnostic.errors (Analysis.lint_instance_text text) = []);
      match Textio.parse text with
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e
      | Ok inst' -> String.equal text (Textio.to_string inst'))

let prop_tests =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_instance_errors_positioned; prop_mapping_errors_positioned;
      prop_clean_roundtrip;
    ]

let () =
  Alcotest.run "analysis"
    [
      ("fixtures", fixture_tests);
      ( "engine",
        [
          test "rule registry" test_registry;
          test "mapping lint" test_mapping_lint;
          test "mapping value lint" test_mapping_value_lint;
          test "severity lattice and exit codes" test_severity_lattice;
          test "json report" test_json_report;
        ] );
      ( "integration",
        [
          test "solver rejects dead machine" test_solver_guard;
          test "solver rejects NaN threshold" test_solver_guard_objective;
          test "clean instances pass the guard" test_solver_clean_instances_pass;
          test "validate folds diagnostics" test_validate_diagnostics;
        ] );
      ("properties", prop_tests);
    ]
