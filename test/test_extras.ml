(* Tests for the auxiliary extensions: failure-rate conversion, the
   mapping text syntax, the bitmask-DP interval optimum, and the solution
   certificate checker. *)

open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp

let test = Helpers.test

(* ------------------------------------------------------------------ *)
(* Failure_rate                                                        *)
(* ------------------------------------------------------------------ *)

let rate_known_values () =
  Helpers.check_close "zero rate" 0.0 (Failure_rate.fp_of_rate ~rate:0.0 ~mission:10.0);
  Helpers.check_close "one mean lifetime"
    (1.0 -. Float.exp (-1.0))
    (Failure_rate.fp_of_rate ~rate:0.1 ~mission:10.0);
  Helpers.check_close "mtbf equals rate inverse"
    (Failure_rate.fp_of_rate ~rate:0.25 ~mission:8.0)
    (Failure_rate.fp_of_mtbf ~mtbf:4.0 ~mission:8.0)

let rate_roundtrip =
  Helpers.seed_property "rate_of_fp inverts fp_of_rate" (fun seed ->
      let rng = Rng.create seed in
      (* Keep rate * mission <= ~10: beyond that 1 - fp holds too few
         mantissa bits for the inverse to be meaningful. *)
      let rate = Rng.float_range rng 0.001 1.0 in
      let mission = Rng.float_range rng 0.1 10.0 in
      let fp = Failure_rate.fp_of_rate ~rate ~mission in
      F.approx_eq ~eps:1e-6 rate (Failure_rate.rate_of_fp ~fp ~mission))

let rate_monotone =
  Helpers.seed_property "fp grows with mission length" (fun seed ->
      let rng = Rng.create seed in
      let rate = Rng.float_range rng 0.01 1.0 in
      let t1 = Rng.float_range rng 0.1 5.0 in
      let t2 = t1 +. Rng.float_range rng 0.1 5.0 in
      Failure_rate.fp_of_rate ~rate ~mission:t1
      <= Failure_rate.fp_of_rate ~rate ~mission:t2)

let rate_platform () =
  let p =
    Failure_rate.platform_of_rates ~speeds:[| 1.0; 2.0 |] ~rates:[| 0.0; 0.5 |]
      ~mission:2.0
      ~bandwidth:(fun _ _ -> 1.0)
  in
  Helpers.check_close "rate 0 -> fp 0" 0.0 (Platform.failure p 0);
  Helpers.check_close "rate 0.5, mission 2 -> 1 - e^-1"
    (1.0 -. Float.exp (-1.0))
    (Platform.failure p 1)

let rate_scale_mission =
  Helpers.seed_property "doubling the mission squares the survival"
    (fun seed ->
      let rng = Rng.create seed in
      let fp = Rng.float_range rng 0.0 0.95 in
      let p =
        Platform.uniform_links ~speeds:[| 1.0 |] ~failures:[| fp |] ~bandwidth:1.0
      in
      let p2 = Failure_rate.scale_mission p ~factor:2.0 in
      F.approx_eq ~eps:1e-9
        (1.0 -. Platform.failure p2 0)
        ((1.0 -. fp) ** 2.0))

(* ------------------------------------------------------------------ *)
(* Mapping_syntax                                                      *)
(* ------------------------------------------------------------------ *)

let syntax_parses_fig5 () =
  match Mapping_syntax.parse ~n:2 ~m:11 "1:0; 2:1,2,3,4,5,6,7,8,9,10" with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok mapping ->
      Alcotest.(check bool) "equals the scenario mapping" true
        (Mapping.equal mapping (Relpipe_workload.Scenarios.fig5_split ()))

let syntax_ranges () =
  match Mapping_syntax.parse ~n:5 ~m:4 " 1-3 : 2 ; 4-5 : 0 , 1 " with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok mapping ->
      Alcotest.(check int) "two intervals" 2 (Mapping.num_intervals mapping);
      let iv = Mapping.interval_of_stage mapping 4 in
      Alcotest.(check (list int)) "procs" [ 0; 1 ] iv.Mapping.procs

let syntax_roundtrip =
  Helpers.seed_property "to_string round-trips" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 5) in
      let mapping = Helpers.random_mapping rng ~n ~m in
      match Mapping_syntax.parse ~n ~m (Mapping_syntax.to_string mapping) with
      | Ok mapping' -> Mapping.equal mapping mapping'
      | Error _ -> false)

let syntax_rejects () =
  let bad text =
    match Mapping_syntax.parse ~n:2 ~m:3 text with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "no procs" true (bad "1-2:");
  Alcotest.(check bool) "garbage stage" true (bad "x-2:0");
  Alcotest.(check bool) "gap" true (bad "1:0");
  Alcotest.(check bool) "proc out of range" true (bad "1-2:9");
  Alcotest.(check bool) "proc reused" true (bad "1:0;2:0")

(* ------------------------------------------------------------------ *)
(* Interval_exact                                                      *)
(* ------------------------------------------------------------------ *)

let interval_exact_matches_enumeration =
  Helpers.seed_property ~count:50 "bitmask DP = compositions x injections"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      match (Interval_exact.min_latency inst, Exact.min_latency_unreplicated inst) with
      | Some (a, ma), Some (b, mb) ->
          F.approx_eq ~eps:1e-9 a b
          && F.approx_eq ~eps:1e-9 a
               (Latency.of_mapping inst.Instance.pipeline inst.Instance.platform ma)
          && F.approx_eq ~eps:1e-9 b
               (Latency.of_mapping inst.Instance.pipeline inst.Instance.platform mb)
      | None, None -> true
      | _ -> false)

let interval_exact_gap_bounds =
  Helpers.seed_property ~count:40 "interval optimum >= general optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let gap = Interval_exact.interval_vs_general_gap inst in
      F.geq ~eps:1e-9 gap 1.0)

let interval_exact_fig34 () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  match Interval_exact.min_latency inst with
  | Some (latency, mapping) ->
      Helpers.check_close "fig34 interval optimum is 7" 7.0 latency;
      Alcotest.(check int) "two intervals" 2 (Mapping.num_intervals mapping);
      (* On fig34 the general optimum is interval-shaped, so the gap is 1. *)
      Helpers.check_close "gap 1" 1.0 (Interval_exact.interval_vs_general_gap inst)
  | None -> Alcotest.fail "expected a mapping"

let interval_exact_cap () =
  let platform =
    Platform.fully_homogeneous ~m:15 ~speed:1.0 ~failure:0.1 ~bandwidth:1.0
  in
  let inst = Instance.make (Pipeline.of_costs ~input:1.0 [ (1.0, 1.0) ]) platform in
  Alcotest.(check bool) "caps m" true
    (try
       ignore (Interval_exact.min_latency inst);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let validate_good_solution () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective = Instance.Min_failure { max_latency = 22.0 } in
  let s = Solution.of_mapping inst (Relpipe_workload.Scenarios.fig5_split ()) in
  let r = Validate.check inst objective s in
  Alcotest.(check bool) "ok" true (Validate.ok r);
  Alcotest.(check bool) "certified optimal" true (r.Validate.optimality = Validate.Optimal)

let validate_detects_suboptimal () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective = Instance.Min_failure { max_latency = 22.0 } in
  let s =
    Solution.of_mapping inst (Relpipe_workload.Scenarios.fig5_single_two_fast ())
  in
  let r = Validate.check inst objective s in
  Alcotest.(check bool) "still feasible" true (Validate.ok r);
  match r.Validate.optimality with
  | Validate.Suboptimal gap ->
      Helpers.check_close "gap = 0.64 - 0.1966" (0.64 -. (1.0 -. (0.9 *. (1.0 -. (0.8 ** 10.0))))) gap
  | _ -> Alcotest.fail "expected a certified suboptimality"

let validate_detects_infeasible () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective = Instance.Min_failure { max_latency = 10.0 } in
  let s = Solution.of_mapping inst (Relpipe_workload.Scenarios.fig5_split ()) in
  let r = Validate.check inst objective s in
  Alcotest.(check bool) "not ok" false (Validate.ok r);
  Alcotest.(check bool) "message emitted" true (r.Validate.messages <> [])

let validate_detects_stale_evaluation () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective = Instance.Min_failure { max_latency = 22.0 } in
  let s = Solution.of_mapping inst (Relpipe_workload.Scenarios.fig5_split ()) in
  let tampered =
    { s with Solution.evaluation = { s.Solution.evaluation with Instance.latency = 1.0 } }
  in
  let r = Validate.check inst objective tampered in
  Alcotest.(check bool) "inconsistency flagged" false r.Validate.evaluation_consistent

let validate_poly_certificate =
  Helpers.seed_property ~count:25 "polynomial classes always certify"
    (fun seed ->
      let rng = Rng.create seed in
      let inst = Helpers.random_fully_homog rng ~n:(1 + (seed mod 3)) ~m:3 in
      let objective = Instance.Min_latency { max_failure = 0.9 } in
      match Fully_homog.solve inst objective with
      | None -> true
      | Some s ->
          let r = Validate.check inst objective s in
          r.Validate.optimality = Validate.Optimal)

(* Shapes whose mapping space exceeds the default exact budget: 6 x 8
   spans about 4.1e6 mappings, 2 x 18 about 3.9e8 and the 1 x 30
   fixture 2^30 - 1.  Each is refused before any search, so optimality
   is unknown at once instead of after a branch and bound that runs for
   minutes. *)
let validate_unknown_when_large () =
  let rng = Rng.create 5 in
  let inst = Helpers.random_fully_hetero rng ~n:6 ~m:8 in
  let objective = Instance.Min_failure { max_latency = 1e9 } in
  let greedy =
    match Heuristics.single_greedy inst objective with
    | None -> Alcotest.fail "expected a solution"
    | Some s -> s.Solution.mapping
  in
  let wide =
    match Textio.parse_file "fixtures/wide_fully_hetero.relpipe" with
    | Ok inst -> inst
    | Error msg -> Alcotest.fail msg
  in
  let one u = { Mapping.first = u + 1; last = u + 1; procs = [ u ] } in
  List.iter
    (fun (name, inst, mapping) ->
      let r = Validate.check inst objective (Solution.of_mapping inst mapping) in
      Alcotest.(check bool) (name ^ " ok") true (Validate.ok r);
      Alcotest.(check bool) (name ^ " no tractable certificate") true
        (r.Validate.optimality = Validate.Unknown))
    [
      ("6x8", inst, greedy);
      ( "2x18",
        Helpers.random_fully_hetero (Rng.create 7) ~n:2 ~m:18,
        Mapping.make ~n:2 ~m:18 [ one 0; one 1 ] );
      ("1x30", wide, Mapping.make ~n:1 ~m:30 [ one 0 ]);
    ]

(* When the solver refuses to produce a reference, the report says why:
   an instance with a processor that always fails (lint error RP-I002),
   and the 1x30 fixture whose mapping space exceeds the exact budget. *)
let validate_reports_refusal () =
  let load path =
    match Textio.parse_file path with
    | Ok inst -> inst
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (path, intervals, objective, needle) ->
      let inst = load path in
      let mapping =
        Mapping.make
          ~n:(Pipeline.length inst.Instance.pipeline)
          ~m:(Platform.size inst.Instance.platform)
          intervals
      in
      let r = Validate.check inst objective (Solution.of_mapping inst mapping) in
      Alcotest.(check bool) (path ^ " no tractable certificate") true
        (r.Validate.optimality = Validate.Unknown);
      Alcotest.(check bool)
        (Printf.sprintf "%s messages name %S" path needle)
        true
        (List.exists (fun msg -> Helpers.contains ~needle msg) r.Validate.messages))
    [
      ( "fixtures/certain_failure_proc.relpipe",
        [ { Mapping.first = 1; last = 2; procs = [ 1 ] } ],
        Instance.Min_latency { max_failure = 0.9 },
        "error[RP-I002]: processor 0: failure probability 1 is outside [0,1)" );
      ( "fixtures/wide_fully_hetero.relpipe",
        [ { Mapping.first = 1; last = 1; procs = [ 0 ] } ],
        Instance.Min_failure { max_latency = 1e9 },
        "more than 200000 mappings" );
    ]

let () =
  Alcotest.run "extras"
    [
      ( "failure-rate",
        [
          test "known values" rate_known_values;
          rate_roundtrip;
          rate_monotone;
          test "platform from rates" rate_platform;
          rate_scale_mission;
        ] );
      ( "mapping-syntax",
        [
          test "parses fig5" syntax_parses_fig5;
          test "ranges and whitespace" syntax_ranges;
          syntax_roundtrip;
          test "rejects invalid" syntax_rejects;
        ] );
      ( "interval-exact",
        [
          interval_exact_matches_enumeration;
          interval_exact_gap_bounds;
          test "fig34" interval_exact_fig34;
          test "processor cap" interval_exact_cap;
        ] );
      ( "validate",
        [
          test "good solution" validate_good_solution;
          test "detects suboptimal" validate_detects_suboptimal;
          test "detects infeasible" validate_detects_infeasible;
          test "detects stale evaluation" validate_detects_stale_evaluation;
          validate_poly_certificate;
          test "unknown when large" validate_unknown_when_large;
          test "solver refusal in messages" validate_reports_refusal;
        ] );
    ]
