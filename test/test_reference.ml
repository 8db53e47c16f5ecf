(* Differential tests: the optimized solver kernels must be bit-identical
   to their frozen pre-optimization twins in Core.Reference — on seeded
   random instances over all three platform classes, on hand-written
   adversarial shapes, and across workspace reuse (big solve, small solve,
   big solve again). *)

open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng

let test = Helpers.test
let bits = Int64.bits_of_float

let same_float name a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %.17g is not bit-identical to %.17g" name a b

(* All three schedules of the interval-DP kernel — serial, parallel and
   the churn engine's (here cold) resumable solve — against the twin. *)
let check_interval inst =
  let reference = Reference.interval_min_latency_reference inst in
  List.iter
    (fun (name, solve) ->
      match (solve inst, reference) with
      | None, None -> ()
      | Some _, None ->
          Alcotest.failf "%s: optimized solved, reference did not" name
      | None, Some _ ->
          Alcotest.failf "%s: reference solved, optimized did not" name
      | Some (l1, m1), Some (l2, m2) ->
          same_float (name ^ " latency") l1 l2;
          if not (Mapping.equal m1 m2) then
            Alcotest.failf "%s mapping differs from reference" name)
    [
      ("interval", Interval_exact.min_latency);
      ("interval par", Interval_exact.min_latency_par ~workers:2);
      ( "interval Dp.solve",
        fun i ->
          let r, _, _ = Interval_exact.Dp.solve i in
          r );
    ]

let check_general inst =
  let l1, a1 = General_mapping.solve_dp inst in
  let l2, a2 = Reference.general_dp_reference inst in
  same_float "general-DP latency" l1 l2;
  if not (Assignment.equal a1 a2) then
    Alcotest.fail "general-DP assignment differs from reference"

let check_bb inst objective =
  match (Bb.solve inst objective, Reference.bb_solve_reference inst objective) with
  | None, None -> ()
  | Some _, None -> Alcotest.fail "B&B: optimized solved, reference did not"
  | None, Some _ -> Alcotest.fail "B&B: reference solved, optimized did not"
  | Some s1, Some s2 ->
      let e1 = s1.Solution.evaluation and e2 = s2.Solution.evaluation in
      same_float "B&B latency" e1.Instance.latency e2.Instance.latency;
      same_float "B&B failure" e1.Instance.failure e2.Instance.failure;
      if not (Mapping.equal s1.Solution.mapping s2.Solution.mapping) then
        Alcotest.fail "B&B mapping differs from reference"

let check_all rng inst =
  check_interval inst;
  check_general inst;
  let hi =
    let n = Pipeline.length inst.Instance.pipeline in
    let m = Platform.size inst.Instance.platform in
    Latency.of_mapping inst.Instance.pipeline inst.Instance.platform
      (Mapping.single_interval ~n ~m (Platform.procs inst.Instance.platform))
  in
  check_bb inst (Instance.Min_failure { max_latency = Rng.float_range rng 0.0 (hi *. 1.5) });
  check_bb inst (Instance.Min_latency { max_failure = Rng.float_range rng 0.0 1.0 })

(* ------------------------------------------------------------------ *)
(* Randomized, across the paper's three platform classes               *)
(* ------------------------------------------------------------------ *)

let property_for name gen =
  Helpers.seed_property ~count:40 name (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 3) in
      check_all rng (gen rng ~n ~m);
      true)

let fully_homog_matches =
  property_for "optimized = reference (fully homogeneous)"
    Helpers.random_fully_homog

let comm_homog_matches =
  property_for "optimized = reference (comm homogeneous)"
    Helpers.random_comm_homog

let fully_hetero_matches =
  property_for "optimized = reference (fully heterogeneous)"
    Helpers.random_fully_hetero

(* ------------------------------------------------------------------ *)
(* Adversarial shapes                                                  *)
(* ------------------------------------------------------------------ *)

let adversarial name inst =
  test name (fun () -> check_all (Rng.create 7) inst)

let one_stage_one_proc =
  adversarial "1 stage on 1 processor"
    (Instance.make
       (Pipeline.of_costs ~input:1.0 [ (2.0, 1.0) ])
       (Platform.fully_homogeneous ~m:1 ~speed:1.0 ~failure:0.3 ~bandwidth:1.0))

let one_stage_many_procs =
  adversarial "1 stage on 4 processors"
    (Instance.make
       (Pipeline.of_costs ~input:3.0 [ (5.0, 2.0) ])
       (Platform.uniform_links
          ~speeds:[| 1.0; 2.0; 4.0; 8.0 |]
          ~failures:[| 0.1; 0.2; 0.3; 0.4 |]
          ~bandwidth:2.0))

let zero_cost_stages =
  adversarial "zero-cost stages and zero-size data"
    (Instance.make
       (Pipeline.of_costs ~input:0.0 [ (0.0, 0.0); (0.0, 0.0); (0.0, 0.0) ])
       (Platform.uniform_links
          ~speeds:[| 1.0; 3.0; 2.0 |]
          ~failures:[| 0.2; 0.4; 0.1 |]
          ~bandwidth:1.5))

let identical_speeds =
  (* Ties everywhere: any order-dependence between the twins shows up as a
     different argmin/mapping. *)
  adversarial "all-identical speeds and links"
    (Instance.make
       (Pipeline.of_costs ~input:2.0 [ (4.0, 1.0); (4.0, 1.0); (4.0, 1.0); (4.0, 1.0) ])
       (Platform.fully_homogeneous ~m:4 ~speed:3.0 ~failure:0.25 ~bandwidth:2.0))

let failure_zero =
  adversarial "failure probability 0 everywhere"
    (Instance.make
       (Pipeline.of_costs ~input:1.0 [ (3.0, 2.0); (1.0, 1.0) ])
       (Platform.uniform_links
          ~speeds:[| 2.0; 1.0; 5.0 |]
          ~failures:[| 0.0; 0.0; 0.0 |]
          ~bandwidth:1.0))

let failure_near_one =
  adversarial "failure probability ~1 everywhere"
    (Instance.make
       (Pipeline.of_costs ~input:1.0 [ (3.0, 2.0); (1.0, 1.0) ])
       (Platform.uniform_links
          ~speeds:[| 2.0; 1.0; 5.0 |]
          ~failures:[| 0.999999; 0.999999; 0.999999 |]
          ~bandwidth:1.0))

(* ------------------------------------------------------------------ *)
(* Workspace reuse                                                     *)
(* ------------------------------------------------------------------ *)

let workspace_reuse () =
  (* Big solve, then tiny solve, then the same big solve again: any state
     leaking through the reusable workspaces (stale DP cells, stale memo
     entries) breaks the second big solve against the reference. *)
  let rng = Rng.create 4242 in
  let big = Helpers.random_fully_hetero rng ~n:8 ~m:8 in
  let tiny = Helpers.random_fully_hetero rng ~n:1 ~m:2 in
  let wide = Helpers.random_fully_hetero rng ~n:24 ~m:12 in
  check_interval big;
  check_interval tiny;
  check_interval big;
  check_general wide;
  check_general tiny;
  check_general wide;
  let bb_a = Helpers.random_fully_hetero rng ~n:3 ~m:4 in
  let bb_b = Helpers.random_fully_hetero rng ~n:4 ~m:3 in
  let obj = Instance.Min_failure { max_latency = 1e6 } in
  check_bb bb_a obj;
  check_bb bb_b obj;
  check_bb bb_a obj

let () =
  Alcotest.run "reference"
    [
      ( "randomized",
        [ fully_homog_matches; comm_homog_matches; fully_hetero_matches ] );
      ( "adversarial",
        [
          one_stage_one_proc;
          one_stage_many_procs;
          zero_cost_stages;
          identical_speeds;
          failure_zero;
          failure_near_one;
        ] );
      ("workspace", [ test "reuse leaks no state" workspace_reuse ]);
    ]
