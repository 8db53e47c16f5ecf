(* Tests for the parallel exact solvers (PR 9): bit-identical answers at
   every worker count, byte-identical metric snapshots, the shared
   incumbent cell under races, and the unified bound-inflation slack. *)

open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp
module Obs = Relpipe_obs.Obs
module Clock = Relpipe_obs.Clock
module Pool = Relpipe_pool.Pool
module Snapshot = Helpers.Snapshot

let test = Helpers.test
let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let sol_eq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      Mapping.equal a.Solution.mapping b.Solution.mapping
      && bits_eq a.Solution.evaluation.Instance.latency
           b.Solution.evaluation.Instance.latency
      && bits_eq a.Solution.evaluation.Instance.failure
           b.Solution.evaluation.Instance.failure
  | (None | Some _), _ -> false

let dp_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (l1, m1), Some (l2, m2) -> bits_eq l1 l2 && Mapping.equal m1 m2
  | (None | Some _), _ -> false

let thresholds_for rng inst =
  let n = Pipeline.length inst.Instance.pipeline in
  let m = Platform.size inst.Instance.platform in
  let lo =
    Latency.of_mapping inst.Instance.pipeline inst.Instance.platform
      (Mapping.single_interval ~n ~m
         [ Mono.fastest_proc inst.Instance.platform ])
  in
  let hi =
    Latency.of_mapping inst.Instance.pipeline inst.Instance.platform
      (Mapping.single_interval ~n ~m (Platform.procs inst.Instance.platform))
  in
  (Rng.float_range rng lo (hi *. 1.2), Rng.float_range rng 0.01 0.8)

(* ------------------------------------------------------------------ *)
(* Cross-worker determinism                                            *)
(* ------------------------------------------------------------------ *)

let worker_counts = [ 1; 2; 8 ]

let bb_par_identity =
  Helpers.seed_property ~count:25 "parallel B&B == serial at 1/2/8 workers"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, max_failure = thresholds_for rng inst in
      List.for_all
        (fun objective ->
          let serial = Bb.solve inst objective in
          List.for_all
            (fun workers ->
              sol_eq serial (Bb.solve_par ~workers inst objective))
            worker_counts)
        [
          Instance.Min_failure { max_latency };
          Instance.Min_latency { max_failure };
        ])

let bb_par_identity_under_bound =
  Helpers.seed_property ~count:15
    "parallel B&B == serial under a warm ?prune_above" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let _, max_failure = thresholds_for rng inst in
      let objective = Instance.Min_latency { max_failure } in
      match Bb.solve inst objective with
      | None -> true
      | Some s ->
          (* A sound warm bound: the optimum itself, inflated. *)
          let bound =
            Bb.inflate_bound s.Solution.evaluation.Instance.latency
          in
          List.for_all
            (fun workers ->
              sol_eq (Some s)
                (Bb.solve_par ~prune_above:bound ~workers inst objective))
            worker_counts)

let dp_par_identity =
  Helpers.seed_property ~count:25
    "stage-parallel DP == serial at 1/2/8 workers" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let serial = Interval_exact.min_latency inst in
      List.for_all
        (fun workers ->
          dp_eq serial (Interval_exact.min_latency_par ~workers inst))
        worker_counts)

(* Seeded stress: oversubscribe a small machine far beyond its cores
   (the [~cap:false] discipline of Pool.effective_workers) and keep the
   answers pinned. *)
let par_oversubscription_stress () =
  let workers = Pool.effective_workers ~cap:false 16 in
  Alcotest.(check int) "oversubscription is not capped" 16 workers;
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let inst = Helpers.random_fully_hetero rng ~n:4 ~m:4 in
      let _, max_failure = thresholds_for rng inst in
      let objective = Instance.Min_latency { max_failure } in
      Alcotest.(check bool)
        (Printf.sprintf "bb oversubscribed seed=%d" seed)
        true
        (sol_eq (Bb.solve inst objective) (Bb.solve_par ~workers inst objective));
      Alcotest.(check bool)
        (Printf.sprintf "dp oversubscribed seed=%d" seed)
        true
        (dp_eq
           (Interval_exact.min_latency inst)
           (Interval_exact.min_latency_par ~workers inst)))
    [ 3; 11; 42 ]

(* ------------------------------------------------------------------ *)
(* Obs snapshots across worker counts                                  *)
(* ------------------------------------------------------------------ *)

let par_obs_run workers =
  let obs = Obs.create ~tracing:true ~clock:(Clock.virtual_ ()) () in
  Obs.with_ambient (Some obs) (fun () ->
      let rng = Rng.create 7 in
      let inst = Helpers.random_fully_hetero rng ~n:4 ~m:4 in
      let objective = Instance.Min_latency { max_failure = 0.5 } in
      ignore (Bb.solve_par ~workers inst objective);
      ignore (Interval_exact.min_latency_par ~workers inst));
  (Obs.metrics_jsonl obs, Obs.trace_jsonl obs)

let par_obs_identical_across_workers () =
  let metrics1, trace1 = par_obs_run 1 in
  List.iter
    (fun w ->
      let metrics, trace = par_obs_run w in
      Alcotest.(check string)
        (Printf.sprintf "metrics workers=%d" w)
        metrics1 metrics;
      Alcotest.(check string)
        (Printf.sprintf "trace workers=%d" w)
        trace1 trace)
    [ 2; 8 ]

let par_obs_snapshot () =
  let metrics, _ = par_obs_run 1 in
  Snapshot.check "par-exact-metrics.snap" metrics

(* ------------------------------------------------------------------ *)
(* The shared incumbent cell                                           *)
(* ------------------------------------------------------------------ *)

(* No lost updates: 8 domains race tens of thousands of improvements
   into one cell; the surviving value must be the exact minimum of
   everything any domain published. *)
let bound_no_lost_updates () =
  let cell = Bb.Bound.create Float.infinity in
  let domains = 8 and per = 20_000 in
  let seqs =
    Array.init domains (fun d ->
        let rng = Rng.create (1000 + d) in
        Array.init per (fun _ -> Rng.float_range rng 1.0 1000.0))
  in
  let spawned =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            Array.iter (fun v -> Bb.Bound.improve cell v) seqs.(d)))
  in
  Array.iter Domain.join spawned;
  let expected =
    Array.fold_left
      (fun acc s -> Array.fold_left Float.min acc s)
      Float.infinity seqs
  in
  Alcotest.(check bool)
    "cell holds the exact global minimum" true
    (bits_eq expected (Bb.Bound.get cell))

let bound_is_monotone () =
  let cell = Bb.Bound.create 10.0 in
  Bb.Bound.improve cell 12.0;
  Alcotest.(check bool) "raising is a no-op" true
    (bits_eq 10.0 (Bb.Bound.get cell));
  Bb.Bound.improve cell 4.0;
  Alcotest.(check bool) "lowering lands" true
    (bits_eq 4.0 (Bb.Bound.get cell))

(* ------------------------------------------------------------------ *)
(* The unified inflation slack                                         *)
(* ------------------------------------------------------------------ *)

let prune_slack_pinned () =
  (* One named constant for churn warm starts and the parallel probe:
     16 x the default comparison eps.  Pin the exact value so any drift
     between the two users is a test failure, not a latent asymmetry. *)
  Alcotest.(check bool)
    "prune_slack = 16 * default_eps" true
    (bits_eq Bb.prune_slack (16. *. F.default_eps));
  Alcotest.(check bool)
    "prune_slack = 1.6e-8 exactly" true
    (bits_eq Bb.prune_slack 1.6e-08)

let inflate_bound_matches_churn_formula =
  Helpers.seed_property ~count:200 "inflate_bound == the PR 8 warm-bound formula"
    (fun seed ->
      let rng = Rng.create seed in
      let b0 = Rng.float_range rng (-1e6) 1e6 in
      bits_eq (Bb.inflate_bound b0)
        (b0 +. (16. *. F.default_eps *. Float.max 1.0 (Float.abs b0))))

let inflate_bound_is_sound =
  Helpers.seed_property ~count:200 "inflate_bound strictly exceeds its input"
    (fun seed ->
      let rng = Rng.create seed in
      let b0 = Rng.float_range rng 0.0 1e9 in
      Bb.inflate_bound b0 > b0)

let () =
  Alcotest.run "par_exact"
    [
      ( "identity",
        [
          bb_par_identity;
          bb_par_identity_under_bound;
          dp_par_identity;
          test "oversubscription stress (~cap:false)"
            par_oversubscription_stress;
        ] );
      ( "obs",
        [
          test "metric snapshots identical at 1/2/8 workers"
            par_obs_identical_across_workers;
          test "golden metrics snapshot" par_obs_snapshot;
        ] );
      ( "bound",
        [
          test "no lost updates under 8-domain races" bound_no_lost_updates;
          test "monotone min cell" bound_is_monotone;
        ] );
      ( "slack",
        [
          test "prune_slack pinned" prune_slack_pinned;
          inflate_bound_matches_churn_formula;
          inflate_bound_is_sound;
        ] );
    ]
