open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp

let test = Helpers.test

let evaluation (s : Solution.t) = s.Solution.evaluation
let latency_of s = (evaluation s).Instance.latency
let failure_of s = (evaluation s).Instance.failure

(* ------------------------------------------------------------------ *)
(* Theorem 1: min FP = replicate everything everywhere                 *)
(* ------------------------------------------------------------------ *)

let thm1_beats_exhaustive =
  Helpers.seed_property ~count:40 "min_failure is optimal vs exhaustive"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let claimed = failure_of (Mono.min_failure inst) in
      let best = ref Float.infinity in
      Exact.iter_mappings ~n ~m (fun mapping ->
          let fp = Failure.of_mapping inst.Instance.platform mapping in
          if fp < !best then best := fp);
      F.leq ~eps:1e-9 claimed !best)

let thm1_shape () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let s = Mono.min_failure inst in
  Alcotest.(check int) "single interval" 1 (Mapping.num_intervals s.Solution.mapping);
  Alcotest.(check int) "all procs" 11
    (List.length (Mapping.used_procs s.Solution.mapping))

(* ------------------------------------------------------------------ *)
(* Theorem 2: min latency on Comm. Homogeneous                         *)
(* ------------------------------------------------------------------ *)

let thm2_beats_exhaustive =
  Helpers.seed_property ~count:40 "comm-homog min latency is optimal"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_comm_homog rng ~n ~m in
      let claimed = latency_of (Mono.min_latency_comm_homog inst) in
      let best = Exact.min_latency inst in
      F.approx_eq ~eps:1e-9 claimed best)

let thm2_uses_fastest () =
  let rng = Rng.create 5 in
  let inst = Helpers.random_comm_homog rng ~n:4 ~m:5 in
  let s = Mono.min_latency_comm_homog inst in
  let u = List.hd (Mapping.used_procs s.Solution.mapping) in
  let smax =
    List.fold_left
      (fun acc v -> Float.max acc (Platform.speed inst.Instance.platform v))
      0.0
      (Platform.procs inst.Instance.platform)
  in
  Helpers.check_close "fastest" smax (Platform.speed inst.Instance.platform u)

let thm2_rejects_hetero () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mono.min_latency_comm_homog inst);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Theorem 4: general mappings via shortest path                       *)
(* ------------------------------------------------------------------ *)

let fig6_graph_shape () =
  let rng = Rng.create 9 in
  let inst = Helpers.random_fully_hetero rng ~n:3 ~m:4 in
  let g, src, dst = General_mapping.graph inst in
  let n = 3 and m = 4 in
  Alcotest.(check int) "vertices" ((n * m) + 2) (Relpipe_graph.Graph.n_vertices g);
  Alcotest.(check int) "edges" (((n - 1) * m * m) + (2 * m))
    (Relpipe_graph.Graph.n_edges g);
  Alcotest.(check int) "source" 0 src;
  Alcotest.(check int) "sink" ((n * m) + 1) dst

let all_algos_agree =
  Helpers.seed_property ~count:60 "Dijkstra = Bellman-Ford = DAG = DP"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 5) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let l1, a1 = General_mapping.solve ~algo:General_mapping.Dijkstra inst in
      let l2, _ = General_mapping.solve ~algo:General_mapping.Bellman_ford inst in
      let l3, _ = General_mapping.solve ~algo:General_mapping.Dag_sweep inst in
      let l4, a4 = General_mapping.solve_dp inst in
      F.approx_eq l1 l2 && F.approx_eq l2 l3 && F.approx_eq l3 l4
      && F.approx_eq l1
           (Latency.of_assignment inst.Instance.pipeline inst.Instance.platform a1)
      && F.approx_eq l4
           (Latency.of_assignment inst.Instance.pipeline inst.Instance.platform a4))

let general_beats_interval =
  Helpers.seed_property ~count:40
    "general mapping <= best unreplicated interval mapping" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let general = General_mapping.optimal_latency inst in
      match Exact.min_latency_unreplicated inst with
      | Some (interval_best, _) -> F.leq ~eps:1e-9 general interval_best
      | None -> false)

let general_beats_exhaustive_replicated =
  Helpers.seed_property ~count:25
    "general mapping <= any replicated interval mapping" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let general = General_mapping.optimal_latency inst in
      (* Replication can only hurt latency (paper Section 4.1), so the
         general-mapping optimum lower-bounds the whole mapping space. *)
      F.leq ~eps:1e-9 general (Exact.min_latency inst))

let fig34_general_optimum () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  let latency, assignment = General_mapping.solve inst in
  Helpers.check_close "fig34 optimum is the split" 7.0 latency;
  Alcotest.(check int) "stage1 on P0" 0 (Assignment.proc assignment 1);
  Alcotest.(check int) "stage2 on P1" 1 (Assignment.proc assignment 2)

(* ------------------------------------------------------------------ *)
(* Theorem 3 context: one-to-one mappings                              *)
(* ------------------------------------------------------------------ *)

let one_to_one_exact_vs_bruteforce =
  Helpers.seed_property ~count:40 "branch-and-bound = brute force" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) in
      let m = n + (seed mod 2) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let brute =
        Seq.fold_left
          (fun acc procs ->
            let c = One_to_one.cost inst (Array.of_list procs) in
            Float.min acc c)
          Float.infinity
          (Relpipe_util.Combin.injections n
             (Platform.procs inst.Instance.platform))
      in
      match One_to_one.exact inst with
      | Some (c, _) -> F.approx_eq ~eps:1e-9 c brute
      | None -> false)

let one_to_one_heuristics_bounded =
  Helpers.seed_property ~count:30 "greedy and local search >= exact"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + (seed mod 3) in
      let m = n + 1 + (seed mod 2) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      match One_to_one.exact inst with
      | None -> false
      | Some (opt, _) ->
          let check = function
            | Some (c, mapping) ->
                F.geq ~eps:1e-9 c opt
                && F.approx_eq ~eps:1e-9 c
                     (Latency.of_mapping inst.Instance.pipeline
                        inst.Instance.platform mapping)
            | None -> false
          in
          check (One_to_one.greedy inst) && check (One_to_one.local_search inst))

let one_to_one_bicriteria_vs_bruteforce =
  Helpers.seed_property ~count:40 "bi-criteria one-to-one = brute force"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) in
      let m = n + (seed mod 2) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_failure = Rng.float_range rng 0.1 0.9 in
      let objective = Instance.Min_latency { max_failure } in
      let brute =
        Seq.fold_left
          (fun acc procs ->
            let arr = Array.of_list procs in
            let latency = One_to_one.cost inst arr in
            let fp =
              -.Float.expm1
                  (List.fold_left
                     (fun s u ->
                       s +. Float.log1p (-.Platform.failure inst.Instance.platform u))
                     0.0 procs)
            in
            if F.leq fp max_failure then Float.min acc latency else acc)
          Float.infinity
          (Relpipe_util.Combin.injections n
             (Platform.procs inst.Instance.platform))
      in
      match One_to_one.exact_bicriteria inst objective with
      | None -> not (Float.is_finite brute)
      | Some s ->
          F.approx_eq ~eps:1e-9 s.Solution.evaluation.Instance.latency brute
          && Instance.feasible objective s.Solution.evaluation)

let one_to_one_bicriteria_consistent =
  Helpers.seed_property ~count:30
    "bi-criteria one-to-one evaluation matches model evaluators" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) in
      let m = n + 1 in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      match
        One_to_one.exact_bicriteria inst (Instance.Min_failure { max_latency = 1e9 })
      with
      | None -> false
      | Some s ->
          let e = Instance.evaluate inst s.Solution.mapping in
          F.approx_eq ~eps:1e-9 e.Instance.latency s.Solution.evaluation.Instance.latency
          && F.approx_eq ~eps:1e-9 e.Instance.failure
               s.Solution.evaluation.Instance.failure)

let one_to_one_infeasible () =
  let rng = Rng.create 3 in
  let inst = Helpers.random_fully_hetero rng ~n:4 ~m:2 in
  Alcotest.(check bool) "n > m gives None" true (One_to_one.exact inst = None);
  Alcotest.(check bool) "greedy too" true (One_to_one.greedy inst = None)

(* ------------------------------------------------------------------ *)
(* Algorithms 1 and 2 (Fully Homogeneous)                              *)
(* ------------------------------------------------------------------ *)

let thresholds_for rng inst =
  (* Derive meaningful thresholds from the instance's own envelope. *)
  let lo =
    latency_of
      (Solution.of_mapping inst
         (Mapping.single_interval
            ~n:(Pipeline.length inst.Instance.pipeline)
            ~m:(Platform.size inst.Instance.platform)
            [ Mono.fastest_proc inst.Instance.platform ]))
  in
  let hi = latency_of (Mono.min_failure inst) in
  let l = Rng.float_range rng lo (hi *. 1.2) in
  let fp = Rng.float_range rng 0.001 0.8 in
  (l, fp)

let alg1_optimal_vs_exact =
  Helpers.seed_property ~count:50 "Algorithm 1 matches exhaustive optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_homog rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      let mine = Fully_homog.min_failure_for_latency inst ~max_latency in
      let reference = Exact.solve inst objective in
      match mine, reference with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (failure_of a) (failure_of b)
      | Some _, None | None, Some _ -> false)

let alg2_optimal_vs_exact =
  Helpers.seed_property ~count:50 "Algorithm 2 matches exhaustive optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_homog rng ~n ~m in
      let _, max_failure = thresholds_for rng inst in
      let objective = Instance.Min_latency { max_failure } in
      let mine = Fully_homog.min_latency_for_failure inst ~max_failure in
      let reference = Exact.solve inst objective in
      match mine, reference with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (latency_of a) (latency_of b)
      | Some _, None | None, Some _ -> false)

let alg1_hetero_failures_remark =
  Helpers.seed_property ~count:30
    "Algorithm 1 stays optimal with heterogeneous failures (paper remark)"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      (* Homogeneous speeds/links, heterogeneous failures. *)
      let speed = Rng.float_range rng 1.0 5.0 in
      let platform =
        Platform.uniform_links
          ~speeds:(Array.make m speed)
          ~failures:(Array.init m (fun _ -> Rng.float_range rng 0.05 0.9))
          ~bandwidth:2.0
      in
      let inst = Instance.make (Helpers.random_pipeline rng ~n) platform in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      match
        ( Fully_homog.min_failure_for_latency inst ~max_latency,
          Exact.solve inst objective )
      with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (failure_of a) (failure_of b)
      | Some _, None | None, Some _ -> false)

let alg1_infeasible () =
  let inst =
    Instance.make
      (Pipeline.of_costs ~input:10.0 [ (100.0, 10.0) ])
      (Platform.fully_homogeneous ~m:3 ~speed:1.0 ~failure:0.2 ~bandwidth:1.0)
  in
  Alcotest.(check bool) "latency 1 infeasible" true
    (Fully_homog.min_failure_for_latency inst ~max_latency:1.0 = None)

let alg2_infeasible () =
  let inst =
    Instance.make
      (Pipeline.of_costs ~input:1.0 [ (1.0, 1.0) ])
      (Platform.fully_homogeneous ~m:2 ~speed:1.0 ~failure:0.9 ~bandwidth:1.0)
  in
  (* Best possible FP = 0.81 > 0.5. *)
  Alcotest.(check bool) "unreachable FP" true
    (Fully_homog.min_latency_for_failure inst ~max_failure:0.5 = None);
  match Fully_homog.min_latency_for_failure inst ~max_failure:0.81 with
  | Some s -> Alcotest.(check int) "needs both procs" 2
                (List.length (Mapping.used_procs s.Solution.mapping))
  | None -> Alcotest.fail "0.81 is achievable"

let alg1_applicability () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  Alcotest.(check bool) "raises on comm-homog hetero speeds" true
    (try
       ignore (Fully_homog.min_failure_for_latency inst ~max_latency:22.0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Algorithms 3 and 4 (Comm. Homogeneous + Failure Homogeneous)        *)
(* ------------------------------------------------------------------ *)

let alg3_optimal_vs_exact =
  Helpers.seed_property ~count:50 "Algorithm 3 matches exhaustive optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      match
        (Comm_homog.min_failure_for_latency inst ~max_latency, Exact.solve inst objective)
      with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (failure_of a) (failure_of b)
      | Some _, None | None, Some _ -> false)

let alg4_optimal_vs_exact =
  Helpers.seed_property ~count:50 "Algorithm 4 matches exhaustive optimum"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n ~m in
      let _, max_failure = thresholds_for rng inst in
      let objective = Instance.Min_latency { max_failure } in
      match
        (Comm_homog.min_latency_for_failure inst ~max_failure, Exact.solve inst objective)
      with
      | None, None -> true
      | Some a, Some b -> F.approx_eq ~eps:1e-6 (latency_of a) (latency_of b)
      | Some _, None | None, Some _ -> false)

let alg3_latency_monotone =
  Helpers.seed_property ~count:40 "latency_with_fastest nondecreasing in k"
    (fun seed ->
      let rng = Rng.create seed in
      let m = 2 + (seed mod 5) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n:3 ~m in
      let rec check k =
        if k >= m then true
        else
          F.leq ~eps:1e-9
            (Comm_homog.latency_with_fastest inst k)
            (Comm_homog.latency_with_fastest inst (k + 1))
          && check (k + 1)
      in
      check 1)

let alg3_applicability () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  Alcotest.(check bool) "raises on failure-hetero" true
    (try
       ignore (Comm_homog.min_failure_for_latency inst ~max_latency:22.0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Lemma 1: single interval suffices on the homogeneous classes        *)
(* ------------------------------------------------------------------ *)

let lemma1_fully_homog =
  Helpers.seed_property ~count:40
    "single-interval optimum = global optimum (Fully Homog.)" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_homog rng ~n ~m in
      let max_latency, max_failure = thresholds_for rng inst in
      List.for_all
        (fun objective ->
          match
            (Exact.solve_single_interval inst objective, Exact.solve inst objective)
          with
          | None, None -> true
          | Some a, Some b ->
              F.approx_eq ~eps:1e-6
                (Instance.objective_value objective (evaluation a))
                (Instance.objective_value objective (evaluation b))
          | Some _, None | None, Some _ -> false)
        [
          Instance.Min_failure { max_latency };
          Instance.Min_latency { max_failure };
        ])

let lemma1_comm_homog_fail_homog =
  Helpers.seed_property ~count:40
    "single-interval optimum = global optimum (CH + FailHomog)" (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_comm_homog_fail_homog rng ~n ~m in
      let max_latency, max_failure = thresholds_for rng inst in
      List.for_all
        (fun objective ->
          match
            (Exact.solve_single_interval inst objective, Exact.solve inst objective)
          with
          | None, None -> true
          | Some a, Some b ->
              F.approx_eq ~eps:1e-6
                (Instance.objective_value objective (evaluation a))
                (Instance.objective_value objective (evaluation b))
          | Some _, None | None, Some _ -> false)
        [
          Instance.Min_failure { max_latency };
          Instance.Min_latency { max_failure };
        ])

let lemma1_breaks_on_fig5 () =
  (* The paper's counter-example: with heterogeneous failures the
     single-interval restriction is strictly suboptimal. *)
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective =
    Instance.Min_failure { max_latency = Relpipe_workload.Scenarios.fig5_threshold }
  in
  let restricted = Option.get (Exact.solve_single_interval inst objective) in
  let unrestricted = Option.get (Exact.solve inst objective) in
  Helpers.check_close "restricted optimum is the paper's 0.64" 0.64
    (failure_of restricted);
  Helpers.check_leq "unrestricted beats it" (failure_of unrestricted)
    (1.0 -. (0.9 *. (1.0 -. (0.8 ** 10.0))));
  Alcotest.(check bool) "strictly better" true
    (failure_of unrestricted < 0.64 -. 0.1)

(* ------------------------------------------------------------------ *)
(* Exact machinery                                                     *)
(* ------------------------------------------------------------------ *)

let exact_count_formula () =
  (* n=2, m=2: compositions {[1..2]}, {[1..1][2..2]}; single interval has 3
     subsets; the split has 2 ordered disjoint pairs -> 5 mappings. *)
  Alcotest.(check int) "n2 m2" 5 (Exact.count_mappings ~n:2 ~m:2 ());
  (* Single stage: 2^m - 1 replication sets. *)
  Alcotest.(check int) "n1 m4" 15 (Exact.count_mappings ~n:1 ~m:4 ());
  (* The closed form counts exactly what the enumerator walks. *)
  let enumerated ~n ~m =
    let count = ref 0 in
    Exact.iter_mappings ~n ~m (fun _ -> incr count);
    !count
  in
  let check ~n ~m expected =
    Alcotest.(check int)
      (Printf.sprintf "n%d m%d" n m)
      expected (Exact.count_mappings ~n ~m ())
  in
  for n = 1 to 6 do
    for m = 1 to 6 do
      check ~n ~m (enumerated ~n ~m)
    done
  done;
  (* fig5's shape, within the default budget. *)
  Alcotest.(check int) "n2 m11 enumerated" 175_099 (enumerated ~n:2 ~m:11);
  check ~n:2 ~m:11 175_099

(* Counts past max_int saturate instead of wrapping: the count never
   decreases as processors are added, and stays exact below the
   saturation point. *)
let exact_count_saturates () =
  Alcotest.(check int) "n7 m16 exact" 248_242_046_141_055
    (Exact.count_mappings ~n:7 ~m:16 ());
  Alcotest.(check int) "n40 m62 saturated" max_int
    (Exact.count_mappings ~n:40 ~m:62 ());
  List.iter
    (fun n ->
      for m = 2 to 62 do
        let before = Exact.count_mappings ~n ~m:(m - 1) ()
        and after = Exact.count_mappings ~n ~m () in
        if after < before then
          Alcotest.failf "n%d: %d mappings at m=%d but %d at m=%d" n before
            (m - 1) after m
      done)
    [ 1; 7; 40; 200 ]

let exact_enumerates_valid =
  Helpers.seed_property ~count:20 "enumerated mappings validate" (fun seed ->
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let ok = ref true in
      Exact.iter_mappings ~n ~m (fun mapping ->
          match Mapping.validate ~n ~m (Mapping.intervals mapping) with
          | Ok _ -> ()
          | Error _ -> ok := false);
      !ok)

(* n=3, m=12 spans 16,245,775 mappings, over the 5,000,000 cap: refused
   before any enumeration, not after walking the cap. *)
let exact_budget_guard () =
  let rng = Rng.create 1 in
  let inst = Helpers.random_fully_hetero rng ~n:3 ~m:12 in
  match Exact.solve inst (Instance.Min_latency { max_failure = 1.0 }) with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Exact.Too_large msg ->
      Alcotest.(check string) "refusal"
        "Exact.solve: more than 5000000 mappings (n=3 m=12)" msg

(* ------------------------------------------------------------------ *)
(* Pareto                                                              *)
(* ------------------------------------------------------------------ *)

let pareto_front_sane () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let front =
    Pareto.front_with
      (fun inst objective -> Exact.solve inst objective)
      inst ~count:8
  in
  Alcotest.(check bool) "non-empty" true (front <> []);
  Alcotest.(check bool) "non-dominated staircase" true
    (Pareto.is_non_dominated front);
  (* Every point is feasible for its own threshold. *)
  List.iter
    (fun p ->
      Helpers.check_leq "within threshold"
        (latency_of p.Pareto.solution)
        p.Pareto.threshold)
    front

let pareto_knee () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let front =
    Pareto.front_with (fun inst obj -> Exact.solve inst obj) inst ~count:8
  in
  match Pareto.knee front with
  | None -> Alcotest.fail "expected a knee on a non-empty front"
  | Some k ->
      (* The knee is a member of the front and not one of the two extremes
         unless the front is tiny. *)
      Alcotest.(check bool) "knee in front" true (List.memq k front);
      if List.length front >= 3 then begin
        let first = List.hd front in
        let last = List.nth front (List.length front - 1) in
        Alcotest.(check bool) "knee is a compromise" true
          (k != first || k != last)
      end;
      Alcotest.(check bool) "empty front" true (Pareto.knee [] = None)

let pareto_dual_direction () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let front =
    Pareto.front_by_failure
      ~solve:(fun objective -> Exact.solve inst objective)
      ~thresholds:(Pareto.failure_thresholds inst ~count:8)
  in
  Alcotest.(check bool) "non-empty" true (front <> []);
  Alcotest.(check bool) "staircase" true (Pareto.is_non_dominated front);
  (* Every point satisfies its own FP threshold. *)
  List.iter
    (fun p ->
      Helpers.check_leq "within FP threshold"
        p.Pareto.solution.Solution.evaluation.Instance.failure
        p.Pareto.threshold)
    front

let pareto_directions_consistent =
  Helpers.seed_property ~count:10 "both sweep directions trace the same front"
    (fun seed ->
      (* Every point of the dual sweep must be dominated-or-equal by some
         point of the primal sweep and vice versa (up to threshold
         granularity we only check the weaker containment: no dual point
         strictly dominates every primal point). *)
      let rng = Rng.create seed in
      let inst = Helpers.random_fully_hetero rng ~n:(1 + (seed mod 3)) ~m:3 in
      let primal =
        Pareto.front_with (fun i o -> Exact.solve i o) inst ~count:6
      in
      let dual =
        Pareto.front_by_failure
          ~solve:(fun o -> Exact.solve inst o)
          ~thresholds:(Pareto.failure_thresholds inst ~count:6)
      in
      List.for_all
        (fun d ->
          not
            (List.for_all
               (fun p ->
                 Instance.dominates d.Pareto.solution.Solution.evaluation
                   p.Pareto.solution.Solution.evaluation)
               primal)
          || primal = [])
        dual)

let pareto_thresholds_ordered () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let ts = Pareto.latency_thresholds inst ~count:6 in
  Alcotest.(check int) "count" 6 (List.length ts);
  let rec increasing = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as tl) -> a < b && increasing tl
  in
  Alcotest.(check bool) "increasing" true (increasing ts)

(* ------------------------------------------------------------------ *)
(* Solver facade                                                       *)
(* ------------------------------------------------------------------ *)

(* On the classes Auto answers exactly, Auto and the exact method reply
   with the oracle's answer itself: the same mapping with bit-identical
   latency and failure, or infeasible together.  Every shape n in 1..6,
   m in 2..6 of each class is drawn from its own seed.  The loose latency
   bound makes the failure probability tie across cut positions. *)
let solver_auto_dispatch () =
  let classes =
    [
      ("fully-hetero", Helpers.random_fully_hetero);
      ("comm-homog", Helpers.random_comm_homog);
      ( "speed-correlated",
        fun rng ~n ~m ->
          Instance.make
            (Helpers.random_pipeline rng ~n)
            (Relpipe_workload.Plat_gen.speed_correlated_failures rng ~m
               ~speed:(1.0, 10.0) ~failure:(0.05, 0.6)
               ~bandwidth:(Rng.float_range rng 1.0 10.0)) );
    ]
  in
  let same (a : Solution.t) (b : Solution.t) =
    Mapping.equal a.Solution.mapping b.Solution.mapping
    && F.same_bits (latency_of a) (latency_of b)
    && F.same_bits (failure_of a) (failure_of b)
  in
  List.iteri
    (fun c (name, make) ->
      for n = 1 to 6 do
        for m = 2 to 6 do
          let rng = Rng.create ((100 * c) + (10 * n) + m) in
          let inst = make rng ~n ~m in
          let max_latency, max_failure = thresholds_for rng inst in
          List.iter
            (fun objective ->
              let oracle = Exact.solve inst objective in
              List.iter
                (fun (label, method_) ->
                  match (Solver.run ~method_ inst objective, oracle) with
                  | Ok None, None -> ()
                  | Ok (Some a), Some b when same a b -> ()
                  | _ ->
                      Alcotest.failf "%s n=%d m=%d %a: %s differs from Exact"
                        name n m Instance.pp_objective objective label)
                [ ("auto", Solver.Auto); ("exact", Solver.Exact_enum) ])
            [
              Instance.Min_latency { max_failure };
              Instance.Min_failure { max_latency };
              Instance.Min_failure { max_latency = 1e9 };
            ]
        done
      done)
    classes

let solver_polynomial_raises () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  Alcotest.(check bool) "raises on hetero" true
    (try
       ignore
         (Solver.solve ~method_:Solver.Polynomial inst
            (Instance.Min_latency { max_failure = 0.5 }));
       false
     with Invalid_argument _ -> true)

let solver_describe () =
  let fh =
    Instance.make
      (Pipeline.of_costs ~input:1.0 [ (1.0, 1.0) ])
      (Platform.fully_homogeneous ~m:2 ~speed:1.0 ~failure:0.1 ~bandwidth:1.0)
  in
  let d = Solver.describe fh in
  Alcotest.(check bool) "mentions algorithms" true
    (Helpers.contains ~needle:"Algorithms 1/2" d)

let () =
  Alcotest.run "core"
    [
      ( "theorem-1",
        [ thm1_beats_exhaustive; test "shape" thm1_shape ] );
      ( "theorem-2",
        [
          thm2_beats_exhaustive;
          test "uses fastest" thm2_uses_fastest;
          test "rejects hetero links" thm2_rejects_hetero;
        ] );
      ( "theorem-4",
        [
          test "fig6 graph shape" fig6_graph_shape;
          all_algos_agree;
          general_beats_interval;
          general_beats_exhaustive_replicated;
          test "fig34 optimum" fig34_general_optimum;
        ] );
      ( "one-to-one",
        [
          one_to_one_exact_vs_bruteforce;
          one_to_one_heuristics_bounded;
          one_to_one_bicriteria_vs_bruteforce;
          one_to_one_bicriteria_consistent;
          test "infeasible when n > m" one_to_one_infeasible;
        ] );
      ( "algorithms-1-2",
        [
          alg1_optimal_vs_exact;
          alg2_optimal_vs_exact;
          alg1_hetero_failures_remark;
          test "alg1 infeasible" alg1_infeasible;
          test "alg2 infeasible and boundary" alg2_infeasible;
          test "applicability check" alg1_applicability;
        ] );
      ( "algorithms-3-4",
        [
          alg3_optimal_vs_exact;
          alg4_optimal_vs_exact;
          alg3_latency_monotone;
          test "applicability check" alg3_applicability;
        ] );
      ( "lemma-1",
        [
          lemma1_fully_homog;
          lemma1_comm_homog_fail_homog;
          test "breaks on fig5 (paper counter-example)" lemma1_breaks_on_fig5;
        ] );
      ( "exact",
        [
          test "count formula" exact_count_formula;
          test "count saturates without wrapping" exact_count_saturates;
          exact_enumerates_valid;
          test "budget guard" exact_budget_guard;
        ] );
      ( "pareto",
        [
          test "front is sane" pareto_front_sane;
          test "knee" pareto_knee;
          test "dual direction" pareto_dual_direction;
          pareto_directions_consistent;
          test "thresholds ordered" pareto_thresholds_ordered;
        ] );
      ( "solver",
        [
          test "Auto equals Exact on small instances" solver_auto_dispatch;
          test "polynomial raises" solver_polynomial_raises;
          test "describe" solver_describe;
        ] );
    ]
