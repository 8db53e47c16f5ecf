open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module Table = Relpipe_util.Table
module F = Relpipe_util.Float_cmp
module Stats = Relpipe_util.Stats

let f = Table.fmt_float
let latency_of (s : Solution.t) = s.Solution.evaluation.Instance.latency
let failure_of (s : Solution.t) = s.Solution.evaluation.Instance.failure

(* Shared random-instance helpers (fixed seeds: the tables are
   deterministic). *)
let random_pipeline rng ~n =
  Relpipe_workload.App_gen.random rng
    { Relpipe_workload.App_gen.n; work = (1.0, 20.0); data = (0.5, 10.0) }

let fully_homog rng ~n ~m =
  Instance.make (random_pipeline rng ~n)
    (Relpipe_workload.Plat_gen.fully_homogeneous ~m
       ~speed:(Rng.float_range rng 1.0 10.0)
       ~failure:(Rng.float_range rng 0.05 0.6)
       ~bandwidth:(Rng.float_range rng 1.0 10.0))

let comm_homog rng ~n ~m ~fail_homog =
  let failure =
    if fail_homog then begin
      let fp = Rng.float_range rng 0.05 0.6 in
      (fp, fp)
    end
    else (0.05, 0.6)
  in
  Instance.make (random_pipeline rng ~n)
    (Relpipe_workload.Plat_gen.random_comm_homogeneous rng ~m
       ~speed:(1.0, 10.0) ~failure
       ~bandwidth:(Rng.float_range rng 1.0 10.0))

let fully_hetero rng ~n ~m =
  Instance.make (random_pipeline rng ~n)
    (Relpipe_workload.Plat_gen.random_fully_heterogeneous rng ~m
       ~speed:(1.0, 10.0) ~failure:(0.05, 0.6) ~bandwidth:(0.5, 10.0))

let latency_threshold rng inst =
  let n = Pipeline.length inst.Instance.pipeline in
  let m = Platform.size inst.Instance.platform in
  let lo =
    Latency.of_mapping inst.Instance.pipeline inst.Instance.platform
      (Mapping.single_interval ~n ~m [ Mono.fastest_proc inst.Instance.platform ])
  in
  let hi =
    Latency.of_mapping inst.Instance.pipeline inst.Instance.platform
      (Mapping.single_interval ~n ~m (Platform.procs inst.Instance.platform))
  in
  Rng.float_range rng lo (hi *. 1.2)

(* ------------------------------------------------------------------ *)

let e1_fig34 () =
  let inst = Relpipe_workload.Scenarios.fig34 () in
  let t =
    Table.create [ "mapping"; "analytic latency"; "simulated worst case"; "paper" ]
  in
  let row name mapping paper =
    let lat = Latency.of_mapping inst.Instance.pipeline inst.Instance.platform mapping in
    let sim = Relpipe_sim.Trial.worst_case_latency inst mapping in
    Table.add_row t [ name; f lat; f sim; paper ]
  in
  row "whole pipeline on P0" (Relpipe_workload.Scenarios.fig34_single 0) "105";
  row "whole pipeline on P1" (Relpipe_workload.Scenarios.fig34_single 1) "105";
  row "split {S1}->P0 {S2}->P1" (Relpipe_workload.Scenarios.fig34_split ()) "7";
  let opt, _ = General_mapping.solve inst in
  Table.add_row t [ "optimal general mapping (Thm 4)"; f opt; f opt; "7" ];
  t

let e2_fig5 () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective =
    Instance.Min_failure { max_latency = Relpipe_workload.Scenarios.fig5_threshold }
  in
  let t = Table.create [ "mapping"; "latency"; "failure prob"; "paper" ] in
  let row name mapping paper =
    let e = Instance.evaluate inst mapping in
    Table.add_row t [ name; f e.Instance.latency; f e.Instance.failure; paper ]
  in
  row "single interval, 2 fast procs"
    (Relpipe_workload.Scenarios.fig5_single_two_fast ())
    "FP = 0.64";
  row "split: slow proc + 10 fast replicas"
    (Relpipe_workload.Scenarios.fig5_split ())
    "latency 22, FP < 0.2";
  (match Exact.solve inst objective with
  | Some s ->
      Table.add_row t
        [ "exhaustive optimum (L <= 22)"; f (latency_of s); f (failure_of s);
          "two intervals" ]
  | None -> Table.add_row t [ "exhaustive optimum"; "-"; "-"; "infeasible?" ]);
  t

let optimality_table ~title_col ~instances ~claimed ~reference =
  (* Count how often the polynomial/constructive answer matches the
     exhaustive reference on the given instance family. *)
  let t = Table.create [ title_col; "instances"; "matches"; "match rate" ] in
  List.iter
    (fun (name, insts) ->
      let matches =
        List.length
          (List.filter (fun inst -> F.approx_eq ~eps:1e-6 (claimed inst) (reference inst)) insts)
      in
      let total = List.length insts in
      Table.add_row t
        [ name; string_of_int total; string_of_int matches;
          f (float_of_int matches /. float_of_int total) ])
    instances;
  t

let e3_theorem1 () =
  let rng = Rng.create 301 in
  let make gen = List.init 20 (fun _ -> gen rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 3)) in
  let exhaustive_min_fp inst =
    let n = Pipeline.length inst.Instance.pipeline in
    let m = Platform.size inst.Instance.platform in
    let best = ref Float.infinity in
    Exact.iter_mappings ~n ~m (fun mapping ->
        let fp = Failure.of_mapping inst.Instance.platform mapping in
        if fp < !best then best := fp);
    !best
  in
  optimality_table ~title_col:"platform class (min FP, Thm 1)"
    ~instances:
      [
        ("Fully Homogeneous", make fully_homog);
        ("Comm. Homogeneous", make (fun rng ~n ~m -> comm_homog rng ~n ~m ~fail_homog:false));
        ("Fully Heterogeneous", make fully_hetero);
      ]
    ~claimed:(fun inst -> failure_of (Mono.min_failure inst))
    ~reference:exhaustive_min_fp

let e4_theorem2 () =
  let rng = Rng.create 401 in
  let make gen = List.init 20 (fun _ -> gen rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 3)) in
  optimality_table ~title_col:"platform class (min latency, Thm 2)"
    ~instances:
      [
        ("Fully Homogeneous", make fully_homog);
        ("Comm. Homogeneous", make (fun rng ~n ~m -> comm_homog rng ~n ~m ~fail_homog:false));
      ]
    ~claimed:(fun inst -> latency_of (Mono.min_latency_comm_homog inst))
    ~reference:Exact.min_latency

let e5_tsp_reduction () =
  let rng = Rng.create 501 in
  let t =
    Table.create
      [ "n (vertices)"; "instances"; "TSP-feasible"; "equivalent"; "rate" ]
  in
  List.iter
    (fun n ->
      let instances = List.init 15 (fun _ -> Tsp_reduction.random rng ~n ~max_cost:9) in
      let feas = List.length (List.filter Tsp_reduction.tsp_feasible instances) in
      let equiv = List.length (List.filter Tsp_reduction.equivalent instances) in
      Table.add_row t
        [ string_of_int n; "15"; string_of_int feas; string_of_int equiv;
          f (float_of_int equiv /. 15.0) ])
    [ 3; 4; 5; 6 ];
  t

let e6_general_mapping () =
  let rng = Rng.create 601 in
  let t =
    Table.create
      [ "n x m"; "Dijkstra"; "Bellman-Ford"; "DAG sweep"; "direct DP"; "agree" ]
  in
  List.iter
    (fun (n, m) ->
      let inst = fully_hetero rng ~n ~m in
      let l1, _ = General_mapping.solve ~algo:General_mapping.Dijkstra inst in
      let l2, _ = General_mapping.solve ~algo:General_mapping.Bellman_ford inst in
      let l3, _ = General_mapping.solve ~algo:General_mapping.Dag_sweep inst in
      let l4, _ = General_mapping.solve_dp inst in
      let agree = F.approx_eq l1 l2 && F.approx_eq l2 l3 && F.approx_eq l3 l4 in
      Table.add_row t
        [ Printf.sprintf "%dx%d" n m; f l1; f l2; f l3; f l4;
          (if agree then "yes" else "NO") ])
    [ (2, 3); (4, 5); (8, 8); (16, 12); (32, 16) ];
  t

let e7_algorithms_1_2 () =
  let rng = Rng.create 701 in
  let t = Table.create [ "problem (Fully Homog.)"; "instances"; "matches"; "rate" ] in
  let run objective_of claimed =
    let total = 30 and matches = ref 0 in
    for _ = 1 to total do
      let inst = fully_homog rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 4) in
      let objective = objective_of inst in
      let mine = claimed inst objective in
      let reference = Exact.solve inst objective in
      match mine, reference with
      | None, None -> incr matches
      | Some a, Some b ->
          if
            F.approx_eq ~eps:1e-6
              (Instance.objective_value objective a.Solution.evaluation)
              (Instance.objective_value objective b.Solution.evaluation)
          then incr matches
      | _ -> ()
    done;
    (total, !matches)
  in
  let total, matches =
    run
      (fun inst -> Instance.Min_failure { max_latency = latency_threshold rng inst })
      (fun inst -> function
        | Instance.Min_failure { max_latency } ->
            Fully_homog.min_failure_for_latency inst ~max_latency
        | _ -> assert false)
  in
  Table.add_row t
    [ "Algorithm 1 (min FP | L)"; string_of_int total; string_of_int matches;
      f (float_of_int matches /. float_of_int total) ];
  let total, matches =
    run
      (fun _ -> Instance.Min_latency { max_failure = Rng.float_range rng 0.01 0.8 })
      (fun inst -> function
        | Instance.Min_latency { max_failure } ->
            Fully_homog.min_latency_for_failure inst ~max_failure
        | _ -> assert false)
  in
  Table.add_row t
    [ "Algorithm 2 (min L | FP)"; string_of_int total; string_of_int matches;
      f (float_of_int matches /. float_of_int total) ];
  t

let e8_algorithms_3_4 () =
  let rng = Rng.create 801 in
  let t =
    Table.create [ "problem (CH + FailHomog)"; "instances"; "matches"; "rate" ]
  in
  let run objective_of claimed =
    let total = 30 and matches = ref 0 in
    for _ = 1 to total do
      let inst =
        comm_homog rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 4) ~fail_homog:true
      in
      let objective = objective_of inst in
      match claimed inst objective, Exact.solve inst objective with
      | None, None -> incr matches
      | Some a, Some b ->
          if
            F.approx_eq ~eps:1e-6
              (Instance.objective_value objective a.Solution.evaluation)
              (Instance.objective_value objective b.Solution.evaluation)
          then incr matches
      | _ -> ()
    done;
    (total, !matches)
  in
  let total, matches =
    run
      (fun inst -> Instance.Min_failure { max_latency = latency_threshold rng inst })
      (fun inst -> function
        | Instance.Min_failure { max_latency } ->
            Comm_homog.min_failure_for_latency inst ~max_latency
        | _ -> assert false)
  in
  Table.add_row t
    [ "Algorithm 3 (min FP | L)"; string_of_int total; string_of_int matches;
      f (float_of_int matches /. float_of_int total) ];
  let total, matches =
    run
      (fun _ -> Instance.Min_latency { max_failure = Rng.float_range rng 0.01 0.8 })
      (fun inst -> function
        | Instance.Min_latency { max_failure } ->
            Comm_homog.min_latency_for_failure inst ~max_failure
        | _ -> assert false)
  in
  Table.add_row t
    [ "Algorithm 4 (min L | FP)"; string_of_int total; string_of_int matches;
      f (float_of_int matches /. float_of_int total) ];
  t

let e9_partition_reduction () =
  let rng = Rng.create 901 in
  let t =
    Table.create [ "m (values)"; "instances"; "partition-feasible"; "equivalent"; "rate" ]
  in
  List.iter
    (fun m ->
      let instances =
        List.init 20 (fun _ -> Partition_reduction.random rng ~m ~max_value:12)
      in
      let feas =
        List.length (List.filter Partition_reduction.partition_feasible instances)
      in
      let equiv = List.length (List.filter Partition_reduction.equivalent instances) in
      Table.add_row t
        [ string_of_int m; "20"; string_of_int feas; string_of_int equiv;
          f (float_of_int equiv /. 20.0) ])
    [ 3; 5; 7; 9 ];
  t

let heuristic_gap_table ~seed ~gen ~title =
  (* Optimality gap of each heuristic against the exhaustive optimum, on the
     min-FP-under-latency problem.  Both solves go through one shared
     [Relpipe_service.Engine]: the rng reset replays the same instances for
     every heuristic row, so after the first row each exhaustive reference
     is a cache hit instead of a fresh enumeration. *)
  let module Engine = Relpipe_service.Engine in
  let module Protocol = Relpipe_service.Protocol in
  let engine = Engine.create ~workers:1 ~cache_capacity:256 () in
  let failure_of_response (r : Protocol.response) =
    match r.Protocol.r_outcome with
    | Protocol.Solved { failure; _ } -> Some failure
    | Protocol.Infeasible | Protocol.Failed _ -> None
  in
  let t =
    Table.create
      [ title; "solved/total"; "mean gap"; "max gap"; "optimal found" ]
  in
  let trials = 20 in
  List.iter
    (fun name ->
      let rng = Rng.create seed in
      let gaps = ref [] in
      let solved = ref 0 and optimal = ref 0 and total = ref 0 in
      for _ = 1 to trials do
        let inst = gen rng in
        let objective =
          Instance.Min_failure { max_latency = latency_threshold rng inst }
        in
        let reference =
          failure_of_response
            (Engine.solve_instance engine ~method_:Solver.Exact_enum inst
               objective)
        in
        match reference with
        | None -> () (* genuinely infeasible: skip *)
        | Some reference ->
            incr total;
            let heuristic =
              failure_of_response
                (Engine.solve_instance engine
                   ~method_:(Solver.Heuristic name) inst objective)
            in
            (match heuristic with
            | None -> ()
            | Some failure ->
                incr solved;
                let gap = failure -. reference in
                gaps := gap :: !gaps;
                if F.approx_eq ~eps:1e-6 failure reference then incr optimal)
      done;
      let gaps = Array.of_list !gaps in
      Table.add_row t
        [
          Heuristics.name_to_string name;
          Printf.sprintf "%d/%d" !solved !total;
          (if Array.length gaps = 0 then "-" else f (Stats.mean gaps));
          (if Array.length gaps = 0 then "-"
           else f (Array.fold_left Float.max 0.0 gaps));
          Printf.sprintf "%d/%d" !optimal !solved;
        ])
    Heuristics.all_names;
  t

let e10_open_case () =
  heuristic_gap_table ~seed:1001
    ~gen:(fun rng ->
      comm_homog rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 3) ~fail_homog:false)
    ~title:"heuristic (CH + FailHetero, open)"

let e11_np_hard_case () =
  heuristic_gap_table ~seed:1101
    ~gen:(fun rng -> fully_hetero rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 3))
    ~title:"heuristic (Fully Hetero, NP-hard)"

let e12_simulator () =
  let rng = Rng.create 1201 in
  let t =
    Table.create
      [ "scenario"; "analytic 1-FP"; "empirical rate"; "analytic latency";
        "max simulated"; "within bound" ]
  in
  let row name inst mapping =
    let r =
      Relpipe_sim.Montecarlo.estimate rng inst mapping ~trials:20_000
        ~policy:Relpipe_sim.Trial.Optimistic
    in
    let bounded =
      r.Relpipe_sim.Montecarlo.successes = 0
      || F.leq ~eps:1e-9 r.Relpipe_sim.Montecarlo.max_latency
           r.Relpipe_sim.Montecarlo.analytic_latency
    in
    Table.add_row t
      [
        name;
        f r.Relpipe_sim.Montecarlo.analytic_success;
        f r.Relpipe_sim.Montecarlo.success_rate;
        f r.Relpipe_sim.Montecarlo.analytic_latency;
        (if r.Relpipe_sim.Montecarlo.successes = 0 then "-"
         else f r.Relpipe_sim.Montecarlo.max_latency);
        (if bounded then "yes" else "NO");
      ]
  in
  let fig5 = Relpipe_workload.Scenarios.fig5 () in
  row "fig5 split mapping" fig5 (Relpipe_workload.Scenarios.fig5_split ());
  row "fig5 single interval" fig5 (Relpipe_workload.Scenarios.fig5_single_two_fast ());
  let jpeg = Relpipe_workload.Jpeg.default_instance ~m:6 in
  let n = 7 and m = 6 in
  row "jpeg, everything replicated" jpeg
    (Mapping.single_interval ~n ~m (List.init m Fun.id));
  (match
     Solver.solve jpeg
       (Instance.Min_failure
          { max_latency = 1.5 *. (Solution.of_mapping jpeg
               (Mapping.single_interval ~n ~m [ Mono.fastest_proc jpeg.Instance.platform ])).Solution.evaluation.Instance.latency })
   with
  | Some s -> row "jpeg, solver choice" jpeg s.Solution.mapping
  | None -> ());
  t

let e13_pareto () =
  let t =
    Table.create
      [ "scenario"; "threshold L"; "latency"; "failure prob"; "intervals"; "replicas" ]
  in
  let add name inst solver count =
    List.iter
      (fun p ->
        Table.add_row t
          [
            name;
            f p.Pareto.threshold;
            f (latency_of p.Pareto.solution);
            f (failure_of p.Pareto.solution);
            string_of_int (Mapping.num_intervals p.Pareto.solution.Solution.mapping);
            string_of_int
              (List.length (Mapping.used_procs p.Pareto.solution.Solution.mapping));
          ])
      (Pareto.front_with solver inst ~count)
  in
  add "fig5 (exact)" (Relpipe_workload.Scenarios.fig5 ())
    (fun inst objective -> Exact.solve inst objective)
    8;
  add "jpeg m=6 (solver)" (Relpipe_workload.Jpeg.default_instance ~m:6)
    (fun inst objective -> Solver.solve inst objective)
    6;
  t

let e14_lemma1 () =
  let t =
    Table.create
      [ "platform class"; "instances"; "single interval optimal"; "rate" ]
  in
  let run name gen =
    let rng = Rng.create 1401 in
    let total = 25 and matches = ref 0 in
    for _ = 1 to total do
      let inst = gen rng in
      let objective =
        Instance.Min_failure { max_latency = latency_threshold rng inst }
      in
      match Exact.solve_single_interval inst objective, Exact.solve inst objective with
      | None, None -> incr matches
      | Some a, Some b ->
          if F.approx_eq ~eps:1e-6 (failure_of a) (failure_of b) then incr matches
      | _ -> ()
    done;
    Table.add_row t
      [ name; string_of_int total; string_of_int !matches;
        f (float_of_int !matches /. float_of_int total) ]
  in
  run "Fully Homogeneous (Lemma 1: always)" (fun rng ->
      fully_homog rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 3));
  run "CH + Failure Homog (Lemma 1: always)" (fun rng ->
      comm_homog rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 3) ~fail_homog:true);
  run "CH + Failure Hetero (can break)" (fun rng ->
      comm_homog rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 3) ~fail_homog:false);
  (* The paper's designed counter-example. *)
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective = Instance.Min_failure { max_latency = 22.0 } in
  let single = Option.get (Exact.solve_single_interval inst objective) in
  let full = Option.get (Exact.solve inst objective) in
  Table.add_row t
    [
      "fig5 counter-example";
      "1";
      (if F.approx_eq ~eps:1e-6 (failure_of single) (failure_of full) then "1"
       else Printf.sprintf "0 (%.3g vs %.3g)" (failure_of single) (failure_of full));
      "0 expected";
    ];
  t

let e15_tri_criteria () =
  (* Sweep the period bound on Fig. 5 at the paper's latency threshold:
     tightening throughput requirements forces smaller replication sets
     and hence worse reliability. *)
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let t =
    Table.create
      [ "period bound (fig5, L<=22)"; "latency"; "period"; "failure"; "mapping shape" ]
  in
  List.iter
    (fun max_period ->
      let constraints = { Tri.max_latency = 22.0; max_period } in
      match Tri.exact_min_failure inst constraints with
      | None -> Table.add_row t [ f max_period; "-"; "-"; "-"; "infeasible" ]
      | Some s ->
          Table.add_row t
            [
              f max_period;
              f s.Tri.evaluation.Tri.latency;
              f s.Tri.evaluation.Tri.period;
              f s.Tri.evaluation.Tri.failure;
              Format.asprintf "%a" Mapping.pp s.Tri.mapping;
            ])
    [ Float.max_float; 20.0; 12.0; 8.0; 4.0; 2.0 ];
  t

let e16_bb_ablation () =
  let rng = Rng.create 1601 in
  let t =
    Table.create
      [ "n x m"; "mapping space"; "B&B nodes"; "B&B evaluated"; "agree" ]
  in
  List.iter
    (fun (n, m) ->
      let inst = fully_hetero rng ~n ~m in
      let max_latency = latency_threshold rng inst in
      let objective = Instance.Min_failure { max_latency } in
      let space = Exact.count_mappings ~n ~m () in
      let bb, stats = Bb.solve_with_stats inst objective in
      let reference = Exact.solve inst objective in
      let agree =
        match bb, reference with
        | None, None -> true
        | Some a, Some b ->
            F.approx_eq ~eps:1e-6 (failure_of a) (failure_of b)
        | _ -> false
      in
      Table.add_row t
        [
          Printf.sprintf "%dx%d" n m;
          string_of_int space;
          string_of_int stats.Bb.nodes;
          string_of_int stats.Bb.evaluated;
          (if agree then "yes" else "NO");
        ])
    [ (2, 3); (3, 4); (4, 5); (5, 5) ];
  t

let e16_optima () =
  (* The same four instances as {!e16_bb_ablation} (same seed, same rng
     consumption order), but reporting only the solver's *answers*: the
     optimal failure probability, its latency, and the winning mapping.
     Node counts in e16 are implementation-dependent (pruning strength
     may change as the search evolves); these optima must not.  Floats
     are printed with %.17g so the snapshot pins them bit-for-bit. *)
  let rng = Rng.create 1601 in
  let t =
    Table.create [ "n x m"; "latency bound"; "optimal FP"; "latency"; "mapping" ]
  in
  List.iter
    (fun (n, m) ->
      let inst = fully_hetero rng ~n ~m in
      let max_latency = latency_threshold rng inst in
      let objective = Instance.Min_failure { max_latency } in
      match Bb.solve inst objective with
      | None ->
          Table.add_row t
            [ Printf.sprintf "%dx%d" n m; Printf.sprintf "%.17g" max_latency;
              "infeasible"; "-"; "-" ]
      | Some s ->
          let e = s.Solution.evaluation in
          Table.add_row t
            [
              Printf.sprintf "%dx%d" n m;
              Printf.sprintf "%.17g" max_latency;
              Printf.sprintf "%.17g" e.Instance.failure;
              Printf.sprintf "%.17g" e.Instance.latency;
              Format.asprintf "%a" Mapping.pp s.Solution.mapping;
            ])
    [ (2, 3); (3, 4); (4, 5); (5, 5) ];
  t

let e17_steady_state () =
  let rng = Rng.create 1701 in
  let t =
    Table.create
      [ "instance"; "K"; "analytic period"; "estimated period"; "makespan";
        "latency + (K-1)*period"; "bounded" ]
  in
  let row name inst mapping k =
    let r = Relpipe_sim.Steady.run inst mapping ~datasets:k in
    let bound =
      r.Relpipe_sim.Steady.analytic_latency
      +. (float_of_int (k - 1) *. r.Relpipe_sim.Steady.analytic_period)
    in
    Table.add_row t
      [
        name;
        string_of_int k;
        f r.Relpipe_sim.Steady.analytic_period;
        f r.Relpipe_sim.Steady.estimated_period;
        f r.Relpipe_sim.Steady.makespan;
        f bound;
        (if
           F.leq ~eps:1e-6 r.Relpipe_sim.Steady.makespan bound
           && F.leq ~eps:1e-6 r.Relpipe_sim.Steady.estimated_period
                r.Relpipe_sim.Steady.analytic_period
         then "yes"
         else "NO");
      ]
  in
  row "fig5 split" (Relpipe_workload.Scenarios.fig5 ())
    (Relpipe_workload.Scenarios.fig5_split ())
    100;
  row "fig34 split" (Relpipe_workload.Scenarios.fig34 ())
    (Relpipe_workload.Scenarios.fig34_split ())
    100;
  let inst = fully_hetero rng ~n:6 ~m:8 in
  let mapping =
    Mapping.make ~n:6 ~m:8
      [
        { Mapping.first = 1; last = 3; procs = [ 0; 1; 2 ] };
        { Mapping.first = 4; last = 6; procs = [ 3; 4 ] };
      ]
  in
  row "random FH n=6 m=8" inst mapping 200;
  t

let e18_round_robin () =
  (* Same resources, increasing round-robin split: the period improves,
     the failure probability degrades, latency is stable. *)
  let rng = Rng.create 1801 in
  let inst = comm_homog rng ~n:2 ~m:8 ~fail_homog:false in
  let mapping = Mapping.single_interval ~n:2 ~m:8 (List.init 8 Fun.id) in
  let t =
    Table.create [ "q (groups)"; "latency"; "period"; "failure"; "speedup" ]
  in
  let base_period = ref None in
  List.iter
    (fun q ->
      match Round_robin.partition_groups mapping ~q with
      | None -> Table.add_row t [ string_of_int q; "-"; "-"; "-"; "-" ]
      | Some rr ->
          let period = Round_robin.period inst rr in
          if !base_period = None then base_period := Some period;
          Table.add_row t
            [
              string_of_int q;
              f (Round_robin.latency inst rr);
              f period;
              f (Round_robin.failure inst rr);
              f (Option.get !base_period /. period);
            ])
    [ 1; 2; 4; 8 ];
  t

let e19_interval_vs_general () =
  let rng = Rng.create 1901 in
  let t =
    Table.create
      [ "n x m"; "instances"; "mean gap"; "max gap"; "interval = general" ]
  in
  List.iter
    (fun (n, m) ->
      let trials = 15 in
      let gaps =
        Array.init trials (fun _ ->
            Interval_exact.interval_vs_general_gap (fully_hetero rng ~n ~m))
      in
      let equal_count =
        Array.fold_left
          (fun acc g -> if F.approx_eq ~eps:1e-9 g 1.0 then acc + 1 else acc)
          0 gaps
      in
      Table.add_row t
        [
          Printf.sprintf "%dx%d" n m;
          string_of_int trials;
          f (Stats.mean gaps);
          f (Array.fold_left Float.max 1.0 gaps);
          Printf.sprintf "%d/%d" equal_count trials;
        ])
    [ (3, 4); (5, 6); (8, 8); (10, 10) ];
  t

let e20_mission_scaling () =
  (* A two-tier platform specified by failure *rates*: as the mission gets
     longer every processor becomes less reliable, and the optimal mapping
     under a fixed latency budget enrolls more replicas. *)
  let pipeline =
    Relpipe_workload.App_gen.uniform ~n:3 ~work:20.0 ~data:5.0
  in
  let base =
    Relpipe_workload.Plat_gen.two_tier ~m_slow:2 ~m_fast:4 ~slow_speed:5.0
      ~fast_speed:20.0 ~slow_failure:0.02 ~fast_failure:0.15 ~bandwidth:10.0
  in
  let t =
    Table.create
      [ "mission factor"; "max fp_u"; "optimal FP"; "replicas"; "intervals" ]
  in
  List.iter
    (fun factor ->
      let platform = Failure_rate.scale_mission base ~factor in
      let inst = Instance.make pipeline platform in
      let max_latency =
        2.0
        *. Latency.of_mapping pipeline platform
             (Mapping.single_interval ~n:3 ~m:6 [ Mono.fastest_proc platform ])
      in
      match Exact.solve inst (Instance.Min_failure { max_latency }) with
      | None -> Table.add_row t [ f factor; "-"; "-"; "-"; "-" ]
      | Some s ->
          let worst_fp =
            Array.fold_left Float.max 0.0 (Platform.failures platform)
          in
          Table.add_row t
            [
              f factor;
              f worst_fp;
              f (failure_of s);
              string_of_int (List.length (Mapping.used_procs s.Solution.mapping));
              string_of_int (Mapping.num_intervals s.Solution.mapping);
            ])
    [ 0.5; 1.0; 2.0; 4.0; 8.0 ];
  t

let e21_goodput () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let platform = inst.Instance.platform in
  let mission = 500.0 in
  let rates =
    Array.init (Platform.size platform) (fun u ->
        Failure_rate.rate_of_fp ~fp:(Platform.failure platform u) ~mission)
  in
  let t =
    Table.create
      [ "mapping (fig5, mission 500)"; "analytic 1-FP"; "mean goodput";
        "p10 goodput"; "missions survived" ]
  in
  let row name mapping =
    let rng = Rng.create 2101 in
    let trials = 2000 in
    let goodputs =
      Array.init trials (fun _ ->
          (Relpipe_sim.Lifetime.run rng inst mapping ~rates ~mission)
            .Relpipe_sim.Lifetime.goodput)
    in
    let survived =
      Array.fold_left
        (fun acc g -> if g >= 1.0 then acc + 1 else acc)
        0 goodputs
    in
    Table.add_row t
      [
        name;
        f (Failure.success platform mapping);
        f (Stats.mean goodputs);
        f (Stats.quantile goodputs 0.1);
        Printf.sprintf "%d/%d" survived trials;
      ]
  in
  row "split (reliability-optimal)" (Relpipe_workload.Scenarios.fig5_split ());
  row "single interval, 2 fast" (Relpipe_workload.Scenarios.fig5_single_two_fast ());
  row "single fast processor" (Mapping.single_interval ~n:2 ~m:11 [ 1 ]);
  t

let e22_contiguous () =
  let t =
    Table.create
      [ "family (CH + FailHetero)"; "instances"; "lossless"; "mean excess FP";
        "max excess FP" ]
  in
  let run name gen =
    let rng = Rng.create 2201 in
    let trials = 25 in
    let lossless = ref 0 and total = ref 0 in
    let gaps = ref [] in
    for _ = 1 to trials do
      let inst = gen rng in
      let objective =
        Instance.Min_failure { max_latency = latency_threshold rng inst }
      in
      match Exact.solve inst objective with
      | None -> ()
      | Some reference -> (
          incr total;
          match Contiguous.solve inst objective with
          | None -> gaps := 1.0 :: !gaps (* found nothing: worst case *)
          | Some s ->
              let gap = failure_of s -. failure_of reference in
              gaps := gap :: !gaps;
              if F.approx_eq ~eps:1e-6 (failure_of s) (failure_of reference)
              then incr lossless)
    done;
    let gaps = Array.of_list !gaps in
    Table.add_row t
      [
        name;
        string_of_int !total;
        Printf.sprintf "%d/%d" !lossless !total;
        (if Array.length gaps = 0 then "-" else f (Stats.mean gaps));
        (if Array.length gaps = 0 then "-"
         else f (Array.fold_left Float.max 0.0 gaps));
      ]
  in
  run "uniform failures" (fun rng ->
      comm_homog rng ~n:(1 + Rng.int rng 3) ~m:(2 + Rng.int rng 3)
        ~fail_homog:false);
  run "speed-correlated failures" (fun rng ->
      Instance.make
        (random_pipeline rng ~n:(1 + Rng.int rng 3))
        (Relpipe_workload.Plat_gen.speed_correlated_failures rng
           ~m:(2 + Rng.int rng 3) ~speed:(1.0, 10.0) ~failure:(0.05, 0.7)
           ~bandwidth:4.0));
  t

let e23_comm_model () =
  let t =
    Table.create
      [ "mapping"; "one-port latency (paper)"; "multiport latency";
        "replication penalty" ]
  in
  let row name inst mapping =
    let { Instance.pipeline; platform } = inst in
    Table.add_row t
      [
        name;
        f (Comm_model.latency Comm_model.One_port pipeline platform mapping);
        f (Comm_model.latency Comm_model.Multiport pipeline platform mapping);
        f (Comm_model.replication_penalty pipeline platform mapping);
      ]
  in
  let fig5 = Relpipe_workload.Scenarios.fig5 () in
  row "fig5 split (10 replicas)" fig5 (Relpipe_workload.Scenarios.fig5_split ());
  row "fig5 single, 2 fast" fig5 (Relpipe_workload.Scenarios.fig5_single_two_fast ());
  row "fig5 everything on all procs" fig5
    (Mapping.single_interval ~n:2 ~m:11 (List.init 11 Fun.id));
  let jpeg = Relpipe_workload.Jpeg.default_instance ~m:6 in
  row "jpeg replicated everywhere" jpeg
    (Mapping.single_interval ~n:7 ~m:6 (List.init 6 Fun.id));
  t

let e24_effort_sweep () =
  let t =
    Table.create
      [ "iterations (annealing)"; "instances"; "optimal found"; "mean gap" ]
  in
  List.iter
    (fun iterations ->
      let rng = Rng.create 2401 in
      let trials = 15 in
      let optimal = ref 0 and total = ref 0 in
      let gaps = ref [] in
      for _ = 1 to trials do
        let inst =
          fully_hetero rng ~n:(2 + Rng.int rng 2) ~m:(3 + Rng.int rng 2)
        in
        let objective =
          Instance.Min_failure { max_latency = latency_threshold rng inst }
        in
        match Exact.solve inst objective with
        | None -> ()
        | Some reference -> (
            incr total;
            match Heuristics.annealing ~iterations inst objective with
            | None -> gaps := 1.0 :: !gaps
            | Some s ->
                let gap = failure_of s -. failure_of reference in
                gaps := gap :: !gaps;
                if F.approx_eq ~eps:1e-6 (failure_of s) (failure_of reference)
                then incr optimal)
      done;
      let gaps = Array.of_list !gaps in
      Table.add_row t
        [
          string_of_int iterations;
          string_of_int !total;
          Printf.sprintf "%d/%d" !optimal !total;
          (if Array.length gaps = 0 then "-" else f (Stats.mean gaps));
        ])
    [ 100; 500; 2000; 8000; 32000 ];
  t

let all () =
  [
    ("E1  Fig. 3/4 worked example (latency)", e1_fig34);
    ("E2  Fig. 5 worked example (bi-criteria)", e2_fig5);
    ("E3  Theorem 1: min FP is replicate-everything", e3_theorem1);
    ("E4  Theorem 2: min latency on Comm. Homogeneous", e4_theorem2);
    ("E5  Theorem 3: TSP reduction equivalence", e5_tsp_reduction);
    ("E6  Theorem 4: general mappings by shortest path", e6_general_mapping);
    ("E7  Algorithms 1/2 vs exhaustive optimum", e7_algorithms_1_2);
    ("E8  Algorithms 3/4 vs exhaustive optimum", e8_algorithms_3_4);
    ("E9  Theorem 7: 2-PARTITION reduction equivalence", e9_partition_reduction);
    ("E10 Open case: CH + Failure Heterogeneous heuristics", e10_open_case);
    ("E11 NP-hard case: Fully Heterogeneous heuristics", e11_np_hard_case);
    ("E12 Simulator vs analytic model", e12_simulator);
    ("E13 Latency/reliability Pareto fronts", e13_pareto);
    ("E14 Lemma 1: single-interval optimality", e14_lemma1);
    ("E15 Tri-criteria: reliability under latency+period bounds", e15_tri_criteria);
    ("E16 Ablation: branch-and-bound vs flat enumeration", e16_bb_ablation);
    ("E17 Steady-state simulation vs analytic period", e17_steady_state);
    ("E18 Round-robin replication: throughput vs reliability", e18_round_robin);
    ("E19 Open problem 4.1: interval vs general mapping gap", e19_interval_vs_general);
    ("E20 Mission-length scaling (failure-rate view)", e20_mission_scaling);
    ("E21 Goodput under mid-stream failures", e21_goodput);
    ("E22 Speed-contiguity hypothesis on the open case", e22_contiguous);
    ("E23 One-port vs multiport communication-model ablation", e23_comm_model);
    ("E24 Heuristic effort sweep (annealing iterations)", e24_effort_sweep);
  ]
