(* Tests for the branch-and-bound exact solver and the tri-criteria
   extension. *)

open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp

let test = Helpers.test

let thresholds_for rng inst =
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
  (Rng.float_range rng lo (hi *. 1.2), Rng.float_range rng 0.01 0.8)

(* ------------------------------------------------------------------ *)
(* Branch and bound                                                    *)
(* ------------------------------------------------------------------ *)

let bb_matches_enumeration_min_fp =
  Helpers.seed_property ~count:40 "B&B = enumeration (min FP | L)"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let objective = Instance.Min_failure { max_latency } in
      match (Bb.solve inst objective, Exact.solve inst objective) with
      | None, None -> true
      | Some a, Some b ->
          F.approx_eq ~eps:1e-6 a.Solution.evaluation.Instance.failure
            b.Solution.evaluation.Instance.failure
      | Some _, None | None, Some _ -> false)

let bb_matches_enumeration_min_latency =
  Helpers.seed_property ~count:40 "B&B = enumeration (min L | FP)"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let _, max_failure = thresholds_for rng inst in
      let objective = Instance.Min_latency { max_failure } in
      match (Bb.solve inst objective, Exact.solve inst objective) with
      | None, None -> true
      | Some a, Some b ->
          F.approx_eq ~eps:1e-6 a.Solution.evaluation.Instance.latency
            b.Solution.evaluation.Instance.latency
      | Some _, None | None, Some _ -> false)

let bb_solution_is_consistent =
  Helpers.seed_property ~count:40 "B&B incremental latency = Eq2" (fun seed ->
      (* The search computes latency incrementally; the reported value must
         equal the from-scratch evaluation of the returned mapping. *)
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      match Bb.solve inst (Instance.Min_failure { max_latency }) with
      | None -> true
      | Some s ->
          F.approx_eq ~eps:1e-9 s.Solution.evaluation.Instance.latency
            (Latency.of_mapping inst.Instance.pipeline inst.Instance.platform
               s.Solution.mapping))

let bb_prunes () =
  (* On a mid-size instance the B&B must expand far fewer nodes than the
     flat enumeration has mappings. *)
  let rng = Rng.create 99 in
  let inst = Helpers.random_fully_hetero rng ~n:4 ~m:5 in
  let max_latency, _ = thresholds_for rng inst in
  let _, stats = Bb.solve_with_stats inst (Instance.Min_failure { max_latency }) in
  let space = Exact.count_mappings ~n:4 ~m:5 () in
  Alcotest.(check bool)
    (Printf.sprintf "nodes %d < space %d" stats.Bb.nodes space)
    true
    (stats.Bb.evaluated < space)

let bb_fig5 () =
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let objective = Instance.Min_failure { max_latency = 22.0 } in
  match Bb.solve inst objective with
  | None -> Alcotest.fail "expected a solution"
  | Some s ->
      Helpers.check_close "finds the paper's optimum"
        (1.0 -. (0.9 *. (1.0 -. (0.8 ** 10.0))))
        s.Solution.evaluation.Instance.failure

let bb_stats_independent () =
  (* The search statistics and the per-subset bound tables must not leak
     between solves: interleaving an unrelated instance must leave a
     repeated solve's stats (and answer) exactly as they were the first
     time. *)
  let rng = Rng.create 99 in
  let inst_a = Helpers.random_fully_hetero rng ~n:4 ~m:5 in
  let inst_b = Helpers.random_fully_hetero rng ~n:3 ~m:4 in
  let obj = Instance.Min_failure { max_latency = 1e6 } in
  let check_stats name (a : Bb.stats) (b : Bb.stats) =
    Alcotest.(check int) (name ^ " nodes") a.Bb.nodes b.Bb.nodes;
    Alcotest.(check int) (name ^ " evaluated") a.Bb.evaluated b.Bb.evaluated;
    Alcotest.(check int) (name ^ " pruned") a.Bb.pruned b.Bb.pruned
  in
  let sol1, stats1 = Bb.solve_with_stats inst_a obj in
  let solb, statsb = Bb.solve_with_stats inst_b obj in
  let sol2, stats2 = Bb.solve_with_stats inst_a obj in
  check_stats "repeat solve" stats1 stats2;
  (match (sol1, sol2) with
  | Some s1, Some s2 ->
      Alcotest.(check bool)
        "repeat solve same mapping" true
        (Mapping.equal s1.Solution.mapping s2.Solution.mapping)
  | None, None -> ()
  | _ -> Alcotest.fail "repeat solve disagrees on feasibility");
  let solb', statsb' = Bb.solve_with_stats inst_b obj in
  check_stats "repeat solve (other instance)" statsb statsb';
  match (solb, solb') with
  | Some s1, Some s2 ->
      Alcotest.(check bool)
        "other instance same mapping" true
        (Mapping.equal s1.Solution.mapping s2.Solution.mapping)
  | None, None -> ()
  | _ -> Alcotest.fail "other instance disagrees on feasibility"

(* Golden pin of the search itself, not just its answers: per seeded case,
   the serial solve's answer bits, mapping and stats; the same under its
   own inflated optimum as a warm [?prune_above]; the deterministic
   one-worker probe+confirm counts; and the digest of the certificate
   transcript.  [Reference] pins answers only and [cert-replay] pins
   acceptance only, so this is what holds node counts and transcript bytes
   still across refactors of the search. *)
let search_shapes = [ (3, 3); (4, 4); (5, 4); (3, 6); (6, 5); (5, 6) ]

let render_solution = function
  | None -> "infeasible"
  | Some s ->
      Printf.sprintf "L=%h F=%h %s" s.Solution.evaluation.Instance.latency
        s.Solution.evaluation.Instance.failure
        (Mapping_syntax.to_string s.Solution.mapping)

let render_stats (s : Bb.stats) =
  Printf.sprintf "%d/%d/%d" s.Bb.nodes s.Bb.evaluated s.Bb.pruned

let search_line ~index ~cls inst objective =
  let best, stats = Bb.solve_with_stats inst objective in
  let warm =
    match best with
    | None -> "-"
    | Some s ->
        let prune_above =
          Bb.inflate_bound
            (Instance.objective_value objective s.Solution.evaluation)
        in
        let wbest, wstats = Bb.solve_with_stats ~prune_above inst objective in
        Printf.sprintf "%s stats=%s" (render_solution wbest)
          (render_stats wstats)
  in
  let _, par = Bb.solve_par_with_stats ~workers:1 inst objective in
  let _, cert = Certify.bb inst objective in
  let text = Relpipe_cert.Cert.to_string cert in
  let objective_text =
    match objective with
    | Instance.Min_failure { max_latency } ->
        Printf.sprintf "minF|L<=%h" max_latency
    | Instance.Min_latency { max_failure } ->
        Printf.sprintf "minL|F<=%h" max_failure
  in
  Printf.sprintf
    "%02d %s n=%d m=%d %s\n\
    \  serial %s stats=%s\n\
    \  warm %s\n\
    \  par1 tasks=%d probe=%d confirm=%s\n\
    \  cert md5=%s len=%d\n"
    index cls
    (Pipeline.length inst.Instance.pipeline)
    (Platform.size inst.Instance.platform)
    objective_text (render_solution best) (render_stats stats) warm
    par.Bb.tasks par.Bb.probe_nodes
    (render_stats par.Bb.confirm)
    (Digest.to_hex (Digest.string text))
    (String.length text)

let bb_search_snapshot () =
  let buf = Buffer.create 8192 in
  let index = ref 0 in
  List.iteri
    (fun i (n, m) ->
      List.iter
        (fun (cls, gen) ->
          let rng = Rng.create (100 + i) in
          let inst = gen rng ~n ~m in
          let max_latency, max_failure = thresholds_for rng inst in
          List.iter
            (fun objective ->
              Buffer.add_string buf
                (search_line ~index:!index ~cls inst objective);
              incr index)
            [
              Instance.Min_failure { max_latency };
              Instance.Min_latency { max_failure };
            ])
        [
          ("fully-hetero", Helpers.random_fully_hetero);
          ("comm-homog", Helpers.random_comm_homog);
        ])
    search_shapes;
  (* Two infeasible cases: one cut at the root, one only at the leaves. *)
  let inst = Helpers.random_fully_hetero (Rng.create 200) ~n:4 ~m:5 in
  List.iter
    (fun objective ->
      Buffer.add_string buf
        (search_line ~index:!index ~cls:"fully-hetero" inst objective);
      incr index)
    [
      Instance.Min_failure { max_latency = 1e-3 };
      Instance.Min_latency { max_failure = 1e-12 };
    ];
  Helpers.Snapshot.check "bb-search.snap" (Buffer.contents buf)

(* [Certify.bb] records the confirm pass under the probe's bound; its
   answer must be [Bb.solve]'s, the same mapping with bit-identical
   latency and failure, and so must its claim.  On exact-certify's shapes
   (n=5, m in {5, 6}, its loose min-failure objective and a drawn one of
   each kind) and on bb-search.snap's cases. *)
let certify_identity_cases () =
  let exact_certify =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun m ->
            let rng = Rng.create (500 + seed) in
            let inst = Helpers.random_fully_hetero rng ~n:5 ~m in
            let max_latency, max_failure = thresholds_for rng inst in
            List.map
              (fun objective -> (Printf.sprintf "seed %d m=%d" seed m, inst, objective))
              [
                Instance.Min_failure { max_latency = 1e6 };
                Instance.Min_failure { max_latency };
                Instance.Min_latency { max_failure };
              ])
          [ 5; 6 ])
      [ 0; 1; 2; 3 ]
  in
  let search =
    List.concat
      (List.mapi
         (fun i (n, m) ->
           List.concat_map
             (fun (cls, gen) ->
               let rng = Rng.create (100 + i) in
               let inst = gen rng ~n ~m in
               let max_latency, max_failure = thresholds_for rng inst in
               List.map
                 (fun objective ->
                   (Printf.sprintf "%s n=%d m=%d" cls n m, inst, objective))
                 [
                   Instance.Min_failure { max_latency };
                   Instance.Min_latency { max_failure };
                 ])
             [
               ("fully-hetero", Helpers.random_fully_hetero);
               ("comm-homog", Helpers.random_comm_homog);
             ])
         search_shapes)
  in
  exact_certify @ search

let certify_matches_solve () =
  let module Cert = Relpipe_cert.Cert in
  let same (s : Solution.t) ~latency ~failure ~mapping =
    Mapping.equal s.Solution.mapping mapping
    && F.same_bits s.Solution.evaluation.Instance.latency latency
    && F.same_bits s.Solution.evaluation.Instance.failure failure
  in
  List.iter
    (fun (what, inst, objective) ->
      let n = Pipeline.length inst.Instance.pipeline
      and m = Platform.size inst.Instance.platform in
      let certified, cert = Certify.bb inst objective in
      let agree =
        match (Bb.solve inst objective, certified, cert.Cert.body) with
        | None, None, Cert.Bb { claim = Cert.Infeasible; _ } -> true
        | ( Some s,
            Some c,
            Cert.Bb { claim = Cert.Feasible { latency; failure; mapping }; _ } )
          ->
            same s ~mapping:c.Solution.mapping
              ~latency:c.Solution.evaluation.Instance.latency
              ~failure:c.Solution.evaluation.Instance.failure
            && same s ~latency ~failure ~mapping:(Mapping.make ~n ~m mapping)
        | _ -> false
      in
      Alcotest.(check bool) (what ^ ": solution and claim = Bb.solve") true
        agree;
      match Relpipe_cert.Check.check inst cert with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: certificate rejected: %s" what e)
    (certify_identity_cases ())

(* ------------------------------------------------------------------ *)
(* Tri-criteria                                                        *)
(* ------------------------------------------------------------------ *)

let tri_evaluate_consistent =
  Helpers.seed_property ~count:60 "Tri.evaluate = individual evaluators"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 4) and m = 2 + (seed mod 4) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let mapping = Helpers.random_mapping rng ~n ~m in
      let e = Tri.evaluate inst mapping in
      F.approx_eq e.Tri.latency
        (Latency.of_mapping inst.Instance.pipeline inst.Instance.platform mapping)
      && F.approx_eq e.Tri.period
           (Period.of_mapping inst.Instance.pipeline inst.Instance.platform mapping)
      && F.approx_eq e.Tri.failure
           (Failure.of_mapping inst.Instance.platform mapping))

let tri_exact_respects_constraints =
  Helpers.seed_property ~count:30 "tri-criteria optimum is feasible"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let constraints =
        { Tri.max_latency; max_period = max_latency (* loose on period *) }
      in
      match Tri.exact_min_failure inst constraints with
      | None -> true
      | Some s -> Tri.feasible constraints s.Tri.evaluation)

let tri_tightening_period_cannot_help =
  Helpers.seed_property ~count:25 "tighter period => no better FP"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let loose = { Tri.max_latency; max_period = max_latency } in
      let tight = { Tri.max_latency; max_period = max_latency /. 2.0 } in
      match (Tri.exact_min_failure inst loose, Tri.exact_min_failure inst tight) with
      | _, None -> true
      | None, Some _ -> false
      | Some l, Some t -> F.leq ~eps:1e-9 l.Tri.evaluation.Tri.failure
                            t.Tri.evaluation.Tri.failure)

let tri_loose_period_equals_bicriteria =
  Helpers.seed_property ~count:25 "infinite period bound = bi-criteria optimum"
    (fun seed ->
      (* With the period constraint slack (period <= latency always), the
         tri-criteria optimum must coincide with the bi-criteria one. *)
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let constraints = { Tri.max_latency; max_period = Float.max_float } in
      match
        ( Tri.exact_min_failure inst constraints,
          Exact.solve inst (Instance.Min_failure { max_latency }) )
      with
      | None, None -> true
      | Some a, Some b ->
          F.approx_eq ~eps:1e-6 a.Tri.evaluation.Tri.failure
            b.Solution.evaluation.Instance.failure
      | Some _, None | None, Some _ -> false)

let tri_greedy_feasible_and_bounded =
  Helpers.seed_property ~count:25 "greedy is feasible and >= exact"
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + (seed mod 3) and m = 2 + (seed mod 3) in
      let inst = Helpers.random_fully_hetero rng ~n ~m in
      let max_latency, _ = thresholds_for rng inst in
      let constraints = { Tri.max_latency; max_period = 0.8 *. max_latency } in
      match (Tri.greedy_min_failure inst constraints, Tri.exact_min_failure inst constraints) with
      | None, _ -> true
      | Some _, None -> false
      | Some g, Some e ->
          Tri.feasible constraints g.Tri.evaluation
          && F.geq ~eps:1e-6 g.Tri.evaluation.Tri.failure
               e.Tri.evaluation.Tri.failure)

let tri_fig5_period_pressure () =
  (* On Fig. 5, a tight period bound forbids the 10-fold replication (Pin
     must serialize 10 sends of size 10), pushing the optimum away from the
     paper's split mapping. *)
  let inst = Relpipe_workload.Scenarios.fig5 () in
  let split_eval = Tri.evaluate inst (Relpipe_workload.Scenarios.fig5_split ()) in
  Alcotest.(check bool) "split has a large period" true (split_eval.Tri.period >= 10.0);
  let tight = { Tri.max_latency = 22.0; max_period = 5.0 } in
  match Tri.exact_min_failure inst tight with
  | None -> () (* acceptable: nothing fits such a tight period *)
  | Some s ->
      Alcotest.(check bool) "tight-period optimum is not the big split" true
        (s.Tri.evaluation.Tri.failure > split_eval.Tri.failure)

let () =
  Alcotest.run "bb-tri"
    [
      ( "branch-and-bound",
        [
          bb_matches_enumeration_min_fp;
          bb_matches_enumeration_min_latency;
          bb_solution_is_consistent;
          test "prunes the space" bb_prunes;
          test "solves fig5" bb_fig5;
          test "stats and memo reset between solves" bb_stats_independent;
          test "search pinned by bb-search.snap" bb_search_snapshot;
          test "Certify.bb answers and claims Bb.solve's optimum"
            certify_matches_solve;
        ] );
      ( "tri-criteria",
        [
          tri_evaluate_consistent;
          tri_exact_respects_constraints;
          tri_tightening_period_cannot_help;
          tri_loose_period_equals_bicriteria;
          tri_greedy_feasible_and_bounded;
          test "fig5 under period pressure" tri_fig5_period_pressure;
        ] );
    ]
