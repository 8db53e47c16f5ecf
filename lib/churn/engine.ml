open Relpipe_model
module Interval_exact = Relpipe_core.Interval_exact
module Bb = Relpipe_core.Bb
module Solution = Relpipe_core.Solution
module Obs = Relpipe_obs.Obs
module Clock = Relpipe_obs.Clock
module Pool = Relpipe_pool.Pool
module F = Relpipe_util.Float_cmp

type step = {
  index : int;
  event : Event.t option;
  label : string;
  world : World.t;
  dp : (float * Mapping.t) option;
  solution : Solution.t option;
  reuse : Interval_exact.Dp.reuse;
  bb_stats : Bb.stats;
  warm_bound : bool;
  moved_stages : int;
  ttr_ns : int;
}

let equal_dp a b =
  match (a, b) with
  | None, None -> true
  | Some (l1, m1), Some (l2, m2) -> F.same_bits l1 l2 && Mapping.equal m1 m2
  | (None | Some _), _ -> false

let equal_solution a b =
  match (a, b) with
  | None, None -> true
  | Some s1, Some s2 ->
      Mapping.equal s1.Solution.mapping s2.Solution.mapping
      && F.same_bits s1.Solution.evaluation.Instance.latency
           s2.Solution.evaluation.Instance.latency
      && F.same_bits s1.Solution.evaluation.Instance.failure
           s2.Solution.evaluation.Instance.failure
  | (None | Some _), _ -> false

(* Mapping stability, counted per stage over {e stable} processor ids so a
   death's renumbering is not itself movement: stage [s] moved when the
   identity set of its replicas changed. *)
let stage_ids world mapping s =
  let iv = Mapping.interval_of_stage mapping s in
  List.sort Int.compare (List.map (World.id world) iv.Mapping.procs)

let moved_stages ~n ~prev_world ~prev ~world ~cur =
  match (prev, cur) with
  | None, None -> 0
  | Some _, None | None, Some _ -> n
  | Some pm, Some cm ->
      let moved = ref 0 in
      for s = 1 to n do
        if
          not
            (List.equal Int.equal (stage_ids prev_world pm s)
               (stage_ids world cm s))
        then incr moved
      done;
      !moved

(* The warm B&B bound: the previous solution translated to the new index
   space, when every replica survived and it still meets the threshold.
   Its evaluated objective, inflated by a few ulps of the eps-tolerant
   acceptance slack in [Instance.better], upper-bounds the optimum, so
   [Bb.solve ~prune_above] stays bit-identical to an unbounded solve. *)
let warm_bound ~objective ~instance ~prev_solution ~prev_of =
  match prev_solution with
  | None -> None
  | Some s -> (
      let m = Array.length prev_of in
      let cur_of_prev = Hashtbl.create 16 in
      Array.iteri
        (fun u p -> if p >= 0 then Hashtbl.replace cur_of_prev p u)
        prev_of;
      let translate iv =
        let procs =
          List.filter_map
            (fun p -> Hashtbl.find_opt cur_of_prev p)
            iv.Mapping.procs
        in
        if List.compare_lengths procs iv.Mapping.procs <> 0 then None
        else Some { iv with Mapping.procs }
      in
      let intervals = Mapping.intervals s.Solution.mapping in
      let translated = List.filter_map translate intervals in
      if List.compare_lengths translated intervals <> 0 then None
      else
        let n = Pipeline.length instance.Instance.pipeline in
        match Mapping.make ~n ~m translated with
        | exception Invalid_argument _ -> None
        | mapping ->
            let evaluation = Instance.evaluate instance mapping in
            if Instance.feasible objective evaluation then
              (* The slack lives in Core.Bb so the warm start and the
                 parallel probe's shared incumbent can never drift apart
                 (same [prune_slack] constant, same inflation). *)
              Some
                (Bb.inflate_bound
                   (Instance.objective_value objective evaluation))
            else None)

let now obs =
  match obs with None -> 0 | Some o -> Clock.now_ns o.Obs.clock

let solve_one ~obs ~objective ?warm ?prune_above instance =
  let t0 = now obs in
  let dp, state, reuse =
    Obs.span obs "churn.solve.dp" (fun () ->
        Interval_exact.Dp.solve ?warm instance)
  in
  let solution, bb_stats =
    Obs.span obs "churn.solve.bb" (fun () ->
        Bb.solve_with_stats ?prune_above instance objective)
  in
  let t1 = now obs in
  (dp, state, reuse, solution, bb_stats, t1 - t0)

let record ~obs step =
  Obs.incr obs "churn.steps";
  (match step.event with
  | None -> ()
  | Some ev ->
      Obs.incr obs ("churn.events." ^ Event.kind ev);
      Obs.observe obs "churn.ttr_ns" (float_of_int step.ttr_ns);
      Obs.add obs "churn.moved_stages" step.moved_stages);
  Obs.add obs "churn.dp.cells_reused" step.reuse.Interval_exact.Dp.cells_reused;
  if step.warm_bound then Obs.incr obs "churn.bb.warm_bounds"

let run ?obs ?(cold = false) ~objective world events =
  let n = Pipeline.length (World.instance world).Instance.pipeline in
  Obs.span obs "churn.run" (fun () ->
      let dp, state, reuse, solution, bb_stats, ttr =
        solve_one ~obs ~objective (World.instance world)
      in
      let step0 =
        {
          index = 0;
          event = None;
          label = "-";
          world;
          dp;
          solution;
          reuse;
          bb_stats;
          warm_bound = false;
          moved_stages = 0;
          ttr_ns = ttr;
        }
      in
      record ~obs step0;
      let rec go idx world state prev_solution acc = function
        | [] -> List.rev acc
        | ev :: rest ->
            let label = World.describe world ev in
            let world', prev_of = World.apply world ev in
            let instance = World.instance world' in
            let warm = if cold then None else Some (state, prev_of) in
            let prune_above =
              if cold then None
              else warm_bound ~objective ~instance ~prev_solution ~prev_of
            in
            let dp, state', reuse, solution, bb_stats, ttr =
              solve_one ~obs ~objective ?warm ?prune_above instance
            in
            let moved =
              moved_stages ~n ~prev_world:world ~prev:
                (Option.map (fun s -> s.Solution.mapping) prev_solution)
                ~world:world'
                ~cur:(Option.map (fun s -> s.Solution.mapping) solution)
            in
            let step =
              {
                index = idx;
                event = Some ev;
                label;
                world = world';
                dp;
                solution;
                reuse;
                bb_stats;
                warm_bound = Option.is_some prune_above;
                moved_stages = moved;
                ttr_ns = ttr;
              }
            in
            record ~obs step;
            go (idx + 1) world' state' solution (step :: acc) rest
      in
      step0 :: go 1 world state solution [] events)

let verify ?obs ~workers ~objective steps =
  let jobs = Array.of_list steps in
  let results, _stats =
    Pool.map ?obs ~workers
      (fun step ->
        let instance = World.instance step.world in
        let dp, _, _ = Interval_exact.Dp.solve instance in
        let solution = Bb.solve instance objective in
        equal_dp dp step.dp && equal_solution solution step.solution)
      jobs
  in
  Array.for_all (fun ok -> ok) results
