(* churn-warm: warm [Churn.Engine.run] over seeded 20-event churn traces.
   The worlds alternate between fully heterogeneous and communication
   homogeneous platforms with n, m in {6, 7}; joins never grow a platform
   past 7 processors.  One operation replays one
   trace: the initial solve plus a warm-started DP and B&B re-solve per
   event.

   Every timed replay of a trace must give the same answers, bit for bit,
   and once per distinct trace, outside the timed window, [Engine.verify]
   must re-prove every step against cold solves. *)

open Common
open Relpipe_model
module Rng = Relpipe_util.Rng
module Churn = Relpipe_churn

let traces = 512
let events = 20
let objective = Instance.Min_latency { max_failure = 0.5 }

type trace = { world : Churn.World.t; events : Churn.Event.t list }

let make_world rng i =
  let n = 6 + Rng.int rng 2 and m = 6 + Rng.int rng 2 in
  let pipeline =
    Relpipe_workload.App_gen.random rng
      { Relpipe_workload.App_gen.n; work = (1.0, 20.0); data = (0.5, 10.0) }
  in
  let platform =
    if i mod 2 = 0 then
      Relpipe_workload.Plat_gen.random_fully_heterogeneous rng ~m ~speed:(1.0, 10.0)
        ~failure:(0.05, 0.6) ~bandwidth:(0.5, 10.0)
    else
      Relpipe_workload.Plat_gen.random_comm_homogeneous rng ~m ~speed:(1.0, 10.0)
        ~failure:(0.05, 0.6) ~bandwidth:4.0
  in
  Churn.World.of_instance (Instance.make pipeline platform)

let gen_inputs ~seed =
  let rng = Rng.derive ~seed ~salt:0xC4 in
  Array.init traces (fun i ->
      let world = make_world rng i in
      let trace_seed = Rng.int rng 0x3FFFFFFF in
      {
        world;
        events = Churn.Driver.trace ~cap:7 ~seed:trace_seed ~count:events world;
      })

let run ?obs t = Churn.Engine.run ?obs ~objective t.world t.events

(* Every answer of a replay, bit for bit, as one string: timed replays
   keep only this, so the checks cost no memory that would show in the
   peak RSS. *)
let digest (steps : Churn.Engine.step list) =
  let buf = Buffer.create 1024 in
  let mapping m = Buffer.add_string buf (Mapping_syntax.to_string m) in
  let bits f = Buffer.add_string buf (Printf.sprintf "|%Lx" (Int64.bits_of_float f)) in
  List.iter
    (fun (s : Churn.Engine.step) ->
      (match s.Churn.Engine.dp with
      | Some (lat, m) ->
          bits lat;
          mapping m
      | None -> Buffer.add_char buf '-');
      (match s.Churn.Engine.solution with
      | Some sol ->
          mapping sol.Relpipe_core.Solution.mapping;
          bits sol.Relpipe_core.Solution.evaluation.Instance.latency;
          bits sol.Relpipe_core.Solution.evaluation.Instance.failure
      | None -> Buffer.add_char buf '-');
      Buffer.add_char buf ';')
    steps;
  Buffer.contents buf

(* The digest of each trace's first timed replay. *)
type reference = string option array

let record (refs : reference) i steps =
  let d = digest steps in
  match refs.(i) with
  | None ->
      refs.(i) <- Some d;
      true
  | Some r -> String.equal r d

type inputs = { all : trace array; refs : reference }

let gen ~seed = { all = gen_inputs ~seed; refs = Array.make traces None }

let op inputs k =
  let i = k mod traces in
  record inputs.refs i (run inputs.all.(i))

(* Out of the timed window, once per trace replayed: replay it again,
   require the same answers, and re-prove every step against cold
   solves. *)
let verify inputs =
  let bad = ref 0 and verified = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | None -> ()
      | Some d ->
          incr verified;
          let steps = run inputs.all.(i) in
          if
            not
              (String.equal (digest steps) d
              && Churn.Engine.verify ~workers:Daemon.workers ~objective steps)
          then incr bad)
    inputs.refs;
  (!bad, !verified)

let workload =
  {
    Inproc.gen;
    op;
    after =
      (fun inputs ->
        let bad, verified = verify inputs in
        (bad, [ ("verified_traces", Json.Int verified) ]));
  }

type step_stats = {
  mutable steps : int;
  mutable reused : int;
  mutable cells : int;
  mutable nodes : int;
  mutable events_seen : int;
  mutable warm : int;
  mutable ttr_count : int;
  mutable ttr_sum_ns : float;
}

(* A traced replay: the engine records its own churn.run / churn.solve.*
   spans on an [Obs] tracer (same clock source as the benchmark's), which
   are re-parented under the benchmark's "op" span. *)
let op_traced st spans inputs k =
  let i = k mod traces in
  let obs = Relpipe_obs.Obs.create ~tracing:true () in
  let steps = run ~obs inputs.all.(i) in
  let events =
    match obs.Relpipe_obs.Obs.trace with
    | Some tr -> Relpipe_obs.Trace.events tr
    | None -> []
  in
  let span_of (e : Relpipe_obs.Trace.event) ?parent () =
    match e.Relpipe_obs.Trace.dur with
    | Some d ->
        Some
          (Spans.add spans ?parent ~op:k e.Relpipe_obs.Trace.name
             ~start_ns:e.Relpipe_obs.Trace.ts ~end_ns:(e.Relpipe_obs.Trace.ts + d))
    | None -> None
  in
  let is name (e : Relpipe_obs.Trace.event) = String.equal e.Relpipe_obs.Trace.name name in
  (match List.find_opt (is "churn.run") events with
  | Some run_ev ->
      let parent = span_of run_ev () in
      List.iter
        (fun e ->
          if is "churn.solve.dp" e || is "churn.solve.bb" e then ignore (span_of e ?parent ()))
        events
  | None -> ());
  List.iter
    (fun (s : Churn.Engine.step) ->
      st.steps <- st.steps + 1;
      st.reused <- st.reused + s.Churn.Engine.reuse.Relpipe_core.Interval_exact.Dp.cells_reused;
      st.cells <- st.cells + s.Churn.Engine.reuse.Relpipe_core.Interval_exact.Dp.cells_total;
      st.nodes <- st.nodes + s.Churn.Engine.bb_stats.Relpipe_core.Bb.nodes;
      if s.Churn.Engine.index > 0 then begin
        st.events_seen <- st.events_seen + 1;
        if s.Churn.Engine.warm_bound then st.warm <- st.warm + 1
      end)
    steps;
  let count, sum = Daemon.histogram (Relpipe_obs.Metric.bindings obs.Relpipe_obs.Obs.metrics) "churn.ttr_ns" in
  st.ttr_count <- st.ttr_count + count;
  st.ttr_sum_ns <- st.ttr_sum_ns +. sum;
  record inputs.refs i steps

let traced_layers ~seed ~seconds =
  let st =
    { steps = 0; reused = 0; cells = 0; nodes = 0; events_seen = 0; warm = 0; ttr_count = 0; ttr_sum_ns = 0.0 }
  in
  let t = Inproc.run_traced workload ~seed ~seconds ~op_traced:(op_traced st) in
  ( t,
    [
      ("churn.dp_ms", Spans.mean_ms t.Inproc.spans "churn.solve.dp");
      ("churn.bb_ms", Spans.mean_ms t.Inproc.spans "churn.solve.bb");
      ("churn.ttr_us", fratio st.ttr_sum_ns (float_of_int st.ttr_count) /. 1000.0);
      ("churn.dp_reuse_ratio", ratio st.reused st.cells);
      ("churn.bb_nodes_per_step", ratio st.nodes st.steps);
      ("churn.warm_bound_share", ratio st.warm st.events_seen);
    ]
    @ Inproc.common_layers t )
