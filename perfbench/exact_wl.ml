(* exact-certify: the in-process path behind [relpipe exact -w 2
   --certify] plus [relpipe cert], on seeded fully heterogeneous
   instances.  One operation runs both legs on both instance sizes of
   group [k] (four solves), so every operation has the same mix, its
   time moves with either leg, and its median is not the edge between
   a fast and a slow class of operations:

   - B&B (min-failure, n=5, m in {5,6}): [Bb.solve_par ~workers:2], then
     [Certify.bb], [Cert.to_string] and [Check.check];
   - DP (min-latency, n=8, m in {8,10}): [Interval_exact.min_latency_par
     ~workers:2], then [Certify.interval] and [Check.check].

   Every certificate must be accepted by the independent checker and
   claim exactly the optimum the parallel solve found. *)

open Common
open Relpipe_model
module Rng = Relpipe_util.Rng
module Bb = Relpipe_core.Bb
module Interval_exact = Relpipe_core.Interval_exact
module Certify = Relpipe_core.Certify
module Solution = Relpipe_core.Solution
module Cert = Relpipe_cert.Cert
module Check = Relpipe_cert.Check

let workers = Daemon.workers
(* Seeded instance groups; operation [k] takes group [k mod groups]:
   instances [2j] and [2j + 1] of each leg, one of each size. *)
let groups = 512
let bb_objective = Instance.Min_failure { max_latency = 1e6 }

let make_instance rng ~n ~m =
  let pipeline =
    Relpipe_workload.App_gen.random rng
      { Relpipe_workload.App_gen.n; work = (1.0, 20.0); data = (0.5, 10.0) }
  in
  let platform =
    Relpipe_workload.Plat_gen.random_fully_heterogeneous rng ~m ~speed:(1.0, 10.0)
      ~failure:(0.05, 0.6) ~bandwidth:(0.5, 10.0)
  in
  Instance.make pipeline platform

type inputs = { bb : Instance.t array; dp : Instance.t array }

let gen_inputs ~seed =
  let bb_rng = Rng.derive ~seed ~salt:0xB0 and dp_rng = Rng.derive ~seed ~salt:0xD0 in
  {
    bb = Array.init (2 * groups) (fun i -> make_instance bb_rng ~n:5 ~m:(5 + (i mod 2)));
    dp = Array.init (2 * groups) (fun i -> make_instance dp_rng ~n:8 ~m:(8 + (2 * (i mod 2))));
  }

(* The certificate's claim equals the parallel optimum. *)
let bb_claim_matches (par : Solution.t option) (cert : Cert.t) ~n ~m =
  match (par, cert.Cert.body) with
  | None, Cert.Bb { claim = Cert.Infeasible; _ } -> true
  | Some s, Cert.Bb { claim = Cert.Feasible { latency; failure; mapping }; _ } ->
      same_bits latency s.Solution.evaluation.Instance.latency
      && same_bits failure s.Solution.evaluation.Instance.failure
      && Mapping.equal (Mapping.make ~n ~m mapping) s.Solution.mapping
  | _ -> false

let dp_claim_matches par (cert : Cert.t) ~n ~m =
  match (par, cert.Cert.body) with
  | Some (lat, map), Cert.Dp { latency; mapping; _ } ->
      same_bits lat latency && Mapping.equal (Mapping.make ~n ~m mapping) map
  | _ -> false

let dims (inst : Instance.t) =
  (Pipeline.length inst.Instance.pipeline, Platform.size inst.Instance.platform)

(* Per-operation layer figures of a traced run. *)
type op_stats = {
  mutable bb_nodes : int;
  mutable bb_ops : int;
  mutable cert_bytes : int;
  mutable spawns : int;
}

let binomial n k =
  let r = ref 1 in
  for i = 1 to k do
    r := !r * (n - k + i) / i
  done;
  !r

(* Domain spawns of one [min_latency_par]: one [Pool.map] per popcount
   layer 2 .. min m n, each spawning min(w, masks in the layer) - 1. *)
let dp_spawns ~n ~m =
  let s = ref 0 in
  for k = 2 to min m n do
    s := !s + (min workers (binomial m k) - 1)
  done;
  !s

(* The B&B leg on instance [i] within operation [k]; [true] when every
   check held. *)
let bb_leg ?spans ?stats inputs k i =
  let span name f = Spans.maybe spans ~op:k name f in
  let inst = inputs.bb.(i) in
  let n, m = dims inst in
  let par =
    match stats with
    | None -> span "bb.solve_par" (fun () -> Bb.solve_par ~workers inst bb_objective)
    | Some st ->
        let sol, ps =
          span "bb.solve_par" (fun () -> Bb.solve_par_with_stats ~workers inst bb_objective)
        in
        st.bb_nodes <- st.bb_nodes + ps.Bb.probe_nodes + ps.Bb.confirm.Bb.nodes;
        st.bb_ops <- st.bb_ops + 1;
        st.spawns <- st.spawns + (min workers ps.Bb.tasks - 1);
        sol
  in
  let sol, cert = span "certify.bb" (fun () -> Certify.bb inst bb_objective) in
  let text = span "cert.to_string" (fun () -> Cert.to_string cert) in
  let checked = span "check.bb" (fun () -> Check.check inst cert) in
  (match stats with
  | Some st -> st.cert_bytes <- st.cert_bytes + String.length text
  | None -> ());
  Result.is_ok checked
  && Relpipe_churn.Engine.equal_solution par sol
  && bb_claim_matches par cert ~n ~m

(* The DP leg on instance [i] within operation [k]. *)
let dp_leg ?spans ?stats inputs k i =
  let span name f = Spans.maybe spans ~op:k name f in
  let inst = inputs.dp.(i) in
  let n, m = dims inst in
  let par =
    span "interval_exact.solve_par" (fun () -> Interval_exact.min_latency_par ~workers inst)
  in
  (match stats with Some st -> st.spawns <- st.spawns + dp_spawns ~n ~m | None -> ());
  let _, cert = span "certify.dp" (fun () -> Certify.interval inst) in
  match cert with
  | None -> false
  | Some cert ->
      let checked = span "check.dp" (fun () -> Check.check inst cert) in
      Result.is_ok checked && dp_claim_matches par cert ~n ~m

(* One operation: all four solves always run. *)
let op ?spans ?stats inputs k =
  let j = 2 * (k mod groups) in
  let bb0 = bb_leg ?spans ?stats inputs k j in
  let bb1 = bb_leg ?spans ?stats inputs k (j + 1) in
  let dp0 = dp_leg ?spans ?stats inputs k j in
  let dp1 = dp_leg ?spans ?stats inputs k (j + 1) in
  bb0 && bb1 && dp0 && dp1

let workload =
  { Inproc.gen = gen_inputs; op = (fun inputs k -> op inputs k); after = (fun _ -> (0, [])) }

let traced_layers ~seed ~seconds =
  let st = { bb_nodes = 0; bb_ops = 0; cert_bytes = 0; spawns = 0 } in
  let t =
    Inproc.run_traced workload ~seed ~seconds ~op_traced:(fun spans inputs k ->
        op ~spans ~stats:st inputs k)
  in
  let ms name = Spans.mean_ms t.Inproc.spans name in
  ( t,
    [
      ("bb.solve_par_ms", ms "bb.solve_par");
      ("bb.nodes", ratio st.bb_nodes st.bb_ops);
      ("interval_exact.solve_par_ms", ms "interval_exact.solve_par");
      ("certify.bb_ms", ms "certify.bb");
      ("certify.dp_ms", ms "certify.dp");
      ("cert.bytes", ratio st.cert_bytes st.bb_ops);
      ("check.bb_ms", ms "check.bb");
      ("check.dp_ms", ms "check.dp");
      ("pool.spawns_per_op", ratio st.spawns t.Inproc.t_inputs_ops);
    ]
    @ Inproc.common_layers t )
