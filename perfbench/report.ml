(* What a workload run hands back, and the result line the benchmark
   prints.  Metric names and units here must match BENCHMARK.json. *)

open Common

(* One untraced run: the samples behind the end-to-end metrics. *)
type e2e = {
  samples : float array;  (** per-operation latency, ms *)
  p50 : float;  (** the reported median, ms *)
  throughput : float;  (** operations per second *)
  thr_ops : int;  (** operations behind [throughput] *)
  setups : float array;  (** seconds, one per repeated set-up *)
  rss_mb : float;
  attempted : int;
  failed : int;
  valid : bool;  (** false when the load generator fell behind *)
  details : (string * Json.t) list;
}

(* One traced run: per-layer values by name ([0.] where a layer does no
   work on this workload). *)
type layers = {
  values : (string * float) list;
  l_attempted : int;
  l_failed : int;
  l_valid : bool;
  l_details : (string * Json.t) list;
}

let end_to_end_units =
  [
    ("latency_p50_ms", "ms");
    ("throughput_rps", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let per_layer_units =
  [
    ("frame.roundtrip_us", "us");
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("analysis.parse_us", "us");
    ("canon.normalize_us", "us");
    ("canon.translate_us", "us");
    ("canon.symmetric_hit_share", "share");
    ("lru.find_us", "us");
    ("lru.hit_ratio", "share");
    ("lru.evictions_per_kreq", "1/kreq");
    ("serve.tick_us", "us");
    ("serve.batch_per_tick", "count");
    ("serve.residual_ms", "ms");
    ("solver.portfolio_ms", "ms");
    ("solver.exact_enum_ms", "ms");
    ("solver.heuristic_ms", "ms");
    ("solver.poly_ms", "ms");
    ("core.exact.mappings_per_solve", "count");
    ("pool.busy_ms_per_job", "ms");
    ("pool.idle_share", "share");
    ("pool.spawns_per_kreq", "1/kreq");
    ("pool.spawns_per_op", "count");
    ("bb.solve_par_ms", "ms");
    ("bb.nodes", "count");
    ("interval_exact.solve_par_ms", "ms");
    ("certify.bb_ms", "ms");
    ("certify.dp_ms", "ms");
    ("cert.bytes", "bytes");
    ("check.bb_ms", "ms");
    ("check.dp_ms", "ms");
    ("churn.dp_ms", "ms");
    ("churn.bb_ms", "ms");
    ("churn.ttr_us", "us");
    ("churn.dp_reuse_ratio", "share");
    ("churn.bb_nodes_per_step", "count");
    ("churn.warm_bound_share", "share");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections_per_kop", "1/kop");
    ("gen.late_p99_ms", "ms");
    ("gen.late_max_ms", "ms");
    ("trace.overhead_share", "share");
    ("trace.reconcile_error_share", "share");
  ]

(* A run is invalid, not slow, when its generator ran this late (p99),
   or when the hypervisor took more than this share of the host's CPU
   time over the run (steal, from /proc/stat).  On a shared two-vCPU
   virtual machine the serve-hot median read 0.33-0.40 ms at up to 5%
   steal and up to 3.1 ms at 15-29%. *)
let max_gen_late_p99_ms = 10.0
let max_host_steal_share = 0.05

(* Layer self times must add up to the measured operation or tick time
   within this share.  In-process operations reconcile to about 1%, and
   so does serve-hot (0.8-1.1% over three runs) now that its tick replay
   and layer walk alternate tick by tick; run one after the other, host
   speed drift between them made serve-hot read anywhere from 2% to 32%. *)
let reconcile_tolerance = 0.15

let metric value unit =
  Json.Obj [ ("value", Json.float value); ("unit", Json.Str unit) ]

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj metrics);
       ])

(* The gated end-to-end values, with the sample count behind each. *)
let e2e_values r =
  let n = Array.length r.samples in
  [
    ("latency_p50_ms", r.p50, n);
    ("throughput_rps", r.throughput, r.thr_ops);
    ("setup_s", median r.setups, Array.length r.setups);
    ("peak_rss_mb", r.rss_mb, 1);
  ]

(* Tail percentiles, reported beside the gated metrics (not gated: on a
   shared host their run-to-run spread is the host's scheduling noise)
   when at least ten samples lie beyond them. *)
let tail_percentiles = [ ("latency_p90_ms", 0.9); ("latency_p99_ms", 0.99) ]

let tails r =
  let n = Array.length r.samples in
  List.map
    (fun (name, p) ->
      let k = beyond p n in
      (name, (if k >= 10 then Some (percentile p r.samples) else None), n, k))
    tail_percentiles
