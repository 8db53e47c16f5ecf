(* The in-process workloads' measurement loops.

   Untraced: set up (input generation) several times, then run
   operations one at a time until the window closes; each operation's
   wall time is one latency sample.  Traced: every operation runs twice
   on the same input, first bare (the GC deltas and the untraced time
   come from this pass) and then inside an "op" span whose children are
   the layer calls, so the traced-minus-untraced time is the tracing
   overhead. *)

open Common

let setups = 15

type 'i workload = {
  gen : seed:int -> 'i;
  op : 'i -> int -> bool;  (** untraced operation [k]; [true] when its checks held *)
  after : 'i -> int * (string * Json.t) list;
      (** out-of-window checks: extra failures and details *)
}

let timed_setups w ~seed =
  let times = Array.make setups 0.0 in
  let last = ref None in
  for i = 0 to setups - 1 do
    let t0 = now_ns () in
    last := Some (w.gen ~seed);
    times.(i) <- seconds_since t0
  done;
  (Option.get !last, times)

(* The timed window is cut into [segments] equal parts; the reported
   median and throughput are taken per segment, then over the quieter
   half of them (see [Common.quiet_median]). *)
let segments = 6

let run_e2e w ~seed ~seconds =
  let inputs, times = timed_setups w ~seed in
  let samples = ref [] and failed = ref 0 and k = ref 0 in
  let seg_p50 = Array.make segments 0.0 and seg_rate = Array.make segments 0.0 in
  let seg_steal = Array.make segments 0.0 in
  let start = now_ns () in
  for g = 0 to segments - 1 do
    let ticks0 = cpu_ticks () in
    let t_start = now_ns () in
    let deadline = t_start + int_of_float (seconds /. float_of_int segments *. 1e9) in
    let seg = ref [] and ok_ops = ref 0 in
    while now_ns () < deadline do
      let t0 = now_ns () in
      let ok = w.op inputs !k in
      let t1 = now_ns () in
      let sample =
        if ok then begin
          incr ok_ops;
          ms_of_ns (t1 - t0)
        end
        else begin
          incr failed;
          infinity
        end
      in
      seg := sample :: !seg;
      samples := sample :: !samples;
      incr k
    done;
    seg_p50.(g) <- median (Array.of_list !seg);
    seg_rate.(g) <- float_of_int !ok_ops /. seconds_since t_start;
    seg_steal.(g) <- steal_share ticks0 (cpu_ticks ())
  done;
  let elapsed = seconds_since start in
  (* Peak RSS of the measured work, before the out-of-window checks. *)
  let rss_mb = vmhwm_mb "self" in
  let extra_failed, details = w.after inputs in
  let ops = !k in
  let samples = Array.of_list (List.rev !samples) in
  let steal = Array.to_list seg_steal in
  let floats a = Json.List (Array.to_list (Array.map Json.float a)) in
  {
    Report.samples;
    p50 = quiet_median steal seg_p50;
    throughput = quiet_median steal seg_rate;
    thr_ops = ops - !failed;
    setups = times;
    rss_mb;
    attempted = ops;
    failed = !failed + extra_failed;
    valid = true;
    details =
      [
        ("operations", Json.Int ops);
        ("elapsed_s", Json.float elapsed);
        ("segment_latency_p50_ms", floats seg_p50);
        ("segment_throughput_rps", floats seg_rate);
        ("segment_steal_share", floats seg_steal);
      ]
      @ details;
  }

type traced = {
  t_inputs_ops : int;
  t_failed : int;
  spans : Spans.t;
  untraced_ns : int;
  traced_ns : int;
  minor_words : float;
  major : int;
  unattributed_ns : int;  (** self time of the "op" spans *)
}

(* [op_traced spans inputs k] runs operation [k] with its layer calls
   wrapped in spans (it is itself inside the "op" span). *)
let run_traced w ~op_traced ~seed ~seconds =
  let inputs = w.gen ~seed in
  let spans = Spans.create () in
  let failed = ref 0 and k = ref 0 in
  let untraced = ref 0 and traced = ref 0 in
  let minor = ref 0.0 and major = ref 0 in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  while now_ns () < deadline do
    let g0 = gc_mark () in
    let t0 = now_ns () in
    let ok1 = w.op inputs !k in
    let t1 = now_ns () in
    let g1 = gc_mark () in
    let ok2 = Spans.span spans ~op:!k "op" (fun () -> op_traced spans inputs !k) in
    let t2 = now_ns () in
    let dm, dmaj = gc_delta g0 g1 in
    minor := !minor +. dm;
    major := !major + dmaj;
    untraced := !untraced + (t1 - t0);
    traced := !traced + (t2 - t1);
    if not (ok1 && ok2) then incr failed;
    incr k
  done;
  let extra_failed, _ = w.after inputs in
  let self = Spans.self_times spans in
  let unattributed = ref 0 in
  for i = 0 to spans.Spans.len - 1 do
    if String.equal spans.Spans.spans.(i).Spans.name "op" then
      unattributed := !unattributed + self.(i)
  done;
  {
    t_inputs_ops = !k;
    t_failed = !failed + extra_failed;
    spans;
    untraced_ns = !untraced;
    traced_ns = !traced;
    minor_words = !minor;
    major = !major;
    unattributed_ns = !unattributed;
  }

(* Figures every in-process traced run reports. *)
let common_layers t =
  let ops = t.t_inputs_ops in
  let op_total = let _, d, _ = Spans.total_of t.spans "op" in d in
  [
    ("gc.minor_words_per_op", fratio t.minor_words (float_of_int ops));
    ("gc.major_collections_per_kop", 1000.0 *. ratio t.major ops);
    ("trace.overhead_share", fratio (float_of_int (t.traced_ns - t.untraced_ns)) (float_of_int t.untraced_ns));
    ("trace.reconcile_error_share", ratio t.unattributed_ns op_total);
  ]
