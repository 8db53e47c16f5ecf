(* Benchmark harness: the kernel-twin regression gate and the
   observability cost guard.

   `relpipe experiments` regenerates the paper's tables, and the gated
   benchmark under perfbench/ times the service paths.  This harness keeps
   the two checks nothing else makes:

   - the twin gate times the three optimised kernels against their frozen
     Core.Reference twins, optionally writes the BENCH v2 report
     ([--json FILE]) and compares it with a baseline report
     ([--against FILE]); [--virtual-clock] makes the report byte-stable;
   - [--obs-guard] checks that an ambient live metrics registry, the one
     [relpipe serve] always runs with, costs the solver kernels at most
     2%.  It runs alone: given with a flag of the twin gate it is a usage
     error. *)

open Relpipe_model
open Relpipe_core
module Rng = Relpipe_util.Rng
module J = Relpipe_obs.Json

let make_fully_hetero seed ~n ~m =
  let rng = Rng.create seed in
  let pipeline =
    Relpipe_workload.App_gen.random rng
      { Relpipe_workload.App_gen.n; work = (1.0, 20.0); data = (0.5, 10.0) }
  in
  let platform =
    Relpipe_workload.Plat_gen.random_fully_heterogeneous rng ~m
      ~speed:(1.0, 10.0) ~failure:(0.05, 0.6) ~bandwidth:(0.5, 10.0)
  in
  Instance.make pipeline platform

(* A bad flag or file is a usage error (exit 2) that names it. *)
let usage_error msg =
  prerr_endline msg;
  exit 2

(* "cannot write PATH: reason", the CLI's wording; Sys_error's message
   already starts with the path. *)
let io_error verb path msg =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix)
        (String.length msg - String.length prefix)
    else msg
  in
  usage_error (Printf.sprintf "cannot %s %s: %s" verb path reason)

type twin_result = {
  tw_kernel : string;
  tw_shape : string;
  tw_samples : int;
  tw_reps : int;
  tw_ns_opt : float;
  tw_ci_opt : float * float;
  tw_ns_ref : float;
  tw_ci_ref : float * float;
}

(* Nanoseconds taken by [reps] back-to-back calls of [f]. *)
let time_reps ~clock f reps =
  let t0 = Relpipe_obs.Clock.now_ns clock in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  float_of_int (Relpipe_obs.Clock.now_ns clock - t0)

(* Grow the block until the fastest of three tries costs >= 1 ms of real
   time, so one tick of the microsecond wall clock is at most 0.1% of a
   block, and a try slowed by a GC slice does not stop the growth early. *)
let calibrate ~clock f =
  let fastest reps =
    List.fold_left Float.min Float.infinity
      (List.init 3 (fun _ -> time_reps ~clock f reps))
  in
  let rec go reps =
    if fastest reps >= 1e6 || reps >= 1 lsl 20 then reps else go (reps * 2)
  in
  go 1

(* Warmup, then min-of-N with a seeded bootstrap percentile CI.  The
   point estimate is the minimum of [samples] timed blocks (the classic
   low-noise estimator for deterministic kernels); the CI is the 2.5/97.5
   percentile band of 200 bootstrap resamples of that minimum.  The time
   source is injectable: under a virtual clock every block reads a fixed
   tick, so the whole report is byte-stable (the determinism test relies
   on this). *)
let measure_kernel ~clock ~rng f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let reps =
    if Relpipe_obs.Clock.is_virtual clock then 1 else calibrate ~clock f
  in
  let samples = 25 in
  let xs =
    Array.init samples (fun _ -> time_reps ~clock f reps /. float_of_int reps)
  in
  let point = Array.fold_left Float.min Float.infinity xs in
  let b = 200 in
  let mins =
    Array.init b (fun _ ->
        let acc = ref Float.infinity in
        for _ = 1 to samples do
          acc := Float.min !acc xs.(Rng.int rng samples)
        done;
        !acc)
  in
  Array.sort Float.compare mins;
  (point, (mins.(5), mins.(194)), reps, samples)

let twin_specs () =
  let inst_iv = make_fully_hetero 9 ~n:8 ~m:10 in
  let inst_dp = make_fully_hetero 7 ~n:32 ~m:24 in
  let inst_bb = make_fully_hetero 8 ~n:4 ~m:5 in
  let obj_bb = Instance.Min_failure { max_latency = 1e6 } in
  [
    ( "interval-dp",
      "n=8 m=10 fully-hetero",
      (fun () -> ignore (Sys.opaque_identity (Interval_exact.min_latency inst_iv))),
      fun () ->
        ignore
          (Sys.opaque_identity
             (Reference.interval_min_latency_reference inst_iv)) );
    ( "general-dp",
      "n=32 m=24 fully-hetero",
      (fun () -> ignore (Sys.opaque_identity (General_mapping.solve_dp inst_dp))),
      fun () ->
        ignore (Sys.opaque_identity (Reference.general_dp_reference inst_dp)) );
    ( "bb",
      "n=4 m=5 fully-hetero minFP|L",
      (fun () -> ignore (Sys.opaque_identity (Bb.solve inst_bb obj_bb))),
      fun () ->
        ignore (Sys.opaque_identity (Reference.bb_solve_reference inst_bb obj_bb))
    );
  ]

let speedup_lo tw =
  let _, opt_hi = tw.tw_ci_opt and ref_lo, _ = tw.tw_ci_ref in
  ref_lo /. opt_hi

let run_twins ~clock () =
  (* One seeded stream for all bootstraps keeps the report deterministic
     under the virtual clock. *)
  let rng = Rng.create 77 in
  let results =
    List.map
      (fun (kernel, shape, opt, reference) ->
        let ns_ref, ci_ref, _, _ = measure_kernel ~clock ~rng reference in
        let ns_opt, ci_opt, reps_opt, samples = measure_kernel ~clock ~rng opt in
        {
          tw_kernel = kernel;
          tw_shape = shape;
          tw_samples = samples;
          tw_reps = reps_opt;
          tw_ns_opt = ns_opt;
          tw_ci_opt = ci_opt;
          tw_ns_ref = ns_ref;
          tw_ci_ref = ci_ref;
        })
      (twin_specs ())
  in
  let table =
    Relpipe_util.Table.create
      [ "kernel"; "shape"; "opt ns/run"; "ref ns/run"; "speedup"; "speedup lo" ]
  in
  List.iter
    (fun tw ->
      Relpipe_util.Table.add_row table
        [
          tw.tw_kernel;
          tw.tw_shape;
          Printf.sprintf "%.1f" tw.tw_ns_opt;
          Printf.sprintf "%.1f" tw.tw_ns_ref;
          Printf.sprintf "%.2fx" (tw.tw_ns_ref /. tw.tw_ns_opt);
          Printf.sprintf "%.2fx" (speedup_lo tw);
        ])
    results;
  print_endline "Optimized kernels vs frozen reference twins (min-of-N, bootstrap CI)";
  print_endline "====================================================================";
  Relpipe_util.Table.print table;
  print_newline ();
  results

(* A baseline BENCH_*.json, read before anything is timed.  Timings
   compare only on the same clock: a virtual tick divided by real
   nanoseconds would pass or fail every kernel by chance. *)
let load_baseline ~virtual_clock path =
  let refuse msg = usage_error (Printf.sprintf "against: %s %s" path msg) in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> io_error "read" path msg
  in
  let json =
    match J.parse text with
    | Ok j -> j
    | Error msg -> refuse ("does not parse: " ^ msg)
  in
  let twins =
    match Option.bind (J.member "twins" json) J.to_list with
    | Some l -> l
    | None -> refuse "has no \"twins\" array"
  in
  match Option.bind (J.member "virtual_clock" json) J.to_bool with
  | None -> refuse "has no \"virtual_clock\" field"
  | Some b when b <> virtual_clock ->
      refuse
        (Printf.sprintf
           "has \"virtual_clock\":%b but this run has %b; timings on \
            different clocks do not compare"
           b virtual_clock)
  | Some _ -> (path, twins)

(* Regression gate: >10% slower than the baseline on any twin kernel is
   a failure (exit 1); a baseline that shares no kernel with this run
   compared nothing and is refused (exit 2). *)
let check_against (path, baseline_twins) twins =
  let find kernel =
    List.find_opt
      (fun j ->
        match Option.bind (J.member "kernel" j) J.to_str with
        | Some s -> String.equal s kernel
        | None -> false)
      baseline_twins
  in
  let compared = ref 0 and regressions = ref [] in
  List.iter
    (fun tw ->
      match find tw.tw_kernel with
      | None ->
          Printf.printf "against: %-12s not in baseline, skipped\n" tw.tw_kernel
      | Some j -> (
          match Option.bind (J.member "ns_opt" j) J.to_float with
          | None ->
              usage_error
                (Printf.sprintf "against: %s: the entry for %s has no ns_opt"
                   path tw.tw_kernel)
          | Some base ->
              incr compared;
              let ratio = tw.tw_ns_opt /. base in
              Printf.printf "against: %-12s %10.1f ns vs baseline %10.1f ns (%.2fx)\n"
                tw.tw_kernel tw.tw_ns_opt base ratio;
              if tw.tw_ns_opt > 1.10 *. base then
                regressions := (tw.tw_kernel, ratio) :: !regressions))
    twins;
  if !compared = 0 then
    usage_error
      (Printf.sprintf "against: %s shares no kernel with this run; nothing was compared"
         path);
  match List.rev !regressions with
  | [] -> Printf.printf "against: OK — no kernel regressed by more than 10%%\n"
  | rs ->
      List.iter
        (fun (kernel, ratio) ->
          Printf.eprintf "against: FAIL — %s regressed to %.2fx of baseline\n"
            kernel ratio)
        rs;
      exit 1

let write_json (path, oc) ~virtual_clock twins =
  let date =
    (* The virtual-clock report must be byte-stable across runs, so it
       pins the date to the epoch. *)
    if virtual_clock then "1970-01-01T00:00:00Z"
    else
      let tm = Unix.gmtime (Unix.time ()) in
      Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
  in
  let twin_json tw =
    let opt_lo, opt_hi = tw.tw_ci_opt and ref_lo, ref_hi = tw.tw_ci_ref in
    J.Obj
      [
        ("kernel", J.Str tw.tw_kernel);
        ("shape", J.Str tw.tw_shape);
        ("samples", J.Int tw.tw_samples);
        ("reps", J.Int tw.tw_reps);
        ("ns_opt", J.float tw.tw_ns_opt);
        ("ci_opt_lo", J.float opt_lo);
        ("ci_opt_hi", J.float opt_hi);
        ("ns_ref", J.float tw.tw_ns_ref);
        ("ci_ref_lo", J.float ref_lo);
        ("ci_ref_hi", J.float ref_hi);
        ("speedup", J.float (tw.tw_ns_ref /. tw.tw_ns_opt));
        ("speedup_lo", J.float (speedup_lo tw));
      ]
  in
  let json =
    J.Obj
      [
        ("version", J.Int 2);
        ("date", J.Str date);
        ("cpus", J.Int (Relpipe_pool.Pool.cpu_count ()));
        ("virtual_clock", J.Bool virtual_clock);
        ("twins", J.List (List.map twin_json twins));
      ]
  in
  (try
     Out_channel.output_string oc (J.to_string json);
     Out_channel.output_char oc '\n';
     Out_channel.close oc
   with Sys_error msg -> io_error "write" path msg);
  Printf.printf "wrote %s\n" path

(* Observability cost guard: solver kernels with no ambient context vs an
   ambient live registry, the one [relpipe serve] always runs with (no
   tracer).  The kernels' instrumentation is a few counter bumps per call,
   so the two timings must agree; a regression here means instrumentation
   put real work on the hot path.  Each sample is one calibrated block of
   at least 1 ms, and the off and live samples are paired block by block,
   so one pair sits inside a single CPU-frequency / scheduler regime; the
   MEDIAN ratio over all pairs discards the occasional block that absorbed
   a GC slice or an interrupt on one side.  The lead order alternates pair
   by pair to cancel any within-pair bias. *)
let obs_guard ~threshold =
  let module Obs = Relpipe_obs.Obs in
  let big_general = make_fully_hetero 7 ~n:32 ~m:24 in
  let inst_bb = make_fully_hetero 8 ~n:4 ~m:5 in
  let inst_iv = make_fully_hetero 9 ~n:8 ~m:10 in
  let kernels =
    [
      ( "thm4 direct DP (n=32, m=24)",
        fun () -> ignore (Sys.opaque_identity (General_mapping.solve_dp big_general)) );
      ( "branch&bound minFP|L (n=4, m=5)",
        fun () ->
          ignore
            (Sys.opaque_identity
               (Bb.solve inst_bb (Instance.Min_failure { max_latency = 1e6 }))) );
      ( "bitmask-DP interval optimum (n=8, m=10)",
        fun () -> ignore (Sys.opaque_identity (Interval_exact.min_latency inst_iv)) );
    ]
  in
  let clock = Relpipe_obs.Clock.monotonic () in
  let live = Some (Obs.create ()) in
  let paired_ratio f =
    let reps = calibrate ~clock f in
    let off () = time_reps ~clock f reps in
    let on () = Obs.with_ambient live (fun () -> time_reps ~clock f reps) in
    for _ = 1 to 3 do
      ignore (off ());
      ignore (on ())
    done;
    let pairs = 301 in
    let offs = Array.make pairs 0.0 in
    let ons = Array.make pairs 0.0 in
    let ratios = Array.make pairs 0.0 in
    for i = 0 to pairs - 1 do
      let a, b =
        if i land 1 = 0 then
          let a = off () in
          (a, on ())
        else
          let b = on () in
          (off (), b)
      in
      offs.(i) <- a;
      ons.(i) <- b;
      ratios.(i) <- b /. a
    done;
    Array.sort Float.compare offs;
    Array.sort Float.compare ons;
    Array.sort Float.compare ratios;
    let mid = pairs / 2 and per_call x = x /. float_of_int reps in
    (reps, per_call offs.(mid), per_call ons.(mid), ratios.(mid))
  in
  let table =
    Relpipe_util.Table.create
      [ "kernel"; "calls/sample"; "off ns"; "live ns"; "overhead" ]
  in
  let worst = ref neg_infinity in
  List.iter
    (fun (name, f) ->
      let reps, t_off, t_on, median_ratio = paired_ratio f in
      let overhead = median_ratio -. 1.0 in
      worst := Float.max !worst overhead;
      Relpipe_util.Table.add_row table
        [
          name;
          string_of_int reps;
          Printf.sprintf "%.1f" t_off;
          Printf.sprintf "%.1f" t_on;
          Printf.sprintf "%+.2f%%" (100.0 *. overhead);
        ])
    kernels;
  print_endline "Observability live-registry cost guard";
  print_endline "======================================";
  Relpipe_util.Table.print table;
  if !worst > threshold then begin
    Printf.eprintf "obs-guard: FAIL — worst overhead %+.2f%% exceeds %.0f%%\n"
      (100.0 *. !worst) (100.0 *. threshold);
    exit 1
  end;
  Printf.printf "obs-guard: OK — worst overhead %+.2f%% (threshold %.0f%%)\n"
    (100.0 *. !worst) (100.0 *. threshold)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path = ref None and against = ref None in
  let virtual_clock = ref false in
  let rec parse = function
    | [] -> ()
    | ("--json" | "--against") as flag :: rest -> (
        match rest with
        | path :: rest when not (String.starts_with ~prefix:"--" path) ->
            (if String.equal flag "--json" then json_path else against) := Some path;
            parse rest
        | _ -> usage_error (Printf.sprintf "option %s needs a FILE argument" flag))
    | "--virtual-clock" :: rest ->
        virtual_clock := true;
        parse rest
    | "--obs-guard" :: _ ->
        (* The guard shares no work with the twin gate, so a gate flag
           given with it is refused rather than ignored. *)
        usage_error
          ("--obs-guard runs alone, but was given: " ^ String.concat " " args)
    | arg :: _ ->
        usage_error
          (Printf.sprintf
             "usage: %s [--json FILE] [--against FILE] [--virtual-clock] \
              | --obs-guard\n\
             \  unknown argument %S"
             Sys.argv.(0) arg)
  in
  (match args with
  | [ "--obs-guard" ] ->
      obs_guard ~threshold:0.02;
      exit 0
  | _ -> parse args);
  (* Both files are checked before anything is timed.  The baseline is
     read before the report is opened, so one file can serve as both. *)
  let baseline =
    Option.map (load_baseline ~virtual_clock:!virtual_clock) !against
  in
  let sink =
    Option.map
      (fun path ->
        try (path, Out_channel.open_text path)
        with Sys_error msg -> io_error "write" path msg)
      !json_path
  in
  let clock =
    if !virtual_clock then Relpipe_obs.Clock.virtual_ ()
    else Relpipe_obs.Clock.monotonic ()
  in
  let twins = run_twins ~clock () in
  Option.iter (fun sink -> write_json sink ~virtual_clock:!virtual_clock twins) sink;
  Option.iter (fun baseline -> check_against baseline twins) baseline
