open Relpipe_model

let fig34 () =
  let pipeline =
    Pipeline.of_costs ~input:100.0 [ (2.0, 100.0); (2.0, 100.0) ]
  in
  let fast = 100.0 and slow = 1.0 in
  let bandwidth a b =
    match a, b with
    | Platform.Pin, Platform.Proc 0 | Platform.Proc 0, Platform.Pin -> fast
    | Platform.Proc 0, Platform.Proc 1 | Platform.Proc 1, Platform.Proc 0 -> fast
    | Platform.Proc 1, Platform.Pout | Platform.Pout, Platform.Proc 1 -> fast
    | _ -> slow
  in
  let platform =
    Platform.make ~speeds:[| 1.0; 1.0 |] ~failures:[| 0.1; 0.1 |] ~bandwidth
  in
  Instance.make pipeline platform

let fig34_single u = Mapping.single_interval ~n:2 ~m:2 [ u ]

let fig34_split () =
  Mapping.make ~n:2 ~m:2
    [
      { Mapping.first = 1; last = 1; procs = [ 0 ] };
      { Mapping.first = 2; last = 2; procs = [ 1 ] };
    ]

let fig5 () =
  let pipeline = Pipeline.of_costs ~input:10.0 [ (1.0, 1.0); (100.0, 0.0) ] in
  let platform =
    Plat_gen.two_tier ~m_slow:1 ~m_fast:10 ~slow_speed:1.0 ~fast_speed:100.0
      ~slow_failure:0.1 ~fast_failure:0.8 ~bandwidth:1.0
  in
  Instance.make pipeline platform

let fig5_threshold = 22.0

let fig5_single_two_fast () = Mapping.single_interval ~n:2 ~m:11 [ 1; 2 ]

let fig5_split () =
  Mapping.make ~n:2 ~m:11
    [
      { Mapping.first = 1; last = 1; procs = [ 0 ] };
      { Mapping.first = 2; last = 2; procs = List.init 10 (fun i -> i + 1) };
    ]

let video_transcoder () =
  (* Relative costs: decoding inflates compressed input ~8x to raw frames,
     encoding dominates computation and compresses ~10x. *)
  let frame_size = 64.0 in
  Pipeline.of_costs ~input:frame_size
    [
      (0.2 *. frame_size, frame_size);          (* demux *)
      (2.0 *. frame_size, 8.0 *. frame_size);   (* decode *)
      (1.5 *. frame_size, 8.0 *. frame_size);   (* scale *)
      (12.0 *. frame_size, 0.8 *. frame_size);  (* encode *)
      (0.3 *. frame_size, 0.8 *. frame_size);   (* mux *)
    ]

let sensor_fusion () =
  let sample_rate = 100.0 in
  Pipeline.of_costs ~input:sample_rate
    [
      (0.5 *. sample_rate, sample_rate);          (* ingest *)
      (1.0 *. sample_rate, 0.8 *. sample_rate);   (* clean *)
      (1.5 *. sample_rate, 0.7 *. sample_rate);   (* align *)
      (6.0 *. sample_rate, 0.3 *. sample_rate);   (* fuse: dominant *)
      (2.0 *. sample_rate, 0.1 *. sample_rate);   (* detect *)
      (0.2 *. sample_rate, 0.05 *. sample_rate);  (* publish *)
    ]

let grid_instance rng =
  let platform =
    Plat_gen.clustered rng ~clusters:3 ~cluster_size:4 ~speed:(2.0, 20.0)
      ~failure:(0.05, 0.4) ~intra_bandwidth:50.0 ~inter_bandwidth:5.0
      ~io_bandwidth:10.0
  in
  Instance.make (video_transcoder ()) platform
