(* The two serve workloads: a live [relpipe serve -w 2] daemon, started
   as its own process, driven over one Unix-socket connection.

   serve-hot: the Stream_gen default spec (64-slot pool, Zipf 1.1),
   sent after one warm-up pass over the 64 slots, so every timed request
   is a cache hit.  serve-cold: every request is a distinct instance
   ([Stream_gen.pool_entries] with the pool as large as the request
   count), so every request is a cache miss and goes to the solvers.

   Each timed phase is an open loop at a fixed rate (latency samples)
   followed by a closed loop that keeps the daemon's 32-line session
   window full (capacity). *)

open Common
module Protocol = Relpipe_service.Protocol
module Stream_gen = Relpipe_workload.Stream_gen
module Analysis = Relpipe_analysis.Analysis
open Relpipe_model

type kind = Hot | Cold

type spec = {
  kind : kind;
  rate : float;  (** open-loop requests per second *)
  segments : int;  (** timed segments per run, each on a freshly set-up daemon *)
  setups : int;  (** set-ups per run ([>= segments]); [setup_s] is their median *)
  closed_cap : float;  (** upper bound on closed-loop requests per second *)
}

let hot =
  { kind = Hot; rate = 1500.0; segments = 7; setups = 7; closed_cap = 20_000.0 }

let cold =
  { kind = Cold; rate = 10.0; segments = 1; setups = 3; closed_cap = 200.0 }

let window = Daemon.session_window

(* Share of a segment's timed window spent in the open loop; the closed
   loop takes the rest. *)
let open_share = 0.6

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type inputs = {
  entries : Stream_gen.entry array;
  lines : string array;  (** one request line per entry *)
  order : int array;  (** entry sent as timed request [i] *)
}

let request_line ~id (e : Stream_gen.entry) =
  let method_ =
    match Protocol.method_of_string e.Stream_gen.method_name with
    | Ok m -> m
    | Error msg -> failwith msg
  in
  Protocol.encode_request
    (Protocol.request ~id ~method_ ~instance:(Protocol.Inline e.Stream_gen.text)
       e.Stream_gen.objective)

let gen_inputs spec ~seed ~n_timed =
  match spec.kind with
  | Hot ->
      let gspec = Stream_gen.default_spec in
      let entries = Stream_gen.pool_entries ~seed gspec in
      let lines =
        Array.map (fun e -> request_line ~id:(Printf.sprintf "s%d" e.Stream_gen.slot) e) entries
      in
      let order = Array.make n_timed 0 in
      Stream_gen.iter ~seed gspec ~n:n_timed (fun ev ->
          order.(ev.Stream_gen.ev_index) <- ev.Stream_gen.ev_slot);
      { entries; lines; order }
  | Cold ->
      let entries =
        Stream_gen.pool_entries ~seed { Stream_gen.default_spec with pool = n_timed }
      in
      let lines =
        Array.map (fun e -> request_line ~id:(Printf.sprintf "c%d" e.Stream_gen.slot) e) entries
      in
      { entries; lines; order = Array.init n_timed Fun.id }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* serve-hot: the reply equals the in-process answer for its slot,
   ignoring the cache field; [index] is the session's solve sequence. *)
let hot_oracle inputs =
  let engine =
    Relpipe_service.Engine.create ~workers:Daemon.workers
      ~cache_shards:Daemon.cache_shards ()
  in
  let responses = Relpipe_service.Engine.run_lines engine (Array.to_list inputs.lines) in
  Array.of_list
    (List.map
       (fun line ->
         match Protocol.decode_response line with
         | Ok r -> Protocol.encode_response { r with r_index = 0; r_cache = Protocol.Hit }
         | Error msg -> failwith msg)
       responses)

let normalized_reply line =
  match Protocol.decode_response line with
  | Ok r ->
      Some (r.Protocol.r_index, Protocol.encode_response { r with r_index = 0; r_cache = Protocol.Hit })
  | Error _ -> None

let check_hot expected ~slot ~index line =
  match normalized_reply line with
  | Some (i, body) -> i = index && String.equal body expected.(slot)
  | None -> false

(* serve-cold: an [ok] mapping parses, is valid for its instance,
   re-evaluates bit-for-bit to the reported latency and failure, and
   meets the threshold.  A definitive [infeasible] is a valid answer. *)
type cold_check = Valid | Valid_infeasible | Wrong

let check_cold (inst : Instance.t) (e : Stream_gen.entry) ~index line =
  match Protocol.decode_response line with
  | Error _ -> Wrong
  | Ok r when r.Protocol.r_index <> index -> Wrong
  | Ok r -> (
      match r.Protocol.r_outcome with
      | Protocol.Failed _ -> Wrong
      | Protocol.Infeasible -> Valid_infeasible
      | Protocol.Solved { mapping; latency; failure } -> (
          let n = Pipeline.length inst.Instance.pipeline in
          let m = Platform.size inst.Instance.platform in
          match Mapping_syntax.parse ~n ~m mapping with
          | Error _ -> Wrong
          | Ok map ->
              let ev = Instance.evaluate inst map in
              if
                same_bits ev.Instance.latency latency
                && same_bits ev.Instance.failure failure
                && Instance.feasible e.Stream_gen.objective ev
              then Valid
              else Wrong))

let parse_entry (e : Stream_gen.entry) =
  match Analysis.parse_instance_text e.Stream_gen.text with
  | Ok inst -> inst
  | Error _ -> failwith "perfbench: generated instance does not parse"

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type live = {
  daemon : Daemon.t;
  conn : Relpipe_serve.Client.t;
  inputs : inputs;
  warm : string array;  (** warm-up replies (serve-hot) *)
  setup_s : float;
}

(* Input generation, daemon spawn until it is listening, handshake and
   (serve-hot) the warm-up pass: everything before the first timed
   request may go out. *)
let setup spec ~relpipe ~dir ~seed ~n_timed ?record () =
  let t0 = now_ns () in
  let inputs = gen_inputs spec ~seed ~n_timed in
  let daemon = Daemon.spawn ~relpipe ~dir ?record () in
  match
    let conn = Daemon.connect daemon in
    Daemon.hello conn;
    let warm =
      match spec.kind with Hot -> Load.pass conn ~window inputs.lines | Cold -> [||]
    in
    (conn, warm)
  with
  | conn, warm -> { daemon; conn; inputs; warm; setup_s = seconds_since t0 }
  | exception e ->
      Daemon.kill daemon;
      raise e

(* ------------------------------------------------------------------ *)
(* One measured session                                                *)
(* ------------------------------------------------------------------ *)

type session = {
  live : live;
  opened : Load.open_result;
  closed : Load.closed_result;
  n_open : int;
  stats_before : (string * Relpipe_obs.Metric.view) list;
  stats_after : (string * Relpipe_obs.Metric.view) list;
  rss_mb : float;
  open_steal : float;  (** host steal share over the open loop *)
  closed_steal : float;  (** and over the closed loop *)
}

let sizes spec ~seconds =
  let open_s = seconds *. open_share in
  let closed_s = seconds -. open_s in
  let n_open = max 1 (int_of_float (spec.rate *. open_s)) in
  let n_closed_max = window + int_of_float (spec.closed_cap *. closed_s) in
  (open_s, closed_s, n_open, n_closed_max)

(* Run the timed phases on a set-up daemon, then read its peak RSS
   (before drain) and counters, and shut it down. *)
let measure spec live ~seconds ~closed =
  let _, closed_s, n_open, _ = sizes spec ~seconds in
  let inputs = live.inputs in
  let line_of i = inputs.lines.(inputs.order.(i)) in
  match
    let stats_before = Daemon.stats live.conn in
    let ticks0 = cpu_ticks () in
    let opened = Load.open_loop live.conn ~rate:spec.rate ~count:n_open ~line_of in
    let ticks1 = cpu_ticks () in
    let closed =
      if closed then
        Load.closed_loop live.conn ~window ~seconds:closed_s
          ~max_requests:(Array.length inputs.order - n_open)
          ~line_of:(fun i -> line_of (n_open + i))
      else { Load.c_replies = [||]; c_recv = [||]; c_sent = 0; c_seconds = 0.0 }
    in
    let ticks2 = cpu_ticks () in
    let rss_mb = Daemon.peak_rss_mb live.daemon in
    let stats_after = Daemon.stats live.conn in
    {
      live;
      opened;
      closed;
      n_open;
      stats_before;
      stats_after;
      rss_mb;
      open_steal = steal_share ticks0 ticks1;
      closed_steal = steal_share ticks1 ticks2;
    }
  with
  | s ->
      Daemon.shutdown live.daemon live.conn;
      s
  | exception e ->
      Daemon.kill live.daemon;
      raise e

(* Check every reply of a session; returns (attempted, failed, infeasible). *)
let check_session spec ~oracle s =
  let inputs = s.live.inputs in
  let base = Array.length s.live.warm in
  let parsed = Hashtbl.create 64 in
  let inst_of i =
    match Hashtbl.find_opt parsed i with
    | Some x -> x
    | None ->
        let x = parse_entry inputs.entries.(i) in
        Hashtbl.replace parsed i x;
        x
  in
  let failed = ref 0 and infeasible = ref 0 in
  let check ~entry ~index line =
    match spec.kind with
    | Hot -> if not (check_hot oracle ~slot:entry ~index line) then incr failed
    | Cold -> (
        match check_cold (inst_of entry) inputs.entries.(entry) ~index line with
        | Valid -> ()
        | Valid_infeasible -> incr infeasible
        | Wrong -> incr failed)
  in
  Array.iteri (fun slot line -> check ~entry:slot ~index:slot line) s.live.warm;
  Array.iteri
    (fun i t ->
      if t = 0 then incr failed
      else check ~entry:inputs.order.(i) ~index:(base + i) s.opened.Load.o_replies.(i))
    s.opened.Load.o_recv;
  let got = Array.length s.closed.Load.c_replies in
  failed := !failed + (s.closed.Load.c_sent - got);
  Array.iteri
    (fun j line ->
      check ~entry:inputs.order.(s.n_open + j) ~index:(base + s.n_open + j) line)
    s.closed.Load.c_replies;
  (base + s.n_open + s.closed.Load.c_sent, !failed, !infeasible)

(* Counter checks from the daemon's own [stats] reply. *)
let stats_checks spec s ~sent =
  let c name = Daemon.counter s.stats_after name in
  let d name = c name - Daemon.counter s.stats_before name in
  let timed = d "engine.requests" in
  let hits = d "engine.cache.hits" + d "engine.shared" in
  let hit_share = ratio hits timed in
  let problems =
    List.filter_map Fun.id
      [
        (if c "engine.requests" <> sent then
           Some (Printf.sprintf "engine.requests %d <> %d sent" (c "engine.requests") sent)
         else None);
        (if c "serve.refused" <> 0 then
           Some (Printf.sprintf "serve.refused = %d" (c "serve.refused"))
         else None);
        (match spec.kind with
        | Hot when hit_share < 0.99 ->
            Some (Printf.sprintf "serve-hot hit share %.4f < 0.99" hit_share)
        | Cold when hits <> 0 -> Some (Printf.sprintf "serve-cold hit share %.4f > 0" hit_share)
        | Hot | Cold -> None);
      ]
  in
  (hit_share, problems)

let run_dir ~name ~seed =
  Filename.concat ".bench_build/run" (Printf.sprintf "%s-%d-%d" name seed (Unix.getpid ()))

(* Inputs of segment [k]: each segment draws its own instances. *)
let segment_seed ~seed k = seed lxor (k lsl 24)

type segment = {
  session : session;
  attempted : int;
  failed : int;
  infeasible : int;
  hit_share : float;
  problems : string list;
}

(* One segment: set up a fresh daemon (timed), run the open and closed
   loops on it, check every reply and the daemon's counters. *)
let segment spec ~relpipe ~dir ~seed ~seconds ~closed ?record k =
  let seed = segment_seed ~seed k in
  let _, _, n_open, n_closed_max = sizes spec ~seconds in
  let n_timed = n_open + n_closed_max in
  let oracle =
    match spec.kind with
    | Hot -> hot_oracle (gen_inputs spec ~seed ~n_timed:0)
    | Cold -> [||]
  in
  let live = setup spec ~relpipe ~dir ~seed ~n_timed ?record () in
  let session = measure spec live ~seconds ~closed in
  let attempted, failed, infeasible = check_session spec ~oracle session in
  let hit_share, problems = stats_checks spec session ~sent:attempted in
  { session; attempted; failed; infeasible; hit_share; problems }

(* Set-ups beyond the timed segments: timed, checked, torn down. *)
let extra_setup spec ~relpipe ~dir ~seed ~n_timed k =
  let seed = segment_seed ~seed k in
  let oracle =
    match spec.kind with Hot -> hot_oracle (gen_inputs spec ~seed ~n_timed:0) | Cold -> [||]
  in
  let live = setup spec ~relpipe ~dir ~seed ~n_timed () in
  Daemon.shutdown live.daemon live.conn;
  let failed = ref 0 in
  Array.iteri
    (fun slot line -> if not (check_hot oracle ~slot ~index:slot line) then incr failed)
    live.warm;
  (live.setup_s, Array.length live.warm, !failed)

let run_e2e spec ~name ~relpipe ~seed ~seconds =
  let dir = run_dir ~name ~seed in
  let seg_seconds = seconds /. float_of_int spec.segments in
  let extras =
    List.init (spec.setups - spec.segments) (fun i ->
        let _, _, n_open, n_closed_max = sizes spec ~seconds:seg_seconds in
        extra_setup spec ~relpipe ~dir ~seed ~n_timed:(n_open + n_closed_max) (spec.segments + i))
  in
  let segs =
    List.init spec.segments (fun k ->
        segment spec ~relpipe ~dir ~seed ~seconds:seg_seconds ~closed:true k)
  in
  let all f = Array.concat (List.map f segs) in
  let samples =
    all (fun g ->
        let lat = Load.open_latencies g.session.opened in
        Array.append lat (Array.make (g.session.n_open - Array.length lat) infinity))
  in
  let seg_p50 = Array.of_list (List.map (fun g -> median (Load.open_latencies g.session.opened)) segs) in
  let late = all (fun g -> Load.lateness_ms g.session.opened) in
  let late_p99 = percentile 0.99 late and late_max = Array.fold_left Float.max 0.0 late in
  let seg_rate g =
    fratio
      (float_of_int (Array.length g.session.closed.Load.c_replies))
      g.session.closed.Load.c_seconds
  in
  let rates = Array.of_list (List.map seg_rate segs) in
  let sum_int f = List.fold_left (fun acc g -> acc + f g) 0 segs in
  let closed_ok = sum_int (fun g -> Array.length g.session.closed.Load.c_replies) in
  let closed_s = List.fold_left (fun acc g -> acc +. g.session.closed.Load.c_seconds) 0.0 segs in
  let problems = List.concat_map (fun g -> g.problems) segs in
  let floats f = Json.List (List.map (fun g -> Json.float (f g)) segs) in
  {
    Report.samples;
    (* Per segment, then over the quieter half of the segments: each
       daemon start-up settles into its own speed, and the host's steal
       comes in bursts.  serve-cold's throughput is pooled instead, since
       its heavy-tailed solves need every request. *)
    p50 = quiet_median (List.map (fun g -> g.session.open_steal) segs) seg_p50;
    throughput =
      (match spec.kind with
      | Hot -> quiet_median (List.map (fun g -> g.session.closed_steal) segs) rates
      | Cold -> fratio (float_of_int closed_ok) closed_s);
    thr_ops = closed_ok;
    setups =
      Array.of_list
        (List.map (fun g -> g.session.live.setup_s) segs @ List.map (fun (t, _, _) -> t) extras);
    rss_mb = median (Array.of_list (List.map (fun g -> g.session.rss_mb) segs));
    attempted = sum_int (fun g -> g.attempted) + List.fold_left (fun a (_, n, _) -> a + n) 0 extras;
    failed =
      sum_int (fun g -> g.failed) + List.length problems
      + List.fold_left (fun a (_, _, f) -> a + f) 0 extras;
    valid = late_p99 <= Report.max_gen_late_p99_ms;
    details =
      [
        ("segments", Json.Int spec.segments);
        ("setups", Json.Int spec.setups);
        ("open_rate_rps", Json.float spec.rate);
        ("open_requests", Json.Int (Array.length samples));
        ("closed_requests", Json.Int (sum_int (fun g -> g.session.closed.Load.c_sent)));
        ("segment_latency_p50_ms", Json.List (Array.to_list (Array.map Json.float seg_p50)));
        ("segment_throughput_rps", Json.List (Array.to_list (Array.map Json.float rates)));
        ("segment_setup_s", floats (fun g -> g.session.live.setup_s));
        ("segment_open_steal_share", floats (fun g -> g.session.open_steal));
        ("segment_closed_steal_share", floats (fun g -> g.session.closed_steal));
        ("segment_peak_rss_mb", floats (fun g -> g.session.rss_mb));
        ("gen_late_p99_ms", Json.float late_p99);
        ("gen_late_max_ms", Json.float late_max);
        ( "outstanding_at_open_end",
          Json.Int (sum_int (fun g -> Load.outstanding_at_end g.session.opened)) );
        ("hit_share", floats (fun g -> g.hit_share));
        ("infeasible_replies", Json.Int (sum_int (fun g -> g.infeasible)));
        ("stats_problems", Json.List (List.map (fun p -> Json.Str p) problems));
      ];
  }
