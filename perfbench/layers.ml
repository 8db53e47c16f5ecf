(* The traced run of a serve workload.

   Phase A drives a plain daemon through the open loop (the untraced
   reference).  Phase B repeats the session against a daemon started
   with [--record], adds the closed loop, and reads the daemon's
   counters from its [stats] reply.  The recorded transcript is then
   replayed in-process twice, on fresh state with the daemon's worker
   and shard counts, one tick of each replay in turn:

   1. through [Serve.Core.process_tick], timing each tick (the replay
      contract makes its replies byte-identical to the live ones, which
      is checked);
   2. through the benchmark's own walk of the same requests, calling
      each layer's public function in the order the engine does —
      Frame, Protocol decode, Analysis parse, Canon normalize, sharded
      Lru lookup, Pool.map of Solver.run over the misses, Canon
      translate on symmetric hits, Protocol encode — each in a span.
      Its replies must equal the first replay's, so the split is of the
      engine's real work; its per-tick layer sum must match the
      process_tick time within [Report.reconcile_tolerance].

   The socket path (framing, admission queue, thread hand-offs) is what
   the end-to-end p50 adds over the replayed tick: [serve.residual_ms]. *)

open Common
open Relpipe_model
module Protocol = Relpipe_service.Protocol
module Canon = Relpipe_service.Canon
module Engine = Relpipe_service.Engine
module Solver = Relpipe_core.Solver
module Solution = Relpipe_core.Solution
module Lru = Relpipe_util.Lru
module Script = Relpipe_serve.Script
module Frame = Relpipe_serve.Frame
module Analysis = Relpipe_analysis.Analysis
module Obs = Relpipe_obs.Obs

let exact_budget = 200_000
let cache_capacity = 1024

(* ------------------------------------------------------------------ *)
(* Replay 1: the daemon's own tick processor                           *)
(* ------------------------------------------------------------------ *)

type tick_replay = {
  tick_ns : int array;
  tick_solves : int array;  (** solve lines per tick *)
  solve_replies : string list;  (** in event order *)
  minor_words : float;
  major : int;
}

let is_solve_line line =
  match Protocol.decode_inbound line with Ok (Protocol.Solve _) -> true | _ -> false

(* [replay_ticks script] returns [(step, finish)]: [step i] replays tick
   [i], which must come in order; [finish ()] returns the figures. *)
let replay_ticks (script : Script.t) =
  let obs = Obs.create () in
  let engine =
    Engine.create ~obs ~workers:Daemon.workers ~cache_capacity
      ~cache_shards:Daemon.cache_shards ()
  in
  let core = Relpipe_serve.Core.create ~obs ~engine () in
  let ticks = Array.of_list script.Script.ticks in
  let tick_ns = Array.make (Array.length ticks) 0 in
  let tick_solves = Array.make (Array.length ticks) 0 in
  let replies = ref [] in
  let minor = ref 0.0 and major = ref 0 in
  let step i =
    let events = ticks.(i) in
    tick_solves.(i) <-
      List.length
        (List.filter
           (function Script.Send (_, l) -> is_solve_line l | Script.Open _ | Script.Close _ -> false)
           events);
    let g0 = gc_mark () in
    let t0 = now_ns () in
    let out = Relpipe_serve.Core.process_tick core events in
    tick_ns.(i) <- now_ns () - t0;
    let dm, dmaj = gc_delta g0 (gc_mark ()) in
    minor := !minor +. dm;
    major := !major + dmaj;
    List.iter
      (fun (_, line) ->
        match Protocol.decode_response line with
        | Ok _ -> replies := line :: !replies
        | Error _ -> ())
      out
  in
  let finish () =
    { tick_ns; tick_solves; solve_replies = List.rev !replies; minor_words = !minor; major = !major }
  in
  (step, finish)

(* ------------------------------------------------------------------ *)
(* Replay 2: the layer-by-layer walk                                   *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_outcome : (Solution.t option, Solver.error) result;
  e_perm : int array;
}

type ready = {
  rq : Protocol.request;
  inst : Instance.t;
  norm : Canon.normalized;
  budget : int;
  seq : int;  (** the session's solve index *)
  req_id : int;  (** global request number, the span id *)
}

type plan = Bad of int * string | Cached of ready * entry | Job of ready * int

let leg_of (r : ready) =
  match r.rq.Protocol.method_ with
  | Solver.Portfolio -> "solver.portfolio"
  | Solver.Exact_enum -> "solver.exact_enum"
  | Solver.Polynomial -> "solver.poly"
  | Solver.Heuristic _ -> "solver.heuristic"
  | Solver.Auto ->
      (* The leg Auto picks, as Solver.describe names it. *)
      let d = Solver.describe r.inst in
      let has sub =
        let n = String.length sub and m = String.length d in
        let rec go i = i + n <= m && (String.equal (String.sub d i n) sub || go (i + 1)) in
        go 0
      in
      if has "Algorithms" then "solver.poly"
      else if has "exhaustive" then "solver.exact_enum"
      else "solver.portfolio"

type walk = {
  spans : Spans.t;
  solve_replies : string list;
  layer_tick_ns : int array;  (** per tick: its layer spans, framing excluded *)
  requests : int;
  hits : int;
  symmetric_hits : int;
  jobs_per_tick : int array;
  solve_wall_ns : int;  (** summed Pool.map wall time *)
  job_ns : int;  (** summed Solver.run time *)
}

(* [Engine]'s answer for a planned request; symmetric hits re-index the
   cached mapping ([Canon.translate]) and re-evaluate it. *)
let outcome_of spans (r : ready) entry =
  match entry.e_outcome with
  | Error e -> (Protocol.Failed (Solver.error_to_string e), false)
  | Ok None -> (Protocol.Infeasible, false)
  | Ok (Some sol) ->
      if Canon.same_perm entry.e_perm r.norm.Canon.perm then
        ( Protocol.Solved
            {
              mapping = Protocol.mapping_to_syntax sol.Solution.mapping;
              latency = sol.Solution.evaluation.Instance.latency;
              failure = sol.Solution.evaluation.Instance.failure;
            },
          false )
      else
        Spans.span spans ~op:r.req_id "canon.translate" (fun () ->
            let n = Pipeline.length r.inst.Instance.pipeline in
            let m = Platform.size r.inst.Instance.platform in
            let mapping =
              Canon.translate ~from_perm:entry.e_perm ~to_perm:r.norm.Canon.perm ~n ~m
                sol.Solution.mapping
            in
            let ev = Instance.evaluate r.inst mapping in
            ( Protocol.Solved
                {
                  mapping = Protocol.mapping_to_syntax mapping;
                  latency = ev.Instance.latency;
                  failure = ev.Instance.failure;
                },
              true ))

let solve_job (r : ready) =
  match
    Solver.run ~method_:r.rq.Protocol.method_ ~exact_budget:r.budget r.inst
      r.rq.Protocol.objective
  with
  | o -> o
  | exception e -> Error (Solver.Not_applicable (Printexc.to_string e))

(* [walk script] returns [(step, finish)] as [replay_ticks] does. *)
let walk (script : Script.t) =
  let spans = Spans.create () in
  let cache = Lru.Sharded.create ~shards:Daemon.cache_shards ~capacity:cache_capacity in
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Frame.reader b in
  let seqs = Hashtbl.create 4 in
  let next_seq sid =
    let s = match Hashtbl.find_opt seqs sid with Some s -> s | None -> 0 in
    Hashtbl.replace seqs sid (s + 1);
    s
  in
  let ticks = Array.of_list script.Script.ticks in
  let jobs_per_tick = Array.make (Array.length ticks) 0 in
  let replies = ref [] and requests = ref 0 and hits = ref 0 and symmetric = ref 0 in
  let solve_wall = ref 0 and job_total = ref 0 in
  let prepare sid line =
    let req_id = !requests in
    let span name f = Spans.span spans ~op:req_id name f in
    span "frame" (fun () ->
        Frame.write_line a line;
        ignore (Frame.read_line reader));
    match span "protocol.decode" (fun () -> Protocol.decode_inbound line) with
    | Ok (Protocol.Control _) | Error _ -> None
    | Ok (Protocol.Solve (Error msg)) ->
        incr requests;
        Some (Error (next_seq sid, msg))
    | Ok (Protocol.Solve (Ok rq)) -> (
        incr requests;
        let seq = next_seq sid in
        let text =
          match rq.Protocol.instance with
          | Protocol.Inline t -> t
          | Protocol.File _ -> failwith "perfbench: unexpected instance_file request"
        in
        match span "analysis.parse" (fun () -> Analysis.parse_instance_text text) with
        | Error _ -> Some (Error (seq, "unparsable instance"))
        | Ok inst ->
            let budget = match rq.Protocol.budget with Some b -> b | None -> exact_budget in
            let norm =
              span "canon.normalize" (fun () ->
                  Canon.normalize ~budget ~method_:rq.Protocol.method_ inst
                    rq.Protocol.objective)
            in
            Some (Ok { rq; inst; norm; budget; seq; req_id }))
  in
  let step ti =
    let events = ticks.(ti) in
    Spans.span spans ~op:ti "tick" (fun () ->
        (* Prepare and plan, in event order (Core + Engine phases 1-2). *)
        let pending = Hashtbl.create 16 in
        let jobs = ref [] and n_jobs = ref 0 in
        let plans =
          List.filter_map
            (function
              | Script.Open _ | Script.Close _ -> None
              | Script.Send (sid, line) -> (
                  match prepare sid line with
                  | None -> None
                  | Some (Error (seq, msg)) -> Some (Bad (seq, msg))
                  | Some (Ok r) -> (
                      let key = r.norm.Canon.key in
                      match
                        Spans.span spans ~op:r.req_id "lru.find" (fun () ->
                            Lru.Sharded.find cache key)
                      with
                      | Some entry -> Some (Cached (r, entry))
                      | None -> (
                          match Hashtbl.find_opt pending key with
                          | Some j -> Some (Job (r, j))
                          | None ->
                              let j = !n_jobs in
                              incr n_jobs;
                              Hashtbl.replace pending key j;
                              jobs := r :: !jobs;
                              Some (Job (r, j))))))
            events
        in
        let jobs = Array.of_list (List.rev !jobs) in
        jobs_per_tick.(ti) <- Array.length jobs;
        (* Solve (phase 3): the misses on the pool, each timed where it
           runs; the solver spans are added under the pool span. *)
        let starts = Array.make (Array.length jobs) 0 in
        let ends = Array.make (Array.length jobs) 0 in
        let outcomes =
          if Array.length jobs = 0 then [||]
          else begin
            let pool_span = ref (-1) in
            let outcomes =
              Spans.span spans ~op:ti "pool.map" (fun () ->
                  pool_span := Spans.current_parent spans;
                  fst
                    (Relpipe_pool.Pool.map ~workers:Daemon.workers
                       (fun j ->
                         let t0 = now_ns () in
                         let out = solve_job jobs.(j) in
                         (* devlint: allow RP-S301 — slot j belongs to job j *)
                         starts.(j) <- t0;
                         (* devlint: allow RP-S301 — slot j belongs to job j *)
                         ends.(j) <- now_ns ();
                         out)
                       (Array.init (Array.length jobs) Fun.id)))
            in
            let ps = spans.Spans.spans.(!pool_span) in
            solve_wall := !solve_wall + Spans.dur ps;
            Array.iteri
              (fun j r ->
                job_total := !job_total + (ends.(j) - starts.(j));
                ignore
                  (Spans.add spans ~parent:!pool_span ~op:r.req_id (leg_of r)
                     ~start_ns:starts.(j) ~end_ns:ends.(j)))
              jobs;
            outcomes
          end
        in
        (* Emit (phase 4): cache new entries in job order, answer in
           request order with the session's own solve index. *)
        let entries =
          Array.mapi
            (fun j outcome ->
              let entry = { e_outcome = outcome; e_perm = jobs.(j).norm.Canon.perm } in
              Spans.span spans ~op:jobs.(j).req_id "lru.add" (fun () ->
                  Lru.Sharded.add cache jobs.(j).norm.Canon.key entry);
              entry)
            outcomes
        in
        List.iter
          (fun p ->
            let rid, r_id, seq, origin, outcome =
              match p with
              | Bad (seq, msg) -> (-1, None, seq, Protocol.Miss, Protocol.Failed msg)
              | Cached (r, entry) ->
                  incr hits;
                  let o, sym = outcome_of spans r entry in
                  if sym then incr symmetric;
                  (r.req_id, r.rq.Protocol.id, r.seq, Protocol.Hit, o)
              | Job (r, j) ->
                  let shared = not (jobs.(j) == r) in
                  if shared then incr hits;
                  let o, sym = outcome_of spans r entries.(j) in
                  if sym then incr symmetric;
                  (r.req_id, r.rq.Protocol.id, r.seq, (if shared then Protocol.Hit else Protocol.Miss), o)
            in
            let line =
              Spans.span spans ~op:rid "protocol.encode" (fun () ->
                  Protocol.encode_response
                    { Protocol.r_id; r_index = seq; r_cache = origin; r_outcome = outcome })
            in
            replies := line :: !replies)
          plans)
  in
  let finish () =
    Unix.close a;
    Unix.close b;
    (* Per tick, the layer spans directly under it, framing excluded. *)
    let layer_tick_ns = Array.make (Array.length ticks) 0 in
    for i = 0 to spans.Spans.len - 1 do
      let s = spans.Spans.spans.(i) in
      if s.Spans.parent >= 0 && not (String.equal s.Spans.name "frame") then begin
        let p = spans.Spans.spans.(s.Spans.parent) in
        if String.equal p.Spans.name "tick" then
          layer_tick_ns.(p.Spans.op) <- layer_tick_ns.(p.Spans.op) + Spans.dur s
      end
    done;
    {
      spans;
      solve_replies = List.rev !replies;
      layer_tick_ns;
      requests = !requests;
      hits = !hits;
      symmetric_hits = !symmetric;
      jobs_per_tick;
      solve_wall_ns = !solve_wall;
      job_ns = !job_total;
    }
  in
  (step, finish)

(* Both replays, one tick of each in turn (alternating which goes
   first), so host speed drift over the run touches them alike and the
   layer split reconciles with the tick times. *)
let replay_both (script : Script.t) =
  let r_step, r_finish = replay_ticks script in
  let w_step, w_finish = walk script in
  List.iteri
    (fun i _ ->
      if i mod 2 = 0 then begin
        r_step i;
        w_step i
      end
      else begin
        w_step i;
        r_step i
      end)
    script.Script.ticks;
  (r_finish (), w_finish ())

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let live_solve_replies (g : Serve_wl.segment) =
  let s = g.Serve_wl.session in
  let opened =
    List.filteri (fun i _ -> s.Serve_wl.opened.Load.o_recv.(i) > 0)
      (Array.to_list s.Serve_wl.opened.Load.o_replies)
  in
  Array.to_list s.Serve_wl.live.Serve_wl.warm
  @ opened
  @ Array.to_list s.Serve_wl.closed.Load.c_replies

let run_traced spec ~name ~relpipe ~seed ~seconds =
  let dir = Serve_wl.run_dir ~name ~seed in
  let half = seconds /. 2.0 in
  (* Phase A: the untraced reference, open loop only. *)
  let a = Serve_wl.segment spec ~relpipe ~dir ~seed ~seconds:half ~closed:false 0 in
  (* Phase B: the same requests against a recording daemon. *)
  let record = Filename.concat dir "session.rec" in
  let b = Serve_wl.segment spec ~relpipe ~dir ~seed ~seconds:half ~closed:true ~record 0 in
  let script =
    match Script.load record with Ok s -> s | Error msg -> failwith ("perfbench: " ^ msg)
  in
  let r1, w = replay_both script in
  let replay_identical = List.equal String.equal (live_solve_replies b) r1.solve_replies in
  let walk_identical = List.equal String.equal r1.solve_replies w.solve_replies in
  let bs = b.Serve_wl.session in
  let stats = bs.Serve_wl.stats_after in
  let c = Daemon.counter stats in
  let hist name =
    let n, sum = Daemon.histogram stats name in
    fratio sum (float_of_int n)
  in
  let requests = w.requests in
  (* Tick time of every solve request, in request order. *)
  let per_request_tick_ms =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i n -> Array.make n (ms_of_ns r1.tick_ns.(i))) r1.tick_solves))
  in
  let n_warm = Array.length bs.Serve_wl.live.Serve_wl.warm in
  let n_open = bs.Serve_wl.n_open in
  let open_tick_ms =
    Array.sub per_request_tick_ms n_warm
      (max 0 (min n_open (Array.length per_request_tick_ms - n_warm)))
  in
  let p50_of (g : Serve_wl.segment) = median (Load.open_latencies g.Serve_wl.session.Serve_wl.opened) in
  (* Median replayed time of the ticks that carried solve requests. *)
  let busy_tick_us =
    let acc = ref [] in
    Array.iteri
      (fun i n -> if n > 0 then acc := (float_of_int r1.tick_ns.(i) /. 1000.0) :: !acc)
      r1.tick_solves;
    median (Array.of_list !acc)
  in
  (* Tracing overhead from the paired open-loop requests: phases A and B
     send the same requests on the same schedule. *)
  let overhead =
    let la = Load.open_latencies a.Serve_wl.session.Serve_wl.opened in
    let lb = Load.open_latencies bs.Serve_wl.opened in
    let n = min (Array.length la) (Array.length lb) in
    fratio (median (Array.init n (fun i -> lb.(i) -. la.(i)))) (median la)
  in
  let spawns =
    Array.fold_left (fun acc j -> if j > 0 then acc + (min Daemon.workers j - 1) else acc) 0 w.jobs_per_tick
  in
  let late = Load.lateness_ms bs.Serve_wl.opened in
  let layer_total = Array.fold_left ( + ) 0 w.layer_tick_ns in
  let tick_total = Array.fold_left ( + ) 0 r1.tick_ns in
  let us name = Spans.mean_us w.spans name and ms name = Spans.mean_ms w.spans name in
  let values =
    [
      ("frame.roundtrip_us", us "frame");
      ("protocol.decode_us", us "protocol.decode");
      ("protocol.encode_us", us "protocol.encode");
      ("analysis.parse_us", us "analysis.parse");
      ("canon.normalize_us", us "canon.normalize");
      ("canon.translate_us", us "canon.translate");
      ("canon.symmetric_hit_share", ratio w.symmetric_hits w.hits);
      ("lru.find_us", us "lru.find");
      ("lru.hit_ratio", ratio (c "engine.cache.hits" + c "engine.shared") (c "engine.requests"));
      ("lru.evictions_per_kreq", 1000.0 *. ratio (c "engine.cache.evictions") (c "engine.requests"));
      ("serve.tick_us", busy_tick_us);
      ("serve.batch_per_tick", hist "serve.tick.batch");
      ("serve.residual_ms", p50_of b -. median open_tick_ms);
      ("solver.portfolio_ms", ms "solver.portfolio");
      ("solver.exact_enum_ms", ms "solver.exact_enum");
      ("solver.heuristic_ms", ms "solver.heuristic");
      ("solver.poly_ms", ms "solver.poly");
      ("core.exact.mappings_per_solve", ratio (c "core.exact.mappings") (c "core.exact.solves"));
      ("pool.busy_ms_per_job", hist "pool.task.duration_ns" /. 1e6);
      ( "pool.idle_share",
        if w.solve_wall_ns = 0 then 0.0
        else 1.0 -. ratio w.job_ns (Daemon.workers * w.solve_wall_ns) );
      ("pool.spawns_per_kreq", 1000.0 *. ratio spawns requests);
      ("gc.minor_words_per_op", fratio r1.minor_words (float_of_int requests));
      ("gc.major_collections_per_kop", 1000.0 *. ratio r1.major requests);
      ("gen.late_p99_ms", percentile 0.99 late);
      ("gen.late_max_ms", Array.fold_left Float.max 0.0 late);
      ("trace.overhead_share", overhead);
      ( "trace.reconcile_error_share",
        fratio (Float.abs (float_of_int (layer_total - tick_total))) (float_of_int tick_total) );
    ]
  in
  let problems = a.Serve_wl.problems @ b.Serve_wl.problems in
  let late_ok (g : Serve_wl.segment) =
    percentile 0.99 (Load.lateness_ms g.Serve_wl.session.Serve_wl.opened)
    <= Report.max_gen_late_p99_ms
  in
  ( {
      Report.values;
      l_attempted = a.Serve_wl.attempted + b.Serve_wl.attempted;
      l_failed =
        a.Serve_wl.failed + b.Serve_wl.failed + List.length problems
        + (if replay_identical then 0 else 1)
        + if walk_identical then 0 else 1;
      l_valid = late_ok a && late_ok b;
      l_details =
        [
          ("requests_replayed", Json.Int requests);
          ("replayed_tick_ms_total", Json.float (ms_of_ns tick_total));
          ("layer_ms_total", Json.float (ms_of_ns layer_total));
          ("ticks_replayed", Json.Int (Array.length r1.tick_ns));
          ("replay_identical", Json.Bool replay_identical);
          ("walk_identical", Json.Bool walk_identical);
          ("stats_problems", Json.List (List.map (fun p -> Json.Str p) problems));
        ];
    },
    w.spans )
