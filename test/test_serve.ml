(* Tests for relpipe.serve and its satellites: the sharded LRU against
   a per-shard model of plain caches, the byte-pinned control-message
   vocabulary, the .session transcript format, the admission queue, the
   framing layer, the headline determinism contract (the committed
   three-client fixture replays byte-identically at workers 1, 2 and 8),
   a live in-process daemon with two interleaved clients whose recording
   replays to the exact reply streams the clients received, the
   SIGTERM-path drain (every admitted request answered before exit), and
   the `relpipe batch -o` sink-failure regression. *)

open Relpipe_model
open Relpipe_service
module Rng = Relpipe_util.Rng
module Lru = Relpipe_util.Lru
module Metric = Relpipe_obs.Metric
module Clock = Relpipe_obs.Clock
module Obs = Relpipe_obs.Obs
module Script = Relpipe_serve.Script
module Replay = Relpipe_serve.Replay
module Server = Relpipe_serve.Server
module Client = Relpipe_serve.Client
module Admission = Relpipe_serve.Admission
module Frame = Relpipe_serve.Frame

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* The instance the fixtures and live tests solve: 2 stages, 3
   processors, fully connected via a default bandwidth. *)
let inst_text =
  "input 1\nstage 2 1\nstage 3 1\nproc 2 0.1\nproc 4 0.3\nproc 1 0.2\n\
   link default 2\n"

let hello_line name = Protocol.encode_control (Protocol.hello ~client:name ())

let solve_line id =
  Protocol.encode_request
    (Protocol.request ~id
       ~instance:(Protocol.Inline inst_text)
       (Instance.Min_failure { max_latency = 10.0 }))

(* ------------------------------------------------------------------ *)
(* Lru.Sharded vs a per-shard model of plain caches                    *)
(* ------------------------------------------------------------------ *)

(* Drive one deterministic op sequence into the sharded cache and into
   [shards] plain caches routed by the same (exposed) key hash, with the
   same capacity split.  Every find/mem result and the aggregated
   hit/miss/eviction counters must agree — with [shards = 1] this is
   exactly "Sharded behaves like the historical single cache". *)
let prop_sharded_matches_model shards seed =
  let rng = Helpers.rng_of_seed seed in
  let capacity = 1 + Rng.int rng 9 in
  let t = Lru.Sharded.create ~shards ~capacity in
  let model =
    Array.init shards (fun i ->
        let cap =
          (capacity / shards) + if i < capacity mod shards then 1 else 0
        in
        Lru.create ~capacity:cap)
  in
  let model_of key = model.(Lru.Sharded.shard_of_key t key) in
  let ok = ref true in
  for step = 0 to 199 do
    let key = Printf.sprintf "key-%d" (Rng.int rng 12) in
    match Rng.int rng 3 with
    | 0 ->
        Lru.Sharded.add t key step;
        Lru.add (model_of key) key step
    | 1 ->
        if
          not
            (Option.equal Int.equal (Lru.Sharded.find t key)
               (Lru.find (model_of key) key))
        then ok := false
    | _ ->
        if Bool.not (Bool.equal (Lru.Sharded.mem t key) (Lru.mem (model_of key) key))
        then ok := false
  done;
  let s = Lru.Sharded.stats t in
  let agg f = Array.fold_left (fun acc m -> acc + f (Lru.stats m)) 0 model in
  let model_len = Array.fold_left (fun acc m -> acc + Lru.length m) 0 model in
  !ok
  && s.Lru.hits = agg (fun (st : Lru.stats) -> st.Lru.hits)
  && s.Lru.misses = agg (fun (st : Lru.stats) -> st.Lru.misses)
  && s.Lru.evictions = agg (fun (st : Lru.stats) -> st.Lru.evictions)
  && Lru.Sharded.length t = model_len
  && Lru.Sharded.length t <= capacity

let test_sharded_create_in_registers () =
  let reg = Metric.create () in
  let t =
    Lru.Sharded.create_in ~metrics:reg ~name:"serve.cache" ~shards:4
      ~capacity:8
  in
  ignore (Lru.Sharded.find t "absent");
  Lru.Sharded.add t "k" 1;
  ignore (Lru.Sharded.find t "k");
  let v name =
    match List.assoc name (Metric.bindings reg) with
    | Metric.Counter_v v -> v
    | _ -> -1
  in
  (* Same counter names as the unsharded create_in, aggregated across
     shards. *)
  check_int "hits" 1 (v "serve.cache.hits");
  check_int "misses" 1 (v "serve.cache.misses");
  check_int "evictions" 0 (v "serve.cache.evictions");
  let s = Lru.Sharded.stats t in
  check_int "stats view agrees" 1 s.Lru.hits

let test_sharded_invalid_shards () =
  Alcotest.check_raises "shards = 0"
    (Invalid_argument "Lru.Sharded.create: shards must be >= 1") (fun () ->
      ignore (Lru.Sharded.create ~shards:0 ~capacity:4))

(* ------------------------------------------------------------------ *)
(* Protocol control messages: byte-pinned                              *)
(* ------------------------------------------------------------------ *)

let test_control_encode_bytes () =
  check_str "hello" {|{"v":1,"op":"hello","client":"x"}|}
    (Protocol.encode_control (Protocol.hello ~client:"x" ()));
  check_str "hello bare" {|{"v":1,"op":"hello"}|}
    (Protocol.encode_control (Protocol.hello ()));
  check_str "hello with protocols"
    {|{"v":1,"op":"hello","protocols":[1,2]}|}
    (Protocol.encode_control
       (Protocol.Hello { client = None; protocols = [ 1; 2 ] }));
  check_str "stats" {|{"v":1,"op":"stats"}|}
    (Protocol.encode_control Protocol.Stats);
  check_str "shutdown" {|{"v":1,"op":"shutdown"}|}
    (Protocol.encode_control Protocol.Shutdown)

let reply_pins =
  [
    ( Protocol.Hello_ok { protocol = 1 },
      {|{"v":1,"op":"hello","ok":true,"protocol":1}|} );
    ( Protocol.Shutdown_ok { draining = true },
      {|{"v":1,"op":"shutdown","ok":true,"draining":true}|} );
    ( Protocol.Stats_ok
        [
          ("c", Metric.Counter_v 3);
          ("g", Metric.Gauge_v 7);
          ("h", Metric.Histogram_v { count = 2; sum = 2.5 });
        ],
      {|{"v":1,"op":"stats","ok":true,"metrics":[{"name":"c","type":"counter","value":3},{"name":"g","type":"gauge","value":7},{"name":"h","type":"histogram","count":2,"sum":2.5}]}|}
    );
    ( Protocol.Refused (Protocol.Version_mismatch { offered = [ 2; 3 ] }),
      {|{"v":1,"op":"error","ok":false,"code":"version-mismatch","offered":[2,3],"error":"no common protocol version: server speaks 1, client offered 2, 3"}|}
    );
    ( Protocol.Refused (Protocol.Unknown_op "frob"),
      {|{"v":1,"op":"error","ok":false,"code":"unknown-op","method":"frob","error":"unknown method \"frob\" (expected hello, stats or shutdown)"}|}
    );
    ( Protocol.Refused Protocol.Hello_required,
      {|{"v":1,"op":"error","ok":false,"code":"hello-required","error":"session must open with a hello handshake before sending requests"}|}
    );
  ]

let test_control_reply_bytes () =
  List.iter
    (fun (reply, expected) ->
      check_str "encode" expected (Protocol.encode_control_reply reply))
    reply_pins

let test_control_reply_roundtrip () =
  (* decode . encode is the identity on the wire: re-encoding the
     decoded reply reproduces the pinned bytes. *)
  List.iter
    (fun (_, line) ->
      match Protocol.decode_control_reply line with
      | Error e -> Alcotest.failf "decode %s: %s" line e
      | Ok reply ->
          check_str "re-encode" line (Protocol.encode_control_reply reply))
    reply_pins

(* One registry rendered both ways: every metric object of a stats reply
   is, byte for byte, the matching --metrics line without its buckets. *)
let test_stats_reply_matches_metrics_lines () =
  let module Json = Relpipe_obs.Json in
  let reg = Metric.create () in
  Metric.Counter.add (Metric.counter reg "serve.c") 3;
  Metric.Gauge.set (Metric.gauge reg "serve.g") 7;
  List.iter
    (Metric.Histogram.observe (Metric.histogram reg "serve.h_integral"))
    [ 1000.0; 1000.0 ];
  List.iter
    (Metric.Histogram.observe (Metric.histogram reg "serve.h_fractional"))
    [ 1.25; 1.5 ];
  let parse line =
    match Json.parse line with
    | Ok j -> j
    | Error e -> Alcotest.failf "%S does not parse: %s" line e
  in
  let reply =
    parse
      (Protocol.encode_control_reply (Protocol.Stats_ok (Metric.bindings reg)))
  in
  let in_reply =
    match Option.bind (Json.member "metrics" reply) Json.to_list with
    | Some objects -> List.map Json.to_string objects
    | None -> Alcotest.fail "stats reply has no metrics list"
  in
  let without_buckets line =
    match parse line with
    | Json.Obj fields ->
        Json.to_string
          (Json.Obj (List.filter (fun (k, _) -> not (String.equal k "buckets")) fields))
    | _ -> Alcotest.failf "%S is not an object" line
  in
  let in_file =
    List.filter_map
      (fun line -> if String.equal line "" then None else Some (without_buckets line))
      (String.split_on_char '\n' (Metric.render_jsonl reg))
  in
  check_int "four metrics" 4 (List.length in_file);
  Alcotest.(check (list string)) "stats objects = --metrics lines without buckets"
    in_file in_reply

let test_decode_inbound () =
  (match Protocol.decode_inbound {|{"v":1,"op":"stats"}|} with
  | Ok (Protocol.Control Protocol.Stats) -> ()
  | _ -> Alcotest.fail "stats should classify as Control Stats");
  (match Protocol.decode_inbound {|{"v":1,"op":"hello","client":"x"}|} with
  | Ok (Protocol.Control (Protocol.Hello { client = Some "x"; protocols = [ 1 ] }))
    ->
      ()
  | _ -> Alcotest.fail "hello should classify with default protocols [1]");
  (match Protocol.decode_inbound {|{"v":2,"op":"stats"}|} with
  | Error (Protocol.Version_mismatch { offered = [ 2 ] }) -> ()
  | _ -> Alcotest.fail "foreign v should refuse with version-mismatch");
  (match
     Protocol.decode_inbound {|{"v":1,"op":"hello","protocols":[2,3]}|}
   with
  | Error (Protocol.Version_mismatch { offered = [ 2; 3 ] }) -> ()
  | _ -> Alcotest.fail "no common protocol should refuse");
  (match Protocol.decode_inbound {|{"v":1,"op":"frob"}|} with
  | Error (Protocol.Unknown_op "frob") -> ()
  | _ -> Alcotest.fail "unknown op should refuse with unknown-op");
  (match Protocol.decode_inbound (solve_line "x") with
  | Ok (Protocol.Solve (Ok req)) -> (
      match req.Protocol.id with
      | Some "x" -> ()
      | _ -> Alcotest.fail "solve id should survive")
  | _ -> Alcotest.fail "op-less line should classify as Solve");
  (match Protocol.decode_inbound "{oops" with
  | Ok (Protocol.Solve (Error _)) -> ()
  | _ -> Alcotest.fail "malformed JSON stays on the per-request error path");
  match Protocol.decode_inbound {|{"id":"x"}|} with
  | Ok (Protocol.Solve (Error _)) -> ()
  | _ -> Alcotest.fail "op-less bad request stays on the per-request path"

(* A solve line is parsed once on the session path; the request it
   carries must be exactly what [decode_request] makes of the same line,
   errors included.  Each line's expected outcome is checked first, so
   the comparison covers every error kind, not only malformed JSON. *)
let test_inbound_matches_decode_request () =
  let render = function
    | Ok r -> "ok " ^ Protocol.encode_request r
    | Error msg -> "error " ^ msg
  in
  let body extra =
    Printf.sprintf
      {|"instance":"%s","objective":{"minimize":"failure","max_latency":10}%s}|}
      (String.escaped inst_text) extra
  in
  List.iter
    (fun (name, line, expected) ->
      let direct = render (Protocol.decode_request line) in
      if not (String.starts_with ~prefix:expected direct) then
        Alcotest.failf "%s: decode_request gave %S" name direct;
      match Protocol.decode_inbound line with
      | Ok (Protocol.Solve r) -> check_str name direct (render r)
      | _ -> Alcotest.failf "%s: expected a Solve line" name)
    [
      ("valid", solve_line "x", "ok ");
      ("malformed", "{oops", "error malformed JSON: ");
      ("wrong version", {|{"v":2,|} ^ body "", "error unsupported protocol");
      ( "bad budget",
        {|{"v":1,|} ^ body {|,"budget":0|},
        {|error "budget" must be a positive integer|} );
      ( "both instance fields",
        {|{"v":1,"instance_file":"x.relpipe",|} ^ body "",
        {|error pass "instance" or "instance_file", not both|} );
    ]

(* ------------------------------------------------------------------ *)
(* Script (.session) format                                            *)
(* ------------------------------------------------------------------ *)

let fixture = Filename.concat "fixtures" (Filename.concat "sessions" "three-clients.session")

let load_fixture () =
  match Script.load fixture with
  | Ok s -> s
  | Error e -> Alcotest.failf "fixture: %s" e

let test_script_roundtrip () =
  let t = load_fixture () in
  check_int "ticks" 5 (List.length t.Script.ticks);
  check_int "events" 18 (List.length (Script.events t));
  let rendered = Script.render t in
  match Script.parse rendered with
  | Error e -> Alcotest.fail e
  | Ok t2 -> check_str "canonical round-trip" rendered (Script.render t2)

let check_parse_error name text needle =
  match Script.parse text with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  | Error e ->
      check_bool
        (Printf.sprintf "%s: %S mentions %S" name e needle)
        true (Helpers.contains ~needle e)

let test_script_errors () =
  check_parse_error "unknown verb" "bogus 1\n" "line 1";
  check_parse_error "bad id" "open x\n" "non-negative";
  check_parse_error "send without payload" "send 3\n" "send ID LINE";
  check_parse_error "foreign header" "#relpipe-session v9\n" "unsupported";
  (match Script.parse "open 0\nsend 0 {}\n" with
  | Ok t -> check_int "implicit final tick" 1 (List.length t.Script.ticks)
  | Error e -> Alcotest.fail e);
  match Script.parse "" with
  | Ok t -> check_int "empty transcript" 0 (List.length t.Script.ticks)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Admission queue                                                     *)
(* ------------------------------------------------------------------ *)

let test_admission_fifo_and_close () =
  let q = Admission.create ~capacity:4 in
  check_bool "push 1" true (Admission.push q 1);
  check_bool "push 2" true (Admission.push q 2);
  check_bool "push 3" true (Admission.push q 3);
  check_int "length" 3 (Admission.length q);
  (match Admission.drain q with
  | [ 1; 2; 3 ] -> ()
  | _ -> Alcotest.fail "drain should return all pending in order");
  check_bool "push 4" true (Admission.push q 4);
  Admission.close q;
  check_bool "push after close" false (Admission.push q 5);
  (match Admission.drain q with
  | [ 4 ] -> ()
  | _ -> Alcotest.fail "drain after close returns the leftovers");
  match Admission.drain q with
  | [] -> ()
  | _ -> Alcotest.fail "closed and empty drains to []"

let test_admission_backpressure () =
  (* A producer pushing through a capacity-2 queue blocks until the
     consumer drains; everything still arrives, in order. *)
  let q = Admission.create ~capacity:2 in
  let producer =
    Thread.create
      (fun () ->
        for i = 0 to 19 do
          ignore (Admission.push q i)
        done;
        Admission.close q)
      ()
  in
  let rec collect acc =
    match Admission.drain q with [] -> List.rev acc | items -> collect (List.rev_append items acc)
  in
  let got = collect [] in
  Thread.join producer;
  check_int "all items" 20 (List.length got);
  check_bool "in order" true (List.for_all2 ( = ) got (List.init 20 Fun.id))

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r = Frame.reader b in
  Frame.write_line a "one";
  ignore (Unix.write a (Bytes.of_string "two\r\n") 0 5);
  Frame.write_line a "";
  ignore (Unix.write a (Bytes.of_string "tail") 0 4);
  Unix.close a;
  (match Frame.read_line r with
  | Frame.Line l -> check_str "first" "one" l
  | _ -> Alcotest.fail "expected a line");
  (match Frame.read_line r with
  | Frame.Line l -> check_str "crlf stripped" "two" l
  | _ -> Alcotest.fail "expected a line");
  (match Frame.read_line r with
  | Frame.Line l -> check_str "empty line" "" l
  | _ -> Alcotest.fail "expected a line");
  (match Frame.read_line r with
  | Frame.Line l -> check_str "unterminated tail" "tail" l
  | _ -> Alcotest.fail "expected the tail");
  (match Frame.read_line r with
  | Frame.Eof -> ()
  | _ -> Alcotest.fail "expected EOF");
  Unix.close b

let test_frame_too_long () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r = Frame.reader ~max_line:8 b in
  ignore (Unix.write a (Bytes.of_string (String.make 64 'x')) 0 64);
  (match Frame.read_line r with
  | Frame.Too_long -> ()
  | _ -> Alcotest.fail "size guard should trip");
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Replay determinism on the committed fixture                         *)
(* ------------------------------------------------------------------ *)

let replay_fixture workers =
  let obs = Obs.create ~clock:(Clock.virtual_ ()) () in
  Replay.run_script ~obs ~workers (load_fixture ())

let test_fixture_replay_identical_across_workers () =
  let w1 = Replay.render (replay_fixture 1) in
  let w2 = Replay.render (replay_fixture 2) in
  let w8 = Replay.render (replay_fixture 8) in
  check_str "workers 1 = 2" w1 w2;
  check_str "workers 1 = 8" w1 w8

let test_fixture_replay_structure () =
  let replies = replay_fixture 1 in
  check_int "one reply per send" 12 (List.length replies);
  let streams = Replay.streams replies in
  check_int "three sessions" 3 (List.length streams);
  let stream sid = List.assoc sid streams in
  (* Session 1's first line answers the pre-handshake solve with the
     typed hello-required refusal. *)
  (match Protocol.decode_control_reply (List.hd (stream 1)) with
  | Ok (Protocol.Refused Protocol.Hello_required) -> ()
  | _ -> Alcotest.fail "expected a hello-required refusal");
  (* Session 0's solves carry per-session indices 0..3. *)
  let indices =
    List.filter_map
      (fun line ->
        match Protocol.decode_response line with
        | Ok r -> Some r.Protocol.r_index
        | Error _ -> None)
      (stream 0)
  in
  check_bool "per-session indices" true
    (List.for_all2 ( = ) indices [ 0; 1; 2; 3 ]);
  (* The duplicate instance across sessions is served from the cache,
     and the processor-permuted duplicate hits symmetrically. *)
  let cache_of line =
    match Protocol.decode_response line with
    | Ok r -> r.Protocol.r_cache
    | Error _ -> Alcotest.fail "undecodable response"
  in
  (match cache_of (List.nth (stream 1) 2) with
  | Protocol.Hit -> ()
  | Protocol.Miss -> Alcotest.fail "b-0 should be a cache hit");
  match cache_of (List.nth (stream 0) 2) with
  | Protocol.Hit -> ()
  | Protocol.Miss -> Alcotest.fail "permuted a-1 should hit symmetrically"

(* ------------------------------------------------------------------ *)
(* Live server                                                         *)
(* ------------------------------------------------------------------ *)

let with_server ?(record = true) f =
  let dir = Filename.temp_file "relpipe-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s.sock" in
  let record_path = Filename.concat dir "rec.session" in
  let engine = Engine.create ~workers:2 ~cap_to_cpus:false ~cache_shards:4 () in
  let config =
    {
      Server.default_config with
      Server.endpoints = [ Server.Unix_sock sock ];
      record = (if record then Some record_path else None);
    }
  in
  let ready = Atomic.make false in
  let report = ref None in
  let srv =
    Thread.create
      (fun () ->
        report :=
          Some
            (Server.run ~engine ~config
               ~on_ready:(fun _ -> Atomic.set ready true)
               ()))
      ()
  in
  while not (Atomic.get ready) do
    Thread.yield ()
  done;
  let finally () =
    (* Make sure a failing assertion cannot leave the daemon running. *)
    Server.signal_drain ();
    Thread.join srv;
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ sock; record_path ];
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally (fun () ->
      f ~sock ~record_path;
      Server.signal_drain ();
      Thread.join srv;
      match !report with
      | Some r -> r
      | None -> Alcotest.fail "server did not report")

let recv_exn c =
  match Client.recv c with
  | Some l -> l
  | None -> Alcotest.fail "unexpected EOF from server"

let test_live_two_clients_record_replay () =
  let live_streams = ref [] in
  let report =
    with_server (fun ~sock ~record_path ->
        let c1 = Client.connect (`Unix sock) in
        let c2 = Client.connect (`Unix sock) in
        let h1 = Option.get (Client.call c1 (hello_line "t1")) in
        let h2 = Option.get (Client.call c2 (hello_line "t2")) in
        check_str "hello reply" {|{"v":1,"op":"hello","ok":true,"protocol":1}|}
          h1;
        (* Interleaved solves across the two sessions. *)
        Client.send c1 (solve_line "a-0");
        Client.send c2 (solve_line "b-0");
        Client.send c1 (solve_line "a-1");
        let a0 = recv_exn c1 in
        let b0 = recv_exn c2 in
        let a1 = recv_exn c1 in
        let idx line =
          match Protocol.decode_response line with
          | Ok r -> r.Protocol.r_index
          | Error e -> Alcotest.failf "response: %s" e
        in
        check_int "a-0 is session index 0" 0 (idx a0);
        check_int "a-1 is session index 1" 1 (idx a1);
        check_int "b-0 is session index 0" 0 (idx b0);
        let sd =
          Option.get (Client.call c2 (Protocol.encode_control Protocol.Shutdown))
        in
        check_str "shutdown reply"
          {|{"v":1,"op":"shutdown","ok":true,"draining":true}|} sd;
        Client.finish_sending c1;
        Client.finish_sending c2;
        check_bool "c1 drains to EOF" true (Option.is_none (Client.recv c1));
        check_bool "c2 drains to EOF" true (Option.is_none (Client.recv c2));
        Client.close c1;
        Client.close c2;
        live_streams := [ (0, [ h1; a0; a1 ]); (1, [ h2; b0; sd ]) ];
        (* Replay the recording through a fresh engine with the same
           shape: the per-session streams must be byte-identical to
           what the clients just received, whatever tick interleaving
           the live run happened to form. *)
        match Script.load record_path with
        | Error e -> Alcotest.failf "recording: %s" e
        | Ok script ->
            let engine =
              Engine.create ~workers:2 ~cap_to_cpus:false ~cache_shards:4 ()
            in
            let streams = Replay.streams (Replay.run ~engine script) in
            check_str "session 0 replays to the live bytes"
              (String.concat "\n" [ h1; a0; a1 ])
              (String.concat "\n" (List.assoc 0 streams));
            check_str "session 1 replays to the live bytes"
              (String.concat "\n" [ h2; b0; sd ])
              (String.concat "\n" (List.assoc 1 streams)))
  in
  check_int "two sessions accepted" 2 report.Server.accepted;
  check_int "six replies" 6 report.Server.answered;
  ignore !live_streams

let test_sigterm_drain_answers_every_admitted_request () =
  let got = ref [] in
  let admitted = ref 0 in
  let report =
    with_server (fun ~sock ~record_path ->
        let c = Client.connect (`Unix sock) in
        let h = Option.get (Client.call c (hello_line "drain")) in
        check_str "hello before drain"
          {|{"v":1,"op":"hello","ok":true,"protocol":1}|} h;
        for i = 0 to 7 do
          Client.send c (solve_line (Printf.sprintf "d-%d" i))
        done;
        Client.finish_sending c;
        (* The SIGTERM handler's exact body: atomic flag + wake-up
           byte.  Everything admitted before the reader saw the drain
           must still be answered before the server exits. *)
        Server.signal_drain ();
        let rec pump acc =
          match Client.recv c with
          | None -> List.rev acc
          | Some l -> pump (l :: acc)
        in
        got := pump [];
        Client.close c;
        match Script.load record_path with
        | Error e -> Alcotest.failf "recording: %s" e
        | Ok script ->
            admitted :=
              List.length
                (List.filter
                   (fun ev ->
                     match (ev : Script.event) with
                     | Script.Send _ -> true
                     | Script.Open _ | Script.Close _ -> false)
                   (Script.events script)))
  in
  (* One admitted line (hello included) = one reply, none lost. *)
  check_int "every admitted request answered" !admitted
    (1 + List.length !got);
  check_int "report agrees" !admitted report.Server.answered

(* ------------------------------------------------------------------ *)
(* CLI: batch -o sink failures (regression)                            *)
(* ------------------------------------------------------------------ *)

let with_request_file f =
  let path = Filename.temp_file "relpipe-serve-req" ".jsonl" in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (solve_line "r-0");
      Out_channel.output_char oc '\n');
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_batch_output_unwritable_path () =
  with_request_file (fun req ->
      let code, _, err =
        Helpers.run_cli [ "batch"; req; "-o"; "/nonexistent-dir/out.jsonl" ]
      in
      check_bool "exits non-zero" true (code <> 0);
      check_bool "names the path" true
        (Helpers.contains ~needle:"/nonexistent-dir/out.jsonl" err))

let test_batch_output_enospc () =
  (* /dev/full answers every write with ENOSPC — the classic truncated
     sink.  Skip quietly where the device does not exist. *)
  if Sys.file_exists "/dev/full" then
    with_request_file (fun req ->
        let code, _, err =
          Helpers.run_cli [ "batch"; req; "-o"; "/dev/full" ]
        in
        check_bool "exits non-zero" true (code <> 0);
        check_bool "names the path" true
          (Helpers.contains ~needle:"/dev/full" err))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "lru-sharded",
        [
          Helpers.seed_property ~count:100 "matches plain cache at shards=1"
            (prop_sharded_matches_model 1);
          Helpers.seed_property ~count:100 "matches per-shard model at shards=4"
            (prop_sharded_matches_model 4);
          test "create_in registers shared counters"
            test_sharded_create_in_registers;
          test "rejects shards=0" test_sharded_invalid_shards;
        ] );
      ( "protocol",
        [
          test "control messages encode to pinned bytes"
            test_control_encode_bytes;
          test "control replies encode to pinned bytes"
            test_control_reply_bytes;
          test "control replies round-trip" test_control_reply_roundtrip;
          test "stats objects are the --metrics lines without buckets"
            test_stats_reply_matches_metrics_lines;
          test "inbound classification" test_decode_inbound;
          test "inbound solve lines decode like decode_request"
            test_inbound_matches_decode_request;
        ] );
      ( "script",
        [
          test "fixture parses and round-trips" test_script_roundtrip;
          test "parse errors name the line" test_script_errors;
        ] );
      ( "admission",
        [
          test "fifo, close, leftovers" test_admission_fifo_and_close;
          test "bounded queue exerts backpressure" test_admission_backpressure;
        ] );
      ( "frame",
        [
          test "line framing round-trip" test_frame_roundtrip;
          test "oversized line trips the guard" test_frame_too_long;
        ] );
      ( "replay",
        [
          test "fixture byte-identical at workers 1/2/8"
            test_fixture_replay_identical_across_workers;
          test "fixture reply structure" test_fixture_replay_structure;
        ] );
      ( "server",
        [
          test "two interleaved clients; recording replays to live bytes"
            test_live_two_clients_record_replay;
          test "drain answers every admitted request"
            test_sigterm_drain_answers_every_admitted_request;
        ] );
      ( "cli",
        [
          test "batch -o unwritable path" test_batch_output_unwritable_path;
          test "batch -o ENOSPC sink" test_batch_output_enospc;
        ] );
    ]
