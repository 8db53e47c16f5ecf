(* Tests for the relpipe.service batch engine: the LRU cache, the JSON
   codec, the request/response protocol, canonicalization (keys, platform
   symmetries, quantization), the Domain pool, and the engine's headline
   guarantee — byte-identical responses for every worker count. *)

open Relpipe_model
open Relpipe_service
module Json = Relpipe_obs.Json
module Pool = Relpipe_pool.Pool
module Rng = Relpipe_util.Rng
module Lru = Relpipe_util.Lru

let test = Helpers.test

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* Touch "a" so "b" becomes the LRU entry. *)
  (match Lru.find c "a" with
  | Some 1 -> ()
  | _ -> Alcotest.fail "expected a=1");
  Lru.add c "c" 3;
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check bool) "a survives" true (Lru.mem c "a");
  Alcotest.(check bool) "c present" true (Lru.mem c "c");
  check_int "length" 2 (Lru.length c);
  let s = Lru.stats c in
  check_int "hits" 1 s.Lru.hits;
  check_int "evictions" 1 s.Lru.evictions

let test_lru_counters () =
  let c = Lru.create ~capacity:4 in
  ignore (Lru.find c "missing");
  Lru.add c "k" 0;
  ignore (Lru.find c "k");
  ignore (Lru.find c "k");
  let s = Lru.stats c in
  check_int "hits" 2 s.Lru.hits;
  check_int "misses" 1 s.Lru.misses;
  (* [mem] must not perturb the counters. *)
  ignore (Lru.mem c "k");
  ignore (Lru.mem c "missing");
  let s' = Lru.stats c in
  check_int "hits unchanged" s.Lru.hits s'.Lru.hits;
  check_int "misses unchanged" s.Lru.misses s'.Lru.misses

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* Replacing "a" refreshes it; adding "c" must then evict "b". *)
  Lru.add c "a" 10;
  Lru.add c "c" 3;
  (match Lru.find c "a" with
  | Some 10 -> ()
  | _ -> Alcotest.fail "replace lost the new value");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  check_int "length stays at capacity" 2 (Lru.length c)

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  check_int "nothing stored" 0 (Lru.length c);
  Alcotest.(check bool) "no hit" true (Option.is_none (Lru.find c "a"))

let test_lru_clear () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.clear c;
  check_int "empty" 0 (Lru.length c);
  Lru.add c "c" 3;
  (match Lru.find c "c" with
  | Some 3 -> ()
  | _ -> Alcotest.fail "usable after clear")

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_round_trip v =
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error e -> Alcotest.failf "re-parse failed: %s" e

let test_json_round_trip () =
  json_round_trip
    (Json.Obj
       [
         ("s", Json.Str "a\"b\\c\nd\te\xc3\xa9");
         ("i", Json.Int (-42));
         ("f", Json.Float 3.0625);
         ("big", Json.Float 1.2345678901234567e300);
         ("b", Json.Bool true);
         ("n", Json.Null);
         ("l", Json.List [ Json.Int 1; Json.Str ""; Json.Obj [] ]);
       ])

let test_json_unicode () =
  (* \u00e9 is é; \ud83d\ude00 is a surrogate pair (U+1F600). *)
  match Json.parse {|"caf\u00e9 \uD83D\uDE00"|} with
  | Ok (Json.Str s) -> check_str "utf-8" "caf\xc3\xa9 \xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_malformed () =
  List.iter
    (fun input ->
      match Json.parse input with
      | Ok _ -> Alcotest.failf "accepted malformed %S" input
      | Error e ->
          Alcotest.(check bool)
            "error cites an offset" true
            (String.length e >= 7 && String.sub e 0 7 = "offset "))
    [
      "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"\\q\""; "nul"; ""; "{\"a\" 1}";
      (* RFC 8259 sections 6 and 7: no leading zero, a digit after every
         point, no raw byte 0x00-0x1f inside a string *)
      "007"; "-01"; "01.5"; "[0,00]"; "1."; "1.e5"; "-1.]"; "\"a\tb\"";
      "\"a\nb\""; "\"\000\""; "{\"k\x1f\":1}";
    ]

(* The strict parser still takes every RFC 8259 number form. *)
let test_json_number_forms () =
  List.iter
    (fun (input, expected) ->
      match Json.parse input with
      | Ok j -> check_str input expected (Json.to_string j)
      | Error e -> Alcotest.failf "refused %S: %s" input e)
    [
      ("0", "0"); ("-0", "-0.0"); ("10", "10"); ("0.5", "0.5");
      ("-2.5e-1", "-0.25"); ("1E+2", "100.0"); ("0e0", "0.0");
    ]

let test_json_non_finite () =
  let back x =
    match Json.parse (Json.to_string (Json.float x)) with
    | Ok v -> Json.to_float v
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  (match back infinity with
  | Some f when Float.equal f infinity -> ()
  | _ -> Alcotest.fail "inf round trip");
  (match back neg_infinity with
  | Some f when Float.equal f neg_infinity -> ()
  | _ -> Alcotest.fail "-inf round trip");
  match back nan with
  | Some f when Float.is_nan f -> ()
  | _ -> Alcotest.fail "nan round trip"

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let random_instance_text seed =
  let rng = Rng.create seed in
  Textio.to_string (Helpers.random_fully_hetero rng ~n:(2 + Rng.int rng 3) ~m:3)

let random_request seed =
  let rng = Rng.create (seed + 7919) in
  let objective =
    if Rng.bool rng then
      Instance.Min_failure { max_latency = Rng.float_range rng 1.0 100.0 }
    else Instance.Min_latency { max_failure = Rng.float_range rng 0.01 0.9 }
  in
  let methods = List.map snd Protocol.method_names in
  let method_ = List.nth methods (Rng.int rng (List.length methods)) in
  let id = if Rng.bool rng then Some (Printf.sprintf "req-%d" seed) else None in
  let budget = if Rng.bool rng then Some (100 + Rng.int rng 1000) else None in
  let instance =
    if Rng.bool rng then Protocol.Inline (random_instance_text seed)
    else Protocol.File "fixtures/some-instance.relpipe"
  in
  { Protocol.id; instance; objective; method_; budget }

let prop_request_round_trip seed =
  let r = random_request seed in
  match Protocol.decode_request (Protocol.encode_request r) with
  | Ok r' -> r = r'
  | Error e -> Alcotest.failf "decode failed: %s" e

let prop_response_round_trip seed =
  let rng = Rng.create (seed + 104729) in
  let r_outcome =
    match Rng.int rng 3 with
    | 0 ->
        Protocol.Solved
          {
            mapping = "1-2:0,1; 3:2";
            latency = Rng.float_range rng 0.1 100.0;
            failure = Rng.float_range rng 0.0 1.0;
          }
    | 1 -> Protocol.Infeasible
    | _ -> Protocol.Failed "some \"quoted\" message"
  in
  let r =
    {
      Protocol.r_id = (if Rng.bool rng then Some "x" else None);
      r_index = Rng.int rng 1000;
      r_cache = (if Rng.bool rng then Protocol.Hit else Protocol.Miss);
      r_outcome;
    }
  in
  match Protocol.decode_response (Protocol.encode_response r) with
  | Ok r' -> r = r'
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_protocol_malformed () =
  List.iter
    (fun line ->
      match Protocol.decode_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request %S" line)
    [
      "not json at all";
      "{}";
      {|{"v":2,"instance":"x","objective":{"minimize":"failure","max_latency":1}}|};
      {|{"v":1,"objective":{"minimize":"failure","max_latency":1}}|};
      {|{"v":1,"instance":"x"}|};
      {|{"v":1,"instance":"x","objective":{"minimize":"both"}}|};
      {|{"v":1,"instance":"x","objective":{"minimize":"failure","max_latency":1},"method":"quantum"}|};
      {|{"v":1,"instance":"x","instance_file":"y","objective":{"minimize":"failure","max_latency":1}}|};
      (* not JSON: a leading zero, a bare point, a raw tab in a string *)
      {|{"v":1,"instance":"x","objective":{"minimize":"failure","max_latency":1},"budget":007}|};
      {|{"v":1,"instance":"x","objective":{"minimize":"failure","max_latency":1.}}|};
      "{\"v\":1,\"instance\":\"x\ty\",\"objective\":{\"minimize\":\"failure\",\"max_latency\":1}}";
    ]

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)
(* ------------------------------------------------------------------ *)

let key_of inst objective =
  (Canon.normalize ~budget:1000 ~method_:Relpipe_core.Solver.Auto inst objective)
    .Canon.key

let test_canon_stable () =
  let rng = Rng.create 11 in
  let inst = Helpers.random_comm_homog rng ~n:4 ~m:3 in
  let objective = Instance.Min_failure { max_latency = 50.0 } in
  check_str "same instance, same key" (key_of inst objective)
    (key_of inst objective);
  (* A text round trip must not move the key either. *)
  match Textio.parse (Textio.to_string inst) with
  | Ok inst' ->
      check_str "text round trip keeps the key" (key_of inst objective)
        (key_of inst' objective)
  | Error e -> Alcotest.failf "round trip failed: %s" e

let permute_platform perm platform =
  (* New processor [i] is old processor [perm.(i)]. *)
  let speeds = Platform.speeds platform and failures = Platform.failures platform in
  let m = Array.length speeds in
  Platform.make
    ~speeds:(Array.init m (fun i -> speeds.(perm.(i))))
    ~failures:(Array.init m (fun i -> failures.(perm.(i))))
    ~bandwidth:(fun a b ->
      let back = function
        | Platform.Proc u -> Platform.Proc perm.(u)
        | e -> e
      in
      Platform.bandwidth platform (back a) (back b))

let test_canon_symmetry () =
  (* On a link-homogeneous platform, renumbering processors must not change
     the key, and the cached mapping must translate to an equally good one. *)
  let rng = Rng.create 23 in
  let inst = Helpers.random_comm_homog rng ~n:4 ~m:3 in
  let perm = [| 2; 0; 1 |] in
  let inst' =
    Instance.make inst.Instance.pipeline
      (permute_platform perm inst.Instance.platform)
  in
  let objective = Instance.Min_failure { max_latency = 1e6 } in
  check_str "permuted platform, same key" (key_of inst objective)
    (key_of inst' objective);
  let norm = Canon.normalize ~budget:1000 ~method_:Relpipe_core.Solver.Auto inst objective in
  let norm' = Canon.normalize ~budget:1000 ~method_:Relpipe_core.Solver.Auto inst' objective in
  match Relpipe_core.Exact.solve inst objective with
  | None -> Alcotest.fail "expected a solution"
  | Some sol ->
      let translated =
        Canon.translate ~from_perm:norm.Canon.perm ~to_perm:norm'.Canon.perm
          ~n:4 ~m:3 sol.Relpipe_core.Solution.mapping
      in
      let ev = Instance.evaluate inst' translated in
      let ev0 = sol.Relpipe_core.Solution.evaluation in
      Helpers.check_close "translated failure" ev0.Instance.failure
        ev.Instance.failure;
      Helpers.check_close "translated latency" ev0.Instance.latency
        ev.Instance.latency

let test_canon_hetero_no_symmetry () =
  (* A fully heterogeneous platform's bandwidth matrix pins the processor
     order: renumbering is a different platform, hence a different key. *)
  let rng = Rng.create 37 in
  let inst = Helpers.random_fully_hetero rng ~n:4 ~m:3 in
  let inst' =
    Instance.make inst.Instance.pipeline
      (permute_platform [| 2; 0; 1 |] inst.Instance.platform)
  in
  let objective = Instance.Min_failure { max_latency = 50.0 } in
  Alcotest.(check bool)
    "different keys" false
    (String.equal (key_of inst objective) (key_of inst' objective))

let test_canon_quantization () =
  let rng = Rng.create 41 in
  let inst = Helpers.random_comm_homog rng ~n:4 ~m:3 in
  let key l = key_of inst (Instance.Min_failure { max_latency = l }) in
  let l = 50.0 in
  check_str "noise below 12 digits collapses" (key l) (key (l *. (1.0 +. 1e-14)));
  Alcotest.(check bool)
    "real differences survive" false
    (String.equal (key l) (key (l *. (1.0 +. 1e-6))))

let test_canon_separates_inputs () =
  let rng = Rng.create 43 in
  let inst = Helpers.random_comm_homog rng ~n:4 ~m:3 in
  let o1 = Instance.Min_failure { max_latency = 50.0 } in
  let o2 = Instance.Min_latency { max_failure = 0.5 } in
  Alcotest.(check bool)
    "objective in the key" false
    (String.equal (key_of inst o1) (key_of inst o2));
  let k m =
    (Canon.normalize ~budget:1000 ~method_:m inst o1).Canon.key
  in
  Alcotest.(check bool)
    "method in the key" false
    (String.equal
       (k Relpipe_core.Solver.Auto)
       (k Relpipe_core.Solver.Portfolio))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  let jobs = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f jobs in
  List.iter
    (fun workers ->
      let got, stats = Pool.map ~workers f jobs in
      Alcotest.(check (array int))
        (Printf.sprintf "workers=%d" workers)
        expected got;
      check_int "all jobs ran" 100 stats.Pool.jobs)
    [ 1; 2; 8 ]

let test_pool_empty () =
  let got, stats = Pool.map ~workers:4 (fun x -> x) [||] in
  check_int "no results" 0 (Array.length got);
  check_int "no jobs" 0 stats.Pool.jobs

let test_pool_exception () =
  match
    Pool.map ~workers:3 (fun x -> if x = 5 then failwith "boom" else x)
      (Array.init 10 (fun i -> i))
  with
  | exception Failure msg -> check_str "original exception" "boom" msg
  | _ -> Alcotest.fail "expected the job's exception to propagate"

let test_pool_effective_workers () =
  let cpus = Pool.cpu_count () in
  check_int "capped" (min 8 cpus) (Pool.effective_workers 8);
  check_int "uncapped" 8 (Pool.effective_workers ~cap:false 8);
  check_int "lower bound" 1 (Pool.effective_workers 0);
  check_int "lower bound uncapped" 1 (Pool.effective_workers ~cap:false (-3))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let batch_lines () =
  (* A deliberately mixed batch: distinct instances, an exact duplicate, a
     processor-renumbered twin (symmetric cache hit), an infeasible
     objective, and a malformed line. *)
  let rng = Rng.create 97 in
  let ch = Helpers.random_comm_homog rng ~n:4 ~m:3 in
  let ch_renumbered =
    Instance.make ch.Instance.pipeline
      (permute_platform [| 1; 2; 0 |] ch.Instance.platform)
  in
  let fh = Helpers.random_fully_hetero rng ~n:3 ~m:3 in
  let req ?id ?method_ inst objective =
    Protocol.encode_request
      (Protocol.request ?id ?method_
         ~instance:(Protocol.Inline (Textio.to_string inst))
         objective)
  in
  let loose = Instance.Min_failure { max_latency = 1e6 } in
  [
    req ~id:"ch" ch loose;
    req ~id:"fh" fh loose;
    "this is not json";
    req ~id:"ch-dup" ch loose;
    req ~id:"ch-renumbered" ch_renumbered loose;
    req ~id:"infeasible" fh (Instance.Min_failure { max_latency = 1e-9 });
    req ~id:"fh-portfolio" ~method_:Relpipe_core.Solver.Portfolio fh loose;
  ]

let test_engine_deterministic_across_workers () =
  let lines = batch_lines () in
  let run workers =
    Engine.run_lines
      (Engine.create ~workers ~cap_to_cpus:false ())
      lines
  in
  let reference = run 1 in
  check_int "one response per request" 7 (List.length reference);
  List.iter
    (fun workers ->
      Alcotest.(check (list string))
        (Printf.sprintf "workers=%d matches workers=1" workers)
        reference (run workers))
    [ 2; 8 ]

let test_engine_batch_semantics () =
  let engine = Engine.create ~workers:2 ~cap_to_cpus:false () in
  let responses =
    List.map
      (fun line ->
        match Protocol.decode_response line with
        | Ok r -> r
        | Error e -> Alcotest.failf "undecodable response %S: %s" line e)
      (Engine.run_lines engine (batch_lines ()))
  in
  let nth i = List.nth responses i in
  (* Submission order is preserved. *)
  List.iteri (fun i r -> check_int "index" i r.Protocol.r_index) responses;
  (match (nth 2).Protocol.r_outcome with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "malformed line must fail, not crash");
  (match (nth 5).Protocol.r_outcome with
  | Protocol.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  (* The duplicate and the renumbered twin ride on request 0's solve. *)
  (match ((nth 3).Protocol.r_cache, (nth 4).Protocol.r_cache) with
  | Protocol.Hit, Protocol.Hit -> ()
  | _ -> Alcotest.fail "duplicate and symmetric twin must be cache hits");
  (match ((nth 0).Protocol.r_outcome, (nth 3).Protocol.r_outcome) with
  | ( Protocol.Solved { mapping = m0; latency = l0; _ },
      Protocol.Solved { mapping = m3; latency = l3; _ } ) ->
      check_str "duplicate gets the identical mapping" m0 m3;
      Alcotest.(check bool) "identical latency" true (l0 = l3)
  | _ -> Alcotest.fail "expected both solved");
  (match ((nth 0).Protocol.r_outcome, (nth 4).Protocol.r_outcome) with
  | ( Protocol.Solved { failure = f0; _ },
      Protocol.Solved { failure = f4; _ } ) ->
      (* Same canonical problem: equally good, indices may differ. *)
      Helpers.check_close "renumbered twin failure" f0 f4
  | _ -> Alcotest.fail "expected both solved");
  let s = Engine.stats engine in
  check_int "requests" 7 s.Engine.requests;
  (* 7 lines: 1 malformed, ch + dup + renumbered share one job. *)
  check_int "solver runs" 4 s.Engine.jobs;
  Alcotest.(check bool) "nonzero hit rate" true (Engine.hit_rate s > 0.0)

let test_engine_cache_across_batches () =
  let engine = Engine.create ~workers:1 () in
  let lines = batch_lines () in
  let first = Engine.run_lines engine lines in
  let jobs_after_first = (Engine.stats engine).Engine.jobs in
  let second = Engine.run_lines engine lines in
  check_int "no new solver runs" jobs_after_first
    (Engine.stats engine).Engine.jobs;
  (* Outcomes are identical; only the cache tag flips to "hit". *)
  List.iter2
    (fun a b ->
      match (Protocol.decode_response a, Protocol.decode_response b) with
      | Ok ra, Ok rb ->
          Alcotest.(check bool)
            "same outcome" true
            (ra.Protocol.r_outcome = rb.Protocol.r_outcome)
      | _ -> Alcotest.fail "undecodable response")
    first second;
  (* Every request that reached the solver is a hit the second time; only
     the malformed line (index 2, never cached) stays a miss. *)
  List.iter
    (fun line ->
      match Protocol.decode_response line with
      | Ok r -> (
          match (r.Protocol.r_cache, r.Protocol.r_index) with
          | Protocol.Hit, _ | Protocol.Miss, 2 -> ()
          | Protocol.Miss, i ->
              Alcotest.failf "request %d missed in the second batch" i)
      | Error e -> Alcotest.failf "undecodable: %s" e)
    second

let test_engine_eviction () =
  let engine = Engine.create ~workers:1 ~cache_capacity:1 () in
  let rng = Rng.create 53 in
  let a = Helpers.random_comm_homog rng ~n:3 ~m:2 in
  let b = Helpers.random_comm_homog rng ~n:3 ~m:2 in
  let loose = Instance.Min_failure { max_latency = 1e6 } in
  let solve inst = ignore (Engine.solve_instance engine inst loose) in
  solve a;
  solve b;
  (* "a" was evicted by "b", so it must be solved again. *)
  solve a;
  let s = Engine.stats engine in
  check_int "three solver runs" 3 s.Engine.jobs;
  Alcotest.(check bool)
    "evictions counted" true
    (s.Engine.cache.Lru.evictions >= 1);
  check_int "cache bounded" 1 s.Engine.cache_len

let test_engine_instance_file () =
  let engine = Engine.create ~workers:1 () in
  let path = Filename.concat "fixtures" "service-fig5.relpipe" in
  let req =
    Protocol.request ~id:"from-file" ~instance:(Protocol.File path)
      (Instance.Min_failure { max_latency = 1e6 })
  in
  let missing =
    Protocol.request ~id:"missing" ~instance:(Protocol.File "no/such/file")
      (Instance.Min_failure { max_latency = 1e6 })
  in
  let rs = Engine.run_requests engine [| req; missing |] in
  (match rs.(0).Protocol.r_outcome with
  | Protocol.Solved _ -> ()
  | _ -> Alcotest.fail "file-sourced request must solve");
  match rs.(1).Protocol.r_outcome with
  | Protocol.Failed _ -> ()
  | _ -> Alcotest.fail "missing file must fail per-request"

(* A request's "budget" enters its cache key, so the exact solver must
   enforce it too: an exact request over its budget is refused with the
   solver's Too_large error, and the same request with room is solved. *)
let test_engine_exact_budget () =
  let engine = Engine.create ~workers:1 () in
  let inst = Helpers.random_fully_hetero (Rng.create 61) ~n:3 ~m:3 in
  let mappings = Relpipe_core.Exact.count_mappings ~n:3 ~m:3 () in
  let loose = Instance.Min_failure { max_latency = 1e6 } in
  let outcome budget =
    let line =
      Protocol.encode_request
        (Protocol.request ~id:"exact" ~budget
           ~method_:Relpipe_core.Solver.Exact_enum
           ~instance:(Protocol.Inline (Textio.to_string inst))
           loose)
    in
    match Engine.run_lines engine [ line ] with
    | [ reply ] -> (
        match Protocol.decode_response reply with
        | Ok r -> r.Protocol.r_outcome
        | Error e -> Alcotest.failf "undecodable response %S: %s" reply e)
    | _ -> Alcotest.fail "expected one response"
  in
  (match
     Relpipe_core.Solver.run ~method_:Relpipe_core.Solver.Exact_enum
       ~exact_budget:(mappings - 1) inst loose
   with
  | Error (Relpipe_core.Solver.Too_large _ as e) -> (
      match outcome (mappings - 1) with
      | Protocol.Failed msg ->
          check_str "refused as too large"
            (Relpipe_core.Solver.error_to_string e)
            msg
      | _ -> Alcotest.fail "an exact request over its budget must be refused")
  | _ -> Alcotest.fail "Solver.run must refuse an exact solve over budget");
  match outcome mappings with
  | Protocol.Solved _ -> ()
  | _ -> Alcotest.fail "an exact request within its budget must be solved"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "lru",
        [
          test "eviction order" test_lru_eviction_order;
          test "hit/miss counters" test_lru_counters;
          test "replace refreshes" test_lru_replace;
          test "capacity 0 disables" test_lru_disabled;
          test "clear" test_lru_clear;
        ] );
      ( "json",
        [
          test "round trip" test_json_round_trip;
          test "unicode escapes" test_json_unicode;
          test "malformed inputs" test_json_malformed;
          test "every RFC 8259 number form parses" test_json_number_forms;
          test "non-finite floats" test_json_non_finite;
        ] );
      ( "protocol",
        [
          Helpers.seed_property ~count:60 "request round trip"
            prop_request_round_trip;
          Helpers.seed_property ~count:60 "response round trip"
            prop_response_round_trip;
          test "malformed requests rejected" test_protocol_malformed;
        ] );
      ( "canon",
        [
          test "stable keys" test_canon_stable;
          test "link-homogeneous symmetry" test_canon_symmetry;
          test "fully-hetero breaks symmetry" test_canon_hetero_no_symmetry;
          test "quantization" test_canon_quantization;
          test "objective and method in key" test_canon_separates_inputs;
        ] );
      ( "pool",
        [
          test "matches sequential map" test_pool_matches_sequential;
          test "empty job array" test_pool_empty;
          test "exception propagation" test_pool_exception;
          test "effective workers" test_pool_effective_workers;
        ] );
      ( "engine",
        [
          test "deterministic across worker counts"
            test_engine_deterministic_across_workers;
          test "batch semantics" test_engine_batch_semantics;
          test "cache across batches" test_engine_cache_across_batches;
          test "lru eviction bounds the cache" test_engine_eviction;
          test "instance_file sources" test_engine_instance_file;
          test "exact requests honour their budget" test_engine_exact_budget;
        ] );
    ]
