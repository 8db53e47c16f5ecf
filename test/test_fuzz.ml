(* The fuzzing harness itself: registry stability, campaign determinism
   (across runs and worker counts), fault injection through the shrinker,
   exhaustive corpus replay, and the exposed single checks (JSON float
   round-trips, Lru model checking) as fixed-seed unit tests. *)

module Fuzz = Relpipe_fuzz
module Rng = Relpipe_util.Rng

let test = Helpers.test

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* The --list-oracles output is part of the CLI surface: scripts select
   oracles by these names, so the listing is pinned byte-for-byte. *)
let expected_listing =
  "interval-dp            exact interval DP matches brute-force interval \
   enumeration (small n, m)\n\
   general-shortest-path  general-mapping solvers agree and lower-bound the \
   interval optimum\n\
   heuristics-pareto      heuristics are feasible, consistent and dominated \
   by the exhaustive Pareto front\n\
   validate-lint          solver outputs pass Validate.check and lint with \
   zero errors\n\
   canon-invariance       processor renumbering: same cache key, engine \
   cache hit, translated mapping\n\
   text-roundtrip         Textio/Mapping_syntax/Protocol print->parse \
   round-trips are byte-identical\n\
   json-floats            JSON float round-trips are bit-identical on \
   adversarial values\n\
   lru                    Util.Lru matches a reference model at capacities \
   0, 1 and k\n\
   metrics-invariance     metrics and tracing sinks never change solver or \
   engine responses\n\
   opt-vs-reference       optimized solver kernels are bit-identical to \
   their frozen reference twins\n\
   churn-incremental      warm-started churn re-solves are byte-identical \
   to cold solves at every event\n\
   par-exact-identity     parallel B&B and stage-parallel DP are \
   bit-identical to serial at workers 1/2/8\n\
   cert-replay            emitted certificates pass the independent checker; \
   raised-bound and dropped-line mutants are rejected\n\
   stream-aggregation     streamed atlas aggregates equal the \
   batch-materialized reference: counters bit-for-bit, sketches within rank \
   tolerance\n"

let registry_tests =
  [
    test "list-oracles is byte-stable" (fun () ->
        Alcotest.(check string)
          "listing" expected_listing
          (Fuzz.Runner.list_oracles_text ()));
    test "find resolves every registered name" (fun () ->
        List.iter
          (fun name ->
            match Fuzz.Oracles.find name with
            | Some o -> Alcotest.(check string) "name" name o.Fuzz.Oracle.name
            | None -> Alcotest.failf "oracle %s not found" name)
          (Fuzz.Oracles.names ());
        Alcotest.(check bool)
          "unknown name" true
          (Option.is_none (Fuzz.Oracles.find "no-such-oracle")));
    test "salts are distinct" (fun () ->
        let salts = List.map (fun o -> o.Fuzz.Oracle.salt) (Fuzz.Oracles.all ()) in
        Alcotest.(check int)
          "distinct" (List.length salts)
          (List.length (List.sort_uniq Int.compare salts)));
  ]

(* ------------------------------------------------------------------ *)
(* Campaign determinism                                                *)
(* ------------------------------------------------------------------ *)

let campaign ?(seed = 4242) ?(count = 25) ?(workers = 1) () =
  Fuzz.Runner.run
    { Fuzz.Runner.default_config with Fuzz.Runner.seed; count; workers }

let determinism_tests =
  [
    test "same seed, same report" (fun () ->
        let a = Fuzz.Runner.render (campaign ())
        and b = Fuzz.Runner.render (campaign ()) in
        Alcotest.(check string) "render" a b);
    test "report is worker-count independent" (fun () ->
        let a = Fuzz.Runner.render (campaign ~workers:1 ())
        and b = Fuzz.Runner.render (campaign ~workers:3 ()) in
        Alcotest.(check string) "render" a b);
    test "clean campaign has no failures" (fun () ->
        let report = campaign ~seed:977 ~count:40 () in
        Alcotest.(check int)
          "failures" 0
          (List.length report.Fuzz.Runner.r_failures);
        List.iter
          (fun t ->
            Alcotest.(check int) (t.Fuzz.Runner.t_oracle ^ " fail") 0
              t.Fuzz.Runner.t_fail;
            Alcotest.(check int)
              (t.Fuzz.Runner.t_oracle ^ " total")
              40
              (t.Fuzz.Runner.t_pass + t.Fuzz.Runner.t_skip))
          report.Fuzz.Runner.r_tallies);
  ]

(* ------------------------------------------------------------------ *)
(* Fault injection: perturbed DP -> minimized repro -> replay          *)
(* ------------------------------------------------------------------ *)

let injection_tests =
  [
    test "perturbed interval DP fails, shrinks, and replays" (fun () ->
        let out_dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "relpipe-fuzz-test-%d" (Unix.getpid ()))
        in
        let interval_dp = Option.get (Fuzz.Oracles.find "interval-dp") in
        let report =
          Fuzz.Runner.run
            {
              Fuzz.Runner.default_config with
              Fuzz.Runner.seed = 42;
              count = 2;
              oracles = [ interval_dp ];
              perturb = 0.05;
              out_dir = Some out_dir;
            }
        in
        Alcotest.(check bool)
          "at least one failure" true
          (report.Fuzz.Runner.r_failures <> []);
        List.iter
          (fun f ->
            (* The injected fault survives any instance, so shrinking must
               reach the 1-stage / 1-processor floor. *)
            let inst = f.Fuzz.Runner.f_minimized.Fuzz.Gen.instance in
            Alcotest.(check int)
              "minimized stages" 1
              (Relpipe_model.Pipeline.length inst.Relpipe_model.Instance.pipeline);
            Alcotest.(check int)
              "minimized procs" 1
              (Relpipe_model.Platform.size inst.Relpipe_model.Instance.platform);
            let path = Option.get f.Fuzz.Runner.f_path in
            (match Fuzz.Corpus.replay_file ~ctx:{ Fuzz.Oracle.perturb = 0.05 } path with
            | Ok (Fuzz.Oracle.Fail _) -> ()
            | Ok other ->
                Alcotest.failf "perturbed replay: expected FAIL, got %s"
                  (Fuzz.Oracle.outcome_to_string other)
            | Error msg -> Alcotest.failf "perturbed replay: %s" msg);
            match Fuzz.Corpus.replay_file path with
            | Ok Fuzz.Oracle.Pass -> ()
            | Ok other ->
                Alcotest.failf "clean replay: expected pass, got %s"
                  (Fuzz.Oracle.outcome_to_string other)
            | Error msg -> Alcotest.failf "clean replay: %s" msg)
          report.Fuzz.Runner.r_failures;
        Array.iter
          (fun name -> Sys.remove (Filename.concat out_dir name))
          (Sys.readdir out_dir);
        Sys.rmdir out_dir);
  ]

(* ------------------------------------------------------------------ *)
(* Corpus replay                                                       *)
(* ------------------------------------------------------------------ *)

let corpus_dir = Filename.concat "fixtures" "fuzz-corpus"

let corpus_tests =
  [
    test "every corpus entry replays as pass" (fun () ->
        let entries =
          List.filter
            (fun name -> Filename.check_suffix name ".relpipe")
            (Array.to_list (Sys.readdir corpus_dir))
        in
        Alcotest.(check bool) "corpus is non-empty" true (entries <> []);
        (* One entry per registered oracle, so a new oracle without a
           corpus repro fails this count. *)
        Alcotest.(check int)
          "one entry per oracle"
          (List.length (Fuzz.Oracles.names ()))
          (List.length entries);
        List.iter
          (fun name ->
            let path = Filename.concat corpus_dir name in
            match Fuzz.Corpus.replay_file path with
            | Ok Fuzz.Oracle.Pass -> ()
            | Ok outcome ->
                Alcotest.failf "%s: expected pass, got %s" name
                  (Fuzz.Oracle.outcome_to_string outcome)
            | Error msg -> Alcotest.failf "%s: %s" name msg)
          (List.sort String.compare entries));
    test "corpus headers name registered oracles" (fun () ->
        Array.iter
          (fun name ->
            if Filename.check_suffix name ".relpipe" then
              match Fuzz.Corpus.read (Filename.concat corpus_dir name) with
              | Error msg -> Alcotest.failf "%s: %s" name msg
              | Ok r ->
                  Alcotest.(check bool)
                    (name ^ " oracle registered") true
                    (Option.is_some (Fuzz.Oracles.find r.Fuzz.Corpus.oracle)))
          (Sys.readdir corpus_dir));
    test "repro text round-trips through Corpus" (fun () ->
        match Fuzz.Corpus.read (Filename.concat corpus_dir "fuzz-interval-dp-101.relpipe") with
        | Error msg -> Alcotest.fail msg
        | Ok r ->
            let case =
              Fuzz.Gen.of_instance ~seed:r.Fuzz.Corpus.seed r.Fuzz.Corpus.instance
                r.Fuzz.Corpus.objective
            in
            let text = Fuzz.Corpus.to_string ~oracle:r.Fuzz.Corpus.oracle case in
            (match Fuzz.Corpus.of_string text with
            | Error msg -> Alcotest.fail msg
            | Ok r2 ->
                Alcotest.(check string)
                  "oracle" r.Fuzz.Corpus.oracle r2.Fuzz.Corpus.oracle;
                Alcotest.(check int) "seed" r.Fuzz.Corpus.seed r2.Fuzz.Corpus.seed;
                Alcotest.(check string)
                  "instance"
                  (Relpipe_model.Textio.to_string r.Fuzz.Corpus.instance)
                  (Relpipe_model.Textio.to_string r2.Fuzz.Corpus.instance)));
  ]

(* ------------------------------------------------------------------ *)
(* Exposed single checks as fixed-seed unit tests                      *)
(* ------------------------------------------------------------------ *)

let check_roundtrip v =
  match Fuzz.Oracles.json_float_roundtrip v with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let json_tests =
  [
    test "adversarial float round-trips" (fun () ->
        List.iter check_roundtrip
          [
            0.; -0.; 1e308; -1e308; 1e-308; -1e-308;
            Int64.float_of_bits 1L (* min subnormal *);
            Int64.float_of_bits 0x8000_0000_0000_0001L;
            1.5e-310; Float.max_float; -.Float.max_float; Float.min_float;
            0.1; 1. /. 3.; infinity; neg_infinity; nan;
          ]);
    test "negative zero keeps its sign through parse" (fun () ->
        (* Regression: Json.parse "-0" decoded as Int 0, losing the sign. *)
        match Relpipe_obs.Json.parse "-0" with
        | Error msg -> Alcotest.fail msg
        | Ok j -> (
            match Relpipe_obs.Json.to_float j with
            | Some v ->
                Alcotest.(check bool)
                  "bits of -0." true
                  (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float (-0.)))
            | None -> Alcotest.fail "not a number"));
    Helpers.seed_property ~count:50 "random bit patterns round-trip"
      (fun seed ->
        let rng = Rng.create seed in
        List.for_all
          (fun v -> Result.is_ok (Fuzz.Oracles.json_float_roundtrip v))
          (List.init 8 (fun _ -> Int64.float_of_bits (Rng.int64 rng))));
  ]

let lru_tests =
  [
    Helpers.seed_property ~count:100 "Lru capacity 0 matches the model"
      (fun seed ->
        Result.is_ok
          (Fuzz.Oracles.lru_check (Rng.create seed) ~capacity:0 ~ops:120));
    Helpers.seed_property ~count:100 "Lru capacity 1 matches the model"
      (fun seed ->
        Result.is_ok
          (Fuzz.Oracles.lru_check (Rng.create seed) ~capacity:1 ~ops:120));
    Helpers.seed_property ~count:50 "Lru small capacities match the model"
      (fun seed ->
        let rng = Rng.create seed in
        let capacity = 2 + Rng.int rng 6 in
        Result.is_ok (Fuzz.Oracles.lru_check rng ~capacity ~ops:150));
  ]

(* ------------------------------------------------------------------ *)
(* Oracles as QCheck properties (seed -> case -> Pass/Skip)            *)
(* ------------------------------------------------------------------ *)

let oracle_property (o : Fuzz.Oracle.t) =
  Helpers.seed_property ~count:60
    (Printf.sprintf "oracle %s holds on random cases" o.Fuzz.Oracle.name)
    (fun seed ->
      let case = Fuzz.Gen.generate ~id:0 ~seed Fuzz.Gen.default_shape in
      not (Fuzz.Oracle.is_fail (o.Fuzz.Oracle.check Fuzz.Oracle.default_ctx case)))

let property_tests = List.map oracle_property (Fuzz.Oracles.all ())

let () =
  Alcotest.run "fuzz"
    [
      ("registry", registry_tests);
      ("determinism", determinism_tests);
      ("injection", injection_tests);
      ("corpus", corpus_tests);
      ("json", json_tests);
      ("lru", lru_tests);
      ("properties", property_tests);
    ]
