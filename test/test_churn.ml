(* Tests for lib/churn: seeded event traces (same seed => same trace),
   world perturbation semantics (deaths compact preserving order, joins
   append, stable identities survive renumbering), the resumable DP's
   reuse accounting against hand-counted cell totals, the engine's
   incremental == cold contract and churn.* metrics on a hand-computed
   3-event scenario, QCheck properties (death never resurrects capacity
   through a reused prefix; a no-op drift reuses the whole table and
   repeats the previous solution), and golden snapshots of the
   [relpipe churn] CLI byte-identical across worker counts. *)

open Relpipe_model
module Rng = Relpipe_util.Rng
module Event = Relpipe_churn.Event
module World = Relpipe_churn.World
module Driver = Relpipe_churn.Driver
module Engine = Relpipe_churn.Engine
module Interval_exact = Relpipe_core.Interval_exact
module Reference = Relpipe_core.Reference
module Solution = Relpipe_core.Solution
module Obs = Relpipe_obs.Obs
module Clock = Relpipe_obs.Clock
module Snapshot = Helpers.Snapshot

let test = Helpers.test
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* A 2-stage pipeline on three processors where p0 is ten times faster
   than the rest: every optimum below is forced by hand-checkable
   arithmetic (bandwidths so large that communication never decides). *)
let hand_instance () =
  let pipeline = Pipeline.of_costs ~input:1.0 [ (1.0, 1.0); (1.0, 1.0) ] in
  let platform =
    Platform.uniform_links
      ~speeds:[| 10.0; 1.0; 1.0 |]
      ~failures:[| 0.1; 0.1; 0.1 |]
      ~bandwidth:1e6
  in
  Instance.make pipeline platform

let objective = Instance.Min_latency { max_failure = 1.0 }

(* ------------------------------------------------------------------ *)
(* Driver: seeded traces                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_deterministic () =
  let world = World.of_instance (hand_instance ()) in
  let a = Driver.trace ~seed:42 ~count:30 world in
  let b = Driver.trace ~seed:42 ~count:30 world in
  check_int "trace length" 30 (List.length a);
  check_bool "same seed, same trace" true (List.equal Event.equal a b);
  let c = Driver.trace ~seed:43 ~count:30 world in
  check_bool "different seed, different trace" false
    (List.equal Event.equal a c)

let test_trace_validation () =
  let world = World.of_instance (hand_instance ()) in
  check_bool "negative count rejected" true
    (raises_invalid (fun () -> Driver.trace ~seed:1 ~count:(-1) world));
  check_bool "non-positive mission rejected" true
    (raises_invalid (fun () ->
         Driver.trace ~mission:0.0 ~seed:1 ~count:1 world));
  check_bool "cap above max_procs rejected" true
    (raises_invalid (fun () ->
         Driver.trace ~cap:(Driver.max_procs + 1) ~seed:1 ~count:1 world));
  check_bool "empty trace fine" true (Driver.trace ~seed:1 ~count:0 world = [])

let test_trace_respects_cap () =
  (* With a cap equal to the current platform size no join can fire, so
     every world along the trace keeps at most that many processors. *)
  let world = World.of_instance (hand_instance ()) in
  let events = Driver.trace ~cap:3 ~seed:7 ~count:40 world in
  let _final =
    List.fold_left
      (fun w ev ->
        check_bool "no join beyond cap" true (World.size w <= 3);
        fst (World.apply w ev))
      world events
  in
  ()

(* ------------------------------------------------------------------ *)
(* World: perturbation semantics                                       *)
(* ------------------------------------------------------------------ *)

let four_proc_world () =
  let pipeline = Pipeline.of_costs ~input:1.0 [ (2.0, 1.0); (3.0, 1.0) ] in
  let platform =
    Platform.uniform_links
      ~speeds:[| 1.0; 2.0; 3.0; 4.0 |]
      ~failures:[| 0.1; 0.2; 0.3; 0.4 |]
      ~bandwidth:5.0
  in
  World.of_instance (Instance.make pipeline platform)

let test_world_death () =
  let w = four_proc_world () in
  let w', prev_of = World.apply w (Event.Death 1) in
  check_int "one fewer processor" 3 (World.size w');
  Alcotest.(check (array int)) "prev_of skips the victim" [| 0; 2; 3 |] prev_of;
  check_int "stable ids shift" 0 (World.id w' 0);
  check_int "stable ids shift (1)" 2 (World.id w' 1);
  check_int "stable ids shift (2)" 3 (World.id w' 2);
  let plat = World.platform w' in
  Helpers.check_close "speeds compact in order" 3.0
    (Platform.speed plat 1);
  check_bool "killing the last processor is refused" true
    (raises_invalid (fun () ->
         let rec kill w =
           if World.size w = 1 then World.apply w (Event.Death 0)
           else kill (fst (World.apply w (Event.Death 0)))
         in
         kill w))

let test_world_join () =
  let w = four_proc_world () in
  let ev = Event.Join { speed = 7.0; failure = 0.05; bandwidth = 2.0 } in
  let w', prev_of = World.apply w ev in
  check_int "one more processor" 5 (World.size w');
  Alcotest.(check (array int))
    "prev_of is the identity plus a fresh slot" [| 0; 1; 2; 3; -1 |] prev_of;
  check_int "fresh stable id" 4 (World.id w' 4);
  Helpers.check_close "joined speed" 7.0 (Platform.speed (World.platform w') 4);
  (* A second join after a death keeps minting fresh ids: identity never
     recycles, so stability metrics can trust it. *)
  let w2, _ = World.apply w' (Event.Death 4) in
  let w3, _ = World.apply w2 ev in
  check_int "ids are never reused" 5 (World.id w3 4)

let test_world_drift () =
  let w = four_proc_world () in
  let w', prev_of = World.apply w (Event.Speed_drift { proc = 2; factor = 0.5 }) in
  Alcotest.(check (array int)) "drift keeps indexing" [| 0; 1; 2; 3 |] prev_of;
  Helpers.check_close "drifted speed" 1.5 (Platform.speed (World.platform w') 2);
  Helpers.check_close "others untouched" 2.0
    (Platform.speed (World.platform w') 1);
  check_bool "zero factor rejected" true
    (raises_invalid (fun () ->
         World.apply w (Event.Speed_drift { proc = 0; factor = 0.0 })));
  check_bool "out-of-range processor rejected" true
    (raises_invalid (fun () -> World.apply w (Event.Death 9)))

(* ------------------------------------------------------------------ *)
(* Resumable DP: cold equivalence and reuse accounting                 *)
(* ------------------------------------------------------------------ *)

let check_dp_eq name a b =
  match (a, b) with
  | None, None -> ()
  | Some (la, ma), Some (lb, mb) ->
      check_bool (name ^ ": latency bits") true (bits_eq la lb);
      check_bool (name ^ ": mapping") true (Mapping.equal ma mb)
  | _ -> Alcotest.fail (name ^ ": feasibility differs")

let test_dp_cold_matches_twins () =
  let rng = Helpers.rng_of_seed 2024 in
  for _ = 1 to 5 do
    let inst = Helpers.random_fully_hetero rng ~n:5 ~m:4 in
    let dp, _, reuse = Interval_exact.Dp.solve inst in
    check_int "cold solve reuses nothing" 0
      reuse.Interval_exact.Dp.cells_reused;
    check_dp_eq "Dp.solve vs min_latency" dp (Interval_exact.min_latency inst);
    check_dp_eq "Dp.solve vs reference" dp
      (Reference.interval_min_latency_reference inst)
  done

let test_dp_reuse_accounting () =
  (* n = 2, m = 3: the table holds n * m * 2^(m-1) = 24 cells.  A drift
     on one processor dirties every mask containing it; the clean masks
     are the non-empty subsets of the other two, worth
     n * (1 + 1 + 2) = 8 cells. *)
  let world = World.of_instance (hand_instance ()) in
  let _, st0, r0 = Interval_exact.Dp.solve (World.instance world) in
  check_int "cold total" 24 r0.Interval_exact.Dp.cells_total;
  check_int "cold reuse" 0 r0.Interval_exact.Dp.cells_reused;
  let drifted, prev_of =
    World.apply world (Event.Speed_drift { proc = 2; factor = 0.5 })
  in
  let dp_w, _, r1 =
    Interval_exact.Dp.solve ~warm:(st0, prev_of) (World.instance drifted)
  in
  check_int "one dirty processor of three" 8 r1.Interval_exact.Dp.cells_reused;
  check_int "total unchanged" 24 r1.Interval_exact.Dp.cells_total;
  let dp_c, _, _ = Interval_exact.Dp.solve (World.instance drifted) in
  check_dp_eq "warm equals cold after drift" dp_w dp_c;
  (* A death leaves every surviving processor's attributes untouched:
     the whole (smaller) table is carried over. *)
  let dead, prev_of = World.apply world (Event.Death 1) in
  let dp_w, _, r2 =
    Interval_exact.Dp.solve ~warm:(st0, prev_of) (World.instance dead)
  in
  check_int "death reuses the whole table" r2.Interval_exact.Dp.cells_total
    r2.Interval_exact.Dp.cells_reused;
  check_int "death shrinks the table" 8 r2.Interval_exact.Dp.cells_total;
  let dp_c, _, _ = Interval_exact.Dp.solve (World.instance dead) in
  check_dp_eq "warm equals cold after death" dp_w dp_c;
  (* A no-op drift dirties nobody. *)
  let same, prev_of =
    World.apply world (Event.Speed_drift { proc = 0; factor = 1.0 })
  in
  let dp_w, _, r3 =
    Interval_exact.Dp.solve ~warm:(st0, prev_of) (World.instance same)
  in
  check_int "no-op reuses every cell" r3.Interval_exact.Dp.cells_total
    r3.Interval_exact.Dp.cells_reused;
  check_dp_eq "no-op repeats the optimum" dp_w
    (Interval_exact.min_latency (World.instance world))

(* Whole tables, not just optima: at every event of seeded traces
   (n, m in 4..7), every finite cell of the warm table equals the cold
   table's bit for bit, and both hold the same number of finite cells —
   a cell wrongly carried over or skipped off the optimal path shows
   here even when the optimum is right. *)
let test_dp_warm_tables_match_cold () =
  let finite_cells st =
    Interval_exact.Dp.fold_finite_cells st ~init:[]
      ~f:(fun cells ~e ~u ~mask v ->
        (e, u, mask, Int64.bits_of_float v) :: cells)
  in
  let same_cell (e, u, mask, b) (e', u', mask', b') =
    Int.equal e e' && Int.equal u u' && Int.equal mask mask' && Int64.equal b b'
  in
  for seed = 0 to 23 do
    let rng = Helpers.rng_of_seed (0x7AB + seed) in
    let n = 4 + Rng.int rng 4 and m = 4 + Rng.int rng 4 in
    let world = World.of_instance (Helpers.random_fully_hetero rng ~n ~m) in
    let events = Driver.trace ~cap:7 ~seed ~count:20 world in
    let _, st0, _ = Interval_exact.Dp.solve (World.instance world) in
    ignore
      (List.fold_left
         (fun (world, prev, i) event ->
           let world', prev_of = World.apply world event in
           let instance = World.instance world' in
           let _, warm, _ =
             Interval_exact.Dp.solve ~warm:(prev, prev_of) instance
           in
           let _, cold, _ = Interval_exact.Dp.solve instance in
           let wcells = finite_cells warm and ccells = finite_cells cold in
           let tag = Printf.sprintf "seed %d event %d" seed i in
           check_int (tag ^ ": finite cell count") (List.length ccells)
             (List.length wcells);
           check_bool (tag ^ ": every finite cell") true
             (List.equal same_cell wcells ccells);
           (world', warm, i + 1))
         (world, st0, 0) events)
  done

(* ------------------------------------------------------------------ *)
(* Engine: hand-computed 3-event scenario                              *)
(* ------------------------------------------------------------------ *)

(* Speeds [10; 1; 1]: the cold optimum packs both stages on p0.  Then:
   1. a no-op drift (factor 1.0) — nothing moves, the whole table and
      the incumbent bound survive;
   2. p0 dies — the survivors' attributes are untouched (full reuse of
      the shrunken table) but the incumbent used p0, so no bound
      survives, and both stages move;
   3. a speed-50 join — only masks containing the newcomer re-solve
      (8 of 24 cells reused) and both stages move onto it. *)
let hand_events =
  [
    Event.Speed_drift { proc = 1; factor = 1.0 };
    Event.Death 0;
    Event.Join { speed = 50.0; failure = 0.1; bandwidth = 1e6 };
  ]

let test_engine_hand_scenario () =
  let obs = Obs.create ~tracing:false ~clock:(Clock.virtual_ ()) () in
  let world = World.of_instance (hand_instance ()) in
  let steps = Engine.run ~obs ~objective world hand_events in
  check_int "initial solve plus one step per event" 4 (List.length steps);
  let expect =
    (* index, moved stages, cells reused, cells total, warm bound *)
    [ (0, 0, 0, 24, false); (1, 0, 24, 24, true); (2, 2, 8, 8, false);
      (3, 2, 8, 24, true) ]
  in
  List.iter2
    (fun (index, moved, reused, total, bound) (st : Engine.step) ->
      let tag = Printf.sprintf "step %d" index in
      check_int (tag ^ ": index") index st.Engine.index;
      check_int (tag ^ ": moved stages") moved st.Engine.moved_stages;
      check_int (tag ^ ": cells reused") reused
        st.Engine.reuse.Interval_exact.Dp.cells_reused;
      check_int (tag ^ ": cells total") total
        st.Engine.reuse.Interval_exact.Dp.cells_total;
      check_bool (tag ^ ": warm bound") bound st.Engine.warm_bound;
      (* Two clock reads bracket the two solver legs: under the virtual
         clock every repair takes exactly one tick. *)
      check_int (tag ^ ": time to repair") 1000 st.Engine.ttr_ns)
    expect steps;
  (match steps with
  | s0 :: _ ->
      Helpers.check_close ~eps:1e-9 "initial latency: 2/10 plus two hops"
        (0.2 +. 2e-6)
        (fst (Option.get s0.Engine.dp))
  | [] -> Alcotest.fail "no steps");
  (match List.rev steps with
  | last :: _ ->
      Helpers.check_close ~eps:1e-9 "final latency: 2/50 plus two hops"
        (0.04 +. 2e-6)
        (fst (Option.get last.Engine.dp));
      check_int "final world size" 3 (World.size last.Engine.world)
  | [] -> ());
  check_bool "verify accepts the warm run" true
    (Engine.verify ~workers:2 ~objective steps);
  let metrics = Obs.metrics_jsonl obs in
  List.iter
    (fun line ->
      check_bool ("metrics carry " ^ line) true
        (Helpers.contains ~needle:line metrics))
    [
      "{\"name\":\"churn.steps\",\"type\":\"counter\",\"value\":4}";
      "{\"name\":\"churn.moved_stages\",\"type\":\"counter\",\"value\":4}";
      "{\"name\":\"churn.dp.cells_reused\",\"type\":\"counter\",\"value\":40}";
      "{\"name\":\"churn.bb.warm_bounds\",\"type\":\"counter\",\"value\":2}";
      "{\"name\":\"churn.events.death\",\"type\":\"counter\",\"value\":1}";
      "{\"name\":\"churn.events.speed\",\"type\":\"counter\",\"value\":1}";
      "{\"name\":\"churn.events.join\",\"type\":\"counter\",\"value\":1}";
      "\"churn.ttr_ns\",\"type\":\"histogram\",\"count\":3";
    ]

let test_engine_cold_matches_warm () =
  let world = World.of_instance (hand_instance ()) in
  let warm = Engine.run ~objective world hand_events in
  let cold = Engine.run ~cold:true ~objective world hand_events in
  List.iter2
    (fun (w : Engine.step) (c : Engine.step) ->
      check_bool "cold run reuses nothing" true
        (c.Engine.reuse.Interval_exact.Dp.cells_reused = 0);
      check_bool "cold run never bounds" false c.Engine.warm_bound;
      check_bool "same optimum" true (Engine.equal_dp w.Engine.dp c.Engine.dp);
      check_bool "same solution" true
        (Engine.equal_solution w.Engine.solution c.Engine.solution);
      check_int "same stability" w.Engine.moved_stages c.Engine.moved_stages)
    warm cold

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let random_world rng =
  let n = 2 + Rng.int rng 3 and m = 3 + Rng.int rng 3 in
  World.of_instance (Helpers.random_fully_hetero rng ~n ~m)

let prop_objective = Instance.Min_latency { max_failure = 0.9 }

(* Death never resurrects capacity: after a death, the warm run (which
   carries the whole pre-death table forward, then reuses it again
   across a no-op drift) matches a cold run bit-for-bit, and the dead
   processor's stable identity never reappears in any solution. *)
let prop_death_never_resurrects seed =
  let rng = Helpers.rng_of_seed (0xD0D0 + seed) in
  let world = random_world rng in
  let dead_id = Rng.int rng (World.size world) in
  let events =
    [ Event.Death dead_id; Event.Speed_drift { proc = 0; factor = 1.0 } ]
  in
  let warm = Engine.run ~objective:prop_objective world events in
  let cold = Engine.run ~cold:true ~objective:prop_objective world events in
  let agree =
    List.for_all2
      (fun (w : Engine.step) (c : Engine.step) ->
        Engine.equal_dp w.Engine.dp c.Engine.dp
        && Engine.equal_solution w.Engine.solution c.Engine.solution)
      warm cold
  in
  let never_used (st : Engine.step) =
    (* Step 0 predates the death: the condemned processor is then still
       fair game. *)
    st.Engine.index = 0
    ||
    match st.Engine.solution with
    | None -> true
    | Some s ->
        List.for_all
          (fun u -> World.id st.Engine.world u <> dead_id)
          (Mapping.used_procs s.Solution.mapping)
  in
  agree
  && List.for_all never_used warm
  && (List.nth warm 2).Engine.reuse.Interval_exact.Dp.cells_reused
     = (List.nth warm 2).Engine.reuse.Interval_exact.Dp.cells_total

(* A no-op event reuses the entire table and repeats the previous
   solution exactly. *)
let prop_noop_full_reuse seed =
  let rng = Helpers.rng_of_seed (0x1CE + seed) in
  let world = random_world rng in
  let proc = Rng.int rng (World.size world) in
  let events = [ Event.Speed_drift { proc; factor = 1.0 } ] in
  match Engine.run ~objective:prop_objective world events with
  | [ s0; s1 ] ->
      s1.Engine.reuse.Interval_exact.Dp.cells_reused
      = s1.Engine.reuse.Interval_exact.Dp.cells_total
      && Engine.equal_dp s0.Engine.dp s1.Engine.dp
      && Engine.equal_solution s0.Engine.solution s1.Engine.solution
      && s1.Engine.moved_stages = 0
  | _ -> false

(* ------------------------------------------------------------------ *)
(* CLI: golden snapshot, byte-identical across worker counts           *)
(* ------------------------------------------------------------------ *)

let churn_args workers =
  [
    "churn"; "-i"; "fixtures/churn_grid.relpipe"; "--max-failure"; "0.5";
    "-e"; "12"; "-s"; "11"; "--stats"; "--verify"; "--virtual-clock";
    "-w"; string_of_int workers; "--exact-workers";
  ]

let test_cli_snapshot () =
  let c1, o1, e1 = Helpers.run_cli (churn_args 1) in
  check_int "exits 0 (1 worker)" 0 c1;
  check_str "stderr empty" "" e1;
  let c2, o2, _ = Helpers.run_cli (churn_args 2) in
  let c8, o8, _ = Helpers.run_cli (churn_args 8) in
  check_int "exits 0 (2 workers)" 0 c2;
  check_int "exits 0 (8 workers)" 0 c8;
  check_str "1 worker == 2 workers" o1 o2;
  check_str "1 worker == 8 workers" o1 o8;
  check_bool "verify line present" true
    (Helpers.contains ~needle:"verify:  warm == cold on 13 steps" o1);
  Snapshot.check "churn-grid.snap" o1

let test_cli_missing_instance () =
  let code, _, err =
    Helpers.run_cli
      [ "churn"; "-i"; "fixtures/no-such-instance.relpipe"; "--max-failure";
        "0.5" ]
  in
  check_bool "missing instance exits non-zero" true (code <> 0);
  check_bool "missing instance diagnosed" true (String.length err > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "churn"
    [
      ( "driver",
        [
          test "same seed, same trace" test_trace_deterministic;
          test "argument validation" test_trace_validation;
          test "join cap bounds the platform" test_trace_respects_cap;
        ] );
      ( "world",
        [
          test "death compacts preserving order" test_world_death;
          test "join appends with a fresh identity" test_world_join;
          test "drift perturbs one processor" test_world_drift;
        ] );
      ( "dp",
        [
          test "cold solve matches both twins" test_dp_cold_matches_twins;
          test "reuse accounting" test_dp_reuse_accounting;
          test "warm tables equal cold tables cell by cell"
            test_dp_warm_tables_match_cold;
        ] );
      ( "engine",
        [
          test "hand-computed 3-event scenario" test_engine_hand_scenario;
          test "cold replay matches warm" test_engine_cold_matches_warm;
        ] );
      ( "properties",
        [
          Helpers.seed_property ~count:60 "death never resurrects capacity"
            prop_death_never_resurrects;
          Helpers.seed_property ~count:60 "no-op drift reuses everything"
            prop_noop_full_reuse;
        ] );
      ( "cli",
        [
          test "golden snapshot across workers" test_cli_snapshot;
          test "missing instance rejected" test_cli_missing_instance;
        ] );
    ]
