open Relpipe_model
module Rng = Relpipe_util.Rng
module F = Relpipe_util.Float_cmp
module Lru = Relpipe_util.Lru
module Core = Relpipe_core
module Service = Relpipe_service
module Json = Relpipe_obs.Json
module A = Relpipe_analysis

(* Checks are written as imperative sequences; these exceptions keep the
   nesting flat and are converted to outcomes by the [oracle] wrapper. *)
exception Check_failed of string
exception Check_skipped of string

let failf fmt = Format.kasprintf (fun s -> raise (Check_failed s)) fmt
let skipf fmt = Format.kasprintf (fun s -> raise (Check_skipped s)) fmt

let oracle ~name ~doc ~salt f =
  {
    Oracle.name;
    doc;
    salt;
    check =
      (fun ctx case ->
        match f ctx (Oracle.derive ~salt ~seed:case.Gen.seed) case with
        | () -> Oracle.Pass
        | exception Check_failed msg -> Oracle.Fail msg
        | exception Check_skipped msg -> Oracle.Skip msg
        | exception e ->
            (* An unexpected exception from the code under test is a
               finding, not a harness crash. *)
            Oracle.Fail ("uncaught exception: " ^ Printexc.to_string e));
  }

let shape (case : Gen.case) =
  ( Pipeline.length case.Gen.instance.Instance.pipeline,
    Platform.size case.Gen.instance.Instance.platform )

(* ------------------------------------------------------------------ *)
(* 1. interval-dp: exact DP vs brute-force interval enumeration        *)
(* ------------------------------------------------------------------ *)

let check_interval_dp ctx _rng (case : Gen.case) =
  let inst = case.Gen.instance in
  let n, m = shape case in
  if n > 8 || m > 6 then skipf "size guard: n=%d m=%d (needs n <= 8, m <= 6)" n m;
  match
    (Core.Interval_exact.min_latency inst, Core.Exact.min_latency_unreplicated inst)
  with
  | None, None -> ()
  | Some _, None -> failf "interval DP found a mapping, brute force found none"
  | None, Some _ -> failf "brute force found a mapping, interval DP found none"
  | Some (dp, dp_map), Some (bf, _) ->
      let claimed = dp *. (1.0 +. ctx.Oracle.perturb) in
      if not (F.approx_eq claimed bf) then
        failf "interval DP latency %.17g <> brute-force latency %.17g" claimed bf;
      let ev = Instance.evaluate inst dp_map in
      if not (F.approx_eq ev.Instance.latency dp) then
        failf "DP mapping re-prices at %.17g, DP claimed %.17g"
          ev.Instance.latency dp

(* ------------------------------------------------------------------ *)
(* 2. general-shortest-path: four solvers agree, bound the interval    *)
(* ------------------------------------------------------------------ *)

let check_general _ctx _rng (case : Gen.case) =
  let inst = case.Gen.instance in
  let n, m = shape case in
  let dij, _ = Core.General_mapping.solve ~algo:Core.General_mapping.Dijkstra inst in
  let bel, _ =
    Core.General_mapping.solve ~algo:Core.General_mapping.Bellman_ford inst
  in
  let dag, _ = Core.General_mapping.solve ~algo:Core.General_mapping.Dag_sweep inst in
  let dp, _ = Core.General_mapping.solve_dp inst in
  List.iter
    (fun (name, v) ->
      if not (F.approx_eq dij v) then
        failf "general-mapping %s latency %.17g <> Dijkstra %.17g" name v dij)
    [ ("Bellman-Ford", bel); ("DAG sweep", dag); ("direct DP", dp) ];
  if n <= 8 && m <= 6 then
    match Core.Interval_exact.min_latency inst with
    | None -> ()
    | Some (interval, _) ->
        if not (F.leq dij interval) then
          failf "general optimum %.17g exceeds the interval optimum %.17g" dij
            interval

(* ------------------------------------------------------------------ *)
(* 3. heuristics-pareto: dominated-or-equal by the exhaustive front    *)
(* ------------------------------------------------------------------ *)

let pareto_front evals =
  let sorted =
    List.sort
      (fun (a : Instance.evaluation) (b : Instance.evaluation) ->
        match Float.compare a.Instance.latency b.Instance.latency with
        | 0 -> Float.compare a.Instance.failure b.Instance.failure
        | c -> c)
      evals
  in
  let rec sweep best = function
    | [] -> []
    | (e : Instance.evaluation) :: tl ->
        if e.Instance.failure < best then e :: sweep e.Instance.failure tl
        else sweep best tl
  in
  sweep infinity sorted

let check_heuristics _ctx rng (case : Gen.case) =
  let inst = case.Gen.instance and obj = case.Gen.objective in
  let n, m = shape case in
  (* The oracle enumerates the space below, so bound the shape first
     (the pre-guard of Solver.small_enough). *)
  if n > 6 || m > 6 then skipf "size guard: n=%d m=%d (needs n <= 6, m <= 6)" n m;
  let space = Core.Exact.count_mappings ~n ~m () in
  if space > 5_000 then skipf "mapping space %d > 5000" space;
  let evals = ref [] and best = ref None in
  Core.Exact.iter_mappings ~n ~m (fun mapping ->
      let ev = Instance.evaluate inst mapping in
      evals := ev :: !evals;
      if Instance.feasible obj ev then begin
        let v = Instance.objective_value obj ev in
        match !best with
        | None -> best := Some v
        | Some b -> if v < b then best := Some v
      end);
  let front = pareto_front !evals in
  let seed = Rng.int rng 1_000_000 in
  List.iter
    (fun name ->
      match Core.Heuristics.run ~seed name inst obj with
      | None -> ()
      | Some s ->
          let hname = Core.Heuristics.name_to_string name in
          let stored = s.Core.Solution.evaluation in
          let ev = Instance.evaluate inst s.Core.Solution.mapping in
          if
            not
              (F.approx_eq ev.Instance.latency stored.Instance.latency
              && F.approx_eq ev.Instance.failure stored.Instance.failure)
          then
            failf "heuristic %s evaluation (%.17g, %.17g) re-prices as (%.17g, %.17g)"
              hname stored.Instance.latency stored.Instance.failure
              ev.Instance.latency ev.Instance.failure;
          if not (Instance.feasible obj stored) then
            failf "heuristic %s returned an infeasible solution" hname;
          (match !best with
          | None ->
              failf
                "heuristic %s found a feasible solution where exhaustive \
                 enumeration found none"
                hname
          | Some b ->
              let v = Instance.objective_value obj stored in
              if not (F.geq v b) then
                failf "heuristic %s objective %.17g beats the exhaustive optimum %.17g"
                  hname v b);
          if
            not
              (List.exists
                 (fun (p : Instance.evaluation) ->
                   F.leq p.Instance.latency ev.Instance.latency
                   && F.leq p.Instance.failure ev.Instance.failure)
                 front)
          then
            failf "heuristic %s evaluation is not dominated by the exhaustive \
                   Pareto front"
              hname)
    Core.Heuristics.all_names

(* ------------------------------------------------------------------ *)
(* 4. validate-lint: solver outputs survive re-validation              *)
(* ------------------------------------------------------------------ *)

let check_validate _ctx _rng (case : Gen.case) =
  match Core.Solver.run case.Gen.instance case.Gen.objective with
  | Error e ->
      failf "Solver.run failed on a generated instance: %s"
        (Core.Solver.error_to_string e)
  | Ok None -> ()
  | Ok (Some sol) -> (
      let report = Core.Validate.check case.Gen.instance case.Gen.objective sol in
      if not (Core.Validate.ok report) then
        failf "Validate.check rejects the solver output: %s"
          (String.concat "; " report.Core.Validate.messages);
      match
        A.Diagnostic.errors
          (A.Analysis.lint_solution case.Gen.instance sol.Core.Solution.mapping)
      with
      | [] -> ()
      | d :: _ ->
          failf "lint error on solver output: %s" (A.Diagnostic.to_string d))

(* ------------------------------------------------------------------ *)
(* 5. canon-invariance: renumbering symmetry through the engine        *)
(* ------------------------------------------------------------------ *)

let check_canon _ctx rng (case : Gen.case) =
  let inst = case.Gen.instance and obj = case.Gen.objective in
  let platform = inst.Instance.platform in
  if not (Classify.links_homogeneous platform) then
    skipf "links heterogeneous: renumbering is not a platform symmetry";
  let n, m = shape case in
  let sigma = Rng.permutation rng m in
  let inv = Array.make m 0 in
  Array.iteri (fun i u -> inv.(u) <- i) sigma;
  let speeds = Platform.speeds platform and failures = Platform.failures platform in
  let bandwidth =
    match Classify.common_bandwidth platform with Some b -> b | None -> 1.0
  in
  let platform' =
    Platform.uniform_links
      ~speeds:(Array.init m (fun i -> speeds.(sigma.(i))))
      ~failures:(Array.init m (fun i -> failures.(sigma.(i))))
      ~bandwidth
  in
  let inst' = Instance.make inst.Instance.pipeline platform' in
  let engine = Service.Engine.create ~workers:1 ~cache_capacity:64 () in
  let key i = (Service.Engine.normalize i obj).Service.Canon.key in
  if not (String.equal (key inst) (key inst')) then
    failf "renumbered instance canonicalizes to a different cache key";
  let r1 = Service.Engine.solve_instance engine inst obj in
  let r2 = Service.Engine.solve_instance engine inst' obj in
  (match r1.Service.Protocol.r_cache with
  | Service.Protocol.Miss -> ()
  | Service.Protocol.Hit -> failf "first solve reported a cache hit on a fresh engine");
  (match r2.Service.Protocol.r_cache with
  | Service.Protocol.Hit -> ()
  | Service.Protocol.Miss -> failf "renumbered instance missed the result cache");
  match (r1.Service.Protocol.r_outcome, r2.Service.Protocol.r_outcome) with
  | Service.Protocol.Infeasible, Service.Protocol.Infeasible -> ()
  | Service.Protocol.Failed e1, Service.Protocol.Failed e2
    when String.equal e1 e2 -> ()
  | ( Service.Protocol.Solved { mapping = map1; latency = l1; failure = f1 },
      Service.Protocol.Solved { mapping = map2; latency = l2; failure = f2 } ) -> (
      if not (F.approx_eq l1 l2) then
        failf "latency changed under renumbering: %.17g vs %.17g" l1 l2;
      if not (F.approx_eq f1 f2) then
        failf "failure probability changed under renumbering: %.17g vs %.17g" f1 f2;
      match (Mapping_syntax.parse ~n ~m map1, Mapping_syntax.parse ~n ~m map2) with
      | Error msg, _ | _, Error msg -> failf "response mapping does not parse: %s" msg
      | Ok m1, Ok m2 ->
          let ev2 = Instance.evaluate inst' m2 in
          if
            not
              (F.approx_eq ev2.Instance.latency l2
              && F.approx_eq ev2.Instance.failure f2)
          then
            failf "hit response metrics do not re-price on the renumbered \
                   instance";
          (* With pairwise-distinct (speed, failure) signatures the
             canonical order is unambiguous, so the hit must be exactly
             the permutation-translated representative mapping. *)
          let distinct =
            let q =
              Array.init m (fun u ->
                  ( Service.Canon.quantize speeds.(u),
                    Service.Canon.quantize failures.(u) ))
            in
            let ok = ref true in
            for i = 0 to m - 1 do
              for j = i + 1 to m - 1 do
                let si, fi = q.(i) and sj, fj = q.(j) in
                if Float.equal si sj && Float.equal fi fj then ok := false
              done
            done;
            !ok
          in
          if distinct then begin
            let expected =
              Mapping.make ~n ~m
                (List.map
                   (fun iv ->
                     {
                       iv with
                       Mapping.procs =
                         List.sort Int.compare
                           (List.map (fun u -> inv.(u)) iv.Mapping.procs);
                     })
                   (Mapping.intervals m1))
            in
            if not (Mapping.equal expected m2) then
              failf "hit mapping is not the permutation translation of the \
                     representative"
          end)
  | _ -> failf "outcome kind changed under renumbering"

(* ------------------------------------------------------------------ *)
(* 6. text-roundtrip: Textio / Mapping_syntax / Protocol               *)
(* ------------------------------------------------------------------ *)

let check_roundtrip _ctx rng (case : Gen.case) =
  let inst = case.Gen.instance in
  let n, m = shape case in
  let text = Textio.to_string inst in
  (match Textio.parse text with
  | Error msg -> failf "Textio.to_string output does not parse: %s" msg
  | Ok inst2 ->
      if not (String.equal text (Textio.to_string inst2)) then
        failf "Textio print->parse->print is not byte-identical");
  let mapping = Gen.random_mapping rng ~n ~m in
  let mtext = Mapping_syntax.to_string mapping in
  (match Mapping_syntax.parse ~n ~m mtext with
  | Error msg -> failf "Mapping_syntax.to_string output does not parse: %s" msg
  | Ok mapping2 ->
      if not (Mapping.equal mapping mapping2) then
        failf "Mapping_syntax round-trip changed the mapping");
  let rq =
    Service.Protocol.request ~id:"fuzz"
      ~instance:(Service.Protocol.Inline text)
      case.Gen.objective
  in
  let line = Service.Protocol.encode_request rq in
  (match Service.Protocol.decode_request line with
  | Error msg -> failf "encoded request does not decode: %s" msg
  | Ok rq2 ->
      if not (String.equal line (Service.Protocol.encode_request rq2)) then
        failf "request encode->decode->encode is not byte-identical");
  let ev = Instance.evaluate inst mapping in
  let resp =
    {
      Service.Protocol.r_id = Some "fuzz";
      r_index = 0;
      r_cache = Service.Protocol.Miss;
      r_outcome =
        Service.Protocol.Solved
          {
            mapping = Service.Protocol.mapping_to_syntax mapping;
            latency = ev.Instance.latency;
            failure = ev.Instance.failure;
          };
    }
  in
  let rline = Service.Protocol.encode_response resp in
  match Service.Protocol.decode_response rline with
  | Error msg -> failf "encoded response does not decode: %s" msg
  | Ok resp2 ->
      if not (String.equal rline (Service.Protocol.encode_response resp2)) then
        failf "response encode->decode->encode is not byte-identical"

(* ------------------------------------------------------------------ *)
(* 7. json-floats: bit-identical float round-trips                     *)
(* ------------------------------------------------------------------ *)

let float_eq a b = F.same_bits a b || (Float.is_nan a && Float.is_nan b)

let json_float_roundtrip v =
  let s = Json.to_string (Json.float v) in
  match Json.parse s with
  | Error msg -> Error (Printf.sprintf "%S does not parse back: %s" s msg)
  | Ok j -> (
      match Json.to_float j with
      | None -> Error (Printf.sprintf "%S decodes to a non-number" s)
      | Some v' when not (float_eq v v') ->
          Error
            (Printf.sprintf "round-trip %.17g -> %S -> %.17g changes bits" v s v')
      | Some _ -> (
          (* Embedded in an object, the way the protocol carries it. *)
          let os = Json.to_string (Json.Obj [ ("x", Json.float v) ]) in
          match Json.parse os with
          | Error msg -> Error (Printf.sprintf "%S does not parse back: %s" os msg)
          | Ok o -> (
              match Option.bind (Json.member "x" o) Json.to_float with
              | Some w when float_eq v w -> Ok ()
              | _ ->
                  Error
                    (Printf.sprintf "object-embedded %S does not round-trip" os))))

let adversarial_floats =
  [|
    0.; -0.; 1.; -1.; 0.1; -0.1; 1. /. 3.;
    Float.min_float; -.Float.min_float;
    Float.max_float; -.Float.max_float;
    1e308; -1e308; 1e-308; -1e-308;
    Int64.float_of_bits 1L; Int64.float_of_bits 0x8000_0000_0000_0001L;
    1.5e-310; -1.5e-310;
    Float.epsilon; Float.pi;
    (2. ** 53.) -. 1.; 2. ** 53.; (2. ** 53.) +. 2.;
    infinity; neg_infinity; nan;
  |]

let check_json _ctx rng (_case : Gen.case) =
  Array.iter
    (fun v ->
      match json_float_roundtrip v with Ok () -> () | Error msg -> failf "%s" msg)
    adversarial_floats;
  for _ = 1 to 16 do
    let v = Int64.float_of_bits (Rng.int64 rng) in
    match json_float_roundtrip v with Ok () -> () | Error msg -> failf "%s" msg
  done

(* ------------------------------------------------------------------ *)
(* 8. lru: model-checked cache behaviour at edge capacities            *)
(* ------------------------------------------------------------------ *)

let lru_check rng ~capacity ~ops =
  let t = Lru.create ~capacity in
  (* Reference model: bindings most-recent-first. *)
  let model = ref [] in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let keys = [| "k0"; "k1"; "k2"; "k3"; "k4"; "k5"; "k6"; "k7" |] in
  let error = ref None in
  let set_error msg = if Option.is_none !error then error := Some msg in
  let rec take k = function
    | [] -> []
    | x :: tl -> if k = 0 then [] else x :: take (k - 1) tl
  in
  let drop_key key l = List.filter (fun (k, _) -> not (String.equal k key)) l in
  let step () =
    let key = Rng.pick rng keys in
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let v = Rng.int rng 1000 in
        Lru.add t key v;
        if capacity > 0 then begin
          model := (key, v) :: drop_key key !model;
          if List.length !model > capacity then begin
            model := take capacity !model;
            incr evictions
          end
        end
    | 4 | 5 | 6 -> (
        let got = Lru.find t key in
        let want =
          Option.map snd
            (List.find_opt (fun (k, _) -> String.equal k key) !model)
        in
        match (got, want) with
        | Some a, Some b when a = b ->
            incr hits;
            model := (key, b) :: drop_key key !model
        | None, None -> incr misses
        | Some a, Some b ->
            set_error
              (Printf.sprintf "find %S returned %d, model holds %d" key a b)
        | Some a, None ->
            set_error (Printf.sprintf "find %S returned %d, model has no binding" key a)
        | None, Some b ->
            set_error (Printf.sprintf "find %S missed, model holds %d" key b))
    | 7 ->
        let got = Lru.mem t key in
        let want = List.exists (fun (k, _) -> String.equal k key) !model in
        if not (Bool.equal got want) then
          set_error (Printf.sprintf "mem %S: cache %b, model %b" key got want)
    | 8 ->
        if Lru.length t <> List.length !model then
          set_error
            (Printf.sprintf "length %d, model %d" (Lru.length t)
               (List.length !model))
    | _ ->
        if Rng.int rng 8 = 0 then begin
          Lru.clear t;
          model := []
        end
  in
  let i = ref 0 in
  while !i < ops && Option.is_none !error do
    step ();
    incr i
  done;
  if Option.is_none !error then begin
    let s = Lru.stats t in
    if s.Lru.hits <> !hits then
      set_error (Printf.sprintf "hits %d, model %d" s.Lru.hits !hits);
    if s.Lru.misses <> !misses then
      set_error (Printf.sprintf "misses %d, model %d" s.Lru.misses !misses);
    if s.Lru.evictions <> !evictions then
      set_error (Printf.sprintf "evictions %d, model %d" s.Lru.evictions !evictions);
    if Lru.length t <> List.length !model then
      set_error
        (Printf.sprintf "final length %d, model %d" (Lru.length t)
           (List.length !model));
    if Lru.capacity t <> capacity then
      set_error (Printf.sprintf "capacity %d, created with %d" (Lru.capacity t) capacity)
  end;
  match !error with None -> Ok () | Some msg -> Error msg

let check_lru _ctx rng (_case : Gen.case) =
  List.iter
    (fun capacity ->
      match lru_check rng ~capacity ~ops:100 with
      | Ok () -> ()
      | Error msg -> failf "capacity %d: %s" capacity msg)
    [ 0; 1; 2 + Rng.int rng 4 ]

(* ------------------------------------------------------------------ *)
(* 9. metrics-invariance: recording sinks never change results         *)
(* ------------------------------------------------------------------ *)

let check_metrics_invariance _ctx _rng (case : Gen.case) =
  let inst = case.Gen.instance and obj = case.Gen.objective in
  let encode engine =
    Service.Protocol.encode_response
      (Service.Engine.solve_instance engine inst obj)
  in
  let plain = encode (Service.Engine.create ~workers:1 ~cache_capacity:64 ()) in
  let obs =
    Relpipe_obs.Obs.create ~tracing:true
      ~clock:(Relpipe_obs.Clock.virtual_ ())
      ()
  in
  let instrumented =
    encode (Service.Engine.create ~obs ~workers:1 ~cache_capacity:64 ())
  in
  if not (String.equal plain instrumented) then
    failf "recording sink changed the engine response:\n  plain: %s\n  obs:   %s"
      plain instrumented;
  (* The solver must be equally indifferent to an ambient context. *)
  let run () = Core.Solver.run ~method_:Core.Solver.Auto inst obj in
  let direct = run () in
  let ambient = Relpipe_obs.Obs.with_ambient (Some obs) run in
  let bits x = Int64.bits_of_float x in
  match (direct, ambient) with
  | Ok None, Ok None -> ()
  | Error e1, Error e2
    when String.equal
           (Core.Solver.error_to_string e1)
           (Core.Solver.error_to_string e2) -> ()
  | Ok (Some s1), Ok (Some s2) ->
      let m1 = Service.Protocol.mapping_to_syntax s1.Core.Solution.mapping
      and m2 = Service.Protocol.mapping_to_syntax s2.Core.Solution.mapping in
      if not (String.equal m1 m2) then
        failf "ambient sink changed the solver mapping: %s vs %s" m1 m2;
      let e1 = s1.Core.Solution.evaluation and e2 = s2.Core.Solution.evaluation in
      if
        not
          (Int64.equal (bits e1.Instance.latency) (bits e2.Instance.latency)
          && Int64.equal (bits e1.Instance.failure) (bits e2.Instance.failure))
      then
        failf
          "ambient sink perturbed solution metrics: (%.17g, %.17g) vs (%.17g, \
           %.17g)"
          e1.Instance.latency e1.Instance.failure e2.Instance.latency
          e2.Instance.failure
  | _ ->
      failf "ambient sink changed the solver outcome class (solved vs \
             infeasible vs error)"

(* ------------------------------------------------------------------ *)
(* 10. opt-vs-reference: optimized kernels equal their frozen twins    *)
(* ------------------------------------------------------------------ *)

let check_opt_vs_reference ctx _rng (case : Gen.case) =
  let inst = case.Gen.instance in
  let n, m = shape case in
  let bits = Int64.bits_of_float in
  let same_latency a b = Int64.equal (bits a) (bits b) in
  (* Interval DP: bounded by the same memory guard as the kernel, plus a
     cell budget so campaigns stay fast. *)
  if m <= Core.Interval_exact.max_procs && (n + 1) * m * (1 lsl m) <= 500_000
  then begin
    match
      (Core.Interval_exact.min_latency inst, Core.Reference.interval_min_latency_reference inst)
    with
    | None, None -> ()
    | Some _, None -> failf "interval DP: optimized solved, reference did not"
    | None, Some _ -> failf "interval DP: reference solved, optimized did not"
    | Some (opt, opt_map), Some (ref_l, ref_map) ->
        let claimed = opt *. (1.0 +. ctx.Oracle.perturb) in
        if not (same_latency claimed ref_l) then
          failf "interval DP latency %.17g is not bit-identical to reference %.17g"
            claimed ref_l;
        if not (Mapping.equal opt_map ref_map) then
          failf "interval DP mapping differs from reference"
  end;
  (* Theorem 4 direct DP: polynomial, no guard needed. *)
  let dp_l, dp_a = Core.General_mapping.solve_dp inst in
  let ref_l, ref_a = Core.Reference.general_dp_reference inst in
  if not (same_latency dp_l ref_l) then
    failf "general DP latency %.17g is not bit-identical to reference %.17g" dp_l
      ref_l;
  if not (Assignment.equal dp_a ref_a) then
    failf "general DP assignment differs from reference";
  (* Branch and bound: exponential twins, so keep the shape small. *)
  if n <= 6 && m <= 5 then begin
    let obj = case.Gen.objective in
    match
      (Core.Bb.solve inst obj, Core.Reference.bb_solve_reference inst obj)
    with
    | None, None -> ()
    | Some _, None -> failf "B&B: optimized found a solution, reference did not"
    | None, Some _ -> failf "B&B: reference found a solution, optimized did not"
    | Some s1, Some s2 ->
        let e1 = s1.Core.Solution.evaluation and e2 = s2.Core.Solution.evaluation in
        if not (same_latency e1.Instance.latency e2.Instance.latency) then
          failf "B&B latency %.17g is not bit-identical to reference %.17g"
            e1.Instance.latency e2.Instance.latency;
        if not (same_latency e1.Instance.failure e2.Instance.failure) then
          failf "B&B failure %.17g is not bit-identical to reference %.17g"
            e1.Instance.failure e2.Instance.failure;
        if not (Mapping.equal s1.Core.Solution.mapping s2.Core.Solution.mapping)
        then failf "B&B mapping differs from reference"
  end

(* ------------------------------------------------------------------ *)
(* 11. churn-incremental: warm-started re-solves == cold solves        *)
(* ------------------------------------------------------------------ *)

let check_churn _ctx rng (case : Gen.case) =
  let module Churn = Relpipe_churn in
  let inst = case.Gen.instance and obj = case.Gen.objective in
  let n, m = shape case in
  if n > 6 || m > 6 then skipf "size guard: n=%d m=%d (needs n <= 6, m <= 6)" n m;
  let world = Churn.World.of_instance inst in
  let trace_seed = Int64.to_int (Rng.int64 rng) land max_int in
  let count = 3 + Rng.int rng 5 in
  (* Joins capped at 8 processors to keep 500-trace campaigns fast. *)
  let events = Churn.Driver.trace ~cap:8 ~seed:trace_seed ~count world in
  let warm = Churn.Engine.run ~objective:obj world events in
  let cold = Churn.Engine.run ~cold:true ~objective:obj world events in
  List.iter2
    (fun (w : Churn.Engine.step) (c : Churn.Engine.step) ->
      if not (Churn.Engine.equal_dp w.Churn.Engine.dp c.Churn.Engine.dp) then
        failf "step %d (%s): warm interval DP differs from cold"
          w.Churn.Engine.index w.Churn.Engine.label;
      if
        not
          (Churn.Engine.equal_solution w.Churn.Engine.solution
             c.Churn.Engine.solution)
      then
        failf "step %d (%s): warm B&B solution differs from cold"
          w.Churn.Engine.index w.Churn.Engine.label)
    warm cold;
  (* A cold replay must see zero reuse and no warm bounds. *)
  List.iter
    (fun (c : Churn.Engine.step) ->
      if c.Churn.Engine.reuse.Core.Interval_exact.Dp.cells_reused <> 0 then
        failf "cold step %d reports reused DP cells" c.Churn.Engine.index;
      if c.Churn.Engine.warm_bound then
        failf "cold step %d reports a warm bound" c.Churn.Engine.index)
    cold

(* ------------------------------------------------------------------ *)
(* 12. par-exact-identity: parallel solvers == serial at every width   *)
(* ------------------------------------------------------------------ *)

let check_par_exact ctx _rng (case : Gen.case) =
  let inst = case.Gen.instance and obj = case.Gen.objective in
  let n, m = shape case in
  if n > 6 || m > 5 then skipf "size guard: n=%d m=%d (needs n <= 6, m <= 5)" n m;
  let bits = Int64.bits_of_float in
  let same a b = Int64.equal (bits a) (bits b) in
  (* B&B: the probe+confirm parallel solve must be bit-identical to the
     serial solve at every worker count, mapping tie-breaks included. *)
  let serial = Core.Bb.solve inst obj in
  List.iter
    (fun workers ->
      match (serial, Core.Bb.solve_par ~workers inst obj) with
      | None, None -> ()
      | Some _, None ->
          failf "B&B workers=%d: parallel infeasible, serial solved" workers
      | None, Some _ ->
          failf "B&B workers=%d: parallel solved, serial infeasible" workers
      | Some s, Some p ->
          let es = s.Core.Solution.evaluation
          and ep = p.Core.Solution.evaluation in
          let claimed = ep.Instance.latency *. (1.0 +. ctx.Oracle.perturb) in
          if not (same claimed es.Instance.latency) then
            failf "B&B workers=%d: latency %.17g not bit-identical to serial \
                   %.17g"
              workers ep.Instance.latency es.Instance.latency;
          if not (same ep.Instance.failure es.Instance.failure) then
            failf "B&B workers=%d: failure %.17g not bit-identical to serial \
                   %.17g"
              workers ep.Instance.failure es.Instance.failure;
          if
            not (Mapping.equal p.Core.Solution.mapping s.Core.Solution.mapping)
          then failf "B&B workers=%d: mapping differs from serial" workers)
    [ 1; 2; 8 ];
  (* Interval DP: the stage-parallel twin, under the kernel's own memory
     guard.  Values and tie-breaking parents are pinned structurally by
     test_par_exact; here only the returned optimum is compared. *)
  if m <= Core.Interval_exact.max_procs then
    let dp_serial = Core.Interval_exact.min_latency inst in
    List.iter
      (fun workers ->
        match (dp_serial, Core.Interval_exact.min_latency_par ~workers inst) with
        | None, None -> ()
        | Some _, None | None, Some _ ->
            failf "interval DP workers=%d: outcome class differs from serial"
              workers
        | Some (sl, smap), Some (pl, pmap) ->
            if not (same pl sl) then
              failf "interval DP workers=%d: latency %.17g not bit-identical \
                     to serial %.17g"
                workers pl sl;
            if not (Mapping.equal pmap smap) then
              failf "interval DP workers=%d: mapping differs from serial"
                workers)
      [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* 13. cert-replay: emitted certificates check; mutants are rejected   *)
(* ------------------------------------------------------------------ *)

let check_cert_replay _ctx rng (case : Gen.case) =
  let module Cert = Relpipe_cert.Cert in
  let module Check = Relpipe_cert.Check in
  let inst = case.Gen.instance and obj = case.Gen.objective in
  let n, m = shape case in
  if n > 5 || m > 4 then skipf "size guard: n=%d m=%d (needs n <= 5, m <= 4)" n m;
  let expect_accept what cert =
    match Check.check inst cert with
    | Ok entries ->
        if entries <= 0 then failf "%s: checker accepted 0 entries" what
    | Error msg -> failf "%s rejected by the checker: %s" what msg
  in
  let expect_reject what = function
    | None -> failf "%s: mutation had nothing to mutate" what
    | Some mutant -> (
        match Check.check inst mutant with
        | Error _ -> ()
        | Ok _ -> failf "%s was accepted by the checker" what)
  in
  let roundtrip what cert =
    match Cert.of_string (Cert.to_string cert) with
    | Error msg -> failf "%s does not re-parse: %s" what msg
    | Ok reparsed ->
        if not (Cert.equal cert reparsed) then
          failf "%s print->parse round trip is not stable" what
  in
  let battery what cert =
    expect_accept what cert;
    roundtrip what cert;
    let index = Int64.to_int (Rng.int64 rng) land max_int in
    expect_reject
      (Printf.sprintf "%s with a raised bound (index %d)" what index)
      (Cert.mutate_raise_bound ~index cert);
    expect_reject
      (Printf.sprintf "%s with a dropped admission (index %d)" what index)
      (Cert.mutate_drop_line ~index cert)
  in
  let _best, bb_cert = Core.Certify.bb inst obj in
  battery "B&B certificate" bb_cert;
  (* A bounded cut is one the incumbent cannot justify, so relabelling
     every such cut dominated must be refused. *)
  (match Cert.mutate_relabel_bounded bb_cert with
  | None -> ()
  | Some mutant ->
      expect_reject "B&B certificate with every bounded cut relabelled"
        (Some mutant));
  if m <= Check.dp_max_procs then
    match Core.Certify.interval inst with
    | _, None -> failf "interval DP emitted no certificate"
    | _, Some dp_cert -> battery "interval DP certificate" dp_cert

(* ------------------------------------------------------------------ *)
(* 14. stream-aggregation: streamed atlas equals materialized batch    *)
(* ------------------------------------------------------------------ *)

let check_stream_aggregation _ctx rng (case : Gen.case) =
  let module Atlas = Service.Atlas in
  let module Stream = Relpipe_obs.Stream in
  let inst = case.Gen.instance and obj = case.Gen.objective in
  let n_stages, m = shape case in
  if n_stages > 6 || m > 5 then
    skipf "size guard: n=%d m=%d (needs n <= 6, m <= 5)" n_stages m;
  (* A small pool of work-scaled variants of the case instance: distinct
     texts, so distinct canonical keys, so the stream mixes misses and
     duplicate-driven hits. *)
  let pool = 4 + Rng.int rng 3 in
  let slots =
    Array.init pool (fun i ->
        let scale = 1.0 +. (0.25 *. float_of_int i) in
        let stages =
          List.map
            (fun (s : Pipeline.stage) ->
              { s with Pipeline.work = s.Pipeline.work *. scale })
            (Pipeline.stages inst.Instance.pipeline)
        in
        let pipeline =
          Pipeline.make ~input:(Pipeline.delta inst.Instance.pipeline 0) stages
        in
        let variant = Instance.make pipeline inst.Instance.platform in
        {
          Atlas.sl_text = Textio.to_string variant;
          sl_objective = obj;
          sl_method = Core.Solver.Auto;
          sl_class = Printf.sprintf "v%d" i;
        })
  in
  let n_events = 96 + Rng.int rng 64 in
  let events =
    Array.init n_events (fun i ->
        {
          Atlas.ev_index = i;
          ev_slot = Rng.int rng pool;
          ev_gap_ns = (if i = 0 then 0 else Rng.int rng 10_000);
        })
  in
  let source = { Atlas.slots; events = (fun f -> Array.iter f events) } in
  let run_stream ~chunk () =
    let engine = Service.Engine.create ~workers:1 ~cache_capacity:64 () in
    Atlas.run ~chunk ~solve:(Service.Engine.run_requests engine) source
  in
  let r = run_stream ~chunk:16 () in
  (* Determinism: a fresh engine and a second pass, byte-identical. *)
  let r2 = run_stream ~chunk:16 () in
  if not (String.equal (Atlas.render r) (Atlas.render r2)) then
    failf "atlas report differs between two identical streamed runs";
  (* Chunk invariance: aggregation must not depend on flush boundaries
     (everything except the chunk bookkeeping itself). *)
  let r7 = run_stream ~chunk:7 () in
  let same_buckets a b =
    List.equal
      (fun (i1, c1) (i2, c2) -> Int.equal i1 i2 && Int.equal c1 c2)
      (Stream.Quantile.buckets a) (Stream.Quantile.buckets b)
  in
  if
    r7.Atlas.solved <> r.Atlas.solved
    || r7.Atlas.infeasible <> r.Atlas.infeasible
    || r7.Atlas.failed <> r.Atlas.failed
    || r7.Atlas.cache_hits <> r.Atlas.cache_hits
    || r7.Atlas.bloom_dups <> r.Atlas.bloom_dups
    || r7.Atlas.distinct_slots <> r.Atlas.distinct_slots
    || (not (same_buckets r7.Atlas.latency r.Atlas.latency))
    || not
         (List.equal
            (fun (p1, h1) (p2, h2) -> Int.equal p1 p2 && Float.equal h1 h2)
            r7.Atlas.curve r.Atlas.curve)
  then failf "atlas aggregates depend on the chunk size (7 vs 16)";
  (* Materialized reference: parse each slot's text back and solve it
     once on an independent engine. *)
  let ref_engine = Service.Engine.create ~workers:1 ~cache_capacity:64 () in
  let slot_outcomes =
    Array.map
      (fun (s : Atlas.slot) ->
        match Textio.parse s.Atlas.sl_text with
        | Error msg -> failf "slot text does not re-parse: %s" msg
        | Ok vinst ->
            (Service.Engine.solve_instance ref_engine vinst
               s.Atlas.sl_objective)
              .Service.Protocol.r_outcome)
      slots
  in
  let exp_solved = ref 0
  and exp_infeasible = ref 0
  and exp_failed = ref 0
  and lats = ref [] in
  let touched = Array.make pool false in
  Array.iter
    (fun (ev : Atlas.event) ->
      touched.(ev.Atlas.ev_slot) <- true;
      match slot_outcomes.(ev.Atlas.ev_slot) with
      | Service.Protocol.Solved { latency; _ } ->
          incr exp_solved;
          lats := latency :: !lats
      | Service.Protocol.Infeasible -> incr exp_infeasible
      | Service.Protocol.Failed _ -> incr exp_failed)
    events;
  let distinct =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 touched
  in
  (* Exact counters: bit-for-bit against the reference computation. *)
  if r.Atlas.requests <> n_events then
    failf "streamed %d requests, expected %d" r.Atlas.requests n_events;
  if
    r.Atlas.solved <> !exp_solved
    || r.Atlas.infeasible <> !exp_infeasible
    || r.Atlas.failed <> !exp_failed
  then
    failf
      "outcome counts diverge: streamed (%d, %d, %d), reference (%d, %d, %d)"
      r.Atlas.solved r.Atlas.infeasible r.Atlas.failed !exp_solved
      !exp_infeasible !exp_failed;
  if r.Atlas.distinct_slots <> distinct then
    failf "distinct slots: streamed %d, reference %d" r.Atlas.distinct_slots
      distinct;
  (* Every slot solves at most once (cache capacity covers the pool), so
     the hit count is exactly stream length minus first occurrences. *)
  if r.Atlas.cache_hits <> n_events - distinct then
    failf "cache hits %d, expected %d (= %d events - %d first occurrences)"
      r.Atlas.cache_hits (n_events - distinct) n_events distinct;
  (match List.rev r.Atlas.curve with
  | (pos, rate) :: _ ->
      if pos <> n_events || not (Float.equal rate (Atlas.hit_rate r)) then
        failf "curve does not end at the stream end with the final hit rate"
  | [] -> failf "empty hit-rate curve on a non-empty stream");
  (* Bloom: duplicates can never be missed; false positives are bounded
     (pool distinct keys against a 65536-key filter — allow a thin
     margin rather than betting on zero collisions). *)
  let exact_dups = n_events - distinct in
  if r.Atlas.bloom_dups < exact_dups then
    failf "bloom missed duplicates: flagged %d, at least %d are real"
      r.Atlas.bloom_dups exact_dups;
  if r.Atlas.bloom_dups > exact_dups + ((n_events / 10) + 1) then
    failf "bloom duplicate count %d far exceeds the real %d"
      r.Atlas.bloom_dups exact_dups;
  (* Sketch vs exact offline quantiles, within the documented relative
     guarantee; and structural equality with an offline sketch fed the
     materialized latencies in reverse, split and merged. *)
  let lats = Array.of_list !lats in
  if Stream.Quantile.count r.Atlas.latency <> Array.length lats then
    failf "latency sketch count %d, reference has %d samples"
      (Stream.Quantile.count r.Atlas.latency)
      (Array.length lats);
  if Array.length lats > 0 then begin
    let sorted = Array.copy lats in
    Array.sort Float.compare sorted;
    let gamma = Stream.Quantile.gamma r.Atlas.latency in
    List.iter
      (fun phi ->
        let rank =
          let k =
            int_of_float
              (Float.ceil (phi *. float_of_int (Array.length sorted)))
          in
          if k < 1 then 1 else k
        in
        let exact = sorted.(rank - 1) in
        let est = Stream.Quantile.quantile r.Atlas.latency phi in
        if
          est < exact *. (1.0 -. 1e-9)
          || est > exact *. gamma *. (1.0 +. 1e-9)
        then
          failf
            "quantile(%g) = %.17g outside [x*, gamma x*] for exact %.17g \
             (gamma %.17g)"
            phi est exact gamma)
      [ 0.5; 0.9; 0.95; 0.99; 1.0 ];
    let half = Array.length lats / 2 in
    let a = Stream.Quantile.create () and b = Stream.Quantile.create () in
    for i = Array.length lats - 1 downto 0 do
      Stream.Quantile.add (if i < half then a else b) lats.(i)
    done;
    let merged = Stream.Quantile.merge a b in
    if not (same_buckets merged r.Atlas.latency) then
      failf "streamed sketch differs structurally from merged offline halves";
    if Stream.Quantile.low_count merged <> Stream.Quantile.low_count r.Atlas.latency
    then failf "low-bucket counts diverge between streamed and offline sketches"
  end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry =
  [
    oracle ~name:"interval-dp" ~salt:1
      ~doc:
        "exact interval DP matches brute-force interval enumeration (small n, m)"
      check_interval_dp;
    oracle ~name:"general-shortest-path" ~salt:2
      ~doc:"general-mapping solvers agree and lower-bound the interval optimum"
      check_general;
    oracle ~name:"heuristics-pareto" ~salt:3
      ~doc:
        "heuristics are feasible, consistent and dominated by the exhaustive \
         Pareto front"
      check_heuristics;
    oracle ~name:"validate-lint" ~salt:4
      ~doc:"solver outputs pass Validate.check and lint with zero errors"
      check_validate;
    oracle ~name:"canon-invariance" ~salt:5
      ~doc:
        "processor renumbering: same cache key, engine cache hit, translated \
         mapping"
      check_canon;
    oracle ~name:"text-roundtrip" ~salt:6
      ~doc:
        "Textio/Mapping_syntax/Protocol print->parse round-trips are \
         byte-identical"
      check_roundtrip;
    oracle ~name:"json-floats" ~salt:7
      ~doc:"JSON float round-trips are bit-identical on adversarial values"
      check_json;
    oracle ~name:"lru" ~salt:8
      ~doc:"Util.Lru matches a reference model at capacities 0, 1 and k"
      check_lru;
    oracle ~name:"metrics-invariance" ~salt:9
      ~doc:"metrics and tracing sinks never change solver or engine responses"
      check_metrics_invariance;
    oracle ~name:"opt-vs-reference" ~salt:10
      ~doc:
        "optimized solver kernels are bit-identical to their frozen reference \
         twins"
      check_opt_vs_reference;
    oracle ~name:"churn-incremental" ~salt:11
      ~doc:
        "warm-started churn re-solves are byte-identical to cold solves at \
         every event"
      check_churn;
    oracle ~name:"par-exact-identity" ~salt:12
      ~doc:
        "parallel B&B and stage-parallel DP are bit-identical to serial at \
         workers 1/2/8"
      check_par_exact;
    oracle ~name:"cert-replay" ~salt:13
      ~doc:
        "emitted certificates pass the independent checker; raised-bound and \
         dropped-line mutants are rejected"
      check_cert_replay;
    oracle ~name:"stream-aggregation" ~salt:14
      ~doc:
        "streamed atlas aggregates equal the batch-materialized reference: \
         counters bit-for-bit, sketches within rank tolerance"
      check_stream_aggregation;
  ]

let all () = registry
let names () = List.map (fun o -> o.Oracle.name) registry
let find name = List.find_opt (fun o -> String.equal o.Oracle.name name) registry
