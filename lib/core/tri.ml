open Relpipe_model
module F = Relpipe_util.Float_cmp

type evaluation = { latency : float; period : float; failure : float }

type constraints = { max_latency : float; max_period : float }

type solution = { mapping : Mapping.t; evaluation : evaluation }

let evaluate instance mapping =
  let { Instance.pipeline; platform } = instance in
  {
    latency = Latency.of_mapping pipeline platform mapping;
    period = Period.of_mapping pipeline platform mapping;
    failure = Failure.of_mapping platform mapping;
  }

let feasible ?eps c e =
  F.leq ?eps e.latency c.max_latency && F.leq ?eps e.period c.max_period

let exact_min_failure instance constraints =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if not (Exact.within_budget ~budget:Exact.max_mappings ~n ~m) then
    raise (Exact.Too_large "Tri.exact_min_failure: over budget");
  let best = ref None in
  Exact.iter_mappings ~n ~m (fun mapping ->
      let e = evaluate instance mapping in
      if feasible constraints e then begin
        match !best with
        | Some b when b.evaluation.failure <= e.failure -> ()
        | _ -> best := Some { mapping; evaluation = e }
      end);
  !best

let greedy_min_failure instance constraints =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let best = ref None in
  let keep mapping =
    let e = evaluate instance mapping in
    if feasible constraints e then begin
      match !best with
      | Some b when b.evaluation.failure <= e.failure -> ()
      | _ -> best := Some { mapping; evaluation = e }
    end
  in
  let try_split (intervals, sets) =
    let p = Array.length intervals in
    let used = Array.make m false in
    Array.iter (List.iter (fun u -> used.(u) <- true)) sets;
    let build () =
      Mapping.make ~n ~m
        (List.init p (fun j ->
             {
               Mapping.first = fst intervals.(j);
               last = snd intervals.(j);
               procs = List.sort Int.compare sets.(j);
             }))
    in
    keep (build ());
    (* Greedy additions: take the (proc, interval) pair that most reduces
       FP while both thresholds stay satisfied. *)
    let improved = ref true in
    while !improved do
      improved := false;
      let current_best_fp =
        match !best with Some b -> b.evaluation.failure | None -> Float.infinity
      in
      let best_move = ref None in
      for u = 0 to m - 1 do
        if not used.(u) then
          for j = 0 to p - 1 do
            sets.(j) <- u :: sets.(j);
            let mapping = build () in
            let e = evaluate instance mapping in
            if feasible constraints e && e.failure < current_best_fp then begin
              match !best_move with
              | Some (fp, _, _) when fp <= e.failure -> ()
              | _ -> best_move := Some (e.failure, u, j)
            end;
            sets.(j) <- List.tl sets.(j)
          done
      done;
      match !best_move with
      | Some (_, u, j) ->
          sets.(j) <- u :: sets.(j);
          used.(u) <- true;
          keep (build ());
          improved := true
      | None -> ()
    done
  in
  for p = 1 to min n m do
    Option.iter try_split (Heuristics.seeded_split pipeline platform p)
  done;
  !best

let pp_evaluation ppf e =
  Format.fprintf ppf "latency=%g period=%g failure=%g" e.latency e.period
    e.failure
