open Relpipe_model
module Rng = Relpipe_util.Rng

let cost instance procs =
  let { Instance.pipeline; platform } = instance in
  let m = Platform.size platform in
  if Array.length procs <> Pipeline.length pipeline then
    invalid_arg "One_to_one.cost: arity mismatch";
  Latency.of_assignment pipeline platform (Assignment.make ~m procs)

let mapping_of instance procs =
  let { Instance.pipeline; platform } = instance in
  Mapping.one_to_one
    ~n:(Pipeline.length pipeline)
    ~m:(Platform.size platform)
    (Array.to_list procs)

let exact instance =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if n > m then None
  else begin
    let max_speed =
      Array.fold_left Float.max 0.0 (Platform.speeds platform)
    in
    (* Suffix lower bound: remaining computation at the fastest speed
       (communications and the final output are bounded below by 0). *)
    let suffix_bound = Array.make (n + 2) 0.0 in
    for i = n downto 1 do
      suffix_bound.(i) <-
        suffix_bound.(i + 1) +. (Pipeline.work pipeline i /. max_speed)
    done;
    let best_cost = ref Float.infinity in
    let best = Array.make n (-1) in
    let current = Array.make n (-1) in
    let rec branch i used partial =
      if partial +. suffix_bound.(i) >= !best_cost then ()
      else if i > n then begin
        (* Add the final output communication. *)
        let last = current.(n - 1) in
        let total =
          partial
          +. Pipeline.delta pipeline n
             /. Platform.bandwidth platform (Platform.Proc last) Platform.Pout
        in
        if total < !best_cost then begin
          best_cost := total;
          Array.blit current 0 best 0 n
        end
      end
      else
        for u = 0 to m - 1 do
          if not (Relpipe_util.Bitset.mem u used) then begin
            let incoming =
              if i = 1 then
                Pipeline.delta pipeline 0
                /. Platform.bandwidth platform Platform.Pin (Platform.Proc u)
              else
                Pipeline.delta pipeline (i - 1)
                /. Platform.bandwidth platform
                     (Platform.Proc current.(i - 2))
                     (Platform.Proc u)
            in
            let compute = Pipeline.work pipeline i /. Platform.speed platform u in
            current.(i - 1) <- u;
            branch (i + 1)
              (Relpipe_util.Bitset.add u used)
              (partial +. incoming +. compute);
            current.(i - 1) <- -1
          end
        done
    in
    branch 1 Relpipe_util.Bitset.empty 0.0;
    if Float.is_finite !best_cost then Some (!best_cost, mapping_of instance best)
    else None
  end

let greedy_from instance order =
  (* [order] permutes processor preference to diversify restarts. *)
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if n > m then None
  else begin
    let used = Array.make m false in
    let procs = Array.make n (-1) in
    let ok = ref true in
    for i = 1 to n do
      if !ok then begin
        let best_u = ref (-1) and best_c = ref Float.infinity in
        Array.iter
          (fun u ->
            if not used.(u) then begin
              let incoming =
                if i = 1 then
                  Pipeline.delta pipeline 0
                  /. Platform.bandwidth platform Platform.Pin (Platform.Proc u)
                else
                  Pipeline.delta pipeline (i - 1)
                  /. Platform.bandwidth platform
                       (Platform.Proc procs.(i - 2))
                       (Platform.Proc u)
              in
              let compute = Pipeline.work pipeline i /. Platform.speed platform u in
              let outgoing =
                if i = n then
                  Pipeline.delta pipeline n
                  /. Platform.bandwidth platform (Platform.Proc u) Platform.Pout
                else 0.0
              in
              let c = incoming +. compute +. outgoing in
              if c < !best_c then begin
                best_c := c;
                best_u := u
              end
            end)
          order;
        if !best_u < 0 then ok := false
        else begin
          procs.(i - 1) <- !best_u;
          used.(!best_u) <- true
        end
      end
    done;
    if !ok then Some (cost instance procs, procs) else None
  end

let greedy instance =
  match greedy_from instance (Array.init (Platform.size instance.Instance.platform) Fun.id) with
  | None -> None
  | Some (c, procs) -> Some (c, mapping_of instance procs)

let improve instance procs =
  let { Instance.platform; _ } = instance in
  let n = Array.length procs and m = Platform.size platform in
  let used = Array.make m false in
  Array.iter (fun u -> used.(u) <- true) procs;
  let current_cost = ref (cost instance procs) in
  let improved = ref true in
  while !improved do
    improved := false;
    (* Move 1: retarget one stage to an unused processor. *)
    for i = 0 to n - 1 do
      for u = 0 to m - 1 do
        if not used.(u) then begin
          let old = procs.(i) in
          procs.(i) <- u;
          let c = cost instance procs in
          if c < !current_cost then begin
            current_cost := c;
            used.(old) <- false;
            used.(u) <- true;
            improved := true
          end
          else procs.(i) <- old
        end
      done
    done;
    (* Move 2: swap the processors of two stages. *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let pi = procs.(i) and pj = procs.(j) in
        procs.(i) <- pj;
        procs.(j) <- pi;
        let c = cost instance procs in
        if c < !current_cost then begin
          current_cost := c;
          improved := true
        end
        else begin
          procs.(i) <- pi;
          procs.(j) <- pj
        end
      done
    done
  done;
  !current_cost

let exact_bicriteria instance objective =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if n > m then None
  else begin
    let module F = Relpipe_util.Float_cmp in
    let max_speed = Array.fold_left Float.max 0.0 (Platform.speeds platform) in
    let suffix_bound = Array.make (n + 2) 0.0 in
    for i = n downto 1 do
      suffix_bound.(i) <-
        suffix_bound.(i + 1) +. (Pipeline.work pipeline i /. max_speed)
    done;
    let best : Solution.t option ref = ref None in
    let incumbent () =
      match !best with
      | None -> Float.infinity
      | Some s -> Instance.objective_value objective s.Solution.evaluation
    in
    let current = Array.make n (-1) in
    (* Both metrics only grow along a partial assignment, so each doubles
       as an admissible pruning bound. *)
    let prune ~partial_latency ~partial_fp ~next_stage =
      let latency_lb = partial_latency +. suffix_bound.(next_stage) in
      match objective with
      | Instance.Min_latency { max_failure } ->
          (not (F.leq partial_fp max_failure)) || latency_lb >= incumbent ()
      | Instance.Min_failure { max_latency } ->
          (not (F.leq latency_lb max_latency)) || partial_fp >= incumbent ()
    in
    let rec branch i used partial_latency log_survival =
      let partial_fp = -.Float.expm1 log_survival in
      if prune ~partial_latency ~partial_fp ~next_stage:i then ()
      else if i > n then begin
        let last = current.(n - 1) in
        let latency =
          partial_latency
          +. Pipeline.delta pipeline n
             /. Platform.bandwidth platform (Platform.Proc last) Platform.Pout
        in
        let evaluation = { Instance.latency; failure = partial_fp } in
        if Instance.feasible objective evaluation then begin
          let mapping = mapping_of instance current in
          match !best with
          | Some b
            when not (Instance.better objective evaluation b.Solution.evaluation)
            ->
              ()
          | _ -> best := Some { Solution.mapping; evaluation }
        end
      end
      else
        for u = 0 to m - 1 do
          if not (Relpipe_util.Bitset.mem u used) then begin
            let incoming =
              if i = 1 then
                Pipeline.delta pipeline 0
                /. Platform.bandwidth platform Platform.Pin (Platform.Proc u)
              else
                Pipeline.delta pipeline (i - 1)
                /. Platform.bandwidth platform
                     (Platform.Proc current.(i - 2))
                     (Platform.Proc u)
            in
            let compute = Pipeline.work pipeline i /. Platform.speed platform u in
            current.(i - 1) <- u;
            branch (i + 1)
              (Relpipe_util.Bitset.add u used)
              (partial_latency +. incoming +. compute)
              (log_survival +. Float.log1p (-.Platform.failure platform u));
            current.(i - 1) <- -1
          end
        done
    in
    branch 1 Relpipe_util.Bitset.empty 0.0 0.0;
    !best
  end

let restarts = 8

let local_search ?(seed = 42) instance =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if n > m then None
  else begin
    let rng = Rng.create seed in
    let best = ref None in
    let consider procs =
      let c = improve instance procs in
      match !best with
      | Some (bc, _) when bc <= c -> ()
      | _ -> best := Some (c, Array.copy procs)
    in
    (match greedy_from instance (Array.init m Fun.id) with
    | Some (_, procs) -> consider procs
    | None -> ());
    for _ = 1 to restarts do
      match greedy_from instance (Rng.permutation rng m) with
      | Some (_, procs) -> consider procs
      | None -> ()
    done;
    Option.map (fun (c, procs) -> (c, mapping_of instance procs)) !best
  end
