open Relpipe_model
module Rng = Relpipe_util.Rng

type name =
  | Single_greedy
  | Split_replicate
  | Local_search
  | Annealing
  | Iterated

let all_names =
  [ Single_greedy; Split_replicate; Local_search; Annealing; Iterated ]

let name_to_string = function
  | Single_greedy -> "single-greedy"
  | Split_replicate -> "split-replicate"
  | Local_search -> "local-search"
  | Annealing -> "annealing"
  | Iterated -> "iterated-ls"

let dims instance =
  (Pipeline.length instance.Instance.pipeline, Platform.size instance.Instance.platform)

let feasible objective (s : Solution.t) =
  Instance.feasible objective s.Solution.evaluation

let keep_best objective best s =
  if feasible objective s then Solution.best objective best (Some s) else best

(* ------------------------------------------------------------------ *)
(* Single-interval greedy                                              *)
(* ------------------------------------------------------------------ *)

let single_of instance procs =
  let n, m = dims instance in
  Solution.of_mapping instance (Mapping.single_interval ~n ~m procs)

let single_greedy instance objective =
  let platform = instance.Instance.platform in
  let by_reliability = Mono.most_reliable_procs platform in
  let by_speed = Mono.fastest_procs platform in
  let grow order =
    (* Greedily extend the replication set in the given preference order,
       keeping every prefix-extension that preserves feasibility; also
       remember the best feasible intermediate. *)
    let best = ref None in
    let rec go current = function
      | [] -> ()
      | u :: tl ->
          let candidate = single_of instance (u :: current) in
          if feasible objective candidate then begin
            best := keep_best objective !best candidate;
            go (u :: current) tl
          end
          else go current tl
    in
    go [] order;
    !best
  in
  (* Also consider plain prefixes of both orders (the optimal shape on
     homogeneous platforms). *)
  let prefixes order =
    let rec go acc current = function
      | [] -> acc
      | u :: tl ->
          let current = u :: current in
          let acc = keep_best objective acc (single_of instance current) in
          go acc current tl
    in
    go None [] order
  in
  List.fold_left
    (Solution.best objective)
    None
    [ grow by_reliability; grow by_speed; prefixes by_reliability; prefixes by_speed ]

(* ------------------------------------------------------------------ *)
(* Split and replicate                                                 *)
(* ------------------------------------------------------------------ *)

let balanced_composition pipeline p =
  (* Cut the pipeline into p intervals of roughly equal work. *)
  let n = Pipeline.length pipeline in
  let total = Pipeline.total_work pipeline in
  let target j = float_of_int j *. total /. float_of_int p in
  let cuts = ref [] in
  let made = ref 0 in
  let acc = ref 0.0 in
  for k = 1 to n - 1 do
    acc := !acc +. Pipeline.work pipeline k;
    (* Cut after stage k when we crossed the next target, keeping enough
       stages for the remaining intervals. *)
    if
      !made < p - 1
      && !acc >= target (!made + 1)
      && n - k >= p - 1 - !made
    then begin
      cuts := k :: !cuts;
      incr made
    end
  done;
  (* Force remaining cuts at the tail if work was too front-loaded. *)
  let rec force k =
    if !made < p - 1 then begin
      if not (List.mem k !cuts) then begin
        cuts := k :: !cuts;
        incr made
      end;
      force (k - 1)
    end
  in
  force (n - 1);
  let bounds = List.sort Int.compare !cuts in
  let rec build first = function
    | [] -> [ (first, n) ]
    | c :: tl -> (first, c) :: build (c + 1) tl
  in
  build 1 bounds

let seeded_split pipeline platform p =
  let intervals = Array.of_list (balanced_composition pipeline p) in
  if Array.length intervals <> p then None
  else begin
    (* Seed: pair the largest-work interval with the fastest processor. *)
    let order_by_work =
      List.sort
        (fun i j ->
          Float.compare
            (Pipeline.work_sum pipeline ~first:(fst intervals.(j)) ~last:(snd intervals.(j)))
            (Pipeline.work_sum pipeline ~first:(fst intervals.(i)) ~last:(snd intervals.(i))))
        (List.init p Fun.id)
    in
    let fastest = Array.of_list (Mono.fastest_procs platform) in
    let sets = Array.make p [] in
    List.iteri (fun rank j -> sets.(j) <- [ fastest.(rank) ]) order_by_work;
    Some (intervals, sets)
  end

let split_replicate instance objective =
  let { Instance.pipeline; platform } = instance in
  let n, m = dims instance in
  let best = ref None in
  let try_split (intervals, sets) =
    let p = Array.length intervals in
    let used = Array.make m false in
    Array.iter (fun procs -> List.iter (fun u -> used.(u) <- true) procs) sets;
    let build () =
      Mapping.make ~n ~m
        (List.init p (fun j ->
             { Mapping.first = fst intervals.(j); last = snd intervals.(j);
               procs = List.sort Int.compare sets.(j) }))
    in
    let current = ref (Solution.of_mapping instance (build ())) in
    best := keep_best objective !best !current;
    (* Greedy replica additions: pick the (processor, interval) pair that
       best improves the score until no addition helps. *)
    let score (s : Solution.t) =
      let e = s.Solution.evaluation in
      match objective with
      | Instance.Min_latency { max_failure } ->
          let viol = Float.max 0.0 (e.Instance.failure -. max_failure) in
          (viol, e.Instance.latency)
      | Instance.Min_failure { max_latency } ->
          let viol = Float.max 0.0 (e.Instance.latency -. max_latency) in
          (viol, e.Instance.failure)
    in
    let improved = ref true in
    while !improved do
      improved := false;
      let current_score = score !current in
      let best_move = ref None in
      for u = 0 to m - 1 do
        if not used.(u) then
          for j = 0 to p - 1 do
            sets.(j) <- u :: sets.(j);
            let cand = Solution.of_mapping instance (build ()) in
            let sc = score cand in
            if sc < current_score then begin
              match !best_move with
              | Some (bsc, _, _, _) when bsc <= sc -> ()
              | _ -> best_move := Some (sc, u, j, cand)
            end;
            sets.(j) <- List.tl sets.(j)
          done
      done;
      match !best_move with
      | Some (_, u, j, cand) ->
          sets.(j) <- u :: sets.(j);
          used.(u) <- true;
          current := cand;
          best := keep_best objective !best cand;
          improved := true
      | None -> ()
    done
  in
  for p = 1 to min n m do
    Option.iter try_split (seeded_split pipeline platform p)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Local search and simulated annealing                                *)
(* ------------------------------------------------------------------ *)

(* Mutable search state: interval boundaries plus per-interval processor
   sets. *)
type state = { bounds : (int * int) array; sets : int list array }

let state_of_mapping mapping =
  let ivs = Array.of_list (Mapping.intervals mapping) in
  {
    bounds = Array.map (fun iv -> (iv.Mapping.first, iv.Mapping.last)) ivs;
    sets = Array.map (fun iv -> iv.Mapping.procs) ivs;
  }

let mapping_of_state ~n ~m st =
  Mapping.make ~n ~m
    (List.init (Array.length st.bounds) (fun j ->
         {
           Mapping.first = fst st.bounds.(j);
           last = snd st.bounds.(j);
           procs = List.sort Int.compare st.sets.(j);
         }))

let unused_procs ~m st =
  let used = Array.make m false in
  Array.iter (List.iter (fun u -> used.(u) <- true)) st.sets;
  List.filter (fun u -> not used.(u)) (List.init m Fun.id)

(* Each move returns a fresh state, or None when inapplicable. *)
let move_shift rng st =
  let p = Array.length st.bounds in
  if p < 2 then None
  else begin
    let j = Rng.int rng (p - 1) in
    let f1, l1 = st.bounds.(j) and f2, l2 = st.bounds.(j + 1) in
    let grow_left = Rng.bool rng in
    if grow_left && l2 > f2 then begin
      let bounds = Array.copy st.bounds in
      bounds.(j) <- (f1, l1 + 1);
      bounds.(j + 1) <- (f2 + 1, l2);
      Some { st with bounds }
    end
    else if (not grow_left) && l1 > f1 then begin
      let bounds = Array.copy st.bounds in
      bounds.(j) <- (f1, l1 - 1);
      bounds.(j + 1) <- (f2 - 1, l2);
      Some { st with bounds }
    end
    else None
  end

let move_split rng st =
  let p = Array.length st.bounds in
  let candidates =
    List.filter
      (fun j ->
        let f, l = st.bounds.(j) in
        l > f && List.length st.sets.(j) >= 2)
      (List.init p Fun.id)
  in
  if candidates = [] then None
  else begin
    let j = List.nth candidates (Rng.int rng (List.length candidates)) in
    let f, l = st.bounds.(j) in
    let cut = f + Rng.int rng (l - f) in
    let procs = Array.of_list st.sets.(j) in
    Rng.shuffle rng procs;
    let k = 1 + Rng.int rng (Array.length procs - 1) in
    let left = Array.to_list (Array.sub procs 0 k) in
    let right = Array.to_list (Array.sub procs k (Array.length procs - k)) in
    let bounds =
      Array.concat
        [ Array.sub st.bounds 0 j; [| (f, cut); (cut + 1, l) |];
          Array.sub st.bounds (j + 1) (p - j - 1) ]
    in
    let sets =
      Array.concat
        [ Array.sub st.sets 0 j; [| left; right |];
          Array.sub st.sets (j + 1) (p - j - 1) ]
    in
    Some { bounds; sets }
  end

let move_merge rng st =
  let p = Array.length st.bounds in
  if p < 2 then None
  else begin
    let j = Rng.int rng (p - 1) in
    let f1, _ = st.bounds.(j) and _, l2 = st.bounds.(j + 1) in
    let bounds =
      Array.concat
        [ Array.sub st.bounds 0 j; [| (f1, l2) |];
          Array.sub st.bounds (j + 2) (p - j - 2) ]
    in
    let sets =
      Array.concat
        [ Array.sub st.sets 0 j; [| st.sets.(j) @ st.sets.(j + 1) |];
          Array.sub st.sets (j + 2) (p - j - 2) ]
    in
    Some { bounds; sets }
  end

let move_add_proc rng ~m st =
  match unused_procs ~m st with
  | [] -> None
  | unused ->
      let u = List.nth unused (Rng.int rng (List.length unused)) in
      let j = Rng.int rng (Array.length st.bounds) in
      let sets = Array.copy st.sets in
      sets.(j) <- u :: sets.(j);
      Some { st with sets }

let move_drop_proc rng st =
  let candidates =
    List.filter
      (fun j -> List.length st.sets.(j) >= 2)
      (List.init (Array.length st.bounds) Fun.id)
  in
  if candidates = [] then None
  else begin
    let j = List.nth candidates (Rng.int rng (List.length candidates)) in
    let k = Rng.int rng (List.length st.sets.(j)) in
    let sets = Array.copy st.sets in
    sets.(j) <- List.filteri (fun i _ -> i <> k) st.sets.(j);
    Some { st with sets }
  end

let move_swap_proc rng ~m st =
  match unused_procs ~m st with
  | [] -> None
  | unused ->
      let u = List.nth unused (Rng.int rng (List.length unused)) in
      let j = Rng.int rng (Array.length st.bounds) in
      let procs = Array.of_list st.sets.(j) in
      let k = Rng.int rng (Array.length procs) in
      procs.(k) <- u;
      let sets = Array.copy st.sets in
      sets.(j) <- Array.to_list procs;
      Some { st with sets }

let random_move rng ~m st =
  let moves =
    [|
      move_shift rng;
      move_split rng;
      move_merge rng;
      move_add_proc rng ~m;
      move_drop_proc rng;
      move_swap_proc rng ~m;
    |]
  in
  let start = Rng.int rng (Array.length moves) in
  let rec try_from i attempts =
    if attempts = 0 then None
    else
      match moves.((start + i) mod Array.length moves) st with
      | Some st' -> Some st'
      | None -> try_from (i + 1) (attempts - 1)
  in
  try_from 0 (Array.length moves)

let energy objective ~latency_scale (e : Instance.evaluation) =
  match objective with
  | Instance.Min_latency { max_failure } ->
      (e.Instance.latency /. latency_scale)
      +. (10.0 *. Float.max 0.0 (e.Instance.failure -. max_failure))
  | Instance.Min_failure { max_latency } ->
      e.Instance.failure
      +. 10.0
         *. Float.max 0.0 ((e.Instance.latency -. max_latency) /. latency_scale)

let search ~accept ~iterations ~seed instance objective =
  let n, m = dims instance in
  let rng = Rng.create seed in
  let initial =
    Mapping.single_interval ~n ~m [ Mono.fastest_proc instance.Instance.platform ]
  in
  let latency_scale =
    Float.max 1e-9
      (Latency.of_mapping instance.Instance.pipeline instance.Instance.platform
         initial)
  in
  let energy_of e = energy objective ~latency_scale e in
  let current = ref (state_of_mapping initial) in
  let current_solution = ref (Solution.of_mapping instance initial) in
  let best = ref (keep_best objective None !current_solution) in
  for step = 0 to iterations - 1 do
    match random_move rng ~m !current with
    | None -> ()
    | Some st' ->
        let s' = Solution.of_mapping instance (mapping_of_state ~n ~m st') in
        let de =
          energy_of s'.Solution.evaluation
          -. energy_of !current_solution.Solution.evaluation
        in
        if accept rng ~step ~iterations de then begin
          current := st';
          current_solution := s'
        end;
        best := keep_best objective !best s'
  done;
  !best

let local_search ?(seed = 1) ?(iterations = 4000) instance objective =
  let accept _rng ~step:_ ~iterations:_ de = de < 0.0 in
  search ~accept ~iterations ~seed instance objective

let annealing ?(seed = 1) ?(iterations = 8000) instance objective =
  let t0 = 1.0 and t1 = 1e-4 in
  let accept rng ~step ~iterations de =
    if de < 0.0 then true
    else begin
      let frac = float_of_int step /. float_of_int (max 1 (iterations - 1)) in
      let temp = t0 *. ((t1 /. t0) ** frac) in
      Rng.float rng 1.0 < Float.exp (-.de /. temp)
    end
  in
  search ~accept ~iterations ~seed instance objective

(* Iterated local search: [rounds] rounds of a [descent]-step hill climb. *)
let rounds = 12
let descent = 600

let iterated ?(seed = 1) instance objective =
  let n, m = dims instance in
  let rng = Rng.create seed in
  let initial =
    Mapping.single_interval ~n ~m [ Mono.fastest_proc instance.Instance.platform ]
  in
  let latency_scale =
    Float.max 1e-9
      (Latency.of_mapping instance.Instance.pipeline instance.Instance.platform
         initial)
  in
  let energy_of s = energy objective ~latency_scale s.Solution.evaluation in
  let best = ref (keep_best objective None (Solution.of_mapping instance initial)) in
  let current = ref (state_of_mapping initial) in
  let current_solution = ref (Solution.of_mapping instance initial) in
  let descend () =
    for _ = 1 to descent do
      match random_move rng ~m !current with
      | None -> ()
      | Some st' ->
          let s' = Solution.of_mapping instance (mapping_of_state ~n ~m st') in
          if energy_of s' < energy_of !current_solution then begin
            current := st';
            current_solution := s'
          end;
          best := keep_best objective !best s'
    done
  in
  let perturb () =
    for _ = 1 to 3 do
      match random_move rng ~m !current with
      | None -> ()
      | Some st' ->
          current := st';
          current_solution :=
            Solution.of_mapping instance (mapping_of_state ~n ~m st')
    done
  in
  descend ();
  for _ = 2 to rounds do
    perturb ();
    descend ()
  done;
  !best

let run ?(seed = 1) name instance objective =
  match name with
  | Single_greedy -> single_greedy instance objective
  | Split_replicate -> split_replicate instance objective
  | Local_search -> local_search ~seed instance objective
  | Annealing -> annealing ~seed instance objective
  | Iterated -> iterated ~seed instance objective

let best_of ?(seed = 1) instance objective =
  List.fold_left
    (fun acc name -> Solution.best objective acc (run ~seed name instance objective))
    None all_names
