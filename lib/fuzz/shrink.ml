open Relpipe_model
module F = Relpipe_util.Float_cmp

let max_checks = 1000

type result = { case : Gen.case; steps : int; checks : int }

(* Round to three significant digits via the printer; keeps the value in
   range (and positive when it was). *)
let round_sig3 v =
  if Float.is_finite v then float_of_string (Printf.sprintf "%.3g" v) else v

let copy (f : Surgery.flat) =
  {
    f with
    Surgery.stages = Array.copy f.Surgery.stages;
    speeds = Array.copy f.Surgery.speeds;
    failures = Array.copy f.Surgery.failures;
    bw = Array.map Array.copy f.Surgery.bw;
  }

(* Every float in the flat instance, with its simplification target and a
   functional setter.  Failure probabilities round toward 0.5 — rounding
   them to 1.0 would trip the fp = 1 lint error and mask the original
   failure behind a solver guard. *)
let sites (f : Surgery.flat) =
  let acc = ref [] in
  let add v target set = acc := (v, target, set) :: !acc in
  add f.Surgery.input 1.0 (fun v -> { (copy f) with Surgery.input = v });
  Array.iteri
    (fun i (w, d) ->
      add w 1.0 (fun v ->
          let g = copy f in
          g.Surgery.stages.(i) <- (v, d);
          g);
      add d 1.0 (fun v ->
          let g = copy f in
          g.Surgery.stages.(i) <- (w, v);
          g))
    f.Surgery.stages;
  Array.iteri
    (fun i s ->
      add s 1.0 (fun v ->
          let g = copy f in
          g.Surgery.speeds.(i) <- v;
          g))
    f.Surgery.speeds;
  Array.iteri
    (fun i p ->
      add p 0.5 (fun v ->
          let g = copy f in
          g.Surgery.failures.(i) <- v;
          g))
    f.Surgery.failures;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j b ->
          if i < j then
            add b 1.0 (fun v ->
                let g = copy f in
                g.Surgery.bw.(i).(j) <- v;
                g.Surgery.bw.(j).(i) <- v;
                g))
        row)
    f.Surgery.bw;
  List.rev !acc

(* How far a float is from fully shrunk: 0 at its target value, 1 when
   already rounded to three significant digits, 2 otherwise. *)
let float_cost v target =
  if F.same_bits v target then 0
  else if F.same_bits v (round_sig3 v) then 1
  else 2

(* Structural size dominates, then the number of unsimplified floats.
   Candidates are only accepted when this strictly decreases, which rules
   out oscillation (e.g. an objective threshold flipping 1.0 <-> 0.5
   while the oracle keeps failing) and guarantees termination. *)
let complexity (flat : Surgery.flat) obj =
  let structural =
    Array.length flat.Surgery.stages + Array.length flat.Surgery.speeds
  in
  let floats =
    List.fold_left (fun acc (v, t, _) -> acc + float_cost v t) 0 (sites flat)
  in
  let objective =
    match obj with
    | Instance.Min_latency { max_failure } -> float_cost max_failure 1.0
    | Instance.Min_failure { max_latency } -> float_cost max_latency 1.0
  in
  (10_000 * structural) + floats + objective

let candidates (flat : Surgery.flat) obj =
  let n = Array.length flat.Surgery.stages
  and m = Array.length flat.Surgery.speeds in
  let structural =
    List.concat
      [
        (if n > 1 then List.init n (fun i -> (Surgery.drop_stage flat i, obj))
         else []);
        (if m > 1 then List.init m (fun u -> (Surgery.drop_proc flat u, obj))
         else []);
      ]
  in
  let numeric =
    List.concat_map
      (fun (v, target, set) ->
        List.filter_map
          (fun v' -> if F.same_bits v v' then None else Some (set v', obj))
          [ target; round_sig3 v ])
      (sites flat)
  in
  let objective =
    let simpl mk thr targets =
      List.filter_map
        (fun t -> if F.same_bits t thr then None else Some (flat, mk t))
        (targets @ [ round_sig3 thr ])
    in
    match obj with
    | Instance.Min_latency { max_failure } ->
        simpl (fun t -> Instance.Min_latency { max_failure = t }) max_failure
          [ 1.0; 0.5 ]
    | Instance.Min_failure { max_latency } ->
        simpl (fun t -> Instance.Min_failure { max_latency = t }) max_latency
          [ 1.0 ]
  in
  structural @ numeric @ objective

let minimize (oracle : Oracle.t) ctx (case : Gen.case) =
  let checks = ref 0 and steps = ref 0 in
  let still_fails c =
    incr checks;
    Oracle.is_fail (oracle.Oracle.check ctx c)
  in
  let current = ref case in
  let improved = ref true in
  while !improved && !checks < max_checks do
    improved := false;
    let cur = !current in
    let flat = Surgery.flatten cur.Gen.instance in
    let bar = complexity flat cur.Gen.objective in
    try
      List.iter
        (fun (f, obj) ->
          if !checks >= max_checks then raise Exit;
          match Surgery.build f with
          | None -> ()
          | Some inst ->
              let c =
                Gen.of_instance ~id:case.Gen.id ~seed:case.Gen.seed inst obj
              in
              if complexity f obj < bar && still_fails c then begin
                current := c;
                incr steps;
                improved := true;
                raise Exit
              end)
        (candidates flat cur.Gen.objective)
    with Exit -> ()
  done;
  { case = !current; steps = !steps; checks = !checks }
