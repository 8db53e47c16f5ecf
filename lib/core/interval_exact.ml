open Relpipe_model
module Obs = Relpipe_obs.Obs
module Pool = Relpipe_pool.Pool
module W = Relpipe_util.Workspace
module F = Relpipe_util.Float_cmp

let max_procs = 14

(* One solve: a snapshot of the instance's cost inputs in flat arrays (the
   hot loop must not allocate [Platform.Proc _] constructors or chase the
   platform representation) plus the DP and parent tables.  Cell
   (e, u, mask) lives at [((e * m) + u) * masks + mask]: the cheapest cost
   of stages 1..e split into intervals on distinct processors (set =
   mask), the last one on u, including the input communication and
   everything up to stage e but not the final output.  Its parent is the
   previous interval's end (e * m) + u, or -1 for a single interval. *)
type table = {
  n : int;
  m : int;
  masks : int;
  wp : float array; (* work prefixes, n + 1 *)
  delta : float array; (* data sizes, n + 1 *)
  spd : float array;
  bw_in : float array; (* Pin -> u *)
  bw_out : float array; (* u -> Pout *)
  bw_pp : float array; (* u -> v at u * m + v, diagonal unused *)
  dp : float array;
  parent : int array;
}

(* Domain-local tables for the one-shot entry points: reusing them across
   calls removes the dominant allocation cost of small solves, and the
   requested prefix is re-initialised on every call so nothing leaks
   between solves (see test/test_reference.ml workspace-reuse tests). *)
let ws_dp = W.floats ()
let ws_parent = W.ints ()

let cells t = (t.n + 1) * t.m * t.masks

let create ~who ~owned instance =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if m > max_procs then
    invalid_arg ("Interval_exact." ^ who ^ ": too many processors (cap 14)");
  let masks = 1 lsl m in
  let len = (n + 1) * m * masks in
  let bw a b = Platform.bandwidth platform a b in
  let bw_pp = Array.make (m * m) 0.0 in
  for u = 0 to m - 1 do
    for v = 0 to m - 1 do
      if u <> v then
        bw_pp.((u * m) + v) <- bw (Platform.Proc u) (Platform.Proc v)
    done
  done;
  {
    n;
    m;
    masks;
    wp = Pipeline.work_prefixes pipeline;
    delta = Array.init (n + 1) (Pipeline.delta pipeline);
    spd = Array.init m (Platform.speed platform);
    bw_in = Array.init m (fun u -> bw Platform.Pin (Platform.Proc u));
    bw_out = Array.init m (fun u -> bw (Platform.Proc u) Platform.Pout);
    bw_pp;
    dp =
      (if owned then Array.make len Float.infinity
       else W.get_floats ws_dp ~len ~fill:Float.infinity);
    parent =
      (if owned then Array.make len (-1)
       else W.get_ints ws_parent ~len ~fill:(-1));
  }

(* Single-interval cells (stages 1..e on v alone) of every v in [dirty]. *)
let base_rows t ~dirty =
  let { n; m; masks; wp; delta; spd; bw_in; dp; _ } = t in
  for v = 0 to m - 1 do
    if dirty land (1 lsl v) <> 0 then begin
      let input = delta.(0) /. bw_in.(v) and sv = spd.(v) in
      for e = 1 to n do
        dp.((((e * m) + v) * masks) + (1 lsl v)) <-
          input +. ((wp.(e) -. wp.(0)) /. sv)
      done
    end
  done

(* The kernel: every relaxation out of source stage [e] into a target
   processor v in [cols] whose target mask meets [dirty], in (u, mask, v,
   e') order with a strict-< update.  Reads only stage-e cells, writes
   only column-[cols] cells at stages above e, and returns the number of
   improvements. *)
let relax t ~dirty ~cols e =
  let { n; m; masks; wp; delta; spd; bw_pp; dp; parent; _ } = t in
  let all = masks - 1 in
  let delta_e = delta.(e) and wp_e = wp.(e) in
  (* The lowest and highest target columns, so that a one-column job
     tests one v per source instead of m. *)
  let v_lo = ref 0 and v_hi = ref (m - 1) in
  while !v_lo < m && cols land (1 lsl !v_lo) = 0 do incr v_lo done;
  while !v_hi >= 0 && cols land (1 lsl !v_hi) = 0 do decr v_hi done;
  let v_lo = !v_lo and v_hi = !v_hi in
  let updates = ref 0 in
  for u = 0 to m - 1 do
    let row = ((e * m) + u) * masks and bw_row = u * m and code = (e * m) + u in
    for mask = 0 to all do
      let base = dp.(row + mask) in
      if Float.is_finite base then begin
        (* A target outside [dirty] already holds its final value. *)
        let avail =
          cols land lnot mask land (if mask land dirty <> 0 then all else dirty)
        in
        for v = v_lo to v_hi do
          if avail land (1 lsl v) <> 0 then begin
            let base_comm = base +. (delta_e /. bw_pp.(bw_row + v)) in
            let sv = spd.(v) in
            let col = (v * masks) + (mask lor (1 lsl v)) in
            for e' = e + 1 to n do
              let cand = base_comm +. ((wp.(e') -. wp_e) /. sv) in
              let cell = (e' * m * masks) + col in
              if cand < dp.(cell) then begin
                dp.(cell) <- cand;
                parent.(cell) <- code;
                incr updates
              end
            done
          end
        done
      end
    done
  done;
  !updates

(* Close against Pout and rebuild the optimum's interval chain. *)
let close t =
  let { n; m; masks; delta; bw_out; dp; parent; _ } = t in
  let best = ref Float.infinity and best_u = ref (-1) and best_mask = ref 0 in
  for u = 0 to m - 1 do
    let out = delta.(n) /. bw_out.(u) in
    let row = ((n * m) + u) * masks in
    for mask = 0 to masks - 1 do
      let total = dp.(row + mask) +. out in
      if total < !best then begin
        best := total;
        best_u := u;
        best_mask := mask
      end
    done
  done;
  if not (Float.is_finite !best) then None
  else begin
    let rec rebuild e u mask acc =
      match parent.((((e * m) + u) * masks) + mask) with
      | -1 -> { Mapping.first = 1; last = e; procs = [ u ] } :: acc
      | code ->
          let pe = code / m and pu = code mod m in
          rebuild pe pu
            (mask land lnot (1 lsl u))
            ({ Mapping.first = pe + 1; last = e; procs = [ u ] } :: acc)
    in
    Some (!best, Mapping.make ~n ~m (rebuild n !best_u !best_mask []))
  end

(* Every finite cell in (e, u, mask) ascending order, with its exact
   stored value. *)
let fold_finite_cells t ~init ~f =
  let { n; m; masks; dp; _ } = t in
  let acc = ref init in
  for e = 1 to n do
    for u = 0 to m - 1 do
      let row = ((e * m) + u) * masks in
      for mask = 1 to masks - 1 do
        let value = dp.(row + mask) in
        if Float.is_finite value then acc := f !acc ~e ~u ~mask value
      done
    done
  done;
  !acc

(* The serial schedule over a fresh table; returns the number of
   improvements. *)
let fill t =
  let all = t.masks - 1 in
  base_rows t ~dirty:all;
  let updates = ref 0 in
  for e = 1 to t.n - 1 do
    updates := !updates + relax t ~dirty:all ~cols:all e
  done;
  !updates

let min_latency_cells instance ~init ~f =
  let t = create ~who:"min_latency_cells" ~owned:false instance in
  ignore (fill t : int);
  let opt = close t in
  (opt, fold_finite_cells t ~init ~f)

let min_latency instance =
  let t = create ~who:"min_latency" ~owned:false instance in
  let obs = Obs.ambient () in
  Obs.incr obs "core.interval_dp.runs";
  Obs.add obs "core.interval_dp.cells" (cells t);
  Obs.add obs "core.interval_dp.states" (fill t);
  close t

let min_latency_par ?(workers = 1) instance =
  let t = create ~who:"min_latency_par" ~owned:false instance in
  let obs = Obs.ambient () in
  Obs.incr obs "core.exact.par.dp.runs";
  Obs.add obs "core.exact.par.dp.cells" (cells t);
  let all = t.masks - 1 in
  base_rows t ~dirty:all;
  let columns = Array.init t.m Fun.id and updates = ref 0 in
  for e = 1 to t.n - 1 do
    (* Stage e's round, one job per target processor v.  Job v writes only
       column-v cells at stages above e and reads only stage-e cells, which
       no job of this round writes (and every earlier round has finished),
       so the jobs share no mutable cell.  Each target still receives its
       candidates in (e, u) order, so values and parents are bit-identical
       to [min_latency]'s at every worker count. *)
    let counts, _stats =
      Pool.map ?obs ~workers
        (fun v -> relax t ~dirty:all ~cols:(1 lsl v) e)
        columns
    in
    Array.iter (fun c -> updates := !updates + c) counts
  done;
  Obs.add obs "core.exact.par.dp.stages" (t.n - 1);
  Obs.add obs "core.exact.par.dp.states" !updates;
  close t

(* ------------------------------------------------------------------ *)
(* Resumable DP for the churn engine.  A cell (e, u, mask) depends only
   on the pipeline and on the attributes of the processors in [mask]
   (their speeds, their Pin input links, and the links between them), so
   after a platform perturbation every cell whose mask avoids the touched
   processors is carried over bit-for-bit from the previous table; only
   cells naming a dirty processor are recomputed — by the same kernel in
   the same order, so values and tie-breaking parents land exactly where a
   cold solve would put them (the churn-incremental fuzz oracle checks
   warm == cold on every event of random traces). *)
module Dp = struct
  type state = table

  type reuse = { cells_reused : int; cells_total : int }

  (* The clean set: current processors whose every cost input matches the
     previous state's counterpart.  [prev_of.(u)] is the previous index of
     current processor [u], [-1] for a processor with no previous
     counterpart (a join).  The mapping must be strictly increasing on its
     defined entries — relative iteration order is what makes previous
     tie-breaking decisions identical to a cold solve's — otherwise
     everything is treated as dirty. *)
  let dirty_set ~prev ~prev_of t =
    let m = t.m in
    let full = t.masks - 1 in
    let arrays_eq a b =
      Array.length a = Array.length b
      && (let ok = ref true in
          Array.iteri
            (fun i x -> if not (F.same_bits x b.(i)) then ok := false)
            a;
          !ok)
    in
    if
      prev.n <> t.n
      || Array.length prev_of <> m
      || not (arrays_eq prev.wp t.wp)
      || not (arrays_eq prev.delta t.delta)
    then full
    else begin
      let monotone = ref true and last = ref (-1) in
      Array.iter
        (fun p ->
          if p >= 0 then begin
            if p <= !last || p >= prev.m then monotone := false;
            last := p
          end)
        prev_of;
      if not !monotone then full
      else begin
        let dirty = ref 0 in
        for u = 0 to m - 1 do
          let p = prev_of.(u) in
          let clean_base =
            p >= 0
            && F.same_bits t.spd.(u) prev.spd.(p)
            && F.same_bits t.bw_in.(u) prev.bw_in.(p)
          in
          if not clean_base then dirty := !dirty lor (1 lsl u)
        done;
        let base_dirty = !dirty in
        (* A changed link dirties both endpoints: masks containing either
           are recomputed, masks containing neither never price it. *)
        for u = 0 to m - 1 do
          if base_dirty land (1 lsl u) = 0 then
            for v = u + 1 to m - 1 do
              if base_dirty land (1 lsl v) = 0 then begin
                let pu = prev_of.(u) and pv = prev_of.(v) in
                if
                  not
                    (F.same_bits
                       t.bw_pp.((u * m) + v)
                       prev.bw_pp.((pu * prev.m) + pv))
                then dirty := !dirty lor (1 lsl u) lor (1 lsl v)
              end
            done
        done;
        !dirty
      end
    end

  (* Copy every cell whose mask lies in [clean] from the previous table,
     translating indices; returns the number of cells carried. *)
  let carry ~prev ~prev_of ~clean t =
    let { n; m; masks; dp; parent; _ } = t in
    let cur_of_prev = Array.make prev.m (-1) in
    Array.iteri (fun u p -> if p >= 0 then cur_of_prev.(p) <- u) prev_of;
    let reused = ref 0 in
    let sub = ref clean in
    while !sub <> 0 do
      let cmask = !sub in
      (* Translate the mask into the previous index space. *)
      let pmask = ref 0 in
      for u = 0 to m - 1 do
        if cmask land (1 lsl u) <> 0 then
          pmask := !pmask lor (1 lsl prev_of.(u))
      done;
      for u = 0 to m - 1 do
        if cmask land (1 lsl u) <> 0 then begin
          let pu = prev_of.(u) in
          for e = 1 to n do
            let cell = (((e * m) + u) * masks) + cmask in
            let pcell = (((e * prev.m) + pu) * prev.masks) + !pmask in
            dp.(cell) <- prev.dp.(pcell);
            (match prev.parent.(pcell) with
            | -1 -> ()
            | code ->
                let pe = code / prev.m and pv = code mod prev.m in
                parent.(cell) <- (pe * m) + cur_of_prev.(pv));
            incr reused
          done
        end
      done;
      sub := (cmask - 1) land clean
    done;
    !reused

  let solve ?warm instance =
    let t = create ~who:"Dp.solve" ~owned:true instance in
    let all = t.masks - 1 in
    let dirty, reused =
      match warm with
      | None -> (all, 0)
      | Some (prev, prev_of) ->
          let dirty = dirty_set ~prev ~prev_of t in
          let clean = all land lnot dirty in
          (dirty, if clean = 0 then 0 else carry ~prev ~prev_of ~clean t)
    in
    base_rows t ~dirty;
    for e = 1 to t.n - 1 do
      ignore (relax t ~dirty ~cols:all e : int)
    done;
    let reuse =
      { cells_reused = reused; cells_total = t.n * t.m * (t.masks / 2) }
    in
    (close t, t, reuse)

  let fold_finite_cells = fold_finite_cells
end

let interval_vs_general_gap instance =
  match min_latency instance with
  | None -> Float.nan
  | Some (interval_opt, _) ->
      interval_opt /. General_mapping.optimal_latency instance
