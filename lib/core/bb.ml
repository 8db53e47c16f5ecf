open Relpipe_model
module B = Relpipe_util.Bitset
module F = Relpipe_util.Float_cmp
module Obs = Relpipe_obs.Obs
module Pool = Relpipe_pool.Pool
module Cert = Relpipe_cert.Cert

type stats = { nodes : int; evaluated : int; pruned : int }

(* ------------------------------------------------------------------ *)
(* Epsilon-safe bound inflation                                        *)
(* ------------------------------------------------------------------ *)

(* The one slack constant shared by every sound-upper-bound cut: churn
   warm starts and every search state's own incumbent both inflate a
   known-feasible objective by [prune_slack] (relative, with an absolute
   floor of the same magnitude) before using it as a bound.  The slack
   strictly dominates the eps-tolerance of {!Instance.better} (16 x
   its default eps), so an optimum that ties the bound within tolerance
   is never cut.  test/test_par_exact.ml pins the value. *)
let prune_slack = 16. *. F.default_eps
let inflate_bound b = b +. (prune_slack *. Float.max 1.0 (Float.abs b))

(* Lock-free monotone-min cell: the shared incumbent of the parallel
   probe.  [improve] is a CAS retry loop; losing a race only means
   re-reading a value that some other domain already lowered, so no
   published improvement is ever lost (test/test_par_exact.ml races 8
   domains over one cell to check exactly that). *)
module Bound = struct
  type t = float Atomic.t

  let create v = Atomic.make v
  let get = Atomic.get

  let rec improve t v =
    let cur = Atomic.get t in
    if v < cur && not (Atomic.compare_and_set t cur v) then improve t v
end

(* ------------------------------------------------------------------ *)
(* Per-solve snapshot                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything the search reads, built once per call and immutable after:
   flat copies of the instance, so the search never allocates
   [Platform.Proc _] endpoints or re-derives interval work sums, plus
   three per-mask tables.  Every processor subset becomes a root child,
   so a search not cut at the root reads every table entry anyway;
   filling them up front costs nothing extra, and being read-only they
   can be shared by every domain of a parallel solve.  Beyond
   [memo_max_procs] the 2^m tables would dwarf the search itself, so they
   stay empty and the accessors compute each term directly. *)
let memo_max_procs = 16

type snapshot = {
  platform : Platform.t;
  objective : Instance.objective;
  n : int;
  m : int;
  wp : float array;  (* work prefix sums, wp.(k) = w_1 + ... + w_k *)
  deltas : float array;  (* deltas.(k) = delta_k *)
  spd : float array;
  bw_out : float array;  (* u -> Pout *)
  bw_pp : float array;  (* u -> v at u*m+v, diagonal unused *)
  rem : float array;  (* rem.(d): remaining-work bound after stage d *)
  minspd : float array;  (* slowest speed in the mask *)
  input : float array;  (* cost of the Pin sends to every mask member *)
  logsurv : float array;  (* log1p (-. interval failure) of the mask *)
}

(* Slowest speed in [procs].  Ascending scan, matching the reference's
   fold order. *)
let compute_min_speed s procs =
  let mask = (procs : B.t :> int) in
  let acc = ref Float.infinity in
  for u = 0 to s.m - 1 do
    if mask land (1 lsl u) <> 0 then acc := Float.min !acc s.spd.(u)
  done;
  !acc

(* Cost of the input sends to every member of [subset].  Ascending
   accumulation, matching the reference's fold order. *)
let compute_input_cost s subset =
  let mask = (subset : B.t :> int) in
  let acc = ref 0.0 in
  for u = 0 to s.m - 1 do
    if mask land (1 lsl u) <> 0 then
      acc :=
        !acc
        +. s.deltas.(0)
           /. Platform.bandwidth s.platform Platform.Pin (Platform.Proc u)
  done;
  !acc

(* log1p (-. pi) of a replication set. *)
let compute_log_survival s subset =
  Float.log1p (-.Failure.interval_failure s.platform (B.elements subset))

let tabulate s compute =
  let table = Array.make (1 lsl s.m) Float.nan in
  B.iter_nonempty_subsets
    (fun subset -> table.((subset : B.t :> int)) <- compute s subset)
    (B.full s.m);
  table

let lookup s table compute subset =
  if s.m > memo_max_procs then compute s subset
  else table.((subset : B.t :> int))

let min_speed s procs = lookup s s.minspd compute_min_speed procs
let input_cost s subset = lookup s s.input compute_input_cost subset
let log_survival_term s subset = lookup s s.logsurv compute_log_survival subset

let snapshot instance objective =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if m > B.max_width then invalid_arg "Bb.solve: too many processors";
  let wp = Pipeline.work_prefixes pipeline in
  let bw_pp = Array.make (m * m) 0.0 in
  for u = 0 to m - 1 do
    for v = 0 to m - 1 do
      if u <> v then
        bw_pp.((u * m) + v) <-
          Platform.bandwidth platform (Platform.Proc u) (Platform.Proc v)
    done
  done;
  let max_speed = Array.fold_left Float.max 0.0 (Platform.speeds platform) in
  let rem = Array.make (n + 1) 0.0 in
  for d = 0 to n - 1 do
    rem.(d) <- (wp.(n) -. wp.(d)) /. max_speed
  done;
  let s =
    {
      platform;
      objective;
      n;
      m;
      wp;
      deltas = Array.init (n + 1) (Pipeline.delta pipeline);
      spd = Array.init m (Platform.speed platform);
      bw_out =
        Array.init m (fun u ->
            Platform.bandwidth platform (Platform.Proc u) Platform.Pout);
      bw_pp;
      rem;
      minspd = [||];
      input = [||];
      logsurv = [||];
    }
  in
  if m > memo_max_procs then s
  else
    {
      s with
      minspd = tabulate s compute_min_speed;
      input = tabulate s compute_input_cost;
      logsurv = tabulate s compute_log_survival;
    }

(* Lower bound on a pending interval's eventual term: its computation on
   its own slowest replica (outgoing communications >= 0).  Division by a
   positive speed is antitone and rounding is monotone, so the reference's
   max over [work /. speed u] is exactly [work /. min speed] — one
   division against the tabulated slowest speed. *)
let pending_bound s (first, last, procs) =
  let work = s.wp.(last) -. s.wp.(first - 1) in
  work /. min_speed s procs

(* The Eq. 2 term of a closed interval, given the replication set of its
   successor.  Targets are scanned in descending processor order — the
   order [endpoints_of] produced in the reference — so the communication
   sums round identically. *)
let interval_term s (first, last, procs) next_mask =
  let work = s.wp.(last) -. s.wp.(first - 1) in
  let out_size = s.deltas.(last) in
  let pmask = (procs : B.t :> int) in
  let acc = ref Float.neg_infinity in
  for u = 0 to s.m - 1 do
    if pmask land (1 lsl u) <> 0 then begin
      let compute = work /. s.spd.(u) in
      let comm = ref 0.0 in
      let bw_row = u * s.m in
      for v = s.m - 1 downto 0 do
        if next_mask land (1 lsl v) <> 0 then
          comm := !comm +. (out_size /. s.bw_pp.(bw_row + v))
      done;
      acc := Float.max !acc (compute +. !comm)
    end
  done;
  !acc

(* Same term when the successor is Pout (the final close). *)
let interval_term_out s (first, last, procs) =
  let work = s.wp.(last) -. s.wp.(first - 1) in
  let out_size = s.deltas.(last) in
  let pmask = (procs : B.t :> int) in
  let acc = ref Float.neg_infinity in
  for u = 0 to s.m - 1 do
    if pmask land (1 lsl u) <> 0 then begin
      let compute = work /. s.spd.(u) in
      let comm = 0.0 +. (out_size /. s.bw_out.(u)) in
      acc := Float.max !acc (compute +. comm)
    end
  done;
  !acc

let to_interval (first, last, procs) =
  { Mapping.first; last; procs = B.elements procs }

(* Every child of a node, in the reference's order: the next interval
   [next_stage .. e] for e ascending, on each non-empty subset of the
   unused processors in ascending mask order, with the latency of its
   closed prefix and its log survival.  [branch] recurses through it, and
   the parallel solve builds its root frontier from it. *)
let expand s ~next_stage ~used ~closed ~pending ~latency_closed ~log_survival
    child =
  let unused = B.diff (B.full s.m) used in
  let closed = match pending with None -> closed | Some p -> p :: closed in
  for e = next_stage to s.n do
    B.iter_nonempty_subsets
      (fun subset ->
        let latency_closed =
          match pending with
          | None ->
              (* First interval: pay the input sends. *)
              latency_closed +. input_cost s subset
          | Some prev ->
              latency_closed +. interval_term s prev (subset : B.t :> int)
        in
        child ~next_stage:(e + 1) ~used:(B.union used subset) ~closed
          ~pending:(Some (next_stage, e, subset)) ~latency_closed
          ~log_survival:(log_survival +. log_survival_term s subset))
      unused
  done

(* ------------------------------------------------------------------ *)
(* Search state                                                        *)
(* ------------------------------------------------------------------ *)

(* The mutable half of a search over one snapshot.  The drivers differ
   only in the state they start from: the serial solve owns a cell
   holding its [?prune_above] and runs unbudgeted; each probe task has a
   node budget and shares one cell with every other task; the confirm
   pass starts from the probe's final bound, and the recorded one also
   keeps a transcript.

   Every state publishes each new incumbent's inflated objective into
   its cell.  That never changes a cut of a search that owns its cell:
   {!Instance.better} accepts only a candidate lower by more than eps, so
   incumbents strictly decrease, and [inflate_bound] only raises a value,
   so nothing published ever lies below the current incumbent's
   objective.  A subtree whose lower bound exceeds a published value is
   therefore already at or above the incumbent, and cut as Dominated by
   that test alone; the cell's other source, [?prune_above], cuts as it
   would without publishing. *)
type state = {
  snap : snapshot;
  bound : Bound.t;
  record : bool;  (* append a transcript entry per node *)
  mutable best : Solution.t option;
  mutable log : Cert.node list;
  (* Node budget: -1 is unlimited, otherwise the search stops expanding
     once the budget is spent (probe tasks only — a budgeted search is
     still sound as a bound source because it publishes nothing but fully
     evaluated feasible mappings). *)
  mutable fuel : int;
  mutable nodes : int;
  mutable evaluated : int;
  mutable pruned : int;
}

let start ?(fuel = -1) ?(record = false) snap bound =
  {
    snap;
    bound;
    record;
    best = None;
    log = [];
    fuel;
    nodes = 0;
    evaluated = 0;
    pruned = 0;
  }

let incumbent_objective st =
  match st.best with
  | None -> Float.infinity
  | Some b -> Instance.objective_value st.snap.objective b.Solution.evaluation

type verdict = Keep | Cut of Cert.reason

(* A subtree whose objective lower bound is at or above the incumbent, or
   strictly above the bound cell, cannot contain a strictly better
   optimum, so cutting it leaves the returned solution bit-identical to
   an unbounded solve.  A cut the incumbent justifies is Dominated; one
   that only the cell justifies is Bounded, which a certificate checker
   accepts against the claim's objective (lib/cert/check.ml). *)
let prune_ex st ~partial_latency ~partial_failure ~done_upto =
  (* rem.(done_upto) is the lower bound on the latency still to be paid
     for stages > done_upto: remaining work at the fastest speed
     (communications >= 0). *)
  let latency_lb = partial_latency +. st.snap.rem.(done_upto) in
  let incumbent = incumbent_objective st in
  let bound0 = Bound.get st.bound in
  match st.snap.objective with
  | Instance.Min_failure { max_latency } ->
      if not (F.leq latency_lb max_latency) then Cut Cert.Threshold
      else if partial_failure >= incumbent then Cut Cert.Dominated
      else if partial_failure > bound0 then Cut Cert.Bounded
      else Keep

  | Instance.Min_latency { max_failure } ->
      if not (F.leq partial_failure max_failure) then Cut Cert.Threshold
      else if latency_lb >= incumbent then Cut Cert.Dominated
      else if latency_lb > bound0 then Cut Cert.Bounded
      else Keep

(* Transcript entry for the node identified by [closed]/[pending]; only
   ever called with [st.record] on, so the path materialization stays
   off the ordinary hot path. *)
let record_node st ~closed ~pending status =
  let rpath = match pending with None -> closed | Some p -> p :: closed in
  st.log <- { Cert.path = List.rev_map to_interval rpath; status } :: st.log

let rec branch st ~next_stage ~used ~closed ~pending ~latency_closed
    ~log_survival =
  (* [closed]: reversed list of finalized intervals (term already added to
     latency_closed).  [pending]: the last chosen interval, whose outgoing
     term depends on the next decision. *)
  if st.fuel = 0 then ()
  else begin
    let s = st.snap in
    if st.fuel > 0 then st.fuel <- st.fuel - 1;
    st.nodes <- st.nodes + 1;
    let partial_failure = -.Float.expm1 log_survival in
    let pending_lb =
      match pending with None -> 0.0 | Some iv -> pending_bound s iv
    in
    let partial_latency = latency_closed +. pending_lb in
    match
      prune_ex st ~partial_latency ~partial_failure
        ~done_upto:(next_stage - 1)
    with
    | Cut reason ->
        st.pruned <- st.pruned + 1;
        if st.record then
          record_node st ~closed ~pending
            (Cert.Pruned
               {
                 reason;
                 latency_lb = partial_latency +. s.rem.(next_stage - 1);
                 partial_failure;
               })
    | Keep -> (
        if next_stage <= s.n then begin
          if st.record then record_node st ~closed ~pending Cert.Expanded;
          expand s ~next_stage ~used ~closed ~pending ~latency_closed
            ~log_survival (branch st)
        end
        else
          (* Close the final interval against Pout and record the
             solution. *)
          match pending with
          | None -> assert false
          | Some iv ->
              let total = latency_closed +. interval_term_out s iv in
              st.evaluated <- st.evaluated + 1;
              if st.record then
                record_node st ~closed ~pending
                  (Cert.Evaluated
                     { latency = total; failure = partial_failure });
              let evaluation =
                { Instance.latency = total; failure = partial_failure }
              in
              if Instance.feasible s.objective evaluation then begin
                match st.best with
                | Some b
                  when not
                         (Instance.better s.objective evaluation
                            b.Solution.evaluation) ->
                    ()
                | _ ->
                    let mapping =
                      Mapping.make ~n:s.n ~m:s.m
                        (List.rev_map to_interval (iv :: closed))
                    in
                    st.best <- Some { Solution.mapping; evaluation };
                    Bound.improve st.bound
                      (inflate_bound
                         (Instance.objective_value s.objective evaluation))
              end)
  end

let run_root st =
  branch st ~next_stage:1 ~used:B.empty ~closed:[] ~pending:None
    ~latency_closed:0.0 ~log_survival:0.0

(* ------------------------------------------------------------------ *)
(* Serial and recorded drivers                                         *)
(* ------------------------------------------------------------------ *)

let solve_snapshot ?(prune_above = Float.infinity) snap =
  let st = start snap (Bound.create prune_above) in
  run_root st;
  let obs = Obs.ambient () in
  Obs.incr obs "core.bb.solves";
  Obs.add obs "core.bb.nodes" st.nodes;
  Obs.add obs "core.bb.evaluated" st.evaluated;
  Obs.add obs "core.bb.pruned" st.pruned;
  (st.best, { nodes = st.nodes; evaluated = st.evaluated; pruned = st.pruned })

let solve_with_stats ?prune_above instance objective =
  solve_snapshot ?prune_above (snapshot instance objective)

let solve ?prune_above instance objective =
  fst (solve_with_stats ?prune_above instance objective)

(* ------------------------------------------------------------------ *)
(* Parallel solve                                                      *)
(* ------------------------------------------------------------------ *)

type par_stats = { tasks : int; probe_nodes : int; confirm : stats }

(* Probe budget: every frontier task gets a fixed node allowance carved
   from a global pool, so the probe phase costs a bounded slice of the
   search no matter how large the frontier is.  The values only shape
   how tight the probe bound gets — never the answer. *)
let probe_task_fuel = 2048
let probe_total_fuel = 1 lsl 17

(* The root frontier, best-first: every root child as its objective lower
   bound (the one [branch] tests at that node) and its deferred [branch]
   call.  Empty when the root itself is cut. *)
let frontier root =
  let s = root.snap in
  match
    prune_ex root
      ~partial_latency:(0.0 +. 0.0)
      ~partial_failure:(-.Float.expm1 0.0)
      ~done_upto:0
  with
  | Cut _ -> [||]
  | Keep ->
      let acc = ref [] in
      expand s ~next_stage:1 ~used:B.empty ~closed:[] ~pending:None
        ~latency_closed:0.0 ~log_survival:0.0
        (fun ~next_stage ~used ~closed ~pending ~latency_closed ~log_survival ->
          let key =
            match s.objective with
            | Instance.Min_failure _ -> -.Float.expm1 log_survival
            | Instance.Min_latency _ ->
                (latency_closed +. pending_bound s (Option.get pending))
                +. s.rem.(next_stage - 1)
          in
          let resume st =
            branch st ~next_stage ~used ~closed ~pending ~latency_closed
              ~log_survival
          in
          acc := (key, resume) :: !acc);
      let arr = Array.of_list (List.rev !acc) in
      (* Stable: equal keys keep the serial enumeration order. *)
      Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) arr;
      arr

(* Phase 1 of both drivers below — probe: distribute the root frontier
   (every choice of first interval) over the pool in best-first order.
   Tasks run budgeted depth-first searches over the shared read-only
   snapshot against one shared cell: any feasible mapping a task
   completes publishes [inflate_bound objective] into it, root-pruning
   weaker subtrees on every domain.  Nothing the probe finds is trusted
   as an answer — it only tightens a sound upper bound.  Returns the
   number of tasks and of nodes they expanded. *)
let probe ?obs ~workers snap shared =
  let tasks = frontier (start snap shared) in
  let fuel_pool = Atomic.make probe_total_fuel in
  let run (_, resume) =
    if Atomic.fetch_and_add fuel_pool (-probe_task_fuel) <= 0 then 0
    else begin
      let st = start ~fuel:probe_task_fuel snap shared in
      resume st;
      st.nodes
    end
  in
  let visited, _pool_stats = Pool.map ?obs ~workers run tasks in
  (Array.length tasks, Array.fold_left ( + ) 0 visited)

let solve_par_with_stats ?(prune_above = Float.infinity) ~workers instance
    objective =
  let obs = Obs.ambient () in
  let snap = snapshot instance objective in
  let shared = Bound.create prune_above in
  let tasks, probe_nodes = probe ?obs ~workers snap shared in
  (* Phase 2 — confirm: one serial pass under the probe's bound.  The
     cell holds min(prune_above, inflate(best published objective)),
     which is a sound upper bound on the optimum, so by the
     [?prune_above] contract the pass returns the answer an unbounded
     serial solve would return, bit for bit — at every worker count.  Its
     node counts depend on how tight the probe got, so they are kept out
     of the ambient metrics (only the deterministic task/solve counters
     are recorded). *)
  let best, confirm =
    Obs.with_ambient None (fun () ->
        solve_snapshot ~prune_above:(Bound.get shared) snap)
  in
  Obs.incr obs "core.exact.par.bb.solves";
  Obs.add obs "core.exact.par.bb.tasks" tasks;
  (best, { tasks; probe_nodes; confirm })

let solve_par ?prune_above ~workers instance objective =
  fst (solve_par_with_stats ?prune_above ~workers instance objective)

(* ------------------------------------------------------------------ *)
(* Recorded solve                                                      *)
(* ------------------------------------------------------------------ *)

let solve_recorded instance objective =
  (* The probe at one worker and with no metrics context (no domain
     spawned, nothing recorded, deterministic), then the confirm pass
     recorded under its bound.  A cut only that bound justifies is
     labelled Bounded, and the checker accepts it against the claim's
     objective, which lies below every inflated bound the probe can
     publish. *)
  let snap = snapshot instance objective in
  let shared = Bound.create Float.infinity in
  ignore (probe ~workers:1 snap shared : int * int);
  let st = start ~record:true snap shared in
  run_root st;
  (st.best, List.rev st.log)
