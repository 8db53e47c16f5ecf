open Relpipe_model
module F = Relpipe_util.Float_cmp
module Obs = Relpipe_obs.Obs

let dp_max_procs = 14
let bb_max_procs = Relpipe_util.Bitset.max_width

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* Flat snapshot of the instance, built from model accessors only.  Every
   price below evaluates the paper's equations in the repo's canonical
   operand order (processors ascending, communication targets descending,
   left-associated sums), which is what makes comparisons against
   recorded numbers bit-exact. *)
type env = {
  n : int;
  m : int;
  wp : float array;  (* work prefix sums *)
  deltas : float array;
  spd : float array;
  fp : float array;
  bw_in : float array;
  bw_out : float array;
  bw_pp : float array;  (* u -> v at u*m+v, diagonal unused *)
  rem : float array;  (* remaining-work bound after stage d *)
}

let make_env instance =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let wp = Pipeline.work_prefixes pipeline in
  let deltas = Array.init (n + 1) (Pipeline.delta pipeline) in
  let spd = Array.init m (Platform.speed platform) in
  let fp = Array.init m (Platform.failure platform) in
  let bw_in =
    Array.init m (fun u ->
        Platform.bandwidth platform Platform.Pin (Platform.Proc u))
  in
  let bw_out =
    Array.init m (fun u ->
        Platform.bandwidth platform (Platform.Proc u) Platform.Pout)
  in
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
  { n; m; wp; deltas; spd; fp; bw_in; bw_out; bw_pp; rem }

(* ------------------------------------------------------------------ *)
(* Pricing (Section 2 equations)                                       *)
(* ------------------------------------------------------------------ *)

let input_cost env mask =
  let acc = ref 0.0 in
  for u = 0 to env.m - 1 do
    if mask land (1 lsl u) <> 0 then
      acc := !acc +. (env.deltas.(0) /. env.bw_in.(u))
  done;
  !acc

(* log1p (-. pi) of a replication set, pi in log space (Eq. 1). *)
let survival_term env mask =
  let log_prod = ref 0.0 in
  for u = 0 to env.m - 1 do
    if mask land (1 lsl u) <> 0 then
      log_prod := !log_prod +. Float.log env.fp.(u)
  done;
  Float.log1p (-.Float.exp !log_prod)

let min_speed env mask =
  let acc = ref Float.infinity in
  for u = 0 to env.m - 1 do
    if mask land (1 lsl u) <> 0 then acc := Float.min !acc env.spd.(u)
  done;
  !acc

let pending_bound env (first, last, mask) =
  (env.wp.(last) -. env.wp.(first - 1)) /. min_speed env mask

(* The Eq. 2 term of a closed interval given its successor's replication
   set; targets descending. *)
let interval_term env (first, last, pmask) next_mask =
  let work = env.wp.(last) -. env.wp.(first - 1) in
  let out_size = env.deltas.(last) in
  let acc = ref Float.neg_infinity in
  for u = 0 to env.m - 1 do
    if pmask land (1 lsl u) <> 0 then begin
      let compute = work /. env.spd.(u) in
      let comm = ref 0.0 in
      let bw_row = u * env.m in
      for v = env.m - 1 downto 0 do
        if next_mask land (1 lsl v) <> 0 then
          comm := !comm +. (out_size /. env.bw_pp.(bw_row + v))
      done;
      acc := Float.max !acc (compute +. !comm)
    end
  done;
  !acc

let interval_term_out env (first, last, pmask) =
  let work = env.wp.(last) -. env.wp.(first - 1) in
  let out_size = env.deltas.(last) in
  let acc = ref Float.neg_infinity in
  for u = 0 to env.m - 1 do
    if pmask land (1 lsl u) <> 0 then begin
      let compute = work /. env.spd.(u) in
      let comm = 0.0 +. (out_size /. env.bw_out.(u)) in
      acc := Float.max !acc (compute +. comm)
    end
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Canonical node keys                                                 *)
(* ------------------------------------------------------------------ *)

let mask_of_procs env procs =
  let rec go prev mask = function
    | [] -> mask
    | p :: rest ->
        if p < 0 || p >= env.m then
          reject "processor %d out of range in a path" p
        else if p <= prev then reject "path processors not strictly ascending"
        else go p (mask lor (1 lsl p)) rest
  in
  go (-1) 0 procs

let add_iv_key buf (first, last, mask) =
  Buffer.add_string buf (string_of_int first);
  Buffer.add_char buf '-';
  Buffer.add_string buf (string_of_int last);
  Buffer.add_char buf ':';
  let sep = ref false in
  let u = ref 0 in
  let mask = ref mask in
  while !mask <> 0 do
    if !mask land 1 <> 0 then begin
      if !sep then Buffer.add_char buf ',';
      sep := true;
      Buffer.add_string buf (string_of_int !u)
    end;
    incr u;
    mask := !mask lsr 1
  done

let key_of_triples = function
  | [] -> "-"
  | triples ->
      let buf = Buffer.create 32 in
      List.iteri
        (fun i triple ->
          if i > 0 then Buffer.add_char buf '|';
          add_iv_key buf triple)
        triples;
      Buffer.contents buf

(* The key of a reversed path, for rejection messages. *)
let path_key rpath = key_of_triples (List.rev rpath)

let triples_of_intervals env ivs =
  List.map
    (fun { Mapping.first; last; procs } -> (first, last, mask_of_procs env procs))
    ivs

(* Non-empty submasks of [set] in increasing mask order — the enumeration
   order of Bitset.iter_nonempty_subsets, which the search follows. *)
let iter_submasks f set =
  if set <> 0 then begin
    let s = ref (set land - set) in
    let continue = ref true in
    while !continue do
      f !s;
      let next = ((!s lor lnot set) + 1) land set in
      if next = 0 then continue := false else s := next
    done
  end

(* ------------------------------------------------------------------ *)
(* Branch-and-bound transcripts                                        *)
(* ------------------------------------------------------------------ *)

(* The transcript as a trie of integer node ids.  The root is id 0, and
   appending the interval (first, last, mask) to the path of node [p] is
   the edge (p, first, last, mask) to a child id.  The walk carries ids,
   so a path is rendered as text only to name it in a rejection. *)
module Edges = Hashtbl.Make (struct
  type t = int * int * int * int

  let equal (p, f, l, s) (p', f', l', s') =
    Int.equal p p' && Int.equal f f' && Int.equal l l' && Int.equal s s'

  (* An explicit int hash (the polymorphic [Hashtbl.hash] is banned by
     devlint's compare family).  The table indexes buckets by the low
     bits, so each step folds the product's high bits back down. *)
  let hash (p, f, l, s) =
    let mix h x =
      let h = (h lxor x) * 0x9E3779B97F4A7C1 in
      h lxor (h lsr 29)
    in
    mix (mix (mix (mix 0 p) f) l) s land max_int
end)

(* Node ids of the transcript and the status recorded at each.  A path's
   missing prefixes still get ids, with no status: the walk reports them
   as missing entries. *)
let index_transcript env nodes =
  (* At most the root plus one id per interval of every path. *)
  let capacity =
    List.fold_left (fun acc { Cert.path; _ } -> acc + List.length path) 1 nodes
  in
  let edges = Edges.create (2 * List.length nodes) in
  let recorded = Array.make capacity None in
  let fresh = ref 1 in
  let child parent { Mapping.first; last; procs } =
    let edge = (parent, first, last, mask_of_procs env procs) in
    match Edges.find_opt edges edge with
    | Some id -> id
    | None ->
        let id = !fresh in
        incr fresh;
        Edges.add edges edge id;
        id
  in
  List.iter
    (fun { Cert.path; status } ->
      let id = List.fold_left child 0 path in
      if Option.is_some recorded.(id) then
        reject "duplicate transcript entry %s"
          (key_of_triples (triples_of_intervals env path));
      recorded.(id) <- Some status)
    nodes;
  (edges, recorded)

let check_bb env ~objective ~claim ~nodes =
  if env.m > bb_max_procs then
    reject "bb certificate beyond the %d-processor cap" bb_max_procs;
  let edges, recorded = index_transcript env nodes in
  let entries = List.length nodes in
  let full_m = (1 lsl env.m) - 1 in
  (* What a [bounded] cut must lie strictly above: the claim's objective
     as recorded, not inflated.  The claim must replay as an evaluated
     leaf below, so it is achieved, and a mapping better than it has a
     smaller objective, which no cut subtree above it can hold. *)
  let claim_objective =
    match claim with
    | Cert.Infeasible -> None
    | Cert.Feasible { latency; failure; _ } ->
        Some (Instance.objective_value objective { Instance.latency; failure })
  in
  (* The incumbent fold, replayed with the model's own acceptance rule in
     the search's exact child order: what survives is, bit for bit, what
     the canonical solver returns. *)
  let best = ref None in
  let incumbent_objective () =
    match !best with
    | None -> Float.infinity
    | Some (evaluation, _) -> Instance.objective_value objective evaluation
  in
  let visited = ref 0 in
  (* [id] is -1 for a child the trie does not have. *)
  let rec walk ~id ~rpath ~next_stage ~used ~pending ~lc ~ls =
    let status =
      match if id < 0 then None else recorded.(id) with
      | Some s -> s
      | None -> reject "missing transcript entry for node %s" (path_key rpath)
    in
    incr visited;
    let pf = -.Float.expm1 ls in
    let pending_lb =
      match pending with None -> 0.0 | Some iv -> pending_bound env iv
    in
    let lb = (lc +. pending_lb) +. env.rem.(next_stage - 1) in
    match status with
    | Cert.Pruned { reason; latency_lb; partial_failure } -> (
        if not (F.same_bits latency_lb lb && F.same_bits partial_failure pf)
        then
          reject "recorded bounds at %s do not replay" (path_key rpath);
        let objective_lb =
          match objective with
          | Instance.Min_latency _ -> lb
          | Instance.Min_failure _ -> pf
        in
        match (reason, objective) with
        | Cert.Threshold, Instance.Min_failure { max_latency } ->
            if F.leq lb max_latency then
              reject "threshold cut at %s is not justified" (path_key rpath)
        | Cert.Threshold, Instance.Min_latency { max_failure } ->
            if F.leq pf max_failure then
              reject "threshold cut at %s is not justified" (path_key rpath)
        | Cert.Dominated, _ ->
            if not (objective_lb >= incumbent_objective ()) then
              reject "dominated cut at %s is not justified" (path_key rpath)
        | Cert.Bounded, _ -> (
            match claim_objective with
            | None ->
                reject "bounded cut at %s under an infeasible claim"
                  (path_key rpath)
            | Some bound ->
                if not (objective_lb > bound) then
                  reject "bounded cut at %s is not justified" (path_key rpath)))
    | Cert.Evaluated { latency; failure } -> (
        if next_stage <= env.n then
          reject "evaluated node %s does not cover the pipeline"
            (path_key rpath);
        match pending with
        | None -> reject "evaluated root of an empty pipeline"
        | Some iv ->
            let total = lc +. interval_term_out env iv in
            if not (F.same_bits latency total && F.same_bits failure pf) then
              reject "recorded evaluation at %s does not replay"
                (path_key rpath);
            let evaluation = { Instance.latency = total; failure = pf } in
            if Instance.feasible objective evaluation then begin
              match !best with
              | Some (b, _)
                when not (Instance.better objective evaluation b) ->
                  ()
              | _ -> best := Some (evaluation, List.rev rpath)
            end)
    | Cert.Expanded ->
        if next_stage > env.n then
          reject "expanded node %s already covers the pipeline"
            (path_key rpath);
        let unused = full_m land lnot used in
        for e = next_stage to env.n do
          iter_submasks
            (fun sub ->
              let iv = (next_stage, e, sub) in
              let lc' =
                match pending with
                | None -> lc +. input_cost env sub
                | Some prev -> lc +. interval_term env prev sub
              in
              let ls' = ls +. survival_term env sub in
              let child =
                match Edges.find_opt edges (id, next_stage, e, sub) with
                | Some child -> child
                | None -> -1
              in
              walk ~id:child ~rpath:(iv :: rpath) ~next_stage:(e + 1)
                ~used:(used lor sub) ~pending:(Some iv) ~lc:lc' ~ls:ls')
            unused
        done
  in
  walk ~id:0 ~rpath:[] ~next_stage:1 ~used:0 ~pending:None ~lc:0.0 ~ls:0.0;
  if !visited <> entries then
    reject "%d transcript entries are unreachable" (entries - !visited);
  (match (claim, !best) with
  | Cert.Infeasible, None -> ()
  | Cert.Infeasible, Some _ ->
      reject "claim says infeasible but the replay finds a feasible mapping"
  | Cert.Feasible _, None ->
      reject "claim says feasible but the replay finds no feasible mapping"
  | Cert.Feasible { latency; failure; mapping }, Some (evaluation, triples) ->
      if
        not
          (F.same_bits latency evaluation.Instance.latency
          && F.same_bits failure evaluation.Instance.failure)
      then reject "claimed optimum does not match the replayed incumbent";
      if triples_of_intervals env mapping <> triples then
        reject "claimed mapping does not match the replayed incumbent");
  entries

(* ------------------------------------------------------------------ *)
(* Interval-DP potential tables                                        *)
(* ------------------------------------------------------------------ *)

(* The potential table, reused across checks on the same domain. *)
let ws_potential = Relpipe_util.Workspace.floats ()

let check_dp env ~latency:claimed ~mapping ~cells =
  if env.m > dp_max_procs then
    reject "interval-dp certificate beyond the %d-processor cap" dp_max_procs;
  if not (Float.is_finite claimed) then reject "claimed latency is not finite";
  let masks = 1 lsl env.m in
  let y =
    Relpipe_util.Workspace.get_floats ws_potential
      ~len:((env.n + 1) * env.m * masks)
      ~fill:Float.infinity
  in
  let idx e u mask = (((e * env.m) + u) * masks) + mask in
  List.iter
    (fun { Cert.e; u; mask; value } ->
      if
        e < 1 || e > env.n || u < 0 || u >= env.m || mask < 1 || mask >= masks
        || mask land (1 lsl u) = 0
      then reject "cell (%d,%d,%d) out of range" e u mask;
      if not (Float.is_finite value) then
        reject "cell (%d,%d,%d) is not finite" e u mask;
      if Float.is_finite y.(idx e u mask) then
        reject "duplicate cell (%d,%d,%d)" e u mask;
      y.(idx e u mask) <- value)
    cells;
  (* Base: every singleton cell must be present and at most the
     first-interval cost, or some chain escapes the potential. *)
  for v = 0 to env.m - 1 do
    let input = env.deltas.(0) /. env.bw_in.(v) in
    let sv = env.spd.(v) in
    for e = 1 to env.n do
      let base = input +. ((env.wp.(e) -. env.wp.(0)) /. sv) in
      if not (y.(idx e v (1 lsl v)) <= base) then
        reject "base cell (%d,%d,%d) exceeds the first-interval cost" e v
          (1 lsl v)
    done
  done;
  (* Edges: the triangle inequality against every recomputed relaxation.
     A finite source pointing at a missing target is how a dropped
     admission surfaces: the target's potential is infinite. *)
  for e = 1 to env.n - 1 do
    let delta_e = env.deltas.(e) in
    let wp_e = env.wp.(e) in
    for u = 0 to env.m - 1 do
      let bw_row = u * env.m in
      for mask = 1 to masks - 1 do
        let base = y.(idx e u mask) in
        if Float.is_finite base then
          for v = 0 to env.m - 1 do
            if mask land (1 lsl v) = 0 then begin
              let comm = delta_e /. env.bw_pp.(bw_row + v) in
              let nmask = mask lor (1 lsl v) in
              let sv = env.spd.(v) in
              let base_comm = base +. comm in
              for e' = e + 1 to env.n do
                let cand = base_comm +. ((env.wp.(e') -. wp_e) /. sv) in
                if not (y.(idx e' v nmask) <= cand) then
                  reject
                    "relaxation edge (%d,%d,%d) -> (%d,%d,%d) is violated" e u
                    mask e' v nmask
              done
            end
          done
      done
    done
  done;
  (* Final: every complete cell closed against the output link costs at
     least the claim. *)
  for u = 0 to env.m - 1 do
    let out = env.deltas.(env.n) /. env.bw_out.(u) in
    for mask = 1 to masks - 1 do
      let v = y.(idx env.n u mask) in
      if Float.is_finite v && not (v +. out >= claimed) then
        reject "cell (%d,%d,%d) closes below the claimed latency" env.n u mask
    done
  done;
  (* The claim mapping must be a valid unreplicated interval chain and
     re-price, bit for bit, to the claimed latency: the upper bound that
     meets the potential's lower bound. *)
  let rec structure prev_last used = function
    | [] -> if prev_last <> env.n then reject "claim mapping stops early"
    | { Mapping.first; last; procs } :: rest ->
        if first <> prev_last + 1 || last < first || last > env.n then
          reject "claim mapping is not a partition into intervals";
        (match procs with
        | [ p ] ->
            if p < 0 || p >= env.m then
              reject "claim mapping processor %d out of range" p;
            if used land (1 lsl p) <> 0 then
              reject "claim mapping reuses processor %d" p;
            structure last (used lor (1 lsl p)) rest
        | _ -> reject "claim mapping replicates an interval")
  in
  structure 0 0 mapping;
  let total =
    match mapping with
    | [] -> reject "empty claim mapping"
    | { Mapping.last = l1; procs = [ p1 ]; _ } :: rest ->
        let acc =
          ref
            ((env.deltas.(0) /. env.bw_in.(p1))
            +. ((env.wp.(l1) -. env.wp.(0)) /. env.spd.(p1)))
        in
        let pl = ref l1 and pu = ref p1 in
        List.iter
          (fun { Mapping.last; procs; _ } ->
            let p = List.hd procs in
            acc :=
              (!acc +. (env.deltas.(!pl) /. env.bw_pp.((!pu * env.m) + p)))
              +. ((env.wp.(last) -. env.wp.(!pl)) /. env.spd.(p));
            pl := last;
            pu := p)
          rest;
        !acc +. (env.deltas.(env.n) /. env.bw_out.(!pu))
    | _ ->
        (* [structure] already rejected replicated intervals. *)
        assert false
  in
  if not (F.same_bits total claimed) then
    reject "claim latency does not re-price to the claimed value";
  List.length cells

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let check instance (cert : Cert.t) =
  let obs = Obs.ambient () in
  Obs.incr obs "cert.check.runs";
  let result =
    try
      let { Instance.pipeline; platform } = instance in
      let n = Pipeline.length pipeline and m = Platform.size platform in
      if n < 1 || m < 1 then reject "degenerate instance";
      if cert.Cert.n <> n || cert.Cert.m <> m then
        reject "certificate is about an (n=%d, m=%d) instance, got (%d, %d)"
          cert.Cert.n cert.Cert.m n m;
      (match cert.Cert.instance_digest with
      | None -> ()
      | Some d ->
          let actual = Digest.to_hex (Digest.string (Textio.to_string instance)) in
          if not (String.equal d actual) then
            reject "instance digest mismatch: certificate is about %s" d);
      let env = make_env instance in
      let entries =
        match cert.Cert.body with
        | Cert.Bb { objective; claim; nodes } ->
            check_bb env ~objective ~claim ~nodes
        | Cert.Dp { latency; mapping; cells } ->
            check_dp env ~latency ~mapping ~cells
      in
      Ok entries
    with Reject msg -> Error msg
  in
  (match result with
  | Ok entries ->
      Obs.incr obs "cert.check.accepted";
      Obs.add obs "cert.check.entries" entries
  | Error _ -> Obs.incr obs "cert.check.rejected");
  result
