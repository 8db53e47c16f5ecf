(** Exact latency-optimal {e interval} mappings on Fully Heterogeneous
    platforms — the problem the paper leaves open (Section 4.1: polynomial
    for general mappings by Theorem 4, NP-hard for one-to-one by Theorem 3,
    open in between).

    Without replication an interval mapping is a sequence of (interval,
    processor) pairs with pairwise-distinct processors.  We solve it
    exactly by dynamic programming over (last stage, last processor, set
    of used processors): [O(n^2 m^2 2^m)] time and [O(n m 2^m)] space — an
    exponential-in-[m] certificate algorithm, far faster than enumerating
    compositions times injections, and the reference point for measuring
    how much the interval restriction costs relative to Theorem 4's
    general mappings (experiment E19).

    {!min_latency}, {!min_latency_par} and {!Dp.solve} are three schedules
    of one push-style relaxation kernel over a prefix-sum snapshot of the
    instance: serial, stage by stage over the pool, and serial restricted
    to the cells a platform change touched.  The first two, and
    {!min_latency_cells}, reuse domain-local flat tables; results are
    pinned bit-for-bit to the original implementation kept in
    {!Reference}. *)

open Relpipe_model

val max_procs : int
(** Hard cap on [m] (memory guard, 14). *)

val min_latency : Instance.t -> (float * Mapping.t) option
(** The optimal unreplicated interval mapping and its latency; [None] is
    impossible for valid instances (a single interval on one processor
    always exists), so the option only signals [n > 0] trivia — callers
    can [Option.get].  Agrees with {!Exact.min_latency_unreplicated}
    (property-tested).
    @raise Invalid_argument when [m > max_procs]. *)

val min_latency_par :
  ?workers:int -> Instance.t -> (float * Mapping.t) option
(** Parallel twin of {!min_latency} over the {!Relpipe_pool.Pool}
    domains.  Every relaxation leaves a cell at a lower stage than it
    enters, so the table is filled stage by stage: for each source stage
    [e], one pool job per target processor [v] pushes every stage-[e]
    cell into [v]'s cells at later stages, with a join between stages.
    Jobs of one stage read only stage-[e] cells and write disjoint
    columns, and each cell receives the serial kernel's candidates in the
    same order (source stage ascending, then source processor ascending)
    with the same strict-< update, so the value {e and} the tie-breaking
    parent chain are bit-identical to {!min_latency} at every worker
    count — deterministic structurally, not just observably
    (test/test_par_exact.ml and the [par-exact-identity] fuzz oracle).

    Records the deterministic [core.exact.par.dp.*] counters (runs,
    cells, stages, states) plus the pool's own metrics; the [(n-1) * m]
    jobs do not depend on [workers].
    @raise Invalid_argument when [m > max_procs]. *)

val min_latency_cells :
  Instance.t ->
  init:'a ->
  f:('a -> e:int -> u:int -> mask:int -> float -> 'a) ->
  (float * Mapping.t) option * 'a
(** {!min_latency}'s answer, plus a fold of [f] over every finite cell of
    the solved table in {!Dp.fold_finite_cells}'s order: the raw material
    for the interval-DP optimality certificate ({!Certify.interval}).  The
    table is the calling domain's workspace, the one {!min_latency} and
    {!min_latency_par} reuse, so it lives only until the fold returns:
    [f] must not solve with this module on the same domain, and no cell
    outlives the call except through the fold's result.  The cells and
    the answer are bit-identical to a cold {!Dp.solve}'s.  Records no
    metric.
    @raise Invalid_argument when [m > max_procs]. *)

val interval_vs_general_gap : Instance.t -> float
(** [optimal interval latency / optimal general latency >= 1]: the price
    of the interval restriction on this instance. *)

(** Resumable twin of {!min_latency} for incremental re-solving under
    platform churn.

    A DP cell [(e, u, mask)] depends only on the pipeline and on the
    attributes of the processors in [mask] (speeds, input links, links
    within the set) — never on processors outside it, and the output link
    only enters the final closing scan, which is always recomputed.  A
    warm solve therefore carries over, bit-for-bit, every cell whose mask
    avoids the processors touched by an event, and re-runs the same
    kernel only on the rest, so its answer is byte-identical to a cold
    solve's (the [churn-incremental] fuzz oracle and
    [test/test_churn.ml] pin this). *)
module Dp : sig
  type state
  (** Owned snapshot of one solve: the instance's cost inputs plus the
      full DP/parent tables.  Unlike {!min_latency} this does not use the
      shared domain-local workspace, so states survive later solves. *)

  type reuse = { cells_reused : int; cells_total : int }
  (** Carried-over vs. total meaningful cells ([n * m * 2^(m-1)]: cells
      whose processor belongs to their mask; the rest are structurally
      infinite).  A cold solve reports [cells_reused = 0]. *)

  val solve :
    ?warm:state * int array ->
    Instance.t ->
    (float * Mapping.t) option * state * reuse
  (** [solve ?warm instance] returns the same optimum as
      {!min_latency instance} plus the owned state for the next warm
      start.  [warm = (prev, prev_of)] gives the previous state and the
      index translation: [prev_of.(u)] is processor [u]'s index in the
      previous platform, [-1] for a fresh join.  [prev_of] must be
      strictly increasing on its defined entries (deaths compact, joins
      append — the churn driver's discipline); anything else, or a
      pipeline change, safely degrades to a full recompute.
      @raise Invalid_argument when [m > max_procs]. *)

  val fold_finite_cells :
    state ->
    init:'a ->
    f:('a -> e:int -> u:int -> mask:int -> float -> 'a) ->
    'a
  (** Fold over every finite DP cell in deterministic (e, u, mask)
      ascending order, passing [f] the exact stored float: the same loop
      {!min_latency_cells} runs over its workspace table. *)
end
