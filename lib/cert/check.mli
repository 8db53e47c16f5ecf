(** Independent certificate replay.

    [check instance cert] accepts iff [cert] proves its claim about
    [instance].  The checker shares {e no} code with the solvers — this
    library does not link [lib/core] (see [lib/cert/dune]); it re-derives
    every price from the model layer ({!Relpipe_model}) alone, evaluating
    the paper's cost equations in the one canonical operand order the
    whole repo uses (processors ascending, communication targets
    descending, left-associated sums), so every comparison against a
    recorded number is bit-exact.

    What acceptance means:

    - [Bb] certificates: the transcript is a complete depth-first cover
      of the (interval, replication set) decision tree — the checker
      re-enumerates every child of every [expanded] node and requires
      exactly one transcript entry per reachable node, none left over.
      Every recorded latency bound, partial failure, and leaf evaluation
      is recomputed and must match bit-for-bit.  [pruned threshold]
      entries must genuinely violate the objective's threshold under the
      model's eps-tolerant [leq]; [pruned dominated] entries must carry
      an objective lower bound at or above the replayed incumbent at that
      point (sound because the incumbent decreases eps-strictly, so any
      incumbent that justified a cut is >= the final claim); [pruned
      bounded] entries must carry an objective lower bound strictly above
      the claim's objective B.  A feasible claim must re-price
      bit-for-bit to its recorded values, be feasible, appear in the
      transcript as an evaluated leaf, and no evaluated feasible leaf may
      be eps-strictly better; an infeasible claim forbids feasible
      leaves, and forbids [dominated] and [bounded] cuts outright.
      Together these certify: the claim is achievable and no feasible
      interval mapping beats it beyond the model's eps tolerance.

      B is the claim's objective as recorded, not inflated.  It is sound:
      the claim is achieved (it replays as an evaluated leaf), and a
      mapping better than it has a smaller objective, so none of its
      ancestors has a lower bound above B.  It is never stricter than the
      search, which cuts against inflated objectives of mappings at most
      eps below the claim, and those lie above B.  Inflating B instead
      would refuse genuine cuts: when the search's bound comes from a
      mapping within eps below the claim, it sits below the inflated
      claim, and a cut between the two is sound.  A transcript without
      [bounded] entries is checked exactly as before the reason existed,
      so every certificate an unbounded recorder wrote is still
      accepted.

    - [Dp] certificates: the cell table is read as a potential function.
      Every singleton cell must be present and at most the first-interval
      base cost; every relaxation edge [(e,u,mask) -> (e',v,mask+v)] must
      satisfy the triangle inequality against the recomputed edge cost
      (a missing target cell is an infinite potential and fails, which is
      how dropped admissions are caught); every complete cell closed
      against the output link must cost at least the claim; and the claim
      mapping must re-price bit-for-bit to the claimed latency.  By
      induction along any interval chain this certifies the claim is a
      true lower {e and} upper bound: the exact optimum.

    Records [cert.check.runs], [cert.check.accepted],
    [cert.check.rejected], and [cert.check.entries] on the ambient
    {!Relpipe_obs.Obs} collector. *)

open Relpipe_model

val dp_max_procs : int
(** Memory guard on [m] for [Dp] certificates (the potential table is
    [O(n m 2^m)]), mirroring the solver's own cap: 14. *)

val bb_max_procs : int
(** Width cap on [m] for [Bb] certificates: replication sets are int
    bitmasks, so [m] may not exceed {!Relpipe_util.Bitset.max_width} (62),
    the cap [Bb.solve] itself enforces.  A larger [m] is refused with an
    [Error], like a [Dp] certificate beyond {!dp_max_procs}. *)

val check : Instance.t -> Cert.t -> (int, string) result
(** [Ok entries] with the number of verified content entries, or
    [Error reason] naming the first defect found. *)
