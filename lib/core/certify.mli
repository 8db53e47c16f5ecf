(** Certificate emission for the exact solvers.

    These are the only bridges between [lib/core] and [lib/cert]: the
    solvers produce the raw material (a recorded search transcript, a DP
    table) and this module shapes it into a {!Relpipe_cert.Cert.t} that
    the independent {!Relpipe_cert.Check} replays against the instance
    alone.  Both emitters stamp the certificate with the MD5 of the
    instance's canonical {!Textio} text, so a certificate can never be
    replayed against the wrong instance unnoticed.

    Records [cert.emit.bb] / [cert.emit.dp] counters and
    [cert.emit.entries] on the ambient collector. *)

open Relpipe_model
module Cert = Relpipe_cert.Cert

val bb : Instance.t -> Instance.objective -> Solution.t option * Cert.t
(** Solve with {!Bb.solve_recorded} and package its transcript: the
    confirm pass under the probe's bound, so its size follows the proof,
    not the unbounded search (hundreds of entries instead of thousands on
    exact-certify's shapes).  The claim is the returned solution (or
    infeasibility), bit-identical to {!Bb.solve}'s; every recorded number
    is exactly the float the search computed, so the checker's bit-exact
    replay accepts.  test/test_cert.ml, test/test_bb.ml and the
    [cert-replay] fuzz oracle pin the answer, acceptance and the
    rejection of mutants. *)

val interval : Instance.t -> (float * Mapping.t) option * Cert.t option
(** Solve with {!Interval_exact.min_latency_cells}, in the calling
    domain's reused DP tables, and package every finite DP cell as a
    potential function.  The certificate is byte-identical to one built
    from a cold {!Interval_exact.Dp.solve}'s table.  [None] certificate
    only when the DP itself returns no mapping ([n = 0] trivia).
    @raise Invalid_argument when [m > Interval_exact.max_procs]. *)
