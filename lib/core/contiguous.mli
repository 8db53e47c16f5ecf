(** Speed-contiguous solver for the open case (Communication Homogeneous +
    Failure Heterogeneous, paper Section 4.4).

    The paper conjectures this bi-criteria problem NP-hard; its known
    optimal solutions (Algorithm 3's prefixes, the Fig. 5 optimum) share a
    structural trait: each interval's replication set is {e contiguous in
    the speed ordering} of the processors.  This solver is exact within
    that restriction: it enumerates interval partitions together with
    assignments of disjoint speed-contiguous segments to intervals, in
    time polynomial in [m] for a bounded number of intervals
    (O(2^(n-1) * m^(2p) * p!) overall).

    It is a {e structured heuristic} for the unrestricted problem: the
    E22 experiment measures how often the speed-contiguity hypothesis is
    lossless against full enumeration (empirically: almost always, and it
    recovers the Fig. 5 optimum). *)

open Relpipe_model

val applicable : Instance.t -> bool
(** Links homogeneous (any failure pattern). *)

val solve : Instance.t -> Instance.objective -> Solution.t option
(** Best mapping whose replication sets are speed-contiguous segments,
    over at most 3 intervals (segments multiply fast beyond that).
    @raise Invalid_argument when not {!applicable}. *)
