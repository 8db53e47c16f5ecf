(** Optimality certificates for the exact solvers.

    A certificate is a self-contained, re-checkable account of {e why} a
    reported mapping is optimal: for the branch-and-bound solver, the
    transcript of a search run under a known upper bound (every expansion,
    evaluation, and pruned subtree with the exact bound that justified the
    cut); for the interval DP, the full table of finite cells, read as a
    potential function.  The companion
    {!Check} module replays a certificate against the instance alone — it
    shares no code with [lib/core] (its [dune] file does not even link it)
    — so a bug in the solver and a bug in the checker would have to agree
    to let a wrong claim through.

    The on-disk format is line-based text.  The first line is the magic
    [relpipe-cert v1]; every following line is an independent keyed
    directive ([kind], [n], [m], [instance], [objective], [claim],
    [mapping], [node], [cell]), so a certificate may be reordered
    arbitrarily below the magic line without changing its meaning
    (property-tested in test/test_cert.ml).  A [node] line reads [node PATH
    expanded], [node PATH evaluated LATENCY FAILURE] or [node PATH pruned
    REASON LATENCY_LB PARTIAL_FAILURE], with [REASON] one of [threshold],
    [dominated] and [bounded].  Blank lines and [#] comments
    are ignored.  Floats are printed as hexadecimal literals, byte for
    byte what [Printf.sprintf "%h"] prints, so every recorded number
    round-trips bit-for-bit. *)

open Relpipe_model

(** Why the branch-and-bound search cut a subtree. *)
type reason =
  | Threshold  (** a latency/failure threshold was already unreachable *)
  | Dominated
      (** the subtree's objective lower bound cannot beat the claimed
          optimum, which the incumbent upper-bounded at cut time *)
  | Bounded
      (** the subtree's objective lower bound lies strictly above the
          claim's objective: the search cut it against the bound of a
          mapping it had already found, before an incumbent of its own
          could justify the cut.  Written [pruned bounded]; a checker
          that predates the reason refuses it by name *)

type status =
  | Expanded
  | Evaluated of { latency : float; failure : float }
  | Pruned of { reason : reason; latency_lb : float; partial_failure : float }

type node = { path : Mapping.interval list; status : status }
(** One search node: the (first, last, replication set) intervals chosen
    so far in stage order, and what the search did there.  The root is the
    empty path. *)

type cell = { e : int; u : int; mask : int; value : float }
(** One finite DP cell: cheapest cost of stages [1..e] on the processor
    set [mask] with the last interval on [u] (input sends included, final
    output excluded). *)

type bb_claim =
  | Infeasible
  | Feasible of { latency : float; failure : float; mapping : Mapping.interval list }

type body =
  | Bb of {
      objective : Instance.objective;
      claim : bb_claim;
      nodes : node list;
    }
  | Dp of {
      latency : float;
      mapping : Mapping.interval list;
      cells : cell list;
    }

type t = {
  n : int;  (** pipeline length the certificate is about *)
  m : int;  (** platform size the certificate is about *)
  instance_digest : string option;
      (** MD5 (hex) of the instance's canonical {!Textio} text, binding
          the certificate to one concrete instance; verified by {!Check}
          when present *)
  body : body;
}

val entries : t -> int
(** Number of content entries: transcript nodes for [Bb], cells for
    [Dp]. *)

val to_string : t -> string
(** Render in the line format described above.  [of_string (to_string t)]
    parses back to an {!equal} certificate. *)

val of_string : string -> (t, string) result
(** Parse, tolerating arbitrary line order below the magic line.
    Duplicate scalar directives, unknown directives, or malformed lines
    are errors (never silently dropped — a checker must see exactly what
    the producer wrote). *)

val equal : t -> t -> bool
(** Order-insensitive equality: certificates that differ only in the
    order of their [node]/[cell] entries are equal. *)

(** {1 Mutation helpers}

    Deterministic single-defect mutations used by test/test_cert.ml and
    the [cert-replay] fuzz oracle to prove the checker actually rejects:
    a sound checker must refuse every mutant these produce. *)

val mutate_raise_bound : ?index:int -> t -> t option
(** Raise one recorded number by one ulp — the [index]-th (mod the number
    of candidates) evaluated/pruned transcript entry for [Bb], the
    [index]-th cell value for [Dp].  [None] when there is nothing to
    mutate. *)

val mutate_drop_line : ?index:int -> t -> t option
(** Delete the [index]-th (mod count) [node]/[cell] entry — a dropped
    admission the replay must notice.  [None] when there is nothing to
    drop. *)

val mutate_relabel_bounded : t -> t option
(** Relabel every [Bounded] cut of a [Bb] transcript as [Dominated].  The
    search labels a cut [Bounded] only when its incumbent cannot justify
    it, and the replay holds that same incumbent, so the checker refuses
    every such mutant.  [None] when the transcript has no [Bounded] cut,
    and for [Dp]. *)
