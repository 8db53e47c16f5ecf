(** Unified solving facade.

    Dispatches a bi-criteria problem to the right algorithm for the
    platform class, mirroring the paper's complexity landscape:

    - Fully Homogeneous (speeds + links): Algorithms 1/2 — polynomial,
      optimal (including heterogeneous failures, per the paper's remark);
    - Communication Homogeneous + Failure Homogeneous: Algorithms 3/4 —
      polynomial, optimal;
    - everything else (Comm. Homogeneous + Failure Heterogeneous — open;
      Fully Heterogeneous — NP-hard): the exact leg when n, m <= 6 and
      the mapping space ({!Exact.count_mappings}) is within the budget,
      otherwise the heuristic portfolio.

    The exact leg is {!Bb.solve}, refused before any work when the
    mapping space exceeds the budget; its mapping is re-evaluated with
    {!Instance.evaluate}, so the reply carries the same numbers as an
    exhaustive search ({!Exact.solve}, the test oracle) would.

    Every entry point first runs the [Relpipe_analysis] instance pass at
    [Error] level; a malformed instance yields a typed {!error} (from
    {!run}) instead of an exception escaping mid-search. *)

open Relpipe_model

type method_ =
  | Auto  (** the dispatch described above *)
  | Exact_enum  (** the exact leg at any size, within the budget *)
  | Polynomial  (** Algorithms 1-4; [Not_applicable] otherwise *)
  | Heuristic of Heuristics.name
  | Portfolio  (** {!Heuristics.best_of} *)

type error =
  | Invalid_instance of Relpipe_analysis.Diagnostic.t list
      (** the [Error]-level lint findings, worst first *)
  | Invalid_objective of string  (** e.g. a NaN threshold *)
  | Not_applicable of string  (** [Polynomial] on an intractable class *)
  | Too_large of string  (** [Exact_enum] beyond its budget *)

val default_exact_budget : int
(** [200_000] mappings: the budget of {!run}, of a service request that
    carries none, and of {!Validate}'s certificates. *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

val check_instance : Instance.t -> (unit, error) result
(** The guard by itself: [Error (Invalid_instance _)] when the instance
    pass reports [Error]-level findings. *)

val run :
  ?method_:method_ ->
  ?exact_budget:int ->
  Instance.t ->
  Instance.objective ->
  (Solution.t option, error) result
(** Solve with a typed outcome.  [Ok None] means no feasible mapping was
    found (a definitive answer for the optimal methods, best effort for
    heuristics).  [exact_budget] (default {!default_exact_budget}) bounds
    the mapping space the exact leg may search, counted in closed form
    before any work: Auto beyond it runs the portfolio, Exact_enum
    beyond it is [Error (Too_large _)]. *)

val solve :
  ?method_:method_ ->
  ?exact_budget:int ->
  Instance.t ->
  Instance.objective ->
  Solution.t option
(** Legacy exception-based wrapper over {!run}: raises [Invalid_argument]
    on invalid instances/objectives and inapplicable methods, and
    {!Exact.Too_large} when the exact budget is exceeded. *)

val describe : Instance.t -> string
(** Human-readable platform classification and the method Auto would
    pick. *)
