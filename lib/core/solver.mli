(** Unified solving facade.

    Dispatches a bi-criteria problem to the right algorithm for the
    platform class, mirroring the paper's complexity landscape:

    - Fully Homogeneous (speeds + links): Algorithms 1/2 — polynomial,
      optimal (including heterogeneous failures, per the paper's remark);
    - Communication Homogeneous + Failure Homogeneous: Algorithms 3/4 —
      polynomial, optimal;
    - everything else (Comm. Homogeneous + Failure Heterogeneous — open;
      Fully Heterogeneous — NP-hard): exhaustive search when the instance
      is small enough, otherwise the heuristic portfolio.

    Every entry point first runs the [Relpipe_analysis] instance pass at
    [Error] level; a malformed instance yields a typed {!error} (from
    {!run}) instead of an exception escaping mid-search. *)

open Relpipe_model

type method_ =
  | Auto  (** the dispatch described above *)
  | Exact_enum  (** {!Exact.solve} regardless of size, within the budget *)
  | Polynomial  (** Algorithms 1-4; [Not_applicable] otherwise *)
  | Heuristic of Heuristics.name
  | Portfolio  (** {!Heuristics.best_of} *)

type error =
  | Invalid_instance of Relpipe_analysis.Diagnostic.t list
      (** the [Error]-level lint findings, worst first *)
  | Invalid_objective of string  (** e.g. a NaN threshold *)
  | Not_applicable of string  (** [Polynomial] on an intractable class *)
  | Too_large of string  (** [Exact_enum] beyond its budget *)

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
    heuristics).  [exact_budget] bounds the mapping enumeration Auto and
    Exact_enum may attempt (default [200_000]); Exact_enum beyond it is
    [Error (Too_large _)]. *)

val solve :
  ?method_:method_ ->
  ?exact_budget:int ->
  Instance.t ->
  Instance.objective ->
  Solution.t option
(** Legacy exception-based wrapper over {!run}: raises [Invalid_argument]
    on invalid instances/objectives and inapplicable methods, and
    {!Exact.Too_large} when the enumeration budget is exceeded. *)

val describe : Instance.t -> string
(** Human-readable platform classification and the method Auto would
    pick. *)
