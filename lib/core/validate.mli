(** Solution certificates.

    Heuristics and external tools hand back mappings; this module
    re-derives everything from first principles and reports exactly what
    holds: structural validity, metric consistency, threshold feasibility,
    and — when {!Solver} can prove an optimum — optimality. *)

open Relpipe_model

type optimality =
  | Optimal  (** certified equal to a provably optimal solution *)
  | Suboptimal of float  (** certified gap to the optimum (objective units) *)
  | Unknown  (** no tractable certificate for this instance *)

type report = {
  structurally_valid : bool;  (** intervals/processors validate *)
  evaluation_consistent : bool;
      (** stored metrics match a from-scratch re-evaluation *)
  feasible : bool;  (** threshold of the objective holds *)
  optimality : optimality;
  messages : string list;  (** human-readable findings, worst first *)
  diagnostics : Relpipe_analysis.Diagnostic.t list;
      (** static-analysis findings for the instance and mapping (all
          severities, worst first); [Warning]+ are also rendered into
          [messages] *)
}

val check : Instance.t -> Instance.objective -> Solution.t -> report
(** Optimality is certified against {!Solver}'s optimum: Algorithms 1-4
    on their classes, else the exact leg when the mapping space is within
    {!Solver.default_exact_budget} (every n, m <= 6 shape, and 2 x 11).
    A larger space, or an instance the solver refuses, gives [Unknown],
    and [messages] then names the refusal ("no certificate: " and
    {!Solver.error_to_string}'s text). *)

val ok : report -> bool
(** Structurally valid, consistent and feasible (optimality not
    required). *)

val pp : Format.formatter -> report -> unit
