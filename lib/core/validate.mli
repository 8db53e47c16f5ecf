(** Solution certificates.

    Heuristics and external tools hand back mappings; this module
    re-derives everything from first principles and reports exactly what
    holds: structural validity, metric consistency, threshold feasibility,
    and — when the platform class admits a polynomial optimal algorithm or
    the instance is small enough for branch-and-bound — optimality. *)

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
(** On intractable classes the optimality certificate comes from
    branch-and-bound, run only when stages times processors is at most
    36 (n, m <= 6); beyond that optimality is [Unknown]. *)

val ok : report -> bool
(** Structurally valid, consistent and feasible (optimality not
    required). *)

val pp : Format.formatter -> report -> unit
