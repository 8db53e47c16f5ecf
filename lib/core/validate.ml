open Relpipe_model
module F = Relpipe_util.Float_cmp

type optimality = Optimal | Suboptimal of float | Unknown

type report = {
  structurally_valid : bool;
  evaluation_consistent : bool;
  feasible : bool;
  optimality : optimality;
  messages : string list;
  diagnostics : Relpipe_analysis.Diagnostic.t list;
}

(* The reference optimum comes from Solver: Algorithms 1-4 where they
   apply, else the exact leg within the default budget.  [Error] carries
   the solver's refusal. *)
let certify instance objective (s : Solution.t) =
  let reference =
    match Solver.run ~method_:Solver.Polynomial instance objective with
    | Error (Solver.Not_applicable _) ->
        Solver.run ~method_:Solver.Exact_enum instance objective
    | r -> r
  in
  match reference with
  | Error e -> Error (Solver.error_to_string e)
  | Ok None ->
      (* The reference says infeasible — the caller's feasibility flag
         distinguishes. *)
      Ok Unknown
  | Ok (Some reference) ->
      let mine = Instance.objective_value objective s.Solution.evaluation in
      let best = Instance.objective_value objective reference.Solution.evaluation in
      if F.approx_eq ~eps:1e-6 mine best then Ok Optimal
      else Ok (Suboptimal (mine -. best))

let check instance objective s =
  let n = Pipeline.length instance.Instance.pipeline in
  let m = Platform.size instance.Instance.platform in
  let messages = ref [] in
  let say fmt = Format.kasprintf (fun msg -> messages := msg :: !messages) fmt in
  let structurally_valid =
    match Mapping.validate ~n ~m (Mapping.intervals s.Solution.mapping) with
    | Ok _ -> true
    | Error msg ->
        say "invalid mapping: %s" msg;
        false
  in
  let evaluation_consistent =
    if not structurally_valid then false
    else begin
      let fresh = Instance.evaluate instance s.Solution.mapping in
      let lat_ok =
        F.approx_eq ~eps:1e-9 fresh.Instance.latency
          s.Solution.evaluation.Instance.latency
      in
      let fp_ok =
        F.approx_eq ~eps:1e-9 fresh.Instance.failure
          s.Solution.evaluation.Instance.failure
      in
      if not lat_ok then
        say "stored latency %g but re-evaluation gives %g"
          s.Solution.evaluation.Instance.latency fresh.Instance.latency;
      if not fp_ok then
        say "stored failure %g but re-evaluation gives %g"
          s.Solution.evaluation.Instance.failure fresh.Instance.failure;
      lat_ok && fp_ok
    end
  in
  let feasible =
    structurally_valid
    &&
    let holds = Instance.feasible objective s.Solution.evaluation in
    if not holds then
      say "threshold violated: %a but solution has %a" Instance.pp_objective
        objective Instance.pp_evaluation s.Solution.evaluation;
    holds
  in
  let optimality =
    if not (structurally_valid && feasible) then Unknown
    else begin
      match certify instance objective s with
      | Ok (Suboptimal gap) ->
          say "suboptimal by %g (certified)" gap;
          Suboptimal gap
      | Ok optimality -> optimality
      | Error refusal ->
          say "no certificate: %s" refusal;
          Unknown
    end
  in
  (* Fold the static-analysis findings in: instance-level numeric hazards
     plus the mapping-pass view of the solution (one-port serialization,
     ...).  Warnings and errors join [messages]; everything, hints
     included, is kept in [diagnostics]. *)
  let diagnostics =
    Relpipe_analysis.Analysis.lint_solution instance s.Solution.mapping
  in
  List.iter
    (fun d ->
      if
        Relpipe_analysis.Severity.compare
          d.Relpipe_analysis.Diagnostic.severity Relpipe_analysis.Severity.Warning
        >= 0
      then say "%s" (Relpipe_analysis.Diagnostic.to_string d))
    diagnostics;
  {
    structurally_valid;
    evaluation_consistent;
    feasible;
    optimality;
    messages = List.rev !messages;
    diagnostics;
  }

let ok r = r.structurally_valid && r.evaluation_consistent && r.feasible

let pp ppf r =
  let flag b = if b then "ok" else "FAIL" in
  Format.fprintf ppf "@[<v>structure: %s@,evaluation: %s@,feasibility: %s@,"
    (flag r.structurally_valid)
    (flag r.evaluation_consistent)
    (flag r.feasible);
  (match r.optimality with
  | Optimal -> Format.fprintf ppf "optimality: certified optimal@,"
  | Suboptimal gap -> Format.fprintf ppf "optimality: suboptimal by %g@," gap
  | Unknown -> Format.fprintf ppf "optimality: no tractable certificate@,");
  List.iter (fun msg -> Format.fprintf ppf "  - %s@," msg) r.messages;
  Format.fprintf ppf "@]"
