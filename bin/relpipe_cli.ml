(* relpipe command-line interface.

   Subcommands:
     describe     classify a platform and say which algorithm applies
     solve        solve a bi-criteria mapping problem from an instance file
     exact        run the exact kernels serial/parallel, optionally certified
     cert         independently check an optimality certificate
     simulate     Monte-Carlo-validate a solved mapping
     pareto       print the latency/reliability trade-off front
     eval         evaluate and validate a user-supplied mapping
     tri          minimise failure under joint latency and period bounds
     goodput      measure goodput over simulated missions
     experiments  regenerate every paper experiment (E1-E24)
     catalog      list the built-in platform presets, or export one
     lint         statically check an instance (and a mapping)
     batch        answer a JSONL stream of solve requests (cached, parallel)
     serve        daemon: the batch protocol over Unix/TCP sockets
     call         scripted client for a running serve daemon
     prof         profile one solve: per-phase spans and solver counters
     sweep        generate synthetic scenarios and batch-solve them
     atlas        stream a seeded Zipf/bursty workload with online aggregation
     fuzz         differential fuzzing with delta-shrinking
     devlint      statically analyse the repository's own OCaml sources
     churn        replay a seeded churn scenario with incremental re-solving
     demo         write a sample instance file (the paper's Fig. 5)

   A flag shared by several subcommands is declared once below, and every
   count is range-checked by its converter, so a bad value is a usage
   error naming the flag. *)

open Cmdliner
open Relpipe_model
open Relpipe_core
module Service = Relpipe_service
module Serve = Relpipe_serve
module Pool = Relpipe_pool.Pool

(* ------------------------------------------------------------------ *)
(* Shared terms and helpers                                            *)
(* ------------------------------------------------------------------ *)

let int_at_least k =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < k ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected an integer >= %d" s
                k))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* Parse failures are rendered through the Relpipe_analysis spans
   ("path:line:col: error[RP-P001]: ..."), exactly like `relpipe lint`. *)
let instance_arg =
  let doc = "Instance description file (see `relpipe demo` for the format)." in
  let path =
    Arg.(required & opt (some file) None & info [ "i"; "instance" ] ~doc)
  in
  Term.(
    term_result' (const Relpipe_analysis.Analysis.load_instance_file $ path))

let objective_arg =
  let max_latency =
    let doc = "Minimize failure probability subject to this latency bound." in
    Arg.(value & opt (some float) None & info [ "L"; "max-latency" ] ~doc)
  in
  let max_failure =
    let doc = "Minimize latency subject to this failure-probability bound." in
    Arg.(value & opt (some float) None & info [ "F"; "max-failure" ] ~doc)
  in
  let combine l f =
    match l, f with
    | Some max_latency, None -> Ok (Instance.Min_failure { max_latency })
    | None, Some max_failure -> Ok (Instance.Min_latency { max_failure })
    | _ -> Error "pass exactly one of --max-latency or --max-failure"
  in
  Term.(term_result' (const combine $ max_latency $ max_failure))

let method_arg =
  let methods = Service.Protocol.method_names in
  let doc =
    Printf.sprintf "Solving method: %s."
      (String.concat ", " (List.map fst methods))
  in
  Arg.(value & opt (enum methods) Solver.Auto & info [ "m"; "method" ] ~doc)

let seed_arg ?(doc = "Random seed.") default =
  Arg.(value & opt int default & info [ "s"; "seed" ] ~doc)

let trials_arg ~doc default =
  Arg.(value & opt (int_at_least 1) default & info [ "t"; "trials" ] ~doc)

let certify_arg ~doc =
  Arg.(value & opt (some string) None & info [ "certify" ] ~docv:"FILE" ~doc)

let format_arg =
  let doc = "Output format: text or json." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~doc)

let virtual_clock_flag =
  let doc =
    "Timestamp metrics and traces with a deterministic virtual clock \
     (fixed tick per reading) instead of the wall clock, so the \
     files are byte-identical across runs and worker counts."
  in
  Arg.(value & flag & info [ "virtual-clock" ] ~doc)

(* -w/--workers and --exact-workers resolve to one domain count: 0 means
   every CPU, and the count is capped at the CPU count unless
   --exact-workers asks for oversubscription. *)
let workers_arg =
  let workers =
    let doc =
      "Worker domains for the solve phase (0 = all CPUs).  Clamped to the \
       detected CPU count unless $(b,--exact-workers) is set."
    in
    Arg.(value & opt int 0 & info [ "w"; "workers" ] ~doc)
  in
  let exact_workers =
    let doc =
      "Spawn exactly the requested number of domains, even beyond the CPU \
       count (oversubscription; used by tests to exercise scheduling on \
       small machines).  Output is byte-identical either way."
    in
    Arg.(value & flag & info [ "exact-workers" ] ~doc)
  in
  let resolve workers exact_workers =
    Pool.effective_workers ~cap:(not exact_workers)
      (if workers <= 0 then Pool.cpu_count () else workers)
  in
  Term.(const resolve $ workers $ exact_workers)

let print_solution inst (s : Solution.t) =
  Format.printf "mapping:  %a@." Mapping.pp s.Solution.mapping;
  Format.printf "latency:  %g@." s.Solution.evaluation.Instance.latency;
  Format.printf "failure:  %g@." s.Solution.evaluation.Instance.failure;
  Format.printf "class:    %s@." (Solver.describe inst)

(* The refusals the solvers raise for inputs they cannot handle: an
   argument outside their domain, and an exact search over its budget. *)
let guarded run =
  try run ()
  with Invalid_argument msg | Exact.Too_large msg -> `Error (false, msg)

let exit_with code =
  Format.print_flush ();
  Stdlib.exit code

(* Every file the CLI reads or writes, apart from the instance, goes
   through [with_input] or [with_output], so a bad path is an error that
   names it, never an uncaught Sys_error.  "-" is stdin or stdout. *)
let io_error verb path msg =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix)
        (String.length msg - String.length prefix)
    else msg
  in
  Printf.sprintf "cannot %s %s: %s" verb path reason

let with_input path f =
  match if path = "-" then f stdin else In_channel.with_open_text path f with
  | v -> Ok v
  | exception Sys_error msg -> Error (io_error "read" path msg)

(* Write failures (unwritable path, ENOSPC, a closed pipe) are reported,
   never a silently truncated file. *)
let with_output path f =
  match
    match path with
    | "-" ->
        f stdout;
        flush stdout
    | path ->
        (* Flush inside the guarded region: with_open_text closes with
           close_noerr, which would swallow an ENOSPC at close time. *)
        Out_channel.with_open_text path (fun oc ->
            f oc;
            Out_channel.flush oc)
  with
  | () -> Ok ()
  | exception Sys_error msg ->
      Error (io_error "write" (if path = "-" then "stdout" else path) msg)

let print_rule_table third rows =
  let module T = Relpipe_util.Table in
  let table =
    T.create
      ~aligns:[ T.Left; T.Left; T.Left; T.Left ]
      [ "id"; "severity"; third; "title" ]
  in
  List.iter (T.add_row table) rows;
  T.print table

(* ------------------------------------------------------------------ *)

let describe_cmd =
  let run inst =
    let platform = inst.Instance.platform in
    Format.printf "pipeline: %d stages, total work %g@."
      (Pipeline.length inst.Instance.pipeline)
      (Pipeline.total_work inst.Instance.pipeline);
    Format.printf "platform: %d processors@." (Platform.size platform);
    Format.printf "classes:  %a, %a@." Classify.pp_comm_class
      (Classify.comm_class platform)
      Classify.pp_failure_class
      (Classify.failure_class platform);
    Format.printf "dispatch: %s@." (Solver.describe inst)
  in
  let doc = "Classify an instance and report the applicable algorithm." in
  Cmd.v (Cmd.info "describe" ~doc) Term.(const run $ instance_arg)

(* solve --certify and exact --certify write the certificate before the
   self-check, so a rejected certificate is still on disk for
   inspection. *)
let write_and_check ~path inst cert =
  match
    with_output path (fun oc ->
        Out_channel.output_string oc (Relpipe_cert.Cert.to_string cert))
  with
  | Error _ as e -> e
  | Ok () -> (
      match Relpipe_cert.Check.check inst cert with
      | Ok entries ->
          Format.printf "certificate: %s (%d entries, checker accepted)@." path
            entries;
          Ok ()
      | Error msg ->
          Error
            (Printf.sprintf "certificate self-check rejected %s: %s" path msg))

let solve_cmd =
  let certify_arg =
    certify_arg
      ~doc:
        "Write an optimality certificate (a replayable branch-and-bound \
         transcript) to $(docv) and replay it through the independent \
         checker before reporting.  Forces the exact branch-and-bound \
         solver; the answer is bit-identical to the uncertified solve."
  in
  let run inst objective method_ certify =
    guarded @@ fun () ->
    let solution =
      match certify with
      | None -> Ok (Solver.solve ~method_ inst objective)
      | Some path ->
          let best, cert = Certify.bb inst objective in
          Result.map (fun () -> best) (write_and_check ~path inst cert)
    in
    match solution with
    | Error msg -> `Error (false, msg)
    | Ok (Some s) ->
        print_solution inst s;
        `Ok ()
    | Ok None ->
        Format.printf "no feasible mapping for %a@." Instance.pp_objective
          objective;
        `Ok ()
  in
  let doc = "Solve a bi-criteria mapping problem." in
  Cmd.v (Cmd.info "solve" ~doc)
    Term.(
      ret (const run $ instance_arg $ objective_arg $ method_arg $ certify_arg))

(* --- exact: the parallel/serial exact kernels, head to head --------- *)

let exact_cmd =
  let leg_arg =
    let doc =
      "Exact kernel to run: $(b,bb) (branch and bound, full bi-criteria \
       objective) or $(b,dp) (interval DP, unreplicated minimum latency; \
       the objective bound is ignored)."
    in
    Arg.(value & opt (enum [ ("bb", `Bb); ("dp", `Dp) ]) `Bb
         & info [ "leg" ] ~docv:"LEG" ~doc)
  in
  (* Not the shared workers term: the count is never capped (check.sh
     runs 8 domains on small hosts), and absent means the serial
     kernel. *)
  let workers_arg =
    let doc =
      "Run the parallel kernel over this many pool domains; without it \
       the serial kernel runs.  The answer is bit-identical to the serial \
       kernel at every worker count — diff the outputs to check."
    in
    Arg.(value & opt (some int) None & info [ "w"; "workers" ] ~docv:"N" ~doc)
  in
  let certify_arg =
    certify_arg
      ~doc:
        "Write the optimality certificate for the chosen leg to $(docv) and \
         replay it through the independent checker."
  in
  (* Hex floats alongside %g so serial-vs-parallel runs can be compared
     byte-for-byte (tools/check.sh does exactly that). *)
  let print_exact latency failure mapping =
    Format.printf "mapping:  %a@." Mapping.pp mapping;
    Format.printf "latency:  %g (%h)@." latency latency;
    match failure with
    | None -> ()
    | Some f -> Format.printf "failure:  %g (%h)@." f f
  in
  let run inst objective leg workers certify =
    let certify_with emit =
      match certify with
      | None -> `Ok ()
      | Some path -> (
          match emit () with
          | None -> `Error (false, "nothing to certify: no feasible mapping")
          | Some cert -> (
              match write_and_check ~path inst cert with
              | Ok () -> `Ok ()
              | Error msg -> `Error (false, msg)))
    in
    match leg with
    | `Bb ->
        let solution =
          match workers with
          | None -> Bb.solve inst objective
          | Some w -> Bb.solve_par ~workers:w inst objective
        in
        (match solution with
        | Some s ->
            print_exact s.Solution.evaluation.Instance.latency
              (Some s.Solution.evaluation.Instance.failure)
              s.Solution.mapping
        | None ->
            Format.printf "no feasible mapping for %a@." Instance.pp_objective
              objective);
        certify_with (fun () -> Some (snd (Certify.bb inst objective)))
    | `Dp when Platform.size inst.Instance.platform > Interval_exact.max_procs ->
        `Error
          ( false,
            Printf.sprintf "interval DP supports at most %d processors"
              Interval_exact.max_procs )
    | `Dp ->
        let opt =
          match workers with
          | None -> Interval_exact.min_latency inst
          | Some w -> Interval_exact.min_latency_par ~workers:w inst
        in
        (match opt with
        | Some (latency, mapping) -> print_exact latency None mapping
        | None -> Format.printf "no interval mapping@.");
        certify_with (fun () -> snd (Certify.interval inst))
  in
  let doc = "Run the exact kernels, serial or parallel, optionally certified." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs one exact kernel directly: $(b,--leg bb) is the bi-criteria \
         branch and bound, $(b,--leg dp) the unreplicated interval DP.  \
         With $(b,-w N) the parallel twin runs over N pool domains; the \
         printed answer (including the hex float bits) is bit-identical \
         to the serial kernel at every worker count, so piping two runs \
         through $(b,diff) is a real determinism check.";
      `P
        "$(b,--certify FILE) additionally emits an optimality certificate \
         — a replayable search transcript for bb, a potential-function \
         table for dp — and replays it through the independent checker in \
         lib/cert, which shares no solver code.  $(b,relpipe cert) \
         re-checks a stored certificate later.";
    ]
  in
  Cmd.v (Cmd.info "exact" ~doc ~man)
    Term.(
      ret
        (const run $ instance_arg $ objective_arg $ leg_arg $ workers_arg
       $ certify_arg))

(* --- cert: independent certificate checking ------------------------ *)

let cert_cmd =
  let cert_file_arg =
    let doc = "Certificate file written by solve/exact $(b,--certify)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CERTFILE" ~doc)
  in
  let run inst cert_path =
    match with_input cert_path In_channel.input_all with
    | Error msg -> `Error (false, msg)
    | Ok text -> (
        match Relpipe_cert.Cert.of_string text with
        | Error msg ->
            Format.eprintf "%s: unreadable certificate: %s@." cert_path msg;
            exit_with 1
        | Ok cert -> (
            match Relpipe_cert.Check.check inst cert with
            | Ok entries ->
                Format.printf "%s: accepted (%d entries)@." cert_path entries;
                `Ok ()
            | Error msg ->
                Format.eprintf "%s: REJECTED: %s@." cert_path msg;
                exit_with 1))
  in
  let doc = "Check an optimality certificate against an instance." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays a certificate written by $(b,relpipe solve --certify) or \
         $(b,relpipe exact --certify) through the independent checker in \
         lib/cert.  The checker shares no code with the solvers: it \
         re-walks the branch-and-bound transcript (re-deriving every \
         bound and justifying every cut) or re-verifies the DP table as a \
         potential function, and binds the certificate to the instance \
         via its digest.";
      `P "Exit status is 1 when the certificate is rejected, 0 otherwise.";
    ]
  in
  Cmd.v (Cmd.info "cert" ~doc ~man)
    Term.(ret (const run $ instance_arg $ cert_file_arg))

let simulate_cmd =
  let run inst objective method_ trials seed =
    guarded @@ fun () ->
    match Solver.solve ~method_ inst objective with
    | None -> `Error (false, "no feasible mapping to simulate")
    | Some s ->
        print_solution inst s;
        let rng = Relpipe_util.Rng.create seed in
        let r =
          Relpipe_sim.Montecarlo.estimate rng inst s.Solution.mapping ~trials
            ~policy:Relpipe_sim.Trial.Optimistic
        in
        Format.printf "%a@." Relpipe_sim.Montecarlo.pp_result r;
        `Ok ()
  in
  let doc = "Solve, then validate the mapping by Monte-Carlo simulation." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run $ instance_arg $ objective_arg $ method_arg
        $ trials_arg ~doc:"Number of Monte-Carlo trials." 10_000
        $ seed_arg 42))

let pareto_cmd =
  let count_arg =
    let doc = "Number of latency thresholds to sweep." in
    Arg.(value & opt (int_at_least 2) 8 & info [ "n"; "points" ] ~doc)
  in
  let run inst method_ count =
    guarded @@ fun () ->
    let front =
      Pareto.front_with
        (fun inst objective -> Solver.solve ~method_ inst objective)
        inst ~count
    in
    let table =
      Relpipe_util.Table.create
        [ "threshold"; "latency"; "failure"; "intervals"; "replicas" ]
    in
    List.iter
      (fun p ->
        Relpipe_util.Table.add_row table
          [
            Relpipe_util.Table.fmt_float p.Pareto.threshold;
            Relpipe_util.Table.fmt_float
              p.Pareto.solution.Solution.evaluation.Instance.latency;
            Relpipe_util.Table.fmt_float
              p.Pareto.solution.Solution.evaluation.Instance.failure;
            string_of_int (Mapping.num_intervals p.Pareto.solution.Solution.mapping);
            string_of_int
              (List.length (Mapping.used_procs p.Pareto.solution.Solution.mapping));
          ])
      front;
    Relpipe_util.Table.print table;
    `Ok ()
  in
  let doc = "Print the latency/reliability Pareto front of an instance." in
  Cmd.v (Cmd.info "pareto" ~doc)
    Term.(ret (const run $ instance_arg $ method_arg $ count_arg))

let eval_cmd =
  let mapping_arg =
    let doc =
      "Mapping to evaluate, e.g. \"1:0; 2:1,2,3\" (stage range : processor \
       list, intervals separated by ';')."
    in
    Arg.(required & opt (some string) None & info [ "mapping" ] ~doc)
  in
  let run inst objective mapping_text =
    let n = Pipeline.length inst.Instance.pipeline in
    let m = Platform.size inst.Instance.platform in
    match Mapping_syntax.parse ~n ~m mapping_text with
    | Error msg -> `Error (false, msg)
    | Ok mapping ->
        let s = Solution.of_mapping inst mapping in
        print_solution inst s;
        Format.printf "period:   %g@."
          (Period.of_mapping inst.Instance.pipeline inst.Instance.platform
             mapping);
        let report = Validate.check inst objective s in
        Format.printf "%a@." Validate.pp report;
        if Validate.ok report then `Ok () else `Error (false, "validation failed")
  in
  let doc = "Evaluate and certify a user-supplied mapping." in
  Cmd.v (Cmd.info "eval" ~doc)
    Term.(ret (const run $ instance_arg $ objective_arg $ mapping_arg))

let tri_cmd =
  let latency_arg =
    let doc = "Latency threshold." in
    Arg.(required & opt (some float) None & info [ "L"; "max-latency" ] ~doc)
  in
  let period_arg =
    let doc = "Period (inverse-throughput) threshold." in
    Arg.(required & opt (some float) None & info [ "P"; "max-period" ] ~doc)
  in
  let exact_arg =
    let doc = "Use the exhaustive solver (small instances only)." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run inst max_latency max_period exact =
    guarded @@ fun () ->
    let constraints = { Tri.max_latency; max_period } in
    let solve =
      if exact then Tri.exact_min_failure else Tri.greedy_min_failure
    in
    (match solve inst constraints with
    | None ->
        Format.printf "no mapping satisfies latency <= %g and period <= %g@."
          max_latency max_period
    | Some s ->
        Format.printf "mapping: %a@.%a@." Mapping.pp s.Tri.mapping
          Tri.pp_evaluation s.Tri.evaluation);
    `Ok ()
  in
  let doc =
    "Minimize failure probability under joint latency and period bounds \
     (tri-criteria extension)."
  in
  Cmd.v (Cmd.info "tri" ~doc)
    Term.(ret (const run $ instance_arg $ latency_arg $ period_arg $ exact_arg))

let goodput_cmd =
  let mission_arg =
    let doc =
      "Mission length (time units); failure rates are derived from each \
       processor's fp over this horizon."
    in
    Arg.(value & opt float 1000.0 & info [ "mission" ] ~doc)
  in
  let run inst objective method_ mission trials seed =
    guarded @@ fun () ->
    match Solver.solve ~method_ inst objective with
    | None -> `Error (false, "no feasible mapping to simulate")
    | Some s ->
        print_solution inst s;
        let platform = inst.Instance.platform in
        let rates =
          Array.init (Platform.size platform) (fun u ->
              Failure_rate.rate_of_fp ~fp:(Platform.failure platform u)
                ~mission)
        in
        let rng = Relpipe_util.Rng.create seed in
        let goodputs =
          Array.init trials (fun _ ->
              (Relpipe_sim.Lifetime.run rng inst s.Solution.mapping ~rates
                 ~mission)
                .Relpipe_sim.Lifetime.goodput)
        in
        let empirical, analytic =
          Relpipe_sim.Lifetime.survival_estimate rng inst s.Solution.mapping
            ~rates ~mission ~trials
        in
        Format.printf "goodput: %a@."
          Relpipe_util.Stats.pp_summary
          (Relpipe_util.Stats.summarize goodputs);
        Format.printf "mission survival: empirical %.4f, analytic %.4f@."
          empirical analytic;
        `Ok ()
  in
  let doc =
    "Solve, then measure goodput (fraction of the stream completed before \
     a compromise) over simulated missions."
  in
  Cmd.v (Cmd.info "goodput" ~doc)
    Term.(
      ret
        (const run $ instance_arg $ objective_arg $ method_arg $ mission_arg
        $ trials_arg ~doc:"Number of simulated missions." 1000
        $ seed_arg 42))

let experiments_cmd =
  let only_arg =
    let doc = "Only run experiments whose title contains this string (e.g. \"E5\")." in
    Arg.(value & opt (some string) None & info [ "only" ] ~doc)
  in
  let markdown_arg =
    let doc = "Emit GitHub-flavoured markdown tables." in
    Arg.(value & flag & info [ "markdown" ] ~doc)
  in
  let run only markdown =
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      nl = 0 || go 0
    in
    let selected =
      List.filter
        (fun (title, _) ->
          match only with None -> true | Some s -> contains s title)
        (Relpipe_experiments.Experiments.all ())
    in
    match selected with
    | [] -> `Error (false, "no experiment matches")
    | _ :: _ ->
        List.iter
          (fun (title, experiment) ->
            let table = experiment () in
            if markdown then begin
              Printf.printf "## %s\n\n" title;
              print_string (Relpipe_util.Table.render_markdown table)
            end
            else begin
              print_endline title;
              print_endline (String.make (String.length title) '=');
              Relpipe_util.Table.print table
            end;
            print_newline ())
          selected;
        `Ok ()
  in
  let doc = "Regenerate the paper experiments (DESIGN.md E1-E24)." in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(ret (const run $ only_arg $ markdown_arg))

let catalog_cmd =
  let write_arg =
    let doc =
      "Write an instance file combining this preset platform with the JPEG \
       encoder pipeline."
    in
    Arg.(value & opt (some string) None & info [ "write" ] ~doc)
  in
  let out_arg =
    let doc = "Output path for --write." in
    Arg.(value & opt string "catalog.relpipe" & info [ "o"; "output" ] ~doc)
  in
  let run write out =
    match write with
    | None ->
        let table =
          Relpipe_util.Table.create
            ~aligns:[ Relpipe_util.Table.Left; Relpipe_util.Table.Right;
                      Relpipe_util.Table.Left; Relpipe_util.Table.Left ]
            [ "name"; "m"; "classes"; "description" ]
        in
        List.iter
          (fun e ->
            let p = e.Relpipe_workload.Catalog.platform in
            Relpipe_util.Table.add_row table
              [
                e.Relpipe_workload.Catalog.name;
                string_of_int (Platform.size p);
                Format.asprintf "%a, %a" Classify.pp_comm_class
                  (Classify.comm_class p) Classify.pp_failure_class
                  (Classify.failure_class p);
                e.Relpipe_workload.Catalog.description;
              ])
          Relpipe_workload.Catalog.all;
        Relpipe_util.Table.print table;
        `Ok ()
    | Some name -> (
        match Relpipe_workload.Catalog.find name with
        | None -> `Error (false, Printf.sprintf "unknown preset %S" name)
        | Some e -> (
            let inst =
              Instance.make
                (Relpipe_workload.Jpeg.pipeline ())
                e.Relpipe_workload.Catalog.platform
            in
            match
              with_output out (fun oc ->
                  Out_channel.output_string oc
                    (Printf.sprintf "# %s: %s\n"
                       e.Relpipe_workload.Catalog.name
                       e.Relpipe_workload.Catalog.description
                    ^ Textio.to_string inst))
            with
            | Error msg -> `Error (false, msg)
            | Ok () ->
                Format.printf "wrote %s@." out;
                `Ok ()))
  in
  let doc = "List the built-in platform presets, or export one as an instance." in
  Cmd.v (Cmd.info "catalog" ~doc) Term.(ret (const run $ write_arg $ out_arg))

let lint_cmd =
  let module A = Relpipe_analysis in
  let file_arg =
    let doc =
      "Instance file to lint.  Omit when using $(b,--rules) or \
       $(b,--builtin)."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let mapping_arg =
    let doc =
      "Also lint this mapping (e.g. \"1-2:0; 3:1,2\") against the instance."
    in
    Arg.(value & opt (some string) None & info [ "mapping" ] ~doc)
  in
  let rules_flag =
    let doc = "Print the rule catalog and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let builtin_flag =
    let doc =
      "Lint the built-in catalog presets and paper scenarios instead of a \
       file."
    in
    Arg.(value & flag & info [ "builtin" ] ~doc)
  in
  let report_text ~file diags =
    if diags = [] then Format.printf "%s: clean@." file
    else
      List.iter (fun d -> Format.printf "%a@." (A.Diagnostic.pp ~file) d) diags
  in
  (* Exit reflects the worst finding: 2 on errors, 1 on warnings, 0
     otherwise (hints are informational). *)
  let finish diags =
    let code = A.Diagnostic.exit_code diags in
    if code = 0 then `Ok () else exit_with code
  in
  let builtin_instances () =
    let jpeg = Relpipe_workload.Jpeg.pipeline () in
    List.map
      (fun e ->
        ( "catalog:" ^ e.Relpipe_workload.Catalog.name,
          Instance.make jpeg e.Relpipe_workload.Catalog.platform ))
      Relpipe_workload.Catalog.all
    @ [
        ("scenario:fig34", Relpipe_workload.Scenarios.fig34 ());
        ("scenario:fig5", Relpipe_workload.Scenarios.fig5 ());
        ( "scenario:grid",
          Relpipe_workload.Scenarios.grid_instance (Relpipe_util.Rng.create 7) );
      ]
  in
  let run file format mapping rules builtin =
    if rules then begin
      print_rule_table "pass"
        (List.map
           (fun r ->
             [
               r.A.Rule.id;
               A.Severity.to_string r.A.Rule.severity;
               A.Rule.pass_name r.A.Rule.pass;
               r.A.Rule.title;
             ])
           (A.Analysis.rules ()));
      `Ok ()
    end
    else if builtin then begin
      let diags =
        List.concat_map
          (fun (name, inst) ->
            let ds = A.Analysis.lint_instance inst in
            (match format with `Text -> report_text ~file:name ds | `Json -> ());
            ds)
          (builtin_instances ())
      in
      if format = `Json then
        print_endline (A.Diagnostic.report_to_json ~file:"<builtin>" diags);
      finish diags
    end
    else
      match file with
      | None ->
          `Error (true, "pass an instance FILE (or --rules / --builtin)")
      | Some path -> (
          match with_input path In_channel.input_all with
          | Error msg -> `Error (false, msg)
          | Ok text ->
              let instance_diags = A.Analysis.lint_instance_text text in
              let mapping_diags =
                match mapping with
                | None -> []
                | Some mtext -> (
                    (* Mapping rules need the instance's shape; skip (with
                       an error already reported) when it does not even
                       parse. *)
                    match Textio.parse text with
                    | Error _ -> []
                    | Ok inst ->
                        let n = Pipeline.length inst.Instance.pipeline in
                        let m = Platform.size inst.Instance.platform in
                        A.Analysis.lint_mapping_text ~n ~m mtext)
              in
              (match format with
              | `Text ->
                  report_text ~file:path instance_diags;
                  if mapping <> None then
                    report_text ~file:"<mapping>" mapping_diags
              | `Json ->
                  print_endline
                    (A.Diagnostic.report_to_json ~file:path
                       (instance_diags @ mapping_diags)));
              finish (instance_diags @ mapping_diags))
  in
  let doc = "Statically check an instance (and optionally a mapping)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the $(b,relpipe.analysis) diagnostics engine: the instance \
         pass (domain errors, connectivity, dominance), the numeric pass \
         (underflow/absorption hazards) and, with $(b,--mapping), the \
         mapping pass (contiguity, replication, one-port effects).";
      `P
        "Exit status is 2 if any error was reported, 1 if any warning, 0 \
         otherwise.";
    ]
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(
      ret
        (const run $ file_arg $ format_arg $ mapping_arg $ rules_flag
       $ builtin_flag))

(* ------------------------------------------------------------------ *)
(* Batch service                                                       *)
(* ------------------------------------------------------------------ *)

(* How batch, sweep, atlas and serve build their engine. *)
type engine_opts = { workers : int; cache_size : int; stats : bool }

let engine_arg =
  let cache_size =
    let doc = "Result-cache capacity (canonical instances; 0 disables)." in
    Arg.(value & opt (int_at_least 0) 1024 & info [ "cache-size" ] ~doc)
  in
  let stats =
    let doc = "Print engine and cache counters to stderr after the batch." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let make workers cache_size stats = { workers; cache_size; stats } in
  Term.(const make $ workers_arg $ cache_size $ stats)

(* The worker count is already resolved, CPU cap included. *)
let make_engine ?obs ?(cache_shards = 1) opts =
  Service.Engine.create ?obs ~workers:opts.workers ~cap_to_cpus:false
    ~cache_capacity:opts.cache_size ~cache_shards ()

let print_stats opts engine =
  if opts.stats then
    Format.eprintf "%a@." Service.Engine.pp_stats (Service.Engine.stats engine)

let output_arg =
  let doc = "Write JSONL responses here ($(b,-) = stdout)." in
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~doc)

let requests_arg =
  let doc = "JSONL request file ($(b,-) = stdin), one request per line." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"REQUESTS" ~doc)

let metrics_arg =
  let doc = "Write a JSONL metric snapshot here after the batch." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc = "Write the JSONL span/event trace here after the batch." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let make_obs ~tracing ~virtual_clock =
  let clock =
    if virtual_clock then Relpipe_obs.Clock.virtual_ ()
    else Relpipe_obs.Clock.monotonic ()
  in
  Relpipe_obs.Obs.create ~tracing ~clock ()

(* Observability sinks are opened eagerly, before any solving, so a bad
   path fails the command instead of discarding a finished batch. *)
let open_sink = function
  | None -> Ok None
  | Some path -> (
      match Out_channel.open_text path with
      | oc -> Ok (Some oc)
      | exception Sys_error msg -> Error (io_error "write" path msg))

let close_sink = function
  | None -> ()
  | Some oc -> Out_channel.close oc

let write_sink sink content =
  match sink with
  | None -> ()
  | Some oc ->
      Out_channel.output_string oc content;
      Out_channel.close oc

let batch_cmd =
  let run input output opts metrics trace virtual_clock =
    match (open_sink metrics, open_sink trace) with
    | Error msg, other ->
        (match other with Ok s -> close_sink s | Error _ -> ());
        `Error (false, msg)
    | Ok metrics_sink, Error msg ->
        close_sink metrics_sink;
        `Error (false, msg)
    | Ok metrics_sink, Ok trace_sink -> (
        match with_input input In_channel.input_lines with
        | Error msg ->
            close_sink metrics_sink;
            close_sink trace_sink;
            `Error (false, msg)
        | Ok lines -> (
            let obs =
              match (metrics_sink, trace_sink) with
              | None, None -> None
              | _ ->
                  Some
                    (make_obs
                       ~tracing:(Option.is_some trace_sink)
                       ~virtual_clock)
            in
            let engine = make_engine ?obs opts in
            let responses = Service.Engine.run_lines engine lines in
            match
              with_output output (fun oc ->
                  List.iter
                    (fun line ->
                      Out_channel.output_string oc line;
                      Out_channel.output_char oc '\n')
                    responses)
            with
            | Error msg ->
                close_sink metrics_sink;
                close_sink trace_sink;
                `Error (false, msg)
            | Ok () ->
                (match obs with
                | None -> ()
                | Some o ->
                    write_sink metrics_sink (Relpipe_obs.Obs.metrics_jsonl o);
                    write_sink trace_sink (Relpipe_obs.Obs.trace_jsonl o));
                print_stats opts engine;
                `Ok ()))
  in
  let doc = "Batch-solve a JSON-lines request stream." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one JSON request per line, answers through the \
         $(b,relpipe.service) engine (canonicalization, LRU result cache, \
         Domain worker pool) and writes one JSON response per line, in \
         request order.  Output is deterministic: byte-identical for every \
         worker count.";
      `P
        "Request: {\"v\":1, \"id\":..., \"instance\":TEXT | \
         \"instance_file\":PATH, \"objective\":{\"minimize\":\"failure\", \
         \"max_latency\":L} | {\"minimize\":\"latency\",\"max_failure\":F}, \
         \"method\":NAME, \"budget\":N}.";
      `P
        "Response: {\"v\":1, \"index\":I, \"id\":..., \
         \"cache\":\"hit\"|\"miss\", \"status\":\"ok\"|\"infeasible\"|\
         \"error\", ...}.  Malformed lines yield per-line error responses, \
         never a failed batch.";
      `P
        "$(b,--metrics) and $(b,--trace) record counters, phase spans and \
         per-job timings without changing a single response byte; with \
         $(b,--virtual-clock) the recorded files are themselves \
         byte-deterministic for every worker count.";
    ]
  in
  Cmd.v (Cmd.info "batch" ~doc ~man)
    Term.(
      ret
        (const run $ requests_arg $ output_arg $ engine_arg $ metrics_arg
       $ trace_arg $ virtual_clock_flag))

let prof_cmd =
  let run inst objective method_ virtual_clock =
    let obs = make_obs ~tracing:true ~virtual_clock in
    let engine = Service.Engine.create ~obs ~workers:1 () in
    let r = Service.Engine.solve_instance engine ~method_ inst objective in
    (match r.Service.Protocol.r_outcome with
    | Service.Protocol.Solved { mapping; latency; failure } ->
        Format.printf "status:   solved@.";
        Format.printf "mapping:  %s@." mapping;
        Format.printf "latency:  %g@." latency;
        Format.printf "failure:  %g@." failure
    | Service.Protocol.Infeasible -> Format.printf "status:   infeasible@."
    | Service.Protocol.Failed msg ->
        Format.printf "status:   error (%s)@." msg);
    let module T = Relpipe_util.Table in
    print_newline ();
    let phases = T.create [ "span"; "start_ns"; "dur_ns" ] in
    (match obs.Relpipe_obs.Obs.trace with
    | None -> ()
    | Some tr ->
        List.iter
          (fun (ev : Relpipe_obs.Trace.event) ->
            match ev.Relpipe_obs.Trace.dur with
            | Some d
              when String.starts_with ~prefix:"engine." ev.Relpipe_obs.Trace.name
              ->
                T.add_row phases
                  [
                    ev.Relpipe_obs.Trace.name;
                    string_of_int ev.Relpipe_obs.Trace.ts;
                    string_of_int d;
                  ]
            | _ -> ())
          (Relpipe_obs.Trace.events tr));
    print_string (T.render phases);
    print_newline ();
    let metrics = T.create [ "metric"; "value" ] in
    List.iter
      (fun (name, view) ->
        let value =
          match view with
          | Relpipe_obs.Metric.Counter_v v | Relpipe_obs.Metric.Gauge_v v ->
              string_of_int v
          | Relpipe_obs.Metric.Histogram_v { count; sum } ->
              Printf.sprintf "n=%d sum=%s" count (T.fmt_float sum)
        in
        T.add_row metrics [ name; value ])
      (Relpipe_obs.Metric.bindings obs.Relpipe_obs.Obs.metrics);
    print_string (T.render metrics)
  in
  let doc = "Profile one solve: per-phase spans and solver counters." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Solves one instance through the batch engine with tracing and \
         metrics enabled, then prints the recorded $(b,engine.*) spans \
         (start and duration in nanoseconds) and every counter, gauge and \
         histogram the run touched — DP cell and relaxation counts, \
         branch-and-bound node/prune totals, cache and pool activity.";
      `P
        "With $(b,--virtual-clock) timestamps come from a deterministic \
         tick, so the report is byte-stable across runs and machines — the \
         golden-snapshot tests and $(b,tools/check.sh) pin it \
         byte-for-byte.";
    ]
  in
  Cmd.v (Cmd.info "prof" ~doc ~man)
    Term.(
      const run $ instance_arg $ objective_arg $ method_arg $ virtual_clock_flag)

let sweep_cmd =
  let count_arg =
    let doc = "Number of scenarios to generate." in
    Arg.(value & opt (int_at_least 1) 50 & info [ "n"; "count" ] ~doc)
  in
  let class_arg =
    let classes =
      [
        ("fully-hetero", `Fully_hetero);
        ("comm-homog", `Comm_homog);
        ("fully-homog", `Fully_homog);
        ("speed-correlated", `Speed_correlated);
        ("clustered", `Clustered);
        ("two-tier", `Two_tier);
      ]
    in
    let doc =
      Printf.sprintf "Platform class to sample: %s."
        (String.concat ", " (List.map fst classes))
    in
    Arg.(value & opt (enum classes) `Fully_hetero & info [ "class" ] ~doc)
  in
  let stages_arg =
    let doc = "Pipeline length of each scenario." in
    Arg.(value & opt (int_at_least 1) 8 & info [ "stages" ] ~doc)
  in
  let procs_arg =
    let doc = "Platform size of each scenario." in
    Arg.(value & opt (int_at_least 1) 6 & info [ "procs" ] ~doc)
  in
  let emit_arg =
    let doc = "Also write the generated requests as JSONL to this file." in
    Arg.(value & opt (some string) None & info [ "emit-requests" ] ~doc)
  in
  let dry_run_arg =
    let doc = "Generate (and $(b,--emit-requests)) only; skip solving." in
    Arg.(value & flag & info [ "dry-run" ] ~doc)
  in
  let gen_platform rng class_ ~m =
    let module P = Relpipe_workload.Plat_gen in
    let module Rng = Relpipe_util.Rng in
    match class_ with
    | `Fully_hetero ->
        P.random_fully_heterogeneous rng ~m ~speed:(1.0, 10.0)
          ~failure:(0.05, 0.6) ~bandwidth:(0.5, 10.0)
    | `Comm_homog ->
        P.random_comm_homogeneous rng ~m ~speed:(1.0, 10.0)
          ~failure:(0.05, 0.6) ~bandwidth:4.0
    | `Fully_homog ->
        P.fully_homogeneous ~m
          ~speed:(Rng.float_range rng 1.0 10.0)
          ~failure:(Rng.float_range rng 0.05 0.6)
          ~bandwidth:(Rng.float_range rng 1.0 10.0)
    | `Speed_correlated ->
        P.speed_correlated_failures rng ~m ~speed:(1.0, 10.0)
          ~failure:(0.05, 0.8) ~bandwidth:4.0
    | `Clustered ->
        P.clustered rng ~clusters:(max 1 (m / 4)) ~cluster_size:4
          ~speed:(1.0, 10.0) ~failure:(0.05, 0.6) ~intra_bandwidth:10.0
          ~inter_bandwidth:1.0 ~io_bandwidth:2.0
    | `Two_tier ->
        P.two_tier ~m_slow:1 ~m_fast:(max 1 (m - 1)) ~slow_speed:1.0
          ~fast_speed:100.0 ~slow_failure:0.1 ~fast_failure:0.8 ~bandwidth:1.0
  in
  let write_lines encode path items =
    with_output path (fun oc ->
        Array.iter
          (fun r ->
            Out_channel.output_string oc (encode r);
            Out_channel.output_char oc '\n')
          items)
  in
  let run count seed class_ n m objective method_ output opts emit dry_run =
    let rng = Relpipe_util.Rng.create seed in
    let requests =
      Array.init count (fun k ->
          let pipeline =
            Relpipe_workload.App_gen.random rng
              {
                Relpipe_workload.App_gen.n;
                work = (1.0, 20.0);
                data = (0.5, 10.0);
              }
          in
          let platform = gen_platform rng class_ ~m in
          let inst = Instance.make pipeline platform in
          Service.Protocol.request
            ~id:(Printf.sprintf "sweep-%03d" k)
            ~method_
            ~instance:(Service.Protocol.Inline (Textio.to_string inst))
            objective)
    in
    let emitted =
      match emit with
      | None -> Ok ()
      | Some path ->
          Result.map
            (fun () -> Format.eprintf "wrote %d requests to %s@." count path)
            (write_lines Service.Protocol.encode_request path requests)
    in
    match emitted with
    | Error msg -> `Error (false, msg)
    | Ok () when dry_run -> `Ok ()
    | Ok () -> (
        let engine = make_engine opts in
        let responses = Service.Engine.run_requests engine requests in
        match write_lines Service.Protocol.encode_response output responses with
        | Error msg -> `Error (false, msg)
        | Ok () ->
            print_stats opts engine;
            `Ok ())
  in
  let doc =
    "Generate synthetic scenarios and push them through the batch engine."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Samples $(b,--count) instances from the $(b,Relpipe_workload) \
         generators (platform class selected with $(b,--class), shape with \
         $(b,--stages)/$(b,--procs)) and batch-solves them with the same \
         cached parallel engine as $(b,relpipe batch), replacing ad-hoc \
         sequential experiment loops.  With $(b,--emit-requests) the \
         generated batch is also written as JSONL, so it can be replayed, \
         diffed across worker counts, or turned into a regression \
         fixture.";
    ]
  in
  Cmd.v (Cmd.info "sweep" ~doc ~man)
    Term.(
      ret
        (const run $ count_arg
        $ seed_arg ~doc:"Random seed for the generators." 42
        $ class_arg $ stages_arg $ procs_arg $ objective_arg $ method_arg
        $ output_arg $ engine_arg $ emit_arg $ dry_run_arg))

let atlas_cmd =
  let module Stream_gen = Relpipe_workload.Stream_gen in
  let requests_arg =
    let doc = "Stream length (number of requests to replay)." in
    Arg.(value & opt (int_at_least 0) 10_000 & info [ "n"; "requests" ] ~doc)
  in
  let pool_arg =
    let doc = "Distinct instances in the workload pool." in
    Arg.(value & opt int Stream_gen.default_spec.Stream_gen.pool & info [ "pool" ] ~doc)
  in
  let zipf_arg =
    let doc = "Zipf skew exponent of slot popularity (0 = uniform)." in
    Arg.(
      value
      & opt float Stream_gen.default_spec.Stream_gen.zipf_s
      & info [ "zipf" ] ~doc)
  in
  let burst_arg =
    let doc = "Mean arrival burst length (>= 1)." in
    Arg.(
      value
      & opt float Stream_gen.default_spec.Stream_gen.burst
      & info [ "burst" ] ~doc)
  in
  let chunk_arg =
    let doc =
      "Requests per engine call — the only stream-length-proportional \
       buffer the driver holds."
    in
    Arg.(value & opt (int_at_least 1) 512 & info [ "chunk" ] ~doc)
  in
  let unix_arg =
    let doc =
      "Stream through a running $(b,relpipe serve) daemon on this Unix \
       socket instead of an in-process engine."
    in
    Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc)
  in
  let gc_stats_flag =
    let doc =
      "Print allocation counters ($(b,Gc.quick_stat)) to stderr after the \
       run — the constant-memory guard in check.sh parses these."
    in
    Arg.(value & flag & info [ "gc-stats" ] ~doc)
  in
  let daemon_solve c reqs =
    (* Lockstep per request: the daemon answers every line in order, and
       strict call/reply alternation cannot deadlock on full socket
       buffers however large the chunk is. *)
    Array.map
      (fun r ->
        match Serve.Client.call c (Service.Protocol.encode_request r) with
        | None -> failwith "atlas: server closed the stream mid-chunk"
        | Some line -> (
            match Service.Protocol.decode_response line with
            | Ok resp -> resp
            | Error msg -> failwith ("atlas: bad response line: " ^ msg)))
      reqs
  in
  let run requests seed pool zipf burst chunk unix_path output opts metrics
      virtual_clock gc_stats =
    let spec =
      {
        Stream_gen.default_spec with
        Stream_gen.pool;
        zipf_s = zipf;
        burst;
      }
    in
    match Stream_gen.validate spec with
    | Error msg -> `Error (true, "atlas: " ^ msg)
    | Ok () -> (
        match open_sink metrics with
        | Error msg -> `Error (false, msg)
        | Ok metrics_sink -> (
            let obs =
              match metrics_sink with
              | None -> None
              | Some _ -> Some (make_obs ~tracing:false ~virtual_clock)
            in
            let entries = Stream_gen.pool_entries ~seed spec in
            let slots =
              Array.map
                (fun (e : Stream_gen.entry) ->
                  match
                    Service.Protocol.method_of_string e.Stream_gen.method_name
                  with
                  | Ok m ->
                      {
                        Service.Atlas.sl_text = e.Stream_gen.text;
                        sl_objective = e.Stream_gen.objective;
                        sl_method = m;
                        sl_class = e.Stream_gen.plat_class;
                      }
                  | Error msg -> failwith ("atlas: " ^ msg))
                entries
            in
            let source =
              {
                Service.Atlas.slots;
                events =
                  (fun f ->
                    Stream_gen.iter ~seed spec ~n:requests (fun ev ->
                        f
                          {
                            Service.Atlas.ev_index = ev.Stream_gen.ev_index;
                            ev_slot = ev.Stream_gen.ev_slot;
                            ev_gap_ns = ev.Stream_gen.ev_gap_ns;
                          }));
              }
            in
            let finish report =
              (match obs with
              | None -> ()
              | Some o ->
                  write_sink metrics_sink (Relpipe_obs.Obs.metrics_jsonl o));
              if gc_stats then begin
                let st = Gc.quick_stat () in
                Printf.eprintf
                  "gc: top_heap_words=%d heap_words=%d minor_collections=%d \
                   major_collections=%d\n\
                   %!"
                  st.Gc.top_heap_words st.Gc.heap_words st.Gc.minor_collections
                  st.Gc.major_collections
              end;
              with_output output (fun oc ->
                  Out_channel.output_string oc
                    (Service.Atlas.render report))
            in
            match
              match unix_path with
              | None ->
                  let engine = make_engine ?obs opts in
                  let report =
                    Service.Atlas.run ?obs ~chunk
                      ~solve:(Service.Engine.run_requests engine)
                      source
                  in
                  print_stats opts engine;
                  finish report
              | Some path -> (
                  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
                  match Serve.Client.connect (`Unix path) with
                  | exception Unix.Unix_error (e, _, _) ->
                      Error ("connect: " ^ Unix.error_message e)
                  | c ->
                      let hello =
                        Serve.Client.call c
                          (Service.Protocol.encode_control
                             (Service.Protocol.hello ~client:"atlas" ()))
                      in
                      (match hello with
                      | Some _ -> ()
                      | None -> failwith "atlas: no hello reply");
                      let report =
                        Service.Atlas.run ?obs ~chunk ~solve:(daemon_solve c)
                          source
                      in
                      Serve.Client.finish_sending c;
                      Serve.Client.close c;
                      finish report)
            with
            | Ok () -> `Ok ()
            | Error msg ->
                close_sink metrics_sink;
                `Error (false, msg)
            | exception Failure msg ->
                close_sink metrics_sink;
                `Error (false, msg)))
  in
  let doc = "Stream a seeded million-request workload through the engine." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a Zipf-skewed, bursty request stream over a bounded \
         pool of distinct instances (mixed platform classes and solver \
         methods) and streams it through the cached parallel engine — or a \
         live $(b,relpipe serve) daemon with $(b,--unix) — without ever \
         materializing the batch.  Aggregation is fully online (mergeable \
         quantile sketches, exponential smoothing, a bloom-filter \
         duplicate tracker), so peak memory is independent of \
         $(b,--requests).";
      `P
        "The report (outcome counts, cache hit rate and curve, latency \
         percentiles, arrival rates, per-class mix) derives only from \
         response contents and the event sequence, so it is byte-identical \
         at every worker count; the snapshot tests pin it at workers 1, 2 \
         and 8.";
    ]
  in
  Cmd.v (Cmd.info "atlas" ~doc ~man)
    Term.(
      ret
        (const run $ requests_arg
        $ seed_arg ~doc:"Master seed for the workload (pool, slots and gaps)." 1
        $ pool_arg $ zipf_arg $ burst_arg $ chunk_arg $ unix_arg $ output_arg
        $ engine_arg $ metrics_arg $ virtual_clock_flag $ gc_stats_flag))

let fuzz_cmd =
  let module Fuzz = Relpipe_fuzz in
  let count_arg =
    let doc = "Number of random cases to generate." in
    Arg.(value & opt (int_at_least 0) 100 & info [ "n"; "count" ] ~doc)
  in
  let oracle_arg =
    let doc =
      "Run only this oracle (repeatable; see $(b,--list-oracles)).  Without \
       it every registered oracle runs."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let list_flag =
    let doc = "Print the oracle registry and exit." in
    Arg.(value & flag & info [ "list-oracles" ] ~doc)
  in
  let max_stages_arg =
    let doc = "Largest pipeline length to generate." in
    Arg.(
      value
      & opt (int_at_least 1) Fuzz.Gen.default_shape.Fuzz.Gen.max_stages
      & info [ "max-stages" ] ~doc)
  in
  let max_procs_arg =
    let doc = "Largest platform size to generate." in
    Arg.(
      value
      & opt (int_at_least 1) Fuzz.Gen.default_shape.Fuzz.Gen.max_procs
      & info [ "max-procs" ] ~doc)
  in
  let out_dir_arg =
    let doc =
      "Write each minimized counterexample here as a replayable \
       $(b,.relpipe) file."
    in
    Arg.(value & opt (some string) None & info [ "out-dir" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a repro file written by a failing campaign (repeatable); \
       skips generation."
    in
    Arg.(value & opt_all file [] & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let perturb_arg =
    let doc =
      "Harness self-test: inject a relative fault of this size into the \
       interval-DP latency, so the $(b,interval-dp) oracle must fail and \
       produce a minimized repro."
    in
    Arg.(value & opt float 0.0 & info [ "perturb" ] ~doc)
  in
  (* Created before the campaign, like the batch sinks, so a bad path
     fails before the work instead of losing the report after it. *)
  let make_out_dir = function
    | Some dir when not (Sys.file_exists dir) -> (
        match Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error msg -> Error (io_error "write" dir msg))
    | _ -> Ok ()
  in
  let run seed count oracle_names list max_stages max_procs workers out_dir
      replays perturb =
    if list then begin
      print_string (Fuzz.Runner.list_oracles_text ());
      `Ok ()
    end
    else if replays <> [] then begin
      let ctx = { Fuzz.Oracle.perturb } in
      let failed = ref false in
      List.iter
        (fun path ->
          match Fuzz.Corpus.replay_file ~ctx path with
          | Error msg ->
              failed := true;
              Printf.printf "%s: error: %s\n" path msg
          | Ok outcome ->
              if Fuzz.Oracle.is_fail outcome then failed := true;
              Printf.printf "%s: %s\n" path
                (Fuzz.Oracle.outcome_to_string outcome))
        replays;
      if !failed then exit_with 1;
      `Ok ()
    end
    else
      let oracles =
        if oracle_names = [] then Ok (Fuzz.Oracles.all ())
        else
          List.fold_left
            (fun acc name ->
              match acc with
              | Error _ -> acc
              | Ok os -> (
                  match Fuzz.Oracles.find name with
                  | Some o -> Ok (os @ [ o ])
                  | None ->
                      Error
                        (Printf.sprintf
                           "unknown oracle %S (try --list-oracles)" name)))
            (Ok []) oracle_names
      in
      match oracles with
      | Error msg -> `Error (false, msg)
      | Ok oracles -> (
          match make_out_dir out_dir with
          | Error msg -> `Error (false, msg)
          | Ok () ->
              let report =
                Fuzz.Runner.run
                  {
                    Fuzz.Runner.seed;
                    count;
                    oracles;
                    max_stages;
                    max_procs;
                    workers;
                    perturb;
                    out_dir;
                    obs = None;
                  }
              in
              print_string (Fuzz.Runner.render report);
              if report.Fuzz.Runner.r_failures <> [] then exit_with 1;
              `Ok ())
  in
  let doc =
    "Differential fuzzing: random instances, cross-checking oracles, \
     delta-shrinking."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates seeded random instances across the paper's three \
         platform classes and checks a registry of invariants: exact-DP \
         vs brute-force agreement, shortest-path bounds, heuristic Pareto \
         dominance, validator/lint acceptance, canonicalization symmetry \
         and print/parse round-trips ($(b,--list-oracles) for the full \
         list).";
      `P
        "Campaigns are byte-deterministic: the report depends only on the \
         configuration, never on the worker count.  On failure the \
         offending instance is delta-shrunk (stages and processors \
         dropped, costs rounded) to a minimal repro, printed inline and, \
         with $(b,--out-dir), written as a $(b,.relpipe) file that \
         $(b,--replay) re-checks.";
      `P "Exit status is 1 when any oracle failed, 0 otherwise.";
    ]
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(
      ret
        (const run
        $ seed_arg
            ~doc:"Master seed; the whole campaign is a pure function of it."
            42
        $ count_arg $ oracle_arg $ list_flag $ max_stages_arg $ max_procs_arg
        $ workers_arg $ out_dir_arg $ replay_arg $ perturb_arg))

let devlint_cmd =
  let module DL = Relpipe_devlint in
  let module A = Relpipe_analysis in
  let paths_arg =
    let doc =
      "Files or directories to analyze.  Defaults to lib bin bench test \
       (run from the repository root)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let list_rules_flag =
    let doc = "Print the source-rule catalog and exit." in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let baseline_arg =
    let doc =
      "Baseline file of vetted exceptions (default: devlint.baseline when \
       it exists)."
    in
    Arg.(value & opt (some file) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let no_baseline_flag =
    let doc = "Ignore any baseline file." in
    Arg.(value & flag & info [ "no-baseline" ] ~doc)
  in
  let family_arg =
    let doc =
      "Run only this rule family (repeatable): compare, determinism, race, \
       obs-names."
    in
    Arg.(value & opt_all string [] & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let default_roots = [ "lib"; "bin"; "bench"; "test" ] in
  let run paths format list_rules baseline no_baseline families =
    if list_rules then begin
      print_rule_table "family"
        (List.map
           (fun (r : DL.Drule.t) ->
             [
               r.DL.Drule.id;
               A.Severity.to_string r.DL.Drule.severity;
               r.DL.Drule.family;
               r.DL.Drule.title;
             ])
           (DL.Driver.rules ()));
      `Ok ()
    end
    else begin
      let known = List.map fst DL.Driver.passes in
      match List.find_opt (fun f -> not (List.mem f known)) families with
      | Some f ->
          `Error
            ( false,
              Printf.sprintf "unknown rule family %S (known: %s)" f
                (String.concat ", " known) )
      | None -> (
          let roots =
            if paths <> [] then paths
            else List.filter Sys.file_exists default_roots
          in
          if roots = [] then
            `Error
              ( false,
                "none of lib/ bin/ bench/ test/ exist here; run from the \
                 repository root or pass paths" )
          else
            let baseline_result =
              if no_baseline then Ok DL.Baseline.empty
              else
                match baseline with
                | Some path -> DL.Baseline.load path
                | None ->
                    if Sys.file_exists "devlint.baseline" then
                      DL.Baseline.load "devlint.baseline"
                    else Ok DL.Baseline.empty
            in
            match baseline_result with
            | Error msg -> `Error (false, "baseline: " ^ msg)
            | Ok baseline ->
                let report =
                  DL.Driver.run_paths ~baseline ~families roots
                in
                (match format with
                | `Text -> print_string (DL.Driver.render_text report)
                | `Json -> print_endline (DL.Driver.render_json report));
                let code = DL.Driver.exit_code report in
                if code = 0 then `Ok () else exit_with code)
    end
  in
  let doc = "Statically analyze the repository's own OCaml sources." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml file under the given roots with the compiler's \
         own parser and runs the relpipe.devlint rule registry: the \
         compare family (polymorphic compare / float equality — the \
         AST-grounded replacement for the old tools/forbid.sh grep), the \
         determinism family (ambient randomness, wall-clock reads, \
         Domain.self, unordered Hashtbl iteration), the race family \
         (unsynchronized writes captured by Pool.map / Domain.spawn \
         closures) and the obs-names family (metric/span name contract).";
      `P
        "Vetted exceptions live in a baseline file (one \"RULE-ID \
         PATH[:LINE] [-- reason]\" per line) or as in-source \
         \"(* devlint: allow RULE-ID — reason *)\" comments covering \
         their own line and the next.";
      `P
        "Exit status is 2 if any error survives, 1 if any warning, 0 \
         otherwise (hints are informational).";
    ]
  in
  Cmd.v (Cmd.info "devlint" ~doc ~man)
    Term.(
      ret
        (const run $ paths_arg $ format_arg $ list_rules_flag $ baseline_arg
       $ no_baseline_flag $ family_arg))

(* ------------------------------------------------------------------ *)
(* Serve daemon and its client                                         *)
(* ------------------------------------------------------------------ *)

let unix_sock_arg =
  let doc = "Listen on (or connect to) this Unix-domain socket path." in
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc)

let tcp_port_arg =
  let doc = "Listen on (or connect to) this TCP port (0 picks a free port)." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Host for $(b,--tcp)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc)

let sockaddr_to_string = function
  | Unix.ADDR_UNIX p -> "unix:" ^ p
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p

let serve_cmd =
  let queue_arg =
    let doc =
      "Global admission-queue bound; readers block (backpressure) when \
       the dispatcher is this many events behind."
    in
    Arg.(value & opt (int_at_least 1) 256 & info [ "queue-size" ] ~doc)
  in
  let window_arg =
    let doc =
      "Per-session in-flight window: a session's reader blocks while \
       this many of its lines are unanswered or unwritten."
    in
    Arg.(value & opt (int_at_least 1) 32 & info [ "session-window" ] ~doc)
  in
  let shards_arg =
    let doc =
      "Shards of the result cache (per-shard locks; concurrent sessions \
       contend less).  Replays must use the recording's shard count."
    in
    Arg.(value & opt (int_at_least 1) 4 & info [ "cache-shards" ] ~doc)
  in
  let record_arg =
    let doc =
      "Append every dispatch batch to this $(b,.session) transcript, \
       replayable with $(b,--replay)."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a recorded $(b,.session) transcript instead of listening; \
       prints each reply as \"SESSION<TAB>LINE\" to $(b,-o).  With \
       $(b,--virtual-clock) the output is byte-identical for every \
       $(b,-w)."
    in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let run unix_path tcp_port host queue window shards record replay output
      opts virtual_clock =
    match replay with
    | Some path -> (
        match Serve.Script.load path with
        | Error msg -> `Error (false, msg)
        | Ok script -> (
            let obs = make_obs ~tracing:false ~virtual_clock in
            let engine = make_engine ~obs ~cache_shards:shards opts in
            let replies = Serve.Replay.run ~obs ~engine script in
            match
              with_output output (fun oc ->
                  Out_channel.output_string oc (Serve.Replay.render replies))
            with
            | Error msg -> `Error (false, msg)
            | Ok () ->
                print_stats opts engine;
                `Ok ()))
    | None -> (
        let endpoints =
          (match unix_path with
          | Some p -> [ Serve.Server.Unix_sock p ]
          | None -> [])
          @
          match tcp_port with
          | Some port -> [ Serve.Server.Tcp (host, port) ]
          | None -> []
        in
        match endpoints with
        | [] ->
            `Error
              (true, "pass --unix PATH and/or --tcp PORT (or --replay FILE)")
        | _ :: _ ->
            let obs = make_obs ~tracing:false ~virtual_clock in
            let engine = make_engine ~obs ~cache_shards:shards opts in
            let config =
              {
                Serve.Server.endpoints;
                queue_capacity = queue;
                session_window = window;
                record;
              }
            in
            (* A Signal_handle callback only runs at an OCaml safepoint,
               and an idle daemon has every thread parked in C waits —
               the handler could be delayed forever.  Block the signals
               in every thread (the mask is inherited) and receive them
               synchronously on a dedicated thread instead. *)
            ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
            let (_ : Thread.t) =
              Thread.create
                (fun () ->
                  ignore (Thread.wait_signal [ Sys.sigterm; Sys.sigint ]);
                  Serve.Server.signal_drain ())
                ()
            in
            let on_ready addrs =
              List.iter
                (fun a ->
                  Format.eprintf "listening on %s@." (sockaddr_to_string a))
                addrs
            in
            let report = Serve.Server.run ~obs ~engine ~config ~on_ready () in
            Format.eprintf "drained: %d sessions, %d ticks, %d replies@."
              report.Serve.Server.accepted report.Serve.Server.ticks
              report.Serve.Server.answered;
            print_stats opts engine;
            `Ok ())
  in
  let doc = "Serve the batch protocol to concurrent clients (daemon)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Listens on a Unix socket and/or TCP port and answers the \
         $(b,relpipe batch) JSONL protocol, multiplexing every connected \
         session onto one shared engine (result cache included) and its \
         Domain worker pool.  Sessions start with a \
         {\"v\":1,\"op\":\"hello\"} handshake; \"stats\" renders the live \
         metric registry; \"shutdown\" — or SIGTERM — drains: the server \
         stops accepting, answers everything already admitted, flushes \
         and exits 0.";
      `P
        "Backpressure is two-stage (per-session window, global admission \
         queue), so a slow or flooding client never stalls the solver \
         pool.";
      `P
        "With $(b,--record) the daemon writes a $(b,.session) transcript \
         of every dispatch batch; $(b,--replay) pushes a transcript back \
         through the same deterministic core, producing byte-identical \
         replies for every worker count under $(b,--virtual-clock) — the \
         CI gate diffs $(b,-w 1) against $(b,-w 8).";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      ret
        (const run $ unix_sock_arg $ tcp_port_arg $ host_arg $ queue_arg
       $ window_arg $ shards_arg $ record_arg $ replay_arg $ output_arg
       $ engine_arg $ virtual_clock_flag))

let call_cmd =
  let client_arg =
    let doc = "Client name sent in the hello handshake." in
    Arg.(value & opt string "relpipe-call" & info [ "client" ] ~doc)
  in
  let no_hello_flag =
    let doc = "Skip the handshake (to exercise the server's hello gate)." in
    Arg.(value & flag & info [ "no-hello" ] ~doc)
  in
  let op_arg =
    let doc =
      "Send a single control operation instead of reading requests: \
       $(b,stats) or $(b,shutdown)."
    in
    Arg.(
      value
      & opt (some (enum [ ("stats", `Stats); ("shutdown", `Shutdown) ])) None
      & info [ "op" ] ~docv:"OP" ~doc)
  in
  let run unix_path tcp_port host input client no_hello op =
    let endpoint =
      match (unix_path, tcp_port) with
      | Some p, _ -> Ok (`Unix p)
      | None, Some port -> Ok (`Tcp (host, port))
      | None, None -> Error "pass --unix PATH or --tcp PORT"
    in
    match endpoint with
    | Error msg -> `Error (true, msg)
    | Ok endpoint -> (
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        match
          if op <> None then Ok [] else with_input input In_channel.input_lines
        with
        | Error msg -> `Error (false, msg)
        | Ok request_lines -> (
            match Serve.Client.connect endpoint with
            | exception Unix.Unix_error (e, _, _) ->
                `Error (false, "connect: " ^ Unix.error_message e)
            | c ->
                let lines =
                  (if no_hello then []
                   else
                     [
                       Service.Protocol.encode_control
                         (Service.Protocol.hello ~client ());
                     ])
                  @ (match op with
                    | Some `Stats ->
                        [ Service.Protocol.encode_control Service.Protocol.Stats ]
                    | Some `Shutdown ->
                        [
                          Service.Protocol.encode_control
                            Service.Protocol.Shutdown;
                        ]
                    | None -> [])
                  @ request_lines
                in
                (* Send from a helper thread so deep pipelines cannot
                   deadlock on two full socket buffers. *)
                let sender =
                  Thread.create
                    (fun () ->
                      (* A draining server cuts the receive side; stop
                         sending but keep pumping the replies it still
                         owes for everything it admitted. *)
                      try
                        List.iter (Serve.Client.send c) lines;
                        Serve.Client.finish_sending c
                      with Unix.Unix_error _ -> ())
                    ()
                in
                let rec pump () =
                  match Serve.Client.recv c with
                  | None -> ()
                  | Some line ->
                      print_endline line;
                      pump ()
                in
                pump ();
                Thread.join sender;
                Serve.Client.close c;
                flush stdout;
                `Ok ()))
  in
  let doc = "Send requests to a running $(b,relpipe serve) daemon." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Connects, performs the hello handshake, streams the given JSONL \
         requests and prints every reply line to stdout — the scripted \
         client the smoke tests drive concurrently.  $(b,--op stats) and \
         $(b,--op shutdown) send a single control message instead.";
    ]
  in
  Cmd.v (Cmd.info "call" ~doc ~man)
    Term.(
      ret
        (const run $ unix_sock_arg $ tcp_port_arg $ host_arg $ requests_arg
       $ client_arg $ no_hello_flag $ op_arg))

let churn_cmd =
  let module Churn = Relpipe_churn in
  let events_arg =
    let doc = "Number of churn events to generate and replay." in
    Arg.(value & opt (int_at_least 0) 20 & info [ "e"; "events" ] ~doc)
  in
  let mission_arg =
    let doc = "Mission duration feeding the lifetime model that picks \
               death victims." in
    Arg.(value & opt float 1000.0 & info [ "mission" ] ~doc)
  in
  let cold_flag =
    let doc =
      "Solve every step from scratch instead of warm-starting.  All \
       solution-derived output is byte-identical to the warm run \
       ($(b,tools/check.sh) diffs the two); only reuse/bound statistics \
       differ."
    in
    Arg.(value & flag & info [ "cold" ] ~doc)
  in
  let verify_flag =
    let doc =
      "After the run, cold-solve every step's world (in parallel on \
       $(b,--workers) domains) and check the recorded answers \
       bit-for-bit; fail loudly on any mismatch."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let churn_stats_flag =
    let doc = "Append per-step reuse/bound/node/time-to-repair columns." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let fmt_value = function
    | None -> "infeasible"
    | Some v -> Printf.sprintf "%.17g" v
  in
  let run inst objective events seed mission cold verify stats workers
      virtual_clock =
    if Platform.size inst.Instance.platform > Interval_exact.max_procs then
      `Error
        ( false,
          Printf.sprintf "churn needs at most %d processors"
            Interval_exact.max_procs )
    else
      guarded @@ fun () ->
      let trace =
        Churn.Driver.trace ~mission ~seed ~count:events
          (Churn.World.of_instance inst)
      in
      let world = Churn.World.of_instance inst in
      let obs = make_obs ~tracing:false ~virtual_clock in
      let steps = Churn.Engine.run ~obs ~cold ~objective world trace in
      Printf.printf "seed:      %d\n" seed;
      Printf.printf "events:    %d\n" events;
      (match objective with
      | Instance.Min_latency { max_failure } ->
          Printf.printf "objective: min-latency max-failure=%g\n" max_failure
      | Instance.Min_failure { max_latency } ->
          Printf.printf "objective: min-failure max-latency=%g\n" max_latency);
      Printf.printf "\n%-5s %-26s %-5s %-22s %-22s %-22s %s\n" "step" "event"
        "procs" "dp-latency" "latency" "failure" "moved";
      List.iter
        (fun (st : Churn.Engine.step) ->
          let dp_lat = Option.map fst st.Churn.Engine.dp in
          let lat, fail =
            match st.Churn.Engine.solution with
            | None -> (None, None)
            | Some s ->
                ( Some s.Solution.evaluation.Instance.latency,
                  Some s.Solution.evaluation.Instance.failure )
          in
          Printf.printf "%-5d %-26s %-5d %-22s %-22s %-22s %d"
            st.Churn.Engine.index st.Churn.Engine.label
            (Churn.World.size st.Churn.Engine.world)
            (fmt_value dp_lat) (fmt_value lat) (fmt_value fail)
            st.Churn.Engine.moved_stages;
          if stats then
            Printf.printf "  reuse=%d/%d bound=%s nodes=%d ttr=%dns"
              st.Churn.Engine.reuse.Interval_exact.Dp.cells_reused
              st.Churn.Engine.reuse.Interval_exact.Dp.cells_total
              (if st.Churn.Engine.warm_bound then "yes" else "no")
              st.Churn.Engine.bb_stats.Bb.nodes st.Churn.Engine.ttr_ns;
          print_newline ())
        steps;
      let count kind =
        List.length
          (List.filter
             (fun (st : Churn.Engine.step) ->
               match st.Churn.Engine.event with
               | Some ev -> String.equal (Churn.Event.kind ev) kind
               | None -> false)
             steps)
      in
      let total_moved =
        List.fold_left
          (fun acc (st : Churn.Engine.step) -> acc + st.Churn.Engine.moved_stages)
          0 steps
      in
      Printf.printf
        "\nsummary: steps=%d deaths=%d joins=%d speed-drifts=%d \
         bw-drifts=%d moved=%d\n"
        (List.length steps) (count "death") (count "join") (count "speed")
        (count "bandwidth") total_moved;
      (match List.rev steps with
      | last :: _ -> (
          match last.Churn.Engine.solution with
          | Some s -> Format.printf "final:   %a@." Mapping.pp s.Solution.mapping
          | None -> print_string "final:   infeasible\n")
      | [] -> ());
      if not verify then `Ok ()
      else if Churn.Engine.verify ~obs ~workers ~objective steps then begin
        Printf.printf "verify:  warm == cold on %d steps\n" (List.length steps);
        `Ok ()
      end
      else `Error (false, "churn verify failed: warm and cold solves disagree")
  in
  let doc = "Replay a seeded churn scenario with incremental re-solving." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates a deterministic event trace (processor deaths, \
         speed/bandwidth drift, node joins) from one master seed, then \
         re-solves after every event: the interval DP warm-starts from \
         its previous table and branch-and-bound prunes against the \
         surviving incumbent.  Warm answers are byte-identical to cold \
         solves — $(b,--verify) re-proves it, $(b,--cold) replays the \
         scenario from scratch for diffing.";
      `P
        "Reports per step the re-solved optimum, the mapping stability \
         (stages whose replica set changed, by stable processor \
         identity) and, with $(b,--stats), DP table reuse and \
         time-to-repair through the (optionally virtual) clock.";
    ]
  in
  Cmd.v (Cmd.info "churn" ~doc ~man)
    Term.(
      ret
        (const run $ instance_arg $ objective_arg $ events_arg
        $ seed_arg
            ~doc:
              "Master seed for the scenario driver (one integer replays the \
               whole trace)."
            1
        $ mission_arg $ cold_flag $ verify_flag $ churn_stats_flag
        $ workers_arg $ virtual_clock_flag))

let demo_cmd =
  let out_arg =
    let doc = "Where to write the sample instance." in
    Arg.(value & opt string "fig5.relpipe" & info [ "o"; "output" ] ~doc)
  in
  let run path =
    let inst = Relpipe_workload.Scenarios.fig5 () in
    match
      with_output path (fun oc ->
          Out_channel.output_string oc
            ("# The paper's Fig. 5 instance: one slow reliable processor and\n"
           ^ "# ten fast unreliable ones.  Try:\n"
           ^ "#   relpipe solve -i " ^ path ^ " --max-latency 22\n"
            ^ Textio.to_string inst))
    with
    | Error msg -> `Error (false, msg)
    | Ok () ->
        Format.printf "wrote %s@." path;
        `Ok ()
  in
  let doc = "Write a sample instance file (the paper's Fig. 5)." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(ret (const run $ out_arg))

let () =
  let doc =
    "bi-criteria latency/reliability mapping of pipeline workflows \
     (Benoit, Rehn-Sonigo, Robert, RR-6345)"
  in
  let info = Cmd.info "relpipe" ~version:"0.1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            describe_cmd; solve_cmd; exact_cmd; cert_cmd; simulate_cmd;
            pareto_cmd; eval_cmd;
            tri_cmd; goodput_cmd; experiments_cmd; catalog_cmd; lint_cmd;
            batch_cmd; serve_cmd; call_cmd; prof_cmd; sweep_cmd; atlas_cmd;
            fuzz_cmd;
            devlint_cmd; churn_cmd; demo_cmd;
          ]))
