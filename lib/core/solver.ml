open Relpipe_model
module Analysis = Relpipe_analysis.Analysis
module Diagnostic = Relpipe_analysis.Diagnostic

type method_ =
  | Auto
  | Exact_enum
  | Polynomial
  | Heuristic of Heuristics.name
  | Portfolio

type error =
  | Invalid_instance of Diagnostic.t list
  | Invalid_objective of string
  | Not_applicable of string
  | Too_large of string

let pp_error ppf = function
  | Invalid_instance ds ->
      Format.fprintf ppf "invalid instance:";
      List.iter (fun d -> Format.fprintf ppf "@ %s" (Diagnostic.to_string d)) ds
  | Invalid_objective msg -> Format.fprintf ppf "invalid objective: %s" msg
  | Not_applicable msg | Too_large msg -> Format.pp_print_string ppf msg

let error_to_string e = Format.asprintf "@[<h>%a@]" pp_error e

let check_instance instance =
  match Analysis.instance_errors instance with
  | [] -> Ok ()
  | ds -> Error (Invalid_instance ds)

let check_objective objective =
  let finite name x =
    if Float.is_nan x then
      Error (Invalid_objective (Printf.sprintf "%s threshold is NaN" name))
    else Ok ()
  in
  match objective with
  | Instance.Min_latency { max_failure } -> finite "failure-probability" max_failure
  | Instance.Min_failure { max_latency } -> finite "latency" max_latency

let polynomial instance objective =
  if Fully_homog.applicable instance then Fully_homog.solve instance objective
  else if Comm_homog.applicable instance then Comm_homog.solve instance objective
  else
    invalid_arg
      "Solver: no polynomial-optimal algorithm for this platform class \
       (NP-hard or open per the paper)"

let small_enough ~budget instance =
  let n = Pipeline.length instance.Instance.pipeline in
  let m = Platform.size instance.Instance.platform in
  (* n, m <= 6 keeps the space in the tens of thousands; the closed-form
     count confirms it is within budget. *)
  n <= 6 && m <= 6 && Exact.within_budget ~budget ~n ~m

(* Auto's choice, shared by [auto] and [describe]. *)
type leg = Algorithms_1_2 | Algorithms_3_4 | Exact_leg | Portfolio_leg

let leg ~exact_budget instance =
  if Fully_homog.applicable instance then Algorithms_1_2
  else if Comm_homog.applicable instance then Algorithms_3_4
  else if small_enough ~budget:exact_budget instance then Exact_leg
  else Portfolio_leg

(* The exact leg of Auto and of [Exact_enum]: refused before any work
   when the mapping space exceeds [budget], else the branch and bound,
   whose mapping is re-evaluated so that the reply carries
   [Instance.evaluate]'s numbers, not the search's incremental ones. *)
let exact ~budget instance objective =
  let n = Pipeline.length instance.Instance.pipeline in
  let m = Platform.size instance.Instance.platform in
  Exact.check_budget ~budget ~n ~m;
  Option.map
    (fun s -> Solution.of_mapping instance s.Solution.mapping)
    (Bb.solve instance objective)

let auto ~exact_budget instance objective =
  match leg ~exact_budget instance with
  | Algorithms_1_2 -> Fully_homog.solve instance objective
  | Algorithms_3_4 -> Comm_homog.solve instance objective
  | Exact_leg -> exact ~budget:exact_budget instance objective
  | Portfolio_leg ->
      let portfolio = Heuristics.best_of instance objective in
      (* On Communication Homogeneous platforms the speed-contiguous solver
         is cheap and captures the structure of known optima (e.g. Fig. 5);
         fold it into the portfolio. *)
      if Contiguous.applicable instance then
        Solution.best objective portfolio (Contiguous.solve instance objective)
      else portfolio

let dispatch ~method_ ~exact_budget instance objective =
  match method_ with
  | Auto -> auto ~exact_budget instance objective
  | Exact_enum -> exact ~budget:exact_budget instance objective
  | Polynomial -> polynomial instance objective
  | Heuristic name -> Heuristics.run name instance objective
  | Portfolio -> Heuristics.best_of instance objective

let default_exact_budget = 200_000

let run ?(method_ = Auto) ?(exact_budget = default_exact_budget) instance objective =
  match check_instance instance with
  | Error _ as e -> e
  | Ok () -> (
      match check_objective objective with
      | Error _ as e -> e
      | Ok () -> (
          match dispatch ~method_ ~exact_budget instance objective with
          | s -> Ok s
          | exception Invalid_argument msg -> Error (Not_applicable msg)
          | exception Exact.Too_large msg -> Error (Too_large msg)))

let solve ?method_ ?exact_budget instance objective =
  match run ?method_ ?exact_budget instance objective with
  | Ok s -> s
  | Error (Too_large msg) -> raise (Exact.Too_large msg)
  | Error ((Invalid_instance _ | Invalid_objective _) as e) ->
      invalid_arg ("Solver: " ^ error_to_string e)
  | Error (Not_applicable msg) -> invalid_arg msg

let describe instance =
  let platform = instance.Instance.platform in
  let comm = Classify.comm_class platform in
  let fail = Classify.failure_class platform in
  let method_name =
    match leg ~exact_budget:default_exact_budget instance with
    | Algorithms_1_2 -> "Algorithms 1/2 (polynomial, optimal)"
    | Algorithms_3_4 -> "Algorithms 3/4 (polynomial, optimal)"
    | Exact_leg -> "exhaustive branch and bound (instance is small)"
    | Portfolio_leg -> "heuristic portfolio (NP-hard/open case)"
  in
  Format.asprintf "%a, %a -> %s" Classify.pp_comm_class comm
    Classify.pp_failure_class fail method_name
