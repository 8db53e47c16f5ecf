(* Family "determinism": sources of run-to-run nondeterminism.  The
   repo's contract is byte-identical output for every worker count and
   every rerun; ambient randomness, wall-clock reads and unordered
   Hashtbl iteration are the three ways a PR can break that without
   failing a unit test.  Vetted exceptions (the injectable Obs.Clock is
   *the* sanctioned wall-clock reader; the bench harness measures real
   time on purpose) live in devlint.baseline. *)

module A = Ast_util

let rule ~id ~severity ~title ~rationale ~example =
  Drule.register
    { Drule.id; family = "determinism"; severity; title; rationale; example }

let r_random =
  rule ~id:"RP-S201" ~severity:Drule.Severity.Error
    ~title:"ambient randomness (Random.*)"
    ~rationale:
      "Stdlib Random draws from hidden global (or domain-local) state, so \
       results change run to run and domain to domain.  Every random draw \
       must come from a seeded Relpipe_util.Rng (SplitMix64) threaded \
       explicitly."
    ~example:"let jitter () = Random.float 1.0"

let r_wall_clock =
  rule ~id:"RP-S202" ~severity:Drule.Severity.Error
    ~title:"unclocked wall-time read"
    ~rationale:
      "Unix.gettimeofday/Unix.time/Sys.time reads make any value derived \
       from them irreproducible and break --virtual-clock replay.  Read \
       time through an injectable Relpipe_obs.Clock instead."
    ~example:"let t0 = Sys.time ()"

let r_domain_self =
  rule ~id:"RP-S203" ~severity:Drule.Severity.Warning
    ~title:"scheduling-dependent Domain.self"
    ~rationale:
      "Domain identifiers depend on spawn order and worker count; a value \
       derived from Domain.self can differ across --workers settings, \
       violating the cross-worker byte-identity contract.  Index jobs by \
       submission order instead (as Relpipe_pool.Pool does)."
    ~example:"let tag = (Domain.self () :> int)"

let r_hashtbl_order =
  rule ~id:"RP-S204" ~severity:Drule.Severity.Warning
    ~title:"unordered Hashtbl iteration"
    ~rationale:
      "Hashtbl.iter/fold order is unspecified and changes with the \
       hash/population history, so anything accumulated in iteration order \
       can reach output or cache keys nondeterministically.  Sort the \
       bindings first, or iterate a sorted key list (suppress in place \
       when a sort provably erases the order)."
    ~example:"let dump t = Hashtbl.iter print t"

let rules = [ r_random; r_wall_clock; r_domain_self; r_hashtbl_order ]

(* ------------------------------------------------------------------ *)

let wall_clock_paths =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Unix.clock"; "Sys.time" ]

let hashtbl_order_paths =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let check (src : Source.t) out =
  let span (e : Parsetree.expression) =
    A.span_of_location e.Parsetree.pexp_loc
  in
  A.iter_exprs
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt; _ } -> (
          match A.flatten txt with
          | Some ("Random" :: _ :: _ as segs) ->
              out
                (Drule.diag r_random ~span:(span e)
                   "%s draws from ambient global state; thread a seeded \
                    Relpipe_util.Rng instead"
                   (String.concat "." segs))
          | Some segs -> (
              let p = String.concat "." segs in
              if List.mem p wall_clock_paths then
                out
                  (Drule.diag r_wall_clock ~span:(span e)
                     "%s reads the wall clock; route time through an \
                      injectable Relpipe_obs.Clock"
                     p)
              else
                match p with
                | "Domain.self" ->
                    out
                      (Drule.diag r_domain_self ~span:(span e)
                         "Domain.self is scheduling-dependent; key on \
                          submission order instead")
                | _ ->
                    if List.mem p hashtbl_order_paths then
                      out
                        (Drule.diag r_hashtbl_order ~span:(span e)
                           "%s iterates in unspecified order; sort the \
                            bindings before they can reach output"
                           p))
          | None -> ())
      | _ -> ())
    src.Source.structure
