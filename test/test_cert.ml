(* The certificate subsystem (PR 9): hand-built certificates with
   hand-computed bounds accepted by the independent checker, emitted
   certificates round-tripping through the text format, line-order
   invariance, and a stable set of mutations every one of which the
   checker must reject. *)

open Relpipe_model
module Cert = Relpipe_cert.Cert
module Check = Relpipe_cert.Check
module Certify = Relpipe_core.Certify
module Interval_exact = Relpipe_core.Interval_exact
module Rng = Relpipe_util.Rng

let test = Helpers.test
let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let bump x =
  if x >= 0.0 then Int64.float_of_bits (Int64.add (Int64.bits_of_float x) 1L)
  else Int64.float_of_bits (Int64.sub (Int64.bits_of_float x) 1L)

let accepts what instance cert =
  match Check.check instance cert with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s rejected: %s" what e

let rejects what instance cert =
  match Check.check instance cert with
  | Ok _ -> Alcotest.failf "%s accepted but must be rejected" what
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* The hand instance: 3 stages, 2 processors, power-of-two costs so
   every latency below is an exact float computed by hand.

     input delta_0 = 2, stages (work, output): (4,2) (8,4) (4,2)
     speeds (1, 2), every link bandwidth 2

   Work prefixes: 0, 4, 12, 16.  Input sends cost 2/2 = 1 per target;
   the final output costs 2/2 = 1 from either processor. *)
(* ------------------------------------------------------------------ *)

let hand_instance ~failures =
  Instance.make
    (Pipeline.of_costs ~input:2.0 [ (4.0, 2.0); (8.0, 4.0); (4.0, 2.0) ])
    (Platform.uniform_links ~speeds:[| 1.0; 2.0 |] ~failures ~bandwidth:2.0)

(* Every finite DP cell, by hand.  Masks: {0} = 1, {1} = 2, {0,1} = 3.

   Singletons are input + prefix-work / speed:
     (e,0,{0}): 1 + 4 = 5;  1 + 12 = 13;  1 + 16 = 17
     (e,1,{1}): 1 + 2 = 3;  1 +  6 =  7;  1 +  8 =  9
   Two-processor cells take the cheapest relaxation (communication is
   delta_e / 2):
     (2,0,3) = 3 + 1 + 8           = 12
     (3,0,3) = min(3 + 1 + 12, 7 + 2 + 4)   = 13
     (2,1,3) = 5 + 1 + 8/2         = 10
     (3,1,3) = min(5 + 1 + 12/2, 13 + 2 + 4/2) = 12
   Closing costs +1 everywhere, so the optimum is (3,1,{1}) + 1 = 10 on
   the single interval 1-3:1. *)
let hand_dp_cells =
  [
    (1, 0, 1, 5.0);
    (2, 0, 1, 13.0);
    (3, 0, 1, 17.0);
    (1, 1, 2, 3.0);
    (2, 1, 2, 7.0);
    (3, 1, 2, 9.0);
    (2, 0, 3, 12.0);
    (3, 0, 3, 13.0);
    (2, 1, 3, 10.0);
    (3, 1, 3, 12.0);
  ]

let hand_dp_cert =
  {
    Cert.n = 3;
    m = 2;
    instance_digest = None;
    body =
      Cert.Dp
        {
          latency = 10.0;
          mapping = [ { Mapping.first = 1; last = 3; procs = [ 1 ] } ];
          cells =
            List.map
              (fun (e, u, mask, value) -> { Cert.e; u; mask; value })
              hand_dp_cells;
        };
  }

let dp_hand_built () =
  let instance = hand_instance ~failures:[| 0.125; 0.25 |] in
  accepts "hand-built DP certificate" instance hand_dp_cert;
  (* The hand-computed optimum is also what the solver finds. *)
  match Interval_exact.min_latency instance with
  | None -> Alcotest.fail "DP found no mapping"
  | Some (latency, _) ->
      Alcotest.(check bool) "hand optimum = solver optimum" true
        (bits_eq latency 10.0)

(* A complete hand-built branch-and-bound transcript needs exactly
   representable failure probabilities, so use fp = 0: the search's
   log-space accumulation then yields -0.0 everywhere, which the text
   format round-trips.  One stage, two processors:

     root is expanded (lower bound 4/2 = 2);
     1-1:0    evaluates to 1 + (4 + 1) = 6, becomes the incumbent;
     1-1:1    evaluates to 1 + (2 + 1) = 4, replaces it;
     1-1:0,1  has bound (1+1) + 4/1 = 6 >= 4: dominated. *)
let hand_bb_instance =
  Instance.make
    (Pipeline.of_costs ~input:2.0 [ (4.0, 2.0) ])
    (Platform.uniform_links ~speeds:[| 1.0; 2.0 |] ~failures:[| 0.0; 0.0 |]
       ~bandwidth:2.0)

let hand_bb_objective = Instance.Min_latency { max_failure = 0.5 }

let hand_bb_cert =
  let iv procs = { Mapping.first = 1; last = 1; procs } in
  let node path status = { Cert.path; status } in
  {
    Cert.n = 1;
    m = 2;
    instance_digest = None;
    body =
      Cert.Bb
        {
          objective = hand_bb_objective;
          claim =
            Cert.Feasible
              { latency = 4.0; failure = -0.0; mapping = [ iv [ 1 ] ] };
          nodes =
            [
              node [] Cert.Expanded;
              node [ iv [ 0 ] ]
                (Cert.Evaluated { latency = 6.0; failure = -0.0 });
              node [ iv [ 1 ] ]
                (Cert.Evaluated { latency = 4.0; failure = -0.0 });
              node
                [ iv [ 0; 1 ] ]
                (Cert.Pruned
                   {
                     reason = Cert.Dominated;
                     latency_lb = 6.0;
                     partial_failure = -0.0;
                   });
            ];
        };
  }

let bb_hand_built () =
  accepts "hand-built B&B certificate" hand_bb_instance hand_bb_cert;
  (* The emitter produces the same transcript for the same search. *)
  let _, emitted = Certify.bb hand_bb_instance hand_bb_objective in
  Alcotest.(check bool) "emitted transcript = hand transcript" true
    (Cert.equal { emitted with Cert.instance_digest = None } hand_bb_cert)

let bb_emitted_hand_claim () =
  (* On the 3-stage hand instance the latency optimum is the DP's 10.0
     (replication only adds communication), reached on interval 1-3:1. *)
  let instance = hand_instance ~failures:[| 0.125; 0.25 |] in
  let best, cert = Certify.bb instance (Instance.Min_latency { max_failure = 0.9 }) in
  accepts "emitted B&B certificate" instance cert;
  match best with
  | None -> Alcotest.fail "B&B found no mapping"
  | Some s ->
      Alcotest.(check bool) "claimed latency = hand-computed 10" true
        (bits_eq s.Relpipe_core.Solution.evaluation.Instance.latency 10.0)

(* ------------------------------------------------------------------ *)
(* Round trips and line-order invariance                               *)
(* ------------------------------------------------------------------ *)

let emit_pair seed =
  let rng = Rng.create seed in
  let n = 1 + (seed mod 3) and m = 2 + (seed mod 2) in
  let instance = Helpers.random_fully_hetero rng ~n ~m in
  let objective =
    if seed mod 2 = 0 then
      Instance.Min_latency { max_failure = Rng.float_range rng 0.2 0.9 }
    else
      Instance.Min_failure
        { max_latency = Rng.float_range rng 10.0 100.0 }
  in
  let _, bb_cert = Certify.bb instance objective in
  let _, dp_cert = Certify.interval instance in
  (instance, bb_cert, Option.get dp_cert)

let roundtrip =
  Helpers.seed_property ~count:25 "to_string/of_string round trip" (fun seed ->
      let _, bb_cert, dp_cert = emit_pair seed in
      List.for_all
        (fun cert ->
          match Cert.of_string (Cert.to_string cert) with
          | Ok cert' -> Cert.equal cert cert'
          | Error _ -> false)
        [ bb_cert; dp_cert ])

let shuffle_below_magic rng text =
  match String.split_on_char '\n' (String.trim text) with
  | magic :: rest ->
      let arr = Array.of_list rest in
      Rng.shuffle rng arr;
      String.concat "\n" (magic :: Array.to_list arr)
  | [] -> text

let reorder_invariance =
  Helpers.seed_property ~count:25 "line order below the magic is free"
    (fun seed ->
      let instance, bb_cert, dp_cert = emit_pair seed in
      let rng = Rng.create (seed + 1) in
      List.for_all
        (fun cert ->
          let shuffled = shuffle_below_magic rng (Cert.to_string cert) in
          match Cert.of_string shuffled with
          | Error _ -> false
          | Ok cert' ->
              Cert.equal cert cert'
              && Result.is_ok (Check.check instance cert'))
        [ bb_cert; dp_cert ])

(* ------------------------------------------------------------------ *)
(* The mutation battery: a stable set of defects, every one rejected    *)
(* ------------------------------------------------------------------ *)

let mutation_indices = [ 0; 1; 2; 3; 5; 8 ]

let mutate_claim cert =
  match cert.Cert.body with
  | Cert.Bb ({ claim = Cert.Feasible f; _ } as bb) ->
      Some
        {
          cert with
          Cert.body =
            Cert.Bb
              { bb with claim = Cert.Feasible { f with latency = bump f.latency } };
        }
  | Cert.Bb { claim = Cert.Infeasible; _ } -> None
  | Cert.Dp dp ->
      Some
        { cert with Cert.body = Cert.Dp { dp with latency = bump dp.latency } }

let mutation_battery () =
  let instance = hand_instance ~failures:[| 0.125; 0.25 |] in
  let _, bb_cert = Certify.bb instance (Instance.Min_latency { max_failure = 0.9 }) in
  let _, dp_cert = Certify.interval instance in
  let dp_cert = Option.get dp_cert in
  List.iter
    (fun (what, cert) ->
      accepts (what ^ " (unmutated)") instance cert;
      List.iter
        (fun index ->
          (match Cert.mutate_raise_bound ~index cert with
          | None -> Alcotest.failf "%s: nothing to raise" what
          | Some mutant ->
              rejects (Printf.sprintf "%s with bound %d raised" what index)
                instance mutant);
          match Cert.mutate_drop_line ~index cert with
          | None -> Alcotest.failf "%s: nothing to drop" what
          | Some mutant ->
              rejects (Printf.sprintf "%s with line %d dropped" what index)
                instance mutant)
        mutation_indices;
      match mutate_claim cert with
      | None -> Alcotest.failf "%s: no claim to perturb" what
      | Some mutant -> rejects (what ^ " with a perturbed claim") instance mutant)
    [ ("bb cert", bb_cert); ("dp cert", dp_cert) ]

let digest_binding () =
  let instance = hand_instance ~failures:[| 0.125; 0.25 |] in
  let other = hand_instance ~failures:[| 0.5; 0.5 |] in
  let _, cert = Certify.bb instance (Instance.Min_latency { max_failure = 0.9 }) in
  accepts "digest-stamped certificate" instance cert;
  rejects "certificate replayed against the wrong instance" other cert

(* Processor sets are int bitmasks: at m = 64 the full set [1 lsl 64 - 1]
   wraps to 0, so an unchecked replay demands no children of the root and
   a root-only transcript "proves" a feasible instance infeasible. *)
let bb_width_cap () =
  let m = 64 in
  let instance =
    Instance.make
      (Pipeline.of_costs ~input:1.0 [ (1.0, 1.0) ])
      (Platform.uniform_links ~speeds:(Array.make m 1.0)
         ~failures:(Array.make m 0.5) ~bandwidth:1.0)
  in
  let forged =
    {
      Cert.n = 1;
      m;
      instance_digest = None;
      body =
        Cert.Bb
          {
            objective = Instance.Min_latency { max_failure = 0.9 };
            claim = Cert.Infeasible;
            nodes = [ { Cert.path = []; status = Cert.Expanded } ];
          };
    }
  in
  let reparsed =
    match Cert.of_string (Cert.to_string forged) with
    | Ok cert -> cert
    | Error e -> Alcotest.failf "forged certificate does not parse: %s" e
  in
  List.iter
    (fun (what, cert) ->
      match Check.check instance cert with
      | Ok _ -> Alcotest.failf "%s accepted at m = %d" what m
      | Error e ->
          Alcotest.(check string) (what ^ " refused by the width cap")
            (Printf.sprintf "bb certificate beyond the %d-processor cap"
               Check.bb_max_procs)
            e)
    [ ("forged root-only certificate", forged); ("its text round trip", reparsed) ]

(* The writer prints every float exactly as [%h] does, pinned through the
   public API: the [cell] line of a one-cell DP certificate. *)
let hex_specials =
  [
    0.0;
    -0.0;
    Int64.float_of_bits 1L (* smallest subnormal *);
    Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL (* largest subnormal *);
    Float.min_float;
    Float.max_float;
    Float.infinity;
    Float.neg_infinity;
    Float.nan;
    Float.neg Float.nan;
  ]

let cell_line value =
  let cert =
    {
      Cert.n = 1;
      m = 1;
      instance_digest = None;
      body =
        Cert.Dp
          { latency = 1.0; mapping = []; cells = [ { Cert.e = 1; u = 0; mask = 1; value } ] };
    }
  in
  String.split_on_char '\n' (Cert.to_string cert)
  |> List.find (String.starts_with ~prefix:"cell ")

let hex_writer =
  let gen =
    QCheck.Gen.(
      frequency [ (3, map Int64.float_of_bits int64); (1, oneofl hex_specials) ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cell values print as %h" ~count:2000
       (QCheck.make ~print:(Printf.sprintf "%h") gen)
       (fun value ->
         String.equal (cell_line value) (Printf.sprintf "cell 1 0 1 %h" value)))

(* ------------------------------------------------------------------ *)
(* Golden pin of certificate bytes and checker verdicts                *)
(* ------------------------------------------------------------------ *)

(* Per seeded case: the MD5 and length of each certificate's text, and
   the checker's exact verdict on it, on its first and last mutants, and
   on the defects below.  bb-search.snap pins B&B transcript bytes only;
   this also holds DP certificate text and the rejection messages still
   across rewrites of the writer and the checker. *)
let snapshot_shapes = [ (2, 3); (3, 4); (4, 4); (3, 5) ]
let snapshot_mutants = [ 0; 1; 2; 3; -1 ]

(* Defects the index-driven mutators cannot make: a repeated entry, and
   for B&B an entry no expansion reaches and a path with unsorted
   processors. *)
let extra_mutants cert =
  match cert.Cert.body with
  | Cert.Bb ({ nodes; _ } as bb) ->
      let with_nodes nodes = { cert with Cert.body = Cert.Bb { bb with nodes } } in
      let iv procs = { Mapping.first = 1; last = 1; procs } in
      let node path = { Cert.path; status = Cert.Expanded } in
      [
        ("duplicate", with_nodes (nodes @ [ List.hd (List.rev nodes) ]));
        ("stray", with_nodes (nodes @ [ node [ iv [ 0 ]; iv [ 0 ] ] ]));
        ("unsorted", with_nodes (node [ iv [ 1; 0 ] ] :: nodes));
      ]
  | Cert.Dp ({ cells; _ } as dp) ->
      [
        ( "duplicate",
          { cert with Cert.body = Cert.Dp { dp with cells = cells @ [ List.hd cells ] } } );
      ]

let verdict instance = function
  | None -> "-"
  | Some cert -> (
      match Check.check instance cert with
      | Ok entries -> Printf.sprintf "ok %d" entries
      | Error e -> "error " ^ e)

let render_cert buf ~label instance cert =
  let text = Cert.to_string cert in
  Printf.bprintf buf "%s md5=%s len=%d\n  check %s\n" label
    (Digest.to_hex (Digest.string text))
    (String.length text)
    (verdict instance (Some cert));
  List.iter
    (fun index ->
      Printf.bprintf buf "  raise %d: %s\n  drop %d: %s\n" index
        (verdict instance (Cert.mutate_raise_bound ~index cert))
        index
        (verdict instance (Cert.mutate_drop_line ~index cert)))
    snapshot_mutants;
  List.iter
    (fun (what, mutant) ->
      Printf.bprintf buf "  %s: %s\n" what (verdict instance (Some mutant)))
    (extra_mutants cert)

let cert_bytes_snapshot () =
  let buf = Buffer.create 8192 in
  List.iteri
    (fun i (n, m) ->
      List.iter
        (fun (cls, gen) ->
          let rng = Rng.create (300 + i) in
          let instance = gen rng ~n ~m in
          let max_failure = Rng.float_range rng 0.2 0.9 in
          let max_latency = Rng.float_range rng 10.0 100.0 in
          let case = Printf.sprintf "%s n=%d m=%d" cls n m in
          List.iter
            (fun (what, objective) ->
              let _, cert = Certify.bb instance objective in
              render_cert buf ~label:(Printf.sprintf "%s bb %s" case what)
                instance cert)
            [
              (Printf.sprintf "minF|L<=%h" max_latency,
               Instance.Min_failure { max_latency });
              (Printf.sprintf "minL|F<=%h" max_failure,
               Instance.Min_latency { max_failure });
            ];
          match Certify.interval instance with
          | _, None -> Printf.bprintf buf "%s dp none\n" case
          | _, Some cert ->
              render_cert buf ~label:(case ^ " dp") instance cert)
        [
          ("fully-hetero", Helpers.random_fully_hetero);
          ("comm-homog", Helpers.random_comm_homog);
        ])
    snapshot_shapes;
  Helpers.Snapshot.check "cert-bytes.snap" (Buffer.contents buf)

let parser_rejects () =
  let reject_text what text =
    match Cert.of_string text with
    | Ok _ -> Alcotest.failf "parser accepted %s" what
    | Error _ -> ()
  in
  reject_text "a bad magic line" "relpipe-cert v0\nkind bb\n";
  reject_text "a duplicate directive"
    (Cert.to_string hand_dp_cert ^ "\nn 3\n");
  reject_text "an unknown directive"
    (Cert.to_string hand_dp_cert ^ "\nwibble 1\n");
  reject_text "cells in a bb certificate"
    (Cert.to_string hand_bb_cert ^ "\ncell 1 0 1 0x1p0\n")

let () =
  Alcotest.run "cert"
    [
      ( "hand",
        [
          test "hand-built DP certificate accepted" dp_hand_built;
          test "hand-built B&B certificate accepted" bb_hand_built;
          test "emitted B&B claim matches hand-computed bound"
            bb_emitted_hand_claim;
        ] );
      ( "format",
        [
          roundtrip;
          reorder_invariance;
          hex_writer;
          test "parser rejects" parser_rejects;
          test "bytes and verdicts pinned by cert-bytes.snap"
            cert_bytes_snapshot;
        ] );
      ( "mutations",
        [
          test "stable mutation battery rejected" mutation_battery;
          test "digest binds certificate to instance" digest_binding;
          test "bb certificate beyond the width cap refused" bb_width_cap;
        ] );
    ]
