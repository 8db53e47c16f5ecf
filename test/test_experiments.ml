(* Smoke tests for the experiment harness: the fast experiments must run
   and contain their expected headline values, so EXPERIMENTS.md cannot
   silently rot.  (The full E1-E24 sweep runs in `relpipe experiments`.) *)

open Relpipe_experiments
module Table = Relpipe_util.Table

let test = Helpers.test

let e1_contains_paper_numbers () =
  let rendered = Table.render (Experiments.e1_fig34 ()) in
  Alcotest.(check bool) "105 present" true
    (Helpers.contains ~needle:"105" rendered);
  Alcotest.(check bool) "7 present" true
    (Helpers.contains ~needle:"7" rendered)

let e2_contains_paper_numbers () =
  let rendered = Table.render (Experiments.e2_fig5 ()) in
  Alcotest.(check bool) "0.64 present" true
    (Helpers.contains ~needle:"0.64" rendered);
  Alcotest.(check bool) "0.196 present" true
    (Helpers.contains ~needle:"0.196" rendered)

let e23_penalties_above_one () =
  let rendered = Table.render (Experiments.e23_comm_model ()) in
  (* Every penalty column value is >= 1; spot-check the known 1.9x rows. *)
  Alcotest.(check bool) "fig5 1.9x penalty" true
    (Helpers.contains ~needle:"1.9" rendered)

let e6_all_agree () =
  let rendered = Table.render (Experiments.e6_general_mapping ()) in
  Alcotest.(check bool) "no disagreement" false
    (Helpers.contains ~needle:"NO" rendered)

let markdown_rendering () =
  let t = Table.create [ "a"; "b" ] in
  Table.add_row t [ "x|y"; "1" ];
  let md = Table.render_markdown t in
  Alcotest.(check bool) "pipe escaped" true
    (Helpers.contains ~needle:"x\\|y" md);
  Alcotest.(check bool) "rule present" true
    (Helpers.contains ~needle:":--" md)

let all_experiments_are_titled () =
  (* Listing [all] runs nothing, so every title is checked (numbered E1 to
     E24, in order) without the slow tables; two cheap tables are rendered
     as a sample. *)
  let all = Experiments.all () in
  Alcotest.(check int) "24 experiments" 24 (List.length all);
  List.iteri
    (fun k (title, _) ->
      let prefix = Printf.sprintf "E%d " (k + 1) in
      Alcotest.(check bool) title true (String.starts_with ~prefix title))
    all;
  List.iter
    (fun (title, prefix) -> Alcotest.(check bool) title true prefix)
    [
      ("e1 table non-empty", Table.render (Experiments.e1_fig34 ()) <> "");
      ("e2 table non-empty", Table.render (Experiments.e2_fig5 ()) <> "");
    ]

(* Golden snapshots pinning solver *answers*.  E16's node counts are
   implementation-dependent and deliberately not snapshotted; the optima
   (and the E10/E11 heuristic-gap tables, which contain only answers and
   exact optima) must stay bit-for-bit stable across solver rewrites. *)

let e16_optima_snapshot () =
  Helpers.Snapshot.check "e16-optima.snap"
    (Table.render (Experiments.e16_optima ()))

let e10_snapshot () =
  Helpers.Snapshot.check "e10-open-case.snap"
    (Table.render (Experiments.e10_open_case ()))

let e11_snapshot () =
  Helpers.Snapshot.check "e11-np-hard-case.snap"
    (Table.render (Experiments.e11_np_hard_case ()))

let () =
  Alcotest.run "experiments"
    [
      ( "smoke",
        [
          test "E1 paper numbers" e1_contains_paper_numbers;
          test "E2 paper numbers" e2_contains_paper_numbers;
          test "E23 penalties" e23_penalties_above_one;
          test "E6 agreement" e6_all_agree;
          test "markdown rendering" markdown_rendering;
          test "tables render" all_experiments_are_titled;
        ] );
      ( "pinned-answers",
        [
          test "E16 optima snapshot" e16_optima_snapshot;
          test "E10 answers snapshot" e10_snapshot;
          test "E11 answers snapshot" e11_snapshot;
        ] );
    ]
