(* Pins of the relpipe command line as a whole.

   [cli.snap] records, for every invocation below, the exit code and the
   MD5 and length of stdout and of every file the invocation writes, and
   for every subcommand the option names its --help=plain page lists.
   The invocations cover all 22 subcommands on valid and handled-error
   paths; each is deterministic (fixed seeds, --virtual-clock, relative
   output paths under cli-out/) and they run in order, because later ones
   read what earlier ones wrote.

   The refusal cases pin the other side: a bad count or a bad path is a
   usage error (exit 124) naming the flag or the path, never an uncaught
   exception and never a daemon that accepts a session it cannot
   answer. *)

module Snapshot = Helpers.Snapshot

let test = Helpers.test
let fig5 = "../examples/instances/fig5.relpipe"
let lab = "../examples/instances/lab-cluster.relpipe"
let campus = "../examples/instances/campus-grid.relpipe"
let federation = "../examples/instances/federation.relpipe"
let volunteer = "../examples/instances/volunteer-network.relpipe"
let homog = "fixtures/clean_comm_homog.relpipe"
let hetero = "fixtures/clean_fully_hetero.relpipe"
let session = "fixtures/sessions/three-clients.session"
let churn_grid = "fixtures/churn_grid.relpipe"
let out = "cli-out"
let o name = Filename.concat out name

(* Each invocation with the files (or directories of files) it writes. *)
let invocations =
  [
    ([ "describe"; "-i"; fig5 ], []);
    ([ "describe"; "-i"; campus ], []);
    ([ "describe"; "-i"; "fixtures/defect_P001.relpipe" ], []);
    ([ "describe"; "-i"; "fixtures/no-such.relpipe" ], []);
    ([ "solve"; "-i"; fig5; "-L"; "22" ], []);
    ([ "solve"; "-i"; fig5; "-F"; "0.5" ], []);
    ([ "solve"; "-i"; homog; "-F"; "0.5"; "-m"; "exact" ], []);
    ([ "solve"; "-i"; lab; "-F"; "0.5"; "-m"; "portfolio" ], []);
    ([ "solve"; "-i"; fig5; "-L"; "1" ], []);
    ([ "solve"; "-i"; fig5; "-L"; "22"; "-F"; "0.5" ], []);
    ([ "solve"; "-i"; federation; "-F"; "0.5"; "-m"; "polynomial" ], []);
    ([ "solve"; "-i"; churn_grid; "-F"; "0.5"; "-m"; "exact" ], []);
    ( [ "solve"; "-i"; fig5; "-F"; "0.5"; "--certify"; o "fig5.cert" ],
      [ o "fig5.cert" ] );
    ([ "exact"; "-i"; fig5; "-F"; "0.5" ], []);
    ([ "exact"; "-i"; fig5; "-F"; "0.5"; "-w"; "2" ], []);
    ([ "exact"; "-i"; fig5; "-L"; "22"; "-w"; "2" ], []);
    ([ "exact"; "-i"; lab; "-L"; "43"; "--leg"; "bb" ], []);
    ([ "exact"; "-i"; federation; "-F"; "0.5"; "--leg"; "dp"; "-w"; "2" ], []);
    ( [ "exact"; "-i"; fig5; "-L"; "22"; "--certify"; o "fig5-L.cert" ],
      [ o "fig5-L.cert" ] );
    ( [
        "exact"; "-i"; lab; "-F"; "0.5"; "--leg"; "dp"; "--certify";
        o "lab-dp.cert";
      ],
      [ o "lab-dp.cert" ] );
    ([ "exact"; "-i"; volunteer; "-F"; "0.5"; "--leg"; "dp" ], []);
    ([ "exact"; "-i"; fig5 ], []);
    ([ "cert"; "-i"; fig5; o "fig5.cert" ], []);
    ([ "cert"; "-i"; fig5; o "fig5-L.cert" ], []);
    ([ "cert"; "-i"; lab; o "lab-dp.cert" ], []);
    ([ "cert"; "-i"; lab; o "fig5.cert" ], []);
    ([ "cert"; "-i"; fig5; "fixtures/clean_fully_homog.relpipe" ], []);
    ([ "simulate"; "-i"; fig5; "-L"; "22"; "--trials"; "2000"; "-s"; "7" ], []);
    ([ "simulate"; "-i"; fig5; "-F"; "0.5" ], []);
    ([ "simulate"; "-i"; fig5; "-L"; "1" ], []);
    ([ "pareto"; "-i"; fig5 ], []);
    ([ "pareto"; "-i"; homog; "-n"; "4"; "-m"; "exact" ], []);
    ([ "pareto"; "-i"; lab; "-n"; "3"; "-m"; "polynomial" ], []);
    ([ "eval"; "-i"; fig5; "-L"; "22"; "--mapping"; "1:0; 2:1,2,3" ], []);
    ([ "eval"; "-i"; fig5; "-F"; "0.1"; "--mapping"; "1-2:0" ], []);
    ([ "eval"; "-i"; fig5; "-F"; "0.5"; "--mapping"; "garbage" ], []);
    ([ "tri"; "-i"; fig5; "-L"; "30"; "-P"; "20" ], []);
    ([ "tri"; "-i"; fig5; "-L"; "30"; "-P"; "20"; "--exact" ], []);
    ([ "tri"; "-i"; fig5; "-L"; "1"; "-P"; "1" ], []);
    ([ "tri"; "-i"; hetero; "-L"; "30"; "-P"; "20"; "--exact" ], []);
    ([ "goodput"; "-i"; fig5; "-L"; "22"; "--trials"; "200"; "-s"; "3" ], []);
    ([ "goodput"; "-i"; fig5; "-F"; "0.5"; "--mission"; "500" ], []);
    ([ "experiments"; "--only"; "E1 " ], []);
    ([ "experiments"; "--only"; "E1 "; "--markdown" ], []);
    ([ "experiments"; "--only"; "NOPE" ], []);
    ([ "catalog" ], []);
    ( [ "catalog"; "--write"; "lab-cluster"; "-o"; o "lab.relpipe" ],
      [ o "lab.relpipe" ] );
    ([ "catalog"; "--write"; "nope" ], []);
    ([ "lint"; hetero ], []);
    ([ "lint"; "fixtures/defect_I001.relpipe" ], []);
    ([ "lint"; "--format"; "json"; "fixtures/defect_N001.relpipe" ], []);
    ([ "lint"; fig5; "--mapping"; "1:0; 2:1,2" ], []);
    ([ "lint"; "--rules" ], []);
    ([ "lint"; "--builtin" ], []);
    ([ "lint"; "--builtin"; "--format"; "json" ], []);
    ([ "lint" ], []);
    ( [
        "sweep"; "--count"; "8"; "--seed"; "7"; "--stages"; "5"; "--procs";
        "4"; "-L"; "50"; "--emit-requests"; o "sweep.jsonl"; "--dry-run";
      ],
      [ o "sweep.jsonl" ] );
    ( [
        "sweep"; "-n"; "6"; "-s"; "3"; "--class"; "comm-homog"; "--stages";
        "4"; "--procs"; "3"; "-F"; "0.5"; "-w"; "1";
      ],
      [] );
    ( [
        "sweep"; "-n"; "4"; "--class"; "clustered"; "--stages"; "3";
        "--procs"; "8"; "-L"; "50"; "-w"; "2"; "--exact-workers"; "-o";
        o "sweep-out.jsonl"; "--stats";
      ],
      [ o "sweep-out.jsonl" ] );
    ([ "sweep"; "--count"; "0"; "-F"; "0.5" ], []);
    ([ "sweep"; "--count"; "2" ], []);
    ([ "batch"; o "sweep.jsonl"; "-w"; "1" ], []);
    ( [
        "batch"; o "sweep.jsonl"; "-w"; "2"; "--exact-workers"; "-o";
        o "batch-w2.jsonl"; "--cache-size"; "0";
      ],
      [ o "batch-w2.jsonl" ] );
    ( [
        "batch"; o "sweep.jsonl"; "-w"; "1"; "--metrics"; o "batch.metrics";
        "--trace"; o "batch.trace"; "--virtual-clock"; "--stats";
      ],
      [ o "batch.metrics"; o "batch.trace" ] );
    ([ "batch"; "fixtures/no-such.jsonl" ], []);
    ([ "batch"; o "sweep.jsonl"; "-o"; "/nonexistent-dir/out.jsonl" ], []);
    ([ "serve"; "--replay"; session; "--virtual-clock"; "-w"; "1" ], []);
    ( [
        "serve"; "--replay"; session; "--virtual-clock"; "-w"; "2";
        "--exact-workers"; "--cache-shards"; "4"; "-o"; o "replay.out";
      ],
      [ o "replay.out" ] );
    ([ "serve" ], []);
    ([ "serve"; "--replay"; session; "--cache-shards"; "0" ], []);
    ([ "call" ], []);
    ([ "call"; "--unix"; o "no-such.sock"; o "sweep.jsonl" ], []);
    ([ "call"; "--unix"; o "no-such.sock"; "fixtures/no-such.jsonl" ], []);
    ( [
        "prof"; "-i"; hetero; "-F"; "0.5";
        "--virtual-clock";
      ],
      [] );
    ([ "prof"; "-i"; homog; "-L"; "22"; "-m"; "exact"; "--virtual-clock" ], []);
    ( [
        "atlas"; "-n"; "300"; "--pool"; "12"; "--seed"; "5"; "--chunk"; "64";
        "--virtual-clock"; "-w"; "1";
      ],
      [] );
    ( [
        "atlas"; "-n"; "200"; "--seed"; "3"; "--zipf"; "0.5"; "--burst"; "2";
        "--virtual-clock"; "-w"; "2"; "--exact-workers"; "-o"; o "atlas.out";
        "--metrics"; o "atlas.metrics";
      ],
      [ o "atlas.out"; o "atlas.metrics" ] );
    ([ "atlas"; "--zipf"; "-1" ], []);
    ([ "atlas"; "-n"; "10"; "--unix"; o "no-such.sock" ], []);
    ([ "fuzz"; "--count"; "30"; "--seed"; "42"; "-w"; "1" ], []);
    ( [
        "fuzz"; "-n"; "20"; "-s"; "7"; "--oracle"; "interval-dp"; "--oracle";
        "lru"; "--max-stages"; "4"; "--max-procs"; "4"; "-w"; "2";
        "--exact-workers";
      ],
      [] );
    ( [
        "fuzz"; "--perturb"; "0.5"; "--oracle"; "interval-dp"; "--count"; "5";
        "--out-dir"; o "fuzz"; "-w"; "1";
      ],
      [ o "fuzz" ] );
    ( [
        "fuzz"; "--replay"; "fixtures/fuzz-corpus/fuzz-interval-dp-101.relpipe";
        "--replay"; "fixtures/fuzz-corpus/fuzz-lru-808.relpipe";
      ],
      [] );
    ( [
        "fuzz"; "--replay"; "fixtures/fuzz-corpus/fuzz-interval-dp-101.relpipe";
        "--perturb"; "0.5";
      ],
      [] );
    ([ "fuzz"; "--list-oracles" ], []);
    ([ "fuzz"; "--oracle"; "nope" ], []);
    ([ "devlint"; "--list-rules" ], []);
    ( [
        "devlint"; "--no-baseline"; "--format"; "json";
        "fixtures/devlint/bad_s101.ml";
      ],
      [] );
    ([ "devlint"; "--no-baseline"; "fixtures/devlint" ], []);
    ([ "devlint"; "--no-baseline"; "fixtures/devlint/clean_s301.ml" ], []);
    ([ "devlint"; "--family"; "nope"; "fixtures/devlint" ], []);
    ( [
        "churn"; "-i"; churn_grid; "-F"; "0.5"; "-e"; "6"; "-s"; "11";
        "--virtual-clock";
      ],
      [] );
    ( [
        "churn"; "-i"; churn_grid; "-L"; "60"; "-e"; "6"; "-s"; "3"; "--cold";
        "--stats"; "--virtual-clock";
      ],
      [] );
    ( [
        "churn"; "-i"; churn_grid; "-F"; "0.5"; "-e"; "5"; "--mission"; "300";
        "--verify"; "-w"; "2"; "--exact-workers"; "--virtual-clock";
      ],
      [] );
    ([ "churn"; "-i"; volunteer; "-F"; "0.5" ], []);
    ([ "demo"; "-o"; o "fig5.relpipe" ], [ o "fig5.relpipe" ]);
    ([ "describe"; "-i"; o "fig5.relpipe" ], []);
  ]

let subcommands =
  [
    "describe"; "solve"; "exact"; "cert"; "simulate"; "pareto"; "eval"; "tri";
    "goodput"; "experiments"; "catalog"; "lint"; "batch"; "serve"; "call";
    "prof"; "sweep"; "atlas"; "fuzz"; "devlint"; "churn"; "demo";
  ]

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let show_arg a =
  if String.equal a "" || String.exists (fun c -> c = ' ' || c = ';') a then
    Printf.sprintf "%S" a
  else a

let fingerprint label content =
  Printf.sprintf "  %s %d bytes md5 %s\n" label (String.length content)
    (Digest.to_hex (Digest.string content))

(* A written directory is pinned file by file, in name order. *)
let written path =
  let file p = fingerprint p (Snapshot.read_file p) in
  if Sys.file_exists path && Sys.is_directory path then
    let names = Sys.readdir path in
    Array.sort String.compare names;
    String.concat ""
      (Array.to_list
         (Array.map (fun n -> file (Filename.concat path n)) names))
  else if Sys.file_exists path then file path
  else Printf.sprintf "  %s missing\n" path

let record_invocation (args, files) =
  let code, printed, _ = Helpers.run_cli args in
  Printf.sprintf "$ %s\n  exit %d\n%s%s"
    (String.concat " " (List.map show_arg args))
    code (fingerprint "stdout" printed)
    (String.concat "" (List.map written files))

(* Option names from the OPTIONS and COMMON OPTIONS sections: the
   entries' header lines sit at a 7-space indent, their text deeper. *)
let option_names help =
  let in_options = ref false in
  List.concat_map
    (fun line ->
      if line <> "" && line.[0] <> ' ' then begin
        in_options :=
          String.equal line "OPTIONS" || String.equal line "COMMON OPTIONS";
        []
      end
      else if !in_options && String.starts_with ~prefix:"       -" line then
        List.map
          (fun item ->
            let item = String.trim item in
            let rec stop i =
              match if i < String.length item then item.[i] else ' ' with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> stop (i + 1)
              | _ -> i
            in
            String.sub item 0 (stop 0))
          (String.split_on_char ',' line)
      else [])
    (String.split_on_char '\n' help)

let record_help sub =
  let code, help, _ = Helpers.run_cli [ sub; "--help=plain" ] in
  Printf.sprintf "help %s (exit %d): %s\n" sub code
    (String.concat " " (option_names help))

let test_cli_snapshot () =
  rm_rf out;
  Sys.mkdir out 0o755;
  let runs = List.map record_invocation invocations in
  let helps = List.map record_help subcommands in
  Snapshot.check "cli.snap" (String.concat "" (runs @ helps))

(* Bad counts and bad paths: each must be a usage error naming what was
   wrong.  The serve cases replay a transcript, so no daemon starts. *)
let refusals =
  let nx = "/nonexistent-dir/x" in
  [
    ([ "demo"; "-o"; nx ], nx);
    ([ "catalog"; "--write"; "lab-cluster"; "-o"; nx ], nx);
    ( [
        "sweep"; "--count"; "2"; "-F"; "0.5"; "--emit-requests"; nx;
        "--dry-run";
      ],
      nx );
    ([ "cert"; "-i"; fig5; "snapshots" ], "snapshots");
    ([ "lint"; "snapshots" ], "snapshots");
    ([ "batch"; "snapshots" ], "snapshots");
    ([ "call"; "--unix"; o "no-such.sock"; "snapshots" ], "snapshots");
    ( [
        "fuzz"; "--perturb"; "0.5"; "--oracle"; "interval-dp"; "--out-dir"; nx;
      ],
      nx );
    ([ "sweep"; "--stages"; "0"; "-F"; "0.5" ], "--stages");
    ([ "sweep"; "--procs"; "0"; "-F"; "0.5" ], "--procs");
    ([ "simulate"; "-i"; fig5; "-F"; "0.5"; "--trials"; "0" ], "--trials");
    ([ "goodput"; "-i"; fig5; "-F"; "0.5"; "--trials"; "0" ], "--trials");
    ([ "pareto"; "-i"; fig5; "-n"; "1" ], "'-n'");
    ([ "pareto"; "-i"; federation; "-m"; "polynomial" ], "polynomial");
    ([ "pareto"; "-i"; campus; "-m"; "exact"; "-n"; "3" ], "Exact.solve");
    ([ "atlas"; "-n"; "10"; "--chunk"; "0" ], "--chunk");
    ([ "batch"; "--cache-size=-1" ], "--cache-size");
    ([ "serve"; "--replay"; session; "--queue-size"; "0" ], "--queue-size");
    ( [ "serve"; "--replay"; session; "--session-window"; "0" ],
      "--session-window" );
  ]

let test_refusals () =
  List.iter
    (fun (args, needle) ->
      let name = String.concat " " args in
      let code, _, err = Helpers.run_cli args in
      Alcotest.(check int) (name ^ ": exit") 124 code;
      if not (Helpers.contains ~needle err) then
        Alcotest.failf "%s: stderr does not name %s:\n%s" name needle err;
      if Helpers.contains ~needle:"internal error" err then
        Alcotest.failf "%s: uncaught exception:\n%s" name err)
    refusals

let () =
  Alcotest.run "cli"
    [
      ( "cli",
        [
          test "snapshot of every subcommand" test_cli_snapshot;
          test "bad counts and paths are usage errors" test_refusals;
        ] );
    ]
