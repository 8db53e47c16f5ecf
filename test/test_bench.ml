(* End-to-end tests for the bench harness (bench/main.exe): the
   virtual-clock kernel report must be byte-identical across runs and
   carry exactly the v2 twin schema; the regression gate must pass
   against itself, fail against a doctored twice-as-fast baseline, and
   refuse a baseline that compares nothing; bad file flags, and a gate
   flag given with --obs-guard, are usage errors. *)

module Json = Relpipe_obs.Json

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let bench = Filename.concat ".." (Filename.concat "bench" "main.exe")
let run_bench = Helpers.run_exe bench

let fresh_report () =
  let tmp = Filename.temp_file "relpipe-bench" ".json" in
  let code, _out, err = run_bench [ "--virtual-clock"; "--json"; tmp ] in
  check_int "bench exits 0" 0 code;
  check_str "bench stderr empty" "" err;
  let s = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  s

let temp_json contents =
  let tmp = Filename.temp_file "relpipe-bench" ".json" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
  tmp

let test_deterministic () =
  check_str "virtual-clock reports byte-identical" (fresh_report ())
    (fresh_report ())

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "bench JSON does not parse: %s" e

let get name v =
  match v with Some x -> x | None -> Alcotest.failf "missing field %s" name

let test_schema () =
  let j = parse_exn (fresh_report ()) in
  (match j with
  | Json.Obj fields ->
      check_str "report keys" "version,date,cpus,virtual_clock,twins"
        (String.concat "," (List.map fst fields))
  | _ -> Alcotest.fail "bench JSON is not an object");
  let field name = get name (Json.member name j) in
  check_int "version" 2 (get "version" (Json.to_int (field "version")));
  check_bool "virtual_clock" true
    (get "virtual_clock" (Json.to_bool (field "virtual_clock")));
  check_str "date pinned" "1970-01-01T00:00:00Z"
    (get "date" (Json.to_str (field "date")));
  let twins = get "twins" (Json.to_list (field "twins")) in
  check_int "three kernel twins" 3 (List.length twins);
  let kernels =
    List.map (fun t -> get "kernel" (Json.to_str (get "kernel" (Json.member "kernel" t)))) twins
  in
  check_str "twin order" "interval-dp,general-dp,bb" (String.concat "," kernels);
  List.iter
    (fun t ->
      List.iter
        (fun f ->
          match Json.member f t with
          | Some v -> ignore (get f (Json.to_float v))
          | None -> Alcotest.failf "twin missing field %s" f)
        [ "ns_opt"; "ci_opt_lo"; "ci_opt_hi"; "ns_ref"; "ci_ref_lo";
          "ci_ref_hi"; "speedup"; "speedup_lo" ])
    twins

(* A fresh virtual-clock report with [edit key value] applied to every
   field, at the top level and in each twin, written to a temp file. *)
let doctored_baseline edit =
  let rec walk = function
    | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, edit k (walk v))) fields)
    | Json.List l -> Json.List (List.map walk l)
    | v -> v
  in
  temp_json (Json.to_string (walk (parse_exn (fresh_report ()))))

let against baseline =
  let result = run_bench [ "--virtual-clock"; "--against"; baseline ] in
  Sys.remove baseline;
  result

let test_against_self_passes () =
  let code, out, _err = against (temp_json (fresh_report ())) in
  check_int "self-comparison exits 0" 0 code;
  check_bool "reports OK" true (Helpers.contains ~needle:"against: OK" out)

let test_against_regression_fails () =
  (* Every kernel claims to have been 2x faster: the current run then
     looks like a 2x regression and must fail the 10% gate. *)
  let code, _out, err =
    against
      (doctored_baseline (fun k v ->
           match (k, Json.to_float v) with
           | "ns_opt", Some ns -> Json.float (ns /. 2.0)
           | _ -> v))
  in
  check_int "regression exits 1" 1 code;
  check_bool "names a failing kernel on stderr" true
    (Helpers.contains ~needle:"against: FAIL" err)

(* A virtual tick divided by real nanoseconds reads as a 0.00x-0.02x
   "improvement", so a baseline on the other clock must be refused. *)
let test_against_other_clock_refused () =
  let code, _out, err =
    against
      (doctored_baseline (fun k v ->
           if k = "virtual_clock" then Json.Bool false else v))
  in
  check_int "clock mismatch exits 2" 2 code;
  check_bool "names the clock mismatch on stderr" true
    (Helpers.contains ~needle:"\"virtual_clock\":false but this run has true" err)

let test_against_disjoint_refused () =
  let code, out, err =
    against
      (doctored_baseline (fun k v ->
           match (k, Json.to_str v) with
           | "kernel", Some s -> Json.Str ("renamed-" ^ s)
           | _ -> v))
  in
  check_int "nothing compared exits 2" 2 code;
  check_bool "says nothing was compared" true
    (Helpers.contains ~needle:"shares no kernel with this run" err);
  check_bool "no OK verdict" false (Helpers.contains ~needle:"against: OK" out)

let test_bad_json_path () =
  let path = "/nonexistent-dir/x.json" in
  let code, out, err = run_bench [ "--virtual-clock"; "--json"; path ] in
  check_int "unwritable report exits 2" 2 code;
  check_bool "names the path" true (Helpers.contains ~needle:path err);
  check_bool "no exception" false (Helpers.contains ~needle:"exception" err);
  check_str "nothing timed before the refusal" "" out;
  List.iter
    (fun args ->
      let code, _out, err = run_bench args in
      check_int "missing value exits 2" 2 code;
      check_bool "names the flag" true (Helpers.contains ~needle:"--json needs" err))
    [ [ "--virtual-clock"; "--json" ]; [ "--json"; "--virtual-clock" ] ]

(* The guard shares no work with the twin gate, so a gate flag given with
   it is refused, naming the flag, before anything is timed. *)
let test_obs_guard_runs_alone () =
  List.iter
    (fun (args, flag) ->
      let code, out, err = run_bench args in
      check_int "obs-guard with a gate flag exits 2" 2 code;
      check_bool "names the flag" true (Helpers.contains ~needle:flag err);
      check_str "nothing timed before the refusal" "" out)
    [
      ([ "--obs-guard"; "--against"; "/nonexistent" ], "--against");
      ([ "--virtual-clock"; "--obs-guard" ], "--virtual-clock");
      ([ "--obs-guard"; "--json"; "/nonexistent-dir/x.json" ], "--json");
    ]

let () =
  Alcotest.run "bench"
    [
      ( "virtual-clock",
        [
          Alcotest.test_case "report is deterministic" `Quick test_deterministic;
          Alcotest.test_case "report carries the v2 twin schema" `Quick
            test_schema;
        ] );
      ( "against",
        [
          Alcotest.test_case "passes against itself" `Quick
            test_against_self_passes;
          Alcotest.test_case "fails against a doctored 2x-faster baseline"
            `Quick test_against_regression_fails;
          Alcotest.test_case "refuses a baseline on the other clock" `Quick
            test_against_other_clock_refused;
          Alcotest.test_case "refuses a baseline that shares no kernel"
            `Quick test_against_disjoint_refused;
        ] );
      ( "files",
        [
          Alcotest.test_case "an unwritable report path is a usage error"
            `Quick test_bad_json_path;
        ] );
      ( "obs-guard",
        [
          Alcotest.test_case "refuses a twin-gate flag" `Quick
            test_obs_guard_runs_alone;
        ] );
    ]
