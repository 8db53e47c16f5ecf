open Relpipe_model
open Relpipe_core
module Json = Relpipe_obs.Json

let version = 1

type instance_src = Inline of string | File of string

type request = {
  id : string option;
  instance : instance_src;
  objective : Instance.objective;
  method_ : Solver.method_;
  budget : int option;
}

let request ?id ?budget ?(method_ = Solver.Auto) ~instance objective =
  { id; instance; objective; method_; budget }

let method_names =
  [
    ("auto", Solver.Auto);
    ("exact", Solver.Exact_enum);
    ("polynomial", Solver.Polynomial);
    ("portfolio", Solver.Portfolio);
  ]
  @ List.map
      (fun h -> (Heuristics.name_to_string h, Solver.Heuristic h))
      Heuristics.all_names

let method_to_string m =
  fst (List.find (fun (_, m') -> m' = m) method_names)

let method_of_string s =
  match List.assoc_opt s method_names with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown method %S (expected one of %s)" s
           (String.concat ", " (List.map fst method_names)))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let objective_to_json = function
  | Instance.Min_failure { max_latency } ->
      Json.Obj
        [ ("minimize", Json.Str "failure"); ("max_latency", Json.float max_latency) ]
  | Instance.Min_latency { max_failure } ->
      Json.Obj
        [ ("minimize", Json.Str "latency"); ("max_failure", Json.float max_failure) ]

let encode_request r =
  let fields = [ ("v", Json.Int version) ] in
  let fields =
    fields @ (match r.id with Some id -> [ ("id", Json.Str id) ] | None -> [])
  in
  let fields =
    fields
    @ (match r.instance with
      | Inline text -> [ ("instance", Json.Str text) ]
      | File path -> [ ("instance_file", Json.Str path) ])
    @ [
        ("objective", objective_to_json r.objective);
        ("method", Json.Str (method_to_string r.method_));
      ]
    @ (match r.budget with Some b -> [ ("budget", Json.Int b) ] | None -> [])
  in
  Json.to_string (Json.Obj fields)

let ( let* ) = Result.bind

let check_version j =
  match Json.member "v" j with
  | None -> Error "missing \"v\" (protocol version)"
  | Some v -> (
      match Json.to_int v with
      | Some n when n = version -> Ok ()
      | Some n -> Error (Printf.sprintf "unsupported protocol version %d" n)
      | None -> Error "\"v\" must be an integer")

let decode_objective j =
  match Json.member "objective" j with
  | None -> Error "missing \"objective\""
  | Some o -> (
      let threshold name =
        match Option.bind (Json.member name o) Json.to_float with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "objective: missing number %S" name)
      in
      match Option.bind (Json.member "minimize" o) Json.to_str with
      | Some "failure" ->
          let* max_latency = threshold "max_latency" in
          Ok (Instance.Min_failure { max_latency })
      | Some "latency" ->
          let* max_failure = threshold "max_failure" in
          Ok (Instance.Min_latency { max_failure })
      | Some other ->
          Error
            (Printf.sprintf
               "objective: \"minimize\" must be \"failure\" or \"latency\", \
                got %S"
               other)
      | None -> Error "objective: missing string \"minimize\"")

let parse_line line =
  Result.map_error (fun msg -> "malformed JSON: " ^ msg) (Json.parse line)

(* The request decoder over an already parsed line, so the session path
   ([decode_inbound]) parses each line once. *)
let request_of_json j =
  let* () = check_version j in
  let str name = Option.bind (Json.member name j) Json.to_str in
  let* instance =
    match (str "instance", str "instance_file") with
    | Some text, None -> Ok (Inline text)
    | None, Some path -> Ok (File path)
    | Some _, Some _ -> Error "pass \"instance\" or \"instance_file\", not both"
    | None, None -> Error "missing \"instance\" or \"instance_file\""
  in
  let* objective = decode_objective j in
  let* method_ =
    match str "method" with
    | None -> Ok Solver.Auto
    | Some name -> method_of_string name
  in
  let* budget =
    match Json.member "budget" j with
    | None -> Ok None
    | Some b -> (
        match Json.to_int b with
        | Some n when n > 0 -> Ok (Some n)
        | _ -> Error "\"budget\" must be a positive integer")
  in
  Ok { id = str "id"; instance; objective; method_; budget }

let decode_request line = Result.bind (parse_line line) request_of_json

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Solved of { mapping : string; latency : float; failure : float }
  | Infeasible
  | Failed of string

type cache_origin = Hit | Miss

type response = {
  r_id : string option;
  r_index : int;
  r_cache : cache_origin;
  r_outcome : outcome;
}

let mapping_to_syntax = Mapping_syntax.to_string

let encode_response r =
  let fields =
    [ ("v", Json.Int version); ("index", Json.Int r.r_index) ]
    @ (match r.r_id with Some id -> [ ("id", Json.Str id) ] | None -> [])
    @ [ ("cache", Json.Str (match r.r_cache with Hit -> "hit" | Miss -> "miss")) ]
    @ (match r.r_outcome with
      | Solved { mapping; latency; failure } ->
          [
            ("status", Json.Str "ok");
            ("mapping", Json.Str mapping);
            ("latency", Json.float latency);
            ("failure", Json.float failure);
          ]
      | Infeasible -> [ ("status", Json.Str "infeasible") ]
      | Failed msg -> [ ("status", Json.Str "error"); ("error", Json.Str msg) ])
  in
  Json.to_string (Json.Obj fields)

let decode_response line =
  let* j =
    match Json.parse line with
    | Ok j -> Ok j
    | Error msg -> Error ("malformed JSON: " ^ msg)
  in
  let* () = check_version j in
  let str name = Option.bind (Json.member name j) Json.to_str in
  let* r_index =
    match Option.bind (Json.member "index" j) Json.to_int with
    | Some i -> Ok i
    | None -> Error "missing integer \"index\""
  in
  let* r_cache =
    match str "cache" with
    | Some "hit" -> Ok Hit
    | Some "miss" -> Ok Miss
    | Some other -> Error (Printf.sprintf "invalid \"cache\" value %S" other)
    | None -> Error "missing \"cache\""
  in
  let* r_outcome =
    match str "status" with
    | Some "ok" -> (
        let num name = Option.bind (Json.member name j) Json.to_float in
        match (str "mapping", num "latency", num "failure") with
        | Some mapping, Some latency, Some failure ->
            Ok (Solved { mapping; latency; failure })
        | _ -> Error "status \"ok\" requires mapping, latency and failure")
    | Some "infeasible" -> Ok Infeasible
    | Some "error" -> (
        match str "error" with
        | Some msg -> Ok (Failed msg)
        | None -> Error "status \"error\" requires an \"error\" message")
    | Some other -> Error (Printf.sprintf "invalid \"status\" value %S" other)
    | None -> Error "missing \"status\""
  in
  Ok { r_id = str "id"; r_index; r_cache; r_outcome }

(* ------------------------------------------------------------------ *)
(* Control messages (the serve daemon's session vocabulary)            *)
(* ------------------------------------------------------------------ *)

type control =
  | Hello of { client : string option; protocols : int list }
  | Stats
  | Shutdown

let hello ?client () = Hello { client; protocols = [ version ] }

type server_error =
  | Version_mismatch of { offered : int list }
  | Unknown_op of string
  | Invalid_control of string
  | Hello_required

let error_code = function
  | Version_mismatch _ -> "version-mismatch"
  | Unknown_op _ -> "unknown-op"
  | Invalid_control _ -> "invalid-control"
  | Hello_required -> "hello-required"

let server_error_to_string = function
  | Version_mismatch { offered } ->
      Printf.sprintf "no common protocol version: server speaks %d, client offered %s"
        version
        (String.concat ", " (List.map string_of_int offered))
  | Unknown_op op -> Printf.sprintf "unknown method %S (expected hello, stats or shutdown)" op
  | Invalid_control msg -> msg
  | Hello_required -> "session must open with a hello handshake before sending requests"

type inbound =
  | Control of control
  | Solve of (request, string) result

let decode_inbound line =
  match parse_line line with
  | Error msg ->
      (* Malformed JSON is answered on the solve path (a per-request
         [error] response), exactly as `relpipe batch` answers it. *)
      Ok (Solve (Error msg))
  | Ok j -> (
      match Json.member "op" j with
      | None -> Ok (Solve (request_of_json j))
      | Some op_j -> (
          match Json.to_str op_j with
          | None -> Error (Invalid_control "\"op\" must be a string")
          | Some op -> (
              match Option.bind (Json.member "v" j) Json.to_int with
              | None -> Error (Invalid_control "missing integer \"v\" (protocol version)")
              | Some n when n <> version -> Error (Version_mismatch { offered = [ n ] })
              | Some _ -> (
                  match op with
                  | "hello" -> (
                      let client = Option.bind (Json.member "client" j) Json.to_str in
                      let protocols =
                        match Json.member "protocols" j with
                        | None -> Ok [ version ]
                        | Some l -> (
                            match
                              Option.map
                                (List.map Json.to_int)
                                (Json.to_list l)
                            with
                            | Some items when List.for_all Option.is_some items
                              ->
                                Ok (List.filter_map Fun.id items)
                            | _ ->
                                Error
                                  (Invalid_control
                                     "\"protocols\" must be a list of integers"))
                      in
                      match protocols with
                      | Error e -> Error e
                      | Ok ps when not (List.exists (fun p -> p = version) ps)
                        ->
                          Error (Version_mismatch { offered = ps })
                      | Ok ps -> Ok (Control (Hello { client; protocols = ps })))
                  | "stats" -> Ok (Control Stats)
                  | "shutdown" -> Ok (Control Shutdown)
                  | other -> Error (Unknown_op other)))))

let encode_control c =
  let fields = [ ("v", Json.Int version) ] in
  let fields =
    match c with
    | Hello { client; protocols } ->
        fields
        @ [ ("op", Json.Str "hello") ]
        @ (match client with Some c -> [ ("client", Json.Str c) ] | None -> [])
        @ (match protocols with
          | [ p ] when p = version -> []  (* the default; keep the line short *)
          | ps -> [ ("protocols", Json.List (List.map (fun p -> Json.Int p) ps)) ])
    | Stats -> fields @ [ ("op", Json.Str "stats") ]
    | Shutdown -> fields @ [ ("op", Json.Str "shutdown") ]
  in
  Json.to_string (Json.Obj fields)

(* ------------------------------------------------------------------ *)
(* Control replies                                                     *)
(* ------------------------------------------------------------------ *)

type control_reply =
  | Hello_ok of { protocol : int }
  | Stats_ok of (string * Relpipe_obs.Metric.view) list
  | Shutdown_ok of { draining : bool }
  | Refused of server_error

let encode_control_reply r =
  let obj fields = Json.to_string (Json.Obj (("v", Json.Int version) :: fields)) in
  match r with
  | Hello_ok { protocol } ->
      obj
        [
          ("op", Json.Str "hello"); ("ok", Json.Bool true);
          ("protocol", Json.Int protocol);
        ]
  | Stats_ok metrics ->
      obj
        [
          ("op", Json.Str "stats"); ("ok", Json.Bool true);
          ("metrics", Json.List (List.map Relpipe_obs.Metric.view_to_json metrics));
        ]
  | Shutdown_ok { draining } ->
      obj
        [
          ("op", Json.Str "shutdown"); ("ok", Json.Bool true);
          ("draining", Json.Bool draining);
        ]
  | Refused err ->
      obj
        ([
           ("op", Json.Str "error"); ("ok", Json.Bool false);
           ("code", Json.Str (error_code err));
         ]
        @ (match err with
          | Version_mismatch { offered } ->
              [ ("offered", Json.List (List.map (fun p -> Json.Int p) offered)) ]
          | Unknown_op op -> [ ("method", Json.Str op) ]
          | Invalid_control _ | Hello_required -> [])
        @ [ ("error", Json.Str (server_error_to_string err)) ])

let decode_control_reply line =
  let* j =
    match Json.parse line with
    | Ok j -> Ok j
    | Error msg -> Error ("malformed JSON: " ^ msg)
  in
  let* () = check_version j in
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int_ name = Option.bind (Json.member name j) Json.to_int in
  match str "op" with
  | Some "hello" -> (
      match int_ "protocol" with
      | Some protocol -> Ok (Hello_ok { protocol })
      | None -> Error "hello reply: missing integer \"protocol\"")
  | Some "stats" -> (
      match Option.bind (Json.member "metrics" j) Json.to_list with
      | None -> Error "stats reply: missing \"metrics\" list"
      | Some items ->
          let rec go acc = function
            | [] -> Ok (Stats_ok (List.rev acc))
            | m :: rest -> (
                match Relpipe_obs.Metric.view_of_json m with
                | Ok binding -> go (binding :: acc) rest
                | Error e -> Error ("stats reply: " ^ e))
          in
          go [] items)
  | Some "shutdown" -> (
      match Option.bind (Json.member "draining" j) Json.to_bool with
      | Some draining -> Ok (Shutdown_ok { draining })
      | None -> Error "shutdown reply: missing boolean \"draining\"")
  | Some "error" -> (
      let msg = Option.value ~default:"" (str "error") in
      match str "code" with
      | Some "version-mismatch" ->
          let offered =
            match Option.bind (Json.member "offered" j) Json.to_list with
            | Some items -> List.filter_map Json.to_int items
            | None -> []
          in
          Ok (Refused (Version_mismatch { offered }))
      | Some "unknown-op" -> (
          match str "method" with
          | Some op -> Ok (Refused (Unknown_op op))
          | None -> Error "error reply: unknown-op without \"method\"")
      | Some "invalid-control" -> Ok (Refused (Invalid_control msg))
      | Some "hello-required" -> Ok (Refused Hello_required)
      | Some other -> Error (Printf.sprintf "error reply: unknown code %S" other)
      | None -> Error "error reply: missing \"code\"")
  | Some other -> Error (Printf.sprintf "invalid reply \"op\" value %S" other)
  | None -> Error "missing \"op\""
