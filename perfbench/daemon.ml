(* The relpipe serve daemon as a child process, and the benchmark's one
   client connection to it ([Relpipe_serve.Client]). *)

open Common
module Protocol = Relpipe_service.Protocol
module Client = Relpipe_serve.Client

let workers = 2
let cache_shards = 4
let session_window = 32

type t = { pid : int; sock : string; mutable reaped : bool }

(* Daemons not yet reaped, so an aborted run can still stop them. *)
let running : t list ref = ref []

let spawn ~relpipe ~dir ?record () =
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    [
      relpipe; "serve"; "--unix"; sock; "--workers"; string_of_int workers;
      "--cache-shards"; string_of_int cache_shards; "--session-window";
      string_of_int session_window;
    ]
    @ match record with Some f -> [ "--record"; f ] | None -> []
  in
  let pid = Unix.create_process relpipe (Array.of_list args) null log log in
  Unix.close null;
  Unix.close log;
  let t = { pid; sock; reaped = false } in
  running := t :: !running;
  t

let mark_reaped t =
  t.reaped <- true;
  running := List.filter (fun d -> d.pid <> t.pid) !running

let exited t =
  t.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ ->
      mark_reaped t;
      true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      mark_reaped t;
      true

(* Wait for the child to end; SIGKILL it after [grace] seconds. *)
let reap ?(grace = 20.0) t =
  let t0 = now_ns () in
  let killed = ref false in
  while not (exited t) do
    if (not !killed) && seconds_since t0 > grace then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      killed := true
    end;
    Unix.sleepf 0.005
  done

(* Emergency stop on an error path: SIGTERM (the daemon drains and
   exits), then reap. *)
let kill t =
  if not (exited t) then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap ~grace:5.0 t
  end

let kill_all () = List.iter kill !running

let peak_rss_mb t = vmhwm_mb (string_of_int t.pid)

(* ------------------------------------------------------------------ *)
(* Connection                                                          *)
(* ------------------------------------------------------------------ *)

(* Seconds a daemon may take to start listening. *)
let start_timeout = 30.0

(* Poll until the daemon accepts a connection: the moment it is
   listening. *)
let connect t =
  let t0 = now_ns () in
  let rec go () =
    match Client.connect (`Unix t.sock) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      ->
        if exited t then failwith "perfbench: the serve daemon exited at start-up";
        if seconds_since t0 > start_timeout then
          failwith "perfbench: the serve daemon never started listening";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* Client reads and writes block without a timeout, so a hung daemon
   would hold the run forever: after [limit] seconds the whole run
   exits with code 3, and the exit handler stops every daemon. *)
let watchdog ~limit =
  ignore
    (Thread.create
       (fun () ->
         Unix.sleepf limit;
         prerr_endline "perfbench: the run overran its time limit";
         exit 3)
       ())

let control c msg =
  match Client.call c (Protocol.encode_control msg) with
  | Some line -> Protocol.decode_control_reply line
  | None -> Error "the daemon closed the connection"

(* Handshake; the daemon refuses solves before it. *)
let hello c =
  match control c (Protocol.hello ~client:"perfbench" ()) with
  | Ok (Protocol.Hello_ok _) -> ()
  | _ -> failwith "perfbench: the daemon refused the handshake"

(* The daemon's live metric registry. *)
let stats c =
  match control c Protocol.Stats with
  | Ok (Protocol.Stats_ok bindings) -> bindings
  | _ -> failwith "perfbench: bad stats reply"

(* Ask the daemon to drain, then wait for it to exit. *)
let shutdown t c =
  (try ignore (control c Protocol.Shutdown) with Unix.Unix_error _ -> ());
  Client.close c;
  reap t

let counter bindings name =
  match List.assoc_opt name bindings with
  | Some (Relpipe_obs.Metric.Counter_v v) | Some (Relpipe_obs.Metric.Gauge_v v) -> v
  | Some (Relpipe_obs.Metric.Histogram_v { count; _ }) -> count
  | None -> 0

let histogram bindings name =
  match List.assoc_opt name bindings with
  | Some (Relpipe_obs.Metric.Histogram_v { count; sum }) -> (count, sum)
  | _ -> (0, 0.0)
