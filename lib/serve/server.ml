(* The live daemon: listeners, per-session I/O threads, one dispatcher.

   Thread layout (POSIX threads; OCaml domains stay inside the engine's
   pool):

   - one accept thread, [select]ing over the listeners and a drain
     wake-up pipe;
   - per session, a reader thread (socket -> admission queue) and a
     writer thread (outbox -> socket);
   - the dispatcher (the caller's thread): drains the admission queue,
     one batch per wakeup, feeds it to [Core.process_tick], fans the
     replies out to the session outboxes, and appends the batch to the
     recording.  The tick boundaries it records are exactly what
     [Replay] will pin.

   Backpressure has two stages, so a slow or flooding client can never
   stall the pool: the per-session window blocks the reader (and hence
   the client's socket) while too many of its lines are unanswered or
   unwritten, and the bounded admission queue blocks all readers when
   the dispatcher falls behind.  The dispatcher itself never blocks on
   a session — replies go to the outbox, and the writer thread absorbs
   a slow consumer.

   Drain (SIGTERM or a [shutdown] request): {!signal_drain} only sets an
   atomic flag and writes one byte to the wake-up pipe — safe from a
   signal handler.  The accept thread then closes the listeners, shuts
   down the receive side of every live session (readers see EOF after
   finishing the line they already read), waits for the readers to
   finish and closes the admission queue.  The dispatcher answers
   everything still queued — every admitted request is answered — and
   the writers flush before their sockets close. *)

(* ------------------------------------------------------------------ *)
(* Drain signal (shared with the SIGTERM handler)                      *)
(* ------------------------------------------------------------------ *)

let drain_flag = Atomic.make false
let drain_wakeup : Unix.file_descr option Atomic.t = Atomic.make None

let signal_drain () =
  Atomic.set drain_flag true;
  match Atomic.get drain_wakeup with
  | None -> ()
  | Some fd -> (
      try ignore (Unix.write fd (Bytes.of_string "!") 0 1)
      with Unix.Unix_error _ -> ())

let draining () = Atomic.get drain_flag

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type endpoint = Unix_sock of string | Tcp of string * int

type config = {
  endpoints : endpoint list;
  queue_capacity : int;
  session_window : int;
  record : string option;
}

let default_config =
  {
    endpoints = [];
    queue_capacity = 256;
    session_window = 32;
    record = None;
  }

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type session = {
  sid : int;
  fd : Unix.file_descr;
  mu : Mutex.t;
  cond : Condition.t;
  outbox : string Queue.t;
  mutable inflight : int;  (* admitted lines not yet written back *)
  mutable flushed : bool;  (* no further replies will be pushed *)
  window : int;
}

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Block while the session is at its window; [false] when drain raced
   in — the line is dropped unadmitted rather than waiting forever. *)
let window_acquire s =
  with_lock s.mu (fun () ->
      while s.inflight >= s.window && not (Atomic.get drain_flag) do
        Condition.wait s.cond s.mu
      done;
      let ok = s.inflight < s.window in
      if ok then s.inflight <- s.inflight + 1;
      ok)

let window_release s =
  with_lock s.mu (fun () ->
      s.inflight <- s.inflight - 1;
      Condition.broadcast s.cond)

let outbox_push s line =
  with_lock s.mu (fun () ->
      Queue.push line s.outbox;
      Condition.broadcast s.cond)

let outbox_done s =
  with_lock s.mu (fun () ->
      s.flushed <- true;
      Condition.broadcast s.cond)

let outbox_pop s =
  with_lock s.mu (fun () ->
      while Queue.is_empty s.outbox && not s.flushed do
        Condition.wait s.cond s.mu
      done;
      if Queue.is_empty s.outbox then None else Some (Queue.pop s.outbox))

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  core : Core.t;
  queue : Script.event Admission.t;
  cfg : config;
  reg_mu : Mutex.t;
  reg_cond : Condition.t;
  mutable next_sid : int;
  mutable live_readers : int;
  mutable session_list : session list;
  mutable threads : Thread.t list;
  mutable ticks : int;
  mutable answered : int;
  record_oc : out_channel option;
}

let find_session t sid =
  with_lock t.reg_mu (fun () ->
      List.find_opt (fun s -> s.sid = sid) t.session_list)

let reader_exited t =
  with_lock t.reg_mu (fun () ->
      t.live_readers <- t.live_readers - 1;
      Condition.broadcast t.reg_cond)

(* ------------------------------------------------------------------ *)
(* Session threads                                                     *)
(* ------------------------------------------------------------------ *)

let reader_loop t s =
  let r = Frame.reader s.fd in
  let rec loop () =
    (* The drain check sits before the read, never between a read and
       its push: a line already read is still admitted and answered. *)
    if not (Atomic.get drain_flag) then
      match Frame.read_line r with
      | Frame.Eof -> ()
      | Frame.Too_long -> ()  (* size guard tripped: drop the session *)
      | Frame.Line line ->
          if window_acquire s then
            if Admission.push t.queue (Script.Send (s.sid, line)) then loop ()
            else window_release s
  in
  loop ();
  ignore (Admission.push t.queue (Script.Close s.sid));
  reader_exited t

let writer_loop s =
  let dead = ref false in
  let rec loop () =
    match outbox_pop s with
    | None -> ()
    | Some line ->
        if not !dead then (
          try Frame.write_line s.fd line with Unix.Unix_error _ -> dead := true);
        window_release s;
        loop ()
  in
  loop ();
  try Unix.close s.fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)
(* ------------------------------------------------------------------ *)

let accept_one t lfd =
  match Unix.accept ~cloexec:true lfd with
  | exception
      Unix.Unix_error
        ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      ()
  | fd, _addr ->
      let s =
        with_lock t.reg_mu (fun () ->
            let sid = t.next_sid in
            t.next_sid <- sid + 1;
            let s =
              {
                sid;
                fd;
                mu = Mutex.create ();
                cond = Condition.create ();
                outbox = Queue.create ();
                inflight = 0;
                flushed = false;
                window = t.cfg.session_window;
              }
            in
            t.session_list <- s :: t.session_list;
            t.live_readers <- t.live_readers + 1;
            s)
      in
      (* Open is pushed before the reader starts, so it precedes every
         Send of this session in admission order. *)
      ignore (Admission.push t.queue (Script.Open s.sid));
      let rt = Thread.create (fun () -> reader_loop t s) () in
      let wt = Thread.create (fun () -> writer_loop s) () in
      with_lock t.reg_mu (fun () -> t.threads <- rt :: wt :: t.threads)

let accept_loop t listeners pipe_r =
  let fds = pipe_r :: listeners in
  let rec loop () =
    if not (Atomic.get drain_flag) then (
      (* The wake-up pipe is the fast path out of this select; the
         timeout is belt-and-braces for a caller that sets the drain
         flag without writing the pipe. *)
      match Unix.select fds [] [] 0.5 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
          if not (List.memq pipe_r ready) then (
            List.iter
              (fun fd -> if List.memq fd ready then accept_one t fd)
              listeners;
            loop ()))
  in
  loop ();
  (* Drain: stop accepting, EOF the live sessions, wake any reader
     parked on its window, wait the readers out, close admission. *)
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    listeners;
  let sessions = with_lock t.reg_mu (fun () -> t.session_list) in
  List.iter
    (fun s ->
      (try Unix.shutdown s.fd Unix.SHUTDOWN_RECEIVE
       with Unix.Unix_error _ -> ());
      with_lock s.mu (fun () -> Condition.broadcast s.cond))
    sessions;
  with_lock t.reg_mu (fun () ->
      while t.live_readers > 0 do
        Condition.wait t.reg_cond t.reg_mu
      done);
  Admission.close t.queue

(* ------------------------------------------------------------------ *)
(* Dispatching                                                         *)
(* ------------------------------------------------------------------ *)

let record_tick t events =
  match t.record_oc with
  | None -> ()
  | Some oc ->
      List.iter
        (fun ev ->
          output_string oc (Script.render_event ev);
          output_char oc '\n')
        events;
      output_string oc "tick\n";
      flush oc

let dispatch t =
  let rec loop () =
    match Admission.drain t.queue with
    | [] -> ()
    | events ->
        t.ticks <- t.ticks + 1;
        record_tick t events;
        let replies = Core.process_tick t.core events in
        t.answered <- t.answered + List.length replies;
        List.iter
          (fun (sid, line) ->
            match find_session t sid with
            | Some s -> outbox_push s line
            | None -> ())
          replies;
        List.iter
          (fun ev ->
            match (ev : Script.event) with
            | Close sid -> (
                match find_session t sid with
                | Some s -> outbox_done s
                | None -> ())
            | Open _ | Send _ -> ())
          events;
        if Core.draining t.core then signal_drain ();
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Listeners and lifecycle                                             *)
(* ------------------------------------------------------------------ *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match (Unix.gethostbyname host).Unix.h_addr_list with
      | addrs when Array.length addrs > 0 -> addrs.(0)
      | _ -> invalid_arg (Printf.sprintf "serve: cannot resolve host %S" host)
      | exception Not_found ->
          invalid_arg (Printf.sprintf "serve: cannot resolve host %S" host))

let listen_endpoint ep =
  match ep with
  | Unix_sock path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
      Unix.listen fd 64;
      fd

type report = { accepted : int; ticks : int; answered : int }

let run ?obs ~engine ?(config = default_config) ?on_ready () =
  (match config.endpoints with
  | [] -> invalid_arg "Server.run: no endpoints"
  | _ :: _ -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Atomic.set drain_flag false;
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Atomic.set drain_wakeup (Some pipe_w);
  let listeners = List.map listen_endpoint config.endpoints in
  let record_oc =
    Option.map
      (fun path ->
        let oc = open_out path in
        output_string oc (Script.magic ^ "\n");
        oc)
      config.record
  in
  let t =
    {
      core = Core.create ?obs ~engine ();
      queue = Admission.create ~capacity:config.queue_capacity;
      cfg = config;
      reg_mu = Mutex.create ();
      reg_cond = Condition.create ();
      next_sid = 0;
      live_readers = 0;
      session_list = [];
      threads = [];
      ticks = 0;
      answered = 0;
      record_oc;
    }
  in
  (match on_ready with
  | Some f -> f (List.map Unix.getsockname listeners)
  | None -> ());
  let acceptor = Thread.create (fun () -> accept_loop t listeners pipe_r) () in
  dispatch t;
  Thread.join acceptor;
  (* Belt and braces: every session got its Close-driven flush above,
     but make sure no writer can wait forever before we join. *)
  List.iter outbox_done (with_lock t.reg_mu (fun () -> t.session_list));
  List.iter Thread.join (with_lock t.reg_mu (fun () -> t.threads));
  Option.iter close_out t.record_oc;
  Atomic.set drain_wakeup None;
  (try Unix.close pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close pipe_w with Unix.Unix_error _ -> ());
  List.iter
    (fun ep ->
      match ep with
      | Unix_sock path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ())
    config.endpoints;
  { accepted = t.next_sid; ticks = t.ticks; answered = t.answered }
