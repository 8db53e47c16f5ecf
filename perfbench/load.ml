(* Load phases over the benchmark's one connection, each with one
   sender (the calling thread) and one receiver thread that stamps every
   reply line with its arrival time.

   Open loop: request [i] is due at [start + i / rate] whatever the
   daemon is doing; its latency runs from that due time to its reply, so
   a stall also charges the requests queued behind it.  The generator's
   own lateness (actual send minus due time) is kept to tell a slow
   generator from a slow server.

   Closed loop: [window] requests stay in flight — the daemon's
   per-session window — and each reply releases the next send, which
   measures capacity.

   The daemon answers every line once and in order, so after its last
   request the sender sends a [stats] request: the receiver stops at
   that reply, however many requests the phase sent. *)

open Common
module Client = Relpipe_serve.Client
module Protocol = Relpipe_service.Protocol

type receiver = {
  thread : Thread.t;
  sent : int Atomic.t;  (** requests sent so far *)
  finished : bool Atomic.t;  (** the sender has sent its last request *)
  eof : bool Atomic.t;  (** the daemon closed the stream *)
}

(* Start the receiver: [on_reply i at line] for reply [i], [on_eof ()]
   if the daemon closes the stream. *)
let receive c ~on_eof on_reply =
  let sent = Atomic.make 0 and finished = Atomic.make false and eof = Atomic.make false in
  let rec go i =
    match Client.recv c with
    | None ->
        Atomic.set eof true;
        on_eof ()
    | Some line ->
        let at = now_ns () in
        (* Every request answered: this is the end marker's reply. *)
        if not (Atomic.get finished && i = Atomic.get sent) then begin
          on_reply i at line;
          go (i + 1)
        end
  in
  { thread = Thread.create go 0; sent; finished; eof }

(* Send one request; [false] once the daemon has gone. *)
let send c r line =
  (not (Atomic.get r.eof))
  &&
  match Client.send c line with
  | () ->
      Atomic.incr r.sent;
      true
  | exception Unix.Unix_error _ -> false

(* Mark the end of the phase and wait for the receiver; returns the
   number of requests the phase sent. *)
let finish c r =
  Atomic.set r.finished true;
  (try Client.send c (Protocol.encode_control Protocol.Stats) with Unix.Unix_error _ -> ());
  Thread.join r.thread;
  Atomic.get r.sent

type open_result = {
  o_due : int array;  (* ns *)
  o_sent : int array;
  o_recv : int array;  (* 0 when the reply never came *)
  o_replies : string array;
  o_end_ns : int;  (* when the schedule ended: due time of request [count] *)
}

let open_loop c ~rate ~count ~line_of =
  let period = 1e9 /. rate in
  let start = now_ns () + 1_000_000 in
  let due = Array.init count (fun i -> start + int_of_float (float_of_int i *. period)) in
  let sent = Array.make count 0 in
  let recv = Array.make count 0 in
  let replies = Array.make count "" in
  let end_ns = start + int_of_float (float_of_int count *. period) in
  let r =
    receive c ~on_eof:ignore (fun i at line ->
        recv.(i) <- at;
        replies.(i) <- line)
  in
  let rec go i =
    if i < count then begin
      let wait = due.(i) - now_ns () in
      if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
      if send c r (line_of i) then begin
        sent.(i) <- now_ns ();
        go (i + 1)
      end
    end
  in
  go 0;
  ignore (finish c r);
  { o_due = due; o_sent = sent; o_recv = recv; o_replies = replies; o_end_ns = end_ns }

(* Latencies (ms) of the replies that came, from each request's due time. *)
let open_latencies r =
  let acc = ref [] in
  Array.iteri
    (fun i t -> if t > 0 then acc := ms_of_ns (t - r.o_due.(i)) :: !acc)
    r.o_recv;
  Array.of_list (List.rev !acc)

let lateness_ms r = Array.mapi (fun i s -> ms_of_ns (s - r.o_due.(i))) r.o_sent

(* Replies still outstanding when the schedule ended. *)
let outstanding_at_end r =
  Array.fold_left
    (fun acc t -> if t = 0 || t > r.o_end_ns then acc + 1 else acc)
    0 r.o_recv

type closed_result = {
  c_replies : string array;  (* in send order *)
  c_recv : int array;  (* arrival time of each reply *)
  c_sent : int;
  c_seconds : float;  (* first send to last reply *)
}

let closed_loop c ~window ~seconds ~max_requests ~line_of =
  let t0 = now_ns () in
  let deadline =
    if Float.is_finite seconds then t0 + int_of_float (seconds *. 1e9) else max_int
  in
  let slots = Semaphore.Counting.make window in
  let replies = ref [] and arrivals = ref [] in
  (* A reply frees a slot; so does the end of the stream, which wakes a
     sender waiting for one. *)
  let free () = Semaphore.Counting.release slots in
  let r =
    receive c ~on_eof:free (fun _ at line ->
        replies := line :: !replies;
        arrivals := at :: !arrivals;
        free ())
  in
  let rec go () =
    let i = Atomic.get r.sent in
    if i < max_requests && now_ns () < deadline then begin
      Semaphore.Counting.acquire slots;
      if send c r (line_of i) then go ()
    end
  in
  go ();
  let sent = finish c r in
  let c_recv = Array.of_list (List.rev !arrivals) in
  let last = if Array.length c_recv = 0 then t0 else c_recv.(Array.length c_recv - 1) in
  {
    c_replies = Array.of_list (List.rev !replies);
    c_recv;
    c_sent = sent;
    c_seconds = float_of_int (last - t0) /. 1e9;
  }

(* Pipelined pass over [lines] (the serve-hot warm-up): at most
   [window] in flight, returns the replies in order. *)
let pass c ~window lines =
  let r =
    closed_loop c ~window ~seconds:infinity ~max_requests:(Array.length lines)
      ~line_of:(fun i -> lines.(i))
  in
  r.c_replies
