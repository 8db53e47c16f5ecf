type event = {
  ts : int;
  dur : int option;
  name : string;
  attrs : (string * string) list;
}

type t = {
  clk : Clock.t;
  mu : Mutex.t;
  mutable rev_events : event list;  (* most recent first *)
}

let create ~clock = { clk = clock; mu = Mutex.create (); rev_events = [] }
let clock t = t.clk

let add t ev =
  Mutex.lock t.mu;
  t.rev_events <- ev :: t.rev_events;
  Mutex.unlock t.mu

let span t ?(attrs = []) name f =
  let t0 = Clock.now_ns t.clk in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Clock.now_ns t.clk in
      add t { ts = t0; dur = Some (t1 - t0); name; attrs })
    f

let instant t ?(attrs = []) name =
  add t { ts = Clock.now_ns t.clk; dur = None; name; attrs }

let events t =
  Mutex.lock t.mu;
  let evs = List.rev t.rev_events in
  Mutex.unlock t.mu;
  evs

let append ~into t =
  let evs = events t in
  Mutex.lock into.mu;
  into.rev_events <- List.rev_append evs into.rev_events;
  Mutex.unlock into.mu

let event_to_json ev =
  let dur = match ev.dur with Some d -> [ ("dur", Json.Int d) ] | None -> [] in
  let attrs =
    match ev.attrs with
    | [] -> []
    | kvs -> [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ]
  in
  Json.to_string
    (Json.Obj ((("ts", Json.Int ev.ts) :: dur) @ (("name", Json.Str ev.name) :: attrs)))

let to_jsonl t =
  String.concat "" (List.map (fun ev -> event_to_json ev ^ "\n") (events t))
