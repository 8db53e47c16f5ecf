type t = {
  metrics : Metric.t;
  trace : Trace.t option;
  clock : Clock.t;
}

let create ?(tracing = false) ?clock () =
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  {
    metrics = Metric.create ();
    trace = (if tracing then Some (Trace.create ~clock) else None);
    clock;
  }

let fork t i =
  let clock = Clock.fork t.clock i in
  {
    metrics = t.metrics;
    trace = Option.map (fun _ -> Trace.create ~clock) t.trace;
    clock;
  }

let merge_child ~into child =
  match (into.trace, child.trace) with
  | Some parent, Some c -> Trace.append ~into:parent c
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Ambient context                                                     *)
(* ------------------------------------------------------------------ *)

let ambient_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let ambient () = Domain.DLS.get ambient_key
let set_ambient o = Domain.DLS.set ambient_key o

let with_ambient o f =
  let old = ambient () in
  Domain.DLS.set ambient_key o;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key old) f

(* ------------------------------------------------------------------ *)
(* Option-accepting conveniences                                       *)
(* ------------------------------------------------------------------ *)

let add obs name k =
  match obs with
  | None -> ()
  | Some o -> Metric.Counter.add (Metric.counter o.metrics name) k

let incr obs name = add obs name 1

let observe obs name v =
  match obs with
  | None -> ()
  | Some o -> Metric.Histogram.observe (Metric.histogram o.metrics name) v

let gauge_set obs name x =
  match obs with
  | None -> ()
  | Some o -> Metric.Gauge.set (Metric.gauge o.metrics name) x

let gauge_max obs name x =
  match obs with
  | None -> ()
  | Some o -> Metric.Gauge.record_max (Metric.gauge o.metrics name) x

let span obs ?attrs name f =
  match obs with
  | Some { trace = Some tr; _ } -> Trace.span tr ?attrs name f
  | Some { trace = None; _ } | None -> f ()

let instant obs ?attrs name =
  match obs with
  | Some { trace = Some tr; _ } -> Trace.instant tr ?attrs name
  | Some { trace = None; _ } | None -> ()

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let metrics_jsonl t = Metric.render_jsonl t.metrics
let trace_jsonl t = match t.trace with Some tr -> Trace.to_jsonl tr | None -> ""
