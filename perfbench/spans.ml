(* In-memory span recorder for the traced runs.

   Each span has a name, start and end (ns, from the benchmark clock),
   the index of its parent span (-1 at the root) and the id of the
   operation or request it belongs to.  Spans nest through an explicit
   stack, so only the recording domain may open them; work timed on
   other domains is added afterwards with [add].  Self time is a span's
   duration minus the durations of its direct children. *)

open Common

type span = {
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;
  op : int;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (* open span indices, innermost first *)
}

let create () = { spans = [||]; len = 0; stack = [] }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let current_parent t = match t.stack with i :: _ -> i | [] -> -1

(* A completed span measured elsewhere, under the innermost open span
   (or [parent] when given); returns its index. *)
let add t ?parent ~op name ~start_ns ~end_ns =
  let parent = match parent with Some p -> p | None -> current_parent t in
  push t { name; start_ns; end_ns; parent; op }

(* Time [f] as span [name]; the span is recorded even if [f] raises. *)
let span t ~op name f =
  let start_ns = now_ns () in
  let idx = push t { name; start_ns; end_ns = start_ns; parent = current_parent t; op } in
  t.stack <- idx :: t.stack;
  let finish () =
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
    t.spans.(idx) <- { (t.spans.(idx)) with end_ns = now_ns () }
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* [span] when a recorder is given, a plain call otherwise. *)
let maybe t ~op name f = match t with None -> f () | Some t -> span t ~op name f

let dur s = s.end_ns - s.start_ns

(* Self time: duration minus the part of the span its children cover
   (their union, so children that ran in parallel count once). *)
let self_times t =
  let children = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.spans.(i).parent in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.len (fun i ->
      let s = t.spans.(i) in
      let ivs =
        List.sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.map
             (fun c ->
               let cs = t.spans.(c) in
               (max s.start_ns cs.start_ns, min s.end_ns cs.end_ns))
             children.(i))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (lo, hi) ->
            let lo = max lo reach in
            if hi > lo then (acc + (hi - lo), hi) else (acc, reach))
          (0, min_int) ivs
      in
      dur s - covered)

(* Per-name totals: (count, total duration ns, total self time ns),
   sorted by name. *)
let totals t =
  let self = self_times t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let c, d, st =
      match Hashtbl.find_opt tbl s.name with Some v -> v | None -> (0, 0, 0)
    in
    Hashtbl.replace tbl s.name (c + 1, d + dur s, st + self.(i))
  done;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    ((* devlint: allow RP-S204 — sorted by name right here *)
     Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let total_of t name =
  match List.assoc_opt name (totals t) with Some v -> v | None -> (0, 0, 0)

(* Mean duration of the spans called [name], in ms ([0.] when none). *)
let mean_ms t name =
  let c, d, _ = total_of t name in
  if c = 0 then 0.0 else ms_of_ns d /. float_of_int c

let mean_us t name = 1000.0 *. mean_ms t name

let to_jsonl t =
  let buf = Buffer.create (t.len * 64) in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Buffer.add_string buf
      (Json.to_string
         (Json.Obj
            [
              ("id", Json.Int i);
              ("name", Json.Str s.name);
              ("start_ns", Json.Int s.start_ns);
              ("end_ns", Json.Int s.end_ns);
              ("parent", Json.Int s.parent);
              ("op", Json.Int s.op);
            ]));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
