module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let add t k = ignore (Atomic.fetch_and_add t k)
  let incr t = add t 1
  let value = Atomic.get
end

module Gauge = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let set = Atomic.set

  let record_max t x =
    let rec go () =
      let cur = Atomic.get t in
      if x > cur && not (Atomic.compare_and_set t cur x) then go ()
    in
    go ()

  let value = Atomic.get
end

module Histogram = struct
  (* Buckets: 0 = underflow (v < 1, incl. 0, negatives, NaN); i in 1..40 =
     [2^(i-1), 2^i); 41 = overflow (v >= 2^40, incl. infinity).  Sized for
     nanosecond durations: 2^40 ns is ~18 minutes. *)
  let num_buckets = 42
  let overflow_edge = Float.ldexp 1.0 40

  let bucket_index v =
    if not (v >= 1.0) then 0
    else if v >= overflow_edge then num_buckets - 1
    else snd (Float.frexp v)

  let bucket_lower i = if i = 0 then Float.neg_infinity else Float.ldexp 1.0 (i - 1)

  type t = {
    mu : Mutex.t;
    buckets : int array;
    mutable n : int;
    mutable total : float;
  }

  let make () =
    { mu = Mutex.create (); buckets = Array.make num_buckets 0; n = 0; total = 0.0 }

  let observe t v =
    Mutex.lock t.mu;
    let i = bucket_index v in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.n <- t.n + 1;
    t.total <- t.total +. v;
    Mutex.unlock t.mu

  let count t = t.n
  let sum t = t.total

  let counts t =
    Mutex.lock t.mu;
    let c = Array.copy t.buckets in
    Mutex.unlock t.mu;
    c

  let merge a b =
    let t = make () in
    Array.iteri (fun i c -> t.buckets.(i) <- c) (counts a);
    Array.iteri (fun i c -> t.buckets.(i) <- t.buckets.(i) + c) (counts b);
    t.n <- a.n + b.n;
    t.total <- a.total +. b.total;
    t
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type t = { mu : Mutex.t; tbl : (string, instrument) Hashtbl.t }

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }

let lookup t name make_i =
  Mutex.lock t.mu;
  let i =
    match Hashtbl.find_opt t.tbl name with
    | Some i -> i
    | None ->
        let i = make_i () in
        Hashtbl.replace t.tbl name i;
        i
  in
  Mutex.unlock t.mu;
  i

let kind_error name =
  invalid_arg
    (Printf.sprintf "Obs.Metric: %S is already bound to another instrument kind"
       name)

let counter t name =
  match lookup t name (fun () -> C (Counter.make ())) with
  | C c -> c
  | G _ | H _ -> kind_error name

let gauge t name =
  match lookup t name (fun () -> G (Gauge.make ())) with
  | G g -> g
  | C _ | H _ -> kind_error name

let histogram t name =
  match lookup t name (fun () -> H (Histogram.make ())) with
  | H h -> h
  | C _ | G _ -> kind_error name

type view =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of { count : int; sum : float }

let view_of = function
  | C c -> Counter_v (Counter.value c)
  | G g -> Gauge_v (Gauge.value g)
  | H h -> Histogram_v { count = Histogram.count h; sum = Histogram.sum h }

let view_fields (name, view) =
  ("name", Json.Str name)
  ::
  (match view with
  | Counter_v v -> [ ("type", Json.Str "counter"); ("value", Json.Int v) ]
  | Gauge_v v -> [ ("type", Json.Str "gauge"); ("value", Json.Int v) ]
  | Histogram_v { count; sum } ->
      (* An integral sum prints without a fraction ([2000], not
         [2000.0]), as virtual-clock snapshots pin it. *)
      let sum =
        if Float.is_integer sum && Float.abs sum < 1e15 then
          Json.Int (int_of_float sum)
        else Json.float sum
      in
      [ ("type", Json.Str "histogram"); ("count", Json.Int count); ("sum", sum) ])

let view_to_json binding = Json.Obj (view_fields binding)

let view_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int_ name = Option.bind (Json.member name j) Json.to_int in
  match (str "name", str "type") with
  | Some name, Some "counter" -> (
      match int_ "value" with
      | Some v -> Ok (name, Counter_v v)
      | None -> Error "counter without integer \"value\"")
  | Some name, Some "gauge" -> (
      match int_ "value" with
      | Some v -> Ok (name, Gauge_v v)
      | None -> Error "gauge without integer \"value\"")
  | Some name, Some "histogram" -> (
      match (int_ "count", Option.bind (Json.member "sum" j) Json.to_float) with
      | Some count, Some sum -> Ok (name, Histogram_v { count; sum })
      | _ -> Error "histogram without count/sum")
  | Some _, Some other -> Error (Printf.sprintf "unknown metric type %S" other)
  | _ -> Error "metric without name/type"

let sorted_bindings t =
  Mutex.lock t.mu;
  (* devlint: allow RP-S204 — the fold's order is erased by the sort below *)
  let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [] in
  Mutex.unlock t.mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) bindings

let bindings t = List.map (fun (name, i) -> (name, view_of i)) (sorted_bindings t)

let render_line (name, i) =
  let buckets =
    match i with
    | C _ | G _ -> []
    | H h ->
        let counts = Histogram.counts h and buckets = ref [] in
        for i = Histogram.num_buckets - 1 downto 0 do
          if counts.(i) > 0 then
            buckets := Json.List [ Json.Int i; Json.Int counts.(i) ] :: !buckets
        done;
        [ ("buckets", Json.List !buckets) ]
  in
  Json.to_string (Json.Obj (view_fields (name, view_of i) @ buckets)) ^ "\n"

let render_jsonl t = String.concat "" (List.map render_line (sorted_bindings t))
