open Relpipe_model

let magic = "relpipe-cert v1"

type reason = Threshold | Dominated | Bounded

type status =
  | Expanded
  | Evaluated of { latency : float; failure : float }
  | Pruned of { reason : reason; latency_lb : float; partial_failure : float }

type node = { path : Mapping.interval list; status : status }
type cell = { e : int; u : int; mask : int; value : float }

type bb_claim =
  | Infeasible
  | Feasible of {
      latency : float;
      failure : float;
      mapping : Mapping.interval list;
    }

type body =
  | Bb of {
      objective : Instance.objective;
      claim : bb_claim;
      nodes : node list;
    }
  | Dp of {
      latency : float;
      mapping : Mapping.interval list;
      cells : cell list;
    }

type t = { n : int; m : int; instance_digest : string option; body : body }

let entries t =
  match t.body with
  | Bb { nodes; _ } -> List.length nodes
  | Dp { cells; _ } -> List.length cells

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Every token goes straight into one buffer, with no intermediate
   strings: a B&B transcript runs to thousands of lines, and a Printf call
   per token costs as much as the replay that checks them. *)

(* Decimal digits of a non-positive int, most significant first; working
   on the negative side covers [min_int] too. *)
let rec add_neg_digits buf i =
  if i <= -10 then add_neg_digits buf (i / 10);
  Buffer.add_char buf (Char.chr (48 - (i mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

let hex_digits = "0123456789abcdef"

(* Hexadecimal float literals round-trip bit-for-bit through
   [float_of_string], which is the whole point of a certificate: every
   number the checker reads is exactly the number the solver computed.
   The output is byte-identical to [Printf.sprintf "%h"]: the sign, [0x1]
   ([0x0] for zero and subnormals), the 52-bit mantissa as nibbles after a
   point with trailing zeros stripped (no point when it is zero), [p] and
   the signed decimal exponent; [infinity] and [nan] keep their sign. *)
let add_float buf x =
  let bits = Int64.bits_of_float x in
  let top = Int64.to_int (Int64.shift_right_logical bits 52) in
  let exp = top land 0x7ff in
  let mantissa = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
  if top land 0x800 <> 0 then Buffer.add_char buf '-';
  if exp = 0x7ff then
    Buffer.add_string buf (if mantissa = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string buf (if exp = 0 then "0x0" else "0x1");
    if mantissa <> 0 then begin
      Buffer.add_char buf '.';
      let rest = ref mantissa and shift = ref 48 in
      while !rest <> 0 do
        Buffer.add_char buf hex_digits.[(!rest lsr !shift) land 0xf];
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    Buffer.add_char buf 'p';
    let e =
      if exp > 0 then exp - 1023 else if mantissa = 0 then 0 else -1022
    in
    if e >= 0 then Buffer.add_char buf '+';
    add_int buf e
  end

let add_interval buf { Mapping.first; last; procs } =
  add_int buf first;
  Buffer.add_char buf '-';
  add_int buf last;
  Buffer.add_char buf ':';
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf p)
    procs

let add_path buf = function
  | [] -> Buffer.add_char buf '-'
  | ivs ->
      List.iteri
        (fun i iv ->
          if i > 0 then Buffer.add_char buf '|';
          add_interval buf iv)
        ivs

let to_string t =
  let buf = Buffer.create 4096 in
  let str = Buffer.add_string buf and chr = Buffer.add_char buf in
  let int = add_int buf and hex = add_float buf in
  let eol () = chr '\n' in
  str magic;
  eol ();
  str (match t.body with Bb _ -> "kind bb" | Dp _ -> "kind interval-dp");
  eol ();
  str "n ";
  int t.n;
  eol ();
  str "m ";
  int t.m;
  eol ();
  (match t.instance_digest with
  | None -> ()
  | Some d ->
      str "instance md5 ";
      str d;
      eol ());
  (match t.body with
  | Bb { objective; claim; nodes } ->
      (match objective with
      | Instance.Min_latency { max_failure } ->
          str "objective min-latency ";
          hex max_failure
      | Instance.Min_failure { max_latency } ->
          str "objective min-failure ";
          hex max_latency);
      eol ();
      (match claim with
      | Infeasible -> str "claim infeasible"
      | Feasible { latency; failure; mapping } ->
          str "claim feasible ";
          hex latency;
          chr ' ';
          hex failure;
          eol ();
          str "mapping ";
          add_path buf mapping);
      eol ();
      List.iter
        (fun { path; status } ->
          str "node ";
          add_path buf path;
          (match status with
          | Expanded -> str " expanded"
          | Evaluated { latency; failure } ->
              str " evaluated ";
              hex latency;
              chr ' ';
              hex failure
          | Pruned { reason; latency_lb; partial_failure } ->
              str
                (match reason with
                | Threshold -> " pruned threshold "
                | Dominated -> " pruned dominated "
                | Bounded -> " pruned bounded ");
              hex latency_lb;
              chr ' ';
              hex partial_failure);
          eol ())
        nodes
  | Dp { latency; mapping; cells } ->
      str "claim feasible ";
      hex latency;
      eol ();
      str "mapping ";
      add_path buf mapping;
      eol ();
      List.iter
        (fun { e; u; mask; value } ->
          str "cell ";
          int e;
          chr ' ';
          int u;
          chr ' ';
          int mask;
          chr ' ';
          hex value;
          eol ())
        cells);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let int_of tok = match int_of_string_opt tok with
  | Some v -> Ok v
  | None -> fail "not an integer: %S" tok

let float_of tok = match float_of_string_opt tok with
  | Some v -> Ok v
  | None -> fail "not a float: %S" tok

let parse_interval s =
  match String.index_opt s ':' with
  | None -> fail "interval missing ':': %S" s
  | Some i -> (
      let range = String.sub s 0 i in
      let procs = String.sub s (i + 1) (String.length s - i - 1) in
      match String.index_opt range '-' with
      | None -> fail "interval missing '-': %S" s
      | Some j ->
          let* first = int_of (String.sub range 0 j) in
          let* last =
            int_of (String.sub range (j + 1) (String.length range - j - 1))
          in
          let* procs =
            List.fold_left
              (fun acc tok ->
                let* acc = acc in
                let* p = int_of tok in
                Ok (p :: acc))
              (Ok [])
              (String.split_on_char ',' procs)
          in
          if procs = [] then fail "interval with no processors: %S" s
          else
            Ok { Mapping.first; last; procs = List.sort Int.compare procs })

let parse_path = function
  | "-" -> Ok []
  | s ->
      let* rev =
        List.fold_left
          (fun acc part ->
            let* acc = acc in
            let* iv = parse_interval part in
            Ok (iv :: acc))
          (Ok [])
          (String.split_on_char '|' s)
      in
      Ok (List.rev rev)

let parse_status = function
  | [ "expanded" ] -> Ok Expanded
  | [ "evaluated"; l; f ] ->
      let* latency = float_of l in
      let* failure = float_of f in
      Ok (Evaluated { latency; failure })
  | [ "pruned"; reason; lb; pf ] ->
      let* reason =
        match reason with
        | "threshold" -> Ok Threshold
        | "dominated" -> Ok Dominated
        | "bounded" -> Ok Bounded
        | r -> fail "unknown prune reason %S" r
      in
      let* latency_lb = float_of lb in
      let* partial_failure = float_of pf in
      Ok (Pruned { reason; latency_lb; partial_failure })
  | toks -> fail "malformed node status: %S" (String.concat " " toks)

(* Raw directives collected in a first pass: the format is order-free
   below the magic line, so nothing is interpreted until everything has
   been read. *)
type raw = {
  mutable kind : string option;
  mutable rn : int option;
  mutable rm : int option;
  mutable digest : string option;
  mutable objective : Instance.objective option;
  mutable claim : string list option;  (* tokens after "claim" *)
  mutable mapping : Mapping.interval list option;
  mutable nodes : node list;  (* reversed *)
  mutable cells : cell list;  (* reversed *)
}

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let once what prev store =
  match prev with
  | Some _ -> fail "duplicate %s directive" what
  | None ->
      store ();
      Ok ()

let parse_line raw line =
  match tokens line with
  | [] -> Ok ()
  | "kind" :: rest -> (
      match rest with
      | [ ("bb" | "interval-dp") as k ] ->
          once "kind" raw.kind (fun () -> raw.kind <- Some k)
      | _ -> fail "malformed kind line: %S" line)
  | [ "n"; v ] ->
      let* n = int_of v in
      once "n" raw.rn (fun () -> raw.rn <- Some n)
  | [ "m"; v ] ->
      let* m = int_of v in
      once "m" raw.rm (fun () -> raw.rm <- Some m)
  | [ "instance"; "md5"; d ] ->
      once "instance" raw.digest (fun () -> raw.digest <- Some d)
  | [ "objective"; which; v ] ->
      let* v = float_of v in
      let* objective =
        match which with
        | "min-latency" -> Ok (Instance.Min_latency { max_failure = v })
        | "min-failure" -> Ok (Instance.Min_failure { max_latency = v })
        | w -> fail "unknown objective %S" w
      in
      once "objective" raw.objective (fun () -> raw.objective <- Some objective)
  | "claim" :: rest -> once "claim" raw.claim (fun () -> raw.claim <- Some rest)
  | [ "mapping"; p ] ->
      let* mapping = parse_path p in
      once "mapping" raw.mapping (fun () -> raw.mapping <- Some mapping)
  | "node" :: p :: rest ->
      let* path = parse_path p in
      let* status = parse_status rest in
      raw.nodes <- { path; status } :: raw.nodes;
      Ok ()
  | [ "cell"; e; u; mask; v ] ->
      let* e = int_of e in
      let* u = int_of u in
      let* mask = int_of mask in
      let* value = float_of v in
      raw.cells <- { e; u; mask; value } :: raw.cells;
      Ok ()
  | tok :: _ -> fail "unknown directive %S" tok

let require what = function
  | Some v -> Ok v
  | None -> fail "missing %s directive" what

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> fail "empty certificate"
  | first :: rest ->
      if first <> magic then fail "bad magic line %S (want %S)" first magic
      else
        let raw =
          {
            kind = None;
            rn = None;
            rm = None;
            digest = None;
            objective = None;
            claim = None;
            mapping = None;
            nodes = [];
            cells = [];
          }
        in
        let* () =
          List.fold_left
            (fun acc line ->
              let* () = acc in
              parse_line raw line)
            (Ok ()) rest
        in
        let* kind = require "kind" raw.kind in
        let* n = require "n" raw.rn in
        let* m = require "m" raw.rm in
        let* claim = require "claim" raw.claim in
        let* body =
          match kind with
          | "bb" ->
              let* objective = require "objective" raw.objective in
              let* claim =
                match claim with
                | [ "infeasible" ] ->
                    if raw.mapping <> None then
                      fail "mapping directive with an infeasible claim"
                    else Ok Infeasible
                | [ "feasible"; l; f ] ->
                    let* latency = float_of l in
                    let* failure = float_of f in
                    let* mapping = require "mapping" raw.mapping in
                    Ok (Feasible { latency; failure; mapping })
                | toks -> fail "malformed bb claim: %S" (String.concat " " toks)
              in
              if raw.cells <> [] then fail "cell directive in a bb certificate"
              else Ok (Bb { objective; claim; nodes = List.rev raw.nodes })
          | "interval-dp" ->
              let* latency =
                match claim with
                | [ "feasible"; l ] -> float_of l
                | toks -> fail "malformed dp claim: %S" (String.concat " " toks)
              in
              let* mapping = require "mapping" raw.mapping in
              if raw.nodes <> [] then
                fail "node directive in an interval-dp certificate"
              else if raw.objective <> None then
                fail "objective directive in an interval-dp certificate"
              else Ok (Dp { latency; mapping; cells = List.rev raw.cells })
          | _ -> assert false
        in
        Ok { n; m; instance_digest = raw.digest; body }

(* ------------------------------------------------------------------ *)
(* Order-insensitive equality                                          *)
(* ------------------------------------------------------------------ *)

let equal a b =
  let sorted_lines t =
    to_string t |> String.split_on_char '\n' |> List.sort String.compare
  in
  a.n = b.n && List.equal String.equal (sorted_lines a) (sorted_lines b)

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

(* One ulp away from zero: the smallest perturbation that is guaranteed
   to change the bit pattern, which is all the checker's bit-exact replay
   needs to notice. *)
let bump x =
  if x >= 0.0 then Int64.float_of_bits (Int64.add (Int64.bits_of_float x) 1L)
  else Int64.float_of_bits (Int64.sub (Int64.bits_of_float x) 1L)

let pick index len = ((index mod len) + len) mod len

let mutate_raise_bound ?(index = 0) t =
  match t.body with
  | Bb ({ nodes; _ } as bb) ->
      let numbered =
        List.filter (fun { status; _ } -> status <> Expanded) nodes
      in
      if numbered = [] then None
      else
        let victim = List.nth numbered (pick index (List.length numbered)) in
        let nodes =
          List.map
            (fun node ->
              if node != victim then node
              else
                let status =
                  match node.status with
                  | Expanded -> assert false
                  | Evaluated ev ->
                      Evaluated { ev with latency = bump ev.latency }
                  | Pruned p -> Pruned { p with latency_lb = bump p.latency_lb }
                in
                { node with status })
            nodes
        in
        Some { t with body = Bb { bb with nodes } }
  | Dp ({ cells; _ } as dp) ->
      if cells = [] then None
      else
        let victim = List.nth cells (pick index (List.length cells)) in
        let cells =
          List.map
            (fun c -> if c != victim then c else { c with value = bump c.value })
            cells
        in
        Some { t with body = Dp { dp with cells } }

let mutate_drop_line ?(index = 0) t =
  match t.body with
  | Bb ({ nodes; _ } as bb) ->
      if nodes = [] then None
      else
        let victim = List.nth nodes (pick index (List.length nodes)) in
        Some
          { t with body = Bb { bb with nodes = List.filter (( != ) victim) nodes } }
  | Dp ({ cells; _ } as dp) ->
      if cells = [] then None
      else
        let victim = List.nth cells (pick index (List.length cells)) in
        Some
          { t with body = Dp { dp with cells = List.filter (( != ) victim) cells } }

let mutate_relabel_bounded t =
  match t.body with
  | Bb ({ nodes; _ } as bb) ->
      let relabelled = ref false in
      let relabel node =
        match node.status with
        | Pruned ({ reason = Bounded; _ } as p) ->
            relabelled := true;
            { node with status = Pruned { p with reason = Dominated } }
        | Expanded | Evaluated _ | Pruned _ -> node
      in
      let nodes = List.map relabel nodes in
      if !relabelled then Some { t with body = Bb { bb with nodes } } else None
  | Dp _ -> None
