module Loc = Relpipe_util.Loc

type raw_interval = {
  r_first : int;
  r_last : int;
  r_procs : (int * Loc.span) list;
  r_span : Loc.span;
}

type error = { message : string; span : Loc.span option }

let err ?span fmt = Format.kasprintf (fun message -> Error { message; span }) fmt

let format_error e =
  match e.span with
  | None -> e.message
  | Some span -> Format.asprintf "%a: %s" Loc.pp_span span e.message

let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* Narrow the byte range [i, j) of [text] to its non-blank core. *)
let trimmed text i j =
  let i = ref i and j = ref j in
  while !i < !j && is_blank text.[!i] do
    incr i
  done;
  while !j > !i && is_blank text.[!j - 1] do
    decr j
  done;
  (!i, !j)

(* Offset ranges of [sep]-separated fields of [text.(start..stop)]. *)
let fields text ~start ~stop sep =
  let rec go from acc =
    match String.index_from_opt text from sep with
    | Some k when k < stop -> go (k + 1) ((from, k) :: acc)
    | _ -> List.rev ((from, stop) :: acc)
  in
  go start []

let span_of text i j = Loc.span_of_offsets text i j

let parse_int text name (i, j) =
  let i, j = trimmed text i j in
  let tok = String.sub text i (j - i) in
  match int_of_string_opt tok with
  | Some v -> Ok (v, span_of text i j)
  | None -> err ~span:(span_of text i j) "bad %s %S" name tok

let parse_interval text (ci, cj) =
  let ( let* ) = Result.bind in
  let ti, tj = trimmed text ci cj in
  let chunk_span = span_of text ti tj in
  let chunk () = String.sub text ti (tj - ti) in
  match fields text ~start:ci ~stop:cj ':' with
  | [ range; procs ] ->
      let* r_first, r_last =
        match fields text ~start:(fst range) ~stop:(snd range) '-' with
        | [ single ] ->
            let* k, _ = parse_int text "stage" single in
            Ok (k, k)
        | [ lo; hi ] ->
            let* lo, _ = parse_int text "stage" lo in
            let* hi, _ = parse_int text "stage" hi in
            Ok (lo, hi)
        | _ ->
            let ri, rj = trimmed text (fst range) (snd range) in
            err ~span:(span_of text ri rj) "bad stage range %S"
              (String.sub text ri (rj - ri))
      in
      let* r_procs =
        List.fold_left
          (fun acc field ->
            let* acc = acc in
            let fi, fj = trimmed text (fst field) (snd field) in
            if fi = fj then Ok acc
            else
              let* u = parse_int text "processor" (fi, fj) in
              Ok (u :: acc))
          (Ok [])
          (fields text ~start:(fst procs) ~stop:(snd procs) ',')
      in
      if r_procs = [] then
        err ~span:chunk_span "interval %S has no processor" (chunk ())
      else Ok { r_first; r_last; r_procs = List.rev r_procs; r_span = chunk_span }
  | _ ->
      err ~span:chunk_span "bad interval %S (expected range:procs)" (chunk ())

let parse_raw text =
  let chunks =
    List.filter
      (fun (i, j) ->
        let i, j = trimmed text i j in
        i < j)
      (fields text ~start:0 ~stop:(String.length text) ';')
  in
  if chunks = [] then err "empty mapping"
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | chunk :: tl -> (
          match parse_interval text chunk with
          | Ok iv -> go (iv :: acc) tl
          | Error _ as e -> e)
    in
    go [] chunks
  end

let parse ~n ~m text =
  match parse_raw text with
  | Error e -> Error (format_error e)
  | Ok raw ->
      Mapping.validate ~n ~m
        (List.map
           (fun iv ->
             {
               Mapping.first = iv.r_first;
               last = iv.r_last;
               procs = List.map fst iv.r_procs;
             })
           raw)

let to_string mapping =
  String.concat "; "
    (List.map
       (fun iv ->
         let range =
           if iv.Mapping.first = iv.Mapping.last then
             string_of_int iv.Mapping.first
           else Printf.sprintf "%d-%d" iv.Mapping.first iv.Mapping.last
         in
         range ^ ":" ^ String.concat "," (List.map string_of_int iv.Mapping.procs))
       (Mapping.intervals mapping))
