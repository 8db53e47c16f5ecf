type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let rec print_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x ->
      if Float.is_finite x then Buffer.add_string buf (float_repr x)
      else
        escape_to buf
          (if Float.is_nan x then "nan" else if x > 0.0 then "inf" else "-inf")
  | Str s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          print_to buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          print_to buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print_to buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Fail of int * string

let utf8_add buf cp =
  (* Encode a Unicode code point as UTF-8 bytes. *)
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse text =
  let len = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let fail msg = raise (Fail (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let n = String.length word in
    if !pos + n <= len && String.equal (String.sub text !pos n) word then begin
      pos := !pos + n;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match text.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match text.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= len then fail "unterminated escape";
           match text.[!pos] with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'u' ->
               advance ();
               let cp = hex4 () in
               let cp =
                 (* Combine a high surrogate with the low one that must
                    follow it. *)
                 if cp >= 0xD800 && cp <= 0xDBFF then begin
                   if
                     !pos + 1 < len
                     && Char.equal text.[!pos] '\\'
                     && Char.equal text.[!pos + 1] 'u'
                   then begin
                     pos := !pos + 2;
                     let low = hex4 () in
                     if low < 0xDC00 || low > 0xDFFF then
                       fail "invalid low surrogate";
                     0x10000 + ((cp - 0xD800) lsl 10) + (low - 0xDC00)
                   end
                   else fail "lone high surrogate"
                 end
                 else if cp >= 0xDC00 && cp <= 0xDFFF then
                   fail "lone low surrogate"
                 else cp
               in
               utf8_add buf cp
           | c -> fail (Printf.sprintf "invalid escape \\%c" c));
          go ()
      | c when Char.code c < 0x20 ->
          fail (Printf.sprintf "raw control character 0x%02x in string" (Char.code c))
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  (* RFC 8259 section 6: an optional minus, then 0 or a digit run not
     starting with 0, then optionally a point and one or more digits, then
     optionally e or E, an optional sign and one or more digits. *)
  let parse_number () =
    let start = !pos in
    let at c = !pos < len && Char.equal text.[!pos] c in
    let digits () =
      let first = !pos in
      while !pos < len && (match text.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      !pos > first
    in
    let invalid () =
      fail (Printf.sprintf "invalid number %S" (String.sub text start (!pos - start)))
    in
    if at '-' then advance ();
    if at '0' then begin
      advance ();
      if digits () then fail "leading zero in number"
    end
    else if not (digits ()) then invalid ();
    let is_float = at '.' || at 'e' || at 'E' in
    if at '.' then begin
      advance ();
      if not (digits ()) then invalid ()
    end;
    if at 'e' || at 'E' then begin
      advance ();
      if at '+' || at '-' then advance ();
      if not (digits ()) then invalid ()
    end;
    let s = String.sub text start (!pos - start) in
    if is_float then Float (float_of_string s)
    else
      match int_of_string_opt s with
      (* "-0" must keep its sign: Int cannot represent negative zero, so
         the round-trip Float (-0.) -> "-0" -> parse stays bit-identical
         only through the Float constructor. *)
      | Some 0 when s.[0] = '-' -> Float (-0.)
      | Some i -> Int i
      | None -> Float (float_of_string s)  (* beyond the int range *)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if (match peek () with Some '}' -> true | _ -> false) then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if (match peek () with Some ']' -> true | _ -> false) then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < len then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float x when Float.is_integer x && Float.abs x < 1e15 ->
      Some (int_of_float x)
  | _ -> None

let nonfinite_of_string s =
  match String.lowercase_ascii s with
  | "inf" | "+inf" | "infinity" -> Some Float.infinity
  | "-inf" | "-infinity" -> Some Float.neg_infinity
  | "nan" -> Some Float.nan
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float x -> Some x
  | Str s -> nonfinite_of_string s
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let float x =
  if Float.is_finite x then Float x
  else Str (if Float.is_nan x then "nan" else if x > 0.0 then "inf" else "-inf")
