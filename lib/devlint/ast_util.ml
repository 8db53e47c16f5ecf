module Loc = Relpipe_util.Loc

let span_of_location (l : Location.t) =
  let pos (p : Lexing.position) =
    { Loc.line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol + 1 }
  in
  { Loc.start = pos l.Location.loc_start; stop = pos l.Location.loc_end }

let rec flatten = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (p, s) -> (
      match flatten p with Some l -> Some (l @ [ s ]) | None -> None)
  | Longident.Lapply _ -> None

let path_of_ident lid =
  match flatten lid with
  | Some segs -> Some (String.concat "." segs)
  | None -> None

let expr_path (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> path_of_ident txt
  | _ -> None

(* Last [n] dot-separated components of a path ("Relpipe_pool.Pool.map"
   with n = 2 gives "Pool.map"); the whole path when it is shorter. *)
let path_suffix n path =
  let segs = String.split_on_char '.' path in
  let len = List.length segs in
  if len <= n then path
  else String.concat "." (List.filteri (fun i _ -> i >= len - n) segs)

let string_literal (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* Head identifier of a projection chain: [t] and [t.a.b] give ["t"];
   module-qualified or computed receivers give [None] (they name global
   or unknowable storage, which callers treat as shared). *)
let rec head_ident (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident s; _ } -> Some s
  | Parsetree.Pexp_field (e, _) -> head_ident e
  | _ -> None

let rec pattern_names acc (p : Parsetree.pattern) =
  let open Parsetree in
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pattern_names (txt :: acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pattern_names acc ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) ->
      pattern_names acc p
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pattern_names acc p) acc fields
  | Ppat_or (a, b) -> pattern_names (pattern_names acc a) b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p
    ->
      pattern_names acc p
  | _ -> acc

(* Every name bound by any pattern inside [e], including nested closures
   and match arms: a deliberate over-approximation of lexical scope, so
   "free in [e]" (not in this set) never misclassifies a local as
   shared. *)
let bound_names (e : Parsetree.expression) =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          acc := pattern_names !acc p;
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.expr it e;
  !acc

(* [true] when some value binding anywhere in [structure] binds [name]
   (used to exempt files that define their own typed [compare]). *)
let structure_binds name structure =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          if List.mem name (pattern_names [] vb.Parsetree.pvb_pat) then
            found := true;
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it structure;
  !found

(* Visit every expression of [structure] exactly once, in syntax order. *)
let iter_exprs f structure =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure

(* Apply [f] to each expression strictly inside [e] that is reachable
   without crossing another expression node — the one-level recursion
   step for handwritten walks that thread state (see Rule_race). *)
let iter_child_exprs f (e : Parsetree.expression) =
  let it =
    { Ast_iterator.default_iterator with expr = (fun _ c -> f c) }
  in
  Ast_iterator.default_iterator.expr it e

(* Collect [let]-bound functions of the file: name -> defining expression.
   Shadowed names keep the last binding (good enough for a linter). *)
let bound_functions structure =
  let tbl = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> (
              match vb.Parsetree.pvb_expr.Parsetree.pexp_desc with
              | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
                  Hashtbl.replace tbl txt vb.Parsetree.pvb_expr
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it structure;
  tbl
