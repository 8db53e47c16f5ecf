(* Family "race": the lightweight static race gate ahead of the parallel
   B&B roadmap item.  It finds closures that run on other domains —
   arguments of Pool.map and Domain.spawn, either written inline
   or [let]-bound in the same file — and flags writes to mutable state
   the closure does not itself bind: [r := e] / incr / decr, mutable
   field assignment, Array/Bytes element writes (the [a.(i) <- v] sugar
   parses as Array.set, so both spellings are caught), and in-place
   Hashtbl/Buffer/Queue/Stack mutation.

   Allowed without findings: writes whose target is bound inside the
   closure (each worker's own state), anything through Atomic, and
   writes under a lock — inside [Mutex.protect]'s callback, or between
   [Mutex.lock] and [Mutex.unlock] in the same statement sequence.

   The scope test is an over-approximation (any name bound anywhere in
   the closure counts as local), so it under-flags rather than spam;
   per-slot disciplines the analysis cannot see (Pool's own result
   array) carry an in-file `devlint: allow` with the safety argument. *)

open Parsetree
module A = Ast_util

let rule ~id ~severity ~title ~rationale ~example =
  Drule.register
    { Drule.id; family = "race"; severity; title; rationale; example }

let r_shared_write =
  rule ~id:"RP-S301" ~severity:Drule.Severity.Error
    ~title:"unsynchronized shared write in a parallel closure"
    ~rationale:
      "A closure submitted to Pool.map or Domain.spawn runs \
       concurrently with its creator; writing a ref, mutable field, array \
       slot or Hashtbl it captured is a data race under OCaml 5's memory \
       model unless the access goes through Atomic, a Mutex, or a \
       documented per-slot ownership discipline."
    ~example:
      "let hits = ref 0 in\n\
       Pool.map ~workers:4 (fun x -> incr hits; x) jobs"

let rules = [ r_shared_write ]

(* ------------------------------------------------------------------ *)

let entry_points = [ "Pool.map"; "Domain.spawn" ]

(* Functions that mutate their first argument in place. *)
let mutator_suffixes =
  [
    "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Bytes.set"; "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit";
    "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace"; "Buffer.add_string";
    "Buffer.add_char"; "Buffer.add_bytes"; "Buffer.add_substring";
    "Buffer.clear"; "Buffer.reset"; "Buffer.truncate"; "Queue.push";
    "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.clear"; "Queue.transfer";
    "Stack.push"; "Stack.pop"; "Stack.clear";
  ]

let is_function (e : expression) =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

let path_is suffixes e =
  match A.expr_path e with
  | Some p -> List.mem (A.path_suffix 2 p) suffixes
  | None -> false

let analyze ~entry (callback : expression) out =
  let bound = A.bound_names callback in
  (* [Some n] for a projection chain headed by a local name, [None] for
     module-qualified or computed targets (certainly not closure-local). *)
  let local = function Some n -> List.mem n bound | None -> false in
  let flag span what name =
    if not (local name) then
      out
        (Drule.diag r_shared_write ~span
           "%s of %s captured by a closure given to %s; use Atomic, a \
            Mutex, or a per-worker slot"
           what
           (match name with Some n -> n | None -> "a shared value")
           entry)
  in
  let rec walk locked (e : expression) =
    match e.pexp_desc with
    | Pexp_setfield (recv, _, v) ->
        if not locked then
          flag (A.span_of_location e.pexp_loc) "mutable-field write"
            (A.head_ident recv);
        walk locked recv;
        walk locked v
    | Pexp_apply (f, args) ->
        (match A.expr_path f with
        | Some ("Mutex.protect" | "Stdlib.Mutex.protect") ->
            (* The callback argument runs under the lock. *)
            List.iter
              (fun (_, (a : expression)) ->
                if is_function a then walk true a else walk locked a)
              args
        | Some ((":=" | "incr" | "decr") as op) when not locked -> (
            (match args with
            | (Asttypes.Nolabel, target) :: _ -> (
                match target.pexp_desc with
                | Pexp_ident _ | Pexp_field _ ->
                    flag (A.span_of_location e.pexp_loc)
                      (if op = ":=" then "ref assignment" else "ref update")
                      (A.head_ident target)
                | _ -> ())
            | _ -> ());
            List.iter (fun (_, a) -> walk locked a) args)
        | Some p
          when (not locked) && List.mem (A.path_suffix 2 p) mutator_suffixes
          -> (
            (match args with
            | (Asttypes.Nolabel, target) :: _ ->
                flag (A.span_of_location e.pexp_loc)
                  (Printf.sprintf "in-place %s" (A.path_suffix 2 p))
                  (A.head_ident target)
            | _ -> ());
            List.iter (fun (_, a) -> walk locked a) args)
        | _ ->
            walk locked f;
            List.iter (fun (_, a) -> walk locked a) args)
    | Pexp_sequence _ ->
        (* Unroll the statement sequence, toggling the lock flag on
           Mutex.lock/Mutex.unlock statements. *)
        let rec stmts (e : expression) acc =
          match e.pexp_desc with
          | Pexp_sequence (a, b) -> stmts b (a :: acc)
          | _ -> List.rev (e :: acc)
        in
        let is_lock_call names (s : expression) =
          match s.pexp_desc with
          | Pexp_apply (f, _) -> path_is names f
          | _ -> false
        in
        ignore
          (List.fold_left
             (fun locked s ->
               if is_lock_call [ "Mutex.lock" ] s then true
               else if is_lock_call [ "Mutex.unlock" ] s then false
               else begin
                 walk locked s;
                 locked
               end)
             locked (stmts e []))
    | _ -> A.iter_child_exprs (walk locked) e
  in
  walk false callback

let check (src : Source.t) out =
  let lets = A.bound_functions src.Source.structure in
  let resolve (e : expression) =
    if is_function e then Some e
    else
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident n; _ } -> Hashtbl.find_opt lets n
      | _ -> None
  in
  A.iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply (f, args) when path_is entry_points f ->
          let entry =
            match A.expr_path f with
            | Some p -> A.path_suffix 2 p
            | None -> "a parallel entry point"
          in
          (* First unlabeled argument is the submitted closure for both
             Pool.map (after ?obs/~workers) and Domain.spawn. *)
          let callback =
            List.find_map
              (fun (label, a) ->
                match label with
                | Asttypes.Nolabel -> resolve a
                | _ -> None)
              args
          in
          (match callback with Some c -> analyze ~entry c out | None -> ())
      | _ -> ())
    src.Source.structure
