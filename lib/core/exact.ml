open Relpipe_model
module B = Relpipe_util.Bitset
module C = Relpipe_util.Combin

exception Too_large of string

let iter_mappings ~n ~m f =
  if m > B.max_width then invalid_arg "Exact.iter_mappings: too many processors";
  let pool = B.full m in
  Seq.iter
    (fun intervals ->
      let p = List.length intervals in
      if p <= m then
        Seq.iter
          (fun subsets ->
            let ivs =
              List.map2
                (fun (first, last) procs ->
                  { Mapping.first; last; procs = B.elements procs })
                intervals subsets
            in
            f (Mapping.make ~n ~m ivs))
          (C.disjoint_assignments pool p))
    (C.compositions n)

(* Saturating arithmetic on counts: [max_int] reads as "at least
   max_int", so a space too large to count still exceeds every budget. *)
let sat_add a b = if a > max_int - b then max_int else a + b
let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

(* A mapping with p intervals is one of the C(n-1, p-1) compositions of
   the stages times one of the p! S(m+1, p+1) tuples of p disjoint
   non-empty processor sets: add a marker for "unused" to the m
   processors, split the m+1 elements into p+1 blocks, and order the p
   blocks without the marker. *)
let count_mappings ~n ~m () =
  (* Row i of the Stirling triangle, updated in place: s.(k) = S(i, k),
     from row 1 (S(1, 1) = 1, S(i, 0) = 0 for i >= 1). *)
  let s = Array.make (m + 2) 0 in
  s.(1) <- 1;
  for i = 2 to m + 1 do
    for k = i downto 1 do
      s.(k) <- sat_add (sat_mul k s.(k)) s.(k - 1)
    done
  done;
  let total = ref 0 and binom = ref 1 and fact = ref 1 in
  for p = 1 to min n m do
    fact := sat_mul !fact p;
    total := sat_add !total (sat_mul !binom (sat_mul !fact s.(p + 1)));
    (* C(n-1, p) from C(n-1, p-1); exact until it saturates, and from
       then on the next term, hence the total, is saturated too. *)
    binom := sat_mul !binom (n - p) / p
  done;
  !total

let max_mappings = 5_000_000

let within_budget ~budget ~n ~m =
  if m > B.max_width then invalid_arg "Exact.iter_mappings: too many processors";
  count_mappings ~n ~m () <= budget

let check_budget ~budget ~n ~m =
  if not (within_budget ~budget ~n ~m) then
    Printf.ksprintf (fun msg -> raise (Too_large msg))
      "Exact.solve: more than %d mappings (n=%d m=%d)" budget n m

let solve instance objective =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  check_budget ~budget:max_mappings ~n ~m;
  let best = ref None in
  iter_mappings ~n ~m (fun mapping ->
      let s = Solution.of_mapping instance mapping in
      if Instance.feasible objective s.Solution.evaluation then
        best := Solution.best objective !best (Some s));
  !best

let solve_single_interval instance objective =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  if m > B.max_width then
    invalid_arg "Exact.solve_single_interval: too many processors";
  let best = ref None in
  Seq.iter
    (fun subset ->
      let mapping = Mapping.single_interval ~n ~m (B.elements subset) in
      let s = Solution.of_mapping instance mapping in
      if Instance.feasible objective s.Solution.evaluation then
        best := Solution.best objective !best (Some s))
    (B.nonempty_subsets (B.full m));
  !best

let min_latency_unreplicated instance =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let best = ref None in
  Seq.iter
    (fun intervals ->
      let p = List.length intervals in
      if p <= m then
        Seq.iter
          (fun procs ->
            let ivs =
              List.map2
                (fun (first, last) u -> { Mapping.first; last; procs = [ u ] })
                intervals procs
            in
            let mapping = Mapping.make ~n ~m ivs in
            let latency = Latency.of_mapping pipeline platform mapping in
            match !best with
            | Some (bl, _) when bl <= latency -> ()
            | _ -> best := Some (latency, mapping))
          (C.injections p (Platform.procs platform)))
    (C.compositions n);
  !best

let min_latency instance =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let best = ref Float.infinity in
  iter_mappings ~n ~m (fun mapping ->
      let latency = Latency.of_mapping pipeline platform mapping in
      if latency < !best then best := latency);
  !best
