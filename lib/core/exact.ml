open Relpipe_model
module B = Relpipe_util.Bitset
module C = Relpipe_util.Combin
module Obs = Relpipe_obs.Obs

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

let count_mappings ~n ~m () =
  let count = ref 0 in
  iter_mappings ~n ~m (fun _ -> incr count);
  !count

let solve ?(budget = 5_000_000) instance objective =
  let { Instance.pipeline; platform } = instance in
  let n = Pipeline.length pipeline and m = Platform.size platform in
  let best = ref None in
  let seen = ref 0 in
  iter_mappings ~n ~m (fun mapping ->
      incr seen;
      if !seen > budget then
        raise
          (Too_large
             (Printf.sprintf "Exact.solve: more than %d mappings (n=%d m=%d)"
                budget n m));
      let s = Solution.of_mapping instance mapping in
      if Instance.feasible objective s.Solution.evaluation then
        best := Solution.best objective !best (Some s));
  let obs = Obs.ambient () in
  Obs.incr obs "core.exact.solves";
  Obs.add obs "core.exact.mappings" !seen;
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
