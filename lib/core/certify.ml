open Relpipe_model
module Cert = Relpipe_cert.Cert
module Obs = Relpipe_obs.Obs

let digest instance =
  Digest.to_hex (Digest.string (Textio.to_string instance))

let dims instance =
  ( Pipeline.length instance.Instance.pipeline,
    Platform.size instance.Instance.platform )

let bb instance objective =
  let best, nodes = Bb.solve_recorded instance objective in
  let n, m = dims instance in
  let claim =
    match best with
    | None -> Cert.Infeasible
    | Some s ->
        Cert.Feasible
          {
            latency = s.Solution.evaluation.Instance.latency;
            failure = s.Solution.evaluation.Instance.failure;
            mapping = Mapping.intervals s.Solution.mapping;
          }
  in
  let cert =
    {
      Cert.n;
      m;
      instance_digest = Some (digest instance);
      body = Cert.Bb { objective; claim; nodes };
    }
  in
  let obs = Obs.ambient () in
  Obs.incr obs "cert.emit.bb";
  Obs.add obs "cert.emit.entries" (Cert.entries cert);
  (best, cert)

let interval instance =
  let opt, rev_cells =
    Interval_exact.min_latency_cells instance ~init:[]
      ~f:(fun acc ~e ~u ~mask value -> { Cert.e; u; mask; value } :: acc)
  in
  match opt with
  | None -> (None, None)
  | Some (latency, mapping) ->
      let n, m = dims instance in
      let cells = List.rev rev_cells in
      let cert =
        {
          Cert.n;
          m;
          instance_digest = Some (digest instance);
          body =
            Cert.Dp { latency; mapping = Mapping.intervals mapping; cells };
        }
      in
      let obs = Obs.ambient () in
      Obs.incr obs "cert.emit.dp";
      Obs.add obs "cert.emit.entries" (Cert.entries cert);
      (opt, Some cert)
