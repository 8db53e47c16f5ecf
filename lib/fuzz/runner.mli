(** Campaign driver: generate, check in parallel, shrink, report.

    A campaign is fully determined by its {!config}: per-case seeds are
    drawn sequentially from the master stream, each oracle derives its
    private stream from the (case seed, oracle salt) pair, checking runs
    through {!Relpipe_pool.Pool.map} (submission-order results), and
    shrinking is sequential in case order — so {!render} output is
    byte-identical across runs and worker counts. *)

type config = {
  seed : int;
  count : int;
  oracles : Oracle.t list;
  max_stages : int;
  max_procs : int;
  workers : int;
  perturb : float;  (** forwarded to {!Oracle.ctx} (harness self-test) *)
  out_dir : string option;
      (** when set, minimized repros are written here as
          [fuzz-<oracle>-<seed>.relpipe] *)
  obs : Relpipe_obs.Obs.t option;
      (** when set, the campaign records the [fuzz.cases] counter and one
          [fuzz.oracle.<name>.duration_ns] histogram per oracle (per-case
          forked clocks, observed in case order — worker-independent) *)
}

val default_config : config
(** seed 42, count 100, all oracles, {!Gen.default_shape}, 1 worker, no
    perturbation, no output directory, no observability. *)

type failure = {
  f_oracle : string;
  f_case : Gen.case;  (** the case as generated *)
  f_message : string;
  f_minimized : Gen.case;
  f_min_message : string;  (** the failure message of the minimized case *)
  f_steps : int;  (** accepted shrink steps *)
  f_path : string option;  (** repro path when [out_dir] was set *)
}

type tally = { t_oracle : string; t_pass : int; t_skip : int; t_fail : int }

type report = {
  r_config : config;
  r_tallies : tally list;  (** one per configured oracle, registry order *)
  r_failures : failure list;  (** case order, then oracle order *)
}

val run : config -> report

val render : report -> string
(** The deterministic campaign report: one header line, one tally line
    per oracle, one block per failure (minimized repro text inline plus
    the replay command), and a summary line. *)

val list_oracles_text : unit -> string
(** The [--list-oracles] listing (stable: byte-for-byte tested). *)
