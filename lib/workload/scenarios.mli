(** The paper's concrete worked examples (Section 3), reproduced exactly.

    These instances anchor the test suite and the E1/E2 experiment tables:
    the paper states their optimal latencies and failure probabilities in
    closed form, so any regression in the evaluators or solvers trips an
    assertion against a published number. *)

open Relpipe_model

val fig34 : unit -> Instance.t
(** Fig. 3 pipeline on the Fig. 4 platform.  Two stages with w = 2 and all
    data sizes 100; two unit-speed processors; fast (b = 100) links
    Pin-P0, P0-P1, P1-Pout and slow (b = 1) links Pin-P1, P0-Pout.
    Paper: any single-processor mapping has latency 105, the split mapping
    \{S1\}->P0, \{S2\}->P1 has latency 7. *)

val fig34_single : int -> Mapping.t
(** The whole Fig. 3 pipeline on one processor (0 or 1). *)

val fig34_split : unit -> Mapping.t
(** The optimal two-interval mapping of Fig. 3/4. *)

val fig5 : unit -> Instance.t
(** Fig. 5 pipeline: two stages w1 = 1, w2 = 100 with delta_0 = 10,
    delta_1 = 1, delta_2 = 0; platform of one slow reliable processor
    (s = 1, fp = 0.1, index 0) and ten fast unreliable ones (s = 100,
    fp = 0.8, indices 1..10); all bandwidths 1.
    Paper, under latency threshold 22: the best single-interval mapping
    reaches FP = 0.64, while \{S1\}->slow, \{S2\}->all-fast reaches
    latency 22 and FP = 1 - 0.9 * (1 - 0.8^10) < 0.2. *)

val fig5_threshold : float
(** The latency threshold (22) used in the Fig. 5 discussion. *)

val fig5_single_two_fast : unit -> Mapping.t
(** Best feasible single-interval mapping under the threshold: both stages
    replicated on two fast processors (FP = 0.64). *)

val fig5_split : unit -> Mapping.t
(** The paper's two-interval mapping: stage 1 on the slow processor,
    stage 2 replicated on all ten fast processors. *)

(** {2 Additional application scenarios}

    Pipelines in the spirit of the paper's motivating digital-media
    workflows, for examples and experiments beyond the worked examples. *)

val video_transcoder : unit -> Pipeline.t
(** Five-stage transcoder over 64-unit frames: demux, decode (data
    inflates to raw frames), scale, encode (computationally dominant,
    compresses), mux. *)

val sensor_fusion : unit -> Pipeline.t
(** Six-stage streaming analytics chain at 100 samples: ingest, clean,
    align, fuse (dominant), detect, publish — data shrinks
    monotonically. *)

val grid_instance : Relpipe_util.Rng.t -> Instance.t
(** The {!Plat_gen.clustered} platform (3 clusters of 4) under the
    {!video_transcoder} pipeline — a ready-made Fully Heterogeneous
    playground. *)
