(** Heuristics for the bi-criteria cases the paper proves NP-hard (Fully
    Heterogeneous, Theorem 7) or leaves open (Communication Homogeneous
    with heterogeneous failures, Section 4.4).

    Four complementary strategies, in the spirit of the heuristic suites of
    the authors' companion papers:

    - {e single-interval greedy}: Lemma-1-shaped solutions — grow one
      replication set greedily;
    - {e split-and-replicate}: work-balanced interval partitions seeded
      with the fastest processors, then greedy replica additions (the
      shape of the paper's Fig. 5 optimum);
    - {e local search}: hill climbing over boundary moves, splits, merges
      and replica swaps;
    - {e simulated annealing}: the same neighbourhood with a cooling
      schedule, able to escape local optima;
    - {e iterated local search}: alternating hill-climbing descents with
      random multi-move perturbations, restarting the descent from the
      perturbed incumbent.

    [best_of] runs all of them and keeps the best feasible solution; the
    E10/E11 experiments measure their optimality gap against {!Exact}. *)

open Relpipe_model

type name =
  | Single_greedy
  | Split_replicate
  | Local_search
  | Annealing
  | Iterated

val all_names : name list
val name_to_string : name -> string

val single_greedy : Instance.t -> Instance.objective -> Solution.t option

val split_replicate : Instance.t -> Instance.objective -> Solution.t option

val seeded_split :
  Pipeline.t -> Platform.t -> int -> ((int * int) array * int list array) option
(** Split-and-replicate's starting point for [p] intervals: [p]
    intervals [(first, last)] of roughly equal work covering the stages in
    order, each with one processor — the largest-work interval on the
    fastest processor, the next on the next-fastest, and so on.  [None]
    when the work-balanced cut yields fewer than [p] intervals. *)

val local_search :
  ?seed:int -> ?iterations:int -> Instance.t -> Instance.objective ->
  Solution.t option
(** Default 4000 iterations. *)

val annealing :
  ?seed:int -> ?iterations:int -> Instance.t -> Instance.objective ->
  Solution.t option
(** Default 8000 iterations, geometric cooling. *)

val iterated :
  ?seed:int -> Instance.t -> Instance.objective -> Solution.t option
(** 12 rounds of a 600-step hill climb, each round after the first
    starting from a 3-move perturbation of the incumbent. *)

val run :
  ?seed:int -> name -> Instance.t -> Instance.objective -> Solution.t option

val best_of :
  ?seed:int -> Instance.t -> Instance.objective -> Solution.t option
(** Best feasible result across all heuristics. *)
