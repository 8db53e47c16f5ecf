(** Topological order and linear-time shortest paths on DAGs.

    The Theorem 4 mapping graph (Fig. 6) is layered and acyclic, so its
    shortest path can also be computed by a single topological sweep — a
    third independent Theorem 4 oracle, next to Dijkstra and
    Bellman-Ford, in the tests, the fuzz oracles and experiment E6. *)

val topological_order : Graph.t -> int list option
(** Vertices in a topological order, or [None] when the graph has a
    cycle. *)

val is_dag : Graph.t -> bool

val shortest_path :
  Graph.t -> src:int -> dst:int -> (float * int list) option
(** Shortest path by dynamic programming along a topological order;
    supports negative weights.  @raise Invalid_argument if the graph is
    cyclic. *)
