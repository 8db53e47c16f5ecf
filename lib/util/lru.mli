(** Size-bounded LRU cache with string keys.

    The service layer keys its result cache on canonical-form digests
    (strings), so the cache is monomorphic in the key and polymorphic in
    the value: no polymorphic hashing or comparison is involved beyond
    [String] equality.  Counters record hits, misses and evictions so a
    long-running engine can report its effectiveness; they live on a
    {!Relpipe_obs.Metric.t} registry when one is supplied to {!create}
    (as [<name>.hits] etc.), and on private instances otherwise — the
    {!stats} view is identical either way. *)

type 'v t

type stats = {
  hits : int;  (** [find] calls that returned a value *)
  misses : int;  (** [find] calls that returned [None] *)
  evictions : int;  (** entries dropped to respect the capacity *)
}

val create : capacity:int -> 'v t
(** [create ~capacity] holds at most [capacity] entries; [capacity <= 0]
    disables storage entirely (every [add] is a no-op and every [find]
    a miss).  Counters are private to the cache. *)

val create_in :
  metrics:Relpipe_obs.Metric.t -> name:string -> capacity:int -> 'v t
(** Like {!create}, but the counters live on [metrics] under
    [<name>.hits], [<name>.misses] and [<name>.evictions] — so cache
    effectiveness shows up in metric snapshots alongside everything
    else. *)

val capacity : 'v t -> int

val length : 'v t -> int
(** Number of live entries, [<= capacity]. *)

val find : 'v t -> string -> 'v option
(** Look up a key; a hit refreshes its recency and bumps [hits], a miss
    bumps [misses]. *)

val mem : 'v t -> string -> bool
(** Presence test; does {e not} touch recency or counters. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or replace a binding as the most recent entry, evicting the
    least recently used entry when the capacity is exceeded. *)

val stats : 'v t -> stats

val clear : 'v t -> unit
(** Drop every entry; counters are preserved. *)

(** {1 Sharded variant}

    A thread-safe LRU split into [shards] independent single-lock
    caches.  A key's shard is a pure function of its bytes (FNV-1a),
    so lookups from concurrent sessions contend only when they touch
    the same shard — the serve daemon shares one of these across every
    client session.  With [shards = 1] the behaviour (hit/miss/eviction
    sequence) is exactly that of the plain cache above, plus the lock.

    Counters are shared across shards: {!Sharded.stats} aggregates all
    shards under the same [hits]/[misses]/[evictions] names, and
    {!Sharded.create_in} registers the same [<name>.hits] (etc.)
    instruments as the unsharded {!create_in}. *)

module Sharded : sig
  type 'v t

  val create : shards:int -> capacity:int -> 'v t
  (** [capacity] is the {e total} across shards (shard [i] holds
      [capacity/shards], the remainder spread one-per-shard from shard
      0).  @raise Invalid_argument when [shards < 1]. *)

  val create_in :
    metrics:Relpipe_obs.Metric.t ->
    name:string ->
    shards:int ->
    capacity:int ->
    'v t

  val shards : 'v t -> int

  val capacity : 'v t -> int

  val shard_of_key : 'v t -> string -> int
  (** The shard a key maps to — exposed so tests can model eviction. *)

  val find : 'v t -> string -> 'v option

  val mem : 'v t -> string -> bool

  val add : 'v t -> string -> 'v -> unit

  val length : 'v t -> int

  val stats : 'v t -> stats
  (** Aggregated across shards. *)

  val clear : 'v t -> unit
end
