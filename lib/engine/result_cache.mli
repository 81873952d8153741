(** Bounded content-addressed result cache with LRU eviction.

    The serve daemon's fast path: analysis outcomes keyed by
    {!fingerprint} — an MD5 over the machine description, the request
    options, and the {!Ujam_ir.Canon.digest} of the nest — so a repeated
    optimization problem is answered without touching the table search,
    whatever the nest was called or how its commutative operands were
    spelled.  Capacity is a hard bound: inserting into a full cache
    evicts the least-recently-used entry.  [find] and [store] are O(1)
    (hash table plus an intrusive recency list) and {e not}
    thread-safe; the daemon confines all cache access to its
    accept/dispatch thread and ships only pure closures to worker
    domains. *)

type 'v t

val create : ?metrics_prefix:string -> capacity:int -> unit -> 'v t
(** [capacity] must be positive.  When [metrics_prefix] is given (e.g.
    ["serve.cache"]), hit/miss/eviction counters are registered with
    {!Ujam_obs.Obs} under [prefix ^ ".hits"] etc. — registration
    happens here, at cache creation, so programs that never build a
    cache keep their metrics registry unchanged. *)

val find : 'v t -> string -> 'v option
(** Lookup by key; a hit refreshes the entry's recency. *)

val store : 'v t -> string -> 'v -> unit
(** Insert or overwrite; evicts the LRU entry when full. *)

val fold : 'v t -> init:'a -> f:('a -> string -> 'v -> 'a) -> 'a
(** Fold over live entries from most- to least-recently used, without
    touching recency — the serve daemon's persistence walk. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

val stats : 'v t -> stats

val fingerprint :
  op:string ->
  machine:Ujam_machine.Machine.t ->
  bound:int ->
  max_loops:int ->
  model:string ->
  seq:bool ->
  ?extra:string ->
  Ujam_ir.Nest.t ->
  string
(** The cache key: MD5 hex over every machine field that feeds the
    analysis, the option tuple, [op] (the request method — an
    [optimize] result must never answer a [lint]), an optional [extra]
    discriminator (e.g. the lint rule selection), and the canonical
    nest digest.  Display names are excluded by construction, so
    renamed copies of one problem share an entry. *)
