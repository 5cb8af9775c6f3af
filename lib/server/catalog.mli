(** Weighted directory of resident summaries, keyed by name.

    Every resident summary is charged its byte footprint — the mapped
    file size for zero-copy v3 entries, the estimated kernel-table heap
    size otherwise — against an optional byte budget, alongside an
    entry-count capacity.  Eviction is weighted LRU over whole
    summaries, and it keeps the name→path directory: an evicted name
    transparently reopens from disk on its next use (O(1) for v3
    files), so a catalog can serve a thousand summaries under a budget
    far below their total footprint without clients ever seeing an
    error.  In-flight requests pin their entry; pinned entries are
    never evicted, so the budget may transiently overshoot by the bytes
    of active requests.

    All operations are safe to call from concurrent server workers;
    opening and deserialization happen outside the lock. *)

open Entropydb_core

type aux = {
  rel : Edb_storage.Relation.t;  (** the base table, for exact scans *)
  sample : Edb_sampling.Sample.t;  (** deterministic uniform sample *)
  rate : float;
  csv_path : string;
}
(** Planner routes beyond the summary, attached per entry by {!attach}. *)

type backing = Edb_shard.Store.opened =
  | Heap of Edb_shard.Sharded.t
      (** flat files and sharded manifests, fully deserialized *)
  | Mapped of Mapped.t  (** v3 files, zero-copy *)

type entry = {
  name : string;
  path : string;
  backing : backing;
  bytes : int;  (** footprint charged against the byte budget *)
  cache : Cache.t;
  mutable last_used : int;  (** LRU clock value; managed by the catalog *)
  mutable pins : int;  (** in-flight requests; eviction skips > 0 *)
  mutable aux : aux option;  (** set by {!attach}; dropped with the entry *)
}

type stats = {
  resident : int;
  resident_mapped : int;  (** of which zero-copy mapped *)
  capacity : int;
  budget_bytes : int option;
  resident_bytes : int;  (** total charged bytes *)
  mapped_bytes : int;
  heap_bytes : int;
  pinned : int;  (** entries with in-flight requests *)
  slots : int;  (** known names (resident or evicted-but-reopenable) *)
  shards : int;  (** total resident shards across all entries *)
  hits : int;  (** lookups that found the entry resident *)
  misses : int;
  loads : int;  (** explicit {!load}s *)
  evictions : int;
  reopens : int;  (** transparent reopens after budget eviction *)
}

type t

val create : ?capacity:int -> ?budget_bytes:int -> ?cache_capacity:int -> unit -> t
(** [capacity] bounds the resident entry count (default 8);
    [budget_bytes] additionally bounds the summed footprint (default
    unlimited); [cache_capacity] sizes each entry's query cache
    (default 4096).  Raises on non-positive values. *)

val load : t -> name:string -> path:string -> (entry, string) result
(** Open [path] (flat summary, sharded manifest, or mmap-able v3 file,
    sniffed by magic) and make it resident under [name], evicting
    least-recently-used unpinned entries beyond capacity or budget.
    Replaces any previous summary of the same name. *)

val with_entry : t -> string -> (entry -> 'a) -> ('a, string) result
(** Resolve [name] — resident hit, or transparent reopen from the
    name's recorded path — pin the entry for the duration of [f], and
    run [f] outside the lock.  The pin guarantees the entry is not
    chosen for eviction while the request runs.  Errors if the name was
    never loaded (or was explicitly evicted) or the reopen fails. *)

val attach : t -> name:string -> path:string -> rate:float -> (entry, string) result
(** Load the index-form CSV at [path] under summary [name]'s schema and
    attach it — plus a deterministic uniform sample at [rate] — as
    planner routes.  Errors if the name is unknown, the rate is outside
    (0, 1], or the CSV does not parse against the schema. *)

type refresh_info = {
  batch_rows : int;
  cardinality : int;  (** after the append *)
  sweeps : int;  (** warm-started re-solve sweeps *)
  batches : int;  (** journal length after the append *)
}

val refresh : t -> name:string -> path:string -> (entry * refresh_info, string) result
(** Ingest the batch CSV at [path] into the (unsharded) summary [name]:
    incremental Φ update + warm-started re-solve + atomic
    format-preserving rewrite of the summary file, all outside the
    lock, then an atomic swap of the catalog entry with a fresh (empty)
    query cache.  Mapped entries are heap-rebuilt for the append and
    reopened zero-copy afterwards.  Concurrent queries answer from the
    old summary until the swap and never observe a partial one.  Any
    ATTACHed planner routes are dropped (they describe the pre-batch
    table).  Errors if the name is unknown, the summary is sharded, or
    the CSV does not parse against its schema. *)

val known : t -> string -> bool
(** Whether [name] has a slot — resident or evicted-but-reopenable.
    Does not touch the LRU clock or the hit/miss counters. *)

val find : t -> string -> entry option
(** Resident-only lookup; bumps the entry's LRU position and the
    hit/miss counters.  Never touches the disk — use {!with_entry} to
    get transparent reopen. *)

val evict : t -> string -> bool
(** Forget a name entirely: drop residency {e and} the name→path slot,
    so the name errors until re-LOADed.  [false] if unknown. *)

val entries : t -> entry list
(** Resident entries, sorted by name. *)

val cache_stats : t -> int * int * int
(** Summed (hits, misses, evictions) over all resident entries' query
    caches. *)

val stats : t -> stats

(** {2 Backing dispatch}

    Metadata reads the backing directly (a mapped entry's manifest, so
    it never verifies the body); every answer goes through {!sharded},
    so the handler never matches on {!backing} itself. *)

val kind_name : entry -> string
(** ["heap"] or ["mapped"]. *)

val schema : entry -> Edb_storage.Schema.t
val cardinality : entry -> int

val num_shards : entry -> int
(** Mapped entries report 1. *)

val sharded : entry -> Edb_shard.Sharded.t
(** The entry's estimator surface: a heap entry's summary, or a mapped
    entry's verified {!Mapped.summary} as a single-shard view (bitwise
    the flat answers).  Raises {!Serialize.Format_error} if a mapped
    body fails its checksums. *)

val estimate : entry -> Edb_storage.Predicate.t -> float
val stddev : entry -> Edb_storage.Predicate.t -> float
val estimate_sum : entry -> attr:int -> Edb_storage.Predicate.t -> float
val variance_sum : entry -> attr:int -> Edb_storage.Predicate.t -> float
val estimate_avg : entry -> attr:int -> Edb_storage.Predicate.t -> float option
val estimate_disjuncts : entry -> Edb_storage.Predicate.t list -> float
val stddev_disjuncts : entry -> Edb_storage.Predicate.t list -> float
