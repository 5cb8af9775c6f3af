(** Transparent persistence: load any summary file — flat, sharded
    manifest, or mmap-able v3 — as a {!Sharded.t}, or open it
    residency-aware with {!open_any}. *)

val save : Sharded.t -> string -> unit
(** Write the manifest plus per-shard files
    (see {!Entropydb_core.Serialize.save_sharded}). *)

val load : ?term_cap:int -> string -> Sharded.t
(** Sniff the file's magic and load any format as heap summaries; a flat
    or v3 file becomes a single-shard view.  Raises
    {!Entropydb_core.Serialize.Format_error} like the underlying
    loaders. *)

type opened =
  | Heap of Sharded.t
  | Mapped of Entropydb_core.Mapped.t

val open_any : ?term_cap:int -> string -> opened
(** Open a summary the cheapest way its format allows: v3 files map
    ({!Entropydb_core.Mapped.open_file}, O(header + manifest)),
    everything else heap-loads ({!load}). *)
