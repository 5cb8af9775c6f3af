(** Zero-copy mapped summaries: a format-v3 file opened as Bigarray
    views over an [mmap]ed file, queryable without heap-loading the
    body.

    {!open_file} costs O(header + manifest) — the body sections are
    mapped, not read — so a catalog can keep thousands of summaries
    "open" for the price of their metadata.  Queries go through
    {!summary}: a {!Summary.t} over a read-only {!Poly.t} whose kernel
    tables are the mapped views ({!Poly.of_views}).  There is one
    kernel and one estimator surface, so every answer is
    bitwise-identical to the heap summary's for the same file, at any
    {!Poly.set_parallelism}.

    Integrity: body-section checksums are verified lazily, once, by the
    first {!summary} call ({!verify} forces it eagerly).  A corrupt
    section raises {!Serialize.Format_error} naming the section — a
    flipped or truncated byte can never produce a silently wrong
    answer. *)

open Edb_storage

type t

val open_file : string -> t
(** Map a v3 summary file.  O(header + manifest) I/O: validates the
    header and manifest ({!Serialize.v3_manifest_of}), maps the file,
    and carves the section views.  Raises {!Serialize.Format_error} on
    any format or integrity problem it can see without reading the
    body. *)

val verify : t -> unit
(** Checksum every body section now (idempotent; later calls skip it).
    Raises {!Serialize.Format_error} ["section %s checksum mismatch"]
    on the first corrupt section. *)

val summary : t -> Summary.t
(** The queryable summary, after {!verify}.  Its polynomial is
    read-only: {!Poly.phi}, the solver and the ingest path raise
    [Invalid_argument] on it (REFRESH heap-loads the file instead). *)

(** {2 Metadata accessors (no body access)} *)

val path : t -> string
val schema : t -> Schema.t

val cardinality : t -> int
(** n — the summarized relation's row count. *)

val size_bytes : t -> int
(** The mapped file's size: what this summary charges a byte-budgeted
    catalog (the body pages are file-backed and clean, so this is the
    eviction cost, not a heap cost). *)

val journal : t -> Journal.t
val solver_report : t -> Solver.report
val manifest : t -> Serialize.v3_manifest
val sections : t -> Serialize.v3_section list

val num_terms : t -> int
(** Terms in the compressed representation, summed over groups (from
    the manifest; used by the planner's cost model). *)

val estimate_groups_with_stddev :
  t -> attrs:int list -> Predicate.t -> (int list * float * float) list
(** [Summary.estimate_groups_with_stddev (summary t)]. *)
