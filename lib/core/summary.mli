(** EntropyDB summaries: build once offline, answer linear queries in
    expectation forever after.

    This is the library's primary public API, covering Secs. 3–4 of the
    paper plus the closed-form variance sketched in its Sec. 7. *)

open Edb_storage

type t

val build :
  ?solver_config:Solver.config ->
  ?term_cap:int ->
  ?on_sweep:(Solver.sweep_stat -> unit) ->
  Relation.t ->
  joints:Predicate.t list ->
  t
(** [build rel ~joints] computes Φ (complete marginals + the given
    multi-dimensional range statistics), compresses the polynomial, and
    solves for the MaxEnt parameters.  Raises like {!Phi.of_relation} and
    {!Poly.create}. *)

val of_phi :
  ?solver_config:Solver.config ->
  ?term_cap:int ->
  ?init:float array ->
  ?on_sweep:(Solver.sweep_stat -> unit) ->
  Phi.t ->
  t
(** Build from a pre-computed statistic set (used by tests, callers that
    tweak targets, and the incremental-ingest path).  [init] warm-starts
    the solve, see {!Solver.solve}. *)

val of_solved_poly :
  ?journal:Journal.t -> poly:Poly.t -> report:Solver.report -> unit -> t
(** Wrap an already-solved polynomial (deserialization, ingest, and the
    read-only polynomials of mapped v3 files); does not re-solve.
    [journal] defaults to a fresh base journal of the polynomial's
    cardinality. *)

val schema : t -> Schema.t

val cardinality : t -> int
(** n, the cardinality of the summarized relation. *)

val poly : t -> Poly.t
val solver_report : t -> Solver.report

val journal : t -> Journal.t
(** The summary's lineage: base build plus every ingested batch.  For a
    summary maintained through {!Edb_ingest.Ingest},
    [Journal.total_rows (journal t) = cardinality t]. *)

val with_journal : t -> Journal.t -> t
(** Replace the lineage record (used by the ingest path). *)

val estimate : t -> Predicate.t -> float
(** E[⟨q,I⟩] for a conjunctive counting query — Sec. 4.2's zeroing formula;
    typically sub-millisecond. *)

val estimate_rounded : t -> Predicate.t -> float
(** [estimate], with values below 0.5 rounded to 0 (the paper's policy for
    separating rare from nonexistent values). *)

val variance : t -> Predicate.t -> float
(** Var[⟨q,I⟩] = n·p·(1−p) with p = P\[zeroed\]/P, from the multinomial view
    of the fixed-cardinality MaxEnt model. *)

val stddev : t -> Predicate.t -> float

val estimate_with_variance : t -> Predicate.t -> float * float
(** Both moments from a single restricted evaluation.  The first component
    is bitwise-identical to {!estimate}; the second equals {!variance}
    (except that an unsatisfiable query reports exactly [(0., 0.)]). *)

val estimate_sum :
  t -> attr:int -> ?weights:(int -> float) -> Predicate.t -> float
(** E[SUM(attr)] under the predicate, as a weighted linear query; weights
    default to bin midpoints ({!Edb_storage.Domain.bin_midpoint}, raises
    on categorical attributes). *)

val estimate_avg : t -> attr:int -> Predicate.t -> float option
(** E[SUM]/E[COUNT]; [None] when the expected count is 0. *)

val variance_sum :
  t -> attr:int -> ?weights:(int -> float) -> Predicate.t -> float
(** Var[SUM(attr)] under the multinomial view:
    n·(E\[w²\] − E\[w\]²) over the per-draw weight distribution. *)

val estimate_groups :
  t -> attrs:int list -> Predicate.t -> (int list * float) list
(** GROUP BY estimate: one cell per combination of the grouping
    attributes' values (restricted by the query's predicate), in
    ascending group-key order.  The widest grouping attribute is
    answered by the batched kernel {!Poly.eval_restricted_by_value} —
    one term pass for all of its values — instead of one full scan per
    cell. *)

val estimate_groups_with_variance :
  t -> attrs:int list -> Predicate.t -> (int list * float * float) list
(** [estimate_groups] plus each cell's Var[⟨q,I⟩] = n·p·(1−p): the
    kernel yields every cell's restricted P, so the binomial p (and
    hence the variance) costs nothing extra. *)

val estimate_groups_with_stddev :
  t -> attrs:int list -> Predicate.t -> (int list * float * float) list
(** [estimate_groups_with_variance] with the variance replaced by its
    square root. *)

val top_k_groups :
  t -> attrs:int list -> k:int -> Predicate.t -> (int list * float) list
(** The paper's GROUP BY ... ORDER BY count DESC LIMIT k example.
    Ordering is total and deterministic: descending estimate under
    [Float.compare] (NaN-safe), ties broken by ascending group key. *)

type size_report = {
  num_statistics : int;
  num_marginals : int;
  num_terms : int;
  num_groups : int;
  uncompressed_monomials : float;
}

val size_report : t -> size_report
val pp_size_report : Format.formatter -> size_report -> unit

val footprint_bytes : t -> int
(** Estimated resident heap size of the summary's kernel tables
    ({!Poly.footprint_bytes}); the weighted catalog charges heap-backed
    entries with this. *)
