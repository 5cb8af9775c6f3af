(** The compressed factorized MaxEnt polynomial (Eq. 5 / Theorem 4.1).

    P is stored as a product over attribute-connected statistic groups of
    group polynomials, each a sum over compatible sets of joint statistics
    (the paper's J_I), never materializing the one-monomial-per-tuple form.
    All cached quantities are maintained incrementally under
    single-variable updates, which is what Algorithm 1 needs. *)

open Edb_storage

type t

type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ibuf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The kernel tables' storage: flat float64 and native-int Bigarrays,
    so the same kernel runs over tables a build allocated and over the
    views of a mapped format-v3 file ({!of_views}). *)

exception Too_many_terms of { cap : int; group_attrs : int list }

val layout : string
(** Name of the in-memory term layout (recorded in BENCH_kernel.json so
    the kernel bench can tell a layout change from a same-layout
    regression). *)

val create : ?term_cap:int -> Phi.t -> t
(** Builds the compressed representation and initializes variables
    (marginals to s_j/n — exact for a marginals-only model — and joints
    to 1, which makes their correction terms vanish initially).  Raises
    {!Too_many_terms} if a group's compatible-set enumeration exceeds
    [term_cap] (default 2,000,000): the statistic budget is too large for
    this attribute topology. *)

val phi : t -> Phi.t
(** Raises [Invalid_argument] on a read-only polynomial ({!of_views}),
    which has no statistic set. *)

val schema : t -> Schema.t

val cardinality : t -> int
(** n, the summarized relation's row count. *)

val num_stats : t -> int
val num_marginals : t -> int

val p : t -> float
(** Current value of P at the current variable assignment. *)

val alpha : t -> int -> float
(** Value of statistic [j]'s variable. *)

val attr_sum : t -> int -> float
(** A_i: sum of attribute [i]'s marginal variables. *)

val set_alpha : t -> int -> float -> unit
(** Incremental single-variable update; maintains all cached sums, group
    values, and P in O(terms containing the variable).

    This and every other mutator ({!refresh}, {!normalize},
    {!set_alphas}, {!reinit}) — plus the solver-only {!partial},
    {!expected} and {!dual} — raise [Invalid_argument] on a read-only
    polynomial. *)

val refresh : t -> unit
(** Recompute every cached quantity from the variable vector (washes out
    floating-point drift; the solver calls it once per sweep). *)

val normalize : t -> unit
(** Rescale every attribute's marginal variables so A_i = 1.  Leaves all
    expectations, estimates, and the dual unchanged (overcompleteness
    makes the model scale-invariant per attribute) while pinning P's
    magnitude — numerical hygiene the solver applies once per sweep. *)

val set_alphas : t -> float array -> unit
(** Bulk assignment of the whole variable vector (indexed by stat id),
    followed by a full refresh.  Raises on length mismatch. *)

val alphas : t -> float array
(** Copy of the current variable vector. *)

val reinit : t -> [ `Marginals | `Uniform ] -> unit
(** Reset variables to an initialization strategy: [`Marginals] seeds 1D
    variables at s_j/n, [`Uniform] seeds everything at 1. *)

val partial : t -> int -> float
(** ∂P/∂α_j.  P is multi-linear, so this is exact, not numeric. *)

val expected : t -> int -> float
(** E[⟨c_j, I⟩] = n·α_j·∂P/∂α_j / P  (Eq. 8). *)

val eval_restricted : t -> Predicate.t -> float
(** P with all 1D variables outside the query's restrictions set to 0 —
    the optimized query evaluation of Sec. 4.2.  No rebuilding.  Groups
    above 30k terms are evaluated with {!set_parallelism} domains. *)

val eval_restricted_by_value : t -> Predicate.t -> attr:int -> float array
(** Batched GROUP BY kernel: element [v] of the result equals
    [eval_restricted t (Predicate.restrict query attr (singleton v))]
    (up to float reassociation, ≤ 1e-9 relative), for {e every} value of
    [attr]'s domain, computed in one pass over the terms instead of one
    scan per value.  Values outside the query's restriction on [attr]
    are 0.  Cost: O(terms + Σ|projection ∩ query| + domain size) —
    independent of the number of group cells.  Same parallelism gating
    as {!eval_restricted}. *)

val eval_restricted_by_value_into :
  t -> Predicate.t -> attr:int -> out:float array -> unit
(** As {!eval_restricted_by_value}, but fills the caller's buffer
    instead of allocating: cells [0 .. domain_size - 1] of [out] are
    (over)written, values outside the query's restriction to 0.  [out]
    must be at least the attribute's domain size (larger is fine; the
    tail is untouched), which lets callers evaluating many cross-product
    cells — [Summary.estimate_groups] — reuse one buffer for the whole
    query.  Raises [Invalid_argument] on a too-small buffer. *)

val set_parallelism : ?threshold:int -> int -> unit
(** Worker domains for restricted evaluation over large groups (default:
    the [EDB_DOMAINS] environment variable, else 1).  [threshold] is the
    minimum group term count for parallel evaluation (default 30,000;
    overridable for testing).  Read-only polynomials over mapped tables
    take the same parallel path, so heap and mapped answers stay
    bitwise equal at any setting. *)

val set_cancellation_floor : float -> unit
(** Floor of the cancellation clamp applied to restricted group values
    (default 0, the correct value).  Exists solely for fault injection:
    the correctness harness ([entropydb check --mutate clamp]) raises it
    to plant a known estimator bug and assert that the oracle battery
    catches it ([kernel-soa], [groupby-total] and the brute-force
    oracles do; [mmap-v3] cannot, since heap and mapped summaries share
    this kernel and carry the bug alike).  Never set this in production
    code. *)

val estimate : t -> Predicate.t -> float
(** E[⟨q, I⟩] = n·P\[zeroed\]/P for a conjunctive counting query. *)

val eval_weighted :
  t -> Predicate.t -> weights:(int * (int -> float)) list -> float
(** Sum over tuples satisfying the predicate of
    [Π_i w_i(t_i) · monomial(t)], for product-form weights: [weights]
    maps an attribute to a per-value weight, absent attributes weigh 1.
    Computed by substituting α_{i,v} ↦ α_{i,v}·w_i(v) — no restructuring.
    When every weighted variable is non-negative (the SUM/AVG midpoint
    case), each group value gets the same cancellation clamp as
    {!eval_restricted}, so tiny negative totals cannot flip an
    estimate's sign; genuinely signed weights are left unclamped. *)

val estimate_weighted :
  t -> Predicate.t -> weights:(int * (int -> float)) list -> float
(** E of the weighted linear query: n·[eval_weighted]/P. *)

val dual : t -> float
(** The dual objective Ψ = Σ_j s_j ln α_j − n ln P (Eq. 11); concave in the
    θ parametrization, maximized at the MaxEnt solution. *)

val num_terms : t -> int
(** Terms in the compressed representation (including per-group base
    terms). *)

val num_groups : t -> int

val uncompressed_monomials : t -> float
(** |Tup| — the size the naive sum-of-products form would have. *)

(** {2 Table export (summary format v3)}

    The flat SoA/CSR tables behind the kernel, exposed so the zero-copy
    serializer can write them to disk verbatim: a mapped summary
    ({!of_views}) then evaluates bitwise the same tables the built
    polynomial does.
    All arrays are {e shared} with the polynomial — treat them as
    read-only snapshots of the current solved state. *)

type group_tables = {
  gt_attrs : int array;
  gt_stats : int array;
  gt_n_terms : int;
  gt_ts_off : int array;
  gt_ts_stat : int array;
  gt_fa_off : ibuf;
  gt_fa_attr : ibuf;
  gt_factors : fbuf;
  gt_iv_off : ibuf;
  gt_iv_lo : ibuf;
  gt_iv_hi : ibuf;
  gt_t_mask : ibuf;
  gt_fprod : float array;
  gt_dprod : fbuf;
  gt_value : float array;
  gt_mask_bits : ibuf;
  gt_mask_sum : float array;
  gt_mask_outer : float array;
  gt_q : float;
  gt_bys_off : int array;
  gt_bys_term : int array;
  gt_byv_off : int array array;
  gt_byv_term : int array array;
  gt_byv_slot : int array array;
}

type tables = {
  tb_alpha : fbuf;
  tb_attr_sums : fbuf;
  tb_prefix : fbuf array;
  tb_p : float;
  tb_free_attrs : int array;
  tb_group_of_attr : int array;
  tb_groups : group_tables array;
}

val tables : t -> tables
(** Current tables (prefix sums finalized first).  Call {!refresh}
    beforehand to wash out incremental drift when a canonical
    (rebuild-from-α) state is required, as the v3 writer does. *)

(** {2 Read-only polynomials over mapped tables} *)

type view_group = {
  vg_attrs : int array;  (** ascending *)
  vg_n_terms : int;
  vg_q : float;  (** Q_g at the solved state *)
  vg_fa_off : ibuf;
  vg_fa_attr : ibuf;
  vg_factors : fbuf;
  vg_iv_off : ibuf;
  vg_iv_lo : ibuf;
  vg_iv_hi : ibuf;
  vg_t_mask : ibuf;
  vg_dprod : fbuf;
  vg_mask_bits : ibuf;
}
(** One group's kernel tables, as {!group_tables} exports them. *)

val of_views :
  schema:Schema.t ->
  n:int ->
  p:float ->
  alpha:fbuf ->
  attr_sums:fbuf ->
  prefix:fbuf array ->
  free_attrs:int array ->
  group_of_attr:int array ->
  view_group array ->
  t
(** A read-only polynomial over caller-owned tables — the Bigarray views
    of a mapped v3 file.  No copy and no validation: the tables must be
    exactly what {!tables} exported from a solved polynomial (finalized
    prefix sums, marginal ids attribute-major), which is what makes
    every estimate bitwise equal to that polynomial's.  It answers every
    query {!t} answers; {!phi}, the mutators and the solver-only
    functions raise [Invalid_argument]. *)

val footprint_bytes : t -> int
(** Estimated resident heap size of the flat tables in bytes (one word
    per array element); the weighted catalog charges heap-backed entries
    with this. *)
