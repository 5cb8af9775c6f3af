(* The compressed MaxEnt polynomial (Sec. 3.1 Eq. 5, compressed per
   Theorem 4.1, plus two refinements).

   The uncompressed polynomial has one monomial per possible tuple —
   billions for the paper's schemas — so it is never materialized.
   Theorem 4.1 rewrites P as a sum over *compatible sets* S of
   multi-dimensional statistics: each S contributes

       (i)  the full 1D sums A_i of the attributes S does not restrict,
       (ii) the sums of 1D variables inside the intersection of S's
            per-attribute projections, for the attributes it does restrict,
            times prod_{j in S} (delta_j - 1).

   Refinement 1 — group factorization.  Joint statistics are partitioned
   into *connected groups* by shared attributes (union-find).  Monomials
   factor across groups, so

       P  =  prod_{i free} A_i  *  prod_g Q_g

   and each group polynomial Q_g enumerates only compatible sets drawn from
   its own statistics: attribute-disjoint families (e.g. the paper's Ent3&4
   pairs (time,distance) x (origin,dest)) multiply instead of
   cross-producting.  The paper's Sec. 7 lists this further factorization
   as future work.

   Refinement 2 — mask-indexed part (i).  Within a group, many terms leave
   some group attributes unrestricted.  Storing those attributes' full sums
   inside every term would make a single marginal update touch every term
   of the group.  Instead, terms are bucketed by their *mask* (the set of
   group attributes their S restricts) and carry only part (ii); the group
   value is

       Q_g = sum_masks  S_mask * prod_{i in group, i not in mask} A_i

   where S_mask is the running sum of the bucket's part-(ii) values.  A
   marginal update then touches only the terms whose own projection
   contains the value, plus O(#masks) outer products — #masks is bounded by
   the number of distinct family combinations, typically < 10.

   Memory layout (structure of arrays).  A term is not a record: a group
   stores all of its terms' data in flat parallel arrays, with CSR offset
   tables for the variable-length parts.

     term ti:
       stats       ts_stat.(ts_off.(ti) .. ts_off.(ti+1)-1)
       factor slot s in fa_off.(ti) .. fa_off.(ti+1)-1:
         attribute fa_attr.(s), cached factor factors.(s),
         projection intervals (iv_lo, iv_hi).(iv_off.(s) .. iv_off.(s+1)-1)
       mask t_mask.(ti), cached fprod/dprod/value.(ti)

   The inverted indexes used by single-variable updates are CSR too:
   by-stat rows (bys_off/bys_term, keyed through the bys_row table) and
   per-attribute by-value buckets (byv_off/byv_term/byv_slot).  Both are
   filled in *descending* term order, matching the prepend-built lists of
   the previous boxed-record layout, so solver trajectories — every
   intermediate float — are bitwise identical to that layout's.

   The tables the read-only kernels walk (alpha, attribute sums, prefix
   sums, and each group's fa/iv CSR, factors, t_mask, dprod and
   mask_bits) are float64/int Bigarrays, allocated once per build.  That
   is what lets a format-v3 file be answered in place: [of_views] wraps
   Bigarray views of a mapped file in a read-only [t], and every query
   runs through this one kernel whether a build allocated the tables or
   they live in the page cache.  A read-only polynomial has no Phi: it takes n
   and the marginal offsets from its caller, keeps empty update-path
   tables, and its mutators raise [Invalid_argument].

   Restricted evaluation walks these arrays with zero per-call
   minor-heap allocation: interval intersections are merged prefix-sum
   walks (never materialized), and the per-call accumulators (restricted
   attribute sums, per-mask masses, per-cell scatter) live in a reusable
   scratch block claimed with an atomic flag — concurrent evaluations on
   the same polynomial (server threads) fall back to a fresh block.

   The structure is mutable: the solver updates one variable at a time
   (Algorithm 1) and every cached quantity — A_i, per-term factors,
   per-mask sums, Q_g, P — is maintained incrementally.  [refresh]
   recomputes everything from the variable vector to wash out accumulated
   floating-point drift. *)

open Edb_util
open Edb_storage
module A1 = Bigarray.Array1

type fbuf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t
type ibuf = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type group = {
  g_attrs : int array; (* ascending *)
  g_stats : int array; (* joint stat ids *)
  n_terms : int; (* term 0 is the base term (S = empty, mask 0) *)
  (* term -> joint stat ids of S (CSR) *)
  ts_off : int array; (* length n_terms + 1 *)
  ts_stat : int array;
  (* term -> factor slots, one per attribute S restricts, ascending (CSR) *)
  fa_off : ibuf; (* length n_terms + 1 *)
  fa_attr : ibuf; (* slot -> attribute *)
  factors : fbuf; (* slot -> cached F_i(S) = sum of alpha inside *)
  (* slot -> projection-intersection intervals, ascending (CSR) *)
  iv_off : ibuf; (* length #slots + 1 *)
  iv_lo : ibuf;
  iv_hi : ibuf;
  (* per-term caches *)
  t_mask : ibuf; (* mask id within the group *)
  fprod : float array; (* prod of the term's factors *)
  dprod : fbuf; (* prod_{j in S} (alpha_j - 1); 1 for the base *)
  value : float array; (* fprod * dprod — part (ii) only *)
  mask_bits : ibuf; (* mask id -> bitset over local attr indices *)
  mask_sum : float array; (* mask id -> sum of its terms' values *)
  mask_outer : float array; (* mask id -> prod of A_i over unmasked locals *)
  mutable q : float;
  (* joint stat id -> row of terms containing it, descending term order *)
  bys_row : (int, int) Hashtbl.t;
  bys_off : int array;
  bys_term : int array;
  (* local attr -> value -> (term, slot) bucket, descending term order *)
  byv_off : int array array; (* per local attr, length domain size + 1 *)
  byv_term : int array array;
  byv_slot : int array array;
}

(* Reusable per-evaluation accumulators, sized for the largest group (and
   largest attribute domain) of the polynomial they belong to. *)
type scratch = {
  ra : float array; (* local attr -> restricted attribute sum *)
  msum : float array; (* mask id -> restricted term-mass sum *)
  coef : float array; (* mask id -> outer product (GROUP BY kernel) *)
  scatter : float array; (* domain value -> scattered mass *)
}

type t = {
  phi : Phi.t option; (* None: read-only, over caller-owned views *)
  schema : Schema.t;
  m : int;
  n : int; (* cardinality *)
  marg_off : int array; (* attr -> stat id of its value-0 marginal *)
  alpha : fbuf; (* one variable per statistic, indexed by stat id *)
  attr_sums : fbuf; (* A_i *)
  groups : group array;
  group_of_attr : int array; (* attr -> group index, or -1 if free *)
  group_of_stat : (int, int) Hashtbl.t; (* joint stat id -> group index *)
  free_attrs : int array;
  mutable p : float;
  prefix : fbuf array; (* attr -> prefix sums of alpha, length N_i+1 *)
  mutable prefix_valid : bool;
  scratch : scratch;
  scratch_busy : bool Atomic.t; (* claimed by an in-flight evaluation *)
}

exception Too_many_terms of { cap : int; group_attrs : int list }

(* Identifies the in-memory term layout in benchmark artifacts
   (BENCH_kernel.json), so speedup and regression gates know whether they
   are comparing like with like. *)
let layout = "soa-csr"

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Count kernel invocations always (one striped atomic add per call);
   spans and the latency histogram cost a closure and a clock read, so
   they are taken only when tracing is enabled.  Instrumentation is per
   kernel call — never per term — so the disabled-mode cost is one flag
   load next to a full term pass, and the disabled path stays
   allocation-free. *)
module Obs = Edb_obs.Obs

let evals_counter = Edb_obs.Registry.counter "poly.evals"

(* Bucket values are *nanoseconds* (the name carries the unit): kernel
   calls on interactive summaries sit well under a microsecond per term,
   below the histogram's native microsecond resolution. *)
let eval_ns_hist = Edb_obs.Registry.histogram "kernel_eval_ns"
let scratch_reuse_counter = Edb_obs.Registry.counter "kernel_scratch_reuses"
let scratch_alloc_counter = Edb_obs.Registry.counter "kernel_scratch_allocs"

(* ------------------------------------------------------------------ *)
(* Cached-state maintenance                                            *)
(* ------------------------------------------------------------------ *)

(* The polynomial's Phi, for the solver and ingest paths; a read-only
   polynomial over mapped tables has none, so every mutator (and every
   query that needs the statistic set) refuses it here. *)
let writable t fn =
  match t.phi with
  | Some phi -> phi
  | None -> invalid_arg (fn ^ ": read-only polynomial over mapped tables")

(* A read-only polynomial's prefix sums come with its tables and stay
   valid forever (nothing can change alpha), so this never writes
   through a view. *)
let ensure_prefix t =
  if not t.prefix_valid then begin
    for i = 0 to t.m - 1 do
      let size = Schema.domain_size t.schema i in
      let pre = t.prefix.(i) and off = t.marg_off.(i) in
      pre.{0} <- 0.;
      for v = 0 to size - 1 do
        pre.{v + 1} <- pre.{v} +. t.alpha.{off + v}
      done
    done;
    t.prefix_valid <- true
  end

(* Sum of alpha over a value set, via the attribute's prefix sums [pre]
   (cached or weighted): O(#intervals). *)
let[@inline] range_sum (pre : fbuf) r =
  let acc = ref 0. in
  for k = 0 to Ranges.num_intervals r - 1 do
    acc :=
      !acc +. pre.{Ranges.interval_hi r k + 1} -. pre.{Ranges.interval_lo r k}
  done;
  !acc

(* Sum of [pre] over factor slot [s]'s own intervals.  Unsafe accesses:
   interval bounds are validated against the attribute domain at
   construction (or, for mapped tables, checksummed bytes a valid
   polynomial exported), and offsets index arrays built from the same
   counts. *)
let[@inline] slot_sum (pre : fbuf) g s =
  let iv_lo = g.iv_lo and iv_hi = g.iv_hi in
  let acc = ref 0. in
  for k = A1.unsafe_get g.iv_off s to A1.unsafe_get g.iv_off (s + 1) - 1 do
    acc :=
      !acc
      +. A1.unsafe_get pre (A1.unsafe_get iv_hi k + 1)
      -. A1.unsafe_get pre (A1.unsafe_get iv_lo k)
  done;
  !acc

(* Sum of [pre] over (slot [s]'s intervals ∩ [qr]): the merge walk
   [Ranges.inter] performs, summed directly instead of materialized.
   Interval order and summation order match [range_sum] over the
   materialized intersection, so the result is bitwise identical. *)
let[@inline] inter_sum (pre : fbuf) g s qr =
  let iv_lo = g.iv_lo and iv_hi = g.iv_hi in
  let acc = ref 0. in
  let k = ref (A1.unsafe_get g.iv_off s) and j = ref 0 in
  let k1 = A1.unsafe_get g.iv_off (s + 1) and nq = Ranges.num_intervals qr in
  while !k < k1 && !j < nq do
    let alo = A1.unsafe_get iv_lo !k and ahi = A1.unsafe_get iv_hi !k in
    let blo = Ranges.interval_lo qr !j and bhi = Ranges.interval_hi qr !j in
    let lo = if alo > blo then alo else blo in
    let hi = if ahi < bhi then ahi else bhi in
    if lo <= hi then
      acc := !acc +. A1.unsafe_get pre (hi + 1) -. A1.unsafe_get pre lo;
    if ahi < bhi then incr k else incr j
  done;
  !acc

let[@inline] fprod_of g ti =
  let acc = ref 1. in
  for s = g.fa_off.{ti} to g.fa_off.{ti + 1} - 1 do
    acc := !acc *. g.factors.{s}
  done;
  !acc

let[@inline] dprod_of t g ti =
  let acc = ref 1. in
  for s = g.ts_off.(ti) to g.ts_off.(ti + 1) - 1 do
    acc := !acc *. (t.alpha.{g.ts_stat.(s)} -. 1.)
  done;
  !acc

(* Recompute every mask's outer product and the group value from the
   current attribute sums and mask sums: O(#masks * |g_attrs|). *)
let recompute_group_q t g =
  let n_local = Array.length g.g_attrs in
  let q = ref 0. in
  for k = 0 to A1.dim g.mask_bits - 1 do
    let bits = g.mask_bits.{k} in
    let outer = ref 1. in
    for li = 0 to n_local - 1 do
      if bits land (1 lsl li) = 0 then
        outer := !outer *. t.attr_sums.{g.g_attrs.(li)}
    done;
    g.mask_outer.(k) <- !outer;
    q := !q +. (g.mask_sum.(k) *. !outer)
  done;
  g.q <- !q

let compute_p t =
  let p = ref 1. in
  for k = 0 to Array.length t.free_attrs - 1 do
    p := !p *. t.attr_sums.{t.free_attrs.(k)}
  done;
  for gi = 0 to Array.length t.groups - 1 do
    p := !p *. t.groups.(gi).q
  done;
  !p

let refresh t =
  ignore (writable t "Poly.refresh");
  t.prefix_valid <- false;
  ensure_prefix t;
  for i = 0 to t.m - 1 do
    t.attr_sums.{i} <- t.prefix.(i).{Schema.domain_size t.schema i}
  done;
  Array.iter
    (fun g ->
      Array.fill g.mask_sum 0 (Array.length g.mask_sum) 0.;
      for ti = 0 to g.n_terms - 1 do
        for s = g.fa_off.{ti} to g.fa_off.{ti + 1} - 1 do
          g.factors.{s} <- slot_sum t.prefix.(g.fa_attr.{s}) g s
        done;
        g.fprod.(ti) <- fprod_of g ti;
        g.dprod.{ti} <- dprod_of t g ti;
        g.value.(ti) <- g.fprod.(ti) *. g.dprod.{ti};
        g.mask_sum.(g.t_mask.{ti}) <-
          g.mask_sum.(g.t_mask.{ti}) +. g.value.(ti)
      done;
      recompute_group_q t g)
    t.groups;
  t.p <- compute_p t

(* ------------------------------------------------------------------ *)
(* Scratch management                                                  *)
(* ------------------------------------------------------------------ *)

let make_scratch schema groups =
  let max_attrs = ref 1 and max_masks = ref 1 in
  Array.iter
    (fun g ->
      max_attrs := max !max_attrs (Array.length g.g_attrs);
      max_masks := max !max_masks (A1.dim g.mask_bits))
    groups;
  let max_dom = ref 1 in
  for i = 0 to Schema.arity schema - 1 do
    max_dom := max !max_dom (Schema.domain_size schema i)
  done;
  {
    ra = Array.make !max_attrs 0.;
    msum = Array.make !max_masks 0.;
    coef = Array.make !max_masks 0.;
    scatter = Array.make !max_dom 0.;
  }

(* Claim the polynomial's scratch block, or allocate a fresh one if an
   evaluation on another thread holds it (server systhreads can
   interleave at polling points mid-evaluation).  The counters make the
   steady state observable: reuses should dominate allocs. *)
let acquire_scratch t =
  if Atomic.compare_and_set t.scratch_busy false true then begin
    Edb_obs.Registry.Counter.incr scratch_reuse_counter;
    t.scratch
  end
  else begin
    Edb_obs.Registry.Counter.incr scratch_alloc_counter;
    make_scratch t.schema t.groups
  end

let release_scratch t sc =
  if sc == t.scratch then Atomic.set t.scratch_busy false

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

module Uf = struct
  let find parent i =
    let rec go i = if parent.(i) = i then i else go parent.(i) in
    let root = go i in
    let rec compress i =
      if parent.(i) <> root then begin
        let next = parent.(i) in
        parent.(i) <- root;
        compress next
      end
    in
    compress i;
    root

  let union parent a b =
    let ra = find parent a and rb = find parent b in
    if ra <> rb then parent.(ra) <- rb
end

let stat_ranges phi j =
  (* The per-attribute projections rho_ij of joint statistic j. *)
  let pred = Statistic.pred (Phi.stat phi j) in
  List.map
    (fun i ->
      match Predicate.restriction pred i with
      | Some r -> (i, r)
      | None -> assert false)
    (Predicate.restricted_attrs pred)

type raw_term = { rt_stats : int list; rt_bound : (int * Ranges.t) list }

(* Enumerate the compatible sets of one group by DFS over its families:
   pick at most one statistic per family (same-family statistics are
   disjoint, so they never co-occur in a monomial), pruning as soon as some
   attribute's projection intersection becomes empty.  This constructs the
   paper's J_I sets for all I at once. *)
let enumerate_raw_terms phi ~term_cap ~g_attrs ~g_families =
  let terms = ref [] and count = ref 0 in
  let m = Array.fold_left max 0 g_attrs + 1 in
  let restr_map : Ranges.t option array = Array.make m None in
  let emit stats =
    incr count;
    if !count > term_cap then
      raise
        (Too_many_terms { cap = term_cap; group_attrs = Array.to_list g_attrs });
    let bound =
      List.filter_map
        (fun i ->
          match restr_map.(i) with Some r -> Some (i, r) | None -> None)
        (Array.to_list g_attrs)
    in
    terms := { rt_stats = List.rev stats; rt_bound = bound } :: !terms
  in
  let families = Array.of_list g_families in
  let ranges_of = Hashtbl.create 64 in
  Array.iter
    (fun fam ->
      Array.iter (fun j -> Hashtbl.add ranges_of j (stat_ranges phi j)) fam)
    families;
  let rec dfs f chosen any =
    if f = Array.length families then begin
      if any then emit chosen
    end
    else begin
      (* Skip this family. *)
      dfs (f + 1) chosen any;
      (* Or choose one of its statistics. *)
      Array.iter
        (fun j ->
          let ranges = Hashtbl.find ranges_of j in
          let saved = List.map (fun (i, _) -> (i, restr_map.(i))) ranges in
          let ok =
            List.for_all
              (fun (i, r) ->
                let r' =
                  match restr_map.(i) with
                  | None -> r
                  | Some r0 -> Ranges.inter r0 r
                in
                restr_map.(i) <- Some r';
                not (Ranges.is_empty r'))
              ranges
          in
          if ok then dfs (f + 1) (j :: chosen) true;
          List.iter (fun (i, saved_r) -> restr_map.(i) <- saved_r) saved)
        families.(f)
    end
  in
  dfs 0 [] false;
  !terms

let ibuf_of_array a = A1.of_array Bigarray.int Bigarray.c_layout a

let fbuf_make n x =
  let b = A1.create Bigarray.float64 Bigarray.c_layout n in
  A1.fill b x;
  b

(* Flatten one group's raw terms into the SoA/CSR layout.  Term 0 is the
   base term (no stats, no slots); raw terms follow in enumeration order,
   exactly as the boxed layout stored them. *)
let build_group schema ~g_attrs ~g_stats ~local_of_attr ~raw_arr ~t_mask
    ~mask_bits =
  let nt = 1 + Array.length raw_arr in
  let ts_off = Array.make (nt + 1) 0 and fa_off = Array.make (nt + 1) 0 in
  Array.iteri
    (fun k rt ->
      ts_off.(k + 2) <- List.length rt.rt_stats;
      fa_off.(k + 2) <- List.length rt.rt_bound)
    raw_arr;
  for ti = 1 to nt do
    ts_off.(ti) <- ts_off.(ti) + ts_off.(ti - 1);
    fa_off.(ti) <- fa_off.(ti) + fa_off.(ti - 1)
  done;
  let ts_stat = Array.make ts_off.(nt) 0 in
  let n_slots = fa_off.(nt) in
  let fa_attr = Array.make n_slots 0 in
  let slot_restr = Array.make n_slots Ranges.empty in
  Array.iteri
    (fun k rt ->
      let ti = k + 1 in
      List.iteri (fun d j -> ts_stat.(ts_off.(ti) + d) <- j) rt.rt_stats;
      List.iteri
        (fun d (i, r) ->
          fa_attr.(fa_off.(ti) + d) <- i;
          slot_restr.(fa_off.(ti) + d) <- r)
        rt.rt_bound)
    raw_arr;
  let iv_off = Array.make (n_slots + 1) 0 in
  for s = 0 to n_slots - 1 do
    iv_off.(s + 1) <- iv_off.(s) + Ranges.num_intervals slot_restr.(s)
  done;
  let iv_lo = Array.make iv_off.(n_slots) 0
  and iv_hi = Array.make iv_off.(n_slots) 0 in
  for s = 0 to n_slots - 1 do
    let r = slot_restr.(s) in
    for k = 0 to Ranges.num_intervals r - 1 do
      iv_lo.(iv_off.(s) + k) <- Ranges.interval_lo r k;
      iv_hi.(iv_off.(s) + k) <- Ranges.interval_hi r k
    done
  done;
  (* Inverted index: stat -> terms.  Filled in descending term order to
     match the prepend-built association lists of the boxed layout (the
     solver's update order, hence its float trajectories, depend on it). *)
  let n_rows = Array.length g_stats in
  let bys_row = Hashtbl.create (max 16 n_rows) in
  Array.iteri (fun row j -> Hashtbl.add bys_row j row) g_stats;
  let bys_off = Array.make (n_rows + 1) 0 in
  for s = 0 to ts_off.(nt) - 1 do
    let row = Hashtbl.find bys_row ts_stat.(s) in
    bys_off.(row + 1) <- bys_off.(row + 1) + 1
  done;
  for r = 1 to n_rows do
    bys_off.(r) <- bys_off.(r) + bys_off.(r - 1)
  done;
  let bys_term = Array.make ts_off.(nt) 0 in
  let cursor = Array.make n_rows 0 in
  for ti = nt - 1 downto 0 do
    for s = ts_off.(ti) to ts_off.(ti + 1) - 1 do
      let row = Hashtbl.find bys_row ts_stat.(s) in
      bys_term.(bys_off.(row) + cursor.(row)) <- ti;
      cursor.(row) <- cursor.(row) + 1
    done
  done;
  (* Inverted index: local attr -> value -> (term, slot), also filled in
     descending term order. *)
  let n_local = Array.length g_attrs in
  let byv_off =
    Array.init n_local (fun li ->
        Array.make (Schema.domain_size schema g_attrs.(li) + 1) 0)
  in
  for s = 0 to n_slots - 1 do
    let off = byv_off.(local_of_attr.(fa_attr.(s))) in
    for k = iv_off.(s) to iv_off.(s + 1) - 1 do
      for v = iv_lo.(k) to iv_hi.(k) do
        off.(v + 1) <- off.(v + 1) + 1
      done
    done
  done;
  Array.iter
    (fun off ->
      for v = 1 to Array.length off - 1 do
        off.(v) <- off.(v) + off.(v - 1)
      done)
    byv_off;
  let bucket_total off = off.(Array.length off - 1) in
  let byv_term = Array.map (fun off -> Array.make (bucket_total off) 0) byv_off in
  let byv_slot = Array.map (fun off -> Array.make (bucket_total off) 0) byv_off in
  let byv_cursor =
    Array.map (fun off -> Array.make (Array.length off - 1) 0) byv_off
  in
  for ti = nt - 1 downto 0 do
    for s = fa_off.(ti) to fa_off.(ti + 1) - 1 do
      let li = local_of_attr.(fa_attr.(s)) in
      let off = byv_off.(li) and cur = byv_cursor.(li) in
      for k = iv_off.(s) to iv_off.(s + 1) - 1 do
        for v = iv_lo.(k) to iv_hi.(k) do
          let p = off.(v) + cur.(v) in
          byv_term.(li).(p) <- ti;
          byv_slot.(li).(p) <- s;
          cur.(v) <- cur.(v) + 1
        done
      done
    done
  done;
  let fprod = Array.make nt 0. and value = Array.make nt 0. in
  fprod.(0) <- 1.;
  value.(0) <- 1.;
  {
    g_attrs;
    g_stats;
    n_terms = nt;
    ts_off;
    ts_stat;
    fa_off = ibuf_of_array fa_off;
    fa_attr = ibuf_of_array fa_attr;
    factors = fbuf_make n_slots 0.;
    iv_off = ibuf_of_array iv_off;
    iv_lo = ibuf_of_array iv_lo;
    iv_hi = ibuf_of_array iv_hi;
    t_mask = ibuf_of_array t_mask;
    fprod;
    dprod = fbuf_make nt 1.;
    value;
    mask_bits = ibuf_of_array mask_bits;
    mask_sum = Array.make (Array.length mask_bits) 0.;
    mask_outer = Array.make (Array.length mask_bits) 1.;
    q = 0.;
    bys_row;
    bys_off;
    bys_term;
    byv_off;
    byv_term;
    byv_slot;
  }

let create ?(term_cap = 2_000_000) phi =
  let schema = Phi.schema phi in
  let m = Schema.arity schema in
  (* Union-find over attributes through joint statistics. *)
  let parent = Array.init m (fun i -> i) in
  List.iter
    (fun j ->
      match Statistic.attrs (Phi.stat phi j) with
      | [] | [ _ ] -> assert false
      | a0 :: rest -> List.iter (fun a -> Uf.union parent a0 a) rest)
    (Phi.joint_ids phi);
  (* Collect groups: root -> statistic list. *)
  let root_stats : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let a0 = List.hd (Statistic.attrs (Phi.stat phi j)) in
      let root = Uf.find parent a0 in
      match Hashtbl.find_opt root_stats root with
      | Some l -> l := j :: !l
      | None -> Hashtbl.add root_stats root (ref [ j ]))
    (Phi.joint_ids phi);
  let group_of_attr = Array.make m (-1) in
  let group_of_stat = Hashtbl.create 64 in
  let groups = ref [] and g_idx = ref 0 in
  Hashtbl.iter
    (fun root stats ->
      let stats = List.rev !stats in
      let g_attrs =
        List.filter (fun i -> Uf.find parent i = root) (List.init m Fun.id)
        |> List.filter (fun i ->
               List.exists
                 (fun j -> List.mem i (Statistic.attrs (Phi.stat phi j)))
                 stats)
        |> Array.of_list
      in
      let local_of_attr = Array.make m (-1) in
      Array.iteri (fun li i -> local_of_attr.(i) <- li) g_attrs;
      (* Families restricted to this group, in id order. *)
      let g_families =
        Array.to_list (Phi.families phi)
        |> List.filter_map (fun members ->
               let inside =
                 Array.to_list members |> List.filter (fun j -> List.mem j stats)
               in
               if inside = [] then None else Some (Array.of_list inside))
      in
      let raw = enumerate_raw_terms phi ~term_cap ~g_attrs ~g_families in
      (* Assign mask ids: one per distinct restricted-attribute set, in
         term enumeration order. *)
      let mask_ids = Hashtbl.create 8 in
      Hashtbl.add mask_ids 0 0;
      let next_mask = ref 1 in
      let mask_of bound =
        let bits =
          List.fold_left
            (fun acc (i, _) -> acc lor (1 lsl local_of_attr.(i)))
            0 bound
        in
        match Hashtbl.find_opt mask_ids bits with
        | Some k -> k
        | None ->
            let k = !next_mask in
            Hashtbl.add mask_ids bits k;
            incr next_mask;
            k
      in
      let raw_arr = Array.of_list raw in
      let nt = 1 + Array.length raw_arr in
      let t_mask = Array.make nt 0 in
      Array.iteri (fun k rt -> t_mask.(k + 1) <- mask_of rt.rt_bound) raw_arr;
      let mask_bits = Array.make !next_mask 0 in
      Hashtbl.iter (fun bits k -> mask_bits.(k) <- bits) mask_ids;
      let g =
        build_group schema ~g_attrs ~g_stats:(Array.of_list stats)
          ~local_of_attr ~raw_arr ~t_mask ~mask_bits
      in
      Array.iter (fun i -> group_of_attr.(i) <- !g_idx) g_attrs;
      List.iter (fun j -> Hashtbl.add group_of_stat j !g_idx) stats;
      groups := g :: !groups;
      incr g_idx)
    root_stats;
  let groups = Array.of_list (List.rev !groups) in
  let free_attrs =
    Array.of_list
      (List.filter (fun i -> group_of_attr.(i) = -1) (List.init m Fun.id))
  in
  let n = float_of_int (Phi.n phi) in
  let alpha =
    Array.map
      (fun s ->
        match Statistic.kind s with
        (* n = 0 (an empty shard of a partitioned relation): every target
           is 0, so seed the variables at 0 rather than 0/0 = nan; the
           degenerate model answers every query with 0 via the P <= 0
           guards below. *)
        | Statistic.Marginal _ -> if n > 0. then Statistic.target s /. n else 0.
        | Statistic.Joint _ -> 1.)
      (Phi.stats phi)
  in
  let t =
    {
      phi = Some phi;
      schema;
      m;
      n = Phi.n phi;
      marg_off = Array.init m (fun i -> Phi.marginal_id phi ~attr:i ~value:0);
      alpha = A1.of_array Bigarray.float64 Bigarray.c_layout alpha;
      attr_sums = fbuf_make m 0.;
      groups;
      group_of_attr;
      group_of_stat;
      free_attrs;
      p = 0.;
      prefix =
        Array.init m (fun i -> fbuf_make (Schema.domain_size schema i + 1) 0.);
      prefix_valid = false;
      scratch = make_scratch schema groups;
      scratch_busy = Atomic.make false;
    }
  in
  refresh t;
  t

(* ------------------------------------------------------------------ *)
(* Read-only views                                                     *)
(* ------------------------------------------------------------------ *)

(* A read-only polynomial over tables someone else owns — in practice
   the Bigarray views of a mapped format-v3 file.  Only the kernel
   tables are needed; the update-path tables (ts, bys, byv) and the
   per-term caches the kernels never read (fprod, value, mask_sum,
   mask_outer) are left empty, which is safe because every mutator is
   refused.  The prefix sums arrive finalized, so [ensure_prefix] never
   writes through the views. *)
type view_group = {
  vg_attrs : int array;
  vg_n_terms : int;
  vg_q : float;
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

let of_views ~schema ~n ~p ~alpha ~attr_sums ~prefix ~free_attrs
    ~group_of_attr groups =
  let m = Schema.arity schema in
  let marg_off = Array.make m 0 in
  for i = 1 to m - 1 do
    marg_off.(i) <- marg_off.(i - 1) + Schema.domain_size schema (i - 1)
  done;
  let groups =
    Array.map
      (fun vg ->
        {
          g_attrs = vg.vg_attrs;
          g_stats = [||];
          n_terms = vg.vg_n_terms;
          ts_off = [||];
          ts_stat = [||];
          fa_off = vg.vg_fa_off;
          fa_attr = vg.vg_fa_attr;
          factors = vg.vg_factors;
          iv_off = vg.vg_iv_off;
          iv_lo = vg.vg_iv_lo;
          iv_hi = vg.vg_iv_hi;
          t_mask = vg.vg_t_mask;
          fprod = [||];
          dprod = vg.vg_dprod;
          value = [||];
          mask_bits = vg.vg_mask_bits;
          mask_sum = [||];
          mask_outer = [||];
          q = vg.vg_q;
          bys_row = Hashtbl.create 1;
          bys_off = [||];
          bys_term = [||];
          byv_off = [||];
          byv_term = [||];
          byv_slot = [||];
        })
      groups
  in
  {
    phi = None;
    schema;
    m;
    n;
    marg_off;
    alpha;
    attr_sums;
    groups;
    group_of_attr;
    group_of_stat = Hashtbl.create 1;
    free_attrs;
    p;
    prefix;
    prefix_valid = true;
    scratch = make_scratch schema groups;
    scratch_busy = Atomic.make false;
  }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let phi t = writable t "Poly.phi"
let schema t = t.schema
let cardinality t = t.n
let num_stats t = A1.dim t.alpha

let num_marginals t =
  Array.fold_left ( + ) 0 (Array.init t.m (Schema.domain_size t.schema))

let p t = t.p
let alpha t j = t.alpha.{j}
let attr_sum t i = t.attr_sums.{i}
let num_terms t = Array.fold_left (fun acc g -> acc + g.n_terms) 0 t.groups
let num_groups t = Array.length t.groups
let uncompressed_monomials t = Schema.tuple_space_size t.schema

(* ------------------------------------------------------------------ *)
(* Table export (summary format v3)                                    *)
(* ------------------------------------------------------------------ *)

(* The flat SoA tables, exposed for the zero-copy serializer: format v3
   writes exactly these arrays to disk so a mapped summary's kernel walks
   the same bits the heap kernel does.  The arrays are shared with the
   polynomial, not copied — callers must treat them as read-only. *)
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

let group_tables g =
  {
    gt_attrs = g.g_attrs;
    gt_stats = g.g_stats;
    gt_n_terms = g.n_terms;
    gt_ts_off = g.ts_off;
    gt_ts_stat = g.ts_stat;
    gt_fa_off = g.fa_off;
    gt_fa_attr = g.fa_attr;
    gt_factors = g.factors;
    gt_iv_off = g.iv_off;
    gt_iv_lo = g.iv_lo;
    gt_iv_hi = g.iv_hi;
    gt_t_mask = g.t_mask;
    gt_fprod = g.fprod;
    gt_dprod = g.dprod;
    gt_value = g.value;
    gt_mask_bits = g.mask_bits;
    gt_mask_sum = g.mask_sum;
    gt_mask_outer = g.mask_outer;
    gt_q = g.q;
    gt_bys_off = g.bys_off;
    gt_bys_term = g.bys_term;
    gt_byv_off = g.byv_off;
    gt_byv_term = g.byv_term;
    gt_byv_slot = g.byv_slot;
  }

let tables t =
  ensure_prefix t;
  {
    tb_alpha = t.alpha;
    tb_attr_sums = t.attr_sums;
    tb_prefix = t.prefix;
    tb_p = t.p;
    tb_free_attrs = t.free_attrs;
    tb_group_of_attr = t.group_of_attr;
    tb_groups = Array.map group_tables t.groups;
  }

(* Resident size estimate in bytes: one word per table element plus the
   prefix tables — the weighted catalog charges heap entries with this. *)
let footprint_bytes t =
  let word = 8 in
  let acc = ref (word * (A1.dim t.alpha + A1.dim t.attr_sums)) in
  Array.iter (fun pre -> acc := !acc + (word * A1.dim pre)) t.prefix;
  Array.iter
    (fun g ->
      let ints =
        Array.length g.ts_off + Array.length g.ts_stat + A1.dim g.fa_off
        + A1.dim g.fa_attr + A1.dim g.iv_off + A1.dim g.iv_lo
        + A1.dim g.iv_hi + A1.dim g.t_mask + A1.dim g.mask_bits
        + Array.length g.bys_off + Array.length g.bys_term
      in
      let ints =
        Array.fold_left (fun a o -> a + Array.length o) ints g.byv_off
      in
      let ints =
        Array.fold_left (fun a o -> a + Array.length o) ints g.byv_term
      in
      let ints =
        Array.fold_left (fun a o -> a + Array.length o) ints g.byv_slot
      in
      let floats =
        A1.dim g.factors + Array.length g.fprod + A1.dim g.dprod
        + Array.length g.value + Array.length g.mask_sum
        + Array.length g.mask_outer
      in
      acc := !acc + (word * (ints + floats)))
    t.groups;
  !acc

(* ------------------------------------------------------------------ *)
(* Incremental variable update                                         *)
(* ------------------------------------------------------------------ *)

let local_of g attr =
  let rec find k = if g.g_attrs.(k) = attr then k else find (k + 1) in
  find 0

let set_alpha t j v =
  let phi = writable t "Poly.set_alpha" in
  let old = t.alpha.{j} in
  if old <> v then begin
    t.alpha.{j} <- v;
    t.prefix_valid <- false;
    (match Statistic.kind (Phi.stat phi j) with
    | Statistic.Marginal { attr; value } ->
        let delta = v -. old in
        t.attr_sums.{attr} <- t.attr_sums.{attr} +. delta;
        let gi = t.group_of_attr.(attr) in
        if gi >= 0 then begin
          let g = t.groups.(gi) in
          let li = local_of g attr in
          let off = g.byv_off.(li) in
          let terms = g.byv_term.(li) and slots = g.byv_slot.(li) in
          for p = off.(value) to off.(value + 1) - 1 do
            let ti = terms.(p) and s = slots.(p) in
            g.factors.{s} <- g.factors.{s} +. delta;
            g.fprod.(ti) <- fprod_of g ti;
            let value' = g.fprod.(ti) *. g.dprod.{ti} in
            g.mask_sum.(g.t_mask.{ti}) <-
              g.mask_sum.(g.t_mask.{ti}) +. value' -. g.value.(ti);
            g.value.(ti) <- value'
          done;
          recompute_group_q t g
        end
    | Statistic.Joint _ ->
        let gi = Hashtbl.find t.group_of_stat j in
        let g = t.groups.(gi) in
        (match Hashtbl.find_opt g.bys_row j with
        | None -> ()
        | Some row ->
            for p = g.bys_off.(row) to g.bys_off.(row + 1) - 1 do
              let ti = g.bys_term.(p) in
              g.dprod.{ti} <- dprod_of t g ti;
              let value' = g.fprod.(ti) *. g.dprod.{ti} in
              g.mask_sum.(g.t_mask.{ti}) <-
                g.mask_sum.(g.t_mask.{ti}) +. value' -. g.value.(ti);
              g.value.(ti) <- value'
            done);
        recompute_group_q t g);
    t.p <- compute_p t
  end

(* Scale normalization.  Every monomial contains exactly one marginal
   variable of every attribute (overcompleteness), so multiplying all of
   attribute i's marginals by c multiplies P by c and leaves every
   expectation, estimate, and the dual unchanged.  Normalizing each
   attribute sum to 1 therefore pins P to a bounded magnitude; without it,
   unrealizable targets (noisy or privatized statistics) make the
   coordinate iteration drift P towards 0 or infinity. *)
let normalize t =
  ignore (writable t "Poly.normalize");
  let changed = ref false in
  for i = 0 to t.m - 1 do
    let a = t.attr_sums.{i} in
    if a > 0. && a <> 1. then begin
      changed := true;
      for v = 0 to Schema.domain_size t.schema i - 1 do
        let j = t.marg_off.(i) + v in
        t.alpha.{j} <- t.alpha.{j} /. a
      done
    end
  done;
  if !changed then refresh t

(* Bulk variable assignment (used by the gradient solver's simultaneous
   updates and by deserialization): copy the whole vector, then rebuild all
   cached state in one pass. *)
let set_alphas t values =
  ignore (writable t "Poly.set_alphas");
  if Array.length values <> A1.dim t.alpha then
    invalid_arg "Poly.set_alphas: wrong vector length";
  Array.iteri (fun j v -> t.alpha.{j} <- v) values;
  refresh t

let alphas t = Array.init (A1.dim t.alpha) (fun j -> t.alpha.{j})

(* Reset variables to an initialization strategy: [`Marginals] seeds 1D
   variables at s_j/n (exact for a marginals-only model), [`Uniform] seeds
   everything at 1 (the uninformed start).  Joints start at 1 in both. *)
let reinit t strategy =
  let phi = writable t "Poly.reinit" in
  let n = float_of_int t.n in
  Array.iter
    (fun s ->
      let j = Statistic.id s in
      t.alpha.{j} <-
        (match (Statistic.kind s, strategy) with
        | Statistic.Marginal _, `Marginals ->
            if n > 0. then Statistic.target s /. n else 0.
        | _, _ -> 1.))
    (Phi.stats phi);
  refresh t

(* ------------------------------------------------------------------ *)
(* Derivatives and expectations                                        *)
(* ------------------------------------------------------------------ *)

(* prod over free attrs and groups, excluding one of each. *)
let outer_product t ~skip_attr ~skip_group =
  let acc = ref 1. in
  Array.iter
    (fun i -> if i <> skip_attr then acc := !acc *. t.attr_sums.{i})
    t.free_attrs;
  Array.iteri
    (fun gi g -> if gi <> skip_group then acc := !acc *. g.q)
    t.groups;
  !acc

let[@inline] factors_product_excluding g ti ~slot =
  let acc = ref 1. in
  for s = g.fa_off.{ti} to g.fa_off.{ti + 1} - 1 do
    if s <> slot then acc := !acc *. g.factors.{s}
  done;
  !acc

(* dP/dalpha_j.  P is linear in every variable (each statistic predicate is
   0/1 on every tuple), so the derivative is the sum of the terms whose
   monomials contain the variable, with the variable's own factor
   removed.  Needs the update-path tables, so solver-only. *)
let partial t j =
  match Statistic.kind (Phi.stat (writable t "Poly.partial") j) with
  | Statistic.Marginal { attr; value } ->
      let gi = t.group_of_attr.(attr) in
      if gi < 0 then outer_product t ~skip_attr:attr ~skip_group:(-1)
      else begin
        let g = t.groups.(gi) in
        let li = local_of g attr in
        let n_local = Array.length g.g_attrs in
        let dq = ref 0. in
        (* Masks not restricting [attr]: the variable enters through the
           full attribute sum A_attr of the outer product. *)
        for k = 0 to A1.dim g.mask_bits - 1 do
          let bits = g.mask_bits.{k} in
          if bits land (1 lsl li) = 0 then begin
            let outer = ref 1. in
            for li' = 0 to n_local - 1 do
              if li' <> li && bits land (1 lsl li') = 0 then
                outer := !outer *. t.attr_sums.{g.g_attrs.(li')}
            done;
            dq := !dq +. (g.mask_sum.(k) *. !outer)
          end
        done;
        (* Terms restricting [attr] with [value] inside their projection:
           the variable enters through the term's own factor. *)
        let off = g.byv_off.(li) in
        let terms = g.byv_term.(li) and slots = g.byv_slot.(li) in
        for p = off.(value) to off.(value + 1) - 1 do
          let ti = terms.(p) in
          dq :=
            !dq
            +. factors_product_excluding g ti ~slot:slots.(p)
               *. g.dprod.{ti} *. g.mask_outer.(g.t_mask.{ti})
        done;
        outer_product t ~skip_attr:(-1) ~skip_group:gi *. !dq
      end
  | Statistic.Joint _ ->
      let gi = Hashtbl.find t.group_of_stat j in
      let g = t.groups.(gi) in
      let dq = ref 0. in
      (match Hashtbl.find_opt g.bys_row j with
      | None -> ()
      | Some row ->
          for p = g.bys_off.(row) to g.bys_off.(row + 1) - 1 do
            let ti = g.bys_term.(p) in
            let rest = ref 1. in
            for s = g.ts_off.(ti) to g.ts_off.(ti + 1) - 1 do
              let j' = g.ts_stat.(s) in
              if j' <> j then rest := !rest *. (t.alpha.{j'} -. 1.)
            done;
            dq := !dq +. (g.fprod.(ti) *. !rest *. g.mask_outer.(g.t_mask.{ti}))
          done);
      outer_product t ~skip_attr:(-1) ~skip_group:gi *. !dq

(* E[<c_j, I>] = n * alpha_j * dP/dalpha_j / P   (Eq. 8). *)
let expected t j =
  if t.p <= 0. then 0.
  else float_of_int t.n *. t.alpha.{j} *. partial t j /. t.p

(* ------------------------------------------------------------------ *)
(* Restricted evaluation: query answering by zeroing (Sec. 4.2)        *)
(* ------------------------------------------------------------------ *)

(* Worker count for restricted evaluation over large groups; configured
   globally (CLI/bench read EDB_DOMAINS).  Chunk workers only read the
   cached state, which [ensure_prefix] finalizes before any spawn. *)
let parallelism = ref (Parallel.default_domains ())
let parallel_threshold = ref 30_000

let set_parallelism ?threshold n =
  parallelism := max 1 n;
  match threshold with
  | Some th -> parallel_threshold := max 1 th
  | None -> ()

(* Floor of the cancellation clamp on restricted group values.  0 in
   production; the correctness harness raises it to plant a detectable
   estimator bug (entropydb check --mutate clamp).  The clamp applies to
   the *group value*, after mask combination — it never looks at the
   term layout, which is why the SoA rewrite leaves it untouched. *)
let cancellation_floor = ref 0.
let set_cancellation_floor f = cancellation_floor := f

(* A_i restricted to the query's value set (the full sum when the query
   leaves attribute [i] free). *)
let[@inline] restricted_attr_sum t query i =
  match Predicate.restriction query i with
  | None -> t.attr_sums.{i}
  | Some r -> range_sum t.prefix.(i) r

(* Restricted masses of terms [lo, hi) accumulated into [msum] by mask:
   the inner loop of both restricted kernels.  A top-level function, not
   a closure, so the single-domain path allocates nothing. *)
let accumulate_masses t query g msum ~lo ~hi =
  let fa_off = g.fa_off
  and fa_attr = g.fa_attr
  and factors = g.factors
  and dprod = g.dprod
  and t_mask = g.t_mask
  and prefix = t.prefix in
  let f = ref 0. in
  for ti = lo to hi - 1 do
    f := A1.unsafe_get dprod ti;
    (try
       for s = A1.unsafe_get fa_off ti to A1.unsafe_get fa_off (ti + 1) - 1 do
         let i = A1.unsafe_get fa_attr s in
         let factor =
           match Predicate.restriction query i with
           | None -> A1.unsafe_get factors s
           | Some qr -> inter_sum (Array.unsafe_get prefix i) g s qr
         in
         if factor = 0. then raise Exit;
         f := !f *. factor
       done
     with Exit -> f := 0.);
    let mask = A1.unsafe_get t_mask ti in
    Array.unsafe_set msum mask (Array.unsafe_get msum mask +. !f)
  done

(* Q_g under the query's restrictions: the per-group part of restricted
   evaluation, shared by [eval_restricted] and the batched GROUP BY
   kernel below.  Groups below the parallel threshold accumulate into
   the scratch block; large groups keep the chunked Parallel.fold (whose
   per-chunk arrays are the price of running on several domains). *)
let restricted_group_q t query g sc =
  let n_local = Array.length g.g_attrs in
  for li = 0 to n_local - 1 do
    sc.ra.(li) <- restricted_attr_sum t query g.g_attrs.(li)
  done;
  let num_masks = A1.dim g.mask_bits in
  let msum =
    if g.n_terms >= !parallel_threshold && !parallelism > 1 then
      Parallel.fold ~domains:!parallelism ~n:g.n_terms
        ~chunk:(fun ~lo ~hi ->
          let local = Array.make num_masks 0. in
          accumulate_masses t query g local ~lo ~hi;
          local)
        ~combine:(fun a b ->
          Array.iteri (fun k v -> a.(k) <- a.(k) +. v) b;
          a)
        ~init:(Array.make num_masks 0.)
    else begin
      Array.fill sc.msum 0 num_masks 0.;
      accumulate_masses t query g sc.msum ~lo:0 ~hi:g.n_terms;
      sc.msum
    end
  in
  let q = ref 0. in
  for k = 0 to num_masks - 1 do
    if msum.(k) <> 0. then begin
      let bits = g.mask_bits.{k} in
      let outer = ref 1. in
      for li = 0 to n_local - 1 do
        if bits land (1 lsl li) = 0 then outer := !outer *. sc.ra.(li)
      done;
      q := !q +. (msum.(k) *. !outer)
    end
  done;
  (* Q_g is a sum of non-negative monomials; clamp the tiny negative
     values floating-point cancellation can produce.  The floor is 0 in
     production; [set_cancellation_floor] raises it for fault injection. *)
  Float.max !cancellation_floor !q

(* P with every 1D variable outside the query's per-attribute restrictions
   set to 0.  Nothing is rebuilt: restricted attribute sums and term
   factors are recomputed from prefix sums over the current alpha. *)
let eval_restricted_sc t query sc =
  ensure_prefix t;
  let acc = ref 1. in
  for k = 0 to Array.length t.free_attrs - 1 do
    acc := !acc *. restricted_attr_sum t query t.free_attrs.(k)
  done;
  for gi = 0 to Array.length t.groups - 1 do
    acc := !acc *. restricted_group_q t query t.groups.(gi) sc
  done;
  !acc

let[@inline] alpha_of t ~attr v = t.alpha.{t.marg_off.(attr) + v}

(* Term pass of the batched GROUP BY kernel over terms [lo, hi): masses
   of terms leaving [attr] unmasked accumulate into [msum] by mask;
   terms restricting [attr] scatter their remaining product, weighted by
   the mask's outer product [coef], into the cells of their projection ∩
   query.  Top-level for the same zero-allocation reason as
   [accumulate_masses]. *)
let accumulate_by_value t query g ~attr ~q_attr coef msum scatter ~lo ~hi =
  let fa_off = g.fa_off
  and fa_attr = g.fa_attr
  and factors = g.factors
  and dprod = g.dprod
  and t_mask = g.t_mask
  and iv_off = g.iv_off
  and iv_lo = g.iv_lo
  and iv_hi = g.iv_hi
  and prefix = t.prefix in
  let f = ref 0. in
  for ti = lo to hi - 1 do
    let s0 = A1.unsafe_get fa_off ti and s1 = A1.unsafe_get fa_off (ti + 1) in
    (* One pass over the slots: multiply the non-[attr] factors in slot
       order (the order the boxed layout used) while remembering [attr]'s
       slot.  Slots are one-per-attribute, so skipping [attr] inline is
       the same exclusion as a separate scan. *)
    let attr_slot = ref (-1) in
    f := A1.unsafe_get dprod ti;
    (try
       for s = s0 to s1 - 1 do
         let i = A1.unsafe_get fa_attr s in
         if i = attr then attr_slot := s
         else begin
           let factor =
             match Predicate.restriction query i with
             | None -> A1.unsafe_get factors s
             | Some qr -> inter_sum (Array.unsafe_get prefix i) g s qr
           in
           if factor = 0. then raise Exit;
           f := !f *. factor
         end
       done
     with Exit -> f := 0.);
    let attr_slot = !attr_slot in
    let fv = !f in
    if fv <> 0. then
      let mask = A1.unsafe_get t_mask ti in
      if attr_slot < 0 then
        Array.unsafe_set msum mask (Array.unsafe_get msum mask +. fv)
      else begin
        let w = fv *. Array.unsafe_get coef mask in
        match q_attr with
        | None ->
            for k = A1.unsafe_get iv_off attr_slot
                 to A1.unsafe_get iv_off (attr_slot + 1) - 1
            do
              for v = A1.unsafe_get iv_lo k to A1.unsafe_get iv_hi k do
                Array.unsafe_set scatter v (Array.unsafe_get scatter v +. w)
              done
            done
        | Some qr ->
            (* Merge walk over (slot ∩ query), as in [inter_sum]. *)
            let k = ref (A1.unsafe_get iv_off attr_slot) and j = ref 0 in
            let k1 = A1.unsafe_get iv_off (attr_slot + 1) in
            let nq = Ranges.num_intervals qr in
            while !k < k1 && !j < nq do
              let alo = A1.unsafe_get iv_lo !k
              and ahi = A1.unsafe_get iv_hi !k in
              let blo = Ranges.interval_lo qr !j
              and bhi = Ranges.interval_hi qr !j in
              let lo = if alo > blo then alo else blo in
              let hi = if ahi < bhi then ahi else bhi in
              if lo <= hi then
                for v = lo to hi do
                  Array.unsafe_set scatter v (Array.unsafe_get scatter v +. w)
                done;
              if ahi < bhi then incr k else incr j
            done
      end
  done

(* Batched GROUP BY kernel: restricted P for *all* cells of a grouping
   attribute in one pass over the terms.

   Every monomial contains exactly one marginal variable of [attr], so
   the cell for value v is P[query restricted, attr restricted to {v}]
   and the attribute's own contribution to each monomial is the single
   factor alpha_{attr,v}:

   - [attr] free (not in any group): every cell shares the same product
     of the other restricted factors; the cell value is that product
     times alpha_{attr,v}.
   - [attr] in group g: a term of g either leaves [attr] unmasked — its
     restricted mass enters every cell through alpha_{attr,v} times the
     mask's outer product over the *other* group attributes — or
     restricts [attr] at some slot, in which case its remaining product
     scatters into exactly the cells of projection ∩ query.

   Total cost O(terms + Σ|projection ∩ query| + #masks·|g_attrs| +
   N_attr) instead of the per-cell scan's O(N_attr × terms).  Cells
   outside the query's restriction on [attr] are 0.  Each cell's Q_g
   gets the same cancellation clamp as [eval_restricted], so cell values
   match the per-cell path up to float reassociation. *)
let eval_by_value_sc t query ~attr out sc =
  ensure_prefix t;
  let size = Schema.domain_size t.schema attr in
  Array.fill out 0 size 0.;
  let q_attr = Predicate.restriction query attr in
  let gi = t.group_of_attr.(attr) in
  (* Factors not involving [attr], shared by every cell. *)
  let base = ref 1. in
  for k = 0 to Array.length t.free_attrs - 1 do
    let i = t.free_attrs.(k) in
    if i <> attr then base := !base *. restricted_attr_sum t query i
  done;
  for gj = 0 to Array.length t.groups - 1 do
    if gj <> gi then base := !base *. restricted_group_q t query t.groups.(gj) sc
  done;
  let base = !base in
  if gi < 0 then begin
    match q_attr with
    | None ->
        for v = 0 to size - 1 do
          out.(v) <- base *. alpha_of t ~attr v
        done
    | Some r ->
        for k = 0 to Ranges.num_intervals r - 1 do
          for v = Ranges.interval_lo r k to Ranges.interval_hi r k do
            out.(v) <- base *. alpha_of t ~attr v
          done
        done
  end
  else begin
    let g = t.groups.(gi) in
    let li = local_of g attr in
    let n_local = Array.length g.g_attrs in
    let num_masks = A1.dim g.mask_bits in
    (* Per-mask outer products over the group's other attributes;
       [attr]'s own factor is applied per cell. *)
    let coef = sc.coef in
    for k = 0 to num_masks - 1 do
      let bits = g.mask_bits.{k} in
      let outer = ref 1. in
      for li' = 0 to n_local - 1 do
        if li' <> li && bits land (1 lsl li') = 0 then
          outer := !outer *. restricted_attr_sum t query g.g_attrs.(li')
      done;
      coef.(k) <- !outer
    done;
    let msum, scatter =
      if g.n_terms >= !parallel_threshold && !parallelism > 1 then
        Parallel.fold ~domains:!parallelism ~n:g.n_terms
          ~chunk:(fun ~lo ~hi ->
            let msum = Array.make num_masks 0. in
            let scatter = Array.make size 0. in
            accumulate_by_value t query g ~attr ~q_attr coef msum scatter ~lo
              ~hi;
            (msum, scatter))
          ~combine:(fun (ma, sa) (mb, sb) ->
            Array.iteri (fun k v -> ma.(k) <- ma.(k) +. v) mb;
            Array.iteri (fun v x -> sa.(v) <- sa.(v) +. x) sb;
            (ma, sa))
          ~init:(Array.make num_masks 0., Array.make size 0.)
      else begin
        Array.fill sc.msum 0 num_masks 0.;
        Array.fill sc.scatter 0 size 0.;
        accumulate_by_value t query g ~attr ~q_attr coef sc.msum sc.scatter
          ~lo:0 ~hi:g.n_terms;
        (sc.msum, sc.scatter)
      end
    in
    (* Masses of the terms leaving [attr] unmasked, with their outer
       products; these enter every cell through alpha_{attr,v}. *)
    let scalar = ref 0. in
    for k = 0 to num_masks - 1 do
      if g.mask_bits.{k} land (1 lsl li) = 0 && msum.(k) <> 0. then
        scalar := !scalar +. (msum.(k) *. coef.(k))
    done;
    let scalar = !scalar in
    match q_attr with
    | None ->
        for v = 0 to size - 1 do
          out.(v) <-
            base
            *. Float.max !cancellation_floor
                 (alpha_of t ~attr v *. (scalar +. scatter.(v)))
        done
    | Some r ->
        for k = 0 to Ranges.num_intervals r - 1 do
          for v = Ranges.interval_lo r k to Ranges.interval_hi r k do
            out.(v) <-
              base
              *. Float.max !cancellation_floor
                   (alpha_of t ~attr v *. (scalar +. scatter.(v)))
          done
        done
  end

(* Weighted evaluation: sum over tuples satisfying [query] of
   prod_i w_i(t_i) * monomial(t), for product-form per-tuple weights.
   Because P is linear in every marginal variable, substituting
   alpha_{i,v} -> alpha_{i,v} * w_i(v) computes exactly this sum; that is
   what lets the same factorized representation answer SUM and AVG
   queries (a strictly larger class of the paper's linear queries than
   counting). *)
let eval_weighted_impl t query ~weights =
  ensure_prefix t;
  (* Per-attribute prefix sums of weighted alphas; [weights] gives a
     weight function for the attributes it covers, all others weigh 1 and
     reuse the cached prefixes.  [all_nonneg] records whether every
     weighted alpha stayed >= 0 (unweighted alphas always are): exactly
     then every monomial of the weighted sum is non-negative and each
     group value may be clamped at 0 like [eval_restricted]'s, so
     floating-point cancellation cannot flip a SUM estimate's sign. *)
  let all_nonneg = ref true in
  let prefix_of =
    let overridden = Hashtbl.create 4 in
    List.iter
      (fun (attr, w) ->
        let size = Schema.domain_size t.schema attr in
        let pre = fbuf_make (size + 1) 0. in
        for v = 0 to size - 1 do
          let wa = alpha_of t ~attr v *. w v in
          if wa < 0. then all_nonneg := false;
          pre.{v + 1} <- pre.{v} +. wa
        done;
        Hashtbl.replace overridden attr pre)
      weights;
    fun attr ->
      match Hashtbl.find_opt overridden attr with
      | Some pre -> pre
      | None -> t.prefix.(attr)
  in
  let attr_total i =
    let pre = prefix_of i in
    match Predicate.restriction query i with
    | None -> pre.{Schema.domain_size t.schema i}
    | Some r -> range_sum pre r
  in
  let acc = ref 1. in
  Array.iter (fun i -> acc := !acc *. attr_total i) t.free_attrs;
  Array.iter
    (fun g ->
      let totals = Array.map attr_total g.g_attrs in
      let num_masks = A1.dim g.mask_bits in
      let msum = Array.make num_masks 0. in
      for ti = 0 to g.n_terms - 1 do
        let f = ref g.dprod.{ti} in
        (try
           for s = g.fa_off.{ti} to g.fa_off.{ti + 1} - 1 do
             let i = g.fa_attr.{s} in
             let pre = prefix_of i in
             let factor =
               match Predicate.restriction query i with
               | None -> slot_sum pre g s
               | Some qr -> inter_sum pre g s qr
             in
             if factor = 0. then raise Exit;
             f := !f *. factor
           done
         with Exit -> f := 0.);
        msum.(g.t_mask.{ti}) <- msum.(g.t_mask.{ti}) +. !f
      done;
      let q = ref 0. in
      for k = 0 to num_masks - 1 do
        if msum.(k) <> 0. then begin
          let bits = g.mask_bits.{k} in
          let outer = ref 1. in
          Array.iteri
            (fun li _ ->
              if bits land (1 lsl li) = 0 then outer := !outer *. totals.(li))
            g.g_attrs;
          q := !q +. (msum.(k) *. !outer)
        end
      done;
      (* With non-negative weights Q_g is a sum of non-negative monomials
         exactly as in [eval_restricted]; apply the same cancellation
         clamp.  Genuinely signed weights keep their sign. *)
      let q = if !all_nonneg then Float.max 0. !q else !q in
      acc := !acc *. q)
    t.groups;
  !acc

(* ------------------------------------------------------------------ *)
(* Public kernel entry points: scratch claim + observability           *)
(* ------------------------------------------------------------------ *)

let observe_eval_ns t0 =
  Edb_obs.Registry.Hist.observe_us eval_ns_hist ((Timing.now_s () -. t0) *. 1e9)

let eval_restricted t query =
  Edb_obs.Registry.Counter.incr evals_counter;
  if Obs.enabled () then begin
    let t0 = Timing.now_s () in
    let r =
      Obs.with_span "poly.eval_restricted" ~cat:"answer" (fun () ->
          let sc = acquire_scratch t in
          Fun.protect
            ~finally:(fun () -> release_scratch t sc)
            (fun () -> eval_restricted_sc t query sc))
    in
    observe_eval_ns t0;
    r
  end
  else begin
    let sc = acquire_scratch t in
    match eval_restricted_sc t query sc with
    | r ->
        release_scratch t sc;
        r
    | exception e ->
        release_scratch t sc;
        raise e
  end

let eval_restricted_by_value_into t query ~attr ~out =
  let size = Schema.domain_size t.schema attr in
  if Array.length out < size then
    invalid_arg "Poly.eval_restricted_by_value_into: out buffer too small";
  Edb_obs.Registry.Counter.incr evals_counter;
  if Obs.enabled () then begin
    let t0 = Timing.now_s () in
    Obs.with_span "poly.eval_restricted_by_value" ~cat:"answer" (fun () ->
        let sc = acquire_scratch t in
        Fun.protect
          ~finally:(fun () -> release_scratch t sc)
          (fun () -> eval_by_value_sc t query ~attr out sc));
    observe_eval_ns t0
  end
  else begin
    let sc = acquire_scratch t in
    match eval_by_value_sc t query ~attr out sc with
    | () -> release_scratch t sc
    | exception e ->
        release_scratch t sc;
        raise e
  end

let eval_restricted_by_value t query ~attr =
  let out = Array.make (Schema.domain_size t.schema attr) 0. in
  eval_restricted_by_value_into t query ~attr ~out;
  out

let eval_weighted t query ~weights =
  Edb_obs.Registry.Counter.incr evals_counter;
  if Obs.enabled () then begin
    let t0 = Timing.now_s () in
    let r =
      Obs.with_span "poly.eval_weighted" ~cat:"answer" (fun () ->
          eval_weighted_impl t query ~weights)
    in
    observe_eval_ns t0;
    r
  end
  else eval_weighted_impl t query ~weights

(* E[<q, I>] = n / P * P[zeroed]  — the final formula of Sec. 4.2. *)
let estimate t query =
  if Predicate.is_unsatisfiable query then 0.
  else if t.p <= 0. then 0.
  else float_of_int t.n *. eval_restricted t query /. t.p

let estimate_weighted t query ~weights =
  if Predicate.is_unsatisfiable query then 0.
  else if t.p <= 0. then 0.
  else float_of_int t.n *. eval_weighted t query ~weights /. t.p

(* The dual objective Psi = sum_j s_j ln alpha_j - n ln P  (Eq. 11).
   Statistics with s_j = 0 contribute lim_{a->0} 0*ln a = 0. *)
let dual t =
  let phi = writable t "Poly.dual" in
  let acc = ref 0. in
  Array.iter
    (fun s ->
      let sj = Statistic.target s in
      if sj > 0. then begin
        let a = t.alpha.{Statistic.id s} in
        if a > 0. then acc := !acc +. (sj *. log a)
        else acc := Float.neg_infinity
      end)
    (Phi.stats phi);
  if t.p > 0. then !acc -. (float_of_int t.n *. log t.p)
  else Float.neg_infinity
