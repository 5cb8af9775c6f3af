(* Zero-copy mapped summaries: query a format-v3 file straight off its
   mmap, without heap-loading the body.

   [open_file] validates the header and manifest (O(header + manifest)
   I/O), maps the whole file three times — char for checksumming,
   float64 and native-int for the kernel — and carves the section views
   with [Bigarray.Array1.sub].  Three maps per file (not per section)
   keeps the per-summary mapping count constant, so a thousand-summary
   catalog stays far from vm.max_map_count.

   There is no evaluator here.  The views become a read-only [Poly.t]
   ([Poly.of_views]: n, P and the group metadata from the manifest, no
   Phi) wrapped in a [Summary.t], so a mapped summary answers through
   the very kernel and estimator surface a heap summary does.  The
   writer ([Serialize.save_v3]) refreshes the polynomial before
   exporting its tables, so the mapped tables are the tables any heap
   loader rebuilds, and answers agree bit for bit — at any
   [Poly.set_parallelism], since both sides take the same code path.

   Integrity: the body is NOT verified at open (that would break the
   O(1) open).  [summary] is the only way to the tables, and it runs
   [ensure_verified] — every section checksum, once, behind an
   idempotent Atomic latch — before handing them out, so corruption
   surfaces as [Serialize.Format_error "section %s checksum mismatch"]
   — never a crash, never a silently wrong answer.  The kernel's unsafe
   accesses are sound because they only ever run on verified bytes,
   which are exactly the bytes a valid polynomial exported. *)

open Edb_util
open Edb_storage
module A1 = Bigarray.Array1

type t = {
  path : string;
  manifest : Serialize.v3_manifest;
  size_bytes : int;
  cview : Crc32.bigchar; (* whole file, for checksumming *)
  summary : Summary.t; (* over unverified views: reach it via [summary] *)
  verified : bool Atomic.t;
}

let opens_counter = Edb_obs.Registry.counter "mapped.opens"

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let find_section manifest name =
  let rec go = function
    | [] -> raise (Serialize.Format_error ("missing section " ^ name))
    | s :: rest -> if s.Serialize.sec_name = name then s else go rest
  in
  go manifest.Serialize.v3_sections

let open_file path =
  Edb_obs.Obs.with_span "mapped.open" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  Edb_obs.Registry.Counter.incr opens_counter;
  let manifest = Serialize.v3_manifest_of path in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let size, cview, fview, iview =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        let map kind n =
          Bigarray.array1_of_genarray
            (Unix.map_file fd kind Bigarray.c_layout false [| n |])
        in
        ( size,
          (map Bigarray.char size : Crc32.bigchar),
          (map Bigarray.float64 (size / 8) : Poly.fbuf),
          (map Bigarray.int (size / 8) : Poly.ibuf) ))
  in
  let fslice name : Poly.fbuf =
    let s = find_section manifest name in
    if not s.Serialize.sec_float then
      raise
        (Serialize.Format_error
           (Printf.sprintf "section %s has the wrong element kind" name));
    A1.sub fview (s.Serialize.sec_off / 8) s.Serialize.sec_len
  in
  let islice name : Poly.ibuf =
    let s = find_section manifest name in
    if s.Serialize.sec_float then
      raise
        (Serialize.Format_error
           (Printf.sprintf "section %s has the wrong element kind" name));
    A1.sub iview (s.Serialize.sec_off / 8) s.Serialize.sec_len
  in
  let schema = manifest.Serialize.v3_schema in
  let m = Schema.arity schema in
  let alpha = fslice "alpha" in
  let attr_sums = fslice "attr_sums" in
  if A1.dim attr_sums <> m then
    raise (Serialize.Format_error "section attr_sums length mismatch");
  let prefix_all = fslice "prefix" in
  let prefix = Array.make m prefix_all in
  let off = ref 0 and marginals = ref 0 in
  for i = 0 to m - 1 do
    let size_i = Schema.domain_size schema i in
    marginals := !marginals + size_i;
    if !off + size_i + 1 > A1.dim prefix_all then
      raise (Serialize.Format_error "section prefix length mismatch");
    prefix.(i) <- A1.sub prefix_all !off (size_i + 1);
    off := !off + size_i + 1
  done;
  if !off <> A1.dim prefix_all then
    raise (Serialize.Format_error "section prefix length mismatch");
  if A1.dim alpha <> !marginals + List.length manifest.Serialize.v3_joints then
    raise (Serialize.Format_error "section alpha length mismatch");
  let groups =
    Array.mapi
      (fun gi (gm : Serialize.v3_group_meta) ->
        let nm name = Printf.sprintf "g%d.%s" gi name in
        let g =
          {
            Poly.vg_attrs = gm.Serialize.v3g_attrs;
            vg_n_terms = gm.Serialize.v3g_n_terms;
            vg_q = gm.Serialize.v3g_q;
            vg_fa_off = islice (nm "fa_off");
            vg_fa_attr = islice (nm "fa_attr");
            vg_factors = fslice (nm "factors");
            vg_iv_off = islice (nm "iv_off");
            vg_iv_lo = islice (nm "iv_lo");
            vg_iv_hi = islice (nm "iv_hi");
            vg_t_mask = islice (nm "t_mask");
            vg_dprod = fslice (nm "dprod");
            vg_mask_bits = islice (nm "mask_bits");
          }
        in
        if
          A1.dim g.vg_fa_off <> gm.Serialize.v3g_n_terms + 1
          || A1.dim g.vg_t_mask <> gm.Serialize.v3g_n_terms
          || A1.dim g.vg_dprod <> gm.Serialize.v3g_n_terms
          || A1.dim g.vg_fa_attr <> A1.dim g.vg_factors
          || A1.dim g.vg_iv_off <> A1.dim g.vg_factors + 1
          || A1.dim g.vg_iv_lo <> A1.dim g.vg_iv_hi
        then
          raise
            (Serialize.Format_error
               (Printf.sprintf "group %d table geometry mismatch" gi));
        g)
      manifest.Serialize.v3_groups
  in
  if Array.length manifest.Serialize.v3_group_of_attr <> m then
    raise (Serialize.Format_error "corrupt v3 attribute-group map");
  let poly =
    Poly.of_views ~schema ~n:manifest.Serialize.v3_n ~p:manifest.Serialize.v3_p
      ~alpha ~attr_sums ~prefix ~free_attrs:manifest.Serialize.v3_free_attrs
      ~group_of_attr:manifest.Serialize.v3_group_of_attr groups
  in
  {
    path;
    manifest;
    size_bytes = size;
    cview;
    summary =
      Summary.of_solved_poly ~journal:manifest.Serialize.v3_journal ~poly
        ~report:manifest.Serialize.v3_report ();
    verified = Atomic.make false;
  }

(* ------------------------------------------------------------------ *)
(* Lazy integrity verification                                         *)
(* ------------------------------------------------------------------ *)

let verify_now t =
  List.iter
    (fun s ->
      let sub = A1.sub t.cview s.Serialize.sec_off (8 * s.Serialize.sec_len) in
      if Crc32.bigchar sub <> s.Serialize.sec_crc then
        raise
          (Serialize.Format_error
             (Printf.sprintf "section %s checksum mismatch"
                s.Serialize.sec_name)))
    t.manifest.Serialize.v3_sections

(* Idempotent latch: concurrent first queries may both verify (harmless;
   verification only reads), after which the flag short-circuits. *)
let ensure_verified t =
  if not (Atomic.get t.verified) then begin
    Edb_obs.Obs.with_span "mapped.verify" ~cat:"io"
      ~attrs:(fun () -> [ ("path", t.path) ])
      (fun () -> verify_now t);
    Atomic.set t.verified true
  end

let verify t = ensure_verified t

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let path t = t.path
let schema t = t.manifest.Serialize.v3_schema
let cardinality t = t.manifest.Serialize.v3_n
let size_bytes t = t.size_bytes
let journal t = t.manifest.Serialize.v3_journal
let solver_report t = t.manifest.Serialize.v3_report
let manifest t = t.manifest
let sections t = t.manifest.Serialize.v3_sections

let num_terms t =
  Array.fold_left
    (fun acc (g : Serialize.v3_group_meta) -> acc + g.Serialize.v3g_n_terms)
    0 t.manifest.Serialize.v3_groups

let summary t =
  ensure_verified t;
  t.summary

let estimate_groups_with_stddev t ~attrs query =
  Summary.estimate_groups_with_stddev (summary t) ~attrs query
