(* Summary persistence.

   The paper stores its polynomial variables in Postgres and the
   factorization in a text file (Sec. 5); here a summary is one versioned
   binary file.  The payload is the statistic set (schema, n, all targets)
   plus the solved variable vector and the solver report.  The compressed
   polynomial itself is *rebuilt* on load — it is deterministic from Φ —
   which keeps the file at O(#statistics) instead of O(#terms) and avoids
   deserializing mutable cached state. *)

open Edb_storage
module A1 = Bigarray.Array1

let magic = "ENTROPYDB\x01"

(* Version history:
   1 — original payload (schema, n, targets, alpha, report);
   2 — adds the ingest journal (summary lineage).  v1 files still load
       (with a fresh base journal); versions beyond [version] are from a
       future writer and fail with Format_error, never a crash. *)
let version = 2

exception Format_error of string

(* The exact structural layout version-1 writers marshaled; kept verbatim
   so old files deserialize safely (Marshal is structural, not named). *)
type payload_v1 = {
  v1_schema : Schema.t;
  v1_n : int;
  v1_marginal_targets : float array array;
  v1_joints : (Predicate.t * float) list;
  v1_alpha : float array;
  v1_report : Solver.report;
}

type payload = {
  p_schema : Schema.t;
  p_n : int;
  p_marginal_targets : float array array;
  p_joints : (Predicate.t * float) list;
  p_alpha : float array;
  p_report : Solver.report;
  p_journal : Journal.t;
}

let save summary path =
  Edb_obs.Obs.with_span "serialize.save" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let poly = Summary.poly summary in
  let phi = Poly.phi poly in
  let schema = Phi.schema phi in
  let m = Schema.arity schema in
  let marginal_targets =
    Array.init m (fun i ->
        Array.init (Schema.domain_size schema i) (fun v ->
            Phi.target phi (Phi.marginal_id phi ~attr:i ~value:v)))
  in
  let joints =
    List.map
      (fun j ->
        let s = Phi.stat phi j in
        (Statistic.pred s, Statistic.target s))
      (Phi.joint_ids phi)
  in
  let payload =
    {
      p_schema = schema;
      p_n = Phi.n phi;
      p_marginal_targets = marginal_targets;
      p_joints = joints;
      p_alpha = Array.init (Phi.num_stats phi) (fun j -> Poly.alpha poly j);
      p_report = Summary.solver_report summary;
      p_journal = Summary.journal summary;
    }
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc version;
      Marshal.to_channel oc payload [])

let load ?term_cap path =
  Edb_obs.Obs.with_span "serialize.load" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf =
        try really_input_string ic (String.length magic)
        with End_of_file -> raise (Format_error "truncated file")
      in
      if buf <> magic then raise (Format_error "bad magic");
      let v = try input_binary_int ic with End_of_file -> raise (Format_error "truncated header") in
      if v < 1 || v > version then
        raise (Format_error (Printf.sprintf "unsupported version %d" v));
      (* Marshal surfaces corruption as Failure or End_of_file; normalize
         to Format_error so callers have one error type. *)
      let unmarshal () =
        try Marshal.from_channel ic with
        | Failure msg -> raise (Format_error ("corrupt payload: " ^ msg))
        | End_of_file -> raise (Format_error "truncated payload")
      in
      let payload =
        if v = 1 then
          (* Pre-journal file: same data, no lineage; give it a fresh
             base journal so ingest on top of it starts a clean record. *)
          let p : payload_v1 = unmarshal () in
          {
            p_schema = p.v1_schema;
            p_n = p.v1_n;
            p_marginal_targets = p.v1_marginal_targets;
            p_joints = p.v1_joints;
            p_alpha = p.v1_alpha;
            p_report = p.v1_report;
            p_journal = Journal.base ~rows:p.v1_n ~source:"legacy-v1" ();
          }
        else (unmarshal () : payload)
      in
      let phi =
        Phi.of_targets payload.p_schema ~n:payload.p_n
          ~marginal_targets:payload.p_marginal_targets ~joints:payload.p_joints
      in
      if Array.length payload.p_alpha <> Phi.num_stats phi then
        raise (Format_error "alpha vector length mismatch");
      let poly = Poly.create ?term_cap phi in
      Array.iteri (fun j a -> Poly.set_alpha poly j a) payload.p_alpha;
      Poly.refresh poly;
      Summary.of_solved_poly ~journal:payload.p_journal ~poly
        ~report:payload.p_report ())

(* ------------------------------------------------------------------ *)
(* Sharded manifests                                                   *)
(* ------------------------------------------------------------------ *)

(* A sharded summary (lib/shard) persists as one manifest file plus one
   flat summary file per shard.  The manifest is deliberately *not*
   Marshal: plain length-prefixed fields keep every corruption mode (bad
   magic, truncation, shard-count mismatch, trailing garbage) detectable
   as a Format_error instead of a segfault or silent misread.

   Layout: magic (10 bytes, shares the flat prefix but a distinct tag
   byte) | version | strategy string | shard count k | k shard file
   names, each relative to the manifest's directory. *)

let sharded_magic = "ENTROPYDB\x02"
let sharded_version = 1
let max_shards = 100_000
let max_name_len = 4096

type format = Flat | Sharded | MappedV3

let read_magic ic =
  try really_input_string ic (String.length magic)
  with End_of_file -> raise (Format_error "truncated file")

let v3_magic = "ENTROPYDB\x03"

let detect path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = read_magic ic in
      if buf = magic then Flat
      else if buf = sharded_magic then Sharded
      else if buf = v3_magic then MappedV3
      else raise (Format_error "bad magic"))

let output_str oc s =
  output_binary_int oc (String.length s);
  output_string oc s

let input_int ic what =
  try input_binary_int ic
  with End_of_file -> raise (Format_error ("truncated " ^ what))

let input_str ic ~max what =
  let len = input_int ic what in
  if len < 0 || len > max then
    raise (Format_error (Printf.sprintf "implausible %s length %d" what len));
  try really_input_string ic len
  with End_of_file -> raise (Format_error ("truncated " ^ what))

let shard_file_name path i =
  Printf.sprintf "%s.shard%d" (Filename.basename path) i

let save_sharded ~strategy summaries path =
  let k = Array.length summaries in
  if k < 1 then invalid_arg "Serialize.save_sharded: no shards";
  let dir = Filename.dirname path in
  let names = Array.to_list (Array.init k (shard_file_name path)) in
  List.iteri
    (fun i name -> save summaries.(i) (Filename.concat dir name))
    names;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc sharded_magic;
      output_binary_int oc sharded_version;
      output_str oc strategy;
      output_binary_int oc k;
      List.iter (output_str oc) names)

let load_sharded ?term_cap path =
  let strategy, names =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let buf = read_magic ic in
        if buf <> sharded_magic then raise (Format_error "bad magic");
        let v = input_int ic "header" in
        if v <> sharded_version then
          raise
            (Format_error (Printf.sprintf "unsupported manifest version %d" v));
        let strategy = input_str ic ~max:max_name_len "strategy" in
        let k = input_int ic "shard count" in
        if k < 1 || k > max_shards then
          raise (Format_error (Printf.sprintf "implausible shard count %d" k));
        let names =
          List.init k (fun _ -> input_str ic ~max:max_name_len "shard name")
        in
        (* The recorded count and the name list must tile the file exactly;
           leftover bytes mean the count field and the list disagree. *)
        (match input_char ic with
        | _ -> raise (Format_error "shard-count mismatch (trailing bytes)")
        | exception End_of_file -> ());
        (strategy, names))
  in
  let dir = Filename.dirname path in
  let shards =
    List.map
      (fun name ->
        let file = Filename.concat dir name in
        if not (Sys.file_exists file) then
          raise
            (Format_error
               (Printf.sprintf "shard-count mismatch: missing shard file %s"
                  name));
        load ?term_cap file)
      names
  in
  let shards = Array.of_list shards in
  let schema0 = Summary.schema shards.(0) in
  Array.iter
    (fun s ->
      if Stdlib.compare (Summary.schema s) schema0 <> 0 then
        raise (Format_error "shard schema mismatch"))
    shards;
  (strategy, shards)

(* ------------------------------------------------------------------ *)
(* Summary format v3: page-aligned, mmap-able                          *)
(* ------------------------------------------------------------------ *)

(* v3 stores the polynomial's flat SoA tables verbatim, so a summary can
   be queried directly off a file mapping without deserialization:

     page 0              fixed header (magic, geometry, manifest pointer,
                         CRC-32 of the header bytes)
     pages 1..k          body sections, each starting on a page boundary:
                         the kernel tables of every group plus the alpha
                         vector, attribute sums, and prefix tables
     after the body      the manifest — one marshaled pure-data record
                         holding the small metadata (schema, n, P,
                         targets, solver report, ingest journal) and the
                         section table (name, kind, offset, length,
                         CRC-32 per section) — then zero padding to a
                         page boundary

   The manifest comes last so section offsets are known before it is
   written; the header (written with a final seek) points at it.  Opening
   a v3 file is O(header + manifest): body sections are mapped, not read,
   and their checksums are verified lazily by the mapped reader
   (Mapped.ensure_verified) before the first answer is produced — so
   corruption is always a Format_error, never a silently wrong answer.

   Element encoding is the host representation Bigarray maps: IEEE-754
   doubles and untagged native ints, little-endian.  The header records
   int size and byte order; a file from a foreign host is rejected with
   Format_error rather than misread. *)

let v3_page = 4096
let v3_version = 3

type v3_section = {
  sec_name : string;
  sec_float : bool; (* float64 elements; ints otherwise *)
  sec_off : int; (* byte offset, page-aligned *)
  sec_len : int; (* element count (8 bytes each) *)
  sec_crc : int; (* CRC-32 of the raw section bytes *)
}

type v3_group_meta = {
  v3g_attrs : int array;
  v3g_stats : int array;
  v3g_n_terms : int;
  v3g_q : float;
}

type v3_manifest = {
  v3_schema : Schema.t;
  v3_n : int;
  v3_p : float;
  v3_marginal_targets : float array array;
  v3_joints : (Predicate.t * float) list;
  v3_report : Solver.report;
  v3_journal : Journal.t;
  v3_free_attrs : int array;
  v3_group_of_attr : int array;
  v3_groups : v3_group_meta array;
  v3_sections : v3_section list;
}

let v3_round_page n = (n + v3_page - 1) / v3_page * v3_page

(* Section bytes of [len] elements read through [get]: one encoder
   for heap arrays and the kernel's Bigarray tables alike. *)
let v3_bytes_of_floats len get =
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.bits_of_float (get i))
  done;
  b

let v3_bytes_of_ints len get =
  let b = Bytes.create (8 * len) in
  for i = 0 to len - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int (get i))
  done;
  b

let v3_floats_of_bytes b =
  Array.init
    (Bytes.length b / 8)
    (fun i -> Int64.float_of_bits (Bytes.get_int64_le b (8 * i)))

(* Fixed header field offsets (bytes; all fields int64 LE after the
   magic).  The CRC at [v3_hdr_crc] covers bytes [0, v3_hdr_crc). *)
let v3_hdr_version = 16
let v3_hdr_int_size = 24
let v3_hdr_endian = 32
let v3_hdr_page = 40
let v3_hdr_manifest_off = 48
let v3_hdr_manifest_len = 56
let v3_hdr_manifest_crc = 64
let v3_hdr_file_size = 72
let v3_hdr_sections = 80
let v3_hdr_crc = 88

let save_v3 summary path =
  Edb_obs.Obs.with_span "serialize.save_v3" ~cat:"io"
    ~attrs:(fun () -> [ ("path", path) ])
  @@ fun () ->
  let poly = Summary.poly summary in
  (* Canonicalize the cached tables: rebuild them from the variable
     vector, exactly as every loader does.  Incremental solver updates
     accumulate float drift relative to that rebuild; refreshing here
     makes the mapped tables bitwise-equal to a v2 round trip.  The
     refresh is semantically the identity. *)
  Poly.refresh poly;
  let tb = Poly.tables poly in
  let phi = Poly.phi poly in
  let schema = Phi.schema phi in
  let m = Schema.arity schema in
  let marginal_targets =
    Array.init m (fun i ->
        Array.init (Schema.domain_size schema i) (fun v ->
            Phi.target phi (Phi.marginal_id phi ~attr:i ~value:v)))
  in
  let joints =
    List.map
      (fun j ->
        let s = Phi.stat phi j in
        (Statistic.pred s, Statistic.target s))
      (Phi.joint_ids phi)
  in
  (* Lay out the body: every section page-aligned, offsets assigned in
     emission order. *)
  let sections = ref [] and blobs = ref [] in
  let off = ref v3_page in
  let add name is_float blob =
    sections :=
      {
        sec_name = name;
        sec_float = is_float;
        sec_off = !off;
        sec_len = Bytes.length blob / 8;
        sec_crc = Edb_util.Crc32.bytes blob;
      }
      :: !sections;
    blobs := (!off, blob) :: !blobs;
    off := v3_round_page (!off + Bytes.length blob)
  in
  (* Typed element readers, so every access compiles to a direct load
     rather than a generic Bigarray call. *)
  let addf name (a : float array) =
    add name true (v3_bytes_of_floats (Array.length a) (Array.unsafe_get a))
  and addi name (a : int array) =
    add name false (v3_bytes_of_ints (Array.length a) (Array.unsafe_get a))
  and addfb name (b : Poly.fbuf) =
    add name true (v3_bytes_of_floats (A1.dim b) (fun i -> A1.unsafe_get b i))
  and addib name (b : Poly.ibuf) =
    add name false (v3_bytes_of_ints (A1.dim b) (fun i -> A1.unsafe_get b i))
  in
  addfb "alpha" tb.Poly.tb_alpha;
  addfb "attr_sums" tb.Poly.tb_attr_sums;
  addf "prefix"
    (Array.concat
       (List.map
          (fun (pre : Poly.fbuf) ->
            Array.init (A1.dim pre) (fun i -> A1.unsafe_get pre i))
          (Array.to_list tb.Poly.tb_prefix)));
  Array.iteri
    (fun gi (g : Poly.group_tables) ->
      let s name = Printf.sprintf "g%d.%s" gi name in
      addi (s "ts_off") g.Poly.gt_ts_off;
      addi (s "ts_stat") g.Poly.gt_ts_stat;
      addib (s "fa_off") g.Poly.gt_fa_off;
      addib (s "fa_attr") g.Poly.gt_fa_attr;
      addfb (s "factors") g.Poly.gt_factors;
      addib (s "iv_off") g.Poly.gt_iv_off;
      addib (s "iv_lo") g.Poly.gt_iv_lo;
      addib (s "iv_hi") g.Poly.gt_iv_hi;
      addib (s "t_mask") g.Poly.gt_t_mask;
      addf (s "fprod") g.Poly.gt_fprod;
      addfb (s "dprod") g.Poly.gt_dprod;
      addf (s "value") g.Poly.gt_value;
      addib (s "mask_bits") g.Poly.gt_mask_bits;
      addf (s "mask_sum") g.Poly.gt_mask_sum;
      addf (s "mask_outer") g.Poly.gt_mask_outer;
      addi (s "bys_off") g.Poly.gt_bys_off;
      addi (s "bys_term") g.Poly.gt_bys_term;
      (* The per-local-attribute by-value index is stored flattened:
         byv_idx points each local attribute at its slice of the
         concatenated offset array (per-attribute offsets stay local;
         the reader rebuilds data bases from each slice's last entry). *)
      let n_local = Array.length g.Poly.gt_attrs in
      let byv_idx = Array.make (n_local + 1) 0 in
      Array.iteri
        (fun li o -> byv_idx.(li + 1) <- byv_idx.(li) + Array.length o)
        g.Poly.gt_byv_off;
      addi (s "byv_idx") byv_idx;
      addi (s "byv_off") (Array.concat (Array.to_list g.Poly.gt_byv_off));
      addi (s "byv_term") (Array.concat (Array.to_list g.Poly.gt_byv_term));
      addi (s "byv_slot") (Array.concat (Array.to_list g.Poly.gt_byv_slot)))
    tb.Poly.tb_groups;
  let manifest =
    {
      v3_schema = schema;
      v3_n = Phi.n phi;
      v3_p = tb.Poly.tb_p;
      v3_marginal_targets = marginal_targets;
      v3_joints = joints;
      v3_report = Summary.solver_report summary;
      v3_journal = Summary.journal summary;
      v3_free_attrs = tb.Poly.tb_free_attrs;
      v3_group_of_attr = tb.Poly.tb_group_of_attr;
      v3_groups =
        Array.map
          (fun (g : Poly.group_tables) ->
            {
              v3g_attrs = g.Poly.gt_attrs;
              v3g_stats = g.Poly.gt_stats;
              v3g_n_terms = g.Poly.gt_n_terms;
              v3g_q = g.Poly.gt_q;
            })
          tb.Poly.tb_groups;
      v3_sections = List.rev !sections;
    }
  in
  let mstr = Marshal.to_string manifest [] in
  let manifest_off = !off in
  let file_size = v3_round_page (manifest_off + String.length mstr) in
  let header = Bytes.make v3_page '\000' in
  Bytes.blit_string v3_magic 0 header 0 (String.length v3_magic);
  let put o v = Bytes.set_int64_le header o (Int64.of_int v) in
  put v3_hdr_version v3_version;
  put v3_hdr_int_size Sys.int_size;
  put v3_hdr_endian (if Sys.big_endian then 0 else 1);
  put v3_hdr_page v3_page;
  put v3_hdr_manifest_off manifest_off;
  put v3_hdr_manifest_len (String.length mstr);
  put v3_hdr_manifest_crc (Edb_util.Crc32.string mstr);
  put v3_hdr_file_size file_size;
  put v3_hdr_sections (List.length !sections);
  put v3_hdr_crc (Edb_util.Crc32.bytes (Bytes.sub header 0 v3_hdr_crc));
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_bytes oc header;
      List.iter
        (fun (off, blob) ->
          let pad = off - pos_out oc in
          if pad > 0 then output_bytes oc (Bytes.make pad '\000');
          output_bytes oc blob)
        (List.rev !blobs);
      let pad = manifest_off - pos_out oc in
      if pad > 0 then output_bytes oc (Bytes.make pad '\000');
      output_string oc mstr;
      let pad = file_size - pos_out oc in
      if pad > 0 then output_bytes oc (Bytes.make pad '\000'))

(* Validated header + manifest read: everything [Mapped.open_file] and the
   heap loader need before touching the body, in O(header + manifest)
   I/O.  Every integrity failure is a Format_error naming what broke. *)
let v3_manifest_of path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      if size < v3_page then raise (Format_error "truncated v3 header");
      let header = really_input_string ic v3_page in
      if String.sub header 0 (String.length v3_magic) <> v3_magic then
        raise (Format_error "bad magic");
      let get o = Int64.to_int (String.get_int64_le header o) in
      let crc = Edb_util.Crc32.string (String.sub header 0 v3_hdr_crc) in
      if crc <> get v3_hdr_crc then
        raise (Format_error "v3 header checksum mismatch");
      let v = get v3_hdr_version in
      if v <> v3_version then
        raise (Format_error (Printf.sprintf "unsupported v3 version %d" v));
      if get v3_hdr_int_size <> Sys.int_size then
        raise
          (Format_error
             (Printf.sprintf "v3 int size mismatch (file %d, host %d)"
                (get v3_hdr_int_size) Sys.int_size));
      if get v3_hdr_endian <> if Sys.big_endian then 0 else 1 then
        raise (Format_error "v3 byte order mismatch");
      if get v3_hdr_page <> v3_page then
        raise
          (Format_error
             (Printf.sprintf "unsupported v3 page size %d" (get v3_hdr_page)));
      if get v3_hdr_file_size <> size then
        raise
          (Format_error
             (Printf.sprintf "truncated v3 file (%d bytes, header records %d)"
                size (get v3_hdr_file_size)));
      let moff = get v3_hdr_manifest_off and mlen = get v3_hdr_manifest_len in
      if moff < v3_page || mlen < 0 || moff + mlen > size then
        raise (Format_error "corrupt v3 manifest bounds");
      seek_in ic moff;
      let mstr =
        try really_input_string ic mlen
        with End_of_file -> raise (Format_error "truncated v3 manifest")
      in
      if Edb_util.Crc32.string mstr <> get v3_hdr_manifest_crc then
        raise (Format_error "v3 manifest checksum mismatch");
      let manifest =
        try (Marshal.from_string mstr 0 : v3_manifest)
        with _ -> raise (Format_error "corrupt v3 manifest")
      in
      if List.length manifest.v3_sections <> get v3_hdr_sections then
        raise (Format_error "v3 section table mismatch");
      let seen = Hashtbl.create 64 in
      List.iter
        (fun s ->
          if
            s.sec_off < v3_page
            || s.sec_off mod 8 <> 0
            || s.sec_len < 0
            || s.sec_off + (8 * s.sec_len) > moff
            || Hashtbl.mem seen s.sec_name
          then
            raise
              (Format_error
                 (Printf.sprintf "corrupt v3 section table (%s)" s.sec_name));
          Hashtbl.add seen s.sec_name ())
        manifest.v3_sections;
      manifest)

let v3_sections path = (v3_manifest_of path).v3_sections

(* Heap-load a v3 file: rebuild the polynomial from the manifest's
   targets and the stored alpha vector, exactly like a v2 load.  All body
   checksums are verified — this path re-reads the file anyway, so the
   full battery costs nothing extra and keeps "corruption is never a
   silent misread" true for every loader. *)
let v3_load ?term_cap path =
  let manifest = v3_manifest_of path in
  let ic = open_in_bin path in
  let alpha_bytes = ref None in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      List.iter
        (fun s ->
          seek_in ic s.sec_off;
          let blob = Bytes.create (8 * s.sec_len) in
          (try really_input ic blob 0 (8 * s.sec_len)
           with End_of_file ->
             raise
               (Format_error
                  (Printf.sprintf "truncated section %s" s.sec_name)));
          if Edb_util.Crc32.bytes blob <> s.sec_crc then
            raise
              (Format_error
                 (Printf.sprintf "section %s checksum mismatch" s.sec_name));
          if s.sec_name = "alpha" then alpha_bytes := Some blob)
        manifest.v3_sections);
  let alpha =
    match !alpha_bytes with
    | Some b -> v3_floats_of_bytes b
    | None -> raise (Format_error "missing section alpha")
  in
  let phi =
    Phi.of_targets manifest.v3_schema ~n:manifest.v3_n
      ~marginal_targets:manifest.v3_marginal_targets
      ~joints:manifest.v3_joints
  in
  if Array.length alpha <> Phi.num_stats phi then
    raise (Format_error "alpha vector length mismatch");
  let poly = Poly.create ?term_cap phi in
  Array.iteri (fun j a -> Poly.set_alpha poly j a) alpha;
  Poly.refresh poly;
  Summary.of_solved_poly ~journal:manifest.v3_journal ~poly
    ~report:manifest.v3_report ()

(* Version-dispatching flat load: v1/v2 files take the Marshal path,
   v3 files the checksummed heap rebuild — callers get a summary either
   way without caring which writer produced the file. *)
let load ?term_cap path =
  match detect path with
  | MappedV3 -> v3_load ?term_cap path
  | Flat | Sharded -> load ?term_cap path
