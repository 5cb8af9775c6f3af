(* The oracle battery.  Each check is a named function over a built case;
   failures accumulate as findings instead of raising, so one bad case
   reports every violated invariant at once and the shrinker can re-run a
   single named check cheaply. *)

open Edb_util
open Edb_storage
open Entropydb_core

type tier = Exact | Differential | Metamorphic

let tier_name = function
  | Exact -> "exact"
  | Differential -> "differential"
  | Metamorphic -> "metamorphic"

type config = {
  z : float;
  exact_atol : float;
  rtol_hard : float;
  rtol_bf : float;
  server : bool;
}

let default =
  { z = 6.; exact_atol = 3.; rtol_hard = 1e-9; rtol_bf = 1e-6; server = false }

type finding = { check : string; tier : tier; seed : int; detail : string }

type result = {
  findings : finding list;
  checks_run : int;
  max_exact_sigma : float;
}

type ctx = {
  cfg : config;
  case : Case.t;
  mutable findings : finding list;
  mutable checks : int;
  mutable max_sigma : float;
  mutable bf : (Bruteforce.t * float array) option;
}

let fail ctx ~check ~tier fmt =
  Fmt.kstr
    (fun detail ->
      ctx.findings <-
        { check; tier; seed = ctx.case.Case.spec.Gen.seed; detail }
        :: ctx.findings)
    fmt

let tally ctx = ctx.checks <- ctx.checks + 1
let nf ctx = float_of_int (Summary.cardinality ctx.case.Case.summary)

(* Tolerance for paths that compute the same quantity with a different
   summation order: relative in the magnitudes, absolute in the
   cardinality (cancellation near zero is benign at the n-th digit). *)
let approx ctx a b =
  Floatx.approx_eq ~rtol:ctx.cfg.rtol_hard
    ~atol:(ctx.cfg.rtol_hard *. (nf ctx +. 1.))
    a b

let slack ctx = ctx.cfg.rtol_hard *. (nf ctx +. 1.)

let bruteforce ctx =
  match ctx.bf with
  | Some pair -> pair
  | None ->
      let poly = Summary.poly ctx.case.Case.summary in
      let pair = (Bruteforce.create (Poly.phi poly), Poly.alphas poly) in
      ctx.bf <- Some pair;
      pair

let schema ctx = Relation.schema ctx.case.Case.rel

(* The predicate with one attribute's restriction removed. *)
let widen q i =
  let arity = Predicate.arity q in
  Predicate.of_alist ~arity
    (List.filter_map
       (fun j ->
         if j = i then None
         else Option.map (fun r -> (j, r)) (Predicate.restriction q j))
       (List.init arity Fun.id))

(* Split a query's (possibly implicit) restriction on [i] into two
   nonempty halves; None when it has fewer than two values. *)
let split_restriction ctx q i =
  let r =
    match Predicate.restriction q i with
    | Some r -> r
    | None -> Ranges.interval 0 (Schema.domain_size (schema ctx) i - 1)
  in
  let vs = Ranges.to_list r in
  if List.length vs < 2 then None
  else begin
    let k = List.length vs / 2 in
    let lo = List.filteri (fun idx _ -> idx < k) vs in
    let hi = List.filteri (fun idx _ -> idx >= k) vs in
    Some (Ranges.of_list lo, Ranges.of_list hi)
  end

(* ------------------------------------------------------------------ *)
(* Differential tier                                                   *)
(* ------------------------------------------------------------------ *)

let c_bruteforce_estimate ctx =
  let bf, alphas = bruteforce ctx in
  let s = ctx.case.Case.summary in
  List.iter
    (fun q ->
      tally ctx;
      let fast = Summary.estimate s q in
      let slow = Bruteforce.estimate bf alphas q in
      if not (Floatx.approx_eq ~rtol:ctx.cfg.rtol_bf ~atol:1e-6 fast slow)
      then
        fail ctx ~check:"bruteforce-estimate" ~tier:Differential
          "poly %.12g vs enumeration %.12g on %a" fast slow Predicate.pp q)
    ctx.case.Case.queries

let c_bruteforce_variance ctx =
  let bf, alphas = bruteforce ctx in
  let s = ctx.case.Case.summary in
  let n = nf ctx in
  let probs = Bruteforce.tuple_probabilities bf alphas in
  List.iter
    (fun q ->
      tally ctx;
      let fast = Summary.variance s q in
      let p = ref 0. in
      Array.iteri
        (fun idx pr ->
          if Predicate.matches_row q (Bruteforce.tuple bf idx) then
            p := !p +. pr)
        probs;
      let p = Floatx.clamp ~lo:0. ~hi:1. !p in
      let slow = n *. p *. (1. -. p) in
      if not (Floatx.approx_eq ~rtol:ctx.cfg.rtol_bf ~atol:1e-6 fast slow)
      then
        fail ctx ~check:"bruteforce-variance" ~tier:Differential
          "variance %.12g vs enumeration %.12g on %a" fast slow Predicate.pp q)
    ctx.case.Case.queries

let c_bruteforce_sum ctx =
  let bf, alphas = bruteforce ctx in
  let s = ctx.case.Case.summary in
  let sch = schema ctx in
  let attr = 0 in
  let domain = Schema.domain sch attr in
  let w v = Domain.bin_midpoint domain v in
  let p_total = Bruteforce.p bf alphas in
  List.iter
    (fun q ->
      tally ctx;
      let fast = Summary.estimate_sum s ~attr q in
      let slow =
        nf ctx *. Bruteforce.eval_weighted bf alphas q ~weights:[ (attr, w) ]
        /. p_total
      in
      if not (Floatx.approx_eq ~rtol:ctx.cfg.rtol_bf ~atol:1e-6 fast slow)
      then
        fail ctx ~check:"bruteforce-sum" ~tier:Differential
          "SUM(a0) %.12g vs enumeration %.12g on %a" fast slow Predicate.pp q)
    ctx.case.Case.queries

let c_flat_vs_k1 ctx =
  let s = ctx.case.Case.summary in
  let k1 = Edb_shard.Sharded.of_flat s in
  List.iter
    (fun q ->
      tally ctx;
      let a = Summary.estimate s q and b = Edb_shard.Sharded.estimate k1 q in
      if a <> b then
        fail ctx ~check:"flat-vs-k1" ~tier:Differential
          "estimate not bitwise: flat %.17g vs k=1 %.17g on %a" a b
          Predicate.pp q;
      tally ctx;
      let va = Summary.variance s q and vb = Edb_shard.Sharded.variance k1 q in
      if va <> vb then
        fail ctx ~check:"flat-vs-k1" ~tier:Differential
          "variance not bitwise: flat %.17g vs k=1 %.17g on %a" va vb
          Predicate.pp q)
    ctx.case.Case.queries;
  let attrs = List.hd (Gen.group_attr_sets ctx.case.Case.spec (schema ctx)) in
  let q = List.hd ctx.case.Case.queries in
  tally ctx;
  if
    Summary.estimate_groups_with_stddev s ~attrs q
    <> Edb_shard.Sharded.estimate_groups_with_stddev k1 ~attrs q
  then
    fail ctx ~check:"flat-vs-k1" ~tier:Differential
      "GROUP BY cells not bitwise at k=1 (attrs %a) on %a"
      Fmt.(Dump.list int)
      attrs Predicate.pp q

let c_shard_additivity ctx =
  let sh = ctx.case.Case.sharded in
  let shards = Edb_shard.Sharded.shards sh in
  List.iter
    (fun q ->
      tally ctx;
      let fan = Edb_shard.Sharded.estimate sh q in
      let sum =
        Array.fold_left (fun acc s -> acc +. Summary.estimate s q) 0. shards
      in
      if not (approx ctx fan sum) then
        fail ctx ~check:"shard-additivity" ~tier:Differential
          "fan-out %.12g vs per-shard sum %.12g (k=%d) on %a" fan sum
          (Array.length shards) Predicate.pp q)
    ctx.case.Case.queries;
  List.iter
    (fun d ->
      tally ctx;
      let fan = Edb_shard.Sharded.estimate_disjuncts sh d in
      let sum =
        Array.fold_left
          (fun acc s -> acc +. Disjunction.estimate s d)
          0. shards
      in
      if not (approx ctx fan sum) then
        fail ctx ~check:"shard-additivity" ~tier:Differential
          "disjunction fan-out %.12g vs per-shard sum %.12g" fan sum)
    (Gen.disjunctions ctx.case.Case.spec (schema ctx))

let naive_groups s ~attrs q =
  let sch = Summary.schema s in
  let values attr =
    match Predicate.restriction q attr with
    | Some r -> Ranges.to_list r
    | None -> List.init (Schema.domain_size sch attr) Fun.id
  in
  let rec keys = function
    | [] -> [ [] ]
    | a :: rest ->
        let tails = keys rest in
        List.concat_map
          (fun v -> List.map (fun t -> v :: t) tails)
          (values a)
  in
  List.map
    (fun key ->
      let cell_q =
        List.fold_left2
          (fun acc attr v -> Predicate.restrict acc attr (Ranges.singleton v))
          q attrs key
      in
      (key, Summary.estimate s cell_q))
    (keys attrs)

let c_groupby_batched_vs_naive ctx =
  let s = ctx.case.Case.summary in
  let sets = Gen.group_attr_sets ctx.case.Case.spec (schema ctx) in
  let queries = List.filteri (fun i _ -> i < 3) ctx.case.Case.queries in
  List.iter
    (fun attrs ->
      List.iter
        (fun q ->
          tally ctx;
          let batched = Summary.estimate_groups s ~attrs q in
          let naive = naive_groups s ~attrs q in
          if List.length batched <> List.length naive then
            fail ctx ~check:"groupby-batched-vs-naive" ~tier:Differential
              "cell count %d vs %d (attrs %a) on %a" (List.length batched)
              (List.length naive)
              Fmt.(Dump.list int)
              attrs Predicate.pp q
          else
            List.iter2
              (fun (bk, bv) (nk, nv) ->
                if bk <> nk then
                  fail ctx ~check:"groupby-batched-vs-naive"
                    ~tier:Differential "cell key %a vs %a on %a"
                    Fmt.(Dump.list int)
                    bk
                    Fmt.(Dump.list int)
                    nk Predicate.pp q
                else if not (approx ctx bv nv) then
                  fail ctx ~check:"groupby-batched-vs-naive"
                    ~tier:Differential
                    "cell %a: batched %.12g vs per-cell %.12g on %a"
                    Fmt.(Dump.list int)
                    bk bv nv Predicate.pp q)
              batched naive)
        queries)
    sets

(* The flat (SoA) kernel's internal contracts, checked from the outside:
   the into-buffer batched kernel is bitwise the allocating one; batched
   cells match per-value scalar evaluation; refresh is a pure function
   of the variable vector (a second refresh is a bitwise no-op, and a
   perturb/restore of one variable followed by refresh lands exactly
   where refresh alone did — incremental caches cannot leak state that a
   recompute would not reproduce). *)
let c_kernel_soa ctx =
  let s = ctx.case.Case.summary in
  let poly = Summary.poly s in
  let sch = schema ctx in
  let arity = Schema.arity sch in
  List.iteri
    (fun idx q ->
      let attr = idx mod arity in
      let size = Schema.domain_size sch attr in
      tally ctx;
      let vec = Poly.eval_restricted_by_value poly q ~attr in
      let out = Array.make size nan in
      Poly.eval_restricted_by_value_into poly q ~attr ~out;
      if vec <> out then
        fail ctx ~check:"kernel-soa" ~tier:Differential
          "into-buffer kernel not bitwise with allocating kernel (attr %d) \
           on %a"
          attr Predicate.pp q;
      for v = 0 to size - 1 do
        tally ctx;
        let scalar =
          Poly.eval_restricted poly
            (Predicate.restrict q attr (Ranges.singleton v))
        in
        if not (Floatx.approx_eq ~rtol:ctx.cfg.rtol_hard ~atol:(slack ctx) vec.(v) scalar)
        then
          fail ctx ~check:"kernel-soa" ~tier:Differential
            "by-value cell %d: batched %.12g vs scalar %.12g (attr %d) on %a"
            v vec.(v) scalar attr Predicate.pp q
      done)
    ctx.case.Case.queries;
  let est_all () =
    List.map (fun q -> Poly.eval_restricted poly q) ctx.case.Case.queries
  in
  Poly.refresh poly;
  let base = est_all () in
  tally ctx;
  Poly.refresh poly;
  if est_all () <> base then
    fail ctx ~check:"kernel-soa" ~tier:Metamorphic
      "second refresh moved restricted evaluations";
  tally ctx;
  let j = 0 in
  let a = Poly.alpha poly j in
  Poly.set_alpha poly j ((2. *. a) +. 0.125);
  Poly.set_alpha poly j a;
  Poly.refresh poly;
  if est_all () <> base then
    fail ctx ~check:"kernel-soa" ~tier:Metamorphic
      "perturb/restore/refresh of variable %d is not bitwise refresh" j

let temp_dir () =
  let path = Filename.temp_file "edb-check" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let c_serialize_roundtrip ctx =
  let s = ctx.case.Case.summary in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let flat_path = Filename.concat dir "flat.summary" in
      Serialize.save s flat_path;
      let s' = Serialize.load flat_path in
      let sh_path = Filename.concat dir "sharded.summary" in
      Edb_shard.Store.save ctx.case.Case.sharded sh_path;
      let sh' = Edb_shard.Store.load sh_path in
      List.iter
        (fun q ->
          tally ctx;
          let a = Summary.estimate s q and b = Summary.estimate s' q in
          if a <> b then
            fail ctx ~check:"serialize-roundtrip" ~tier:Differential
              "flat reload not bitwise: %.17g vs %.17g on %a" a b Predicate.pp
              q;
          tally ctx;
          let a = Edb_shard.Sharded.estimate ctx.case.Case.sharded q in
          let b = Edb_shard.Sharded.estimate sh' q in
          if a <> b then
            fail ctx ~check:"serialize-roundtrip" ~tier:Differential
              "sharded reload not bitwise: %.17g vs %.17g on %a" a b
              Predicate.pp q)
        ctx.case.Case.queries)

(* A mapped summary answers through the same kernel and estimator
   surface as the heap one, over the v3 file's tables instead of the
   heap build's: every estimator must agree bitwise, which pins the
   tables [Serialize.save_v3] writes and [Mapped.open_file] carves.
   Also checks that the v3 round-trip heap-loads to the same summary as
   the v2 round-trip, and that a close/reopen of the mapping changes
   nothing. *)
let c_mmap_v3 ctx =
  let s = ctx.case.Case.summary in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let v3_path = Filename.concat dir "v3.summary" in
      Serialize.save_v3 s v3_path;
      let m = Mapped.open_file v3_path in
      let ms = Mapped.summary m in
      tally ctx;
      if Mapped.cardinality m <> Summary.cardinality s then
        fail ctx ~check:"mmap-v3" ~tier:Differential
          "mapped cardinality %d vs heap %d" (Mapped.cardinality m)
          (Summary.cardinality s);
      List.iter
        (fun q ->
          tally ctx;
          let h = Summary.estimate s q and mm = Summary.estimate ms q in
          if h <> mm then
            fail ctx ~check:"mmap-v3" ~tier:Differential
              "mapped estimate not bitwise: %.17g vs heap %.17g on %a" mm h
              Predicate.pp q;
          tally ctx;
          let hv, hvar = Summary.estimate_with_variance s q in
          let mv, mvar = Summary.estimate_with_variance ms q in
          if hv <> mv || hvar <> mvar then
            fail ctx ~check:"mmap-v3" ~tier:Differential
              "mapped (est, var) not bitwise: (%.17g, %.17g) vs (%.17g, \
               %.17g) on %a"
              mv mvar hv hvar Predicate.pp q;
          tally ctx;
          let hs = Summary.estimate_sum s ~attr:0 q in
          let msum = Summary.estimate_sum ms ~attr:0 q in
          if hs <> msum then
            fail ctx ~check:"mmap-v3" ~tier:Differential
              "mapped SUM not bitwise: %.17g vs heap %.17g on %a" msum hs
              Predicate.pp q;
          tally ctx;
          if
            Summary.variance_sum s ~attr:0 q
            <> Summary.variance_sum ms ~attr:0 q
          then
            fail ctx ~check:"mmap-v3" ~tier:Differential
              "mapped SUM variance differs from heap on %a" Predicate.pp q)
        ctx.case.Case.queries;
      let attrs =
        List.hd (Gen.group_attr_sets ctx.case.Case.spec (schema ctx))
      in
      let q0 = List.hd ctx.case.Case.queries in
      tally ctx;
      if
        Summary.estimate_groups_with_stddev s ~attrs q0
        <> Summary.estimate_groups_with_stddev ms ~attrs q0
      then
        fail ctx ~check:"mmap-v3" ~tier:Differential
          "mapped GROUP BY not bitwise on %a" Predicate.pp q0;
      List.iter
        (fun d ->
          tally ctx;
          let h = Disjunction.estimate s d in
          let mm = Disjunction.estimate ms d in
          if h <> mm then
            fail ctx ~check:"mmap-v3" ~tier:Differential
              "mapped disjunction not bitwise: %.17g vs heap %.17g" mm h)
        (Gen.disjunctions ctx.case.Case.spec (schema ctx));
      (* v3 heap-load round-trips to the same summary as the v2 path. *)
      let flat_path = Filename.concat dir "flat.summary" in
      Serialize.save s flat_path;
      let via_v2 = Serialize.load flat_path in
      let via_v3 = Serialize.load v3_path in
      List.iter
        (fun q ->
          tally ctx;
          let a = Summary.estimate via_v2 q and b = Summary.estimate via_v3 q in
          if a <> b then
            fail ctx ~check:"mmap-v3" ~tier:Differential
              "v3 heap-load differs from v2 round-trip: %.17g vs %.17g on %a"
              b a Predicate.pp q)
        ctx.case.Case.queries;
      (* Close/reopen idempotence: a second mapping of the same file
         answers identically to the first (and to the heap). *)
      let ms2 = Mapped.summary (Mapped.open_file v3_path) in
      List.iter
        (fun q ->
          tally ctx;
          if Summary.estimate ms q <> Summary.estimate ms2 q then
            fail ctx ~check:"mmap-v3" ~tier:Metamorphic
              "reopened mapping is not idempotent on %a" Predicate.pp q)
        ctx.case.Case.queries)

let c_cache_vs_uncached ctx =
  let s = ctx.case.Case.summary in
  let cache = Cache.create s in
  List.iter
    (fun q ->
      tally ctx;
      let direct = Summary.estimate s q in
      let miss = Cache.estimate cache q in
      let hit = Cache.estimate cache q in
      if miss <> direct || hit <> direct then
        fail ctx ~check:"cache-vs-uncached" ~tier:Differential
          "cache %.17g/%.17g vs direct %.17g on %a" miss hit direct
          Predicate.pp q)
    ctx.case.Case.queries;
  let attrs = List.hd (Gen.group_attr_sets ctx.case.Case.spec (schema ctx)) in
  let q = List.hd ctx.case.Case.queries in
  tally ctx;
  let direct = Summary.estimate_groups_with_stddev s ~attrs q in
  if
    Cache.estimate_groups cache ~attrs q <> direct
    || Cache.estimate_groups cache ~attrs q <> direct
  then
    fail ctx ~check:"cache-vs-uncached" ~tier:Differential
      "cached GROUP BY differs from direct on %a" Predicate.pp q

(* SQL rendering for the server path: only single-interval conjunctive
   restrictions are expressible in the query language's fragment. *)
let sql_of_query sch q =
  let arity = Schema.arity sch in
  let rec clauses i acc =
    if i = arity then Some (List.rev acc)
    else
      match Predicate.restriction q i with
      | None -> clauses (i + 1) acc
      | Some r -> (
          match Ranges.intervals r with
          | [ (lo, hi) ] when lo = hi ->
              clauses (i + 1)
                (Printf.sprintf "%s = %d" (Schema.attr_name sch i) lo :: acc)
          | [ (lo, hi) ] ->
              clauses (i + 1)
                (Printf.sprintf "%s IN [%d, %d]" (Schema.attr_name sch i) lo
                   hi
                :: acc)
          | _ -> None)
  in
  Option.map
    (fun cs ->
      match cs with
      | [] -> "SELECT COUNT(*) FROM R"
      | _ -> "SELECT COUNT(*) FROM R WHERE " ^ String.concat " AND " cs)
    (clauses 0 [])

let c_server_vs_library ctx =
  if not ctx.cfg.server then ()
  else begin
    let s = ctx.case.Case.summary in
    let dir = temp_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let path = Filename.concat dir "case.summary" in
        Serialize.save s path;
        let socket = Filename.concat dir "edb.sock" in
        let server =
          Edb_server.Server.create
            {
              Edb_server.Server.default_config with
              unix_socket = Some socket;
              workers = 2;
              queue_depth = 4;
              request_deadline = 30.;
              idle_timeout = 10.;
            }
        in
        Edb_server.Server.start server;
        Fun.protect
          ~finally:(fun () ->
            Edb_server.Server.stop server;
            Edb_server.Server.wait server)
          (fun () ->
            match
              Edb_server.Client.connect ~timeout:10.
                (Edb_server.Client.Unix_socket socket)
            with
            | Error m ->
                fail ctx ~check:"server-vs-library" ~tier:Differential
                  "connect failed: %s" m
            | Ok conn ->
                Fun.protect
                  ~finally:(fun () -> Edb_server.Client.close conn)
                  (fun () ->
                    match
                      Edb_server.Client.load conn ~name:"case" ~path
                    with
                    | Error m ->
                        fail ctx ~check:"server-vs-library" ~tier:Differential
                          "LOAD failed: %s" m
                    | Ok _ ->
                        List.iter
                          (fun q ->
                            match sql_of_query (schema ctx) q with
                            | None -> ()
                            | Some sql -> (
                                tally ctx;
                                let lib = Summary.estimate s q in
                                match
                                  Edb_server.Client.query conn ~name:"case"
                                    ~sql
                                with
                                | Error m ->
                                    fail ctx ~check:"server-vs-library"
                                      ~tier:Differential "%s failed: %s" sql m
                                | Ok payload -> (
                                    match
                                      Edb_server.Client.estimate_of_payload
                                        payload
                                    with
                                    | None ->
                                        fail ctx ~check:"server-vs-library"
                                          ~tier:Differential
                                          "%s: no estimate line" sql
                                    | Some v ->
                                        (* %.17g round-trips exactly, so
                                           the wire answer must equal the
                                           library's bitwise. *)
                                        if v <> lib then
                                          fail ctx ~check:"server-vs-library"
                                            ~tier:Differential
                                            "%s: wire %.17g vs library %.17g"
                                            sql v lib)))
                          ctx.case.Case.queries)))
  end

(* ------------------------------------------------------------------ *)
(* Metamorphic tier                                                    *)
(* ------------------------------------------------------------------ *)

let c_widening_monotonic ctx =
  let s = ctx.case.Case.summary in
  List.iter
    (fun q ->
      match Predicate.restricted_attrs q with
      | [] -> ()
      | i :: _ ->
          tally ctx;
          let narrow = Summary.estimate s q in
          let wide = Summary.estimate s (widen q i) in
          if wide < narrow -. slack ctx then
            fail ctx ~check:"widening-monotonic" ~tier:Metamorphic
              "widening attr %d shrank the estimate: %.12g -> %.12g on %a" i
              narrow wide Predicate.pp q)
    ctx.case.Case.queries

let c_groupby_total ctx =
  let s = ctx.case.Case.summary in
  let sets = Gen.group_attr_sets ctx.case.Case.spec (schema ctx) in
  List.iter
    (fun attrs ->
      List.iter
        (fun q ->
          tally ctx;
          let total = Summary.estimate s q in
          let cells =
            List.fold_left
              (fun acc (_, v) -> acc +. v)
              0.
              (Summary.estimate_groups s ~attrs q)
          in
          if not (approx ctx total cells) then
            fail ctx ~check:"groupby-total" ~tier:Metamorphic
              "cells sum to %.12g but estimate is %.12g (attrs %a) on %a"
              cells total
              Fmt.(Dump.list int)
              attrs Predicate.pp q)
        ctx.case.Case.queries)
    sets

let c_partition_additivity ctx =
  let s = ctx.case.Case.summary in
  let arity = Schema.arity (schema ctx) in
  List.iteri
    (fun idx q ->
      let i = idx mod arity in
      match split_restriction ctx q i with
      | None -> ()
      | Some (lo, hi) ->
          tally ctx;
          let whole = Summary.estimate s q in
          let parts =
            Summary.estimate s (Predicate.restrict q i lo)
            +. Summary.estimate s (Predicate.restrict q i hi)
          in
          if not (approx ctx whole parts) then
            fail ctx ~check:"partition-additivity" ~tier:Metamorphic
              "attr %d halves sum to %.12g but whole is %.12g on %a" i parts
              whole Predicate.pp q)
    ctx.case.Case.queries

let c_conj_idempotent ctx =
  let s = ctx.case.Case.summary in
  List.iter
    (fun q ->
      tally ctx;
      let qq = Predicate.conj q q in
      if not (Predicate.equal qq q) then
        fail ctx ~check:"conj-idempotent" ~tier:Metamorphic
          "conj q q <> q structurally on %a" Predicate.pp q
      else begin
        let a = Summary.estimate s q and b = Summary.estimate s qq in
        if a <> b then
          fail ctx ~check:"conj-idempotent" ~tier:Metamorphic
            "conj q q evaluates to %.17g vs %.17g on %a" b a Predicate.pp q
      end)
    ctx.case.Case.queries

(* Sec. 4.2 zeroes the variables of excluded values; a query excluding
   an attribute's whole domain must therefore evaluate to exactly 0.
   This is the check a corrupted cancellation clamp cannot pass: a
   positive floor leaves a group's restricted value at the floor even
   when every term is zeroed. *)
let c_unsat_zero ctx =
  let s = ctx.case.Case.summary in
  let arity = Schema.arity (schema ctx) in
  for i = 0 to arity - 1 do
    tally ctx;
    let q = Predicate.of_alist ~arity [ (i, Ranges.empty) ] in
    let est = Summary.estimate s q in
    if est <> 0. then
      fail ctx ~check:"unsat-zero" ~tier:Metamorphic
        "emptying attr %d yields %.12g, expected exactly 0" i est
  done;
  List.iteri
    (fun idx q ->
      tally ctx;
      let i = idx mod arity in
      let est = Summary.estimate s (Predicate.restrict q i Ranges.empty) in
      if est <> 0. then
        fail ctx ~check:"unsat-zero" ~tier:Metamorphic
          "emptying attr %d of %a yields %.12g, expected exactly 0" i
          Predicate.pp q est)
    ctx.case.Case.queries

let c_tautology_n ctx =
  let s = ctx.case.Case.summary in
  tally ctx;
  let est = Summary.estimate s (Predicate.tautology (Predicate.arity (List.hd ctx.case.Case.queries))) in
  if not (approx ctx est (nf ctx)) then
    fail ctx ~check:"tautology-n" ~tier:Metamorphic
      "E[true] = %.12g but n = %g" est (nf ctx)

let c_disjunction_singleton ctx =
  let s = ctx.case.Case.summary in
  List.iter
    (fun q ->
      tally ctx;
      let d = Disjunction.estimate s [ q ] in
      let e = Summary.estimate s q in
      if not (approx ctx d e) then
        fail ctx ~check:"disjunction-singleton" ~tier:Metamorphic
          "OR of one: %.12g vs estimate %.12g on %a" d e Predicate.pp q)
    ctx.case.Case.queries

let c_disjunction_disjoint ctx =
  let s = ctx.case.Case.summary in
  List.iteri
    (fun idx q ->
      let i = idx mod Schema.arity (schema ctx) in
      match split_restriction ctx q i with
      | None -> ()
      | Some (lo, hi) ->
          tally ctx;
          let d =
            Disjunction.estimate s
              [ Predicate.restrict q i lo; Predicate.restrict q i hi ]
          in
          let e = Summary.estimate s q in
          if not (approx ctx d e) then
            fail ctx ~check:"disjunction-disjoint" ~tier:Metamorphic
              "disjoint OR %.12g vs whole %.12g (attr %d) on %a" d e i
              Predicate.pp q)
    ctx.case.Case.queries

let c_disjunction_bounds ctx =
  let s = ctx.case.Case.summary in
  let arity = Schema.arity (schema ctx) in
  let taut = Predicate.tautology arity in
  let unsat = Predicate.of_alist ~arity [ (0, Ranges.empty) ] in
  List.iter
    (fun d ->
      tally ctx;
      let est = Disjunction.estimate s d in
      let each = List.map (Summary.estimate s) d in
      let upper = List.fold_left ( +. ) 0. each in
      let lower = List.fold_left Float.max 0. each in
      if est > upper +. slack ctx || est < lower -. slack ctx then
        fail ctx ~check:"disjunction-bounds" ~tier:Metamorphic
          "OR estimate %.12g outside union bounds [%.12g, %.12g]" est lower
          upper;
      let p = Disjunction.probability s d in
      tally ctx;
      if p < 0. || p > 1. then
        fail ctx ~check:"disjunction-bounds" ~tier:Metamorphic
          "P[union] = %.12g outside [0, 1]" p;
      match d with
      | q :: _ ->
          tally ctx;
          let with_unsat = Disjunction.estimate s [ q; unsat ] in
          let alone = Disjunction.estimate s [ q ] in
          if not (approx ctx with_unsat alone) then
            fail ctx ~check:"disjunction-bounds" ~tier:Metamorphic
              "OR with unsatisfiable clause %.12g vs alone %.12g" with_unsat
              alone;
          tally ctx;
          let with_taut = Disjunction.estimate s [ q; taut ] in
          if not (approx ctx with_taut (nf ctx)) then
            fail ctx ~check:"disjunction-bounds" ~tier:Metamorphic
              "OR with tautology %.12g vs n = %g" with_taut (nf ctx)
      | [] -> ())
    (Gen.disjunctions ctx.case.Case.spec (schema ctx))

(* ------------------------------------------------------------------ *)
(* Exact tier                                                          *)
(* ------------------------------------------------------------------ *)

(* Only sound on product-mode data: there the MaxEnt family contains the
   generating distribution, so the estimate's deviation from the sample
   count is on the scale of the model's own stddev.  On mixture data
   without covering joints, deviations are model error, not bugs. *)
let c_exact_count ctx =
  if ctx.case.Case.spec.Gen.mode <> Gen.Product then ()
  else begin
    let s = ctx.case.Case.summary in
    List.iter
      (fun q ->
        tally ctx;
        let est = Summary.estimate s q in
        let exact = float_of_int (Exec.count ctx.case.Case.rel q) in
        let sd = Summary.stddev s q in
        let sigma = Float.abs (est -. exact) /. (sd +. 1.) in
        ctx.max_sigma <- Float.max ctx.max_sigma sigma;
        if
          Float.abs (est -. exact)
          > (ctx.cfg.z *. (sd +. 1.)) +. ctx.cfg.exact_atol
        then
          fail ctx ~check:"exact-count" ~tier:Exact
            "estimate %.6g vs exact %g is %.1f sigma (stddev %.4g) on %a" est
            exact sigma sd Predicate.pp q)
      ctx.case.Case.queries
  end

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

module P = Edb_plan.Plan
module E = Edb_plan.Estimator

let planner_sample ctx =
  let rng =
    Prng.create ~seed:(ctx.case.Case.spec.Gen.seed + 13) ()
  in
  Edb_sampling.Uniform.create rng ~rate:0.2 ctx.case.Case.rel

(* A planner over a single estimator is a pass-through: the chosen answer
   must be bitwise what calling the backend directly yields — routing may
   never perturb an answer, only pick one. *)
let c_planner_singleton ctx =
  let s = ctx.case.Case.summary in
  let est = E.of_summary s in
  List.iter
    (fun q ->
      tally ctx;
      let d =
        P.choose ~combine:false ~target:P.default_target [ est ] (P.Count q)
      in
      let a = P.chosen_answer d in
      let direct_est = Summary.estimate s q in
      let direct_est', direct_var = Summary.estimate_with_variance s q in
      if a.E.est <> direct_est || a.E.est <> direct_est'
         || a.E.var <> direct_var
      then
        fail ctx ~check:"planner-singleton" ~tier:Differential
          "routed answer (%.17g, %.17g) vs direct (%.17g, %.17g) on %a"
          a.E.est a.E.var direct_est direct_var Predicate.pp q)
    ctx.case.Case.queries

(* Inverse-variance weighting can only help: the combined variance is
   v₁v₂/(v₁+v₂) ≤ min(v₁, v₂) mathematically, and the implementation
   must not lose that (modulo an ulp of rounding). *)
let c_planner_combined_variance ctx =
  let es = E.of_summary ctx.case.Case.summary in
  let ea = E.of_sample (planner_sample ctx) in
  let ec = E.combine es ea in
  List.iter
    (fun q ->
      tally ctx;
      let va = (E.count es q).E.var
      and vb = (E.count ea q).E.var
      and vc = (E.count ec q).E.var in
      let bound = Float.min va vb in
      if vc > bound +. (1e-12 *. (bound +. 1.)) then
        fail ctx ~check:"planner-combined-variance" ~tier:Differential
          "combined variance %.12g exceeds min(%.12g, %.12g) on %a" vc va vb
          Predicate.pp q)
    ctx.case.Case.queries

(* Product-gated like exact-count: the chosen route's realized error must
   sit within its own predicted CI at z sigmas — whichever backend the
   planner picked, its error model has to be honest. *)
let c_planner_route_ci ctx =
  if ctx.case.Case.spec.Gen.mode <> Gen.Product then ()
  else begin
    let estimators =
      [
        E.of_summary ctx.case.Case.summary;
        E.of_sample (planner_sample ctx);
        E.of_relation ctx.case.Case.rel;
      ]
    in
    List.iter
      (fun q ->
        tally ctx;
        let d = P.choose ~target:P.default_target estimators (P.Count q) in
        let a = P.chosen_answer d in
        let exact = float_of_int (Exec.count ctx.case.Case.rel q) in
        let sd = sqrt (Float.max 0. a.E.var) in
        let sigma = Float.abs (a.E.est -. exact) /. (sd +. 1.) in
        ctx.max_sigma <- Float.max ctx.max_sigma sigma;
        if
          Float.abs (a.E.est -. exact)
          > (ctx.cfg.z *. (sd +. 1.)) +. ctx.cfg.exact_atol
        then
          fail ctx ~check:"planner-route-ci" ~tier:Exact
            "route %s: estimate %.6g vs exact %g is %.1f sigma (stddev %.4g) \
             on %a"
            (E.name d.P.chosen.P.estimator)
            a.E.est exact sigma sd Predicate.pp q)
      ctx.case.Case.queries
  end

(* Observability wiring: after a known sweep, the global registry's
   counters and the trace sink must account for exactly the work
   performed — the engine lying about what it did is a bug even when
   every answer is right.  Invariants: cache hits + misses = lookups
   with exact per-query deltas, and one "shard.eval" span (and counter
   tick) per shard per fanned-out query. *)
let c_obs_consistency ctx =
  let module R = Edb_obs.Registry in
  let module Trace = Edb_obs.Trace in
  let value name = R.Counter.value (R.counter name) in
  let nq = List.length ctx.case.Case.queries in
  tally ctx;
  let s = ctx.case.Case.summary in
  let cache = Cache.create s in
  let l0 = value "cache.lookups"
  and h0 = value "cache.hits"
  and m0 = value "cache.misses" in
  List.iter
    (fun q ->
      ignore (Cache.estimate cache q);
      ignore (Cache.estimate cache q))
    ctx.case.Case.queries;
  let dl = value "cache.lookups" - l0
  and dh = value "cache.hits" - h0
  and dm = value "cache.misses" - m0 in
  (* The query list may repeat a predicate, so the miss count is the
     number of *distinct* keys — which is exactly the entries resident
     afterwards (capacity far exceeds the sweep, no evictions). *)
  let st = Cache.stats cache in
  if
    dl <> 2 * nq
    || dh + dm <> dl
    || dm <> st.Cache.entries
    || dh <> st.Cache.hits
    || dm <> st.Cache.misses
  then
    fail ctx ~check:"obs-consistency" ~tier:Differential
      "cache counters off after %d lookup pairs: global lookups +%d, hits \
       +%d, misses +%d; instance hits %d, misses %d, entries %d"
      nq dl dh dm st.Cache.hits st.Cache.misses st.Cache.entries;
  tally ctx;
  let k = Edb_shard.Sharded.num_shards ctx.case.Case.sharded in
  let se0 = value "shard.evals" in
  let was = Trace.enabled () in
  Trace.set_enabled true;
  Trace.clear ();
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled was)
    (fun () ->
      List.iter
        (fun q -> ignore (Edb_shard.Sharded.estimate ctx.case.Case.sharded q))
        ctx.case.Case.queries);
  let spans =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.Trace.name = "shard.eval")
         (Trace.events ()))
  in
  let dse = value "shard.evals" - se0 in
  if spans <> k * nq then
    fail ctx ~check:"obs-consistency" ~tier:Differential
      "expected %d shard.eval spans (%d shards x %d queries), traced %d" (k * nq)
      k nq spans;
  if dse <> k * nq then
    fail ctx ~check:"obs-consistency" ~tier:Differential
      "shard.evals counter moved %d for %d shard evaluations" dse (k * nq)

(* ------------------------------------------------------------------ *)
(* Streaming ingest (lib/ingest)                                       *)
(* ------------------------------------------------------------------ *)

(* Split the case's relation into a base prefix and a ~20% suffix that
   plays the ingested batch; None for degenerate single-row cases. *)
let ingest_split ctx =
  let rel = ctx.case.Case.rel in
  let n = Relation.cardinality rel in
  if n < 2 then None
  else begin
    let d = max 1 (n / 5) in
    let prefix = Relation.select_rows rel (Array.init (n - d) Fun.id) in
    let suffix =
      Relation.select_rows rel (Array.init d (fun i -> n - d + i))
    in
    Some (prefix, suffix)
  end

(* Incremental maintenance must land where the cold rebuild landed: the
   delta-updated Φ IS the recount (targets are counts, additive over
   disjoint bags, exact in floating point), and the warm-started
   re-solve's estimates match the case's full build up to the slack two
   independent solves of the same Φ can carry. *)
let c_ingest_vs_rebuild ctx =
  match ingest_split ctx with
  | None -> ()
  | Some (prefix, suffix) ->
      let old_s =
        Summary.build ~solver_config:Case.quiet prefix
          ~joints:ctx.case.Case.joints
      in
      let inc =
        Edb_ingest.Ingest.append ~solver_config:Case.quiet old_s suffix
      in
      let full = ctx.case.Case.summary in
      let phi_inc = Poly.phi (Summary.poly inc) in
      let phi_full = Poly.phi (Summary.poly full) in
      tally ctx;
      let worst = ref None in
      for j = 0 to Phi.num_stats phi_full - 1 do
        let a = Statistic.target (Phi.stat phi_inc j) in
        let b = Statistic.target (Phi.stat phi_full j) in
        if a <> b && !worst = None then worst := Some (j, a, b)
      done;
      (match !worst with
      | Some (j, a, b) ->
          fail ctx ~check:"ingest-vs-rebuild" ~tier:Differential
            "delta-updated target differs from recount at stat %d: %.17g vs \
             %.17g"
            j a b
      | None -> ());
      (* Same Φ solved twice (warm vs cold): comparable only when both
         solves actually reached tolerance. *)
      if
        (Summary.solver_report inc).Solver.converged
        && (Summary.solver_report full).Solver.converged
      then
        List.iter
          (fun q ->
            tally ctx;
            let a = Summary.estimate inc q and b = Summary.estimate full q in
            if
              not
                (Floatx.approx_eq ~rtol:0.01
                   ~atol:(1e-4 *. (nf ctx +. 1.))
                   a b)
            then
              fail ctx ~check:"ingest-vs-rebuild" ~tier:Differential
                "ingested %.12g vs rebuilt %.12g on %a" a b Predicate.pp q)
          ctx.case.Case.queries

(* Counts are additive over the partition (old rows ⊎ batch), and each
   converged summary estimates its own partition's count within its own
   error bars — so est(old) + est(delta) must agree with the ingested
   summary's estimate up to the three models' combined uncertainty. *)
let c_ingest_additivity ctx =
  match ingest_split ctx with
  | None -> ()
  | Some (prefix, suffix) ->
      let joints = ctx.case.Case.joints in
      let old_s = Summary.build ~solver_config:Case.quiet prefix ~joints in
      let delta_s = Summary.build ~solver_config:Case.quiet suffix ~joints in
      let inc =
        Edb_ingest.Ingest.append ~solver_config:Case.quiet old_s suffix
      in
      if
        (Summary.solver_report old_s).Solver.converged
        && (Summary.solver_report delta_s).Solver.converged
        && (Summary.solver_report inc).Solver.converged
      then
        List.iter
          (fun q ->
            tally ctx;
            let parts =
              Summary.estimate old_s q +. Summary.estimate delta_s q
            in
            let whole = Summary.estimate inc q in
            let tol =
              ctx.cfg.z
              *. (Summary.stddev old_s q +. Summary.stddev delta_s q
                 +. Summary.stddev inc q)
              +. (3. *. ctx.cfg.exact_atol)
            in
            if Float.abs (parts -. whole) > tol then
              fail ctx ~check:"ingest-additivity" ~tier:Metamorphic
                "est(old) + est(delta) = %.12g but est(old ⊎ delta) = %.12g \
                 (tol %.3g) on %a"
                parts whole tol Predicate.pp q)
          ctx.case.Case.queries

(* ------------------------------------------------------------------ *)
(* Battery                                                             *)
(* ------------------------------------------------------------------ *)

let checks : (string * tier * (ctx -> unit)) list =
  [
    ("bruteforce-estimate", Differential, c_bruteforce_estimate);
    ("bruteforce-variance", Differential, c_bruteforce_variance);
    ("bruteforce-sum", Differential, c_bruteforce_sum);
    ("flat-vs-k1", Differential, c_flat_vs_k1);
    ("shard-additivity", Differential, c_shard_additivity);
    ("groupby-batched-vs-naive", Differential, c_groupby_batched_vs_naive);
    ("kernel-soa", Differential, c_kernel_soa);
    ("serialize-roundtrip", Differential, c_serialize_roundtrip);
    ("mmap-v3", Differential, c_mmap_v3);
    ("cache-vs-uncached", Differential, c_cache_vs_uncached);
    ("server-vs-library", Differential, c_server_vs_library);
    ("obs-consistency", Differential, c_obs_consistency);
    ("widening-monotonic", Metamorphic, c_widening_monotonic);
    ("groupby-total", Metamorphic, c_groupby_total);
    ("partition-additivity", Metamorphic, c_partition_additivity);
    ("conj-idempotent", Metamorphic, c_conj_idempotent);
    ("unsat-zero", Metamorphic, c_unsat_zero);
    ("tautology-n", Metamorphic, c_tautology_n);
    ("disjunction-singleton", Metamorphic, c_disjunction_singleton);
    ("disjunction-disjoint", Metamorphic, c_disjunction_disjoint);
    ("disjunction-bounds", Metamorphic, c_disjunction_bounds);
    ("ingest-vs-rebuild", Differential, c_ingest_vs_rebuild);
    ("ingest-additivity", Metamorphic, c_ingest_additivity);
    ("planner-singleton", Differential, c_planner_singleton);
    ("planner-combined-variance", Differential, c_planner_combined_variance);
    ("exact-count", Exact, c_exact_count);
    ("planner-route-ci", Exact, c_planner_route_ci);
  ]

let check_names = List.map (fun (n, _, _) -> n) checks

let run ?only cfg (spec : Gen.spec) =
  match Case.build spec with
  | exception e ->
      {
        findings =
          [
            {
              check = "build";
              tier = Differential;
              seed = spec.Gen.seed;
              detail = "build raised: " ^ Printexc.to_string e;
            };
          ];
        checks_run = 1;
        max_exact_sigma = 0.;
      }
  | case ->
      let ctx =
        { cfg; case; findings = []; checks = 0; max_sigma = 0.; bf = None }
      in
      List.iter
        (fun (name, tier, f) ->
          match only with
          | Some o when o <> name -> ()
          | _ -> (
              try f ctx
              with e ->
                fail ctx ~check:name ~tier "check raised: %s"
                  (Printexc.to_string e)))
        checks;
      {
        findings = List.rev ctx.findings;
        checks_run = ctx.checks;
        max_exact_sigma = ctx.max_sigma;
      }
