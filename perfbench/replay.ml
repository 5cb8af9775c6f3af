(* The traced replay: a workload's request sequence (same seed) replayed
   in-process against catalogs loaded from the served file, with an
   Edb_obs span around each public call of every layer the daemon's
   request path crosses.  Spans carry a span id, their parent's id and
   the request id; per-layer self times are computed from the recorded
   trace itself.

   Three replicas run in lockstep, each over its own copy of the file so
   REFRESHes stay independent:
   - [traced]: the request path decomposed into its public calls, spans on;
   - [handler]: the real [Handler.handle], untimed inside, spans off —
     the reference for [trace.coverage];
   - [plain]: the decomposed path again with spans off, for
     [obs.trace_overhead] and the allocation counts. *)

module C = Edb_server.Catalog
module H = Edb_server.Handler
module P = Edb_server.Protocol
module T = Edb_query.Translate
module Core = Entropydb_core
open Edb_storage

type step = Query of string  (** tagged request line *) | Refresh of string  (** batch CSV *)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let cat = "perfbench"
let next_sid = ref 0
let current = ref "0"
let request = ref "-"

let span name f =
  if not (Edb_obs.Obs.enabled ()) then f ()
  else begin
    incr next_sid;
    let sid = string_of_int !next_sid and parent = !current and req = !request in
    current := sid;
    match
      Edb_obs.Obs.with_span ~cat
        ~attrs:(fun () -> [ ("sid", sid); ("parent", parent); ("req", req) ])
        name f
    with
    | v ->
        current := parent;
        v
    | exception e ->
        current := parent;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Replicas                                                            *)
(* ------------------------------------------------------------------ *)

type words = { mutable w : float; mutable n : int }

let compile_words = { w = 0.; n = 0 }
let eval_words = { w = 0.; n = 0 }

(* Minor-heap words [f] allocates, when [counting]. *)
let counted counting acc f =
  if not counting then f ()
  else begin
    let w0 = Gc.minor_words () in
    let v = f () in
    acc.w <- acc.w +. (Gc.minor_words () -. w0);
    acc.n <- acc.n + 1;
    v
  end

type replica = {
  catalog : C.t;
  metrics : Edb_server.Metrics.t;
  counting : bool;
  mutable caches : (C.entry * Core.Cache.t) list;
  mutable sweeps : int;
  mutable busy : float;  (** summed wall time of this replica's steps *)
  mutable handle_s : float;  (** summed wall time of its server.handle stage *)
}

let replica ~name ~counting path =
  let catalog = C.create () in
  (match span "core.serialize.open" (fun () -> C.load catalog ~name ~path) with
  | Ok _ -> ()
  | Error m -> failwith ("replay load: " ^ m));
  { catalog; metrics = Edb_server.Metrics.create (); counting; caches = []; sweeps = 0; busy = 0.; handle_s = 0. }

(* The entry's query cache, rebuilt around kernel calls wrapped in spans
   (the catalog builds the same cache over the same estimators). *)
let cache_for r (entry : C.entry) =
  match List.assq_opt entry r.caches with
  | Some c -> c
  | None ->
      let estimate p =
        span "core.kernel.estimate" (fun () ->
            counted r.counting eval_words (fun () -> C.estimate entry p))
      in
      let groups ~attrs p =
        span "core.kernel.groups" (fun () ->
            match entry.C.backing with
            | C.Heap sh -> Edb_shard.Sharded.estimate_groups_with_stddev sh ~attrs p
            | C.Mapped m -> Core.Mapped.estimate_groups_with_stddev m ~attrs p)
      in
      let c = Core.Cache.of_fn ~capacity:4096 ~groups estimate in
      r.caches <- (entry, c) :: r.caches;
      c

let float_str v = Printf.sprintf "%.17g" v

(* The handler's group formatting: order, limit, label. *)
let group_lines schema (c : T.compiled) groups =
  let cmp =
    match c.T.order with
    | Some Edb_query.Ast.Asc ->
        fun (ka, a, _) (kb, b, _) ->
          let o = Float.compare a b in
          if o <> 0 then o else Stdlib.compare ka kb
    | _ ->
        fun (ka, a, _) (kb, b, _) ->
          let o = Float.compare b a in
          if o <> 0 then o else Stdlib.compare ka kb
  in
  let groups = List.sort cmp groups in
  let groups =
    match c.T.limit with
    | Some k -> List.filteri (fun i _ -> i < k) groups
    | None -> groups
  in
  List.map
    (fun (values, est, sd) ->
      let labels =
        List.map2 (fun a v -> Domain.label (Schema.domain schema a) v) c.T.group_attrs values
      in
      Printf.sprintf "group %s %s %s" (float_str est) (float_str sd) (String.concat "," labels))
    groups

(* One QUERY through the decomposed request path. *)
let decomposed_query r line =
  let tag, name, sql =
    span "server.parse" (fun () ->
        match P.split_tag line with
        | Error e -> failwith e
        | Ok (tag, rest) -> (
            match P.parse_request rest with
            | Ok (P.Query { name; sql }) -> (tag, name, sql)
            | _ -> failwith ("replay: not a QUERY: " ^ rest)))
  in
  let t0 = Unix.gettimeofday () in
  let response =
    span "server.handle" (fun () ->
        let result =
          span "server.pin" (fun () ->
              C.with_entry r.catalog name (fun entry ->
                  let schema = C.schema entry in
                  let compiled =
                    span "query.compile" (fun () ->
                        counted r.counting compile_words (fun () -> T.compile_string schema sql))
                  in
                  match compiled with
                  | Error e -> Error e.T.message
                  | Ok ({ T.aggregate = T.Count; disjuncts = [ p ]; group_attrs = []; _ }) ->
                      let cache = cache_for r entry in
                      let est = span "core.cache" (fun () -> Core.Cache.estimate cache p) in
                      let sd = span "core.kernel.stddev" (fun () -> C.stddev entry p) in
                      Ok (`Count (est, sd))
                  | Ok ({ T.aggregate = T.Count; disjuncts = [ p ]; group_attrs; _ } as c) ->
                      let cache = cache_for r entry in
                      let groups =
                        span "core.cache" (fun () ->
                            Core.Cache.estimate_groups cache ~attrs:group_attrs p)
                      in
                      Ok (`Groups (schema, c, groups))
                  | Ok _ -> failwith ("replay: unsupported query shape: " ^ sql)))
        in
        span "server.format" (fun () ->
            match result with
            | Error m -> P.Err { code = P.err_load; message = m }
            | Ok (Error m) -> P.Err { code = P.err_parse; message = m }
            | Ok (Ok (`Count (est, sd))) ->
                P.Ok [ "estimate " ^ float_str est; "stddev " ^ float_str sd ]
            | Ok (Ok (`Groups (schema, c, groups))) -> P.Ok (group_lines schema c groups)))
  in
  r.handle_s <- r.handle_s +. (Unix.gettimeofday () -. t0);
  let bytes =
    span "server.print" (fun () ->
        String.concat "" (List.map (fun l -> l ^ "\n") (P.print_tagged_response tag response)))
  in
  (response, String.length bytes)

(* One REFRESH through the decomposed ingest path (Catalog.refresh's
   steps: heap summary, CSV load, append + warm re-solve, atomic save,
   reopen and swap). *)
let decomposed_refresh r ~name path =
  span "server.refresh" (fun () ->
      let entry = Option.get (C.find r.catalog name) in
      let flat =
        match entry.C.backing with
        | C.Heap sh -> (Edb_shard.Sharded.shards sh).(0)
        | C.Mapped _ -> span "core.serialize.load" (fun () -> Core.Serialize.load entry.C.path)
      in
      let batch =
        span "storage.csv_load" (fun () ->
            match Csv_io.load_indices (Core.Summary.schema flat) path with
            | Ok b -> b
            | Error _ -> failwith ("replay: bad batch " ^ path))
      in
      let summary, stats =
        span "ingest.append" (fun () ->
            Edb_ingest.Ingest.append_with_stats ~source:(Filename.basename path) flat batch)
      in
      span "ingest.save_atomic" (fun () -> Edb_ingest.Ingest.save_atomic summary entry.C.path);
      (match span "server.swap" (fun () -> C.load r.catalog ~name ~path:entry.C.path) with
      | Ok _ -> ()
      | Error m -> failwith ("replay swap: " ^ m));
      r.sweeps <- r.sweeps + stats.Edb_ingest.Ingest.sweeps)

(* ------------------------------------------------------------------ *)
(* The replay                                                          *)
(* ------------------------------------------------------------------ *)

type layer = { count : int; dur_us : float; self_us : float }

type result = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  layers : (string * layer) list;  (** per span name, totals *)
  coverage : float;
  fidelity : float;
      (** untraced decomposed server.handle time over untraced Handler.handle time *)
  gap_us : float;  (** mean Handler.handle time per query the stage spans miss *)
  dropped : int;
}

let timed r f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  r.busy <- r.busy +. (Unix.gettimeofday () -. t0);
  v

let run ~name ~work ~served ~terms steps =
  let ext = Filename.extension served in
  let copy tag =
    let p = Filename.concat work ("replay-" ^ tag ^ ext) in
    Expect.copy_file served p;
    p
  in
  Edb_obs.Trace.set_capacity (1 lsl 19);
  Edb_obs.Obs.set_enabled true;
  let traced = replica ~name ~counting:false (copy "traced") in
  Edb_obs.Obs.set_enabled false;
  let plain = replica ~name ~counting:true (copy "plain") in
  let handler = replica ~name ~counting:false (copy "handler") in
  let handle_s = ref 0. and queries = ref 0 and bytes = ref 0 in
  (* Untraced decomposed and Handler.handle times of the request pairs
     where neither path took over 3x the other: such a pair was hit by
     a host preemption, not by the code, and would swing the ratio. *)
  let kept_plain = ref 0. and kept_real = ref 0. in
  List.iteri
    (fun i step ->
      request := string_of_int i;
      match step with
      | Query line ->
          Edb_obs.Obs.set_enabled true;
          let a, nbytes = timed traced (fun () -> decomposed_query traced line) in
          Edb_obs.Obs.set_enabled false;
          let req =
            match P.split_tag line with
            | Ok (_, rest) -> Result.get_ok (P.parse_request rest)
            | Error e -> failwith e
          in
          let real_s = ref 0. and plain0 = plain.handle_s in
          let real () =
            let t0 = Unix.gettimeofday () in
            let b, _ = H.handle ~catalog:handler.catalog ~metrics:handler.metrics req in
            real_s := Unix.gettimeofday () -. t0;
            handle_s := !handle_s +. !real_s;
            b
          in
          let decomposed () = fst (timed plain (fun () -> decomposed_query plain line)) in
          (* The path that runs second finds caches warm for this request,
             so the two untraced paths take turns. *)
          let b, c =
            if i mod 2 = 0 then
              let b = real () in
              (b, decomposed ())
            else
              let c = decomposed () in
              (real (), c)
          in
          if a <> b || c <> b then failwith ("replay diverges from Handler.handle on " ^ line);
          let plain_s = plain.handle_s -. plain0 in
          if plain_s < 3. *. !real_s && !real_s < 3. *. plain_s then begin
            kept_plain := !kept_plain +. plain_s;
            kept_real := !kept_real +. !real_s
          end;
          incr queries;
          bytes := !bytes + nbytes
      | Refresh path ->
          Edb_obs.Obs.set_enabled true;
          timed traced (fun () -> decomposed_refresh traced ~name path);
          Edb_obs.Obs.set_enabled false;
          timed plain (fun () -> decomposed_refresh plain ~name path);
          ignore (H.handle ~catalog:handler.catalog ~metrics:handler.metrics
                    (P.Refresh { name; path })))
    steps;
  let events =
    List.filter (fun (e : Edb_obs.Trace.event) -> e.cat = cat) (Edb_obs.Trace.events ())
  in
  Edb_obs.Trace.write_file (Filename.concat work "trace.json");
  (* Self time = duration minus the durations of the span's children. *)
  let attr e k = List.assoc k e.Edb_obs.Trace.attrs in
  let child_us = Hashtbl.create 65536 in
  List.iter
    (fun e ->
      let p = attr e "parent" in
      Hashtbl.replace child_us p
        (e.Edb_obs.Trace.dur_us +. Option.value (Hashtbl.find_opt child_us p) ~default:0.))
    events;
  let layers = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let self =
        e.Edb_obs.Trace.dur_us
        -. Option.value (Hashtbl.find_opt child_us (attr e "sid")) ~default:0.
      in
      let l =
        Option.value (Hashtbl.find_opt layers e.Edb_obs.Trace.name)
          ~default:{ count = 0; dur_us = 0.; self_us = 0. }
      in
      Hashtbl.replace layers e.Edb_obs.Trace.name
        { count = l.count + 1; dur_us = l.dur_us +. e.Edb_obs.Trace.dur_us; self_us = l.self_us +. self })
    events;
  let get n = Option.value (Hashtbl.find_opt layers n) ~default:{ count = 0; dur_us = 0.; self_us = 0. } in
  let mean_dur n = let l = get n in if l.count = 0 then 0. else l.dur_us /. float_of_int l.count in
  let mean_self n = let l = get n in if l.count = 0 then 0. else l.self_us /. float_of_int l.count in
  (* Coverage: the share of the traced server.handle time that its stage
     spans cover (at most 1), times the untraced decomposed handle time
     over the untraced Handler.handle time of the same requests (below 1
     when Handler.handle does work the replay does not decompose).  Both
     factors compare like with like, so the spans' own cost cancels. *)
  let handle = get "server.handle" in
  let stage_share = if handle.dur_us > 0. then (handle.dur_us -. handle.self_us) /. handle.dur_us else 0. in
  let fidelity = if !kept_real > 0. then !kept_plain /. !kept_real else 0. in
  let coverage = stage_share *. fidelity in
  let handle_us = !handle_s *. 1e6 in
  let nq = float_of_int (max 1 !queries) in
  let hits, misses, evictions =
    List.fold_left
      (fun (h, m, e) (_, c) ->
        let s = Core.Cache.stats c in
        (h + s.Core.Cache.hits, m + s.Core.Cache.misses, e + s.Core.Cache.evictions))
      (0, 0, 0) traced.caches
  in
  let per w = if w.n = 0 then 0. else w.w /. float_of_int w.n in
  let ms n = mean_dur n /. 1e3 in
  let estimate_us = mean_dur "core.kernel.estimate" in
  let metrics =
    [
      ("query.compile_us", "us", mean_dur "query.compile");
      ("query.compile_words", "words", per compile_words);
      ("server.parse_us", "us", mean_dur "server.parse");
      ("server.print_us", "us", mean_dur "server.print");
      ("server.print_bytes", "B", float_of_int !bytes /. nq);
      ("server.pin_us", "us", mean_self "server.pin");
      ("server.handle_us", "us", handle_us /. nq);
      ("server.handle_self_us", "us", mean_self "server.handle" +. mean_dur "server.format");
      ("core.cache.hit_rate", "ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ("core.cache.lookup_us", "us", mean_self "core.cache");
      ("core.cache.evictions", "count", float_of_int evictions);
      ("core.kernel.estimate_us", "us", estimate_us);
      ("core.kernel.stddev_us", "us", mean_dur "core.kernel.stddev");
      ("core.kernel.groups_us", "us", mean_dur "core.kernel.groups");
      ("core.kernel.ns_per_term", "ns", estimate_us *. 1e3 /. float_of_int (max 1 terms));
      ("core.kernel.words_per_eval", "words", per eval_words);
      ("core.serialize.open_ms", "ms", ms "core.serialize.open");
      ("storage.csv_load_ms", "ms", ms "storage.csv_load");
      ("ingest.append_ms", "ms", ms "ingest.append");
      ("ingest.warm_sweeps", "count", float_of_int plain.sweeps);
      ("ingest.save_atomic_ms", "ms", ms "ingest.save_atomic");
      ("server.swap_ms", "ms", ms "server.swap");
      ("obs.trace_overhead", "ms", (traced.busy -. plain.busy) *. 1e3);
      ("trace.coverage", "ratio", coverage);
    ]
  in
  {
    metrics;
    layers = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []);
    coverage;
    fidelity;
    gap_us = handle_us *. (1. -. coverage) /. nq;
    dropped = Edb_obs.Trace.dropped ();
  }
