(* The server's directory of resident summaries, under a byte budget.

   Summaries are built offline (`entropydb build`/`summarize`) and loaded
   by name from disk — flat files, sharded manifests, and mmap-able v3
   files alike, sniffed by magic (Edb_shard.Store.open_any).  v3 files
   become zero-copy *mapped* entries: O(header + manifest) to open, body
   pages file-backed and clean.  Everything else heap-loads.

   Residency is *weighted*: every entry is charged its byte footprint
   (mapped file size, or estimated kernel-table heap size) against a
   configurable budget, and eviction is weighted LRU — drop the
   least-recently-used unpinned entries until both the byte budget and
   the entry-count capacity hold.  A deployment can therefore serve a
   thousand small summaries under a budget far below their total
   footprint, paying a cheap reopen on the cold ones.

   Eviction keeps the name→path *slot* (the persistent directory): a
   later request for an evicted name transparently reopens it from disk
   — O(1) for v3 files — so budget-driven eviction is invisible to
   clients, it only shows up as latency and in the reopen counter.
   Explicit [evict] removes the slot too (the name is gone).

   Pinning: a request resolves its entry once ([with_entry]) and holds a
   pin for its whole execution; pinned entries are never chosen for
   eviction, so an in-flight request can never have its mapping's
   accounting pulled out from under it, and the byte budget may
   transiently overshoot by the pinned bytes.  (Safety does not depend
   on this — an evicted entry stays valid while referenced, since the
   mapping lives until the Bigarray is collected — but pinning keeps the
   books honest and the residency stats meaningful.)

   Thread-safety: slots, the LRU clock, byte accounting, and counters
   are mutex-guarded.  Opening (the expensive part for heap formats)
   runs outside the lock, so a slow LOAD never blocks queries against
   resident summaries; if two threads race to open the same name, both
   open and the later insert wins, which is safe because summaries are
   immutable. *)

open Entropydb_core

(* Open latency, O(header + manifest) for v3 files regardless of body
   size — `bench catalog` gates on this histogram's shape.  Values are
   *nanoseconds* (the name carries the unit, like kernel_eval_ns):
   mapped opens sit around the microsecond scale where the histogram's
   native microsecond resolution would flatten them. *)
let open_ns_hist = Edb_obs.Registry.histogram "catalog_open_ns"

type aux = {
  rel : Edb_storage.Relation.t;
  sample : Edb_sampling.Sample.t;
  rate : float;
  csv_path : string;
}

type backing = Edb_shard.Store.opened =
  | Heap of Edb_shard.Sharded.t
  | Mapped of Mapped.t

type entry = {
  name : string;
  path : string;
  backing : backing;
  bytes : int; (* footprint charged against the budget *)
  cache : Cache.t;
  mutable last_used : int;
  mutable pins : int; (* in-flight requests; eviction skips > 0 *)
  mutable aux : aux option;
}

(* A known name: its path survives eviction so the entry can be
   reopened transparently. *)
type slot = { s_name : string; mutable s_path : string; mutable s_resident : entry option }

type stats = {
  resident : int;
  resident_mapped : int;
  capacity : int;
  budget_bytes : int option;
  resident_bytes : int;
  mapped_bytes : int;
  heap_bytes : int;
  pinned : int;
  slots : int;
  shards : int;
  hits : int;
  misses : int;
  loads : int;
  evictions : int;
  reopens : int;
}

type t = {
  capacity : int;
  budget : int option;
  cache_capacity : int;
  table : (string, slot) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable resident_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable loads : int;
  mutable evictions : int;
  mutable reopens : int;
}

let create ?(capacity = 8) ?budget_bytes ?(cache_capacity = 4096) () =
  if capacity < 1 then invalid_arg "Catalog.create: capacity must be positive";
  (match budget_bytes with
  | Some b when b < 1 ->
      invalid_arg "Catalog.create: budget_bytes must be positive"
  | _ -> ());
  {
    capacity;
    budget = budget_bytes;
    cache_capacity;
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    tick = 0;
    resident_bytes = 0;
    hits = 0;
    misses = 0;
    loads = 0;
    evictions = 0;
    reopens = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Backing dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let kind_name entry =
  match entry.backing with Heap _ -> "heap" | Mapped _ -> "mapped"

(* Metadata comes straight from the backing (for a mapped entry, the
   manifest), so listing or attaching never touches an unverified
   body. *)
let schema entry =
  match entry.backing with
  | Heap sh -> Edb_shard.Sharded.schema sh
  | Mapped m -> Mapped.schema m

let cardinality entry =
  match entry.backing with
  | Heap sh -> Edb_shard.Sharded.cardinality sh
  | Mapped m -> Mapped.cardinality m

let num_shards entry =
  match entry.backing with
  | Heap sh -> Edb_shard.Sharded.num_shards sh
  | Mapped _ -> 1

(* The one estimator surface: a mapped summary answers as the k = 1
   view of its (verified) Summary, bitwise equal to the flat answer. *)
let sharded_of = function
  | Heap sh -> sh
  | Mapped m -> Edb_shard.Sharded.of_flat (Mapped.summary m)

let sharded entry = sharded_of entry.backing
let estimate entry q = Edb_shard.Sharded.estimate (sharded entry) q
let stddev entry q = Edb_shard.Sharded.stddev (sharded entry) q

let estimate_sum entry ~attr q =
  Edb_shard.Sharded.estimate_sum (sharded entry) ~attr q

let variance_sum entry ~attr q =
  Edb_shard.Sharded.variance_sum (sharded entry) ~attr q

let estimate_avg entry ~attr q =
  Edb_shard.Sharded.estimate_avg (sharded entry) ~attr q

let estimate_disjuncts entry disjuncts =
  Edb_shard.Sharded.estimate_disjuncts (sharded entry) disjuncts

let stddev_disjuncts entry disjuncts =
  Edb_shard.Sharded.stddev_disjuncts (sharded entry) disjuncts

let footprint = function
  | Heap sh -> Edb_shard.Sharded.footprint_bytes sh
  | Mapped m -> Mapped.size_bytes m

(* ------------------------------------------------------------------ *)
(* Residency management (callers hold the lock)                        *)
(* ------------------------------------------------------------------ *)

let resident_entries_locked t =
  Hashtbl.fold
    (fun _ s acc -> match s.s_resident with Some e -> e :: acc | None -> acc)
    t.table []

let resident_count_locked t =
  Hashtbl.fold
    (fun _ s acc -> acc + (if s.s_resident = None then 0 else 1))
    t.table 0

(* Drop residency, keep the slot.  The entry object stays valid for any
   request still holding it. *)
let unmap_locked t slot entry =
  slot.s_resident <- None;
  t.resident_bytes <- t.resident_bytes - entry.bytes;
  t.evictions <- t.evictions + 1

(* Weighted-LRU eviction: while over the byte budget or the entry-count
   capacity, drop the least-recently-used *unpinned* entry.  If every
   remaining entry is pinned, stop — the budget transiently overshoots
   by in-flight bytes rather than yanking an active request's entry. *)
let rebalance_locked t =
  let over () =
    resident_count_locked t > t.capacity
    || (match t.budget with Some b -> t.resident_bytes > b | None -> false)
  in
  let continue_ = ref (over ()) in
  while !continue_ do
    let victim =
      Hashtbl.fold
        (fun _ s acc ->
          match s.s_resident with
          | Some e when e.pins = 0 -> (
              match acc with
              | Some (_, best) when best.last_used <= e.last_used -> acc
              | _ -> Some (s, e))
          | _ -> acc)
        t.table None
    in
    match victim with
    | Some (slot, e) ->
        unmap_locked t slot e;
        continue_ := over ()
    | None -> continue_ := false
  done

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

(* Open a summary file the cheapest way its format allows and package
   it as an entry.  Runs outside the lock. *)
let open_entry t ~name ~path =
  match
    let t0 = Edb_util.Timing.now_s () in
    let opened = Edb_shard.Store.open_any path in
    Edb_obs.Registry.Hist.observe_us open_ns_hist
      ((Edb_util.Timing.now_s () -. t0) *. 1e9);
    opened
  with
  | exception Serialize.Format_error m ->
      Error (Printf.sprintf "%s: bad summary file: %s" path m)
  | exception Sys_error m -> Error m
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | backing ->
      let cache =
        Cache.of_fn ~capacity:t.cache_capacity
          ~groups:(fun ~attrs pred ->
            Edb_shard.Sharded.estimate_groups_with_stddev (sharded_of backing)
              ~attrs pred)
          (fun pred -> Edb_shard.Sharded.estimate (sharded_of backing) pred)
      in
      Ok
        {
          name;
          path;
          backing;
          bytes = footprint backing;
          cache;
          last_used = 0;
          pins = 0;
          aux = None;
        }

(* Make [entry] the resident summary for its name (creating or reusing
   the slot), bump its LRU position, and rebalance. *)
let install_locked t entry =
  let slot =
    match Hashtbl.find_opt t.table entry.name with
    | Some s -> s
    | None ->
        let s = { s_name = entry.name; s_path = entry.path; s_resident = None } in
        Hashtbl.add t.table entry.name s;
        s
  in
  (match slot.s_resident with
  | Some old -> t.resident_bytes <- t.resident_bytes - old.bytes
  | None -> ());
  slot.s_path <- entry.path;
  slot.s_resident <- Some entry;
  t.resident_bytes <- t.resident_bytes + entry.bytes;
  t.tick <- t.tick + 1;
  entry.last_used <- t.tick;
  rebalance_locked t

let load t ~name ~path =
  match open_entry t ~name ~path with
  | Error _ as e -> e
  | Ok entry ->
      with_lock t (fun () ->
          t.loads <- t.loads + 1;
          install_locked t entry);
      Ok entry

let known t name =
  with_lock t (fun () -> Hashtbl.mem t.table name)

let find t name =
  with_lock t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.table name with
      | Some { s_resident = Some entry; _ } ->
          entry.last_used <- t.tick;
          t.hits <- t.hits + 1;
          Some entry
      | Some { s_resident = None; _ } | None ->
          t.misses <- t.misses + 1;
          None)

(* Resolve a name to a pinned entry: resident hit, or transparent
   reopen from the slot's path (O(1) for v3 files).  The double-checked
   reopen keeps the open outside the lock; if another thread installed
   the name meanwhile, its entry wins and our open is dropped. *)
let acquire t name =
  let resolved =
    with_lock t (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.table name with
        | Some { s_resident = Some entry; _ } ->
            entry.last_used <- t.tick;
            entry.pins <- entry.pins + 1;
            t.hits <- t.hits + 1;
            `Pinned entry
        | Some ({ s_resident = None; _ } as slot) ->
            t.misses <- t.misses + 1;
            `Reopen slot.s_path
        | None ->
            t.misses <- t.misses + 1;
            `Unknown)
  in
  match resolved with
  | `Pinned entry -> Ok entry
  | `Unknown ->
      Error (Printf.sprintf "no resident summary named %s; LOAD it first" name)
  | `Reopen path -> (
      match open_entry t ~name ~path with
      | Error m -> Error m
      | Ok entry ->
          Ok
            (with_lock t (fun () ->
                 match Hashtbl.find_opt t.table name with
                 | Some { s_resident = Some winner; _ } ->
                     t.tick <- t.tick + 1;
                     winner.last_used <- t.tick;
                     winner.pins <- winner.pins + 1;
                     winner
                 | _ ->
                     t.reopens <- t.reopens + 1;
                     entry.pins <- 1;
                     install_locked t entry;
                     entry)))

let release t entry =
  with_lock t (fun () ->
      entry.pins <- entry.pins - 1;
      if entry.pins = 0 then rebalance_locked t)

let with_entry t name f =
  match acquire t name with
  | Error _ as e -> e
  | Ok entry ->
      Fun.protect
        ~finally:(fun () -> release t entry)
        (fun () -> Ok (f entry))

(* Attach a base-table CSV (index form, the summary's schema) to a
   resident summary: the relation (exact scan) plus a deterministic
   uniform sample of it become the entry's extra planner routes.  CSV
   parsing and sampling run outside the lock, like [load]; the sample's
   PRNG seed derives from (name, path) so re-attachment is
   reproducible. *)
let attach t ~name ~path ~rate =
  match acquire t name with
  | Error m -> Error m
  | Ok entry ->
      Fun.protect
        ~finally:(fun () -> release t entry)
        (fun () ->
          if not (rate > 0. && rate <= 1.) then
            Error "attach rate must be in (0, 1]"
          else
            let schema = schema entry in
            match Edb_storage.Csv_io.load_indices schema path with
            | exception Sys_error m -> Error m
            | Error e ->
                Error
                  (Format.asprintf "%s: %a" path Edb_storage.Csv_io.pp_error e)
            | Ok rel ->
                let rng =
                  Edb_util.Prng.create ~seed:(Hashtbl.hash (name, path)) ()
                in
                let sample = Edb_sampling.Uniform.create rng ~rate rel in
                with_lock t (fun () ->
                    entry.aux <- Some { rel; sample; rate; csv_path = path });
                Ok entry)

type refresh_info = {
  batch_rows : int;
  cardinality : int;
  sweeps : int;
  batches : int;  (* journal length after the append *)
}

(* Incremental REFRESH: ingest a batch CSV into a resident summary and
   atomically swap the catalog entry.

   All the expensive work — CSV parse, delta-Φ, warm-started re-solve,
   atomic on-disk rewrite — runs outside the lock, on the worker thread
   serving the REFRESH.  Concurrent queries keep answering from the old
   entry (a request resolves its entry once and uses that immutable
   summary throughout, so no request ever mixes old and new answers).
   The swap itself is one slot update under the lock with a *fresh*
   cache, so every cached answer derived from the old summary is
   invalidated by construction.  Any ATTACHed base table describes the
   pre-batch relation and is dropped — re-ATTACH after REFRESH.

   Mapped entries refresh too: the flat summary is heap-rebuilt from the
   v3 file, appended to, and written back atomically in v3
   ([Edb_ingest.Ingest.save_atomic] preserves the on-disk format), then
   the entry reopens zero-copy. *)
let refresh t ~name ~path:csv_path =
  match acquire t name with
  | Error m -> Error m
  | Ok entry ->
      Fun.protect
        ~finally:(fun () -> release t entry)
        (fun () ->
          if num_shards entry <> 1 then
            Error
              (Printf.sprintf
                 "REFRESH supports unsharded summaries; %s has %d shards" name
                 (num_shards entry))
          else
            let flat =
              match entry.backing with
              | Heap sh -> Ok (Edb_shard.Sharded.shards sh).(0)
              | Mapped _ -> (
                  (* Heap-rebuild the solved summary from the v3 file;
                     checksums re-verified by the loader. *)
                  match Serialize.load entry.path with
                  | exception Serialize.Format_error m ->
                      Error (Printf.sprintf "%s: bad summary file: %s" entry.path m)
                  | exception Sys_error m -> Error m
                  | s -> Ok s)
            in
            match flat with
            | Error m -> Error m
            | Ok flat -> (
                let schema = Summary.schema flat in
                match Edb_storage.Csv_io.load_indices schema csv_path with
                | exception Sys_error m -> Error m
                | Error e ->
                    Error
                      (Format.asprintf "%s: %a" csv_path
                         Edb_storage.Csv_io.pp_error e)
                | Ok batch -> (
                    match
                      Edb_ingest.Ingest.append_with_stats
                        ~source:(Filename.basename csv_path) flat batch
                    with
                    | exception Invalid_argument m -> Error m
                    | summary', stats -> (
                        match
                          Edb_ingest.Ingest.save_atomic summary' entry.path
                        with
                        | exception Sys_error m -> Error m
                        | () -> (
                            (* Reopen from disk so the resident entry and
                               the file agree (and a v3 file stays
                               zero-copy). *)
                            match open_entry t ~name ~path:entry.path with
                            | Error m -> Error m
                            | Ok entry' ->
                                with_lock t (fun () -> install_locked t entry');
                                Ok
                                  ( entry',
                                    {
                                      batch_rows =
                                        stats.Edb_ingest.Ingest.batch_rows;
                                      cardinality =
                                        stats.Edb_ingest.Ingest.cardinality;
                                      sweeps = stats.Edb_ingest.Ingest.sweeps;
                                      batches =
                                        Journal.batches
                                          (Summary.journal summary');
                                    } ))))))

let evict t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some slot ->
          (match slot.s_resident with
          | Some e -> unmap_locked t slot e
          | None -> ());
          Hashtbl.remove t.table name;
          true
      | None -> false)

let entries t =
  with_lock t (fun () ->
      resident_entries_locked t
      |> List.sort (fun a b -> compare a.name b.name))

let cache_stats t =
  List.fold_left
    (fun (h, m, e) entry ->
      let s = Cache.stats entry.cache in
      (h + s.Cache.hits, m + s.Cache.misses, e + s.Cache.evictions))
    (0, 0, 0) (entries t)

let stats t =
  with_lock t (fun () ->
      let res = resident_entries_locked t in
      let mapped_bytes =
        List.fold_left
          (fun acc e ->
            acc + (match e.backing with Mapped _ -> e.bytes | Heap _ -> 0))
          0 res
      in
      {
        resident = List.length res;
        resident_mapped =
          List.length
            (List.filter
               (fun e -> match e.backing with Mapped _ -> true | _ -> false)
               res);
        capacity = t.capacity;
        budget_bytes = t.budget;
        resident_bytes = t.resident_bytes;
        mapped_bytes;
        heap_bytes = t.resident_bytes - mapped_bytes;
        pinned = List.length (List.filter (fun e -> e.pins > 0) res);
        slots = Hashtbl.length t.table;
        shards = List.fold_left (fun acc e -> acc + num_shards e) 0 res;
        hits = t.hits;
        misses = t.misses;
        loads = t.loads;
        evictions = t.evictions;
        reopens = t.reopens;
      })
