(* perfbench: the EntropyDB daemon benchmark.

     main.exe --daemon <entropydb exe> --workload <explore|dashboard|maintain>
              --seed <n> --seconds <s> --trace <0|1>

   One run: set the workload up (generate, build, save, spawn
   `entropydb serve --domains 1`, LOAD, warm up) and keep that daemon;
   then [rounds] rounds of an open loop at the workload's fixed offered
   load, a closed-loop capacity phase and one more set-up (on explore and
   dashboard, that set-up's daemon then times back-to-back REFRESHes);
   then the Sec. 6.2 accuracy set.
   Every reply is checked byte for byte against an in-process replica.
   [--trace 1] adds an in-process traced replay (replay.ml) and prints the
   per-layer metrics instead of the end-to-end ones.  The last stdout line
   is the JSON result; README.md defines every metric. *)

open Edb_storage
module W = Workloads
module Flights = Edb_datagen.Flights
module Core = Entropydb_core

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let fail fmt = Printf.ksprintf (fun m -> raise (Failure m)) fmt
let ( // ) = Filename.concat

(* ------------------------------------------------------------------ *)
(* Outcome accounting                                                  *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable refused : int;
  mutable failed : int;
  mutable wrong : int;
  mutable first_problem : string option;
}

let tally = { attempted = 0; refused = 0; failed = 0; wrong = 0; first_problem = None }

let note fmt =
  Printf.ksprintf
    (fun m -> if tally.first_problem = None then tally.first_problem <- Some m)
    fmt

(* Score one reply against the expected text. *)
let check ~what expected (got : Wire.reply) =
  tally.attempted <- tally.attempted + 1;
  match (got, expected) with
  | Wire.Payload p, Ok e when String.equal p e -> ()
  | Wire.Payload p, _ ->
      tally.wrong <- tally.wrong + 1;
      note "wrong answer to %s: got %S" what
        (String.sub p 0 (min 120 (String.length p)))
  | Wire.Refused m, _ ->
      tally.refused <- tally.refused + 1;
      note "refused %s: %s" what m
  | Wire.Failed m, _ ->
      tally.failed <- tally.failed + 1;
      note "failed %s: %s" what m

(* Replies kept for checking after a phase, off the timed path. *)
type deferred = { mutable items : (string * Wire.reply) list }

let defer d sql r = d.items <- (sql, r) :: d.items

let verify_deferred replica d =
  let memo = Hashtbl.create 4096 in
  List.iter
    (fun (sql, r) ->
      let e =
        match Hashtbl.find_opt memo sql with
        | Some e -> e
        | None ->
            let e = Expect.query replica sql in
            Hashtbl.add memo sql e;
            e
      in
      check ~what:sql e r)
    (List.rev d.items);
  d.items <- []

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let summary_name = "s"
let query_prefix = Printf.sprintf "QUERY %s " summary_name
let query_line sql = query_prefix ^ sql

let sql_of line =
  let k = String.length query_prefix in
  String.sub line k (String.length line - k)

type build_times = {
  generate_s : float;
  pairs_s : float;
  heuristic_s : float;
  phi_s : float;
  solve_s : float;
  sweeps : int;
  save_s : float;
  build_s : float;  (** pairs + heuristic + phi + solve + save *)
}

(* The paper's preprocessing, timed per layer: Pairs.select +
   Heuristic.select + Phi.of_relation + solve (Summary.build is exactly
   the last two) + save of the served file. *)
let build_summary (w : W.t) ~seed ~path =
  let f, generate_s = time (fun () -> Flights.generate ~rows:W.rows ~seed ()) in
  let rel = W.relation w f in
  let chosen, pairs_s =
    time (fun () ->
        Edb_select.Pairs.select ~strategy:Edb_select.Pairs.By_cover
          ~budget:W.pairs rel)
  in
  let joints, heuristic_s =
    time (fun () ->
        List.concat_map
          (fun (a, b) ->
            Edb_select.Heuristic.select Edb_select.Heuristic.Composite rel
              ~attr1:a ~attr2:b ~budget:W.buckets)
          chosen)
  in
  let phi, phi_s = time (fun () -> Core.Phi.of_relation rel ~joints) in
  let solver_config =
    { Core.Solver.default_config with max_sweeps = W.max_sweeps; log_every = 0 }
  in
  let summary, solve_s =
    time (fun () -> Core.Summary.of_phi ~solver_config phi)
  in
  let (), save_s =
    time (fun () ->
        if w.W.v3 then Core.Serialize.save_v3 summary path
        else Core.Serialize.save summary path)
  in
  ( rel,
    {
      generate_s;
      pairs_s;
      heuristic_s;
      phi_s;
      solve_s;
      sweeps = (Core.Summary.solver_report summary).Core.Solver.sweeps;
      save_s;
      build_s = pairs_s +. heuristic_s +. phi_s +. solve_s +. save_s;
    } )

type live = {
  daemon : Daemon.t;
  conns : Wire.conn array;  (** two connections *)
}

let shutdown l =
  Array.iter Wire.close l.conns;
  Daemon.stop l.daemon

let expect_ok ~what = function
  | _, Wire.Payload p -> p
  | _, (Wire.Refused m | Wire.Failed m) -> fail "%s: %s" what m

(* The timed phases run in this many interleaved rounds, each followed by
   one more set-up, so every figure samples the whole run rather than one
   stretch of a shared host's speed. *)
let rounds = 8

(* Traced-replay length: queries from the open loop's start, and REFRESH
   batches where the open loop carries none. *)
let replay_queries = 3000
let replay_refreshes = 8

(* query_p99_us is the median of the p99s of chunks of this many queries. *)
let p99_chunk = 1000

(* Distinct capacity-phase queries made per second of the phase: well
   above any rate the daemon reaches on one core (explore read up to
   ~40k req/s on a 2-vCPU VM). *)
let capacity_pool_rps = 80_000.

(* ------------------------------------------------------------------ *)
(* Helpers over phases                                                 *)
(* ------------------------------------------------------------------ *)

let stats_of conn =
  let p = expect_ok ~what:"STATS" (Wire.call conn "STATS") in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | Some i ->
          Hashtbl.replace tbl (String.sub line 0 i)
            (float_of_string (String.sub line (i + 1) (String.length line - i - 1)))
      | None -> ())
    (String.split_on_char '\n' p);
  fun key -> Option.value (Hashtbl.find_opt tbl key) ~default:0.

let us x = x *. 1e6

(* A percentile the sample count supports, or an invalid run. *)
let pct ~what a p =
  match Stats.percentile a p with
  | Some (v, beyond) -> (v, beyond)
  | None ->
      fail "%s: %d samples cannot support p%g (need %d beyond it)" what
        (Array.length a) (p *. 100.) Stats.min_beyond

(* The open loop is valid only if the generator kept its schedule and
   the backlog (sent - answered) did not grow from the first half of the
   run to the second.  Host preemption delays single sends by
   milliseconds; only a lag that persists (high mean) or grows means the
   generator could not keep up. *)
let validate ~what ~lag ~backlog =
  let n = Array.length lag in
  let mean a lo hi = Stats.mean (Array.sub a lo (hi - lo)) in
  let q = max 1 (n / 4) in
  let all_lag = mean lag 0 n and first = mean lag 0 q and last = mean lag (n - q) n in
  if all_lag > 1000. || last > first +. 1000. then
    fail "%s invalid: generator fell behind (mean lag %.0f us; first quarter %.0f, last %.0f)"
      what all_lag first last;
  let b = Array.map float_of_int backlog in
  let b1 = mean b 0 (n / 2) and b2 = mean b (n / 2) n in
  if b2 > (2. *. b1) +. 8. then
    fail "%s invalid: backlog grew (mean %.1f then %.1f in flight)" what b1 b2;
  Printf.sprintf "mean lag %.0f us (first quarter %.0f, last %.0f); mean backlog %.1f then %.1f"
    all_lag first last b1 b2

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

let git_commit () =
  let read p =
    try String.trim (Expect.read_file p) with Sys_error _ -> ""
  in
  match read ".git/HEAD" with
  | "" -> "none"
  | head when String.starts_with ~prefix:"ref: " head ->
      let r = read (".git" // String.sub head 5 (String.length head - 5)) in
      if r = "" then "unknown" else r
  | head -> head

(* Where the deterministic values of runs of this code (the daemon and
   this benchmark, by digest) on one workload and seed are recorded. *)
let fingerprint_path ~exe (w : W.t) seed =
  let code = Digest.to_hex (Digest.string (Digest.file exe ^ Digest.file Sys.executable_name)) in
  Printf.sprintf ".perfbench/fingerprint-%s-%d-%s.json" w.W.name seed (String.sub code 0 16)

let run ~exe ~(w : W.t) ~seed ~seconds ~trace =
  let work = ".perfbench" // Printf.sprintf "%s-%d" w.W.name seed in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ ".perfbench"; work ];
  let served = work // if w.W.v3 then "served.v3" else "served.summary" in
  let socket = work // "d.sock" in
  let open_s = seconds *. 0.75 and capacity_s = seconds *. 0.25 in
  (match w.W.writes with
  | W.Inline { start; interval } ->
      let last = start +. (float_of_int W.refreshes *. interval) in
      if open_s < last +. 0.25 then
        fail "%s needs --seconds >= %.1f for its REFRESH schedule" w.W.name
          ((last +. 0.25) /. 0.75)
  | W.Separate -> ());
  (* Inputs the benchmark feeds the system: REFRESH batch CSVs. *)
  let batches =
    Array.init W.refreshes (fun i ->
        let f =
          Flights.generate ~rows:W.batch_rows ~seed:((seed * 1000) + i + 1) ()
        in
        let rel = W.relation w f in
        let path = work // Printf.sprintf "batch%02d.csv" i in
        Csv_io.save_indices rel path;
        (path, rel))
  in
  let warm = { items = [] } in
  let warm_lines rel =
    match w.W.load with
    | W.Bursts { panels; _ } -> Array.map query_line (W.panels ~seed ~n:panels rel)
    | W.Stream _ ->
        let s = W.stream ~seed:(seed + 17) rel in
        Array.init 256 (fun _ -> query_line (W.next_count s))
  in
  (* Bursts come from both connections; a stream uses the first. *)
  let n_panels = match w.W.load with W.Bursts { panels; _ } -> panels | W.Stream _ -> 0 in
  let bursts = n_panels > 0 in
  let setup_once ~path ~socket =
    let t0 = Unix.gettimeofday () in
    let rel, bt = build_summary w ~seed:W.data_seed ~path in
    let daemon =
      Daemon.spawn ~exe ~socket ~log:(Filename.remove_extension socket ^ ".log")
    in
    let l =
      try
        let conns = [| Wire.connect socket; Wire.connect socket |] in
        { daemon; conns }
      with e ->
        Daemon.stop daemon;
        raise e
    in
    (try
       ignore
         (expect_ok ~what:"LOAD"
            (Wire.call l.conns.(0)
               (Printf.sprintf "LOAD %s %s" summary_name path)));
       let lines = warm_lines rel in
       Array.iter
         (fun c ->
           Wire.pipelined c ~window:W.window lines (fun i _ r ->
               defer warm (sql_of lines.(i)) r))
         (if bursts then l.conns else [| l.conns.(0) |])
     with e ->
       shutdown l;
       raise e);
    (rel, bt, l, Unix.gettimeofday () -. t0)
  in
  (* The kept set-up comes first; one more follows each timed round, on
     its own file and socket, so setup_s and build_s sample the whole run.
     On explore and dashboard, that daemon then times its share of the
     back-to-back REFRESHes before it stops: the served daemon never
     writes, so its latency and peak RSS reflect only its own workload. *)
  let rel, bt0, live, setup0 = setup_once ~path:served ~socket in
  let setups = ref [ (bt0, setup0, Expect.file_size served) ] in
  let refresh_ms = ref [] and separate_refreshes = ref [] in
  let extra_setup r =
    let path = work // Printf.sprintf "setup%d%s" r (Filename.extension served) in
    let _, bt, l, secs = setup_once ~path ~socket:(work // Printf.sprintf "setup%d.sock" r) in
    setups := (bt, secs, Expect.file_size path) :: !setups;
    Fun.protect ~finally:(fun () -> shutdown l) (fun () ->
        match w.W.writes with
        | W.Inline _ -> ()
        | W.Separate ->
            let per = W.refreshes / rounds in
            let replies =
              List.init per (fun j ->
                  let k = (r * per) + j in
                  let t0 = Unix.gettimeofday () in
                  let t1, rep =
                    Wire.call l.conns.(0)
                      (Printf.sprintf "REFRESH %s %s" summary_name (fst batches.(k)))
                  in
                  refresh_ms := (t1 -. t0) *. 1e3 :: !refresh_ms;
                  (k, rep))
            in
            separate_refreshes := (path, replies) :: !separate_refreshes);
    (* Leave no collector debt from the build to the next timed round. *)
    Gc.full_major ()
  in
  Fun.protect ~finally:(fun () -> shutdown live) @@ fun () ->
  let conns = live.conns in
  (* Replicas over copies of the untouched served file. *)
  let ext = Filename.extension served in
  let replica_file = work // ("replica" ^ ext) in
  let pristine = work // ("pristine" ^ ext) in
  Expect.copy_file served replica_file;
  Expect.copy_file served pristine;
  let replica = Expect.open_replica ~name:summary_name replica_file in
  let terms =
    match (Option.get (Edb_server.Catalog.find replica.Expect.catalog summary_name)).Edb_server.Catalog.backing with
    | Edb_server.Catalog.Heap sh ->
        Core.Poly.num_terms (Core.Summary.poly (Edb_shard.Sharded.shards sh).(0))
    | Edb_server.Catalog.Mapped mp -> Core.Mapped.num_terms mp
  in
  (* ---------------- open loop ---------------- *)
  let stream = W.stream ~seed rel in
  let panels = W.panels ~seed ~n:n_panels rel in
  let panel_expect = Array.map (Expect.query replica) panels in
  let panel_bytes =
    Array.map
      (function Ok text -> String.length text | Error m -> fail "panel fails in-process: %s" m)
      panel_expect
  in
  let sched, is_query =
    match w.W.load with
    | W.Bursts { period; panels = np } ->
        let n = int_of_float (open_s /. period) * 2 * np in
        ( {
            Wire.due = Array.init n (fun i -> float_of_int (i / (2 * np)) *. period);
            via = Array.init n (fun i -> i / np mod 2);
            line = Array.init n (fun i -> query_line panels.(i mod np));
          },
          Array.make n true )
    | W.Stream { rate } ->
        let nq = int_of_float (open_s *. rate) in
        let queries =
          List.init nq (fun i ->
              (float_of_int i /. rate, 0, query_line (W.next_count stream)))
        in
        let refreshes =
          match w.W.writes with
          | W.Inline { start; interval } ->
              List.init W.refreshes (fun k ->
                  ( start +. (float_of_int k *. interval),
                    1,
                    Printf.sprintf "REFRESH %s %s" summary_name (fst batches.(k)) ))
          | W.Separate -> []
        in
        let all =
          List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
            (queries @ refreshes)
          |> Array.of_list
        in
        ( {
            Wire.due = Array.map (fun (d, _, _) -> d) all;
            via = Array.map (fun (_, v, _) -> v) all;
            line = Array.map (fun (_, _, l) -> l) all;
          },
          Array.map (fun (_, v, _) -> v = 0) all )
  in
  let n = Array.length sched.Wire.due in
  let got = Array.make n (Wire.Failed "no reply") in
  let abs_due = Array.make n nan and sent_at = Array.make n nan and done_at = Array.make n nan in
  (* Capacity request texts are made before any phase, so the generator
     only frames, sends and reads while it is timed. *)
  let cap_lines =
    if bursts then Array.map query_line panels
    else
      Array.init (int_of_float (capacity_s *. capacity_pool_rps)) (fun _ ->
          query_line (W.next_count stream))
  in
  let cap_got = Array.make (Array.length cap_lines) (Wire.Failed "no reply") in
  let cap_sent = ref 0 and cap_time = ref 0. and cap_segments = ref [] in
  let stats_delta = Hashtbl.create 8 and stats_last = ref (fun _ -> 0.) in
  let lags = ref [] and backlogs = ref [] in
  let round_s = open_s /. float_of_int rounds and seg_s = capacity_s /. float_of_int rounds in
  Gc.full_major ();
  for r = 0 to rounds - 1 do
    let start = float_of_int r *. round_s in
    let idx =
      List.filter
        (fun i -> sched.Wire.due.(i) >= start && (r = rounds - 1 || sched.Wire.due.(i) < start +. round_s))
        (List.init n Fun.id)
      |> Array.of_list
    in
    let sub =
      {
        Wire.due = Array.map (fun i -> sched.Wire.due.(i) -. start) idx;
        via = Array.map (fun i -> sched.Wire.via.(i)) idx;
        line = Array.map (fun i -> sched.Wire.line.(i)) idx;
      }
    in
    let st0 = stats_of conns.(0) in
    let tm =
      Wire.open_loop conns sub ~drain_s:5. (fun k _ rep ->
          let i = idx.(k) in
          if bursts then check ~what:sched.Wire.line.(i) panel_expect.(i mod n_panels) rep
          else got.(i) <- rep)
    in
    let st1 = stats_of conns.(0) in
    List.iter
      (fun key ->
        Hashtbl.replace stats_delta key
          (st1 key -. st0 key +. Option.value (Hashtbl.find_opt stats_delta key) ~default:0.))
      [ "obs_server_batch_requests"; "obs_server_batches"; "obs_server_coalesce_hits"; "obs_server_coalesce_evals" ];
    stats_last := st1;
    lags := Array.mapi (fun k t -> us (t -. (tm.Wire.t0 +. sub.Wire.due.(k)))) tm.Wire.sent :: !lags;
    backlogs := tm.Wire.backlog :: !backlogs;
    Array.iteri
      (fun k i ->
        abs_due.(i) <- tm.Wire.t0 +. sub.Wire.due.(k);
        sent_at.(i) <- tm.Wire.sent.(k);
        done_at.(i) <- tm.Wire.finished.(k))
      idx;
    (* Capacity: a closed loop on one connection, over whole panel sets. *)
    let base = !cap_sent in
    let sent, t_start, t_last =
      Wire.closed_loop conns.(0) ~window:W.window ~bytes:W.window_bytes
        ~cost:(fun j -> if bursts then panel_bytes.((base + j) mod n_panels) else 0)
        ~period:(if bursts then n_panels else 1)
        ~duration:seg_s
        ~line:(fun j ->
          let i = base + j in
          if bursts then cap_lines.(i mod n_panels)
          else if i < Array.length cap_lines then cap_lines.(i)
          else fail "capacity: more than %.0f req/s; raise capacity_pool_rps" capacity_pool_rps)
        (fun j _ rep ->
          let i = base + j in
          if bursts then check ~what:"panel" panel_expect.(i mod n_panels) rep
          else cap_got.(i) <- rep)
    in
    cap_sent := base + sent;
    cap_time := !cap_time +. (t_last -. t_start);
    cap_segments := (base, base + sent, t_start) :: !cap_segments;
    extra_setup r
  done;
  let st1 = !stats_last in
  (* The file embeds the solve's wall time, so sizes are compared. *)
  if List.exists (fun (_, _, size) -> size <> Expect.file_size pristine) !setups then
    fail "set-up is not deterministic: the summary file size differs between set-ups";
  verify_deferred replica warm;
  let setup_s = Stats.median (List.map (fun (_, secs, _) -> secs) !setups) in
  let med f = Stats.median (List.map (fun (bt, _, _) -> f bt) !setups) in
  let n_setups = List.length !setups in
  let d key = Option.value (Hashtbl.find_opt stats_delta key) ~default:0. in
  let lag = Array.concat (List.rev !lags) in
  let validity = validate ~what:w.W.name ~lag ~backlog:(Array.concat (List.rev !backlogs)) in
  let lag_p99, _ = pct ~what:"generator lag" lag 0.99 in
  (* Every verified reply over the whole closed-loop time.  The host's
     speed swings between slower and faster stretches; pooling averages
     them, where a median of the segments would snap to one or the other. *)
  let capacity_rps = float_of_int !cap_sent /. !cap_time in
  let latency i = us (done_at.(i) -. abs_due.(i)) in
  let q_idx = List.filter (fun i -> is_query.(i)) (List.init n Fun.id) in
  let r_idx = List.filter (fun i -> not is_query.(i)) (List.init n Fun.id) in
  let q_lat = Array.of_list (List.map latency q_idx) in
  let p50, p50_beyond = pct ~what:"query latency" q_lat 0.5 in
  let p90, p90_beyond = pct ~what:"query latency" q_lat 0.9 in
  (* p99 per consecutive chunk of [p99_chunk] queries (ten beyond each),
     then the median chunk: one host preemption moves a chunk, not the run. *)
  let chunks = Array.length q_lat / p99_chunk in
  if chunks < 1 then fail "query latency: %d samples, need %d" (Array.length q_lat) p99_chunk;
  let p99 =
    Stats.median
      (List.init chunks (fun k ->
           fst (pct ~what:"query latency chunk" (Array.sub q_lat (k * p99_chunk) p99_chunk) 0.99)))
  in
  let p99_beyond = Stats.min_beyond in
  (* ---------------- verification, off the clock ---------------- *)
  (* Each set-up daemon's REFRESHes, replayed in-process on a fresh copy. *)
  List.iteri
    (fun r (path, replies) ->
      let copy = work // Printf.sprintf "refresh-replica%d%s" r ext in
      Expect.copy_file pristine copy;
      let sr = Expect.open_replica ~name:summary_name copy in
      List.iter
        (fun (k, rep) -> check ~what:"REFRESH" (Expect.refresh sr (fst batches.(k))) rep)
        replies;
      if Expect.file_size path <> Expect.file_size copy then begin
        tally.wrong <- tally.wrong + 1;
        note "%s after REFRESHes differs in size from the in-process replay" path
      end)
    (List.rev !separate_refreshes);
  (* Maintain: every answer must match a summary version live during its
     flight; the versions are rebuilt in-process from the same batches. *)
  let stalled = ref [] in
  if not bursts then begin
    let rs = Array.of_list r_idx in
    let nr = Array.length rs in
    let version_bounds i =
      let lo = ref 0 and hi = ref 0 in
      Array.iter
        (fun j ->
          if done_at.(j) <= sent_at.(i) then incr lo;
          if sent_at.(j) <= done_at.(i) then incr hi)
        rs;
      (!lo, !hi)
    in
    let bounds = Array.make n (0, 0) in
    List.iter (fun i -> bounds.(i) <- version_bounds i) q_idx;
    let pending = Array.make n [] in
    (* A capacity segment runs between open-loop slices, with no REFRESH
       in flight: it sees the version left by the REFRESHes before it. *)
    let cap_version t_start =
      Array.fold_left (fun acc j -> if done_at.(j) < t_start then acc + 1 else acc) 0 rs
    in
    for v = 0 to nr do
      let d = { items = [] } in
      List.iter
        (fun (lo, hi, t_start) ->
          if cap_version t_start = v then
            for i = hi - 1 downto lo do
              defer d (sql_of cap_lines.(i)) cap_got.(i)
            done)
        !cap_segments;
      verify_deferred replica d;
      List.iter
        (fun i ->
          let lo, hi = bounds.(i) in
          if lo <= v && v <= hi then
            pending.(i) <- Expect.query replica (sql_of sched.Wire.line.(i)) :: pending.(i))
        q_idx;
      if v < nr then begin
        let j = rs.(v) in
        let path = fst batches.(v) in
        check ~what:("REFRESH " ^ path) (Expect.refresh replica path) got.(j);
        refresh_ms := (done_at.(j) -. abs_due.(j)) *. 1e3 :: !refresh_ms
      end
    done;
    List.iter
      (fun i ->
        let e =
          match (got.(i), pending.(i)) with
          | Wire.Payload p, es when List.exists (fun e -> e = Ok p) es -> Ok p
          | _, e :: _ -> e
          | _, [] -> Error "no live version"
        in
        check ~what:(sql_of sched.Wire.line.(i)) e got.(i);
        let due = abs_due.(i) in
        if Array.exists (fun j -> sent_at.(j) <= due && due <= done_at.(j)) rs
        then stalled := latency i :: !stalled)
      q_idx;
    if Expect.file_size served <> Expect.file_size replica_file then begin
      tally.wrong <- tally.wrong + 1;
      note "served file after REFRESHes differs in size from the in-process replay"
    end
  end;
  (* ---------------- accuracy (Sec. 6.2) ---------------- *)
  let truth_rel =
    if r_idx <> [] then begin
      let b = Relation.builder (Relation.schema rel) in
      Relation.iteri (fun _ row -> Relation.add_row b row) rel;
      Array.iter (fun (_, r) -> Relation.iteri (fun _ row -> Relation.add_row b row) r) batches;
      Relation.build b
    end
    else rel
  in
  let acc = Array.of_list (W.accuracy_set ~seed truth_rel) in
  let acc_got = Array.make (Array.length acc) (Wire.Failed "no reply") in
  Wire.pipelined conns.(0) ~window:W.window
    (Array.map (fun (q : W.accuracy_query) -> query_line q.W.sql) acc)
    (fun i _ r -> acc_got.(i) <- r);
  let est = Array.make (Array.length acc) 0. in
  Array.iteri
    (fun i (q : W.accuracy_query) ->
      check ~what:q.W.sql (Expect.query replica q.W.sql) acc_got.(i);
      match acc_got.(i) with
      | Wire.Payload p -> (
          match Edb_server.Client.estimate_of_payload (String.split_on_char '\n' p) with
          | Some e -> est.(i) <- (if e < 0.5 then 0. else e)
          | None -> ())
      | _ -> ())
    acc;
  let pick k =
    List.filter_map
      (fun i -> if acc.(i).W.klass = k then Some (acc.(i).W.truth, est.(i)) else None)
      (List.init (Array.length acc) Fun.id)
  in
  let rel_err k = Edb_workload.Metrics.avg_rel_error (pick k) in
  let f_measure =
    Edb_workload.Metrics.f_measure
      (Edb_workload.Metrics.classify
         ~light_estimates:(List.map snd (pick `Light))
         ~null_estimates:(List.map snd (pick `Null)))
  in
  let summary_bytes = Expect.file_size served in
  let rss_mb = Daemon.peak_rss_mb live.daemon in
  let refresh_a = Array.of_list !refresh_ms in
  let refresh_p50, refresh_beyond = pct ~what:"REFRESH latency" refresh_a 0.5 in
  let stalled_a = Array.of_list !stalled in
  let stalled_p50 = Stats.percentile stalled_a 0.5 in
  let e2e =
    [
      m "setup_s" "s" setup_s ~note:(Printf.sprintf "median of %d set-ups" n_setups);
      m "build_s" "s" (med (fun b -> b.build_s)) ~note:(Printf.sprintf "median of %d builds" n_setups);
      m "query_p50_us" "us" p50
        ~note:(Printf.sprintf "n=%d beyond=%d" (Array.length q_lat) p50_beyond);
      m "capacity_rps" "req/s" capacity_rps
        ~note:
          (Printf.sprintf "window=%d/%dB, %d replies in %.2fs over %d segments" W.window
             W.window_bytes !cap_sent !cap_time rounds);
      m "refresh_p50_ms" "ms" refresh_p50
        ~note:(Printf.sprintf "n=%d beyond=%d%s" (Array.length refresh_a) refresh_beyond
                 (if r_idx <> [] then " under load" else " back-to-back, on the set-up daemons"));
      m "rel_err_heavy" "ratio" (rel_err `Heavy) ~note:(Printf.sprintf "n=%d" (List.length (pick `Heavy)));
      m "rel_err_light" "ratio" (rel_err `Light) ~note:(Printf.sprintf "n=%d" (List.length (pick `Light)));
      m "f_measure" "ratio" f_measure ~note:(Printf.sprintf "light=%d null=%d" (List.length (pick `Light)) (List.length (pick `Null)));
      m "summary_bytes" "B" (float_of_int summary_bytes);
      m "rss_mb" "MB" rss_mb ~note:"daemon VmHWM";
    ]
  in
  let server_layer =
    [
      m "query_p90_us" "us" p90
        ~note:(Printf.sprintf "n=%d beyond=%d" (Array.length q_lat) p90_beyond);
      m "query_p99_us" "us" p99
        ~note:(Printf.sprintf "median of %d chunks of n=%d, beyond=%d each" chunks p99_chunk p99_beyond);
      m "server.batch_mean" "req" (d "obs_server_batch_requests" /. Float.max 1. (d "obs_server_batches"));
      m "server.coalesce_rate" "ratio"
        (d "obs_server_coalesce_hits"
        /. Float.max 1. (d "obs_server_coalesce_hits" +. d "obs_server_coalesce_evals"));
      m "server.queue_us" "us" (p50 -. st1 "latency_p50_us")
        ~note:"query_p50_us minus STATS latency_p50_us";
      m "server.stalled_share" "ratio"
        (float_of_int (Array.length stalled_a) /. float_of_int (Array.length q_lat));
      m "server.stalled_p50_us" "us"
        (match stalled_p50 with Some (v, _) -> v | None -> 0.)
        ~note:(Printf.sprintf "n=%d%s" (Array.length stalled_a)
                 (if stalled_p50 = None then " (too few samples: reported as 0)" else ""));
      m "loadgen.lag_p99_us" "us" lag_p99
        ~note:(Printf.sprintf "n=%d; %s" (Array.length lag) validity);
      m "loadgen.samples" "count" (float_of_int (Array.length q_lat));
      m "core.terms" "count" (float_of_int terms);
      m "core.solver.sweeps" "count" (float_of_int bt0.sweeps);
      m "core.solver.ms_per_sweep" "ms"
        (med (fun b -> b.solve_s *. 1e3 /. float_of_int (max 1 b.sweeps)));
      m "select.pairs_ms" "ms" (med (fun b -> b.pairs_s *. 1e3));
      m "select.heuristic_ms" "ms" (med (fun b -> b.heuristic_s *. 1e3));
      m "core.phi.build_ms" "ms" (med (fun b -> b.phi_s *. 1e3));
      m "core.serialize.save_ms" "ms" (med (fun b -> b.save_s *. 1e3));
      m "datagen.generate_s" "s" (med (fun b -> b.generate_s));
    ]
  in
  let record =
    [
      ("workload", Edb_util.Json.Str w.W.name);
      ("seed", Edb_util.Json.Int seed);
      ("data_seed", Edb_util.Json.Int W.data_seed);
      ("rows", Edb_util.Json.Int W.rows);
      ("seconds", Edb_util.Json.Float seconds);
      ("nproc", Edb_util.Json.Int (Stdlib.Domain.recommended_domain_count ()));
      ("daemon_domains", Edb_util.Json.Int Daemon.domains);
      ("EDB_DOMAINS", Edb_util.Json.Str (Option.value (Sys.getenv_opt "EDB_DOMAINS") ~default:""));
      ("ocaml", Edb_util.Json.Str Sys.ocaml_version);
      ("commit", Edb_util.Json.Str (git_commit ()));
      ("fingerprint", Edb_util.Json.Str (fingerprint_path ~exe w seed));
      ("terms", Edb_util.Json.Int terms);
      ("summary_bytes", Edb_util.Json.Int summary_bytes);
      ( "load",
        match w.W.load with
        | W.Stream { rate } -> Edb_util.Json.Obj [ ("rate_rps", Edb_util.Json.Float rate) ]
        | W.Bursts { period; panels } ->
            Edb_util.Json.Obj
              [ ("burst_period_s", Edb_util.Json.Float period); ("panels", Edb_util.Json.Int panels) ] );
      ("window", Edb_util.Json.Int W.window);
      ("window_bytes", Edb_util.Json.Int W.window_bytes);
      ("refreshes", Edb_util.Json.Int W.refreshes);
      ( "refresh_schedule",
        match w.W.writes with
        | W.Inline { start; interval } ->
            Edb_util.Json.Obj
              [ ("start_s", Edb_util.Json.Float start); ("interval_s", Edb_util.Json.Float interval) ]
        | W.Separate -> Edb_util.Json.Str "back-to-back, on each round's set-up daemon" );
      ("rounds", Edb_util.Json.Int rounds);
      ("batch_rows", Edb_util.Json.Int W.batch_rows);
      ("accuracy_queries", Edb_util.Json.Int (Array.length acc));
      ("refreshes_done", Edb_util.Json.Int (Array.length refresh_a));
    ]
  in
  let layers =
    if not trace then server_layer
    else begin
      (* The traced replay: the open loop's first requests, plus (where the
         open loop has none) the first REFRESH batches. *)
      let rec take acc queries i =
        if i >= n || queries >= replay_queries then List.rev acc
        else if is_query.(i) then
          take (Replay.Query (Printf.sprintf "@%d %s" i sched.Wire.line.(i)) :: acc) (queries + 1) (i + 1)
        else begin
          let k = List.length (List.filter (fun j -> j < i) r_idx) in
          take (Replay.Refresh (fst batches.(k)) :: acc) queries (i + 1)
        end
      in
      let steps = take [] 0 0 in
      let steps =
        if r_idx <> [] then steps
        else
          steps
          @ List.init replay_refreshes (fun k -> Replay.Refresh (fst batches.(k)))
      in
      let r = Replay.run ~name:summary_name ~work ~served:pristine ~terms steps in
      Printf.printf "traced replay: %d steps, trace %s, %d events dropped\n"
        (List.length steps) (work // "trace.json") r.Replay.dropped;
      Printf.printf "  %-24s %8s %12s %12s\n" "span" "count" "mean_us" "self_us";
      List.iter
        (fun (name, (l : Replay.layer)) ->
          Printf.printf "  %-24s %8d %12.2f %12.2f\n" name l.Replay.count
            (l.Replay.dur_us /. float_of_int l.Replay.count)
            (l.Replay.self_us /. float_of_int l.Replay.count))
        r.Replay.layers;
      Printf.printf
        "  coverage of Handler.handle %.3f (decomposed/real handle time %.3f); unattributed %.2f us/query\n"
        r.Replay.coverage r.Replay.fidelity r.Replay.gap_us;
      let rm = List.map (fun (name, u, v) -> m name u v) r.Replay.metrics in
      let handle_us = (List.find (fun x -> x.name = "server.handle_us") rm).value in
      server_layer @ rm
      @ [
          m "server.transport_us" "us" ((1e6 /. capacity_rps) -. handle_us)
            ~note:"1e6/capacity_rps minus server.handle_us";
        ]
    end
  in
  (e2e, layers, record, work)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Values that must repeat bit for bit between runs of one workload and
   seed by the same code.  The first run records them; later runs
   compare.  A change to the engine or the benchmark may move them, so
   the record is keyed to digests of both executables: runs of other code,
   committed or not, never compare against it. *)
let deterministic =
  [
    "accuracy_queries"; "refreshes"; "rel_err_heavy"; "rel_err_light"; "f_measure";
    "summary_bytes"; "core.terms"; "core.solver.sweeps"; "ingest.warm_sweeps";
    "query.compile_words"; "core.kernel.words_per_eval";
  ]

let check_fingerprint ~path values =
  let mine =
    List.filter_map
      (fun (k, v) -> if List.mem k deterministic then Some (k, Printf.sprintf "%.17g" v) else None)
      values
  in
  let recorded =
    match Edb_util.Json.of_string (Expect.read_file path) with
    | Ok (Edb_util.Json.Obj kv) ->
        List.filter_map (function k, Edb_util.Json.Str v -> Some (k, v) | _ -> None) kv
    | _ | (exception Sys_error _) -> []
  in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k recorded with
      | Some r when r <> v ->
          tally.wrong <- tally.wrong + 1;
          note "%s is %s here but %s in an earlier run of this seed" k v r
      | _ -> ())
    mine;
  let merged = mine @ List.filter (fun (k, _) -> not (List.mem_assoc k mine)) recorded in
  Edb_util.Json.write_file path
    (Edb_util.Json.Obj (List.map (fun (k, v) -> (k, Edb_util.Json.Str v)) merged))

let print_metric x =
  Printf.printf "  %-28s %18.6f %-6s %s\n" x.name x.value x.unit_ x.note

let json_metrics ms =
  Edb_util.Json.Obj
    (List.map
       (fun x ->
         ( x.name,
           Edb_util.Json.Obj
             [ ("value", Edb_util.Json.Float x.value); ("unit", Edb_util.Json.Str x.unit_) ] ))
       ms)

let () =
  Unix.putenv "EDB_DOMAINS" (string_of_int Daemon.domains);
  Core.Poly.set_parallelism Daemon.domains;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A large minor heap keeps collections off the generator's schedule. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4 lsl 20; space_overhead = 200 };
  let workload = ref "" and seed = ref 1 and seconds = ref 12. and trace = ref 0 in
  let exe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " explore | dashboard | maintain");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--daemon", Arg.Set_string exe, " path of the entropydb executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon EXE";
  match W.find !workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some w -> (
      if not (Sys.file_exists !exe) then begin
        prerr_endline ("perfbench: no daemon executable at " ^ !exe);
        exit 2
      end;
      match run ~exe:!exe ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
      | exception (Failure msg | Wire.Transport msg) ->
          prerr_endline ("perfbench: " ^ msg);
          exit 1
      | e2e, layers, record, _work ->
          check_fingerprint ~path:(fingerprint_path ~exe:!exe w !seed)
            (List.map (fun x -> (x.name, x.value)) (e2e @ layers)
            @ [
                ("accuracy_queries", Edb_util.Json.(match List.assoc "accuracy_queries" record with Int i -> float_of_int i | _ -> nan));
                ("refreshes", Edb_util.Json.(match List.assoc "refreshes_done" record with Int i -> float_of_int i | _ -> nan));
              ]);
          Printf.printf "run %s\n" (Edb_util.Json.to_string (Edb_util.Json.Obj record));
          Printf.printf "end-to-end (%s, seed %d):\n" w.W.name !seed;
          List.iter print_metric e2e;
          Printf.printf "per-layer:\n";
          List.iter print_metric layers;
          Printf.printf "outcomes: attempted %d refused %d failed %d wrong %d\n"
            tally.attempted tally.refused tally.failed tally.wrong;
          Option.iter (fun p -> Printf.printf "first problem: %s\n" p) tally.first_problem;
          let failed = tally.refused + tally.failed + tally.wrong in
          let result =
            Edb_util.Json.Obj
              [
                ("correct", Edb_util.Json.Bool (failed = 0));
                ("attempted", Edb_util.Json.Int tally.attempted);
                ("failed", Edb_util.Json.Int failed);
                ("metrics", json_metrics (if !trace = 1 then layers else e2e));
              ]
          in
          print_endline (Edb_util.Json.to_string result))
