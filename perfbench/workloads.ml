(* The three workloads: fixed constants (rates, bursts, windows, REFRESH
   schedule) plus seeded generators for every request text.  Nothing here
   depends on a measurement taken at run time, so a parent commit and a
   change face the same offered load. *)

open Edb_storage
module Prng = Edb_util.Prng
module Flights = Edb_datagen.Flights
module Hitters = Edb_workload.Hitters

type dataset = Fine | Coarse

type load =
  | Stream of { rate : float }
      (** never-repeated COUNTs at a fixed rate on the first connection *)
  | Bursts of { period : float; panels : int }
      (** both connections send the whole panel set at every due time *)

type writes =
  | Inline of { start : float; interval : float }
      (** REFRESHes of the served summary on the second connection, inside
          the open loop, due at [start + k * interval] seconds *)
  | Separate
      (** back-to-back REFRESHes on each round's extra set-up daemon, so
          the served daemon never writes under the measured queries *)

type t = {
  name : string;
  dataset : dataset;
  v3 : bool;  (** serve a mmap-able v3 file (Mapped backing) *)
  load : load;
  writes : writes;
}

(* The relation is one fixed dataset, as the paper's flights table is:
   --seed varies the workload (query texts, panels, REFRESH batches,
   absent values), never the data, so every seed serves the same
   summary. *)
let data_seed = 2017
let rows = 100_000
let pairs = 2 (* Ba *)
let buckets = 200 (* Bs *)
let max_sweeps = 30 (* the `entropydb build` default *)

(* The same for every workload: requests in flight in the capacity
   phase, REFRESHes per run, and rows per REFRESH batch. *)
let window = 32

(* The capacity phase also keeps at most this many bytes of expected
   reply in flight (a larger reply goes out alone), below the daemon's
   ~208 KB socket buffer.  The daemon does not wait for its sockets to
   become writable: a reply that does not fit waits for its next 50 ms
   select tick, and with dashboard's 100-150 KB grids at window 32
   nearly every reply did, so capacity_rps counted replies per tick
   rather than the daemon's work.  Explore and maintain replies are a
   few dozen bytes and never reach it. *)
let window_bytes = 131_072
let refreshes = 32
let batch_rows = 1000

(* Why each workload exists is in BENCHMARK.json and README.md. *)
let explore =
  {
    name = "explore";
    dataset = Fine;
    v3 = true;
    load = Stream { rate = 1500. };
    writes = Separate;
  }

let dashboard =
  {
    name = "dashboard";
    dataset = Coarse;
    v3 = false;
    load = Bursts { period = 0.3; panels = 48 };
    writes = Separate;
  }

let maintain =
  {
    name = "maintain";
    dataset = Coarse;
    v3 = false;
    load = Stream { rate = 500. };
    writes = Inline { start = 0.5; interval = 0.25 };
  }

let all = [ explore; dashboard; maintain ]
let find name = List.find_opt (fun w -> w.name = name) all

let relation w (f : Flights.t) =
  match w.dataset with Fine -> f.Flights.fine | Coarse -> f.Flights.coarse

(* ------------------------------------------------------------------ *)
(* SQL text                                                            *)
(* ------------------------------------------------------------------ *)

(* A condition on value indices [lo..hi] of [attr]. *)
let cond schema attr lo hi =
  let name = Schema.attr_name schema attr in
  match Domain.spec (Schema.domain schema attr) with
  | Domain.Categorical labels ->
      if lo = hi then Printf.sprintf "%s = '%s'" name labels.(lo)
      else
        Printf.sprintf "%s IN (%s)" name
          (String.concat ", "
             (List.init (hi - lo + 1) (fun i ->
                  Printf.sprintf "'%s'" labels.(lo + i))))
  | Domain.Int_bins { lo = base; width; _ } ->
      if lo = hi then Printf.sprintf "%s = %d" name (base + (lo * width))
      else
        Printf.sprintf "%s IN [%d,%d]" name (base + (lo * width))
          (base + (hi * width))
  | Domain.Float_bins _ -> invalid_arg "perfbench: float-binned attribute"

let where = function
  | [] -> ""
  | cs -> " WHERE " ^ String.concat " AND " cs

let count_sql conds = "SELECT COUNT(*) FROM f" ^ where conds

let point_sql schema attrs values =
  count_sql (List.map2 (fun a v -> cond schema a v v) attrs values)

let is_categorical schema a =
  match Domain.spec (Schema.domain schema a) with
  | Domain.Categorical _ -> true
  | _ -> false

(* A random interval (or point, for categoricals) on [attr]. *)
let random_cond rng schema attr =
  let size = Schema.domain_size schema attr in
  if is_categorical schema attr then
    let v = Prng.int rng size in
    cond schema attr v v
  else
    let len = 1 + Prng.int rng (max 1 (size / 3)) in
    let lo = Prng.int rng (size - len + 1) in
    cond schema attr lo (lo + len - 1)

(* 1-3 distinct attributes, each randomly restricted. *)
let random_conds rng schema =
  let arity = Schema.arity schema in
  let k = 1 + Prng.int rng 3 in
  let attrs = Prng.sample_without_replacement rng ~n:arity ~k in
  Array.sort compare attrs;
  Array.to_list (Array.map (random_cond rng schema) attrs)

(* ------------------------------------------------------------------ *)
(* Distinct COUNT streams (explore, maintain)                          *)
(* ------------------------------------------------------------------ *)

type stream = {
  rng : Prng.t;
  schema : Schema.t;
  seen : (string, unit) Hashtbl.t;
  points : (int list * int list array) array;
      (** per attribute set: heavy, light and absent value combinations *)
}

(* Empty cells of the attribute set's cross product. *)
let absent_cells rel attrs =
  let schema = Relation.schema rel in
  let combos = Hashtbl.create 4096 in
  Relation.iteri
    (fun _ row -> Hashtbl.replace combos (List.map (fun a -> row.(a)) attrs) ())
    rel;
  List.fold_left (fun acc a -> acc * Schema.domain_size schema a) 1 attrs
  - Hashtbl.length combos

let point_attrs = [ [ Flights.origin; Flights.dest ]; [ Flights.fl_time; Flights.distance ] ]

let stream ~seed rel =
  let rng = Prng.create ~seed () in
  let points =
    Array.of_list
      (List.map
         (fun attrs ->
           let heavy = List.map fst (Hitters.heavy rel ~attrs ~k:300) in
           let light = List.map fst (Hitters.light rel ~attrs ~k:300) in
           let k = min 300 (absent_cells rel attrs) in
           let absent = Hitters.nonexistent rng rel ~attrs ~k in
           (attrs, Array.of_list (heavy @ light @ absent)))
         point_attrs)
  in
  { rng; schema = Relation.schema rel; seen = Hashtbl.create 65536; points }

(* The next never-before-sent COUNT: 55% ranges over 1-3 attributes, 45%
   point queries on heavy, light or absent value combinations.  A repeat
   gains a random fl_date window until it is new. *)
let rec next_count s =
  let conds =
    if Prng.int s.rng 100 < 55 then random_conds s.rng s.schema
    else
      let attrs, combos = s.points.(Prng.int s.rng (Array.length s.points)) in
      let values = combos.(Prng.int s.rng (Array.length combos)) in
      List.map2 (fun a v -> cond s.schema a v v) attrs values
  in
  let rec fresh conds tries =
    let sql = count_sql conds in
    if not (Hashtbl.mem s.seen sql) then Some sql
    else if tries = 0 then None
    else fresh (conds @ [ random_cond s.rng s.schema Flights.fl_date ]) (tries - 1)
  in
  match fresh conds 3 with
  | Some sql ->
      Hashtbl.add s.seen sql ();
      sql
  | None -> next_count s

(* ------------------------------------------------------------------ *)
(* Dashboard panels                                                    *)
(* ------------------------------------------------------------------ *)

let group_sql schema attrs conds ~limit =
  let names = String.concat ", " (List.map (Schema.attr_name schema) attrs) in
  Printf.sprintf "SELECT %s, COUNT(*) FROM f%s GROUP BY %s%s" names
    (where conds) names
    (match limit with
    | Some k -> Printf.sprintf " ORDER BY COUNT(*) DESC LIMIT %d" k
    | None -> "")

(* A fixed layout, so every seed's dashboard costs the same: half the
   panels are COUNTs, 3 in 8 one-attribute GROUP BYs (cycling over the
   attributes; filtered from the tenth on and every second before it,
   every third a top-10), 1 in 8 a
   two-attribute grid of ~3k cells (each grid once bare, once filtered).
   The seed picks the COUNT conditions and the filter ranges.

   The grids (~100 KB replies each) come last.  A burst's replies
   (~800 KB per connection) outgrow the daemon's socket buffer, and the
   daemon does not wait for its sockets to become writable: what does not
   fit waits for its next 50 ms select tick.  How much fits in the first
   write varies from burst to burst.  With the grids last, the small
   panels (well over half) always leave in the first write, so
   query_p50_us measures the batch itself; the grids' tick stalls show in
   query_p90_us and query_p99_us. *)
let panels ~seed ~n rel =
  let rng = Prng.create ~seed () in
  let schema = Relation.schema rel in
  let arity = Schema.arity schema in
  let grids =
    [|
      [ Flights.origin; Flights.dest ];
      [ Flights.origin; Flights.fl_time ];
      [ Flights.dest; Flights.fl_time ];
    |]
  in
  (* A range on the first int-binned attribute outside [excluded]. *)
  let filter_on excluded =
    let a =
      List.find
        (fun a -> not (List.mem a excluded || is_categorical schema a))
        (List.init arity Fun.id)
    in
    [ random_cond rng schema a ]
  in
  let seen = Hashtbl.create 64 in
  let ones = ref 0 and twos = ref 0 in
  let made =
    Array.init n (fun i ->
        let rec fresh make =
          let sql = make () in
          if Hashtbl.mem seen sql then fresh make
          else begin
            Hashtbl.add seen sql ();
            sql
          end
        in
        match i mod 8 with
        | 1 | 3 | 5 ->
            let j = !ones in
            incr ones;
            let a = j mod arity in
            fresh (fun () ->
                let conds = if j mod 2 = 1 || j >= 10 then filter_on [ a ] else [] in
                let limit = if j mod 3 = 2 then Some 10 else None in
                group_sql schema [ a ] conds ~limit)
        | 7 ->
            let g = !twos in
            incr twos;
            let attrs = grids.(g mod Array.length grids) in
            fresh (fun () ->
                let conds = if g >= Array.length grids then filter_on attrs else [] in
                group_sql schema attrs conds ~limit:None)
        | _ -> fresh (fun () -> count_sql (random_conds rng schema)))
  in
  let small, grid = List.partition (fun i -> i mod 8 <> 7) (List.init n Fun.id) in
  Array.of_list (List.map (Array.get made) (small @ grid))

(* ------------------------------------------------------------------ *)
(* Accuracy set (Sec. 6.2)                                              *)
(* ------------------------------------------------------------------ *)

type accuracy_query = { sql : string; truth : float; klass : [ `Heavy | `Light | `Null ] }

let accuracy_attrs =
  let a = [| Flights.origin; Flights.dest; Flights.fl_time; Flights.distance |] in
  List.concat
    (List.init 4 (fun i ->
         List.init (3 - i) (fun j -> [ a.(i); a.(i + j + 1) ])))

(* Every pair of {origin, dest, fl_time, distance}: its 100 heaviest and
   100 lightest existing combinations and up to 100 absent ones. *)
let accuracy_set ~seed rel =
  let schema = Relation.schema rel in
  List.concat_map
    (fun attrs ->
      let rng = Prng.create ~seed:(seed + (7919 * List.hd attrs) + List.nth attrs 1) () in
      let num_nulls = min 100 (absent_cells rel attrs) in
      let w =
        Hitters.standard rng rel ~attrs ~num_hitters:100 ~num_nulls
      in
      let q klass (values, truth) =
        { sql = point_sql schema attrs values; truth = float_of_int truth; klass }
      in
      List.map (q `Heavy) w.Hitters.heavy
      @ List.map (q `Light) w.Hitters.light
      @ List.map (fun v -> q `Null (v, 0)) w.Hitters.nulls)
    accuracy_attrs
