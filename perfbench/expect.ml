(* Expected answers: an in-process replica of the daemon's catalog over a
   copy of the served file, answering through the same Handler code.  The
   daemon's reply bytes must equal the replica's, byte for byte. *)

module C = Edb_server.Catalog
module H = Edb_server.Handler
module P = Edb_server.Protocol

type t = { catalog : C.t; metrics : Edb_server.Metrics.t; name : string }

let text = function
  | P.Ok lines -> Ok (String.concat "" (List.map (fun l -> l ^ "\n") lines))
  | P.Err { code; message } -> Error (code ^ " " ^ message)

let open_replica ~name path =
  let catalog = C.create () in
  match C.load catalog ~name ~path with
  | Ok _ -> { catalog; metrics = Edb_server.Metrics.create (); name }
  | Error m -> failwith ("replica load: " ^ m)

let handle r request = text (fst (H.handle ~catalog:r.catalog ~metrics:r.metrics request))
let query r sql = handle r (P.Query { name = r.name; sql })
let refresh r path = handle r (P.Refresh { name = r.name; path })

let copy_file src dst =
  let ic = open_in_bin src in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let file_size path = (Unix.stat path).Unix.st_size
