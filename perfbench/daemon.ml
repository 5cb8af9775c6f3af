(* The daemon under test: `entropydb serve --domains 1` in its own
   process on a Unix socket, with EDB_DOMAINS=1 so its kernel folds run
   in the same order as the benchmark's in-process replicas. *)

type t = { pid : int; socket : string }

let domains = 1

let env () =
  let keep s = not (String.starts_with ~prefix:"EDB_DOMAINS=" s) in
  Array.append
    [| Printf.sprintf "EDB_DOMAINS=%d" domains |]
    (Array.of_list (List.filter keep (Array.to_list (Unix.environment ()))))

(* Every daemon not yet stopped; [stop_all] runs at exit and on SIGINT
   or SIGTERM, so no run leaves a daemon behind. *)
let live = ref []

let spawn ~exe ~socket ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  (* stdin: an empty pipe, closed on our side *)
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let args =
    [| exe; "serve"; "--socket"; socket; "--domains"; string_of_int domains |]
  in
  let pid = Unix.create_process_env exe args (env ()) stdin_r out out in
  Unix.close out;
  Unix.close stdin_r;
  let d = { pid; socket } in
  live := d :: !live;
  d

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (EINTR, _, _) -> waitpid_nohang pid
  | exception Unix.Unix_error (ECHILD, _, _) -> true

(* SIGTERM (the daemon drains and exits), SIGKILL after 10 s; always
   reaped before returning. *)
let stop d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    if not (waitpid_nohang d.pid) then
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
  in
  wait ()

let stop_all () = List.iter stop !live

let () =
  at_exit stop_all;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      go ())
