(* The load generator's transport: one thread, a few non-blocking
   connections speaking tagged v2 frames, and a select loop.

   Every request is sent as [@<seq> <line>], so replies are matched by
   tag and a late reply never holds back the next send.  A reply is
   complete when its header's payload count of lines has arrived; its
   completion time is the clock reading right after the read that
   delivered its last byte. *)

module P = Edb_server.Protocol

let now = Unix.gettimeofday

type reply = Payload of string  (** the payload lines, each ending in LF *)
           | Refused of string  (** [ERR busy] *)
           | Failed of string  (** any other [ERR], or a transport failure *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;  (** valid bytes in [rbuf] *)
  mutable rpos : int;  (** start of the first unparsed reply *)
  mutable body : int;  (** payload start of the reply being read; -1: none *)
  mutable tag : int;
  mutable need : int;  (** payload lines still missing *)
  mutable scan : int;  (** where the payload scan resumes *)
  out : Buffer.t;  (** request bytes not yet written *)
}

exception Transport of string

let connect ?(timeout = 10.) path =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        Unix.set_nonblock fd;
        {
          fd;
          rbuf = Bytes.create 65536;
          rlen = 0;
          rpos = 0;
          body = -1;
          tag = 0;
          need = 0;
          scan = 0;
          out = Buffer.create 4096;
        }
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | EAGAIN), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.005;
        go ()
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        raise (Transport ("connect: " ^ Unix.error_message e))
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let enqueue c seq line =
  Buffer.add_char c.out '@';
  Buffer.add_string c.out (string_of_int seq);
  Buffer.add_char c.out ' ';
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n'

let flush c =
  let len = Buffer.length c.out in
  if len > 0 then begin
    let s = Buffer.contents c.out in
    let n =
      try Unix.write_substring c.fd s 0 len
      with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> 0
    in
    Buffer.clear c.out;
    if n < len then Buffer.add_substring c.out s n (len - n)
  end

let find_nl b from lim =
  let i = ref from in
  while !i < lim && Bytes.unsafe_get b !i <> '\n' do
    incr i
  done;
  if !i < lim then !i else -1

(* Parse every complete reply in the buffer, handing each to [on_reply]. *)
let rec parse c t on_reply =
  if c.body < 0 then begin
    let nl = find_nl c.rbuf c.rpos c.rlen in
    if nl >= 0 then begin
      let header = Bytes.sub_string c.rbuf c.rpos (nl - c.rpos) in
      match P.parse_tagged_header header with
      | Ok (Some id, P.Payload k) ->
          c.tag <- int_of_string id;
          c.body <- nl + 1;
          c.scan <- nl + 1;
          c.need <- k;
          parse c t on_reply
      | Ok (Some id, P.Error_line { code; message }) ->
          c.rpos <- nl + 1;
          let r =
            if code = P.err_busy then Refused message
            else Failed (code ^ " " ^ message)
          in
          on_reply (int_of_string id) t r;
          parse c t on_reply
      | Ok (None, _) -> raise (Transport ("untagged reply " ^ header))
      | Error e -> raise (Transport e)
    end
  end
  else begin
    let partial = ref false in
    while c.need > 0 && not !partial do
      let nl = find_nl c.rbuf c.scan c.rlen in
      if nl < 0 then begin
        c.scan <- c.rlen;
        partial := true
      end
      else begin
        c.scan <- nl + 1;
        c.need <- c.need - 1
      end
    done;
    if c.need = 0 then begin
      let payload = Bytes.sub_string c.rbuf c.body (c.scan - c.body) in
      c.rpos <- c.scan;
      c.body <- -1;
      on_reply c.tag t (Payload payload);
      parse c t on_reply
    end
  end

(* Drain the socket, then parse.  Completion time is taken once the
   kernel has no more bytes for us. *)
let read_replies c on_reply =
  if c.rpos > 0 then begin
    let keep = c.rlen - c.rpos in
    Bytes.blit c.rbuf c.rpos c.rbuf 0 keep;
    if c.body >= 0 then begin
      c.body <- c.body - c.rpos;
      c.scan <- c.scan - c.rpos
    end;
    c.rlen <- keep;
    c.rpos <- 0
  end;
  let more = ref true in
  while !more do
    if c.rlen = Bytes.length c.rbuf then begin
      let b = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 b 0 c.rlen;
      c.rbuf <- b
    end;
    match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
    | 0 -> raise (Transport "daemon closed the connection")
    | n -> c.rlen <- c.rlen + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        more := false
  done;
  parse c (now ()) on_reply

let wait conns timeout =
  let rd = List.map (fun c -> c.fd) conns in
  let wr =
    List.filter_map
      (fun c -> if Buffer.length c.out > 0 then Some c.fd else None)
      conns
  in
  match Unix.select rd wr [] timeout with
  | r, _, _ -> r
  | exception Unix.Unix_error (EINTR, _, _) -> []

let service conns timeout on_reply =
  List.iter flush conns;
  let ready = wait conns timeout in
  List.iter (fun c -> if List.mem c.fd ready then read_replies c on_reply) conns

(* ------------------------------------------------------------------ *)
(* Open loop                                                           *)
(* ------------------------------------------------------------------ *)

type schedule = {
  due : float array;  (** seconds from the phase start, non-decreasing *)
  via : int array;  (** connection index *)
  line : string array;  (** request line, untagged *)
}

type timing = {
  t0 : float;  (** absolute phase start *)
  sent : float array;  (** absolute *)
  finished : float array;  (** absolute; nan if never answered *)
  backlog : int array;  (** sent - answered, just after each send *)
}

(* Below this distance to the next due time the loop polls instead of
   sleeping in select, so sends leave on time. *)
let spin_s = 150e-6

let open_loop conns s ~drain_s on_reply =
  let n = Array.length s.due in
  let sent = Array.make n nan and finished = Array.make n nan in
  let backlog = Array.make n 0 in
  let answered = ref 0 in
  let reply seq t r =
    finished.(seq) <- t;
    incr answered;
    on_reply seq t r
  in
  let cl = Array.to_list conns in
  let t0 = now () +. 0.01 in
  let next = ref 0 in
  let deadline = ref infinity in
  while !answered < n do
    let t = now () in
    if t > !deadline then
      raise
        (Transport
           (Printf.sprintf "%d of %d replies missing %.1fs after the last send"
              (n - !answered) n drain_s));
    while !next < n && t0 +. s.due.(!next) <= t do
      let i = !next in
      enqueue conns.(s.via.(i)) i s.line.(i);
      sent.(i) <- t;
      backlog.(i) <- i + 1 - !answered;
      incr next
    done;
    if !next = n && !deadline = infinity then deadline := t +. drain_s;
    let timeout =
      if !next < n then Float.max 0. (t0 +. s.due.(!next) -. t -. spin_s)
      else 0.05
    in
    service cl timeout reply
  done;
  { t0; sent; finished; backlog }

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Keep up to [window] requests, and up to [bytes] bytes of expected
   reply ([cost i] for the i-th request), in flight on one connection; a
   request over the byte budget goes out once nothing is in flight.
   Sending stops at the first multiple of [period] requests after
   [duration] seconds, so a mixed request set is covered in whole rounds.
   [line i] is the i-th request.  Returns the requests sent, the phase
   start and the time the last reply arrived. *)
let closed_loop c ~window ~bytes ~cost ~period ~duration ~line on_reply =
  let sent = ref 0 and answered = ref 0 and in_flight = ref 0 in
  let t0 = now () in
  let t_end = t0 +. duration and t_last = ref t0 in
  let reply seq t r =
    incr answered;
    in_flight := !in_flight - cost seq;
    t_last := t;
    on_reply seq t r
  in
  let top_up () =
    let go = ref true in
    while
      !go && !sent - !answered < window
      && (!sent = !answered || !in_flight + cost !sent <= bytes)
    do
      if !sent mod period = 0 && now () >= t_end then go := false
      else begin
        enqueue c !sent (line !sent);
        in_flight := !in_flight + cost !sent;
        incr sent
      end
    done
  in
  top_up ();
  let deadline = t_end +. 10. in
  while !answered < !sent do
    if now () > deadline then raise (Transport "closed loop: replies missing");
    service [ c ] 0.05 reply;
    top_up ()
  done;
  (!sent, t0, !t_last)

(* Send every line with at most [window] in flight, untimed. *)
let pipelined c ~window lines on_reply =
  let n = Array.length lines in
  let sent = ref 0 and answered = ref 0 in
  let reply seq t r =
    incr answered;
    on_reply seq t r
  in
  let deadline = now () +. 60. in
  while !answered < n do
    while !sent < n && !sent - !answered < window do
      enqueue c !sent lines.(!sent);
      incr sent
    done;
    if now () > deadline then raise (Transport "pipelined: replies missing");
    service [ c ] 0.05 reply
  done

(* One request, waited for: setup steps and REFRESH round trips. *)
let call c line =
  let result = ref None in
  enqueue c 0 line;
  let deadline = now () +. 60. in
  while !result = None do
    if now () > deadline then raise (Transport ("no reply to " ^ line));
    service [ c ] 0.05 (fun _ t r -> result := Some (t, r))
  done;
  Option.get !result
