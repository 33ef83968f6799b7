let listen_socket addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.set_close_on_exec fd;
     (match addr with
     | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
     | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd addr;
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  fd

(* --- framed connections ------------------------------------------- *)

module Conn = struct
  type t = {
    fd : Unix.file_descr;
    mutable rbuf : Bytes.t;  (* read accumulator *)
    mutable rlen : int;
    mutable wbuf : Bytes.t;  (* write backlog, [wpos, wlen) pending *)
    mutable wpos : int;
    mutable wlen : int;
    mutable closed : bool;  (* stream dead: EOF, hard error, or corrupt framing *)
    mutable fd_closed : bool;
  }

  let create fd =
    Unix.set_nonblock fd;
    {
      fd;
      rbuf = Bytes.create 4096;
      rlen = 0;
      wbuf = Bytes.create 4096;
      wpos = 0;
      wlen = 0;
      closed = false;
      fd_closed = false;
    }

  let fd t = t.fd
  let pending_out t = t.wlen > t.wpos

  let ensure_write_room t extra =
    (* compact first, then grow *)
    if t.wpos > 0 then begin
      Bytes.blit t.wbuf t.wpos t.wbuf 0 (t.wlen - t.wpos);
      t.wlen <- t.wlen - t.wpos;
      t.wpos <- 0
    end;
    if t.wlen + extra > Bytes.length t.wbuf then begin
      let cap = ref (2 * Bytes.length t.wbuf) in
      while t.wlen + extra > !cap do
        cap := 2 * !cap
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.wbuf 0 nb 0 t.wlen;
      t.wbuf <- nb
    end

  let queue t frame =
    let len = Bytes.length frame in
    ensure_write_room t len;
    Bytes.blit frame 0 t.wbuf t.wlen len;
    t.wlen <- t.wlen + len

  (* Nonblocking drain of the write backlog. [`Closed] on a hard error
     (peer gone); the backlog rewinds to the buffer's start once it
     empties. *)
  let flush t =
    if t.closed then `Closed
    else begin
      let result = ref `Ok in
      let continue = ref (pending_out t) in
      while !continue do
        match Unix.write t.fd t.wbuf t.wpos (t.wlen - t.wpos) with
        | 0 -> continue := false
        | k ->
          t.wpos <- t.wpos + k;
          if t.wpos >= t.wlen then begin
            t.wpos <- 0;
            t.wlen <- 0;
            continue := false
          end
        | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> continue := false
        | exception Unix.Unix_error _ ->
          t.closed <- true;
          result := `Closed;
          continue := false
      done;
      !result
    end

  let ensure_read_room t =
    if t.rlen = Bytes.length t.rbuf then begin
      let nb = Bytes.create (2 * Bytes.length t.rbuf) in
      Bytes.blit t.rbuf 0 nb 0 t.rlen;
      t.rbuf <- nb
    end

  (* Read whatever the socket has and hand every complete envelope to
     [handle], in place. [`Closed] on EOF or hard error, [`Corrupt] if
     the stream framing broke (caller should drop the connection). *)
  let read t ~handle =
    if t.closed then `Closed
    else begin
      let state = ref `Ok in
      let continue = ref true in
      while !continue do
        ensure_read_room t;
        match Unix.read t.fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen) with
        | 0 ->
          t.closed <- true;
          state := `Closed;
          continue := false
        | k -> t.rlen <- t.rlen + k
        | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> continue := false
        | exception Unix.Unix_error _ ->
          t.closed <- true;
          state := `Closed;
          continue := false
      done;
      (* extract complete frames *)
      let off = ref 0 in
      let extracting = ref true in
      while !extracting do
        let at = !off in
        let verdict = Envelope.decode t.rbuf ~off:at ~len:(t.rlen - at) in
        if verdict > 0 then begin
          off := at + verdict;
          handle t.rbuf ~off:at
        end
        else begin
          if verdict <> Envelope.need_more then begin
            t.closed <- true;
            state := `Corrupt (Envelope.reason t.rbuf ~off:at verdict)
          end;
          extracting := false
        end
      done;
      if !off > 0 then begin
        Bytes.blit t.rbuf !off t.rbuf 0 (t.rlen - !off);
        t.rlen <- t.rlen - !off
      end;
      !state
    end

  let close t =
    t.closed <- true;
    if not t.fd_closed then begin
      t.fd_closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end
end
