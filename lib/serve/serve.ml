module Json = Ujam_obs.Json
module Obs = Ujam_obs.Obs
module Machine = Ujam_machine.Machine
module Presets = Ujam_machine.Presets
module Options = Ujam_engine.Options
module Engine = Ujam_engine.Engine
module Model = Ujam_engine.Model
module Error = Ujam_engine.Error
module Result_cache = Ujam_engine.Result_cache
module Load = Ujam_engine.Load
module Lint = Ujam_analysis.Lint
module Explain = Ujam_analysis.Explain
module Diagnostic = Ujam_analysis.Diagnostic

type config = {
  machine : Machine.t;
  bound : int;
  max_loops : int;
  model : (module Model.MODEL);
  seq : bool;
  domains : int;
  cache_size : int;
  cache_file : string option;
  timeout_ms : int;
  max_request_bytes : int;
  metrics_out : string option;
  trace_out : string option;
  quiet : bool;
}

let default_config ?(machine = Presets.alpha) () =
  { machine;
    bound = 4;
    max_loops = 2;
    model = (module Model.Ugs_tables : Model.MODEL);
    seq = false;
    domains = 1;
    cache_size = 1024;
    cache_file = None;
    timeout_ms = 30_000;
    max_request_bytes = 1 lsl 20;
    metrics_out = None;
    trace_out = None;
    quiet = false }

type summary = {
  requests : int;
  ok : int;
  errors : int;
  hits : int;
  misses : int;
  evictions : int;
  dumps_failed : int;
}

(* ---- the loop's working state ---------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  cout : Unix.file_descr;
  buf : Buffer.t;
  mutable discarding : bool;  (* oversized line: drop bytes to newline *)
  mutable input_done : bool;
  mutable alive : bool;  (* write side usable *)
  borrowed : bool;  (* stdio fds: never close them *)
}

type job = {
  j_conn : conn;
  j_id : Json.t;
  j_key : string;
  j_arrival : float;
  j_deadline : float option;
  j_label : string;
  j_compute : unit -> bool * Json.t;
}

(* Tasks keep per-connection response order: every request — even one
   answered on the spot — rides the same FIFO, so a cache hit can never
   overtake an earlier miss from the same client.  [Thunk] defers
   rendering to the respond phase, after the round's cache-miss batch
   has been computed and stored — a [metrics] request queued in the
   same input chunk as an optimize still observes that optimize. *)
type task =
  | Ready of conn * bool * string
  | Thunk of conn * (unit -> bool * string)
  | Compute of job

type st = {
  cfg : config;
  cache : (bool * Json.t) Result_cache.t;
  pending : task Queue.t;
  mutable conns : conn list;
  mutable draining : bool;
  stop : bool Atomic.t;
  mutable n_requests : int;
  mutable n_ok : int;
  mutable n_err : int;
  m_requests : Obs.Counter.t;
  m_errors : Obs.Counter.t;
  h_batch : Obs.Histogram.t;
  h_request : Obs.Histogram.t;
}

let mk_conn ?(borrowed = false) fd cout =
  { fd;
    cout;
    buf = Buffer.create 512;
    discarding = false;
    input_done = false;
    alive = true;
    borrowed }

let write_line st conn ~is_ok line =
  if is_ok then st.n_ok <- st.n_ok + 1
  else begin
    st.n_err <- st.n_err + 1;
    Obs.Counter.incr st.m_errors
  end;
  if conn.alive then begin
    let s = line ^ "\n" in
    let n = String.length s in
    try
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write_substring conn.cout s !off (n - !off)
      done
    with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) | Sys_error _ ->
      (* mid-stream disconnect: this client is gone; everyone else's
         requests are unaffected *)
      conn.alive <- false;
      conn.input_done <- true
  end

(* ---- request dispatch ------------------------------------------------ *)

let metrics_payload st =
  let cs = Result_cache.stats st.cache in
  let cache_json =
    Json.Obj
      [ ("size", Json.Int cs.Result_cache.size);
        ("capacity", Json.Int cs.Result_cache.capacity);
        ("hits", Json.Int cs.Result_cache.hits);
        ("misses", Json.Int cs.Result_cache.misses);
        ("evictions", Json.Int cs.Result_cache.evictions) ]
  in
  match Obs.dump () with
  | Json.Obj fields -> Json.Obj (fields @ [ ("cache", cache_json) ])
  | other -> other

let safe_compute f () =
  try f ()
  with exn ->
    ( false,
      Protocol.error_payload ~kind:Protocol.Analysis
        ("analysis raised: " ^ Printexc.to_string exn) )

let compute_of ~(meth : Protocol.method_) (o : Options.t) ~routine nest =
  let { Options.machine; model; bound; max_loops; seq; rules } = o in
  match meth with
  | Protocol.Optimize ->
      fun () -> (
        match
          Engine.analyze ~bound ~max_loops ~model ~seq ~machine ~routine nest
        with
        | Ok _ as o -> (true, Engine.nest_outcome_to_json o)
        | Error e ->
            ( false,
              Protocol.error_payload ~kind:Protocol.Analysis
                ~diagnostics:
                  (List.map Diagnostic.to_json e.Error.diagnostics)
                (Error.to_string { e with Error.diagnostics = [] }) ))
  | Protocol.Explain ->
      fun () ->
        (true, Explain.to_json (Explain.run ~bound ~max_loops ~seq ~machine nest))
  | Protocol.Lint ->
      fun () ->
        let diags = Lint.run ?rules ~bound ~max_loops ~machine nest in
        let e, w, i = Diagnostic.count diags in
        ( true,
          Json.Obj
            [ ("nest", Json.Str routine);
              ("diagnostics", Json.List (List.map Diagnostic.to_json diags));
              ("errors", Json.Int e);
              ("warnings", Json.Int w);
              ("infos", Json.Int i) ] )
  | Protocol.Metrics | Protocol.Ping | Protocol.Shutdown ->
      fun () ->
        (false, Protocol.error_payload ~kind:Protocol.Protocol "not a job")

(* An error answered on the spot, in order with the connection's other
   requests. *)
let refuse st conn ~id ?diagnostics kind msg =
  Queue.add
    (Ready (conn, false, Protocol.error_response ~id ~kind ?diagnostics msg))
    st.pending

let oversized st conn =
  refuse st conn ~id:Json.Null Protocol.Oversized
    (Printf.sprintf "request line exceeds %d bytes" st.cfg.max_request_bytes)

let enqueue_request st conn arrival (req : Protocol.request) =
  let id = req.Protocol.id in
  let perr = refuse st conn ~id Protocol.Protocol in
  match req.Protocol.meth with
  | Protocol.Ping ->
      Queue.add
        (Ready
           (conn, true, Protocol.ok_response ~id (Json.Obj [ ("pong", Json.Bool true) ])))
        st.pending
  | Protocol.Metrics ->
      Queue.add
        (Thunk
           (conn, fun () -> (true, Protocol.ok_response ~id (metrics_payload st))))
        st.pending
  | Protocol.Shutdown ->
      st.draining <- true;
      Queue.add
        (Ready
           ( conn,
             true,
             Protocol.ok_response ~id (Json.Obj [ ("stopping", Json.Bool true) ]) ))
        st.pending
  | (Protocol.Optimize | Protocol.Explain | Protocol.Lint) as meth -> (
      let cfg = st.cfg in
      let defaults =
        { Options.machine = cfg.machine;
          model = cfg.model;
          bound = cfg.bound;
          max_loops = cfg.max_loops;
          seq = cfg.seq;
          rules = None }
      in
      match Options.resolve defaults req.Protocol.options with
      | Error e -> perr (Options.to_string e)
      | Ok opts -> (
          match req.Protocol.source with
          | None -> perr "params needs a nest or a kernel"
          | Some source -> (
              let routine =
                match (req.Protocol.name, source) with
                | Some name, _ -> name
                | None, Load.Kernel (k, _) -> k
                | None, Load.Inline _ -> "nest"
              in
              match Load.nest ~name:routine source with
              | Error { Error.stage = Error.Parse; message; diagnostics; _ } ->
                  refuse st conn ~id Protocol.Parse message
                    ~diagnostics:(List.map Diagnostic.to_json diagnostics)
              | Error e -> perr e.Error.message
              | Ok nest ->
                  (* The fingerprint digests the parsed nest; it is the
                     only digest a request pays for. *)
                  let key =
                    Options.fingerprint ~op:(Protocol.method_name meth)
                      ~extra:routine opts nest
                  in
                  let deadline =
                    let spec =
                      Option.value req.Protocol.timeout_ms ~default:cfg.timeout_ms
                    in
                    if spec < 0 then None
                    else Some (arrival +. (float_of_int spec /. 1000.))
                  in
                  Queue.add
                    (Compute
                       { j_conn = conn;
                         j_id = id;
                         j_key = key;
                         j_arrival = arrival;
                         j_deadline = deadline;
                         j_label = Protocol.method_name meth;
                         j_compute =
                           safe_compute (compute_of ~meth opts ~routine nest) })
                    st.pending)))

let handle_line st conn line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if String.trim line = "" then ()
  else begin
    st.n_requests <- st.n_requests + 1;
    Obs.Counter.incr st.m_requests;
    let arrival = Obs.now () in
    if String.length line > st.cfg.max_request_bytes then oversized st conn
    else
      match Json.of_string line with
      | Error msg ->
          refuse st conn ~id:Json.Null Protocol.Protocol ("invalid JSON: " ^ msg)
      | Ok json -> (
          match Protocol.request_of_json json with
          | Error msg ->
              let id = Option.value (Json.member "id" json) ~default:Json.Null in
              refuse st conn ~id Protocol.Protocol msg
          | Ok req -> enqueue_request st conn arrival req)
  end

(* ---- buffered line extraction ---------------------------------------- *)

let rec extract_lines st conn =
  let s = Buffer.contents conn.buf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear conn.buf;
      Buffer.add_substring conn.buf s (i + 1) (String.length s - i - 1);
      if conn.discarding then begin
        (* the newline ends the oversized line we already reported *)
        conn.discarding <- false
      end
      else handle_line st conn (String.sub s 0 i);
      extract_lines st conn
  | None ->
      if (not conn.discarding) && String.length s > st.cfg.max_request_bytes
      then begin
        (* no newline yet and already over budget: report once, then
           swallow bytes until the line ends *)
        conn.discarding <- true;
        Buffer.clear conn.buf;
        st.n_requests <- st.n_requests + 1;
        Obs.Counter.incr st.m_requests;
        oversized st conn
      end

let read_chunk st conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.input_done <- true
  | n ->
      if conn.discarding then begin
        (* cheap fast path: drop everything before the ending newline *)
        match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
        | None -> ()
        | Some i ->
            conn.discarding <- false;
            Buffer.add_subbytes conn.buf chunk (i + 1) (n - i - 1);
            extract_lines st conn
      end
      else begin
        Buffer.add_subbytes conn.buf chunk 0 n;
        extract_lines st conn
      end
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) ->
      conn.input_done <- true;
      conn.alive <- false
  | exception Unix.Unix_error (EINTR, _, _) -> ()

(* ---- batch dispatch --------------------------------------------------- *)

(* Most cache-miss jobs dispatched to the domain pool per round. *)
let batch = 32

let round st =
  if not (Queue.is_empty st.pending) then begin
    (* pop every immediately-answerable task and up to [batch] compute
       jobs, preserving arrival order *)
    let popped = ref [] and jobs = ref 0 in
    let continue = ref true in
    while !continue && not (Queue.is_empty st.pending) do
      match Queue.peek st.pending with
      | Ready _ | Thunk _ -> popped := Queue.pop st.pending :: !popped
      | Compute _ ->
          if !jobs >= batch then continue := false
          else begin
            incr jobs;
            popped := Queue.pop st.pending :: !popped
          end
    done;
    let popped = List.rev !popped in
    let now = Obs.now () in
    (* classify: immediate line, timeout, cache hit, or miss *)
    let classified =
      List.map
        (fun task ->
          match task with
          | Ready (c, is_ok, line) -> `Line (c, is_ok, line)
          | Thunk (c, render) -> `Th (c, render)
          | Compute j -> (
              match j.j_deadline with
              | Some d when now >= d ->
                  `Line
                    ( j.j_conn,
                      false,
                      Protocol.error_response ~id:j.j_id
                        ~kind:Protocol.Timeout
                        (Printf.sprintf
                           "request expired before dispatch (%.0f ms in queue)"
                           ((now -. j.j_arrival) *. 1000.)) )
              | _ -> (
                  match Result_cache.find st.cache j.j_key with
                  | Some (ok, payload) -> `Done (j, ok, payload)
                  | None -> `Miss j)))
        popped
    in
    (* dedupe misses inside the batch; compute each distinct key once *)
    let uniq = Hashtbl.create 16 in
    let miss_list = ref [] in
    List.iter
      (fun c ->
        match c with
        | `Miss j when not (Hashtbl.mem uniq j.j_key) ->
            Hashtbl.add uniq j.j_key ();
            miss_list := j :: !miss_list
        | _ -> ())
      classified;
    let misses = Array.of_list (List.rev !miss_list) in
    if Array.length misses > 0 then
      Obs.Histogram.record st.h_batch (float_of_int (Array.length misses));
    let computed =
      Engine.parallel_map
        ~domains:(min st.cfg.domains (max 1 (Array.length misses)))
        ~f:(fun ~domain:_ j -> (j.j_key, j.j_compute ()))
        misses
    in
    let results = Hashtbl.create 16 in
    Array.iter
      (fun (key, outcome) ->
        Result_cache.store st.cache key outcome;
        Hashtbl.replace results key outcome)
      computed;
    (* respond in arrival order *)
    let finish j ok payload =
      let line = Protocol.response_of_payload ~id:j.j_id ~ok payload in
      write_line st j.j_conn ~is_ok:ok line;
      let dur = Obs.now () -. j.j_arrival in
      Obs.Histogram.record st.h_request dur;
      if st.cfg.trace_out <> None then
        Obs.Span.emit ~name:("serve." ^ j.j_label) ~t0:j.j_arrival ~dur
    in
    List.iter
      (fun c ->
        match c with
        | `Line (conn, is_ok, line) -> write_line st conn ~is_ok line
        | `Th (conn, render) ->
            let is_ok, line = render () in
            write_line st conn ~is_ok line
        | `Done (j, ok, payload) -> finish j ok payload
        | `Miss j ->
            let ok, payload = Hashtbl.find results j.j_key in
            finish j ok payload)
      classified;
    (* a long-lived daemon must not accumulate spans it will never
       export: without a trace destination, drop them every round *)
    if st.cfg.trace_out = None then Obs.Span.clear ()
  end

(* ---- the serve loop --------------------------------------------------- *)

let conn_referenced st conn =
  let found = ref false in
  Queue.iter
    (fun t ->
      match t with
      | Ready (c, _, _) | Thunk (c, _) -> if c == conn then found := true
      | Compute j -> if j.j_conn == conn then found := true)
    st.pending;
  !found

let close_conn conn =
  if not conn.borrowed then begin
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    if conn.cout != conn.fd then
      try Unix.close conn.cout with Unix.Unix_error _ -> ()
  end

let summary_of st ~dumps_failed =
  let cs = Result_cache.stats st.cache in
  { requests = st.n_requests;
    ok = st.n_ok;
    errors = st.n_err;
    hits = cs.Result_cache.hits;
    misses = cs.Result_cache.misses;
    evictions = cs.Result_cache.evictions;
    dumps_failed }

(* ---- cache persistence ------------------------------------------------ *)

(* Line-delimited JSON, mirroring the wire format: a version header,
   then one {key, ok, payload} object per entry, most-recently-used
   first.  Keys are content fingerprints (machine + options + canonical
   digest), which are stable across processes (DESIGN.md §14). *)

let cache_header = Json.Obj [ ("ujc-serve-cache", Json.Int 1) ]

let cache_contents cache =
  let buf = Buffer.create 4096 in
  let line json =
    Buffer.add_string buf (Json.to_string json);
    Buffer.add_char buf '\n'
  in
  line cache_header;
  let n =
    Result_cache.fold cache ~init:0 ~f:(fun n key (ok, payload) ->
        line
          (Json.Obj
             [ ("key", Json.Str key); ("ok", Json.Bool ok); ("payload", payload) ]);
        n + 1)
  in
  (n, Buffer.contents buf)

(* The file is MRU-first: collect its entries, then store oldest first
   so the rebuilt recency order matches the saved one; overflow beyond
   capacity evicts the oldest.  A file that cannot be read starts
   cold. *)
let load_cache cache path =
  let read ic =
    match Option.map Json.of_string (In_channel.input_line ic) with
    | Some (Ok h) when Json.member "ujc-serve-cache" h = Some (Json.Int 1) ->
        let rec entries acc =
          match In_channel.input_line ic with
          | None -> acc
          | Some l -> (
              match Json.of_string l with
              | Ok j -> (
                  match
                    (Json.member "key" j, Json.member "ok" j, Json.member "payload" j)
                  with
                  | Some (Json.Str key), Some (Json.Bool ok), Some payload ->
                      entries ((key, ok, payload) :: acc)
                  | _ -> entries acc)
              | Error _ -> entries acc)
        in
        entries []
    | _ -> []
  in
  if not (Sys.file_exists path) then 0
  else
    match In_channel.with_open_text path read with
    | entries ->
        List.iter
          (fun (key, ok, payload) -> Result_cache.store cache key (ok, payload))
          entries;
        List.length entries
    | exception Sys_error msg ->
        Printf.eprintf "serve: cannot read %s; starting cold\n%!"
          (Obs.io_error path msg);
        0

let run ?listen ?stdio ?(stop = Atomic.make false) cfg =
  let stdio = Option.value stdio ~default:(listen = None) in
  if listen = None && not stdio then
    invalid_arg "Serve.run: need a socket path or stdio";
  Obs.enable ();
  let st =
    { cfg;
      cache =
        Result_cache.create ~metrics_prefix:"serve.cache"
          ~capacity:(max 1 cfg.cache_size) ();
      pending = Queue.create ();
      conns = [];
      draining = false;
      stop;
      n_requests = 0;
      n_ok = 0;
      n_err = 0;
      m_requests = Obs.counter "serve.requests";
      m_errors = Obs.counter "serve.errors";
      h_batch = Obs.histogram "serve.batch_size";
      h_request = Obs.histogram "serve.request_s" }
  in
  let loaded =
    match cfg.cache_file with
    | Some path -> load_cache st.cache path
    | None -> 0
  in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let old_int =
    Sys.signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Atomic.set stop true))
  in
  let lfd =
    match listen with
    | None -> None
    | Some path ->
        if Sys.file_exists path then Unix.unlink path;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 16;
        Some fd
  in
  if stdio then st.conns <- [ mk_conn ~borrowed:true Unix.stdin Unix.stdout ];
  let running = ref true in
  while !running do
    if Atomic.get stop || st.draining then running := false
    else begin
      let read_fds =
        (match lfd with Some fd -> [ fd ] | None -> [])
        @ List.filter_map
            (fun c ->
              if c.alive && not c.input_done then Some c.fd else None)
            st.conns
      in
      if read_fds = [] && Queue.is_empty st.pending then running := false
      else begin
        let timeout = if Queue.is_empty st.pending then 0.2 else 0. in
        (match Unix.select read_fds [] [] timeout with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | ready, _, _ ->
            (match lfd with
            | Some fd when List.memq fd ready -> (
                match Unix.accept fd with
                | cfd, _ -> st.conns <- st.conns @ [ mk_conn cfd cfd ]
                | exception Unix.Unix_error _ -> ())
            | _ -> ());
            List.iter
              (fun c -> if List.memq c.fd ready then read_chunk st c)
              st.conns);
        round st;
        (* reap connections that are finished on both sides *)
        let dead, live =
          List.partition
            (fun c ->
              (c.input_done || not c.alive) && not (conn_referenced st c))
            st.conns
        in
        List.iter close_conn dead;
        st.conns <- live
      end
    end
  done;
  (* drain: answer everything already queued, then leave *)
  while not (Queue.is_empty st.pending) do
    round st
  done;
  List.iter close_conn st.conns;
  st.conns <- [];
  (match lfd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Option.iter
        (fun path -> try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
        listen
  | None -> ());
  (* Attempt every dump; each yields its summary line, or [None] if
     the file could not be written. *)
  let dump what path contents =
    if Obs.write_file path contents then
      Some (Printf.sprintf "serve: %s to %s\n" what path)
    else None
  in
  let cache =
    Option.map
      (fun path ->
        let n, contents = cache_contents st.cache in
        dump (Printf.sprintf "persisted %d cached results" n) path contents)
      cfg.cache_file
  in
  let metrics =
    Option.map
      (fun path ->
        dump "wrote metrics" path (Json.to_string (metrics_payload st) ^ "\n"))
      cfg.metrics_out
  in
  let trace =
    Option.map
      (fun path ->
        dump "wrote trace" path (Json.to_string (Obs.Span.to_chrome ()) ^ "\n"))
      cfg.trace_out
  in
  let dumps = List.filter_map Fun.id [ cache; metrics; trace ] in
  Sys.set_signal Sys.sigpipe old_pipe;
  Sys.set_signal Sys.sigint old_int;
  let dumps_failed = List.length (List.filter Option.is_none dumps) in
  let s = summary_of st ~dumps_failed in
  if not cfg.quiet then begin
    Printf.eprintf
      "serve: %d requests, %d ok, %d errors, %d cache hits, %d misses, %d evictions\n"
      s.requests s.ok s.errors s.hits s.misses s.evictions;
    Option.iter
      (fun path ->
        Printf.eprintf "serve: loaded %d cached results from %s\n" loaded path)
      (if loaded > 0 then cfg.cache_file else None);
    List.iter (Option.iter prerr_string) dumps;
    flush stderr
  end;
  s

(* ---- client ----------------------------------------------------------- *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel }

  let connect ?(retries = 100) path =
    let rec go n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> { fd; ic = Unix.in_channel_of_descr fd }
      | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when n > 0
        ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.01;
          go (n - 1)
    in
    go retries

  let send_line t s =
    let s = s ^ "\n" in
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write_substring t.fd s !off (n - !off)
    done

  let recv_line t = match input_line t.ic with
    | line -> Some line
    | exception End_of_file -> None

  let request t json =
    send_line t (Json.to_string json);
    match recv_line t with
    | None -> failwith "serve client: connection closed"
    | Some line -> (
        match Json.of_string line with
        | Ok j -> j
        | Error e -> failwith ("serve client: bad response: " ^ e))

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
