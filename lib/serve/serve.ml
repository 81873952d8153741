module Json = Ujam_obs.Json
module Obs = Ujam_obs.Obs
module Machine = Ujam_machine.Machine
module Presets = Ujam_machine.Presets
module Options = Ujam_engine.Options
module Engine = Ujam_engine.Engine
module Model = Ujam_engine.Model
module Error = Ujam_engine.Error
module Result_cache = Ujam_engine.Result_cache
module Parse = Ujam_ir.Parse
module Catalogue = Ujam_kernels.Catalogue
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
  batch : int;
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
    batch = 32;
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

let enqueue_request st conn arrival (req : Protocol.request) =
  let id = req.Protocol.id in
  let perr msg =
    Queue.add
      (Ready (conn, false, Protocol.error_response ~id ~kind:Protocol.Protocol msg))
      st.pending
  in
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
          let nest_r =
            match req.Protocol.source with
            | None -> Error (`Protocol "params needs a nest or a kernel")
            | Some (Protocol.Kernel (k, n)) -> (
                match Catalogue.find k with
                | None -> Error (`Protocol (Printf.sprintf "unknown kernel %S" k))
                | Some e -> (
                    let name =
                      Option.value req.Protocol.name
                        ~default:e.Catalogue.name
                    in
                    try
                      Ok
                        ( name,
                          match n with
                          | Some n -> e.Catalogue.build ~n ()
                          | None -> e.Catalogue.build () )
                    with exn ->
                      Error
                        (`Protocol
                           (Printf.sprintf "kernel %S: %s" k
                              (Printexc.to_string exn)))))
            | Some (Protocol.Inline src) -> (
                let name = Option.value req.Protocol.name ~default:"nest" in
                match Parse.nest ~name src with
                | Ok nest -> Ok (name, nest)
                | Error pe ->
                    Error
                      (`Parse
                         ( Format.asprintf "%a" Parse.pp_error pe,
                           [ Diagnostic.to_json (Lint.of_parse_error pe) ] )))
          in
          match nest_r with
          | Error (`Protocol msg) -> perr msg
          | Error (`Parse (msg, diagnostics)) ->
              Queue.add
                (Ready
                   ( conn,
                     false,
                     Protocol.error_response ~id ~kind:Protocol.Parse
                       ~diagnostics msg ))
                st.pending
          | Ok (routine, nest) ->
              (* The fingerprint digests the parsed nest; the engine's
                 memo key later re-digests the same object, which is a
                 {!Ujam_ir.Canon} memo hit. *)
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
                st.pending))

let handle_line st conn line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if String.trim line = "" then ()
  else begin
    st.n_requests <- st.n_requests + 1;
    Obs.Counter.incr st.m_requests;
    let arrival = Unix.gettimeofday () in
    if String.length line > st.cfg.max_request_bytes then
      Queue.add
        (Ready
           ( conn,
             false,
             Protocol.error_response ~id:Json.Null ~kind:Protocol.Oversized
               (Printf.sprintf "request line exceeds %d bytes"
                  st.cfg.max_request_bytes) ))
        st.pending
    else
      match Json.of_string line with
      | Error msg ->
          Queue.add
            (Ready
               ( conn,
                 false,
                 Protocol.error_response ~id:Json.Null ~kind:Protocol.Protocol
                   ("invalid JSON: " ^ msg) ))
            st.pending
      | Ok json -> (
          match Protocol.request_of_json json with
          | Error msg ->
              let id =
                Option.value (Json.member "id" json) ~default:Json.Null
              in
              Queue.add
                (Ready
                   ( conn,
                     false,
                     Protocol.error_response ~id ~kind:Protocol.Protocol msg ))
                st.pending
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
        Queue.add
          (Ready
             ( conn,
               false,
               Protocol.error_response ~id:Json.Null ~kind:Protocol.Oversized
                 (Printf.sprintf "request line exceeds %d bytes"
                    st.cfg.max_request_bytes) ))
          st.pending
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
          if !jobs >= st.cfg.batch then continue := false
          else begin
            incr jobs;
            popped := Queue.pop st.pending :: !popped
          end
    done;
    let popped = List.rev !popped in
    let now = Unix.gettimeofday () in
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
      let dur = Unix.gettimeofday () -. j.j_arrival in
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

let summary_of st =
  let cs = Result_cache.stats st.cache in
  { requests = st.n_requests;
    ok = st.n_ok;
    errors = st.n_err;
    hits = cs.Result_cache.hits;
    misses = cs.Result_cache.misses;
    evictions = cs.Result_cache.evictions }

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* ---- cache persistence ------------------------------------------------ *)

(* Line-delimited JSON, mirroring the wire format: a version header,
   then one {key, ok, payload} object per entry, most-recently-used
   first.  Keys are content fingerprints (machine + options + canonical
   digest), which are stable across processes (DESIGN.md §14). *)

let cache_header = Json.Obj [ ("ujc-serve-cache", Json.Int 1) ]

let save_cache cache path =
  let oc = open_out path in
  output_string oc (Json.to_string cache_header);
  output_char oc '\n';
  let n =
    Result_cache.fold cache ~init:0 ~f:(fun n key (ok, payload) ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [ ("key", Json.Str key);
                  ("ok", Json.Bool ok);
                  ("payload", payload) ]));
        output_char oc '\n';
        n + 1)
  in
  close_out oc;
  n

let load_cache cache path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let loaded = ref 0 in
    (try
       (match Json.of_string (input_line ic) with
       | Ok h when Json.member "ujc-serve-cache" h = Some (Json.Int 1) ->
           (* Collect entries (file is MRU-first), then store oldest
              first so the rebuilt recency order matches the saved
              one; overflow beyond capacity evicts the oldest. *)
           let entries = ref [] in
           (try
              while true do
                match Json.of_string (input_line ic) with
                | Ok j -> (
                    match
                      ( Json.member "key" j,
                        Json.member "ok" j,
                        Json.member "payload" j )
                    with
                    | Some (Json.Str key), Some (Json.Bool ok), Some payload
                      ->
                        entries := (key, ok, payload) :: !entries
                    | _ -> ())
                | Error _ -> ()
              done
            with End_of_file -> ());
           List.iter
             (fun (key, ok, payload) ->
               incr loaded;
               Result_cache.store cache key (ok, payload))
             !entries
       | Ok _ | Error _ -> ())
     with End_of_file -> ());
    close_in ic;
    !loaded
  end

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
  let saved =
    Option.map (fun path -> save_cache st.cache path) cfg.cache_file
  in
  Option.iter
    (fun path -> write_file path (Json.to_string (metrics_payload st)))
    cfg.metrics_out;
  Option.iter
    (fun path -> write_file path (Json.to_string (Obs.Span.to_chrome ())))
    cfg.trace_out;
  Sys.set_signal Sys.sigpipe old_pipe;
  Sys.set_signal Sys.sigint old_int;
  let s = summary_of st in
  if not cfg.quiet then begin
    Printf.eprintf
      "serve: %d requests, %d ok, %d errors, %d cache hits, %d misses, %d evictions\n"
      s.requests s.ok s.errors s.hits s.misses s.evictions;
    Option.iter
      (fun path ->
        Printf.eprintf "serve: loaded %d cached results from %s\n" loaded path)
      (if loaded > 0 then cfg.cache_file else None);
    Option.iter
      (fun n ->
        Printf.eprintf "serve: persisted %d cached results to %s\n" n
          (Option.get cfg.cache_file))
      saved;
    Option.iter
      (fun path -> Printf.eprintf "serve: wrote metrics to %s\n" path)
      cfg.metrics_out;
    Option.iter
      (fun path -> Printf.eprintf "serve: wrote trace to %s\n" path)
      cfg.trace_out;
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

(* ---- smoke ------------------------------------------------------------ *)

type smoke_report = {
  sk_requests : int;
  sk_ok : int;
  sk_expected_errors : int;
  sk_unexpected_errors : int;
  sk_order_violations : int;
  sk_hits : int;
}

let smoke_healthy r =
  r.sk_unexpected_errors = 0 && r.sk_order_violations = 0 && r.sk_hits > 0

let pp_smoke ppf r =
  Format.fprintf ppf
    "serve smoke: %d requests over 2 clients: %d ok, %d expected errors, %d unexpected errors, %d order violations, cache hits %d"
    r.sk_requests r.sk_ok r.sk_expected_errors r.sk_unexpected_errors
    r.sk_order_violations r.sk_hits

(* A deterministic mixed workload: kernel optimizes cycling through the
   catalogue (the second cycle repeats the first — cache fodder), inline
   nests sent twice, explains, lints, pings, and — every tenth request —
   a hostile probe (bad JSON, unknown method, unsupported nest, instant
   timeout, oversized line) that must produce exactly one error
   response and a still-living daemon. *)
let smoke_request kernels i =
  let opt_kernel k =
    `Req
      ( Json.Obj
          [ ("id", Json.Int i);
            ("method", Json.Str "optimize");
            ("params",
             Json.Obj [ ("kernel", Json.Str k); ("n", Json.Int 16) ]) ],
        true )
  in
  if i mod 10 = 7 then
    match i / 10 mod 5 with
    | 0 -> `Raw ("{\"id\":" ^ string_of_int i ^ ", not json", false)
    | 1 ->
        `Req
          ( Json.Obj
              [ ("id", Json.Int i); ("method", Json.Str "frobnicate") ],
            false )
    | 2 ->
        (* non-unit step: parses, then fails the supported-class fence *)
        `Req
          ( Json.Obj
              [ ("id", Json.Int i);
                ("method", Json.Str "optimize");
                ("params",
                 Json.Obj
                   [ ("name", Json.Str "stride2");
                     ("nest",
                      Json.Str "DO I = 1, 8, 2\n A(I) = A(I) + 1.0\nENDDO") ]) ],
            false )
    | 3 ->
        `Req
          ( Json.Obj
              [ ("id", Json.Int i);
                ("method", Json.Str "optimize");
                ("params",
                 Json.Obj
                   [ ("kernel", Json.Str (List.nth kernels 0));
                     ("timeout_ms", Json.Int 0) ]) ],
            false )
    | _ -> `Raw ("{\"pad\":\"" ^ String.make 5000 'x' ^ "\"}", false)
  else if i mod 10 = 3 then
    `Req
      ( Json.Obj
          [ ("id", Json.Int i);
            ("method", Json.Str "lint");
            ("params",
             Json.Obj
               [ ("name", Json.Str "smoke-lint");
                 ("nest",
                  Json.Str "DO I = 1, 16\n A(I) = A(I-1) + B(I)\nENDDO") ]) ],
        true )
  else if i mod 10 = 5 then
    `Req
      ( Json.Obj
          [ ("id", Json.Int i);
            ("method", Json.Str "explain");
            ("params",
             Json.Obj
               [ ("kernel",
                  Json.Str (List.nth kernels (i mod List.length kernels))) ]) ],
        true )
  else if i mod 10 = 9 then
    `Req (Json.Obj [ ("id", Json.Int i); ("method", Json.Str "ping") ], true)
  else opt_kernel (List.nth kernels (i mod List.length kernels))

let smoke ?(requests = 50) ?(domains = 1) () =
  let path = Filename.temp_file "ujam_serve" ".sock" in
  Sys.remove path;
  let cfg =
    { (default_config ()) with
      domains;
      quiet = true;
      max_request_bytes = 4096 }
  in
  let server = Domain.spawn (fun () -> run ~listen:path cfg) in
  let clients = [| Client.connect path; Client.connect path |] in
  let kernels =
    List.filteri (fun i _ -> i < 8) Catalogue.all
    |> List.map (fun e -> e.Catalogue.name)
  in
  let ok = ref 0
  and expected_err = ref 0
  and unexpected_err = ref 0
  and order = ref 0 in
  for i = 0 to requests - 1 do
    let client = clients.(i mod 2) in
    let expect_ok, resp =
      match smoke_request kernels i with
      | `Req (json, expect_ok) -> (expect_ok, Client.request client json)
      | `Raw (line, expect_ok) -> (
          Client.send_line client line;
          match Client.recv_line client with
          | None -> failwith "serve smoke: connection closed"
          | Some l -> (
              ( expect_ok,
                match Json.of_string l with
                | Ok j -> j
                | Error e -> failwith ("serve smoke: bad response: " ^ e) )))
    in
    let got_ok = Json.member "ok" resp = Some (Json.Bool true) in
    (* hostile probes answer with id null; everything else echoes i *)
    (match Json.member "id" resp with
    | Some (Json.Int j) when j = i -> ()
    | Some Json.Null when not expect_ok -> ()
    | _ -> incr order);
    if got_ok then incr ok
    else if expect_ok then incr unexpected_err
    else incr expected_err
  done;
  let metrics =
    Client.request clients.(0)
      (Json.Obj [ ("id", Json.Str "m"); ("method", Json.Str "metrics") ])
  in
  let hits =
    match
      Option.bind (Json.member "result" metrics) (fun r ->
          Option.bind (Json.member "cache" r) (Json.member "hits"))
    with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  (match
     Client.request clients.(0)
       (Json.Obj [ ("id", Json.Str "bye"); ("method", Json.Str "shutdown") ])
   with
  | _ -> ());
  let (_ : summary) = Domain.join server in
  Array.iter Client.close clients;
  { sk_requests = requests;
    sk_ok = !ok;
    sk_expected_errors = !expected_err;
    sk_unexpected_errors = !unexpected_err;
    sk_order_violations = !order;
    sk_hits = hits }
