(* The four end-to-end workloads.  Each takes its inputs from the seed
   alone, runs one repetition on demand, and checks its own outputs.

   Why these four (the paths ROADMAP.md calls end to end):
   - corpus: `engine corpus` over the Table-1 corpus; the one workload
     dominated by table builds, so a tables change must move it.
   - kernels: `ujc optimize`/`explain`/`simulate` on the 19 kernels;
     dominated by the simulator, with tables a small share, so it shows
     whether a tables change leaves other work alone.
   - serve-mixed: the daemon under a closed loop of two connections,
     mostly cache hits; protocol, digest and render work dominate the
     median and misses set the tail.
   - fuzz: one one-nest `ujc fuzz` run per op, without the heaviest
     nests (see fuzz_pool); the oracle layers dominate. *)

open Ujam_linalg
open Ujam_core
module Json = Ujam_obs.Json
module Catalogue = Ujam_kernels.Catalogue
module Generator = Ujam_workload.Generator
module Presets = Ujam_machine.Presets
module Engine = Ujam_engine.Engine
module Model = Ujam_engine.Model
module Result_cache = Ujam_engine.Result_cache
module Runner = Ujam_sim.Runner
module Cachecheck = Ujam_analysis.Cachecheck
module Diagnostic = Ujam_analysis.Diagnostic
module Fuzz = Ujam_oracle.Fuzz
module Serve = Ujam_serve.Serve
module Protocol = Ujam_serve.Protocol

type size = Full | Smoke

type rep = {
  ops : int;
  failed : int;
  lat_ms : float list;  (** one sample per op *)
  wall_s : float;
}

type instance = {
  rep : unit -> rep;
  traced : unit -> (string * float) list;
      (** one traced repetition: records layer spans in {!Span} and
          returns the per-layer metrics spans cannot give *)
  peak_rss_mb : unit -> float;  (** of the process running the code under test *)
  inputs : string;  (** one line on what set-up built, for the log *)
}

type t = {
  name : string;
  setup : seed:int -> size -> instance;
      (** build the inputs; timed as [setup_s] *)
}

(* At most two worker domains: the load may not exceed the machine. *)
let max_domains = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Clear the process-wide memos so every repetition pays full price.
   The hash-cons tables go too: they only grow while a process runs,
   and without this a 20 s corpus run slowed from 1500 to 1280
   routines/s between its first and last repetitions. *)
let fresh () =
  Engine.memo_clear ();
  Ujam_ir.Canon.memo_clear ();
  Ujam_ir.Hashcons.clear ()

let time f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, Span.seconds_between t0 (Span.now_ns ()))

(* Failed output checks so far; the first few are reported on stderr. *)
let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        if !failures <= 10 then prerr_endline ("e2e: check failed: " ^ msg)
      end;
      ok)
    fmt

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Table cells built by the traced run ([core.tables_cells]). *)
let cells = ref 0

(* corpus and serve-mixed draw several inputs from the seed, and their
   repetitions take them in turn.  A single Table-1 corpus per seed made
   the seed decide the result: over ten seeds, corpus throughput spread
   by 0.12-0.16 of its median and p99 by up to 0.2, with the same seeds
   slow in every sweep. *)
let variants = function Full -> 5 | Smoke -> 1
let variant_seed seed k = seed + (7919 * k)

(* The next index in 0..n-1, round robin. *)
let turns n =
  let i = ref (-1) in
  fun () ->
    incr i;
    !i mod n

(* An analysis context with its graphs, UGS partition and balance
   tables built, one layer call at a time. *)
let split_context ~bound ~machine nest =
  let ctx =
    Span.layer "depend.graph" (fun () ->
        let ctx = Analysis_ctx.create ~bound ~machine nest in
        ignore (Analysis_ctx.safety ctx : int array);
        ctx)
  in
  Span.layer "reuse.ugs" (fun () ->
      ignore (Analysis_ctx.ugs ctx : Ujam_reuse.Ugs.t list);
      ignore (Analysis_ctx.ranked ctx : (int * float) list);
      ignore (Analysis_ctx.space ctx : Unroll_space.t));
  Span.layer "core.tables" (fun () ->
      ignore (Analysis_ctx.balance ctx : Balance.t);
      cells := !cells + Unroll_space.card (Analysis_ctx.space ctx));
  ctx

(* The engine's per-nest pipeline ([Engine.analyze] under the ugs
   model), one layer call at a time. *)
let split_analyze ~bound ~machine nest =
  let ctx = split_context ~bound ~machine nest in
  let balance = Analysis_ctx.balance ctx in
  Span.layer "core.search" (fun () ->
      let module M = Model.Ugs_tables in
      let violation = Ujam_analysis.Monotone.check_registers balance in
      let choice = M.analyze ~exhaustive:(violation <> None) ctx in
      let original =
        Search.evaluate ~cache:M.cache balance (Vec.zero (Ujam_ir.Nest.depth nest))
      in
      ignore (Driver.speedup ~machine balance ~original ~choice : float);
      choice)

(* ------------------------------------------------------------------ *)
(* corpus: the Table-1 corpus through Engine.run_corpus.               *)

let corpus_routines ~seed ~count ~stats =
  List.map
    (fun (e : Catalogue.entry) ->
      { Generator.name = e.Catalogue.name; nests = [ e.Catalogue.build ~n:24 () ] })
    Catalogue.all
  @ Generator.corpus ~seed ~stats ~count ()

(* One op is one routine through the engine and rendered, on one
   domain.  Two domains would match `engine corpus --domains 2`, but on
   a shared two-vCPU machine they meet at every minor collection: the
   same seed's 2-domain median pass varied 421-508 ms between processes
   against 784-806 ms on one domain.  The traced run reports the
   2-domain speedup instead (engine.par_speedup). *)
let corpus =
  let setup ~seed size =
    let count = match size with Full -> 1168 | Smoke -> 24 in
    let machine = Presets.alpha and bound = 4 in
    let corpora =
      Array.init (variants size) (fun k ->
          corpus_routines ~seed:(variant_seed seed k) ~count ~stats:(Generator.stats ()))
    in
    let routines = corpora.(0) in
    let references = Array.make (Array.length corpora) None in
    let next = turns (Array.length corpora) in
    let rep () =
      let k = next () in
      let routines = corpora.(k) in
      let failed = ref 0 and lat = ref [] and out = Buffer.create 65536 in
      let (), wall =
        time (fun () ->
            List.iter
              (fun (r : Generator.routine) ->
                let (report, text), s =
                  time (fun () ->
                      let report = Engine.run_corpus ~bound ~machine [ r ] in
                      (report, Engine.to_string report))
                in
                if
                  not
                    (check (report.Engine.failed = 0) "corpus %s: %d nests failed"
                       r.Generator.name report.Engine.failed)
                then incr failed;
                Buffer.add_string out text;
                lat := (s *. 1000.0) :: !lat)
              routines)
      in
      let text = Buffer.contents out in
      (match references.(k) with
      | None -> references.(k) <- Some text
      | Some expect ->
          if not (check (String.equal expect text) "corpus %d: report differs from its first run" k)
          then incr failed);
      { ops = List.length routines; failed = !failed; lat_ms = !lat; wall_s = wall }
    in
    let traced () =
      let stats = Generator.stats () in
      ignore
        (Span.layer "workload.generate" (fun () ->
             corpus_routines ~seed ~count ~stats)
          : Generator.routine list);
      let whole ~domains =
        fresh ();
        time (fun () -> Engine.run_corpus ~domains ~bound ~machine routines)
      in
      let d1, wall1 = whole ~domains:1 in
      let memo = Engine.memo_stats () in
      let _, wall2 = whole ~domains:max_domains in
      ignore
        (Span.layer "engine.render" (fun () -> Json.to_string (Engine.to_json d1))
          : string);
      fresh ();
      let untraced = (rep ()).wall_s in
      fresh ();
      (* the engine memo answers repeated problems; mirror it so the
         split pass does the same analyses *)
      let seen = Hashtbl.create 1024 in
      let (), split =
        time (fun () ->
            List.iter
              (fun (r : Generator.routine) ->
                List.iter
                  (fun nest ->
                    Span.op "corpus.nest" (fun () ->
                        let key =
                          Span.layer "ir.intern" (fun () ->
                              Result_cache.fingerprint ~op:"memo" ~machine ~bound
                                ~max_loops:2 ~model:Model.Ugs_tables.name
                                ~seq:false nest)
                        in
                        if not (Hashtbl.mem seen key) then begin
                          Hashtbl.add seen key ();
                          ignore (split_analyze ~bound ~machine nest : Search.choice)
                        end))
                  r.Generator.nests)
              routines)
      in
      let lookups = memo.Result_cache.hits + memo.Result_cache.misses in
      [ ("workload.accept_ratio", 1.0 -. Generator.rejection_rate stats);
        ("engine.par_speedup", wall1 /. wall2);
        ( "engine.memo_hit_ratio",
          float_of_int memo.Result_cache.hits /. float_of_int (max 1 lookups) );
        ("trace.overhead_ratio", split /. untraced) ]
    in
    let nests rs = List.fold_left (fun n r -> n + List.length r.Generator.nests) 0 rs in
    let inputs =
      Printf.sprintf "%d corpora of %d routines, %s nests" (Array.length corpora)
        (List.length routines)
        (String.concat "/" (Array.to_list (Array.map (fun c -> string_of_int (nests c)) corpora)))
    in
    { rep; traced; peak_rss_mb = Stats.peak_rss_mb; inputs }
  in
  { name = "corpus"; setup }

(* ------------------------------------------------------------------ *)
(* kernels: optimize, predict, verify and simulate each kernel.        *)

let kernels =
  let setup ~seed size =
    let n = match size with Full -> None | Smoke -> Some 12 in
    let cases =
      List.concat_map
        (fun (machine : Ujam_machine.Machine.t) ->
          List.map
            (fun (e : Catalogue.entry) ->
              (e.Catalogue.name, machine, e.Catalogue.build ?n ()))
            Catalogue.all)
        Presets.[ alpha_mem; hppa_mem ]
    in
    (* the seed fixes the op order; the set of ops is the catalogue *)
    let st = Random.State.make [| seed |] in
    let cases =
      List.map (fun c -> (Random.State.bits st, c)) cases
      |> List.sort compare |> List.map snd
    in
    let verdict name (machine : Ujam_machine.Machine.t) ~errors cc norm =
      let where = name ^ "@" ^ machine.Ujam_machine.Machine.name in
      let errors = List.length (List.filter Diagnostic.is_error errors) in
      check (errors = 0) "kernels %s: %d verify errors" where errors
      && check (cc <> None) "kernels %s: no miss-ratio prediction" where
      && check (Float.is_finite norm && norm > 0.0) "kernels %s: normalized time %g"
           where norm
    in
    let op (name, machine, nest) =
      let r = Driver.optimize ~bound:8 ~machine nest in
      let u = r.Driver.choice.Search.u in
      let cc = Cachecheck.run ~u ~machine nest in
      let errors = Ujam_analysis.Verify.unroll ~original:nest ~u r.Driver.transformed in
      let baseline = Runner.run ~machine nest in
      let sim = Runner.run ~machine ~plan:r.Driver.plan r.Driver.transformed in
      verdict name machine ~errors cc (Runner.normalized ~baseline sim)
    in
    let pass run_op =
      let failed = ref 0 and lat = ref [] in
      let (), wall =
        time (fun () ->
            List.iter
              (fun case ->
                let ok, s = time (fun () -> run_op case) in
                if not ok then incr failed;
                lat := (s *. 1000.0) :: !lat)
              cases)
      in
      { ops = List.length cases; failed = !failed; lat_ms = !lat; wall_s = wall }
    in
    let traced () =
      let norms = ref [] in
      let traced_op (name, machine, nest) =
        Span.op "kernels.op" (fun () ->
            let ctx = split_context ~bound:8 ~machine nest in
            let r =
              Span.layer "core.search" (fun () -> Driver.optimize ~ctx ~machine nest)
            in
            let u = r.Driver.choice.Search.u in
            let cc =
              Span.layer "analysis.cachecheck" (fun () -> Cachecheck.run ~u ~machine nest)
            in
            let errors =
              Span.layer "analysis.verify" (fun () ->
                  Ujam_analysis.Verify.unroll ~original:nest ~u r.Driver.transformed)
            in
            let norm =
              Span.layer "sim.run" (fun () ->
                  let baseline = Runner.run ~machine nest in
                  Runner.normalized ~baseline
                    (Runner.run ~machine ~plan:r.Driver.plan r.Driver.transformed))
            in
            norms := norm :: !norms;
            verdict name machine ~errors cc norm)
      in
      let untraced = (pass op).wall_s in
      fresh ();
      let split = pass traced_op in
      [ ("sim.norm_time_geomean", geomean !norms);
        ("trace.overhead_ratio", split.wall_s /. untraced) ]
    in
    { rep = (fun () -> pass op);
      traced;
      peak_rss_mb = Stats.peak_rss_mb;
      inputs = Printf.sprintf "%d kernel ops" (List.length cases) }
  in
  { name = "kernels"; setup }

(* ------------------------------------------------------------------ *)
(* serve-mixed: a closed loop of two connections against a daemon.     *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pending : int;  (** request index awaiting its response; -1 idle *)
  mutable sent_at : int64;
}

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Buffer.create 4096; pending = -1; sent_at = 0L }
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go (tries - 1)
  in
  go 5000

let chunk = Bytes.create 65536

(* Read from [c] until it holds a whole line; [Some line] once it does. *)
let read_some c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "serve: daemon closed the connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

let rec read_line c = match read_some c with Some l -> l | None -> read_line c

let roundtrip c line =
  write_all c.fd (line ^ "\n") 0;
  read_line c

(* Send every line, keeping exactly one request in flight per
   connection; [on_response i line seconds] sees each response. *)
let drive conns lines ~on_response =
  let next = ref 0 and in_flight = ref 0 in
  let send c =
    if !next < Array.length lines then begin
      c.pending <- !next;
      incr next;
      incr in_flight;
      c.sent_at <- Span.now_ns ();
      write_all c.fd (lines.(c.pending) ^ "\n") 0
    end
    else c.pending <- -1
  in
  List.iter send conns;
  while !in_flight > 0 do
    let busy = List.filter (fun c -> c.pending >= 0) conns in
    match Unix.select (List.map (fun c -> c.fd) busy) [] [] (-1.0) with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun c ->
            if List.memq c.fd ready then
              match read_some c with
              | None -> ()
              | Some line ->
                  let s = Span.seconds_between c.sent_at (Span.now_ns ()) in
                  decr in_flight;
                  on_response c.pending line s;
                  send c)
          busy
  done

(* The daemon process ([main.exe --daemon PATH]): one domain, serving
   on [path] until a [shutdown] request. *)
let daemon path =
  let cfg = { (Serve.default_config ()) with Serve.domains = 1; quiet = true } in
  match Serve.run ~listen:path cfg with _ -> 0 | exception _ -> 2

(* Run [f] against a fresh daemon with [clients] connections, then shut
   it down; returns [f]'s result and the daemon's peak RSS in MB.  The
   daemon is this executable started afresh with [--daemon], not a
   fork: a forked child's RSS would count the client's heap pages it
   shares, and as a second domain of this process the daemon would stop
   for the client's minor collections. *)
let with_daemon ~path ~clients f =
  flush_all ();
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--daemon"; path |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let waited = ref false in
  let wait () =
    waited := true;
    snd (Unix.waitpid [] pid)
  in
  Fun.protect
    ~finally:(fun () ->
      if not !waited then begin
        Unix.kill pid Sys.sigkill;
        ignore (wait () : Unix.process_status)
      end)
    (fun () ->
      let conns = List.init clients (fun _ -> connect path) in
      let v = f conns in
      let rss = Stats.peak_rss_mb ~pid () in
      ignore (roundtrip (List.hd conns) {|{"id":"bye","method":"shutdown"}|} : string);
      List.iter (fun c -> Unix.close c.fd) conns;
      if wait () <> Unix.WEXITED 0 then failwith "serve: the daemon failed";
      (v, rss))

let member_path path json =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path

type request = { line : string; key : string }

(* The seeded request stream: 70% optimize of a catalogue kernel at a
   size in 8..15, 20% optimize of a distinct generated nest sent
   inline (always a cache miss, always through the parser), 10%
   explain of a catalogue kernel. *)
let serve_requests ~seed ~count =
  let st = Random.State.make [| seed |] in
  let kinds = Array.init count (fun _ -> Random.State.int st 10) in
  let n_inline = Array.fold_left (fun n k -> if k >= 7 && k <= 8 then n + 1 else n) 0 kinds in
  let inline = Queue.create () in
  let seen = Hashtbl.create 1024 in
  let batch = ref 0 in
  while Queue.length inline < n_inline do
    List.iter
      (fun (r : Generator.routine) ->
        List.iter
          (fun nest ->
            let src = Ujam_ir.Nest.to_string nest in
            match Ujam_ir.Parse.nest src with
            | Ok parsed ->
                let d = Ujam_ir.Canon.digest parsed in
                if (not (Hashtbl.mem seen d)) && Queue.length inline < n_inline then begin
                  Hashtbl.add seen d ();
                  Queue.add src inline
                end
            | Error _ -> ())
          r.Generator.nests)
      (Generator.corpus ~seed:((seed * 7919) + !batch) ~count:256 ());
    incr batch
  done;
  let kernels = Array.of_list Catalogue.all in
  Array.mapi
    (fun i kind ->
      let kernel () =
        let e = kernels.(Random.State.int st (Array.length kernels)) in
        Json.Obj
          [ ("kernel", Json.Str e.Catalogue.name);
            ("n", Json.Int (8 + Random.State.int st 8)) ]
      in
      let meth, params =
        if kind < 7 then ("optimize", kernel ())
        else if kind < 9 then
          ( "optimize",
            Json.Obj
              [ ("name", Json.Str (Printf.sprintf "g%d" i));
                ("nest", Json.Str (Queue.pop inline)) ] )
        else ("explain", kernel ())
      in
      let body = [ ("method", Json.Str meth); ("params", params) ] in
      { line = Json.to_string (Json.Obj (("id", Json.Int i) :: body));
        key = Json.to_string (Json.Obj body) })
    kinds

(* Sockets and trace files live here, relative to the working directory
   (a relative socket path also stays under the platform's length
   limit). *)
let scratch_dir () =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  let d = Filename.concat ".bench_build" "e2e" in
  mkdir_p d;
  d

let serve_mixed =
  let setup ~seed size =
    let count = match size with Full -> 4000 | Smoke -> 200 in
    let streams =
      Array.init (variants size) (fun k -> serve_requests ~seed:(variant_seed seed k) ~count)
    in
    let next = turns (Array.length streams) in
    let path =
      Filename.concat (scratch_dir ()) (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
    in
    (* part of set-up: a daemon's start, first ping reply and stop *)
    ignore
      (with_daemon ~path ~clients:1 (fun conns ->
           roundtrip (List.hd conns) {|{"id":0,"method":"ping"}|})
        : string * float);
    (* the first result seen for each request key, across repetitions *)
    let first = Hashtbl.create 1024 in
    let results = Array.make count Json.Null in
    let peak_rss = ref 0.0 in
    let run ?(before_stop = fun _ -> ()) requests =
      let lines = Array.map (fun r -> r.line) requests in
      let ((failed, lat, wall), ()), rss =
        with_daemon ~path ~clients:2 (fun conns ->
            let failed = ref 0 and lat = Array.make count 0.0 in
            let (), wall =
              time (fun () ->
                  drive conns lines ~on_response:(fun i line s ->
                      lat.(i) <- s *. 1000.0;
                      let ok =
                        match Json.of_string line with
                        | Error e -> check false "serve %d: bad response: %s" i e
                        | Ok resp ->
                            let result =
                              Option.value (Json.member "result" resp) ~default:Json.Null
                            in
                            results.(i) <- result;
                            let text = Json.to_string result in
                            let expect =
                              match Hashtbl.find_opt first requests.(i).key with
                              | Some t -> t
                              | None ->
                                  Hashtbl.add first requests.(i).key text;
                                  text
                            in
                            check
                              (Json.member "ok" resp = Some (Json.Bool true))
                              "serve %d: not ok: %s" i line
                            && check (Json.member "id" resp = Some (Json.Int i)) "serve %d: id" i
                            && check (String.equal text expect)
                                 "serve %d: result differs from the first for its key" i
                      in
                      if not ok then incr failed))
            in
            ((!failed, lat, wall), before_stop conns))
      in
      peak_rss := Float.max !peak_rss rss;
      ({ ops = count; failed; lat_ms = Array.to_list lat; wall_s = wall }, lat)
    in
    let rep () = fst (run streams.(next ())) in
    let traced () =
      let requests = streams.(0) in
      let metrics = ref Json.Null in
      let r, lat =
        run
          ~before_stop:(fun conns ->
            match Json.of_string (roundtrip (List.hd conns) {|{"id":"m","method":"metrics"}|}) with
            | Ok j -> metrics := j
            | Error e -> ignore (check false "serve: metrics response: %s" e : bool))
          requests
      in
      let number path =
        match Option.bind (member_path ("result" :: path) !metrics) Json.to_float_opt with
        | Some v -> v
        | None -> 0.0
      in
      (* hits and misses as the client saw them: the first request for
         a key misses, later ones hit *)
      let seen = Hashtbl.create 1024 in
      let hit = ref [] and miss = ref [] in
      Array.iteri
        (fun i q ->
          if Hashtbl.mem seen q.key then hit := lat.(i) :: !hit
          else begin
            Hashtbl.add seen q.key ();
            miss := lat.(i) :: !miss
          end)
        requests;
      (* the same stream in process, one layer call at a time, answering
         from a cache keyed as the daemon keys it *)
      fresh ();
      let cfg = Serve.default_config () in
      let machine = cfg.Serve.machine and bound = cfg.Serve.bound in
      let cache = Result_cache.create ~capacity:cfg.Serve.cache_size () in
      let (), split =
        time (fun () ->
            Array.iteri
              (fun i { line; _ } ->
                Span.op "serve.request" (fun () ->
                    let req =
                      Span.layer "serve.decode" (fun () ->
                          match Json.of_string line with
                          | Ok j -> Protocol.request_of_json j
                          | Error e -> Error e)
                    in
                    match req with
                    | Error e -> ignore (check false "serve %d: decode: %s" i e : bool)
                    | Ok req ->
                        let routine, nest =
                          Span.layer "ir.parse" (fun () ->
                              match req.Protocol.source with
                              | Some (Protocol.Inline src) ->
                                  let name = Option.value req.Protocol.name ~default:"nest" in
                                  (name, Ujam_ir.Parse.nest_exn ~name src)
                              | Some (Protocol.Kernel (k, n)) ->
                                  let e = Option.get (Catalogue.find k) in
                                  (e.Catalogue.name, e.Catalogue.build ?n ())
                              | None -> failwith "serve: request without a nest")
                        in
                        let nest, key =
                          Span.layer "ir.intern" (fun () ->
                              let nest = Ujam_ir.Hashcons.nest nest in
                              ( nest,
                                Result_cache.fingerprint
                                  ~op:(Protocol.method_name req.Protocol.meth)
                                  ~machine ~bound ~max_loops:cfg.Serve.max_loops
                                  ~model:Model.Ugs_tables.name ~seq:false ~extra:routine
                                  nest ))
                        in
                        if Span.layer "serve.cache" (fun () -> Result_cache.find cache key) = None
                        then begin
                          let choice = split_analyze ~bound ~machine nest in
                          if req.Protocol.meth = Protocol.Explain then
                            ignore
                              (Span.layer "analysis.cachecheck" (fun () ->
                                   Cachecheck.run ~u:choice.Search.u ~machine nest)
                                : Cachecheck.t option);
                          Span.layer "serve.cache" (fun () -> Result_cache.store cache key ())
                        end;
                        ignore
                          (Span.layer "engine.render" (fun () ->
                               Protocol.response_of_payload ~id:(Json.Int i) ~ok:true
                                 results.(i))
                            : string)))
              requests)
      in
      let hits = number [ "cache"; "hits" ] and misses = number [ "cache"; "misses" ] in
      [ ("serve.hit_ratio", hits /. Float.max 1.0 (hits +. misses));
        ("serve.hit_p50_ms", Stats.median (Array.of_list !hit));
        ("serve.miss_p50_ms", Stats.median (Array.of_list !miss));
        ("serve.batch_size_p50", number [ "histograms"; "serve.batch_size"; "p50" ]);
        ("trace.overhead_ratio", split /. r.wall_s) ]
    in
    { rep;
      traced;
      peak_rss_mb = (fun () -> !peak_rss);
      inputs = Printf.sprintf "%d request streams of %d" (Array.length streams) count }
  in
  { name = "serve-mixed"; setup }

(* ------------------------------------------------------------------ *)
(* fuzz: one Fuzz.run per nest, default layers, one domain.            *)

(* The pool of generator seeds is fixed and --seed only orders it.
   Per-nest cost is heavy-tailed: 64-nest runs from seeds 1..10 took
   1.4 to 9.8 s, so a pool drawn from --seed would make throughput a
   property of the seed.  3-deep nests with more than 8 references are
   left out: each costs 0.7-4.3 s in the cross-model sweep, more than
   the rest of the pool together.  So this workload measures `ujc fuzz`
   without its heaviest nests.  Returns the pool and how many drawn
   nests the filter left out to fill it. *)
let fuzz_pool size =
  let pool_size = match size with Full -> 48 | Smoke -> 6 in
  let cfg = { (Fuzz.default_config ()) with Fuzz.n = 1; domains = 1 } in
  (* the nest Fuzz.run checks for a generator seed, and the generator
     draws it takes to get there *)
  let first_nest seed =
    let stats = Generator.stats () in
    let st = Random.State.make [| seed |] in
    let rec draw idx =
      if idx >= 24 then None
      else
        let r = Generator.routine ~stats st idx in
        match
          List.find_opt
            (fun n -> Ujam_ir.Nest.depth n <= cfg.Fuzz.max_depth)
            r.Generator.nests
        with
        | Some nest -> Some (nest, stats.Generator.generated)
        | None -> draw (idx + 1)
    in
    draw 0
  in
  let rec collect seed acc n skipped =
    if n = pool_size then (List.rev acc, skipped)
    else
      match first_nest seed with
      | Some (nest, draws)
        when Ujam_ir.Nest.depth nest <= 2 || List.length (Ujam_ir.Nest.refs nest) <= 8 ->
          collect (seed + 1) (({ cfg with Fuzz.seed }, draws) :: acc) (n + 1) skipped
      | Some _ -> collect (seed + 1) acc n (skipped + 1)
      | None -> collect (seed + 1) acc n skipped
  in
  collect 1997 [] 0 0

let fuzz =
  let setup ~seed size =
    let st = Random.State.make [| seed |] in
    let pool, skipped = fuzz_pool size in
    let pool =
      List.map (fun c -> (Random.State.bits st, c)) pool
      |> List.sort compare |> List.map snd
    in
    let inputs =
      let n = List.length pool in
      Printf.sprintf "%d nests; the filter left out %d of %d drawn nests (%.1f%%)" n skipped
        (n + skipped)
        (100.0 *. float_of_int skipped /. float_of_int (n + skipped))
    in
    let verdict (cfg : Fuzz.config) draws (r : Fuzz.report) =
      check (Fuzz.ok r) "fuzz seed %d: %d unexplained mismatches" cfg.Fuzz.seed
        r.Fuzz.unexplained
      && check
           (r.Fuzz.nests = 1 && r.Fuzz.draws = draws)
           "fuzz seed %d: checked %d nests from %d draws, expected 1 from %d"
           cfg.Fuzz.seed r.Fuzz.nests r.Fuzz.draws draws
    in
    let rep () =
      let failed = ref 0 and lat = ref [] and ops = ref 0 in
      let (), wall =
        time (fun () ->
            List.iter
              (fun (cfg, draws) ->
                let r, s = time (fun () -> Fuzz.run cfg) in
                if not (verdict cfg draws r) then incr failed;
                ops := !ops + r.Fuzz.nests;
                lat := (s *. 1000.0) :: !lat)
              pool)
      in
      { ops = !ops; failed = !failed; lat_ms = !lat; wall_s = wall }
    in
    let traced () =
      let untraced = (rep ()).wall_s in
      fresh ();
      let (), split =
        time (fun () ->
            List.iter
              (fun (cfg, draws) ->
                Span.op "fuzz.run" (fun () ->
                    List.iter
                      (fun l ->
                        let r =
                          Span.layer ("oracle." ^ Fuzz.layer_name l) (fun () ->
                              Fuzz.run { cfg with Fuzz.layers = [ l ] })
                        in
                        ignore (verdict cfg draws r : bool))
                      Fuzz.all_layers))
              pool)
      in
      [ ("trace.overhead_ratio", split /. untraced) ]
    in
    { rep; traced; peak_rss_mb = Stats.peak_rss_mb; inputs }
  in
  { name = "fuzz"; setup }

let all = [ corpus; kernels; serve_mixed; fuzz ]
