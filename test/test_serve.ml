(* The serve daemon, driven end to end over real Unix sockets: protocol
   edge cases (oversized, truncated, unknown), per-connection response
   order under concurrent clients, LRU eviction under a tiny cache,
   cache-hit byte identity, and 1-vs-N-domain byte identity. *)

open Ujam_serve
module Json = Ujam_obs.Json

let fresh_socket () =
  let path = Filename.temp_file "ujam_serve_test" ".sock" in
  Sys.remove path;
  path

(* Run [f path] against a live daemon, then shut it down over the wire
   and hand back both [f]'s result and the daemon's final summary. *)
let with_server ?(tune = fun c -> c) f =
  let path = fresh_socket () in
  let cfg = tune { (Serve.default_config ()) with Serve.quiet = true } in
  let server = Domain.spawn (fun () -> Serve.run ~listen:path cfg) in
  let finally () =
    (try
       let c = Serve.Client.connect ~retries:10 path in
       (try
          ignore
            (Serve.Client.request c
               (Json.Obj
                  [ ("id", Json.Str "bye"); ("method", Json.Str "shutdown") ]))
        with _ -> ());
       Serve.Client.close c
     with _ -> ());
    Domain.join server
  in
  match f path with
  | result -> (result, finally ())
  | exception exn ->
      let (_ : Serve.summary) = finally () in
      raise exn

let req ?(params = []) ~id meth =
  Json.Obj
    ([ ("id", id); ("method", Json.Str meth) ]
    @ if params = [] then [] else [ ("params", Json.Obj params) ])

let optimize_req ~id kernel =
  req ~id
    ~params:[ ("kernel", Json.Str kernel); ("n", Json.Int 16) ]
    "optimize"

let member_exn name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string json)

let check_ok ~expect json =
  Alcotest.(check bool)
    (Printf.sprintf "ok=%b in %s" expect (Json.to_string json))
    expect
    (member_exn "ok" json = Json.Bool true)

let error_kind json =
  match Json.member "kind" (member_exn "error" json) with
  | Some (Json.Str k) -> k
  | _ -> Alcotest.failf "no error kind in %s" (Json.to_string json)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* An error response whose message lists every name in [names]. *)
let check_lists json names =
  let message =
    match Json.member "message" (member_exn "error" json) with
    | Some (Json.Str m) -> m
    | _ -> Alcotest.failf "no error message in %s" (Json.to_string json)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (message ^ " lists " ^ name) true
        (contains message (" " ^ name)))
    names

let cache_size c =
  let m = Serve.Client.request c (req ~id:(Json.Str "m") "metrics") in
  match
    Option.bind (Json.member "cache" (member_exn "result" m)) (Json.member "size")
  with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "no cache size in %s" (Json.to_string m)

(* A line over the byte bound gets one typed [oversized] error and the
   connection keeps serving. *)
let test_oversized () =
  let (), _ =
    with_server
      ~tune:(fun c -> { c with Serve.max_request_bytes = 256 })
      (fun path ->
        let c = Serve.Client.connect path in
        Serve.Client.send_line c ("{\"pad\":\"" ^ String.make 1000 'x' ^ "\"}");
        (match Serve.Client.recv_line c with
        | None -> Alcotest.fail "daemon dropped the connection"
        | Some line ->
            let resp = Result.get_ok (Json.of_string line) in
            check_ok ~expect:false resp;
            Alcotest.(check string) "kind" "oversized" (error_kind resp);
            Alcotest.(check bool)
              "id is null" true
              (member_exn "id" resp = Json.Null));
        let pong = Serve.Client.request c (req ~id:(Json.Int 2) "ping") in
        check_ok ~expect:true pong;
        Serve.Client.close c)
  in
  ()

(* Truncated JSON and an unknown method each cost one [protocol] error
   response, never the connection. *)
let test_malformed () =
  let (), _ =
    with_server (fun path ->
        let c = Serve.Client.connect path in
        Serve.Client.send_line c "{\"id\":1,\"method\":\"ping\"";
        (match Serve.Client.recv_line c with
        | None -> Alcotest.fail "daemon dropped the connection"
        | Some line ->
            let resp = Result.get_ok (Json.of_string line) in
            check_ok ~expect:false resp;
            Alcotest.(check string) "kind" "protocol" (error_kind resp));
        let bad = Serve.Client.request c (req ~id:(Json.Int 2) "frobnicate") in
        check_ok ~expect:false bad;
        Alcotest.(check string) "kind" "protocol" (error_kind bad);
        let pong = Serve.Client.request c (req ~id:(Json.Int 3) "ping") in
        check_ok ~expect:true pong;
        Serve.Client.close c)
  in
  ()

(* Machine names come from the one preset table: a hierarchy preset is
   reachable over the wire, and an unknown name's error lists every
   name. *)
let test_machine_names () =
  let (), _ =
    with_server (fun path ->
        let c = Serve.Client.connect path in
        let ask ~id machine =
          Serve.Client.request c
            (req ~id
               ~params:
                 [ ("kernel", Json.Str "dmxpy0"); ("n", Json.Int 16);
                   ("machine", Json.Str machine) ]
               "optimize")
        in
        check_ok ~expect:true (ask ~id:(Json.Int 1) "alpha-mem");
        let bad = ask ~id:(Json.Int 2) "vax" in
        check_ok ~expect:false bad;
        check_lists bad Ujam_machine.Presets.names;
        Serve.Client.close c)
  in
  ()

(* Analysis params resolve through the options schema: an unknown rule
   id and a negative bound are [protocol] errors, and neither reaches
   the result cache. *)
let test_option_ranges () =
  let (), _ =
    with_server (fun path ->
        let c = Serve.Client.connect path in
        check_ok ~expect:true
          (Serve.Client.request c (optimize_req ~id:(Json.Int 1) "sor"));
        let size_before = cache_size c in
        let bad_rule =
          Serve.Client.request c
            (req ~id:(Json.Int 2)
               ~params:
                 [ ("kernel", Json.Str "sor");
                   ("rules", Json.List [ Json.Str "UJ999" ]) ]
               "lint")
        in
        check_ok ~expect:false bad_rule;
        Alcotest.(check string) "rule kind" "protocol" (error_kind bad_rule);
        check_lists bad_rule
          (List.map (fun (id, _, _) -> id) Ujam_analysis.Lint.rules);
        let bad_bound =
          Serve.Client.request c
            (req ~id:(Json.Int 3)
               ~params:[ ("kernel", Json.Str "sor"); ("bound", Json.Int (-1)) ]
               "optimize")
        in
        check_ok ~expect:false bad_bound;
        Alcotest.(check string) "bound kind" "protocol" (error_kind bad_bound);
        Alcotest.(check int) "cache size unchanged" size_before (cache_size c);
        Serve.Client.close c)
  in
  ()

(* The hierarchy level rides in the model name: ugs-l3 answers with the
   bytes `ujc optimize sor --level 3 --machine alpha-mem --json` prints
   under "result" (the CLI computes it exactly like this). *)
let test_level_model () =
  let line, _ =
    with_server (fun path ->
        let c = Serve.Client.connect path in
        Serve.Client.send_line c
          (Json.to_string
             (req ~id:(Json.Int 1)
                ~params:
                  [ ("kernel", Json.Str "sor");
                    ("machine", Json.Str "alpha-mem");
                    ("model", Json.Str "ugs-l3");
                    ("bound", Json.Int 8) ]
                "optimize"));
        let line = Serve.Client.recv_line c in
        Serve.Client.close c;
        line)
  in
  let e = Option.get (Ujam_kernels.Catalogue.find "sor") in
  let cli =
    Ujam_engine.Engine.analyze ~bound:8
      ~model:(Ujam_engine.Model.at_level 3)
      ~machine:Ujam_machine.Presets.alpha_mem ~routine:"sor"
      (e.Ujam_kernels.Catalogue.build ())
  in
  Alcotest.(check (option string))
    "ugs-l3 result bytes"
    (Some
       (Protocol.response_of_payload ~id:(Json.Int 1) ~ok:true
          (Ujam_engine.Engine.nest_outcome_to_json cli)))
    line

(* Two clients pipelining on one socket: responses come back in request
   order per connection, ids echoed verbatim. *)
let test_concurrent_clients () =
  let kernels = [ "mmjik"; "mmjki"; "jacobi"; "sor"; "afold" ] in
  let (), _ =
    with_server (fun path ->
        let a = Serve.Client.connect path in
        let b = Serve.Client.connect path in
        let n = 10 in
        for i = 0 to n - 1 do
          let k = List.nth kernels (i mod List.length kernels) in
          Serve.Client.send_line a
            (Json.to_string (optimize_req ~id:(Json.Int i) k));
          Serve.Client.send_line b
            (Json.to_string (optimize_req ~id:(Json.Int (100 + i)) k))
        done;
        let drain client base =
          for i = 0 to n - 1 do
            match Serve.Client.recv_line client with
            | None -> Alcotest.fail "connection closed mid-stream"
            | Some line ->
                let resp = Result.get_ok (Json.of_string line) in
                check_ok ~expect:true resp;
                Alcotest.(check bool)
                  (Printf.sprintf "id %d in order" (base + i))
                  true
                  (member_exn "id" resp = Json.Int (base + i))
          done
        in
        drain a 0;
        drain b 100;
        Serve.Client.close a;
        Serve.Client.close b)
  in
  ()

(* A 2-entry cache over 4 distinct nests must evict; the daemon's final
   summary carries the eviction count. *)
let test_eviction () =
  let (), summary =
    with_server
      ~tune:(fun c -> { c with Serve.cache_size = 2 })
      (fun path ->
        let c = Serve.Client.connect path in
        List.iter
          (fun k ->
            check_ok ~expect:true
              (Serve.Client.request c (optimize_req ~id:(Json.Str k) k)))
          [ "mmjik"; "mmjki"; "jacobi"; "sor" ];
        Serve.Client.close c)
  in
  Alcotest.(check bool)
    (Printf.sprintf "evictions > 0 (got %d)" summary.Serve.evictions)
    true (summary.Serve.evictions > 0);
  Alcotest.(check int) "misses" 4 summary.Serve.misses

(* The same request twice: second answer comes from the cache (hit
   counter moves) and is byte-identical to the first. *)
let test_repeat_hit () =
  let (first, second), summary =
    with_server (fun path ->
        let c = Serve.Client.connect path in
        let ask () =
          Serve.Client.send_line c
            (Json.to_string (optimize_req ~id:(Json.Int 7) "mmjik"));
          match Serve.Client.recv_line c with
          | Some line -> line
          | None -> Alcotest.fail "connection closed"
        in
        let first = ask () in
        let second = ask () in
        Serve.Client.close c;
        (first, second))
  in
  Alcotest.(check string) "hit is byte-identical to miss" first second;
  Alcotest.(check bool)
    (Printf.sprintf "hits > 0 (got %d)" summary.Serve.hits)
    true (summary.Serve.hits > 0)

(* One pipelined batch of distinct nests, served by 1 domain and by 4:
   the response streams must be byte-identical. *)
let test_domain_identity () =
  let kernels = [ "mmjik"; "mmjki"; "jacobi"; "sor"; "afold"; "shal" ] in
  let drive domains =
    let lines, _ =
      with_server
        ~tune:(fun c -> { c with Serve.domains })
        (fun path ->
          let c = Serve.Client.connect path in
          List.iteri
            (fun i k ->
              Serve.Client.send_line c
                (Json.to_string (optimize_req ~id:(Json.Int i) k)))
            kernels;
          let lines =
            List.map
              (fun _ ->
                match Serve.Client.recv_line c with
                | Some line -> line
                | None -> Alcotest.fail "connection closed")
              kernels
          in
          Serve.Client.close c;
          lines)
    in
    lines
  in
  let one = drive 1 and four = drive 4 in
  Alcotest.(check (list string)) "1 domain = 4 domains" one four

(* A client that fires requests and vanishes without reading must not
   take the daemon down; the next client is served normally. *)
let test_midstream_disconnect () =
  let (), summary =
    with_server (fun path ->
        let rude = Serve.Client.connect path in
        for i = 0 to 4 do
          Serve.Client.send_line rude
            (Json.to_string (optimize_req ~id:(Json.Int i) "mmjik"))
        done;
        Serve.Client.close rude;
        let polite = Serve.Client.connect path in
        check_ok ~expect:true
          (Serve.Client.request polite (req ~id:(Json.Int 99) "ping"));
        check_ok ~expect:true
          (Serve.Client.request polite (optimize_req ~id:(Json.Int 100) "sor"));
        Serve.Client.close polite)
  in
  Alcotest.(check bool)
    (Printf.sprintf "served after disconnect (%d ok)" summary.Serve.ok)
    true
    (summary.Serve.ok >= 2)

let suite =
  [ Alcotest.test_case "oversized line" `Quick test_oversized;
    Alcotest.test_case "mid-stream disconnect" `Quick test_midstream_disconnect;
    Alcotest.test_case "malformed requests" `Quick test_malformed;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "lru eviction" `Quick test_eviction;
    Alcotest.test_case "repeat is a hit" `Quick test_repeat_hit;
    Alcotest.test_case "1 vs N domains" `Quick test_domain_identity;
    Alcotest.test_case "machine names" `Quick test_machine_names;
    Alcotest.test_case "option ranges are protocol errors" `Quick
      test_option_ranges;
    Alcotest.test_case "level rides in the model name" `Quick test_level_model ]
