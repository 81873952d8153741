open Ujam_linalg
open Ujam_ir
open Ujam_core
module Obs = Ujam_obs.Obs
module Json = Ujam_obs.Json
module Diagnostic = Ujam_analysis.Diagnostic

(* Engine metrics: no-ops until the observability sink is enabled. *)
let m_nests_ok = Obs.counter "engine.nests.ok"
let m_nests_failed = Obs.counter "engine.nests.failed"
let m_routines = Obs.counter "engine.jobs.claimed"
let g_queue = Obs.gauge "engine.queue.remaining"
let h_routine = Obs.histogram "engine.routine_s"

let h_stages =
  List.map
    (fun s ->
      (s, Obs.histogram ("engine.stage." ^ Analysis_ctx.stage_name s ^ "_s")))
    Analysis_ctx.stages

type nest_report = {
  nest_name : string;
  model : string;
  u : Vec.t;
  balance_before : float;
  balance_after : float;
  objective : float;
  registers : int;
  memory_ops : int;
  flops : int;
  speedup : float;
  sequence : Ujam_analysis.Passes.step list;
  diagnostics : Diagnostic.t list;
}

type nest_outcome = (nest_report, Error.t) result

type routine_report = { routine : string; nests : nest_outcome list }

type corpus_report = {
  model : string;
  domains : int;
  bound : int;
  routines : routine_report array;
  ok : int;
  failed : int;
  timings : Analysis_ctx.timings;
  elapsed_s : float;
}

let default_model : (module Model.MODEL) = (module Model.Ugs_tables)

let memo_clear () = ()

let memo_stats () =
  { Result_cache.hits = 0; misses = 0; evictions = 0; size = 0; capacity = 0 }

let add_timings (acc : Analysis_ctx.timings) (t : Analysis_ctx.timings) =
  Array.iteri (fun i dt -> acc.(i) <- acc.(i) +. dt) t

let analyze_into ?into ?(bound = 4) ?(max_loops = 2) ?(model = default_model)
    ?(seq = false) ~machine ~routine nest =
  let module M = (val model : Model.MODEL) in
  let ( let* ) = Result.bind in
  let* () = Error.check_supported ~routine nest in
  let guard stage f = Error.guard ~stage ~routine f in
  (* Sequence mode: when the safety fence binds, look for a short
     skew/retime prefix that legalizes more of the unroll space; the
     rest of the pipeline then runs on the legalized nest, carrying
     the chosen steps (and their UJ026 certificate) in the report. *)
  let* legalized =
    if not seq then Ok None
    else
      guard Error.Search (fun () ->
          let o =
            Ujam_analysis.Seqsearch.search ~bound ~max_loops ~machine nest
          in
          if o.Ujam_analysis.Seqsearch.sequence = [] then None else Some o)
  in
  let target, sequence, seq_diags =
    match legalized with
    | None -> (nest, [], [])
    | Some o ->
        ( o.Ujam_analysis.Seqsearch.nest,
          o.Ujam_analysis.Seqsearch.sequence,
          o.Ujam_analysis.Seqsearch.diagnostics )
  in
  let ctx = Analysis_ctx.create ~bound ~max_loops ~machine target in
  let result =
    let* _safety = guard Error.Graph (fun () -> Analysis_ctx.safety ctx) in
    let* balance = guard Error.Tables (fun () -> Analysis_ctx.balance ctx) in
    (* Monotonicity guard: strategies that prune the search box rely
       on the register table being pointwise non-decreasing.  Certify
       it (O(d*|U|) lookups); on failure degrade that strategy to the
       exhaustive scan and surface the violation as a UJ010 warning
       instead of risking a wrong vector. *)
    let* violation =
      if M.prunes then
        guard Error.Search (fun () ->
            Ujam_analysis.Monotone.check_registers balance)
      else Ok None
    in
    let* choice =
      guard Error.Search (fun () ->
          M.analyze ~exhaustive:(violation <> None) ctx)
    in
    let* original =
      guard Error.Search (fun () ->
          Search.evaluate ~cache:M.cache balance
            (Vec.zero (Nest.depth target)))
    in
    let* speedup =
      guard Error.Search (fun () ->
          Driver.speedup ~machine balance ~original ~choice)
    in
    Ok
      { nest_name = Nest.name nest;
        model = M.name;
        u = choice.Search.u;
        balance_before = original.Search.balance;
        balance_after = choice.Search.balance;
        objective = choice.Search.objective;
        registers = choice.Search.registers;
        memory_ops = choice.Search.memory_ops;
        flops = choice.Search.flops;
        speedup;
        sequence;
        diagnostics =
          (seq_diags
          @
          match violation with
          | Some v ->
              [ Ujam_analysis.Monotone.diagnostic ~nest:(Nest.name nest) v ]
          | None -> []) }
  in
  Option.iter (fun acc -> add_timings acc (Analysis_ctx.timings ctx)) into;
  if Obs.enabled () then begin
    let t = Analysis_ctx.timings ctx in
    List.iter
      (fun (s, h) -> Obs.Histogram.record h (Analysis_ctx.stage_time t s))
      h_stages;
    match result with
    | Ok _ -> Obs.Counter.incr m_nests_ok
    | Error _ -> Obs.Counter.incr m_nests_failed
  end;
  result

let analyze ?bound ?max_loops ?model ?seq ~machine ?(routine = "<nest>") nest =
  analyze_into ?bound ?max_loops ?model ?seq ~machine ~routine nest

(* ------------------------------------------------------------------ *)
(* Deterministic parallel work queue: the slot-ordered queue is [Par];
   the engine layers its queue-occupancy metrics on via the claim hook.
   [run_corpus] and the oracle's fuzz loop both run on this. *)

let clamp_domains = Par.clamp_domains

let parallel_map ?(domains = 1) ~f jobs =
  Par.map ~domains
    ~on_claim:(fun ~remaining ->
      (* work-queue occupancy: jobs claimed and jobs still unclaimed *)
      if Obs.enabled () then begin
        Obs.Counter.incr m_routines;
        Obs.Gauge.set g_queue (float_of_int remaining)
      end)
    ~f jobs

let run_corpus ?(domains = 1) ?(bound = 4) ?(max_loops = 2)
    ?(model = default_model) ?seq ~machine
    (routines : Ujam_workload.Generator.routine list) =
  let module M = (val model : Model.MODEL) in
  let jobs = Array.of_list routines in
  let per_domain =
    Array.init (max 1 domains) (fun _ -> Analysis_ctx.zero_timings ())
  in
  let t0 = Obs.now () in
  let domains = clamp_domains domains (Array.length jobs) in
  let out =
    Obs.Span.with_ "corpus" (fun () ->
        parallel_map ~domains
          ~f:(fun ~domain (r : Ujam_workload.Generator.routine) ->
            let work () =
              { routine = r.Ujam_workload.Generator.name;
                nests =
                  List.map
                    (fun nest ->
                      analyze_into ~into:per_domain.(domain) ~bound
                        ~max_loops ~model ?seq ~machine
                        ~routine:r.Ujam_workload.Generator.name nest)
                    r.Ujam_workload.Generator.nests }
            in
            if not (Obs.enabled ()) then work ()
            else
              Obs.Span.with_ r.Ujam_workload.Generator.name (fun () ->
                  let rt0 = Obs.now () in
                  let report = work () in
                  Obs.Histogram.record h_routine (Obs.now () -. rt0);
                  report))
          jobs)
  in
  let elapsed_s = Obs.now () -. t0 in
  let timings = Analysis_ctx.zero_timings () in
  Array.iter (add_timings timings) per_domain;
  let ok = ref 0 and failed = ref 0 in
  Array.iter
    (fun r ->
      List.iter
        (function Ok _ -> incr ok | Error _ -> incr failed)
        r.nests)
    out;
  { model = M.name; domains; bound; routines = out; ok = !ok; failed = !failed;
    timings; elapsed_s }

let routines_of_catalogue ?n () =
  List.map
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest =
        match n with
        | Some n -> e.Ujam_kernels.Catalogue.build ~n ()
        | None -> e.Ujam_kernels.Catalogue.build ()
      in
      { Ujam_workload.Generator.name = e.Ujam_kernels.Catalogue.name;
        nests = [ nest ] })
    Ujam_kernels.Catalogue.all

(* ------------------------------------------------------------------ *)
(* Rendering.  The default printers exclude the timing counters so runs
   with different domain counts stay byte-identical; print timings
   separately with [pp_timings]. *)

let pp_nest_outcome ppf = function
  | Ok r ->
      Format.fprintf ppf
        "%s: u=%s balance %.3f->%.3f regs %d V_M %d V_F %d speedup %.2f"
        r.nest_name (Vec.to_string r.u) r.balance_before r.balance_after
        r.registers r.memory_ops r.flops r.speedup;
      List.iter
        (fun (st : Ujam_analysis.Passes.step) ->
          Format.fprintf ppf "@,  seq %s: %s"
            (Ujam_ir.Transform.to_string st.Ujam_analysis.Passes.transform)
            st.Ujam_analysis.Passes.note)
        r.sequence;
      List.iter
        (fun d -> Format.fprintf ppf "@,  %a" Diagnostic.pp d)
        r.diagnostics
  | Error e -> Error.pp ppf e

let pp_routine ppf r =
  List.iter
    (fun outcome ->
      Format.fprintf ppf "%-12s %a@," r.routine pp_nest_outcome outcome)
    r.nests

let pp ppf report =
  Format.fprintf ppf "@[<v>";
  Array.iter (fun r -> pp_routine ppf r) report.routines;
  Format.fprintf ppf "corpus: %d routines, %d nests ok, %d failed (model %s)@]"
    (Array.length report.routines) report.ok report.failed report.model

let pp_timings ppf report =
  Format.fprintf ppf "stages: %a; wall %.3fs (%d domains)"
    Analysis_ctx.pp_timings report.timings report.elapsed_s report.domains

let to_string report = Format.asprintf "%a" pp report

(* ------------------------------------------------------------------ *)
(* JSON. *)

let nest_outcome_to_json = function
  | Ok r ->
      Json.Obj
        ([ ("nest", Json.Str r.nest_name);
          ("model", Json.Str r.model);
          ("u", Json.ints (Vec.to_list r.u));
          ("balance_before", Json.Float r.balance_before);
          ("balance_after", Json.Float r.balance_after);
          ("objective", Json.Float r.objective);
          ("registers", Json.Int r.registers);
          ("memory_ops", Json.Int r.memory_ops);
          ("flops", Json.Int r.flops);
          ("speedup", Json.Float r.speedup) ]
         @ (if r.sequence = [] then []
            else
              [ ( "sequence",
                  Ujam_analysis.Seqsearch.steps_json r.sequence ) ])
         @
         if r.diagnostics = [] then []
         else
           [ ( "diagnostics",
               Json.List (List.map Diagnostic.to_json r.diagnostics) ) ])
  | Error e ->
      Json.Obj
        [ ("error",
           Json.Obj
             ([ ("stage", Json.Str (Error.stage_name e.Error.stage));
                ("routine", Json.Str e.Error.routine);
                ("message", Json.Str e.Error.message) ]
             @
             if e.Error.diagnostics = [] then []
             else
               [ ( "diagnostics",
                   Json.List
                     (List.map Diagnostic.to_json e.Error.diagnostics) ) ])) ]

let routine_to_json r =
  Json.Obj
    [ ("routine", Json.Str r.routine);
      ("nests", Json.List (List.map nest_outcome_to_json r.nests)) ]

let timings_to_json t =
  Json.Obj
    (List.map
       (fun s ->
         ( Analysis_ctx.stage_name s ^ "_s",
           Json.Float (Analysis_ctx.stage_time t s) ))
       Analysis_ctx.stages)

let to_json ?(timings = false) report =
  let base =
    [ ("model", Json.Str report.model);
      ("bound", Json.Int report.bound);
      ("routines",
       Json.List (Array.to_list (Array.map routine_to_json report.routines)));
      ("ok", Json.Int report.ok);
      ("failed", Json.Int report.failed) ]
  in
  let extra =
    if timings then
      [ ("domains", Json.Int report.domains);
        ("timings", timings_to_json report.timings);
        ("elapsed_s", Json.Float report.elapsed_s) ]
    else []
  in
  Json.Obj (base @ extra)
