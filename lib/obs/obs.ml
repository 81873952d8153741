(* Lock-free, Domain-safe metrics registry + lightweight span tracing.

   The hot paths are a single [Atomic.get] when the sink is the default
   no-op, and plain atomic read-modify-writes when the memory sink is
   enabled: counters use [fetch_and_add], histograms bump one atomic
   bucket, spans push onto an atomic list with a CAS loop.  The only
   mutex in the module guards metric *registration* (rare, cold). *)

(* ------------------------------------------------------------------ *)
(* The sink.  [Noop] (the default) makes every record a no-op behind
   one atomic flag read; [Memory] accumulates in-process. *)

type sink = Noop | Memory

let memory_sink = Atomic.make false
let epoch = Atomic.make 0.0

let enabled () = Atomic.get memory_sink

let sink () = if enabled () then Memory else Noop

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let set_sink = function
  | Memory ->
      if not (enabled ()) then begin
        Atomic.set epoch (now ());
        Atomic.set memory_sink true
      end
  | Noop -> Atomic.set memory_sink false

let enable () = set_sink Memory
let disable () = set_sink Noop

(* ------------------------------------------------------------------ *)
(* Counters: named monotonic integers. *)

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let create name = { name; v = Atomic.make 0 }
  let add t n = if enabled () then ignore (Atomic.fetch_and_add t.v n)
  let incr t = add t 1
  let value t = Atomic.get t.v
  let name t = t.name
  let reset t = Atomic.set t.v 0
end

(* ------------------------------------------------------------------ *)
(* Gauges: last-written float (queue depths, occupancy). *)

module Gauge = struct
  type t = { name : string; v : float Atomic.t }

  let create name = { name; v = Atomic.make 0.0 }
  let set t x = if enabled () then Atomic.set t.v x
  let value t = Atomic.get t.v
  let name t = t.name
  let reset t = Atomic.set t.v 0.0
end

(* ------------------------------------------------------------------ *)
(* Histograms: log-scale buckets over (0, +inf), tuned for latencies in
   seconds (1 ns .. 1000 s).  Every recorded fact is an integer bucket
   count or a CAS min/max, so summaries are exactly order-independent
   and merges are exactly associative — the property suite pins both.
   The mean is derived from bucket representatives (no float
   accumulation races in the hot path). *)

module Histogram = struct
  let buckets_per_decade = 8
  let lo_decade = -9 (* 1e-9 s *)
  let hi_decade = 3 (* 1e3 s *)
  let nbuckets = ((hi_decade - lo_decade) * buckets_per_decade) + 1

  type t = {
    name : string;
    buckets : int Atomic.t array;
    min_v : float Atomic.t;
    max_v : float Atomic.t;
  }

  let create name =
    { name;
      buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
      min_v = Atomic.make infinity;
      max_v = Atomic.make neg_infinity }

  let name t = t.name

  let bucket_of v =
    if not (Float.is_finite v) || v <= 0.0 then 0
    else
      let i =
        int_of_float
          (Float.round
             ((Float.log10 v -. float_of_int lo_decade)
             *. float_of_int buckets_per_decade))
      in
      if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

  let bucket_value i =
    Float.pow 10.0
      (float_of_int lo_decade
      +. (float_of_int i /. float_of_int buckets_per_decade))

  let rec cas_min a x =
    let old = Atomic.get a in
    if x < old && not (Atomic.compare_and_set a old x) then cas_min a x

  let rec cas_max a x =
    let old = Atomic.get a in
    if x > old && not (Atomic.compare_and_set a old x) then cas_max a x

  let record t v =
    if enabled () then begin
      ignore (Atomic.fetch_and_add t.buckets.(bucket_of v) 1);
      cas_min t.min_v v;
      cas_max t.max_v v
    end

  type summary = {
    count : int;
    min : float;
    max : float;
    mean : float;
    p50 : float;
    p95 : float;
    p99 : float;
  }

  let summary t =
    let counts = Array.map Atomic.get t.buckets in
    let count = Array.fold_left ( + ) 0 counts in
    if count = 0 then
      { count = 0; min = 0.0; max = 0.0; mean = 0.0; p50 = 0.0; p95 = 0.0;
        p99 = 0.0 }
    else begin
      let weighted = ref 0.0 in
      Array.iteri
        (fun i c ->
          if c > 0 then
            weighted := !weighted +. (float_of_int c *. bucket_value i))
        counts;
      let quantile q =
        (* the representative value of the bucket holding the q-th
           sample; exact given the bucket resolution, and a pure
           function of the counts (so merge order can't change it) *)
        let rank =
          let r = int_of_float (Float.of_int count *. q) in
          if r >= count then count - 1 else r
        in
        let rec find i acc =
          if i >= nbuckets then bucket_value (nbuckets - 1)
          else
            let acc = acc + counts.(i) in
            if acc > rank then bucket_value i else find (i + 1) acc
        in
        find 0 0
      in
      { count;
        min = Atomic.get t.min_v;
        max = Atomic.get t.max_v;
        mean = !weighted /. float_of_int count;
        p50 = quantile 0.50;
        p95 = quantile 0.95;
        p99 = quantile 0.99 }
    end

  let merge a b =
    let m = create a.name in
    Array.iteri
      (fun i c ->
        Atomic.set m.buckets.(i) (Atomic.get c + Atomic.get b.buckets.(i)))
      a.buckets;
    Atomic.set m.min_v (Float.min (Atomic.get a.min_v) (Atomic.get b.min_v));
    Atomic.set m.max_v (Float.max (Atomic.get a.max_v) (Atomic.get b.max_v));
    m

  let reset t =
    Array.iter (fun b -> Atomic.set b 0) t.buckets;
    Atomic.set t.min_v infinity;
    Atomic.set t.max_v neg_infinity

  let summary_to_json s =
    Json.Obj
      [ ("count", Json.Int s.count);
        ("min", Json.Float s.min);
        ("max", Json.Float s.max);
        ("mean", Json.Float s.mean);
        ("p50", Json.Float s.p50);
        ("p95", Json.Float s.p95);
        ("p99", Json.Float s.p99) ]
end

(* ------------------------------------------------------------------ *)
(* The registry: find-or-create by name so module-level metric handles
   in different libraries share state; registration is mutex-guarded
   (cold path only — the handles themselves are lock-free). *)

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

let registry : metric list ref = ref []
let registry_mutex = Mutex.create ()

let counter name =
  Mutex.lock registry_mutex;
  let r =
    match
      List.find_map
        (function
          | M_counter c when String.equal (Counter.name c) name -> Some c
          | _ -> None)
        !registry
    with
    | Some c -> c
    | None ->
        let c = Counter.create name in
        registry := M_counter c :: !registry;
        c
  in
  Mutex.unlock registry_mutex;
  r

let gauge name =
  Mutex.lock registry_mutex;
  let r =
    match
      List.find_map
        (function
          | M_gauge g when String.equal (Gauge.name g) name -> Some g
          | _ -> None)
        !registry
    with
    | Some g -> g
    | None ->
        let g = Gauge.create name in
        registry := M_gauge g :: !registry;
        g
  in
  Mutex.unlock registry_mutex;
  r

let histogram name =
  Mutex.lock registry_mutex;
  let r =
    match
      List.find_map
        (function
          | M_histogram h when String.equal (Histogram.name h) name -> Some h
          | _ -> None)
        !registry
    with
    | Some h -> h
    | None ->
        let h = Histogram.create name in
        registry := M_histogram h :: !registry;
        h
  in
  Mutex.unlock registry_mutex;
  r

(* ------------------------------------------------------------------ *)
(* Spans: start/stop intervals around pipeline stages, nestable (the
   viewer reconstructs nesting from containment per thread), exported
   as Chrome trace_event JSON.  Storage is an atomic cons-list so
   concurrent domains never block. *)

module Span = struct
  type event = { name : string; t0 : float; dur : float; tid : int }

  let events_list : event list Atomic.t = Atomic.make []

  let rec push e =
    let old = Atomic.get events_list in
    if not (Atomic.compare_and_set events_list old (e :: old)) then push e

  let emit ~name ~t0 ~dur =
    if enabled () then
      push { name; t0; dur; tid = (Domain.self () :> int) }

  let with_ name f =
    if not (enabled ()) then f ()
    else begin
      let t0 = now () in
      Fun.protect ~finally:(fun () -> emit ~name ~t0 ~dur:(now () -. t0)) f
    end

  let events () =
    List.sort
      (fun a b -> compare (a.t0, a.name) (b.t0, b.name))
      (Atomic.get events_list)

  let clear () = Atomic.set events_list []

  let to_chrome () =
    let t_epoch = Atomic.get epoch in
    let us t = Json.Int (int_of_float ((t -. t_epoch) *. 1e6)) in
    Json.Obj
      [ ( "traceEvents",
          Json.List
            (List.map
               (fun e ->
                 Json.Obj
                   [ ("name", Json.Str e.name);
                     ("cat", Json.Str "ujam");
                     ("ph", Json.Str "X");
                     ("ts", us e.t0);
                     ("dur", Json.Int (int_of_float (e.dur *. 1e6)));
                     ("pid", Json.Int 1);
                     ("tid", Json.Int e.tid) ])
               (events ())) );
        ("displayTimeUnit", Json.Str "ms") ]
end

(* ------------------------------------------------------------------ *)
(* Registry-wide operations. *)

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (function
      | M_counter c -> Counter.reset c
      | M_gauge g -> Gauge.reset g
      | M_histogram h -> Histogram.reset h)
    !registry;
  Mutex.unlock registry_mutex;
  Span.clear ()

let dump () =
  Mutex.lock registry_mutex;
  let metrics = !registry in
  Mutex.unlock registry_mutex;
  let by_name f =
    List.sort (fun (a, _) (b, _) -> String.compare a b) (List.filter_map f metrics)
  in
  Json.Obj
    [ ( "counters",
        Json.Obj
          (by_name (function
            | M_counter c -> Some (Counter.name c, Json.Int (Counter.value c))
            | _ -> None)) );
      ( "gauges",
        Json.Obj
          (by_name (function
            | M_gauge g -> Some (Gauge.name g, Json.Float (Gauge.value g))
            | _ -> None)) );
      ( "histograms",
        Json.Obj
          (by_name (function
            | M_histogram h ->
                Some
                  (Histogram.name h,
                   Histogram.summary_to_json (Histogram.summary h))
            | _ -> None)) ) ]

(* ------------------------------------------------------------------ *)
(* Output files. *)

let io_error path msg =
  if String.starts_with ~prefix:(path ^ ": ") msg then msg
  else path ^ ": " ^ msg

let write_file path contents =
  match
    Out_channel.with_open_text path (fun oc ->
        output_string oc contents;
        close_out oc)
  with
  | () -> true
  | exception Sys_error msg ->
      Printf.eprintf "cannot write %s\n%!" (io_error path msg);
      false
