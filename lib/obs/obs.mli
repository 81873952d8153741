(** Lock-free, Domain-safe observability substrate.

    A metrics registry (monotonic counters, gauges, log-scale latency
    histograms with p50/p95/p99) plus lightweight span tracing
    exported as Chrome [trace_event] JSON.  The default sink is
    {!Noop}: every record collapses to one atomic flag read, so
    instrumented hot paths cost ~nothing until {!enable} switches the
    process to the in-memory sink.  All record paths are lock-free
    (atomic fetch-and-add / CAS); the only mutex guards metric
    registration, which happens once per name. *)

type sink = Noop | Memory

val sink : unit -> sink
val set_sink : sink -> unit

val enable : unit -> unit
(** Switch to the {!Memory} sink and stamp the trace epoch. *)

val disable : unit -> unit
val enabled : unit -> bool

val now : unit -> float
(** Seconds on the monotonic clock ([CLOCK_MONOTONIC], arbitrary
    origin), so a wall-clock step never shows up as a negative or
    inflated duration.  Every span, stage timer, corpus timer and serve
    arrival/deadline uses this one time base; only differences of two
    readings are meaningful. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  val record : t -> float -> unit
  (** Record a sample (seconds, or any positive quantity).  Lock-free:
      one atomic bucket increment plus CAS min/max. *)

  type summary = {
    count : int;
    min : float;
    max : float;
    mean : float;  (** derived from bucket representatives *)
    p50 : float;
    p95 : float;
    p99 : float;
  }

  val summary : t -> summary
  (** Exactly order-independent: every field is a pure function of the
      integer bucket counts and the CAS min/max, so recording the same
      samples from 1 or N domains yields identical summaries. *)

  val merge : t -> t -> t
  (** Associative (and commutative) bucket-count sum; the result is a
      fresh unregistered histogram carrying the left name. *)

  val name : t -> string

  val bucket_of : float -> int
  (** Exposed for the property suite: the log-scale bucket index. *)
end

val counter : string -> Counter.t
(** Find-or-create by name, so handles created in different libraries
    (or test runs) share state. *)

val gauge : string -> Gauge.t
val histogram : string -> Histogram.t

module Span : sig
  type event = { name : string; t0 : float; dur : float; tid : int }

  val emit : name:string -> t0:float -> dur:float -> unit
  (** Record a completed span with an externally measured interval (the
      stage timers reuse their own [t0]/[dur] so span sums equal the
      timing counters exactly).  No-op under the {!Noop} sink. *)

  val with_ : string -> (unit -> 'a) -> 'a
  (** Run a thunk inside a span.  Nestable; the trace viewer
      reconstructs nesting from containment per thread id. *)

  val events : unit -> event list
  (** Chronological order, whatever the recording interleaving. *)

  val clear : unit -> unit

  val to_chrome : unit -> Json.t
  (** The Chrome [trace_event] envelope: complete ("ph":"X") events
      with microsecond timestamps relative to the {!enable} epoch and
      the recording domain as "tid". *)
end

val reset : unit -> unit
(** Zero every registered metric and drop all spans. *)

val dump : unit -> Json.t
(** Snapshot of the whole registry: counter values, gauge values and
    histogram summaries, each sorted by name. *)

val write_file : string -> string -> bool
(** [write_file path contents] is the one writer of every output file
    (traces, metrics dumps, the serve cache, emitted programs).  On
    failure it prints [cannot write PATH: REASON] on stderr and
    returns [false]; it never raises. *)

val io_error : string -> string -> string
(** [io_error path msg] renders a [Sys_error] message as
    [PATH: REASON], whether or not [msg] already names the path. *)
