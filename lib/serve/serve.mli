(** The long-lived optimization service.

    [run] owns an accept/read/dispatch loop over a Unix-domain listen
    socket and/or stdin, speaking the line-delimited protocol of
    {!Protocol}.  Analysis requests are answered from a bounded
    content-addressed {!Ujam_engine.Result_cache} when possible;
    misses are batched, deduplicated within the batch, and fanned out
    across a Domain worker pool ({!Ujam_engine.Engine.parallel_map}),
    with responses always written in request order per connection.
    The cache is touched only by the dispatch thread — worker domains
    evaluate pure closures — so no lock guards it.

    Robustness contract: a malformed line, an unparsable or
    unsupported nest, an oversized request, or a client that
    disconnects mid-stream each cost exactly one error response (or
    one closed connection) and nothing else; the loop never exits on
    request input.  It exits on SIGINT, a [shutdown] request, or
    end-of-input in stdio mode — in every case draining already-queued
    work, flushing a final metrics report to [metrics_out], and
    appending a one-line summary to stderr (suppressed by [quiet]).

    Live observability: the loop enables {!Ujam_obs.Obs} and maintains
    [serve.requests], [serve.errors], [serve.cache.{hits,misses,evictions}]
    counters and [serve.batch_size] / [serve.request_s] histograms — a
    [metrics] request dumps the registry plus cache occupancy.
    Per-request spans (and the engine's stage spans) are retained for
    a Chrome-trace dump only when [trace_out] is set; otherwise spans
    are discarded per batch so a long-lived daemon's memory stays
    bounded. *)

module Json = Ujam_obs.Json

type config = {
  machine : Ujam_machine.Machine.t;
  bound : int;
  max_loops : int;
  model : (module Ujam_engine.Model.MODEL);
  seq : bool;
  domains : int;  (** worker domains for cache-miss batches *)
  cache_size : int;  (** LRU capacity, entries *)
  cache_file : string option;
      (** when set, the result cache is reloaded from this path at
          startup and persisted back (most-recently-used first, keys
          are machine+options+canonical-digest fingerprints — never
          hashcons ids) after the drain, so warm-cache performance
          survives restarts; a missing or unreadable file starts
          cold *)
  batch : int;  (** max cache-miss jobs dispatched per round *)
  timeout_ms : int;
      (** default request deadline, measured from arrival to dispatch;
          [< 0] disables, [0] expires immediately (a typed-timeout
          probe); per-request [timeout_ms] overrides *)
  max_request_bytes : int;  (** longest accepted request line *)
  metrics_out : string option;  (** final registry dump destination *)
  trace_out : string option;  (** Chrome trace destination *)
  quiet : bool;
}

val default_config : ?machine:Ujam_machine.Machine.t -> unit -> config
(** alpha machine, bound 4, max_loops 2, ugs model, seq off, 1 domain,
    cache 1024 (not persisted), batch 32, timeout 30000 ms, 1 MiB
    lines, no dumps. *)

type summary = {
  requests : int;  (** request lines consumed, well-formed or not *)
  ok : int;  (** [ok:true] responses written *)
  errors : int;  (** [ok:false] responses written *)
  hits : int;
  misses : int;
  evictions : int;
}

val run :
  ?listen:string -> ?stdio:bool -> ?stop:bool Atomic.t -> config -> summary
(** Serve until shutdown.  [listen] binds (and on exit unlinks) a Unix
    socket path; [stdio] (default: true iff [listen] is absent) also
    reads requests from stdin and answers on stdout.  [stop] is an
    external kill switch sharing the SIGINT path — tests flip it from
    another domain.  @raise Invalid_argument when given neither
    transport. *)

(** A minimal blocking client for tests, the bench load generator and
    the smoke driver: one request line out, one response line back. *)
module Client : sig
  type t

  val connect : ?retries:int -> string -> t
  (** Connect to a serve socket, retrying (100 x 10ms by default)
      while the daemon is still binding. *)

  val send_line : t -> string -> unit
  val recv_line : t -> string option

  val request : t -> Json.t -> Json.t
  (** [send_line] + [recv_line] + parse.
      @raise Failure on EOF or a response that is not JSON. *)

  val close : t -> unit
end

type smoke_report = {
  sk_requests : int;
  sk_ok : int;
  sk_expected_errors : int;  (** probes that must answer [ok:false] *)
  sk_unexpected_errors : int;
  sk_order_violations : int;  (** responses out of per-client order *)
  sk_hits : int;
}

val smoke : ?requests:int -> ?domains:int -> unit -> smoke_report
(** Self-contained smoke drive: start a daemon on a fresh temp socket
    (in its own Domain), replay a deterministic mixed workload —
    kernel and inline optimizes with repeats, explain, lint, pings,
    metrics, plus malformed/unsupported/oversized/timeout probes —
    over two interleaved client connections, shut the daemon down, and
    report.  Healthy iff [sk_unexpected_errors = 0],
    [sk_order_violations = 0] and [sk_hits > 0]. *)

val smoke_healthy : smoke_report -> bool
val pp_smoke : Format.formatter -> smoke_report -> unit
