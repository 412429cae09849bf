(** The [xbound serve] daemon loop.

    One accept thread hands each connection to a dedicated reader
    thread; decoded requests are admitted into the bounded two-class
    {!Scheduler} and executed by a fixed pool of executor threads, all
    sharing the server's one {!Xbound.Ctx.t} — so the in-memory LRU,
    the single-flight table and the disk cache are shared across every
    connection (two clients asking the same question cost one
    analysis), and analyses still parallelize internally on the shared
    domain pool.

    Protocol behaviour on a connection:
    - a malformed payload that leaves framing intact (bad JSON, bad
      version, unknown op) gets a typed [Protocol] error response and
      the connection stays up;
    - a broken frame (truncated, oversized length prefix) gets a final
      [Protocol] error response with id 0 and the connection is closed
      — the byte stream can no longer be trusted;
    - a full admission queue gets the 429-style [Overloaded] rejection
      immediately, without blocking the reader.

    {2 Admin lane}

    [Stats], [Health] and [Watch] requests never enter the scheduler:
    they are served inline on the connection's reader thread, so they
    answer even when the queue is full and batch work is being rejected
    with [Overloaded]. [Watch] streams one full snapshot and then a
    {!Telemetry.Snapshot.diff} per interval, ending cleanly on client
    disconnect or server {!stop}.

    {2 Telemetry}

    [start] installs an ambient {!Telemetry} sink (with
    [retain_events:false], so span events are dropped and memory stays
    bounded) unless one is already installed. Counters:
    [serve.requests] (scheduler work only), [serve.admin_requests],
    [serve.rejected], [serve.connections], [serve.protocol_errors],
    [serve.traces_sampled], [serve.tier.<tier>]. Histograms:
    [serve.queue_depth] (depth seen at admission), [serve.queue_wait_ns]
    (admission to execution start), [serve.exec_ns] (execution only),
    [serve.latency_ns] (admission to response written). Gauges:
    [serve.queue_len] (instantaneous, maintained by the scheduler),
    [serve.inflight], [serve.workers], [serve.queue_capacity], and the
    cache's resident memory layer, [cache.mem_entries] and
    [cache.mem_bytes]. One
    [cat:"serve"] span per executed request.

    Each executed request runs under a {!Telemetry.Scope} with the
    stable id ["r<seq>"]: counters and spans it produces are tallied
    per-request (for the access log and trace sampling) in addition to
    the process-wide aggregates. *)

type config = {
  listen : Addr.t;
  workers : int;  (** executor threads (clamped to >= 1) *)
  queue_capacity : int;  (** admission bound (clamped to >= 1) *)
  ctx : Xbound.Ctx.t;  (** shared by every request *)
  access_log : string option;
      (** JSONL access log path (append); [None] disables *)
  slow_ms : int;
      (** requests with exec time >= this log at [warn] with per-phase
          timings; [<= 0] disables the slow threshold *)
  trace_sample : int;
      (** every [n]-th request dumps a Chrome trace of its scope into
          [trace_dir]; [0] disables sampling *)
  trace_dir : string;  (** spool directory for sampled traces *)
}

(** Build a {!config} with the observability features off by default:
    no access log, no slow threshold, no trace sampling. *)
val config :
  ?workers:int ->
  ?queue_capacity:int ->
  ?access_log:string ->
  ?slow_ms:int ->
  ?trace_sample:int ->
  ?trace_dir:string ->
  listen:Addr.t ->
  ctx:Xbound.Ctx.t ->
  unit ->
  config

type t

(** Bind, listen and spawn the accept/executor threads. [Error] is a
    human-readable reason (address in use, permission, unwritable
    access-log path...). *)
val start : config -> (t, string) Stdlib.result

(** The bound address (as configured). *)
val addr : t -> Addr.t

(** Graceful shutdown: stop accepting, reject queued work, wake every
    blocked reader (ending any Watch streams), join all threads, close
    the access log, unlink the unix socket file. Idempotent. *)
val stop : t -> unit
