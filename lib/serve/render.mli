(** The one stdout renderer for {!Wire.Response.t} values.

    Both dispatch paths — in-process execution and the daemon RPC —
    print through this module, from the same decoded response value.
    Combined with {!Explain.Ejson}'s shortest round-tripping float
    printing this is what makes CLI and daemon output byte-identical:
    there is exactly one piece of code that turns a response into
    text. *)

val to_string : Wire.Response.t -> string

(** One [xbound top] frame from a snapshot {e diff} (a Watch stream
    payload): request/reject rates over the window, live queue/inflight
    gauges, cache hit ratio, resident cache memory, tier mix,
    queue-wait/exec/latency and per-phase percentiles. Uses the same histogram row conventions as
    the [Stats] table. *)
val top : Telemetry.Snapshot.t -> string
