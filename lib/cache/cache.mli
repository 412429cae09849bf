(** Content-addressed, two-layer analysis result cache.

    The analysis pipeline is deterministic in its inputs — an assembled
    binary image, a netlist/power context, and a handful of knobs — so
    every result can be memoized under a digest of exactly those inputs.
    This module provides the substrate:

    - an {e in-memory LRU layer} shared across the domain pool, bounded
      by bytes ({!mem_budget_bytes}) unless the caller asks for a count
      bound, with {e single-flight} semantics: concurrent requests for
      the same key block on the one in-flight computation instead of
      duplicating it;
    - an optional {e persistent disk layer}: entries are written
      atomically (write-to-temp then rename) in a versioned container
      format with an embedded payload digest, and any unreadable, stale
      or corrupted entry is treated as a miss — never a crash. Entries
      are {e sharded} by the first two hex digits of their key
      ([dir/ab/<ns>.abcd….v1]) so concurrent writers spread over 256
      subdirectories.

    Typing discipline: {!memo} stores values via [Marshal], so the
    [ns] (namespace) string given to [memo] must uniquely determine the
    stored type, and {!format_version} / the caller's own version
    component of the key must be bumped whenever a stored type or the
    semantics producing it change. All callers in this repository go
    through {!Core.Analyze}, which keys on
    (image, netlist, config, analysis version). *)

module Key : sig
  (** A stable content digest in lowercase hex. *)
  type t = string

  (** Digest of a string. *)
  val of_string : string -> t

  (** Digest of any marshalable value (its [Marshal] image). *)
  val of_value : 'a -> t

  (** Order-sensitive combination of components. *)
  val combine : string list -> t
end

(** Bumped when the on-disk container layout changes; stale containers
    load as misses. *)
val format_version : int

type counters = {
  mutable mem_hits : int;  (** served from the in-memory LRU *)
  mutable disk_hits : int;  (** deserialized from the disk layer *)
  mutable misses : int;  (** computed fresh *)
  mutable stores : int;  (** entries written to disk *)
  mutable evictions : int;  (** LRU entries dropped for capacity *)
  mutable corrupt : int;  (** unreadable disk entries discarded *)
  mutable joined : int;  (** single-flight waits on another computation *)
}

type t

(** The default bound of the memory layer: the total weight, in bytes,
    of its resident entries (4 MiB). An entry weighs its key, a fixed
    per-entry overhead, and its value: the marshaled payload length
    when the disk layer wrote or read it, else the value's heap size
    ([Obj.reachable_words]). Small results (bounds summaries, power
    traces, block costs) all fit; execution trees of tens of MB are
    served from disk. *)
val mem_budget_bytes : int

(** [create ?dir ?mem_entries ()] — a cache with an in-memory LRU and,
    when [dir] is given, a persistent layer in that directory (created
    on demand). Without [dir] the cache is memory-only.

    By default the LRU evicts from its tail until its entries weigh at
    most {!mem_budget_bytes}; a value heavier than the whole budget is
    returned to its caller (and to callers waiting on it) but not
    retained, and evicts nothing. With [mem_entries] the LRU instead
    holds at most [mem_entries] values whatever their size, and its
    entries are not weighed. *)
val create : ?dir:string -> ?mem_entries:int -> unit -> t

(** The disk directory, if persistent. *)
val dir : t -> string option

(** The standard persistent location: [$XBOUND_CACHE_DIR], else
    [$XDG_CACHE_HOME/xbound], else [$HOME/.cache/xbound], else
    [_xbound_cache] in the working directory. *)
val default_dir : unit -> string

(** [memo t ~ns ~key f] — the cached value for [(ns, key)], computing
    [f ()] (and storing the result in both layers) on a miss. Safe to
    call concurrently from any domain; concurrent calls for the same
    [(ns, key)] run [f] once. If [f] raises, the exception propagates to
    the caller that ran it, waiters retry (one of them becomes the new
    computer), and nothing is stored. *)
val memo : t -> ns:string -> key:Key.t -> (unit -> 'a) -> 'a

(** Live counters (aggregated across both layers). *)
val counters : t -> counters

val reset_counters : t -> unit

(** Counters as a JSON object (for [BENCH_micro.json]). *)
val counters_json : t -> string

(** [(entries, bytes)] currently in the disk layer, summed across the
    shard subdirectories and any stray flat entries a pre-shard version
    left in the root (0 when memory-only). *)
val disk_stats : t -> int * int

(** [(entries, bytes)] resident in the memory layer. [bytes] is the
    weight the budget counts (see {!mem_budget_bytes}); it is 0 for a
    cache created with [mem_entries], whose entries are not weighed.
    Summed over every live cache, the same numbers are the process-wide
    gauges [cache.mem_entries] and [cache.mem_bytes]. *)
val mem_stats : t -> int * int

(** Per-namespace [(ns, (entries, bytes))] rows for the disk layer,
    sorted by namespace — the breakdown behind {!disk_stats}, so the
    [xbound cache stats] output can attribute entries to their kind
    (analysis, symtree, peak-power, block, ...). Empty when
    memory-only. *)
val disk_stats_by_ns : t -> (string * (int * int)) list

(** Drop every in-memory entry and delete every disk entry this cache
    format owns (files named [<ns>.<digest>.v<version>], flat or
    sharded; emptied shard subdirectories are removed). In-flight
    computations are forgotten too: their waiters wake, and the next
    [memo] of such a key computes it anew. The key still ends up with
    one resident entry when both computations publish. *)
val clear : t -> unit
