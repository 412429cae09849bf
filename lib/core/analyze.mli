(** End-to-end driver: application binary + processor netlist ->
    guaranteed application-specific peak power and energy requirements
    (the tool of the paper's Figure 3.1). *)

type config = {
  revisit_limit : int;
      (** extra explorations allowed per already-seen state *)
  loop_bound : int;  (** Seen-edge unroll bound for energy analysis *)
  max_paths : int;
  max_cycles_per_path : int;
}

val default_config : config

(** An analysis: its bounds, plus a way to fetch the execution tree
    (see {!tree}). Built only by {!run_model}. *)
type t = private {
  image : Isa.Asm.image;
  sym_stats : Gatesim.Sym.stats;
  power_trace : float array;  (** per-cycle peak power bound, W *)
  peak_power : float;  (** W — guaranteed for all inputs *)
  peak_index : int;
  peak_energy : Peak_energy.result;
  load_tree : unit -> Gatesim.Trace.tree;  (** use {!tree} *)
}

(** The execution tree (Algorithm 1) behind an analysis. Without a
    cache {!run_model} keeps it in memory. With one, it is fetched on every
    call through the same single-flight ["symtree"] memo {!run_model} used:
    from the memory LRU, from disk, or by re-exploring (deterministic,
    so the tree is the same). Only reports that need cycles (COIs,
    explain, validation) call it; bounds never do. *)
val tree : t -> Gatesim.Trace.tree

(** [Gatesim.Trace.flatten (tree t)]: the cycles {!power_trace} is
    indexed by. *)
val flattened : t -> Gatesim.Trace.cycle array

(** Standard power-analysis context for a built CPU: 100 MHz, the
    default library, memory-bus capacitance on the external pins and
    the multiplier-array wire scale (see DESIGN.md calibration notes). *)
val poweran_for : ?lib:Stdcell.t -> ?period:float -> Cpu.t -> Poweran.t

(** {1 Constant nets}

    {!Netlist.Specialize} depends only on the netlist and the reset
    protocol, so one result serves every report over a CPU; it is
    memoized by netlist identity and computed under a ["specialize"]
    telemetry span. Only explain's ["constant"] gate class uses it: the
    engines simulate every gate, so analyses never compute it. *)

(** The memoized specialization of a CPU's netlist. *)
val specialization_for : Cpu.t -> Netlist.Specialize.t

(** [folded_pred cpu net] — true when [net] is proven constant, from
    {!specialization_for} (the [Explain] "constant" gate class). *)
val folded_pred : Cpu.t -> int -> bool

(** {1 Caching}

    Analyses are deterministic in (netlist, image, config, power
    context), so results are content-addressed. Keys always include
    {!analysis_version}; bump it when analysis semantics change and
    stale entries become misses. *)

(** Version component of every cache key. *)
val analysis_version : int

(** Digest of a CPU's netlist and ports, memoized by the physical
    identity of the [Cpu.t] (the last one seen), so a process that
    analyzes many programs over one CPU digests it once. *)
val cpu_digest : Cpu.t -> Cache.Key.t

(** Digest of a power context, memoized the same way. *)
val pa_digest : Poweran.t -> Cache.Key.t

(** The bundled CPU and its standard power context ({!poweran_for}):
    the processor the [Xbound] facade analyzes. *)
val build_standard : unit -> Cpu.t * Poweran.t

(** {2 Models}

    What an analysis needs of the processor, split by when it needs it:
    the cache keys need only the two digests, and only a computation
    behind a miss needs the gates. A caller that knows the digests
    ahead of time can therefore answer a cache hit without elaborating
    the processor. *)
type model = {
  cpu_digest : unit -> Cache.Key.t;  (** {!cpu_digest} of the CPU *)
  pa_digest : unit -> Cache.Key.t;  (** {!pa_digest} of the power context *)
  elaborate : unit -> Cpu.t * Poweran.t;
      (** the CPU and power context those digests describe; called only
          by explorations and pricing, possibly from several domains *)
}

(** The model of an already built CPU and power context; its digests
    are {!cpu_digest} and {!pa_digest}, computed on first use. *)
val model : Poweran.t -> Cpu.t -> model

(** Tier-2 key: Algorithm 1's execution tree, which depends on the
    netlist/ports (the model's CPU digest), the image and the
    exploration knobs — but not on the power context or [loop_bound],
    so those can change and still reuse the tree. *)
val tree_key : ?version:int -> config -> model -> Isa.Asm.image -> Cache.Key.t

(** Tier-1 key: the whole analysis result. *)
val cache_key :
  ?version:int -> config:config -> model -> Isa.Asm.image -> Cache.Key.t

(** [run_model m image] — Algorithm 1 (symbolic execution) followed by
    the Section 3.2/3.3 computations. [pool] (default: the ambient
    {!Parallel.auto} pool) parallelizes the tree exploration; the result
    is bit-identical at any job count. With [cache], three namespaces
    are memoized (memory LRU + optional disk): ["analysis"] holds the
    bounds under {!cache_key}, ["symtree"] the execution tree and its
    stats under {!tree_key}, and ["peak-power"] the power trace and its
    peak under the tree key plus the power context. A hit on
    ["analysis"] reads only the bounds and never calls
    [m.elaborate]; cached results are bit-identical to fresh ones. *)
val run_model :
  ?config:config ->
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  model ->
  Isa.Asm.image ->
  t

(** [run pa cpu image] — {!run_model} on [model pa cpu]. *)
val run :
  ?config:config ->
  ?pool:Parallel.Pool.t ->
  ?cache:Cache.t ->
  Poweran.t ->
  Cpu.t ->
  Isa.Asm.image ->
  t

(** [run_fragment ~is_end ~entry cpu image] — symbolic execution of a
    program fragment: the reset vector is re-pointed at [entry] and the
    machine boots straight into it, so the fragment is explored from the
    conservative all-X entry state (every register, SR and RAM word is
    X; only the PC resets). The static tier characterizes each basic
    block this way; [is_end] decides where the fragment stops (typically
    the first fetch outside the block). *)
val run_fragment :
  ?pool:Parallel.Pool.t ->
  is_end:(Gatesim.Trace.cycle -> bool) ->
  max_cycles_per_path:int ->
  max_paths:int ->
  Cpu.t ->
  Isa.Asm.image ->
  entry:int ->
  Gatesim.Trace.tree * Gatesim.Sym.stats

(** [run_concrete pa cpu image ~inputs] — a concrete (input-based)
    execution for profiling and validation; [inputs] are
    [(address, words)] pokes into RAM. Returns the cycle records and the
    observed per-cycle power trace. *)
val run_concrete :
  Poweran.t ->
  Cpu.t ->
  Isa.Asm.image ->
  inputs:(int * int list) list ->
  Gatesim.Trace.cycle array * float array

(** Cycles of interest of an analysis (Section 3.5). *)
val cois : ?top:int -> ?min_gap:int -> Poweran.t -> t -> Coi.t list
