(** The stable public API of the xbound analysis tool.

    Everything the examples, the CLI, the bench harness and external
    users need, without reaching into [Core.*] / [Report.*] internals:
    build a {!program} (from a benchmark name, an assembly AST, assembly
    source text, or an assembled image), then {!analyze} it into
    guaranteed peak power/energy bounds. All failures are values — a
    typed {!Error.t} instead of [failwith] escapes — and every heavy
    entry point takes one consolidated {!Ctx.t} execution context
    bundling the standard knobs: an optional content-addressed
    {!Cache.t}, a worker-domain count, and an optional {!Telemetry.t}
    sink for spans/counters/trace export.

    The processor (netlist + power context) is the one {!model}: it and
    its cache-key digests are baked in at build time, and it is loaded
    at most once per process, on the first call that needs gates, and
    shared by every call. *)

(** {1 Bound tiers}

    Every bound carries the tier that produced it:

    - [Exact] — Algorithm 1 whole-program symbolic execution; the tight
      bound, but exploration cost grows with the program's path space.
    - [Static] — CFG extraction + per-block characterization + an
      IPET-style loop-nest longest-path combiner ({!Static.Ipet}).
      Always terminates, always dominates the exact bound for the same
      [loop_bound], and is typically much looser on energy.
    - [Auto] — static first; escalate to exact when the static cycle
      bound says exact exploration is feasible. A returned analysis
      never carries [Auto] — it resolves to the tier that produced it. *)

module Tier = Core.Tier

(** A bound value with its provenance: the producing tier and the
    analysis version it was computed under. *)
module Bound : sig
  type t = { value : float; tier : Tier.t; analysis_version : int }

  (** Tag a value as exact-tier, at the current analysis version. *)
  val exact : float -> t

  (** Tag a value as static-tier, at the current analysis version. *)
  val static : float -> t
end

module Error : sig
  type t =
    | Parse of { file : string; line : int; message : string }
        (** assembly source text rejected by the parser *)
    | Assembly of { program : string; message : string }
        (** AST rejected by the assembler (layout, undefined symbol...) *)
    | Netlist of string
        (** processor elaboration failed; the facade never returns it
            (its model is elaborated at build time), but the wire code
            stays for peers that do *)
    | Analysis of { program : string; message : string }
        (** symbolic analysis failed (path limit, unbounded loop...) *)
    | Static_cfg of { program : string; message : string }
        (** the static tier cannot bound this program (indirect branch,
            irreducible loop, recursion...) — see {!Static.Cfg.error} *)
    | Cache of string  (** cache directory unusable *)
    | Unknown_benchmark of { name : string; available : string list }
    | Overloaded of { queued : int; capacity : int }
        (** the serve scheduler's admission queue was full — the
            429-style typed rejection; retry later or as batch *)
    | Protocol of string
        (** malformed wire traffic: bad frame, bad JSON, unsupported
            protocol version *)

  (** One-line diagnostic, suitable for stderr. For
      [Unknown_benchmark] with more than ~10 bundled benchmarks the
      message suggests the closest name by edit distance instead of
      dumping the whole list. *)
  val to_string : t -> string

  val pp : Format.formatter -> t -> unit

  (** The stable wire discriminant for this constructor (["parse"],
      ["overloaded"], ...). Part of the serve protocol: never renamed. *)
  val code : t -> string

  (** JSON image shipped by the serve protocol: a [code] member plus the
      constructor's fields. [of_wire (to_wire e) = Some e] for every
      error value. *)
  val to_wire : t -> Explain.Ejson.t

  (** [None] on an unknown code or missing fields (the caller degrades
      to {!Protocol}). *)
  val of_wire : Explain.Ejson.t -> t option
end

(** {1 Execution context}

    Every heavy entry point takes one consolidated {!Ctx.t}. (The
    pre-[Ctx] per-call [?cache]/[?jobs] optionals are gone: [Ctx.t] is
    the only way to pass options.) *)

module Ctx : sig
  type t = {
    cache : Cache.t option;
        (** content-addressed result cache (memory + optional disk) *)
    jobs : int option;
        (** process-wide worker-domain count; [None] keeps the current
            setting (the [--jobs] flag / recommended count) *)
    telemetry : Telemetry.t option;
        (** when set, installed as the ambient sink for the duration of
            the call: spans, counters and histograms are recorded and
            the call's per-phase timings appear on the result *)
    tier : Tier.t;
        (** which bound tier {!analyze} runs (default [Exact]) *)
    specialize : bool;
        (** run engines on the application-specialized gate program
            (default [true]). Bounds, trees and reports are bit-identical
            either way — the flag exists for differential testing and as
            an escape hatch, not as a precision trade-off. *)
  }

  (** No cache, inherited job count, no telemetry, exact tier,
      specialization on. *)
  val default : t

  val create :
    ?cache:Cache.t ->
    ?jobs:int ->
    ?telemetry:Telemetry.t ->
    ?tier:Tier.t ->
    ?specialize:bool ->
    unit ->
    t
end

(** {1 The processor model} *)

(** The model every facade call analyzes: {!Core.Analyze.build_standard},
    elaborated and digested by a generator at build time, so an
    exact-tier cache hit neither elaborates the processor nor digests
    it. [elaborate] unmarshals {!baked_model} on first use, exactly once
    even when the first uses are concurrent (executor threads, pool
    domains), under an ["elaborate"] telemetry span; explorations, the
    power trace, {!explain}, {!cois}, {!run_concrete}, {!optimize} and
    the static tier all go through it. *)
val model : Core.Analyze.model

(** The bytes {!model}'s [elaborate] unmarshals:
    [Marshal.to_string (Core.Analyze.build_standard ()) []], one marshal
    of the pair, so the power context's netlist is physically the CPU's. *)
val baked_model : string

(** {1 Programs} *)

(** An analyzable application: an assembled image plus its analysis
    knobs. *)
type program

val name : program -> string
val image : program -> Isa.Asm.image

(** [of_image ?name ?loop_bound ?max_paths image] — wrap an already
    assembled image. [loop_bound] is the Seen-edge unroll bound for
    energy analysis (default 16); [max_paths] bounds Algorithm 1's
    exploration (default 4096). *)
val of_image :
  ?name:string -> ?loop_bound:int -> ?max_paths:int -> Isa.Asm.image -> program

(** [of_ast ?loop_bound ?max_paths ast] — assemble an {!Isa.Asm.program}
    AST. *)
val of_ast :
  ?loop_bound:int ->
  ?max_paths:int ->
  Isa.Asm.program ->
  (program, Error.t) Stdlib.result

(** [of_source ?name ?loop_bound ?max_paths text] — parse and assemble
    MSP430-subset assembly source text ([name] is used in
    diagnostics). *)
val of_source :
  ?name:string ->
  ?loop_bound:int ->
  ?max_paths:int ->
  string ->
  (program, Error.t) Stdlib.result

(** [bench name] — a bundled benchmark (paper suite + extended kernels),
    with its tuned per-benchmark analysis knobs. *)
val bench : string -> (program, Error.t) Stdlib.result

(** All bundled benchmarks as [(name, description)]. *)
val benchmarks : unit -> (string * string) list

(** {1 Analysis} *)

(** Tier-specific escape hatch to the full result. *)
type detail =
  | Exact_detail of Core.Analyze.t
  | Static_detail of Static.Ipet.t

type analysis = {
  program : program;
  tier : Tier.t;  (** the tier that produced this result (never [Auto]) *)
  peak_power : Bound.t;  (** guaranteed peak power bound, W *)
  peak_index : int;
      (** peaking cycle in the flattened trace (0 for static tier) *)
  peak_energy : Bound.t;  (** guaranteed peak energy bound, J *)
  peak_energy_cycles : int;
      (** length of the worst-case path (static tier: the cycle bound) *)
  npe_j_per_cycle : float;  (** normalized peak energy, J/cycle *)
  paths : int;  (** explored execution paths (0 for static tier) *)
  forks : int;
  dedup_hits : int;  (** Algorithm 1 line-19 seen-state cuts *)
  total_cycles : int;  (** simulated cycles across all segments *)
  power_trace_w : float array;
      (** per-cycle peak power bound, W ([[||]] for static tier) *)
  phase_timings : (string * float) list;
      (** seconds per analysis phase (explore, peak-power, flatten,
          peak-energy, ...) recorded during this call; [[]] when no
          telemetry sink was active. Process-wide deltas: with
          concurrent analyses the phases of overlapping calls are
          attributed to all of them. *)
  counter_deltas : (string * int) list;
      (** pool/cache counter deltas over this call (same caveat);
          [[]] when no telemetry sink was active *)
  detail : detail;  (** escape hatch to the full tier-specific result *)
}

(** The bound values, unwrapped. *)
val peak_power_w : analysis -> float

val peak_energy_j : analysis -> float

(** The tier-specific details, as options. *)
val exact_detail : analysis -> Core.Analyze.t option

val static_detail : analysis -> Static.Ipet.t option

(** [analyze ?ctx program] — the paper's flow end to end under the
    context's {!Ctx.t.tier}: Algorithm 1 symbolic exploration (exact),
    the CFG/IPET pipeline (static), or static-then-exact (auto). [ctx]
    carries the standard knobs ({!Ctx.t}). Exact results are
    bit-identical at any job count and with telemetry on or off; the
    static bound always dominates the exact bound for the same
    [loop_bound]. *)
val analyze : ?ctx:Ctx.t -> program -> (analysis, Error.t) Stdlib.result

(** A concrete (input-based) execution, for profiling and for validating
    the bound. *)
type concrete = {
  cycles : int;
  peak_w : float;  (** observed peak power, W *)
  peak_cycle : int;
  trace_w : float array;
}

(** [run_concrete ?ctx program ~inputs] — simulate with concrete input
    words poked into RAM ([(address, words)] pairs). *)
val run_concrete :
  ?ctx:Ctx.t ->
  program ->
  inputs:(int * int list) list ->
  (concrete, Error.t) Stdlib.result

(** [cois analysis] — the cycles of interest (peak power spikes with
    instruction and per-module attribution, Section 3.5). [[]] for a
    static-tier analysis, which has no flattened trace. *)
val cois : ?top:int -> ?min_gap:int -> analysis -> Core.Coi.t list

val pp_coi : Format.formatter -> Core.Coi.t -> unit

(** {1 Bound provenance}

    Why the bound is what it is: per-COI module/gate-class power
    attribution, the instructions in flight at each COI, and
    execution-tree observability (per-cycle X-density, fork/merge and
    seen-set statistics). See {!Explain.Report} for the exporters
    (table, JSON, CSV) the [xbound explain] subcommand uses. *)

type explanation = Explain.Report.t

(** [explain analysis] — assemble the provenance report for an already
    computed exact-tier analysis. [top]/[min_gap] select the COIs as in
    {!cois}. The report depends only on the analysis (no telemetry of
    the calling process), so it is the same in the CLI and the daemon.
    It fetches the execution tree through {!Core.Analyze.tree}: from
    the cache when the analysis was cached, re-exploring
    deterministically if the tree entry is gone.

    @raise Invalid_argument on a static-tier analysis — its provenance
    is the per-block table in {!static_detail} (see
    {!Static.Ipet.to_table}). *)
val explain :
  ?ctx:Ctx.t -> ?top:int -> ?min_gap:int -> analysis -> explanation

(** {1 Optimization} *)

type optimization = {
  bench_name : string;
  chosen : string list;  (** names of the transforms kept *)
  base_peak_w : float;
  opt_peak_w : float;
  peak_reduction_pct : float;
  range_reduction_pct : float;
  perf_degradation_pct : float;
  energy_overhead_pct : float;
  base_trace_w : float array;
  opt_trace_w : float array;
  raw_opt : Report.Optrun.t;  (** escape hatch *)
}

(** [optimize ?ctx name] — greedy guided peak-power optimization of a
    bundled benchmark (Section 5.1): apply each transform, keep it only
    if it provably lowers the bound at acceptable cost. *)
val optimize : ?ctx:Ctx.t -> string -> (optimization, Error.t) Stdlib.result
