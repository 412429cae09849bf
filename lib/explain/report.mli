(** Bound provenance: why the peak power/energy bound is what it is.

    The paper's X-based bound is actionable because peak power is pinned
    to specific cycles (the cycles of interest), the instructions in
    flight there, and the modules that switch — that attribution is what
    the Section 5 peak-power software optimizations steer by. This
    module assembles it into one report:

    - per-COI attribution: module-level power breakdown (which sums,
      exactly, to that cycle's bounded power), the gate-class split, and
      the executing/fetching instructions;
    - execution-tree observability: per-cycle X-density, fork/merge
      counts and seen-set statistics from Algorithm 1 ({!Core.Treestat}).

    The report depends only on the analysis, never on the telemetry of
    the process that built it, so the CLI and the daemon render the
    same bytes; phase timings come from [--stats] or the daemon's
    [Stats].

    Exporters: a human-readable table, JSON (everything, including the
    density series), and CSV (the per-COI module attribution rows). *)

type coi_report = {
  cycle_index : int;
  power_w : float;  (** this cycle's bounded power *)
  share_of_peak : float;  (** [power_w /. peak_power_w] *)
  state : string;  (** FSM state name *)
  pc : int option;
  exec : string;  (** executing instruction *)
  fetching : string option;  (** on FETCH cycles: the incoming one *)
  modules : (string * float) list;  (** per-module W, descending *)
  classes : (string * float) list;  (** per gate-class W, descending *)
}

type tree_obs = {
  nets : int;
  segments : int;
  fork_nodes : int;
  seen_edges : int;  (** merges into already-explored states *)
  end_paths : int;
  distinct_states : int;  (** Algorithm 1 seen-set cardinality *)
  max_path_cycles : int;
  paths : int;  (** from {!Gatesim.Sym.stats} *)
  forks : int;
  dedup_hits : int;  (** line-19 seen-state cuts *)
  total_cycles : int;
  x_density : float array;  (** per flattened cycle *)
  x_density_mean : float;
  x_density_max : float;
  x_density_at_peak : float;  (** density at the peaking cycle *)
}

type t = {
  program : string;
  peak_power_w : float;
  peak_index : int;
  peak_energy_j : float;
  peak_energy_cycles : int;
  npe_j_per_cycle : float;
  cois : coi_report list;
  tree : tree_obs;
}

(** [build ~name pa analysis] — assemble the report. [top]/[min_gap]
    select the cycles of interest as in {!Core.Analyze.cois} (default
    4 / 5). The execution tree is fetched once ({!Core.Analyze.tree}).
    [folded] (typically
    {!Core.Analyze.folded_pred}) relabels proven-constant gates into a
    ["constant"] class in each COI's class split — sums are unchanged;
    pass it regardless of the engine's specialization mode so reports
    are identical either way. *)
val build :
  ?top:int ->
  ?min_gap:int ->
  ?folded:(int -> bool) ->
  name:string ->
  Poweran.t ->
  Core.Analyze.t ->
  t

(** Largest-first prefix of a COI's module attribution (default 3). *)
val top_modules : ?n:int -> coi_report -> (string * float) list

(** Human-readable report. Each COI block ends with the attribution sum
    next to the cycle's bounded power (they agree to rounding). *)
val to_table : t -> string

val to_json : t -> Ejson.t
val to_json_string : t -> string

(** One row per (COI, module):
    [program,coi_cycle,power_mw,module,module_mw,share]. *)
val to_csv : t -> string
