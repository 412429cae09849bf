(* Bound-provenance report: per-COI attribution + execution-tree
   observability. See report.mli. *)

type coi_report = {
  cycle_index : int;
  power_w : float;
  share_of_peak : float;
  state : string;
  pc : int option;
  exec : string;
  fetching : string option;
  modules : (string * float) list;
  classes : (string * float) list;
}

type tree_obs = {
  nets : int;
  segments : int;
  fork_nodes : int;
  seen_edges : int;
  end_paths : int;
  distinct_states : int;
  max_path_cycles : int;
  paths : int;
  forks : int;
  dedup_hits : int;
  total_cycles : int;
  x_density : float array;
  x_density_mean : float;
  x_density_max : float;
  x_density_at_peak : float;
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

let by_power_desc (_, a) (_, b) = Float.compare b a

let coi_of ?folded pa peak (c : Core.Coi.t) cycle =
  {
    cycle_index = c.Core.Coi.cycle_index;
    power_w = c.Core.Coi.power;
    share_of_peak = (if peak > 0. then c.Core.Coi.power /. peak else 0.);
    state = c.Core.Coi.state_name;
    pc = c.Core.Coi.pc;
    exec = c.Core.Coi.instr_text;
    fetching = c.Core.Coi.fetching_text;
    modules = List.sort by_power_desc c.Core.Coi.breakdown;
    classes =
      List.sort by_power_desc
        (Poweran.class_breakdown ?folded pa ~mode:`Max cycle);
  }

let build ?(top = 4) ?(min_gap = 5) ?folded ~name pa (a : Core.Analyze.t) =
  Telemetry.span "explain" @@ fun () ->
  let peak = a.Core.Analyze.peak_power in
  let tree = Core.Analyze.tree a in
  let flattened = Gatesim.Trace.flatten tree in
  let cois =
    List.map
      (fun (c : Core.Coi.t) ->
        coi_of ?folded pa peak c flattened.(c.Core.Coi.cycle_index))
      (Core.Coi.find ~image:a.Core.Analyze.image pa ~flattened
         ~trace:a.Core.Analyze.power_trace ~top ~min_gap)
  in
  let ts = Core.Treestat.compute tree in
  let mean, mx = Core.Treestat.density_stats ts in
  let st = a.Core.Analyze.sym_stats in
  let at_peak =
    let d = ts.Core.Treestat.x_density in
    if a.Core.Analyze.peak_index < Array.length d then
      d.(a.Core.Analyze.peak_index)
    else 0.
  in
  let pe = a.Core.Analyze.peak_energy in
  {
    program = name;
    peak_power_w = peak;
    peak_index = a.Core.Analyze.peak_index;
    peak_energy_j = pe.Core.Peak_energy.energy;
    peak_energy_cycles = pe.Core.Peak_energy.cycles;
    npe_j_per_cycle = pe.Core.Peak_energy.npe;
    cois;
    tree =
      {
        nets = ts.Core.Treestat.nets;
        segments = ts.Core.Treestat.segments;
        fork_nodes = ts.Core.Treestat.fork_nodes;
        seen_edges = ts.Core.Treestat.seen_edges;
        end_paths = ts.Core.Treestat.end_paths;
        distinct_states = ts.Core.Treestat.distinct_states;
        max_path_cycles = ts.Core.Treestat.max_path_cycles;
        paths = st.Gatesim.Sym.paths;
        forks = st.Gatesim.Sym.forks;
        dedup_hits = st.Gatesim.Sym.dedup_hits;
        total_cycles = st.Gatesim.Sym.total_cycles;
        x_density = ts.Core.Treestat.x_density;
        x_density_mean = mean;
        x_density_max = mx;
        x_density_at_peak = at_peak;
      };
  }

let top_modules ?(n = 3) c =
  List.filteri (fun i _ -> i < n) c.modules

(* ---------------- table ---------------- *)

let mw w = w *. 1e3

let to_table t =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "bound provenance: %s\n" t.program;
  pf "peak power bound:  %.4f mW at cycle %d of %d\n" (mw t.peak_power_w)
    t.peak_index t.tree.total_cycles;
  pf "peak energy bound: %.3f nJ over %d cycles (%.2f pJ/cycle)\n"
    (t.peak_energy_j *. 1e9) t.peak_energy_cycles
    (t.npe_j_per_cycle *. 1e12);
  pf "\nexecution tree (Algorithm 1):\n";
  pf "  %d paths (%d ended, %d merged into seen states), %d forks\n"
    t.tree.paths t.tree.end_paths t.tree.seen_edges t.tree.forks;
  pf "  %d segments, %d distinct states in the seen-set, %d dedup cuts\n"
    t.tree.segments t.tree.distinct_states t.tree.dedup_hits;
  pf "  longest path %d cycles, %d recorded cycles over %d nets\n"
    t.tree.max_path_cycles t.tree.total_cycles t.tree.nets;
  pf "  X-density: mean %.3f, max %.3f, at peak cycle %.3f\n"
    t.tree.x_density_mean t.tree.x_density_max t.tree.x_density_at_peak;
  List.iter
    (fun c ->
      pf "\nCOI cycle %d: %.4f mW (%.1f%% of peak)  %-9s pc=%s\n" c.cycle_index
        (mw c.power_w)
        (100. *. c.share_of_peak)
        c.state
        (match c.pc with Some p -> Printf.sprintf "0x%04x" p | None -> "x");
      pf "  exec: %s%s\n" c.exec
        (match c.fetching with
        | Some f -> "   fetching: " ^ f
        | None -> "");
      pf "  %-14s %10s %7s\n" "module" "mW" "share";
      List.iter
        (fun (m, p) ->
          pf "  %-14s %10.4f %6.1f%%\n" m (mw p)
            (if c.power_w > 0. then 100. *. p /. c.power_w else 0.))
        c.modules;
      let sum = List.fold_left (fun acc (_, p) -> acc +. p) 0. c.modules in
      pf "  %-14s %10.4f (cycle power %.4f mW, residual %.2f%%)\n" "sum"
        (mw sum) (mw c.power_w)
        (if c.power_w > 0. then 100. *. Float.abs (sum -. c.power_w) /. c.power_w
         else 0.);
      pf "  gate classes: %s\n"
        (String.concat ", "
           (List.filteri
              (fun i _ -> i < 4)
              (List.map
                 (fun (k, p) -> Printf.sprintf "%s %.4f mW" k (mw p))
                 c.classes))))
    t.cois;
  Buffer.contents b

(* ---------------- JSON ---------------- *)

let json_power_list l =
  Ejson.Arr
    (List.map
       (fun (name, w) ->
         Ejson.Obj [ ("name", Ejson.Str name); ("power_w", Ejson.Num w) ])
       l)

let to_json t =
  let coi c =
    Ejson.Obj
      [
        ("cycle", Ejson.Num (float_of_int c.cycle_index));
        ("power_w", Ejson.Num c.power_w);
        ("share_of_peak", Ejson.Num c.share_of_peak);
        ("state", Ejson.Str c.state);
        ( "pc",
          match c.pc with
          | Some p -> Ejson.Str (Printf.sprintf "0x%04x" p)
          | None -> Ejson.Null );
        ("exec", Ejson.Str c.exec);
        ( "fetching",
          match c.fetching with Some f -> Ejson.Str f | None -> Ejson.Null );
        ("modules", json_power_list c.modules);
        ("classes", json_power_list c.classes);
      ]
  in
  Ejson.Obj
    [
      ("program", Ejson.Str t.program);
      ("peak_power_w", Ejson.Num t.peak_power_w);
      ("peak_index", Ejson.Num (float_of_int t.peak_index));
      ("peak_energy_j", Ejson.Num t.peak_energy_j);
      ("peak_energy_cycles", Ejson.Num (float_of_int t.peak_energy_cycles));
      ("npe_j_per_cycle", Ejson.Num t.npe_j_per_cycle);
      ("cois", Ejson.Arr (List.map coi t.cois));
      ( "tree",
        Ejson.Obj
          [
            ("nets", Ejson.Num (float_of_int t.tree.nets));
            ("segments", Ejson.Num (float_of_int t.tree.segments));
            ("fork_nodes", Ejson.Num (float_of_int t.tree.fork_nodes));
            ("seen_edges", Ejson.Num (float_of_int t.tree.seen_edges));
            ("end_paths", Ejson.Num (float_of_int t.tree.end_paths));
            ( "distinct_states",
              Ejson.Num (float_of_int t.tree.distinct_states) );
            ( "max_path_cycles",
              Ejson.Num (float_of_int t.tree.max_path_cycles) );
            ("paths", Ejson.Num (float_of_int t.tree.paths));
            ("forks", Ejson.Num (float_of_int t.tree.forks));
            ("dedup_hits", Ejson.Num (float_of_int t.tree.dedup_hits));
            ("total_cycles", Ejson.Num (float_of_int t.tree.total_cycles));
            ("x_density_mean", Ejson.Num t.tree.x_density_mean);
            ("x_density_max", Ejson.Num t.tree.x_density_max);
            ("x_density_at_peak", Ejson.Num t.tree.x_density_at_peak);
            ( "x_density",
              Ejson.Arr
                (Array.to_list
                   (Array.map (fun d -> Ejson.Num d) t.tree.x_density)) );
          ] );
      (* Always empty: a report carries no telemetry of the process
         that built it, so the daemon and the CLI render the same
         bytes (timings come from --stats or the daemon's Stats). The
         keys stay so the layout is stable for readers of this JSON. *)
      ("phases_s", Ejson.Obj []);
      ("counters", Ejson.Obj []);
    ]

let to_json_string t = Ejson.to_string ~indent:2 (to_json t)

(* ---------------- CSV ---------------- *)

let to_csv t =
  let b = Buffer.create 512 in
  Buffer.add_string b "program,coi_cycle,power_mw,module,module_mw,share\n";
  List.iter
    (fun c ->
      List.iter
        (fun (m, p) ->
          Buffer.add_string b
            (Printf.sprintf "%s,%d,%.6f,%s,%.6f,%.4f\n" t.program
               c.cycle_index (mw c.power_w) m (mw p)
               (if c.power_w > 0. then p /. c.power_w else 0.)))
        c.modules)
    t.cois;
  Buffer.contents b
