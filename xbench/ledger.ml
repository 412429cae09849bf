(* The per-layer ledger of a traced run. Each probe calls one layer's
   public functions directly, inside a bench span, over the bundled
   kernels; the figures are then read back from those spans' self times
   (and from the program's own telemetry counters), so every number
   traces back to the run's Chrome trace. The ledger is the same for
   every workload: each metric names the end-to-end metric and workload
   it should move. *)

type def = { name : string; unit_ : string; better : string; moves : string }

let def name unit_ better moves = { name; unit_; better; moves }
let cli_cold = "cold_analyses_per_s @ cli-suite"
let serve_all = "rtt_p50_ms, rtt_p99_ms, requests_per_s @ serve-mix"

let elaboration =
  "cold_analyses_per_s, warm_analyses_per_s @ cli-suite; setup_s @ \
   static-suite, serve-mix"

let static_moves = "analyses_per_s @ static-suite; nothing @ cli-suite"
let invariant = "none: identical under any speed-only change"

let parallel_moves =
  "cold_analyses_per_s @ cli-suite; analyses_per_s @ static-suite (block \
   fan-out only)"

let fork_share =
  "none: the share of the suite a fork-only optimization can reach"

let defs =
  [
    def "cpu.build_ms" "ms" "lower" elaboration;
    def "core.poweran_ms" "ms" "lower" elaboration;
    def "netlist.specialize_ms" "ms" "lower" elaboration;
    def "gatesim.explore_ms.forking" "ms" "lower" cli_cold;
    def "gatesim.explore_ms.straight" "ms" "lower" cli_cold;
    def "gatesim.sim_cycles" "count" "lower" invariant;
    def "gatesim.paths" "count" "lower" invariant;
    def "gatesim.forks" "count" "lower" invariant;
    def "gatesim.dedup_hits" "count" "higher" invariant;
    def "gatesim.cycles_per_s" "1/s" "higher" cli_cold;
    def "gatesim.words_per_cycle" "words/cycle" "lower" cli_cold;
    def "gatesim.gang_occupancy" "ratio" "higher" cli_cold;
    def "gatesim.concrete_ms" "ms" "lower" "rtt_p99_ms, requests_per_s @ serve-mix";
    def "gatesim.forking_cycles_pct" "%" "higher" fork_share;
    def "gatesim.forking_analyses_pct" "%" "higher" fork_share;
    def "parallel.speedup.forking" "x" "higher" parallel_moves;
    def "parallel.speedup.straight" "x" "higher" parallel_moves;
    def "parallel.steal_ratio" "ratio" "higher" parallel_moves;
    def "core.peak_power_ms" "ms" "lower" cli_cold;
    def "core.peak_energy_ms" "ms" "lower" cli_cold;
    def "core.priced_cycles" "count" "lower" invariant;
    def "cache.store_ms" "ms" "lower" cli_cold;
    def "cache.bytes_written" "MB" "lower" cli_cold;
    def "cache.disk_hit_ms" "ms" "lower" "warm_analyses_per_s @ cli-suite";
    def "cache.mem_hit_us" "us" "lower" "rtt_p50_ms @ serve-mix";
    def "cache.hit_ratio" "ratio" "higher" "rtt_p50_ms @ serve-mix";
    def "static.cfg_ms" "ms" "lower" static_moves;
    def "static.blockchar_ms" "ms" "lower" static_moves;
    def "static.ipet_ms" "ms" "lower" static_moves;
    def "static.blocks" "count" "lower" invariant;
    def "serve.exec_mean_ms" "ms" "lower" serve_all;
    def "serve.queue_wait_mean_ms" "ms" "lower" serve_all;
    def "serve.transport_ms" "ms" "lower" serve_all;
    def "serve.render_ms" "ms" "lower" serve_all;
    def "explain.report_ms" "ms" "lower" serve_all;
    def "serve.rejected" "count" "lower" serve_all;
    def "bench.unaccounted_pct" "%" "lower"
      "accounting: this workload's end-to-end time the layers above do not \
       cover";
    def "telemetry.overhead_pct" "%" "lower"
      "none: the cost of tracing this workload";
  ]

let span = Spans.span
let per_kernel = Spans.per_kernel

let bench_of k =
  List.find
    (fun b -> b.Benchprogs.Bench.name = k)
    (Benchprogs.Bench.all @ Benchprogs.Extended.all)

let config_of b =
  {
    Core.Analyze.default_config with
    Core.Analyze.loop_bound = b.Benchprogs.Bench.loop_bound;
    max_paths = b.Benchprogs.Bench.max_paths;
  }

(* Algorithm 1 on a fresh engine, configured as Core.Analyze.run does. *)
let explore ?pool cpu img (config : Core.Analyze.config) =
  let e =
    Gatesim.Engine.create
      ~spec:(Core.Analyze.specialization_for cpu)
      cpu.Cpu.netlist ~ports:cpu.Cpu.ports ~mem:(Cpu.mem_of_image img)
  in
  Gatesim.Sym.run ?pool e
    {
      (Gatesim.Sym.default_config
         ~is_end:(Cpu.is_end_cycle ~halt_addr:img.Isa.Asm.halt_addr))
      with
      Gatesim.Sym.max_cycles_per_path = config.max_cycles_per_path;
      max_paths = config.max_paths;
      revisit_limit = config.revisit_limit;
    }

let counter_delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  float_of_int (get after - get before)

(* Run every probe with the run's sink installed; returns the function
   that turns the spans' self times into the ledger's values. *)
let probe (env : Util.env) ~(counts : (string * Workload.counts) list) =
  let check ok what = Util.record env.tally ok ("ledger: " ^ what) in
  let kernels = Refs.kernels in
  (* cpu / netlist: what every process pays once *)
  let elaborate () =
    let cpu = span "cpu.build" Cpu.build in
    ignore
      (span "netlist.specialize" (fun () ->
           Netlist.Specialize.compute cpu.Cpu.netlist
             ~reset:cpu.Cpu.ports.Gatesim.Engine.reset));
    (cpu, span "core.poweran" (fun () -> Core.Analyze.poweran_for cpu))
  in
  ignore (elaborate ());
  ignore (elaborate ());
  let cpu, pa = elaborate () in
  ignore (Core.Analyze.specialization_for cpu);
  let progs =
    List.map
      (fun k ->
        let b = bench_of k in
        (k, Benchprogs.Bench.assemble b, config_of b))
      kernels
  in
  (* gatesim / core: exploration at -jN, with the engine counters *)
  let gang = Telemetry.Histogram.make "sym.gang_width" in
  let gang_count0, gang_sum0, _ = Telemetry.Histogram.totals gang in
  let c0 = Telemetry.counters () in
  let explored =
    List.map
      (fun (k, img, config) ->
        let tree, (st : Gatesim.Sym.stats) =
          span (per_kernel "gatesim.explore.jN" k) (fun () ->
              explore ?pool:(Parallel.auto ()) cpu img config)
        in
        check
          ((st.paths, st.forks, st.dedup_hits, st.total_cycles) = List.assoc k counts)
          (k ^ " simulated counts differ from set-up");
        (k, img, config, tree, st))
      progs
  in
  let c1 = Telemetry.counters () in
  let gang_count1, gang_sum1, _ = Telemetry.Histogram.totals gang in
  let priced = ref 0 in
  let reference =
    List.map
      (fun (k, _, config, tree, _) ->
        let pp =
          span (per_kernel "core.peak_power" k) (fun () -> Core.Peak_power.of_tree pa tree)
        in
        let pe =
          span (per_kernel "core.peak_energy" k) (fun () ->
              Core.Peak_energy.of_tree pa tree ~loop_bound:config.Core.Analyze.loop_bound)
        in
        priced := !priced + Array.length pp.Core.Peak_power.flattened;
        (k, (pp.Core.Peak_power.peak, pe.Core.Peak_energy.energy)))
      explored
  in
  (* parallel: the same explorations on one domain *)
  List.iter
    (fun (k, img, config) ->
      let _, (st : Gatesim.Sym.stats) =
        span (per_kernel "gatesim.explore.j1" k) (fun () -> explore cpu img config)
      in
      check
        ((st.paths, st.forks, st.dedup_hits, st.total_cycles) = List.assoc k counts)
        (k ^ " simulated counts differ at -j1"))
    progs;
  (* cache: whole analyses with no cache, a fresh disk cache, then the
     disk and memory layers of a second cache over the same directory *)
  let serve_dir = Serve_mix.dir env (-1) in
  let dir = Filename.concat serve_dir "cache" in
  let cold = Cache.create ~dir () in
  let whole layer cache =
    List.iter
      (fun (k, img, config) ->
        let a =
          span (per_kernel layer k) (fun () ->
              Core.Analyze.run ~config ?cache pa cpu img)
        in
        check
          ((a.Core.Analyze.peak_power, a.peak_energy.Core.Peak_energy.energy)
          = List.assoc k reference)
          (k ^ " " ^ layer ^ " bounds differ from the layer-by-layer ones"))
      progs
  in
  whole "cache.nocache" None;
  whole "cache.cold" (Some cold);
  let bytes_written = float_of_int (snd (Cache.disk_stats cold)) /. 1e6 in
  let warm = Some (Cache.create ~dir ()) in
  whole "cache.disk_hit" warm;
  whole "cache.mem_hit" warm;
  (* static: CFG, every block from the all-X entry, then the combine
     over pre-characterized blocks *)
  let blocks = ref 0 in
  List.iter
    (fun (k, img, config) ->
      match span (per_kernel "static.cfg" k) (fun () -> Static.Cfg.extract img) with
      | Error e -> check false (k ^ " cfg: " ^ Static.Cfg.error_to_string e)
      | Ok cfg ->
        List.iter
          (fun b ->
            ignore
              (span (per_kernel "static.blockchar" k) (fun () ->
                   Static.Blockchar.characterize pa cpu img b)))
          cfg.Static.Cfg.c_blocks;
        let cache = Cache.create ~mem_entries:100_000 () in
        let ipet () =
          Static.Ipet.analyze ~cache ~name:k
            ~loop_bound:config.Core.Analyze.loop_bound pa cpu img
        in
        (match (ipet (), span (per_kernel "static.ipet" k) ipet) with
        | Ok s0, Ok s1 ->
          blocks := !blocks + s1.Static.Ipet.s_blocks;
          check
            (s0.s_peak_power_w = s1.s_peak_power_w
            && s0.s_peak_energy_j = s1.s_peak_energy_j)
            (k ^ " static bound differs over cached blocks")
        | _ -> check false (k ^ " static tier failed")))
    progs;
  (* explain / concrete: in-process, over the cached exact analyses *)
  let ctx = Xbound.Ctx.create ~cache:(Cache.create ~dir ()) () in
  List.iter
    (fun k ->
      match Result.bind (Xbound.bench k) (Xbound.analyze ~ctx) with
      | Error e -> check false (k ^ " explain: " ^ Xbound.Error.to_string e)
      | Ok a ->
        ignore
          (span (per_kernel "explain.report" k) (fun () ->
               Explain.Report.to_table (Xbound.explain a)));
        let b = bench_of k in
        let inputs =
          [ (Benchprogs.Bench.input_base, b.Benchprogs.Bench.gen_inputs ~seed:(8 + env.seed)) ]
        in
        check
          (Result.is_ok
             (span (per_kernel "gatesim.concrete" k) (fun () ->
                  Xbound.run_concrete a.program ~inputs)))
          (k ^ " run_concrete failed"))
    kernels;
  (* serve: a short serve-mix window on a daemon over the cache
     directory above, so its exact analyses start on disk; stopping it
     removes the directory *)
  let serve_refs = Serve_mix.prepare env in
  let t = Serve_mix.setup env serve_refs (-1) in
  let sw = Serve_mix.window env t ~traced:true ~seconds:(min env.seconds 3.) in
  let c = Daemon.connect t.daemon in
  for _ = 1 to 200 do
    ignore (span "serve.transport" (fun () -> Daemon.rpc c Wire.Request.Health))
  done;
  Serve.Client.close c;
  ignore (Serve_mix.finish env t);
  Hashtbl.iter
    (fun _ resp -> ignore (span "serve.render" (fun () -> Serve.Render.to_string resp)))
    serve_refs;
  (* the values, once the spans are in *)
  let forking =
    List.filter_map
      (fun (k, _, _, _, (st : Gatesim.Sym.stats)) -> if st.forks > 0 then Some k else None)
      explored
  in
  let straight = List.filter (fun k -> not (List.mem k forking)) kernels in
  let stat f =
    float_of_int
      (List.fold_left (fun acc (_, _, _, _, st) -> acc + f st) 0 explored)
  in
  let sim_cycles = stat (fun st -> st.Gatesim.Sym.total_cycles) in
  let forking_cycles =
    float_of_int
      (List.fold_left
         (fun acc (k, _, _, _, (st : Gatesim.Sym.stats)) ->
           if List.mem k forking then acc + st.total_cycles else acc)
         0 explored)
  in
  let gang_width =
    (Gatesim.Sym.default_config ~is_end:(fun _ -> false)).Gatesim.Sym.gang_width
  in
  fun tbl ->
    let sum layer ks = Spans.sum_kernels tbl layer ks in
    let delta = counter_delta c0 c1 in
    let explore_s = sum "gatesim.explore.jN" kernels in
    let speedup ks =
      let jn = sum "gatesim.explore.jN" ks in
      if jn > 0. then sum "gatesim.explore.j1" ks /. jn else nan
    in
    [
      ("cpu.build_ms", 1e3 *. Spans.mean tbl "cpu.build");
      ("core.poweran_ms", 1e3 *. Spans.mean tbl "core.poweran");
      ("netlist.specialize_ms", 1e3 *. Spans.mean tbl "netlist.specialize");
      ("gatesim.explore_ms.forking", 1e3 *. sum "gatesim.explore.jN" forking);
      ("gatesim.explore_ms.straight", 1e3 *. sum "gatesim.explore.jN" straight);
      ("gatesim.sim_cycles", sim_cycles);
      ("gatesim.paths", stat (fun st -> st.Gatesim.Sym.paths));
      ("gatesim.forks", stat (fun st -> st.Gatesim.Sym.forks));
      ("gatesim.dedup_hits", stat (fun st -> st.Gatesim.Sym.dedup_hits));
      ("gatesim.cycles_per_s", sim_cycles /. explore_s);
      ( "gatesim.words_per_cycle",
        delta "engine.words_evaluated" /. delta "engine.cycles" );
      ( "gatesim.gang_occupancy",
        if gang_count1 > gang_count0 then
          Int64.to_float (Int64.sub gang_sum1 gang_sum0)
          /. float_of_int (gang_count1 - gang_count0)
          /. float_of_int gang_width
        else 0. );
      ("gatesim.concrete_ms", 1e3 *. Spans.mean_layer tbl "gatesim.concrete");
      ("gatesim.forking_cycles_pct", 100. *. forking_cycles /. sim_cycles);
      ( "gatesim.forking_analyses_pct",
        100. *. float_of_int (List.length forking) /. float_of_int (List.length kernels) );
      ("parallel.speedup.forking", speedup forking);
      ("parallel.speedup.straight", speedup straight);
      ( "parallel.steal_ratio",
        let spawned = delta "pool.spawn" in
        if spawned > 0. then delta "pool.steal" /. spawned else 0. );
      ("core.peak_power_ms", 1e3 *. sum "core.peak_power" kernels);
      ("core.peak_energy_ms", 1e3 *. sum "core.peak_energy" kernels);
      ("core.priced_cycles", float_of_int !priced);
      ( "cache.store_ms",
        1e3 *. (sum "cache.cold" kernels -. sum "cache.nocache" kernels) );
      ("cache.bytes_written", bytes_written);
      ("cache.disk_hit_ms", 1e3 *. sum "cache.disk_hit" kernels);
      ("cache.mem_hit_us", 1e6 *. Spans.mean_layer tbl "cache.mem_hit");
      ("cache.hit_ratio", List.assoc "cache.hit_ratio" sw.layers);
      ("static.cfg_ms", 1e3 *. sum "static.cfg" kernels);
      ("static.blockchar_ms", 1e3 *. sum "static.blockchar" kernels);
      ( "static.ipet_ms",
        1e3 *. (sum "static.ipet" kernels -. sum "static.cfg" kernels) );
      ("static.blocks", float_of_int !blocks);
      ("serve.exec_mean_ms", List.assoc "serve.exec_mean_ms" sw.layers);
      ("serve.queue_wait_mean_ms", List.assoc "serve.queue_wait_mean_ms" sw.layers);
      ("serve.transport_ms", 1e3 *. Spans.mean tbl "serve.transport");
      ("serve.render_ms", 1e3 *. Spans.mean tbl "serve.render");
      ("explain.report_ms", 1e3 *. Spans.mean_layer tbl "explain.report");
      ("serve.rejected", List.assoc "serve.rejected" sw.layers);
    ]
