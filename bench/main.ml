(* Experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md §4), plus Bechamel micro-benchmarks of the tool itself
   and the ablation studies.

   Usage:
     bench/main.exe                 run every table/figure
     bench/main.exe fig-5.1 ...     run selected experiments
     bench/main.exe micro           Bechamel micro-benchmarks
     bench/main.exe micro --smoke   tiny quota, for CI smoke runs
     bench/main.exe compare A B     diff two bench records (regression gate)
     bench/main.exe ablate          ablation studies
     bench/main.exe list            list experiment ids

   `micro` writes the machine-readable BENCH_micro.json snapshot and
   appends a timestamped record to BENCH_history.jsonl, so the perf
   trajectory accumulates across runs; `compare` diffs two such records
   (ns/run, phase seconds, cache and parallel speedup) against
   --tolerance and exits nonzero on a regression — CI runs it against
   the committed baseline.

   The knobs (-j/--jobs, --cache-dir, --no-cache, --trace, --stats) are
   the same ones the xbound CLI takes, defined once in [Cliterm]. *)

open Cmdliner

let list_experiments () =
  print_endline "experiments:";
  List.iter
    (fun (id, title, _) -> Printf.printf "  %-10s %s\n" id title)
    Report.Experiments.all;
  print_endline "  micro      bechamel micro-benchmarks (--smoke: tiny quota)";
  print_endline "  serve      daemon throughput/latency (--smoke: tiny quota)";
  print_endline "  compare    diff two bench records with --tolerance";
  print_endline "  ablate     ablation studies"

(* ---------------- micro-benchmarks ---------------- *)

(* Machine-readable mirror of the console output, so the perf trajectory
   is trackable across commits: run with -j 1 and -j N and compare the
   two files. *)
let write_bench_json entries cycles_per_run ~row_extras ~cache_json
    ~phases_json ~static_json ~gaps_json ~parallel_jobs ~parallel_speedup =
  let oc = open_out "BENCH_micro.json" in
  Printf.fprintf oc "{\n  \"jobs\": %d,\n  \"results\": [\n"
    (Parallel.default_jobs ());
  let last = List.length entries - 1 in
  List.iteri
    (fun i (name, ns) ->
      let runs_per_s = if ns > 0. then 1e9 /. ns else 0. in
      let cyc =
        match List.assoc_opt name cycles_per_run with
        | Some c -> Printf.sprintf ", \"cycles_per_s\": %.1f" (c *. runs_per_s)
        | None -> ""
      in
      let extra =
        match List.assoc_opt name row_extras with Some s -> s | None -> ""
      in
      Printf.fprintf oc
        "    {\"name\": %S, \"ns_per_run\": %.1f, \"runs_per_s\": %.3f%s%s}%s\n"
        name ns runs_per_s cyc extra
        (if i = last then "" else ","))
    entries;
  Printf.fprintf oc
    "  ],\n\
    \  \"phases\": %s,\n\
    \  \"cache\": %s,\n\
    \  \"static\": %s,\n\
    \  \"static_gap_pct\": %s,\n\
    \  \"parallel_jobs\": %d,\n\
    \  \"parallel_speedup\": %s\n\
     }\n"
    phases_json cache_json static_json gaps_json parallel_jobs
    (match parallel_speedup with
    | Some s -> Printf.sprintf "%.3f" s
    | None -> "null");
  close_out oc;
  prerr_endline "wrote BENCH_micro.json"

let iso8601_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* One record per micro run, newest last: the perf trajectory across
   commits/machines that BENCH_micro.json (a single snapshot) cannot
   show. `bench compare` reads the last record of a .jsonl file. *)
let append_history record =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 "BENCH_history.jsonl"
  in
  output_string oc (Explain.Ejson.to_string (Explain.Regress.to_history_json record));
  output_char oc '\n';
  close_out oc;
  prerr_endline "appended BENCH_history.jsonl"

(* Cold vs warm full-analysis timing through the content-addressed
   cache. The warm pass uses a second Cache.t on the same directory, so
   it measures a fresh process hitting the disk layer, not the in-memory
   LRU. Returns the JSON blob for BENCH_micro.json. *)
let bench_cache pa cpu img =
  let dir = Filename.temp_file "xbound-bench-cache" "" in
  Sys.remove dir;
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let digest_of (a : Core.Analyze.t) =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( a.Core.Analyze.peak_power,
              a.Core.Analyze.peak_index,
              a.Core.Analyze.peak_energy,
              a.Core.Analyze.power_trace )
            []))
  in
  let cold_cache = Cache.create ~dir () in
  let cold, cold_s = time (fun () -> Core.Analyze.run ~cache:cold_cache pa cpu img) in
  let warm_cache = Cache.create ~dir () in
  let warm, warm_s = time (fun () -> Core.Analyze.run ~cache:warm_cache pa cpu img) in
  let identical = String.equal (digest_of cold) (digest_of warm) in
  let speedup = if warm_s > 0. then cold_s /. warm_s else infinity in
  Printf.printf
    "%-28s cold %.3f s, warm %.3f s (%.0fx), bounds byte-identical: %b\n"
    "cache-analysis-tea8" cold_s warm_s speedup identical;
  print_endline ("cache counters (warm): " ^ Cache.counters_json warm_cache);
  let json =
    Printf.sprintf
      "{\"cold_s\": %.4f, \"warm_s\": %.5f, \"speedup\": %.1f, \
       \"bounds_identical\": %b, \"warm_counters\": %s}"
      cold_s warm_s speedup identical
      (Cache.counters_json warm_cache)
  in
  Cache.clear warm_cache;
  (try Sys.rmdir dir with Sys_error _ -> ());
  (json, cold_s, warm_s, speedup)

(* Cold vs warm static-tier timing through the "block" cache namespace,
   same two-Cache.t protocol as [bench_cache]. Returns the JSON blob and
   the warm ns/run for the results row that `bench compare` gates. *)
let bench_static pa cpu img (b : Benchprogs.Bench.t) =
  let dir = Filename.temp_file "xbound-bench-static" "" in
  Sys.remove dir;
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let run cache () =
    match
      Static.Ipet.analyze ~cache ~name:b.Benchprogs.Bench.name
        ~loop_bound:b.Benchprogs.Bench.loop_bound pa cpu img
    with
    | Ok s -> s
    | Error e -> failwith ("bench static: " ^ Static.Cfg.error_to_string e)
  in
  let cold_cache = Cache.create ~dir () in
  let _, cold_s = time (run cold_cache) in
  let warm_cache = Cache.create ~dir () in
  let s, warm_s = time (run warm_cache) in
  let speedup = if warm_s > 0. then cold_s /. warm_s else infinity in
  Printf.printf "%-28s cold %.3f s, warm %.4f s (%.0fx), %d blocks, %d loops\n"
    ("static-analysis-" ^ b.Benchprogs.Bench.name)
    cold_s warm_s speedup s.Static.Ipet.s_blocks s.Static.Ipet.s_loops;
  Cache.clear warm_cache;
  (try Sys.rmdir dir with Sys_error _ -> ());
  (cold_s, warm_s, speedup)

(* Static-vs-exact bound gap across the whole paper suite: the measured
   looseness of the static tier, and (as a side effect) a cross-check
   that the static bound dominates on every benchmark. *)
let static_gaps pa cpu =
  print_endline
    "static vs exact bound gap (paper suite; + means static is looser):";
  Printf.printf "  %-10s %12s %12s %8s %8s\n" "benchmark" "exact nJ"
    "static nJ" "e-gap%" "p-gap%";
  List.filter_map
    (fun (b : Benchprogs.Bench.t) ->
      let img = Benchprogs.Bench.assemble b in
      let a = Core.Analyze.run pa cpu img in
      match
        Static.Ipet.analyze ~name:b.Benchprogs.Bench.name
          ~loop_bound:b.Benchprogs.Bench.loop_bound pa cpu img
      with
      | Error e ->
        Printf.printf "  %-10s (static tier unavailable: %s)\n"
          b.Benchprogs.Bench.name
          (Static.Cfg.error_to_string e);
        None
      | Ok s ->
        let exact_e = a.Core.Analyze.peak_energy.Core.Peak_energy.energy in
        let exact_p = a.Core.Analyze.peak_power in
        let gap stat exact =
          if exact = 0. then 0. else (stat -. exact) /. exact *. 100.
        in
        let e_gap = gap s.Static.Ipet.s_peak_energy_j exact_e in
        let p_gap = gap s.Static.Ipet.s_peak_power_w exact_p in
        Printf.printf "  %-10s %12.3f %12.3f %+7.1f%% %+7.1f%%\n"
          b.Benchprogs.Bench.name (exact_e *. 1e9)
          (s.Static.Ipet.s_peak_energy_j *. 1e9)
          e_gap p_gap;
        if e_gap < 0. || p_gap < 0. then
          failwith
            (Printf.sprintf
               "bench static: static bound below exact on %s (soundness bug)"
               b.Benchprogs.Bench.name);
        Some (b.Benchprogs.Bench.name, e_gap))
    Benchprogs.Bench.all

let micro ~smoke () =
  let open Bechamel in
  let cpu = Cpu.build () in
  let pa = Core.Analyze.poweran_for cpu in
  let b = Benchprogs.Bench.find "tea8" in
  let img = Benchprogs.Bench.assemble b in
  let concrete_step =
    Test.make ~name:"concrete-100-cycles"
      (Staged.stage (fun () ->
           let mem = Cpu.mem_of_image img in
           Cpu.zero_ram mem;
           let e = Gatesim.Engine.create cpu.Cpu.netlist ~ports:cpu.Cpu.ports ~mem in
           Gatesim.Engine.set_port_in e (Array.make 16 Tri.Zero);
           Gatesim.Engine.set_reset e Tri.One;
           ignore (Gatesim.Engine.step e);
           ignore (Gatesim.Engine.step e);
           Gatesim.Engine.set_reset e Tri.Zero;
           for _ = 1 to 100 do
             ignore (Gatesim.Engine.step e)
           done))
  in
  let symbolic_tree =
    Test.make ~name:"symbolic-analysis-tea8"
      (Staged.stage (fun () -> ignore (Core.Analyze.run pa cpu img)))
  in
  (* Specialization ablation control: the identical analysis on the full
     gate program. The gap between this row and symbolic-analysis-tea8
     is the measured value of constant folding + program repacking. *)
  let symbolic_tree_nospec =
    Test.make ~name:"symbolic-analysis-tea8-nospec"
      (Staged.stage (fun () ->
           ignore (Core.Analyze.run ~specialize:false pa cpu img)))
  in
  (* Sequential tree exploration on an explicit one-worker pool: the
     in-process baseline the parallel variant above is compared to. *)
  let seq_pool = Parallel.Pool.create ~jobs:1 in
  let symbolic_tree_seq =
    Test.make ~name:"symbolic-analysis-tea8-j1"
      (Staged.stage (fun () -> ignore (Core.Analyze.run ~pool:seq_pool pa cpu img)))
  in
  (* Task-parallel exploration at the machine's worker count. The row
     name is a fixed literal ("-jN", not "-j8") so records from
     machines with different core counts still pair up in `bench
     compare`; the actual N travels as parallel_jobs, and compare only
     diffs parallel_speedup when both records used the same N. *)
  let par_jobs = Parallel.default_jobs () in
  let par_pool = Parallel.Pool.create ~jobs:par_jobs in
  let symbolic_tree_par =
    Test.make ~name:"symbolic-analysis-tea8-jN"
      (Staged.stage (fun () -> ignore (Core.Analyze.run ~pool:par_pool pa cpu img)))
  in
  (* div is the fork-heavy benchmark (tea8 never forks), so this is the
     one row whose inner loop actually exercises fork spawning and the
     gang-stepped sibling lanes. *)
  let img_div = Benchprogs.Bench.assemble (Benchprogs.Bench.find "div") in
  let symbolic_div =
    Test.make ~name:"symbolic-analysis-div-j1"
      (Staged.stage (fun () ->
           ignore (Core.Analyze.run ~pool:seq_pool pa cpu img_div)))
  in
  (* One fully instrumented, uncached reference analysis: its per-phase
     wall-time breakdown is mirrored into BENCH_micro.json, and the same
     run is exported as a Chrome trace for the CI artifact. *)
  let words_per_cycle ~specialize =
    (* counters are no-ops without an ambient sink, so install one for
       the measured run *)
    Telemetry.with_ambient (Telemetry.create ()) @@ fun () ->
    let before = Telemetry.counters () in
    let a = Core.Analyze.run ~specialize pa cpu img in
    let d = Telemetry.diff ~before ~after:(Telemetry.counters ()) in
    let get name = Option.value ~default:0 (List.assoc_opt name d) in
    ( a,
      float_of_int (get "engine.words_evaluated")
      /. float_of_int (max 1 (get "engine.cycles")) )
  in
  let _, wpc_spec = words_per_cycle ~specialize:true in
  let _, wpc_nospec = words_per_cycle ~specialize:false in
  let sp = Core.Analyze.specialization_for cpu in
  let gate_count = Netlist.gate_count cpu.Cpu.netlist in
  let spec_gate_count = gate_count - Netlist.Specialize.folded_count sp in
  Printf.printf
    "%-28s %d gates -> %d specialized (%d folded, %d swept), %.1f -> %.1f \
     words/cycle\n"
    "specialization-tea8" gate_count spec_gate_count
    (Netlist.Specialize.folded_count sp)
    (Netlist.Specialize.swept sp) wpc_nospec wpc_spec;
  let row_extras =
    let spec_row wpc spec_gates =
      Printf.sprintf
        ", \"gate_count\": %d, \"specialized_gate_count\": %d, \
         \"words_per_cycle\": %.1f"
        gate_count spec_gates wpc
    in
    [
      ("symbolic-analysis-tea8", spec_row wpc_spec spec_gate_count);
      ("symbolic-analysis-tea8-j1", spec_row wpc_spec spec_gate_count);
      ("symbolic-analysis-tea8-jN", spec_row wpc_spec spec_gate_count);
      ("symbolic-analysis-tea8-nospec", spec_row wpc_nospec gate_count);
      ("symbolic-analysis-div-j1", spec_row wpc_spec spec_gate_count);
    ]
  in
  let tel = Telemetry.create () in
  let a = Telemetry.with_ambient tel (fun () -> Core.Analyze.run pa cpu img) in
  Telemetry.write_chrome tel ~file:"BENCH_micro_trace.json";
  prerr_endline "wrote BENCH_micro_trace.json";
  let phases = Telemetry.phase_totals tel in
  let phases_json =
    "{"
    ^ String.concat ", "
        (List.map (fun (name, s) -> Printf.sprintf "%S: %.4f" name s) phases)
    ^ "}"
  in
  Printf.printf "%-28s %s\n" "phase-breakdown-tea8"
    (String.concat ", "
       (List.map (fun (name, s) -> Printf.sprintf "%s %.3fs" name s) phases));
  let tree = Core.Analyze.tree a in
  let peak_power =
    Test.make ~name:"algorithm2-peak-power"
      (Staged.stage (fun () -> ignore (Core.Peak_power.of_tree pa tree)))
  in
  let cpu_build =
    Test.make ~name:"cpu-elaboration" (Staged.stage (fun () -> ignore (Cpu.build ())))
  in
  (* What a cold facade call pays in its place: unmarshal the model the
     build baked in. *)
  let model_load =
    Test.make ~name:"model-load"
      (Staged.stage (fun () ->
           ignore (Marshal.from_string Xbound.baked_model 0 : Cpu.t * Poweran.t)))
  in
  (* Smoke mode trades estimate quality for wall time: one-twentieth of
     the quota still runs every benchmark at least once, which is what
     CI needs to catch crashes and gross regressions. *)
  let cfg =
    if smoke then Benchmark.cfg ~limit:3 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let sym_cycles = float_of_int a.Core.Analyze.sym_stats.Gatesim.Sym.total_cycles in
  let cycles_per_run =
    [
      (* 2 reset + 100 stepped cycles *)
      ("concrete-100-cycles", 102.);
      ("symbolic-analysis-tea8", sym_cycles);
      ("symbolic-analysis-tea8-nospec", sym_cycles);
      ("symbolic-analysis-tea8-j1", sym_cycles);
      ("symbolic-analysis-tea8-jN", sym_cycles);
      ("algorithm2-peak-power", float_of_int (Array.length a.Core.Analyze.power_trace));
    ]
  in
  let collected = ref [] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all
             (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
             Toolkit.Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            Printf.printf "%-28s %12.1f ns/run\n" name est;
            collected := (name, est) :: !collected
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        results)
    [
      concrete_step; symbolic_tree; symbolic_tree_nospec; symbolic_tree_seq;
      symbolic_tree_par; symbolic_div; peak_power; cpu_build; model_load;
    ];
  let cache_json, cold_s, warm_s, speedup = bench_cache pa cpu img in
  let st_cold_s, st_warm_s, st_speedup = bench_static pa cpu img b in
  let gaps = static_gaps pa cpu in
  let entries =
    List.rev !collected @ [ ("static-analysis-tea8", st_warm_s *. 1e9) ]
  in
  (* The headline speedup of the static tier: warm static analysis vs
     one exact symbolic exploration of the same program. *)
  let static_vs_exact =
    match List.assoc_opt "symbolic-analysis-tea8" entries with
    | Some exact_ns when st_warm_s > 0. -> exact_ns /. 1e9 /. st_warm_s
    | _ -> 0.
  in
  Printf.printf "%-28s %.0fx (warm static vs exact)\n" "static-vs-exact-tea8"
    static_vs_exact;
  let static_json =
    Printf.sprintf
      "{\"cold_s\": %.4f, \"warm_s\": %.5f, \"speedup\": %.1f, \
       \"vs_exact_speedup\": %.1f}"
      st_cold_s st_warm_s st_speedup static_vs_exact
  in
  let gaps_json =
    "{"
    ^ String.concat ", "
        (List.map (fun (n, g) -> Printf.sprintf "%S: %.2f" n g) gaps)
    ^ "}"
  in
  let parallel_speedup =
    match
      ( List.assoc_opt "symbolic-analysis-tea8-j1" entries,
        List.assoc_opt "symbolic-analysis-tea8-jN" entries )
    with
    | Some j1, Some jn when jn > 0. -> Some (j1 /. jn)
    | _ -> None
  in
  (match parallel_speedup with
  | Some s ->
    Printf.printf "%-28s %.2fx at -j%d\n" "parallel-speedup-tea8" s par_jobs
  | None -> ());
  write_bench_json entries cycles_per_run ~row_extras ~cache_json ~phases_json
    ~static_json ~gaps_json ~parallel_jobs:par_jobs ~parallel_speedup;
  append_history
    {
      Explain.Regress.label = "micro";
      timestamp = Some (iso8601_now ());
      jobs = Some (Parallel.default_jobs ());
      results = entries;
      phases;
      cache_cold_s = Some cold_s;
      cache_warm_s = Some warm_s;
      cache_speedup = Some speedup;
      parallel_jobs = Some par_jobs;
      parallel_speedup;
      static_gap_pct = gaps;
    }

(* ---------------- serve throughput ---------------- *)

(* Throughput and latency of the xbound serve daemon, measured in
   process: a server on a temp unix socket, N concurrent clients each
   firing repeated `analyze tea8` requests. After the first request
   warms the shared cache, every further one is an LRU hit — the number
   this records is the service overhead (framing, scheduling, cache
   lookup), which is exactly what the daemon exists to make cheap. The
   cold single-shot time is the CLI baseline the daemon is compared
   to. *)
let bench_serve ~smoke () =
  let clients = if smoke then 2 else 4 in
  let per_client = if smoke then 10 else 50 in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xbound-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let cache_dir = Filename.temp_file "xbound-bench-serve" "" in
  Sys.remove cache_dir;
  (* Cold single-shot baseline: what one CLI invocation pays, including
     the analysis itself (fresh cache, nothing warm). *)
  let cold_ctx = Xbound.Ctx.create ~cache:(Cache.create ~dir:cache_dir ()) () in
  let t0 = Unix.gettimeofday () in
  (match Serve.Exec.exec ~ctx:cold_ctx (Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact }) with
  | Ok _ -> ()
  | Error e -> failwith (Xbound.Error.to_string e));
  let cold_s = Unix.gettimeofday () -. t0 in
  let tel = Telemetry.create () in
  let h_rtt = Telemetry.Histogram.make "bench.serve.rtt_ns" in
  let reqs_per_s, p50_ms, p99_ms =
    Telemetry.with_ambient tel @@ fun () ->
    let server =
      match
        Serve.Server.start
          (Serve.Server.config ~workers:2 ~queue_capacity:64
             ~listen:(Serve.Addr.Unix_sock sock)
             ~ctx:
               (Xbound.Ctx.create ~cache:(Cache.create ~dir:cache_dir ()) ())
             ())
      with
      | Ok s -> s
      | Error m -> failwith ("bench serve: " ^ m)
    in
    Fun.protect ~finally:(fun () -> Serve.Server.stop server) @@ fun () ->
    let drive () =
      match Serve.Client.connect (Serve.Addr.Unix_sock sock) with
      | Error m -> failwith ("bench serve: " ^ m)
      | Ok client ->
        Fun.protect ~finally:(fun () -> Serve.Client.close client)
        @@ fun () ->
        for _ = 1 to per_client do
          let r0 = Telemetry.now_ns () in
          (match
             Serve.Client.rpc client (Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact })
           with
          | Ok _ -> ()
          | Error e -> failwith (Xbound.Error.to_string e));
          Telemetry.Histogram.observe h_rtt
            (Int64.sub (Telemetry.now_ns ()) r0)
        done
    in
    (* One warming request so the measured window is steady-state. *)
    (match Serve.Client.connect (Serve.Addr.Unix_sock sock) with
    | Error m -> failwith ("bench serve: " ^ m)
    | Ok client ->
      ignore (Serve.Client.rpc client (Wire.Request.Analyze { bench = "tea8"; tier = Xbound.Tier.Exact }));
      Serve.Client.close client);
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun _ -> Thread.create drive ()) in
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    let total = clients * per_client in
    let ms q =
      Int64.to_float (Telemetry.Histogram.percentile h_rtt q) /. 1e6
    in
    (float_of_int total /. dt, ms 0.5, ms 0.99)
  in
  let speedup = reqs_per_s *. cold_s in
  (* The server ran in-process under the same ambient sink, so its
     admission histograms are readable here: how deep the queue got and
     how long requests waited in it. *)
  let queue_depth_p99 =
    Int64.to_float
      (Telemetry.Histogram.percentile
         (Telemetry.Histogram.make "serve.queue_depth")
         0.99)
  in
  let queue_wait = Telemetry.Histogram.make "serve.queue_wait_ns" in
  let queue_wait_p50_ms =
    Int64.to_float (Telemetry.Histogram.percentile queue_wait 0.5) /. 1e6
  in
  let queue_wait_p99_ms =
    Int64.to_float (Telemetry.Histogram.percentile queue_wait 0.99) /. 1e6
  in
  Printf.printf
    "%-28s %.1f req/s (%d clients), rtt p50 %.2f ms, p99 %.2f ms\n"
    "serve-analyze-tea8" reqs_per_s clients p50_ms p99_ms;
  Printf.printf
    "%-28s depth p99 %.0f, wait p50 %.2f ms, p99 %.2f ms\n"
    "serve-queue" queue_depth_p99 queue_wait_p50_ms queue_wait_p99_ms;
  Printf.printf
    "%-28s %.3f s cold single-shot -> %.0fx warm daemon rate\n"
    "serve-vs-cold" cold_s speedup;
  (* Merge the serve row into BENCH_micro.json without disturbing the
     micro rows (bench compare ignores unknown members). *)
  let serve_json =
    Explain.Ejson.Obj
      [
        ("clients", Explain.Ejson.Num (float_of_int clients));
        ("requests", Explain.Ejson.Num (float_of_int (clients * per_client)));
        ("requests_per_s", Explain.Ejson.Num reqs_per_s);
        ("rtt_p50_ms", Explain.Ejson.Num p50_ms);
        ("rtt_p99_ms", Explain.Ejson.Num p99_ms);
        ("queue_depth_p99", Explain.Ejson.Num queue_depth_p99);
        ("queue_wait_p50_ms", Explain.Ejson.Num queue_wait_p50_ms);
        ("queue_wait_p99_ms", Explain.Ejson.Num queue_wait_p99_ms);
        ("cold_single_shot_s", Explain.Ejson.Num cold_s);
        ("speedup_vs_cold", Explain.Ejson.Num speedup);
      ]
  in
  let doc =
    match
      if Sys.file_exists "BENCH_micro.json" then
        Explain.Ejson.parse_opt
          (In_channel.with_open_text "BENCH_micro.json" In_channel.input_all)
      else None
    with
    | Some (Explain.Ejson.Obj members) ->
      Explain.Ejson.Obj
        (List.remove_assoc "serve" members @ [ ("serve", serve_json) ])
    | _ -> Explain.Ejson.Obj [ ("serve", serve_json) ]
  in
  Out_channel.with_open_text "BENCH_micro.json" (fun oc ->
      output_string oc (Explain.Ejson.to_string ~indent:2 doc);
      output_char oc '\n');
  prerr_endline "merged serve row into BENCH_micro.json";
  append_history
    {
      Explain.Regress.label = "serve";
      timestamp = Some (iso8601_now ());
      jobs = Some (Parallel.default_jobs ());
      results =
        [
          ("serve-analyze-tea8-warm", 1e9 /. reqs_per_s);
          ("serve-rtt-p50", p50_ms *. 1e6);
          ("serve-rtt-p99", p99_ms *. 1e6);
          ("serve-queue-depth-p99", queue_depth_p99);
          ("serve-queue-wait-p50", queue_wait_p50_ms *. 1e6);
          ("serve-queue-wait-p99", queue_wait_p99_ms *. 1e6);
        ];
      phases = [];
      cache_cold_s = Some cold_s;
      cache_warm_s = None;
      cache_speedup = Some speedup;
      parallel_jobs = None;
      parallel_speedup = None;
      static_gap_pct = [];
    };
  (* Leave no temp state behind. *)
  let cache = Cache.create ~dir:cache_dir () in
  Cache.clear cache;
  (try Sys.rmdir cache_dir with Sys_error _ -> ());
  try Sys.remove sock with Sys_error _ -> ()

(* ---------------- ablations (DESIGN.md §5) ---------------- *)

let ablate () =
  let cpu = Cpu.build () in
  let pa = Core.Analyze.poweran_for cpu in
  let lib = Stdcell.default in
  print_endline "Ablation 1: even/odd double-VCD vs naive single-file maximization";
  let b = Benchprogs.Bench.find "intAVG" in
  let img = Benchprogs.Bench.assemble b in
  let a = Core.Analyze.run pa cpu img in
  let path = Core.Analyze.flattened a in
  let tree = Core.Analyze.tree a in
  let via_vcd, _, _ =
    Core.Evenodd.peak_power_via_vcd pa lib ~initial:tree.Gatesim.Trace.initial path
  in
  let replayed = Core.Evenodd.replay ~initial:tree.Gatesim.Trace.initial path in
  let nl = cpu.Cpu.netlist in
  let both =
    Core.Evenodd.maximize lib nl ~parity:1
      (Core.Evenodd.maximize lib nl ~parity:0 replayed path)
      path
  in
  let single =
    Core.Evenodd.power_from_vcd pa ~n_cycles:(Array.length path)
      (Core.Evenodd.to_vcd nl both)
  in
  let pk s = fst (Poweran.peak_of s) in
  Printf.printf
    "  double-VCD peak %.4f mW; naive single-file peak %.4f mW (a single file\n\
    \  cannot maximize adjacent cycles simultaneously); direct bound %.4f mW\n"
    (pk via_vcd *. 1e3) (pk single *. 1e3)
    (a.Core.Analyze.peak_power *. 1e3);
  print_endline
    "Ablation 2: state dedup (Algorithm 1 line 19) on an input-dependent loop";
  (* a polling loop: without the seen-state cut, exploration would never
     terminate; higher revisit limits unroll it further *)
  let open Benchprogs.Bench.E in
  let poll_body =
    prologue
    @ [
        lbl "poll";
        mov (abs (Benchprogs.Bench.input_base)) (dreg 4);
        and_ (imm 1) (dreg 4);
        i (Isa.Insn.J (Isa.Insn.JNE, Isa.Insn.Sym "poll"));
      ]
  in
  let img2 =
    Isa.Asm.assemble
      {
        Isa.Asm.name = "poll";
        entry = "start";
        sections =
          [
            {
              Isa.Asm.org = Isa.Memmap.rom_base;
              items = (Isa.Asm.Label "start" :: poll_body) @ Isa.Asm.halt_items;
            };
          ];
      }
  in
  let run_with revisit =
    let mem = Cpu.mem_of_image img2 in
    let e = Gatesim.Engine.create cpu.Cpu.netlist ~ports:cpu.Cpu.ports ~mem in
    let t0 = Unix.gettimeofday () in
    let _, stats =
      Gatesim.Sym.run e
        {
          (Gatesim.Sym.default_config
             ~is_end:(Cpu.is_end_cycle ~halt_addr:img2.Isa.Asm.halt_addr))
          with
          Gatesim.Sym.revisit_limit = revisit;
          max_paths = 8192;
        }
    in
    (stats, Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun revisit ->
      let st, dt = run_with revisit in
      Printf.printf
        "  revisit=%d: %d paths, %d cycles, %d dedup hits, %.2fs (without the\n\
        \  cut the loop would explore forever)\n"
        revisit st.Gatesim.Sym.paths st.Gatesim.Sym.total_cycles
        st.Gatesim.Sym.dedup_hits dt)
    [ 0; 3 ];
  print_endline "Ablation 3: conservative X-activity marking contribution";
  let b4 = Benchprogs.Bench.find "mult" in
  let a4 = Core.Analyze.run pa cpu (Benchprogs.Bench.assemble b4) in
  let without_x =
    Array.map (fun cy -> Poweran.cycle_power_observed pa cy) (Core.Analyze.flattened a4)
  in
  Printf.printf
    "  mult: bound with X-activity %.4f mW; transitions-only (unsound!) %.4f mW\n"
    (a4.Core.Analyze.peak_power *. 1e3)
    (fst (Poweran.peak_of without_x) *. 1e3)

(* ---------------- bench compare (regression gate) ---------------- *)

(* Exit codes: 0 clean, 1 regression beyond tolerance, 2 usage/parse
   error — so CI can distinguish "slower" from "broken". With --gate,
   only regressions on matching metrics are fatal; the rest are
   reported but warn-only (noisy rows stay visible without flaking
   the build). *)
let compare_records ~tolerance ~gates = function
  | [ base_path; cur_path ] -> (
    match (Explain.Regress.load base_path, Explain.Regress.load cur_path) with
    | Ok base, Ok cur ->
      let deltas =
        Explain.Regress.compare_records ~tolerance_pct:tolerance ~base ~cur ()
      in
      print_string (Explain.Regress.to_table ~tolerance_pct:tolerance deltas);
      let all = Explain.Regress.regressions deltas in
      let fatal = Explain.Regress.gated ~gates deltas in
      if gates <> [] && List.length all > List.length fatal then
        Printf.printf "%d ungated regression(s) reported warn-only\n"
          (List.length all - List.length fatal);
      if fatal <> [] then exit 1
    | Error m, _ | _, Error m ->
      prerr_endline ("bench compare: " ^ m);
      exit 2)
  | _ ->
    prerr_endline
      "usage: bench compare BASE.json CURRENT.json [--tolerance PCT] \
       [--gate SUBSTR]... (a .jsonl history file means its last record)";
    exit 2

(* ---------------- entry point ---------------- *)

let () =
  let ids_arg =
    let doc =
      "Experiment ids to run (default: every table/figure). Special ids: \
       $(b,micro), $(b,serve), $(b,compare) $(i,BASE) $(i,CURRENT), \
       $(b,ablate), $(b,list)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let smoke_arg =
    let doc =
      "Tiny measurement quota for the micro benchmarks — runs everything at \
       least once, for CI smoke coverage rather than stable estimates."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let tolerance_arg =
    let doc =
      "Allowed slowdown for $(b,compare), in percent: a metric that got \
       slower (or a cache speedup that dropped) by more than this is a \
       regression and the exit code is 1."
    in
    Arg.(value & opt float 25. & info [ "tolerance" ] ~docv:"PCT" ~doc)
  in
  let gate_arg =
    let doc =
      "Hard-gate $(b,compare) on metrics whose name contains $(docv) \
       (repeatable). With at least one gate, only matching regressions \
       set the exit code; others are reported warn-only. Without gates, \
       every regression is fatal."
    in
    Arg.(value & opt_all string [] & info [ "gate" ] ~docv:"SUBSTR" ~doc)
  in
  let run c smoke tolerance gates ids =
    let report_ctx () = Report.Context.create ?cache:(Cliterm.cache c) () in
    match ids with
    | [ "list" ] -> list_experiments ()
    | "compare" :: files -> compare_records ~tolerance ~gates files
    | [] ->
      print_string (Report.Experiments.run_all (report_ctx ()));
      print_newline ()
    | ids ->
      List.iter
        (fun id ->
          match id with
          | "micro" -> micro ~smoke ()
          | "serve" -> bench_serve ~smoke ()
          | "ablate" -> ablate ()
          | "list" -> list_experiments ()
          | id ->
            print_string (Report.Experiments.find id (report_ctx ()));
            print_newline ())
        ids
  in
  let info =
    Cmd.info "bench" ~version:"1.2.0"
      ~doc:"Regenerate the paper's tables/figures and micro-benchmark the tool"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ Cliterm.term $ smoke_arg $ tolerance_arg $ gate_arg
            $ ids_arg)))
