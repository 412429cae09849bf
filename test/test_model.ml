(* The facade's processor model: the model and its digests baked at
   build time, and loading deferred to the first call that needs gates. Every check
   here counts elaborations of the facade's model, so the suite runs in
   a process of its own, and the concurrent first-use scenario runs in a
   child process started from this executable. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* A small kernel (one path of 134 cycles), so the fresh analyses and
   concrete runs below stay cheap. *)
let bench_name = "mult"

let bench =
  List.find
    (fun b -> String.equal b.Benchprogs.Bench.name bench_name)
    (Benchprogs.Bench.all @ Benchprogs.Extended.all)

let program () =
  match Xbound.bench bench_name with
  | Ok p -> p
  | Error e -> Alcotest.fail (Xbound.Error.to_string e)

let elaborations sink =
  match List.assoc_opt "elaborate" (Telemetry.span_totals sink) with
  | Some (_, n) -> n
  | None -> 0

let rec rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir d);
    Sys.rmdir d
  end

let fresh_dir () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "xbound-test-model-%d-%d" (Unix.getpid ())
       (Random.int 1_000_000))

(* The generator-drift guard: what the build baked in is what the
   digest recipe gives for a processor built now. *)
let test_baked_digests () =
  let cpu = Cpu.build () in
  let pa = Core.Analyze.poweran_for cpu in
  checks "netlist+ports digest" (Core.Analyze.cpu_digest cpu)
    (Xbound.model.Core.Analyze.cpu_digest ());
  checks "power context digest" (Core.Analyze.pa_digest pa)
    (Xbound.model.Core.Analyze.pa_digest ())

(* The model-drift guard: the baked bytes are what marshaling a
   processor built now gives, and the model they load keeps the power
   context's netlist shared with the CPU's and digests to the baked
   digests. Unmarshaled here, not through [Xbound.model], so the
   facade's own elaboration count below stays untouched. *)
let test_baked_model () =
  checkb "baked model is a fresh build's" true
    (String.equal Xbound.baked_model
       (Marshal.to_string (Core.Analyze.build_standard ()) []));
  let cpu, pa = (Marshal.from_string Xbound.baked_model 0 : Cpu.t * Poweran.t) in
  checkb "one netlist" true (Poweran.netlist pa == cpu.Cpu.netlist);
  checks "loaded netlist+ports digest" (Core.Analyze.cpu_digest cpu)
    (Xbound.model.Core.Analyze.cpu_digest ());
  checks "loaded power context digest" (Core.Analyze.pa_digest pa)
    (Xbound.model.Core.Analyze.pa_digest ())

(* One sink, one disk cache and one analysis shared by the hit and the
   explain that follows it. *)
let sink = Telemetry.create ()
let dir = lazy (fresh_dir ())
let hit = ref None

(* A disk cache written by Core.Analyze.run over a separately built CPU
   answers the facade's exact tier without elaborating its model. *)
let test_hit_without_elaboration () =
  let dir = Lazy.force dir in
  let cpu = Cpu.build () in
  let pa = Core.Analyze.poweran_for cpu in
  let config =
    {
      Core.Analyze.default_config with
      Core.Analyze.loop_bound = bench.Benchprogs.Bench.loop_bound;
      max_paths = bench.Benchprogs.Bench.max_paths;
    }
  in
  let cold =
    Core.Analyze.run ~config ~cache:(Cache.create ~dir ()) pa cpu
      (Benchprogs.Bench.assemble bench)
  in
  let cache = Cache.create ~dir () in
  let ctx = Xbound.Ctx.create ~cache ~telemetry:sink () in
  match Xbound.analyze ~ctx (program ()) with
  | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  | Ok a ->
    hit := Some a;
    checkb "peak power" true
      (Xbound.peak_power_w a = cold.Core.Analyze.peak_power);
    checkb "peak energy" true
      (Xbound.peak_energy_j a
      = cold.Core.Analyze.peak_energy.Core.Peak_energy.energy);
    checkb "power trace" true
      (a.Xbound.power_trace_w = cold.Core.Analyze.power_trace);
    checki "disk hits" 1 (Cache.counters cache).Cache.disk_hits;
    checki "misses" 0 (Cache.counters cache).Cache.misses;
    checki "elaborations" 0 (elaborations sink)

(* The explain after the hit needs the gates: the model is elaborated
   then, once, and the report is the one a fresh analysis gives. *)
let test_explain_elaborates_once () =
  let a =
    match !hit with
    | Some a -> a
    | None -> Alcotest.fail "the cache-hit case did not run"
  in
  let ctx =
    Xbound.Ctx.create ~cache:(Cache.create ~dir:(Lazy.force dir) ())
      ~telemetry:sink ()
  in
  let render ex =
    Explain.Report.to_table ex ^ Explain.Report.to_json_string ex
  in
  let warm = render (Xbound.explain ~ctx a) in
  checki "elaborations after explain" 1 (elaborations sink);
  let fresh =
    let ctx = Xbound.Ctx.create ~telemetry:sink () in
    match Xbound.analyze ~ctx (program ()) with
    | Ok a -> render (Xbound.explain ~ctx a)
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  checks "explain bytes" fresh warm;
  checki "elaborations in the process" 1 (elaborations sink);
  rm_rf (Lazy.force dir)

(* ---------------- concurrent first use ---------------- *)

let child_flag = "--concurrent-first-use"
let threads = 8

(* Runs in a fresh child process: [threads] systhreads and one task per
   default-pool worker make their first facade call (a concrete run,
   which needs the gates) at the same moment. Prints how many calls ran,
   the elaboration count, the calls that failed, and whether every call
   returned the same trace. *)
let concurrent_first_use () =
  let sink = Telemetry.create () in
  Telemetry.set_ambient (Some sink);
  Parallel.set_default_jobs 3;
  let pool = Parallel.default_pool () in
  let p = program () in
  let inputs =
    [ (Benchprogs.Bench.input_base, bench.Benchprogs.Bench.gen_inputs ~seed:8) ]
  in
  let m = Mutex.create () and cv = Condition.create () in
  let ready = ref 0 and go = ref false in
  let call ~counted () =
    Mutex.protect m (fun () ->
        if counted then incr ready;
        Condition.broadcast cv;
        while not !go do
          Condition.wait cv m
        done);
    match Xbound.run_concrete p ~inputs with
    | Ok c -> Ok c.Xbound.trace_w
    | Error e -> Error (Xbound.Error.to_string e)
    | exception e -> Error (Printexc.to_string e)
  in
  let results = Array.make threads (Error "did not run") in
  let ths =
    List.init threads (fun i ->
        Thread.create (fun () -> results.(i) <- call ~counted:true ()) ())
  in
  let tasks =
    List.init (Parallel.Pool.size pool) (fun _ ->
        Parallel.Pool.async pool (call ~counted:false))
  in
  Mutex.protect m (fun () ->
      while !ready < threads do
        Condition.wait cv m
      done;
      go := true;
      Condition.broadcast cv);
  List.iter Thread.join ths;
  let all =
    Array.to_list results @ List.map (Parallel.Pool.await pool) tasks
  in
  let failures =
    List.filter_map (function Error m -> Some m | Ok _ -> None) all
  in
  let agree =
    match List.filter_map Result.to_option all with
    | [] -> false
    | t :: rest -> List.for_all (fun t' -> t' = t) rest
  in
  Telemetry.set_ambient None;
  Printf.printf "%d\nelaborations=%d failures=[%s] agree=%b\n"
    (List.length all) (elaborations sink)
    (String.concat "; " failures)
    agree

let test_concurrent_first_use () =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; child_flag |]
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail ("child failed: " ^ out));
  match String.split_on_char '\n' out with
  | [ calls; summary; "" ] ->
    checkb "pool tasks joined the threads" true
      (int_of_string calls > threads);
    checks "one elaboration, no failed call"
      "elaborations=1 failures=[] agree=true" summary
  | _ -> Alcotest.fail ("unexpected child output: " ^ out)

let () =
  if Array.mem child_flag Sys.argv then concurrent_first_use ()
  else
    Alcotest.run "model"
      [
        ( "baked",
          [
            Alcotest.test_case "digests match a fresh build" `Quick
              test_baked_digests;
            Alcotest.test_case "model matches a fresh build" `Quick
              test_baked_model;
          ] );
        ( "deferred",
          [
            Alcotest.test_case "cache hit without elaboration" `Quick
              test_hit_without_elaboration;
            Alcotest.test_case "explain elaborates once" `Quick
              test_explain_elaborates_once;
          ] );
        ( "concurrency",
          [
            Alcotest.test_case "concurrent first use elaborates once" `Quick
              test_concurrent_first_use;
          ] );
      ]
