(* The parallel layer: pool combinator sanity, engine snapshot/replica
   round-trips, and the central determinism guarantee — parallel
   [Sym.run] / [Analyze.run] produce results bit-identical to the
   sequential run on fork-heavy kernels. A multi-worker pool works (just
   without speedup) on a single-core host, so these tests are
   machine-independent. *)

open Gatesim

(* One shared multi-worker pool; per-test pools would spawn domains over
   and over. *)
let pool4 = lazy (Parallel.Pool.create ~jobs:4)

(* ---------------- pool combinators ---------------- *)

let test_map_ordered () =
  let p = Lazy.force pool4 in
  let xs = Array.init 200 (fun i -> i) in
  let ys = Parallel.Pool.map_array p (fun i -> i * i) xs in
  Alcotest.(check (array int)) "squares in order"
    (Array.map (fun i -> i * i) xs)
    ys;
  let l = Parallel.Pool.map_list p string_of_int [ 5; 4; 3; 2; 1 ] in
  Alcotest.(check (list string)) "list in order" [ "5"; "4"; "3"; "2"; "1" ] l

let test_init_chunked () =
  let p = Lazy.force pool4 in
  let n = 1000 in
  let ys = Parallel.Pool.init_chunked p ~chunk:64 n (fun i -> (3 * i) + 1) in
  Alcotest.(check (array int)) "init equal" (Array.init n (fun i -> (3 * i) + 1)) ys

let test_both () =
  let p = Lazy.force pool4 in
  let a, b = Parallel.Pool.both p (fun () -> 6 * 7) (fun () -> "ok") in
  Alcotest.(check int) "left" 42 a;
  Alcotest.(check string) "right" "ok" b

exception Boom

let test_exception_propagates () =
  let p = Lazy.force pool4 in
  let fut = Parallel.Pool.async p (fun () -> raise Boom) in
  Alcotest.check_raises "exception re-raised at await" Boom (fun () ->
      ignore (Parallel.Pool.await p fut))

let test_nested_fork_join () =
  let p = Lazy.force pool4 in
  (* recursive fork/join summation: exercises helping-await under
     nesting deeper than the worker count *)
  let rec sum lo hi =
    if hi - lo <= 4 then
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + i
      done;
      !s
    else
      let mid = (lo + hi) / 2 in
      let l, r =
        Parallel.Pool.both p (fun () -> sum lo mid) (fun () -> sum mid hi)
      in
      l + r
  in
  Alcotest.(check int) "sum 0..999" (999 * 1000 / 2) (sum 0 1000)

let test_sequential_pool_inline () =
  let p = Parallel.Pool.create ~jobs:1 in
  let order = ref [] in
  let fut = Parallel.Pool.async p (fun () -> order := "a" :: !order) in
  order := "b" :: !order;
  Parallel.Pool.await p fut;
  (* eager inline execution: "a" happened before "b" *)
  Alcotest.(check (list string)) "eager order" [ "b"; "a" ] !order

(* ---------------- engine snapshot / replica round-trips ---------------- *)

let cycle_equal (a : Trace.cycle) (b : Trace.cycle) =
  a.Trace.deltas = b.Trace.deltas
  && a.Trace.x_active = b.Trace.x_active
  && Tri.Word.equal a.Trace.pc b.Trace.pc
  && Tri.Word.equal a.Trace.state b.Trace.state
  && Tri.Word.equal a.Trace.ir b.Trace.ir

let test_snapshot_restore_roundtrip () =
  let img = Tsupport.assemble_body (Tsupport.prologue @ [ Isa.Asm.I Isa.Insn.nop ]) in
  let e = Tsupport.fresh_engine img in
  Engine.set_reset e Tri.One;
  ignore (Engine.step e);
  ignore (Engine.step e);
  Engine.set_reset e Tri.Zero;
  for _ = 1 to 5 do
    ignore (Engine.step e)
  done;
  let snap = Engine.snapshot e in
  let after_a = Array.init 10 (fun _ -> Engine.step e) in
  Engine.restore e snap;
  let after_b = Array.init 10 (fun _ -> Engine.step e) in
  Alcotest.(check bool) "same cycles after restore" true
    (Array.for_all2 cycle_equal after_a after_b);
  Alcotest.(check string) "same digest" (Engine.arch_digest e)
    (let () = Engine.restore e snap in
     Array.iter (fun _ -> ignore (Engine.step e)) (Array.make 10 ());
     Engine.arch_digest e)

let test_of_snapshot_replica_equivalence () =
  let img = Tsupport.assemble_body (Tsupport.prologue @ [ Isa.Asm.I Isa.Insn.nop ]) in
  let e = Tsupport.fresh_engine img in
  Engine.set_reset e Tri.One;
  ignore (Engine.step e);
  ignore (Engine.step e);
  Engine.set_reset e Tri.Zero;
  for _ = 1 to 7 do
    ignore (Engine.step e)
  done;
  let snap = Engine.snapshot e in
  (* replica picks up mid-run state including RAM and drive levels *)
  let r = Engine.of_snapshot e snap in
  Alcotest.(check int) "same cycle index" (Engine.cycle_index e)
    (Engine.cycle_index r);
  Alcotest.(check string) "same digest at handoff" (Engine.arch_digest e)
    (Engine.arch_digest r);
  let on_orig = Array.init 15 (fun _ -> Engine.step e) in
  let on_repl = Array.init 15 (fun _ -> Engine.step r) in
  Alcotest.(check bool) "same subsequent cycle records" true
    (Array.for_all2 cycle_equal on_orig on_repl);
  Alcotest.(check string) "same digest after stepping" (Engine.arch_digest e)
    (Engine.arch_digest r)

(* ---------------- parallel == sequential determinism ---------------- *)

let rec node_equal a b =
  match (a, b) with
  | Trace.End_path, Trace.End_path -> true
  | Trace.Seen da, Trace.Seen db -> String.equal da db
  | Trace.Run { cycles = ca; next = na }, Trace.Run { cycles = cb; next = nb } ->
    Array.length ca = Array.length cb
    && Array.for_all2 cycle_equal ca cb
    && node_equal na nb
  | ( Trace.Fork { not_taken = la; taken = ta },
      Trace.Fork { not_taken = lb; taken = tb } ) ->
    node_equal la lb && node_equal ta tb
  | _ -> false

let registry_bindings reg =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) reg [])

let tree_equal (ta : Trace.tree) (tb : Trace.tree) =
  node_equal ta.Trace.root tb.Trace.root
  && ta.Trace.initial = tb.Trace.initial
  &&
  let ba = registry_bindings ta.Trace.registry
  and bb = registry_bindings tb.Trace.registry in
  List.length ba = List.length bb
  && List.for_all2
       (fun (ka, va) (kb, vb) -> String.equal ka kb && node_equal !va !vb)
       ba bb

let stats_equal (a : Sym.stats) (b : Sym.stats) =
  a.Sym.paths = b.Sym.paths && a.Sym.forks = b.Sym.forks
  && a.Sym.dedup_hits = b.Sym.dedup_hits
  && a.Sym.total_cycles = b.Sym.total_cycles

let kernels = [ "binSearch"; "Viterbi"; "tHold" ]

let sym_config (b : Benchprogs.Bench.t) img =
  {
    (Sym.default_config
       ~is_end:(Cpu.is_end_cycle ~halt_addr:img.Isa.Asm.halt_addr))
    with
    Sym.max_paths = b.Benchprogs.Bench.max_paths;
  }

let run_kernel ?pool name =
  let b = Benchprogs.Bench.find name in
  let img = Benchprogs.Bench.assemble b in
  let e = Tsupport.fresh_engine ~concrete:false img in
  Sym.run ?pool e (sym_config b img)

let test_parallel_sym_deterministic name () =
  let tree_s, stats_s = run_kernel name in
  let tree_p, stats_p = run_kernel ~pool:(Lazy.force pool4) name in
  Alcotest.(check bool)
    (name ^ ": forks explored") true
    (stats_s.Sym.forks > 0);
  Alcotest.(check bool) (name ^ ": stats identical") true
    (stats_equal stats_s stats_p);
  Alcotest.(check bool) (name ^ ": tree identical") true (tree_equal tree_s tree_p)

(* The full job-count sweep: the committed tree (every cycle record,
   every dedup digest, the registry) and the stats must be identical at
   -j1, -j4 and -j8, and independent of the gang width — including
   gang_width 1, which disables gang simulation entirely. *)
let pool8 = lazy (Parallel.Pool.create ~jobs:8)

(* CI exports XBOUND_TEST_JOBS (e.g. 2) to extend the sweep with a
   worker count the fixed -j1/-j4/-j8 grid does not cover. One pool per
   distinct count, shared across kernels. *)
let extra_pools : (int, Parallel.Pool.t) Hashtbl.t = Hashtbl.create 4

let extra_jobs () =
  match
    Option.bind (Sys.getenv_opt "XBOUND_TEST_JOBS") int_of_string_opt
  with
  | Some j when j > 0 ->
    let p =
      match Hashtbl.find_opt extra_pools j with
      | Some p -> p
      | None ->
        let p = Parallel.Pool.create ~jobs:j in
        Hashtbl.add extra_pools j p;
        p
    in
    Some (j, p)
  | _ -> None

let test_jobs_sweep name () =
  let b = Benchprogs.Bench.find name in
  let img = Benchprogs.Bench.assemble b in
  let cfg = sym_config b img in
  let run ?pool cfg =
    let e = Tsupport.fresh_engine ~concrete:false img in
    Sym.run ?pool e cfg
  in
  let tree_ref, stats_ref = run cfg in
  Alcotest.(check bool) (name ^ ": forks explored") true (stats_ref.Sym.forks > 0);
  let check label (tree, stats) =
    Alcotest.(check bool)
      (Printf.sprintf "%s: stats identical (%s)" name label)
      true (stats_equal stats_ref stats);
    Alcotest.(check bool)
      (Printf.sprintf "%s: tree identical (%s)" name label)
      true (tree_equal tree_ref tree)
  in
  check "-j1" (run ~pool:(Parallel.Pool.create ~jobs:1) cfg);
  check "-j4" (run ~pool:(Lazy.force pool4) cfg);
  check "-j8" (run ~pool:(Lazy.force pool8) cfg);
  check "-j4 gang_width=1" (run ~pool:(Lazy.force pool4) { cfg with Sym.gang_width = 1 });
  check "-j8 gang_width=32" (run ~pool:(Lazy.force pool8) { cfg with Sym.gang_width = 32 });
  match extra_jobs () with
  | Some (j, p) ->
    check (Printf.sprintf "-j%d (XBOUND_TEST_JOBS)" j) (run ~pool:p cfg)
  | None -> ()

let test_parallel_analyze_deterministic () =
  let cpu = Tsupport.the_cpu () in
  let pa = Core.Analyze.poweran_for cpu in
  let b = Benchprogs.Bench.find "binSearch" in
  let img = Benchprogs.Bench.assemble b in
  let config =
    {
      Core.Analyze.default_config with
      Core.Analyze.loop_bound = b.Benchprogs.Bench.loop_bound;
      max_paths = b.Benchprogs.Bench.max_paths;
    }
  in
  let seq = Core.Analyze.run ~config ~pool:(Parallel.Pool.create ~jobs:1) pa cpu img in
  let par = Core.Analyze.run ~config ~pool:(Lazy.force pool4) pa cpu img in
  Alcotest.(check (float 0.)) "peak power identical" seq.Core.Analyze.peak_power
    par.Core.Analyze.peak_power;
  Alcotest.(check int) "peak index identical" seq.Core.Analyze.peak_index
    par.Core.Analyze.peak_index;
  Alcotest.(check (float 0.)) "peak energy identical"
    seq.Core.Analyze.peak_energy.Core.Peak_energy.energy
    par.Core.Analyze.peak_energy.Core.Peak_energy.energy;
  Alcotest.(check (float 0.)) "NPE identical"
    seq.Core.Analyze.peak_energy.Core.Peak_energy.npe
    par.Core.Analyze.peak_energy.Core.Peak_energy.npe;
  Alcotest.(check bool) "power trace identical" true
    (seq.Core.Analyze.power_trace = par.Core.Analyze.power_trace)

(* Several threads of one domain sharing one pool — a server's executor
   threads — each run whole analyses on it at once. Every thread has
   the pool's worker index 0, and a thread awaiting its own run helps
   on the pool, so it may run a task of another thread's run while that
   thread is mid-cycle; each task must still simulate on scratch state
   of its own. Trees and bounds must equal the sequential ones. *)
let concurrent_kernels = [ "binSearch"; "median3"; "sad4"; "PI" ]
let concurrent_threads = 3
let concurrent_rounds = 8

let test_concurrent_runs_one_pool () =
  let cpu = Tsupport.the_cpu () in
  let pa = Core.Analyze.poweran_for cpu in
  let analyze ?pool name =
    let b =
      List.find
        (fun b -> String.equal b.Benchprogs.Bench.name name)
        (Benchprogs.Bench.all @ Benchprogs.Extended.all)
    in
    let config =
      {
        Core.Analyze.default_config with
        Core.Analyze.loop_bound = b.Benchprogs.Bench.loop_bound;
        max_paths = b.Benchprogs.Bench.max_paths;
      }
    in
    Core.Analyze.run ~config ?pool pa cpu (Benchprogs.Bench.assemble b)
  in
  let seq_pool = Parallel.Pool.create ~jobs:1 in
  let reference =
    List.map (fun k -> (k, analyze ~pool:seq_pool k)) concurrent_kernels
  in
  let same (r : Core.Analyze.t) (a : Core.Analyze.t) =
    r.Core.Analyze.peak_power = a.Core.Analyze.peak_power
    && r.Core.Analyze.peak_index = a.Core.Analyze.peak_index
    && r.Core.Analyze.peak_energy = a.Core.Analyze.peak_energy
    && r.Core.Analyze.power_trace = a.Core.Analyze.power_trace
    && stats_equal r.Core.Analyze.sym_stats a.Core.Analyze.sym_stats
    && tree_equal (Core.Analyze.tree r) (Core.Analyze.tree a)
  in
  let pool = Parallel.Pool.create ~jobs:2 in
  let wrong = Atomic.make [] in
  let record m =
    let rec go () =
      let l = Atomic.get wrong in
      if not (Atomic.compare_and_set wrong l (m :: l)) then go ()
    in
    go ()
  in
  let nk = List.length concurrent_kernels in
  let worker t () =
    for round = 1 to concurrent_rounds do
      for i = 0 to nk - 1 do
        (* each thread walks the kernels from its own offset *)
        let k = List.nth concurrent_kernels ((i + t) mod nk) in
        match analyze ~pool k with
        | a ->
          if not (same (List.assoc k reference) a) then
            record (Printf.sprintf "thread %d round %d %s: differs" t round k)
        | exception e ->
          record
            (Printf.sprintf "thread %d round %d %s: %s" t round k
               (Printexc.to_string e))
      done
    done
  in
  List.init concurrent_threads (fun t -> Thread.create (worker t) ())
  |> List.iter Thread.join;
  Alcotest.(check (list string)) "every concurrent analysis as sequential" []
    (List.rev (Atomic.get wrong))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered map" `Quick test_map_ordered;
          Alcotest.test_case "init_chunked" `Quick test_init_chunked;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested fork/join" `Quick test_nested_fork_join;
          Alcotest.test_case "jobs=1 runs inline eagerly" `Quick
            test_sequential_pool_inline;
        ] );
      ( "engine-replica",
        [
          Alcotest.test_case "snapshot/restore round-trip" `Quick
            test_snapshot_restore_roundtrip;
          Alcotest.test_case "of_snapshot replica equivalence" `Quick
            test_of_snapshot_replica_equivalence;
        ] );
      ( "determinism",
        List.map
          (fun k ->
            Alcotest.test_case
              ("parallel Sym.run == sequential: " ^ k)
              `Slow
              (test_parallel_sym_deterministic k))
          kernels
        @ List.map
            (fun k ->
              Alcotest.test_case
                ("jobs/gang sweep bit-identical: " ^ k)
                `Slow (test_jobs_sweep k))
            [ "binSearch"; "tHold"; "div" ]
        @ [
            Alcotest.test_case "parallel Analyze.run == sequential" `Slow
              test_parallel_analyze_deterministic;
            Alcotest.test_case "concurrent analyses on one pool" `Slow
              test_concurrent_runs_one_pool;
          ] );
    ]
