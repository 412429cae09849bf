(* Static tier: CFG extraction on hand-written listings, and the
   soundness cross-check static_bound >= exact_bound on the paper
   benchmark suite. *)

module E = Benchprogs.Bench.E

let cpu = Tsupport.the_cpu ()
let pa = lazy (Core.Analyze.poweran_for cpu)

(* {1 CFG extraction} *)

let extract_ok img =
  match Static.Cfg.extract img with
  | Ok cfg -> cfg
  | Error e -> Alcotest.fail (Static.Cfg.error_to_string e)

let term_name b =
  match b.Static.Cfg.b_term with
  | Static.Cfg.T_jump _ -> "jump"
  | Static.Cfg.T_branch _ -> "branch"
  | Static.Cfg.T_call _ -> "call"
  | Static.Cfg.T_ret -> "ret"
  | Static.Cfg.T_halt -> "halt"
  | Static.Cfg.T_fallthrough _ -> "fall"

let terms cfg = List.map term_name cfg.Static.Cfg.c_blocks

let test_cfg_fallthrough () =
  (* A diamond: branch, two straight-line arms, join, halt. *)
  let img =
    Tsupport.assemble_body
      [
        E.mov (E.imm 5) (E.dreg 4);
        E.cmp (E.imm 5) (E.dreg 4);
        E.jeq "join";
        E.add (E.imm 1) (E.dreg 4);
        E.lbl "join";
        E.nop;
      ]
  in
  let cfg = extract_ok img in
  Alcotest.(check (list string))
    "terminators" [ "branch"; "fall"; "halt" ] (terms cfg);
  (* Every block's successors are block starts. *)
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "successor 0x%04x is a block start" s)
            true
            (Static.Cfg.block_at cfg s <> None))
        (Static.Cfg.successors b))
    cfg.Static.Cfg.c_blocks;
  (* Blocks tile the code: entry is a block start. *)
  Alcotest.(check bool) "entry block" true
    (Static.Cfg.block_at cfg cfg.Static.Cfg.c_entry <> None)

let test_cfg_back_edge () =
  let img =
    Tsupport.assemble_body
      [
        E.mov (E.imm 4) (E.dreg 4);
        E.lbl "loop";
        E.sub (E.imm 1) (E.dreg 4);
        E.jne "loop";
      ]
  in
  let cfg = extract_ok img in
  Alcotest.(check (list string)) "terminators" [ "fall"; "branch"; "halt" ]
    (terms cfg);
  (* The branch block's taken edge points back at its own start. *)
  let loop_block =
    List.find
      (fun b -> term_name b = "branch")
      cfg.Static.Cfg.c_blocks
  in
  (match loop_block.Static.Cfg.b_term with
  | Static.Cfg.T_branch { taken; _ } ->
    Alcotest.(check int) "back edge" loop_block.Static.Cfg.b_start taken
  | _ -> assert false)

let test_cfg_call_ret () =
  let img =
    Tsupport.assemble_body
      [
        E.call "f";
        E.jmp "done";
        E.lbl "f";
        E.mov (E.imm 7) (E.dreg 5);
        E.ret;
        E.lbl "done";
        E.nop;
      ]
  in
  let cfg = extract_ok img in
  let call_block =
    List.find (fun b -> term_name b = "call") cfg.Static.Cfg.c_blocks
  in
  match call_block.Static.Cfg.b_term with
  | Static.Cfg.T_call { callee; link } ->
    let f = Option.get (Static.Cfg.block_at cfg callee) in
    Alcotest.(check string) "callee ends in ret" "ret" (term_name f);
    Alcotest.(check bool) "link is a block"
      true
      (Static.Cfg.block_at cfg link <> None)
  | _ -> assert false

let test_cfg_indirect_rejected () =
  let img =
    Tsupport.assemble_body
      [ E.mov (E.imm 0xE000) (E.dreg 4); E.i (Isa.Insn.br (E.reg 4)) ]
  in
  match Static.Cfg.extract img with
  | Ok _ -> Alcotest.fail "indirect branch accepted"
  | Error (Static.Cfg.Indirect_branch _) -> ()
  | Error e -> Alcotest.fail (Static.Cfg.error_to_string e)

(* {1 Static vs exact cross-check} *)

let exact_of b =
  let img = Benchprogs.Bench.assemble b in
  let config =
    {
      Core.Analyze.default_config with
      Core.Analyze.loop_bound = b.Benchprogs.Bench.loop_bound;
      max_paths = b.Benchprogs.Bench.max_paths;
    }
  in
  Core.Analyze.run ~config (Lazy.force pa) cpu img

let static_of b =
  let img = Benchprogs.Bench.assemble b in
  match
    Static.Ipet.analyze ~name:b.Benchprogs.Bench.name
      ~loop_bound:b.Benchprogs.Bench.loop_bound (Lazy.force pa) cpu img
  with
  | Ok s -> s
  | Error e ->
    Alcotest.fail
      (Printf.sprintf "%s: %s" b.Benchprogs.Bench.name
         (Static.Cfg.error_to_string e))

let test_dominates b () =
  let a = exact_of b in
  let s = static_of b in
  let name = b.Benchprogs.Bench.name in
  Alcotest.(check bool)
    (Printf.sprintf "%s: static peak power %.6f >= exact %.6f" name
       s.Static.Ipet.s_peak_power_w a.Core.Analyze.peak_power)
    true
    (s.Static.Ipet.s_peak_power_w >= a.Core.Analyze.peak_power);
  Alcotest.(check bool)
    (Printf.sprintf "%s: static peak energy %.6g >= exact %.6g" name
       s.Static.Ipet.s_peak_energy_j
       a.Core.Analyze.peak_energy.Core.Peak_energy.energy)
    true
    (s.Static.Ipet.s_peak_energy_j
    >= a.Core.Analyze.peak_energy.Core.Peak_energy.energy);
  Alcotest.(check bool)
    (Printf.sprintf "%s: static cycle bound %d >= exact worst path %d" name
       s.Static.Ipet.s_cycle_bound
       a.Core.Analyze.peak_energy.Core.Peak_energy.cycles)
    true
    (s.Static.Ipet.s_cycle_bound
    >= a.Core.Analyze.peak_energy.Core.Peak_energy.cycles)

(* {1 Block cache namespace} *)

(* Block characterizations live in their own "block" namespace: repeat
   analysis is served from it, `cache stats` can account for it, and
   `cache clear` wipes it with everything else. *)
let test_block_cache_ns () =
  let dir = Filename.temp_file "xbound-test-blockns" "" in
  Sys.remove dir;
  let cache = Cache.create ~dir () in
  let b = Benchprogs.Bench.find "tea8" in
  let img = Benchprogs.Bench.assemble b in
  let run () =
    match
      Static.Ipet.analyze ~cache ~name:"tea8"
        ~loop_bound:b.Benchprogs.Bench.loop_bound (Lazy.force pa) cpu img
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Static.Cfg.error_to_string e)
  in
  let s1 = run () in
  Alcotest.(check int) "first run computes every block" 0
    s1.Static.Ipet.s_cached_blocks;
  let s2 = run () in
  Alcotest.(check int) "second run is all cache hits"
    s2.Static.Ipet.s_blocks s2.Static.Ipet.s_cached_blocks;
  Alcotest.(check (float 0.)) "cached bound identical"
    s1.Static.Ipet.s_peak_energy_j s2.Static.Ipet.s_peak_energy_j;
  (match List.assoc_opt Static.Blockchar.cache_ns (Cache.disk_stats_by_ns cache) with
  | Some (entries, bytes) ->
    Alcotest.(check int) "one entry per block" s1.Static.Ipet.s_blocks entries;
    Alcotest.(check bool) "entries have bytes" true (bytes > 0)
  | None -> Alcotest.fail "no \"block\" namespace row in disk stats");
  Cache.clear cache;
  let entries, _ = Cache.disk_stats cache in
  Alcotest.(check int) "clear wipes the block namespace too" 0 entries;
  (try Sys.rmdir dir with Sys_error _ -> ())

(* One process analyzing every kernel twice on one default cache: the
   second pass reads every block back from memory. Under a fixed entry
   count a pass reads blocks in the order it wrote them, so plain LRU
   evicted each just before it was needed. *)
let test_warm_static_pass () =
  let cache = Cache.create () in
  let ctx = Xbound.Ctx.create ~cache ~tier:Xbound.Tier.Static () in
  let pass () =
    List.map
      (fun (k, _) ->
        match Result.bind (Xbound.bench k) (Xbound.analyze ~ctx) with
        | Ok a -> (k, a)
        | Error e -> Alcotest.fail (Xbound.Error.to_string e))
      (Xbound.benchmarks ())
  in
  let bounds (a : Xbound.analysis) =
    (Xbound.peak_power_w a, Xbound.peak_energy_j a, a.Xbound.peak_energy_cycles)
  in
  let cold = pass () in
  Cache.reset_counters cache;
  let warm = pass () in
  let ct = Cache.counters cache in
  Alcotest.(check int) "warm pass misses nothing" 0 ct.Cache.misses;
  Alcotest.(check int) "warm pass evicts nothing" 0 ct.Cache.evictions;
  List.iter2
    (fun (k, c) (_, w) ->
      Alcotest.(check bool) (k ^ ": warm bounds = cold bounds") true
        (bounds c = bounds w);
      let s = Option.get (Xbound.static_detail w) in
      Alcotest.(check bool) (k ^ ": every block from the cache") true
        (List.for_all (fun r -> r.Static.Ipet.r_cached) s.Static.Ipet.s_rows
        && s.Static.Ipet.s_cached_blocks = s.Static.Ipet.s_blocks))
    cold warm

(* {1 Tier dispatch through the facade} *)

(* A fork-heavy program with a starved path budget: the exact tier blows
   its exploration limit, the static tier still terminates with a
   bound. *)
let too_large_program () =
  let b = Benchprogs.Bench.find "div" in
  Xbound.of_image ~name:"div-starved"
    ~loop_bound:b.Benchprogs.Bench.loop_bound ~max_paths:2
    (Benchprogs.Bench.assemble b)

let test_static_handles_too_large () =
  let program = too_large_program () in
  (match
     Xbound.analyze ~ctx:(Xbound.Ctx.create ~tier:Xbound.Tier.Exact ()) program
   with
  | Error (Xbound.Error.Analysis _) -> ()
  | Error e ->
    Alcotest.fail ("expected a path-limit failure, got " ^ Xbound.Error.to_string e)
  | Ok _ -> Alcotest.fail "exact tier should exceed max_paths = 2");
  match
    Xbound.analyze ~ctx:(Xbound.Ctx.create ~tier:Xbound.Tier.Static ()) program
  with
  | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  | Ok a ->
    Alcotest.(check bool) "static tier" true (a.Xbound.tier = Xbound.Tier.Static);
    Alcotest.(check bool) "positive power bound" true (Xbound.peak_power_w a > 0.);
    Alcotest.(check bool) "positive energy bound" true (Xbound.peak_energy_j a > 0.);
    Alcotest.(check bool) "carries the Ipet detail" true
      (Xbound.static_detail a <> None);
    Alcotest.(check bool) "no flattened trace" true
      (Array.length a.Xbound.power_trace_w = 0)

(* Auto resolves to the tier that could actually bound the program:
   exact when exploration is feasible, static when it is not. *)
let test_auto_tier () =
  let auto = Xbound.Ctx.create ~tier:Xbound.Tier.Auto () in
  (match Xbound.analyze ~ctx:auto (too_large_program ()) with
  | Ok a ->
    Alcotest.(check bool) "starved program resolves static" true
      (a.Xbound.tier = Xbound.Tier.Static)
  | Error e -> Alcotest.fail (Xbound.Error.to_string e));
  let feasible =
    match Xbound.bench "mult" with
    | Ok p -> p
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  match Xbound.analyze ~ctx:auto feasible with
  | Ok a ->
    Alcotest.(check bool) "feasible program escalates to exact" true
      (a.Xbound.tier = Xbound.Tier.Exact)
  | Error e -> Alcotest.fail (Xbound.Error.to_string e)

let () =
  let dominance =
    List.map
      (fun b ->
        Alcotest.test_case b.Benchprogs.Bench.name `Slow (test_dominates b))
      Benchprogs.Bench.all
  in
  Alcotest.run "static"
    [
      ( "cfg",
        [
          Alcotest.test_case "fallthrough+diamond" `Quick test_cfg_fallthrough;
          Alcotest.test_case "back edge" `Quick test_cfg_back_edge;
          Alcotest.test_case "call/ret" `Quick test_cfg_call_ret;
          Alcotest.test_case "indirect rejected" `Quick
            test_cfg_indirect_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "block namespace" `Slow test_block_cache_ns;
          Alcotest.test_case "warm pass from memory" `Slow test_warm_static_pass;
        ] );
      ( "tier",
        [
          Alcotest.test_case "too-large program" `Slow
            test_static_handles_too_large;
          Alcotest.test_case "auto dispatch" `Slow test_auto_tier;
        ] );
      ("dominance", dominance);
    ]
