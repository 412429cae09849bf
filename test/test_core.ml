(* Tests for the paper's core algorithms: peak power bounds, peak
   energy, the even/odd VCD construction (incl. the Figure 3.2 worked
   example), COI analysis, and the software optimizations. *)

open Isa

let i x = Asm.I x
let mov_imm n r = i (Insn.I1 (Insn.MOV, Insn.S_imm (Insn.Lit n), Insn.D_reg r))
let input_addr = Memmap.ram_base + 0x80

let cpu = Tsupport.the_cpu ()
let period = 1e-8 (* 100 MHz *)

let pa = lazy (Core.Analyze.poweran_for ~period cpu)

let branch_program =
  Tsupport.prologue
  @ [
      i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
      i (Insn.I1 (Insn.CMP, Insn.S_imm (Insn.Lit 5), Insn.D_reg 4));
      i (Insn.J (Insn.JEQ, Insn.Sym "equal"));
      mov_imm 1 5;
      i (Insn.J (Insn.JMP, Insn.Sym "_halt"));
      Asm.Label "equal";
      mov_imm 2 5;
    ]

let analyze body =
  let img = Tsupport.assemble_body body in
  (img, Core.Analyze.run (Lazy.force pa) cpu img)

let test_peak_above_base () =
  let _, a = analyze branch_program in
  let base = Poweran.base_power (Lazy.force pa) in
  Alcotest.(check bool) "peak above base" true (a.Core.Analyze.peak_power > base);
  Alcotest.(check bool) "peak in mW range" true
    (a.Core.Analyze.peak_power > 1e-4 && a.Core.Analyze.peak_power < 1e-1);
  Alcotest.(check bool) "trace nonempty" true
    (Array.length a.Core.Analyze.power_trace > 10)

let test_bound_dominates_concrete () =
  let img, a = analyze branch_program in
  List.iter
    (fun input ->
      let concrete, ctrace =
        Core.Analyze.run_concrete (Lazy.force pa) cpu img
          ~inputs:[ (input_addr, [ input ]) ]
      in
      let cpk, _ = Poweran.peak_of ctrace in
      Alcotest.(check bool)
        (Printf.sprintf "peak bound >= concrete (input %d)" input)
        true
        (a.Core.Analyze.peak_power >= cpk -. 1e-15);
      match
        Core.Validate.check_bound (Lazy.force pa) ~tree:(Core.Analyze.tree a)
          ~concrete
      with
      | None -> Alcotest.fail "no matching path for concrete run"
      | Some chk ->
        Alcotest.(check int) "no pointwise violations" 0
          (List.length chk.Core.Validate.violations);
        Alcotest.(check bool) "ratio <= 1" true
          (chk.Core.Validate.max_ratio <= 1. +. 1e-9))
    [ 5; 1234 ]

let test_superset () =
  let img, a = analyze branch_program in
  let concrete, _ =
    Core.Analyze.run_concrete (Lazy.force pa) cpu img
      ~inputs:[ (input_addr, [ 99 ]) ]
  in
  let sets =
    Core.Validate.compare_toggles ~tree:(Core.Analyze.tree a) ~concrete
  in
  Alcotest.(check int) "no concrete-only nets" 0
    (List.length sets.Core.Validate.concrete_only);
  Alcotest.(check bool) "common nonempty" true
    (List.length sets.Core.Validate.common > 100)

let test_peak_energy_straightline () =
  (* no forks: peak energy equals the trace sum *)
  let _, a = analyze (Tsupport.prologue @ [ mov_imm 42 4; mov_imm 7 5 ]) in
  let expect =
    Array.fold_left ( +. ) 0. a.Core.Analyze.power_trace *. period
  in
  let got = a.Core.Analyze.peak_energy.Core.Peak_energy.energy in
  Alcotest.(check bool) "energy = sum(trace)*T" true
    (Float.abs (got -. expect) < 1e-18);
  Alcotest.(check int) "cycles = trace length"
    (Array.length a.Core.Analyze.power_trace)
    a.Core.Analyze.peak_energy.Core.Peak_energy.cycles

let test_peak_energy_fork_takes_max () =
  (* the two sides of the branch have different lengths; the bound must
     follow the costlier one *)
  let body =
    Tsupport.prologue
    @ [
        i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
        i (Insn.tst 4);
        i (Insn.J (Insn.JEQ, Insn.Sym "short"));
        (* long side: several multiplies *)
        mov_imm 0x7777 5;
        i (Insn.I1 (Insn.MOV, Insn.S_reg 5, Insn.D_abs (Insn.Lit Memmap.mpy)));
        mov_imm 0x1234 6;
        i (Insn.I1 (Insn.MOV, Insn.S_reg 6, Insn.D_abs (Insn.Lit Memmap.op2)));
        mov_imm 0 7;
        mov_imm 1 7;
        mov_imm 2 7;
        Asm.Label "short";
        mov_imm 1 8;
      ]
  in
  let _, a = analyze body in
  (* worst path must be at least as long as the long side *)
  Alcotest.(check bool) "worst path cycles reflect long side" true
    (a.Core.Analyze.peak_energy.Core.Peak_energy.cycles
    > Array.length a.Core.Analyze.power_trace / 2)

let test_evenodd_equivalence () =
  let img = Tsupport.assemble_body (Tsupport.prologue @ [
      i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
      i (Insn.I1 (Insn.ADD, Insn.S_reg 4, Insn.D_reg 4));
      i (Insn.I1 (Insn.MOV, Insn.S_reg 4, Insn.D_abs (Insn.Lit (input_addr + 2))));
    ])
  in
  let e =
    let mem = Cpu.mem_of_image img in
    Gatesim.Engine.create cpu.Cpu.netlist ~ports:cpu.Cpu.ports ~mem
  in
  let tree, _ =
    Gatesim.Sym.run e
      (Gatesim.Sym.default_config
         ~is_end:(Cpu.is_end_cycle ~halt_addr:img.Asm.halt_addr))
  in
  let path = Gatesim.Trace.flatten tree in
  let pa = Lazy.force pa in
  let direct = Poweran.trace_power pa ~mode:`Max path in
  let via_vcd, _, _ =
    Core.Evenodd.peak_power_via_vcd pa Stdcell.default
      ~initial:tree.Gatesim.Trace.initial path
  in
  Alcotest.(check int) "same length" (Array.length direct) (Array.length via_vcd);
  Array.iteri
    (fun k d ->
      if Float.abs (d -. via_vcd.(k)) > 1e-9 *. Float.max 1. d then
        Alcotest.failf "cycle %d: direct %.6e vs vcd %.6e" k d via_vcd.(k))
    direct

(* The Figure 3.2 worked example: three equal gates, X assignments must
   make cycle 6 (1-based) of the even trace an all-gates 0->1 cycle. *)
let test_figure_3_2 () =
  let ctx = Rtl.create () in
  let a = Rtl.input ctx in
  let g1 = Rtl.not_ ctx a in
  let g2 = Rtl.not_ ctx g1 in
  let g3 = Rtl.not_ ctx g2 in
  let nl = Rtl.freeze ctx in
  let gates = [| g1; g2; g3 |] in
  (* value table from the paper, columns = cycles 1..9 *)
  let table =
    [|
      [| '0'; '0'; '1'; 'x'; 'x'; 'x'; '0'; '0'; '0' |];
      [| '0'; 'x'; 'x'; 'x'; 'x'; 'x'; 'x'; '0'; '0' |];
      [| '0'; '0'; '0'; '1'; 'x'; 'x'; 'x'; 'x'; '0' |];
    |]
  in
  let nets = Netlist.gate_count nl in
  let initial = Array.make nets (Tri.to_int Tri.Zero) in
  Array.iteri (fun g net -> initial.(net) <- Tri.to_int (Tri.of_char table.(g).(0))) gates;
  let cycles =
    Array.init 8 (fun k ->
        (* transition from column k to k+1 *)
        let deltas = ref [] and xact = ref [] in
        Array.iteri
          (fun g net ->
            let o = Tri.of_char table.(g).(k) and n = Tri.of_char table.(g).(k + 1) in
            if not (Tri.equal o n) then
              deltas :=
                Gatesim.Trace.pack ~net ~old_v:(Tri.to_int o) ~new_v:(Tri.to_int n)
                :: !deltas
            else if Tri.is_x n then xact := net :: !xact)
          gates;
        {
          Gatesim.Trace.deltas = Array.of_list !deltas;
          x_active = Array.of_list !xact;
          pc = Tri.Word.all_x ~width:16;
          state = Tri.Word.all_x ~width:16;
          ir = Tri.Word.all_x ~width:16;
        })
  in
  let lib = Stdcell.default in
  let replayed = Core.Evenodd.replay ~initial cycles in
  (* our cycle index k covers the transition from column k+1 to column
     k+2, so the paper's even cycles (2, 4, 6, 8) are k = 0, 2, 4, 6 *)
  let even = Core.Evenodd.maximize lib nl ~parity:0 replayed cycles in
  (* paper cycle 6 = our k = 4, between value vectors 4 and 5; all three
     gates must get the maximum (0 -> 1) transition there *)
  Array.iter
    (fun net ->
      let before = Bytes.get even.Core.Evenodd.values.(4) net in
      let after = Bytes.get even.Core.Evenodd.values.(5) net in
      Alcotest.(check char) "before is 0" '\000' before;
      Alcotest.(check char) "after is 1" '\001' after)
    gates

let test_coi () =
  let _, a = analyze branch_program in
  let cois = Core.Analyze.cois (Lazy.force pa) a ~top:2 ~min_gap:3 in
  Alcotest.(check int) "two cois" 2 (List.length cois);
  List.iter
    (fun c ->
      Alcotest.(check bool) "has breakdown" true
        (List.length c.Core.Coi.breakdown >= 8);
      let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. c.Core.Coi.breakdown in
      Alcotest.(check bool) "breakdown sums to power" true
        (Float.abs (total -. c.Core.Coi.power) < 1e-9))
    cois

(* ---- optimizations ---- *)

let output_addr = Memmap.ram_base + 0x20

let pop_program =
  Tsupport.prologue
  @ [
      mov_imm 0x1111 4;
      mov_imm 0x2222 5;
      i (Insn.I2 (Insn.PUSH, Insn.S_reg 4));
      i (Insn.I2 (Insn.PUSH, Insn.S_reg 5));
      i (Insn.pop 6);
      i (Insn.pop 7);
      i (Insn.I1 (Insn.ADD, Insn.S_reg 6, Insn.D_reg 7));
      i (Insn.I1 (Insn.MOV, Insn.S_reg 7, Insn.D_abs (Insn.Lit output_addr)));
    ]

let test_opt2_rewrites_and_preserves () =
  let transformed, n = Core.Optimize.apply Core.Optimize.Opt2_pop ~scratch:13 pop_program in
  Alcotest.(check int) "two pops rewritten" 2 n;
  let assemble items = Tsupport.assemble_body items in
  Alcotest.(check bool) "functionally equivalent" true
    (Core.Optimize.verify ~assemble ~inputs:[] ~outputs:[ (output_addr, 1) ]
       pop_program transformed)

let test_opt1_rewrites_and_preserves () =
  let body =
    Tsupport.prologue
    @ [
        mov_imm input_addr 4;
        i (Insn.I1 (Insn.MOV, Insn.S_idx (Insn.Lit 2, 4), Insn.D_reg 5));
        i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 6));
        i (Insn.I1 (Insn.ADD, Insn.S_reg 6, Insn.D_reg 5));
        i (Insn.I1 (Insn.MOV, Insn.S_reg 5, Insn.D_abs (Insn.Lit output_addr)));
      ]
  in
  let transformed, n =
    Core.Optimize.apply Core.Optimize.Opt1_indexed_loads ~scratch:13 body
  in
  Alcotest.(check int) "two loads rewritten" 2 n;
  let assemble items = Tsupport.assemble_body items in
  Alcotest.(check bool) "functionally equivalent" true
    (Core.Optimize.verify ~assemble
       ~inputs:[ (input_addr, [ 123; 456 ]) ]
       ~outputs:[ (output_addr, 1) ]
       body transformed)

let test_opt3_inserts_nop () =
  let body =
    Tsupport.prologue
    @ [
        mov_imm 0x4444 4;
        i (Insn.I1 (Insn.MOV, Insn.S_reg 4, Insn.D_abs (Insn.Lit Memmap.mpy)));
        mov_imm 0x7FFF 5;
        i (Insn.I1 (Insn.MOV, Insn.S_reg 5, Insn.D_abs (Insn.Lit Memmap.op2)));
        i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit Memmap.reslo), Insn.D_reg 6));
        i (Insn.I1 (Insn.MOV, Insn.S_reg 6, Insn.D_abs (Insn.Lit output_addr)));
      ]
  in
  let transformed, n = Core.Optimize.apply Core.Optimize.Opt3_mult_nop ~scratch:13 body in
  Alcotest.(check int) "one nop inserted" 1 n;
  let assemble items = Tsupport.assemble_body items in
  Alcotest.(check bool) "functionally equivalent" true
    (Core.Optimize.verify ~assemble ~inputs:[] ~outputs:[ (output_addr, 1) ]
       body transformed);
  (* OPT3 must strictly reduce the peak of this multiplier-bound kernel *)
  let _, a0 = analyze body in
  let _, a1 = analyze transformed in
  Alcotest.(check bool) "peak reduced" true
    (a1.Core.Analyze.peak_power < a0.Core.Analyze.peak_power)

(* The definition of Section 3.3 pricing, written out: every visit of
   a segment re-prices its cycles. [Peak_energy.of_tree] sums each
   segment once (from the power trace, keeping a separate sum for a
   registered continuation, which drops the fork cycle); it must agree
   with this bit for bit. *)
let peak_energy_by_definition pa (tree : Gatesim.Trace.tree) ~loop_bound =
  let module SMap = Map.Make (String) in
  let period = Poweran.period pa in
  let bounded = ref 0 in
  let seg cycles =
    Array.fold_left
      (fun (e, n) cy -> (e +. (Poweran.cycle_power_max pa cy *. period), n + 1))
      (0., 0) cycles
  in
  let rec go node budgets =
    match node with
    | Gatesim.Trace.Run { cycles; next } ->
      let e, n = seg cycles in
      let e', n' = go next budgets in
      (e +. e', n + n')
    | Gatesim.Trace.Fork { not_taken; taken } ->
      let e0, n0 = go not_taken budgets in
      let e1, n1 = go taken budgets in
      if e1 > e0 then (e1, n1) else (e0, n0)
    | Gatesim.Trace.End_path -> (0., 0)
    | Gatesim.Trace.Seen d -> (
      let remaining =
        Option.value (SMap.find_opt d budgets) ~default:loop_bound
      in
      if remaining <= 0 then (incr bounded; (0., 0))
      else
        match Hashtbl.find_opt tree.Gatesim.Trace.registry d with
        | None -> (0., 0)
        | Some r -> go !r (SMap.add d (remaining - 1) budgets))
  in
  let e, n = go tree.Gatesim.Trace.root SMap.empty in
  (e, n, !bounded)

(* Every kernel whose tree has Seen edges, plus the polling loop (a
   Seen edge back into its own registered continuation). *)
let test_peak_energy_segment_sums () =
  let pa = Lazy.force pa in
  let poll =
    Tsupport.assemble_body
      (Tsupport.prologue
      @ [
          Asm.Label "poll";
          i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
          i (Insn.I1 (Insn.AND, Insn.S_imm (Insn.Lit 1), Insn.D_reg 4));
          i (Insn.J (Insn.JNE, Insn.Sym "poll"));
        ])
  in
  let programs =
    ("poll", poll, Core.Analyze.default_config)
    :: List.map
         (fun name ->
           let b =
             List.find
               (fun b -> b.Benchprogs.Bench.name = name)
               (Benchprogs.Bench.all @ Benchprogs.Extended.all)
           in
           ( name,
             Benchprogs.Bench.assemble b,
             {
               Core.Analyze.default_config with
               Core.Analyze.loop_bound = b.Benchprogs.Bench.loop_bound;
               max_paths = b.Benchprogs.Bench.max_paths;
             } ))
         [ "tHold"; "inSort"; "rle"; "Viterbi"; "median3"; "sad4" ]
  in
  List.iter
    (fun (name, img, config) ->
      let a = Core.Analyze.run ~config pa cpu img in
      let tree = Core.Analyze.tree a in
      let loop_bound = config.Core.Analyze.loop_bound in
      let expected = peak_energy_by_definition pa tree ~loop_bound in
      let got (r : Core.Peak_energy.result) =
        (r.Core.Peak_energy.energy, r.cycles, r.bounded_loops)
      in
      let same what r =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s = definition" name what)
          true
          (got r = expected)
      in
      same "analysis" a.Core.Analyze.peak_energy;
      same "without a trace" (Core.Peak_energy.of_tree pa tree ~loop_bound))
    programs

let test_design_tool_above_xbased () =
  let _, a = analyze branch_program in
  let dt =
    Poweran.design_tool_power (Lazy.force pa)
      ~activity:Poweran.default_design_activity
  in
  Alcotest.(check bool) "design tool above x-based" true
    (dt > a.Core.Analyze.peak_power)

let test_loop_bound_scales_energy () =
  (* polling an unknown flag: the energy bound must grow with the
     permitted iteration count (Section 3.3's user-supplied bound) *)
  let body =
    Tsupport.prologue
    @ [
        Asm.Label "poll";
        i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
        i (Insn.I1 (Insn.AND, Insn.S_imm (Insn.Lit 1), Insn.D_reg 4));
        i (Insn.J (Insn.JNE, Insn.Sym "poll"));
      ]
  in
  let img = Tsupport.assemble_body body in
  let run loop_bound =
    Core.Analyze.run
      ~config:{ Core.Analyze.default_config with Core.Analyze.loop_bound }
      (Lazy.force pa) cpu img
  in
  let e k = (run k).Core.Analyze.peak_energy.Core.Peak_energy.energy in
  let e2 = e 2 and e8 = e 8 in
  Alcotest.(check bool) "more iterations, more energy" true (e8 > e2);
  (* but the peak power bound is iteration-independent *)
  Alcotest.(check (float 1e-15)) "peak power unaffected"
    (run 2).Core.Analyze.peak_power (run 8).Core.Analyze.peak_power

let test_unbounded_loop_energy () =
  let body =
    Tsupport.prologue
    @ [
        Asm.Label "poll2";
        i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
        i (Insn.I1 (Insn.AND, Insn.S_imm (Insn.Lit 1), Insn.D_reg 4));
        i (Insn.J (Insn.JNE, Insn.Sym "poll2"));
      ]
  in
  let img = Tsupport.assemble_body body in
  match
    Core.Analyze.run
      ~config:{ Core.Analyze.default_config with Core.Analyze.loop_bound = 0 }
      (Lazy.force pa) cpu img
  with
  | exception Core.Peak_energy.Unbounded _ -> ()
  | _ -> Alcotest.fail "expected Unbounded for loop_bound = 0"

let test_path_limit_raised () =
  let img = Tsupport.assemble_body branch_program in
  match
    Core.Analyze.run
      ~config:{ Core.Analyze.default_config with Core.Analyze.max_paths = 1 }
      (Lazy.force pa) cpu img
  with
  | exception Gatesim.Sym.Path_limit _ -> ()
  | _ -> Alcotest.fail "expected Path_limit"

let test_opt_no_sites () =
  (* a program with nothing to rewrite: zero sites, unchanged items *)
  let body = Tsupport.prologue @ [ mov_imm 1 4 ] in
  List.iter
    (fun opt ->
      let out, n = Core.Optimize.apply opt ~scratch:13 body in
      match opt with
      | Core.Optimize.Opt1_indexed_loads ->
        (* the watchdog store is absolute but a store, not a load *)
        Alcotest.(check int) "opt1 no load sites" 0 n;
        Alcotest.(check int) "unchanged" (List.length body) (List.length out)
      | Core.Optimize.Opt2_pop | Core.Optimize.Opt3_mult_nop ->
        Alcotest.(check int) "no sites" 0 n)
    Core.Optimize.all_opts

let () =
  Alcotest.run "core"
    [
      ( "peak-power",
        [
          Alcotest.test_case "above base" `Quick test_peak_above_base;
          Alcotest.test_case "bound dominates" `Quick test_bound_dominates_concrete;
          Alcotest.test_case "superset" `Quick test_superset;
          Alcotest.test_case "design tool above" `Quick test_design_tool_above_xbased;
        ] );
      ( "peak-energy",
        [
          Alcotest.test_case "straight line" `Quick test_peak_energy_straightline;
          Alcotest.test_case "fork takes max" `Quick test_peak_energy_fork_takes_max;
          Alcotest.test_case "segment sums = definition" `Quick
            test_peak_energy_segment_sums;
        ] );
      ( "evenodd",
        [
          Alcotest.test_case "equivalence" `Quick test_evenodd_equivalence;
          Alcotest.test_case "figure 3.2" `Quick test_figure_3_2;
        ] );
      ("coi", [ Alcotest.test_case "spikes" `Quick test_coi ]);
      ( "optimize",
        [
          Alcotest.test_case "opt1" `Quick test_opt1_rewrites_and_preserves;
          Alcotest.test_case "opt2" `Quick test_opt2_rewrites_and_preserves;
          Alcotest.test_case "opt3" `Quick test_opt3_inserts_nop;
          Alcotest.test_case "no sites" `Quick test_opt_no_sites;
        ] );
      ( "limits",
        [
          Alcotest.test_case "loop bound scales energy" `Quick
            test_loop_bound_scales_energy;
          Alcotest.test_case "unbounded loop rejected" `Quick
            test_unbounded_loop_energy;
          Alcotest.test_case "path limit" `Quick test_path_limit_raised;
        ] );
    ]
