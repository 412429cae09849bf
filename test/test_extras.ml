(* Tests for the tooling extensions: disassembly listings, Verilog and
   Liberty export, the Chapter-6 multi-program/interrupt combinators,
   and the microarchitectural WCEC baseline. *)

let cpu = Tsupport.the_cpu ()
let pa = lazy (Core.Analyze.poweran_for cpu)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- listing ---- *)

let test_listing_roundtrip () =
  let b = Benchprogs.Bench.find "intAVG" in
  let img = Benchprogs.Bench.assemble b in
  let lines = Isa.Listing.lines img in
  (* every image word is covered exactly once *)
  let covered = Hashtbl.create 64 in
  List.iter
    (fun (l : Isa.Listing.line) ->
      List.iteri
        (fun k _ ->
          let a = l.Isa.Listing.addr + (2 * k) in
          Alcotest.(check bool)
            (Printf.sprintf "no overlap at %04x" a)
            false (Hashtbl.mem covered a);
          Hashtbl.replace covered a ())
        l.Isa.Listing.words)
    lines;
  List.iter
    (fun (a, _) ->
      Alcotest.(check bool) (Printf.sprintf "covered %04x" a) true
        (Hashtbl.mem covered a))
    img.Isa.Asm.words;
  let text = Isa.Listing.to_string img in
  Alcotest.(check bool) "entry label shown" true (contains text "start:");
  Alcotest.(check bool) "halt label shown" true (contains text "_halt:")

let test_listing_decodes_match_source () =
  (* decoded mnemonics reparse and re-encode to the original words *)
  let b = Benchprogs.Bench.find "tea8" in
  let img = Benchprogs.Bench.assemble b in
  List.iter
    (fun (l : Isa.Listing.line) ->
      if not (contains l.Isa.Listing.text ".word") then begin
        let i = Isa.Parse.instr l.Isa.Listing.text in
        let ws =
          Isa.Insn.encode ~lookup:(fun _ -> 0) ~pc:l.Isa.Listing.addr i
        in
        Alcotest.(check (list int))
          (Printf.sprintf "reencode @%04x %s" l.Isa.Listing.addr l.Isa.Listing.text)
          l.Isa.Listing.words ws
      end)
    (Isa.Listing.lines img)

(* ---- verilog / liberty export ---- *)

let test_verilog_export () =
  let text = Verilog_export.file_text cpu.Cpu.netlist in
  Alcotest.(check bool) "has module" true (contains text "module xbound_core");
  Alcotest.(check bool) "has cell models" true (contains text "module X_DFFE");
  Alcotest.(check bool) "has endmodule" true (contains text "endmodule");
  (* one instance per non-input/const gate *)
  let count needle =
    let n = ref 0 in
    String.iteri
      (fun i _ ->
        if
          i + String.length needle <= String.length text
          && String.sub text i (String.length needle) = needle
        then incr n)
      text;
    !n
  in
  let insts = count "  X_" in
  let expected =
    Array.fold_left
      (fun acc (g : Netlist.gate) ->
        match g.Netlist.cell with
        | Netlist.Input | Netlist.Const _ -> acc
        | _ -> acc + 1)
      0 cpu.Cpu.netlist.Netlist.gates
  in
  Alcotest.(check int) "instance count" expected insts;
  (* probe ports present *)
  Alcotest.(check bool) "pc probe" true (contains text "output pc_0_")

let test_liberty_export () =
  let text = Stdcell.liberty_text Stdcell.default in
  Alcotest.(check bool) "library header" true (contains text "library (xbound65gp_1v0)");
  List.iter
    (fun c ->
      Alcotest.(check bool) ("cell " ^ c) true (contains text ("cell (X_" ^ c ^ ")")))
    [ "INV"; "NAND2"; "MUX2"; "DFF"; "DFFE" ]

(* ---- multiprog / interrupts ---- *)

let analyze_bench name =
  let b = Benchprogs.Bench.find name in
  let config =
    {
      Core.Analyze.default_config with
      Core.Analyze.max_paths = b.Benchprogs.Bench.max_paths;
      loop_bound = b.Benchprogs.Bench.loop_bound;
    }
  in
  Core.Analyze.run ~config (Lazy.force pa) cpu (Benchprogs.Bench.assemble b)

let test_multiprog_max () =
  let a1 = analyze_bench "intAVG" in
  let a2 = analyze_bench "tea8" in
  let m = Core.Multiprog.max_peak [ a1; a2 ] in
  Alcotest.(check (float 1e-15)) "max of peaks"
    (Float.max a1.Core.Analyze.peak_power a2.Core.Analyze.peak_power)
    m;
  Alcotest.(check bool) "npe max" true
    (Core.Multiprog.max_npe [ a1; a2 ]
    >= a1.Core.Analyze.peak_energy.Core.Peak_energy.npe)

let test_multiprog_union_dominates () =
  let a1 = analyze_bench "intAVG" in
  let a2 = analyze_bench "tea8" in
  let u =
    Core.Multiprog.union_peak_bound (Lazy.force pa)
      [ Core.Analyze.tree a1; Core.Analyze.tree a2 ]
  in
  Alcotest.(check bool) "union >= each peak" true
    (u >= a1.Core.Analyze.peak_power -. 1e-12
    && u >= a2.Core.Analyze.peak_power -. 1e-12)

let test_isr_combination () =
  let main = analyze_bench "intAVG" in
  let isr = analyze_bench "ConvEn" in
  let c =
    Core.Multiprog.combine_isr ~main ~isr ~max_invocations:3
      ~detection_power:1e-5
  in
  Alcotest.(check bool) "peak covers both" true
    (c.Core.Multiprog.peak_power
    >= Float.max main.Core.Analyze.peak_power isr.Core.Analyze.peak_power);
  Alcotest.(check bool) "energy covers main + 3 isr" true
    (Float.abs
       (c.Core.Multiprog.peak_energy
       -. (main.Core.Analyze.peak_energy.Core.Peak_energy.energy
          +. (3. *. isr.Core.Analyze.peak_energy.Core.Peak_energy.energy)))
    < 1e-15)

(* ---- WCEC baseline ---- *)

let test_wcec_classify () =
  let open Isa in
  Alcotest.(check bool) "alu" true
    (Baselines.Wcec.classify (Insn.I1 (Insn.ADD, Insn.S_reg 4, Insn.D_reg 5))
    = Baselines.Wcec.K_alu);
  Alcotest.(check bool) "load" true
    (Baselines.Wcec.classify
       (Insn.I1 (Insn.MOV, Insn.S_idx (Insn.Lit 2, 4), Insn.D_reg 5))
    = Baselines.Wcec.K_load);
  Alcotest.(check bool) "mul access" true
    (Baselines.Wcec.classify
       (Insn.I1 (Insn.MOV, Insn.S_reg 4, Insn.D_abs (Insn.Lit Memmap.op2)))
    = Baselines.Wcec.K_mul_access);
  Alcotest.(check bool) "jump" true
    (Baselines.Wcec.classify (Insn.J (Insn.JMP, Insn.Lit 0)) = Baselines.Wcec.K_jump)

let test_wcec_estimate_looser_than_gate_level () =
  (* the microarchitectural model has no gate-level visibility, so its
     bound should be looser (higher NPE) than the co-analysis bound *)
  let b = Benchprogs.Bench.find "tea8" in
  let img = Benchprogs.Bench.assemble b in
  let w =
    Baselines.Wcec.of_program (Lazy.force pa) img
      ~input_sets:
        [ b.Benchprogs.Bench.gen_inputs ~seed:2; b.Benchprogs.Bench.gen_inputs ~seed:8 ]
  in
  let a = analyze_bench "tea8" in
  Alcotest.(check bool) "wcec energy positive" true (w.Baselines.Wcec.energy > 0.);
  Alcotest.(check bool) "wcec npe looser than x-based" true
    (w.Baselines.Wcec.npe > a.Core.Analyze.peak_energy.Core.Peak_energy.npe)

(* ---- asynchronous peripheral analysis (Chapter 6) ---- *)

let test_async_analysis () =
  (* a toy 4-bit free-running-when-enabled counter with unknown enable *)
  let c = Rtl.create () in
  let reset = Rtl.input c in
  let en = Rtl.input c in
  let cnt = Rtl.reg c ~width:4 in
  Rtl.connect c cnt ~reset ~reset_to:0 ~enable:en (Rtl.inc c (Rtl.q cnt));
  let gnd0 = Rtl.gnd c in
  let nl = Rtl.freeze c in
  let ports =
    {
      Gatesim.Engine.reset;
      port_in = [| en |];
      mem_addr = [| gnd0 |];
      mem_rdata = [||];
      mem_wdata = [| gnd0 |];
      mem_ren = gnd0;
      mem_wen = gnd0;
      pc = [| gnd0 |];
      state = [| gnd0 |];
      ir = [| gnd0 |];
      fork_net = None;
    }
  in
  let pa2 = Poweran.create nl Stdcell.default ~period:1e-8 in
  let r = Core.Async.analyze pa2 ~ports ~cycles:256 in
  Alcotest.(check bool) "saturates" true r.Core.Async.saturated;
  Alcotest.(check bool) "above base" true
    (r.Core.Async.peak_power > Poweran.base_power pa2);
  Alcotest.(check bool) "npe <= peak energy rate" true
    (r.Core.Async.npe <= r.Core.Async.peak_power *. 1e-8 +. 1e-18);
  (* composition is additive *)
  Alcotest.(check (float 1e-18)) "add_to" (1.0 +. r.Core.Async.peak_power)
    (Core.Async.add_to ~cpu_bound:1.0 ~peripherals:[ r ])

let () =
  Alcotest.run "extras"
    [
      ( "listing",
        [
          Alcotest.test_case "coverage" `Quick test_listing_roundtrip;
          Alcotest.test_case "reencode" `Quick test_listing_decodes_match_source;
        ] );
      ( "export",
        [
          Alcotest.test_case "verilog" `Quick test_verilog_export;
          Alcotest.test_case "liberty" `Quick test_liberty_export;
        ] );
      ( "multiprog",
        [
          Alcotest.test_case "max" `Quick test_multiprog_max;
          Alcotest.test_case "union dominates" `Quick test_multiprog_union_dominates;
          Alcotest.test_case "isr" `Quick test_isr_combination;
        ] );
      ( "wcec",
        [
          Alcotest.test_case "classify" `Quick test_wcec_classify;
          Alcotest.test_case "looser than gate-level" `Quick
            test_wcec_estimate_looser_than_gate_level;
        ] );
      ("async", [ Alcotest.test_case "peripheral bound" `Quick test_async_analysis ]);
    ]
