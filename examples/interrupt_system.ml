(* Sizing a system with an interrupt service routine and a second
   program image (paper, Chapter 6).

   The main flow is a sampling loop (intAVG); a communication ISR
   (ConvEn encodes a status word) may run up to twice per activation.
   Both are ordinary routines analyzed with the ordinary technique; the
   combination rules give the system's requirement. We also show the
   union-of-activities bound for a dual-image (self-modifying or
   dynamically-linked) deployment.

   Run with: dune exec examples/interrupt_system.exe *)

let () =
  let ctx = Report.Context.create ~log:(fun _ -> ()) () in
  let analyze name =
    Report.Context.analysis ctx (Benchprogs.Bench.find name)
  in
  let main = analyze "intAVG" in
  let isr = analyze "ConvEn" in
  Printf.printf "main flow (intAVG): peak %.3f mW, energy %.3f nJ\n"
    (main.Core.Analyze.peak_power *. 1e3)
    (main.Core.Analyze.peak_energy.Core.Peak_energy.energy *. 1e9);
  Printf.printf "ISR (ConvEn):       peak %.3f mW, energy %.3f nJ\n"
    (isr.Core.Analyze.peak_power *. 1e3)
    (isr.Core.Analyze.peak_energy.Core.Peak_energy.energy *. 1e9);

  (* interrupt combination: detection logic burns a constant 20 uW; at
     most 2 ISR invocations per activation *)
  let sys =
    Core.Multiprog.combine_isr ~main ~isr ~max_invocations:2
      ~detection_power:20e-6
  in
  Printf.printf
    "\nsystem requirement with the ISR:\n  peak %.3f mW, energy %.3f nJ\n"
    (sys.Core.Multiprog.peak_power *. 1e3)
    (sys.Core.Multiprog.peak_energy *. 1e9);

  (* dual-image deployment: one image at a time vs union bound *)
  Printf.printf "\ndual-image deployment:\n";
  Printf.printf "  one-at-a-time requirement: %.3f mW\n"
    (Core.Multiprog.max_peak [ main; isr ] *. 1e3);
  Printf.printf "  union-of-activities bound: %.3f mW (conservative)\n"
    (Core.Multiprog.union_peak_bound ctx.Report.Context.pa
       [ Core.Analyze.tree main; Core.Analyze.tree isr ]
    *. 1e3);

  (* what the tighter bound buys at the system level *)
  let gb = Baselines.Profiling.run ctx.Report.Context.pa ctx.Report.Context.cpu
      (Benchprogs.Bench.find "intAVG")
  in
  let pv = Sizing.Harvester.find "Photovoltaic (indoor)" in
  Printf.printf
    "\nharvester for the main flow: %.1f cm^2 (X-based) vs %.1f cm^2 \
     (guardbanded profiling)\n"
    (Sizing.Harvester.area_cm2 pv ~power_w:sys.Core.Multiprog.peak_power)
    (Sizing.Harvester.area_cm2 pv ~power_w:(gb.Baselines.Profiling.gb_peak +. 20e-6))
