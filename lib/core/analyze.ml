(* End-to-end driver: application binary + processor netlist ->
   guaranteed application-specific peak power and energy requirements
   (the tool of Figure 3.1). *)

type config = {
  revisit_limit : int;
  loop_bound : int;
  max_paths : int;
  max_cycles_per_path : int;
}

let default_config =
  { revisit_limit = 0; loop_bound = 16; max_paths = 4096; max_cycles_per_path = 20_000 }

type t = {
  image : Isa.Asm.image;
  sym_stats : Gatesim.Sym.stats;
  power_trace : float array;  (** per-cycle peak power bound, W *)
  peak_power : float;  (** W *)
  peak_index : int;
  peak_energy : Peak_energy.result;
  load_tree : unit -> Gatesim.Trace.tree;
}

(* What the ["analysis"] namespace stores: the bounds and nothing the
   tree can rebuild, so a hit reads kilobytes, not the tree. *)
type bounds = {
  b_sym_stats : Gatesim.Sym.stats;
  b_power_trace : float array;
  b_peak_power : float;
  b_peak_index : int;
  b_peak_energy : Peak_energy.result;
}

let tree t = t.load_tree ()
let flattened t = Gatesim.Trace.flatten (tree t)

(* Standard power-analysis context for a built CPU: 100 MHz, default
   library, memory-bus capacitance on the external bus pins. *)
let poweran_for ?(lib = Stdcell.default) ?(period = 1e-8) cpu =
  (* The 17x17 array's partial-product routing is wire-dominated; scale
     its switching energy accordingly (the multiplier is the paper's
     "relatively large, high-power module"). *)
  Poweran.create ~bus:cpu.Cpu.bus_nets
    ~module_scale:[ ("multiplier", 1.6) ]
    cpu.Cpu.netlist lib ~period

let c_folded = Telemetry.Counter.make "engine.gates_folded"
let c_swept = Telemetry.Counter.make "engine.gates_swept"

(* Denominator for the fold ratio (folded / total): bumped per engine,
   specialized or not, so the ratio is well-defined in both modes. *)
let c_gates = Telemetry.Counter.make "engine.gates_total"

(* The specialization depends only on the netlist and the reset
   protocol (not on the program image), so one result serves every
   analysis over a CPU — memoized by netlist identity, like the digest
   memos below. A concurrent recompute from a pool worker is harmless
   (last write wins, same result). *)
let spec_memo : (Netlist.t * Netlist.Specialize.t) option ref = ref None

let specialization_for cpu =
  let nl = cpu.Cpu.netlist in
  match !spec_memo with
  | Some (nl', sp) when nl' == nl -> sp
  | _ ->
    let sp =
      Telemetry.span "specialize" @@ fun () ->
      Netlist.Specialize.compute nl
        ~reset:cpu.Cpu.ports.Gatesim.Engine.reset
    in
    spec_memo := Some (nl, sp);
    sp

(* Membership test for folded nets, computed regardless of whether the
   engines run specialized — [Explain] labels folded gates as a
   "constant" class, and that labeling must not depend on the engine
   mode (outputs are byte-identical with specialization on or off). *)
let folded_pred cpu =
  let sp = specialization_for cpu in
  Netlist.Specialize.is_folded sp

let engine_for ?(specialize = true) cpu image ~symbolic =
  let mem = Cpu.mem_of_image image in
  if not symbolic then Cpu.zero_ram mem;
  Telemetry.Counter.add c_gates (Netlist.gate_count cpu.Cpu.netlist);
  let spec =
    if specialize then begin
      let sp = specialization_for cpu in
      Telemetry.Counter.add c_folded (Netlist.Specialize.folded_count sp);
      Telemetry.Counter.add c_swept (Netlist.Specialize.swept sp);
      Some sp
    end
    else None
  in
  let e =
    Gatesim.Engine.create ?spec cpu.Cpu.netlist ~ports:cpu.Cpu.ports ~mem
  in
  if not symbolic then Gatesim.Engine.set_port_in e (Array.make 16 Tri.Zero);
  e

(* ---------------- cache keys ----------------

   Every analysis is deterministic in (netlist+ports, image, config) for
   Algorithm 1 and additionally the power context for the Section
   3.2/3.3 computations, so results are content-addressed by digests of
   exactly those inputs plus [analysis_version] — bump the version
   whenever analysis semantics or a stored type change, and old entries
   become misses. *)

(* 2: compiled gate-evaluation kernel — dedup digests switched from MD5
   serialization to incremental Zobrist hashes, so cached trees from
   version 1 reference stale digest strings.
   3: "analysis" stores [bounds] instead of [t], "peak-power" stores the
   trace without the flattened cycles, and "peak-energy" is gone. *)
let analysis_version = 3

(* Digesting the elaborated netlist and the power model takes
   milliseconds each, and both are invariant across the analyses of a
   process (every block of a static analysis, every request of
   `xbound serve`). Memoize the digest by physical identity; a
   concurrent recompute is harmless (last write wins, same digest). *)
let identity_memo (digest : 'a -> string) =
  let last = ref None in
  fun (v : 'a) ->
    match !last with
    | Some (v', d) when v' == v -> d
    | _ ->
      let d = digest v in
      last := Some (v, d);
      d

let cpu_digest =
  identity_memo (fun (cpu : Cpu.t) ->
      Cache.Key.of_value (cpu.Cpu.netlist, cpu.Cpu.ports))

let pa_digest = identity_memo (fun (pa : Poweran.t) -> Cache.Key.of_value pa)

let build_standard () =
  let cpu = Cpu.build () in
  (cpu, poweran_for cpu)

(* Keys need only the two digests; the gates are needed only by the
   computations behind a miss. Separating the two lets a caller that
   knows the digests ahead of time (the facade bakes them at build
   time) answer a cache hit without elaborating anything. *)
type model = {
  cpu_digest : unit -> Cache.Key.t;
  pa_digest : unit -> Cache.Key.t;
  elaborate : unit -> Cpu.t * Poweran.t;
}

let model pa cpu =
  {
    cpu_digest = (fun () -> cpu_digest cpu);
    pa_digest = (fun () -> pa_digest pa);
    elaborate = (fun () -> (cpu, pa));
  }

(* Tier-2 key: the execution tree does not depend on the power context
   or the loop bound, so reruns that only change those reuse it. *)
let tree_key ?(version = analysis_version) config m (image : Isa.Asm.image) =
  Cache.Key.combine
    [
      "symtree";
      string_of_int version;
      m.cpu_digest ();
      Cache.Key.of_value image;
      string_of_int config.revisit_limit;
      string_of_int config.max_paths;
      string_of_int config.max_cycles_per_path;
    ]

let analysis_key ~version ~config m tkey =
  Cache.Key.combine
    [
      "analysis";
      string_of_int version;
      tkey;
      m.pa_digest ();
      string_of_int config.loop_bound;
    ]

(* Tier-1 key: the whole analysis result. *)
let cache_key ?(version = analysis_version) ~config m image =
  analysis_key ~version ~config m (tree_key ~version config m image)

let of_bounds image load_tree b =
  {
    image;
    sym_stats = b.b_sym_stats;
    power_trace = b.b_power_trace;
    peak_power = b.b_peak_power;
    peak_index = b.b_peak_index;
    peak_energy = b.b_peak_energy;
    load_tree;
  }

(* Symbolic analysis: Algorithm 1 then the Section 3.2/3.3
   computations. [pool] defaults to the ambient pool (see [Parallel]);
   results are bit-identical at any job count, and — because cached
   entries are Marshal round-trips of the same floats — also bit
   identical between cached and fresh runs.

   With a cache, each namespace holds one thing: "symtree" the tree and
   its stats, "peak-power" the trace and its peak, "analysis" the
   bounds. A hit on "analysis" never reads the tree; [tree] fetches it
   later through the same single-flight "symtree" memo, so it comes from
   memory, from disk, or from a deterministic re-exploration. The model
   is elaborated only inside those computations, so a hit needs only
   its digests.

   [specialize] (default on) only selects the engine's compiled program;
   trees, digests and bounds are bit-identical either way (the
   differential suite enforces it), so it deliberately does NOT enter
   the cache keys — cached entries are shared across modes. *)
let run_model ?(config = default_config) ?pool ?cache ?specialize m
    (image : Isa.Asm.image) =
  Telemetry.span "analyze" @@ fun () ->
  let explore () =
    let cpu, _ = m.elaborate () in
    let pool = match pool with Some _ as p -> p | None -> Parallel.auto () in
    let e = engine_for ?specialize cpu image ~symbolic:true in
    let sym_config =
      {
        (Gatesim.Sym.default_config
           ~is_end:(Cpu.is_end_cycle ~halt_addr:image.Isa.Asm.halt_addr))
        with
        Gatesim.Sym.max_cycles_per_path = config.max_cycles_per_path;
        max_paths = config.max_paths;
        revisit_limit = config.revisit_limit;
      }
    in
    Gatesim.Sym.run ?pool e sym_config
  in
  let compute ~symtree ~pp_cache =
    let tree, sym_stats = Telemetry.span "explore" symtree in
    let _, pa = m.elaborate () in
    let pp =
      Telemetry.span "peak-power" (fun () ->
          Peak_power.of_tree ?cache:pp_cache pa tree)
    in
    let pe =
      Telemetry.span "peak-energy" (fun () ->
          Peak_energy.of_tree ~trace:pp.Peak_power.trace pa tree
            ~loop_bound:config.loop_bound)
    in
    ( tree,
      {
        b_sym_stats = sym_stats;
        b_power_trace = pp.Peak_power.trace;
        b_peak_power = pp.Peak_power.peak;
        b_peak_index = pp.Peak_power.peak_index;
        b_peak_energy = pe;
      } )
  in
  match cache with
  | None ->
    let tree, b = compute ~symtree:explore ~pp_cache:None in
    of_bounds image (fun () -> tree) b
  | Some c ->
    let tkey = tree_key config m image in
    let symtree () = Cache.memo c ~ns:"symtree" ~key:tkey explore in
    (* the peak-power trace hangs off the tree + power context *)
    let pkey = Cache.Key.combine [ tkey; m.pa_digest () ] in
    let b =
      Cache.memo c ~ns:"analysis"
        ~key:(analysis_key ~version:analysis_version ~config m tkey)
        (fun () -> snd (compute ~symtree ~pp_cache:(Some (c, pkey))))
    in
    of_bounds image (fun () -> fst (symtree ())) b

let run ?config ?pool ?cache ?specialize pa cpu image =
  run_model ?config ?pool ?cache ?specialize (model pa cpu) image

(* Symbolic execution of a program fragment: boot the machine with the
   reset vector pointed at [entry] and explore until [is_end]. Because
   every register, SR and RAM word starts X (only the PC has a reset
   value), booting straight into a basic block is exactly the
   conservative "entered from any machine state" entry the static tier
   needs — no prologue, no state surgery. *)
let run_fragment ?pool ?specialize ~is_end ~max_cycles_per_path ~max_paths cpu
    (image : Isa.Asm.image) ~entry =
  Telemetry.span "fragment" @@ fun () ->
  let pool = match pool with Some _ as p -> p | None -> Parallel.auto () in
  (* Boot through a thunk placed past the program's last ROM word: stop
     the watchdog, then jump to [entry]. Without it the free-running
     watchdog counter gives every cycle a distinct state digest, so a
     loop inside the fragment never dedups. Every program in this
     repository (like any real MSP430 application) stops the watchdog
     in its prologue and leaves it stopped, so the fragment bound still
     dominates every reachable entry into the fragment. *)
  let thunk_base =
    List.fold_left
      (fun m (a, _) -> if a < Isa.Memmap.reset_vector then max m (a + 2) else m)
      Isa.Memmap.rom_base image.Isa.Asm.words
  in
  let lookup _ = 0 in
  let wdt_stop =
    Isa.Insn.encode ~lookup ~pc:thunk_base
      (Isa.Insn.I1
         ( Isa.Insn.MOV,
           Isa.Insn.S_imm (Isa.Insn.Lit 0x5A80),
           Isa.Insn.D_abs (Isa.Insn.Lit Isa.Memmap.wdtctl) ))
  in
  let br_pc = thunk_base + (2 * List.length wdt_stop) in
  let br =
    Isa.Insn.encode ~lookup ~pc:br_pc
      (Isa.Insn.br (Isa.Insn.S_imm (Isa.Insn.Lit entry)))
  in
  let thunk_words =
    List.mapi (fun k w -> (thunk_base + (2 * k), w)) (wdt_stop @ br)
  in
  let thunk_limit = thunk_base + (2 * List.length (wdt_stop @ br)) in
  assert (thunk_limit <= Isa.Memmap.reset_vector);
  let image =
    {
      image with
      Isa.Asm.entry_addr = entry;
      words =
        List.map
          (fun (a, w) ->
            if a = Isa.Memmap.reset_vector then (a, thunk_base) else (a, w))
          image.Isa.Asm.words
        @ thunk_words;
    }
  in
  (* Thunk fetches must not trip the caller's end predicate. *)
  let is_end cy =
    match
      (Tri.Word.to_int cy.Gatesim.Trace.state, Tri.Word.to_int cy.Gatesim.Trace.pc)
    with
    | Some s, Some p when s = Cpu.st_fetch && p >= thunk_base && p < thunk_limit
      ->
      false
    | _ -> is_end cy
  in
  let e = engine_for ?specialize cpu image ~symbolic:true in
  let sym_config =
    {
      (Gatesim.Sym.default_config ~is_end) with
      Gatesim.Sym.max_cycles_per_path;
      max_paths;
    }
  in
  Gatesim.Sym.run ?pool e sym_config

(* Concrete (input-based) execution for profiling and validation. *)
let run_concrete ?specialize pa cpu (image : Isa.Asm.image) ~inputs =
  Telemetry.span "concrete" @@ fun () ->
  let e = engine_for ?specialize cpu image ~symbolic:false in
  List.iter
    (fun (addr, ws) ->
      List.iteri
        (fun k w -> Gatesim.Mem.poke (Gatesim.Engine.mem e) (addr + (2 * k)) w)
        ws)
    inputs;
  let cycles, _initial =
    Gatesim.Sym.run_concrete e
      ~is_end:(Cpu.is_end_cycle ~halt_addr:image.Isa.Asm.halt_addr)
      ~max_cycles:200_000
  in
  let trace = Poweran.trace_power pa ~mode:`Observed cycles in
  (cycles, trace)

let cois ?(top = 4) ?(min_gap = 5) pa t =
  Coi.find ~image:t.image pa ~flattened:(flattened t) ~trace:t.power_trace ~top
    ~min_gap
