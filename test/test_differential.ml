(* Differential tests: the compiled evaluation kernel ([Gatesim.Engine])
   against the interpreted reference evaluator ([Gatesim.Refsim]).

   The kernel claims bit-identical observable behaviour: per-cycle delta
   and X-active sets, probe samples, fork points, and — through the
   digest's *partition* of states (Zobrist vs. MD5 strings differ, their
   equivalence classes must not) — identical dedup decisions, hence
   identical trees and identical peak power/energy bounds. These tests
   check exactly that, on randomized netlists and on real programs. *)

open Isa

let i x = Asm.I x
let mov_imm n r = i (Insn.I1 (Insn.MOV, Insn.S_imm (Insn.Lit n), Insn.D_reg r))
let input_addr = Memmap.ram_base + 0x80

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

let polling_program =
  Tsupport.prologue
  @ [
      Asm.Label "poll";
      i (Insn.I1 (Insn.MOV, Insn.S_abs (Insn.Lit input_addr), Insn.D_reg 4));
      i (Insn.I1 (Insn.AND, Insn.S_imm (Insn.Lit 1), Insn.D_reg 4));
      i (Insn.J (Insn.JNE, Insn.Sym "poll"));
    ]

let tri_word =
  Alcotest.testable Tri.Word.pp Tri.Word.equal

let check_cycle msg (ce : Gatesim.Trace.cycle) (cr : Gatesim.Trace.cycle) =
  Alcotest.(check (array int))
    (msg ^ ": deltas")
    cr.Gatesim.Trace.deltas ce.Gatesim.Trace.deltas;
  Alcotest.(check (array int))
    (msg ^ ": x_active")
    cr.Gatesim.Trace.x_active ce.Gatesim.Trace.x_active;
  Alcotest.check tri_word (msg ^ ": pc") cr.Gatesim.Trace.pc ce.Gatesim.Trace.pc;
  Alcotest.check tri_word (msg ^ ": state") cr.Gatesim.Trace.state
    ce.Gatesim.Trace.state;
  Alcotest.check tri_word (msg ^ ": ir") cr.Gatesim.Trace.ir ce.Gatesim.Trace.ir

(* ---------------- randomized netlists ---------------- *)

(* A random acyclic netlist with the full external interface the engine
   expects: reset, 8 port inputs, 16 memory-read-data inputs, a pool of
   random 2-input cells/muxes over everything created so far, and a few
   (enable-)flops patched to close feedback loops. *)
let random_design rng =
  let b = Netlist.Builder.create () in
  Netlist.Builder.set_module b "rand";
  let reset = Netlist.Builder.add_input b in
  let port_in = Array.init 8 (fun _ -> Netlist.Builder.add_input b) in
  let rdata = Array.init 16 (fun _ -> Netlist.Builder.add_input b) in
  let zero = Netlist.Builder.add_const b Tri.Zero in
  let one = Netlist.Builder.add_const b Tri.One in
  let pool = ref [ reset; zero; one ] in
  Array.iter (fun id -> pool := id :: !pool) port_in;
  Array.iter (fun id -> pool := id :: !pool) rdata;
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let dffs = Array.init 6 (fun _ -> Netlist.Builder.add_dff b) in
  let dffes = Array.init 4 (fun _ -> Netlist.Builder.add_dffe b) in
  Array.iter (fun id -> pool := id :: !pool) dffs;
  Array.iter (fun id -> pool := id :: !pool) dffes;
  for _ = 1 to 120 do
    let cell =
      match Random.State.int rng 9 with
      | 0 -> Netlist.Buf
      | 1 -> Netlist.Inv
      | 2 -> Netlist.And2
      | 3 -> Netlist.Or2
      | 4 -> Netlist.Nand2
      | 5 -> Netlist.Nor2
      | 6 -> Netlist.Xor2
      | 7 -> Netlist.Xnor2
      | _ -> Netlist.Mux2
    in
    let f = Array.init (Netlist.cell_arity cell) (fun _ -> pick ()) in
    pool := Netlist.Builder.add_gate b cell f :: !pool
  done;
  Array.iter (fun id -> Netlist.Builder.set_dff_input b id (pick ())) dffs;
  Array.iter
    (fun id -> Netlist.Builder.set_dffe_inputs b id ~en:(pick ()) ~d:(pick ()))
    dffes;
  let nl = Netlist.Builder.freeze b in
  let bus k = Array.init k (fun _ -> pick ()) in
  let ports =
    {
      Gatesim.Engine.reset;
      port_in;
      mem_addr = bus 16;
      mem_rdata = rdata;
      mem_wdata = bus 16;
      (* Half the designs have a live (possibly X) read enable, so the
         rdata-driving paths of begin_cycle are exercised too. *)
      mem_ren = (if Random.State.bool rng then port_in.(0) else zero);
      mem_wen = zero;
      pc = bus 4;
      state = bus 3;
      ir = bus 4;
      fork_net = None;
    }
  in
  (nl, ports)

let random_trit rng =
  match Random.State.int rng 4 with
  | 0 -> Tri.Zero
  | 1 -> Tri.One
  | _ -> Tri.X

let test_random_netlists () =
  for trial = 0 to 14 do
    let rng = Random.State.make [| 0x5eed; trial |] in
    let nl, ports = random_design rng in
    let mk () = Gatesim.Mem.create ~rom:[] ~ram_base:0x1000 ~ram_bytes:64 in
    let e = Gatesim.Engine.create nl ~ports ~mem:(mk ()) in
    let r = Gatesim.Refsim.create nl ~ports ~mem:(mk ()) in
    let digests = ref [] in
    let step_both tag cyc =
      let drives = Array.init 8 (fun _ -> random_trit rng) in
      let rst = random_trit rng in
      Gatesim.Engine.set_port_in e drives;
      Gatesim.Refsim.set_port_in r drives;
      Gatesim.Engine.set_reset e rst;
      Gatesim.Refsim.set_reset r rst;
      let ce = Gatesim.Engine.step e and cr = Gatesim.Refsim.step r in
      check_cycle (Printf.sprintf "trial %d %s cycle %d" trial tag cyc) ce cr;
      Alcotest.(check (array int))
        (Printf.sprintf "trial %d %s cycle %d: values" trial tag cyc)
        (Gatesim.Refsim.values_snapshot r)
        (Gatesim.Engine.values_snapshot e);
      digests :=
        (Gatesim.Engine.arch_digest e, Gatesim.Refsim.arch_digest r)
        :: !digests
    in
    for cyc = 1 to 20 do
      step_both "pre" cyc
    done;
    (* Snapshot both, diverge, restore, and keep comparing: the O(1)
       copy-on-write snapshots must behave exactly like the reference's
       deep copies. *)
    let se = Gatesim.Engine.snapshot e and sr = Gatesim.Refsim.snapshot r in
    for cyc = 21 to 30 do
      step_both "diverged" cyc
    done;
    Gatesim.Engine.restore e se;
    Gatesim.Refsim.restore r sr;
    for cyc = 31 to 45 do
      step_both "restored" cyc
    done;
    (* Digest partition equivalence: Zobrist strings differ from MD5
       strings, but two states must collide on one side iff they collide
       on the other. *)
    let ds = Array.of_list !digests in
    Array.iteri
      (fun a (ea, ra) ->
        Array.iteri
          (fun b (eb, rb) ->
            if a < b then
              Alcotest.(check bool)
                (Printf.sprintf "trial %d: digest partition (%d,%d)" trial a b)
                (String.equal ra rb) (String.equal ea eb))
          ds)
      ds
  done

(* ---------------- gang vs scalar lockstep ---------------- *)

(* Every gang lane is paired with a scalar twin engine started from the
   same snapshot. Each [Gang.step] must produce exactly the cycle
   records the twins produce, lanes must fork exactly when their twin
   forks, and snapshots extracted from the gang — mid-cycle at forks,
   cycle-boundary on retirement — must restore into scalar engines whose
   full net planes and arch digests match the twin bit for bit. Lanes
   retire on forks and random evictions and are refilled with freshly
   diverged warmup states, so load/retire/refill runs against lanes
   holding dead garbage. *)
let gang_lockstep ~trial ~k ~forks_seen =
  let rng = Random.State.make [| 0x9a69; trial; k |] in
  let nl, ports0 = random_design rng in
  (* A random net as branch-decision net so lanes fork and retire, and a
     (sometimes) live write enable so the per-lane memory write path is
     exercised too. *)
  let ports =
    {
      ports0 with
      Gatesim.Engine.fork_net =
        Some ports0.Gatesim.Engine.pc.(Random.State.int rng 4);
      mem_wen =
        (if Random.State.bool rng then ports0.Gatesim.Engine.port_in.(1)
         else ports0.Gatesim.Engine.mem_wen);
    }
  in
  let mk () = Gatesim.Mem.create ~rom:[] ~ram_base:0x1000 ~ram_bytes:64 in
  let proto = Gatesim.Engine.create nl ~ports ~mem:(mk ()) in
  let gang = Gatesim.Engine.Gang.create proto ~width:k in
  let twins = Array.make 32 None in
  let msg tag l cyc =
    Printf.sprintf "trial %d k=%d %s lane %d step %d" trial k tag l cyc
  in
  (* Run a fresh engine for a random number of cycles under random
     drives (resolving any forks arbitrarily), freeze its final drive
     levels, and install the resulting state in both a gang lane and a
     scalar twin. *)
  let warmup_and_load () =
    let e = Gatesim.Engine.create nl ~ports ~mem:(mk ()) in
    let drives () =
      Gatesim.Engine.set_reset e (random_trit rng);
      Gatesim.Engine.set_port_in e (Array.init 8 (fun _ -> random_trit rng))
    in
    for _ = 1 to 1 + Random.State.int rng 5 do
      drives ();
      (match Gatesim.Engine.begin_cycle e with
      | `Ok -> ()
      | `Fork ->
        Gatesim.Engine.force_fork e
          (if Random.State.bool rng then Tri.Zero else Tri.One));
      ignore (Gatesim.Engine.finish_cycle e)
    done;
    drives ();
    let s = Gatesim.Engine.snapshot e in
    let l = Gatesim.Engine.Gang.load gang s in
    twins.(l) <- Some (Gatesim.Engine.of_snapshot proto s)
  in
  let check_extract tag l step snap =
    let twin = Option.get twins.(l) in
    let a = Gatesim.Engine.of_snapshot proto snap in
    Alcotest.(check (array int))
      (msg tag l step ^ ": values")
      (Gatesim.Engine.values_snapshot twin)
      (Gatesim.Engine.values_snapshot a);
    Alcotest.(check string)
      (msg tag l step ^ ": digest")
      (Gatesim.Engine.arch_digest twin)
      (Gatesim.Engine.arch_digest a)
  in
  for _ = 1 to k do
    warmup_and_load ()
  done;
  for step = 1 to 40 do
    let outcomes = ref [] in
    Gatesim.Engine.Gang.step gang (fun l o -> outcomes := (l, o) :: !outcomes);
    List.iter
      (fun (l, o) ->
        let twin = Option.get twins.(l) in
        match o with
        | Gatesim.Engine.Gang.Cycle cg ->
          (match Gatesim.Engine.begin_cycle twin with
          | `Ok -> ()
          | `Fork -> Alcotest.fail (msg "twin forked, lane did not" l step));
          check_cycle (msg "cycle" l step) cg (Gatesim.Engine.finish_cycle twin)
        | Gatesim.Engine.Gang.Forked snap ->
          incr forks_seen;
          (match Gatesim.Engine.begin_cycle twin with
          | `Fork -> ()
          | `Ok -> Alcotest.fail (msg "lane forked, twin did not" l step));
          (* Resolve the fork both ways from the extracted mid-cycle
             snapshot and from the twin's own mid-cycle state: the
             continuations must agree bit for bit. *)
          let st = Gatesim.Engine.snapshot twin in
          List.iter
            (fun v ->
              let a = Gatesim.Engine.of_snapshot proto snap in
              Gatesim.Engine.restore twin st;
              Gatesim.Engine.force_fork a v;
              Gatesim.Engine.force_fork twin v;
              let ca = Gatesim.Engine.finish_cycle a in
              let ct = Gatesim.Engine.finish_cycle twin in
              check_cycle (msg "fork continuation" l step) ca ct;
              Alcotest.(check string)
                (msg "fork digest" l step)
                (Gatesim.Engine.arch_digest twin)
                (Gatesim.Engine.arch_digest a);
              Alcotest.(check (array int))
                (msg "fork values" l step)
                (Gatesim.Engine.values_snapshot twin)
                (Gatesim.Engine.values_snapshot a))
            [ Tri.Zero; Tri.One ];
          twins.(l) <- None;
          warmup_and_load ())
      (List.rev !outcomes);
    (* Random eviction: extract a live lane at the boundary, check it
       against its twin, retire it and refill the slot. *)
    if Random.State.int rng 4 = 0 then begin
      let live =
        Array.to_list
          (Array.mapi (fun l t -> if t = None then -1 else l) twins)
        |> List.filter (fun l -> l >= 0)
      in
      match live with
      | [] -> ()
      | _ ->
        let l = List.nth live (Random.State.int rng (List.length live)) in
        let snap = Gatesim.Engine.Gang.extract gang l in
        check_extract "evict" l step snap;
        Gatesim.Engine.Gang.retire gang l;
        twins.(l) <- None;
        warmup_and_load ()
    end
  done

let test_gang_lockstep () =
  let forks_seen = ref 0 in
  List.iter
    (fun k ->
      for trial = 0 to 3 do
        gang_lockstep ~trial ~k ~forks_seen
      done)
    [ 1; 2; 8; 32 ];
  Alcotest.(check bool)
    "fork/retire/refill exercised" true (!forks_seen > 10)

(* ---------------- real programs, forks and dedup ---------------- *)

type dual_stats = {
  mutable d_paths : int;
  mutable d_forks : int;
  mutable d_cuts : int;
  mutable d_cycles : int;
}

(* Explore every path of [img] on both evaluators in lockstep, mirroring
   Sym's DFS: resolve each fork both ways, dedup on the digest after the
   fork cycle (revisit limit 0). Checks every cycle record, that forks
   happen at the same points, that dedup decisions agree, and that the
   digest maps are mutually consistent (a bijection between Zobrist and
   MD5 equivalence classes). Returns the concatenated per-path cycles of
   both sides plus stats. *)
let dual_explore img =
  let c = Tsupport.the_cpu () in
  let e =
    Gatesim.Engine.create c.Cpu.netlist ~ports:c.Cpu.ports
      ~mem:(Cpu.mem_of_image img)
  in
  let r =
    Gatesim.Refsim.create c.Cpu.netlist ~ports:c.Cpu.ports
      ~mem:(Cpu.mem_of_image img)
  in
  let is_end = Cpu.is_end_cycle ~halt_addr:img.Asm.halt_addr in
  (* Sym.do_reset on both sides. *)
  Gatesim.Engine.set_reset e Tri.One;
  Gatesim.Refsim.set_reset r Tri.One;
  for _ = 1 to 2 do
    check_cycle "reset" (Gatesim.Engine.step e) (Gatesim.Refsim.step r)
  done;
  Gatesim.Engine.set_reset e Tri.Zero;
  Gatesim.Refsim.set_reset r Tri.Zero;
  for _ = 1 to 3 do
    check_cycle "post-reset" (Gatesim.Engine.step e) (Gatesim.Refsim.step r)
  done;
  let stats = { d_paths = 0; d_forks = 0; d_cuts = 0; d_cycles = 0 } in
  let seen_e : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let seen_r : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let e2r : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let r2e : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let flat_e = ref [] and flat_r = ref [] in
  let record ce cr =
    stats.d_cycles <- stats.d_cycles + 1;
    if stats.d_cycles > 20_000 then failwith "dual_explore: cycle budget";
    flat_e := ce :: !flat_e;
    flat_r := cr :: !flat_r
  in
  let rec explore len =
    if len > 5_000 then failwith "dual_explore: path too long";
    match (Gatesim.Engine.begin_cycle e, Gatesim.Refsim.begin_cycle r) with
    | `Ok, `Ok ->
      let ce = Gatesim.Engine.finish_cycle e in
      let cr = Gatesim.Refsim.finish_cycle r in
      check_cycle (Printf.sprintf "cycle %d" stats.d_cycles) ce cr;
      record ce cr;
      if is_end ce then stats.d_paths <- stats.d_paths + 1
      else explore (len + 1)
    | `Fork, `Fork ->
      stats.d_forks <- stats.d_forks + 1;
      let se = Gatesim.Engine.snapshot e in
      let sr = Gatesim.Refsim.snapshot r in
      List.iter
        (fun v ->
          Gatesim.Engine.restore e se;
          Gatesim.Refsim.restore r sr;
          Gatesim.Engine.force_fork e v;
          Gatesim.Refsim.force_fork r v;
          let ce = Gatesim.Engine.finish_cycle e in
          let cr = Gatesim.Refsim.finish_cycle r in
          check_cycle (Printf.sprintf "fork cycle %d" stats.d_cycles) ce cr;
          record ce cr;
          let de = Gatesim.Engine.arch_digest e in
          let dr = Gatesim.Refsim.arch_digest r in
          (match Hashtbl.find_opt e2r de with
          | Some dr' ->
            Alcotest.(check string) "digest class (engine -> refsim)" dr' dr
          | None -> Hashtbl.add e2r de dr);
          (match Hashtbl.find_opt r2e dr with
          | Some de' ->
            Alcotest.(check string) "digest class (refsim -> engine)" de' de
          | None -> Hashtbl.add r2e dr de);
          let cut_e = Hashtbl.mem seen_e de in
          Alcotest.(check bool)
            "dedup decision agrees" (Hashtbl.mem seen_r dr) cut_e;
          if cut_e then begin
            stats.d_cuts <- stats.d_cuts + 1;
            stats.d_paths <- stats.d_paths + 1
          end
          else begin
            Hashtbl.add seen_e de ();
            Hashtbl.add seen_r dr ();
            if is_end ce then stats.d_paths <- stats.d_paths + 1
            else explore (len + 1)
          end)
        [ Tri.Zero; Tri.One ]
    | _ -> Alcotest.fail "evaluators disagree on fork point"
  in
  explore 0;
  ( Array.of_list (List.rev !flat_e),
    Array.of_list (List.rev !flat_r),
    stats )

let assemble body = Tsupport.assemble_body body

let test_branch_dual () =
  let _, _, stats = dual_explore (assemble branch_program) in
  Alcotest.(check int) "two paths" 2 stats.d_paths;
  Alcotest.(check int) "one fork" 1 stats.d_forks

let test_polling_dual () =
  let _, _, stats = dual_explore (assemble polling_program) in
  Alcotest.(check bool) "dedup cut happened" true (stats.d_cuts >= 1);
  Alcotest.(check bool) "bounded paths" true (stats.d_paths <= 4)

(* tea8 through both evaluators, ending in the bounds: Algorithm 2 peak
   power over the two flattened traces must agree to the last bit. *)
let test_bench_bounds () =
  List.iter
    (fun name ->
      let b = Benchprogs.Bench.find name in
      let img = Benchprogs.Bench.assemble b in
      let fe, fr, stats = dual_explore img in
      Alcotest.(check bool)
        (name ^ ": ran") true
        (stats.d_cycles > 100);
      let cpu = Tsupport.the_cpu () in
      let pa = Core.Analyze.poweran_for cpu in
      let pe = Core.Peak_power.of_cycles pa fe in
      let pr = Core.Peak_power.of_cycles pa fr in
      Alcotest.(check (float 0.0))
        (name ^ ": peak power bound identical")
        pr.Core.Peak_power.peak pe.Core.Peak_power.peak;
      Alcotest.(check int)
        (name ^ ": peak cycle identical")
        pr.Core.Peak_power.peak_index pe.Core.Peak_power.peak_index;
      Alcotest.(check (array (float 0.0)))
        (name ^ ": per-cycle power trace identical")
        pr.Core.Peak_power.trace pe.Core.Peak_power.trace)
    [ "tea8"; "mult" ]

(* The production path: Sym.run + full analysis is deterministic across
   runs of the compiled kernel (exercises COW snapshots and the
   incremental digest under real fork/restore traffic). *)
let test_sym_deterministic () =
  let img = assemble branch_program in
  let run ?pool () =
    let e = Tsupport.fresh_engine ~concrete:false img in
    let cfg =
      Gatesim.Sym.default_config
        ~is_end:(Cpu.is_end_cycle ~halt_addr:img.Asm.halt_addr)
    in
    Gatesim.Sym.run ?pool e cfg
  in
  let t1, s1 = run () in
  let t2, s2 = run () in
  Alcotest.(check int) "same paths" s1.Gatesim.Sym.paths s2.Gatesim.Sym.paths;
  let f1 = Gatesim.Trace.flatten t1 and f2 = Gatesim.Trace.flatten t2 in
  Alcotest.(check int) "same length" (Array.length f1) (Array.length f2);
  Array.iteri (fun k c1 -> check_cycle (Printf.sprintf "flat %d" k) c1 f2.(k)) f1;
  (* CI exports XBOUND_TEST_JOBS (e.g. 2) to also demand that the run on
     a pool of that size — a worker count the in-tree sweep does not
     cover — flattens to the identical trace. *)
  match
    Option.bind (Sys.getenv_opt "XBOUND_TEST_JOBS") int_of_string_opt
  with
  | Some j when j > 0 ->
    let tj, sj = run ~pool:(Parallel.Pool.create ~jobs:j) () in
    Alcotest.(check int)
      (Printf.sprintf "-j%d: same paths" j)
      s1.Gatesim.Sym.paths sj.Gatesim.Sym.paths;
    let fj = Gatesim.Trace.flatten tj in
    Alcotest.(check int)
      (Printf.sprintf "-j%d: same length" j)
      (Array.length f1) (Array.length fj);
    Array.iteri
      (fun k c1 -> check_cycle (Printf.sprintf "-j%d flat %d" j k) c1 fj.(k))
      f1
  | _ -> ()

(* ---------------- netlist levelization ---------------- *)

let check_levels nl =
  let n = Netlist.gate_count nl in
  let topo = nl.Netlist.topo in
  let levels = nl.Netlist.levels in
  let starts = nl.Netlist.level_starts in
  for id = 0 to n - 1 do
    let g = nl.Netlist.gates.(id) in
    match g.Netlist.cell with
    | Netlist.Input | Netlist.Const _ | Netlist.Dff | Netlist.Dffe ->
      Alcotest.(check int) (Printf.sprintf "source %d level" id) 0 levels.(id)
    | _ ->
      let m =
        Array.fold_left (fun m f -> max m (levels.(f) + 1)) 1 g.Netlist.fanins
      in
      Alcotest.(check int) (Printf.sprintf "comb %d level" id) m levels.(id)
  done;
  (* topo is sorted by (level, id) and level_starts delimits the runs *)
  Array.iteri
    (fun k id ->
      if k > 0 then begin
        let pid = topo.(k - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "topo sorted at %d" k)
          true
          (levels.(pid) < levels.(id)
          || (levels.(pid) = levels.(id) && pid < id))
      end)
    topo;
  Alcotest.(check int) "level_starts length"
    (Netlist.level_count nl + 1)
    (Array.length starts);
  Alcotest.(check int) "level_starts total" (Array.length topo)
    starts.(Array.length starts - 1);
  Array.iteri
    (fun l s ->
      if l < Array.length starts - 1 then
        for k = s to starts.(l + 1) - 1 do
          Alcotest.(check int)
            (Printf.sprintf "gate %d in level %d" topo.(k) l)
            l levels.(topo.(k))
        done)
    starts

let test_levels_random () =
  for trial = 0 to 9 do
    let rng = Random.State.make [| 0x1e7e1; trial |] in
    let nl, _ = random_design rng in
    check_levels nl
  done

let test_levels_cpu () = check_levels (Tsupport.the_cpu ()).Cpu.netlist

(* Every fanin of a combinational gate has a lower id than the gate, so
   ascending net id is a dependency order: the engine's X-propagation
   pass visits X nets in that order instead of the program's. *)
let check_id_order nl =
  Array.iter
    (fun (g : Netlist.gate) ->
      match g.Netlist.cell with
      | Netlist.Input | Netlist.Const _ | Netlist.Dff | Netlist.Dffe -> ()
      | _ ->
        Array.iter
          (fun f ->
            if f >= g.Netlist.id then
              Alcotest.failf "gate %d reads fanin %d" g.Netlist.id f)
          g.Netlist.fanins)
    nl.Netlist.gates

let test_id_order_random () =
  (* the designs [test_random_netlists] simulates *)
  for trial = 0 to 14 do
    let nl, _ = random_design (Random.State.make [| 0x5eed; trial |]) in
    check_id_order nl
  done

let test_id_order_cpu () = check_id_order (Tsupport.the_cpu ()).Cpu.netlist

(* ---------------- Mem copy-on-write ---------------- *)

let test_mem_cow () =
  let m = Gatesim.Mem.create ~rom:[] ~ram_base:0x200 ~ram_bytes:32 in
  Gatesim.Mem.poke m 0x200 0xBEEF;
  Gatesim.Mem.poke m 0x210 0x1234;
  let d0 = Gatesim.Mem.digest m and h0 = Gatesim.Mem.content_hash m in
  let s = Gatesim.Mem.snapshot m in
  (* writes after the snapshot must not leak into it *)
  Gatesim.Mem.poke m 0x200 0x0BAD;
  Alcotest.(check bool) "hash moved" true (Gatesim.Mem.content_hash m <> h0);
  Gatesim.Mem.restore m s;
  Alcotest.(check string) "restore recovers digest" d0 (Gatesim.Mem.digest m);
  Alcotest.(check int) "restore recovers hash" h0 (Gatesim.Mem.content_hash m);
  (* a restored engine can be mutated again without corrupting the
     snapshot (copy-on-write both directions) *)
  Gatesim.Mem.poke m 0x200 0x5555;
  Gatesim.Mem.restore m s;
  Alcotest.(check string) "second restore" d0 (Gatesim.Mem.digest m);
  (* same content reached by different write orders hashes equally *)
  let a = Gatesim.Mem.create ~rom:[] ~ram_base:0x200 ~ram_bytes:32 in
  let b = Gatesim.Mem.create ~rom:[] ~ram_base:0x200 ~ram_bytes:32 in
  Gatesim.Mem.poke a 0x200 1;
  Gatesim.Mem.poke a 0x202 2;
  Gatesim.Mem.poke b 0x202 9;
  Gatesim.Mem.poke b 0x200 1;
  Gatesim.Mem.poke b 0x202 2;
  Alcotest.(check int) "order-independent hash" (Gatesim.Mem.content_hash a)
    (Gatesim.Mem.content_hash b);
  (* smear returns to the all-X hash a fresh replica has *)
  Gatesim.Mem.write a ~strobe:Tri.One (Tri.Word.all_x ~width:16)
    (Tri.Word.of_int ~width:16 0);
  Alcotest.(check int) "smear = fresh all-X"
    (Gatesim.Mem.content_hash (Gatesim.Mem.like a))
    (Gatesim.Mem.content_hash a)

(* ---------------- Seen overlay ---------------- *)

let test_seen_overlay () =
  let s = Gatesim.Seen.create () in
  Gatesim.Seen.set s "a" 1;
  Gatesim.Seen.set s "b" 2;
  Alcotest.(check int) "read back" 1 (Gatesim.Seen.visits s "a");
  Alcotest.(check int) "missing is 0" 0 (Gatesim.Seen.visits s "z");
  let child = Gatesim.Seen.fork s in
  Alcotest.(check int) "child sees parent" 2 (Gatesim.Seen.visits child "b");
  Gatesim.Seen.set s "a" 5;
  Gatesim.Seen.set child "a" 7;
  Alcotest.(check int) "parent write invisible to child" 7
    (Gatesim.Seen.visits child "a");
  Alcotest.(check int) "child write invisible to parent" 5
    (Gatesim.Seen.visits s "a");
  Gatesim.Seen.set s "c" 3;
  let child2 = Gatesim.Seen.fork s in
  Alcotest.(check int) "second fork sees later writes" 3
    (Gatesim.Seen.visits child2 "c");
  Alcotest.(check int) "second fork sees shadowed value" 5
    (Gatesim.Seen.visits child2 "a");
  (* deep chains compact without changing contents *)
  let t = Gatesim.Seen.create () in
  for k = 0 to 99 do
    Gatesim.Seen.set t (string_of_int k) (k + 1);
    ignore (Gatesim.Seen.fork t)
  done;
  Alcotest.(check bool) "chain bounded" true (Gatesim.Seen.depth t <= 27);
  for k = 0 to 99 do
    Alcotest.(check int)
      (Printf.sprintf "survives compaction (%d)" k)
      (k + 1)
      (Gatesim.Seen.visits t (string_of_int k))
  done

(* Compaction happens on the parent's side of a fork; children forked
   earlier keep reading through the shared frozen layers. This pins the
   share-safety contract: compacting (and further writing) the parent
   must never change what any previously-forked child reads — layers
   are frozen when shared, replaced, never mutated. *)
let test_seen_share_safety () =
  let module Seen = Gatesim.Seen in
  let parent = Seen.create () in
  (* retain a child per generation across > max_chain forks, so several
     compactions run while old children are still alive *)
  let children = ref [] in
  for k = 0 to 59 do
    Seen.set parent (Printf.sprintf "d%d" k) (k + 1);
    children := (k, Seen.fork parent) :: !children
  done;
  Alcotest.(check bool) "parent chain compacted" true (Seen.depth parent <= 27);
  (* every child sees exactly the digests written before its fork, and
     none written after *)
  List.iter
    (fun (gen, child) ->
      for k = 0 to 59 do
        let expect = if k <= gen then k + 1 else 0 in
        Alcotest.(check int)
          (Printf.sprintf "child %d reads d%d" gen k)
          expect
          (Seen.visits child (Printf.sprintf "d%d" k))
      done)
    !children;
  (* children forked before a compaction can still write privately *)
  let _, oldest = List.nth !children (List.length !children - 1) in
  Seen.set oldest "d59" 1000;
  Alcotest.(check int) "old child private write" 1000 (Seen.visits oldest "d59");
  Alcotest.(check int) "parent unaffected" 60 (Seen.visits parent "d59")

(* ---------------- application specialization ---------------- *)

(* The specialized gate program ([Netlist.Specialize] + the engine's
   dual-program switch) claims to be unobservable: Algorithm 1 trees,
   dedup digests, flattened traces, peak power/energy bounds and the
   explain class sums must be bit-identical with specialization on or
   off. These tests enforce that on every paper kernel, and on
   randomized netlists with injected constant cones where the folded
   set is known by construction. *)

let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* A mode-independent digest of an execution tree: the flattened trace,
   the sorted dedup-registry keys and the initial net values. *)
let tree_digest (t : Gatesim.Trace.tree) =
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.Gatesim.Trace.registry []
    |> List.sort String.compare
  in
  digest_of (Gatesim.Trace.flatten t, keys, t.Gatesim.Trace.initial)

let run_bench ~specialize (b : Benchprogs.Bench.t) =
  let cpu = Tsupport.the_cpu () in
  let pa = Core.Analyze.poweran_for cpu in
  let config =
    {
      Core.Analyze.default_config with
      Core.Analyze.loop_bound = b.Benchprogs.Bench.loop_bound;
      max_paths = b.Benchprogs.Bench.max_paths;
    }
  in
  Core.Analyze.run ~config ~specialize pa cpu (Benchprogs.Bench.assemble b)

(* All 14 paper kernels, full Algorithm 1 + bounds, spec on vs off. *)
let test_spec_bench_identity () =
  List.iter
    (fun (b : Benchprogs.Bench.t) ->
      let name = b.Benchprogs.Bench.name in
      let on = run_bench ~specialize:true b in
      let off = run_bench ~specialize:false b in
      Alcotest.(check int)
        (name ^ ": paths")
        off.Core.Analyze.sym_stats.Gatesim.Sym.paths
        on.Core.Analyze.sym_stats.Gatesim.Sym.paths;
      Alcotest.(check int)
        (name ^ ": forks")
        off.Core.Analyze.sym_stats.Gatesim.Sym.forks
        on.Core.Analyze.sym_stats.Gatesim.Sym.forks;
      Alcotest.(check int)
        (name ^ ": dedup hits")
        off.Core.Analyze.sym_stats.Gatesim.Sym.dedup_hits
        on.Core.Analyze.sym_stats.Gatesim.Sym.dedup_hits;
      Alcotest.(check string)
        (name ^ ": tree digest")
        (tree_digest (Core.Analyze.tree off))
        (tree_digest (Core.Analyze.tree on));
      Alcotest.(check (float 0.0))
        (name ^ ": peak power bound")
        off.Core.Analyze.peak_power on.Core.Analyze.peak_power;
      Alcotest.(check int)
        (name ^ ": peak cycle")
        off.Core.Analyze.peak_index on.Core.Analyze.peak_index;
      Alcotest.(check (array (float 0.0)))
        (name ^ ": power trace")
        off.Core.Analyze.power_trace on.Core.Analyze.power_trace;
      Alcotest.(check (float 0.0))
        (name ^ ": peak energy bound")
        off.Core.Analyze.peak_energy.Core.Peak_energy.energy
        on.Core.Analyze.peak_energy.Core.Peak_energy.energy;
      Alcotest.(check int)
        (name ^ ": worst path cycles")
        off.Core.Analyze.peak_energy.Core.Peak_energy.cycles
        on.Core.Analyze.peak_energy.Core.Peak_energy.cycles;
      Alcotest.(check (float 0.0))
        (name ^ ": npe")
        off.Core.Analyze.peak_energy.Core.Peak_energy.npe
        on.Core.Analyze.peak_energy.Core.Peak_energy.npe)
    Benchprogs.Bench.all

(* Explain attribution: the folded-gate relabeling moves addends into a
   "constant" class without changing the cycle total, and the breakdown
   is identical whichever engine mode produced the trace. *)
let test_spec_class_sums () =
  let cpu = Tsupport.the_cpu () in
  let pa = Core.Analyze.poweran_for cpu in
  let b = Benchprogs.Bench.find "tea8" in
  let on = run_bench ~specialize:true b in
  let off = run_bench ~specialize:false b in
  let folded = Core.Analyze.folded_pred cpu in
  let cy_on = (Core.Analyze.flattened on).(on.Core.Analyze.peak_index) in
  let cy_off = (Core.Analyze.flattened off).(off.Core.Analyze.peak_index) in
  let bd_on = Poweran.class_breakdown ~folded pa ~mode:`Max cy_on in
  let bd_off = Poweran.class_breakdown ~folded pa ~mode:`Max cy_off in
  Alcotest.(check (list (pair string (float 0.0))))
    "breakdown identical across engine modes" bd_off bd_on;
  Alcotest.(check bool)
    "constant class present" true
    (List.mem_assoc "constant" bd_on);
  let sum l = List.fold_left (fun a (_, v) -> a +. v) 0. l in
  let plain = Poweran.class_breakdown pa ~mode:`Max cy_on in
  Alcotest.(check (float 1e-12))
    "relabeling preserves the class sum" (sum plain) (sum bd_on);
  Alcotest.(check (float 1e-12))
    "classes sum to the cycle total"
    on.Core.Analyze.power_trace.(on.Core.Analyze.peak_index)
    (sum bd_on)

(* Protocol-shaped activation on the real CPU: the engine must switch to
   the specialized program once reset deasserts and the state verifies,
   fall back when reset is re-asserted, and re-activate after. *)
let test_spec_cpu_activation () =
  let cpu = Tsupport.the_cpu () in
  let sp = Core.Analyze.specialization_for cpu in
  Alcotest.(check bool)
    "CPU netlist folds gates" true
    (Netlist.Specialize.folded_count sp > 0);
  let img = assemble branch_program in
  let e =
    Gatesim.Engine.create ~spec:sp cpu.Cpu.netlist ~ports:cpu.Cpu.ports
      ~mem:(Cpu.mem_of_image img)
  in
  (match Gatesim.Engine.specialization e with
  | Some (f, s) ->
    Alcotest.(check int)
      "engine reports folded count" (Netlist.Specialize.folded_count sp) f;
    Alcotest.(check int)
      "engine reports swept count" (Netlist.Specialize.swept sp) s
  | None -> Alcotest.fail "engine carries no specialization");
  Alcotest.(check bool)
    "starts on the full program" false
    (Gatesim.Engine.specialized_active e);
  let reset_then_run () =
    Gatesim.Engine.set_reset e Tri.One;
    for _ = 1 to 2 do
      ignore (Gatesim.Engine.step e)
    done;
    Alcotest.(check bool)
      "full program while reset is asserted" false
      (Gatesim.Engine.specialized_active e);
    Gatesim.Engine.set_reset e Tri.Zero;
    for _ = 1 to 5 do
      ignore (Gatesim.Engine.step e)
    done
  in
  reset_then_run ();
  Alcotest.(check bool)
    "activates after reset deasserts" true
    (Gatesim.Engine.specialized_active e);
  (* Re-asserting reset invalidates the invariants: the engine must
     unspecialize, then re-activate after the next reset sequence. *)
  reset_then_run ();
  Alcotest.(check bool)
    "re-activates after a second reset" true
    (Gatesim.Engine.specialized_active e)

(* Randomized netlists with an injected constant cone: gates wired to
   [Const] cells (and to the folded reset input) whose invariant values
   are known by construction. [Specialize] must fold exactly those
   values, and an engine running the specialized program must stay in
   lockstep with the reference interpreter — including activation,
   snapshot/restore and reset-induced fallback. *)
let test_spec_constant_injection () =
  for trial = 0 to 9 do
    let rng = Random.State.make [| 0xc0de; trial |] in
    let b = Netlist.Builder.create () in
    Netlist.Builder.set_module b "spec";
    let reset = Netlist.Builder.add_input b in
    let port_in = Array.init 8 (fun _ -> Netlist.Builder.add_input b) in
    let rdata = Array.init 16 (fun _ -> Netlist.Builder.add_input b) in
    let zero = Netlist.Builder.add_const b Tri.Zero in
    let one = Netlist.Builder.add_const b Tri.One in
    let pool = ref [ zero; one ] in
    Array.iter (fun id -> pool := id :: !pool) port_in;
    Array.iter (fun id -> pool := id :: !pool) rdata;
    let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
    let dffs = Array.init 4 (fun _ -> Netlist.Builder.add_dff b) in
    Array.iter (fun id -> pool := id :: !pool) dffs;
    for _ = 1 to 60 do
      let cell =
        match Random.State.int rng 8 with
        | 0 -> Netlist.Buf
        | 1 -> Netlist.Inv
        | 2 -> Netlist.And2
        | 3 -> Netlist.Or2
        | 4 -> Netlist.Nand2
        | 5 -> Netlist.Nor2
        | 6 -> Netlist.Xor2
        | _ -> Netlist.Xnor2
      in
      let f = Array.init (Netlist.cell_arity cell) (fun _ -> pick ()) in
      pool := Netlist.Builder.add_gate b cell f :: !pool
    done;
    (* The injected cone. Each gate's fold value follows from Kleene
       algebra over constants and live (unknowable) inputs; the cone is
       deliberately kept out of the live pool so it is a dead cone. *)
    let live () = port_in.(Random.State.int rng 8) in
    let expected = ref [] in
    let expect code id =
      expected := (id, code) :: !expected;
      id
    in
    let k0 = expect Tri.I.zero (Netlist.Builder.add_gate b Netlist.And2 [| zero; live () |]) in
    let k1 = expect Tri.I.one (Netlist.Builder.add_gate b Netlist.Or2 [| one; live () |]) in
    let k2 = expect Tri.I.one (Netlist.Builder.add_gate b Netlist.Xor2 [| k0; k1 |]) in
    let k3 = expect Tri.I.zero (Netlist.Builder.add_gate b Netlist.Inv [| k2 |]) in
    let _ = expect Tri.I.zero (Netlist.Builder.add_gate b Netlist.Buf [| k3 |]) in
    let _ =
      expect Tri.I.one (Netlist.Builder.add_gate b Netlist.Nand2 [| k0; live () |])
    in
    let _ =
      expect Tri.I.zero (Netlist.Builder.add_gate b Netlist.Nor2 [| k1; live () |])
    in
    (* the reset input itself folds to 0 and seeds propagation *)
    let _ =
      expect Tri.I.zero
        (Netlist.Builder.add_gate b Netlist.And2 [| reset; live () |])
    in
    (* a flop fed by a folded net folds to that value *)
    let d_const = Netlist.Builder.add_dff b in
    Netlist.Builder.set_dff_input b d_const k1;
    (* a live gate reading a folded net must keep seeing the frozen
       constant after the switch (boundary of the specialized program) *)
    let _boundary = Netlist.Builder.add_gate b Netlist.And2 [| k1; live () |] in
    let n_injected = List.length !expected in
    Array.iter (fun id -> Netlist.Builder.set_dff_input b id (pick ())) dffs;
    let nl = Netlist.Builder.freeze b in
    let bus k = Array.init k (fun _ -> pick ()) in
    let ports =
      {
        Gatesim.Engine.reset;
        port_in;
        mem_addr = bus 16;
        mem_rdata = rdata;
        mem_wdata = bus 16;
        mem_ren = zero;
        mem_wen = zero;
        pc = bus 4;
        state = bus 3;
        ir = bus 4;
        fork_net = None;
      }
    in
    let sp = Netlist.Specialize.compute nl ~reset in
    List.iter
      (fun (id, code) ->
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: net %d folded" trial id)
          true
          (Netlist.Specialize.is_folded sp id);
        Alcotest.(check int)
          (Printf.sprintf "trial %d: net %d code" trial id)
          code
          (Netlist.Specialize.code sp id))
      !expected;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: flop fed by constant folds" trial)
      true
      (Netlist.Specialize.is_folded sp d_const);
    Alcotest.(check int)
      (Printf.sprintf "trial %d: flop code" trial)
      Tri.I.one
      (Netlist.Specialize.code sp d_const);
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: at least the injected comb gates fold" trial)
      true
      (Netlist.Specialize.folded_comb sp >= n_injected);
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: dead cone swept" trial)
      true
      (Netlist.Specialize.swept sp >= 1);
    (* Lockstep under the reset protocol, across activation, fallback,
       snapshot and restore. *)
    let mk () = Gatesim.Mem.create ~rom:[] ~ram_base:0x1000 ~ram_bytes:64 in
    let e = Gatesim.Engine.create ~spec:sp nl ~ports ~mem:(mk ()) in
    let r = Gatesim.Refsim.create nl ~ports ~mem:(mk ()) in
    let cyc = ref 0 in
    let step_both tag =
      incr cyc;
      let drives = Array.init 8 (fun _ -> random_trit rng) in
      Gatesim.Engine.set_port_in e drives;
      Gatesim.Refsim.set_port_in r drives;
      check_cycle
        (Printf.sprintf "spec trial %d %s cycle %d" trial tag !cyc)
        (Gatesim.Engine.step e) (Gatesim.Refsim.step r);
      Alcotest.(check (array int))
        (Printf.sprintf "spec trial %d %s cycle %d: values" trial tag !cyc)
        (Gatesim.Refsim.values_snapshot r)
        (Gatesim.Engine.values_snapshot e)
    in
    let set_reset v =
      Gatesim.Engine.set_reset e v;
      Gatesim.Refsim.set_reset r v
    in
    set_reset Tri.One;
    step_both "reset";
    step_both "reset";
    set_reset Tri.Zero;
    for _ = 1 to 10 do
      step_both "settled"
    done;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: specialized program activated" trial)
      true
      (Gatesim.Engine.specialized_active e);
    let se = Gatesim.Engine.snapshot e and sr = Gatesim.Refsim.snapshot r in
    for _ = 1 to 5 do
      step_both "diverged"
    done;
    Gatesim.Engine.restore e se;
    Gatesim.Refsim.restore r sr;
    for _ = 1 to 5 do
      step_both "restored"
    done;
    (* re-assert reset: the engine must fall back to the full program
       and stay in lockstep throughout *)
    set_reset Tri.One;
    step_both "re-reset";
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: fallback under reset" trial)
      false
      (Gatesim.Engine.specialized_active e);
    step_both "re-reset";
    set_reset Tri.Zero;
    for _ = 1 to 5 do
      step_both "re-settled"
    done;
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: re-activated" trial)
      true
      (Gatesim.Engine.specialized_active e)
  done

(* ---------------- telemetry hooks ---------------- *)

let test_instrumentation () =
  let hist_count name =
    let c, _, _ = Telemetry.Histogram.totals (Telemetry.Histogram.make name) in
    c
  in
  let snap0 = hist_count "engine.snapshot_ns" in
  let dig0 = hist_count "sym.digest_ns" in
  let tel = Telemetry.create () in
  Telemetry.with_ambient tel (fun () ->
      let img = assemble branch_program in
      let e = Tsupport.fresh_engine ~concrete:false img in
      let cfg =
        Gatesim.Sym.default_config
          ~is_end:(Cpu.is_end_cycle ~halt_addr:img.Asm.halt_addr)
      in
      ignore (Gatesim.Sym.run e cfg));
  let count name =
    match List.assoc_opt name (Telemetry.counters ()) with
    | Some v -> v
    | None -> Alcotest.failf "counter %s not registered" name
  in
  Alcotest.(check bool)
    "engine.words_evaluated counted" true
    (count "engine.words_evaluated" > 0);
  (* branch_program has one fork, so the run snapshots and digests *)
  Alcotest.(check bool)
    "engine.snapshot_ns observed" true
    (hist_count "engine.snapshot_ns" > snap0);
  Alcotest.(check bool)
    "sym.digest_ns observed" true
    (hist_count "sym.digest_ns" > dig0);
  (* no pool was passed, so the taken arm was kept local, not spawned *)
  Alcotest.(check bool)
    "sym.forks_inlined counted" true
    (count "sym.forks_inlined" > 0);
  Alcotest.(check int) "sym.forks_spawned zero without pool" 0
    (count "sym.forks_spawned")

let () =
  Alcotest.run "differential"
    [
      ( "kernel-vs-reference",
        [
          Alcotest.test_case "random netlists" `Quick test_random_netlists;
          Alcotest.test_case "gang lockstep" `Quick test_gang_lockstep;
          Alcotest.test_case "branch fork" `Quick test_branch_dual;
          Alcotest.test_case "polling dedup" `Quick test_polling_dual;
          Alcotest.test_case "bench bounds" `Slow test_bench_bounds;
          Alcotest.test_case "sym deterministic" `Quick test_sym_deterministic;
        ] );
      ( "specialization",
        [
          Alcotest.test_case "bench identity" `Slow test_spec_bench_identity;
          Alcotest.test_case "class sums" `Slow test_spec_class_sums;
          Alcotest.test_case "cpu activation" `Quick test_spec_cpu_activation;
          Alcotest.test_case "constant injection" `Quick
            test_spec_constant_injection;
        ] );
      ( "levelization",
        [
          Alcotest.test_case "random designs" `Quick test_levels_random;
          Alcotest.test_case "cpu netlist" `Quick test_levels_cpu;
          Alcotest.test_case "fanin ids below gate ids: random designs"
            `Quick test_id_order_random;
          Alcotest.test_case "fanin ids below gate ids: cpu netlist" `Quick
            test_id_order_cpu;
        ] );
      ( "state",
        [
          Alcotest.test_case "mem cow" `Quick test_mem_cow;
          Alcotest.test_case "seen overlay" `Quick test_seen_overlay;
          Alcotest.test_case "seen share safety" `Quick test_seen_share_safety;
          Alcotest.test_case "instrumentation" `Quick test_instrumentation;
        ] );
    ]
