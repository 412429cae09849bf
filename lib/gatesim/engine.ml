(* Compiled three-valued evaluation kernel.

   [create] compiles the netlist into a struct-of-arrays gate program:
   one flat int array of stride-4 records [op|out<<4; f0; f1; f2] in
   topological order (the netlist's level-partitioned [topo]), so
   [eval_pass] is a tight loop over unboxed ints — no gate records, no
   variant matches. Gate values live in packed ternary bit-planes (two
   parallel bit arrays, 32 trits per word; see {!Tri.Plane}), which
   turns the per-cycle whole-netlist work — change detection, activity
   marking, delta collection, state blits — into word-wide xor/popcount
   passes.

   Buf/Inv compile to And/Nand with a duplicated fanin (a AND a = a,
   a NAND a = NOT a in Kleene logic), so the runtime op set is just the
   six binary connectives plus mux, all evaluated by lookup tables
   generated from {!Tri.I} — the compiled kernel cannot disagree with
   the reference semantics ({!Refsim}) on any truth table entry.

   Dirty tracking is a bit-plane over *program positions*: the scanner
   skips clean words, pops set bits with ctz, and fanout marks are
   forward-only (a combinational reader's level is strictly greater, so
   its position is later), which is what makes the single forward scan a
   fixpoint.

   The architectural-state digest is a Zobrist hash maintained
   incrementally (two XORs per changed flop/input slot, plus the RAM
   hash {!Mem.content_hash} keeps on its own), and snapshots are
   copy-on-write: taking or restoring one is O(1) — it freezes the
   current planes and the next mutation clones them. *)

type ports = {
  reset : int;
  port_in : int array;
  mem_addr : int array;
  mem_rdata : int array;
  mem_wdata : int array;
  mem_ren : int;
  mem_wen : int;
  pc : int array;
  state : int array;
  ir : int array;
  fork_net : int option;
}

let xcode = Tri.I.x
let word_mask = 0xFFFFFFFF

(* Runtime opcodes. Binary connectives are 0..5 and index [bin_tbl];
   mux is 6. *)
let op_and = 0
let op_or = 1
let op_nand = 2
let op_nor = 3
let op_xor = 4
let op_xnor = 5
let op_mux = 6

(* Truth tables generated from Tri.I so the compiled kernel is
   semantically identical to the interpreted reference by construction.
   Index: (op lsl 4) lor (a lsl 2) lor b. *)
let bin_tbl =
  let ops =
    [| Tri.I.land_; Tri.I.lor_; Tri.I.lnand; Tri.I.lnor; Tri.I.lxor_;
       Tri.I.lxnor |]
  in
  let t = Array.make 96 0 in
  Array.iteri
    (fun op f ->
      for a = 0 to 2 do
        for b = 0 to 2 do
          t.((op lsl 4) lor (a lsl 2) lor b) <- f a b
        done
      done)
    ops;
  t

(* Index: (sel lsl 4) lor (a lsl 2) lor b. *)
let mux_tbl =
  let t = Array.make 48 0 in
  for s = 0 to 2 do
    for a = 0 to 2 do
      for b = 0 to 2 do
        t.((s lsl 4) lor (a lsl 2) lor b) <- Tri.I.mux s a b
      done
    done
  done;
  t

(* Plane accessors, hand-inlined for the hot loops. Codes are the Tri.I
   encoding with X normalized to v=0 (so only 0, 1, 2 occur). *)
let[@inline] pget vv vx i =
  let w = i lsr 5 and b = i land 31 in
  ((Array.unsafe_get vv w lsr b) land 1)
  lor (((Array.unsafe_get vx w lsr b) land 1) lsl 1)

let[@inline] pset vv vx i code =
  let w = i lsr 5 and b = i land 31 in
  let m = lnot (1 lsl b) in
  Array.unsafe_set vv w
    ((Array.unsafe_get vv w land m) lor ((code land 1) lsl b));
  Array.unsafe_set vx w
    ((Array.unsafe_get vx w land m) lor ((code lsr 1) lsl b))

let[@inline] bit_set pl i =
  (Array.unsafe_get pl (i lsr 5) lsr (i land 31)) land 1 = 1

let c_words = Telemetry.Counter.make "engine.words_evaluated"
let c_cycles = Telemetry.Counter.make "engine.cycles"
let h_snapshot_ns = Telemetry.Histogram.make "engine.snapshot_ns"

(* One compiled gate program. The engine carries two: [full] over every
   combinational gate, and optionally a specialized program over the
   gates that {!Netlist.Specialize} could not fold. Both address the
   same net-indexed value planes — only program positions (and hence
   the dirty plane and fanout lists) are renumbered. *)
type compiled = {
  c_prog : int array;  (* stride 4: [op|out<<4; f0; f1; f2], topo order *)
  c_fo_off : int array;  (* per net: offset into c_fo_pos, length n+1 *)
  c_fo_pos : int array;  (* program positions of combinational readers *)
  c_ncomb : int;  (* gates in this program *)
  c_pw : int;  (* words in the program-position dirty plane *)
}

(* Specialized-program state, shared by every engine over the same
   specialization (immutable). [sfv]/[sfx]/[sfmask] are the invariant
   value vector as net planes; the engine verifies the live state
   against them before switching programs, so activation can never
   change observable behaviour. *)
type spec_state = {
  sc : compiled;
  sfv : int array;
  sfx : int array;
  sfmask : int array;  (* bit set = net is folded *)
  scand : int array;  (* folded flops, packed (dff_index lsl 2) lor code *)
  s_folded : int;
  s_swept : int;
}

(* Per-netlist immutable compile results, memoized by physical identity:
   the static tier creates one engine per characterized block over the
   same netlist, and worker domains one replica each, so recompiling
   these per engine is pure waste. A concurrent recompute is harmless
   (last write wins, same tables). *)
type tables = {
  tb_nl : Netlist.t;
  tb_full : compiled;
  tb_gkind : Bytes.t;  (* 1=Input, 2=Dff, 3=Dffe, 0 otherwise *)
  tb_gf0 : int array;  (* fanin 0 of Input/Dff/Dffe gates (en for Dffe) *)
  tb_xsp : int array;  (* bit-plane over net ids: Input|Dff|Dffe *)
  tb_comb : int array;  (* bit-plane over net ids: combinational gates *)
  tb_pos : int array;  (* net id -> position in [tb_full], -1 otherwise *)
  tb_islot : int array;  (* net id -> Zobrist slot of inputs, -1 otherwise *)
  tb_dff_e : Bytes.t;  (* per dff index: 1 iff Dffe *)
  tb_dff_f0 : int array;  (* d for Dff, en for Dffe *)
  tb_dff_f1 : int array;  (* d for Dffe *)
  tb_nw : int;  (* words per net-id plane *)
  tb_init_vv : int array;  (* initial planes: all X, constants folded in *)
  tb_init_vx : int array;
  tb_init_hash : int;
}

type t = {
  nl : Netlist.t;
  ports : ports;
  mem_ : Mem.t;
  tb : tables;
  (* Compiled programs — immutable after [create]. [cur] switches
     between [full] and the specialized program; the switch is only
     taken at a settled cycle boundary after verifying the state against
     the invariant vector, so it is unobservable. *)
  full : compiled;
  spec : spec_state option;
  mutable cur : compiled;
  mutable spec_on : bool;
  gkind : Bytes.t;
  gf0 : int array;
  xsp : int array;
  islot : int array;
  dff_e : Bytes.t;
  dff_f0 : int array;
  dff_f1 : int array;
  nw : int;  (* words per net-id plane *)
  (* Mutable simulation state. The arrays are copy-on-write: [snapshot]
     freezes them ([shared]), the next mutating entry point clones. *)
  mutable vv : int array;  (* value plane *)
  mutable vx : int array;  (* unknown plane *)
  mutable pv : int array;  (* previous-cycle value plane *)
  mutable px : int array;
  mutable av : int array;  (* activity bit-plane *)
  mutable pav : int array;  (* previous-cycle activity *)
  mutable dirty : int array;  (* dirty bit-plane over [cur] positions *)
  mutable dff_next : int array;  (* pending flop codes, indexed like nl.dffs *)
  mutable shared : bool;
  mutable hash : int;  (* Zobrist hash over dff_next + input values *)
  mutable reset_drive : int;
  port_drive : int array;
  mutable cycle : int;
  mutable mid : bool;  (* between begin_cycle and finish_cycle *)
  (* Per-engine scratch for finish_cycle's delta/X-active collection;
     not part of the observable state (excluded from snapshots). *)
  scratch_deltas : int array;
  scratch_x : int array;
}

let netlist t = t.nl
let mem t = t.mem_
let cycle_index t = t.cycle

let unshare t =
  if t.shared then begin
    t.vv <- Array.copy t.vv;
    t.vx <- Array.copy t.vx;
    t.pv <- Array.copy t.pv;
    t.px <- Array.copy t.px;
    t.av <- Array.copy t.av;
    t.pav <- Array.copy t.pav;
    t.dirty <- Array.copy t.dirty;
    t.dff_next <- Array.copy t.dff_next;
    t.shared <- false
  end

(* Compile the gate program over the combinational gates satisfying
   [keep], preserving (level, id) order — a subsequence of a levelized
   topological order is itself one, so the forward-only dirty-scan
   fixpoint argument is untouched. *)
let compile_program nl ~keep =
  let n = Netlist.gate_count nl in
  let gates = nl.Netlist.gates in
  let surv = Array.of_seq (Seq.filter keep (Array.to_seq nl.Netlist.topo)) in
  let ncomb = Array.length surv in
  let pw = Tri.Plane.words ncomb in
  let prog = Array.make (ncomb * 4) 0 in
  let pos_of = Array.make n (-1) in
  Array.iteri
    (fun k id ->
      pos_of.(id) <- k;
      let g = gates.(id) in
      let f = g.Netlist.fanins in
      let op, f0, f1, f2 =
        match g.Netlist.cell with
        | Netlist.Buf -> (op_and, f.(0), f.(0), 0)
        | Netlist.Inv -> (op_nand, f.(0), f.(0), 0)
        | Netlist.And2 -> (op_and, f.(0), f.(1), 0)
        | Netlist.Or2 -> (op_or, f.(0), f.(1), 0)
        | Netlist.Nand2 -> (op_nand, f.(0), f.(1), 0)
        | Netlist.Nor2 -> (op_nor, f.(0), f.(1), 0)
        | Netlist.Xor2 -> (op_xor, f.(0), f.(1), 0)
        | Netlist.Xnor2 -> (op_xnor, f.(0), f.(1), 0)
        | Netlist.Mux2 -> (op_mux, f.(0), f.(1), f.(2))
        | Netlist.Input | Netlist.Const _ | Netlist.Dff | Netlist.Dffe ->
          assert false
      in
      let p = k lsl 2 in
      prog.(p) <- (id lsl 4) lor op;
      prog.(p + 1) <- f0;
      prog.(p + 2) <- f1;
      prog.(p + 3) <- f2)
    surv;
  (* Fanout lists in program space: per net, the positions of its
     combinational readers (flop readers are sampled at cycle
     boundaries, not re-evaluated, so they don't appear). *)
  let fo_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      if pos_of.(g.Netlist.id) >= 0 then
        Array.iter
          (fun f -> fo_off.(f + 1) <- fo_off.(f + 1) + 1)
          g.Netlist.fanins)
    gates;
  for i = 0 to n - 1 do
    fo_off.(i + 1) <- fo_off.(i + 1) + fo_off.(i)
  done;
  let fo_pos = Array.make fo_off.(n) 0 in
  let cursor = Array.copy fo_off in
  Array.iter
    (fun (g : Netlist.gate) ->
      let pos = pos_of.(g.Netlist.id) in
      if pos >= 0 then
        Array.iter
          (fun f ->
            fo_pos.(cursor.(f)) <- pos;
            cursor.(f) <- cursor.(f) + 1)
          g.Netlist.fanins)
    gates;
  { c_prog = prog; c_fo_off = fo_off; c_fo_pos = fo_pos; c_ncomb = ncomb;
    c_pw = pw }

let build_tables nl =
  let n = Netlist.gate_count nl in
  let ndffs = Netlist.dff_count nl in
  let gates = nl.Netlist.gates in
  let nw = Tri.Plane.words n in
  let full = compile_program nl ~keep:(fun _ -> true) in
  (* Per-gate metadata for activity marking and digest maintenance. *)
  let comb = Array.make nw 0 in
  let pos = Array.make n (-1) in
  for k = 0 to full.c_ncomb - 1 do
    let id = full.c_prog.(k lsl 2) lsr 4 in
    pos.(id) <- k;
    comb.(id lsr 5) <- comb.(id lsr 5) lor (1 lsl (id land 31))
  done;
  let gkind = Bytes.make n '\000' in
  let gf0 = Array.make n 0 in
  let xsp = Array.make nw 0 in
  let islot = Array.make n (-1) in
  let mark_xsp id = xsp.(id lsr 5) <- xsp.(id lsr 5) lor (1 lsl (id land 31)) in
  Array.iteri
    (fun j id ->
      Bytes.set gkind id '\001';
      islot.(id) <- ndffs + j;
      mark_xsp id)
    nl.Netlist.inputs;
  let dff_e = Bytes.make ndffs '\000' in
  let dff_f0 = Array.make ndffs 0 in
  let dff_f1 = Array.make ndffs 0 in
  Array.iteri
    (fun i id ->
      let g = gates.(id) in
      (match g.Netlist.cell with
      | Netlist.Dff ->
        Bytes.set gkind id '\002';
        dff_f0.(i) <- g.Netlist.fanins.(0)
      | Netlist.Dffe ->
        Bytes.set gkind id '\003';
        Bytes.set dff_e i '\001';
        dff_f0.(i) <- g.Netlist.fanins.(0);
        dff_f1.(i) <- g.Netlist.fanins.(1)
      | _ -> assert false);
      gf0.(id) <- gates.(id).Netlist.fanins.(0);
      mark_xsp id)
    nl.Netlist.dffs;
  (* All nets start X; constants get their value and are never dirty. *)
  let vv, vx = Tri.Plane.make n in
  for w = 0 to nw - 1 do
    vx.(w) <- word_mask
  done;
  if n land 31 <> 0 && nw > 0 then vx.(nw - 1) <- (1 lsl (n land 31)) - 1;
  Array.iter
    (fun (g : Netlist.gate) ->
      match g.Netlist.cell with
      | Netlist.Const c -> pset vv vx g.Netlist.id (Tri.to_int c)
      | _ -> ())
    gates;
  (* Initial digest: every flop slot and input slot holds X. *)
  let h = ref 0 in
  for i = 0 to ndffs - 1 do
    h := !h lxor Zhash.key i xcode
  done;
  for j = 0 to Array.length nl.Netlist.inputs - 1 do
    h := !h lxor Zhash.key (ndffs + j) xcode
  done;
  {
    tb_nl = nl;
    tb_full = full;
    tb_gkind = gkind;
    tb_gf0 = gf0;
    tb_xsp = xsp;
    tb_comb = comb;
    tb_pos = pos;
    tb_islot = islot;
    tb_dff_e = dff_e;
    tb_dff_f0 = dff_f0;
    tb_dff_f1 = dff_f1;
    tb_nw = nw;
    tb_init_vv = vv;
    tb_init_vx = vx;
    tb_init_hash = !h;
  }

let tables_memo : (Netlist.t * tables) option ref = ref None

let tables_for nl =
  match !tables_memo with
  | Some (nl', tb) when nl' == nl -> tb
  | _ ->
    let tb = build_tables nl in
    tables_memo := Some (nl, tb);
    tb

let build_spec_state tb sp =
  if not (Netlist.Specialize.netlist sp == tb.tb_nl) then
    invalid_arg "Engine.create: specialization is for a different netlist";
  let nl = tb.tb_nl in
  let n = Netlist.gate_count nl in
  let sc =
    compile_program nl ~keep:(fun id -> not (Netlist.Specialize.is_folded sp id))
  in
  let sfv = Array.make tb.tb_nw 0 in
  let sfx = Array.make tb.tb_nw 0 in
  let sfmask = Array.make tb.tb_nw 0 in
  for id = 0 to n - 1 do
    if Netlist.Specialize.is_folded sp id then begin
      let w = id lsr 5 and b = id land 31 in
      sfmask.(w) <- sfmask.(w) lor (1 lsl b);
      let c = Netlist.Specialize.code sp id in
      sfv.(w) <- sfv.(w) lor ((c land 1) lsl b);
      sfx.(w) <- sfx.(w) lor (((c lsr 1) land 1) lsl b)
    end
  done;
  {
    sc;
    sfv;
    sfx;
    sfmask;
    scand = Netlist.Specialize.folded_dffs sp;
    s_folded = Netlist.Specialize.folded_count sp;
    s_swept = Netlist.Specialize.swept sp;
  }

let spec_memo : (Netlist.Specialize.t * spec_state) option ref = ref None

let spec_state_for tb sp =
  match !spec_memo with
  | Some (sp', st) when sp' == sp -> st
  | _ ->
    let st = build_spec_state tb sp in
    spec_memo := Some (sp, st);
    st

let make nl ~ports ~mem tb spec =
  let ndffs = Netlist.dff_count nl in
  let n = Netlist.gate_count nl in
  let full = tb.tb_full in
  let dirty = Array.make full.c_pw 0 in
  for w = 0 to full.c_pw - 1 do
    dirty.(w) <- word_mask
  done;
  if full.c_ncomb land 31 <> 0 && full.c_pw > 0 then
    dirty.(full.c_pw - 1) <- (1 lsl (full.c_ncomb land 31)) - 1;
  {
    nl;
    ports;
    mem_ = mem;
    tb;
    full;
    spec;
    cur = full;
    spec_on = false;
    gkind = tb.tb_gkind;
    gf0 = tb.tb_gf0;
    xsp = tb.tb_xsp;
    islot = tb.tb_islot;
    dff_e = tb.tb_dff_e;
    dff_f0 = tb.tb_dff_f0;
    dff_f1 = tb.tb_dff_f1;
    nw = tb.tb_nw;
    vv = Array.copy tb.tb_init_vv;
    vx = Array.copy tb.tb_init_vx;
    pv = Array.copy tb.tb_init_vv;
    px = Array.copy tb.tb_init_vx;
    av = Array.make tb.tb_nw 0;
    pav = Array.make tb.tb_nw 0;
    dirty;
    dff_next = Array.make ndffs xcode;
    shared = false;
    hash = tb.tb_init_hash;
    reset_drive = xcode;
    port_drive = Array.make (Array.length ports.port_in) xcode;
    cycle = 0;
    mid = false;
    scratch_deltas = Array.make n 0;
    scratch_x = Array.make n 0;
  }

let create ?spec nl ~ports ~mem =
  let tb = tables_for nl in
  let sp = Option.map (spec_state_for tb) spec in
  make nl ~ports ~mem tb sp

let set_reset t level = t.reset_drive <- Tri.to_int level

let set_port_in t trits =
  if Array.length trits <> Array.length t.port_drive then
    invalid_arg
      (Printf.sprintf
         "Engine.set_port_in: width mismatch (expected %d trits, got %d)"
         (Array.length t.port_drive) (Array.length trits));
  Array.iteri (fun i v -> t.port_drive.(i) <- Tri.to_int v) trits

let[@inline] mark_fanouts t id =
  let cur = t.cur in
  let dirty = t.dirty in
  let stop = Array.unsafe_get cur.c_fo_off (id + 1) in
  for k = Array.unsafe_get cur.c_fo_off id to stop - 1 do
    let pos = Array.unsafe_get cur.c_fo_pos k in
    let w = pos lsr 5 in
    Array.unsafe_set dirty w
      (Array.unsafe_get dirty w lor (1 lsl (pos land 31)))
  done

(* Only entry point that writes a net value outside eval_pass. Keeps the
   Zobrist digest current when the net is a primary input. *)
let drive t id v =
  let old = pget t.vv t.vx id in
  if old <> v then begin
    pset t.vv t.vx id v;
    let slot = Array.unsafe_get t.islot id in
    if slot >= 0 then
      t.hash <- t.hash lxor Zhash.key slot old lxor Zhash.key slot v;
    mark_fanouts t id
  end

let eval_pass t =
  let cur = t.cur in
  let dirty = t.dirty
  and prog = cur.c_prog
  and vv = t.vv
  and vx = t.vx in
  let pw = cur.c_pw in
  let words = ref 0 in
  let w = ref 0 in
  while !w < pw do
    let bits = Array.unsafe_get dirty !w in
    incr words;
    if bits = 0 then incr w
    else begin
      (* Clear the lowest set bit *before* evaluating: the evaluation
         may re-mark bits in this very word (forward fanouts), which the
         next iteration picks up by re-reading it. *)
      Array.unsafe_set dirty !w (bits land (bits - 1));
      let p = ((!w lsl 5) lor Tri.Plane.ctz bits) lsl 2 in
      let hd = Array.unsafe_get prog p in
      let op = hd land 15 in
      let out = hd lsr 4 in
      let a = pget vv vx (Array.unsafe_get prog (p + 1)) in
      let b = pget vv vx (Array.unsafe_get prog (p + 2)) in
      let nv =
        if op < 6 then
          Array.unsafe_get bin_tbl ((op lsl 4) lor (a lsl 2) lor b)
        else
          let c = pget vv vx (Array.unsafe_get prog (p + 3)) in
          Array.unsafe_get mux_tbl ((a lsl 4) lor (b lsl 2) lor c)
      in
      if nv <> pget vv vx out then begin
        pset vv vx out nv;
        mark_fanouts t out
      end
    end
  done;
  Telemetry.Counter.add c_words !words

let sample t bus =
  Tri.Word.of_trits (Array.map (fun id -> Tri.of_int (pget t.vv t.vx id)) bus)

let value t id = Tri.of_int (pget t.vv t.vx id)

(* Program-switch points. Both run only at a settled cycle boundary
   (dirty plane all-zero), so swapping the program and its dirty plane
   is a pure representation change: every folded gate's output already
   holds its proven-invariant value, every surviving gate computes
   exactly what the full program would, and the value planes, digest and
   delta/X-active collection are untouched — behaviour is bit-identical
   whether or when the switch happens.

   Activation verifies the live state against the invariant vector
   (folded nets at their codes, folded flops' pending values at their
   codes, reset deasserted); the check fails harmlessly during the reset
   settle cycles and passes from the first steady-state cycle on. *)
let try_specialize t =
  match t.spec with
  | None -> ()
  | Some s ->
    if t.reset_drive = 0 then begin
      let vv = t.vv and vx = t.vx in
      let sfv = s.sfv and sfx = s.sfx and sfmask = s.sfmask in
      let nw = t.nw in
      let ok = ref true in
      let w = ref 0 in
      while !ok && !w < nw do
        if
          ((Array.unsafe_get vv !w lxor Array.unsafe_get sfv !w)
          lor (Array.unsafe_get vx !w lxor Array.unsafe_get sfx !w))
          land Array.unsafe_get sfmask !w
          <> 0
        then ok := false;
        incr w
      done;
      let dn = t.dff_next and sc = s.scand in
      let m = Array.length sc in
      let i = ref 0 in
      while !ok && !i < m do
        let e = Array.unsafe_get sc !i in
        if Array.unsafe_get dn (e lsr 2) <> e land 3 then ok := false;
        incr i
      done;
      if !ok then begin
        t.spec_on <- true;
        t.cur <- s.sc;
        (* Fresh (not mutated): snapshots sharing the old plane keep it. *)
        t.dirty <- Array.make s.sc.c_pw 0
      end
    end

let unspecialize t =
  t.spec_on <- false;
  t.cur <- t.full;
  t.dirty <- Array.make t.full.c_pw 0

let begin_cycle t =
  if t.mid then invalid_arg "Engine.begin_cycle: already mid-cycle";
  if t.spec_on then begin
    if t.reset_drive <> 0 then unspecialize t
  end
  else try_specialize t;
  unshare t;
  t.mid <- true;
  (* Clock edge: flops take their pending values. *)
  Array.iteri (fun i id -> drive t id t.dff_next.(i)) t.nl.Netlist.dffs;
  (* External drives. *)
  drive t t.ports.reset t.reset_drive;
  Array.iteri (fun i id -> drive t id t.port_drive.(i)) t.ports.port_in;
  eval_pass t;
  (* Combinational memory read. *)
  let ren = Tri.of_int (pget t.vv t.vx t.ports.mem_ren) in
  (match ren with
  | Tri.Zero -> () (* bus keeper: rdata holds its previous value *)
  | Tri.One ->
    let addr = sample t t.ports.mem_addr in
    let data = Mem.read t.mem_ addr in
    Array.iteri
      (fun i id -> drive t id (Tri.to_int (Tri.Word.bit data i)))
      t.ports.mem_rdata
  | Tri.X ->
    Array.iter (fun id -> drive t id xcode) t.ports.mem_rdata);
  eval_pass t;
  match t.ports.fork_net with
  | Some f when pget t.vv t.vx f = xcode -> `Fork
  | Some _ | None -> `Ok

let force_fork t v =
  if not t.mid then invalid_arg "Engine.force_fork: not mid-cycle";
  (match v with
  | Tri.X -> invalid_arg "Engine.force_fork: cannot force X"
  | Tri.Zero | Tri.One -> ());
  unshare t;
  (match t.ports.fork_net with
  | None -> invalid_arg "Engine.force_fork: no fork net"
  | Some f -> drive t f (Tri.to_int v));
  eval_pass t

let finish_cycle t =
  if not t.mid then invalid_arg "Engine.finish_cycle: begin_cycle first";
  (match t.ports.fork_net with
  | Some f when pget t.vv t.vx f = xcode ->
    invalid_arg "Engine.finish_cycle: unresolved fork"
  | Some _ | None -> ());
  unshare t;
  t.mid <- false;
  let nl = t.nl in
  let vv = t.vv and vx = t.vx and pv = t.pv and px = t.px in
  let nw = t.nw in
  (* Pending flop values (visible next cycle). An enable-flop holds when
     its enable is 0, loads on 1, and on X keeps its value only if old
     and new agree. Each change is two XORs into the running digest. *)
  let dffs = nl.Netlist.dffs in
  let dff_next = t.dff_next in
  for i = 0 to Array.length dffs - 1 do
    let nv =
      if Bytes.unsafe_get t.dff_e i = '\000' then
        pget vv vx (Array.unsafe_get t.dff_f0 i)
      else begin
        let en = pget vv vx (Array.unsafe_get t.dff_f0 i) in
        let d = pget vv vx (Array.unsafe_get t.dff_f1 i) in
        let q = pget vv vx (Array.unsafe_get dffs i) in
        if en = 0 then q else if en = 1 then d else if d = q then q else xcode
      end
    in
    let ov = Array.unsafe_get dff_next i in
    if nv <> ov then begin
      t.hash <- t.hash lxor Zhash.key i ov lxor Zhash.key i nv;
      Array.unsafe_set dff_next i nv
    end
  done;
  (* Memory write (synchronous). *)
  let wen = Tri.of_int (pget vv vx t.ports.mem_wen) in
  (match wen with
  | Tri.Zero -> ()
  | Tri.One | Tri.X ->
    let addr = sample t t.ports.mem_addr in
    let data = sample t t.ports.mem_wdata in
    Mem.write t.mem_ ~strobe:wen addr data);
  (* Activity marking. Base case, word-wide: a gate that changed value
     is active (constants never change, so they never set a bit). *)
  let av = t.av in
  for w = 0 to nw - 1 do
    Array.unsafe_set av w
      ((Array.unsafe_get vv w lxor Array.unsafe_get pv w)
      lor (Array.unsafe_get vx w lxor Array.unsafe_get px w))
  done;
  (* X-special cases, scanning only X-valued Input/Dff/Dffe bits: an X
     input is always (potentially) switching; an X flop only if its data
     could have moved — Dff when the data net was active last cycle,
     Dffe when the enable wasn't known-0 last cycle (a held unknown
     cannot toggle). *)
  let pav = t.pav in
  for w = 0 to nw - 1 do
    let cand =
      Array.unsafe_get vx w
      land Array.unsafe_get t.xsp w
      land lnot (Array.unsafe_get av w)
    in
    if cand <> 0 then begin
      let c = ref cand in
      while !c <> 0 do
        let b = Tri.Plane.ctz !c in
        c := !c land (!c - 1);
        let id = (w lsl 5) lor b in
        let act =
          match Bytes.unsafe_get t.gkind id with
          | '\001' -> true
          | '\002' -> bit_set pav (Array.unsafe_get t.gf0 id)
          | _ -> pget pv px (Array.unsafe_get t.gf0 id) <> 0
        in
        if act then
          Array.unsafe_set av w (Array.unsafe_get av w lor (1 lsl b))
      done
    end
  done;
  (* X-propagated activity: an X-valued gate is active when an active
     fanin can actually reach its output. For and/or/xor-class cells an
     X output already implies every fanin is potentially controlling,
     so any active fanin suffices; a mux with a stable known select is
     only sensitive to the selected input (this sensitization matters:
     without it, every idle X register whose write-data bus toggles
     would be counted as potentially switching each cycle, grossly
     inflating the bound). Only X-valued, not-yet-active combinational
     nets can change, so the pass visits just those, word by word in
     ascending net id — a dependency order, because every fanin of a
     combinational gate has a lower id (Netlist.Builder.add_gate), so
     each fanin's activity is final when its reader is visited. Folded
     nets of the specialized program hold definite values, so the full
     program serves both. *)
  let tb = t.tb in
  let prog = tb.tb_full.c_prog and pos = tb.tb_pos and comb = tb.tb_comb in
  for w = 0 to nw - 1 do
    let cand =
      Array.unsafe_get vx w
      land Array.unsafe_get comb w
      land lnot (Array.unsafe_get av w)
    in
    if cand <> 0 then begin
      let c = ref cand in
      while !c <> 0 do
        let b = Tri.Plane.ctz !c in
        c := !c land (!c - 1);
        let p = Array.unsafe_get pos ((w lsl 5) lor b) lsl 2 in
        let hd = Array.unsafe_get prog p in
        let f0 = Array.unsafe_get prog (p + 1) in
        let any =
          if hd land 15 < 6 then
            bit_set av f0 || bit_set av (Array.unsafe_get prog (p + 2))
          else
            bit_set av f0
            ||
            let sel = pget vv vx f0 in
            if sel = 0 then bit_set av (Array.unsafe_get prog (p + 2))
            else if sel = 1 then bit_set av (Array.unsafe_get prog (p + 3))
            else
              bit_set av (Array.unsafe_get prog (p + 2))
              || bit_set av (Array.unsafe_get prog (p + 3))
        in
        if any then Array.unsafe_set av w (Array.unsafe_get av w lor (1 lsl b))
      done
    end
  done;
  (* Collect deltas and X-active sets word by word into per-engine
     scratch: changed bits become packed deltas, active-but-unchanged
     bits the X-active list, both in ascending net order. *)
  let nd = ref 0 and nx = ref 0 in
  let sd = t.scratch_deltas and sx = t.scratch_x in
  for w = 0 to nw - 1 do
    let diff =
      (Array.unsafe_get vv w lxor Array.unsafe_get pv w)
      lor (Array.unsafe_get vx w lxor Array.unsafe_get px w)
    in
    if diff <> 0 then begin
      let d = ref diff in
      while !d <> 0 do
        let b = Tri.Plane.ctz !d in
        d := !d land (!d - 1);
        let id = (w lsl 5) lor b in
        Array.unsafe_set sd !nd
          (Trace.pack ~net:id ~old_v:(pget pv px id) ~new_v:(pget vv vx id));
        incr nd
      done
    end;
    let xact = Array.unsafe_get av w land lnot diff in
    if xact <> 0 then begin
      let d = ref xact in
      while !d <> 0 do
        let b = Tri.Plane.ctz !d in
        d := !d land (!d - 1);
        Array.unsafe_set sx !nx ((w lsl 5) lor b);
        incr nx
      done
    end
  done;
  let rec_ =
    {
      Trace.deltas = Array.sub sd 0 !nd;
      x_active = Array.sub sx 0 !nx;
      pc = sample t t.ports.pc;
      state = sample t t.ports.state;
      ir = sample t t.ports.ir;
    }
  in
  Array.blit vv 0 pv 0 nw;
  Array.blit vx 0 px 0 nw;
  Array.blit av 0 t.pav 0 nw;
  t.cycle <- t.cycle + 1;
  Telemetry.Counter.add c_cycles 1;
  rec_

let step t =
  match begin_cycle t with
  | `Ok -> finish_cycle t
  | `Fork -> failwith "Engine.step: unexpected fork (X on branch decision)"

(* O(1): the flop/input hash is maintained incrementally, the RAM hash
   by Mem. Zobrist equality mirrors content equality (collisions are
   negligible — 63-bit keys), so dedup decisions match the old
   full-serialization MD5 digest. *)
let arch_digest t = Zhash.to_digest (t.hash lxor Mem.content_hash t.mem_)

let values_snapshot t = Array.init (Netlist.gate_count t.nl) (pget t.vv t.vx)

type snapshot = {
  s_vv : int array;
  s_vx : int array;
  s_pv : int array;
  s_px : int array;
  s_av : int array;
  s_pav : int array;
  s_dirty : int array;
  s_dff_next : int array;
  s_mem : Mem.snapshot;
  s_hash : int;
  s_reset_drive : int;
  s_port_drive : int array;
  s_cycle : int;
  s_mid : bool;
  s_spec_on : bool;  (* which program s_dirty is positioned over *)
}

let snapshot_ t =
  t.shared <- true;
  {
    s_vv = t.vv;
    s_vx = t.vx;
    s_pv = t.pv;
    s_px = t.px;
    s_av = t.av;
    s_pav = t.pav;
    s_dirty = t.dirty;
    s_dff_next = t.dff_next;
    s_mem = Mem.snapshot t.mem_;
    s_hash = t.hash;
    s_reset_drive = t.reset_drive;
    s_port_drive = Array.copy t.port_drive;
    s_cycle = t.cycle;
    s_mid = t.mid;
    s_spec_on = t.spec_on;
  }

let snapshot t =
  if Telemetry.enabled () then begin
    let t0 = Telemetry.now_ns () in
    let s = snapshot_ t in
    Telemetry.Histogram.observe h_snapshot_ns
      (Int64.sub (Telemetry.now_ns ()) t0);
    s
  end
  else snapshot_ t

let restore t s =
  (match (s.s_spec_on, t.spec) with
  | true, None ->
    invalid_arg "Engine.restore: specialized snapshot, unspecialized engine"
  | true, Some sp ->
    t.spec_on <- true;
    t.cur <- sp.sc
  | false, _ ->
    t.spec_on <- false;
    t.cur <- t.full);
  t.vv <- s.s_vv;
  t.vx <- s.s_vx;
  t.pv <- s.s_pv;
  t.px <- s.s_px;
  t.av <- s.s_av;
  t.pav <- s.s_pav;
  t.dirty <- s.s_dirty;
  t.dff_next <- s.s_dff_next;
  t.shared <- true;
  Mem.restore t.mem_ s.s_mem;
  t.hash <- s.s_hash;
  t.reset_drive <- s.s_reset_drive;
  Array.blit s.s_port_drive 0 t.port_drive 0 (Array.length t.port_drive);
  t.cycle <- s.s_cycle;
  t.mid <- s.s_mid

(* Replica for a worker domain: shares the read-only netlist, compiled
   tables, specialization and ROM with [t]; owns fresh planes and RAM.
   The external drive levels are carried by [snapshot]/[restore], so a
   replica becomes interchangeable with the original the moment a
   snapshot is restored into it. *)
let create_like t = make t.nl ~ports:t.ports ~mem:(Mem.like t.mem_) t.tb t.spec

let specialization t =
  Option.map (fun s -> (s.s_folded, s.s_swept)) t.spec

let specialized_active t = t.spec_on

let of_snapshot t s =
  let e = create_like t in
  restore e s;
  e

(* ---------------------------------------------------------------------
   Gang simulation: up to 32 independent simulations of the SAME netlist
   evaluated in one pass of the compiled kernel.

   Sibling branches of the symbolic execution tree run the same gate
   program on slightly divergent state, so the per-cycle costs that are
   O(netlist) regardless of how much changed — the X-propagation
   sensitization pass, dirty scanning, fanout traversal — can be
   amortized across a whole gang. The layout transposes the scalar
   engine's packing: where the scalar engine stores 32 *nets* per word,
   the gang stores one word per net holding 32 *lanes* (bit [l] of the
   value/unknown word of net [i] is lane [l]'s trit, X normalized to
   v = 0). Gate evaluation then runs on {!Tri.Lanes} formulas: a handful
   of word-wide boolean ops compute the Kleene connective for all lanes
   at once, and the dirty plane is shared — a gate is re-evaluated when
   *any* lane marked it, which costs nothing extra because evaluation is
   word-parallel anyway.

   Memory, the Zobrist digest, cycle counters and external drive levels
   stay per-lane. Lanes are loaded from ordinary (cycle-boundary) engine
   snapshots and extracted back into snapshots either mid-cycle (when a
   lane hits a fork, so a scalar engine can resolve both arms) or at a
   boundary (truncation); an extracted snapshot restored into a scalar
   engine continues bit-identically, which the differential suite checks
   in lockstep.

   Per-cycle record collection matches the scalar engine exactly: the
   [mark] plane (nets touched this cycle, by stores or activity setting)
   is a superset of every net with a delta or X-active bit, and since
   untouched nets provably equal their previous-cycle values, scanning
   marked nets in ascending order yields the same delta/X-active lists
   the scalar full-plane scan produces. *)

module Gang = struct
  type outcome = Cycle of Trace.cycle | Forked of snapshot

  type g = {
    e : t;  (* prototype: compiled tables only; its mutable state is unused *)
    width : int;
    mutable live : int;  (* lane bitmask *)
    (* lane-word state: one word per net (or per flop), bit l = lane l *)
    lvv : int array;
    lvx : int array;
    lpv : int array;  (* previous-cycle values *)
    lpx : int array;
    mutable lav : int array;  (* this-cycle activity *)
    mutable lpav : int array;  (* previous-cycle activity *)
    ldnv : int array;  (* pending flop values, indexed like nl.dffs *)
    ldnx : int array;
    gdirty : int array;  (* program-position dirty plane, shared scan *)
    ldirty : int array;
        (* per-gate pending lane mask, indexed by program position. A
           gate output is recomputed ONLY in lanes whose fanins changed:
           lanes are independent event-driven simulations, so a lane
           whose inputs are quiet must keep its stale value — the scalar
           engine relies on exactly this to hold forced fork decisions
           (out <> f(in) until an input event), and boundary snapshots
           carry such states. A full-word recompute would clobber
           them. *)
    mutable mark : int array;  (* net-id plane: nets touched this cycle *)
    mutable markp : int array;  (* nets touched previous cycle *)
    (* per-lane simulation identity *)
    mems : Mem.t array;
    hash : int array;
    rdrive : int array;
    pdrive : int array array;
    cyc : int array;
    (* cached external drive lane-words: slot 0 = reset, j+1 = port j *)
    drv_v : int array;
    drv_x : int array;
    (* scratch *)
    rtmp_v : int array;  (* per rdata bit, during the memory read *)
    rtmp_x : int array;
    dbuf : int array array;  (* per-lane delta collection *)
    xbuf : int array array;
    dn : int array;
    xn : int array;
  }

  let width g = g.width
  let live_count g = Tri.Plane.popcount g.live
  let has_free g = g.live <> (1 lsl g.width) - 1

  let create e ~width =
    let width = max 1 (min 32 width) in
    let n = Netlist.gate_count e.nl in
    let ndffs = Netlist.dff_count e.nl in
    {
      e;
      width;
      live = 0;
      lvv = Array.make n 0;
      lvx = Array.make n 0;
      lpv = Array.make n 0;
      lpx = Array.make n 0;
      lav = Array.make n 0;
      lpav = Array.make n 0;
      ldnv = Array.make ndffs 0;
      ldnx = Array.make ndffs 0;
      (* Lanes always run the full program: gang state mixes lanes from
         arbitrary snapshots, and the per-gate merge-store already
         amortizes the program walk across the whole gang. Extracted
         snapshots are marked unspecialized; a scalar engine restoring
         one re-activates its specialized program at the next verified
         cycle boundary. *)
      gdirty = Array.make e.full.c_pw 0;
      ldirty = Array.make e.full.c_ncomb 0;
      mark = Array.make e.nw 0;
      markp = Array.make e.nw 0;
      mems = Array.init width (fun _ -> Mem.like e.mem_);
      hash = Array.make width 0;
      rdrive = Array.make width xcode;
      pdrive =
        Array.init width (fun _ ->
            Array.make (Array.length e.ports.port_in) xcode);
      cyc = Array.make width 0;
      drv_v = Array.make (1 + Array.length e.ports.port_in) 0;
      drv_x = Array.make (1 + Array.length e.ports.port_in) 0;
      rtmp_v = Array.make (Array.length e.ports.mem_rdata) 0;
      rtmp_x = Array.make (Array.length e.ports.mem_rdata) 0;
      dbuf = Array.init width (fun _ -> Array.make n 0);
      xbuf = Array.init width (fun _ -> Array.make n 0);
      dn = Array.make width 0;
      xn = Array.make width 0;
    }

  let[@inline] lane_code g id l =
    ((Array.unsafe_get g.lvv id lsr l) land 1)
    lor (((Array.unsafe_get g.lvx id lsr l) land 1) lsl 1)

  let[@inline] mark_net g id =
    let w = id lsr 5 in
    Array.unsafe_set g.mark w
      (Array.unsafe_get g.mark w lor (1 lsl (id land 31)))

  (* Mark fanouts dirty in exactly the [lanes] whose driver changed. *)
  let[@inline] mark_fanouts_g g id lanes =
    let dirty = g.gdirty and ldirty = g.ldirty in
    let full = g.e.full in
    let stop = Array.unsafe_get full.c_fo_off (id + 1) in
    for k = Array.unsafe_get full.c_fo_off id to stop - 1 do
      let pos = Array.unsafe_get full.c_fo_pos k in
      let w = pos lsr 5 in
      Array.unsafe_set dirty w
        (Array.unsafe_get dirty w lor (1 lsl (pos land 31)));
      Array.unsafe_set ldirty pos (Array.unsafe_get ldirty pos lor lanes)
    done

  (* Write a lane word into net [id]: store + dirty marks only when a
     live lane actually changed; [hash_slot >= 0] folds each changed
     live lane's old/new codes into that lane's Zobrist hash (external
     drives — mirrors the scalar [drive]). *)
  let store_lanes g id nv nx ~hash_slot =
    let ov = Array.unsafe_get g.lvv id and ox = Array.unsafe_get g.lvx id in
    let changed = ((ov lxor nv) lor (ox lxor nx)) land g.live in
    if changed <> 0 then begin
      if hash_slot >= 0 then begin
        let c = ref changed in
        while !c <> 0 do
          let l = Tri.Plane.ctz !c in
          c := !c land (!c - 1);
          let oc = ((ov lsr l) land 1) lor (((ox lsr l) land 1) lsl 1) in
          let nc = ((nv lsr l) land 1) lor (((nx lsr l) land 1) lsl 1) in
          g.hash.(l) <-
            g.hash.(l) lxor Zhash.key hash_slot oc lxor Zhash.key hash_slot nc
        done
      end;
      Array.unsafe_set g.lvv id nv;
      Array.unsafe_set g.lvx id nx;
      mark_fanouts_g g id changed;
      mark_net g id
    end

  (* Word-parallel settle over the shared dirty plane — the scalar
     [eval_pass] with {!Tri.Lanes} formulas instead of table lookups. *)
  let eval_g g =
    let e = g.e in
    let dirty = g.gdirty and prog = e.full.c_prog in
    let lvv = g.lvv and lvx = g.lvx in
    let live = g.live in
    let pw = e.full.c_pw in
    let words = ref 0 in
    let w = ref 0 in
    while !w < pw do
      let bits = Array.unsafe_get dirty !w in
      incr words;
      if bits = 0 then incr w
      else begin
        Array.unsafe_set dirty !w (bits land (bits - 1));
        let k = (!w lsl 5) lor Tri.Plane.ctz bits in
        let lmask = Array.unsafe_get g.ldirty k land live in
        Array.unsafe_set g.ldirty k 0;
        if lmask <> 0 then begin
          let p = k lsl 2 in
          let hd = Array.unsafe_get prog p in
          let op = hd land 15 in
          let out = hd lsr 4 in
          let f0 = Array.unsafe_get prog (p + 1) in
          let f1 = Array.unsafe_get prog (p + 2) in
          let av = Array.unsafe_get lvv f0 and ax = Array.unsafe_get lvx f0 in
          let bv = Array.unsafe_get lvv f1 and bx = Array.unsafe_get lvx f1 in
          let nv, nx =
            if op = op_and then Tri.Lanes.and_ av ax bv bx
            else if op = op_or then Tri.Lanes.or_ av ax bv bx
            else if op = op_nand then Tri.Lanes.nand av ax bv bx
            else if op = op_nor then Tri.Lanes.nor av ax bv bx
            else if op = op_xor then Tri.Lanes.xor_ av ax bv bx
            else if op = op_xnor then Tri.Lanes.xnor av ax bv bx
            else
              let f2 = Array.unsafe_get prog (p + 3) in
              Tri.Lanes.mux av ax bv bx
                (Array.unsafe_get lvv f2)
                (Array.unsafe_get lvx f2)
          in
          let ov = Array.unsafe_get lvv out and ox = Array.unsafe_get lvx out in
          (* Merge-store: only lanes with an input event take the fresh
             value; quiet lanes keep theirs (see [ldirty]). *)
          let nv = (ov land lnot lmask) lor (nv land lmask) in
          let nx = (ox land lnot lmask) lor (nx land lmask) in
          let changed = (ov lxor nv) lor (ox lxor nx) in
          if changed <> 0 then begin
            Array.unsafe_set lvv out nv;
            Array.unsafe_set lvx out nx;
            mark_fanouts_g g out changed;
            mark_net g out
          end
        end
      end
    done;
    Telemetry.Counter.add c_words !words

  let lane_sample g l bus =
    Tri.Word.of_trits (Array.map (fun id -> Tri.of_int (lane_code g id l)) bus)

  (* The scalar [begin_cycle] for all live lanes: clock edge, external
     drives, settle, combinational memory read, settle. Returns the mask
     of live lanes whose branch-decision net settled to X. *)
  let begin_g g =
    let e = g.e in
    let dffs = e.nl.Netlist.dffs in
    for i = 0 to Array.length dffs - 1 do
      store_lanes g
        (Array.unsafe_get dffs i)
        (Array.unsafe_get g.ldnv i)
        (Array.unsafe_get g.ldnx i)
        ~hash_slot:(-1)
    done;
    store_lanes g e.ports.reset g.drv_v.(0) g.drv_x.(0)
      ~hash_slot:e.islot.(e.ports.reset);
    Array.iteri
      (fun j id ->
        store_lanes g id g.drv_v.(j + 1) g.drv_x.(j + 1) ~hash_slot:e.islot.(id))
      e.ports.port_in;
    eval_g g;
    (* Combinational memory read. Per lane: ren 0 = bus keeper (lane
       bits keep their value), 1 = read through the map, X = all-X. *)
    let renv = g.lvv.(e.ports.mem_ren) and renx = g.lvx.(e.ports.mem_ren) in
    let need = (renv lor renx) land g.live in
    if need <> 0 then begin
      let rd = e.ports.mem_rdata in
      let nrd = Array.length rd in
      for j = 0 to nrd - 1 do
        g.rtmp_v.(j) <- g.lvv.(rd.(j));
        g.rtmp_x.(j) <- g.lvx.(rd.(j))
      done;
      let lanes = ref need in
      while !lanes <> 0 do
        let l = Tri.Plane.ctz !lanes in
        lanes := !lanes land (!lanes - 1);
        let bit = 1 lsl l and nbit = lnot (1 lsl l) in
        if (renv lsr l) land 1 = 1 then begin
          let addr = lane_sample g l e.ports.mem_addr in
          let data = Mem.read g.mems.(l) addr in
          for j = 0 to nrd - 1 do
            match Tri.Word.bit data j with
            | Tri.Zero ->
              g.rtmp_v.(j) <- g.rtmp_v.(j) land nbit;
              g.rtmp_x.(j) <- g.rtmp_x.(j) land nbit
            | Tri.One ->
              g.rtmp_v.(j) <- g.rtmp_v.(j) lor bit;
              g.rtmp_x.(j) <- g.rtmp_x.(j) land nbit
            | Tri.X ->
              g.rtmp_v.(j) <- g.rtmp_v.(j) land nbit;
              g.rtmp_x.(j) <- g.rtmp_x.(j) lor bit
          done
        end
        else
          for j = 0 to nrd - 1 do
            g.rtmp_v.(j) <- g.rtmp_v.(j) land nbit;
            g.rtmp_x.(j) <- g.rtmp_x.(j) lor bit
          done
      done;
      for j = 0 to nrd - 1 do
        store_lanes g rd.(j) g.rtmp_v.(j) g.rtmp_x.(j)
          ~hash_slot:e.islot.(rd.(j))
      done
    end;
    eval_g g;
    match e.ports.fork_net with
    | Some f -> g.lvx.(f) land g.live
    | None -> 0

  (* The scalar [finish_cycle] for all live lanes. [emit l cycle] is
     called for each live lane in ascending order. *)
  let finish_g g emit =
    let e = g.e in
    let nl = e.nl in
    let live = g.live in
    let lvv = g.lvv and lvx = g.lvx and lpv = g.lpv and lpx = g.lpx in
    (* Pending flop values; two XORs per changed live lane and slot. *)
    let dffs = nl.Netlist.dffs in
    for i = 0 to Array.length dffs - 1 do
      let nv, nx =
        if Bytes.unsafe_get e.dff_e i = '\000' then
          let d = Array.unsafe_get e.dff_f0 i in
          (Array.unsafe_get lvv d, Array.unsafe_get lvx d)
        else
          let en = Array.unsafe_get e.dff_f0 i in
          let d = Array.unsafe_get e.dff_f1 i in
          let q = Array.unsafe_get dffs i in
          Tri.Lanes.dffe_next
            (Array.unsafe_get lvv en) (Array.unsafe_get lvx en)
            (Array.unsafe_get lvv d) (Array.unsafe_get lvx d)
            (Array.unsafe_get lvv q) (Array.unsafe_get lvx q)
      in
      let ov = Array.unsafe_get g.ldnv i and ox = Array.unsafe_get g.ldnx i in
      let changed = ((ov lxor nv) lor (ox lxor nx)) land live in
      if changed <> 0 then begin
        let c = ref changed in
        while !c <> 0 do
          let l = Tri.Plane.ctz !c in
          c := !c land (!c - 1);
          let oc = ((ov lsr l) land 1) lor (((ox lsr l) land 1) lsl 1) in
          let nc = ((nv lsr l) land 1) lor (((nx lsr l) land 1) lsl 1) in
          g.hash.(l) <- g.hash.(l) lxor Zhash.key i oc lxor Zhash.key i nc
        done;
        Array.unsafe_set g.ldnv i nv;
        Array.unsafe_set g.ldnx i nx
      end
    done;
    (* Synchronous memory write, per live lane. *)
    let wen = e.ports.mem_wen in
    let lanes = ref live in
    while !lanes <> 0 do
      let l = Tri.Plane.ctz !lanes in
      lanes := !lanes land (!lanes - 1);
      let wc = lane_code g wen l in
      if wc <> 0 then
        Mem.write g.mems.(l) ~strobe:(Tri.of_int wc)
          (lane_sample g l e.ports.mem_addr)
          (lane_sample g l e.ports.mem_wdata)
    done;
    (* Activity. Base case over marked nets (unmarked nets cannot have
       changed), then the X-special and X-propagation passes — all
       word-parallel across lanes. *)
    let lav = g.lav and lpav = g.lpav in
    let mark = g.mark in
    let nw = e.nw in
    for w = 0 to nw - 1 do
      let b = ref (Array.unsafe_get mark w) in
      while !b <> 0 do
        let i = (w lsl 5) lor Tri.Plane.ctz !b in
        b := !b land (!b - 1);
        Array.unsafe_set lav i
          ((Array.unsafe_get lvv i lxor Array.unsafe_get lpv i)
          lor (Array.unsafe_get lvx i lxor Array.unsafe_get lpx i))
      done
    done;
    Array.iter
      (fun id ->
        let cand = Array.unsafe_get lvx id land lnot (Array.unsafe_get lav id) in
        if cand <> 0 then begin
          Array.unsafe_set lav id (Array.unsafe_get lav id lor cand);
          mark_net g id
        end)
      nl.Netlist.inputs;
    for i = 0 to Array.length dffs - 1 do
      let id = Array.unsafe_get dffs i in
      let cand = Array.unsafe_get lvx id land lnot (Array.unsafe_get lav id) in
      if cand <> 0 then begin
        let f0 = Array.unsafe_get e.gf0 id in
        let act =
          if Bytes.unsafe_get e.dff_e i = '\000' then Array.unsafe_get lpav f0
          else Array.unsafe_get lpv f0 lor Array.unsafe_get lpx f0
        in
        let add = cand land act in
        if add <> 0 then begin
          Array.unsafe_set lav id (Array.unsafe_get lav id lor add);
          mark_net g id
        end
      end
    done;
    let prog = e.full.c_prog in
    let ncomb = e.full.c_ncomb in
    for k = 0 to ncomb - 1 do
      let p = k lsl 2 in
      let hd = Array.unsafe_get prog p in
      let out = hd lsr 4 in
      let cand =
        Array.unsafe_get lvx out land lnot (Array.unsafe_get lav out)
      in
      if cand <> 0 then begin
        let f0 = Array.unsafe_get prog (p + 1) in
        let any =
          if hd land 15 < 6 then
            Array.unsafe_get lav f0
            lor Array.unsafe_get lav (Array.unsafe_get prog (p + 2))
          else begin
            let sv = Array.unsafe_get lvv f0 and sx = Array.unsafe_get lvx f0 in
            let a1 = Array.unsafe_get lav (Array.unsafe_get prog (p + 2)) in
            let a2 = Array.unsafe_get lav (Array.unsafe_get prog (p + 3)) in
            Array.unsafe_get lav f0
            lor (lnot (sv lor sx) land a1)
            lor (sv land a2)
            lor (sx land (a1 lor a2))
          end
        in
        let add = cand land any in
        if add <> 0 then begin
          Array.unsafe_set lav out (Array.unsafe_get lav out lor add);
          mark_net g out
        end
      end
    done;
    (* Delta / X-active collection: ascending marked nets, fanned out
       into per-lane buffers — same element order as the scalar scan. *)
    let lanes = ref live in
    while !lanes <> 0 do
      let l = Tri.Plane.ctz !lanes in
      lanes := !lanes land (!lanes - 1);
      g.dn.(l) <- 0;
      g.xn.(l) <- 0
    done;
    for w = 0 to nw - 1 do
      let b = ref (Array.unsafe_get mark w) in
      while !b <> 0 do
        let i = (w lsl 5) lor Tri.Plane.ctz !b in
        b := !b land (!b - 1);
        let diff =
          (Array.unsafe_get lvv i lxor Array.unsafe_get lpv i)
          lor (Array.unsafe_get lvx i lxor Array.unsafe_get lpx i)
        in
        let dl = ref (diff land live) in
        while !dl <> 0 do
          let l = Tri.Plane.ctz !dl in
          dl := !dl land (!dl - 1);
          let old_c =
            ((Array.unsafe_get lpv i lsr l) land 1)
            lor (((Array.unsafe_get lpx i lsr l) land 1) lsl 1)
          in
          let buf = Array.unsafe_get g.dbuf l in
          Array.unsafe_set buf g.dn.(l)
            (Trace.pack ~net:i ~old_v:old_c ~new_v:(lane_code g i l));
          g.dn.(l) <- g.dn.(l) + 1
        done;
        let xl = ref (Array.unsafe_get lav i land lnot diff land live) in
        while !xl <> 0 do
          let l = Tri.Plane.ctz !xl in
          xl := !xl land (!xl - 1);
          let buf = Array.unsafe_get g.xbuf l in
          Array.unsafe_set buf g.xn.(l) i;
          g.xn.(l) <- g.xn.(l) + 1
        done
      done
    done;
    (* Commit previous-cycle planes for touched nets, rotate activity
       (this cycle's [lav] becomes [lpav]; the incoming [lav] is zeroed
       on its old support) and swap the mark planes. *)
    for w = 0 to nw - 1 do
      let b = ref (Array.unsafe_get mark w) in
      while !b <> 0 do
        let i = (w lsl 5) lor Tri.Plane.ctz !b in
        b := !b land (!b - 1);
        Array.unsafe_set lpv i (Array.unsafe_get lvv i);
        Array.unsafe_set lpx i (Array.unsafe_get lvx i)
      done
    done;
    let fresh_av = g.lpav in
    g.lpav <- g.lav;
    g.lav <- fresh_av;
    let mp = g.markp in
    for w = 0 to nw - 1 do
      let b = ref (Array.unsafe_get mp w) in
      if !b <> 0 then begin
        while !b <> 0 do
          let i = (w lsl 5) lor Tri.Plane.ctz !b in
          b := !b land (!b - 1);
          Array.unsafe_set fresh_av i 0
        done;
        Array.unsafe_set mp w 0
      end
    done;
    g.markp <- g.mark;
    g.mark <- mp;
    (* Per-lane cycle records. *)
    Telemetry.Counter.add c_cycles (Tri.Plane.popcount live);
    let lanes = ref live in
    while !lanes <> 0 do
      let l = Tri.Plane.ctz !lanes in
      lanes := !lanes land (!lanes - 1);
      g.cyc.(l) <- g.cyc.(l) + 1;
      emit l
        {
          Trace.deltas = Array.sub g.dbuf.(l) 0 g.dn.(l);
          x_active = Array.sub g.xbuf.(l) 0 g.xn.(l);
          pc = lane_sample g l e.ports.pc;
          state = lane_sample g l e.ports.state;
          ir = lane_sample g l e.ports.ir;
        }
    done

  let retire g l = g.live <- g.live land lnot (1 lsl l)

  (* Lane -> scalar snapshot. Mid-cycle extraction (at a fork) carries
     the settled mid-cycle values; a scalar engine restoring it can
     [force_fork] + [finish_cycle] exactly as if it had simulated the
     whole cycle itself. *)
  let extract_lane g l ~mid =
    let e = g.e in
    let n = Netlist.gate_count e.nl in
    let nw = e.nw in
    let vv = Array.make nw 0 and vx = Array.make nw 0 in
    let pv = Array.make nw 0 and px = Array.make nw 0 in
    let pav = Array.make nw 0 in
    for i = 0 to n - 1 do
      let w = i lsr 5 and b = i land 31 in
      let set pl src =
        Array.unsafe_set pl w
          (Array.unsafe_get pl w
          lor (((Array.unsafe_get src i lsr l) land 1) lsl b))
      in
      set vv g.lvv;
      set vx g.lvx;
      set pv g.lpv;
      set px g.lpx;
      set pav g.lpav
    done;
    {
      s_vv = vv;
      s_vx = vx;
      s_pv = pv;
      s_px = px;
      s_av = Array.make nw 0;  (* rewritten wholesale by finish_cycle *)
      s_pav = pav;
      s_dirty = Array.make e.full.c_pw 0;  (* settled *)
      s_dff_next =
        Array.init (Netlist.dff_count e.nl) (fun i ->
            ((g.ldnv.(i) lsr l) land 1) lor (((g.ldnx.(i) lsr l) land 1) lsl 1));
      s_mem = Mem.snapshot g.mems.(l);
      s_hash = g.hash.(l);
      s_reset_drive = g.rdrive.(l);
      s_port_drive = Array.copy g.pdrive.(l);
      s_cycle = g.cyc.(l);
      s_mid = mid;
      s_spec_on = false;  (* gang lanes run the full program *)
    }

  let extract g l = extract_lane g l ~mid:false

  (* Load a cycle-boundary snapshot into a free lane. O(nets). *)
  let load g (s : snapshot) =
    if s.s_mid then invalid_arg "Engine.Gang.load: mid-cycle snapshot";
    let free = lnot g.live land ((1 lsl g.width) - 1) in
    if free = 0 then invalid_arg "Engine.Gang.load: no free lane";
    let l = Tri.Plane.ctz free in
    let bit = 1 lsl l in
    let nbit = lnot bit in
    let e = g.e in
    let n = Netlist.gate_count e.nl in
    for i = 0 to n - 1 do
      let w = i lsr 5 and b = i land 31 in
      let put dst src =
        if (Array.unsafe_get src w lsr b) land 1 = 1 then
          Array.unsafe_set dst i (Array.unsafe_get dst i lor bit)
        else Array.unsafe_set dst i (Array.unsafe_get dst i land nbit)
      in
      put g.lvv s.s_vv;
      put g.lvx s.s_vx;
      put g.lpv s.s_pv;
      put g.lpx s.s_px;
      (* [lpav] rotates into [lav] next cycle; record its new support in
         [markp] so the rotation zeroes these bits on schedule. *)
      if (Array.unsafe_get s.s_pav w lsr b) land 1 = 1 then begin
        g.lpav.(i) <- g.lpav.(i) lor bit;
        g.markp.(w) <- g.markp.(w) lor (1 lsl b)
      end
      else g.lpav.(i) <- g.lpav.(i) land nbit
    done;
    for i = 0 to Netlist.dff_count e.nl - 1 do
      let c = Array.unsafe_get s.s_dff_next i in
      g.ldnv.(i) <-
        (g.ldnv.(i) land nbit) lor ((c land 1) lsl l);
      g.ldnx.(i) <- (g.ldnx.(i) land nbit) lor ((c lsr 1) lsl l)
    done;
    Mem.restore g.mems.(l) s.s_mem;
    g.hash.(l) <- s.s_hash;
    g.rdrive.(l) <- s.s_reset_drive;
    Array.blit s.s_port_drive 0 g.pdrive.(l) 0 (Array.length s.s_port_drive);
    g.cyc.(l) <- s.s_cycle;
    let set_drv k c =
      g.drv_v.(k) <- (g.drv_v.(k) land nbit) lor ((c land 1) lsl l);
      g.drv_x.(k) <- (g.drv_x.(k) land nbit) lor ((c lsr 1) lsl l)
    in
    set_drv 0 s.s_reset_drive;
    Array.iteri (fun j c -> set_drv (j + 1) c) s.s_port_drive;
    g.live <- g.live lor bit;
    l

  (* One synchronized cycle for every live lane. Lanes whose
     branch-decision net settles to X are extracted mid-cycle and
     retired ([Forked]); the rest complete the cycle ([Cycle]). *)
  let step g emit =
    if g.live = 0 then invalid_arg "Engine.Gang.step: no live lanes";
    let fmask = begin_g g in
    let forked = ref [] in
    let f = ref fmask in
    while !f <> 0 do
      let l = Tri.Plane.ctz !f in
      f := !f land (!f - 1);
      let snap = extract_lane g l ~mid:true in
      retire g l;
      forked := (l, snap) :: !forked
    done;
    finish_g g (fun l c -> emit l (Cycle c));
    List.iter (fun (l, s) -> emit l (Forked s)) (List.rev !forked)
end
