type config = {
  is_end : Trace.cycle -> bool;
  max_cycles_per_path : int;
  max_paths : int;
  revisit_limit : int;
  gang_width : int;
}

let default_config ~is_end =
  {
    is_end;
    max_cycles_per_path = 20_000;
    max_paths = 4_096;
    revisit_limit = 0;
    gang_width = 16;
  }

type stats = {
  paths : int;
  forks : int;
  dedup_hits : int;
  total_cycles : int;
}

exception Path_limit of string

let reset_cycles = 2

(* Hold reset, then step through the RESET and VECTOR states so the
   recorded trace starts at the application's first fetch — the
   one-time power-on transient is a system event, not part of the
   application's power profile. *)
let do_reset e =
  Engine.set_reset e Tri.One;
  for _ = 1 to reset_cycles do
    ignore (Engine.step e : Trace.cycle)
  done;
  Engine.set_reset e Tri.Zero;
  (* RESET state, VECTOR fetch, and the first instruction fetch (whose
     IR transition from the unknown power-on value is likewise part of
     the start-up transient, not steady-state application behaviour). *)
  for _ = 1 to 3 do
    ignore (Engine.step e : Trace.cycle)
  done

(* Digest computation is O(1) now (incremental Zobrist), but it sits on
   the per-fork hot path — keep it observable. *)
let h_digest_ns = Telemetry.Histogram.make "sym.digest_ns"

let arch_digest e =
  if Telemetry.enabled () then begin
    let t0 = Telemetry.now_ns () in
    let d = Engine.arch_digest e in
    Telemetry.Histogram.observe h_digest_ns
      (Int64.sub (Telemetry.now_ns ()) t0);
    d
  end
  else Engine.arch_digest e

(* Fork-arm scheduling: spawned = handed to the pool as a stealable
   task, inlined = kept on the spawning task's local stack. The
   gang-width histogram records how many sibling branches each compiled
   gang pass settled together. *)
let c_spawned = Telemetry.Counter.make "sym.forks_spawned"
let c_stolen = Telemetry.Counter.make "sym.forks_stolen"
let c_inlined = Telemetry.Counter.make "sym.forks_inlined"
let h_gang_width = Telemetry.Histogram.make "sym.gang_width"

(* ---------------------------------------------------------------------
   Task-parallel exploration with deferred sequential commit.

   The exploration phase builds a *speculative arm tree*: every fork is
   resolved immediately (both arms simulated one cycle on a scratch
   engine, digested, and given a provisional cut-or-expand decision
   against the exploring task's [Seen] overlay), and every expanded arm
   becomes a [work] item — an O(1) boundary snapshot plus the tree node
   it will fill in. Work items are directly stealable: when the pool is
   hungry the taken arm is spawned as a task (with an O(1) {!Seen.fork}
   of the overlay); otherwise both arms stay on the task's local LIFO
   stack, which preserves depth-first order. A task with several local
   branches packs them into the lanes of an {!Engine.Gang} and settles
   them with one pass of the compiled kernel per cycle; a lone branch
   runs on the scalar fast path. Tasks never block — they only simulate
   and spawn — so every pool worker is either simulating or stealing.

   Speculative dedup decisions may differ from the sequential run's
   (each task only sees its own overlay chain), so after exploration a
   *sequential commit walk* replays the tree in exact DFS order against
   an authoritative digest table: an arm the table cuts is demoted (its
   speculative subtree discarded — over-exploration costs wall-clock,
   never correctness) and an arm the table expands but speculation cut
   is patched up by sequential re-exploration from the arm's boundary
   snapshot. The walk bumps all counters, fills the registry, and
   raises the cycle/path limits exactly where the sequential explorer
   would have, so the returned tree, registry, stats and exceptions are
   bit-identical to the sequential run.

   Global truncation is cooperative: a shared estimated-path counter
   and a stop flag. Once the estimate crosses [max_paths] (or any
   branch hits the cycle limit) tasks drain their remaining branches to
   [T_unexplored] boundary snapshots and exit; the commit walk
   re-explores any such snapshot it reaches before the (deterministic)
   limit raise. *)

type seg = {
  mutable s_cycles_rev : Trace.cycle list;  (* newest first *)
  mutable s_term : term;
}

and term =
  | T_open  (* still being explored; never seen by the commit walk *)
  | T_end  (* reached the application's halt cycle *)
  | T_raise of exn  (* deterministic limit raise at this point *)
  | T_fork of fork
  | T_unexplored of { u_snap : Engine.snapshot; u_len : int }
      (* drained by the stop flag; commit re-explores sequentially *)

and fork = {
  f_nt : arm;
  f_tk : arm;
  mutable f_fut : unit Parallel.Pool.future option;
      (* the taken arm's task when it was spawned; awaited by the
         commit walk before reading [f_tk.a_seg] *)
}

and arm = {
  a_entry : Trace.cycle;  (* the resolved fork cycle *)
  a_digest : string;  (* architectural digest after [a_entry] *)
  a_snap : Engine.snapshot;  (* boundary state after [a_entry] *)
  a_len : int;  (* path length including [a_entry] *)
  a_cut : bool;  (* the speculative dedup decision *)
  a_seg : seg;  (* continuation; only explored when [not a_cut] *)
}

(* An expanded arm (or the root) awaiting simulation. *)
type work = { w_seg : seg; w_snap : Engine.snapshot; w_len : int }

(* Scratch state of one running task: an engine that resolves forks and
   runs the scalar path, and a gang, each built on first use. *)
type scratch = {
  mutable x_engine : Engine.t option;
  mutable x_gang : Engine.Gang.g option;
}

type sched = {
  cfg : config;
  pool : Parallel.Pool.t option;
  proto : Engine.t;
  (* Scratch states no task of this run holds. A task takes one when it
     starts and returns it when it finishes, so no two tasks ever share
     one — not even two threads of one domain (a server's executor
     threads), which all have the same pool worker index and may help
     on the pool mid-cycle of each other's tasks. Tasks never block, so
     the list grows to at most the number of threads that ran a task of
     this run at once. *)
  free : scratch list ref;
  free_lock : Mutex.t;
  stop : bool Atomic.t;
  est_paths : int Atomic.t;
      (* speculative path-end count; an over-estimate of the committed
         count (demotions only shrink it), so crossing [max_paths] here
         can only stop exploration the commit walk would truncate — or
         patch up sequentially — anyway *)
}

(* Exploration state of one task: a Seen overlay shared by all its
   local branches, a LIFO stack of pending arms, and its scratch. *)
type tstate = {
  t_seen : Seen.t;
  mutable t_pending : work list;
  mutable t_npending : int;
  t_scratch : scratch;
}

type lane = { l_seg : seg; mutable l_len : int }

let gang_width_of cfg = max 1 (min 32 cfg.gang_width)

let cycle_limit_exn cfg =
  Path_limit
    (Printf.sprintf "path exceeded %d cycles" cfg.max_cycles_per_path)

let take_scratch sd =
  Mutex.protect sd.free_lock (fun () ->
      match !(sd.free) with
      | x :: rest ->
        sd.free := rest;
        x
      | [] -> { x_engine = None; x_gang = None })

let give_scratch sd x =
  Mutex.protect sd.free_lock (fun () -> sd.free := x :: !(sd.free))

let scratch_of sd ts =
  match ts.t_scratch.x_engine with
  | Some e -> e
  | None ->
    let e = Engine.create_like sd.proto in
    ts.t_scratch.x_engine <- Some e;
    e

let gang_of sd ts =
  match ts.t_scratch.x_gang with
  | Some g -> g
  | None ->
    let g = Engine.Gang.create sd.proto ~width:(gang_width_of sd.cfg) in
    ts.t_scratch.x_gang <- Some g;
    g

let note_path sd =
  Atomic.incr sd.est_paths;
  if Atomic.get sd.est_paths > sd.cfg.max_paths then Atomic.set sd.stop true

let push_work ts w =
  ts.t_pending <- w :: ts.t_pending;
  ts.t_npending <- ts.t_npending + 1

let pop_work ts =
  match ts.t_pending with
  | [] -> None
  | w :: rest ->
    ts.t_pending <- rest;
    ts.t_npending <- ts.t_npending - 1;
    Some w

let drain_pending ts =
  List.iter
    (fun w ->
      w.w_seg.s_term <- T_unexplored { u_snap = w.w_snap; u_len = w.w_len })
    ts.t_pending;
  ts.t_pending <- [];
  ts.t_npending <- 0

(* Resolve one arm of a fork on [e] (positioned at the fork's settled
   mid-cycle state): force the decision net, finish the cycle, take the
   speculative dedup decision against the task's overlay. *)
let resolve_arm sd ts e v len_at_fork =
  Engine.force_fork e v;
  let c = Engine.finish_cycle e in
  let d = arch_digest e in
  let snap = Engine.snapshot e in
  let visits = Seen.visits ts.t_seen d in
  let cut = visits > sd.cfg.revisit_limit in
  if not cut then Seen.set ts.t_seen d (visits + 1);
  let a =
    {
      a_entry = c;
      a_digest = d;
      a_snap = snap;
      a_len = len_at_fork + 1;
      a_cut = cut;
      a_seg = { s_cycles_rev = []; s_term = T_open };
    }
  in
  if cut then note_path sd
  else if sd.cfg.is_end c then begin
    a.a_seg.s_term <- T_end;
    note_path sd
  end;
  a

let needs_work a = (not a.a_cut) && a.a_seg.s_term == T_open

(* A branch hit a fork: resolve both arms on the scratch engine, record
   the fork node, and queue the arms — the taken arm first (spawned to
   the pool when it is hungry), so the local LIFO pops the not-taken arm
   next, preserving depth-first order. *)
let rec resolve_fork sd ts seg mid_snap len_at_fork =
  let e = scratch_of sd ts in
  Engine.restore e mid_snap;
  let nt = resolve_arm sd ts e Tri.Zero len_at_fork in
  Engine.restore e mid_snap;
  let tk = resolve_arm sd ts e Tri.One len_at_fork in
  let fork = { f_nt = nt; f_tk = tk; f_fut = None } in
  seg.s_term <- T_fork fork;
  let work_of a = { w_seg = a.a_seg; w_snap = a.a_snap; w_len = a.a_len } in
  if needs_work tk then begin
    match sd.pool with
    | Some p
      when Parallel.Pool.size p > 1
           && Parallel.Pool.queued p < Parallel.Pool.size p
           && not (Atomic.get sd.stop) ->
      Telemetry.Counter.incr c_spawned;
      let child_seen = Seen.fork ts.t_seen in
      let w = work_of tk in
      let origin = Parallel.Pool.worker_index p in
      fork.f_fut <-
        Some
          (Parallel.Pool.async p (fun () ->
               if Parallel.Pool.worker_index p <> origin then
                 Telemetry.Counter.incr c_stolen;
               spawn_task sd child_seen w))
    | _ ->
      Telemetry.Counter.incr c_inlined;
      push_work ts (work_of tk)
  end;
  if needs_work nt then push_work ts (work_of nt)

(* Straight-line fast path: a lone branch simulates on the scalar
   scratch engine with no gang overhead. *)
and run_scalar sd ts w =
  let e = scratch_of sd ts in
  Engine.restore e w.w_snap;
  let seg = w.w_seg in
  let len = ref w.w_len in
  let rec go () =
    if Atomic.get sd.stop then
      seg.s_term <- T_unexplored { u_snap = Engine.snapshot e; u_len = !len }
    else if !len > sd.cfg.max_cycles_per_path then begin
      seg.s_term <- T_raise (cycle_limit_exn sd.cfg);
      Atomic.set sd.stop true
    end
    else
      match Engine.begin_cycle e with
      | `Ok ->
        let c = Engine.finish_cycle e in
        seg.s_cycles_rev <- c :: seg.s_cycles_rev;
        if sd.cfg.is_end c then begin
          seg.s_term <- T_end;
          note_path sd
        end
        else begin
          incr len;
          go ()
        end
      | `Fork -> resolve_fork sd ts seg (Engine.snapshot e) !len
  in
  go ()

(* Gang path: pack the pending branches into lanes and settle them all
   with one compiled-kernel pass per cycle. Lanes retire on path end,
   limit, or fork (forks re-queue their arms, refilling the gang). *)
and run_gang sd ts =
  let g = gang_of sd ts in
  let lanes : lane option array = Array.make (Engine.Gang.width g) None in
  let drain_lanes () =
    Array.iteri
      (fun i st ->
        match st with
        | Some st ->
          st.l_seg.s_term <-
            T_unexplored { u_snap = Engine.Gang.extract g i; u_len = st.l_len };
          Engine.Gang.retire g i;
          lanes.(i) <- None
        | None -> ())
      lanes
  in
  let refill () =
    while
      Engine.Gang.has_free g
      && ts.t_npending > 0
      && Engine.Gang.live_count g + ts.t_npending >= 2
      && not (Atomic.get sd.stop)
    do
      match pop_work ts with
      | None -> assert false
      | Some w ->
        if w.w_len > sd.cfg.max_cycles_per_path then begin
          w.w_seg.s_term <- T_raise (cycle_limit_exn sd.cfg);
          Atomic.set sd.stop true
        end
        else begin
          let l = Engine.Gang.load g w.w_snap in
          lanes.(l) <- Some { l_seg = w.w_seg; l_len = w.w_len }
        end
    done
  in
  let rec loop () =
    if Atomic.get sd.stop then begin
      drain_lanes ();
      drain_pending ts
    end
    else begin
      refill ();
      let live = Engine.Gang.live_count g in
      if live = 0 then ()  (* pending (if any) handled by the caller *)
      else if live = 1 && ts.t_npending = 0 then
        (* Lone survivor: evict to the scalar fast path. *)
        Array.iteri
          (fun i st ->
            match st with
            | Some st ->
              push_work ts
                {
                  w_seg = st.l_seg;
                  w_snap = Engine.Gang.extract g i;
                  w_len = st.l_len;
                };
              Engine.Gang.retire g i;
              lanes.(i) <- None
            | None -> ())
          lanes
      else begin
        if Telemetry.enabled () then
          Telemetry.Histogram.observe h_gang_width (Int64.of_int live);
        Engine.Gang.step g (fun l o ->
            match lanes.(l) with
            | None -> assert false
            | Some st -> (
              match o with
              | Engine.Gang.Cycle c ->
                st.l_seg.s_cycles_rev <- c :: st.l_seg.s_cycles_rev;
                if sd.cfg.is_end c then begin
                  st.l_seg.s_term <- T_end;
                  note_path sd;
                  Engine.Gang.retire g l;
                  lanes.(l) <- None
                end
                else begin
                  st.l_len <- st.l_len + 1;
                  if st.l_len > sd.cfg.max_cycles_per_path then begin
                    st.l_seg.s_term <- T_raise (cycle_limit_exn sd.cfg);
                    Atomic.set sd.stop true;
                    Engine.Gang.retire g l;
                    lanes.(l) <- None
                  end
                end
              | Engine.Gang.Forked snap ->
                (* the gang auto-retired the lane *)
                lanes.(l) <- None;
                resolve_fork sd ts st.l_seg snap st.l_len));
        loop ()
      end
    end
  in
  loop ()

and task_loop sd ts =
  if Atomic.get sd.stop then drain_pending ts
  else if ts.t_npending = 0 then ()
  else if ts.t_npending = 1 || gang_width_of sd.cfg < 2 then begin
    (match pop_work ts with
    | Some w -> run_scalar sd ts w
    | None -> ());
    task_loop sd ts
  end
  else begin
    run_gang sd ts;
    task_loop sd ts
  end

and spawn_task sd seen w =
  Telemetry.span ~cat:"sym" "explore" (fun () ->
      let ts =
        {
          t_seen = seen;
          t_pending = [];
          t_npending = 0;
          t_scratch = take_scratch sd;
        }
      in
      push_work ts w;
      task_loop sd ts;
      (* Not returned when the task raises: its engine may be mid-cycle. *)
      give_scratch sd ts.t_scratch)

(* ---------------------------------------------------------------------
   Sequential commit walk: replays the speculative arm tree in exact
   DFS order against an authoritative digest table, producing the same
   tree, registry, stats and limit raises as the sequential explorer. *)

type cctx = {
  c_cfg : config;
  c_engine : Engine.t;  (* the caller's engine, used for patch-ups *)
  c_pool : Parallel.Pool.t option;
  c_table : (string, int) Hashtbl.t;
  c_registry : (string, Trace.node ref) Hashtbl.t;
  mutable c_paths : int;
  mutable c_forks : int;
  mutable c_dedup : int;
  mutable c_cycles : int;
}

let path_end cctx =
  cctx.c_paths <- cctx.c_paths + 1;
  if cctx.c_paths > cctx.c_cfg.max_paths then
    raise
      (Path_limit (Printf.sprintf "more than %d paths" cctx.c_cfg.max_paths))

let table_visits cctx d =
  match Hashtbl.find_opt cctx.c_table d with Some v -> v | None -> 0

(* The registered continuation starts after the fork cycle; store the
   subtree minus that first cycle so peak-energy lookups do not
   double-count it. *)
let register cctx d visits node =
  if visits = 0 then begin
    let cont =
      match node with
      | Trace.Run { cycles; next } when Array.length cycles >= 1 ->
        Trace.Run
          { cycles = Array.sub cycles 1 (Array.length cycles - 1); next }
      | other -> other
    in
    Hashtbl.replace cctx.c_registry d (ref cont)
  end

(* Sequential exploration on the main engine — re-explores subtrees the
   parallel phase drained ([T_unexplored]) or under-explored (a
   speculative cut the committed table expands). [acc] is the reversed
   list of cycles of the current straight-line segment. *)
let rec explore_seq cctx acc len =
  if len > cctx.c_cfg.max_cycles_per_path then raise (cycle_limit_exn cctx.c_cfg);
  match Engine.begin_cycle cctx.c_engine with
  | `Ok ->
    let c = Engine.finish_cycle cctx.c_engine in
    cctx.c_cycles <- cctx.c_cycles + 1;
    let acc = c :: acc in
    if cctx.c_cfg.is_end c then begin
      path_end cctx;
      Trace.Run { cycles = Array.of_list (List.rev acc); next = Trace.End_path }
    end
    else explore_seq cctx acc (len + 1)
  | `Fork ->
    cctx.c_forks <- cctx.c_forks + 1;
    let snap = Engine.snapshot cctx.c_engine in
    let not_taken = branch_seq cctx snap Tri.Zero len in
    let taken = branch_seq cctx snap Tri.One len in
    Trace.Run
      {
        cycles = Array.of_list (List.rev acc);
        next = Trace.Fork { not_taken; taken };
      }

and branch_seq cctx snap v len =
  let e = cctx.c_engine in
  Engine.restore e snap;
  Engine.force_fork e v;
  let c = Engine.finish_cycle e in
  cctx.c_cycles <- cctx.c_cycles + 1;
  let d = arch_digest e in
  let visits = table_visits cctx d in
  if visits > cctx.c_cfg.revisit_limit then begin
    cctx.c_dedup <- cctx.c_dedup + 1;
    path_end cctx;
    Trace.Run { cycles = [| c |]; next = Trace.Seen d }
  end
  else begin
    Hashtbl.replace cctx.c_table d (visits + 1);
    let node =
      if cctx.c_cfg.is_end c then begin
        path_end cctx;
        Trace.Run { cycles = [| c |]; next = Trace.End_path }
      end
      else explore_seq cctx [ c ] (len + 1)
    in
    register cctx d visits node;
    node
  end

let rec commit_seg cctx seg ~pre =
  let own = List.rev seg.s_cycles_rev in
  cctx.c_cycles <- cctx.c_cycles + List.length own;
  let all = pre @ own in
  match seg.s_term with
  | T_open -> assert false
  | T_raise e -> raise e
  | T_end ->
    path_end cctx;
    Trace.Run { cycles = Array.of_list all; next = Trace.End_path }
  | T_unexplored { u_snap; u_len } ->
    Engine.restore cctx.c_engine u_snap;
    explore_seq cctx (List.rev all) u_len
  | T_fork f ->
    cctx.c_forks <- cctx.c_forks + 1;
    let not_taken = commit_arm cctx f.f_nt in
    (* Join the spawned taken-arm task (helping while it runs) before
       reading its tree; demoted subtrees are never awaited. *)
    (match (f.f_fut, cctx.c_pool) with
    | Some fut, Some p -> Parallel.Pool.await p fut
    | _ -> ());
    let taken = commit_arm cctx f.f_tk in
    Trace.Run
      { cycles = Array.of_list all; next = Trace.Fork { not_taken; taken } }

and commit_arm cctx a =
  cctx.c_cycles <- cctx.c_cycles + 1 (* the arm's entry cycle *);
  let visits = table_visits cctx a.a_digest in
  if visits > cctx.c_cfg.revisit_limit then begin
    (* Possibly a demotion: the committed table cuts here even though
       speculation expanded; the speculative subtree is discarded. *)
    cctx.c_dedup <- cctx.c_dedup + 1;
    path_end cctx;
    Trace.Run { cycles = [| a.a_entry |]; next = Trace.Seen a.a_digest }
  end
  else begin
    Hashtbl.replace cctx.c_table a.a_digest (visits + 1);
    let node =
      if a.a_cut then
        (* Speculation cut here but the committed table expands (the
           overlay entries it relied on were demoted): patch up by
           exploring sequentially from the arm's boundary snapshot. *)
        if cctx.c_cfg.is_end a.a_entry then begin
          path_end cctx;
          Trace.Run { cycles = [| a.a_entry |]; next = Trace.End_path }
        end
        else begin
          Engine.restore cctx.c_engine a.a_snap;
          explore_seq cctx [ a.a_entry ] a.a_len
        end
      else commit_seg cctx a.a_seg ~pre:[ a.a_entry ]
    in
    register cctx a.a_digest visits node;
    node
  end

let run ?pool e config =
  if Engine.cycle_index e <> 0 then invalid_arg "Sym.run: engine not fresh";
  do_reset e;
  (* Initial vector for trace replay: the net values at the end of reset,
     i.e. the previous-cycle baseline of the first recorded cycle. *)
  let initial = Engine.values_snapshot e in
  let registry : (string, Trace.node ref) Hashtbl.t = Hashtbl.create 256 in
  let sd =
    {
      cfg = config;
      pool;
      proto = e;
      free = ref [];
      free_lock = Mutex.create ();
      stop = Atomic.make false;
      est_paths = Atomic.make 0;
    }
  in
  let root_seg = { s_cycles_rev = []; s_term = T_open } in
  (* Ensure abandoned speculative tasks (demoted subtrees are never
     joined) drain promptly once the result — or a limit raise — is
     decided. *)
  Fun.protect ~finally:(fun () -> Atomic.set sd.stop true) @@ fun () ->
  spawn_task sd (Seen.create ())
    { w_seg = root_seg; w_snap = Engine.snapshot e; w_len = 0 };
  let cctx =
    {
      c_cfg = config;
      c_engine = e;
      c_pool = pool;
      c_table = Hashtbl.create 256;
      c_registry = registry;
      c_paths = 0;
      c_forks = 0;
      c_dedup = 0;
      c_cycles = 0;
    }
  in
  let root = commit_seg cctx root_seg ~pre:[] in
  ( { Trace.root; registry; initial },
    {
      paths = cctx.c_paths;
      forks = cctx.c_forks;
      dedup_hits = cctx.c_dedup;
      total_cycles = cctx.c_cycles;
    } )

let run_concrete e ~is_end ~max_cycles =
  if Engine.cycle_index e <> 0 then invalid_arg "Sym.run_concrete: engine not fresh";
  do_reset e;
  let initial = Engine.values_snapshot e in
  let acc = ref [] in
  let rec go n =
    if n > max_cycles then
      raise (Path_limit (Printf.sprintf "concrete run exceeded %d cycles" max_cycles));
    let c = Engine.step e in
    acc := c :: !acc;
    if not (is_end c) then go (n + 1)
  in
  go 0;
  (Array.of_list (List.rev !acc), initial)
