(* Clocks, order statistics, child processes and the shared outcome
   tally used by every workload. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------------- order statistics ---------------- *)

(* Linear interpolation between closest ranks (Hyndman-Fan type 7). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

(* A seeded permutation: the workloads' only use of their seed besides
   the serve mix itself. *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---------------- outcome tally ---------------- *)

(* Operations attempted and failed (errored or wrong). Shared by client
   threads, hence the lock. The first few failures are kept verbatim. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  lock : Mutex.t;
}

let tally () = { attempted = 0; failed = 0; notes = []; lock = Mutex.create () }

let record t ok what =
  Mutex.lock t.lock;
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- what :: t.notes
  end;
  Mutex.unlock t.lock

(* ---------------- files ---------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---------------- memory ---------------- *)

external children_maxrss_kb : unit -> int = "xbench_children_maxrss_kb"

(* VmHWM (peak resident set) of a live process, in MiB. *)
let vm_hwm_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text file (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ file)
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* Restart this process's VmHWM from its current RSS, so a later
   reading covers only what follows. Best effort: without the kernel
   interface the reading covers the whole process. *)
let reset_own_hwm () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

(* ---------------- child processes ---------------- *)

let open_log file =
  Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

(* Run [prog args] to completion; its stdout comes back as a string, its
   stderr is appended to [log]. *)
let run_capture ~log prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = open_log log in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close err)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w err)
  in
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  (Buffer.contents buf, status)

(* ---------------- what every workload shares ---------------- *)

type env = {
  xbound : string;  (** the CLI executable *)
  work : string;  (** this run's scratch directory *)
  seed : int;
  seconds : float;  (** measured window length *)
  setups : int;  (** set-up repetitions; setup_s is their median *)
  perturb : bool;  (** plant a wrong expected bound (self-test) *)
  jobs : int;  (** nproc: the CLI default -j, daemon workers, clients *)
  tally : tally;
}

(* One measured window: end-to-end metrics by name, the end-to-end
   seconds of one accounting unit (a suite pass, or one request), and
   layer figures the window itself observed. *)
type window = {
  e2e : (string * float) list;
  unit_s : float;
  layers : (string * float) list;
}

(* The figures of a suite run as passes of a cold then a warm analysis
   of every kernel (cli-suite, static-suite), from [(kernel, seconds)]
   samples. Each kernel's cost is the median of its samples over the
   passes, which keeps one slow pass from moving the run's figures; a
   suite is then one of each kernel's operations. The latency
   percentiles are over the kernels' median cold latencies: warm ones
   are an order of magnitude faster, and a median over both modes would
   sit in the gap between them. *)
let suite_window ~cold ~warm =
  let per_kernel samples =
    let kernels = List.sort_uniq compare (List.map fst samples) in
    List.map
      (fun k -> median (List.filter_map (fun (k', s) -> if k' = k then Some s else None) samples))
      kernels
  in
  let cold = per_kernel cold and warm = per_kernel warm in
  let n l = float_of_int (List.length l) in
  let all = sum cold +. sum warm in
  {
    e2e =
      [
        ("cold_analyses_per_s", n cold /. sum cold);
        ("warm_analyses_per_s", n warm /. sum warm);
        ("analyses_per_s", (n cold +. n warm) /. all);
        ("requests_per_s", (n cold +. n warm) /. all);
        ("rtt_p50_ms", 1e3 *. quantile cold 0.5);
        ("rtt_p99_ms", 1e3 *. quantile cold 0.99);
      ];
    unit_s = all;
    layers = [];
  }
