(* cli-suite: fresh `xbound analyze P` processes, one at a time, over
   every bundled kernel. Each pass starts from an empty --cache-dir and
   runs each kernel twice in a row: a cold run that computes and writes
   the disk cache, then a warm run that reads it back. This is what a
   designer pays at the command line. *)

let name = "cli-suite"

type refs = unit

let prepare _ = ()

type t = { expected : (string * (string * Workload.counts)) list }

(* The expected stdout of `xbound analyze K`: the in-process executor's
   response to the same request, through the same renderer. *)
let setup (env : Util.env) () _ =
  let expected =
    List.mapi
      (fun i k ->
        let r = Refs.exec Xbound.Ctx.default (Refs.analyze_req k Xbound.Tier.Exact) in
        let shown = if env.perturb && i = 0 then Refs.perturb r else r in
        (k, (Serve.Render.to_string shown, Refs.counts r)))
      Refs.kernels
  in
  { expected }

let discard _ = ()
let counts t = List.map (fun (k, (_, c)) -> (k, c)) t.expected

let window (env : Util.env) t ~traced ~seconds =
  let log = Filename.concat env.work "cli.log" in
  let cold = ref [] and warm = ref [] and passes = ref 0 in
  let t0 = Util.now () in
  while !passes = 0 || Util.now () -. t0 < seconds do
    let dir = Filename.concat env.work (Printf.sprintf "cli-p%d" !passes) in
    let st = Random.State.make [| env.seed; !passes |] in
    List.iter
      (fun k ->
        let expected, _ = List.assoc k t.expected in
        let run mode acc =
          let trace =
            if traced then [ "--trace"; Filename.concat dir (k ^ "-" ^ mode ^ ".json") ]
            else []
          in
          let (out, status), dt =
            Spans.span (Spans.per_kernel ("cli." ^ mode) k) @@ fun () ->
            Util.timed (fun () ->
                Util.run_capture ~log env.xbound
                  ([ "analyze"; k; "--cache-dir"; dir ] @ trace))
          in
          acc := (k, dt) :: !acc;
          Util.record env.tally
            (status = Unix.WEXITED 0 && out = expected)
            (Printf.sprintf "cli %s %s: stdout differs from in-process render" mode k)
        in
        run "cold" cold;
        run "warm" warm)
      (Util.shuffle st Refs.kernels);
    Util.rm_rf dir;
    incr passes
  done;
  Util.suite_window ~cold:!cold ~warm:!warm

let finish _ _ = float_of_int (Util.children_maxrss_kb ()) /. 1024.

(* A pass is, per kernel: two elaborations (one per process), the
   exploration, Algorithm 2, the cache writes of the cold run and the
   disk read of the warm one. *)
let layer_s tbl _ =
  List.fold_left
    (fun acc k ->
      let s layer = Spans.total tbl (Spans.per_kernel layer k) in
      acc
      +. (2. *. Workload.elaboration_s tbl)
      +. s "gatesim.explore.jN" +. s "core.peak_power" +. s "core.peak_energy"
      +. (s "cache.cold" -. s "cache.nocache")
      +. s "cache.disk_hit")
    0. Refs.kernels
