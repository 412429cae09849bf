(* static-suite: in-process Xbound.analyze at tier Static over every
   bundled kernel. Each pass gets a fresh memory-only Cache.t, so every
   block is characterized again (the cold analyses), then analyzes each
   kernel once more against that cache (the warm ones). Elaboration
   happens once, in set-up. Static.Cfg, Blockchar and Ipet do the work,
   on short fragments that never fork: this is the bypass side for any
   exact-tier change. *)

let name = "static-suite"

type refs = unit

let prepare _ = ()

type bounds = { power : float; energy : float; cycles : int }

type t = {
  exact : (string * bounds) list;
  static : (string * bounds) list;
  counts : (string * Workload.counts) list;
}

let analyze ctx k =
  match Result.bind (Xbound.bench k) (Xbound.analyze ~ctx) with
  | Ok a -> a
  | Error e -> failwith (Xbound.Error.to_string e)

let bounds (a : Xbound.analysis) =
  {
    power = Xbound.peak_power_w a;
    energy = Xbound.peak_energy_j a;
    cycles = a.peak_energy_cycles;
  }

(* Set-up: the exact bounds every static one must dominate, and the
   static bounds every pass must reproduce, each from a fresh cache. *)
let setup (env : Util.env) () _ =
  let run tier = Xbound.Ctx.create ~cache:(Cache.create ()) ~tier () in
  let exact_ctx = run Xbound.Tier.Exact and static_ctx = run Xbound.Tier.Static in
  let exact = List.map (fun k -> (k, analyze exact_ctx k)) Refs.kernels in
  let static = List.map (fun k -> (k, bounds (analyze static_ctx k))) Refs.kernels in
  let counts =
    List.map
      (fun (k, (a : Xbound.analysis)) ->
        (k, (a.paths, a.forks, a.dedup_hits, a.total_cycles)))
      exact
  in
  let exact =
    List.mapi
      (fun i (k, a) ->
        let b = bounds a in
        (k, if env.perturb && i = 0 then { b with energy = b.energy *. 1e3 } else b))
      exact
  in
  { exact; static; counts }

let discard _ = ()
let counts t = t.counts

let check (env : Util.env) t k mode (a : Xbound.analysis) =
  let got = bounds a in
  let ex = List.assoc k t.exact in
  Util.record env.tally
    (a.tier = Xbound.Tier.Static
    && got = List.assoc k t.static
    && got.power >= ex.power && got.energy >= ex.energy)
    (Printf.sprintf "static %s %s: bound differs from set-up or is below exact" mode k)

let window (env : Util.env) t ~traced ~seconds =
  let cold = ref [] and warm = ref [] and passes = ref 0 in
  let telemetry = if traced then Telemetry.ambient () else None in
  Util.reset_own_hwm ();
  let t0 = Util.now () in
  while !passes = 0 || Util.now () -. t0 < seconds do
    let ctx =
      Xbound.Ctx.create ~cache:(Cache.create ()) ?telemetry ~tier:Xbound.Tier.Static ()
    in
    let order = Util.shuffle (Random.State.make [| env.seed; !passes |]) Refs.kernels in
    let run mode acc =
      List.iter
        (fun k ->
          let a, dt =
            Spans.span (Spans.per_kernel ("static-suite." ^ mode) k) @@ fun () ->
            Util.timed (fun () -> analyze ctx k)
          in
          acc := (k, dt) :: !acc;
          check env t k mode a)
        order
    in
    run "cold" cold;
    run "warm" warm;
    incr passes
  done;
  Util.suite_window ~cold:!cold ~warm:!warm

let finish _ _ = Util.vm_hwm_mb "self"

(* A cold analysis is CFG extraction, block characterization and the
   combine; a warm one re-runs extraction and the combine over cached
   blocks, which is what the static.ipet span times. *)
let layer_s tbl _ =
  Spans.sum_kernels tbl "static.blockchar" Refs.kernels
  +. (2. *. Spans.sum_kernels tbl "static.ipet" Refs.kernels)
