(* serve-mix: one `xbound serve` child with --workers = nproc and a fresh
   cache directory. Set-up starts it and warms it with one Analyze of
   every kernel at both tiers (the cold analyses, from one client). Then
   nproc client threads of this one process run a closed loop over a
   seeded mix: ~70% Analyze (exact or static; cache hits), ~15% Explain
   tables, ~15% Run_concrete with fresh seeds (uncached gate-level
   simulation). On hits, framing, scheduling, cache lookup and
   rendering dominate; Run_concrete keeps workers busy, so queue wait
   shows. *)

let name = "serve-mix"
let tiers = [ Xbound.Tier.Exact; Xbound.Tier.Static ]

(* Expected responses to every Analyze and Explain the mix can send. *)
type refs = (Wire.Request.t, Wire.Response.t) Hashtbl.t

let prepare (env : Util.env) =
  let ctx = Xbound.Ctx.create ~cache:(Cache.create ~mem_entries:100_000 ()) () in
  let tbl = Hashtbl.create 128 in
  let fill req_of =
    List.iter
      (fun k ->
        List.iter
          (fun tier ->
            let req = req_of k tier in
            Hashtbl.replace tbl req (Refs.exec ctx req))
          tiers)
      Refs.kernels
  in
  (* Analyses first, so static explanations see their blocks cached, as
     they are on a warmed daemon. *)
  fill Refs.analyze_req;
  fill Refs.explain_req;
  (if env.perturb then
     let req = Refs.analyze_req (List.hd Refs.kernels) Xbound.Tier.Exact in
     Hashtbl.replace tbl req (Refs.perturb (Hashtbl.find tbl req)));
  tbl

type t = {
  refs : refs;
  daemon : Daemon.t;
  concrete : (Wire.Request.t * Wire.Response.t) list ref;
      (** Run_concrete answers, checked once the window is over *)
  lock : Mutex.t;
}

(* Daemon warm-up rates (analyses/s) of every set-up in this run: the
   cold analyses of this workload. *)
let cold_rates = ref []

let check (env : Util.env) t ~phase req resp =
  match req with
  | Wire.Request.Run_concrete _ ->
    Mutex.lock t.lock;
    t.concrete := (req, resp) :: !(t.concrete);
    Mutex.unlock t.lock
  | _ ->
    Util.record env.tally
      (Refs.same (Hashtbl.find t.refs req) resp)
      (phase ^ ": daemon answer differs from in-process: " ^ Refs.describe req)

(* Run [f client index] on [n] threads, each with its own connection. *)
let on_clients t n f =
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let c = Daemon.connect t.daemon in
            Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c i))
          ())
  in
  List.iter Thread.join threads

(* One round trip, checked; returns its latency. *)
let call (env : Util.env) t ~phase c req =
  let r, dt = Util.timed (fun () -> Serve.Client.rpc c req) in
  (match r with
  | Ok resp -> check env t ~phase req resp
  | Error e ->
    Util.record env.tally false
      (Printf.sprintf "%s: %s failed: %s" phase (Refs.describe req)
         (Xbound.Error.to_string e)));
  dt

(* The directory of set-up [i]: socket, log and cache. *)
let dir (env : Util.env) i = Filename.concat env.work (Printf.sprintf "serve%d" i)

(* Set-up: start the daemon and warm it with one Analyze of every kernel
   at both tiers, in a seeded order, from one client. Two cold exact
   analyses at once on a multi-worker daemon can fail or return a wrong
   bound today (Gatesim.Sym indexes its scratch engines by pool worker,
   and the daemon's executor threads share domain 0), so this workload
   does not include concurrent cold analyses. *)
let setup (env : Util.env) refs i =
  let daemon = Daemon.start ~xbound:env.xbound ~dir:(dir env i) ~workers:env.jobs in
  let t = { refs; daemon; concrete = ref []; lock = Mutex.create () } in
  let warm_up =
    Util.shuffle
      (Random.State.make [| env.seed; i |])
      (List.concat_map (fun k -> List.map (Refs.analyze_req k) tiers) Refs.kernels)
  in
  let (), dt =
    Util.timed (fun () ->
        on_clients t 1 (fun c _ ->
            List.iter (fun req -> ignore (call env t ~phase:"warm-up" c req)) warm_up))
  in
  cold_rates := (float_of_int (List.length warm_up) /. dt) :: !cold_rates;
  t

let discard t =
  Daemon.stop t.daemon;
  Util.rm_rf t.daemon.dir

(* A client's request stream: rounds of 20 requests in a seeded order,
   14 Analyze, 3 Explain and 3 Run_concrete. Each kind walks its own
   seeded rotation of the kernels, on the exact tier for one sweep and
   the static tier for the next, so every few rounds ask for the same
   work whatever the seed. Run_concrete gets a fresh input seed each
   time, past the adversarial seeds 1-5. *)
let requests st =
  let rotation () = (Array.of_list (Util.shuffle st Refs.kernels), ref 0) in
  let next (order, n) =
    let k = order.(!n mod Array.length order) in
    let tier =
      if !n / Array.length order mod 2 = 0 then Xbound.Tier.Exact else Xbound.Tier.Static
    in
    incr n;
    (k, tier)
  in
  let analyze = rotation () and explain = rotation () and concrete = rotation () in
  let round = ref [] in
  fun () ->
    if !round = [] then
      round :=
        Util.shuffle st
          (List.init 14 (fun _ -> `Analyze)
          @ List.init 3 (fun _ -> `Explain)
          @ List.init 3 (fun _ -> `Concrete));
    let kind = List.hd !round in
    round := List.tl !round;
    match kind with
    | `Analyze ->
      let k, tier = next analyze in
      Refs.analyze_req k tier
    | `Explain ->
      let k, tier = next explain in
      Refs.explain_req k tier
    | `Concrete ->
      let k, _ = next concrete in
      Wire.Request.Run_concrete { bench = k; seed = 8 + Random.State.bits st }

let histo_mean_ms (snap : Telemetry.Snapshot.t) name =
  match
    List.find_opt
      (fun (h : Telemetry.Snapshot.histo) -> h.hname = name)
      snap.histograms
  with
  | Some h when h.count > 0 -> Int64.to_float h.sum_ns /. float_of_int h.count /. 1e6
  | _ -> 0.

let counter (snap : Telemetry.Snapshot.t) name =
  float_of_int (Option.value (List.assoc_opt name snap.counters) ~default:0)

let window (env : Util.env) t ~traced:_ ~seconds =
  let admin = Daemon.connect t.daemon in
  Fun.protect ~finally:(fun () -> Serve.Client.close admin) @@ fun () ->
  let before = Daemon.stats admin in
  let lat = Array.make env.jobs [] and analyses = Array.make env.jobs 0 in
  let t0 = Util.now () in
  on_clients t env.jobs (fun c i ->
      let next = requests (Random.State.make [| env.seed; 1000 + i |]) in
      while Util.now () -. t0 < seconds do
        let req = next () in
        lat.(i) <- call env t ~phase:"mix" c req :: lat.(i);
        match req with
        | Wire.Request.Analyze _ -> analyses.(i) <- analyses.(i) + 1
        | _ -> ()
      done);
  let elapsed = Util.now () -. t0 in
  let diff = Telemetry.Snapshot.diff ~before ~after:(Daemon.stats admin) in
  let lat = List.concat (Array.to_list lat) in
  let rate n = float_of_int n /. elapsed in
  let analyses_per_s = rate (Array.fold_left ( + ) 0 analyses) in
  let hits = counter diff "cache.mem_hits" +. counter diff "cache.disk_hits" in
  {
    Util.e2e =
      [
        ("cold_analyses_per_s", Util.median !cold_rates);
        (* every Analyze in the window is a cache hit *)
        ("warm_analyses_per_s", analyses_per_s);
        ("analyses_per_s", analyses_per_s);
        ("requests_per_s", rate (List.length lat));
        ("rtt_p50_ms", 1e3 *. Util.quantile lat 0.5);
        ("rtt_p99_ms", 1e3 *. Util.quantile lat 0.99);
      ];
    unit_s = Util.mean lat;
    layers =
      [
        ("serve.exec_mean_ms", histo_mean_ms diff "serve.exec_ns");
        ("serve.queue_wait_mean_ms", histo_mean_ms diff "serve.queue_wait_ns");
        ("serve.rejected", counter diff "serve.rejected");
        ("cache.hit_ratio", hits /. (hits +. counter diff "cache.misses"));
      ];
  }

(* Run_concrete answers against in-process runs, spread over the
   domain pool; then the daemon's peak RSS, and stop it. *)
let finish (env : Util.env) t =
  let results =
    Parallel.map_list_auto
      (fun (req, resp) -> (req, Refs.same (Refs.exec Xbound.Ctx.default req) resp))
      !(t.concrete)
  in
  List.iter
    (fun (req, ok) ->
      Util.record env.tally ok ("daemon run_concrete differs: " ^ Refs.describe req))
    results;
  t.concrete := [];
  let rss = Daemon.peak_rss_mb t.daemon in
  discard t;
  rss

let counts t =
  List.map
    (fun k -> (k, Refs.counts (Hashtbl.find t.refs (Refs.analyze_req k Xbound.Tier.Exact))))
    Refs.kernels

(* One request: the transport round trip, its wait in the admission
   queue and its execution, the latter two from the daemon's own
   Stats over the same window. *)
let layer_s tbl (w : Util.window) =
  let layer name = List.assoc name w.layers /. 1e3 in
  Spans.mean tbl "serve.transport"
  +. layer "serve.queue_wait_mean_ms" +. layer "serve.exec_mean_ms"
