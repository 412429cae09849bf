(* xbench — the xbound benchmark.

     xbench --workload W --seed N --seconds S --trace 0|1 --xbound EXE

   runs one workload (cli-suite, static-suite, serve-mix) and prints
   every metric by name and unit, then, as the last line of stdout, one
   JSON object {correct, attempted, failed, metrics}. --trace 0 reports
   the end-to-end metrics of an untraced window; --trace 1 adds a traced
   window and the per-layer ledger, writes their Chrome trace, and
   reports the per-layer metrics. Every operation's output is checked;
   any mismatch fails the run (exit 1). `xbench --selftest --xbound EXE`
   runs the benchmark's own tests. *)

let workloads : (string * (module Workload.S)) list =
  [
    (Cli_suite.name, (module Cli_suite));
    (Static_suite.name, (module Static_suite));
    (Serve_mix.name, (module Serve_mix));
  ]

(* End-to-end metrics: (name, unit, better). error_rate is reported on
   its own line; the JSON carries it as failed / attempted. *)
let e2e_defs =
  [
    ("setup_s", "s", "lower");
    ("peak_rss_mb", "MB", "lower");
    ("cold_analyses_per_s", "1/s", "higher");
    ("warm_analyses_per_s", "1/s", "higher");
    ("analyses_per_s", "1/s", "higher");
    ("requests_per_s", "1/s", "higher");
    ("rtt_p50_ms", "ms", "lower");
    ("rtt_p99_ms", "ms", "lower");
  ]

type result = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  tags : (string * string) list;  (** per-layer metric -> what it should move *)
  trace_file : string option;
}

let run_workload (module W : Workload.S) (env : Util.env) ~trace ~trace_file =
  let refs = W.prepare env in
  let setups = ref [] and last = ref None in
  for i = 0 to env.setups - 1 do
    Option.iter W.discard !last;
    let t, dt = Util.timed (fun () -> W.setup env refs i) in
    setups := dt :: !setups;
    last := Some t
  done;
  let t = Option.get !last in
  let w = W.window env t ~traced:false ~seconds:env.seconds in
  if not trace then begin
    let rss = W.finish env t in
    let value name =
      match name with
      | "setup_s" -> Util.median !setups
      | "peak_rss_mb" -> rss
      | _ -> List.assoc name w.e2e
    in
    {
      metrics = List.map (fun (n, u, _) -> (n, u, value n)) e2e_defs;
      tags = [];
      trace_file = None;
    }
  end
  else begin
    let sink = Telemetry.create () in
    let tw =
      Telemetry.with_ambient sink (fun () ->
          W.window env t ~traced:true ~seconds:env.seconds)
    in
    ignore (W.finish env t);
    let values =
      Telemetry.with_ambient sink (fun () -> Ledger.probe env ~counts:(W.counts t))
    in
    let tbl = Spans.self_times sink in
    Telemetry.write_chrome sink ~file:trace_file;
    let ledger =
      values tbl
      @ [
          ("bench.unaccounted_pct", 100. *. (1. -. (W.layer_s tbl w /. w.unit_s)));
          ("telemetry.overhead_pct", 100. *. ((tw.unit_s /. w.unit_s) -. 1.));
        ]
    in
    {
      metrics =
        List.map
          (fun (d : Ledger.def) -> (d.name, d.unit_, List.assoc d.name ledger))
          Ledger.defs;
      tags = List.map (fun (d : Ledger.def) -> (d.name, d.moves)) Ledger.defs;
      trace_file = Some trace_file;
    }
  end

(* ---------------- output ---------------- *)

let json_string s = Explain.Ejson.to_string (Explain.Ejson.Str s)

(* Every digit a float has, as a JSON number. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let provenance (env : Util.env) ~workload ~trace ~trace_file =
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"nproc\": %d, \"jobs\": %d, \"commit\": %s, \"ocaml\": %s, \
     \"chrome_trace\": %s}"
    (json_string workload) env.seed (json_number env.seconds)
    (if trace then 1 else 0)
    (Domain.recommended_domain_count ())
    env.jobs
    (json_string (Option.value (Sys.getenv_opt "XBENCH_COMMIT") ~default:"unknown"))
    (json_string Sys.ocaml_version)
    (match trace_file with Some f -> json_string f | None -> "null")

let metrics_json r =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, u, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n)
             (json_number v) (json_string u))
         r.metrics)
  ^ "}"

let report (env : Util.env) ~workload ~trace r =
  List.iter
    (fun (n, _, v) ->
      if not (Float.is_finite v) then
        Util.record env.tally false (n ^ " was not measured (not a finite number)"))
    r.metrics;
  let prov = provenance env ~workload ~trace ~trace_file:r.trace_file in
  Printf.printf "xbench %s\nprovenance %s\n" workload prov;
  List.iter
    (fun (n, u, v) ->
      Printf.printf "  %-30s %16.4f %-12s%s\n" n v u
        (match List.assoc_opt n r.tags with Some m -> "  moves: " ^ m | None -> ""))
    r.metrics;
  let t = env.tally in
  Printf.printf "  %-30s %16.4f %-12s(%d failed of %d attempted)\n" "error_rate"
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    "ratio" t.failed t.attempted;
  let cut = Atomic.get Refs.telemetry_lines_seen in
  if cut > 0 then
    Printf.printf
      "  note: %d explanation(s) carried per-call telemetry lines, cut before \
       comparing\n"
      cut;
  List.iter (Printf.printf "  FAILED: %s\n") (List.rev t.notes);
  let correct = t.failed = 0 && t.attempted > 0 in
  let record = Filename.concat (Filename.dirname env.work) "records" in
  Util.mkdir_p record;
  Out_channel.with_open_text
    (Filename.concat record (Filename.basename env.work ^ ".json"))
    (fun oc ->
      Printf.fprintf oc
        "{\"provenance\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s, \"moves\": {%s}}\n"
        prov t.attempted t.failed (metrics_json r)
        (String.concat ", "
           (List.map (fun (n, m) -> json_string n ^ ": " ^ json_string m) r.tags)));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct t.attempted t.failed (metrics_json r);
  correct

(* ---------------- command line ---------------- *)

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable xbound : string option;
  mutable selftest : bool;
}

let usage () =
  prerr_endline
    "usage: xbench --workload cli-suite|static-suite|serve-mix --seed N \
     --seconds S --trace 0|1 --xbound EXE\n\
    \       xbench --selftest --xbound EXE";
  exit 2

let parse argv =
  let a =
    {
      workload = None;
      seed = 1;
      seconds = 10.;
      trace = false;
      xbound = None;
      selftest = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--selftest" :: rest ->
      a.selftest <- true;
      go rest
    | flag :: v :: rest ->
      (match flag with
      | "--workload" -> a.workload <- Some v
      | "--seed" -> a.seed <- int_of_string v
      | "--seconds" -> a.seconds <- float_of_string v
      | "--trace" -> a.trace <- v = "1"
      | "--xbound" -> a.xbound <- Some v
      | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  a

let make_env (a : args) ~label ~seconds ~setups ~perturb =
  let work =
    Filename.concat ".xbench"
      (Printf.sprintf "%s-s%d-%d-%d" label a.seed (Unix.getpid ())
         (int_of_float (Util.now () *. 1e3) mod 1_000_000))
  in
  Util.mkdir_p work;
  {
    Util.xbound = Option.get a.xbound;
    work;
    seed = a.seed;
    seconds;
    setups;
    perturb;
    jobs = Parallel.default_jobs ();
    tally = Util.tally ();
  }

let trace_file (env : Util.env) =
  let dir = Filename.concat (Filename.dirname env.work) "traces" in
  Util.mkdir_p dir;
  Filename.concat dir (Filename.basename env.work ^ ".json")

let measure (a : args) name ~seconds ~setups ~perturb ~trace =
  match List.assoc_opt name workloads with
  | None -> usage ()
  | Some w ->
    let env = make_env a ~label:name ~seconds ~setups ~perturb in
    Fun.protect
      ~finally:(fun () -> Util.rm_rf env.work)
      (fun () ->
        let r = run_workload w env ~trace ~trace_file:(trace_file env) in
        (env, r))

(* ---------------- the benchmark's own tests ---------------- *)

(* BENCHMARK.json must name exactly what this program prints. *)
let benchmark_json_agrees () =
  let open Explain.Ejson in
  match parse_opt (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | None -> false
  | Some j ->
    let rows key fields =
      match Option.bind (member key j) to_list with
      | None -> []
      | Some l -> List.map (fun o -> List.map (fun f -> string_member f o) fields) l
    in
    let expect l = List.map (List.map Option.some) l in
    rows "workloads" [ "name" ] = expect (List.map (fun (n, _) -> [ n ]) workloads)
    && rows "end_to_end" [ "name"; "unit"; "better" ]
       = expect (List.map (fun (n, u, b) -> [ n; u; b ]) e2e_defs)
    && rows "per_layer" [ "name"; "unit"; "better" ]
       = expect
           (List.map
              (fun (d : Ledger.def) -> [ d.name; d.unit_; d.better ])
              Ledger.defs)

let selftest a =
  let failures = ref [] in
  let expect ok what =
    Printf.printf "selftest %s: %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then failures := what :: !failures
  in
  expect (benchmark_json_agrees ()) "BENCHMARK.json names the printed workloads and metrics";
  let smoke name ~trace ~perturb =
    let env, r = measure a name ~seconds:1. ~setups:1 ~perturb ~trace in
    (report env ~workload:name ~trace r, env.tally.failed, r)
  in
  List.iter
    (fun (name, _) ->
      let correct, _, r = smoke name ~trace:false ~perturb:false in
      expect
        (correct && List.for_all (fun (_, _, v) -> Float.is_finite v && v > 0.) r.metrics)
        (name ^ " smoke run: every output checked and correct, every metric positive"))
    workloads;
  let correct, _, r = smoke Static_suite.name ~trace:true ~perturb:false in
  expect
    (correct
    && List.for_all (fun (_, _, v) -> Float.is_finite v) r.metrics
    && Option.fold ~none:false ~some:Sys.file_exists r.trace_file)
    "traced static-suite run: ledger checks pass, Chrome trace written";
  List.iter
    (fun (name, _) ->
      let correct, failed, _ = smoke name ~trace:false ~perturb:true in
      expect ((not correct) && failed > 0)
        (name ^ " with a wrong expected bound: the check fails the run"))
    workloads;
  if !failures = [] then 0 else 1

let () =
  (* Leave through exit, so daemons still running are stopped. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let a = parse Sys.argv in
  if a.xbound = None then usage ();
  if a.selftest then exit (selftest a)
  else
    match a.workload with
    | None -> usage ()
    | Some name ->
      let env, r =
        measure a name ~seconds:a.seconds ~setups:3 ~perturb:false
          ~trace:a.trace
      in
      exit (if report env ~workload:name ~trace:a.trace r then 0 else 1)
