(* In-process reference results and the output checks built on them.
   Every reference goes through the same request executor and renderer
   the CLI and the daemon use (Serve.Exec, Serve.Render), so a match is
   the program agreeing with itself across dispatch paths. *)

(* The 18 bundled kernels: 14 from the paper, then 4 extended ones. *)
let kernels = List.map fst (Xbound.benchmarks ())

let exec ctx req =
  match Serve.Exec.exec ~ctx req with
  | Ok r -> r
  | Error e ->
    failwith
      (Printf.sprintf "in-process %s: %s" (Serve.Exec.op_name req)
         (Xbound.Error.to_string e))

let analyze_req bench tier = Wire.Request.Analyze { bench; tier }

let explain_req bench tier =
  Wire.Request.Explain
    { bench; fmt = Wire.Request.Table; top = 4; min_gap = 5; tier }

(* A deliberately wrong expected bound, for the benchmark's own test
   that the checks catch one. *)
let perturb = function
  | Wire.Response.Analysis a ->
    Wire.Response.Analysis
      {
        a with
        peak_power =
          { a.peak_power with Xbound.Bound.value = a.peak_power.value *. 1.5 };
      }
  | r -> r

(* (paths, forks, dedup hits, simulated cycles) of an exact analysis. *)
let counts = function
  | Wire.Response.Analysis a -> (a.paths, a.forks, a.dedup_hits, a.total_cycles)
  | _ -> invalid_arg "Refs.counts"

(* An exact-tier explanation table ends with the per-call telemetry of
   the process that produced it, when that process had a sink: a blank
   line and "phases (s): ...", and/or "counters: ...". The daemon always
   runs with a sink and the CLI does not, so those lines (timings and
   counter deltas, not bounds) are dropped before comparing.
   [strip_telemetry] reports whether it dropped any. *)
let strip_telemetry text =
  let phases = String.starts_with ~prefix:"phases (s):" in
  let counters = String.starts_with ~prefix:"counters:" in
  let rec drop = function
    | "" :: l :: rest when phases l -> drop rest
    | l :: rest when phases l || counters l -> drop rest
    | l :: rest -> l :: drop rest
    | [] -> []
  in
  let lines = String.split_on_char '\n' text in
  let kept = drop lines in
  (String.concat "\n" kept, List.compare_lengths kept lines <> 0)

(* Answers whose telemetry lines were dropped, for the run's report. *)
let telemetry_lines_seen = Atomic.make 0

let strip = function
  | Wire.Response.Explanation e ->
    let text, cut = strip_telemetry e.text in
    (Wire.Response.Explanation { e with text }, cut)
  | r -> (r, false)

let same expected got =
  let got, cut = strip got in
  if cut then Atomic.incr telemetry_lines_seen;
  compare (fst (strip expected)) got = 0

let describe req = Explain.Ejson.to_string (Wire.Request.to_json req)
