(* The stable public facade over the analysis stack. See xbound.mli. *)

module Tier = Core.Tier

module Bound = struct
  type t = { value : float; tier : Tier.t; analysis_version : int }

  let exact value =
    { value; tier = Tier.Exact; analysis_version = Core.Analyze.analysis_version }

  let static value =
    {
      value;
      tier = Tier.Static;
      analysis_version = Core.Analyze.analysis_version;
    }
end

module Error = struct
  type t =
    | Parse of { file : string; line : int; message : string }
    | Assembly of { program : string; message : string }
    | Netlist of string
    | Analysis of { program : string; message : string }
    | Static_cfg of { program : string; message : string }
    | Cache of string
    | Unknown_benchmark of { name : string; available : string list }
    | Overloaded of { queued : int; capacity : int }
    | Protocol of string

  (* Standard Levenshtein distance, case-insensitive: typing "TEA8" or
     "tae8" should still land on "tea8". *)
  let edit_distance a b =
    let a = String.lowercase_ascii a and b = String.lowercase_ascii b in
    let la = String.length a and lb = String.length b in
    let prev = Array.init (lb + 1) Fun.id in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)

  let closest name available =
    List.fold_left
      (fun best cand ->
        let d = edit_distance name cand in
        match best with
        | Some (_, bd) when bd <= d -> best
        | _ -> Some (cand, d))
      None available

  let to_string = function
    | Parse { file; line; message } -> Printf.sprintf "%s:%d: %s" file line message
    | Assembly { program; message } ->
      Printf.sprintf "%s: assembly error: %s" program message
    | Netlist m -> Printf.sprintf "processor elaboration failed: %s" m
    | Analysis { program; message } ->
      Printf.sprintf "%s: analysis failed: %s" program message
    | Static_cfg { program; message } ->
      Printf.sprintf "%s: static tier cannot bound this program: %s" program
        message
    | Cache m -> Printf.sprintf "cache error: %s" m
    | Unknown_benchmark { name; available } -> (
      (* A short list is worth printing; past ~10 entries, suggest the
         closest name instead of flooding the terminal. *)
      match closest name available with
      | Some (best, _) when List.length available > 10 ->
        Printf.sprintf
          "unknown benchmark %S (did you mean %S? `list` shows all %d)" name
          best (List.length available)
      | _ ->
        Printf.sprintf "unknown benchmark %S (available: %s)" name
          (String.concat ", " available))
    | Overloaded { queued; capacity } ->
      Printf.sprintf
        "server overloaded: %d request(s) queued (capacity %d), retry later"
        queued capacity
    | Protocol m -> Printf.sprintf "protocol error: %s" m

  let pp fmt t = Format.pp_print_string fmt (to_string t)

  (* One stable code string per constructor: the wire discriminant the
     serve protocol ships, so a server-side error reconstructs as the
     same typed value client-side. Never rename these. *)
  let code = function
    | Parse _ -> "parse"
    | Assembly _ -> "assembly"
    | Netlist _ -> "netlist"
    | Analysis _ -> "analysis"
    | Static_cfg _ -> "static-cfg"
    | Cache _ -> "cache"
    | Unknown_benchmark _ -> "unknown-benchmark"
    | Overloaded _ -> "overloaded"
    | Protocol _ -> "protocol"

  let to_wire t =
    let open Explain.Ejson in
    let fields =
      match t with
      | Parse { file; line; message } ->
        [ ("file", Str file); ("line", Num (float_of_int line));
          ("message", Str message) ]
      | Assembly { program; message } ->
        [ ("program", Str program); ("message", Str message) ]
      | Netlist m | Cache m | Protocol m -> [ ("message", Str m) ]
      | Analysis { program; message } | Static_cfg { program; message } ->
        [ ("program", Str program); ("message", Str message) ]
      | Unknown_benchmark { name; available } ->
        [ ("name", Str name);
          ("available", Arr (List.map (fun n -> Str n) available)) ]
      | Overloaded { queued; capacity } ->
        [ ("queued", Num (float_of_int queued));
          ("capacity", Num (float_of_int capacity)) ]
    in
    Obj (("code", Str (code t)) :: fields)

  let of_wire j =
    let open Explain.Ejson in
    let str k = string_member k j in
    let int k = Option.map int_of_float (float_member k j) in
    match string_member "code" j with
    | Some "parse" -> (
      match (str "file", int "line", str "message") with
      | Some file, Some line, Some message -> Some (Parse { file; line; message })
      | _ -> None)
    | Some "assembly" -> (
      match (str "program", str "message") with
      | Some program, Some message -> Some (Assembly { program; message })
      | _ -> None)
    | Some "netlist" -> Option.map (fun m -> Netlist m) (str "message")
    | Some "analysis" -> (
      match (str "program", str "message") with
      | Some program, Some message -> Some (Analysis { program; message })
      | _ -> None)
    | Some "static-cfg" -> (
      match (str "program", str "message") with
      | Some program, Some message -> Some (Static_cfg { program; message })
      | _ -> None)
    | Some "cache" -> Option.map (fun m -> Cache m) (str "message")
    | Some "unknown-benchmark" -> (
      match (str "name", Option.bind (member "available" j) to_list) with
      | Some name, Some items ->
        let available = List.filter_map to_str items in
        if List.length available = List.length items then
          Some (Unknown_benchmark { name; available })
        else None
      | _ -> None)
    | Some "overloaded" -> (
      match (int "queued", int "capacity") with
      | Some queued, Some capacity -> Some (Overloaded { queued; capacity })
      | _ -> None)
    | Some "protocol" -> Option.map (fun m -> Protocol m) (str "message")
    | _ -> None
end

module Ctx = struct
  type t = {
    cache : Cache.t option;
    jobs : int option;
    telemetry : Telemetry.t option;
    tier : Tier.t;
    specialize : bool;
  }

  let default =
    {
      cache = None;
      jobs = None;
      telemetry = None;
      tier = Tier.Exact;
      specialize = true;
    }

  let create ?cache ?jobs ?telemetry ?(tier = Tier.Exact)
      ?(specialize = true) () =
    { cache; jobs; telemetry; tier; specialize }
end

type program = {
  p_name : string;
  p_image : Isa.Asm.image;
  loop_bound : int;
  max_paths : int;
}

let name p = p.p_name
let image p = p.p_image

let of_image ?(name = "program") ?(loop_bound = 16) ?(max_paths = 4096) image =
  { p_name = name; p_image = image; loop_bound; max_paths }

let of_ast ?loop_bound ?max_paths (ast : Isa.Asm.program) =
  match Isa.Asm.assemble ast with
  | image -> Ok (of_image ~name:ast.Isa.Asm.name ?loop_bound ?max_paths image)
  | exception Isa.Asm.Asm_error m ->
    Error (Error.Assembly { program = ast.Isa.Asm.name; message = m })

let of_source ?(name = "<source>") ?loop_bound ?max_paths text =
  match Isa.Parse.program ~name text with
  | ast -> of_ast ?loop_bound ?max_paths ast
  | exception Isa.Parse.Syntax_error (line, message) ->
    Error (Error.Parse { file = name; line; message })

let all_benches = Benchprogs.Bench.all @ Benchprogs.Extended.all

let benchmarks () =
  List.map
    (fun b -> (b.Benchprogs.Bench.name, b.Benchprogs.Bench.description))
    all_benches

let find_bench bname =
  match
    List.find_opt (fun b -> String.equal b.Benchprogs.Bench.name bname) all_benches
  with
  | Some b -> Ok b
  | None ->
    Error
      (Error.Unknown_benchmark
         {
           name = bname;
           available = List.map (fun b -> b.Benchprogs.Bench.name) all_benches;
         })

let bench bname =
  Result.map
    (fun (b : Benchprogs.Bench.t) ->
      of_image ~name:b.Benchprogs.Bench.name
        ~loop_bound:b.Benchprogs.Bench.loop_bound
        ~max_paths:b.Benchprogs.Bench.max_paths
        (Telemetry.span "assemble" (fun () -> Benchprogs.Bench.assemble b)))
    (find_bench bname)

(* The facade's processor model, baked at build time (Baked_model): the
   cache-key digests, so an exact-tier cache hit needs neither the gates
   nor a digest of them, and the marshaled CPU and power context, which
   [elaborate] unmarshals on first real use, once per process, under a
   mutex: the first use may come from several executor threads or pool
   domains at once, where a shared [Lazy.t] would raise
   [Lazy.Undefined]. *)
let baked_model = Baked_model.blob
let elaboration = Mutex.create ()
let elaborated = ref None

let elaborate () =
  Mutex.protect elaboration @@ fun () ->
  match !elaborated with
  | Some env -> env
  | None ->
    let env =
      Telemetry.span "elaborate" (fun () ->
          (Marshal.from_string baked_model 0 : Cpu.t * Poweran.t))
    in
    elaborated := Some env;
    env

let model =
  {
    Core.Analyze.cpu_digest = (fun () -> Baked_model.cpu);
    pa_digest = (fun () -> Baked_model.pa);
    elaborate;
  }

let set_jobs jobs = Option.iter Parallel.set_default_jobs jobs

(* Fix the job count and install the context's telemetry sink (if any)
   for the duration of [f]. *)
let in_ctx (ctx : Ctx.t) f =
  set_jobs ctx.Ctx.jobs;
  match ctx.Ctx.telemetry with
  | Some s -> Telemetry.with_ambient s f
  | None -> f ()

type detail =
  | Exact_detail of Core.Analyze.t
  | Static_detail of Static.Ipet.t

type analysis = {
  program : program;
  tier : Tier.t;
  peak_power : Bound.t;
  peak_index : int;
  peak_energy : Bound.t;
  peak_energy_cycles : int;
  npe_j_per_cycle : float;
  paths : int;
  forks : int;
  dedup_hits : int;
  total_cycles : int;
  power_trace_w : float array;
  phase_timings : (string * float) list;
  counter_deltas : (string * int) list;
  detail : detail;
}

let peak_power_w a = a.peak_power.Bound.value
let peak_energy_j a = a.peak_energy.Bound.value

let exact_detail a =
  match a.detail with Exact_detail r -> Some r | Static_detail _ -> None

let static_detail a =
  match a.detail with Static_detail s -> Some s | Exact_detail _ -> None

(* Per-call telemetry scoping: the sink's span totals and the process
   counters are monotonic, so the call's share is the before/after
   delta. *)
let phase_diff ~before ~after =
  List.filter_map
    (fun (name, s) ->
      let s0 = Option.value (List.assoc_opt name before) ~default:0. in
      if s -. s0 > 0. then Some (name, s -. s0) else None)
    after

let config_of p =
  {
    Core.Analyze.default_config with
    Core.Analyze.loop_bound = p.loop_bound;
    max_paths = p.max_paths;
  }

(* Auto-tier feasibility guess: the exact tier is attempted when the
   static cycle bound stays under this (the exact explorer's work grows
   with the real path lengths, which the static bound dominates). *)
let auto_exact_threshold = 50_000

let analyze ?(ctx = Ctx.default) p =
  in_ctx ctx @@ fun () ->
  let sink = Telemetry.ambient () in
  let phases0 =
    match sink with Some s -> Telemetry.phase_totals s | None -> []
  in
  let counters0 = match sink with Some _ -> Telemetry.counters () | None -> [] in
  let observed () =
    match sink with
    | None -> ([], [])
    | Some s ->
      ( phase_diff ~before:phases0 ~after:(Telemetry.phase_totals s),
        Telemetry.diff ~before:counters0 ~after:(Telemetry.counters ()) )
  in
  let exact () =
    match
      Core.Analyze.run_model ~config:(config_of p) ?cache:ctx.Ctx.cache
        ~specialize:ctx.Ctx.specialize model p.p_image
    with
    | a ->
      let pe = a.Core.Analyze.peak_energy in
      let st = a.Core.Analyze.sym_stats in
      let phase_timings, counter_deltas = observed () in
      Ok
        {
          program = p;
          tier = Tier.Exact;
          peak_power = Bound.exact a.Core.Analyze.peak_power;
          peak_index = a.Core.Analyze.peak_index;
          peak_energy = Bound.exact pe.Core.Peak_energy.energy;
          peak_energy_cycles = pe.Core.Peak_energy.cycles;
          npe_j_per_cycle = pe.Core.Peak_energy.npe;
          paths = st.Gatesim.Sym.paths;
          forks = st.Gatesim.Sym.forks;
          dedup_hits = st.Gatesim.Sym.dedup_hits;
          total_cycles = st.Gatesim.Sym.total_cycles;
          power_trace_w = a.Core.Analyze.power_trace;
          phase_timings;
          counter_deltas;
          detail = Exact_detail a;
        }
    | exception Gatesim.Sym.Path_limit m ->
      Error
        (Error.Analysis { program = p.p_name; message = "path limit: " ^ m })
    | exception Core.Peak_energy.Unbounded d ->
      Error
        (Error.Analysis
           {
             program = p.p_name;
             message =
               "input-dependent loop with loop_bound 0 (state " ^ d
               ^ "): peak energy is not computable";
           })
  in
  let static () =
    let cpu, pa = elaborate () in
    match
      Static.Ipet.analyze ?cache:ctx.Ctx.cache
        ~specialize:ctx.Ctx.specialize ~name:p.p_name
        ~loop_bound:p.loop_bound pa cpu p.p_image
    with
    | Error e ->
      Error
        (Error.Static_cfg
           { program = p.p_name; message = Static.Cfg.error_to_string e })
    | Ok s ->
      let phase_timings, counter_deltas = observed () in
      Ok
        {
          program = p;
          tier = Tier.Static;
          peak_power = Bound.static s.Static.Ipet.s_peak_power_w;
          peak_index = 0;
          peak_energy = Bound.static s.Static.Ipet.s_peak_energy_j;
          peak_energy_cycles = s.Static.Ipet.s_cycle_bound;
          npe_j_per_cycle =
            (if s.Static.Ipet.s_cycle_bound > 0 then
               s.Static.Ipet.s_peak_energy_j
               /. float_of_int s.Static.Ipet.s_cycle_bound
             else 0.0);
          paths = 0;
          forks = 0;
          dedup_hits = 0;
          total_cycles = s.Static.Ipet.s_cycle_bound;
          power_trace_w = [||];
          phase_timings;
          counter_deltas;
          detail = Static_detail s;
        }
    | exception Gatesim.Sym.Path_limit m ->
      Error
        (Error.Analysis
           {
             program = p.p_name;
             message = "block characterization path limit: " ^ m;
           })
  in
  match ctx.Ctx.tier with
  | Tier.Exact -> exact ()
  | Tier.Static -> static ()
  | Tier.Auto -> (
    (* Static first — it always terminates. Escalate to the exact
       tier when the static cycle bound says it is feasible; if the
       CFG defeats the static tier, exact is the only option. *)
    match static () with
    | Error (Error.Static_cfg _) -> exact ()
    | Error _ as e -> e
    | Ok s when s.peak_energy_cycles <= auto_exact_threshold -> (
      match exact () with Ok a -> Ok a | Error _ -> Ok s)
    | Ok s -> Ok s)

type concrete = {
  cycles : int;
  peak_w : float;
  peak_cycle : int;
  trace_w : float array;
}

let run_concrete ?(ctx = Ctx.default) p ~inputs =
  in_ctx ctx @@ fun () ->
  let cpu, pa = elaborate () in
  match
    Core.Analyze.run_concrete ~specialize:ctx.Ctx.specialize pa cpu p.p_image
      ~inputs
  with
  | cycles, trace ->
    let peak_w, peak_cycle = Poweran.peak_of trace in
    Ok { cycles = Array.length cycles; peak_w; peak_cycle; trace_w = trace }
  | exception Failure m ->
    Error (Error.Analysis { program = p.p_name; message = m })

let cois ?(top = 4) ?(min_gap = 5) a =
  match a.detail with
  | Static_detail _ -> []
  | Exact_detail raw ->
    let _, pa = elaborate () in
    Core.Analyze.cois ~top ~min_gap pa raw

let pp_coi = Core.Coi.pp

type explanation = Explain.Report.t

let explain ?ctx ?(top = 4) ?(min_gap = 5) a =
  match a.detail with
  | Static_detail _ ->
    invalid_arg
      "Xbound.explain: a static-tier analysis has no COI report; render its \
       Static.Ipet detail instead"
  | Exact_detail raw ->
    let ctx = Option.value ctx ~default:Ctx.default in
    in_ctx ctx @@ fun () ->
    let cpu, pa = elaborate () in
    (* [folded] is passed regardless of [ctx.specialize] — the class
       labeling comes from the netlist analysis, not the engine mode, so
       reports are byte-identical with specialization on or off. *)
    Explain.Report.build ~top ~min_gap
      ~folded:(Core.Analyze.folded_pred cpu)
      ~name:(name a.program) pa raw

type optimization = {
  bench_name : string;
  chosen : string list;
  base_peak_w : float;
  opt_peak_w : float;
  peak_reduction_pct : float;
  range_reduction_pct : float;
  perf_degradation_pct : float;
  energy_overhead_pct : float;
  base_trace_w : float array;
  opt_trace_w : float array;
  raw_opt : Report.Optrun.t;
}

let optimize ?(ctx = Ctx.default) bname =
  in_ctx ctx @@ fun () ->
  let cache = ctx.Ctx.cache in
  match find_bench bname with
  | Error e -> Error e
  | Ok b ->
    let cpu, pa = elaborate () in
    let config =
      {
        Core.Analyze.default_config with
        Core.Analyze.loop_bound = b.Benchprogs.Bench.loop_bound;
        max_paths = b.Benchprogs.Bench.max_paths;
      }
    in
    match
      let base =
        Core.Analyze.run ~config ?cache pa cpu (Benchprogs.Bench.assemble b)
      in
      (base, Report.Optrun.greedy ~analysis:base ?cache pa cpu b)
    with
    | base, o ->
      Ok
        {
          bench_name = bname;
          chosen = List.map Core.Optimize.name o.Report.Optrun.chosen;
          base_peak_w = o.Report.Optrun.base_peak;
          opt_peak_w = o.Report.Optrun.opt_peak;
          peak_reduction_pct = Report.Optrun.peak_reduction_pct o;
          range_reduction_pct = Report.Optrun.range_reduction_pct o;
          perf_degradation_pct = Report.Optrun.perf_degradation_pct o;
          energy_overhead_pct = Report.Optrun.energy_overhead_pct o;
          base_trace_w = base.Core.Analyze.power_trace;
          opt_trace_w =
            o.Report.Optrun.opt_analysis.Core.Analyze.power_trace;
          raw_opt = o;
        }
    | exception Gatesim.Sym.Path_limit m ->
      Error (Error.Analysis { program = bname; message = "path limit: " ^ m })
    | exception Core.Peak_energy.Unbounded d ->
      Error
        (Error.Analysis
           { program = bname; message = "unbounded loop (state " ^ d ^ ")" })
