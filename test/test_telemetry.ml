(* Telemetry: span nesting (single- and multi-domain), deterministic
   counter sums, Chrome export well-formedness, and the facade-level
   guarantee that tracing never perturbs the computed bounds. *)

let sp name f = Telemetry.span name f

(* ---------------- span nesting ---------------- *)

let test_span_nesting () =
  let t = Telemetry.create () in
  Telemetry.with_ambient t (fun () ->
      sp "outer" (fun () ->
          sp "inner" (fun () -> ());
          sp "inner2" (fun () -> ())));
  let evs = Telemetry.events t in
  Alcotest.(check int) "three spans" 3 (List.length evs);
  let find n = List.find (fun (e : Telemetry.event) -> e.name = n) evs in
  let outer = find "outer" and inner = find "inner" and inner2 = find "inner2" in
  Alcotest.(check int) "outer depth" 1 outer.Telemetry.depth;
  Alcotest.(check int) "inner depth" 2 inner.Telemetry.depth;
  Alcotest.(check int) "inner2 depth" 2 inner2.Telemetry.depth;
  (* containment on the clock: children start no earlier and end no
     later than the parent *)
  let ends (e : Telemetry.event) = Int64.add e.ts_ns e.dur_ns in
  List.iter
    (fun (child : Telemetry.event) ->
      Alcotest.(check bool) "child starts inside parent" true
        (child.ts_ns >= outer.ts_ns);
      Alcotest.(check bool) "child ends inside parent" true
        (ends child <= ends outer))
    [ inner; inner2 ]

(* A phase and the same-named spans nested in it (phase.explore holding
   the sym.explore tasks) are separate summary rows; summed by name
   alone they would count the nested time twice and exceed the wall. *)
let test_summary_nested_same_name () =
  let t = Telemetry.create () in
  let busy () =
    let t0 = Telemetry.now_ns () in
    while Int64.sub (Telemetry.now_ns ()) t0 < 2_000_000L do
      ()
    done
  in
  Telemetry.with_ambient t (fun () ->
      sp "explore" (fun () ->
          Telemetry.span ~cat:"sym" "explore" busy;
          Telemetry.span ~cat:"sym" "explore" busy));
  let rows =
    List.filter_map
      (fun l ->
        match Scanf.sscanf l " %s %f %d%!" (fun k s n -> (k, (s, n))) with
        | r -> Some r
        | exception _ -> None)
      (String.split_on_char '\n' (Telemetry.stats_summary t))
  in
  let row k =
    match List.assoc_opt k rows with
    | Some r -> r
    | None -> Alcotest.failf "no %s row" k
  in
  let phase_s, phase_n = row "phase.explore" in
  let sym_s, sym_n = row "sym.explore" in
  Alcotest.(check int) "one phase" 1 phase_n;
  Alcotest.(check int) "two nested spans" 2 sym_n;
  Alcotest.(check bool) "no row keyed by name alone" false
    (List.mem_assoc "explore" rows);
  Alcotest.(check bool) "nested time within the phase" true (sym_s <= phase_s)

let test_span_exception () =
  let t = Telemetry.create () in
  (try
     Telemetry.with_ambient t (fun () ->
         sp "raises" (fun () -> failwith "boom"))
   with Failure _ -> ());
  match Telemetry.events t with
  | [ e ] ->
    Alcotest.(check string) "span recorded on exception" "raises"
      e.Telemetry.name;
    Alcotest.(check int) "depth unwound" 1 e.Telemetry.depth
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_spans_across_domains () =
  let t = Telemetry.create () in
  let n_domains = 3 in
  Telemetry.with_ambient t (fun () ->
      let doms =
        List.init n_domains (fun i ->
            Domain.spawn (fun () ->
                sp (Printf.sprintf "outer-%d" i) (fun () ->
                    sp (Printf.sprintf "inner-%d" i) (fun () -> ()))))
      in
      List.iter Domain.join doms);
  let evs = Telemetry.events t in
  Alcotest.(check int) "two spans per domain" (2 * n_domains)
    (List.length evs);
  let tids =
    List.sort_uniq compare (List.map (fun (e : Telemetry.event) -> e.tid) evs)
  in
  Alcotest.(check int) "one tid per domain" n_domains (List.length tids);
  (* nesting is per domain: each tid has exactly one depth-1 and one
     depth-2 span, and they agree on the index suffix *)
  List.iter
    (fun tid ->
      let mine =
        List.filter (fun (e : Telemetry.event) -> e.tid = tid) evs
      in
      let at d =
        List.find (fun (e : Telemetry.event) -> e.depth = d) mine
      in
      let outer = at 1 and inner = at 2 in
      let suffix (e : Telemetry.event) =
        List.nth (String.split_on_char '-' e.name) 1
      in
      Alcotest.(check string) "matched pair" (suffix outer) (suffix inner))
    tids

(* ---------------- counters ---------------- *)

let test_counters_sum () =
  let c = Telemetry.Counter.make "test.sum" in
  let t = Telemetry.create () in
  let n_domains = 4 and per_domain = 10_000 in
  let v0 = Telemetry.Counter.value c in
  Telemetry.with_ambient t (fun () ->
      let doms =
        List.init n_domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  Telemetry.Counter.incr c
                done))
      in
      List.iter Domain.join doms);
  Alcotest.(check int) "no lost increments" (n_domains * per_domain)
    (Telemetry.Counter.value c - v0)

let test_disabled_is_noop () =
  Alcotest.(check (option unit)) "no ambient sink"
    None
    (Option.map ignore (Telemetry.ambient ()));
  let c = Telemetry.Counter.make "test.disabled" in
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 41;
  Alcotest.(check int) "counter frozen without sink" 0
    (Telemetry.Counter.value c);
  let h = Telemetry.Histogram.make "test.disabled_h" in
  Telemetry.Histogram.observe h 123L;
  let count, _, _ = Telemetry.Histogram.totals h in
  Alcotest.(check int) "histogram frozen without sink" 0 count;
  Alcotest.(check int) "span still runs the body" 7 (sp "off" (fun () -> 7))

let test_diff () =
  Alcotest.(check (list (pair string int)))
    "per-name deltas, zeros dropped"
    [ ("a", 2); ("c", 4) ]
    (Telemetry.diff
       ~before:[ ("a", 1); ("b", 5) ]
       ~after:[ ("a", 3); ("b", 5); ("c", 4) ])

let test_histogram () =
  let h = Telemetry.Histogram.make "test.hist" in
  let t = Telemetry.create () in
  Telemetry.with_ambient t (fun () ->
      List.iter (Telemetry.Histogram.observe h) [ 1L; 2L; 3L; 1000L ]);
  let count, sum, mx = Telemetry.Histogram.totals h in
  Alcotest.(check int) "count" 4 count;
  Alcotest.(check int64) "sum" 1006L sum;
  Alcotest.(check int64) "max" 1000L mx;
  (* Buckets are listed by inclusive upper bound: 1 -> [0,1]; 2,3 ->
     [2,3]; 1000 -> [512,1023]. *)
  Alcotest.(check (list (pair int64 int)))
    "log2 buckets"
    [ (1L, 1); (3L, 2); (1023L, 1) ]
    (Telemetry.Histogram.buckets h)

(* The published contract: each (upper, n) row covers observations
   <= upper (and > the previous row's upper), and percentile reports
   exactly these upper bounds (clamped to the recorded max). Pin the
   two against each other so neither can drift alone. *)
let test_histogram_bucket_bounds () =
  let h = Telemetry.Histogram.make "test.hist_bounds" in
  let t = Telemetry.create () in
  let obs = [ 0L; 1L; 2L; 4L; 7L; 8L; 100L; 4096L ] in
  Telemetry.with_ambient t (fun () ->
      List.iter (Telemetry.Histogram.observe h) obs);
  let buckets = Telemetry.Histogram.buckets h in
  Alcotest.(check (list (pair int64 int)))
    "upper-bound rows"
    [ (1L, 2); (3L, 1); (7L, 2); (15L, 1); (127L, 1); (8191L, 1) ]
    buckets;
  (* every observation is covered by exactly the row whose upper bound
     is the least one >= it *)
  List.iter
    (fun v ->
      match List.find_opt (fun (upper, _) -> upper >= v) buckets with
      | None -> Alcotest.failf "no bucket covers %Ld" v
      | Some _ -> ())
    obs;
  Alcotest.(check int) "rows account for every observation"
    (List.length obs)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets);
  (* percentile never invents values: every quantile is a bucket upper
     bound or the recorded max *)
  let uppers = List.map fst buckets in
  List.iter
    (fun q ->
      let p = Telemetry.Histogram.percentile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f is a bucket upper bound or the max"
           (q *. 100.))
        true
        (List.mem p uppers || p = 4096L))
    [ 0.; 0.25; 0.5; 0.9; 0.99; 1. ]

(* ---------------- gauges ---------------- *)

let test_gauge () =
  let g = Telemetry.Gauge.make "test.gauge" in
  Alcotest.(check int) "starts at zero" 0 (Telemetry.Gauge.value g);
  (* gauges track instantaneous state, so they move without a sink *)
  Telemetry.Gauge.set g 5;
  Telemetry.Gauge.add g 2;
  Telemetry.Gauge.add g (-3);
  Alcotest.(check int) "set/add" 4 (Telemetry.Gauge.value g);
  Alcotest.(check bool) "interned" true
    (Telemetry.Gauge.make "test.gauge" == g);
  Alcotest.(check (option int)) "listed" (Some 4)
    (List.assoc_opt "test.gauge" (Telemetry.gauges ()))

let test_histogram_percentile () =
  let h = Telemetry.Histogram.make "test.hist_pct" in
  Alcotest.(check int64) "empty histogram" 0L
    (Telemetry.Histogram.percentile h 0.5);
  let t = Telemetry.create () in
  Telemetry.with_ambient t (fun () ->
      List.iter (Telemetry.Histogram.observe h) [ 1L; 2L; 3L; 1000L ]);
  (* p50 covers the second observation: bucket [2,4) upper edge = 3 *)
  Alcotest.(check int64) "p50 upper bound" 3L
    (Telemetry.Histogram.percentile h 0.5);
  (* p99 lands in the top bucket, clamped to the recorded max *)
  Alcotest.(check int64) "p99 clamps to max" 1000L
    (Telemetry.Histogram.percentile h 0.99);
  Alcotest.(check int64) "p0 still covers one observation" 1L
    (Telemetry.Histogram.percentile h 0.);
  let mono =
    List.for_all
      (fun (lo, hi) ->
        Telemetry.Histogram.percentile h lo
        <= Telemetry.Histogram.percentile h hi)
      [ (0., 0.25); (0.25, 0.5); (0.5, 0.99); (0.99, 1.) ]
  in
  Alcotest.(check bool) "monotone in q" true mono;
  (* and the human summary surfaces them *)
  let s = Telemetry.stats_summary t in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "summary shows p50" true (contains "p50");
  Alcotest.(check bool) "summary shows p99" true (contains "p99")

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let count_sub ~sub s =
  let n = String.length sub in
  let rec go acc i =
    if i + n > String.length s then acc
    else go (if String.sub s i n = sub then acc + 1 else acc) (i + 1)
  in
  go 0 0

(* ---------------- request scopes ---------------- *)

(* A scope sees exactly the counter increments and spans made while it
   is entered on the executing thread — process-wide aggregates keep
   accumulating as before. *)
let test_scope_tally () =
  let c = Telemetry.Counter.make "test.scope_tally" in
  let t = Telemetry.create () in
  Telemetry.with_ambient t (fun () ->
      Telemetry.Counter.add c 5;
      let s1 = Telemetry.Scope.create ~id:"r1" in
      let s2 = Telemetry.Scope.create ~id:"r2" in
      Telemetry.Scope.with_scope s1 (fun () ->
          Telemetry.Counter.add c 3;
          Telemetry.span ~cat:"phase" "work" (fun () ->
              Telemetry.Counter.incr c));
      Telemetry.Scope.with_scope s2 (fun () -> Telemetry.Counter.add c 10);
      Telemetry.Counter.add c 100;
      Alcotest.(check string) "id" "r1" (Telemetry.Scope.id s1);
      Alcotest.(check (list (pair string int)))
        "s1 sees its own increments only"
        [ ("test.scope_tally", 4) ]
        (Telemetry.Scope.counter_deltas s1);
      Alcotest.(check (list (pair string int)))
        "s2 likewise"
        [ ("test.scope_tally", 10) ]
        (Telemetry.Scope.counter_deltas s2);
      Alcotest.(check int) "process-wide total unaffected" 119
        (Telemetry.Counter.value c);
      Alcotest.(check int) "s1 recorded its span" 1
        (List.length (Telemetry.Scope.events s1));
      match Telemetry.Scope.phase_totals s1 with
      | [ ("work", secs) ] ->
        Alcotest.(check bool) "phase total plausible" true (secs >= 0.)
      | l -> Alcotest.failf "expected one phase, got %d" (List.length l))

let test_scope_not_active_outside () =
  let t = Telemetry.create () in
  Telemetry.with_ambient t (fun () ->
      (match Telemetry.Scope.active () with
      | None -> ()
      | Some _ -> Alcotest.fail "no scope expected outside with_scope");
      let s = Telemetry.Scope.create ~id:"r9" in
      Telemetry.Scope.with_scope s (fun () ->
          match Telemetry.Scope.active () with
          | Some s' -> Alcotest.(check string) "active" "r9" (Telemetry.Scope.id s')
          | None -> Alcotest.fail "scope should be active");
      match Telemetry.Scope.active () with
      | None -> ()
      | Some _ -> Alcotest.fail "scope leaked past with_scope")

(* ---------------- snapshots ---------------- *)

let test_snapshot_take_and_diff () =
  let c = Telemetry.Counter.make "test.snap_ctr" in
  let h = Telemetry.Histogram.make "test.snap_hist_ns" in
  let g = Telemetry.Gauge.make "test.snap_gauge" in
  let t = Telemetry.create () in
  Telemetry.with_ambient t (fun () ->
      Telemetry.Counter.add c 2;
      Telemetry.Histogram.observe h 100L;
      let before = Telemetry.Snapshot.take () in
      Telemetry.Counter.add c 3;
      Telemetry.Histogram.observe h 5000L;
      Telemetry.Gauge.set g 7;
      let after = Telemetry.Snapshot.take () in
      Alcotest.(check (option int)) "cumulative counter" (Some 5)
        (List.assoc_opt "test.snap_ctr" after.Telemetry.Snapshot.counters);
      Alcotest.(check bool) "uptime positive" true
        (after.Telemetry.Snapshot.uptime_s > 0.);
      let d = Telemetry.Snapshot.diff ~before ~after in
      Alcotest.(check (option int)) "windowed counter delta" (Some 3)
        (List.assoc_opt "test.snap_ctr" d.Telemetry.Snapshot.counters);
      Alcotest.(check (option int)) "gauge is instantaneous" (Some 7)
        (List.assoc_opt "test.snap_gauge" d.Telemetry.Snapshot.gauges);
      let histo (s : Telemetry.Snapshot.t) =
        List.find
          (fun (x : Telemetry.Snapshot.histo) -> x.hname = "test.snap_hist_ns")
          s.Telemetry.Snapshot.histograms
      in
      let hb = histo after and hd = histo d in
      Alcotest.(check int) "cumulative count" 2 hb.Telemetry.Snapshot.count;
      Alcotest.(check int) "windowed count" 1 hd.Telemetry.Snapshot.count;
      (* the window's only observation is 5000: its percentiles must
         come from the 5000 bucket, not the cumulative distribution *)
      Alcotest.(check bool) "windowed p50 covers 5000" true
        (hd.Telemetry.Snapshot.p50 >= 4096L))

(* Satellite of the exposition tier: every line of the Prometheus text
   format is either a comment or [name{labels} value], histogram series
   are cumulative and capped by +Inf == _count, and counters carry the
   _total suffix. *)
let check_prometheus_lines body =
  let is_metric_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let lines = String.split_on_char '\n' body in
  List.iter
    (fun line ->
      if line <> "" && not (String.starts_with ~prefix:"#" line) then begin
        (* metric name: leading run of metric chars, nonempty, not
           starting with a digit *)
        let n = String.length line in
        let rec name_end i =
          if i < n && is_metric_char line.[i] then name_end (i + 1) else i
        in
        let e = name_end 0 in
        if e = 0 || (line.[0] >= '0' && line.[0] <= '9') then
          Alcotest.failf "bad metric name in %S" line;
        (* optional {labels}, then exactly one space and a float *)
        let rest =
          if e < n && line.[e] = '{' then
            match String.index_from_opt line e '}' with
            | Some close -> String.sub line (close + 1) (n - close - 1)
            | None -> Alcotest.failf "unclosed label set in %S" line
          else String.sub line e (n - e)
        in
        match String.split_on_char ' ' rest with
        | [ ""; v ] -> (
          match float_of_string_opt v with
          | Some _ -> ()
          | None ->
            if v <> "+Inf" then Alcotest.failf "bad sample value in %S" line)
        | _ -> Alcotest.failf "expected 'name value' in %S" line
      end)
    lines

let test_snapshot_prometheus () =
  let c = Telemetry.Counter.make "test.prom_ctr" in
  let h = Telemetry.Histogram.make "test.prom_hist_ns" in
  let t = Telemetry.create () in
  Telemetry.with_ambient t (fun () ->
      Telemetry.Counter.add c 4;
      List.iter (Telemetry.Histogram.observe h) [ 10L; 100L; 1000L ];
      let s = Telemetry.Snapshot.take () in
      let body = Telemetry.Snapshot.to_prometheus s in
      check_prometheus_lines body;
      Alcotest.(check bool) "counter total" true
        (contains ~sub:"xbound_test_prom_ctr_total 4" body);
      Alcotest.(check bool) "TYPE for the counter" true
        (contains ~sub:"# TYPE xbound_test_prom_ctr_total counter" body);
      (* _ns histograms export as _seconds with cumulative buckets *)
      Alcotest.(check bool) "histogram TYPE" true
        (contains ~sub:"# TYPE xbound_test_prom_hist_seconds histogram" body);
      Alcotest.(check bool) "+Inf bucket" true
        (contains ~sub:{|xbound_test_prom_hist_seconds_bucket{le="+Inf"} 3|}
           body);
      Alcotest.(check bool) "count series" true
        (contains ~sub:"xbound_test_prom_hist_seconds_count 3" body);
      (* cumulative: bucket counts never decrease through the list *)
      let counts =
        List.filter_map
          (fun line ->
            if
              String.starts_with
                ~prefix:"xbound_test_prom_hist_seconds_bucket" line
            then
              match String.rindex_opt line ' ' with
              | Some i ->
                int_of_string_opt
                  (String.sub line (i + 1) (String.length line - i - 1))
              | None -> None
            else None)
          (String.split_on_char '\n' body)
      in
      Alcotest.(check bool) "cumulative buckets" true
        (List.sort compare counts = counts))

(* ---------------- Chrome export ---------------- *)

(* Minimal structural JSON check: braces/brackets balance outside string
   literals and the document is one value. Enough to catch trailing
   commas in the wrong place, unescaped quotes and truncation. *)
let check_balanced_json s =
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  String.iter
    (fun ch ->
      if !in_str then
        if !escaped then escaped := false
        else
          match ch with
          | '\\' -> escaped := true
          | '"' -> in_str := false
          | _ -> ()
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then Alcotest.fail "unbalanced close"
        | _ -> ())
    s;
  Alcotest.(check bool) "not inside a string" false !in_str;
  Alcotest.(check int) "balanced" 0 !depth

let test_chrome_export () =
  let t = Telemetry.create () in
  let c = Telemetry.Counter.make "test.chrome" in
  Telemetry.with_ambient t (fun () ->
      Telemetry.Counter.incr c;
      sp "alpha" (fun () -> sp {|quo"ted|} (fun () -> ()));
      let d = Domain.spawn (fun () -> sp "beta" (fun () -> ())) in
      Domain.join d);
  let json = Telemetry.to_chrome_json t in
  check_balanced_json json;
  Alcotest.(check bool) "traceEvents" true (contains ~sub:"\"traceEvents\"" json);
  Alcotest.(check int) "three X events" 3 (count_sub ~sub:"\"ph\": \"X\"" json);
  Alcotest.(check bool) "thread metadata" true
    (contains ~sub:"\"thread_name\"" json);
  Alcotest.(check bool) "counter event" true (contains ~sub:"\"ph\": \"C\"" json);
  Alcotest.(check bool) "counter summary" true
    (contains ~sub:"\"xboundCounters\"" json);
  Alcotest.(check bool) "quote escaped" true (contains ~sub:{|quo\"ted|} json)

(* A scope's standalone Chrome export: its spans as X events plus the
   request-id metadata, structurally valid. *)
let test_scope_chrome_export () =
  let t = Telemetry.create () in
  let s = Telemetry.Scope.create ~id:"r42" in
  Telemetry.with_ambient t (fun () ->
      Telemetry.Scope.with_scope s (fun () ->
          sp "alpha" (fun () -> sp "beta" (fun () -> ()))));
  let json = Telemetry.Scope.to_chrome_json s in
  check_balanced_json json;
  Alcotest.(check bool) "request id" true (contains ~sub:"r42" json);
  Alcotest.(check int) "two X events" 2 (count_sub ~sub:"\"ph\": \"X\"" json)

(* ---------------- facade: tracing must not perturb results --------- *)

let tiny_program () =
  let open Benchprogs.Bench.E in
  let app =
    prologue
    @ [
        mov (abs Benchprogs.Bench.input_base) (dreg 4);
        mov (reg 4) (dabs Isa.Memmap.mpy);
        mov (imm 25) (dabs Isa.Memmap.op2);
        mul_reslo 5;
        mov (reg 5) (dabs Benchprogs.Bench.output_base);
      ]
  in
  match
    Xbound.of_ast
      {
        Isa.Asm.name = "telemetry-tiny";
        entry = "start";
        sections =
          [
            {
              Isa.Asm.org = Isa.Memmap.rom_base;
              items = (Isa.Asm.Label "start" :: app) @ Isa.Asm.halt_items;
            };
          ];
      }
  with
  | Ok p -> p
  | Error e -> Alcotest.fail (Xbound.Error.to_string e)

let test_analyze_bit_identical () =
  let p = tiny_program () in
  let plain =
    match Xbound.analyze ~ctx:(Xbound.Ctx.create ~jobs:2 ()) p with
    | Ok a -> a
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  let sink = Telemetry.create () in
  let ctx = Xbound.Ctx.create ~jobs:2 ~telemetry:sink () in
  let traced =
    match Xbound.analyze ~ctx p with
    | Ok a -> a
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  Alcotest.(check int64) "peak power bit-identical"
    (Int64.bits_of_float (Xbound.peak_power_w plain))
    (Int64.bits_of_float (Xbound.peak_power_w traced));
  Alcotest.(check int64) "peak energy bit-identical"
    (Int64.bits_of_float (Xbound.peak_energy_j plain))
    (Int64.bits_of_float (Xbound.peak_energy_j traced));
  Alcotest.(check (list (pair string int)))
    "no telemetry fields without a sink" [] plain.Xbound.counter_deltas;
  Alcotest.(check (list string)) "no phases without a sink" []
    (List.map fst plain.Xbound.phase_timings);
  let phases = List.map fst traced.Xbound.phase_timings in
  List.iter
    (fun want ->
      Alcotest.(check bool) (want ^ " phase present") true
        (List.mem want phases))
    [ "analyze"; "explore"; "peak-power"; "peak-energy" ];
  Alcotest.(check bool) "sink recorded events" true
    (Telemetry.events sink <> [])

(* The analysis record's telemetry fields are scoped to the call that
   produced them: counters are process-wide and monotonic, so a second
   analyze on the same sink must report its own deltas, not the
   cumulative totals, and phase times must stay plausible per call. *)
let test_analysis_fields_scoped_per_call () =
  let p = tiny_program () in
  let sink = Telemetry.create () in
  let ctx = Xbound.Ctx.create ~jobs:2 ~telemetry:sink () in
  let run () =
    match Xbound.analyze ~ctx p with
    | Ok a -> a
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
  in
  let a1 = run () in
  let a2 = run () in
  List.iter
    (fun (a : Xbound.analysis) ->
      List.iter
        (fun (name, s) ->
          Alcotest.(check bool) (name ^ " non-negative") true (s >= 0.))
        a.Xbound.phase_timings;
      List.iter
        (fun (name, d) ->
          Alcotest.(check bool) (name ^ " delta positive") true (d > 0))
        a.Xbound.counter_deltas)
    [ a1; a2 ];
  (* same work both times: any counter present in both calls reports a
     per-call delta, so the second is not the running total (which would
     be at least double the first) *)
  List.iter
    (fun (name, d2) ->
      match List.assoc_opt name a1.Xbound.counter_deltas with
      | Some d1 when d1 > 0 ->
        Alcotest.(check bool)
          (name ^ " scoped to the call, not cumulative")
          true
          (d2 < 2 * d1)
      | _ -> ())
    a2.Xbound.counter_deltas;
  (* the analyze phase wraps the others within each call *)
  List.iter
    (fun (a : Xbound.analysis) ->
      match List.assoc_opt "analyze" a.Xbound.phase_timings with
      | None -> Alcotest.fail "analyze phase missing"
      | Some total ->
        List.iter
          (fun (name, s) ->
            if name <> "analyze" then
              Alcotest.(check bool)
                (name ^ " nested under analyze")
                true (s <= total +. 1e-9))
          a.Xbound.phase_timings)
    [ a1; a2 ]

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "summary keeps nested same-name spans apart"
            `Quick test_summary_nested_same_name;
          Alcotest.test_case "exception" `Quick test_span_exception;
          Alcotest.test_case "across domains" `Quick test_spans_across_domains;
        ] );
      ( "counters",
        [
          Alcotest.test_case "deterministic sum" `Quick test_counters_sum;
          Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "diff" `Quick test_diff;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentile;
          Alcotest.test_case "bucket bounds" `Quick
            test_histogram_bucket_bounds;
          Alcotest.test_case "gauge" `Quick test_gauge;
        ] );
      ( "scopes",
        [
          Alcotest.test_case "per-request tally" `Quick test_scope_tally;
          Alcotest.test_case "activation" `Quick test_scope_not_active_outside;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "take and diff" `Quick test_snapshot_take_and_diff;
          Alcotest.test_case "prometheus exposition" `Quick
            test_snapshot_prometheus;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json" `Quick test_chrome_export;
          Alcotest.test_case "scope chrome json" `Quick
            test_scope_chrome_export;
        ] );
      ( "facade",
        [
          Alcotest.test_case "tracing does not perturb bounds" `Quick
            test_analyze_bit_identical;
          Alcotest.test_case "analysis fields scoped per call" `Quick
            test_analysis_fields_scoped_per_call;
        ] );
    ]
