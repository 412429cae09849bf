(* Ambient, domain-safe telemetry: spans into per-domain buffers,
   process-wide atomic counters/gauges/histograms, request-scoped
   attribution, snapshots and Chrome trace-event / Prometheus export.
   See telemetry.mli for the contract.

   Lock discipline: the per-sink mutex is taken once per (domain, sink)
   pair, when the domain's buffer is first registered. Recording an
   event is a cons onto a domain-private list; counters and histogram
   buckets are single atomic RMWs. Scope attribution adds one atomic
   load per counter increment when no scope is bound anywhere, and a
   short critical section on the scope's own mutex when one is. Every
   instrumentation site is behind one atomic load of the ambient sink,
   so disabled telemetry costs exactly that load. *)

type event = {
  name : string;
  cat : string;
  tid : int;
  ts_ns : int64;
  dur_ns : int64;
  depth : int;
}

(* One per (domain, sink): domain-private, so no lock on record. *)
type buffer = {
  tid : int;
  mutable evs : event list;
  mutable depth : int;
}

type t = {
  id : int;
  origin : int64;  (* monotonic ns at creation *)
  retain_events : bool;
  m : Mutex.t;
  mutable buffers : buffer list;
  main_tid : int;
}

let ids = Atomic.make 0

(* Module-load clock origin: process uptime for snapshots. *)
let process_origin = Monotonic_clock.now ()

let create ?(retain_events = true) () =
  {
    id = Atomic.fetch_and_add ids 1;
    origin = Monotonic_clock.now ();
    retain_events;
    m = Mutex.create ();
    buffers = [];
    main_tid = (Domain.self () :> int);
  }

let now_ns () = Monotonic_clock.now ()

let uptime_s () =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) process_origin) /. 1e9

let the_ambient : t option Atomic.t = Atomic.make None
let ambient () = Atomic.get the_ambient
let set_ambient s = Atomic.set the_ambient s
let enabled () = Atomic.get the_ambient <> None

let with_ambient s f =
  let prev = Atomic.get the_ambient in
  Atomic.set the_ambient (Some s);
  Fun.protect ~finally:(fun () -> Atomic.set the_ambient prev) f

(* sink id -> buffer, per domain (a domain can record into several
   sinks over its lifetime). *)
let buffers_key : (int * buffer) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let buffer_for t =
  let r = Domain.DLS.get buffers_key in
  match List.assq_opt t.id !r with
  | Some b -> b
  | None ->
    let b = { tid = (Domain.self () :> int); evs = []; depth = 0 } in
    r := (t.id, b) :: !r;
    Mutex.lock t.m;
    t.buffers <- b :: t.buffers;
    Mutex.unlock t.m;
    b

(* Spans currently open across every domain and thread. *)
let active_spans = Atomic.make 0

(* ---------------- shared JSON helpers ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let us ns = Int64.to_float ns /. 1e3

(* ---------------- scopes ---------------- *)

module Scope = struct
  type s = {
    sid : string;
    sm : Mutex.t;
    tally_tbl : (string, int) Hashtbl.t;
    mutable sevs : event list;
  }

  (* Number of (thread -> scope) bindings alive anywhere in the
     process: the fast-path gate for counter attribution. *)
  let live = Atomic.make 0

  (* Thread.id -> scope. Keyed on systhread ids, not Domain.DLS: the
     daemon's executor threads share one domain, and pool workers are
     each the main thread of their own domain — thread ids distinguish
     both. *)
  let bindings : (int, s) Hashtbl.t = Hashtbl.create 16
  let bm = Mutex.create ()

  let create ~id =
    { sid = id; sm = Mutex.create (); tally_tbl = Hashtbl.create 16; sevs = [] }

  let id s = s.sid
  let self_id () = Thread.id (Thread.self ())

  let active () =
    if Atomic.get live = 0 then None
    else begin
      let tid = self_id () in
      Mutex.lock bm;
      let r = Hashtbl.find_opt bindings tid in
      Mutex.unlock bm;
      r
    end

  let tally name n =
    if Atomic.get live > 0 then
      match active () with
      | None -> ()
      | Some s ->
        Mutex.lock s.sm;
        Hashtbl.replace s.tally_tbl name
          (Option.value (Hashtbl.find_opt s.tally_tbl name) ~default:0 + n);
        Mutex.unlock s.sm

  let record s e =
    Mutex.lock s.sm;
    s.sevs <- e :: s.sevs;
    Mutex.unlock s.sm

  let set_binding tid so =
    Mutex.lock bm;
    let had = Hashtbl.mem bindings tid in
    (match so with
    | Some s ->
      Hashtbl.replace bindings tid s;
      if not had then Atomic.incr live
    | None ->
      if had then begin
        Hashtbl.remove bindings tid;
        Atomic.decr live
      end);
    Mutex.unlock bm

  let with_binding so f =
    match (so, Atomic.get live) with
    | None, 0 -> f ()
    | _ ->
      let tid = self_id () in
      Mutex.lock bm;
      let prev = Hashtbl.find_opt bindings tid in
      Mutex.unlock bm;
      set_binding tid so;
      Fun.protect f ~finally:(fun () -> set_binding tid prev)

  let with_scope s f = with_binding (Some s) f

  let counter_deltas s =
    Mutex.lock s.sm;
    let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.tally_tbl [] in
    Mutex.unlock s.sm;
    List.sort (fun (a, _) (b, _) -> String.compare a b) l

  let events s =
    Mutex.lock s.sm;
    let evs = s.sevs in
    Mutex.unlock s.sm;
    List.sort
      (fun a b ->
        match Int64.compare a.ts_ns b.ts_ns with
        | 0 -> compare (a.tid, a.depth) (b.tid, b.depth)
        | c -> c)
      evs

  let phase_totals s =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun e ->
        if String.equal e.cat "phase" then
          Hashtbl.replace tbl e.name
            (Option.value (Hashtbl.find_opt tbl e.name) ~default:0.
            +. (Int64.to_float e.dur_ns /. 1e9)))
      (events s);
    Hashtbl.fold (fun name sec acc -> (name, sec) :: acc) tbl []
    |> List.sort (fun (an, a) (bn, b) ->
           match compare b a with 0 -> String.compare an bn | c -> c)

  (* A per-request Chrome trace: the scope's spans plus its counter
     deltas, self-contained enough for chrome://tracing. *)
  let to_chrome_json s =
    let evs = events s in
    let cs = counter_deltas s in
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\"traceEvents\": [\n";
    List.iteri
      (fun i e ->
        Buffer.add_string b
          (Printf.sprintf
             "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \
              \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}%s\n"
             (json_escape e.name) (json_escape e.cat) e.tid (us e.ts_ns)
             (us e.dur_ns)
             (if i = List.length evs - 1 then "" else ",")))
      evs;
    Buffer.add_string b "],\n\"displayTimeUnit\": \"ms\",\n";
    Buffer.add_string b
      (Printf.sprintf "\"xboundRequest\": \"%s\",\n\"xboundCounters\": {"
         (json_escape s.sid));
    List.iteri
      (fun i (name, v) ->
        Buffer.add_string b
          (Printf.sprintf "%s\"%s\": %d"
             (if i = 0 then "" else ", ")
             (json_escape name) v))
      cs;
    Buffer.add_string b "}}\n";
    Buffer.contents b
end

(* ---------------- counters ---------------- *)

module Counter = struct
  type c = { cname : string; v : int Atomic.t }

  let registry : (string, c) Hashtbl.t = Hashtbl.create 32
  let rm = Mutex.create ()

  let make cname =
    Mutex.lock rm;
    let c =
      match Hashtbl.find_opt registry cname with
      | Some c -> c
      | None ->
        let c = { cname; v = Atomic.make 0 } in
        Hashtbl.add registry cname c;
        c
    in
    Mutex.unlock rm;
    c

  let incr c =
    if enabled () then begin
      Atomic.incr c.v;
      Scope.tally c.cname 1
    end

  let add c n =
    if enabled () then begin
      ignore (Atomic.fetch_and_add c.v n);
      Scope.tally c.cname n
    end

  let value c = Atomic.get c.v
  let name c = c.cname
end

let counters () =
  Mutex.lock Counter.rm;
  let l =
    Hashtbl.fold
      (fun name c acc -> (name, Atomic.get c.Counter.v) :: acc)
      Counter.registry []
  in
  Mutex.unlock Counter.rm;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let diff ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before) ~default:0 in
      if v - v0 <> 0 then Some (name, v - v0) else None)
    after

(* ---------------- gauges ---------------- *)

module Gauge = struct
  type g = { gname : string; v : int Atomic.t }

  let registry : (string, g) Hashtbl.t = Hashtbl.create 16
  let rm = Mutex.create ()

  let make gname =
    Mutex.lock rm;
    let g =
      match Hashtbl.find_opt registry gname with
      | Some g -> g
      | None ->
        let g = { gname; v = Atomic.make 0 } in
        Hashtbl.add registry gname g;
        g
    in
    Mutex.unlock rm;
    g

  (* Gauges are current state, not accumulated work: they stay live
     even without an ambient sink so a snapshot taken later still sees
     the true queue depth / worker count. *)
  let set g n = Atomic.set g.v n
  let add g n = ignore (Atomic.fetch_and_add g.v n)
  let value g = Atomic.get g.v
  let name g = g.gname
end

let gauges () =
  Mutex.lock Gauge.rm;
  let l =
    Hashtbl.fold
      (fun name g acc -> (name, Atomic.get g.Gauge.v) :: acc)
      Gauge.registry []
  in
  Mutex.unlock Gauge.rm;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

(* ---------------- histograms ---------------- *)

module Histogram = struct
  type h = {
    hname : string;
    bucket : int Atomic.t array;  (* index = log2 of the observation *)
    count : int Atomic.t;
    sum_ns : int Atomic.t;
    max_ns : int Atomic.t;
  }

  let registry : (string, h) Hashtbl.t = Hashtbl.create 16
  let rm = Mutex.create ()

  let make hname =
    Mutex.lock rm;
    let h =
      match Hashtbl.find_opt registry hname with
      | Some h -> h
      | None ->
        let h =
          {
            hname;
            bucket = Array.init 64 (fun _ -> Atomic.make 0);
            count = Atomic.make 0;
            sum_ns = Atomic.make 0;
            max_ns = Atomic.make 0;
          }
        in
        Hashtbl.add registry hname h;
        h
    in
    Mutex.unlock rm;
    h

  let name h = h.hname

  let log2i n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n

  let rec store_max a v =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then store_max a v

  let observe h ns =
    if enabled () then begin
      let n = Int64.to_int (Int64.max 0L ns) in
      Atomic.incr h.bucket.(log2i n);
      Atomic.incr h.count;
      ignore (Atomic.fetch_and_add h.sum_ns n);
      store_max h.max_ns n
    end

  let totals h =
    ( Atomic.get h.count,
      Int64.of_int (Atomic.get h.sum_ns),
      Int64.of_int (Atomic.get h.max_ns) )

  (* Inclusive upper edge of bucket [i] = 2^(i+1)-1: bucket 0 holds
     observations 0..1, bucket i>=1 holds 2^i..2^(i+1)-1. *)
  let bucket_upper i =
    if i >= 62 then Int64.max_int
    else Int64.sub (Int64.shift_left 1L (i + 1)) 1L

  let buckets h =
    let acc = ref [] in
    for i = Array.length h.bucket - 1 downto 0 do
      let n = Atomic.get h.bucket.(i) in
      if n > 0 then acc := (bucket_upper i, n) :: !acc
    done;
    !acc

  (* Upper edge of the bucket containing the q-quantile observation,
     clamped to the recorded maximum — an upper bound on the true
     percentile, tight to within the bucket's 2x resolution. *)
  let percentile h q =
    let total = Atomic.get h.count in
    if total = 0 then 0L
    else begin
      let rank =
        max 1 (int_of_float (Float.round (q *. float_of_int total)))
      in
      let i = ref 0 and seen = ref 0 in
      while
        !i < Array.length h.bucket
        &&
        (seen := !seen + Atomic.get h.bucket.(!i);
         !seen < rank)
      do
        incr i
      done;
      Int64.min (bucket_upper !i) (Int64.of_int (Atomic.get h.max_ns))
    end

  let all () =
    Mutex.lock rm;
    let l = Hashtbl.fold (fun _ h acc -> h :: acc) registry [] in
    Mutex.unlock rm;
    List.sort (fun a b -> String.compare a.hname b.hname) l
end

(* ---------------- spans ---------------- *)

let span ?(cat = "phase") name f =
  match Atomic.get the_ambient with
  | None -> f ()
  | Some t ->
    let buf = buffer_for t in
    let t0 = Monotonic_clock.now () in
    buf.depth <- buf.depth + 1;
    let depth = buf.depth in
    Atomic.incr active_spans;
    Fun.protect f ~finally:(fun () ->
        let t1 = Monotonic_clock.now () in
        buf.depth <- buf.depth - 1;
        Atomic.decr active_spans;
        let dur_ns = Int64.sub t1 t0 in
        let e =
          { name; cat; tid = buf.tid; ts_ns = Int64.sub t0 t.origin; dur_ns;
            depth }
        in
        if t.retain_events then buf.evs <- e :: buf.evs;
        (match Scope.active () with
        | Some s -> Scope.record s e
        | None -> ());
        (* Completed-span aggregate: what snapshots report even when the
           sink drops events (the long-lived daemon). *)
        Histogram.observe
          (Histogram.make (Printf.sprintf "span.%s.%s_ns" cat name))
          dur_ns)

let events t =
  Mutex.lock t.m;
  let bufs = t.buffers in
  Mutex.unlock t.m;
  List.concat_map (fun b -> b.evs) bufs
  |> List.sort (fun a b ->
         match Int64.compare a.ts_ns b.ts_ns with
         | 0 -> compare (a.tid, a.depth) (b.tid, b.depth)
         | c -> c)

(* ---------------- export ---------------- *)

(* Chrome trace-event format (the JSON-array flavour inside an object):
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU *)
let to_chrome_json t =
  let evs = events t in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  let tids =
    List.sort_uniq compare
      (t.main_tid :: List.map (fun (e : event) -> e.tid) evs)
  in
  List.iter
    (fun tid ->
      Buffer.add_string b
        (Printf.sprintf
           "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": \
            %d, \"args\": {\"name\": \"%s\"}},\n"
           tid
           (if tid = t.main_tid then Printf.sprintf "main (domain %d)" tid
            else Printf.sprintf "domain %d" tid)))
    tids;
  let cs = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  let last_ts = ref 0L in
  List.iteri
    (fun i e ->
      let fin = Int64.add e.ts_ns e.dur_ns in
      if fin > !last_ts then last_ts := fin;
      Buffer.add_string b
        (Printf.sprintf
           "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \
            \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}%s\n"
           (json_escape e.name) (json_escape e.cat) e.tid (us e.ts_ns)
           (us e.dur_ns)
           (if i = List.length evs - 1 && cs = [] then "" else ",")))
    evs;
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b
        (Printf.sprintf
           "  {\"name\": \"%s\", \"cat\": \"counter\", \"ph\": \"C\", \"pid\": \
            1, \"tid\": %d, \"ts\": %.3f, \"args\": {\"value\": %d}}%s\n"
           (json_escape name) t.main_tid (us !last_ts) v
           (if i = List.length cs - 1 then "" else ",")))
    cs;
  Buffer.add_string b "],\n\"displayTimeUnit\": \"ms\",\n\"xboundCounters\": {";
  (* the summary object lists every registered counter, zeros included:
     "pool.spawn": 0 is information (nothing ran in parallel), absence
     is not *)
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string b
        (Printf.sprintf "%s\"%s\": %d" (if i = 0 then "" else ", ")
           (json_escape name) v))
    (counters ());
  Buffer.add_string b "}}\n";
  Buffer.contents b

let write_chrome t ~file =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (to_chrome_json t))

(* Total seconds and count per [key e], over the events [keep]s. *)
let totals_by ~keep ~key t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if keep e then begin
        let k = key e in
        let s, n = Option.value (Hashtbl.find_opt tbl k) ~default:(0., 0) in
        Hashtbl.replace tbl k (s +. (Int64.to_float e.dur_ns /. 1e9), n + 1)
      end)
    (events t);
  Hashtbl.fold (fun k sn acc -> (k, sn) :: acc) tbl []
  |> List.sort (fun (an, (a, _)) (bn, (b, _)) ->
         match compare b a with 0 -> String.compare an bn | c -> c)

let span_totals ?cat t =
  totals_by t
    ~keep:(fun e ->
      match cat with None -> true | Some c -> String.equal c e.cat)
    ~key:(fun e -> e.name)

let phase_totals t =
  List.map (fun (name, (s, _)) -> (name, s)) (span_totals ~cat:"phase" t)

let tid_busy t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if String.equal e.cat "pool" then
        Hashtbl.replace tbl e.tid
          (Option.value (Hashtbl.find_opt tbl e.tid) ~default:0.
          +. (Int64.to_float e.dur_ns /. 1e9)))
    (events t);
  Hashtbl.fold (fun tid s acc -> (tid, s) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let stats_summary t =
  let b = Buffer.create 1024 in
  let wall = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t.origin) /. 1e9 in
  Buffer.add_string b (Printf.sprintf "telemetry (wall %.3f s)\n" wall);
  (* Keyed by category too: a phase and a span nested in it may share a
     name (phase.explore holds the sym.explore tasks), and summing them
     would count the same time twice. *)
  (match
     totals_by t ~keep:(fun _ -> true) ~key:(fun e -> e.cat ^ "." ^ e.name)
   with
  | [] -> ()
  | totals ->
    Buffer.add_string b "  spans (total s, count):\n";
    List.iter
      (fun (name, (s, n)) ->
        Buffer.add_string b (Printf.sprintf "    %-32s %9.4f  %6d\n" name s n))
      totals);
  (match tid_busy t with
  | [] -> ()
  | busy ->
    Buffer.add_string b "  pool busy per domain:\n";
    List.iter
      (fun (tid, s) ->
        Buffer.add_string b
          (Printf.sprintf "    domain %-4d %9.4f s (%.0f%%)\n" tid s
             (if wall > 0. then 100. *. s /. wall else 0.)))
      busy);
  (match List.filter (fun (_, v) -> v <> 0) (counters ()) with
  | [] -> ()
  | cs ->
    Buffer.add_string b "  counters:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string b (Printf.sprintf "    %-32s %d\n" name v))
      cs);
  (* Unit-aware histogram lines: *_ns histograms are nanosecond
     distributions (printed in ms); anything else is a count
     distribution (printed as integers). *)
  List.iter
    (fun h ->
      let count, sum, mx = Histogram.totals h in
      if count > 0 then
        let hname = h.Histogram.hname in
        if String.ends_with ~suffix:"_ns" hname then
          let ms ns = Int64.to_float ns /. 1e6 in
          Buffer.add_string b
            (Printf.sprintf
               "  histogram %-24s %d obs, mean %.3f ms, p50 %.3f ms, p99 %.3f \
                ms, max %.3f ms\n"
               hname count
               (Int64.to_float sum /. 1e6 /. float_of_int count)
               (ms (Histogram.percentile h 0.50))
               (ms (Histogram.percentile h 0.99))
               (ms mx))
        else
          Buffer.add_string b
            (Printf.sprintf
               "  histogram %-24s %d obs, mean %.1f, p50 %Ld, p99 %Ld, max \
                %Ld (count)\n"
               hname count
               (Int64.to_float sum /. float_of_int count)
               (Histogram.percentile h 0.50)
               (Histogram.percentile h 0.99)
               mx))
    (Histogram.all ());
  Buffer.contents b

(* ---------------- snapshots ---------------- *)

let rss_bytes () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
  with
  | exception _ -> 0
  | s ->
    let line =
      List.find_opt
        (fun l -> String.length l >= 6 && String.sub l 0 6 = "VmRSS:")
        (String.split_on_char '\n' s)
    in
    (match line with
    | None -> 0
    | Some l -> (
      try Scanf.sscanf l "VmRSS: %d kB" (fun kb -> kb * 1024)
      with _ -> 0))

module Snapshot = struct
  type histo = {
    hname : string;
    count : int;
    sum_ns : int64;
    max_ns : int64;
    p50 : int64;
    p90 : int64;
    p99 : int64;
    buckets : (int64 * int) list;
  }

  type snap = {
    taken_ns : int64;
    uptime_s : float;
    rss_bytes : int;
    active_spans : int;
    counters : (string * int) list;
    gauges : (string * int) list;
    histograms : histo list;
  }

  type t = snap

  let percentile_of ~buckets ~count q =
    if count <= 0 then 0L
    else begin
      let rank =
        max 1 (int_of_float (Float.round (q *. float_of_int count)))
      in
      let rec go seen = function
        | [] -> 0L
        | (upper, n) :: tl ->
          if seen + n >= rank then upper else go (seen + n) tl
      in
      go 0 buckets
    end

  let take () =
    let histograms =
      List.filter_map
        (fun h ->
          let count, sum_ns, max_ns = Histogram.totals h in
          if count = 0 then None
          else
            Some
              {
                hname = Histogram.name h;
                count;
                sum_ns;
                max_ns;
                p50 = Histogram.percentile h 0.50;
                p90 = Histogram.percentile h 0.90;
                p99 = Histogram.percentile h 0.99;
                buckets = Histogram.buckets h;
              })
        (Histogram.all ())
    in
    let now = Monotonic_clock.now () in
    {
      taken_ns = now;
      uptime_s = Int64.to_float (Int64.sub now process_origin) /. 1e9;
      rss_bytes = rss_bytes ();
      active_spans = Atomic.get active_spans;
      counters = counters ();
      gauges = gauges ();
      histograms;
    }

  (* Counter and histogram deltas over the window; gauges, rss and
     active-span count are instantaneous so the [after] values stand.
     [uptime_s] of a diff is the window length, so rates are
     [delta / uptime_s]. *)
  let diff ~before ~after =
    let counters = diff ~before:before.counters ~after:after.counters in
    let histograms =
      List.filter_map
        (fun ha ->
          let h0 =
            List.find_opt (fun h -> String.equal h.hname ha.hname)
              before.histograms
          in
          let count0, sum0, buckets0 =
            match h0 with
            | None -> (0, 0L, [])
            | Some h -> (h.count, h.sum_ns, h.buckets)
          in
          let count = ha.count - count0 in
          if count <= 0 then None
          else begin
            let buckets =
              List.filter_map
                (fun (u, n) ->
                  let n0 =
                    Option.value (List.assoc_opt u buckets0) ~default:0
                  in
                  if n - n0 > 0 then Some (u, n - n0) else None)
                ha.buckets
            in
            Some
              {
                hname = ha.hname;
                count;
                sum_ns = Int64.sub ha.sum_ns sum0;
                max_ns = ha.max_ns;
                p50 = percentile_of ~buckets ~count 0.50;
                p90 = percentile_of ~buckets ~count 0.90;
                p99 = percentile_of ~buckets ~count 0.99;
                buckets;
              }
          end)
        after.histograms
    in
    {
      taken_ns = after.taken_ns;
      uptime_s = after.uptime_s -. before.uptime_s;
      rss_bytes = after.rss_bytes;
      active_spans = after.active_spans;
      counters;
      gauges = after.gauges;
      histograms;
    }

  (* Prometheus text exposition: a sanitized [xbound_]-prefixed metric
     per counter (`_total`), gauge, and histogram (cumulative `le`
     buckets + `_sum`/`_count`; nanosecond histograms exported in
     seconds per Prometheus base-unit convention). *)
  let metric_name s =
    let b = Bytes.of_string s in
    Bytes.iteri
      (fun i c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
        | _ -> Bytes.set b i '_')
      b;
    "xbound_" ^ Bytes.to_string b

  let to_prometheus t =
    let b = Buffer.create 4096 in
    let gauge name v =
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name v)
    in
    gauge "xbound_uptime_seconds" (Printf.sprintf "%.6f" t.uptime_s);
    gauge "xbound_rss_bytes" (string_of_int t.rss_bytes);
    gauge "xbound_active_spans" (string_of_int t.active_spans);
    List.iter
      (fun (name, v) ->
        let m = metric_name name ^ "_total" in
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s counter\n%s %d\n" m m v))
      t.counters;
    List.iter
      (fun (name, v) -> gauge (metric_name name) (string_of_int v))
      t.gauges;
    List.iter
      (fun h ->
        let in_seconds = String.ends_with ~suffix:"_ns" h.hname in
        let m =
          if in_seconds then
            metric_name
              (String.sub h.hname 0 (String.length h.hname - 3) ^ "_seconds")
          else metric_name h.hname
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" m);
        let le upper =
          if in_seconds then
            Printf.sprintf "%.9g" (Int64.to_float upper /. 1e9)
          else Int64.to_string upper
        in
        let cum = ref 0 in
        List.iter
          (fun (upper, n) ->
            cum := !cum + n;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m (le upper) !cum))
          h.buckets;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m h.count);
        if in_seconds then
          Buffer.add_string b
            (Printf.sprintf "%s_sum %.9f\n" m
               (Int64.to_float h.sum_ns /. 1e9))
        else
          Buffer.add_string b (Printf.sprintf "%s_sum %Ld\n" m h.sum_ns);
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" m h.count))
      t.histograms;
    Buffer.contents b
end
