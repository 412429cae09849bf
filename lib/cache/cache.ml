(* Content-addressed, two-layer (memory LRU + disk) result cache with
   single-flight memoization. See cache.mli for the contract. *)

module Key = struct
  type t = string

  let of_string s = Digest.to_hex (Digest.string s)
  let of_value v = Digest.to_hex (Digest.string (Marshal.to_string v []))
  let combine parts = of_string (String.concat "\x00" parts)
end

let format_version = 1
let magic = "XBCACHE\x01"

(* Telemetry mirrors of the per-cache counters (process-wide, no-ops
   unless a sink is installed), plus a histogram of how long callers
   block on another domain's in-flight computation. *)
let c_mem_hits = Telemetry.Counter.make "cache.mem_hits"
let c_disk_hits = Telemetry.Counter.make "cache.disk_hits"
let c_misses = Telemetry.Counter.make "cache.misses"
let c_stores = Telemetry.Counter.make "cache.stores"
let c_evictions = Telemetry.Counter.make "cache.evictions"
let c_corrupt = Telemetry.Counter.make "cache.corrupt"
let c_joined = Telemetry.Counter.make "cache.joined"
let h_wait = Telemetry.Histogram.make "cache.wait_ns"

(* The resident memory layer, summed over every live cache in the
   process: updated by deltas on insert, evict and clear, and taken
   back when a cache is collected. *)
let g_mem_entries = Telemetry.Gauge.make "cache.mem_entries"
let g_mem_bytes = Telemetry.Gauge.make "cache.mem_bytes"

let mem_budget_bytes = 4 * 1024 * 1024

(* What one resident entry costs beyond its key and value: the entry
   record, its table binding and slot. Keeps the number of tiny
   entries bounded under the byte budget too. *)
let entry_overhead_bytes = 128

type counters = {
  mutable mem_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable joined : int;
}

(* Intrusive doubly-linked LRU list; [head] is most recently used.
   [weight] is the entry's bytes (0 under a count bound). *)
type entry = {
  ekey : string;
  value : Obj.t;
  weight : int;
  mutable prev : entry option;  (* toward head *)
  mutable next : entry option;  (* toward tail *)
}

(* One computation of a key. Its caller sets [result] on publish, so
   the callers waiting on it get the value even when it is too heavy
   to stay resident. *)
type flight = { mutable result : Obj.t option }

type slot = Ready of entry | In_flight of flight

(* The memory layer holds at most [Entries n] values, or values
   weighing at most [Bytes b] in all. *)
type bound = Entries of int | Bytes of int

type t = {
  dir_ : string option;
  bound : bound;
  table : (string, slot) Hashtbl.t;
  mutable head : entry option;
  mutable tail : entry option;
  mutable count : int;
  mutable bytes : int;
  m : Mutex.t;
  cv : Condition.t;
  c : counters;
}

let create ?dir ?mem_entries () =
  let t =
    {
      dir_ = dir;
      bound =
        (match mem_entries with
        | Some n -> Entries (max 1 n)
        | None -> Bytes mem_budget_bytes);
      table = Hashtbl.create 64;
      head = None;
      tail = None;
      count = 0;
      bytes = 0;
      m = Mutex.create ();
      cv = Condition.create ();
      c =
        {
          mem_hits = 0;
          disk_hits = 0;
          misses = 0;
          stores = 0;
          evictions = 0;
          corrupt = 0;
          joined = 0;
        };
    }
  in
  Gc.finalise
    (fun t ->
      Telemetry.Gauge.add g_mem_entries (-t.count);
      Telemetry.Gauge.add g_mem_bytes (-t.bytes))
    t;
  t

let dir t = t.dir_
let counters t = t.c

let mem_stats t =
  Mutex.lock t.m;
  let s = (t.count, t.bytes) in
  Mutex.unlock t.m;
  s

let reset_counters t =
  Mutex.lock t.m;
  t.c.mem_hits <- 0;
  t.c.disk_hits <- 0;
  t.c.misses <- 0;
  t.c.stores <- 0;
  t.c.evictions <- 0;
  t.c.corrupt <- 0;
  t.c.joined <- 0;
  Mutex.unlock t.m

let counters_json t =
  Printf.sprintf
    "{\"mem_hits\": %d, \"disk_hits\": %d, \"misses\": %d, \"stores\": %d, \
     \"evictions\": %d, \"corrupt\": %d, \"joined\": %d}"
    t.c.mem_hits t.c.disk_hits t.c.misses t.c.stores t.c.evictions t.c.corrupt
    t.c.joined

let default_dir () =
  match Sys.getenv_opt "XBOUND_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "xbound"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "xbound"
      | _ -> "_xbound_cache"))

(* ---------------- LRU list (all under t.m) ---------------- *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let touch t e =
  if t.head != Some e then begin
    unlink t e;
    push_front t e
  end

let account t entries bytes =
  t.count <- t.count + entries;
  t.bytes <- t.bytes + bytes;
  Telemetry.Gauge.add g_mem_entries entries;
  Telemetry.Gauge.add g_mem_bytes bytes

(* Take [e] out of the list and the table. *)
let drop t e =
  unlink t e;
  Hashtbl.remove t.table e.ekey;
  account t (-1) (-e.weight)

let over t =
  match t.bound with Entries n -> t.count > n | Bytes b -> t.bytes > b

(* A value heavier than the whole budget is not retained: keeping it
   would evict everything else and still not fit. *)
let retains t weight =
  match t.bound with Entries _ -> true | Bytes b -> weight <= b

(* The bytes an entry is charged: its key, the fixed overhead, and the
   value's marshaled length when the disk layer measured it, else its
   heap size. Under a count bound entries are not weighed. *)
let weigh t full_key ~payload v =
  match t.bound with
  | Entries _ -> 0
  | Bytes _ ->
    let value_bytes =
      match payload with
      | Some n -> n
      | None -> Obj.reachable_words v * (Sys.word_size / 8)
    in
    entry_overhead_bytes + String.length full_key + value_bytes

let insert_ready t full_key v weight =
  let e = { ekey = full_key; value = v; weight; prev = None; next = None } in
  Hashtbl.replace t.table full_key (Ready e);
  push_front t e;
  account t 1 weight;
  while over t do
    match t.tail with
    | None -> assert false (* [over] implies a resident entry *)
    | Some victim ->
      drop t victim;
      t.c.evictions <- t.c.evictions + 1;
      Telemetry.Counter.incr c_evictions
  done

(* ---------------- disk layer ---------------- *)

let rec mkdir_p d =
  if d = "" || d = "/" || d = "." || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Entries are sharded by the first two hex digits of the key
   (dir/ab/<ns>.abcd....v1), so 256 concurrent writers rename into 256
   directories instead of contending on one. *)
let shard_of key = if String.length key >= 2 then String.sub key 0 2 else "00"

let entry_name ~ns ~key = Printf.sprintf "%s.%s.v%d" ns key format_version

let entry_file dir ~ns ~key =
  Filename.concat (Filename.concat dir (shard_of key)) (entry_name ~ns ~key)

(* An on-disk entry is: magic, namespace (length-prefixed), the MD5 of
   the payload, then the marshaled payload. Anything that fails to read
   back — wrong magic, wrong namespace, digest mismatch, truncation,
   Marshal failure — is a miss; the bad file is deleted. A hit returns
   the value with its payload length. *)
let disk_load t ~ns ~key =
  match t.dir_ with
  | None -> None
  | Some dir -> (
    let file = entry_file dir ~ns ~key in
    if not (Sys.file_exists file) then None
    else
      let parse ic =
        let len = in_channel_length ic in
        let m = really_input_string ic (String.length magic) in
        if m <> magic then failwith "bad magic";
        let nslen = input_binary_int ic in
        if nslen <> String.length ns then failwith "bad ns";
        let file_ns = really_input_string ic nslen in
        if file_ns <> ns then failwith "bad ns";
        let digest = really_input_string ic 16 in
        let header = String.length magic + 4 + nslen + 16 in
        let payload = really_input_string ic (len - header) in
        if Digest.string payload <> digest then failwith "bad digest";
        (Marshal.from_string payload 0, String.length payload)
      in
      match
        Telemetry.span ~cat:"cache" "cache.disk_load" (fun () ->
            In_channel.with_open_bin file parse)
      with
      | v -> Some v
      | exception _ ->
        (try Sys.remove file with Sys_error _ -> ());
        Mutex.lock t.m;
        t.c.corrupt <- t.c.corrupt + 1;
        Mutex.unlock t.m;
        Telemetry.Counter.incr c_corrupt;
        None)

(* Atomic publish: write the full entry to a temp file in the same
   directory, then rename over the final name. A concurrent reader sees
   either no file or a complete one. Best-effort: a full disk or
   unwritable directory silently degrades to no persistence. Returns
   the payload length of a stored entry. *)
let disk_store t ~ns ~key v =
  match t.dir_ with
  | None -> None
  | Some dir -> (
    try
      let payload_len =
        Telemetry.span ~cat:"cache" "cache.disk_store" (fun () ->
          let file = entry_file dir ~ns ~key in
          let shard_dir = Filename.dirname file in
          mkdir_p shard_dir;
          let payload = Marshal.to_string v [] in
          let tmp = Filename.temp_file ~temp_dir:shard_dir "xbcache" ".tmp" in
          Out_channel.with_open_bin tmp (fun oc ->
              output_string oc magic;
              output_binary_int oc (String.length ns);
              output_string oc ns;
              output_string oc (Digest.string payload);
              output_string oc payload);
          Sys.rename tmp file;
          String.length payload)
      in
      Mutex.lock t.m;
      t.c.stores <- t.c.stores + 1;
      Mutex.unlock t.m;
      Telemetry.Counter.incr c_stores;
      Some payload_len
    with Sys_error _ | Sys_blocked_io -> None)

let is_hex s =
  String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let is_entry_name name =
  (* <ns>.<32-hex>.v<version> for the current format version *)
  match String.split_on_char '.' name with
  | [ _ns; digest; v ] ->
    v = Printf.sprintf "v%d" format_version
    && String.length digest = 32
    && is_hex digest
  | _ -> false

let is_shard_name name = String.length name = 2 && is_hex name

(* Every directory an entry name can sit in: each two-hex-digit shard
   subdirectory, plus the root, where versions before sharding wrote
   flat entries — nothing reads those any more, but [disk_stats] still
   shows them and [clear] deletes them. *)
let entry_dirs dir =
  if not (Sys.file_exists dir) then []
  else
    dir
    :: (Sys.readdir dir |> Array.to_list
       |> List.filter_map (fun name ->
              let sub = Filename.concat dir name in
              if
                is_shard_name name
                && (try Sys.is_directory sub with Sys_error _ -> false)
              then Some sub
              else None))

let disk_stats t =
  match t.dir_ with
  | None -> (0, 0)
  | Some dir ->
    List.fold_left
      (fun acc d ->
        Array.fold_left
          (fun (n, bytes) name ->
            if is_entry_name name then
              let sz =
                try
                  In_channel.with_open_bin (Filename.concat d name)
                    in_channel_length
                with Sys_error _ -> 0
              in
              (n + 1, bytes + sz)
            else (n, bytes))
          acc (Sys.readdir d))
      (0, 0) (entry_dirs dir)

(* Same walk as [disk_stats], bucketed by the namespace component of
   the entry name — one row per entry kind ("analysis", "symtree",
   "block", ...), so `cache stats` can show where the bytes live and
   namespace-scoped semantics stay auditable. *)
let disk_stats_by_ns t =
  match t.dir_ with
  | None -> []
  | Some dir ->
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun d ->
        Array.iter
          (fun name ->
            if is_entry_name name then
              match String.split_on_char '.' name with
              | ns :: _ ->
                let sz =
                  try
                    In_channel.with_open_bin (Filename.concat d name)
                      in_channel_length
                  with Sys_error _ -> 0
                in
                let n0, b0 =
                  Option.value (Hashtbl.find_opt tbl ns) ~default:(0, 0)
                in
                Hashtbl.replace tbl ns (n0 + 1, b0 + sz)
              | [] -> ())
          (Sys.readdir d))
      (entry_dirs dir);
    Hashtbl.fold (fun ns stats acc -> (ns, stats) :: acc) tbl []
    |> List.sort compare

let clear t =
  (match t.dir_ with
  | Some dir ->
    List.iter
      (fun d ->
        Array.iter
          (fun name ->
            if is_entry_name name then
              try Sys.remove (Filename.concat d name) with Sys_error _ -> ())
          (Sys.readdir d);
        (* drop shard directories once empty; the root stays *)
        if d <> dir then try Sys.rmdir d with Sys_error _ -> ())
      (entry_dirs dir)
  | None -> ());
  (* In-flight computations go with the entries: their waiters wake,
     and the next caller of a key computes it anew. *)
  Mutex.lock t.m;
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  account t (-t.count) (-t.bytes);
  Condition.broadcast t.cv;
  Mutex.unlock t.m

(* ---------------- memoization ---------------- *)

(* Under t.m: the value, from the table or from the computation this
   caller waited on ([`Value]), or the key claimed for this caller
   ([`Claimed flight]). A caller whose computation went away (abandoned,
   or dropped by [clear]) looks again. *)
let acquire t full_key =
  let wait_t0 = ref 0L in
  let observe_wait () =
    if Telemetry.enabled () then
      Telemetry.Histogram.observe h_wait (Int64.sub (Telemetry.now_ns ()) !wait_t0)
  in
  (* [waited]: the flight this caller last waited on *)
  let rec go waited =
    match waited with
    | Some { result = Some v } ->
      observe_wait ();
      `Value v
    | _ -> (
      match Hashtbl.find_opt t.table full_key with
      | Some (Ready e) ->
        touch t e;
        (* a caller that waited is already counted in [joined]; the
           counters partition memo calls *)
        if Option.is_none waited then begin
          t.c.mem_hits <- t.c.mem_hits + 1;
          Telemetry.Counter.incr c_mem_hits
        end
        else observe_wait ();
        `Value e.value
      | Some (In_flight fl) ->
        if Option.is_none waited then begin
          if Telemetry.enabled () then wait_t0 := Telemetry.now_ns ();
          t.c.joined <- t.c.joined + 1;
          Telemetry.Counter.incr c_joined
        end;
        Condition.wait t.cv t.m;
        go (Some fl)
      | None ->
        if Option.is_some waited then observe_wait ();
        let fl = { result = None } in
        Hashtbl.replace t.table full_key (In_flight fl);
        `Claimed fl)
  in
  go None

(* Hand [v] to this flight's waiters and make it the key's one entry,
   if it fits. A [Ready] binding already there — published by a
   computation that [clear] cut loose — is replaced, not duplicated;
   another caller's claim made after a [clear] is overwritten only by a
   retained value, so that its waiters and new callers still find
   something. *)
let publish t fl full_key v ~weight =
  Mutex.lock t.m;
  fl.result <- Some v;
  (match Hashtbl.find_opt t.table full_key with
  | Some (Ready old) -> drop t old
  | Some (In_flight f) when f == fl -> Hashtbl.remove t.table full_key
  | Some (In_flight _) | None -> ());
  if retains t weight then insert_ready t full_key v weight;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let abandon t fl full_key =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.table full_key with
  | Some (In_flight f) when f == fl -> Hashtbl.remove t.table full_key
  | _ -> ());
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let memo t ~ns ~key f =
  let full_key = ns ^ ":" ^ key in
  Mutex.lock t.m;
  match acquire t full_key with
  | `Value v ->
    Mutex.unlock t.m;
    Obj.obj v
  | `Claimed fl -> (
    Mutex.unlock t.m;
    let publish v payload =
      let r = Obj.repr v in
      publish t fl full_key r ~weight:(weigh t full_key ~payload r)
    in
    match disk_load t ~ns ~key with
    | Some (v, len) ->
      Mutex.lock t.m;
      t.c.disk_hits <- t.c.disk_hits + 1;
      Mutex.unlock t.m;
      Telemetry.Counter.incr c_disk_hits;
      publish v (Some len);
      v
    | None -> (
      Mutex.lock t.m;
      t.c.misses <- t.c.misses + 1;
      Mutex.unlock t.m;
      Telemetry.Counter.incr c_misses;
      match f () with
      | v ->
        publish v (disk_store t ~ns ~key v);
        v
      | exception e ->
        abandon t fl full_key;
        raise e))
