(* Tests for the content-addressed analysis cache: key discipline
   (binary / config / version perturbation), corruption tolerance,
   single-flight under the domain pool, cached-vs-fresh determinism,
   the namespace layout (the tree stored once, read only on demand),
   LRU eviction, and the memory layer's byte bound. *)

let tmpdir () =
  let d = Filename.temp_file "xbound-test-cache" "" in
  Sys.remove d;
  d

let rec rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f ->
        let p = Filename.concat d f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir d);
    Sys.rmdir d
  end

(* entry containers live under two-hex-digit shard subdirectories *)
let rec entry_files d =
  Sys.readdir d |> Array.to_list
  |> List.concat_map (fun f ->
         let p = Filename.concat d f in
         if Sys.is_directory p then entry_files p else [ p ])

let env =
  lazy
    (let cpu = Tsupport.the_cpu () in
     (cpu, Core.Analyze.poweran_for cpu))

(* A small program whose binary differs in one immediate word. *)
let image k =
  let open Benchprogs.Bench.E in
  Tsupport.assemble_body ~name:"cachetest"
    (prologue
    @ [
        mov (abs Benchprogs.Bench.input_base) (dreg 4);
        mov (imm k) (dreg 5);
        mov (reg 5) (dabs Benchprogs.Bench.output_base);
      ])

let config =
  { Core.Analyze.default_config with Core.Analyze.loop_bound = 4; max_paths = 64 }

let result_digest (a : Core.Analyze.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( a.Core.Analyze.peak_power,
            a.Core.Analyze.peak_index,
            a.Core.Analyze.peak_energy,
            a.Core.Analyze.power_trace )
          []))

(* ---------------- key discipline ---------------- *)

let test_key_perturbation () =
  let cpu, pa = Lazy.force env in
  let m = Core.Analyze.model pa cpu in
  let img = image 25 in
  let tk = Core.Analyze.tree_key config m img in
  let ck = Core.Analyze.cache_key ~config m img in
  (* flipping one immediate in the binary changes both key tiers *)
  let img' = image 26 in
  Alcotest.(check bool)
    "binary flip changes tree key" true
    (tk <> Core.Analyze.tree_key config m img');
  Alcotest.(check bool)
    "binary flip changes cache key" true
    (ck <> Core.Analyze.cache_key ~config m img');
  (* loop_bound is an Algorithm 2 knob: the exploration (tree) key must
     NOT move, the whole-analysis key must *)
  let config' = { config with Core.Analyze.loop_bound = 8 } in
  Alcotest.(check string)
    "loop_bound keeps the tree key" tk
    (Core.Analyze.tree_key config' m img);
  Alcotest.(check bool)
    "loop_bound changes the cache key" true
    (ck <> Core.Analyze.cache_key ~config:config' m img);
  (* an exploration knob moves both *)
  let config'' = { config with Core.Analyze.max_paths = 65 } in
  Alcotest.(check bool)
    "max_paths changes the tree key" true
    (tk <> Core.Analyze.tree_key config'' m img);
  (* bumping the code version invalidates everything *)
  let v = Core.Analyze.analysis_version + 1 in
  Alcotest.(check bool)
    "version bump changes the tree key" true
    (tk <> Core.Analyze.tree_key ~version:v config m img);
  Alcotest.(check bool)
    "version bump changes the cache key" true
    (ck <> Core.Analyze.cache_key ~version:v ~config m img)

let test_memo_hit_miss () =
  let c = Cache.create () in
  let calls = ref 0 in
  let f () = incr calls; [ 1; 2; 3 ] in
  let k = Cache.Key.of_string "a" in
  Alcotest.(check (list int)) "computed" [ 1; 2; 3 ] (Cache.memo c ~ns:"t" ~key:k f);
  Alcotest.(check (list int)) "memoized" [ 1; 2; 3 ] (Cache.memo c ~ns:"t" ~key:k f);
  Alcotest.(check int) "f ran once" 1 !calls;
  (* a different namespace or key is a distinct entry *)
  ignore (Cache.memo c ~ns:"u" ~key:k f);
  ignore (Cache.memo c ~ns:"t" ~key:(Cache.Key.of_string "b") f);
  Alcotest.(check int) "distinct entries recompute" 3 !calls;
  let ct = Cache.counters c in
  Alcotest.(check int) "misses" 3 ct.Cache.misses;
  Alcotest.(check int) "mem hits" 1 ct.Cache.mem_hits

let test_exception_not_stored () =
  let c = Cache.create () in
  let k = Cache.Key.of_string "boom" in
  (match Cache.memo c ~ns:"t" ~key:k (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "propagated" "boom" m);
  (* nothing was stored: the next call computes *)
  Alcotest.(check int) "recomputed after raise" 7
    (Cache.memo c ~ns:"t" ~key:k (fun () -> 7))

(* ---------------- determinism & disk round-trip ---------------- *)

let test_determinism_and_incremental () =
  let cpu, pa = Lazy.force env in
  let img = image 25 in
  let dir = tmpdir () in
  let fresh = Core.Analyze.run ~config pa cpu img in
  (* cold: populated through the cache, bit-identical to fresh *)
  let c1 = Cache.create ~dir () in
  let cold = Core.Analyze.run ~config ~cache:c1 pa cpu img in
  Alcotest.(check string)
    "cold = fresh" (result_digest fresh) (result_digest cold);
  Alcotest.(check int) "cold run misses all tiers" 3 (Cache.counters c1).Cache.misses;
  (* warm, new Cache.t on the same directory = fresh process: whole
     result served from disk, bit-identical *)
  let c2 = Cache.create ~dir () in
  let warm = Core.Analyze.run ~config ~cache:c2 pa cpu img in
  Alcotest.(check string)
    "warm = fresh" (result_digest fresh) (result_digest warm);
  Alcotest.(check int) "warm is one disk hit" 1 (Cache.counters c2).Cache.disk_hits;
  Alcotest.(check int) "warm recomputes nothing" 0 (Cache.counters c2).Cache.misses;
  (* changing loop_bound (an Algorithm 2 knob) must reuse the stored
     exploration tree and peak-power trace, and recompute the bounds *)
  let config' = { config with Core.Analyze.loop_bound = 8 } in
  let c3 = Cache.create ~dir () in
  let warm' = Core.Analyze.run ~config:config' ~cache:c3 pa cpu img in
  let fresh' = Core.Analyze.run ~config:config' pa cpu img in
  Alcotest.(check string)
    "incremental = fresh" (result_digest fresh') (result_digest warm');
  let ct = Cache.counters c3 in
  Alcotest.(check int) "tree + peak power reused from disk" 2 ct.Cache.disk_hits;
  Alcotest.(check int) "analysis recomputed" 1 ct.Cache.misses;
  (* clear removes every entry *)
  Cache.clear c3;
  Alcotest.(check (pair int int)) "cleared" (0, 0) (Cache.disk_stats c3);
  rm_rf dir

(* ---------------- the tree lives once, under symtree ---------------- *)

let tree_digest (tree : Gatesim.Trace.tree) =
  Digest.to_hex (Digest.string (Marshal.to_string tree []))

let test_layout () =
  let cpu, pa = Lazy.force env in
  let img = image 25 in
  let dir = tmpdir () in
  ignore (Core.Analyze.run ~config ~cache:(Cache.create ~dir ()) pa cpu img);
  let rows = Cache.disk_stats_by_ns (Cache.create ~dir ()) in
  Alcotest.(check (list string))
    "one entry per namespace, no peak-energy"
    [ "analysis"; "peak-power"; "symtree" ]
    (List.map fst rows);
  let bytes ns = snd (List.assoc ns rows) in
  let total = List.fold_left (fun acc (_, (_, b)) -> acc + b) 0 rows in
  Alcotest.(check bool)
    (Printf.sprintf "symtree holds >= 95%% of the bytes (%d of %d)"
       (bytes "symtree") total)
    true
    (float_of_int (bytes "symtree") >= 0.95 *. float_of_int total);
  rm_rf dir

let test_tree_on_demand () =
  let cpu, pa = Lazy.force env in
  let img = image 25 in
  let dir = tmpdir () in
  let fresh = Core.Analyze.run ~config pa cpu img in
  let fresh_tree = tree_digest (Core.Analyze.tree fresh) in
  ignore (Core.Analyze.run ~config ~cache:(Cache.create ~dir ()) pa cpu img);
  (* a warm process reads the bounds alone *)
  let c = Cache.create ~dir () in
  let warm = Core.Analyze.run ~config ~cache:c pa cpu img in
  Alcotest.(check string)
    "warm bounds = fresh" (result_digest fresh) (result_digest warm);
  Alcotest.(check int) "warm is one disk hit" 1 (Cache.counters c).Cache.disk_hits;
  Alcotest.(check int) "warm misses nothing" 0 (Cache.counters c).Cache.misses;
  (* the tree is read only when asked for *)
  Alcotest.(check string)
    "loaded tree = fresh tree" fresh_tree
    (tree_digest (Core.Analyze.tree warm));
  Alcotest.(check int) "tree is the second disk hit" 2
    (Cache.counters c).Cache.disk_hits;
  Alcotest.(check int) "still no miss" 0 (Cache.counters c).Cache.misses;
  (* with the symtree entry gone, the accessor re-explores the same tree *)
  List.iter
    (fun f ->
      if String.starts_with ~prefix:"symtree." (Filename.basename f) then
        Sys.remove f)
    (entry_files dir);
  let c' = Cache.create ~dir () in
  let warm' = Core.Analyze.run ~config ~cache:c' pa cpu img in
  Alcotest.(check string)
    "re-explored tree = fresh tree" fresh_tree
    (tree_digest (Core.Analyze.tree warm'));
  Alcotest.(check int) "re-exploration is the one miss" 1
    (Cache.counters c').Cache.misses;
  rm_rf dir

(* Explain needs the cycles: on a small memory layer the tree has left
   memory by the time the report asks for it, and comes back from
   disk. *)
let test_explain_reloads_tree () =
  let prog = Xbound.of_image ~name:"cachetest" ~loop_bound:4 ~max_paths:64 (image 25) in
  let report ctx =
    match Xbound.analyze ~ctx prog with
    | Error e -> Alcotest.fail (Xbound.Error.to_string e)
    | Ok a -> Xbound.explain ~ctx a
  in
  let fresh = report (Xbound.Ctx.create ()) in
  let dir = tmpdir () in
  let cache = Cache.create ~dir ~mem_entries:2 () in
  let cached = report (Xbound.Ctx.create ~cache ()) in
  let ct = Cache.counters cache in
  Alcotest.(check bool) "symtree evicted from memory" true (ct.Cache.evictions >= 1);
  Alcotest.(check int) "tree reloaded from disk" 1 ct.Cache.disk_hits;
  Alcotest.(check int) "nothing re-explored" 3 ct.Cache.misses;
  Alcotest.(check string) "table = fresh"
    (Explain.Report.to_table fresh) (Explain.Report.to_table cached);
  Alcotest.(check string) "json = fresh"
    (Explain.Report.to_json_string fresh)
    (Explain.Report.to_json_string cached);
  rm_rf dir

(* ---------------- corruption tolerance ---------------- *)

let test_corrupted_entry_is_a_miss () =
  let dir = tmpdir () in
  let k = Cache.Key.of_string "payload" in
  let c1 = Cache.create ~dir () in
  Alcotest.(check (list int)) "stored" [ 1; 2; 3 ]
    (Cache.memo c1 ~ns:"t" ~key:k (fun () -> [ 1; 2; 3 ]));
  let files = entry_files dir in
  Alcotest.(check int) "one entry on disk" 1 (List.length files);
  (* garble the container in place *)
  let path = List.hd files in
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  output_string oc "garbage-garbage-garbage";
  close_out oc;
  (* a fresh process must treat it as a miss, recompute, and repair *)
  let c2 = Cache.create ~dir () in
  Alcotest.(check (list int)) "recomputed" [ 9 ]
    (Cache.memo c2 ~ns:"t" ~key:k (fun () -> [ 9 ]));
  let ct = Cache.counters c2 in
  Alcotest.(check int) "corrupt entry counted" 1 ct.Cache.corrupt;
  Alcotest.(check int) "recomputed as a miss" 1 ct.Cache.misses;
  (* the repaired entry round-trips again *)
  let c3 = Cache.create ~dir () in
  Alcotest.(check (list int)) "repaired" [ 9 ]
    (Cache.memo c3 ~ns:"t" ~key:k (fun () -> [ 0 ]));
  Cache.clear c3;
  rm_rf dir

(* Entries live only in their shard. A flat entry in the root, where
   versions before sharding wrote them, is never read, but stats count
   it and clear deletes it. *)
let test_flat_entries_not_read () =
  let dir = tmpdir () in
  let k = Cache.Key.of_string "flat" in
  let c1 = Cache.create ~dir () in
  ignore (Cache.memo c1 ~ns:"t" ~key:k (fun () -> 1));
  let sharded = List.hd (entry_files dir) in
  let flat = Filename.concat dir (Filename.basename sharded) in
  Sys.rename sharded flat;
  let c2 = Cache.create ~dir () in
  Alcotest.(check (pair int bool)) "stats count the flat entry" (1, true)
    (let n, bytes = Cache.disk_stats c2 in (n, bytes > 0));
  Alcotest.(check int) "a flat entry is a miss" 2
    (Cache.memo c2 ~ns:"t" ~key:k (fun () -> 2));
  Alcotest.(check bool) "and stays where it was" true (Sys.file_exists flat);
  Cache.clear c2;
  Alcotest.(check (pair int int)) "clear removes both" (0, 0) (Cache.disk_stats c2);
  Alcotest.(check bool) "flat file deleted" false (Sys.file_exists flat);
  rm_rf dir

(* ---------------- single-flight under the domain pool ---------------- *)

let test_single_flight () =
  let c = Cache.create () in
  let pool = Parallel.Pool.create ~jobs:4 in
  let runs = Atomic.make 0 in
  let k = Cache.Key.of_string "flight" in
  let tasks = List.init 8 (fun i -> i) in
  let results =
    Parallel.Pool.map_list pool
      (fun _ ->
        Cache.memo c ~ns:"t" ~key:k (fun () ->
            Atomic.incr runs;
            (* hold the computation open so other domains arrive while
               it is in flight *)
            Unix.sleepf 0.05;
            42))
      tasks
  in
  Alcotest.(check (list int)) "all callers get the value"
    (List.map (fun _ -> 42) tasks)
    results;
  Alcotest.(check int) "computation ran exactly once" 1 (Atomic.get runs);
  let ct = Cache.counters c in
  Alcotest.(check int) "one miss" 1 ct.Cache.misses;
  Alcotest.(check int) "everyone else joined or hit" 7
    (ct.Cache.mem_hits + ct.Cache.joined)

(* ---------------- LRU eviction ---------------- *)

let test_lru_eviction () =
  let c = Cache.create ~mem_entries:2 () in
  let key i = Cache.Key.of_string (string_of_int i) in
  let calls = ref 0 in
  let get i = Cache.memo c ~ns:"t" ~key:(key i) (fun () -> incr calls; i) in
  ignore (get 0);
  ignore (get 1);
  ignore (get 2);
  (* capacity 2: key 0 fell off the tail *)
  Alcotest.(check int) "eviction counted" 1 (Cache.counters c).Cache.evictions;
  Alcotest.(check int) "evicted key recomputes" 0 (get 0);
  Alcotest.(check int) "four computations" 4 !calls;
  (* key 2 stayed resident through the re-insert of 0 *)
  ignore (get 2);
  Alcotest.(check int) "resident key is a hit" 4 !calls

(* ---------------- the byte bound ---------------- *)

let budget = Cache.mem_budget_bytes

(* Memory-only values whose weights are known up to the small per-entry
   overhead: a quarter-budget string, and so on. *)
let string_cache () =
  let c = Cache.create () in
  let calls = ref 0 in
  let get i n =
    Cache.memo c ~ns:"t" ~key:(Cache.Key.of_string (string_of_int i)) (fun () ->
        incr calls;
        String.make n 'x')
  in
  (c, calls, get)

let test_byte_eviction_order () =
  let c, calls, get = string_cache () in
  let q = budget / 4 in
  ignore (get 0 q);
  ignore (get 1 q);
  ignore (get 2 q);
  Alcotest.(check int) "three quarters fit" 3 (fst (Cache.mem_stats c));
  Alcotest.(check int) "nothing evicted yet" 0 (Cache.counters c).Cache.evictions;
  (* touch 0: the LRU order, tail first, is now 1, 2, 0 *)
  ignore (get 0 q);
  (* a half-budget value needs two quarters gone *)
  ignore (get 3 (2 * q));
  let entries, bytes = Cache.mem_stats c in
  Alcotest.(check int) "two evicted" 2 (Cache.counters c).Cache.evictions;
  Alcotest.(check int) "two resident" 2 entries;
  Alcotest.(check bool)
    (Printf.sprintf "within budget (%d of %d)" bytes budget)
    true (bytes <= budget && bytes > 3 * q);
  Alcotest.(check int) "four computations" 4 !calls;
  ignore (get 0 q);
  ignore (get 3 (2 * q));
  Alcotest.(check int) "the recently used stayed" 4 !calls;
  ignore (get 1 q);
  ignore (get 2 q);
  Alcotest.(check int) "the least recently used went" 6 !calls

let test_oversize_not_retained () =
  let c, calls, get = string_cache () in
  ignore (get 0 16);
  let before = Cache.mem_stats c in
  Alcotest.(check int) "oversize value returned" (budget + 1)
    (String.length (get 1 (budget + 1)));
  Alcotest.(check (pair int int)) "not retained" before (Cache.mem_stats c);
  Alcotest.(check int) "evicts nothing" 0 (Cache.counters c).Cache.evictions;
  ignore (get 1 (budget + 1));
  Alcotest.(check int) "recomputed" 3 !calls;
  ignore (get 0 16);
  Alcotest.(check int) "the small entry stayed" 3 !calls

(* Callers waiting on an oversize value get it from its computation;
   single flight holds even though it never becomes resident. *)
let test_oversize_reaches_waiters () =
  let c = Cache.create () in
  let k = Cache.Key.of_string "big" in
  let runs = Atomic.make 0 in
  let f () =
    Atomic.incr runs;
    (* publish only once the other caller waits on this computation *)
    while (Cache.counters c).Cache.joined < 1 do
      Unix.sleepf 0.001
    done;
    String.make (budget + 1) 'x'
  in
  let d = Domain.spawn (fun () -> Cache.memo c ~ns:"t" ~key:k f) in
  while Atomic.get runs < 1 do
    Unix.sleepf 0.001
  done;
  let mine = Cache.memo c ~ns:"t" ~key:k f in
  let theirs = Domain.join d in
  Alcotest.(check bool) "same value" true (mine == theirs);
  Alcotest.(check int) "computed once" 1 (Atomic.get runs);
  Alcotest.(check int) "not retained" 0 (fst (Cache.mem_stats c))

(* A disk-backed entry weighs its marshaled payload, whichever way it
   got into memory: computed and stored, or loaded. The heap size of
   the same value is far larger. *)
let test_disk_entry_weight () =
  let dir = tmpdir () in
  let weight c v i =
    let _, b0 = Cache.mem_stats c in
    ignore (Cache.memo c ~ns:"t" ~key:(Cache.Key.of_string (string_of_int i)) (fun () -> v));
    snd (Cache.mem_stats c) - b0
  in
  let payload v = String.length (Marshal.to_string v []) in
  let small = List.init 1000 Fun.id and large = List.init 2000 Fun.id in
  let c1 = Cache.create ~dir () in
  let w_small = weight c1 small 1 and w_large = weight c1 large 2 in
  Alcotest.(check int) "weights differ by the payloads"
    (payload large - payload small)
    (w_large - w_small);
  Alcotest.(check bool)
    (Printf.sprintf "payload plus a small overhead (%d for %d)" w_small
       (payload small))
    true
    (w_small > payload small && w_small < payload small + 512);
  let c2 = Cache.create ~dir () in
  Alcotest.(check int) "a loaded entry weighs the same" w_small (weight c2 small 1);
  Alcotest.(check int) "it was a disk hit" 1 (Cache.counters c2).Cache.disk_hits;
  Alcotest.(check bool) "memory-only weighs the heap" true
    (weight (Cache.create ()) small 1 > 3 * w_small);
  Cache.clear c2;
  rm_rf dir

let test_mem_entries_counts () =
  let c = Cache.create ~mem_entries:2 () in
  let key i = Cache.Key.of_string (string_of_int i) in
  let get i = Cache.memo c ~ns:"t" ~key:(key i) (fun () -> String.make (budget + 1) 'x') in
  ignore (get 0);
  ignore (get 1);
  Alcotest.(check (pair int int)) "two oversize values kept, unweighed" (2, 0)
    (Cache.mem_stats c);
  ignore (get 2);
  Alcotest.(check int) "the third evicts one" 1 (Cache.counters c).Cache.evictions;
  Alcotest.(check int) "still two" 2 (fst (Cache.mem_stats c))

(* The process-wide gauges move with the resident layer. *)
let test_mem_gauges () =
  Gc.full_major ();
  let g name = Telemetry.Gauge.value (Telemetry.Gauge.make name) in
  let e0 = g "cache.mem_entries" and b0 = g "cache.mem_bytes" in
  let c = Cache.create () in
  ignore (Cache.memo c ~ns:"t" ~key:(Cache.Key.of_string "g") (fun () -> [ 1; 2 ]));
  let entries, bytes = Cache.mem_stats c in
  Alcotest.(check (pair int int)) "insert adds" (e0 + entries, b0 + bytes)
    (g "cache.mem_entries", g "cache.mem_bytes");
  Cache.clear c;
  Alcotest.(check (pair int int)) "clear takes back" (e0, b0)
    (g "cache.mem_entries", g "cache.mem_bytes")

(* [clear] while a computation is in flight: a second caller computes
   the key anew, both publish, and the key keeps one entry. *)
let test_clear_in_flight () =
  let c = Cache.create ~mem_entries:8 () in
  let k = Cache.Key.of_string "dup" in
  let started = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Cache.memo c ~ns:"t" ~key:k (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done;
            1))
  in
  while not (Atomic.get started) do
    Unix.sleepf 0.001
  done;
  Cache.clear c;
  Alcotest.(check int) "second caller computes" 2
    (Cache.memo c ~ns:"t" ~key:k (fun () -> 2));
  Atomic.set release true;
  Alcotest.(check int) "first caller gets its own value" 1 (Domain.join d);
  Alcotest.(check int) "one resident entry" 1 (fst (Cache.mem_stats c));
  Alcotest.(check int) "the last publish is served" 1
    (Cache.memo c ~ns:"t" ~key:k (fun () -> 3));
  (* filling the layer evicts the key's one entry, not a live binding *)
  for i = 0 to 7 do
    ignore (Cache.memo c ~ns:"u" ~key:(Cache.Key.of_string (string_of_int i)) Fun.id)
  done;
  Alcotest.(check int) "full, not over" 8 (fst (Cache.mem_stats c));
  Alcotest.(check int) "the evicted key recomputes" 4
    (Cache.memo c ~ns:"t" ~key:k (fun () -> 4))

let () =
  Alcotest.run "cache"
    [
      ( "keys",
        [
          Alcotest.test_case "perturbation" `Quick test_key_perturbation;
          Alcotest.test_case "hit/miss" `Quick test_memo_hit_miss;
          Alcotest.test_case "exception" `Quick test_exception_not_stored;
        ] );
      ( "disk",
        [
          Alcotest.test_case "determinism + incremental" `Slow
            test_determinism_and_incremental;
          Alcotest.test_case "namespace layout" `Quick test_layout;
          Alcotest.test_case "tree on demand" `Quick test_tree_on_demand;
          Alcotest.test_case "explain reloads an evicted tree" `Quick
            test_explain_reloads_tree;
          Alcotest.test_case "corruption" `Quick test_corrupted_entry_is_a_miss;
          Alcotest.test_case "flat entries are not read" `Quick
            test_flat_entries_not_read;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "single-flight" `Quick test_single_flight ] );
      ( "lru",
        [
          Alcotest.test_case "eviction" `Quick test_lru_eviction;
          Alcotest.test_case "clear while in flight" `Quick test_clear_in_flight;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "eviction in LRU order" `Quick
            test_byte_eviction_order;
          Alcotest.test_case "oversize not retained" `Quick
            test_oversize_not_retained;
          Alcotest.test_case "oversize reaches waiters" `Quick
            test_oversize_reaches_waiters;
          Alcotest.test_case "disk entry weighs its payload" `Quick
            test_disk_entry_weight;
          Alcotest.test_case "mem_entries counts" `Quick test_mem_entries_counts;
          Alcotest.test_case "gauges" `Quick test_mem_gauges;
        ] );
    ]
