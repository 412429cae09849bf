(* The benchmark's own spans around calls into the program's layers,
   and their self times. Spans are recorded into the ambient Telemetry
   sink under the "bench" category, so they land in the same Chrome
   trace as the program's internal spans; without a sink a span is one
   atomic load. *)

let span name f = Telemetry.span ~cat:"bench" name f

(* Self seconds and call count per span name. *)
type table = (string, float * int) Hashtbl.t

(* A span's self time is its duration minus the part its child bench
   spans cover. Nesting is recovered per recording domain from the
   timestamps: events come sorted by start, and an event starting
   before the top of the stack ends is its child. *)
let self_times sink : table =
  let tbl = Hashtbl.create 64 in
  let add name s =
    let t, n = Option.value (Hashtbl.find_opt tbl name) ~default:(0., 0) in
    Hashtbl.replace tbl name (t +. s, n + 1)
  in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Telemetry.event) ->
      if e.cat = "bench" then
        Hashtbl.replace by_tid e.tid
          (e :: Option.value (Hashtbl.find_opt by_tid e.tid) ~default:[]))
    (Telemetry.events sink);
  Hashtbl.iter
    (fun _ evs ->
      let evs =
        List.stable_sort
          (fun (a : Telemetry.event) (b : Telemetry.event) ->
            compare (a.ts_ns, Int64.neg a.dur_ns) (b.ts_ns, Int64.neg b.dur_ns))
          evs
      in
      let close (_, (e : Telemetry.event), child) =
        add e.name (Int64.to_float (Int64.sub e.dur_ns !child) *. 1e-9)
      in
      let stack = ref [] in
      List.iter
        (fun (e : Telemetry.event) ->
          let rec pop () =
            match !stack with
            | ((stop, _, _) as top) :: rest when stop <= e.ts_ns ->
              close top;
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (_, _, child) :: _ -> child := Int64.add !child e.dur_ns
          | [] -> ());
          stack := (Int64.add e.ts_ns e.dur_ns, e, ref 0L) :: !stack)
        evs;
      List.iter close !stack)
    by_tid;
  tbl

(* Total self seconds of the spans named [name]. *)
let total (tbl : table) name =
  match Hashtbl.find_opt tbl name with Some (t, _) -> t | None -> 0.

(* Mean self seconds per call of the spans named [name]. *)
let mean (tbl : table) name =
  match Hashtbl.find_opt tbl name with
  | Some (t, n) when n > 0 -> t /. float_of_int n
  | _ -> nan

(* Per-kernel spans are named "<layer>/<kernel>". *)
let per_kernel layer kernel = layer ^ "/" ^ kernel

let sum_kernels tbl layer kernels =
  List.fold_left (fun acc k -> acc +. total tbl (per_kernel layer k)) 0. kernels

(* Mean self seconds per call over every "<layer>/..." span. *)
let mean_layer (tbl : table) layer =
  let prefix = layer ^ "/" in
  let t, n =
    Hashtbl.fold
      (fun name (t, n) (ta, na) ->
        if String.starts_with ~prefix name then (ta +. t, na + n) else (ta, na))
      tbl (0., 0)
  in
  if n = 0 then nan else t /. float_of_int n
