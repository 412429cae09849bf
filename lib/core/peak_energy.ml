(* Input-independent peak energy (paper, Section 3.3).

   Peak energy is the worst root-to-leaf sum of per-cycle peak power
   times the clock period. Input-dependent branches take the costlier
   side (Fork = max). A [Seen] edge returns to an already-explored
   architectural state; its continuation is the registered subtree, and
   a cyclic reference (an input-dependent loop whose state repeats
   exactly) is unrolled up to [loop_bound] times — the "static analysis
   or user input" iteration bound the paper requires for such loops. *)

module SMap = Map.Make (String)

type result = {
  energy : float;  (** J, over the worst path *)
  cycles : int;  (** length of the worst path in cycles *)
  npe : float;  (** normalized peak energy, J/cycle *)
  bounded_loops : int;  (** how many Seen edges needed the loop bound *)
}

exception Unbounded of string

(* Cycle records by physical identity. [Sym] builds a registered
   continuation from the very cycle records of a root segment (and
   Marshal keeps that sharing), so a record reached through the registry
   is one the root walk priced. *)
module Phys = Hashtbl.Make (struct
  type t = Gatesim.Trace.cycle

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Segment costs, summed once. Each root segment is priced from its
   slice of the power trace (which is in [Trace.flatten] order, the
   order [iter_segments] visits). A registered continuation is a root
   segment minus its first cycle ([Sym] stores it that way so the fork
   cycle is not counted twice), so both sums are kept: the full segment
   under its first cycle, the tail under its second. Both are the same
   left fold the per-visit pricing did, so energies are bit-identical. *)
let segment_costs pa tree trace =
  let period = Poweran.period pa in
  let costs = Phys.create 1024 in
  let off = ref 0 in
  Gatesim.Trace.iter_segments tree (fun cycles ->
      let n = Array.length cycles in
      let sum from =
        let e = ref 0. in
        for k = !off + from to !off + n - 1 do
          e := !e +. (trace.(k) *. period)
        done;
        (!e, n - from)
      in
      if n >= 1 then Phys.replace costs cycles.(0) (sum 0);
      if n >= 2 then Phys.replace costs cycles.(1) (sum 1);
      off := !off + n);
  fun cycles ->
    if Array.length cycles = 0 then (0., 0)
    else
      match Phys.find_opt costs cycles.(0) with
      | Some c -> c
      | None ->
        (* a registry subtree the root does not reach *)
        Array.fold_left
          (fun (e, n) cy -> (e +. (Poweran.cycle_power_max pa cy *. period), n + 1))
          (0., 0) cycles

let of_tree ?trace pa (tree : Gatesim.Trace.tree) ~loop_bound =
  let trace =
    match trace with
    | Some t -> t
    | None -> Poweran.trace_power pa ~mode:`Max (Gatesim.Trace.flatten tree)
  in
  let seg_cost = segment_costs pa tree trace in
  let bounded = ref 0 in
  (* budgets: per-digest remaining unrolls along the current path *)
  let rec go node budgets =
    match node with
    | Gatesim.Trace.Run { cycles; next } ->
      let e, n = seg_cost cycles in
      let e', n' = go next budgets in
      (e +. e', n + n')
    | Gatesim.Trace.Fork { not_taken; taken } ->
      let e0, n0 = go not_taken budgets in
      let e1, n1 = go taken budgets in
      if e1 > e0 then (e1, n1) else (e0, n0)
    | Gatesim.Trace.End_path -> (0., 0)
    | Gatesim.Trace.Seen d -> (
      let remaining =
        match SMap.find_opt d budgets with Some r -> r | None -> loop_bound
      in
      if remaining <= 0 then begin
        (* the paper: without a static or user-supplied iteration bound
           the peak energy of an input-dependent loop is not computable *)
        if loop_bound <= 0 then raise (Unbounded d);
        incr bounded;
        (0., 0)
      end
      else
        match Hashtbl.find_opt tree.Gatesim.Trace.registry d with
        | None -> (0., 0)
        | Some r -> go !r (SMap.add d (remaining - 1) budgets))
  in
  let energy, cycles = go tree.Gatesim.Trace.root SMap.empty in
  {
    energy;
    cycles;
    npe = (if cycles = 0 then 0. else energy /. float_of_int cycles);
    bounded_loops = !bounded;
  }
