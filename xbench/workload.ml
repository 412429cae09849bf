(* What main needs from a workload. *)

type counts = int * int * int * int

module type S = sig
  val name : string

  (* References computed once per run, outside the timed set-up. *)
  type refs

  val prepare : Util.env -> refs

  (* One set-up; main times [env.setups] of them and measures the last.
     The int numbers the repetition. *)
  type t

  val setup : Util.env -> refs -> int -> t

  (* Release a set-up that will not be measured. *)
  val discard : t -> unit

  val window : Util.env -> t -> traced:bool -> seconds:float -> Util.window

  (* Checks that need the window over, then release; returns the peak
     resident set of the processes doing the work, in MiB. *)
  val finish : Util.env -> t -> float

  (* Exact-tier (paths, forks, dedup hits, cycles) per kernel, as
     captured in set-up. *)
  val counts : t -> (string * counts) list

  (* Sum of the layer self times (from the traced run's spans) that one
     accounting unit of this workload is made of. *)
  val layer_s : Spans.table -> Util.window -> float
end

(* Elaboration self time of one process: every CLI process and every
   in-process set-up builds the CPU, its power model and the netlist
   specialization once. *)
let elaboration_s tbl =
  Spans.mean tbl "cpu.build" +. Spans.mean tbl "core.poweran"
  +. Spans.mean tbl "netlist.specialize"
