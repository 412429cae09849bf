(** Input-independent peak energy (paper, Section 3.3).

    The worst root-to-leaf sum of per-cycle peak power times the clock
    period. Forks take the costlier side. A [Seen] edge (a branch into
    an already-explored state) continues into the registered subtree; a
    cyclic reference — an input-dependent loop — is unrolled up to
    [loop_bound] times, the paper's "static analysis or user input"
    iteration bound. Choose [loop_bound] at least one more than the
    loop's true maximum iteration count. *)

type result = {
  energy : float;  (** J, over the worst path *)
  cycles : int;  (** length of the worst path in cycles *)
  npe : float;  (** normalized peak energy, J/cycle *)
  bounded_loops : int;  (** how many Seen edges hit the unroll bound *)
}

(** Raised when the tree contains an input-dependent loop and
    [loop_bound] is 0 — "it may not be possible to compute the peak
    energy of the application" (Section 3.3). The argument is the
    looping state's digest. *)
exception Unbounded of string

(** [of_tree ?trace pa tree ~loop_bound] — [trace] is the tree's
    per-cycle peak power in {!Gatesim.Trace.flatten} order, i.e. the
    {!Peak_power} trace. Pass it when you have it, so no cycle is priced
    twice; without it the trace is computed here. Each straight-line
    segment is summed once, however often the worst-path search
    revisits it. *)
val of_tree :
  ?trace:float array ->
  Poweran.t ->
  Gatesim.Trace.tree ->
  loop_bound:int ->
  result
