(** Model checking of protocols against the paper's correctness and progress
    properties.

    {!Make.explore} exhaustively enumerates every configuration reachable
    from an initial configuration (optionally pruned, e.g. to a lap bound for
    racing protocols whose reachable space is infinite) and checks:

    - {b k-agreement}: at most [k] distinct values decided (§3);
    - {b validity}: every decided value is some process's input (§3);
    - {b solo termination}: from every explored configuration, every
      undecided process decides when run alone — i.e. the protocol is
      obstruction-free on the explored region (§3).

    {!Make.random_runs} complements this with long randomized-scheduler runs
    for instances whose state spaces are too large to enumerate.

    The checker is a generic "check these properties" driver over the
    unified exploration engine ({!Explore.Make}) and the declarative
    property layer ({!Prop.Make}): the engine owns the frontier, the
    interned configuration store, violation-trace reconstruction and the
    memoized solo-termination oracle; the built-in hooks (agreement,
    validity, solo termination) are themselves [Prop] declarations, and any
    further declared properties — per-protocol registry packs, the §4
    monitor's invariants — ride along via [?extra_props]: invariants are
    evaluated at every visited configuration, step relations and safety
    automata incrementally on every expanded edge through the engine's
    [on_step] observer, with counterexample traces rebuilt by
    {!Explore.Make.trace_via}. *)

type violation = {
  property : string;
  detail : string;
  trace : Shmem.Trace.t;  (** schedule from the initial configuration *)
}

type report = {
  configs_explored : int;
  violations : violation list;
  truncated : bool;
      (** true if exploration stopped at [max_configs] or pruned states,
          so the verdict is for the explored region only *)
}

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit

module Make (P : Shmem.Protocol.S) : sig
  module X : module type of Explore.Make (P)
  (** the underlying exploration engine instance *)

  module E : module type of Shmem.Exec.Make (P)

  val snap : E.config -> Prop.Make(P).snap
  (** the property layer's engine-independent view of a configuration
      (shares the underlying arrays; treat as read-only) *)

  val explore :
    ?max_configs:int ->
    ?solo_cap:int ->
    ?check_solo:bool ->
    ?prune:(E.config -> bool) ->
    ?sym:bool ->
    ?por:bool ->
    ?extra_props:(X.t -> Prop.Make(P).t list) ->
    ?select:string list ->
    inputs:int array ->
    unit ->
    report
  (** BFS over the reachable configuration graph from [initial ~inputs],
      via {!Explore.Make.bfs}.  [solo_cap] bounds solo executions when
      checking solo termination (default {!Explore.Make.default_solo_cap}
      = 64 * (number of objects + 1)); [prune c = true] stops expanding [c]
      (the configuration itself is still checked).
      Defaults: [max_configs = 200_000], [check_solo = true].

      [sym] (default [false]) enables the engine's symmetry reduction (see
      {!Explore.Make.create}): verdicts and violation traces stay sound and
      concrete, but [configs_explored] counts the reduced graph.  [por] is
      ignored, as by {!Explore.Make.create}, and stays for the same
      reason.

      [extra_props] contributes further declared properties (it receives
      the exploration handle so properties can consult e.g. the memoized
      solo oracle); [select] restricts checking to the named properties
      over the combined list — built-ins are "k-agreement", "validity" and
      "solo-termination"; [Some []] checks nothing (pure enumeration).
      @raise Invalid_argument if [select] names an unknown property *)

  val all_input_vectors : unit -> int array list
  (** all [num_inputs ^ n] input assignments *)

  val explore_all_inputs :
    ?max_configs:int ->
    ?solo_cap:int ->
    ?check_solo:bool ->
    ?prune:(E.config -> bool) ->
    ?sym:bool ->
    ?extra_props:(X.t -> Prop.Make(P).t list) ->
    ?select:string list ->
    unit ->
    report
  (** run [explore] from every input vector and combine the reports.  With
      [sym] on an anonymous protocol, only one vector per input {e multiset}
      (the nondecreasing ones) is explored — permuting the inputs permutes
      the reachable space, so the others are redundant. *)

  val random_runs :
    ?seed:int ->
    ?max_steps:int ->
    ?solo_check_every:int ->
    ?extra_props:(X.t -> Prop.Make(P).t list) ->
    runs:int ->
    unit ->
    report
  (** [runs] random-scheduler executions from uniformly random inputs; checks
      agreement and validity at every configuration and solo termination
      every [solo_check_every] steps (0 = never, the default).
      [extra_props] run under the property layer's linear monitor
      ({!Prop.Make.start}/[advance]) along each walk — including step
      relations and safety automata, which the exhaustive driver can only
      approximate on the quotient graph. *)

  val shrink_violation :
    ?solo_cap:int ->
    ?props:Prop.Make(P).t list ->
    inputs:int array ->
    violation ->
    violation
  (** greedily delete schedule steps while the violation (same property)
      still manifests when the shortened schedule is re-simulated from
      [initial ~inputs]; repeats to a fixpoint.  The result replays to a
      violating configuration and is never longer than the input.  For
      violations of declared properties (anything beyond the three
      built-ins) the matching property must be supplied via [props]; its
      full monitor — invariant, step relation and automaton — is the
      shrinking oracle.
      @raise Invalid_argument on an unknown property or a schedule that
      does not violate it *)
end
