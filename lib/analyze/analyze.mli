(** Static analysis of protocol definitions and happens-before checking of
    recorded multicore histories.

    The paper's claims are claims about protocol {e structure}: Algorithm 1
    is deterministic, uses only historyless (indeed swap-only) objects, and
    decides within 8(n-k) solo steps (Lemmas 5-8); Lemma 9 / Theorem 10
    apply only to protocols that genuinely are historyless.  Until now those
    facts were asserted by hand ([Protocol.uses_only_historyless] inspects
    declared object kinds) or observed dynamically.  This module verifies
    them {e before} a protocol is run, by bounded abstract exploration of
    the reachable configuration graph (reusing [Explore]'s interned store
    and memoized solo oracle), and checks recorded runtime histories for
    atomicity races {e after} it runs, with a near-linear vector-clock
    happens-before pass that is independent of the exponential
    linearizability checker.

    The static checks:

    - {b well-formedness}: [Protocol.validate] (parameters in range, initial
      values in domain);
    - {b op-conformance}: every reachable poised operation is legal for its
      object's kind ([Obj_kind.supports], which includes the domain check on
      stored values) and targets an object in range;
    - {b flag-derivation}: the historyless / swap-only flags are {e derived}
      from the reachable operations ([Op.is_historyless_action] /
      [Op.is_swap_action]) and cross-checked against the hand-written
      kind-based predicates, failing on divergence in either direction (a
      declared-historyless protocol reaching a CAS is unsound; a
      declared-CAS protocol never reaching one under exhaustive exploration
      mis-states its hypotheses);
    - {b determinism}: stepping the same process twice from the same
      configuration yields identical operations, responses and successor
      configurations;
    - {b hash-coherence}: over a sample of reachable states,
      [equal_state s1 s2] implies [hash_state s1 = hash_state s2], and both
      functions are self-consistent (reflexive, repeatable);
    - {b canon-coherence}: for protocols declaring
      {!Shmem.Protocol.Anonymous}, the symmetry hooks behave as a group
      action on a sample of {e reachable} states (not just the initial ones
      [Protocol.validate] covers): renaming by the identity is the
      identity, a rotation is undone by its inverse with equal hashes,
      [canon_key] and [decision] are renaming-invariant, and [poised] /
      [on_response] commute with renaming — the property that licenses
      [Explore]'s canonical-representative interning.  Skipped for
      [Asymmetric] protocols;
    - {b prop-equivariance}: over the same sample, every supplied declared
      property ([lib/prop]) gives the same verdict on a configuration (and
      on a transition) as on its renaming — the condition under which
      checking declared properties over the symmetry-reduced quotient graph
      is sound.  Skipped for [Asymmetric] protocols and when no properties
      are supplied;
    - {b decision-range}: every decision lies in [0 .. m-1];
    - {b decision-coverage}: every value [v] is actually decided by the solo
      execution from the all-[v] input vector (no unreachable decision
      values, and solo validity);
    - {b solo-bound}: from every explored configuration, every undecided
      process decides within the protocol's declared solo-step bound
      (Lemma 8's [8(n-k)] for Algorithm 1), measured through [Explore]'s
      memoized {!Explore.Make.solo_steps} oracle. *)

(** {1 Reports} *)

type status =
  | Pass
  | Fail of string list  (** first few failure details, most severe first *)
  | Skipped of string  (** why the check did not apply *)

type check = { id : string; title : string; status : status }

type report = {
  protocol : string;
  n : int;
  k : int;
  m : int;
  configs : int;  (** configurations visited by the bounded exploration *)
  exhaustive : bool;
      (** the exploration closed the reachable graph (no truncation by
          budget or pruning) — only then are absence claims
          ("no reachable CAS") proofs rather than bounded evidence *)
  declared_historyless : bool;  (** [Protocol.uses_only_historyless] *)
  declared_swap_only : bool;  (** [Protocol.uses_only_swap] *)
  derived_historyless : bool;
      (** no reachable operation is a [Cas] (within the explored region) *)
  derived_swap_only : bool;
      (** every reachable operation is a [Swap] (within the explored
          region) *)
  solo_measured_max : int;
      (** the longest solo execution measured from any explored
          configuration; [0] if none was checked *)
  solo_checked : int;  (** number of (configuration, pid) solo runs *)
  solo_bound : int option;  (** the declared bound the measurements gate *)
  checks : check list;
}

val ok : report -> bool
(** no check failed *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> Obs.Json.t

(** {1 The static analyzer} *)

module Make (P : Shmem.Protocol.S) : sig
  module X : module type of Explore.Make (P)

  val run :
    ?max_configs:int ->
    ?inputs:int array ->
    ?solo_bound:int ->
    ?prune:(Shmem.Value.t array -> bool) ->
    ?sym:bool ->
    ?props:Prop.Make(P).t list ->
    unit ->
    report
  (** analyze [P] from the initial configuration with the given inputs
      (default [pid mod m]).  [max_configs] (default 20_000) bounds the
      exploration; [prune] (default none) cuts off configurations whose
      memory snapshot satisfies it — both mark the report non-exhaustive.
      [solo_bound] declares the bound the solo-bound verifier enforces
      (default: none declared, the verifier only measures and still
      requires solo {e termination} within [Explore]'s default cap).
      [sym] (default [false]) runs the lints over the engine's
      symmetry-reduced graph (see {!Explore.Make.create}) — every lint is
      orbit-invariant, so verdicts are unaffected while [configs] covers a
      quotient of the reachable space.  [props] (default none) supplies the
      declared properties the prop-equivariance lint samples: only
      {e verdicts} (violation vs. none) are compared under renaming, not
      detail strings, which legitimately mention process ids. *)
end

val run_protocol :
  ?max_configs:int ->
  ?inputs:int array ->
  ?solo_bound:int ->
  ?prune:(Shmem.Value.t array -> bool) ->
  ?sym:bool ->
  ?props:Prop.pack ->
  Shmem.Protocol.t ->
  report
(** {!Make.run} over a first-class protocol value — what [swapspace
    analyze] calls for each registry entry.  When [props] is supplied, the
    pack's own protocol module is the one analyzed, with its declared
    properties fed to the prop-equivariance lint — the registry packs the
    very module the protocol value wraps, so this is the same analysis plus
    the extra lint. *)

(** {1 Space certification}

    The paper's headline results are {e space} bounds: Algorithm 1 solves
    k-set agreement from [n - k] swap objects (Theorem 4) and every
    solo-terminating algorithm needs ⌈n/k⌉ - 1 of them (Theorem 10).  The
    certifier closes the loop on a concrete protocol: it explores the
    reachable configuration graph (symmetry reduction on by default, so it
    closes at the same [n] as [check]) and measures

    - {b measured}: the union of poised-operation targets over every
      visited configuration.  A poised operation executes in some
      execution (schedule its process next), so on the explored region
      this is exactly the set of base objects accessed across all
      executions.  Sound on the quotient graph: [Op.rename] never moves
      the target object index, so object access sets are
      renaming-equivariant and measuring on orbit representatives equals
      measuring concretely;
    - {b witness}: the maximum number of distinct objects accessed along a
      single discovery schedule — a concrete execution
      ([Explore.Make.trace_to]) realizing that many objects, the
      constructive lower half of the measurement.

    It then certifies [measured <= declared] against the protocol's
    declared {!Shmem.Protocol.S.space_bound} (an {e under-claim} is fatal),
    flags [measured < declared] as an over-claim only when the exploration
    closed the graph (like the historyless flag derivation), and — for
    swap-only protocols — runs the Theorem 10 adversary
    ([Lowerbound.Theorem10]) so the forced lower bound and the measured
    upper bound are asserted to bracket each other in one report. *)

module Space : sig
  type kind_usage = {
    kind : string;  (** rendered object kind *)
    total : int;  (** objects of this kind in the protocol *)
    touched : int;  (** of which this many are reachably accessed *)
  }

  type bracket = {
    theorem_bound : int;  (** ⌈n/k⌉ - 1, what Theorem 10 promises *)
    forced : int;  (** objects the Lemma 9 adversary concretely forced *)
  }

  type report = {
    protocol : string;
    n : int;
    k : int;
    total_objects : int;  (** size of the declared object array *)
    declared : int;  (** [space_bound] at the protocol's own [n]/[k] *)
    measured : int;  (** distinct objects accessed across all executions *)
    witness : int;  (** max distinct objects along one explored execution *)
    per_kind : kind_usage list;
    configs : int;
    exhaustive : bool;
    bracket : bracket option;  (** present iff the adversary ran *)
    checks : check list;
  }

  val ok : report -> bool
  val pp_report : Format.formatter -> report -> unit
  val report_to_json : report -> Obs.Json.t

  module Make (P : Shmem.Protocol.S) : sig
    val run :
      ?max_configs:int ->
      ?inputs:int array ->
      ?prune:(Shmem.Value.t array -> bool) ->
      ?sym:bool ->
      ?certificate:bool ->
      ?search_rounds:int ->
      unit ->
      report
    (** certify [P]'s declared space bound.  [max_configs] (default
        20_000) bounds the exploration; [prune] cuts off configurations
        whose memory snapshot satisfies it (marking the report
        non-exhaustive).  [sym] defaults to [true] — unlike
        {!Make.run}, reduction is on unless disabled.  [certificate]
        (default [true]) runs the Theorem 10 adversary on swap-only
        protocols with [search_rounds] (default 200) search attempts per
        induction level; pass [~certificate:false] to skip the (costly)
        lower-bound bracket. *)
  end

  val run_protocol :
    ?max_configs:int ->
    ?inputs:int array ->
    ?prune:(Shmem.Value.t array -> bool) ->
    ?sym:bool ->
    ?certificate:bool ->
    ?search_rounds:int ->
    Shmem.Protocol.t ->
    report
  (** {!Make.run} over a first-class protocol value — what
      [swapspace analyze --space] calls for each registry entry *)
end

(** {1 Happens-before race checking}

    A near-linear dynamic checker over the timestamped per-object histories
    recorded by the multicore runtime ([Runtime.Make.run ~record:true]).
    Timestamps come from one global atomic clock, so [finish a < start b]
    is a {e definite} real-time precedence; the checker represents that
    interval order with per-thread vector clocks and flags responses that
    no linearization consistent with it could produce:

    - {b stale-response}: a response value that no operation that could
      precede the reader ever installed (and is not the initial value);
    - {b lost-seniority}: the initial value returned after an install
      definitely preceded the reader, with no operation ever re-installing
      the initial value;
    - {b duplicate-consumption}: swap responses consume installs — each
      installed value instance is returned by at most one later swap, so
      for every value [r], [#swap responses = r] at most
      [#installs of r + (init = r)].  A torn exchange manifests here (two
      swaps witnessing the same predecessor), as do lost updates and
      double TAS winners.

    All three rules are sound: a linearizable history never trips them.
    They are deliberately incomplete (order anomalies among distinct values
    can escape) — the exponential Wing & Gong checker remains the complete
    oracle for short histories; this one scales to the full campaign
    traffic. *)

module Hb : sig
  type violation = { rule : string; detail : string }

  type stats = {
    events : int;
    threads : int;
    hb_edges : int;  (** definite-precedence pairs witnessed *)
  }

  val check :
    kind:Shmem.Obj_kind.t ->
    init:Shmem.Value.t ->
    Linearize.Obj_history.event list ->
    (stats, violation) result
  (** check one object's history (sorted by invocation timestamp, as the
      runtime returns it); the first violation wins *)

  val check_histories :
    ?max_events:int ->
    kinds:Shmem.Obj_kind.t array ->
    init:(int -> Shmem.Value.t) ->
    Linearize.Obj_history.event list array ->
    (int * int, string) result
  (** run {!check} on every per-object history: [(checked, skipped)] on
      success, where histories longer than [max_events] (default 65_536)
      are skipped; [Error] names the first object that fails and the rule
      it broke *)
end
