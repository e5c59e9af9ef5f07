(** Fault injection and chaos campaigns for both execution backends.

    A {!plan} is a declarative list of faults.  The two {e benign} faults —
    crashes and stalls — model scheduler adversity that the paper's
    obstruction-free algorithms must tolerate by design: on the simulator
    they compile to the {!Shmem.Exec.Make.with_crashes} /
    [with_stalls] scheduler combinators, and on the multicore runtime to
    [Runtime.Make.run]'s [~crash_at] / [~stalls] injection points.  The
    three {e object} faults — torn swaps, lost updates and stale reads —
    deliberately break the atomicity the paper {e assumes} of its base
    objects (§2); they exist for negative testing: the §4 monitors and the
    sequential-replay atomicity check must flag every manifestation, which
    the campaign engine then shrinks to a locally-minimal schedule with
    {!ddmin}. *)

type fault =
  | Crash of int * int
      (** [Crash (pid, t)]: simulator — [pid] is never scheduled from
          global step [t] on; runtime — [pid] halts after its [t]-th
          operation *)
  | Stall of int * int * int
      (** [Stall (pid, t, dur)]: simulator — [pid] is not scheduled during
          global steps [t .. t+dur-1]; runtime — [pid] spins a forced
          preemption window of [dur] [Domain.cpu_relax] before its [t]-th
          operation *)
  | Respawn of int * int
      (** [Respawn (pid, delay)]: heal a [Crash (pid, t)] of the same plan
          — the pid's crash window becomes finite, ending [delay] steps
          after the crash, when a {e new incarnation} is rebuilt through
          [Protocol.S.recovery] ([Restart] from scratch, [Resume] from the
          current memory) and becomes schedulable again.  Simulator-only
          as a plan entry; on the multicore backend healing is the
          supervisor's job ({!Mc.campaign} [~recover:true]).  Without a
          matching crash the respawn is inert. *)
  | Torn_swap of int
      (** the object's swaps lose atomicity: the read half responds
          immediately but the write half is withheld until the next access
          to the object — if that access is by another process, the delayed
          write lands {e after} it, clobbering whatever it wrote
          (simulator only) *)
  | Lost_update of int
      (** every second value-changing nontrivial operation on the object
          silently evaporates — the response is still computed correctly,
          the write never lands (simulator only) *)
  | Stale_read of int * int
      (** [Stale_read (obj, lag)]: responses that embed a read (Read, the
          read half of Swap) observe the value the object held [lag]
          value-changes ago (simulator only) *)

type plan = fault list

val pp_plan : Format.formatter -> plan -> unit

val benign : plan -> bool
(** every fault in the plan is a crash, stall or respawn (tolerated by
    design; the object faults break the model's atomicity assumption) — the
    run is expected to satisfy all safety properties, and any violation is
    a genuine bug *)

val validate : n:int -> num_objects:int -> plan -> (unit, string) result
(** pids and objects in range, times non-negative, durations, delays and
    lags positive, at most one object fault per object and at most one
    respawn per pid *)

val crashes : plan -> (int * int) list
(** the [(pid, t)] crash points, in plan order — feed to
    [Exec.with_crashes ~crash_at] or [Runtime.Make.run ~crash_at] *)

val stalls : plan -> (int * int * int) list
(** the [(pid, t, dur)] stall windows, in plan order *)

val respawns : plan -> (int * int) list
(** the [(pid, delay)] respawn points, in plan order *)

val ddmin : violates:(int list -> bool) -> int list -> int list
(** [ddmin ~violates input] is a locally-minimal sublist of [input] that
    still satisfies [violates] (Zeller's delta debugging, with a final
    single-deletion pass guaranteeing 1-minimality: removing any one
    element of the result no longer violates).
    @raise Invalid_argument if [input] itself does not violate *)

(** {1 Random plans} *)

type kind = Crash_k | Stall_k | Respawn_k | Torn_k | Lost_k | Stale_k

val all_kinds : kind list
(** every kind {e except} [Respawn_k] — recovery campaigns opt in through
    {!recovery_kinds} or an explicit list, so historical seeded campaigns
    stay bit-identical *)

val benign_kinds : kind list
(** [Crash_k; Stall_k] *)

val recovery_kinds : kind list
(** [Crash_k; Stall_k; Respawn_k] — the kill-and-heal campaign mix
    (["recovery"] on the command line) *)

val kind_to_string : kind -> string
val kind_of_string : string -> (kind, string) result

val kinds_of_string : string -> (kind list, string) result
(** comma-separated kind names, e.g. ["crash,stall,torn"]; ["all"],
    ["benign"] and ["recovery"] are accepted as groups *)

val kind_is_benign : kind -> bool

val gen_plan :
  rng:Random.State.t -> n:int -> num_objects:int -> kind list -> plan
(** one random plan: each requested kind is included with probability 1/2
    with randomized parameters; object faults target distinct objects, and
    a drawn [Respawn_k] heals the plan's crash when one was drawn (pairing
    a fresh kill-and-heal otherwise).  Deterministic in [rng] and the kind
    list. *)

(** {1 Service-mode chaos}

    A long-running service (lib/arena) does not run one plan per execution:
    it serves an unbounded stream of rounds from a fixed worker pool, and
    the chaos overlay decides, round by round, whether the worker driving
    that round is killed mid-round (abandoning the round's undecided
    participants with their memory residue in place) and healed by
    adoption.  The overlay is a pure function of [(seed, round,
    incarnation)] so campaigns are bit-reproducible regardless of which
    worker happens to pull which round, or in which order. *)

val service_kill_plan :
  seed:int ->
  kill_every:int ->
  ?max_point:int ->
  ?max_incarnations:int ->
  unit ->
  round:int ->
  incarnation:int ->
  int option
(** [service_kill_plan ~seed ~kill_every ()] draws, for roughly one round
    in [kill_every], an operation count after which the incarnation
    driving that round is killed ([Some point] with [point] uniform in
    [0 .. max_point - 1], default [max_point = 32]).  Incarnations at or
    beyond [max_incarnations] (default 2) are never killed, so every round
    eventually completes — the kill-and-heal loop cannot starve a round
    forever, mirroring the supervisor's respawn budget.  Deterministic in
    [(seed, round, incarnation)] alone.

    The draw [h] is an unfinished FNV-1a hash, whose low bits depend only
    on the low bits of [seed], [round] and [incarnation].  With
    [kill_every = 2{^b}] the choice of killed rounds ([h mod kill_every])
    therefore depends on the seed only through [seed mod 2{^b}]: seeds
    equal modulo [2{^b}] kill the same rounds and differ only in the kill
    points, so [seed lsl b] varies the kill points alone.  The draw is
    kept as it is so that seeded campaigns stay reproducible.
    @raise Invalid_argument unless [kill_every >= 1], [max_point >= 1] and
    [max_incarnations >= 0] *)

(** {1 Simulator campaigns} *)

module Sim (P : Shmem.Protocol.S) : sig
  module E : module type of Shmem.Exec.Make (P)

  type report = {
    final : E.config;
    trace : Shmem.Trace.t;
    outcome : E.outcome;
    fired : (fault * int) list;
        (** per object fault of the plan, how many times it manifested *)
    prop_violation : (string * string) option;
        (** [(name, detail)] of the first declared property ([?props])
            violated by the run — checked through the property layer's
            linear monitor ({!Prop.Make.start} / [advance]): invariants at
            every configuration, step relations and safety automata across
            every transition.  The run stops there. *)
    raised : (int * string) option;
        (** a step by this pid raised (protocols may prove a faulty
            response impossible); the run stops there, the failing step is
            not in the trace *)
    revived : (int * int) list;
        (** [(pid, step)] revivals actually applied: the plan's
            [Respawn]s whose crash fired before the run ended and whose
            pid had not decided.  Crash-recovery degrades agreement: under
            [Restart] recovery each entry is at most one extra silent
            participant, so checks use bound [k + length revived]. *)
    first_fired_step : int option;
        (** the step index at which the first object-fault manifestation
            fired — the injection end of the time-to-detection window
            ([None] when nothing fired) *)
  }

  val schedule_of : report -> int list
  (** the pid sequence that reproduces the report under {!run_schedule}:
      the trace's schedule plus, when a step raised, the raising pid *)

  val fired_total : report -> int

  type violation =
    | Property of string * string
        (** [(name, detail)]: a declared property ([?props]) was violated
            along the run — any [Prop.Make(P).t] is a first-class detection
            oracle — or the final snapshot breaks ["k-agreement"] or
            ["validity"] ({!detect}) *)
    | Protocol_raise of string
        (** a step raised — the protocol itself rejected a response that no
            atomic execution can produce *)
    | Non_atomic of string
        (** the trace's per-object histories do not replay sequentially *)
    | Liveness of string
        (** survivors failed to decide (campaign-level check; benign plans
            only — object faults may legitimately livelock a protocol) *)

  val pp_violation : Format.formatter -> violation -> unit

  val violation_class : violation -> string
  (** ["prop:<name>"], ["protocol-raise"], ["non-atomic"] or
      ["liveness"] — shrinking preserves the class, so a [Property]
      violation shrinks against {e that} property *)

  val run :
    ?props:Prop.Make(P).t list ->
    plan ->
    sched:E.scheduler ->
    max_steps:int ->
    inputs:int array ->
    report
  (** execute under the plan: crashes and stalls wrap the scheduler, object
      faults substitute the apply function ({!E.step_with}).  [props] are
      monitored along the run; the first violation stops it and lands in
      [prop_violation].

      Crashes healed by a [Respawn] become finite windows: at the revival
      step the pid's state is rebuilt through [Protocol.S.recovery] and it
      is schedulable again (if every undecided pid is inside such a window,
      the earliest revival is pulled forward so the run cannot wedge).
      Across each recovery boundary the property monitor is {e suppressed}
      until every revived pid has taken one step, then re-anchored with a
      fresh [Prop.Make.start]: configuration invariants that relate a
      process's private state to residue its previous incarnation left in
      shared memory would false-alarm on the reset state, and one step by
      the new incarnation restores their soundness (see DESIGN.md,
      "Supervision & recovery"). *)

  val run_schedule :
    ?props:Prop.Make(P).t list ->
    plan ->
    inputs:int array ->
    int list ->
    report
  (** replay an explicit pid sequence under the plan's {e object} faults
      (crashes and stalls are already baked into the sequence); pids that
      have decided are skipped.  This is the shrinker's oracle: same plan +
      same schedule is bit-reproducible. *)

  val check_atomic : report -> (unit, string) result
  (** replay every operation of the trace, per object, against the object
      kind's sequential specification ([Shmem.Obj_kind.apply]) from the
      initial value, checking each recorded response and the final value.
      Sound and complete here because simulator events are instantaneous,
      so the trace order {e is} the real-time order — no Wing & Gong search
      (and no event cap) needed. *)

  val detect : ?bound:int -> inputs:int array -> report -> violation option
  (** first safety violation of the report: declared properties, then a
      protocol raise, then atomicity, then the final snapshot judged by
      [Prop.Make(P)]'s shared rules — [Property ("k-agreement", _)] beyond
      [bound] distinct values (default [P.k]; recovery campaigns pass [k +
      revived]), then [Property ("validity", _)] ([Liveness] is a
      campaign-level concern) *)

  val shrink :
    ?props:Prop.Make(P).t list ->
    ?bound:int ->
    plan ->
    inputs:int array ->
    violation ->
    int list ->
    int list
  (** {!ddmin} the schedule down to a locally-minimal one that still
      produces a violation of the same {!violation_class} under the plan's
      object faults.
      @raise Invalid_argument if the schedule does not reproduce it *)

  type finding = {
    run : int;  (** campaign run index *)
    plan : plan;
    violation : violation;
    schedule : int list option;
        (** shrunk locally-minimal schedule ([None] for liveness — a
            shorter schedule trivially does not decide, so deletion-based
            shrinking is meaningless there) *)
  }

  type summary = {
    runs : int;
    steps : int;  (** total simulator steps across all runs *)
    fired : int;  (** total object-fault manifestations *)
    revived : int;  (** revivals applied across all runs *)
    violations : finding list;
        (** on {e benign} plans — always unexpected, any entry is a bug *)
    detections : finding list;
        (** on object-fault plans — the negative tests working as intended *)
    prop_detections : (string * int) list;
        (** findings per declared-property name (sorted), over detections
            and violations alike — which property caught what *)
    missed : int;
        (** runs where an object fault manifested yet nothing was detected;
            should be 0 for the protocols in this repository *)
  }

  val campaign :
    ?props:Prop.Make(P).t list ->
    ?inputs:int array ->
    ?burst:int ->
    ?max_steps:int ->
    seed:int ->
    runs:int ->
    kinds:kind list ->
    unit ->
    summary
  (** [runs] randomized executions under random plans drawn from [kinds]
      (seeded: run [i] uses a RNG derived from [seed] and [i], so campaigns
      are bit-reproducible).  Inputs are randomized per run unless [?inputs]
      pins them.  [props] are monitored along every run and shrunk
      class-preservingly like any other violation; per-property counts,
      the final-snapshot ["k-agreement"] and ["validity"] findings of
      {!detect} included, land in [prop_detections].  Every safety violation and every detection is
      shrunk with {!shrink}.  Default [burst] 32 (bursty scheduler), default
      [max_steps] 100_000.

      Kill-and-heal campaigns (kinds including [Respawn_k], e.g.
      {!recovery_kinds}): runs that revived [c] incarnations under
      [Restart] recovery are checked against agreement bound [k + c]
      ([Resume] keeps [k]), revived pids count as survivors for the
      liveness check, and each detection on a run whose fault manifested
      feeds the [fault.time_to_detection] histogram (steps from first
      manifestation to the detecting step). *)
end

(** {1 Multicore campaigns}

    Only benign faults run on real domains — the object faults are
    simulator-side negative tests (real atomics cannot be torn from
    portable OCaml). *)

module Mc (P : Shmem.Protocol.S) : sig
  module R : module type of Runtime.Make (P)
  module Sup : module type of Supervisor.Make (P)

  type finding = { run : int; plan : plan; detail : string }

  type summary = {
    runs : int;
    crashes_injected : int;
        (** round-0 plan crashes plus, under [recover], the re-crashes
            injected into respawned incarnations *)
    stalls_injected : int;
    respawns : int;  (** supervisor respawns across all runs (recover only) *)
    rounds : int;  (** supervision rounds across all runs (recover only) *)
    total_ops : int;  (** shared-memory operations across all runs *)
    elapsed : float;  (** summed wall-clock seconds of the runs *)
    hb_checked : int;
        (** per-object histories passed through the happens-before race
            checker ({!Runtime.Make.check_hb}) across all recorded runs *)
    hb_skipped : int;  (** histories over the event cap, left unchecked *)
    violations : finding list;
        (** failures of the graceful-degradation contract
            ({!Runtime.Make.check}), of the happens-before
            atomicity check (details prefixed ["happens-before:"]) or of a
            caller-supplied property oracle (details prefixed
            ["property <name>:"]): any entry is a bug *)
    prop_detections : (string * int) list;
        (** oracle failures per oracle name (sorted) *)
  }

  val campaign :
    ?inputs:int array ->
    ?max_ops:int ->
    ?deadline:float ->
    ?record:bool ->
    ?oracles:
      (string * (inputs:int array -> R.outcome -> (unit, string) result))
      list ->
    ?recover:bool ->
    ?max_respawns:int ->
    ?pack:Prop.Make(P).t list ->
    seed:int ->
    runs:int ->
    kinds:kind list ->
    unit ->
    summary
  (** seeded randomized crash/stall campaigns on the multicore runtime;
      each run is checked with [R.check] (every process decided or was
      crashed by injection; decided values satisfy k-agreement and
      validity), and — with [record] (default [true]) — its timestamped
      histories are checked by the vector-clock happens-before race
      detector ({!Runtime.Make.check_hb}).  [oracles] are named
      per-outcome property checks evaluated on every run (real domains
      expose no per-step hook, so declared properties enter here as outcome
      predicates); failures are violations, tallied per name in
      [prop_detections].  Default [deadline] 10s per run.

      [recover] (default [false]) runs every plan {e supervised}
      ({!Supervisor.Make.supervise}): crashed processes are respawned
      through [Protocol.S.recovery] on fresh domains against the same
      arena, each respawned incarnation is re-killed with probability 1/2
      (up to [max_respawns] per pid, default 2), and each run is checked
      with the supervisor's degraded contract ([Sup.check]: agreement
      within [k + crashed-incarnations]), the happens-before checker over
      the {e merged} cross-boundary histories, and the [pack] properties
      on the merged final snapshot ([Sup.check_props]).  [oracles] are
      skipped under [recover] (they are typed against single-round
      outcomes); [Respawn_k] in [kinds] is accepted and ignored — the
      supervisor owns healing on this backend.
      @raise Invalid_argument if [kinds] contains an object-fault kind, or
      [Respawn_k] without [recover] *)
end
