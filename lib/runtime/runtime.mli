(** The generic multicore backend: execute any [Shmem.Protocol.S] state
    machine over {e real} atomic objects, one OCaml 5 domain per process.

    The simulator ([Shmem.Exec.Make]) and this runtime interpret the same
    protocol definition — [init] / [poised] / [on_response] / [decision] —
    so every algorithm in the repository runs on both backends from a single
    source of truth.  Each object kind of the model is realized by one
    concrete implementation over ['a Atomic.t]:

    - registers: [Atomic.get] / [Atomic.set]
    - swap and readable swap: [Atomic.exchange]
    - test-and-set, test-and-set-reset and compare-and-swap:
      [Atomic.compare_and_set] retry loops (CAS on the model's structured
      values compares {e structurally}; the loop re-reads until the
      physically witnessed value is the one it installs against)

    Obstruction-free protocols are only guaranteed to decide when some
    process eventually runs long enough alone, so the driver inserts
    randomized exponential backoff between operation windows, the practical
    form of Giakkoupis, Helmi, Higham and Woelfel's randomized wait-free
    transformation.  The tests check it against a hand-optimized Algorithm 1
    over [Atomic.exchange].

    With [~record:true] every operation is timestamped through a global
    atomic clock and the per-object histories are returned in
    [Linearize.Obj_history] format for post-hoc linearizability checking. *)

(** One shared object realized over [Shmem.Value.t Atomic.t]. *)
module Cell : sig
  type t

  val make :
    ?exchange:(Shmem.Value.t Atomic.t -> Shmem.Value.t -> Shmem.Value.t) ->
    Shmem.Obj_kind.t ->
    Shmem.Value.t ->
    t
  (** [make kind init] is a fresh cell of the given kind holding [init].
      [?exchange] overrides the primitive used for [Swap] on (readable) swap
      objects — the mutation tests inject a deliberately torn read-pause-write
      exchange here; the default is [Atomic.exchange].

      [make] resolves the kind once: on an unbounded swap or readable swap
      object every [Swap] is legal, so {!apply} sends it straight to the
      exchange primitive with no legality check and no kind dispatch.
      Every other kind and action takes the checked path, so a bounded
      domain is still checked on every operation. *)

  val kind : t -> Shmem.Obj_kind.t

  val peek : t -> Shmem.Value.t
  (** the current value, read without legality checks (debugging/assertions
      only: [Swap_only] objects have no readable counterpart in the model) *)

  val apply : t -> Shmem.Op.action -> Shmem.Value.t
  (** apply one operation atomically and return its response, per the kind's
      sequential specification ([Shmem.Obj_kind.apply]).
      @raise Shmem.Obj_kind.Illegal_operation if the kind does not support
      the action (same contract as the simulator) *)
end

val record_cell :
  kind:Shmem.Obj_kind.t ->
  init:Shmem.Value.t ->
  threads:int ->
  ops_per_thread:int ->
  ?seed:int ->
  ?exchange:(Shmem.Value.t Atomic.t -> Shmem.Value.t -> Shmem.Value.t) ->
  gen:(thread:int -> step:int -> Random.State.t -> Shmem.Op.action) ->
  unit ->
  Linearize.Obj_history.event list
(** run [threads] domains against one cell, each applying [ops_per_thread]
    operations drawn from [gen], and return the timestamped history (sorted
    by invocation time) for {!Linearize.Obj_history} checking.  [?exchange]
    as in {!Cell.make}. *)

module Make (P : Shmem.Protocol.S) : sig
  type status =
    | Decided  (** reached a decision *)
    | Crashed_injected  (** halted by an injected crash point *)
    | Timed_out  (** stopped by the op budget or the wall-clock deadline *)
    | Faulted of exn  (** the process body raised *)

  val pp_status : Format.formatter -> status -> unit

  type outcome = {
    decisions : int array;
        (** one per process; [-1] for a process that did not decide *)
    statuses : status array;  (** one per process *)
    ops : int array;  (** shared-memory operations per process *)
    backoffs : int array;  (** backoff rounds taken per process *)
    elapsed : float;  (** monotonic seconds, spawn to last join *)
    histories : Linearize.Obj_history.event list array;
        (** per object, sorted by invocation timestamp; all empty unless the
            run recorded *)
    finals : P.state option array;
        (** each participating process's final local state — the
            configuration half of a post-run property snapshot; [None] for
            pids that did not run (possible only under {!run_round}) *)
    mem : Shmem.Value.t array;
        (** snapshot of every cell after the last join — the memory half of
            a post-run property snapshot *)
  }

  type arena
  (** the shared side of a run, decoupled from the processes: the atomic
      cells plus the logical timestamp source used by recorded histories.
      A supervisor keeps one arena across respawn rounds, so respawned
      incarnations see the memory their predecessors left and recorded
      timestamps stay totally ordered across recovery boundaries. *)

  val make_arena :
    ?exchange:(Shmem.Value.t Atomic.t -> Shmem.Value.t -> Shmem.Value.t) ->
    unit ->
    arena
  (** fresh cells holding each object's initial value; [?exchange] as in
      {!Cell.make}.  The initial values are built here, once per arena
      ([P.init_object] per object), and kept for {!reset_arena}. *)

  val arena_mem : arena -> Shmem.Value.t array
  (** snapshot of every cell's current value (indexed by object id) — the
      memory snapshot handed to [Protocol.S.recovery] hooks *)

  val reset_arena : arena -> unit
  (** rewind every cell to its declared initial value, {e without}
      resetting the logical history clock — the recycling primitive for
      arena re-entry ([lib/arena] pools arenas across epochs instead of
      allocating fresh cells per round), with timestamps staying totally
      ordered across recycles just as across supervisor respawns.  The
      caller must guarantee quiescence: no process may be mid-operation on
      the arena when it is reset.

      The reset stores the values {!make_arena} built, the same physical
      values on every reset, and allocates nothing.  This relies on
      values being immutable ([Shmem.Value]): a protocol that mutated a
      response it received could corrupt the initial value of every
      later round. *)

  val arena_apply : arena -> Shmem.Op.t -> Shmem.Value.t
  (** apply one poised operation against the arena's cells and return its
      response — the execution primitive for drivers that interleave
      several process state machines on a single domain (a service worker
      pulling whole rounds) instead of spawning one domain per process.
      @raise Invalid_argument on an out-of-range object id
      @raise Shmem.Obj_kind.Illegal_operation as {!Cell.apply} *)

  val run_round :
    arena:arena ->
    entries:(int * P.state) list ->
    ?seed:int ->
    ?max_ops:int ->
    ?backoff_window:int ->
    ?record:bool ->
    ?crash_at:(int * int) list ->
    ?stalls:(int * int * int) list ->
    ?deadline:float ->
    unit ->
    outcome
  (** run only the given [(pid, starting state)] processes — each on a
      fresh domain — against an existing arena.  This is {!run}'s engine
      and the supervisor's respawn primitive: round 0 runs every pid from
      [P.init]; later rounds run just the recovered pids from their
      [Protocol.S.recovery] states.  [crash_at]/[max_ops] count the {e
      round's} operations (each incarnation starts at 0).  In the returned
      outcome, pids not in [entries] have decision [-1], status
      [Timed_out], 0 ops and [finals] [None] — callers merge rounds.
      @raise Invalid_argument on out-of-range or duplicate pids *)

  val run :
    inputs:int array ->
    ?seed:int ->
    ?max_ops:int ->
    ?backoff_window:int ->
    ?record:bool ->
    ?exchange:(Shmem.Value.t Atomic.t -> Shmem.Value.t -> Shmem.Value.t) ->
    ?crash_at:(int * int) list ->
    ?stalls:(int * int * int) list ->
    ?deadline:float ->
    unit ->
    outcome
  (** spawn one domain per process and drive each through
      [init]/[poised]/[on_response] until [decision] returns.  After every
      [backoff_window] operations without a decision a process spins a
      random number of [Domain.cpu_relax] (exponentially growing bound) so
      that obstruction-free protocols obtain
      the solo windows they need; wait-free protocols decide within the
      first window and never back off.

      Degradation is graceful by construction: no exception ever crosses a
      domain boundary for budget or deadline exhaustion, every domain is
      always joined (even when one faults), and the outcome carries
      per-process [statuses] together with whatever partial data ([ops],
      [backoffs], recorded history prefixes) each process produced.

      @param seed per-run RNG seed (processes derive independent streams)
      @param max_ops per-process operation budget (default 4,000,000);
             exhausting it sets status [Timed_out] — for the protocols in
             this repository that indicates a livelock bug, not bad luck
      @param backoff_window default [8 * (num_objects + 1)]
      @param record collect timestamped histories (default false)
      @param crash_at [(pid, t)] fault injection: [pid] halts cold after its
             [t]-th operation (status [Crashed_injected]); obstruction-free
             protocols must let the survivors decide anyway
      @param stalls [(pid, t, dur)] fault injection: [pid] spins a forced
             preemption window of [dur] [Domain.cpu_relax] before its
             [t]-th operation
      @param deadline watchdog budget in seconds, measured on the
             {e monotonic} clock ([Resil.Clock] — immune to NTP steps and
             suspend/resume): once exceeded, every still-running process
             winds down with status [Timed_out] (checked every 256
             operations and at every backoff)
      @raise Invalid_argument on malformed [inputs] or fault points *)

  val check :
    ?bound:int -> inputs:int array -> outcome -> (unit, string) result
  (** the run's verdict.  Status rule: every process [Decided] or was
      [Crashed_injected] (only [crash_at] produces that status, so a run
      without injected crashes must have every process decided).  Then
      the final states of the processes that ran ([finals]) are judged by
      [Prop.Make(P)]'s shared rules: agreement within [bound] (default
      [P.k]) and validity against [inputs].  A supervisor that let [c]
      crashed incarnations touch memory before respawning passes
      [~bound:(P.k + c)]: restart-from-initial is indistinguishable from
      [c] extra silent participants, so agreement degrades to
      [(k + c)]-set agreement (Gafni's restricted-runs view) and no
      further.
      @raise Invalid_argument if [bound < P.k] *)

  val check_histories :
    ?max_events:int -> outcome -> (int * int, string) result
  (** check every recorded per-object history against the object kind's
      sequential specification; returns [(checked, skipped)].  Histories
      longer than [max_events] (default 24) are skipped — the Wing & Gong
      search is exponential — and reported in [skipped] so a "passing"
      check that covered nothing is visible.  [Error] carries the first
      object whose history fails to linearize. *)

  val check_hb : ?max_events:int -> outcome -> (int * int, string) result
  (** run {!Analyze.Hb.check_histories} — the near-linear vector-clock
      happens-before race checker — over the same recorded histories.
      Sound but incomplete where {!check_histories} is complete but
      exponential: the default [max_events] is 65_536, so it covers the
      long histories the linearizability checker must skip.  Returns
      [(checked, skipped)]; [Error] carries the first object with a
      definite atomicity violation (torn exchange, lost update, duplicate
      swap consumption). *)
end
