(** The execution engine: configurations, steps, executions and schedulers
    for a given protocol (§3 of the paper).

    A configuration consists of a state for every process and a value for
    every object.  An execution is produced by a scheduler that repeatedly
    picks an undecided process to take its next (deterministic) step. *)

module Make (P : Protocol.S) : sig
  type config = private {
    states : P.state array;  (** one per process, index = pid *)
    mem : Value.t array;  (** one per object, index = object *)
  }

  val initial : inputs:int array -> config
  (** the initial configuration in which process [p] has input [inputs.(p)];
      [inputs] must have length [P.n] and entries in [0 .. num_inputs-1] *)

  val unsafe_config : states:P.state array -> mem:Value.t array -> config
  (** rebuild a configuration from raw state/memory arrays (defensively
      copied).  "Unsafe" because nothing certifies the arrays describe a
      {e reachable} configuration — the caller vouches for that.  Exists so
      engine-independent snapshots (the property layer's [Prop.Make.snap],
      the monitor's [snapshot]) can be re-entered into {e any} [Exec.Make]
      instance, e.g. to measure a solo run from a snapshot taken by a
      different engine.
      @raise Invalid_argument on length mismatch with [P.n] / [P.objects] *)

  val shared_config : states:P.state array -> mem:Value.t array -> config
  (** {!unsafe_config} without the copies: the configuration holds [states]
      and [mem] themselves, so the caller must never mutate them
      afterwards.  [lib/explore] builds its stored configurations this way
      from hash-consed states and memories that many configurations share.
      @raise Invalid_argument on length mismatch with [P.n] / [P.objects] *)

  val value : config -> int -> Value.t
  (** [value c b] is value(B_b, C) *)

  val decision : config -> int -> int option
  val decided_values : config -> int list
  (** distinct values decided in the configuration, ascending *)

  val undecided : config -> int list
  (** pids of processes that have not decided, ascending *)

  val all_decided : config -> bool
  val poised : config -> int -> Op.t

  val covers : config -> pids:int list -> objs:int list -> bool
  (** whether the set of processes covers the set of objects: same size, and
      the sets of objects the processes are poised to apply nontrivial
      operations to equals [objs] with one process per object (§3) *)

  val step : config -> int -> config * Trace.step
  (** [step c pid] applies the next step of [pid].
      @raise Invalid_argument if [pid] has already decided *)

  type apply_fn = pid:int -> op:Op.t -> current:Value.t -> Value.t * Value.t
  (** object semantics: given the stepping process, its poised operation and
      the object's current value, produce the new value and the response.
      The default is the kinds' sequential specification
      ([Obj_kind.apply]); [lib/fault] substitutes deliberately non-atomic
      variants here for negative testing. *)

  val default_apply : apply_fn

  val step_with : apply:apply_fn -> config -> int -> config * Trace.step
  (** [step] with substituted object semantics.  The resulting configuration
      is a perfectly ordinary [config] — monitors, agreement/validity checks
      and the shrinker all apply unchanged.
      @raise Invalid_argument if [pid] has already decided *)

  val run_script : config -> int list -> config * Trace.t
  (** apply the next step of each listed process in order (e.g. a block
      update is [run_script c pids] for covering processes [pids]) *)

  val replay : config -> Trace.t -> config
  (** re-apply a trace's schedule from [c], asserting that every step
      obtains the same response as recorded.
      @raise Assert_failure if a response differs (the trace is not
      applicable to [c] with identical outcomes) *)

  type scheduler = step_index:int -> config -> int list -> int option
  (** given the step index, the configuration and the undecided pids
      (ascending), pick the next process, or [None] to stop *)

  val round_robin : scheduler
  val random : Random.State.t -> scheduler
  val solo : int -> scheduler

  val bursty : Random.State.t -> burst:int -> scheduler
  (** picks a random undecided process and runs it for [burst] consecutive
      steps before switching.  Obstruction-free algorithms are only
      guaranteed to terminate when some process eventually runs long enough
      alone; under the uniformly random scheduler Algorithm 1 with 6
      processes routinely exceeds 200k steps without a decision, while
      bursts longer than one solo pass decide almost immediately (this is
      measured by bench table T6).  Stateful: create a fresh scheduler per
      run. *)

  val with_crashes : crash_at:(int * int) list -> scheduler -> scheduler
  (** [(pid, t)] in [crash_at] crashes [pid] at global step [t]: it is never
      scheduled from then on.  Obstruction-free algorithms tolerate any
      number of crashes — the survivors must still decide. *)

  val with_stalls : stalls:(int * int * int) list -> scheduler -> scheduler
  (** [(pid, t, dur)] in [stalls] stalls [pid] for the global steps
      [t .. t+dur-1]: it is not scheduled inside the window.  Unlike a
      crash, a stall is finite: if {e every} enabled process is mid-stall,
      the underlying scheduler picks among all of them (in real time the
      window would simply elapse; the step-indexed simulator has no idle
      ticks). *)

  type outcome = All_decided | Stopped | Step_limit

  val run :
    sched:scheduler -> max_steps:int -> config -> config * Trace.t * outcome

  val run_solo : pid:int -> max_steps:int -> config -> (config * Trace.t) option
  (** the solo-terminating execution of [pid] from [c]: run [pid] alone until
      it decides.  [None] if it does not decide within [max_steps] (for the
      obstruction-free protocols in this repository that indicates a bug or a
      too-small bound). *)

  val equal_config : config -> config -> bool
  val hash_config : config -> int

  val rename :
    perm:int array ->
    rename_state:((int -> int) -> P.state -> P.state) ->
    config ->
    config
  (** [rename ~perm ~rename_state c] is the configuration π·c for the
      process permutation π = [fun p -> perm.(p)]: process [p]'s state moves
      to slot [π p] after being renamed by [rename_state π], and every
      memory value is renamed by [Value.rename π].  [perm] must be a
      bijection on [0 .. n-1].  For anonymous protocols
      ([Protocol.Anonymous]) the step relation commutes with this action,
      which is what licenses the symmetry reduction in [lib/explore]. *)

  val pid_map : int array -> int -> int
  (** [pid_map perm] is the pid map π = [fun p -> perm.(p)] that {!rename}
      applies, extended by the identity outside [0 .. n-1] (such pids can
      only appear in malformed values) *)

  val indistinguishable_to : pids:int list -> config -> config -> bool
  (** C₁ ~P C₂: every process in [pids] has the same state in both *)

  val restricted_key : pids:int list -> config -> int
  (** hash of the configuration restricted to the given processes' states
      plus the full memory — two configurations with equal keys are candidates
      for P-indistinguishability with equal memories *)

  val equal_restricted :
    pids:int list -> config -> config -> bool
  (** P-indistinguishable and all objects have the same values *)

  val check_validity : inputs:int array -> config -> bool
  (** every decided value is the input of some process *)

  val check_agreement : config -> bool
  (** at most [P.k] distinct values are decided *)

  val pp_config : Format.formatter -> config -> unit
end
