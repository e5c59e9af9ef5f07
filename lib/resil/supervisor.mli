(** Supervision and crash-recovery over the multicore runtime.

    [Make (P)] watches a [Runtime.Make (P)] execution: round 0 runs every
    process from its initial state; after each round the supervisor
    inspects per-process statuses, rebuilds failed processes' states
    through [P.recovery] ([Restart] from scratch, or [Resume] from a
    snapshot of the shared arena), and respawns them on fresh OCaml 5
    domains against the {e same} arena — so respawned incarnations see the
    memory their predecessors left, and recorded history timestamps stay
    totally ordered across recovery boundaries (the HB checker and the
    linearizability checker run over the merged histories unchanged).

    Respawning is governed by a {!policy} built from [Resil.Policy]
    pieces: a per-process circuit breaker caps respawns, a monotonic
    deadline bounds the whole supervision, a backoff paces respawn rounds,
    and each round runs under the runtime's own monotonic watchdog.  When
    a process exhausts its breaker the supervisor {e escalates}: it stops
    respawning and degrades the agreement claim to
    [k' = k + crashed-incarnations]-set agreement, surfaced through
    [check] (which calls the runtime's [check ~bound] — Gafni's
    restricted-runs view: each abandoned incarnation that touched memory
    is at most one extra silent participant). *)

module Make (P : Shmem.Protocol.S) : sig
  module R : module type of Runtime.Make (P)

  type policy = {
    max_respawns : int;
        (** per-process respawn budget (circuit-breaker threshold); 0
            disables recovery *)
    budget : Resil.Policy.Deadline.t;
        (** monotonic budget for the whole supervision, all rounds
            included; [Deadline.never] for none *)
    round_deadline : float option;
        (** per-round runtime watchdog, in seconds *)
    pace : Resil.Policy.Backoff.t;
        (** backoff between a failure and the respawn round *)
  }

  val default_policy : unit -> policy
  (** [max_respawns = 2], no global budget, 10 s round watchdog, capped
      exponential pacing.  A function: deadlines are absolute, so the
      policy must be built at supervision time. *)

  type report = {
    outcome : R.outcome;
        (** merged across rounds: last status/decision/final state per
            process, summed ops/backoffs/elapsed, histories concatenated
            and re-sorted on the shared arena clock *)
    rounds : int;  (** total rounds run (1 = no recovery needed) *)
    respawns : int array;  (** respawn count per process *)
    crashed_incarnations : int;
        (** replaced incarnations that performed at least one shared-memory
            operation — the degradation currency: each one is at most one
            extra silent participant *)
    gave_up : int list;
        (** pids abandoned with a non-[Decided] status: breaker tripped or
            budget exhausted *)
    unanchored : int list;
        (** pids whose final [Restart] incarnation never touched shared
            memory: the residue their predecessor left is neither
            overwritten nor re-anchored, so configuration invariants
            relating their (reset) private state to memory are not sound
            on the final snapshot — {!check_props} abstains when this is
            nonempty (always empty under [Resume]) *)
    degraded_k : int;  (** [P.k + crashed_incarnations] *)
    recover_ns : int64 list;
        (** per respawned incarnation: monotonic ns from failure detection
            to its recovery round's last join *)
  }

  val supervise :
    inputs:int array ->
    ?seed:int ->
    ?policy:policy ->
    ?max_ops:int ->
    ?backoff_window:int ->
    ?record:bool ->
    ?exchange:(Shmem.Value.t Atomic.t -> Shmem.Value.t -> Shmem.Value.t) ->
    ?crash_plan:(round:int -> pid:int -> int option) ->
    ?stalls:(int * int * int) list ->
    unit ->
    report
  (** run under supervision.  [crash_plan ~round ~pid] injects a crash
      point (op count within that round) for a participating pid — round 0
      covers the initial full run, later rounds the respawned pids only;
      chaos campaigns use it to kill-and-heal repeatedly.  [stalls] apply
      to round 0.  Obs: increments [resil.respawns] per respawn,
      [resil.supervisor.rounds] / [.escalations], and observes
      [resil.recover_ns] per recovered incarnation (time-to-recover —
      quantiles via [Obs.quantile]).
      @raise Invalid_argument on malformed [inputs] *)

  val check : inputs:int array -> report -> (unit, string) result
  (** the supervised degradation contract: every process either decided or
      was abandoned as crashed, decided values within
      [degraded_k]-agreement and validity —
      [R.check ~bound:report.degraded_k] *)

  val check_props :
    Prop.Make(P).t list -> report -> (string * string) option
  (** evaluate each property's per-configuration check on the merged final
      snapshot (final states + final memory) — the "prop pack still holds
      across recovery boundaries" oracle.  [Some (name, detail)] on the
      first violation; [None] when all pass, when some process never ran
      (no snapshot exists), or when [report.unanchored] is nonempty (the
      snapshot is not sound to judge — see {!report}).  Per-step checks
      cannot be replayed from a real multicore run; cross-boundary step
      soundness comes from [R.check_hb] / [R.check_histories] over the
      merged histories. *)
end

(** Supervision of a fixed {e worker pool} rather than one protocol
    round.

    A long-running service ([lib/arena]) keeps a pool of domains that
    each drive many agreement rounds; what needs supervising is the pool,
    not any single round.  [Pool.run] runs slot 0 on the calling domain
    and spawns one domain for each other slot.  Each slot heals itself:
    when its body raises, the {e same} domain runs the successor
    incarnation (incarnation + 1), until the slot's circuit breaker trips
    ([max_respawns] charged failures).  No supervisor thread exists and a
    crash spawns nothing; all domains are joined before [run] returns. *)
module Pool : sig
  type report = {
    respawns : int array;  (** per slot *)
    gave_up : int list;
        (** slots abandoned after the breaker tripped, in trip order *)
    crashes : (int * int * string) list;
        (** every [(slot, incarnation, exn)] caught, in arrival order *)
  }

  val run :
    workers:int ->
    ?max_respawns:int ->
    ?charge:(exn -> bool) ->
    ?on_crash:(slot:int -> incarnation:int -> exn -> unit) ->
    (slot:int -> incarnation:int -> unit) ->
    report
  (** [run ~workers body] drives [body ~slot ~incarnation] for slots
      [0 .. workers - 1] (incarnation 0): slot 0 on the calling domain,
      the others on [workers - 1] spawned domains ([workers = 1] spawns
      none).  Returns once every slot has either returned normally or
      been abandoned.  A successor incarnation runs on its slot's domain,
      and [Domain.DLS] is not reset between incarnations.  [on_crash]
      runs on the crashed slot's domain, after the breaker is charged and
      {e before} the successor starts — the hook through which a service
      recovers whatever work the dead incarnation had in flight.  If
      [on_crash] raises, the slot stops and [run] re-raises once every
      spawned domain has been joined.  [max_respawns] (default 2) is the
      per-slot breaker budget; 0 disables respawning.  Only crashes whose
      exception satisfies [charge] (default: all) count against it; an
      uncharged crash is always respawned — the hook for planned deaths,
      such as a chaos overlay's kills.  Metrics: [resil.pool.respawns],
      [resil.pool.gave_up].
      @raise Invalid_argument unless [workers >= 1] and
      [max_respawns >= 0] *)
end
