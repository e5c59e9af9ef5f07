(** The long-running consensus service: pooled swap arenas, epoch-stamped
    rounds, batched admission, and a supervised work-stealing worker pool.

    One agreement instance per request would allocate fresh atomic cells
    per round and spawn [P.n] domains per round — neither survives
    millions of rounds.  The service instead amortizes both:

    - {b Arena pool.}  A fixed set of [Runtime.Make(P)] arenas is
      pre-allocated; each decided round rewinds its arena's cells
      ([R.reset_arena] — quiescence is structural, the single driving
      worker owns every member) and reissues the slot under the {e next}
      epoch of its [Shmem.Epoch] stamp.  A stale reference to a recycled
      slot is detected by a stamp mismatch, never silently absorbed —
      the classic ABA failure made checkable with one load.

    - {b Batched admission.}  Clients enter through a lock-free
      swap-based {!Intake} queue.  A single-admitter critical section
      (claimed by whatever worker is idle) drains the intake with one
      [Atomic.exchange], appends those arrivals to a backlog private to
      the admitter, and coalesces the backlog's head into rounds of up to
      [P.n] members, assigning pids, seeded inputs, and an epoch-stamped
      arena slot.  Clients left waiting stay in the backlog, never go
      back to the intake: admission is strictly FIFO, and an admit costs
      O(arrivals + admitted), not O(waiting clients).

    - {b Work-stealing worker pool.}  [workers] worker slots pull whole
      rounds, not clients.  [Supervisor.Pool] runs slot 0 on the calling
      domain and spawns one domain per other slot; a crashed worker
      restarts as the next incarnation on its own domain.  A worker
      drives {e every} member state machine of its round on its own
      domain through [R.arena_apply].  Because a
      round has exactly one driver, each member's window is a solo run
      and obstruction-freedom guarantees decision.  The member's state
      stays local to the driving loop and is stored into the round once,
      when the member decides or runs out of its solo budget; a killed
      incarnation drops the round's states, so nothing reads them after
      a kill.  Idle workers steal queued rounds from other slots.

    - {b Kill-and-heal chaos.}  An optional [kill] plan (see
      [Fault.service_kill_plan]) names an operation count at which the
      incarnation driving a round dies (an exception through the worker,
      healing via [Supervisor.Pool]'s [on_crash], run on the dead
      worker's domain: the orphaned round is re-queued and {e adopted} by
      the next incarnation, members rebuilt through [P.recovery] against
      the dirty arena).  A restarted incarnation starts from fresh
      worker-local state, like the paper's recovered process.  Every
      killed incarnation that touched memory degrades that round's agreement
      bound by one — [k + crashed]-set agreement, Gafni's
      restricted-runs view, checked per round on the members' states by
      [Prop.Make(P).check_agreement] and [check_validity].

    Clients are closed-loop: a decided client thinks for a deterministic,
    seeded number of rounds (a timing wheel driven by the {e round}
    clock, never the wall clock) and re-enters the intake.  All
    timestamps come from [Resil.Clock]; the service is enrolled in the
    [--monotonic] source lint. *)

exception Killed of int
(** raised inside a worker by the chaos overlay; carries the round id *)

(** Always-on power-of-two-bucket latency histograms.  [Obs] histograms
    are also fed, but those are off unless metrics were enabled, and the
    load generator must report quantiles regardless. *)
module Hist : sig
  type t

  val create : unit -> t

  val bucket_of : int -> int
  (** the bucket an observation of [ns] lands in: 0 for [ns <= 1], else
      [Obs.floor_log2 ns]; unlike [Obs.Histogram], 0 and 1 share bucket
      0, and bucket [i >= 1] holds [2^i .. 2^(i+1) - 1] *)

  val observe : t -> int -> unit
  val count : t -> int
  val max_ns : t -> int

  val quantile : t -> float -> float
  (** upper edge (ns) of the bucket containing the q-quantile, capped by
      the observed maximum; 0 on an empty histogram.
      @raise Invalid_argument unless [0 <= q <= 1] *)
end

module Make (P : Shmem.Protocol.S) : sig
  module R : module type of Runtime.Make (P)

  type client
  (** a member of the closed-loop population; identified by id, carrying
      its submission timestamp and served count *)

  type summary = {
    rounds_done : int;  (** rounds decided (the service's round clock) *)
    target : int;  (** rounds requested *)
    decisions : int;  (** client decisions delivered (sum of round sizes) *)
    kills : int;  (** chaos kills taken *)
    adoptions : int;  (** rounds re-driven by a later incarnation *)
    steals : int;  (** rounds taken from another worker's queue *)
    escalated : int;  (** rounds checked at a degraded bound [> P.k] *)
    max_bound : int;  (** largest agreement bound any round needed *)
    recycles : int;  (** arena slots reset and reissued *)
    respawns : int;  (** worker incarnations restarted by the pool *)
    gave_up : int list;  (** worker slots whose breaker tripped *)
    violation_count : int;
    violations : (int * string) list;
        (** first 32 [(round, detail)] violations: agreement/validity
            breaches (at most one of each per round), stale stamps,
            double admissions, budget blowups *)
    conservation : (unit, string) result;
        (** post-run census: every client accounted for exactly once
            (intake + admitter backlog + think-wheel + stranded
            rounds), none pending outside a round — lost or duplicated
            clients surface here *)
    residue : int;  (** paranoid-mode reset-residue detections *)
    elapsed : float;  (** monotonic seconds *)
    admit_hist : Hist.t;  (** submit [->] admission latency, ns *)
    decide_hist : Hist.t;  (** submit [->] decision latency, ns *)
    digest : int;
        (** fold-hash of every admission batch (round id, member ids,
            inputs) — with [workers = 1] it is a deterministic function
            of the seed, the determinism oracle for tests *)
  }

  val ok : summary -> bool
  (** no violations, no residue, target reached, no abandoned workers,
      conservation holds *)

  val serve :
    clients:int ->
    rounds:int ->
    workers:int ->
    ?seed:int ->
    ?arenas:int ->
    ?max_think:int ->
    ?think:(client:int -> served:int -> int) ->
    ?input:(client:int -> served:int -> int) ->
    ?kill:(round:int -> incarnation:int -> int option) ->
    ?max_respawns:int ->
    ?paranoid:bool ->
    unit ->
    summary
  (** run the service until [rounds] rounds have decided.

      [arenas] (default [max 2 (2 * workers)]) sizes the arena pool;
      [max_think] (default 4) bounds the default seeded think-time in
      rounds; [think]/[input] override the seeded defaults (inputs are
      taken [mod P.num_inputs] by the default only — custom functions
      must stay in range); [kill] enables the chaos overlay;
      [max_respawns] (default 2) is the per-worker-slot breaker budget
      for unplanned crashes — a chaos kill is healed, not a persistent
      fault, and is never charged to it, so a [kill] plan must spare some
      incarnation of every round;
      [paranoid] re-reads every cell after each reset and records any
      non-initial value as residue.

      Metrics (when [Obs] is enabled): counters [arena.rounds],
      [arena.decisions], [arena.kills], [arena.adoptions],
      [arena.steals], [arena.recycles], [arena.escalations]; histograms
      [arena.admit_ns], [arena.decide_ns], [arena.batch]; span
      [arena.serve].
      @raise Invalid_argument on non-positive [clients]/[workers],
      negative [rounds]/[max_think], or an [arenas] outside
      [1 .. Shmem.Epoch.max_slots] *)
end
