(** The closed-loop load generator: drive millions of k-set-agreement
    rounds through {!Service} and report throughput and latency.

    A closed loop means the offered load is self-regulating: a fixed
    population of [clients] virtual clients each submits, waits for its
    round to decide, thinks for a deterministic seeded number of rounds,
    and re-enters — so the generator can never outrun the service and
    every latency sample is an honest queueing + service time.  Think
    times are shaped by a {!profile}; all randomness is seeded, so a run
    is reproducible bit-for-bit given [(seed, workers = 1)].

    Latency quantiles come from the service's always-on histograms;
    when [Obs] is enabled the same samples also land in
    [arena.admit_ns] / [arena.decide_ns] for snapshots and [bench
    --json]. *)

type profile =
  | Zero_think  (** every client re-enters immediately: saturation *)
  | Steady  (** seeded think-times uniform in [0 .. max_think] rounds *)
  | Bursty
      (** mostly immediate re-entry with occasional long sleeps
          ([4 * max_think] rounds) — admission sees waves *)

val profile_of_string : string -> (profile, string) result

type result = {
  protocol : string;
  clients : int;
  workers : int;
  target : int;
  rounds : int;
  decisions : int;
  elapsed : float;  (** monotonic seconds *)
  rounds_per_sec : float;
  decisions_per_sec : float;
  admit_p50_us : float;
  admit_p95_us : float;
  admit_p99_us : float;
  decide_p50_us : float;
  decide_p95_us : float;
  decide_p99_us : float;
  kills : int;
  adoptions : int;
  steals : int;
  escalated : int;
  max_bound : int;
  respawns : int;
  gave_up : int;
  violation_count : int;
  violations : (int * string) list;
  conservation_error : string option;
  residue : int;
  digest : int;
  ok : bool;
}

val run :
  protocol:Shmem.Protocol.t ->
  clients:int ->
  rounds:int ->
  workers:int ->
  ?seed:int ->
  ?arenas:int ->
  ?profile:profile ->
  ?max_think:int ->
  ?kill_every:int ->
  ?max_point:int ->
  ?paranoid:bool ->
  unit ->
  result
(** instantiate [Service.Make] over [protocol] and drive it.
    [kill_every] (quiet when omitted) enables the kill-and-heal chaos
    overlay through [Fault.service_kill_plan ~seed ~kill_every] —
    roughly one round in [kill_every] loses its driving incarnation
    mid-flight and is adopted.  Defaults: [profile = Steady],
    [max_think = 4], [seed = 0x5EED].
    @raise Invalid_argument as [Service.Make(P).serve], or if
    [kill_every]/[max_point] are out of range
    ([Fault.service_kill_plan]) *)

val pp : Format.formatter -> result -> unit
(** multi-line human-readable report *)
