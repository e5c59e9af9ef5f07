(** Executable monitors for the invariants §4 proves about Algorithm 1.

    Each numbered statement of the paper is a {e declared property}
    ([Prop.Make(P).t]) that the checker evaluates incrementally during
    exploration and the fault injector uses as a detection oracle;
    [Prop.Make(P).eval_step], [eval_config] and [start]/[advance] evaluate
    them along a single execution:

    - Observation 3 ({!Make.prop_lap_domination}): a process's local lap
      counter only grows (domination).
    - Observation 4 + line 16 ({!Make.prop_decide_lead}): on decision of
      [x], the deciding counter has [U.(x) >= 2] and leads every other
      component by at least 2.
    - Observation 1, externally visible form
      ({!Make.prop_max_lap_increment}): for each component [j], the maximum
      of [U.(j)] over all local lap counters and all object fields never
      increases by more than 1 in a single step (new laps are minted only
      by line 20, one at a time).
    - ⟨V,p⟩-totality relaxed to domination ({!Make.prop_totality}; the
      premise Observation 2 and Lemma 5 consume): whenever every object
      holds the same ⟨V,p⟩ with a process id [p], [p]'s own lap counter
      dominates [V].  Exact equality — the {!Make.total} predicate — is
      deliberately {e not} declared invariant: [p] may advance its counter
      between installs; domination is invariant by Observation 3 plus the
      fact that only [p] ever installs values tagged [p].
    - Lemma 8 ({!Make.prop_solo_bound}): from any reachable configuration,
      each undecided process decides within [8*(n-k)] solo steps. *)

module Make (P : Swap_ksa.S) : sig
  module E : module type of Shmem.Exec.Make (P)

  type snapshot = Prop.Make(P).snap = {
    states : P.state array;
    mem : Shmem.Value.t array;
  }
  (** the raw material of a configuration, decoupled from any particular
      execution engine's [config] type: fault-injection runs (lib/fault)
      step a distinct [Exec.Make] instance but feed the same invariant
      checks through snapshots.  The equation with [Prop.Make(P).snap]
      means monitor snapshots are {e the} property-layer snapshots. *)

  val snap : E.config -> snapshot

  val total : E.config -> (int array * int) option
  (** [total c] is [Some (v, p)] iff [c] is a ⟨V,p⟩-total configuration:
      every object holds [⟨V,p⟩] and [p]'s local lap counter is exactly
      [V] *)

  (** {1 Declared properties} *)

  val prop_lap_domination : Prop.Make(P).t
  (** "lap-domination" (step relation): Observation 3 *)

  val prop_decide_lead : Prop.Make(P).t
  (** "decide-lead-by-2" (step relation): Observation 4 + line 16 *)

  val prop_max_lap_increment : Prop.Make(P).t
  (** "max-lap-increment" (step relation): Observation 1 *)

  val prop_totality : Prop.Make(P).t
  (** "total-config-domination" (invariant): ⟨V,p⟩-totality, domination
      form *)

  val solo_bound : int
  (** [Swap_ksa.solo_step_bound ~n:P.n ~k:P.k] = 8(n-k) *)

  val prop_solo_bound :
    ?solo_ok:(pid:int -> snapshot -> bool) -> unit -> Prop.Make(P).t
  (** "solo-bound" (invariant): Lemma 8.  The default oracle replays a solo
      execution of up to {!solo_bound} steps per undecided process
      ([E.run_solo] from the snapshot); pass [solo_ok] to substitute a
      memoized oracle (e.g. [Explore.Make.solo_ok] behind a cap of
      {!solo_bound}). *)

  val step_props : Prop.Make(P).t list
  (** the three per-step invariants: lap-domination, decide-lead-by-2,
      max-lap-increment *)

  val online_props : Prop.Make(P).t list
  (** [step_props] plus "total-config-domination" — the cheap properties
      suitable for checking on every step of long runs (no solo replays) *)

  val props : ?solo_ok:(pid:int -> snapshot -> bool) -> unit -> Prop.Make(P).t list
  (** all five §4 properties ([online_props] plus "solo-bound") *)
end
