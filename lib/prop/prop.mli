(** Declarative temporal properties over [Shmem.Protocol.S] transition
    systems.

    A property is a named, self-describing correctness statement about a
    protocol, built from three primitive shapes:

    - {e state invariants} — a predicate that must hold of every reachable
      configuration ([invariant], [always], [never]);
    - {e per-step relations} — a predicate over a single transition
      [before --pid--> after] ([step_rel]);
    - {e safety automata} — a deterministic observer with hidden state that
      advances on every transition and rejects by returning an error
      (LTL-lite: [automaton], [leads_to_within], and [product] to conjoin).

    Properties evaluate over engine-independent {e snapshots} (bare
    state/memory arrays) rather than over any particular [Exec.Make]'s
    sealed [config], so one declared property can be checked by the
    exhaustive explorer, the random walker, the fault injector and the
    multicore runtime alike.  Evaluation helpers tally the global
    [prop.checked] / [prop.violated] counters and time each property under
    its own [prop.eval.<name>] span (both free when [Obs] is disabled).

    Property functions must be pure (no hidden mutable state outside the
    automaton's explicit ['s]): the checker may evaluate them in any order,
    from any configuration, possibly concurrently, and the shrinker
    re-evaluates them on reduced schedules. *)

type kind =
  | Invariant  (** checked on every visited configuration *)
  | Step  (** checked on every transition *)
  | Automaton  (** hidden-state observer advanced on every transition *)

val kind_to_string : kind -> string

type spec = { name : string; kind : kind; desc : string }
(** the externally visible face of a property: [name] is the selection key
    used by [check --props] and detection tallies, [desc] a one-line
    human-readable statement *)

val pp_spec : Format.formatter -> spec -> unit

module Make (P : Shmem.Protocol.S) : sig
  type snap = { states : P.state array; mem : Shmem.Value.t array }
  (** an engine-independent configuration snapshot: one state per process
      (index = pid), one value per object.  Construct from any engine's
      config by reusing its arrays (snapshots are read-only by convention),
      re-enter into an engine with [Exec.Make(P).unsafe_config]. *)

  type guard =
    P.state -> Shmem.Value.t array -> P.state -> Shmem.Value.t array -> bool
  (** A step relation's guard: [guard st mem st' mem'] says whether the
      relation may report a step that takes the stepping process from
      state [st] on memory [mem] to state [st'] on memory [mem'].  The
      contract:

      - {b restriction-local}: it sees the stepping process's state and
        the memory before and after the step, and nothing else — no other
        process's state and no pid;
      - {b sound}: if it returns [false], the relation returns [None] on
        every step from a configuration whose stepping process's state and
        memory are [st] and [mem] to one where they are [st'] and [mem'],
        whatever the other processes' states and whichever pid the process
        has.

      It may over-approximate: [true] only means the relation must run.
      The explorer evaluates it once per restriction step (the pair of
      restrictions a process's step relates) and runs the relation only on
      the edges whose restriction step the guard lets through, so an
      unsound guard silently hides violations. *)

  val decided_values : snap -> int list
  (** distinct values decided in the snapshot, ascending *)

  val undecided : snap -> int list
  (** pids of processes that have not decided, ascending *)

  type t
  (** a property over [P]'s transition system *)

  val spec : t -> spec
  val name : t -> string

  val has_config : t -> bool
  (** evaluates something per configuration *)

  val has_step : t -> bool
  (** evaluates something per transition (stateless) *)

  val has_auto : t -> bool
  (** carries a safety automaton (per-transition, stateful) *)

  val joint_guard : t list -> guard option
  (** the disjunction of the guards of the properties' step relations:
      [None] if one of them declares no guard (it must then run on every
      transition), or none has a step relation *)

  (** {1 Builders} *)

  val invariant : name:string -> desc:string -> (snap -> string option) -> t
  (** [Some detail] = violated, with a counterexample description *)

  val step_rel :
    name:string ->
    desc:string ->
    ?guard:guard ->
    (before:snap -> pid:int -> after:snap -> string option) ->
    t
  (** a per-transition check; [guard] (see {!guard}) lets an explorer skip
      the transitions it rules out *)

  val automaton :
    name:string ->
    desc:string ->
    init:(snap -> ('s, string) result) ->
    next:('s -> before:snap -> pid:int -> after:snap -> ('s, string) result) ->
    unit ->
    t
  (** a deterministic safety automaton: [init] seeds the hidden state from
      the initial configuration, [next] advances it across each transition;
      [Error detail] rejects (the property is violated at that point) *)

  val always : name:string -> ?desc:string -> (snap -> bool) -> t
  (** invariant: the predicate holds of every reachable configuration *)

  val never : name:string -> ?desc:string -> (snap -> bool) -> t
  (** invariant: the predicate holds of no reachable configuration *)

  val leads_to_within :
    name:string ->
    ?desc:string ->
    trigger:(snap -> bool) ->
    goal:(snap -> bool) ->
    within:int ->
    unit ->
    t
  (** bounded response along an execution: whenever [trigger] holds (and
      [goal] does not already), [goal] must hold within the next [within]
      transitions.  A safety automaton — only meaningful on linear runs
      (walks, fault executions), where "next" is the run's own order.
      @raise Invalid_argument if [within < 1] *)

  val product : name:string -> ?desc:string -> t list -> t
  (** conjunction: violated as soon as any component is, with the
      component's name prefixed to the detail (when more than one).  Its
      step relation's guard is the disjunction of the components' guards
      when every component with a step relation declares one.
      @raise Invalid_argument on the empty list *)

  (** {1 Built-in consensus properties} *)

  val agreement : t
  (** "k-agreement": at most [P.k] distinct values are decided.  Like
      [validity], it allocates nothing on a configuration where it
      holds. *)

  val validity : inputs:int array -> t
  (** "validity": every decided value is some process's input *)

  val solo_termination :
    ?pid:int -> cap:int -> solo_ok:(pid:int -> snap -> bool) -> unit -> t
  (** "solo-termination": every undecided process ([?pid] restricts to one)
      decides within [cap] solo steps, as judged by the caller's [solo_ok]
      oracle (typically [Explore.Make.solo_ok]'s memoized solo runner) *)

  (** {1 Evaluation}

      All evaluators tally [prop.checked]/[prop.violated] and run under the
      property's span. *)

  val eval_config : t -> snap -> string option
  (** the property's per-configuration check, if any ([None] otherwise) *)

  val eval_step : t -> before:snap -> pid:int -> after:snap -> string option
  (** the property's stateless per-transition check, if any *)

  type marking
  (** an automaton's hidden state positioned at some configuration *)

  val no_marking : marking
  (** the inert marking: [advance_marking] is the identity on it.  The
      marking for a property with no automaton, and the "dead" marking a
      driver can store after a rejection to stop tracking. *)

  val init_marking : t -> snap -> (marking, string) result
  val advance_marking :
    t -> marking -> before:snap -> pid:int -> after:snap -> (marking, string) result

  (** {1 Linear runs}

      A convenience monitor for executing all three shapes along a single
      execution (random walks, fault injections, multicore histories):
      invariants on every configuration, step relations and automata on
      every transition. *)

  type run

  val start : t list -> snap -> run * (string * string) option
  (** position the properties at an execution's initial configuration;
      returns the first [(name, detail)] violation at it, if any.  An
      automaton that rejects at [init] is dead in the returned [run] (it
      will not be advanced). *)

  val advance :
    run -> before:snap -> pid:int -> after:snap -> (string * string) option
  (** advance across one transition; first [(name, detail)] violation among
      (in property order) step relation, invariant on [after], automaton.
      A rejecting automaton dies; other properties keep evaluating on
      subsequent calls. *)

  val select : names:string list -> t list -> (t list, string) result
  (** the sublist (in original order) whose names appear in [names];
      [Error] names the unknown entries and lists what is available *)
end

(** {1 Property packs}

    A pack couples a protocol with properties declared over it, hiding the
    protocol's type identity so heterogeneous registries can carry one.
    Unpack {e first} and instantiate checkers from the pack's own [P] so
    the property and checker types unify:
    {[
      let (module Pk) = entry.props in
      let module C = Checker.Make (Pk.P) in
      C.explore ~extra_props:(fun _ -> Pk.props) ...
    ]} *)

module type PACK = sig
  module P : Shmem.Protocol.S

  val props : Make(P).t list
end

type pack = (module PACK)

val pack_specs : pack -> spec list

val generic_pack : Shmem.Protocol.t -> pack
(** the properties every k-consensus protocol owes us regardless of
    algorithm: currently just [agreement] (validity and solo-termination
    need runtime parameters — inputs, a solo oracle — and are supplied by
    the checker itself) *)
