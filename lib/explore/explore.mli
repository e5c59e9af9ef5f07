(** A unified state-space exploration engine over protocol configurations.

    Every traverser in the repository — the model checker's exhaustive
    enumeration, the Theorem 10 driver's sampled-schedule search, the bench
    throughput probes — walks the same object: the graph of configurations
    reachable from [Exec.Make(P).initial ~inputs] under single process
    steps.  This engine owns that graph once:

    - {b Interned store}: process states and memories are hash-consed
      once each into per-store id tables, and every configuration is
      hash-consed in turn into an integer {!Make.id} (ids are
      [0 .. size - 1] in order of discovery).  The store is one chunked
      int vector, chunks that double in size up to a fixed one and are
      never copied, with one record of a few ints per configuration, and
      it is all the memory a configuration takes.  The record bit-packs
      its states and memory, its parent back-edge (predecessor id * n +
      pid) and, under symmetry reduction, its witness's permutation id.
      The states and memory are stored as dense codes, which a state or
      memory gets the first time a stored record holds it, so the states
      and memories only solo walks and renamings meet widen nothing.  Each
      field is as wide as the largest value stored in it; when a value
      outgrows its field, the field widens and the stored records are
      re-encoded once, as a rehash does.  The index hashes and compares
      only the states and memory.  Traversals carry ids instead of whole
      configurations, and violation schedules are reconstructed on demand
      by {!Make.trace_to}, which reads each back-edge from the record and
      recomputes the edge's step from the predecessor's state and memory.
      A process's step reads only its own state and the
      memory, so steps are memoized on that restriction, the pair (state
      id, memory id), as one int per restriction: the ids of the state and
      the memory the step leads to.  A successor's ids are its parent's
      with the stepped slot and the memory overwritten from that table,
      and only a table miss runs [Exec.step] and hashes what it produced;
      the op and response are recomputed from the restriction where a step
      is reported.  Every table lookup is exact, confirmed by
      [P.equal_state] or [Value.equal], never by hash alone.
    - {b Symmetry reduction} (opt-in, [~sym:true]): for protocols declaring
      {!Shmem.Protocol.Anonymous}, configurations are interned by their
      canonical representative under the process-permutation group — up to
      [n!] collapse — with a witness permutation recorded per configuration
      (as the id of the interned permutation) so {!Make.trace_to} still
      reconstructs concrete, replayable schedules.
      The representative puts the processes its memory mentions first,
      in first-mention order, then the rest by [canon_key] and pid, so its
      memory is in first-mention form, the solo oracle's frame.
      Canonicalization runs on the ids: [canon_key] is cached per state
      id and each renamed state or memory is memoized per (id,
      permutation), so a renaming met before costs no hashing.
    - {b One expansion rule}: every traversal expands every undecided
      process at every configuration it expands, so the graph is the
      plain configuration graph or, under [~sym:true], its symmetry
      quotient, and nothing else.
    - {b Strategies}: breadth-first ({!Make.bfs}), depth-first ({!Make.dfs})
      and sampled random walks ({!Make.walk}, the Theorem-10-style search)
      share one visitor interface: the strategy calls the visitor at every
      configuration and the visitor's {!Make.verdict} steers pruning and
      early exit.  Breadth-first search keeps no queue: ids are issued in
      discovery order, so the store is the queue, the root and then every
      id issued since the search began, walked by a cursor, with depths
      from the level boundaries.  Depth-first search keeps a stack of
      ints.
    - {b Memoized solo oracle}: {!Make.solo_steps} caches solo-run
      verdicts keyed by the only inputs a solo execution can read: the
      queried process's state and the shared memory, as the int pair of
      their ids, in the same restriction table as the steps.  A query on
      the configuration a traversal is visiting reads those ids from a
      cursor the store keeps, so a hit hashes nothing and compares no
      structure; other arrays are hashed and interned.
      Under symmetry reduction the memory is keyed as renamed to
      first-mention order (memoized per memory id) and the state is
      renamed by the same permutation, with the owner at its mention rank
      (or the first free rank), so one verdict serves the whole orbit of
      the restriction.  A stored representative's memory is already in
      that form, so for a process it mentions, and the first one it does
      not, the key is the restriction itself.  A miss runs the process alone on the restriction,
      stops at the first position already known and records the exact
      verdict of every position it walked.
    - {b One domain}: a store takes no locks, and every traversal runs
      serially on the domain that calls it.  A store must not be used
      from two domains at once. *)

module Make (P : Shmem.Protocol.S) : sig
  module E : module type of Shmem.Exec.Make (P)

  type id = int
  (** dense configuration identifier: a store's ids are
      [0 .. size t - 1], in the order they were interned, and the root is
      [0] *)

  type t
  (** an exploration: the interned store, the solo oracle cache and the
      root configuration.  One [t] per initial configuration. *)

  val default_solo_cap : int
  (** [64 * (number of objects + 1)]: the single definition of the solo
      step budget used by every layer (checker, monitors, bench) unless a
      caller overrides it *)

  val create :
    ?solo_cap:int ->
    ?sym:bool ->
    ?por:bool ->
    inputs:int array ->
    unit ->
    t
  (** [create ~inputs ()] interns [E.initial ~inputs] as the root.
      [solo_cap] (default {!default_solo_cap}) bounds the oracle's solo
      executions.

      [sym] (default [false]) turns on symmetry reduction; it is a no-op
      for protocols declaring {!Shmem.Protocol.Asymmetric}.  It preserves
      the verdicts of agreement, validity and solo-termination checking
      and the set of reachable decision values; it changes which (and how
      many) configurations are interned and visited, so config counts and
      visit orders differ from an unreduced run.

      [por] is ignored: there is no partial-order reduction.  The
      argument stays only because the benchmark harness
      ([perfbench/check_wl.ml]) still passes it. *)

  val root : t -> id
  val inputs : t -> int array
  (** the input vector of the root configuration (a copy) *)

  val config : t -> id -> E.config
  (** the stored configuration, built from the id tables: its state
      objects and memory array are the tables' own, shared with every
      other configuration holding them, so they must not be mutated.
      Under symmetry reduction this is the canonical orbit representative,
      not necessarily the configuration that was passed to {!intern}.
      Solo queries on its arrays ({!solo_steps}) read their ids instead of
      hashing, until another configuration is built (by [config] or a
      traversal) or other arrays are queried.
      @raise Invalid_argument unless [0 <= id < size t] *)

  val size : t -> int
  (** number of interned configurations *)

  val record_words : t -> int
  (** the ints each stored configuration's record takes now; it grows as
      the fields widen *)

  val solo_cap : t -> int

  val sym_enabled : t -> bool
  (** whether symmetry reduction is active (requested via [~sym:true] AND
      the protocol declares {!Shmem.Protocol.Anonymous}) *)

  val intern :
    t ->
    ?parent:id * Shmem.Trace.step ->
    E.config ->
    id * bool * int array option
  (** hash-cons a configuration; the boolean is [true] iff it was fresh,
      and the permutation σ (as an array, [None] = identity) maps the given
      configuration to the stored one — [config t id] equals
      [E.rename ~perm:σ ~rename_state c], also on a dedup hit.
      [parent] is recorded only on fresh insertion (first discovery wins,
      so BFS back-edges spell shortest-known schedules).  Only the parent's
      id and the step's pid are stored: {!trace_to} rebuilds the step as
      [pid]'s step from [config t parent], so [parent]'s step must be
      [snd (E.step (config t parent) pid)] and the given configuration in
      the orbit of (under symmetry reduction), or equal to, the
      configuration that step reaches.  Under symmetry reduction the
      configuration is canonicalized first and the witness permutation
      recorded alongside the back-edge, so the step is spelled in the
      parent's {e stored} (canonical) frame. *)

  val trace_to : t -> id -> Shmem.Trace.t
  (** the schedule from {!root} to [id], reconstructed from back-edges:
      each edge's step is the pid's step from the predecessor's stored
      state and memory, its op and response recomputed as {!E.step}
      computes them.  Under symmetry reduction the rebuilt steps are
      renamed through the composed witness permutations, so the result is
      always a {e concrete} schedule: replaying it from [E.initial ~inputs]
      reproduces every recorded response and reaches a configuration in
      the orbit of [config t id].
      @raise Invalid_argument unless [0 <= id < size t] *)

  val trace_via : t -> id -> Shmem.Trace.step -> Shmem.Trace.t
  (** [trace_to t id] extended by one more step out of [id], spelled in
      [id]'s stored (canonical) frame — exactly the shape {!step_obs} hands
      to observers.  The extra step is renamed into the concrete frame the
      reconstructed schedule ends in, so the result is again a concrete,
      replayable schedule.  This is how a property violation detected {e on
      an edge} (rather than at a visited configuration) gets its
      counterexample trace. *)

  val solo_ok : t -> pid:int -> E.config -> bool
  (** whether [pid] decides within [solo_cap t] solo steps from the given
      configuration: [solo_steps t ~pid c <> None] *)

  val solo_steps : t -> pid:int -> E.config -> int option
  (** the number of steps [pid] takes to decide when run alone from the
      given configuration, or [None] if it does not decide within
      [solo_cap t] — the solo-bound verifier of [lib/analyze] compares
      these measurements against a protocol's declared bound (Lemma 8's
      [8(n-k)] for Algorithm 1).

      Memoized on the restriction [(pid's state, memory)] — sound because a
      solo execution of [pid] reads nothing else.  Under symmetry reduction
      the restriction is renamed by a permutation first (memory
      first-mentions in order, then [pid] at its mention rank or the first
      free rank, then the other pids ascending), so renamed restrictions
      share one verdict.  A miss walks the solo run, stops at the first
      position already known and records the exact verdict of every
      position walked. *)

  val solo_steps_of :
    t -> pid:int -> st:P.state -> mem:Shmem.Value.t array -> int option
  (** {!solo_steps} on a restriction given as [pid]'s state and the memory
      array, for callers holding a snapshot rather than a configuration.
      When they are the arrays of the configuration {!config} or a
      traversal last built, the ids are read, not computed.  Consecutive queries
      on any other (physically equal) memory array key that memory only
      once, so [mem] must not be mutated afterwards. *)

  (** {1 Strategies}

      All strategies call [visit] exactly once per discovered configuration
      (walks may revisit interned configurations; they still call [visit]
      at every position of the walk). *)

  type verdict =
    | Continue  (** expand this configuration *)
    | Prune  (** check it but do not expand; marks the result truncated *)
    | Stop  (** abort the whole traversal *)

  type visit = {
    id : id;
    config : E.config;
        (** for [bfs]/[dfs] this is [config t id] (the stored, possibly
            canonical configuration); for [walk] it is the walk's own
            concrete configuration, whose representative [id] names *)
    depth : int;  (** BFS level / walk step index *)
    path : Shmem.Trace.t Lazy.t;
        (** schedule from the root: the discovery back-edges for [bfs]/[dfs],
            the walk's own steps for [walk] *)
  }

  type stats = {
    visited : int;  (** number of visitor calls *)
    truncated : bool;
        (** a visitor returned [Prune] or the store hit [max_configs] *)
    stopped : bool;  (** a visitor returned [Stop] *)
  }

  type step_obs = {
    src : id;  (** the expanded configuration *)
    before : E.config;
        (** the configuration stepped from: [config t src] during graph
            traversals (spelled in [src]'s canonical frame under reduction),
            the walk's concrete configuration during {!walk} *)
    step : Shmem.Trace.step;  (** the step taken, in [before]'s frame *)
    after : E.config;
        (** the configuration the step produced: the stepped state and the
            written value are the id tables' objects, the other states and
            values are [before]'s, physically, as {!E.step} shares them.
            Graph traversals build it only when an observer is
            registered. *)
    dst : id;  (** [after]'s (orbit representative's) id *)
    fresh : bool;  (** [false] on a dedup hit: [dst] was already interned *)
  }
  (** one expanded edge, as reported to [?on_step] observers.  Graph
      traversals report {e every} expanded edge, including edges to
      already-interned configurations — that is what makes per-step
      properties sound over the quotient graph: each transition is checked
      the first time its source is expanded, whether or not its destination
      is fresh. *)

  val bfs :
    t ->
    ?max_configs:int ->
    ?on_step:(step_obs -> unit) ->
    visit:(visit -> verdict) ->
    unit ->
    stats
  (** breadth-first over the reachable graph from the root, expanding
      undecided processes in ascending pid order.  Once [size t] reaches
      [max_configs] no further configurations are interned (already queued
      ones are still visited) and the result is marked truncated.  Under
      symmetry reduction ([~sym]) "the reachable graph" means the quotient
      graph: one representative per orbit.

      The queue is the store itself: the root, then every id issued since
      [bfs] began.  So [visit] and [on_step] must not intern a
      configuration the store does not hold, by {!intern}, {!walk} or a
      nested traversal of [t]; interning one it holds is a dedup hit and
      allowed.
      @raise Invalid_argument at the next visit if the store grew other
      than by the search's own expansion. *)

  val dfs :
    t ->
    ?max_configs:int ->
    ?on_step:(step_obs -> unit) ->
    visit:(visit -> verdict) ->
    unit ->
    stats
  (** same contract with a LIFO frontier *)

  (** {1 Sampled walks} *)

  type walk_stop =
    | Visit_stop  (** the visitor returned [Stop] *)
    | Visit_prune  (** the visitor returned [Prune] *)
    | Stuck  (** no enabled process, or the scheduler returned [None] *)
    | Max_steps

  type walk_result = { last : id; steps : int; stop : walk_stop }

  val walk :
    t ->
    sched:E.scheduler ->
    ?enabled:(E.config -> int list) ->
    ?on_step:(step_obs -> unit) ->
    max_steps:int ->
    visit:(visit -> verdict) ->
    unit ->
    walk_result
  (** one sampled schedule from the root: at each configuration call
      [visit] (its [path] is the walk's own step list, its [depth] the step
      index), then — unless the verdict ended the walk or [max_steps] is
      reached — offer [enabled config] (default [E.undecided]) to [sched]
      and take the chosen step.  [on_step] observes each taken step with the
      walk's concrete [before]/[after].  The walk itself runs over concrete
      configurations (schedulers and visitors never see renamed states);
      each position is interned by representative, so repeated walks share
      discovery with other strategies. *)
end
