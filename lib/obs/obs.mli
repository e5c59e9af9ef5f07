(** Observability: counters, bucketed histograms and named spans behind a
    process-global on/off switch, a registry that snapshots to JSON or a
    text table, and the comparison kernel used by [bench compare].

    Design constraints, in order:

    - {b One branch when off.}  The library ships disabled; every hot-path
      operation ([Counter.incr], [Histogram.observe], [Span.time]) first
      reads the global flag and returns immediately when it is unset, so
      instrumented loops pay a single predictable branch.  Instrumentation
      sites that must {e compute} an argument (e.g. a frontier length)
      should guard on {!enabled} themselves.
    - {b Allocation-free when on.}  Counters and histograms touch only
      preallocated [int Atomic.t]s; nothing in [incr]/[add]/[observe]
      allocates, so instrumenting a hot loop does not perturb the GC
      behaviour it is measuring.  Spans allocate (they box a float
      timestamp) and belong around coarse phases, not per-operation loops.
    - {b Domain-safe.}  All mutation is on atomics; metrics may be fed
      concurrently from any number of domains.  Snapshots are taken under
      the registry lock but read the atomics without stopping writers, so a
      snapshot of a live run is approximate (per-metric values are exact,
      cross-metric consistency is not guaranteed).

    Metric names are global within a registry: creating a metric with an
    existing name returns the existing metric (so repeated functor
    instantiations aggregate into one series), and requesting an existing
    name at a different kind raises [Invalid_argument]. *)

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** whether metric updates are currently recorded.  Flip {e before}
    starting the workload: sites capture nothing retroactively. *)

(** {1 Minimal JSON}

    A self-contained JSON tree, printer and recursive-descent parser — the
    serialization substrate for snapshots and for [bench compare]'s record
    files.  Accepts arbitrary JSON on input; emits no insignificant
    whitespace on output. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** parse a complete JSON document (trailing garbage is an error) *)

  val mem : string -> t -> t option
  (** field lookup on an [Obj]; [None] on other constructors *)

  val num_opt : t -> float option
  val str_opt : t -> string option
  val arr_opt : t -> t list option
end

(** {1 Metrics} *)

val floor_log2 : int -> int
(** [floor_log2 v] is the largest [i] with [2^i <= v], for [v >= 1], in
    constant time; unspecified for [v <= 0].  The one bucket function
    under both power-of-two histograms ({!Histogram} and
    [Arena.Service.Hist]). *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

module Histogram : sig
  type t
  (** power-of-two bucketed distribution of non-negative ints: bucket 0
      holds value 0, bucket [i >= 1] holds [2^(i-1) .. 2^i - 1].  Negative
      observations clamp to 0. *)

  val bucket_of : int -> int
  (** the bucket an observation lands in: 0 for [v <= 0], else
      [floor_log2 v + 1] *)

  val observe : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  val name : t -> string
end

module Span : sig
  type t
  (** a named wall-clock timer; durations are recorded in nanoseconds into
      a histogram, so snapshots carry count, total and quantiles *)

  val time : t -> (unit -> 'a) -> 'a
  (** run the thunk and record its duration (also on exceptions), read
      from CLOCK_MONOTONIC so NTP slew cannot distort a span.  Durations
      are clamped to >= 1ns so a recorded span is never zero. *)

  val ns_of_s : float -> int
  (** seconds to nanoseconds, clamped to >= 1 — for sites that time
      manually and feed a histogram directly *)

  val count : t -> int
  val total_ns : t -> int
  val name : t -> string
end

(** {1 Registries} *)

module Registry : sig
  type t

  val create : unit -> t
  val default : t

  val reset : t -> unit
  (** zero every metric in place (handles stay valid) *)
end

val counter : ?registry:Registry.t -> string -> Counter.t
val histogram : ?registry:Registry.t -> string -> Histogram.t
val span : ?registry:Registry.t -> string -> Span.t
(** find-or-create by name in the registry (default {!Registry.default}).
    @raise Invalid_argument if the name exists at a different kind *)

(** {1 Snapshots} *)

type dist = {
  count : int;
  sum : int;
  max_v : int;
  buckets : (int * int) list;
      (** sparse [(bucket index, count)], sorted by index, counts > 0 *)
}

type snapshot = {
  counters : (string * int) list;
  hists : (string * dist) list;
  spans : (string * dist) list;  (** nanosecond distributions *)
}
(** all three sections sorted by name — the canonical form {!merge}
    preserves and {!snapshot_of_json} restores *)

val empty_snapshot : snapshot

val snapshot : ?registry:Registry.t -> unit -> snapshot
val reset : ?registry:Registry.t -> unit -> unit

val quantile : dist -> float -> int
(** [quantile d q] for [q] in [0..1] (clamped): an upper bound on the
    [q]-quantile at bucket resolution, never exceeding [d.max_v]; 0 when
    the distribution is empty.  Monotone in [q]. *)

val mean : dist -> float

val merge : snapshot -> snapshot -> snapshot
(** pointwise: counters add, distributions add counts/sums/buckets and take
    the max of maxima.  Associative and commutative with {!empty_snapshot}
    as unit — merging per-domain or per-shard snapshots in any order yields
    the same totals. *)

val is_empty : snapshot -> bool
(** no recorded data: every counter is 0 and every distribution has count 0
    (metrics register themselves at module load, so a snapshot's lists are
    rarely empty — emptiness is about values) *)

val snapshot_to_json : snapshot -> Json.t
(** distributions carry derived [p50]/[p95]/[p99] fields for human readers;
    {!snapshot_of_json} ignores them *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** inverse of {!snapshot_to_json} up to the derived fields:
    [snapshot_of_json (snapshot_to_json s) = Ok s] *)

val pp_table : Format.formatter -> snapshot -> unit

(** {1 Regression comparison}

    The kernel behind [bench compare]: given [(key, seconds)] measurements
    from a baseline run and a current run, flag regressions beyond a
    percentage budget.  Keys present only in the current run are ignored
    (new benchmarks are not regressions); keys missing from the current run
    fail the comparison. *)

module Compare : sig
  type verdict = Pass | Improved | Regressed | Missing

  type row = {
    key : string;
    baseline : float;
    current : float option;  (** [None] iff verdict is [Missing] *)
    delta_pct : float;
    verdict : verdict;
  }

  val run :
    ?max_regress:float ->
    ?floor:float ->
    baseline:(string * float) list ->
    current:(string * float) list ->
    unit ->
    row list
  (** one row per baseline key, in baseline order.  [max_regress] (percent,
      default 30) flags [Regressed] above and [Improved] below the
      symmetric budget; measurements under [floor] seconds (default 0.05)
      on both sides are [Pass] — at that scale the numbers are noise.
      @raise Invalid_argument if [max_regress <= 0] *)

  val failed : row list -> bool
  (** any [Regressed] or [Missing] row *)

  val pp : Format.formatter -> row list -> unit
end
