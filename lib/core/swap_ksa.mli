(** Algorithm 1 of the paper: an obstruction-free, [m]-valued, [k]-set
    agreement algorithm for [n] processes from [n-k] swap objects (§4).

    Every swap object stores a pair ⟨lap counter, identifier⟩ where the lap
    counter is an array of [m] naturals (initially all 0) and the identifier
    is a process id (initially ⊥).  A process repeatedly swaps
    ⟨its local lap counter, its id⟩ through all [n-k] objects; when a full
    pass returns only its own pair (no {e conflict}), it completes a lap for
    the leading value, and decides that value once it leads every other value
    by at least 2 laps. *)

module type S = sig
  include Shmem.Protocol.S

  val laps : state -> int array
  (** the process's local lap counter [U] (a fresh copy) *)

  val laps_get : state -> int -> int
  (** [laps_get s j] = [(laps s).(j)] without the copy — the §4 monitor
      reads lap components on every explored edge, where the defensive
      allocation of {!laps} is measurable (bench T13) *)

  val preference : state -> int option
  (** the value whose lap the process would currently complete: the smallest
      index with maximal lap count (line 15); [None] once decided *)

  val mid_pass : state -> int
  (** index [i] of the object the process is poised to swap (0-based) *)

  val in_conflict : state -> bool
end

(** {!S} plus a constructor for arbitrary states *)
module type With_fields = sig
  include S

  val of_fields :
    pid:int ->
    laps:int array ->
    mid_pass:int ->
    in_conflict:bool ->
    decided:int option ->
    state
  (** the state with exactly these fields, reachable or not — for
      differential tests of [on_response] against a reference step.  The
      state takes ownership of [laps], which must not be mutated afterwards.
      @raise Invalid_argument unless [laps] has length [num_inputs] *)
end

val make : n:int -> k:int -> m:int -> (module S)
(** @raise Invalid_argument unless [n > k >= 1] and [m >= 2] *)

val make_with_fields :
  n:int ->
  k:int ->
  m:int ->
  ?lead:int ->
  ?merge:bool ->
  unit ->
  (module With_fields)
(** {!make_ablation} with {!With_fields.of_fields} exposed *)

val make_ablation :
  n:int -> k:int -> m:int -> ?lead:int -> ?merge:bool -> unit -> (module S)
(** Algorithm 1 with its two design choices exposed as knobs, for the
    ablation experiments (bench table T8):

    - [lead] is the decision threshold of line 16.  The paper uses 2;
      [lead = 1] is unsafe (the checker exhibits agreement violations) and
      larger values remain safe but take longer to decide.
    - [merge] controls the lap-counter merging of lines 11-12.  Disabling
      it destroys the information flow Lemma 5 depends on; the checker
      exhibits an agreement violation.

    @raise Invalid_argument unless additionally [lead >= 1] *)

val dominates : int array -> int array -> bool
(** [dominates v' v] is the paper's [v ⪯ v']: componentwise [v.(j) <= v'.(j)].
    @raise Invalid_argument on length mismatch *)

val solo_step_bound : n:int -> k:int -> int
(** the paper's Lemma 8 bound: any solo execution contains at most
    [8 * (n-k)] steps before the process decides *)
