(** Operations that a process can apply to a shared object.

    An operation names the object it targets (by index into the algorithm's
    object array) and the action applied to it.  Following §3 of the paper, an
    action is {e trivial} if it can never modify the value of the object
    ([Read]) and {e nontrivial} otherwise. *)

type action =
  | Read  (** returns the current value; trivial *)
  | Write of Value.t  (** sets the value, returns [Unit]; nontrivial *)
  | Swap of Value.t
      (** sets the value, returns the previous value; nontrivial *)
  | Cas of Value.t * Value.t
      (** [Cas (expected, desired)]: conditional swap, returns [Int 1] on
          success and [Int 0] on failure; nontrivial (and {e not}
          historyless — only used by the CAS baseline) *)

type t = { obj : int; action : action }

val read : int -> t
val write : int -> Value.t -> t
val swap : int -> Value.t -> t
val cas : int -> expected:Value.t -> desired:Value.t -> t

val is_nontrivial : t -> bool
(** Whether the action can modify the value of the object (as an operation,
    per the paper's definition — a [Swap v] is nontrivial even when the object
    currently holds [v]). *)

val targets : t -> int -> bool
(** [targets op i] is true iff [op] is applied to object [i]. *)

val is_historyless_action : action -> bool
(** every action except [Cas]: the value the action leaves in the object
    does not depend on the value it found there (§2).  [lib/analyze] derives
    a protocol's historyless flag from the actions it actually reaches,
    cross-checking the kind-based [Protocol.uses_only_historyless]. *)

val is_historyless : t -> bool

val is_swap_action : action -> bool
(** exactly [Swap _] — the Theorem 10 model admits no other action *)

val installs : resp:Value.t -> action -> Value.t option
(** the value the action stored in the object, given the response it
    obtained: [Write]/[Swap] always install their argument, a [Cas]
    installs its desired value only when it succeeded (response
    [Value.one]), and [Read] installs nothing.  This is the write half the
    happens-before checker matches responses against. *)

val rename : (int -> int) -> t -> t
(** map every [Pid] mention in the action's argument values through [f]
    ({!Value.rename}); the target object index is untouched *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
