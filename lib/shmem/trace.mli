(** Execution traces: the history of an execution (§3) together with the
    responses each step obtained, which determines the execution uniquely for
    deterministic protocols. *)

type step = { pid : int; op : Op.t; resp : Value.t }

type t = step list
(** in execution order (earliest first) *)

val pp : Format.formatter -> t -> unit

val rename_step : (int -> int) -> step -> step
(** apply a process renaming to one step: the acting pid and every [Pid]
    mention in the operation's arguments and the response *)

val rename : (int -> int) -> t -> t

val history : t -> (int * Op.t) list
(** the history of the execution: operations with the processes that applied
    them, responses erased *)

val pids : t -> int list
(** processes taking at least one step, ascending, without duplicates *)

val is_p_only : allowed:(int -> bool) -> t -> bool
(** whether every step is by a process satisfying [allowed] (a [P]-only
    execution in the paper's terminology) *)

val objects_accessed : t -> int list
(** indices of objects accessed by at least one step, ascending, without
    duplicates *)

val objects_swapped : t -> int list
(** indices of objects to which at least one nontrivial operation was
    applied, ascending, without duplicates *)

val steps_by : pid:int -> t -> int
val length : t -> int

val indistinguishable_to : pid:int -> t -> t -> bool
(** [indistinguishable_to ~pid t1 t2] checks the trace half of the paper's
    α₁ ~p α₂ relation: [pid] performs the same sequence of operations and
    obtains the same sequence of responses in both traces. *)
