(** A tiny textual notation for schedules (sequences of process ids), used
    by the CLI and for pasting counterexamples into bug reports.

    Grammar (whitespace- or comma-separated atoms):
    - [3] — one step by process 3;
    - [3x5] — five consecutive steps by process 3;
    - [(0 1)x2] — the group repeated: [0 1 0 1].

    Example: ["0x3, 1, (2 0)x2"] is [0;0;0;1;2;0;2;0]. *)

val max_expansion : int
(** 1,000,000: the most steps a parsed schedule may hold *)

(** [Error] (never an exception) on malformed input, on integer literals
    that do not fit in an [int], and on schedules that would expand past
    {!max_expansion} steps, whether by repetition or by a run of atoms *)
val parse : string -> (int list, string) result
val to_string : int list -> string
(** compact round-trip form using the [x] repetition notation *)

val of_trace : Trace.t -> int list
