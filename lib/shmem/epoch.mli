(** Epoch-stamped slot identifiers — the ABA guard for recycled resources.

    A long-running service that recycles pre-allocated resources (the swap
    arenas of [lib/arena]) must distinguish "slot 3, as issued for round
    1041" from "slot 3, as reissued for round 1898": a stale reference to a
    recycled slot silently operating on fresh memory is the classic ABA
    failure.  A {!stamp} packs a slot index and its reuse epoch into one
    immutable OCaml [int], so a stamp can be stored in an [int Atomic.t],
    compared with one load, and never confuses two issues of the same slot:
    recycling bumps the epoch, and every consumer checks the whole stamp,
    not just the slot index.

    Layout: the slot index occupies the low 20 bits, the epoch the
    remaining (high) bits of the 63-bit OCaml int.  Epochs are bounded by
    [2^42] — at a million recycles per second per slot
    that is centuries of service; {!next} raises on wrap rather than
    aliasing. *)

type stamp = private int
(** an immutable (slot, epoch) pair; the [private int] exposes that stamps
    are word-sized and totally ordered (ordering is (epoch, slot)-major
    only within one slot — compare stamps of the same slot only) *)

val max_slots : int
(** [2^20] *)

val max_epoch : int
(** largest representable epoch *)

val make : slot:int -> epoch:int -> stamp
(** @raise Invalid_argument unless [0 <= slot < max_slots] and
    [0 <= epoch <= max_epoch] *)

val slot : stamp -> int
val epoch : stamp -> int

val next : stamp -> stamp
(** the same slot at the following epoch — what a recycle issues.
    @raise Invalid_argument on epoch overflow (never in practice) *)

val equal : stamp -> stamp -> bool
val hash : stamp -> int
val to_int : stamp -> int

val of_int : int -> stamp
(** inverse of {!to_int} for stamps stored in atomics.
    @raise Invalid_argument on a negative word *)

val pp : Format.formatter -> stamp -> unit
(** renders as [slot@epoch] *)
