(** Explicit hash mixing for protocol [hash_state] implementations.

    [Stdlib.Hashtbl.hash] stops after traversing a small, fixed number of
    "meaningful" nodes (10 by default), so states carrying lap arrays or
    phase lists hash to the same bucket once the prefix coincides — which
    silently degrades [Explore]'s interned store from O(1) to O(bucket).
    It is therefore banned from state hashing by the source lint
    ([bin/srclint.ml]); protocols mix their fields explicitly with these
    FNV-1a-style combinators instead.

    All combinators thread an accumulator: start from {!seed} and fold each
    field in.  Results are non-negative (truncated to [max_int]) and
    deterministic across runs and architectures of equal word size. *)

val seed : int
(** the FNV-1a offset basis *)

val int : int -> int -> int
(** [int h x] mixes [x] into [h] *)

val finish : int -> int
(** avalanche finalizer (splitmix64's): every bit of the accumulator
    reaches every bit of the result.  The combinators multiply, so the low
    bits of an accumulator depend only on the low bits of what was mixed
    in; finish a hash before reducing it [mod] a small number. *)

val bool : int -> bool -> int

val opt : (int -> 'a -> int) -> int -> 'a option -> int
(** [opt f h o] distinguishes [None] from [Some x] before mixing [x] *)

val ints : int -> int array -> int
(** length-prefixed fold over an [int array] *)

val list : (int -> 'a -> int) -> int -> 'a list -> int
(** length-prefixed fold over a list *)
