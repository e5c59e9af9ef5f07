(** Values stored in shared objects and returned as operation responses.

    The paper's swap objects store natural numbers; structured values such as
    the pair [⟨lap counter array, process identifier⟩] used by Algorithm 1 are
    a finite encoding of naturals, so we represent them directly rather than
    Gödel-numbering them.  All values are immutable: [Ints] arrays must never
    be mutated after construction. *)

type t =
  | Unit  (** response of a [Write]; never stored in an object *)
  | Bot  (** the distinguished initial value ⊥ *)
  | Int of int
  | Pid of int  (** a process identifier *)
  | Ints of int array  (** an immutable integer vector (e.g. a lap counter) *)
  | Pair of t * t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val rename : (int -> int) -> t -> t
(** [rename f v] maps every [Pid p] mention to [Pid (f p)], leaving all other
    structure untouched.  Physically returns [v] when nothing changes.  With a
    bijective [f] this is the memory half of a process-permutation action on
    configurations (anonymity: see [Protocol.symmetry]). *)

val hash_into : int -> t -> int
(** [hash_into h v] mixes the whole structure of [v] into the accumulator
    [h], as the {!Hashx} combinators do.  Unlike {!hash}, a C call that
    stops after a bounded number of nodes, it walks every node in OCaml;
    [lib/explore] hashes every memory it interns with it. *)

val fold_pids : ('a -> int -> 'a) -> 'a -> t -> 'a
(** left fold over the [Pid] mentions of a value, in structural
    (left-to-right) order *)

val hash_skel : t -> int
(** a hash of the value's skeleton: like {!hash} but every [Pid _] collapses
    to one tag, so [hash_skel (rename f v) = hash_skel v] for any [f].
    Canonicalization keys ([Protocol.symmetry]) must use this on any stored
    raw values so the key is permutation-invariant. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val zero : t
(** [Int 0]. *)

val one : t
(** [Int 1]. *)

val ints : int array -> t
(** [ints a] is [Ints (Array.copy a)]; copies so later mutation of [a] cannot
    alias into a stored value. *)

val as_int : t -> int
(** @raise Invalid_argument if the value is not [Int _]. *)
