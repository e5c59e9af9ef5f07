(** The Theorem 10 induction (§5): every solo-terminating, n-process,
    (k+1)-valued k-set agreement algorithm from swap objects uses at least
    ⌈n/k⌉ - 1 objects.

    The engine follows the proof's structure against a {e concrete} protocol:

    - Base case (k = 1): start from the configuration where one process of
      the active set has input 0 and the rest have input 1, run that process
      solo (it must decide 0), and hand the execution to the Lemma 9
      adversary with [Q] = the remaining active processes — forcing
      [|active| - 1] distinct objects.

    - Inductive step (k > 1): restrict attention to the first
      ⌈|active|·(k-1)/k⌉ processes [R].  Search (over structured and random
      [R]-only schedules, each attempt an {!Explore.Make.walk} whose visitor
      stops at the first configuration with [k] decided values) for an
      execution from an initial configuration with
      inputs in [{0..k-1}] that decides [k] distinct values; if one is found,
      Lemma 9 applied to the remaining processes (input [k]) forces
      [|active| - |R|] objects.  Otherwise the algorithm solves (k-1)-set
      agreement among [R] and the engine recurses.

    The returned certificate records which branch fired at each level and the
    set of objects the adversary finally forced. *)

module Make (P : Shmem.Protocol.S) : sig
  module L9 : module type of Lemma9.Make (P)

  type level =
    | Base of L9.certificate
        (** k = 1: Lemma 9 applied after a solo run of the lowest active
            process *)
    | Found_k_values of { r : int list; alpha : Shmem.Trace.t; cert : L9.certificate }
        (** an [R]-only execution deciding [k] distinct values was found *)
    | Recursed of { r : int list }
        (** no such execution found; recursed on [R] with [k-1] *)

  type certificate = {
    levels : level list;  (** outermost first *)
    objects_forced : int list;
    bound : int;  (** ⌈n/k⌉ - 1, the number the theorem promises *)
  }

  val run :
    ?search_rounds:int ->
    ?seed:int ->
    ?solo_cap:int ->
    unit ->
    certificate
  (** [run ()] executes the induction for the protocol's own [n] and [k].
      [search_rounds] bounds the random search for a k-values execution at
      each level (default 200).  Each search attempt is one random walk,
      a single path, so its store is unreduced: symmetry reduction would
      have nothing to collapse and would only canonicalize every step.
      @raise Lemma9.Hypothesis_violated if the protocol is not swap-only *)

  val bound : n:int -> k:int -> int
  (** ⌈n/k⌉ - 1 *)

  val forced : certificate -> int
  (** number of distinct objects the adversary forced — the concrete lower
      half of the bracket the space certifier ([Analyze.Space]) asserts
      against its measured upper bound *)
end
