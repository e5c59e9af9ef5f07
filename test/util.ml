(* Shared helpers for the test suites. *)

let lap_prune_pair bound (mem : Shmem.Value.t array) =
  Array.exists
    (fun v ->
      match v with
      | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
        Array.exists (fun x -> x > bound) u
      | _ -> false)
    mem

let check_ok what report =
  Alcotest.(check bool)
    (Fmt.str "%s: %a" what Checker.pp_report report)
    true (Checker.ok report)

let qsuite name tests = name, List.map QCheck_alcotest.to_alcotest tests

(* A deliberately broken 2-process "consensus" protocol: each process swaps
   once and decides its own input regardless of the response.  Used to prove
   the checker and monitors actually catch violations. *)
let stubborn_protocol () : (module Shmem.Protocol.S) =
  (module struct
    let name = "stubborn"
    let n = 2
    let k = 1
    let num_inputs = 2
    let objects = [| Shmem.Obj_kind.Swap_only Shmem.Obj_kind.Unbounded |]
    let init_object _ = Shmem.Value.Bot

    type state = { input : int; decided : int option }

    let init ~pid:_ ~input = { input; decided = None }
    let poised s = Shmem.Op.swap 0 (Shmem.Value.Int s.input)
    let on_response s _ = { s with decided = Some s.input }
    let decision s = s.decided
    let equal_state = ( = )
    let hash_state = Hashtbl.hash
    let pp_state ppf s = Fmt.pf ppf "{input=%d}" s.input
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Shmem.Protocol.Asymmetric
    let recovery = Shmem.Protocol.Restart
  end)

(* A protocol that decides a constant value 1 even when nobody proposed it:
   violates validity from inputs [|0;0|]. *)
let invalid_protocol () : (module Shmem.Protocol.S) =
  (module struct
    let name = "invalid"
    let n = 2
    let k = 1
    let num_inputs = 2
    let objects = [| Shmem.Obj_kind.Swap_only Shmem.Obj_kind.Unbounded |]
    let init_object _ = Shmem.Value.Bot

    type state = { decided : int option }

    let init ~pid:_ ~input:_ = { decided = None }
    let poised _ = Shmem.Op.swap 0 (Shmem.Value.Int 1)
    let on_response _ _ = { decided = Some 1 }
    let decision s = s.decided
    let equal_state = ( = )
    let hash_state = Hashtbl.hash
    let pp_state ppf _ = Fmt.pf ppf "{}"
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Shmem.Protocol.Asymmetric
    let recovery = Shmem.Protocol.Restart
  end)

(* A protocol that never decides when run solo (spins on its object):
   violates solo termination. *)
let spinner_protocol () : (module Shmem.Protocol.S) =
  (module struct
    let name = "spinner"
    let n = 2
    let k = 1
    let num_inputs = 2
    let objects = [| Shmem.Obj_kind.Readable_swap Shmem.Obj_kind.Unbounded |]
    let init_object _ = Shmem.Value.Bot

    type state = { input : int; decided : int option }

    let init ~pid:_ ~input = { input; decided = None }
    let poised _ = Shmem.Op.read 0

    let on_response s resp =
      (* decides only if some OTHER process has swapped a value in: never in
         a solo execution from an initial configuration *)
      match resp with
      | Shmem.Value.Int w -> { s with decided = Some w }
      | _ -> s

    let decision s = s.decided
    let equal_state = ( = )
    let hash_state = Hashtbl.hash
    let pp_state ppf s = Fmt.pf ppf "{input=%d}" s.input
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Shmem.Protocol.Asymmetric
    let recovery = Shmem.Protocol.Restart
  end)

(* Probe ints for the power-of-two histogram buckets: 0, negatives, every
   2^k - 1, 2^k and 2^k + 1 (wrapping past max_int at k = 62), max_int,
   min_int, and 10,000 seeded random ints of every magnitude and both
   signs. *)
let log2_probes () =
  let rng = Random.State.make [| 0x1062 |] in
  let edges =
    List.concat_map
      (fun k -> [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
      (List.init 63 Fun.id)
  in
  let random =
    List.init 10_000 (fun _ ->
        let v = Random.State.full_int rng max_int lsr Random.State.int rng 63 in
        if Random.State.bool rng then v else -v)
  in
  [ 0; -1; -2; min_int; max_int; max_int - 1 ] @ edges @ random
