(* Tests for the generic multicore backend (lib/runtime): atomic cells
   realize each object kind, every multicore_runnable registry entry
   executes on real domains with k-agreement and validity, the generic
   runtime agrees with the hand-optimized Algorithm 1 (Swap_ksa_ref),
   recorded histories linearize, and a deliberately torn exchange is
   caught. *)

module V = Shmem.Value
module K = Shmem.Obj_kind
module Op = Shmem.Op

let value = Alcotest.testable V.pp V.equal

(* ------------------------------------------------------------- cells *)

let test_cell_register () =
  let c = Runtime.Cell.make (K.Register K.Unbounded) V.Bot in
  Alcotest.check value "read initial" V.Bot (Runtime.Cell.apply c Op.Read);
  Alcotest.check value "write returns unit" V.Unit
    (Runtime.Cell.apply c (Op.Write (V.Int 7)));
  Alcotest.check value "read back" (V.Int 7) (Runtime.Cell.apply c Op.Read)

let test_cell_swap () =
  let c = Runtime.Cell.make (K.Swap_only K.Unbounded) (V.Int 0) in
  Alcotest.check value "swap returns previous" (V.Int 0)
    (Runtime.Cell.apply c (Op.Swap (V.Int 5)));
  Alcotest.check value "swaps chain" (V.Int 5)
    (Runtime.Cell.apply c (Op.Swap (V.Int 9)));
  Alcotest.check value "peek" (V.Int 9) (Runtime.Cell.peek c)

let test_cell_tas () =
  let c = Runtime.Cell.make K.Test_and_set V.zero in
  Alcotest.check value "first TAS wins" V.zero
    (Runtime.Cell.apply c (Op.Swap V.one));
  Alcotest.check value "second TAS loses" V.one
    (Runtime.Cell.apply c (Op.Swap V.one));
  let r = Runtime.Cell.make K.Test_and_set_reset V.zero in
  Alcotest.check value "TAS" V.zero (Runtime.Cell.apply r (Op.Swap V.one));
  Alcotest.check value "reset" V.Unit
    (Runtime.Cell.apply r (Op.Write V.zero));
  Alcotest.check value "TAS wins again after reset" V.zero
    (Runtime.Cell.apply r (Op.Swap V.one))

let test_cell_cas_structural () =
  (* [Atomic.compare_and_set] compares physically; the runtime must CAS
     structurally, so a freshly allocated (structurally equal) expected
     value has to succeed *)
  let stored () = V.Pair (V.ints [| 1; 2 |], V.Pid 0) in
  let c = Runtime.Cell.make (K.Compare_and_swap K.Unbounded) (stored ()) in
  Alcotest.check value "fresh expected succeeds" V.one
    (Runtime.Cell.apply c (Op.Cas (stored (), V.Int 3)));
  Alcotest.check value "installed" (V.Int 3) (Runtime.Cell.apply c Op.Read);
  Alcotest.check value "stale expected fails" V.zero
    (Runtime.Cell.apply c (Op.Cas (stored (), V.Int 9)));
  Alcotest.check value "unchanged on failure" (V.Int 3)
    (Runtime.Cell.apply c Op.Read)

let test_cell_illegal_ops () =
  let reg = Runtime.Cell.make (K.Register K.Unbounded) V.Bot in
  (try
     ignore (Runtime.Cell.apply reg (Op.Swap (V.Int 1)));
     Alcotest.fail "register accepted Swap"
   with K.Illegal_operation _ -> ());
  let swap = Runtime.Cell.make (K.Swap_only K.Unbounded) V.Bot in
  (try
     ignore (Runtime.Cell.apply swap Op.Read);
     Alcotest.fail "swap-only accepted Read"
   with K.Illegal_operation _ -> ());
  let bounded = Runtime.Cell.make (K.Register (K.Bounded 2)) V.zero in
  try
    ignore (Runtime.Cell.apply bounded (Op.Write (V.Int 5)));
    Alcotest.fail "bounded register accepted out-of-domain write"
  with K.Illegal_operation _ -> ()

(* [Cell.make] resolves, once per cell, whether a swap needs a legality
   check; [Cell.apply] must still answer every kind x action exactly as
   the model's generic dispatch ([Obj_kind.apply]): the same response, the
   same next value, and [Illegal_operation] where the model raises it
   (leaving the cell untouched).  A run is a kind, a legal initial value
   and a sequence of arbitrary actions over a small value pool. *)
let cell_kinds =
  let doms = [ K.Unbounded; K.Bounded 1; K.Bounded 2; K.Bounded 3 ] in
  List.concat_map
    (fun d ->
      [ K.Register d; K.Swap_only d; K.Readable_swap d; K.Compare_and_swap d ])
    doms
  @ [ K.Test_and_set; K.Test_and_set_reset ]

let cell_values =
  [ V.Bot; V.Int 0; V.Int 1; V.Int 2; V.Int 5; V.Pid 0; V.Ints [| 0; 1 |]
  ; V.Pair (V.Ints [| 0; 0 |], V.Bot)
  ]

let cell_run_gen =
  QCheck2.Gen.(
    let value = oneofl cell_values in
    let action =
      oneof
        [ return Op.Read
        ; map (fun v -> Op.Write v) value
        ; map (fun v -> Op.Swap v) value
        ; map2 (fun e d -> Op.Cas (e, d)) value value
        ]
    in
    oneofl cell_kinds >>= fun kind ->
    let legal_inits =
      List.filter
        (fun v -> V.equal v V.Bot || K.value_in_domain (K.domain kind) v)
        cell_values
    in
    oneofl legal_inits >>= fun init ->
    list_size (int_range 1 12) action >>= fun actions ->
    return (kind, init, actions))

let print_cell_run (kind, init, actions) =
  Fmt.str "%a from %a: %a" K.pp kind V.pp init
    Fmt.(
      list ~sep:(any "; ") (fun ppf a ->
          Op.pp ppf { Op.obj = 0; action = a }))
    actions

let qcheck_cell_apply_matches_model =
  QCheck2.Test.make ~name:"Cell.apply = Obj_kind.apply on every kind x action"
    ~count:2000 ~print:print_cell_run cell_run_gen (fun (kind, init, actions) ->
      let cell = Runtime.Cell.make kind init in
      List.fold_left
        (fun current action ->
          let expected =
            match K.apply kind ~current action with
            | r -> Ok r
            | exception K.Illegal_operation _ -> Error ()
          in
          let got =
            match Runtime.Cell.apply cell action with
            | resp -> Ok resp
            | exception K.Illegal_operation _ -> Error ()
          in
          let next = Runtime.Cell.peek cell in
          match expected, got with
          | Ok (next', resp'), Ok resp ->
            if V.equal resp resp' && V.equal next next' then next
            else QCheck2.Test.fail_reportf "%a: response %a, model %a" Op.pp
                { Op.obj = 0; action } V.pp resp V.pp resp'
          | Error (), Error () ->
            if V.equal next current then current
            else QCheck2.Test.fail_reportf "rejected %a changed the cell" Op.pp
                { Op.obj = 0; action }
          | Ok _, Error () ->
            QCheck2.Test.fail_reportf "legal %a rejected" Op.pp
              { Op.obj = 0; action }
          | Error (), Ok _ ->
            QCheck2.Test.fail_reportf "illegal %a accepted" Op.pp
              { Op.obj = 0; action })
        init actions
      |> ignore;
      true)

(* rejections the resolved swap path must not lose *)
let test_cell_resolved_rejections () =
  let rejects what kind init action =
    let c = Runtime.Cell.make kind init in
    match Runtime.Cell.apply c action with
    | _ -> Alcotest.failf "%s accepted" what
    | exception K.Illegal_operation _ ->
      Alcotest.check value (what ^ ": cell untouched") init
        (Runtime.Cell.peek c)
  in
  rejects "swap-only Read" (K.Swap_only K.Unbounded) (V.Int 3) Op.Read;
  rejects "out-of-domain Swap on a bounded swap"
    (K.Swap_only (K.Bounded 2)) V.zero (Op.Swap (V.Int 2));
  rejects "out-of-domain Swap on a bounded readable swap"
    (K.Readable_swap (K.Bounded 2)) V.zero (Op.Swap V.Bot);
  rejects "TAS swap of 0" K.Test_and_set V.zero (Op.Swap V.zero);
  rejects "TAS-reset swap of 2" K.Test_and_set_reset V.zero
    (Op.Swap (V.Int 2))

(* ---------------------------------------------------- registry entries *)

let runnable ~n =
  List.filter
    (fun (e : Baselines.Registry.entry) ->
      e.Baselines.Registry.multicore_runnable)
    (Baselines.Registry.standard ~n ())

(* every process decides, with k-agreement and validity, on [seeds] random
   input vectors *)
let test_on_domains ~seeds protocols () =
  List.iter
    (fun (name, (module P : Shmem.Protocol.S)) ->
      let module R = Runtime.Make (P) in
      List.iter
        (fun seed ->
          let rng = Random.State.make [| seed; P.n |] in
          let inputs =
            Array.init P.n (fun _ -> Random.State.int rng P.num_inputs)
          in
          let o = R.run ~inputs ~seed () in
          match R.check ~inputs o with
          | Ok () -> ()
          | Error err ->
            Alcotest.fail (Fmt.str "%s (n=%d seed=%d): %s" name P.n seed err))
        seeds)
    protocols

let test_registry_runnable_entries n =
  test_on_domains ~seeds:[ 1; 2; 3 ]
    (List.map
       (fun (e : Baselines.Registry.entry) ->
         e.Baselines.Registry.name, e.Baselines.Registry.protocol)
       (runnable ~n))

let test_registry_flags () =
  (* the unconditional obstruction-free / wait-free algorithms run on real
     domains; the cap-bounded unary-track constructions stay simulated *)
  let entries = Baselines.Registry.standard ~n:4 () in
  let names ok =
    List.filter_map
      (fun (e : Baselines.Registry.entry) ->
        if e.Baselines.Registry.multicore_runnable = ok then
          Some e.Baselines.Registry.name
        else None)
      entries
  in
  Alcotest.(check (list string))
    "runnable"
    [ "swap-ksa k=1"; "swap-ksa k=2"; "register-ksa k=1"; "readable-swap"
    ; "grouped-ksa"; "cas"; "pair-ksa"
    ]
    (names true);
  Alcotest.(check (list string))
    "simulator-only"
    [ "binary-track"; "binary-track eager"; "tas-track"; "bitwise" ]
    (names false)

(* ------------------------------------------------------------ verdicts *)

(* [R.check] judges the decided values on the final states.  A protocol
   whose state is its decision ([-1] for none) lets a test build any
   outcome: [verdict ~n ~k ?bound ~inputs procs] runs [R.check] on the
   synthetic outcome in which process [pid] has the status and the final
   state of the [pid]-th entry of [procs]. *)
let verdict ~n ~k ?bound ~inputs procs =
  let module P = struct
    let name = "decided"
    let n = n
    let k = k
    let num_inputs = 3
    let objects = [| K.Register K.Unbounded |]
    let init_object _ = V.Bot

    type state = int

    let init ~pid:_ ~input:_ = -1
    let poised _ = Op.read 0
    let on_response s _ = s
    let decision s = if s >= 0 then Some s else None
    let equal_state = Int.equal
    let hash_state = Hashtbl.hash
    let pp_state = Fmt.int
    let space_bound ~n:_ ~k:_ = 1
    let symmetry = Shmem.Protocol.Asymmetric
    let recovery = Shmem.Protocol.Restart
  end in
  let module R = Runtime.Make (P) in
  let status = function
    | `Decided -> R.Decided
    | `Crashed -> R.Crashed_injected
    | `Timed_out -> R.Timed_out
    | `Faulted -> R.Faulted (Failure "injected")
  in
  R.check ?bound ~inputs:(Array.of_list inputs)
    { R.decisions = Array.of_list (List.map snd procs)
    ; statuses = Array.of_list (List.map (fun (s, _) -> status s) procs)
    ; ops = Array.make n 0
    ; backoffs = Array.make n 0
    ; elapsed = 0.
    ; histories = [||]
    ; finals = Array.of_list (List.map (fun (_, d) -> Some d) procs)
    ; mem = [||]
    }

(* --------------------------------------------------------- differential *)

let test_differential_swap_ksa () =
  (* the same protocol instance through the hand-optimized reference
     (Swap_ksa_ref) and the generic runtime: both satisfy the k-set
     agreement spec on every input vector, and on uniform vectors (where the
     decision is forced by validity) they agree exactly *)
  let n = 4 and k = 1 and m = 2 in
  let (module P) = Core.Swap_ksa.make ~n ~k ~m in
  let module R = Runtime.Make (P) in
  Alcotest.(check int)
    "both backends use n-k objects" (n - k)
    (Array.length P.objects);
  for seed = 0 to 4 do
    let rng = Random.State.make [| seed |] in
    let inputs = Array.init n (fun _ -> Random.State.int rng m) in
    let generic = R.run ~inputs ~seed () in
    (match R.check ~inputs generic with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Fmt.str "generic seed=%d: %s" seed e));
    (* the reference decides every process or raises, so it is judged by
       the same check on its decisions as final states *)
    let hand = Swap_ksa_ref.run ~n ~k ~m ~inputs ~seed () in
    (match
       verdict ~n ~k ~inputs:(Array.to_list inputs)
         (List.map (fun d -> `Decided, d) (Array.to_list hand))
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Fmt.str "hand seed=%d: %s" seed e));
    (* a full Algorithm 1 pass is n-k swaps on either backend *)
    Alcotest.(check bool) "generic took at least one pass each" true
      (Array.for_all (fun ops -> ops >= n - k) generic.R.ops);
    let uniform = Array.make n (seed mod m) in
    let hand_u = Swap_ksa_ref.run ~n ~k ~m ~inputs:uniform ~seed () in
    let generic_u = R.run ~inputs:uniform ~seed () in
    Alcotest.(check (array int))
      (Fmt.str "uniform inputs force the decision (seed=%d)" seed)
      hand_u generic_u.R.decisions
  done

(* The service drive (lib/arena) runs a round's members one after another,
   each solo to its decision, through [arena_apply] on one recycled arena.
   Every member must decide the same value in the same number of operations
   as the simulator's solo run from the same configuration: the one the
   round's earlier members left behind.  Every registry protocol, rounds of
   1 to n members: [reset_arena] stores the initial values [make_arena]
   built once, so each rewind must read back as [P.init_object] — which
   also catches a protocol mutating a value it received, since that value
   may be the shared initial one. *)
let test_arena_drive_matches_solo () =
  List.iter
    (fun (e : Baselines.Registry.entry) ->
      let (module P) = e.Baselines.Registry.protocol in
      let module R = Runtime.Make (P) in
      let module E = Shmem.Exec.Make (P) in
      let name = e.Baselines.Registry.name in
      let init = Array.init (Array.length P.objects) P.init_object in
      let arena = R.make_arena () in
      let rng = Random.State.make [| 19 |] in
      let budget = 10_000 in
      for round = 1 to 1_000 do
        R.reset_arena arena;
        Alcotest.(check (array value))
          (Fmt.str "%s round %d: reset memory" name round)
          init (R.arena_mem arena);
        let inputs =
          Array.init P.n (fun _ -> Random.State.int rng P.num_inputs)
        in
        let b = 1 + Random.State.int rng P.n in
        let order = Array.init b Fun.id in
        for i = b - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- t
        done;
        let c =
          Array.fold_left
            (fun c pid ->
              let st = ref (P.init ~pid ~input:inputs.(pid)) and ops = ref 0 in
              while P.decision !st = None && !ops < budget do
                st := P.on_response !st (R.arena_apply arena (P.poised !st));
                incr ops
              done;
              match E.run_solo ~pid ~max_steps:budget c with
              | None ->
                Alcotest.failf "%s round %d: p%d solo run stuck" name round pid
              | Some (c', trace) ->
                Alcotest.(check (option int))
                  (Fmt.str "%s round %d: p%d decision" name round pid)
                  (E.decision c' pid) (P.decision !st);
                Alcotest.(check int)
                  (Fmt.str "%s round %d: p%d ops" name round pid)
                  (List.length trace) !ops;
                c')
            (E.initial ~inputs) order
        in
        Alcotest.(check (array value))
          (Fmt.str "%s round %d: memory" name round)
          c.E.mem (R.arena_mem arena)
      done)
    (Baselines.Registry.standard ~n:4 ())

(* ----------------------------------------------------------- histories *)

let test_histories_linearizable () =
  (* wait-free protocols keep per-object histories short enough for the
     Wing & Gong search; every recorded history must linearize *)
  List.iter
    (fun protocol ->
      let (module P : Shmem.Protocol.S) = protocol in
      let module R = Runtime.Make (P) in
      let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
      let o = R.run ~inputs ~record:true () in
      (match R.check ~inputs o with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Fmt.str "%s: %s" P.name e));
      match R.check_histories o with
      | Ok (checked, skipped) ->
        Alcotest.(check bool)
          (Fmt.str "%s: checked some history" P.name)
          true (checked >= 1);
        Alcotest.(check int)
          (Fmt.str "%s: nothing silently skipped" P.name)
          0 skipped
      | Error e -> Alcotest.fail (Fmt.str "%s: %s" P.name e))
    [ Baselines.Cas_consensus.make ~n:3 ~m:2
    ; Baselines.Grouped_ksa.make ~n:4 ~k:2 ~m:2
    ; Core.Pair_ksa.make ~n:4 ~m:2
    ]

let test_histories_off_by_default () =
  let (module P : Shmem.Protocol.S) = Core.Pair_ksa.make ~n:3 ~m:2 in
  let module R = Runtime.Make (P) in
  let o = R.run ~inputs:[| 0; 1; 0 |] () in
  Alcotest.(check bool) "no events recorded" true
    (Array.for_all (fun h -> h = []) o.R.histories)

(* ------------------------------------------------------------- mutation *)

(* a deliberately broken exchange: read, linger, write — loses updates *)
let torn_exchange cell v =
  let old = Atomic.get cell in
  for _ = 1 to 500 do
    Domain.cpu_relax ()
  done;
  Atomic.set cell v;
  old

let swap_gen ~thread ~step rng =
  if Random.State.bool rng then Op.Read
  else Op.Swap (V.Int ((thread * 100) + step))

let swap_kind = K.Readable_swap K.Unbounded

let test_real_exchange_cell_linearizable () =
  for seed = 0 to 9 do
    let h =
      Runtime.record_cell ~kind:swap_kind ~init:(V.Int 0) ~threads:3
        ~ops_per_thread:5 ~seed ~gen:swap_gen ()
    in
    match Linearize.Obj_history.explain ~kind:swap_kind ~init:(V.Int 0) h with
    | Ok order ->
      Alcotest.(check int) "witness covers all events" (List.length h)
        (List.length order)
    | Error e -> Alcotest.fail (Fmt.str "seed %d: %s" seed e)
  done

let test_torn_exchange_cell_caught () =
  (* under contention the torn exchange produces non-linearizable
     histories of the runtime's cells; each trial is racy, so try many *)
  let caught = ref false in
  let seed = ref 0 in
  while (not !caught) && !seed < 200 do
    let h =
      Runtime.record_cell ~kind:swap_kind ~init:(V.Int 0) ~threads:4
        ~ops_per_thread:6 ~seed:!seed ~exchange:torn_exchange ~gen:swap_gen
        ()
    in
    if not (Linearize.Obj_history.linearizable ~kind:swap_kind ~init:(V.Int 0) h)
    then caught := true;
    incr seed
  done;
  Alcotest.(check bool) "torn exchange caught within 200 trials" true !caught

(* ----------------------------------------------------------- validation *)

let test_input_validation () =
  (try
     ignore (Baselines.Readable_swap_consensus.make ~n:1 ~m:2);
     Alcotest.fail "readable-swap accepted n = 1"
   with Invalid_argument _ -> ());
  let (module P : Shmem.Protocol.S) = Core.Pair_ksa.make ~n:3 ~m:2 in
  let module R = Runtime.Make (P) in
  (try
     ignore (R.run ~inputs:[| 0; 1 |] ());
     Alcotest.fail "accepted wrong input count"
   with Invalid_argument _ -> ());
  (try
     ignore (R.run ~inputs:[| 0; 1; 7 |] ());
     Alcotest.fail "accepted out-of-range input"
   with Invalid_argument _ -> ());
  try
    ignore (R.run ~inputs:[| 0; 1; 0 |] ~backoff_window:0 ());
    Alcotest.fail "accepted backoff_window = 0"
  with Invalid_argument _ -> ()

let test_check_rejects_bad_outcomes () =
  let check ~inputs decisions =
    verdict ~n:2 ~k:1 ~inputs
      (List.map (fun d -> (if d >= 0 then `Decided else `Timed_out), d) decisions)
  in
  (match check ~inputs:[ 0; 1 ] [ 0; 0 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected a good outcome: %s" e);
  (match check ~inputs:[ 0; 1 ] [ 0; 1 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted 2 values for k=1");
  (match check ~inputs:[ 0; 0 ] [ 1; 1 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted invalid value");
  match check ~inputs:[ 0; 1 ] [ 0; -1 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted an undecided process"

(* ----------------------------------------------------------- degradation *)

let test_crash_injection_statuses () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let inputs = [| 0; 1; 0; 1 |] in
  let o = R.run ~inputs ~seed:5 ~crash_at:[ 1, 2; 3, 0 ] ~deadline:30. () in
  Alcotest.(check bool) "p1 crashed" true (o.R.statuses.(1) = R.Crashed_injected);
  Alcotest.(check bool) "p3 crashed" true (o.R.statuses.(3) = R.Crashed_injected);
  Alcotest.(check int) "p3 took no ops" 0 o.R.ops.(3);
  Alcotest.(check bool) "p1 halted at its crash point" true (o.R.ops.(1) <= 2);
  Alcotest.(check bool) "p1 undecided" true (o.R.decisions.(1) = -1);
  (* obstruction-freedom: the survivors still decide *)
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Fmt.str "p%d decided" pid)
        true
        (o.R.statuses.(pid) = R.Decided && o.R.decisions.(pid) >= 0))
    [ 0; 2 ];
  match R.check ~inputs o with Ok () -> () | Error e -> Alcotest.fail e

let test_crash_all_processes () =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let inputs = [| 0; 1; 1 |] in
  let o =
    R.run ~inputs ~seed:1 ~crash_at:[ 0, 0; 1, 0; 2, 0 ] ~deadline:30. ()
  in
  Array.iteri
    (fun pid st ->
      Alcotest.(check bool)
        (Fmt.str "p%d crashed" pid)
        true (st = R.Crashed_injected))
    o.R.statuses;
  Alcotest.(check (array int)) "nobody decided" [| -1; -1; -1 |] o.R.decisions;
  (* vacuously fine: every process crashed, none mis-decided *)
  match R.check ~inputs o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_stall_injection_still_decides () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let inputs = [| 1; 0; 1; 0 |] in
  let o =
    R.run ~inputs ~seed:9 ~stalls:[ 0, 1, 5_000; 2, 3, 10_000 ] ~deadline:30.
      ()
  in
  Array.iteri
    (fun pid st ->
      Alcotest.(check bool)
        (Fmt.str "p%d decided despite stalls" pid)
        true (st = R.Decided))
    o.R.statuses;
  match R.check ~inputs o with Ok () -> () | Error e -> Alcotest.fail e

let test_deadline_times_out_without_raise () =
  (* a protocol that can never decide: swap-ksa needs a 2-lap lead, which
     an immediate deadline prevents any process from reaching; the watchdog
     must wind every domain down with Timed_out — no exception, and the
     partial per-process data is still returned *)
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let inputs = [| 0; 1; 0; 1 |] in
  (* backoff_window:1 polls the watchdog at every operation, so the expired
     deadline is observed before anyone can accumulate the 2-lap lead *)
  let o = R.run ~inputs ~seed:3 ~deadline:0.000001 ~backoff_window:1 () in
  Array.iteri
    (fun pid st ->
      Alcotest.(check bool)
        (Fmt.str "p%d timed out" pid)
        true (st = R.Timed_out))
    o.R.statuses;
  Alcotest.(check bool) "partial op counts returned" true
    (Array.exists (fun n -> n > 0) o.R.ops);
  match R.check ~inputs o with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "check accepted a timeout"

let test_max_ops_times_out_without_raise () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let inputs = [| 0; 1; 0; 1 |] in
  (* too few operations to finish a pass, let alone decide *)
  let o = R.run ~inputs ~seed:3 ~max_ops:1 ~deadline:30. () in
  Array.iteri
    (fun pid st ->
      Alcotest.(check bool)
        (Fmt.str "p%d timed out" pid)
        true
        (st = R.Timed_out);
      Alcotest.(check bool)
        (Fmt.str "p%d stopped at the budget" pid)
        true
        (o.R.ops.(pid) <= 1))
    o.R.statuses

let test_faulting_domain_joined_and_reported () =
  (* an exchange primitive that blows up: every domain faults, yet run
     returns normally with Faulted statuses — no exception crosses the
     domain boundary, every domain is joined *)
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let inputs = [| 0; 1; 0 |] in
  let o =
    R.run ~inputs ~seed:2 ~deadline:30.
      ~exchange:(fun _ _ -> failwith "injected cell fault")
      ()
  in
  Array.iteri
    (fun pid st ->
      match st with
      | R.Faulted (Failure msg) ->
        Alcotest.(check string)
          (Fmt.str "p%d fault detail" pid)
          "injected cell fault" msg
      | st ->
        Alcotest.fail (Fmt.str "p%d: unexpected status %a" pid R.pp_status st))
    o.R.statuses;
  match R.check ~inputs o with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "check accepted faulted processes"

let test_fault_point_validation () =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let inputs = [| 0; 1; 0 |] in
  (try
     ignore (R.run ~inputs ~crash_at:[ 7, 0 ] ());
     Alcotest.fail "accepted out-of-range crash pid"
   with Invalid_argument _ -> ());
  (try
     ignore (R.run ~inputs ~stalls:[ 0, 1, 0 ] ());
     Alcotest.fail "accepted zero-length stall"
   with Invalid_argument _ -> ());
  try
    ignore (R.run ~inputs ~deadline:(-1.) ());
    Alcotest.fail "accepted negative deadline"
  with Invalid_argument _ -> ()

(* ------------------------------------------ qcheck: check with a bound *)

(* random partial outcomes at n = 3..5 held against an independent
   reference predicate: [check ~bound] must accept exactly the outcomes
   where every non-decided process was an injected crash, at most [bound]
   distinct values were decided, and every decided value is some
   process's input.  The generator draws statuses and final states
   independently (including nonsense like a decided process with no
   decision), so the mirror has to agree on the weird corners too; a
   second property checks the supervisor-facing monotonicity — loosening
   the bound never turns an accepted outcome into a rejected one. *)
let degraded_case_gen =
  QCheck2.Gen.(
    int_range 3 5 >>= fun n ->
    int_range 0 (n - 1) >>= fun extra ->
    list_repeat n (int_bound 1) >>= fun inputs ->
    let status =
      frequency
        [ 5, return `Decided; 2, return `Crashed; 1, return `Timed_out
        ; 1, return `Faulted
        ]
    in
    list_repeat n (pair status (int_range (-1) 2)) >>= fun procs ->
    return (n, extra, inputs, procs))

let reference_degraded ~bound ~inputs procs =
  let survivors_ok =
    List.for_all
      (fun (s, _) -> match s with `Decided | `Crashed -> true | _ -> false)
      procs
  in
  let distinct =
    List.filter_map (fun (_, d) -> if d >= 0 then Some d else None) procs
    |> List.sort_uniq compare
  in
  survivors_ok
  && List.length distinct <= bound
  && List.for_all (fun v -> List.mem v inputs) distinct

(* [true] iff [check ~bound] accepted the synthetic outcome *)
let degraded_check ~n ~bound ~inputs procs =
  Result.is_ok (verdict ~n ~k:1 ~bound ~inputs procs)

let qcheck_degraded_reference =
  QCheck2.Test.make ~name:"check ~bound = reference predicate"
    ~count:1000 degraded_case_gen (fun (n, extra, inputs, procs) ->
      let bound = 1 + extra in
      degraded_check ~n ~bound ~inputs procs
      = reference_degraded ~bound ~inputs procs)

let qcheck_degraded_monotone =
  QCheck2.Test.make ~name:"check monotone in the bound"
    ~count:1000 degraded_case_gen (fun (n, extra, inputs, procs) ->
      let ok b = degraded_check ~n ~bound:b ~inputs procs in
      (not (ok (1 + extra))) || ok (1 + extra + 1))

let test_degraded_bound_validation () =
  try
    ignore
      (degraded_check ~n:3 ~bound:0 ~inputs:[ 0; 0; 0 ]
         [ `Decided, 0; `Decided, 0; `Decided, 0 ]);
    Alcotest.fail "accepted bound < k"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "runtime"
    [ ( "cells",
        [ Alcotest.test_case "register" `Quick test_cell_register
        ; Alcotest.test_case "swap" `Quick test_cell_swap
        ; Alcotest.test_case "test-and-set (+reset)" `Quick test_cell_tas
        ; Alcotest.test_case "structural CAS" `Quick test_cell_cas_structural
        ; Alcotest.test_case "illegal operations" `Quick test_cell_illegal_ops
        ; Alcotest.test_case "resolved swap still rejects" `Quick
            test_cell_resolved_rejections
        ; QCheck_alcotest.to_alcotest qcheck_cell_apply_matches_model
        ] )
    ; ( "registry on real domains",
        [ Alcotest.test_case "capability flags" `Quick test_registry_flags
        ; Alcotest.test_case "n=2" `Quick (test_registry_runnable_entries 2)
        ; Alcotest.test_case "n=4" `Quick (test_registry_runnable_entries 4)
        ; Alcotest.test_case "n=6" `Quick (test_registry_runnable_entries 6)
        ; Alcotest.test_case "off-registry protocols" `Quick
            (test_on_domains ~seeds:(List.init 20 Fun.id)
               [ "two-proc", Core.Two_proc_swap.make ~m:3
               ; ( "swap-ksa",
                   (module (val Core.Swap_ksa.make ~n:8 ~k:3 ~m:4)
                   : Shmem.Protocol.S) )
               ])
        ] )
    ; ( "differential",
        [ Alcotest.test_case "hand-optimized vs generic Algorithm 1" `Quick
            test_differential_swap_ksa
        ; Alcotest.test_case "arena drive = solo runs, 1000 rounds" `Quick
            test_arena_drive_matches_solo
        ] )
    ; ( "histories",
        [ Alcotest.test_case "wait-free runs linearize" `Quick
            test_histories_linearizable
        ; Alcotest.test_case "recording off by default" `Quick
            test_histories_off_by_default
        ; Alcotest.test_case "real exchange linearizable" `Quick
            test_real_exchange_cell_linearizable
        ; Alcotest.test_case "torn exchange caught" `Quick
            test_torn_exchange_cell_caught
        ] )
    ; ( "validation",
        [ Alcotest.test_case "input validation" `Quick test_input_validation
        ; Alcotest.test_case "check rejects bad outcomes" `Quick
            test_check_rejects_bad_outcomes
        ] )
    ; ( "graceful degradation",
        [ Alcotest.test_case "crash injection statuses" `Quick
            test_crash_injection_statuses
        ; Alcotest.test_case "crashing every process" `Quick
            test_crash_all_processes
        ; Alcotest.test_case "stall injection still decides" `Quick
            test_stall_injection_still_decides
        ; Alcotest.test_case "deadline times out without raise" `Quick
            test_deadline_times_out_without_raise
        ; Alcotest.test_case "op budget times out without raise" `Quick
            test_max_ops_times_out_without_raise
        ; Alcotest.test_case "faulting domains joined and reported" `Quick
            test_faulting_domain_joined_and_reported
        ; Alcotest.test_case "fault point validation" `Quick
            test_fault_point_validation
        ] )
    ; ( "degraded-check qcheck",
        [ QCheck_alcotest.to_alcotest qcheck_degraded_reference
        ; QCheck_alcotest.to_alcotest qcheck_degraded_monotone
        ; Alcotest.test_case "bound validation" `Quick
            test_degraded_bound_validation
        ] )
    ]
