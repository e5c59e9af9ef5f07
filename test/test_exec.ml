(* Tests for the execution engine: stepping, schedulers, replay, covering,
   indistinguishability and trace utilities (§3 of the paper). *)

module V = Shmem.Value
module Op = Shmem.Op

(* a tiny deterministic protocol for exercising the engine: two processes,
   one readable swap object; each process swaps its input then reads, and
   decides the value it reads *)
module Tiny = struct
  let name = "tiny"
  let n = 2
  let k = 2 (* not an agreement protocol; engine mechanics only *)
  let num_inputs = 2
  let objects = [| Shmem.Obj_kind.Readable_swap Shmem.Obj_kind.Unbounded |]
  let init_object _ = V.Bot

  type state = { input : int; step : int; decided : int option }

  let init ~pid:_ ~input = { input; step = 0; decided = None }

  let poised s =
    if s.step = 0 then Op.swap 0 (V.Int s.input) else Op.read 0

  let on_response s resp =
    if s.step = 0 then { s with step = 1 }
    else
      match resp with
      | V.Int w -> { s with decided = Some w }
      | _ -> { s with decided = Some s.input }

  let decision s = s.decided
  let equal_state = ( = )
  let hash_state = Hashtbl.hash
  let pp_state ppf s = Fmt.pf ppf "{input=%d step=%d}" s.input s.step
  let space_bound ~n:_ ~k:_ = Array.length objects
  let symmetry = Shmem.Protocol.Asymmetric
  let recovery = Shmem.Protocol.Restart
end

module E = Shmem.Exec.Make (Tiny)

let initial () = E.initial ~inputs:[| 0; 1 |]

let test_initial () =
  let c = initial () in
  Alcotest.(check bool) "object starts at ⊥" true (V.equal (E.value c 0) V.Bot);
  Alcotest.(check (list int)) "nobody decided" [] (E.decided_values c);
  Alcotest.(check (list int)) "both undecided" [ 0; 1 ] (E.undecided c)

let test_step_semantics () =
  let c = initial () in
  let c, s = E.step c 0 in
  Alcotest.(check bool) "p0 swapped 0 in" true (V.equal (E.value c 0) (V.Int 0));
  Alcotest.(check bool) "p0 got ⊥ back" true (V.equal s.Shmem.Trace.resp V.Bot);
  let c, s = E.step c 1 in
  Alcotest.(check bool) "p1 swapped 1 in" true (V.equal (E.value c 0) (V.Int 1));
  Alcotest.(check bool) "p1 got 0 back" true
    (V.equal s.Shmem.Trace.resp (V.Int 0))

let test_step_after_decision_rejected () =
  let c = initial () in
  let c, _ = E.step c 0 in
  let c, _ = E.step c 0 in
  Alcotest.(check (option int)) "p0 decided own value" (Some 0) (E.decision c 0);
  try
    ignore (E.step c 0);
    Alcotest.fail "stepped a decided process"
  with Invalid_argument _ -> ()

let test_run_script_and_replay () =
  let c = initial () in
  let c', trace = E.run_script c [ 0; 1; 0; 1 ] in
  Alcotest.(check int) "4 steps" 4 (Shmem.Trace.length trace);
  Alcotest.(check bool) "all decided" true (E.all_decided c');
  (* replay must reproduce identical responses *)
  let c'' = E.replay (initial ()) trace in
  Alcotest.(check bool) "replay reaches same configuration" true
    (E.equal_config c' c'')

let test_run_solo () =
  let c = initial () in
  match E.run_solo ~pid:1 ~max_steps:10 c with
  | None -> Alcotest.fail "solo run did not decide"
  | Some (c', trace) ->
    Alcotest.(check int) "two solo steps" 2 (Shmem.Trace.length trace);
    Alcotest.(check (option int)) "p1 decided its input" (Some 1)
      (E.decision c' 1);
    Alcotest.(check bool) "p1-only" true
      (Shmem.Trace.is_p_only ~allowed:(Int.equal 1) trace)

let test_round_robin_runs_all () =
  let c = initial () in
  let c', _, outcome = E.run ~sched:E.round_robin ~max_steps:100 c in
  Alcotest.(check bool) "all decided" true (E.all_decided c');
  Alcotest.(check bool) "outcome all-decided" true (outcome = E.All_decided)

let test_covers () =
  let c = initial () in
  (* both processes are poised to Swap object 0: {p0} covers {0}, and
     {p0,p1} does not cover {0} (sizes differ) *)
  Alcotest.(check bool) "p0 covers B0" true (E.covers c ~pids:[ 0 ] ~objs:[ 0 ]);
  Alcotest.(check bool) "size mismatch rejected" false
    (E.covers c ~pids:[ 0; 1 ] ~objs:[ 0 ]);
  (* after its swap, p0 is poised to Read: no longer covering *)
  let c', _ = E.step c 0 in
  Alcotest.(check bool) "reader does not cover" false
    (E.covers c' ~pids:[ 0 ] ~objs:[ 0 ])

let test_indistinguishability () =
  let c1 = E.initial ~inputs:[| 0; 1 |] in
  let c2 = E.initial ~inputs:[| 0; 0 |] in
  Alcotest.(check bool) "same state for p0" true
    (E.indistinguishable_to ~pids:[ 0 ] c1 c2);
  Alcotest.(check bool) "different state for p1" false
    (E.indistinguishable_to ~pids:[ 1 ] c1 c2);
  (* a step by p1 is invisible to p0's state *)
  let c1', _ = E.step c1 1 in
  Alcotest.(check bool) "p0 cannot see p1's step in its state" true
    (E.indistinguishable_to ~pids:[ 0 ] c1 c1')

let test_trace_utilities () =
  let c = initial () in
  let _, trace = E.run_script c [ 0; 1; 0 ] in
  Alcotest.(check (list int)) "pids" [ 0; 1 ] (Shmem.Trace.pids trace);
  Alcotest.(check (list int)) "objects accessed" [ 0 ]
    (Shmem.Trace.objects_accessed trace);
  Alcotest.(check int) "steps by p0" 2 (Shmem.Trace.steps_by ~pid:0 trace);
  let st = Shmem.Stats.of_trace trace in
  Alcotest.(check int) "stats total" 3 st.Shmem.Stats.total_steps;
  Alcotest.(check int) "stats nontrivial" 2 st.Shmem.Stats.nontrivial_ops;
  Alcotest.(check int) "stats reads" 1 st.Shmem.Stats.reads

let test_trace_indistinguishable () =
  let c = initial () in
  let _, t1 = E.run_script c [ 0; 1 ] in
  let _, t2 = E.run_script c [ 0 ] in
  Alcotest.(check bool) "same p0 view" true
    (Shmem.Trace.indistinguishable_to ~pid:0 t1 t2);
  Alcotest.(check bool) "different p1 view" false
    (Shmem.Trace.indistinguishable_to ~pid:1 t1 t2)

let test_schedule_parse () =
  (match Shmem.Schedule.parse "0x3, 1, (2 0)x2" with
  | Ok pids ->
    Alcotest.(check (list int)) "parsed" [ 0; 0; 0; 1; 2; 0; 2; 0 ] pids
  | Error e -> Alcotest.fail e);
  (match Shmem.Schedule.parse "" with
  | Ok pids -> Alcotest.(check (list int)) "empty" [] pids
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Shmem.Schedule.parse bad with
      | Ok _ -> Alcotest.fail (Fmt.str "accepted %S" bad)
      | Error _ -> ())
    [ "(0 1"; "x3"; "0x"; "0)"; "a" ]

let test_schedule_parse_limits () =
  (* oversized literals and repetitions come back as [Error] with a
     diagnostic — never as an exception or an attempt to materialize a
     gigantic list *)
  let contains s needle =
    let ln = String.length needle and ls = String.length s in
    let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  let expect_error ~mentions input =
    match Shmem.Schedule.parse input with
    | Ok _ -> Alcotest.failf "accepted %S" input
    | Error e ->
      if not (contains e mentions) then
        Alcotest.failf "error for %S is %S; expected a mention of %S" input e
          mentions
  in
  (* a digit run that does not fit in an [int] *)
  expect_error ~mentions:"does not fit" "99999999999999999999999";
  expect_error ~mentions:"does not fit" "0x99999999999999999999999";
  (* repetition counts and group expansions past the 1,000,000-step cap *)
  expect_error ~mentions:"cap" "0x100000000";
  expect_error ~mentions:"cap" "(0 1 2)x400000";
  (* exactly at the cap is still accepted *)
  match Shmem.Schedule.parse "0x1000000" with
  | Ok pids ->
    Alcotest.(check int) "cap-sized schedule" 1_000_000 (List.length pids)
  | Error e -> Alcotest.fail e

let test_schedule_parse_total_cap () =
  let parse_len input =
    Result.map List.length (Shmem.Schedule.parse input)
  in
  let reject input =
    match parse_len input with
    | Ok len -> Alcotest.failf "accepted %d steps" len
    | Error _ -> ()
  in
  (* the cap bounds a whole sequence, not each atom: five cap-sized atoms
     in a row are rejected as they are when grouped *)
  let five = String.concat " " (List.init 5 (fun _ -> "0x1000000")) in
  reject five;
  reject ("(" ^ five ^ ")x1");
  reject "0x500000 1x500000 2";
  reject "(0x500000 1x500000) 2";
  Alcotest.(check (result int string))
    "two half-cap atoms fit" (Ok 1_000_000) (parse_len "0x500000 1x500000");
  (* [x1] and a one-atom group return their atom: twenty of them nested
     around a cap-sized atom allocate about what the atom alone does *)
  let words input =
    let before = Gc.minor_words () in
    Alcotest.(check (result int string))
      input (Ok 1_000_000) (parse_len input);
    Gc.minor_words () -. before
  in
  let alone = words "0x1000000" in
  let nested =
    words
      (String.make 20 '(' ^ "0x1000000"
      ^ String.concat "" (List.init 20 (fun _ -> ")x1")))
  in
  if nested > 1.5 *. alone then
    Alcotest.failf "nesting allocated %.0f words, the atom alone %.0f" nested
      alone

(* Schedules drawn from the grammar, with counts near and past the cap,
   then mutated by inserting, deleting and replacing characters: [parse]
   answers [Ok] or [Error] and never raises, and an [Ok] never holds more
   than [max_expansion] steps. *)
let schedule_text_gen =
  let open QCheck2.Gen in
  let count =
    frequency
      [ 8, map string_of_int (int_range 0 4);
        1, map string_of_int
             (oneofl [ 333_334; 500_000; 999_999; 1_000_000; 1_000_001 ])
      ]
  in
  let rec atom depth =
    let base =
      if depth = 0 then map string_of_int (int_range 0 9)
      else
        frequency
          [ 3, map string_of_int (int_range 0 9);
            1, map (fun xs -> "(" ^ String.concat " " xs ^ ")")
                 (list_size (int_range 0 3) (atom (depth - 1)))
          ]
    in
    let* b = base in
    frequency [ 2, pure b; 1, map (fun c -> b ^ "x" ^ c) count ]
  in
  let edit s =
    let alphabet = "0123456789x*(), " in
    let* kind = int_range 0 2 in
    let* pos = int_range 0 (String.length s) in
    let* ch = map (String.get alphabet) (int_range 0 (String.length alphabet - 1)) in
    let n = String.length s in
    pure
      (match kind with
      | 0 -> String.sub s 0 pos ^ String.make 1 ch ^ String.sub s pos (n - pos)
      | 1 when pos < n -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
      | _ when pos < n -> String.sub s 0 pos ^ String.make 1 ch ^ String.sub s (pos + 1) (n - pos - 1)
      | _ -> s)
  in
  let* atoms = list_size (int_range 0 4) (atom 2) in
  let* edits = int_range 0 3 in
  let rec mutate k s = if k = 0 then pure s else edit s >>= mutate (k - 1) in
  mutate edits (String.concat " " atoms)

let prop_schedule_parse_total =
  QCheck2.Test.make ~name:"Schedule.parse is total and capped" ~count:500
    ~print:Fun.id schedule_text_gen (fun input ->
      match Shmem.Schedule.parse input with
      | Ok pids -> List.length pids <= Shmem.Schedule.max_expansion
      | Error _ -> true)

let prop_schedule_roundtrip =
  QCheck2.Test.make ~name:"Schedule.to_string/parse round-trip" ~count:300
    QCheck2.Gen.(small_list (int_range 0 9))
    (fun pids ->
      match Shmem.Schedule.parse (Shmem.Schedule.to_string pids) with
      | Ok pids' -> pids = pids'
      | Error _ -> false)

let prop_replay_deterministic =
  (* re-running any schedule from the same initial configuration reproduces
     the same trace (the engine is deterministic) *)
  QCheck2.Test.make ~name:"replay is deterministic" ~count:100
    QCheck2.Gen.(small_list (int_range 0 1))
    (fun pids ->
      let c = initial () in
      (* drop steps for already-decided processes *)
      let run () =
        List.fold_left
          (fun (c, acc) pid ->
            match E.decision c pid with
            | Some _ -> c, acc
            | None ->
              let c', s = E.step c pid in
              c', s :: acc)
          (c, []) pids
      in
      let c1, t1 = run () in
      let c2, t2 = run () in
      E.equal_config c1 c2
      && List.equal
           (fun a b ->
             Shmem.Op.equal a.Shmem.Trace.op b.Shmem.Trace.op
             && Shmem.Value.equal a.Shmem.Trace.resp b.Shmem.Trace.resp)
           t1 t2)

let test_timeline_render () =
  let c = initial () in
  let _, trace = E.run_script c [ 0; 1; 0; 1 ] in
  let out = Fmt.str "@[<v>%a@]" (fun ppf -> Shmem.Timeline.render ~n:2 ppf) trace in
  (* every step appears: two swaps and two reads *)
  let count needle =
    let rec go i acc =
      if i + String.length needle > String.length out then acc
      else if String.sub out i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "two swaps drawn" 2 (count "S0");
  Alcotest.(check int) "two reads drawn" 2 (count "r0")

let test_with_crashes () =
  (* a crashed process is never scheduled again; the survivor still runs *)
  let c = initial () in
  let sched = E.with_crashes ~crash_at:[ 1, 0 ] E.round_robin in
  let c', trace, _ = E.run ~sched ~max_steps:20 c in
  Alcotest.(check int) "p1 took no steps" 0 (Shmem.Trace.steps_by ~pid:1 trace);
  Alcotest.(check bool) "p0 decided" true (E.decision c' 0 <> None);
  Alcotest.(check bool) "p1 undecided" true (E.decision c' 1 = None)

let test_with_crashes_never_reschedules () =
  (* crashed pids take no step at or after their crash time, under any
     scheduler and crash pattern; the full trace positions prove it *)
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module E4 = Shmem.Exec.Make (P) in
  let rng = Random.State.make [| 11 |] in
  for trial = 1 to 20 do
    let crash_at =
      [ Random.State.int rng 4, Random.State.int rng 30
      ; Random.State.int rng 4, Random.State.int rng 30
      ]
    in
    let sched =
      E4.with_crashes ~crash_at
        (if trial mod 2 = 0 then E4.round_robin else E4.random rng)
    in
    let inputs = [| 0; 1; 0; 1 |] in
    let _, trace, _ = E4.run ~sched ~max_steps:200 (E4.initial ~inputs) in
    List.iteri
      (fun i s ->
        let pid = s.Shmem.Trace.pid in
        match List.assoc_opt pid crash_at with
        | Some t when i >= t ->
          Alcotest.failf "trial %d: crashed p%d scheduled at step %d >= %d"
            trial pid i t
        | _ -> ())
      trace
  done;
  (* crashing everyone from step 0 stops the run immediately *)
  let sched =
    E4.with_crashes ~crash_at:[ 0, 0; 1, 0; 2, 0; 3, 0 ] E4.round_robin
  in
  let _, trace, outcome =
    E4.run ~sched ~max_steps:100 (E4.initial ~inputs:[| 0; 1; 0; 1 |])
  in
  Alcotest.(check int) "no step taken" 0 (Shmem.Trace.length trace);
  Alcotest.(check bool) "outcome stopped" true (outcome = E4.Stopped)

let test_with_crashes_bursty_survivors () =
  (* crash faults composed with the bursty scheduler: the survivors of a
     partial crash pattern still decide, and their decisions satisfy
     k-agreement and validity *)
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module E4 = Shmem.Exec.Make (P) in
  let rng = Random.State.make [| 29 |] in
  let inputs = [| 0; 1; 1; 0 |] in
  let crash_at = [ 1, 5; 3, 9 ] in
  let sched = E4.with_crashes ~crash_at (E4.bursty rng ~burst:40) in
  let c', trace, outcome =
    E4.run ~sched ~max_steps:50_000 (E4.initial ~inputs)
  in
  (* the crashed pair never decides, so the run ends by exhausting the
     enabled processes, not by universal decision *)
  Alcotest.(check bool) "run stops" true (outcome = E4.Stopped);
  List.iter
    (fun pid ->
      Alcotest.(check bool) (Fmt.str "survivor p%d decided" pid) true
        (E4.decision c' pid <> None))
    [ 0; 2 ];
  List.iter
    (fun (pid, t) ->
      Alcotest.(check bool) (Fmt.str "crashed p%d undecided" pid) true
        (E4.decision c' pid = None);
      Alcotest.(check bool) (Fmt.str "p%d took at most %d steps" pid t) true
        (Shmem.Trace.steps_by ~pid trace <= t))
    crash_at;
  let decided = E4.decided_values c' in
  Alcotest.(check bool) "1-agreement among survivors" true
    (List.length (List.sort_uniq compare decided) <= 1);
  List.iter
    (fun v ->
      Alcotest.(check bool) "validity" true (Array.exists (Int.equal v) inputs))
    decided

let test_crash_all_every_scheduler () =
  (* crashing everyone at step 0 yields [Stopped] with an empty trace under
     every built-in scheduler, and crashing all but one leaves a solo
     survivor that must decide (obstruction-freedom) *)
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module E4 = Shmem.Exec.Make (P) in
  let rng = Random.State.make [| 31 |] in
  let scheds () =
    [ "round_robin", E4.round_robin
    ; "random", E4.random rng
    ; "bursty", E4.bursty rng ~burst:8
    ; "solo", E4.solo 0
    ]
  in
  let inputs = [| 1; 0; 1; 0 |] in
  List.iter
    (fun (name, sched) ->
      let sched =
        E4.with_crashes ~crash_at:[ 0, 0; 1, 0; 2, 0; 3, 0 ] sched
      in
      let _, trace, outcome =
        E4.run ~sched ~max_steps:100 (E4.initial ~inputs)
      in
      Alcotest.(check int) (name ^ ": no steps") 0 (Shmem.Trace.length trace);
      Alcotest.(check bool) (name ^ ": stopped") true (outcome = E4.Stopped))
    (scheds ());
  List.iter
    (fun (name, sched) ->
      let sched = E4.with_crashes ~crash_at:[ 1, 0; 2, 0; 3, 0 ] sched in
      let c', trace, outcome =
        E4.run ~sched ~max_steps:1_000 (E4.initial ~inputs)
      in
      Alcotest.(check bool) (name ^ ": sole survivor decided") true
        (E4.decision c' 0 <> None);
      Alcotest.(check bool) (name ^ ": p0-only trace") true
        (Shmem.Trace.is_p_only ~allowed:(Int.equal 0) trace);
      Alcotest.(check bool) (name ^ ": stopped after deciding") true
        (outcome = E4.Stopped))
    (scheds ())

let test_with_stalls () =
  (* a stalled process takes no step inside its window even when the
     underlying scheduler would pick it, and resumes once the window ends *)
  let sched = E.with_stalls ~stalls:[ 1, 0, 2 ] E.round_robin in
  let c', trace, _ = E.run ~sched ~max_steps:20 (initial ()) in
  Alcotest.(check (list int)) "p1 delayed to the end" [ 0; 0; 1; 1 ]
    (List.map (fun s -> s.Shmem.Trace.pid) trace);
  Alcotest.(check bool) "stalled run still decides" true (E.all_decided c');
  (* when every enabled process is mid-stall, the underlying scheduler
     chooses among all of them instead of wedging the run *)
  let sched = E.with_stalls ~stalls:[ 0, 0, 50; 1, 0, 50 ] E.round_robin in
  let c', trace, outcome = E.run ~sched ~max_steps:20 (initial ()) in
  Alcotest.(check bool) "fallback keeps the run moving" true
    (Shmem.Trace.length trace > 0);
  Alcotest.(check bool) "fallback run decides" true (E.all_decided c');
  Alcotest.(check bool) "all decided outcome" true (outcome = E.All_decided)

let test_replay_reproduces_run () =
  (* replaying a recorded random run reproduces identical responses (the
     asserts inside [replay]) and the identical final configuration *)
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module E3 = Shmem.Exec.Make (P) in
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 10 do
    let inputs = Array.init 3 (fun _ -> Random.State.int rng 2) in
    let c0 = E3.initial ~inputs in
    let c_end, trace, _ =
      E3.run ~sched:(E3.bursty rng ~burst:20) ~max_steps:500 c0
    in
    let c_replayed = E3.replay c0 trace in
    Alcotest.(check bool) "replay reaches the recorded configuration" true
      (E3.equal_config c_end c_replayed)
  done;
  (* a trace replayed against the wrong initial configuration must trip the
     response assertions rather than silently diverge *)
  let c0 = initial () in
  let _, trace = E.run_script c0 [ 0; 1; 0 ] in
  match E.replay (E.initial ~inputs:[| 1; 1 |]) trace with
  | _ -> Alcotest.fail "replay accepted a mismatched initial configuration"
  | exception Assert_failure _ -> ()

let test_timeline_wraps () =
  let c = initial () in
  let _, trace = E.run_script c [ 0; 1; 0; 1 ] in
  let out =
    Fmt.str "@[<v>%a@]" (fun ppf -> Shmem.Timeline.render ~columns:2 ~n:2 ppf)
      trace
  in
  (* 4 steps at 2 columns per band: each process's row appears twice *)
  let count needle =
    let rec go i acc =
      if i + String.length needle > String.length out then acc
      else if String.sub out i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "two bands" 2 (count "p0 ")

let test_stats_merge () =
  let c = initial () in
  let _, t1 = E.run_script c [ 0; 0 ] in
  let _, t2 = E.run_script c [ 1 ] in
  let merged =
    Shmem.Stats.merge (Shmem.Stats.of_trace t1) (Shmem.Stats.of_trace t2)
  in
  Alcotest.(check int) "steps add" 3 merged.Shmem.Stats.total_steps;
  Alcotest.(check (list (pair int int))) "per-pid combined"
    [ 0, 2; 1, 1 ] merged.Shmem.Stats.steps_per_pid

let test_protocol_validate () =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  Shmem.Protocol.validate (module P);
  Alcotest.(check bool) "swap-only" true
    (Shmem.Protocol.uses_only_swap (module P));
  Alcotest.(check bool) "historyless" true
    (Shmem.Protocol.uses_only_historyless (module P));
  let (module C) = Baselines.Cas_consensus.make ~n:2 ~m:2 in
  Alcotest.(check bool) "cas not historyless" false
    (Shmem.Protocol.uses_only_historyless (module C))

let test_bad_inputs_rejected () =
  (try
     ignore (E.initial ~inputs:[| 0 |]);
     Alcotest.fail "accepted short inputs"
   with Invalid_argument _ -> ());
  try
    ignore (E.initial ~inputs:[| 0; 7 |]);
    Alcotest.fail "accepted out-of-range input"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "exec"
    [ ( "engine",
        [ Alcotest.test_case "initial configuration" `Quick test_initial
        ; Alcotest.test_case "step semantics" `Quick test_step_semantics
        ; Alcotest.test_case "decided processes do not step" `Quick
            test_step_after_decision_rejected
        ; Alcotest.test_case "run_script and replay" `Quick
            test_run_script_and_replay
        ; Alcotest.test_case "run_solo" `Quick test_run_solo
        ; Alcotest.test_case "round robin" `Quick test_round_robin_runs_all
        ; Alcotest.test_case "covers" `Quick test_covers
        ; Alcotest.test_case "indistinguishability" `Quick
            test_indistinguishability
        ; Alcotest.test_case "trace utilities" `Quick test_trace_utilities
        ; Alcotest.test_case "trace indistinguishability" `Quick
            test_trace_indistinguishable
        ; Alcotest.test_case "bad inputs rejected" `Quick
            test_bad_inputs_rejected
        ; Alcotest.test_case "schedule notation" `Quick test_schedule_parse
        ; Alcotest.test_case "schedule cap bounds the whole schedule" `Quick
            test_schedule_parse_total_cap
        ; Alcotest.test_case "schedule parse limits" `Quick
            test_schedule_parse_limits
        ; Alcotest.test_case "timeline rendering" `Quick test_timeline_render
        ; Alcotest.test_case "timeline wrapping" `Quick test_timeline_wraps
        ; Alcotest.test_case "crash scheduling" `Quick test_with_crashes
        ; Alcotest.test_case "crashed pids never rescheduled" `Quick
            test_with_crashes_never_reschedules
        ; Alcotest.test_case "crash survivors decide under bursty" `Quick
            test_with_crashes_bursty_survivors
        ; Alcotest.test_case "crash-all stops under every scheduler" `Quick
            test_crash_all_every_scheduler
        ; Alcotest.test_case "stall scheduling" `Quick test_with_stalls
        ; Alcotest.test_case "replay reproduces runs" `Quick
            test_replay_reproduces_run
        ; Alcotest.test_case "stats merge" `Quick test_stats_merge
        ; Alcotest.test_case "protocol validation" `Quick
            test_protocol_validate
        ] )
    ; Util.qsuite "exec-props"
        [ prop_schedule_roundtrip;
          prop_schedule_parse_total;
          prop_replay_deterministic
        ]
    ]
