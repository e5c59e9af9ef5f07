(* Tests for the long-running consensus service (lib/arena) and its
   substrate added alongside it: the swap-based intake queue, epoch
   stamps (Shmem.Epoch), the deterministic service kill plan
   (Fault.service_kill_plan), pool supervision (Supervisor.Pool), and
   the Service/Loadgen closed loop — recycling never resurrects residue,
   admission is deterministic under a fixed seed, work-stealing
   conserves clients, and kill-and-heal escalates to the degraded
   (k + c) bound instead of violating agreement. *)

module Epoch = Shmem.Epoch

let mk_swap_ksa () : Shmem.Protocol.t =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  (module P)

(* ---------------------------------------------------------- intake *)

let test_intake_fifo () =
  let q = Arena.Intake.create () in
  Alcotest.(check bool) "fresh empty" true (Arena.Intake.is_empty q);
  List.iter (Arena.Intake.push q) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Arena.Intake.length q);
  Alcotest.(check (list int)) "drain is FIFO" [ 1; 2; 3; 4 ]
    (Arena.Intake.drain q);
  Alcotest.(check (list int)) "drained empty" [] (Arena.Intake.drain q)

let test_intake_pop_lifo () =
  let q = Arena.Intake.create () in
  List.iter (Arena.Intake.push q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "pop newest" (Some 3) (Arena.Intake.pop q);
  Alcotest.(check (option int)) "then next" (Some 2) (Arena.Intake.pop q);
  Arena.Intake.push q 9;
  Alcotest.(check (option int)) "interleaved push" (Some 9)
    (Arena.Intake.pop q);
  Alcotest.(check (option int)) "oldest last" (Some 1) (Arena.Intake.pop q);
  Alcotest.(check (option int)) "empty" None (Arena.Intake.pop q)

let test_intake_concurrent_conservation () =
  (* 4 producer domains, 1000 pushes each, tagged by producer: nothing
     lost, nothing duplicated *)
  let q = Arena.Intake.create () in
  let producers = 4 and per = 1000 in
  let doms =
    List.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Arena.Intake.push q ((p * per) + i)
            done))
  in
  List.iter Domain.join doms;
  let got = Arena.Intake.drain q in
  Alcotest.(check int) "count" (producers * per) (List.length got);
  let seen = Array.make (producers * per) false in
  List.iter
    (fun x ->
      Alcotest.(check bool) "no duplicate" false seen.(x);
      seen.(x) <- true)
    got;
  Alcotest.(check bool) "all present" true (Array.for_all Fun.id seen)

(* ----------------------------------------------------------- epoch *)

let test_epoch_pack_unpack () =
  let s = Epoch.make ~slot:7 ~epoch:41 in
  Alcotest.(check int) "slot" 7 (Epoch.slot s);
  Alcotest.(check int) "epoch" 41 (Epoch.epoch s);
  let s' = Epoch.next s in
  Alcotest.(check int) "next keeps slot" 7 (Epoch.slot s');
  Alcotest.(check int) "next bumps epoch" 42 (Epoch.epoch s');
  Alcotest.(check bool) "stamps differ" false (Epoch.equal s s');
  Alcotest.(check bool) "roundtrip" true
    (Epoch.equal s (Epoch.of_int (Epoch.to_int s)));
  Alcotest.(check string) "pp" "7@41" (Fmt.str "%a" Epoch.pp s)

let test_epoch_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative slot" true
    (raises (fun () -> Epoch.make ~slot:(-1) ~epoch:0));
  Alcotest.(check bool) "slot too large" true
    (raises (fun () -> Epoch.make ~slot:Epoch.max_slots ~epoch:0));
  Alcotest.(check bool) "negative epoch" true
    (raises (fun () -> Epoch.make ~slot:0 ~epoch:(-1)));
  Alcotest.(check bool) "epoch overflow on next" true
    (raises (fun () -> Epoch.next (Epoch.make ~slot:0 ~epoch:Epoch.max_epoch)));
  Alcotest.(check bool) "negative word" true
    (raises (fun () -> Epoch.of_int (-5)))

let prop_epoch_roundtrip =
  QCheck2.Test.make ~name:"epoch pack/unpack roundtrips" ~count:500
    QCheck2.Gen.(
      pair (int_range 0 (Epoch.max_slots - 1)) (int_range 0 1_000_000))
    (fun (slot, epoch) ->
      let s = Epoch.make ~slot ~epoch in
      Epoch.slot s = slot
      && Epoch.epoch s = epoch
      && Epoch.equal s (Epoch.of_int (Epoch.to_int s))
      && Epoch.epoch (Epoch.next s) = epoch + 1)

(* ------------------------------------------------------- kill plan *)

let test_kill_plan_deterministic () =
  let p1 = Fault.service_kill_plan ~seed:11 ~kill_every:3 () in
  let p2 = Fault.service_kill_plan ~seed:11 ~kill_every:3 () in
  for r = 0 to 199 do
    for i = 0 to 3 do
      Alcotest.(check (option int))
        (Fmt.str "round %d incarnation %d" r i)
        (p1 ~round:r ~incarnation:i)
        (p2 ~round:r ~incarnation:i)
    done
  done

let test_kill_plan_caps_incarnations () =
  let p =
    Fault.service_kill_plan ~seed:3 ~kill_every:1 ~max_incarnations:2 ()
  in
  for r = 0 to 99 do
    Alcotest.(check (option int))
      (Fmt.str "incarnation 2 spared (round %d)" r)
      None
      (p ~round:r ~incarnation:2)
  done

let test_kill_plan_rate_and_range () =
  let p = Fault.service_kill_plan ~seed:7 ~kill_every:4 ~max_point:16 () in
  let hits = ref 0 in
  for r = 0 to 999 do
    match p ~round:r ~incarnation:0 with
    | None -> ()
    | Some pt ->
      incr hits;
      Alcotest.(check bool) "point in range" true (pt >= 0 && pt < 16)
  done;
  (* roughly one in four; allow a generous band *)
  Alcotest.(check bool)
    (Fmt.str "hit rate plausible (%d/1000)" !hits)
    true
    (!hits > 100 && !hits < 450)

let test_kill_plan_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "kill_every 0" true
    (raises (fun () -> Fault.service_kill_plan ~seed:0 ~kill_every:0 ()));
  Alcotest.(check bool) "max_point 0" true
    (raises (fun () ->
         Fault.service_kill_plan ~seed:0 ~kill_every:1 ~max_point:0 ()));
  Alcotest.(check bool) "negative incarnation cap" true
    (raises (fun () ->
         Fault.service_kill_plan ~seed:0 ~kill_every:1 ~max_incarnations:(-1)
           ()))

(* -------------------------------------------------- pool supervision *)

let test_pool_quiet () =
  (* the bodies run on four domains and Alcotest is not domain-safe, so
     each slot only records what it saw; the checks run after [run] *)
  let ran = Array.make 4 0 and incarnations = Array.make 4 (-1) in
  let report =
    Supervisor.Pool.run ~workers:4 (fun ~slot ~incarnation ->
        incarnations.(slot) <- incarnation;
        ran.(slot) <- ran.(slot) + 1)
  in
  Alcotest.(check (array int)) "first incarnations" [| 0; 0; 0; 0 |]
    incarnations;
  Alcotest.(check (array int)) "every slot ran once" [| 1; 1; 1; 1 |] ran;
  Alcotest.(check (array int)) "no respawns" [| 0; 0; 0; 0 |] report.respawns;
  Alcotest.(check (list int)) "nobody gave up" [] report.gave_up

let test_pool_respawns_until_success () =
  (* slot 0 crashes twice then succeeds; the on_crash hook sees each
     death in incarnation order *)
  let crashes_seen = Arena.Intake.create () in
  let report =
    Supervisor.Pool.run ~workers:2 ~max_respawns:3
      ~on_crash:(fun ~slot ~incarnation _ ->
        Arena.Intake.push crashes_seen (slot, incarnation))
      (fun ~slot ~incarnation ->
        if slot = 0 && incarnation < 2 then failwith "boom")
  in
  Alcotest.(check int) "slot 0 respawned twice" 2 report.respawns.(0);
  Alcotest.(check int) "slot 1 quiet" 0 report.respawns.(1);
  Alcotest.(check (list int)) "nobody gave up" [] report.gave_up;
  Alcotest.(check (list (pair int int)))
    "crashes in incarnation order"
    [ (0, 0); (0, 1) ]
    (Arena.Intake.drain crashes_seen)

let test_pool_gives_up () =
  let report =
    Supervisor.Pool.run ~workers:1 ~max_respawns:1 (fun ~slot:_ ~incarnation:_ ->
        failwith "always")
  in
  Alcotest.(check (list int)) "slot abandoned" [ 0 ] report.gave_up;
  Alcotest.(check int) "breaker allowed 1 respawn" 1 report.respawns.(0);
  Alcotest.(check int) "both incarnations recorded" 2
    (List.length report.crashes)

let test_pool_uncharged_crashes () =
  (* crashes the [charge] predicate declines never trip the breaker,
     however many there are; a charged one still does *)
  let report =
    Supervisor.Pool.run ~workers:1 ~max_respawns:1
      ~charge:(function Failure m -> m <> "planned" | _ -> true)
      (fun ~slot:_ ~incarnation ->
        if incarnation < 5 then failwith "planned"
        else if incarnation < 7 then failwith "unplanned")
  in
  Alcotest.(check (list int)) "breaker trips on the second charged crash"
    [ 0 ] report.gave_up;
  Alcotest.(check int) "five planned + one charged respawn" 6
    report.respawns.(0)

let test_pool_validation () =
  (try
     ignore (Supervisor.Pool.run ~workers:0 (fun ~slot:_ ~incarnation:_ -> ()));
     Alcotest.fail "workers 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Supervisor.Pool.run ~workers:1 ~max_respawns:(-1)
         (fun ~slot:_ ~incarnation:_ -> ()));
    Alcotest.fail "negative budget accepted"
  with Invalid_argument _ -> ()

(* spin until [pred] holds or [timeout_s] passes; false on timeout, so a
   broken heal fails the test instead of hanging it *)
let wait_until ?(timeout_s = 10.) pred =
  let since = Resil.Clock.now_ns () in
  let rec go () =
    if pred () then true
    else if Resil.Clock.elapsed_s ~since > timeout_s then false
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let pause s = ignore (wait_until ~timeout_s:s (fun () -> false))

let test_pool_single_slot_on_caller () =
  let caller = (Domain.self () :> int) in
  let seen = Arena.Intake.create () in
  let report =
    Supervisor.Pool.run ~workers:1 (fun ~slot:_ ~incarnation ->
        Arena.Intake.push seen (Domain.self () :> int);
        if incarnation < 2 then failwith "again")
  in
  Alcotest.(check (list int)) "every incarnation on the calling domain"
    [ caller; caller; caller ] (Arena.Intake.drain seen);
  Alcotest.(check int) "two respawns" 2 report.respawns.(0)

let test_pool_heals_while_slot0_runs () =
  (* slot 0 keeps running until slot 1's second incarnation shows up: a
     heal that waited for slot 0 would time out here *)
  let healed = Atomic.make false in
  let slot0_saw = Atomic.make false in
  let report =
    Supervisor.Pool.run ~workers:2 (fun ~slot ~incarnation ->
        match slot, incarnation with
        | 0, _ -> Atomic.set slot0_saw (wait_until (fun () -> Atomic.get healed))
        | _, 0 -> failwith "slot 1 dies"
        | _ -> Atomic.set healed true)
  in
  Alcotest.(check bool) "slot 1 healed while slot 0 ran" true
    (Atomic.get slot0_saw);
  Alcotest.(check (array int)) "one respawn, in slot 1" [| 0; 1 |]
    report.respawns

let test_pool_on_crash_before_successor () =
  (* each hook is slow; the successor must still see it finished *)
  let hooked = Array.init 4 (fun _ -> Atomic.make false) in
  let early = Atomic.make 0 in
  let report =
    Supervisor.Pool.run ~workers:2 ~max_respawns:3
      ~on_crash:(fun ~slot:_ ~incarnation _ ->
        pause 0.005;
        Atomic.set hooked.(incarnation) true)
      (fun ~slot ~incarnation ->
        if slot = 1 then begin
          if incarnation > 0 && not (Atomic.get hooked.(incarnation - 1)) then
            Atomic.incr early;
          if incarnation < 3 then failwith "again"
        end)
  in
  Alcotest.(check int) "no successor started before its hook" 0
    (Atomic.get early);
  Alcotest.(check int) "three respawns" 3 report.respawns.(1)

let test_pool_report_order () =
  (* slot 1 crashes and trips first, slot 0 afterwards: the report keeps
     arrival and trip order across slots, not slot order *)
  let slot1_done = Atomic.make false in
  let report =
    Supervisor.Pool.run ~workers:2 ~max_respawns:1
      ~on_crash:(fun ~slot ~incarnation _ ->
        if slot = 1 && incarnation = 1 then Atomic.set slot1_done true)
      (fun ~slot ~incarnation ->
        if slot = 0 && incarnation = 0 then begin
          if not (wait_until (fun () -> Atomic.get slot1_done)) then
            Alcotest.fail "slot 1 never tripped";
          pause 0.05
        end;
        failwith (Fmt.str "%d.%d" slot incarnation))
  in
  Alcotest.(check (list (pair int int)))
    "crashes in arrival order"
    [ 1, 0; 1, 1; 0, 0; 0, 1 ]
    (List.map (fun (s, i, _) -> s, i) report.crashes);
  Alcotest.(check (list int)) "gave_up in trip order" [ 1; 0 ] report.gave_up

let test_pool_on_crash_raise_joins () =
  (* a raising hook on the calling slot ends [run], but only after the
     spawned slots have finished *)
  let finished = Atomic.make 0 in
  (match
     Supervisor.Pool.run ~workers:3
       ~on_crash:(fun ~slot:_ ~incarnation:_ _ -> raise Exit)
       (fun ~slot ~incarnation:_ ->
         if slot = 0 then failwith "slot 0 dies"
         else begin
           pause 0.05;
           Atomic.incr finished
         end)
   with
  | _ -> Alcotest.fail "on_crash's exception was swallowed"
  | exception Exit -> ());
  Alcotest.(check int) "both spawned slots joined" 2 (Atomic.get finished);
  (* the same from a spawned slot: its exception leaves [run] after the
     caller's slot and the other spawned slot are done *)
  Atomic.set finished 0;
  match
    Supervisor.Pool.run ~workers:3
      ~on_crash:(fun ~slot:_ ~incarnation:_ _ -> raise Exit)
      (fun ~slot ~incarnation:_ ->
        if slot = 1 then failwith "slot 1 dies"
        else begin
          pause 0.05;
          Atomic.incr finished
        end)
  with
  | _ -> Alcotest.fail "on_crash's exception was swallowed"
  | exception Exit ->
    Alcotest.(check int) "slots 0 and 2 finished" 2 (Atomic.get finished)

(* ----------------------------------------------------- service: quiet *)

let test_serve_quiet () =
  let (module P) = mk_swap_ksa () in
  let module S = Arena.Service.Make (P) in
  let s =
    S.serve ~clients:12 ~rounds:100 ~workers:2 ~seed:42 ~paranoid:true ()
  in
  Alcotest.(check int) "all rounds decided" 100 s.S.rounds_done;
  Alcotest.(check bool) "decisions delivered" true (s.S.decisions >= 100);
  Alcotest.(check int) "no violations" 0 s.S.violation_count;
  Alcotest.(check int) "no kills" 0 s.S.kills;
  Alcotest.(check int) "no residue" 0 s.S.residue;
  Alcotest.(check int) "quiet stays at k" P.k s.S.max_bound;
  (match s.S.conservation with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("conservation: " ^ e));
  Alcotest.(check bool) "summary ok" true (S.ok s);
  Alcotest.(check bool) "latency recorded" true
    (Arena.Service.Hist.count s.S.decide_hist = s.S.decisions)

let test_serve_validation () =
  let (module P) = mk_swap_ksa () in
  let module S = Arena.Service.Make (P) in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "clients 0" true
    (raises (fun () -> S.serve ~clients:0 ~rounds:1 ~workers:1 ()));
  Alcotest.(check bool) "workers 0" true
    (raises (fun () -> S.serve ~clients:1 ~rounds:1 ~workers:0 ()));
  Alcotest.(check bool) "negative rounds" true
    (raises (fun () -> S.serve ~clients:1 ~rounds:(-1) ~workers:1 ()));
  Alcotest.(check bool) "arenas 0" true
    (raises (fun () -> S.serve ~clients:1 ~rounds:1 ~workers:1 ~arenas:0 ()))

let test_serve_records_first_violations () =
  (* a protocol deciding a value nobody proposed breaks validity in every
     round; however many workers report at once, exactly the first 32
     violations are recorded *)
  let (module P) = Util.invalid_protocol () in
  let module S = Arena.Service.Make (P) in
  let input ~client:_ ~served:_ = 0 in
  List.iter
    (fun (workers, rounds) ->
      let s = S.serve ~clients:8 ~rounds ~workers ~seed:3 ~input () in
      let what = Fmt.str "%d workers, %d rounds" workers rounds in
      Alcotest.(check bool) (what ^ ": violations found") true
        (s.S.violation_count >= rounds);
      Alcotest.(check int) (what ^ ": first 32 recorded")
        (min s.S.violation_count 32)
        (List.length s.S.violations))
    [ 1, 5; 2, 5; 2, 16; 2, 200; 4, 200 ]

(* ------------------------------------- service: admission determinism *)

let test_admission_deterministic () =
  let (module P) = mk_swap_ksa () in
  let module S = Arena.Service.Make (P) in
  let digest seed =
    (S.serve ~clients:10 ~rounds:60 ~workers:1 ~seed ()).S.digest
  in
  Alcotest.(check int) "same seed, same admission schedule" (digest 7)
    (digest 7);
  Alcotest.(check bool) "different seed diverges" true
    (digest 7 <> digest 8);
  (* the default inputs see every bit of the seed, not only its parity *)
  let zero_think seed =
    (S.serve ~clients:10 ~rounds:60 ~workers:1 ~seed ~max_think:0 ()).S.digest
  in
  Alcotest.(check bool) "zero-think seeds 8 and 10 diverge" true
    (zero_think 8 <> zero_think 10)

let test_crowd_admission_pinned () =
  (* many more clients than one admit takes, so most wait in the
     admitter's backlog; one worker admits them in arrival order, and
     the digest pins that order *)
  let (module P) = mk_swap_ksa () in
  let module S = Arena.Service.Make (P) in
  let input ~client ~served = (client + served) mod P.num_inputs in
  let s =
    S.serve ~clients:1000 ~rounds:2000 ~workers:1 ~max_think:0 ~input ()
  in
  Alcotest.(check bool) "summary ok" true (S.ok s);
  Alcotest.(check int) "admission digest" 2585870632185310449 s.S.digest

let prop_admission_deterministic_under_chaos =
  (* single worker + seeded kill-and-heal: two runs agree on the whole
     admission schedule (digest) and on every summary counter that is
     schedule-derived *)
  QCheck2.Test.make ~name:"single-worker serve is deterministic" ~count:10
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 2 6))
    (fun (seed, kill_every) ->
      let (module P) = mk_swap_ksa () in
      let module S = Arena.Service.Make (P) in
      let run () =
        let kill = Fault.service_kill_plan ~seed ~kill_every () in
        S.serve ~clients:8 ~rounds:40 ~workers:1 ~seed ~kill ~paranoid:true
          ()
      in
      let a = run () and b = run () in
      a.S.digest = b.S.digest
      && a.S.kills = b.S.kills
      && a.S.escalated = b.S.escalated
      && a.S.decisions = b.S.decisions)

(* ---------------------------------- service: recycling and no residue *)

let prop_recycling_never_resurrects =
  (* seeded kill-and-heal schedules: every recycle hands out a clean
     arena (paranoid reset check), stamps never go stale, and the
     degraded contract holds — zero violations of any kind *)
  QCheck2.Test.make ~name:"epoch recycling leaves no residue" ~count:12
    QCheck2.Gen.(
      triple (int_range 0 9999) (int_range 1 5) (int_range 1 3))
    (fun (seed, kill_every, workers) ->
      let (module P) = mk_swap_ksa () in
      let module S = Arena.Service.Make (P) in
      let kill = Fault.service_kill_plan ~seed ~kill_every () in
      let s =
        S.serve ~clients:9 ~rounds:80 ~workers ~seed ~arenas:3 ~kill
          ~paranoid:true ()
      in
      s.S.residue = 0 && s.S.violation_count = 0 && s.S.rounds_done = 80
      && s.S.gave_up = [])

let test_planned_kills_never_trip_breaker () =
  (* a plan may kill every round once per killable incarnation (two by
     default), so kills can outnumber rounds, and any breaker budget
     sized from the round count; planned kills must never trip the
     breaker.  With kill points below 4 nearly every incarnation dies. *)
  let (module P) = mk_swap_ksa () in
  let module S = Arena.Service.Make (P) in
  List.iter
    (fun max_point ->
      let kill =
        Fault.service_kill_plan ~seed:1 ~kill_every:1 ~max_point ()
      in
      let s =
        S.serve ~clients:9 ~rounds:80 ~workers:1 ~seed:1 ~arenas:3 ~kill
          ~paranoid:true ()
      in
      let what fmt = Fmt.str ("max_point %d: " ^^ fmt) max_point in
      if max_point < 32 then
        Alcotest.(check bool)
          (what "kills (%d) outnumber rounds + 4" s.S.kills)
          true
          (s.S.kills > 80 + 4);
      Alcotest.(check (list int)) (what "no slot abandoned") [] s.S.gave_up;
      Alcotest.(check int) (what "every kill respawned") s.S.kills
        s.S.respawns;
      Alcotest.(check int) (what "target met") 80 s.S.rounds_done;
      Alcotest.(check bool) (what "summary ok") true (S.ok s))
    [ 32; 4 ]

(* --------------------------------- service: work-stealing conservation *)

let test_stealing_conserves_clients () =
  let (module P) = mk_swap_ksa () in
  let module S = Arena.Service.Make (P) in
  let kill = Fault.service_kill_plan ~seed:5 ~kill_every:3 () in
  let s =
    S.serve ~clients:24 ~rounds:300 ~workers:4 ~seed:5 ~kill ~paranoid:true
      ()
  in
  Alcotest.(check int) "target met" 300 s.S.rounds_done;
  (match s.S.conservation with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("conservation: " ^ e));
  Alcotest.(check int) "no violations" 0 s.S.violation_count;
  Alcotest.(check bool) "chaos actually fired" true (s.S.kills > 0);
  Alcotest.(check bool) "kills healed by adoption" true
    (s.S.adoptions >= s.S.kills - List.length s.S.gave_up);
  Alcotest.(check bool) "every decision delivered once" true
    (Arena.Service.Hist.count s.S.decide_hist = s.S.decisions)

let test_backlog_census () =
  (* 300 clients, at most 2 * P.n of them in rounds: with zero think
     time the run ends with the rest waiting in the admitter's backlog,
     and the census must find each exactly once *)
  let (module P) = mk_swap_ksa () in
  let module S = Arena.Service.Make (P) in
  List.iter
    (fun workers ->
      let s =
        S.serve ~clients:300 ~rounds:150 ~workers ~seed:workers ~arenas:2
          ~max_think:0 ()
      in
      (match s.S.conservation with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Fmt.str "%d workers: %s" workers e));
      Alcotest.(check bool) (Fmt.str "ok with %d workers" workers) true
        (S.ok s))
    [ 1; 2; 3 ]

(* The one-worker kill path as the benchmark runs it (Algorithm 1 at
   n = 4, k = 1, m = 2, a kill in one round of 8), pinned: the driving
   loop's bookkeeping may change, the admission schedule and every
   kill-and-heal count may not. *)
let test_single_worker_kill_run_pinned () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module S = Arena.Service.Make (P) in
  let kill = Fault.service_kill_plan ~seed:42 ~kill_every:8 () in
  let s =
    S.serve ~clients:16 ~rounds:2_000 ~workers:1 ~seed:42 ~kill ~paranoid:true
      ()
  in
  Alcotest.(check bool) "summary ok" true (S.ok s);
  Alcotest.(check int) "admission digest" 2502101626782444351 s.S.digest;
  Alcotest.(check int) "kills" 243 s.S.kills;
  Alcotest.(check int) "adoptions" 243 s.S.adoptions;
  Alcotest.(check int) "respawns" 243 s.S.respawns;
  Alcotest.(check int) "escalations" 235 s.S.escalated;
  Alcotest.(check int) "decisions" 7_499 s.S.decisions

(* ------------------------------------ service: degraded-bound contract *)

let test_escalation_matches_degraded_bound () =
  let (module P) = mk_swap_ksa () in
  let module S = Arena.Service.Make (P) in
  (* kill every round's incarnation 0 after a few ops; incarnation 1 is
     spared, so every round is adopted exactly once and at most one
     crashed incarnation touches memory per round — the service must
     check (and satisfy) exactly the supervisor's degraded bound
     [k + c] with [c <= 1], never a stricter or looser one *)
  let kill ~round:_ ~incarnation =
    if incarnation = 0 then Some 4 else None
  in
  let s =
    S.serve ~clients:9 ~rounds:60 ~workers:2 ~seed:13 ~kill ~paranoid:true ()
  in
  Alcotest.(check int) "target met" 60 s.S.rounds_done;
  Alcotest.(check int) "no violations at the degraded bound" 0
    s.S.violation_count;
  Alcotest.(check int) "every round killed once" 60 s.S.kills;
  Alcotest.(check int) "every round adopted" 60 s.S.adoptions;
  Alcotest.(check bool) "escalations recorded" true (s.S.escalated > 0);
  Alcotest.(check bool)
    (Fmt.str "bound within k + 1 (got %d)" s.S.max_bound)
    true
    (s.S.max_bound > P.k && s.S.max_bound <= P.k + 1);
  (* the bound means what the shared agreement rule says: a snapshot of
     this protocol with two distinct decisions (p0 and p1 each run solo
     on their own inputs) passes at the escalated bound k + 1 and fails
     at k *)
  let module E = Shmem.Exec.Make (P) in
  let module Pr = Prop.Make (P) in
  let inputs = Array.init P.n (fun pid -> pid mod 2) in
  let states =
    Array.init P.n (fun pid ->
        if pid >= 2 then P.init ~pid ~input:inputs.(pid)
        else
          match E.run_solo ~pid ~max_steps:10_000 (E.initial ~inputs) with
          | Some (c, _) -> c.E.states.(pid)
          | None -> Alcotest.failf "p%d solo run stuck" pid)
  in
  Alcotest.(check (list int)) "two distinct decisions" [ 0; 1 ]
    (Prop.decided_values P.decision states);
  Alcotest.(check (option string)) "accepted at the escalated bound" None
    (Pr.check_agreement ~bound:s.S.max_bound states);
  Alcotest.(check bool) "rejected at k" true
    (Option.is_some (Pr.check_agreement ~bound:P.k states))

(* --------------------------------------------------------- loadgen *)

let test_loadgen_profiles () =
  Alcotest.(check bool) "steady parses" true
    (match Arena.Loadgen.profile_of_string "steady" with
    | Ok Arena.Loadgen.Steady -> true
    | _ -> false);
  Alcotest.(check bool) "zero-think parses" true
    (match Arena.Loadgen.profile_of_string "zero-think" with
    | Ok Arena.Loadgen.Zero_think -> true
    | _ -> false);
  Alcotest.(check bool) "bursty parses" true
    (match Arena.Loadgen.profile_of_string "bursty" with
    | Ok Arena.Loadgen.Bursty -> true
    | _ -> false);
  Alcotest.(check bool) "junk rejected" true
    (match Arena.Loadgen.profile_of_string "nope" with
    | Error _ -> true
    | Ok _ -> false)

let test_loadgen_closed_loop () =
  let r =
    Arena.Loadgen.run ~protocol:(mk_swap_ksa ()) ~clients:12 ~rounds:120
      ~workers:2 ~seed:21 ~profile:Arena.Loadgen.Zero_think ()
  in
  Alcotest.(check int) "rounds met" 120 r.Arena.Loadgen.rounds;
  Alcotest.(check bool) "ok" true r.Arena.Loadgen.ok;
  Alcotest.(check bool) "throughput positive" true
    (r.Arena.Loadgen.decisions_per_sec > 0.);
  Alcotest.(check bool) "p99 >= p50" true
    (r.Arena.Loadgen.decide_p99_us >= r.Arena.Loadgen.decide_p50_us);
  (* render exercises every field *)
  Alcotest.(check bool) "report renders" true
    (String.length (Fmt.str "%a" Arena.Loadgen.pp r) > 0)

let test_loadgen_chaos_soak () =
  let r =
    Arena.Loadgen.run ~protocol:(mk_swap_ksa ()) ~clients:16 ~rounds:200
      ~workers:3 ~seed:33 ~kill_every:4 ~paranoid:true ()
  in
  Alcotest.(check bool) "ok under chaos" true r.Arena.Loadgen.ok;
  Alcotest.(check bool) "kills fired" true (r.Arena.Loadgen.kills > 0);
  Alcotest.(check int) "no violations" 0 r.Arena.Loadgen.violation_count;
  Alcotest.(check (option string)) "conservation holds" None
    r.Arena.Loadgen.conservation_error

(* ------------------------------------------------- service histograms *)

let test_hist_quantiles () =
  let h = Arena.Service.Hist.create () in
  Alcotest.(check (float 0.)) "empty quantile" 0.
    (Arena.Service.Hist.quantile h 0.99);
  for ns = 1 to 1000 do
    Arena.Service.Hist.observe h ns
  done;
  Alcotest.(check int) "count" 1000 (Arena.Service.Hist.count h);
  Alcotest.(check int) "max" 1000 (Arena.Service.Hist.max_ns h);
  let p50 = Arena.Service.Hist.quantile h 0.5 in
  let p99 = Arena.Service.Hist.quantile h 0.99 in
  Alcotest.(check bool) "monotone" true (p99 >= p50);
  Alcotest.(check bool) "p99 within max" true (p99 <= 1000.);
  Alcotest.(check bool)
    (Fmt.str "p50 near the middle (got %.0f)" p50)
    true
    (p50 >= 400. && p50 <= 1023.);
  (try
     ignore (Arena.Service.Hist.quantile h 1.5);
     Alcotest.fail "q > 1 accepted"
   with Invalid_argument _ -> ())

(* the bucket loop [Service.Hist.bucket_of] replaced: one shift per bit *)
let loop_bucket ns =
  if ns <= 1 then 0
  else begin
    let b = ref 0 and v = ref ns in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    min !b 62
  end

let test_hist_bucket_of_matches_loop () =
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Fmt.str "bucket_of %d" v)
        (loop_bucket v)
        (Arena.Service.Hist.bucket_of v))
    (Util.log2_probes ())

let () =
  Alcotest.run "arena"
    [ ( "intake",
        [ Alcotest.test_case "drain is FIFO" `Quick test_intake_fifo
        ; Alcotest.test_case "pop is LIFO" `Quick test_intake_pop_lifo
        ; Alcotest.test_case "concurrent pushes conserve" `Quick
            test_intake_concurrent_conservation
        ] )
    ; ( "epoch",
        [ Alcotest.test_case "pack/unpack" `Quick test_epoch_pack_unpack
        ; Alcotest.test_case "validation" `Quick test_epoch_validation
        ; QCheck_alcotest.to_alcotest prop_epoch_roundtrip
        ] )
    ; ( "kill-plan",
        [ Alcotest.test_case "deterministic" `Quick
            test_kill_plan_deterministic
        ; Alcotest.test_case "incarnation cap" `Quick
            test_kill_plan_caps_incarnations
        ; Alcotest.test_case "rate and range" `Quick
            test_kill_plan_rate_and_range
        ; Alcotest.test_case "validation" `Quick test_kill_plan_validation
        ] )
    ; ( "pool",
        [ Alcotest.test_case "quiet run" `Quick test_pool_quiet
        ; Alcotest.test_case "respawns until success" `Quick
            test_pool_respawns_until_success
        ; Alcotest.test_case "breaker gives up" `Quick test_pool_gives_up
        ; Alcotest.test_case "uncharged crashes" `Quick
            test_pool_uncharged_crashes
        ; Alcotest.test_case "validation" `Quick test_pool_validation
        ; Alcotest.test_case "one slot runs on the caller" `Quick
            test_pool_single_slot_on_caller
        ; Alcotest.test_case "heals while slot 0 runs" `Quick
            test_pool_heals_while_slot0_runs
        ; Alcotest.test_case "on_crash before successor" `Quick
            test_pool_on_crash_before_successor
        ; Alcotest.test_case "report order across slots" `Quick
            test_pool_report_order
        ; Alcotest.test_case "raising on_crash joins all" `Quick
            test_pool_on_crash_raise_joins
        ] )
    ; ( "service",
        [ Alcotest.test_case "quiet serve" `Quick test_serve_quiet
        ; Alcotest.test_case "validation" `Quick test_serve_validation
        ; Alcotest.test_case "first 32 violations recorded" `Quick
            test_serve_records_first_violations
        ; Alcotest.test_case "admission deterministic" `Quick
            test_admission_deterministic
        ; QCheck_alcotest.to_alcotest
            prop_admission_deterministic_under_chaos
        ; Alcotest.test_case "crowd admission pinned" `Quick
            test_crowd_admission_pinned
        ; QCheck_alcotest.to_alcotest prop_recycling_never_resurrects
        ; Alcotest.test_case "planned kills never trip the breaker" `Quick
            test_planned_kills_never_trip_breaker
        ; Alcotest.test_case "backlog census" `Quick test_backlog_census
        ; Alcotest.test_case "work-stealing conserves clients" `Quick
            test_stealing_conserves_clients
        ; Alcotest.test_case "escalation matches degraded bound" `Quick
            test_escalation_matches_degraded_bound
        ; Alcotest.test_case "one-worker kill run pinned" `Quick
            test_single_worker_kill_run_pinned
        ] )
    ; ( "loadgen",
        [ Alcotest.test_case "profiles" `Quick test_loadgen_profiles
        ; Alcotest.test_case "closed loop" `Quick test_loadgen_closed_loop
        ; Alcotest.test_case "chaos soak" `Quick test_loadgen_chaos_soak
        ] )
    ; ( "hist",
        [ Alcotest.test_case "quantiles" `Quick test_hist_quantiles
        ; Alcotest.test_case "bucket_of = bit loop" `Quick
            test_hist_bucket_of_matches_loop
        ] )
    ]
