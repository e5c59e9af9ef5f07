(* Tests for the fault-injection subsystem (lib/fault): plan validation,
   the ddmin shrinker, seeded campaign reproducibility, and the negative
   tests — every manifested object fault must be detected (by the §4
   properties, the protocol itself, or the sequential-replay atomicity
   check) and shrunk to a 1-minimal schedule — and the final-snapshot
   agreement and validity findings, classed as properties. *)

let mk_swap_ksa () = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2

(* ---------- plan validation ---------- *)

let test_validate () =
  let ok plan =
    match Fault.validate ~n:3 ~num_objects:2 plan with
    | Ok () -> ()
    | Error e -> Alcotest.failf "rejected a valid plan: %s" e
  in
  let bad reason plan =
    match Fault.validate ~n:3 ~num_objects:2 plan with
    | Ok () -> Alcotest.failf "accepted %s" reason
    | Error _ -> ()
  in
  ok [];
  ok [ Fault.Crash (0, 0); Fault.Stall (2, 3, 1) ];
  ok [ Fault.Torn_swap 0; Fault.Lost_update 1 ];
  ok [ Fault.Stale_read (1, 1) ];
  ok [ Fault.Crash (1, 4); Fault.Respawn (1, 2) ];
  bad "a crash of an out-of-range pid" [ Fault.Crash (3, 0) ];
  bad "a crash at negative time" [ Fault.Crash (0, -1) ];
  bad "a stall of an out-of-range pid" [ Fault.Stall (-1, 0, 1) ];
  bad "a zero-duration stall" [ Fault.Stall (0, 0, 0) ];
  bad "a torn swap on an out-of-range object" [ Fault.Torn_swap 2 ];
  bad "a zero-lag stale read" [ Fault.Stale_read (0, 0) ];
  bad "two object faults on one object"
    [ Fault.Torn_swap 0; Fault.Lost_update 0 ];
  bad "a respawn of an out-of-range pid" [ Fault.Respawn (3, 1) ];
  bad "a zero-delay respawn" [ Fault.Respawn (0, 0) ];
  bad "two respawns of one pid" [ Fault.Respawn (0, 1); Fault.Respawn (0, 2) ]

let test_kinds () =
  List.iter
    (fun k ->
      match Fault.kind_of_string (Fault.kind_to_string k) with
      | Ok k' ->
        Alcotest.(check bool)
          (Fault.kind_to_string k ^ " round-trips")
          true (k = k')
      | Error e -> Alcotest.fail e)
    Fault.all_kinds;
  (match Fault.kinds_of_string "all" with
  | Ok ks -> Alcotest.(check bool) "all group" true (ks = Fault.all_kinds)
  | Error e -> Alcotest.fail e);
  (match Fault.kinds_of_string "benign" with
  | Ok ks -> Alcotest.(check bool) "benign group" true (ks = Fault.benign_kinds)
  | Error e -> Alcotest.fail e);
  (match Fault.kinds_of_string "crash,torn" with
  | Ok ks ->
    Alcotest.(check bool) "comma list" true (ks = [ Fault.Crash_k; Fault.Torn_k ])
  | Error e -> Alcotest.fail e);
  (match Fault.kinds_of_string "recovery" with
  | Ok ks ->
    Alcotest.(check bool) "recovery group" true (ks = Fault.recovery_kinds)
  | Error e -> Alcotest.fail e);
  (match Fault.kind_of_string "respawn" with
  | Ok k -> Alcotest.(check bool) "respawn parses" true (k = Fault.Respawn_k)
  | Error e -> Alcotest.fail e);
  (* seed stability: historical 'all' campaigns must not silently start
     drawing kill-and-heal plans *)
  Alcotest.(check bool) "all excludes respawn" false
    (List.mem Fault.Respawn_k Fault.all_kinds);
  match Fault.kinds_of_string "crash,bogus" with
  | Ok _ -> Alcotest.fail "accepted an unknown kind"
  | Error _ -> ()

let test_gen_plan () =
  (* deterministic in the rng; always validates; object faults hit
     distinct objects *)
  let gen seed =
    Fault.gen_plan
      ~rng:(Random.State.make [| seed |])
      ~n:4 ~num_objects:3 Fault.all_kinds
  in
  for seed = 0 to 49 do
    let plan = gen seed in
    Alcotest.(check bool)
      (Fmt.str "seed %d: same rng, same plan" seed)
      true
      (plan = gen seed);
    match Fault.validate ~n:4 ~num_objects:3 plan with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: generated invalid plan: %s" seed e
  done

let test_gen_plan_recovery_pairs () =
  (* kill-and-heal generation: plans validate and every respawn heals an
     actual crash of the same pid (either an earlier draw or the fresh
     kill drawn alongside it) *)
  let respawned = ref 0 in
  for seed = 0 to 99 do
    let plan =
      Fault.gen_plan
        ~rng:(Random.State.make [| seed |])
        ~n:4 ~num_objects:3 Fault.recovery_kinds
    in
    (match Fault.validate ~n:4 ~num_objects:3 plan with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: invalid recovery plan: %s" seed e);
    List.iter
      (fun (p, d) ->
        incr respawned;
        Alcotest.(check bool)
          (Fmt.str "seed %d: respawn(p%d+%d) heals a crash" seed p d)
          true
          (List.exists
             (function Fault.Crash (q, _) -> q = p | _ -> false)
             plan))
      (Fault.respawns plan)
  done;
  Alcotest.(check bool) "the generator does draw respawns" true
    (!respawned > 0)

(* ---------- ddmin ---------- *)

let test_ddmin () =
  (* a subset-membership oracle: the minimal violating sublist is exactly
     the target subset, in input order *)
  let input = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let needs targets l = List.for_all (fun x -> List.mem x l) targets in
  List.iter
    (fun targets ->
      let got = Fault.ddmin ~violates:(needs targets) input in
      Alcotest.(check (list int))
        (Fmt.str "targets %a" Fmt.(Dump.list int) targets)
        (List.filter (fun x -> List.mem x targets) input)
        got)
    [ [ 1 ]; [ 8 ]; [ 1; 8 ]; [ 3; 4; 5 ]; [ 2; 7 ]; input; [] ];
  (* 1-minimality holds for a non-monotone oracle too: length >= 3 *)
  let violates l = List.length l >= 3 in
  let got = Fault.ddmin ~violates input in
  Alcotest.(check int) "non-monotone oracle shrunk to 3" 3 (List.length got);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) got in
      Alcotest.(check bool)
        (Fmt.str "dropping element %d breaks it" i)
        false (violates without))
    got;
  (* the input itself must violate *)
  match Fault.ddmin ~violates:(fun _ -> false) input with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ddmin accepted a non-violating input"

let prop_ddmin_one_minimal =
  QCheck2.Test.make ~name:"ddmin results are 1-minimal" ~count:200
    QCheck2.Gen.(
      pair (list_size (int_range 1 20) (int_range 0 9)) (int_range 1 5))
    (fun (input, threshold) ->
      (* oracle: at least [threshold] even elements *)
      let violates l =
        List.length (List.filter (fun x -> x mod 2 = 0) l) >= threshold
      in
      QCheck2.assume (violates input);
      let got = Fault.ddmin ~violates input in
      violates got
      && List.for_all
           (fun i -> not (violates (List.filteri (fun j _ -> j <> i) got)))
           (List.init (List.length got) Fun.id))

(* ---------- simulator runs and detection ---------- *)

let test_benign_run_clean () =
  (* crashes and stalls are model adversity: no fault ever "fires", the
     trace stays atomic, survivors decide *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  let plan = [ Fault.Crash (2, 4); Fault.Stall (1, 0, 3) ] in
  (* bursty, not round-robin: strict alternation between the two survivors
     can livelock an obstruction-free algorithm forever *)
  let rng = Random.State.make [| 17 |] in
  let r =
    F.run plan
      ~sched:(F.E.bursty rng ~burst:20)
      ~max_steps:10_000 ~inputs:[| 0; 1; 1 |]
  in
  Alcotest.(check int) "nothing fired" 0 (F.fired_total r);
  (match F.check_atomic r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "benign trace not atomic: %s" e);
  Alcotest.(check bool) "no violation" true
    (F.detect ~inputs:[| 0; 1; 1 |] r = None);
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Fmt.str "survivor p%d decided" pid)
        true
        (F.E.decision r.F.final pid <> None))
    [ 0; 1 ]

let test_run_schedule_reproducible () =
  (* the shrinker's oracle: same plan + same schedule, same everything *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  let plan = [ Fault.Torn_swap 0; Fault.Stale_read (1, 1) ] in
  let inputs = [| 1; 0; 1 |] in
  let schedule = [ 0; 1; 2; 1; 0; 2; 2; 1; 0; 0; 1; 2; 0; 1; 2 ] in
  let r1 = F.run_schedule plan ~inputs schedule in
  let r2 = F.run_schedule plan ~inputs schedule in
  Alcotest.(check bool) "same schedule out" true
    (F.schedule_of r1 = F.schedule_of r2);
  Alcotest.(check int) "same firings" (F.fired_total r1) (F.fired_total r2);
  Alcotest.(check bool) "same verdict" true
    (F.detect ~inputs r1 = F.detect ~inputs r2)

let test_benign_campaign_zero_violations () =
  (* crash/stall-only campaigns must be perfectly clean: any violation is a
     real bug in Algorithm 1 or the engine *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  let s = F.campaign ~seed:7 ~runs:40 ~kinds:Fault.benign_kinds () in
  Alcotest.(check int) "40 runs" 40 s.F.runs;
  Alcotest.(check int) "no object fault ever fires" 0 s.F.fired;
  Alcotest.(check int) "no violations" 0 (List.length s.F.violations);
  Alcotest.(check int) "no detections" 0 (List.length s.F.detections);
  Alcotest.(check int) "no missed" 0 s.F.missed

let test_object_faults_detected_each_kind () =
  (* the negative tests, kind by kind: whenever a torn swap / lost update /
     stale read manifests on Algorithm 1, something downstream must flag
     it, and the shrinker must deliver a schedule for every detection *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  List.iter
    (fun (kind, burst) ->
      let name = Fault.kind_to_string kind in
      (* small bursts force interleaving (a torn swap only manifests when a
         foreign access lands inside the tear); the step cap keeps the
         stale-read runs that livelock cheap to shrink *)
      let s =
        F.campaign ~burst ~max_steps:5_000 ~seed:11 ~runs:30 ~kinds:[ kind ] ()
      in
      Alcotest.(check int) (name ^ ": no unexpected violations") 0
        (List.length s.F.violations);
      Alcotest.(check int) (name ^ ": nothing missed") 0 s.F.missed;
      Alcotest.(check bool) (name ^ ": the fault manifested") true
        (s.F.fired > 0);
      Alcotest.(check bool) (name ^ ": and was detected") true
        (s.F.detections <> []);
      List.iter
        (fun (f : F.finding) ->
          match f.F.violation with
          | F.Liveness _ -> Alcotest.failf "%s: liveness recorded as detection" name
          | _ ->
            Alcotest.(check bool)
              (Fmt.str "%s: run %d shrunk" name f.F.run)
              true (f.F.schedule <> None))
        s.F.detections)
    [ Fault.Torn_k, 3; Fault.Lost_k, 8; Fault.Stale_k, 8 ]

let test_detection_schedules_are_minimal () =
  (* replay each shrunk schedule under its plan with pinned inputs: it must
     reproduce a violation of the same class, and dropping any single step
     must not (1-minimality) *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  let inputs = [| 0; 1; 1 |] in
  let s = F.campaign ~inputs ~burst:3 ~seed:23 ~runs:25 ~kinds:[ Fault.Torn_k ] () in
  Alcotest.(check bool) "found detections to audit" true (s.F.detections <> []);
  List.iter
    (fun (f : F.finding) ->
      match f.F.schedule with
      | None -> ()
      | Some schedule ->
        let cls = F.violation_class f.F.violation in
        let reproduces sched =
          let r = F.run_schedule f.F.plan ~inputs sched in
          match F.detect ~inputs r with
          | Some v -> F.violation_class v = cls
          | None -> false
        in
        Alcotest.(check bool)
          (Fmt.str "run %d: schedule reproduces a %s violation" f.F.run cls)
          true (reproduces schedule);
        List.iteri
          (fun i _ ->
            let without = List.filteri (fun j _ -> j <> i) schedule in
            Alcotest.(check bool)
              (Fmt.str "run %d: dropping step %d no longer reproduces" f.F.run
                 i)
              false (reproduces without))
          schedule)
    s.F.detections

let test_monitor_wired_campaign () =
  (* the §4 step relations as declared properties: object-fault campaigns
     stay fully detected (missed = 0) and benign campaigns never trip them *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let props = M.step_props in
  let s = F.campaign ~props ~seed:5 ~runs:25 ~kinds:Fault.all_kinds () in
  Alcotest.(check int) "monitored: no unexpected violations" 0
    (List.length s.F.violations);
  Alcotest.(check int) "monitored: nothing missed" 0 s.F.missed;
  let b = F.campaign ~props ~seed:5 ~runs:25 ~kinds:Fault.benign_kinds () in
  Alcotest.(check int) "benign monitored: clean" 0
    (List.length b.F.violations + b.F.missed)

(* Fault-free runs of protocols that break a safety rule: the final
   snapshot is judged by the shared Prop rules and classed as a property
   finding, [shrink] keeps that class, and a campaign tallies it in
   [prop_detections]. *)
let final_snapshot_finding ~protocol ~inputs ~name () =
  let (module P : Shmem.Protocol.S) = protocol () in
  let module F = Fault.Sim (P) in
  let cls = "prop:" ^ name in
  let r =
    F.run [] ~sched:(F.E.bursty (Random.State.make [| 3 |]) ~burst:4)
      ~max_steps:100 ~inputs
  in
  let v =
    match F.detect ~inputs r with
    | Some (F.Property (n, _) as v) when n = name -> v
    | Some v -> Alcotest.failf "detected %a, not %s" F.pp_violation v name
    | None -> Alcotest.failf "%s violation missed" name
  in
  Alcotest.(check string) "class" cls (F.violation_class v);
  let shrunk = F.shrink [] ~inputs v (F.schedule_of r) in
  (match F.detect ~inputs (F.run_schedule [] ~inputs shrunk) with
  | Some v' -> Alcotest.(check string) "shrunk schedule keeps the class" cls
      (F.violation_class v')
  | None -> Alcotest.fail "shrunk schedule no longer violates");
  let runs = 4 in
  let s = F.campaign ~inputs ~seed:1 ~runs ~kinds:[ Fault.Stall_k ] () in
  Alcotest.(check (list (pair string int))) "prop_detections" [ name, runs ]
    s.F.prop_detections;
  List.iter
    (fun (f : F.finding) ->
      Alcotest.(check string) (Fmt.str "run %d class" f.F.run) cls
        (F.violation_class f.F.violation);
      Alcotest.(check bool) (Fmt.str "run %d shrunk" f.F.run) true
        (f.F.schedule <> None))
    (s.F.detections @ s.F.violations)

let test_campaign_reproducible () =
  (* identical seeds, identical summaries — plans, firings, findings,
     shrunk schedules, everything *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  let go () = F.campaign ~seed:42 ~runs:20 ~kinds:Fault.all_kinds () in
  let s1 = go () and s2 = go () in
  Alcotest.(check bool) "bit-identical summaries" true (s1 = s2);
  (* and a different seed genuinely changes the campaign *)
  let s3 = F.campaign ~seed:43 ~runs:20 ~kinds:Fault.all_kinds () in
  Alcotest.(check bool) "different seed, different campaign" true
    (s1.F.steps <> s3.F.steps || s1.F.fired <> s3.F.fired
    || s1.F.detections <> s3.F.detections)

let test_protocol_can_reject_faulty_responses () =
  (* CAS consensus proves certain responses impossible and raises on them;
     under object faults that is a legitimate detection channel
     ([Protocol_raise]), never an escaping exception *)
  let (module P) = Baselines.Cas_consensus.make ~n:3 ~m:3 in
  let module F = Fault.Sim (P) in
  let s = F.campaign ~seed:3 ~runs:30 ~kinds:[ Fault.Stale_k; Fault.Lost_k ] () in
  Alcotest.(check int) "cas: no unexpected violations" 0
    (List.length s.F.violations);
  Alcotest.(check int) "cas: nothing missed" 0 s.F.missed;
  Alcotest.(check bool) "cas: faults manifested" true (s.F.fired > 0);
  Alcotest.(check bool) "cas: and were detected" true (s.F.detections <> [])

let test_recovery_campaign_clean () =
  (* kill-and-heal on the simulator: revived incarnations re-enter against
     the memory residue their predecessors left, the monitor re-anchors
     across each boundary, and every run stays within the degraded
     agreement bound — zero violations, with actual revivals exercised *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  let s = F.campaign ~seed:13 ~runs:40 ~kinds:Fault.recovery_kinds () in
  Alcotest.(check int) "no violations" 0 (List.length s.F.violations);
  Alcotest.(check int) "no object faults in a recovery campaign" 0 s.F.fired;
  Alcotest.(check bool) "revivals happened" true (s.F.revived > 0);
  (* reproducible like every other campaign *)
  let s' = F.campaign ~seed:13 ~runs:40 ~kinds:Fault.recovery_kinds () in
  Alcotest.(check bool) "seed-reproducible" true (s = s')

let test_recovery_run_revives () =
  (* a single kill-and-heal plan end to end: the crashed pid is revived at
     its window and decides with everyone else *)
  let (module P) = mk_swap_ksa () in
  let module F = Fault.Sim (P) in
  let inputs = [| 0; 1; 1 |] in
  let plan = [ Fault.Crash (1, 2); Fault.Respawn (1, 5) ] in
  let rng = Random.State.make [| 31 |] in
  let r =
    F.run plan ~sched:(F.E.bursty rng ~burst:20) ~max_steps:10_000 ~inputs
  in
  Alcotest.(check bool) "p1 revived" true
    (List.exists (fun (p, _) -> p = 1) r.F.revived);
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Fmt.str "p%d decided" pid)
        true
        (F.E.decision r.F.final pid <> None))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "within the degraded bound" true
    (F.detect ~bound:(P.k + List.length r.F.revived) ~inputs r = None)

(* ---------- multicore campaigns ---------- *)

let test_mc_rejects_object_kinds () =
  let (module P) = mk_swap_ksa () in
  let module Mc = Fault.Mc (P) in
  try
    ignore (Mc.campaign ~seed:1 ~runs:1 ~kinds:[ Fault.Torn_k ] ());
    Alcotest.fail "multicore campaign accepted an object-fault kind"
  with Invalid_argument _ -> ()

let test_mc_benign_campaign () =
  (* a small real-domain campaign: graceful degradation holds on every run *)
  let (module P) = mk_swap_ksa () in
  let module Mc = Fault.Mc (P) in
  let s = Mc.campaign ~seed:2 ~runs:3 ~kinds:Fault.benign_kinds () in
  Alcotest.(check int) "3 runs" 3 s.Mc.runs;
  Alcotest.(check (list string)) "no degradation violations" []
    (List.map (fun (f : Mc.finding) -> f.Mc.detail) s.Mc.violations)

let test_mc_rejects_respawn_without_recover () =
  let (module P) = mk_swap_ksa () in
  let module Mc = Fault.Mc (P) in
  try
    ignore (Mc.campaign ~seed:1 ~runs:1 ~kinds:Fault.recovery_kinds ());
    Alcotest.fail "unsupervised campaign accepted Respawn_k"
  with Invalid_argument _ -> ()

let test_mc_supervised_campaign () =
  (* supervised kill-and-heal on real domains: crashed pids come back on
     fresh domains against the same arena; every run must satisfy the
     degraded contract, the cross-boundary HB check and the prop pack *)
  let (module P) = mk_swap_ksa () in
  let module Mc = Fault.Mc (P) in
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let s =
    Mc.campaign ~pack:M.online_props ~seed:4 ~runs:4
      ~kinds:Fault.recovery_kinds ~recover:true ()
  in
  Alcotest.(check int) "4 runs" 4 s.Mc.runs;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun (f : Mc.finding) -> f.Mc.detail) s.Mc.violations);
  Alcotest.(check bool) "supervision rounds counted" true (s.Mc.rounds >= 4);
  Alcotest.(check bool) "hb checked on merged histories" true
    (s.Mc.hb_checked > 0)

let () =
  Alcotest.run "fault"
    [ ( "plans",
        [ Alcotest.test_case "validation" `Quick test_validate
        ; Alcotest.test_case "kind names" `Quick test_kinds
        ; Alcotest.test_case "plan generation" `Quick test_gen_plan
        ; Alcotest.test_case "kill-and-heal generation" `Quick
            test_gen_plan_recovery_pairs
        ] )
    ; ( "ddmin",
        [ Alcotest.test_case "shrinking" `Quick test_ddmin ] )
    ; ( "simulator",
        [ Alcotest.test_case "benign run is clean" `Quick test_benign_run_clean
        ; Alcotest.test_case "run_schedule reproducible" `Quick
            test_run_schedule_reproducible
        ; Alcotest.test_case "benign campaign has zero violations" `Quick
            test_benign_campaign_zero_violations
        ; Alcotest.test_case "object faults detected, kind by kind" `Slow
            test_object_faults_detected_each_kind
        ; Alcotest.test_case "detection schedules are 1-minimal" `Slow
            test_detection_schedules_are_minimal
        ; Alcotest.test_case "monitor-wired campaigns" `Slow
            test_monitor_wired_campaign
        ; Alcotest.test_case "final snapshot: validity is a property" `Quick
            (final_snapshot_finding ~protocol:Util.invalid_protocol
               ~inputs:[| 0; 0 |] ~name:"validity")
        ; Alcotest.test_case "final snapshot: k-agreement is a property" `Quick
            (final_snapshot_finding ~protocol:Util.stubborn_protocol
               ~inputs:[| 0; 1 |] ~name:"k-agreement")
        ; Alcotest.test_case "campaigns are seed-reproducible" `Slow
            test_campaign_reproducible
        ; Alcotest.test_case "protocols may reject faulty responses" `Quick
            test_protocol_can_reject_faulty_responses
        ; Alcotest.test_case "recovery campaign is clean" `Slow
            test_recovery_campaign_clean
        ; Alcotest.test_case "kill-and-heal run revives and decides" `Quick
            test_recovery_run_revives
        ] )
    ; ( "multicore",
        [ Alcotest.test_case "object kinds rejected" `Quick
            test_mc_rejects_object_kinds
        ; Alcotest.test_case "benign campaign degrades gracefully" `Quick
            test_mc_benign_campaign
        ; Alcotest.test_case "respawn kind needs supervision" `Quick
            test_mc_rejects_respawn_without_recover
        ; Alcotest.test_case "supervised kill-and-heal campaign" `Slow
            test_mc_supervised_campaign
        ] )
    ; Util.qsuite "fault-props" [ prop_ddmin_one_minimal ]
    ]
