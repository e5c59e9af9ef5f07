(* Tests for the lower-bound engines: the Lemma 9 adversary, the Theorem 10
   driver, the valency oracle, and the §6 constructions (Lemmas 12/13/15/19,
   Theorems 17/21). *)

module V = Shmem.Value

(* --- Lemma 9 / Theorem 10 --- *)

let forced_objects_consensus n =
  let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
  let module T = Lowerbound.Theorem10.Make (P) in
  List.length (T.run ()).T.objects_forced

let test_lemma9_base_case_counts () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Fmt.str "n=%d forces n-1 objects" n)
        (n - 1) (forced_objects_consensus n))
    [ 2; 3; 4; 6; 10 ]

let test_lemma9_certificate_structure () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module T = Lowerbound.Theorem10.Make (P) in
  let cert = T.run () in
  match cert.T.levels with
  | [ T.Base l9 ] ->
    (* gamma is Q-only (Q = {1,2,3}), delta likewise, and the forced
       objects are distinct *)
    Alcotest.(check bool) "gamma avoids p0" true
      (Shmem.Trace.is_p_only ~allowed:(fun p -> p > 0) l9.T.L9.gamma);
    Alcotest.(check bool) "delta avoids p0" true
      (Shmem.Trace.is_p_only ~allowed:(fun p -> p > 0) l9.T.L9.delta);
    Alcotest.(check int) "3 distinct objects" 3
      (List.length (List.sort_uniq compare l9.T.L9.objects_forced))
  | _ -> Alcotest.fail "expected a single Base level"

let test_theorem10_bounds () =
  List.iter
    (fun (n, k, expect) ->
      let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
      let module T = Lowerbound.Theorem10.Make (P) in
      Alcotest.(check int) (Fmt.str "bound n=%d k=%d" n k) expect
        (T.bound ~n ~k))
    [ 2, 1, 1; 8, 1, 7; 8, 2, 3; 9, 3, 2; 10, 3, 3 ]

let test_theorem10_recursion () =
  List.iter
    (fun (n, k) ->
      let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
      let module T = Lowerbound.Theorem10.Make (P) in
      let cert = T.run ~search_rounds:20 () in
      Alcotest.(check bool)
        (Fmt.str "n=%d k=%d meets bound" n k)
        true
        (List.length cert.T.objects_forced >= cert.T.bound))
    [ 4, 2; 6, 2; 6, 3; 9, 3 ]

let test_theorem10_found_branch () =
  (* the grouped protocol admits R-only executions deciding k values, so
     the engine's first branch fires and Lemma 9 runs with Q = P - R *)
  List.iter
    (fun (n, k) ->
      let (module P) = Baselines.Grouped_ksa.make ~n ~k ~m:(k + 1) in
      let module T = Lowerbound.Theorem10.Make (P) in
      let cert = T.run () in
      (match cert.T.levels with
      | T.Found_k_values { cert = l9; _ } :: _ ->
        Alcotest.(check bool) "forced at least the bound" true
          (List.length l9.T.L9.objects_forced >= cert.T.bound)
      | _ -> Alcotest.fail "expected the found-k-values branch");
      Alcotest.(check bool)
        (Fmt.str "n=%d k=%d meets bound" n k)
        true
        (List.length cert.T.objects_forced >= cert.T.bound))
    [ 4, 2; 6, 3 ]

let test_grouped_is_correct () =
  let (module P) = Baselines.Grouped_ksa.make ~n:4 ~k:2 ~m:3 in
  let module C = Checker.Make (P) in
  Util.check_ok "grouped-ksa n=4 k=2" (C.explore_all_inputs ())

let test_lemma9_hypotheses_checked () =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module L9 = Lowerbound.Lemma9.Make (P) in
  (* Q member with the wrong input *)
  (try
     ignore
       (L9.run ~inputs:[| 0; 1; 0 |] ~alpha:[] ~q:[ 1; 2 ] ~v:1 ());
     Alcotest.fail "accepted Q with mixed inputs"
   with Lowerbound.Lemma9.Hypothesis_violated _ -> ());
  (* alpha deciding too few values *)
  try
    ignore (L9.run ~inputs:[| 0; 1; 1 |] ~alpha:[] ~q:[ 1; 2 ] ~v:1 ());
    Alcotest.fail "accepted empty alpha"
  with Lowerbound.Lemma9.Hypothesis_violated _ -> ()

let test_lemma9_rejects_readable_objects () =
  let (module P) = Baselines.Readable_swap_consensus.make ~n:3 ~m:2 in
  let module L9 = Lowerbound.Lemma9.Make (P) in
  try
    ignore (L9.run ~inputs:[| 0; 1; 1 |] ~alpha:[] ~q:[ 1; 2 ] ~v:1 ());
    Alcotest.fail "accepted readable swap objects"
  with Lowerbound.Lemma9.Hypothesis_violated _ -> ()

(* --- bounds --- *)

let test_bounds_formulas () =
  let module B = Lowerbound.Bounds in
  Alcotest.(check int) "Thm 10 at n=8 k=1" 7 (B.ksa_swap_lb ~n:8 ~k:1);
  Alcotest.(check int) "Thm 10 at n=8 k=3" 2 (B.ksa_swap_lb ~n:8 ~k:3);
  Alcotest.(check int) "Alg 1 at n=8 k=3" 5 (B.ksa_swap_ub ~n:8 ~k:3);
  Alcotest.(check int) "BRS at n=8 k=3" 6 (B.ksa_registers_ub ~n:8 ~k:3);
  Alcotest.(check int) "EGZ registers LB" 3 (B.ksa_registers_lb ~n:8 ~k:3);
  Alcotest.(check int) "Thm 17 at n=9" 7 (B.binary_swap_lb 9);
  Alcotest.(check int) "Bowman at n=9" 17 (B.binary_registers_ub 9);
  Alcotest.(check (float 1e-9)) "Thm 21 at n=9 b=2" (1.0)
    (B.bounded_swap_lb ~n:9 ~b:2);
  Alcotest.(check int) "Lemma 8" 40 (B.solo_steps_ub ~n:6 ~k:1);
  (* tightness at k=1: LB = UB *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Fmt.str "tight at n=%d" n)
        (B.ksa_swap_ub ~n ~k:1)
        (B.ksa_swap_lb ~n ~k:1))
    [ 2; 3; 10; 100 ]

let prop_bound_ordering =
  (* the paper's landscape is consistent: LBs never exceed the matching
     UBs, and swap beats registers by exactly one object *)
  QCheck2.Test.make ~name:"bound ordering" ~count:200
    QCheck2.Gen.(pair (int_range 2 200) (int_range 1 20))
    (fun (n, k) ->
      QCheck2.assume (n > k);
      let module B = Lowerbound.Bounds in
      B.ksa_swap_lb ~n ~k <= B.ksa_swap_ub ~n ~k
      && B.ksa_registers_lb ~n ~k <= B.ksa_registers_ub ~n ~k
      && B.ksa_registers_ub ~n ~k = B.ksa_swap_ub ~n ~k + 1
      && B.ksa_swap_lb ~n ~k = B.ksa_registers_lb ~n ~k - 1)

(* --- valency oracle --- *)

let test_valency_initial_bivalent () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:2 ~cap:6 in
  let module Va = Lowerbound.Valency.Make (B) in
  let module E = Va.E in
  let t = Va.create ~allowed:[ 0; 1 ] in
  let c = E.initial ~inputs:[| 0; 1 |] in
  Alcotest.(check (list int)) "both values decidable" [ 0; 1 ]
    (Va.decidable_values t c);
  Alcotest.(check bool) "bivalent" true (Va.bivalent t c)

let test_valency_univalent_after_decision_path () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:2 ~cap:6 in
  let module Va = Lowerbound.Valency.Make (B) in
  let module E = Va.E in
  let t = Va.create ~allowed:[ 0; 1 ] in
  let c = E.initial ~inputs:[| 0; 0 |] in
  (* with both inputs 0, validity forces 0-univalence *)
  Alcotest.(check (option int)) "0-univalent" (Some 0) (Va.univalent_value t c)

let test_valency_witness_replays () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:2 ~cap:6 in
  let module Va = Lowerbound.Valency.Make (B) in
  let module E = Va.E in
  let t = Va.create ~allowed:[ 0; 1 ] in
  let c = E.initial ~inputs:[| 0; 1 |] in
  List.iter
    (fun v ->
      match Va.witness t c ~value:v with
      | None -> Alcotest.fail (Fmt.str "no witness for %d" v)
      | Some trace ->
        let c' = E.replay c trace in
        Alcotest.(check bool)
          (Fmt.str "witness for %d decides it" v)
          true
          (List.mem v (E.decided_values c')))
    [ 0; 1 ]

let test_valency_respects_allowed_set () =
  (* if only the all-zero process may run, 1 is not decidable *)
  let (module B) = Baselines.Binary_track_consensus.make ~n:2 ~cap:6 in
  let module Va = Lowerbound.Valency.Make (B) in
  let module E = Va.E in
  let t = Va.create ~allowed:[ 0 ] in
  let c = E.initial ~inputs:[| 0; 1 |] in
  Alcotest.(check (list int)) "solo p0 can only decide 0" [ 0 ]
    (Va.decidable_values t c)

let test_valency_monotone_in_allowed () =
  (* a larger allowed set can decide at least as much from any reachable
     configuration *)
  let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:6 in
  let module Va = Lowerbound.Valency.Make (B) in
  let module E = Va.E in
  let small = Va.create ~allowed:[ 0; 1 ] in
  let big = Va.create ~allowed:[ 0; 1; 2 ] in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 20 do
    let inputs = Array.init 3 (fun _ -> Random.State.int rng 2) in
    let len = Random.State.int rng 12 in
    let c, _, _ =
      E.run ~sched:(E.random rng) ~max_steps:len (E.initial ~inputs)
    in
    let sub = Va.decidable_values small c in
    let sup = Va.decidable_values big c in
    Alcotest.(check bool)
      (Fmt.str "subset at inputs %a"
         Fmt.(array ~sep:(any "") int)
         inputs)
      true
      (List.for_all (fun v -> List.mem v sup) sub)
  done

(* --- Lemma 12 / Lemma 13 --- *)

let test_lemma12_empty_cover () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:6 in
  let module C = Lowerbound.Construction.Make (B) in
  let ctx = C.make_ctx ~q:[ 1; 2 ] in
  let c = C.E.initial ~inputs:[| 0; 0; 1 |] in
  let c', gamma = C.lemma12 ctx ~c ~s:[] in
  (* with no coverers the block swap is empty; gamma must be empty and the
     configuration unchanged *)
  Alcotest.(check int) "empty gamma" 0 (Shmem.Trace.length gamma);
  Alcotest.(check bool) "config unchanged" true (C.E.equal_config c c')

let test_lemma13_finds_critical_step () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:6 in
  let module C = Lowerbound.Construction.Make (B) in
  let ctx = C.make_ctx ~q:[ 1; 2 ] in
  let c = C.E.initial ~inputs:[| 0; 0; 1 |] in
  let r = C.lemma13 ctx ~c ~c':c ~pi:0 ~others:[] () in
  (* α_j is indistinguishable from δ_j to p_0 and leaves Q bivalent *)
  Alcotest.(check bool) "Q bivalent in Cα_j" true
    (C.V.bivalent ctx.C.oracle r.C.c_alpha_j);
  let delta_prefix =
    List.filteri (fun idx _ -> idx < r.C.j) r.C.delta
  in
  Alcotest.(check bool) "α_j ~p0 δ_j" true
    (Shmem.Trace.indistinguishable_to ~pid:0 r.C.alpha_j delta_prefix);
  (* p_0 is poised to apply d on B* in Cα_j *)
  Alcotest.(check bool) "poised to d" true
    (Shmem.Op.equal (C.E.poised r.C.c_alpha_j 0) r.C.d_op)

let test_lemma13_exact_under_collisions () =
  (* a constant [hash_state] makes every pair of configurations with equal
     memory collide in the witness search; deduplication must still tell
     them apart and find the witness the honest hash finds *)
  let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:6 in
  let module Collide = struct
    include B

    let hash_state _ = 0
  end in
  let module C = Lowerbound.Construction.Make (B) in
  let module Cc = Lowerbound.Construction.Make (Collide) in
  let inputs = [| 0; 0; 1 |] in
  let r = C.lemma13 (C.make_ctx ~q:[ 1; 2 ]) ~c:(C.E.initial ~inputs)
      ~c':(C.E.initial ~inputs) ~pi:0 ~others:[] ()
  in
  let rc = Cc.lemma13 (Cc.make_ctx ~q:[ 1; 2 ]) ~c:(Cc.E.initial ~inputs)
      ~c':(Cc.E.initial ~inputs) ~pi:0 ~others:[] ()
  in
  let trace = Fmt.str "%a" Shmem.Trace.pp in
  Alcotest.(check int) "same j" r.C.j rc.Cc.j;
  Alcotest.(check string) "same α_j" (trace r.C.alpha_j) (trace rc.Cc.alpha_j);
  Alcotest.(check int) "same B*" r.C.b_star rc.Cc.b_star;
  Alcotest.(check string) "same Cα_j"
    (Fmt.str "%a" C.E.pp_config r.C.c_alpha_j)
    (Fmt.str "%a" Cc.E.pp_config rc.Cc.c_alpha_j)

let test_lemma12_with_cover () =
  (* a nonempty cover: drive p0 until it is poised to swap (its Advance
     step), then Lemma 12 must produce γ with Q bivalent after the block
     swap by {p0} *)
  let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:6 in
  let module C = Lowerbound.Construction.Make (B) in
  let ctx = C.make_ctx ~q:[ 1; 2 ] in
  let c0 = C.E.initial ~inputs:[| 0; 0; 1 |] in
  (* p0: scan own (reads 0), scan opp (reads 0) -> poised to Advance *)
  let rec drive c steps =
    if Shmem.Op.is_nontrivial (C.E.poised c 0) then c
    else if steps > 50 then Alcotest.fail "p0 never poised to swap"
    else drive (fst (C.E.step c 0)) (steps + 1)
  in
  let c = drive c0 0 in
  Alcotest.(check bool) "p0 covers an object" true
    (C.E.covers c ~pids:[ 0 ] ~objs:[ (C.E.poised c 0).Shmem.Op.obj ]);
  let c_gamma, gamma = C.lemma12 ctx ~c ~s:[ 0 ] in
  Alcotest.(check bool) "gamma is Q-only" true
    (Shmem.Trace.is_p_only ~allowed:(fun p -> p = 1 || p = 2) gamma);
  let c_after_beta, _ = C.block_swap ctx c_gamma ~s:[ 0 ] in
  Alcotest.(check bool) "Q bivalent after the block swap" true
    (C.V.bivalent ctx.C.oracle c_after_beta)

(* --- pinned T3/T4 certificates (bench tables t3, t4; cap 8) --- *)

(* every n's construction is a prefix of the n = 8 one: per induction step
   the Lemma 13 critical index j, |α_j| and the object B*; only n = 8's
   last step is case 2, covering B6 by p5 *)
let pinned_steps =
  [ 10, 17, 8; 16, 23, 9; 15, 24, 10; 28, 39, 11; 23, 36, 12; 26, 26, 6 ]

let pinned_prefix n = List.filteri (fun i _ -> i < n - 2) pinned_steps
let pinned_objects n = List.map (fun (_, _, b) -> b) (pinned_prefix n)

let check_steps n steps =
  Alcotest.(check (list (triple int int int)))
    (Fmt.str "n=%d steps (j, |α_j|, B*)" n)
    (pinned_prefix n) steps

let check_t3_pin n ~steps ~x ~y ~coverers =
  check_steps n steps;
  let case2 = n = 8 in
  Alcotest.(check (list int)) (Fmt.str "n=%d X" n)
    (List.filter (fun b -> not (case2 && b = 6)) (pinned_objects n))
    x;
  Alcotest.(check (list int)) (Fmt.str "n=%d Y" n)
    (if case2 then [ 6 ] else []) y;
  Alcotest.(check (list (pair int int))) (Fmt.str "n=%d S" n)
    (if case2 then [ 5, 6 ] else []) coverers

let check_t4_pin n ~steps ~f ~potential ~implied =
  check_steps n steps;
  Alcotest.(check (list (pair int (list int)))) (Fmt.str "n=%d f" n)
    (List.map (fun b -> b, [ 0 ]) (pinned_objects n))
    f;
  Alcotest.(check int) (Fmt.str "n=%d potential" n) (2 * (n - 2)) potential;
  Alcotest.(check int) (Fmt.str "n=%d implied objects" n)
    (if n = 6 then 2 else 1) implied

let t3_pin n =
  let (module B) = Baselines.Binary_track_consensus.make ~n ~cap:8 in
  let module L = Lowerbound.Binary_lb.Make (B) in
  let r = L.run () in
  check_t3_pin n
    ~steps:
      (List.map (fun (s : L.step_record) -> s.L.j, s.L.alpha_len, s.L.b_star)
         r.L.steps)
    ~x:r.L.x ~y:r.L.y ~coverers:r.L.coverers

let t4_pin n =
  let (module B) = Baselines.Binary_track_consensus.make ~n ~cap:8 in
  let module L = Lowerbound.Bounded_lb.Make (B) in
  let r = L.run () in
  check_t4_pin n
    ~steps:
      (List.map (fun (s : L.step_record) -> s.L.j, s.L.alpha_len, s.L.b_star)
         r.L.steps)
    ~f:r.L.f ~potential:r.L.potential ~implied:r.L.implied_objects

(* n = 3, 4 and 8 are pinned inside the tests below, which run them anyway *)
let test_t3_certificates_pinned () = List.iter t3_pin [ 5; 6; 7 ]
let test_t4_certificates_pinned () = List.iter t4_pin [ 5; 6 ]

(* --- Lemma 15 / Theorem 17 --- *)

let test_binary_lb_n3 () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:8 in
  let module L = Lowerbound.Binary_lb.Make (B) in
  let r = L.run () in
  check_t3_pin 3
    ~steps:
      (List.map (fun (s : L.step_record) -> s.L.j, s.L.alpha_len, s.L.b_star)
         r.L.steps)
    ~x:r.L.x ~y:r.L.y ~coverers:r.L.coverers;
  Alcotest.(check int) "n-2 distinct objects" 1 r.L.distinct_objects;
  Alcotest.(check int) "bound" 1 r.L.bound

let test_binary_lb_n4 () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:4 ~cap:8 in
  let module L = Lowerbound.Binary_lb.Make (B) in
  let r = L.run () in
  check_t3_pin 4
    ~steps:
      (List.map (fun (s : L.step_record) -> s.L.j, s.L.alpha_len, s.L.b_star)
         r.L.steps)
    ~x:r.L.x ~y:r.L.y ~coverers:r.L.coverers;
  Alcotest.(check int) "n-2 distinct objects" 2 r.L.distinct_objects;
  (* X and Y are disjoint *)
  Alcotest.(check bool) "X ∩ Y = ∅" true
    (List.for_all (fun b -> not (List.mem b r.L.y)) r.L.x)

let test_binary_lb_n8_exercises_both_cases () =
  (* at n = 8 the induction uses both branches: five objects enter X and
     one covered object enters Y with its coverer in S *)
  let (module B) = Baselines.Binary_track_consensus.make ~n:8 ~cap:8 in
  let module L = Lowerbound.Binary_lb.Make (B) in
  let r = L.run () in
  check_t3_pin 8
    ~steps:
      (List.map (fun (s : L.step_record) -> s.L.j, s.L.alpha_len, s.L.b_star)
         r.L.steps)
    ~x:r.L.x ~y:r.L.y ~coverers:r.L.coverers;
  Alcotest.(check int) "n-2 objects" 6 r.L.distinct_objects;
  Alcotest.(check bool) "some step is case 2" true
    (List.exists (fun (s : L.step_record) -> s.L.case = L.Changed) r.L.steps);
  Alcotest.(check int) "coverers match Y" (List.length r.L.y)
    (List.length r.L.coverers)

let test_binary_lb_rejects_wrong_protocol () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module L = Lowerbound.Binary_lb.Make (P) in
  try
    ignore (L.run ());
    Alcotest.fail "accepted non-binary-swap protocol"
  with Invalid_argument _ -> ()

(* --- Lemma 19 / Theorem 21 --- *)

let test_corollary18_via_simulation () =
  (* Corollary 18's reasoning chain, executed: a consensus protocol over
     binary historyless objects (the TAS track variant) is simulated by
     readable binary swap objects [6], and the Lemma 15 construction then
     applies to the simulated protocol *)
  let (module T) = Baselines.Binary_track_consensus.make_tas ~n:3 ~cap:8 in
  let module RS = Shmem.Simulate.To_readable_swap (T) in
  let module L = Lowerbound.Binary_lb.Make (RS) in
  let r = L.run () in
  Alcotest.(check int) "n-2 objects forced on the simulation" 1
    r.L.distinct_objects

let test_bounded_lb_n3 () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:8 in
  let module L = Lowerbound.Bounded_lb.Make (B) in
  let r = L.run () in
  check_t4_pin 3
    ~steps:
      (List.map (fun (s : L.step_record) -> s.L.j, s.L.alpha_len, s.L.b_star)
         r.L.steps)
    ~f:r.L.f ~potential:r.L.potential ~implied:r.L.implied_objects;
  Alcotest.(check bool) "potential >= n-2" true (r.L.potential >= 1);
  Alcotest.(check int) "domain size 2" 2 r.L.domain_size

let test_bounded_lb_n4 () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:4 ~cap:8 in
  let module L = Lowerbound.Bounded_lb.Make (B) in
  let r = L.run () in
  check_t4_pin 4
    ~steps:
      (List.map (fun (s : L.step_record) -> s.L.j, s.L.alpha_len, s.L.b_star)
         r.L.steps)
    ~f:r.L.f ~potential:r.L.potential ~implied:r.L.implied_objects;
  Alcotest.(check bool) "potential >= n-2" true (r.L.potential >= 2);
  (* per-step potentials are recorded and nondecreasing *)
  let ps = List.map (fun (s : L.step_record) -> s.L.potential) r.L.steps in
  Alcotest.(check bool) "potential nondecreasing" true
    (List.sort compare ps = ps)

let () =
  Alcotest.run "lowerbound"
    [ ( "lemma9-theorem10",
        [ Alcotest.test_case "base case forces n-1" `Slow
            test_lemma9_base_case_counts
        ; Alcotest.test_case "certificate structure" `Quick
            test_lemma9_certificate_structure
        ; Alcotest.test_case "bound arithmetic" `Quick test_theorem10_bounds
        ; Alcotest.test_case "recursion meets bound" `Slow
            test_theorem10_recursion
        ; Alcotest.test_case "found-k-values branch" `Quick
            test_theorem10_found_branch
        ; Alcotest.test_case "grouped protocol correct" `Quick
            test_grouped_is_correct
        ; Alcotest.test_case "hypotheses checked" `Quick
            test_lemma9_hypotheses_checked
        ; Alcotest.test_case "swap-only enforced" `Quick
            test_lemma9_rejects_readable_objects
        ] )
    ; ( "bounds",
        [ Alcotest.test_case "closed forms" `Quick test_bounds_formulas ] )
    ; Util.qsuite "bounds-props" [ prop_bound_ordering ]
    ; ( "valency",
        [ Alcotest.test_case "initial bivalent" `Quick
            test_valency_initial_bivalent
        ; Alcotest.test_case "same inputs univalent" `Quick
            test_valency_univalent_after_decision_path
        ; Alcotest.test_case "witness replays" `Quick
            test_valency_witness_replays
        ; Alcotest.test_case "allowed set respected" `Quick
            test_valency_respects_allowed_set
        ; Alcotest.test_case "monotone in allowed set" `Quick
            test_valency_monotone_in_allowed
        ] )
    ; ( "lemma12-13",
        [ Alcotest.test_case "lemma 12 empty cover" `Quick
            test_lemma12_empty_cover
        ; Alcotest.test_case "lemma 13 critical step" `Quick
            test_lemma13_finds_critical_step
        ; Alcotest.test_case "lemma 12 with a cover" `Quick
            test_lemma12_with_cover
        ; Alcotest.test_case "lemma 13 exact under hash collisions" `Quick
            test_lemma13_exact_under_collisions
        ] )
    ; ( "section-6",
        [ Alcotest.test_case "Lemma 15 n=3" `Quick test_binary_lb_n3
        ; Alcotest.test_case "Lemma 15 n=4" `Slow test_binary_lb_n4
        ; Alcotest.test_case "Lemma 15 n=8 both cases" `Slow
            test_binary_lb_n8_exercises_both_cases
        ; Alcotest.test_case "wrong protocol rejected" `Quick
            test_binary_lb_rejects_wrong_protocol
        ; Alcotest.test_case "Corollary 18 via simulation" `Quick
            test_corollary18_via_simulation
        ; Alcotest.test_case "Lemma 19 n=3" `Quick test_bounded_lb_n3
        ; Alcotest.test_case "Lemma 19 n=4" `Slow test_bounded_lb_n4
        ; Alcotest.test_case "T3 certificates pinned" `Slow
            test_t3_certificates_pinned
        ; Alcotest.test_case "T4 certificates pinned" `Slow
            test_t4_certificates_pinned
        ] )
    ]
