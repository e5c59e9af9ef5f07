(* Tests for Algorithm 1 (the paper's §4 contribution): correctness by
   exhaustive model checking on small instances, invariant monitors
   (Observations 1-4), the Lemma 8 solo bound, and randomized schedules on
   larger instances. *)

module V = Shmem.Value

let make = Core.Swap_ksa.make

let test_parameters_validated () =
  (try
     ignore (make ~n:2 ~k:2 ~m:2);
     Alcotest.fail "accepted n = k"
   with Invalid_argument _ -> ());
  try
    ignore (make ~n:3 ~k:1 ~m:1);
    Alcotest.fail "accepted m = 1"
  with Invalid_argument _ -> ()

let test_object_count () =
  List.iter
    (fun (n, k) ->
      let (module P) = make ~n ~k ~m:(k + 1) in
      Alcotest.(check int)
        (Fmt.str "n=%d k=%d uses n-k objects" n k)
        (n - k) (Array.length P.objects);
      Alcotest.(check bool) "swap-only objects" true
        (Shmem.Protocol.uses_only_swap (module P)))
    [ 2, 1; 5, 1; 5, 2; 8, 4; 16, 3 ]

let test_solo_decides_own_input () =
  (* a process running alone must decide its own input (validity) *)
  let (module P) = make ~n:4 ~k:1 ~m:4 in
  let module E = Shmem.Exec.Make (P) in
  List.iter
    (fun pid ->
      let inputs = [| 0; 1; 2; 3 |] in
      let c = E.initial ~inputs in
      match E.run_solo ~pid ~max_steps:100 c with
      | None -> Alcotest.fail "solo run stuck"
      | Some (c', _) ->
        Alcotest.(check (option int))
          (Fmt.str "p%d decides its input" pid)
          (Some inputs.(pid)) (E.decision c' pid))
    [ 0; 1; 2; 3 ]

let test_solo_step_bound () =
  (* Lemma 8: at most 8(n-k) steps in any solo execution from an initial
     configuration (the monitor checks reachable configurations in the
     randomized test below) *)
  List.iter
    (fun (n, k) ->
      let (module P) = make ~n ~k ~m:(k + 1) in
      let module E = Shmem.Exec.Make (P) in
      let inputs = Array.init n (fun i -> i mod (k + 1)) in
      let c = E.initial ~inputs in
      let bound = Core.Swap_ksa.solo_step_bound ~n ~k in
      List.iter
        (fun pid ->
          match E.run_solo ~pid ~max_steps:bound c with
          | None -> Alcotest.fail (Fmt.str "p%d exceeded 8(n-k) solo" pid)
          | Some (_, trace) ->
            Alcotest.(check bool)
              (Fmt.str "p%d within bound" pid)
              true
              (Shmem.Trace.length trace <= bound))
        (List.init n Fun.id))
    [ 2, 1; 4, 1; 6, 2; 9, 3 ]

let exhaustive n k m lap max_configs =
  let (module P) = make ~n ~k ~m in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) = Util.lap_prune_pair lap c.C.E.mem in
  C.explore_all_inputs ~prune ~max_configs ()

let test_exhaustive_n2 () =
  Util.check_ok "swap-ksa n=2 k=1 m=2" (exhaustive 2 1 2 4 100_000)

let test_exhaustive_n2_m3 () =
  Util.check_ok "swap-ksa n=2 k=1 m=3" (exhaustive 2 1 3 3 200_000)

let test_exhaustive_n3_k2 () =
  Util.check_ok "swap-ksa n=3 k=2 m=3" (exhaustive 3 2 3 3 300_000)

let test_exhaustive_n3_k1_one_input () =
  let (module P) = make ~n:3 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) = Util.lap_prune_pair 2 c.C.E.mem in
  Util.check_ok "swap-ksa n=3 k=1 m=2 inputs 011"
    (C.explore ~prune ~max_configs:200_000 ~inputs:[| 0; 1; 1 |] ())

(* the §4 monitor over a plain simulator run: step_props on every step and
   Lemma 8's solo bound at every [solo_every]-th configuration (0 = never;
   checking it everywhere is quadratic) *)
module Monitored (P : Core.Swap_ksa.S) = struct
  module M = Core.Swap_ksa_monitor.Make (P)
  module Pr = Prop.Make (P)
  module E = M.E

  let solo_bound = M.prop_solo_bound ()

  (* the first violated step property on [before -pid-> after] *)
  let step_verdict before pid after =
    List.find_map
      (fun p ->
        Pr.eval_step p ~before:(M.snap before) ~pid ~after:(M.snap after))
      M.step_props

  let run ?(solo_every = 0) ~sched ~max_steps c0 =
    let mon, _ = Pr.start M.step_props (M.snap c0) in
    let rec go c i =
      if i >= max_steps then c, E.Step_limit
      else
        match E.undecided c with
        | [] -> c, E.All_decided
        | enabled -> (
          match sched ~step_index:i c enabled with
          | None -> c, E.Stopped
          | Some pid ->
            let c', _ = E.step c pid in
            let after = M.snap c' in
            Option.iter
              (fun (name, d) -> Alcotest.failf "%s: %s" name d)
              (Pr.advance mon ~before:(M.snap c) ~pid ~after);
            if solo_every > 0 && i mod solo_every = 0 then
              Option.iter Alcotest.fail (Pr.eval_config solo_bound after);
            go c' (i + 1))
    in
    go c0 0
end

let test_monitored_random_runs () =
  (* long uniformly random schedules with every §4 observation checked at
     each step and the solo bound probed periodically.  Under uniform
     scheduling an obstruction-free algorithm need not terminate, so only
     safety and the monitors are asserted here; termination is exercised by
     the bursty scheduler below. *)
  let module P = (val make ~n:6 ~k:2 ~m:3 : Core.Swap_ksa.S) in
  let module M = Monitored (P) in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 10 do
    let inputs = Array.init 6 (fun _ -> Random.State.int rng 3) in
    let c0 = M.E.initial ~inputs in
    let c, _ =
      M.run ~solo_every:100 ~sched:(M.E.random rng) ~max_steps:3_000 c0
    in
    Alcotest.(check bool) "agreement" true (M.E.check_agreement c);
    Alcotest.(check bool) "validity" true (M.E.check_validity ~inputs c)
  done

let test_bursty_schedules_terminate () =
  (* a scheduler granting solo windows longer than one pass lets everyone
     decide quickly — the practical content of obstruction-freedom *)
  let module P = (val make ~n:6 ~k:2 ~m:3 : Core.Swap_ksa.S) in
  let module M = Monitored (P) in
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 10 do
    let inputs = Array.init 6 (fun _ -> Random.State.int rng 3) in
    let c0 = M.E.initial ~inputs in
    let burst = 2 * Core.Swap_ksa.solo_step_bound ~n:6 ~k:2 in
    let _, outcome =
      M.run ~sched:(M.E.bursty rng ~burst) ~max_steps:50_000 c0
    in
    Alcotest.(check bool) "terminated" true (outcome = M.E.All_decided)
  done

let test_monitor_catches_violation () =
  (* mutate a final state by hand: a decision without a 2-lap lead must trip
     the monitor *)
  let module P = (val make ~n:2 ~k:1 ~m:2 : Core.Swap_ksa.S) in
  let module M = Monitored (P) in
  let c0 = M.E.initial ~inputs:[| 0; 1 |] in
  (* a real step of p0: domination holds, so no step property fires *)
  let c1, _ = M.E.step c0 0 in
  Alcotest.(check (option string)) "real step passes" None
    (M.step_verdict c0 0 c1);
  (* a shrinking lap counter must be caught: swap the roles of before/after
     once p0 has actually merged something *)
  let c2, _ = M.E.step c1 1 in
  let c3, _ = M.E.step c2 1 in
  let c4, _ = M.E.step c3 0 in
  (* p0's counter can only have grown from c1 to c4; reversing the
     direction fabricates a shrink unless they are equal *)
  let grew =
    Core.Swap_ksa.dominates (P.laps c4.M.E.states.(0)) (P.laps c1.M.E.states.(0))
    && not
         (Core.Swap_ksa.dominates
            (P.laps c1.M.E.states.(0))
            (P.laps c4.M.E.states.(0)))
  in
  if grew && M.step_verdict c4 0 c1 = None then
    Alcotest.fail "monitor accepted a shrinking lap counter"

let test_total_configuration_detected () =
  (* run p0 solo until it decides; just before its deciding pass the
     configuration must be ⟨V,p⟩-total (Observation 2) *)
  let module P = (val make ~n:3 ~k:1 ~m:2 : Core.Swap_ksa.S) in
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let c0 = M.E.initial ~inputs:[| 1; 0; 0 |] in
  let rec walk c saw_total steps =
    if steps > 100 then Alcotest.fail "p0 did not decide"
    else
      match M.E.decision c 0 with
      | Some v ->
        Alcotest.(check int) "decided own input" 1 v;
        Alcotest.(check bool) "passed through a total configuration" true
          saw_total
      | None ->
        let saw_total = saw_total || M.total c <> None in
        let c, _ = M.E.step c 0 in
        walk c saw_total (steps + 1)
  in
  walk c0 false 0

(* Kuhn's augmenting-path matching: can each object be assigned a distinct
   candidate process?  [candidates.(b)] lists the processes allowed for
   object [b]. *)
let perfect_matching candidates =
  let nk = Array.length candidates in
  let matched = Hashtbl.create 16 in
  (* pid -> object currently assigned *)
  let rec augment b visited =
    List.exists
      (fun q ->
        if List.mem q !visited then false
        else begin
          visited := q :: !visited;
          match Hashtbl.find_opt matched q with
          | None ->
            Hashtbl.replace matched q b;
            true
          | Some b' ->
            if augment b' visited then begin
              Hashtbl.replace matched q b;
              true
            end
            else false
        end)
      candidates.(b)
  in
  let ok = ref true in
  for b = 0 to nk - 1 do
    if not (augment b (ref [])) then ok := false
  done;
  !ok

let test_lemma5_on_observed_executions () =
  (* Lemma 5, executed: a ⟨V,p⟩-total configuration C followed by a
     ⟨V',p'⟩-total configuration C' with V ⋠ V' forces n-k distinct
     processes other than p and p' to swap distinct objects in between.

     Non-dominated total pairs never arise under benign scheduling (every
     clean pass merges what it sees), so we build the adversarial schedule
     from the lemma's own proof idea: run p0 to totality, hide its counter
     by letting three fresh processes each swap one object (their written
     values predate the responses that would have taught them p0's laps),
     then run p4 to totality with a counter that never saw p0's. *)
  let n = 5 and k = 2 in
  let module P = (val make ~n:5 ~k:2 ~m:3 : Core.Swap_ksa.S) in
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let inputs = [| 0; 1; 1; 1; 1 |] in
  (* phase 1: p0 alone until the first total configuration *)
  let rec to_total c pid steps trace =
    if steps > 100 then Alcotest.fail (Fmt.str "p%d never reached totality" pid)
    else
      match M.total c with
      | Some (v, p) when p = pid -> c, v, trace
      | _ ->
        let c', s = M.E.step c pid in
        to_total c' pid (steps + 1) (s :: trace)
  in
  let c, v1, _ = to_total (M.E.initial ~inputs) 0 0 [] in
  (* phase 2: q_i advances i+1 steps, covering B_0..B_i with values written
     before each learned p0's counter *)
  let c, mid_rev =
    List.fold_left
      (fun (c, acc) (pid, steps) ->
        let rec burst c acc i =
          if i = 0 then c, acc
          else
            let c', s = M.E.step c pid in
            burst c' (s :: acc) (i - 1)
        in
        burst c acc steps)
      (c, []) [ 1, 1; 2, 2; 3, 3 ]
  in
  (* phase 3: p4 alone until totality *)
  let _, v2, tail_rev = to_total c 4 0 [] in
  Alcotest.(check bool) "constructed a non-dominated total pair" false
    (Core.Swap_ksa.dominates v2 v1);
  (* the lemma's conclusion on the observed steps between the totals *)
  let between = List.rev_append tail_rev [] @ List.rev mid_rev in
  let candidates =
    Array.init (n - k) (fun b ->
        List.filter_map
          (fun s ->
            if
              s.Shmem.Trace.op.Shmem.Op.obj = b
              && Shmem.Op.is_nontrivial s.Shmem.Trace.op
              && s.Shmem.Trace.pid <> 0 && s.Shmem.Trace.pid <> 4
            then Some s.Shmem.Trace.pid
            else None)
          between
        |> List.sort_uniq compare)
  in
  Alcotest.(check bool) "n-k distinct other processes swap distinct objects"
    true (perfect_matching candidates)

let test_ablation_unsafe_variants_caught () =
  (* the ablation knobs reproduce the design-space: a 1-lap lead and a
     no-merge variant both violate agreement (bench table T8) *)
  List.iter
    (fun (lead, merge) ->
      let (module P) =
        Core.Swap_ksa.make_ablation ~n:2 ~k:1 ~m:2 ~lead ~merge ()
      in
      let module C = Checker.Make (P) in
      let prune (c : C.E.config) = Util.lap_prune_pair 4 c.C.E.mem in
      let r = C.explore_all_inputs ~prune ~max_configs:100_000 () in
      Alcotest.(check bool)
        (Fmt.str "lead=%d merge=%b unsafe" lead merge)
        false (Checker.ok r))
    [ 1, true; 2, false ]

let test_ablation_safe_variant () =
  let (module P) = Core.Swap_ksa.make_ablation ~n:2 ~k:1 ~m:2 ~lead:3 () in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) = Util.lap_prune_pair 5 c.C.E.mem in
  Util.check_ok "lead=3 safe"
    (C.explore_all_inputs ~prune ~max_configs:300_000 ())

let test_crash_tolerance () =
  (* obstruction-freedom tolerates any number of crashes: with 3 of 6
     processes crashed mid-run (one mid-pass, holding a pending swap), the
     survivors still decide, agree and stay valid *)
  let (module P) = make ~n:6 ~k:2 ~m:3 in
  let module E = Shmem.Exec.Make (P) in
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 10 do
    let inputs = Array.init 6 (fun _ -> Random.State.int rng 3) in
    let crash_at = [ 1, 3; 3, 17; 5, 40 ] in
    let sched =
      E.with_crashes ~crash_at (E.bursty rng ~burst:100)
    in
    let c, _, _ = E.run ~sched ~max_steps:50_000 (E.initial ~inputs) in
    List.iter
      (fun pid ->
        if not (List.mem_assoc pid crash_at) then
          Alcotest.(check bool)
            (Fmt.str "survivor p%d decided" pid)
            true
            (E.decision c pid <> None))
      (List.init 6 Fun.id);
    Alcotest.(check bool) "agreement" true (E.check_agreement c);
    Alcotest.(check bool) "validity" true (E.check_validity ~inputs c)
  done

let test_dominates () =
  Alcotest.(check bool) "refl" true (Core.Swap_ksa.dominates [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "strict" true (Core.Swap_ksa.dominates [| 2; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "incomparable" false
    (Core.Swap_ksa.dominates [| 2; 0 |] [| 1; 2 |]);
  try
    ignore (Core.Swap_ksa.dominates [| 1 |] [| 1; 2 |]);
    Alcotest.fail "length mismatch accepted"
  with Invalid_argument _ -> ()

let prop_random_schedules_agree =
  QCheck2.Test.make ~name:"random schedules: k-agreement + validity"
    ~count:40
    QCheck2.Gen.(
      quad (int_range 2 7) (int_range 1 3) (int_range 2 4) int)
    (fun (n, k, m, seed) ->
      QCheck2.assume (n > k);
      let (module P) = make ~n ~k ~m in
      let module C = Checker.Make (P) in
      let r = C.random_runs ~seed ~runs:3 ~max_steps:20_000 () in
      Checker.ok r)

(* ------------------------------------------------- kernel differential *)

(* Lines 8-20 as first transcribed, kept verbatim as the reference for the
   one-pass [on_response]: [absorb] (lines 8-12) builds the state record,
   then the index update or [end_of_pass] (lines 13-20) builds it again,
   and lap equality is mutual dominance. *)
module Reference = struct
  type state = {
    pid : int;
    u : int array;
    i : int;
    conflict : bool;
    decided : int option;
  }

  let dominates v' v =
    if Array.length v' <> Array.length v then
      invalid_arg "Swap_ksa.dominates: length mismatch";
    let rec go j = j >= Array.length v || (v.(j) <= v'.(j) && go (j + 1)) in
    go 0

  let leader u =
    let v = ref 0 in
    for j = 1 to Array.length u - 1 do
      if u.(j) > u.(!v) then v := j
    done;
    !v

  let leads_by u v ~lead =
    let ok = ref true in
    for j = 0 to Array.length u - 1 do
      if j <> v && u.(v) < u.(j) + lead then ok := false
    done;
    !ok

  let absorb ~m ~merge s resp =
    let u', p' =
      match resp with
      | V.Pair (V.Ints u', p') -> u', p'
      | v -> invalid_arg (Fmt.str "swap-ksa: malformed object value %a" V.pp v)
    in
    let same_id = match p' with V.Pid q -> q = s.pid | _ -> false in
    let same_u =
      Array.length u' = Array.length s.u && dominates s.u u' && dominates u' s.u
    in
    let conflict = s.conflict || not (same_id && same_u) in
    let u =
      if same_u || not merge then s.u
      else Array.init m (fun j -> max s.u.(j) u'.(j))
    in
    { s with u; conflict }

  let end_of_pass ~lead s =
    if s.conflict then { s with i = 0; conflict = false }
    else
      let v = leader s.u in
      if leads_by s.u v ~lead then { s with decided = Some v }
      else begin
        let u = Array.copy s.u in
        u.(v) <- u.(v) + 1;
        { s with u; i = 0; conflict = false }
      end

  let on_response ~nk ~m ~lead ~merge s resp =
    let s = absorb ~m ~merge s resp in
    if s.i + 1 < nk then { s with i = s.i + 1 }
    else end_of_pass ~lead { s with i = nk }
end

type kernel_response =
  | Own  (** the process's own poised pair, sharing its lap array *)
  | Copy  (** an equal pair built from a copy of the lap array *)
  | Other of int * int array  (** some pid's pair (possibly the own pid) *)
  | Initial  (** the objects' initial ⟨0…0, ⊥⟩ *)
  | Malformed  (** not a ⟨laps, id⟩ pair *)

type kernel_case = {
  nk : int;
  k : int;
  m : int;
  pid : int;
  u : int array;
  i : int;
  conflict : bool;
  resp : kernel_response;
}

let kernel_case_gen =
  let open QCheck2.Gen in
  int_range 1 4 >>= fun nk ->
  int_range 1 3 >>= fun k ->
  int_range 2 4 >>= fun m ->
  let n = nk + k in
  let laps = array_repeat m (int_bound 4) in
  int_bound (n - 1) >>= fun pid ->
  laps >>= fun u ->
  (* end-of-pass responses (lines 13-20) are the interesting ones *)
  frequency [ 1, return (nk - 1); 1, int_bound (nk - 1) ] >>= fun i ->
  bool >>= fun conflict ->
  frequency
    [ 3, return Own
    ; 2, return Copy
    ; 2, map2 (fun q v -> Other (q, v)) (int_bound (n - 1)) laps
    ; 1, map (fun q -> Other (q, Array.copy u)) (int_bound (n - 1))
    ; 1, return Initial
    ; 1, return Malformed
    ]
  >>= fun resp -> return { nk; k; m; pid; u; i; conflict; resp }

let print_kernel_case c =
  let ints = Fmt.(brackets (array ~sep:(any ";") int)) in
  Fmt.str "nk=%d k=%d m=%d pid=%d u=%a i=%d conflict=%b resp=%s" c.nk c.k c.m
    c.pid ints c.u c.i c.conflict
    (match c.resp with
    | Own -> "own"
    | Copy -> "copy"
    | Other (q, v) -> Fmt.str "<%a,p%d>" ints v q
    | Initial -> "initial"
    | Malformed -> "malformed")

(* [on_response] agrees with the reference on arbitrary undecided states,
   under every lead/merge ablation, and leaves its input state intact *)
let prop_kernel_matches_reference =
  QCheck2.Test.make ~name:"on_response = reference lines 8-20" ~count:1000
    ~print:print_kernel_case kernel_case_gen (fun c ->
      List.for_all
        (fun (lead, merge) ->
          let (module P) =
            Core.Swap_ksa.make_with_fields ~n:(c.nk + c.k) ~k:c.k ~m:c.m ~lead
              ~merge ()
          in
          let s =
            P.of_fields ~pid:c.pid ~laps:(Array.copy c.u) ~mid_pass:c.i
              ~in_conflict:c.conflict ~decided:None
          in
          let resp =
            match c.resp with
            | Own -> (
              match P.poised s with
              | { Shmem.Op.action = Shmem.Op.Swap v; _ } -> v
              | _ -> Alcotest.fail "swap-ksa poised a non-swap")
            | Copy -> V.Pair (V.Ints (Array.copy c.u), V.Pid c.pid)
            | Other (q, v) -> V.Pair (V.Ints v, V.Pid q)
            | Initial -> P.init_object 0
            | Malformed -> V.Int 3
          in
          let r =
            { Reference.pid = c.pid
            ; u = Array.copy c.u
            ; i = c.i
            ; conflict = c.conflict
            ; decided = None
            }
          in
          let raises_or f =
            match f () with
            | x -> Some x
            | exception Invalid_argument _ -> None
          in
          let agree =
            match
              ( raises_or (fun () -> P.on_response s resp),
                raises_or (fun () ->
                    Reference.on_response ~nk:c.nk ~m:c.m ~lead ~merge r resp)
              )
            with
            | Some s', Some r' ->
              P.equal_state s'
                (P.of_fields ~pid:r'.pid ~laps:r'.u ~mid_pass:r'.i
                   ~in_conflict:r'.conflict ~decided:r'.decided)
              && P.decision s' = r'.decided
            | None, None -> true (* the malformed-response error *)
            | _ -> false
          in
          agree && P.laps s = c.u)
        [ 1, true; 2, true; 3, true; 1, false; 2, false; 3, false ])

let () =
  Alcotest.run "swap_ksa"
    [ ( "structure",
        [ Alcotest.test_case "parameters validated" `Quick
            test_parameters_validated
        ; Alcotest.test_case "object count n-k, swap-only" `Quick
            test_object_count
        ; Alcotest.test_case "dominates" `Quick test_dominates
        ] )
    ; ( "correctness",
        [ Alcotest.test_case "solo decides own input" `Quick
            test_solo_decides_own_input
        ; Alcotest.test_case "Lemma 8 solo bound" `Quick test_solo_step_bound
        ; Alcotest.test_case "exhaustive n=2 k=1 m=2" `Quick test_exhaustive_n2
        ; Alcotest.test_case "exhaustive n=2 k=1 m=3" `Slow
            test_exhaustive_n2_m3
        ; Alcotest.test_case "exhaustive n=3 k=2 m=3" `Slow
            test_exhaustive_n3_k2
        ; Alcotest.test_case "exhaustive n=3 k=1 (one input vector)" `Slow
            test_exhaustive_n3_k1_one_input
        ; Alcotest.test_case "monitored random runs" `Quick
            test_monitored_random_runs
        ; Alcotest.test_case "bursty schedules terminate" `Quick
            test_bursty_schedules_terminate
        ; Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance
        ] )
    ; ( "lemmas",
        [ Alcotest.test_case "Lemma 5 on observed executions" `Quick
            test_lemma5_on_observed_executions
        ] )
    ; ( "ablations",
        [ Alcotest.test_case "unsafe variants caught" `Quick
            test_ablation_unsafe_variants_caught
        ; Alcotest.test_case "lead=3 still safe" `Slow
            test_ablation_safe_variant
        ] )
    ; ( "monitors",
        [ Alcotest.test_case "monitor catches shrink" `Quick
            test_monitor_catches_violation
        ; Alcotest.test_case "total configurations (Observation 2)" `Quick
            test_total_configuration_detected
        ] )
    ; Util.qsuite "properties"
        [ prop_random_schedules_agree; prop_kernel_matches_reference ]
    ]
