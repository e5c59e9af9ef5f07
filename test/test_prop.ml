(* Tests for the declarative property layer (lib/prop):

   - combinator unit tests (invariant / step relation / automaton /
     leads_to_within / product / select, the linear-run monitor);
   - the linear monitor over the §4 properties on seeded random runs of
     Algorithm 1, and a differential test proving the layer agrees
     verdict-for-verdict with the checker's built-in hooks on full
     explorations at n = 3..5 with and without symmetry reduction;
   - planted mutant protocols, one per §4 property, proving every declared
     property actually fires on a genuine violation — through the linear
     monitor, the exhaustive checker and the fault injector's
     property-oracle pipeline (detection, classification and
     class-preserving schedule shrinking). *)

module Sh = Shmem
module V = Sh.Value

let mk ~n ~k ~m = Core.Swap_ksa.make ~n ~k ~m

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

(* One fixed small instance for the unit tests. *)
module P2 = (val mk ~n:2 ~k:1 ~m:2)
module Pr2 = Prop.Make (P2)
module E2 = Sh.Exec.Make (P2)

let snap2 (c : E2.config) : Pr2.snap =
  { Pr2.states = c.E2.states; mem = c.E2.mem }

let s0 () = snap2 (E2.initial ~inputs:[| 0; 1 |])

(* snapshots of pid 0's solo execution, initial first, up to [steps]
   transitions or until it decides *)
let solo_snaps steps =
  let rec go c acc i =
    if i >= steps || E2.undecided c = [] || not (List.mem 0 (E2.undecided c))
    then List.rev acc
    else
      let c', _ = E2.step c 0 in
      go c' (snap2 c' :: acc) (i + 1)
  in
  let c0 = E2.initial ~inputs:[| 0; 1 |] in
  go c0 [ snap2 c0 ] 0

let test_shapes () =
  let inv = Pr2.always ~name:"a" (fun _ -> true) in
  let step =
    Pr2.step_rel ~name:"s" ~desc:"" (fun ~before:_ ~pid:_ ~after:_ -> None)
  in
  let auto =
    Pr2.automaton ~name:"t" ~desc:""
      ~init:(fun _ -> Ok 0)
      ~next:(fun st ~before:_ ~pid:_ ~after:_ -> Ok st)
      ()
  in
  let flags p = Pr2.(has_config p, has_step p, has_auto p) in
  Alcotest.(check (triple bool bool bool)) "invariant" (true, false, false)
    (flags inv);
  Alcotest.(check (triple bool bool bool)) "step" (false, true, false)
    (flags step);
  Alcotest.(check (triple bool bool bool)) "automaton" (false, false, true)
    (flags auto);
  let spec = Pr2.spec Pr2.agreement in
  Alcotest.(check string) "built-in name" "k-agreement" spec.Prop.name;
  Alcotest.(check string) "kind renders" "invariant"
    (Prop.kind_to_string spec.Prop.kind);
  let rendered = Fmt.str "%a" Prop.pp_spec spec in
  Alcotest.(check bool) "pp_spec mentions name and kind" true
    (let re = "k-agreement [invariant]" in
     let n = String.length rendered and m = String.length re in
     let rec at i = i + m <= n && (String.sub rendered i m = re || at (i + 1)) in
     at 0)

let test_eval_config () =
  let s = s0 () in
  Alcotest.(check (list int)) "nobody decided" []
    (Prop.decided_values P2.decision s.Pr2.states);
  let good = Pr2.always ~name:"good" (fun _ -> true) in
  let bad = Pr2.never ~name:"bad" (fun _ -> true) in
  Alcotest.(check bool) "always true holds" true
    (Pr2.eval_config good s = None);
  Alcotest.(check bool) "never true violated" true
    (Pr2.eval_config bad s <> None);
  Alcotest.(check bool) "step prop has no config check" true
    (Pr2.eval_config
       (Pr2.step_rel ~name:"s" ~desc:"" (fun ~before:_ ~pid:_ ~after:_ ->
            Some "x"))
       s
    = None);
  Alcotest.(check bool) "agreement holds initially" true
    (Pr2.eval_config Pr2.agreement s = None);
  Alcotest.(check bool) "validity holds initially" true
    (Pr2.eval_config (Pr2.validity ~inputs:[| 0; 1 |]) s = None);
  (* the shared rules on a bare states array: p0 and p1 each run solo on
     their own inputs, so the two decide 0 and 1 *)
  let solo pid =
    match E2.run_solo ~pid ~max_steps:1_000 (E2.initial ~inputs:[| 0; 1 |]) with
    | Some (c, _) -> c.E2.states.(pid)
    | None -> Alcotest.failf "p%d solo run stuck" pid
  in
  let two = { s with Pr2.states = [| solo 0; solo 1 |] } in
  Alcotest.(check (option string)) "agreement at k, as the built-in reports it"
    (Pr2.eval_config Pr2.agreement two)
    (Pr2.check_agreement ~bound:P2.k two.Pr2.states);
  Alcotest.(check (option string)) "agreement detail at k"
    (Some "values 0,1 decided (k=1)")
    (Pr2.check_agreement ~bound:P2.k two.Pr2.states);
  Alcotest.(check (option string)) "agreement holds at k + 1" None
    (Pr2.check_agreement ~bound:(P2.k + 1) two.Pr2.states);
  Alcotest.(check (option string)) "agreement detail names a bound other than k"
    (Some "values 0,1 decided (k=1, bound=0)")
    (Pr2.check_agreement ~bound:0 two.Pr2.states);
  Alcotest.(check (option string)) "validity detail"
    (Some "decided values 0,1, inputs 0,0")
    (Pr2.check_validity ~inputs:[| 0; 0 |] two.Pr2.states)

(* k-agreement and validity run at every visited configuration: where
   they hold they allocate nothing (the minor-words reading itself boxes a
   float or two) *)
let test_builtins_allocate_nothing () =
  let decided = List.nth (solo_snaps 20) (List.length (solo_snaps 20) - 1) in
  Alcotest.(check (list int)) "p0 decided" [ 0 ]
    (Prop.decided_values P2.decision decided.Pr2.states);
  let validity = Pr2.validity ~inputs:[| 0; 1 |] in
  List.iter
    (fun (what, p) ->
      Alcotest.(check (option string)) (what ^ " holds") None (Pr2.eval_config p decided);
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Pr2.eval_config p decided))
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool) (Fmt.str "%s: %.0f words for 1000 checks" what words) true
        (words < 100.))
    [ "k-agreement", Pr2.agreement; "validity", validity ]

let test_product_select () =
  let a = Pr2.always ~name:"a" (fun _ -> true) in
  let b = Pr2.never ~name:"b" (fun _ -> true) in
  let prod = Pr2.product ~name:"a&b" [ a; b ] in
  (match Pr2.eval_config prod (s0 ()) with
  | Some d ->
    Alcotest.(check bool)
      (Fmt.str "detail %S names the violated component" d)
      true
      (String.length d >= 1 && String.sub d 0 1 = "b")
  | None -> Alcotest.fail "product missed its violated component");
  (match Pr2.product ~name:"empty" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "product accepted the empty list");
  (match Pr2.select ~names:[ "b"; "a" ] [ a; b ] with
  | Ok sel ->
    Alcotest.(check (list string)) "select keeps original order" [ "a"; "b" ]
      (List.map Pr2.name sel)
  | Error e -> Alcotest.failf "select rejected known names: %s" e);
  match Pr2.select ~names:[ "a"; "bogus" ] [ a; b ] with
  | Ok _ -> Alcotest.fail "select accepted an unknown name"
  | Error e ->
    Alcotest.(check bool) (Fmt.str "error %S names the culprit" e) true
      (let re = "bogus" in
       let n = String.length e and m = String.length re in
       let rec at i = i + m <= n && (String.sub e i m = re || at (i + 1)) in
       at 0)

let test_leads_to_within () =
  (match
     Pr2.leads_to_within ~name:"z" ~trigger:(fun _ -> true)
       ~goal:(fun _ -> true) ~within:0 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "leads_to_within accepted within = 0");
  let decided s = Option.is_some (P2.decision s.Pr2.states.(0)) in
  let run_monitor prop snaps =
    match snaps with
    | [] -> None
    | first :: rest ->
      let mon, at_init = Pr2.start [ prop ] first in
      (match at_init with
      | Some v -> Some v
      | None ->
        let rec go prev = function
          | [] -> None
          | s :: tl -> (
            match Pr2.advance mon ~before:prev ~pid:0 ~after:s with
            | Some v -> Some v
            | None -> go s tl)
        in
        go first rest)
  in
  let snaps = solo_snaps 20 in
  Alcotest.(check bool) "pid 0 decides solo within 20 steps" true
    (List.exists decided snaps);
  let tight =
    Pr2.leads_to_within ~name:"decides-in-1" ~trigger:(fun _ -> true)
      ~goal:decided ~within:1 ()
  in
  (match run_monitor tight snaps with
  | Some (name, _) ->
    Alcotest.(check string) "tight bound violated" "decides-in-1" name
  | None -> Alcotest.fail "decides-in-1 should fail on a multi-step run");
  let loose =
    Pr2.leads_to_within ~name:"decides-in-100" ~trigger:(fun _ -> true)
      ~goal:decided ~within:100 ()
  in
  match run_monitor loose snaps with
  | None -> ()
  | Some (name, d) -> Alcotest.failf "loose bound fired: %s: %s" name d

let test_monitor_automaton_dies () =
  let rejector =
    Pr2.automaton ~name:"rejector" ~desc:""
      ~init:(fun _ -> Ok ())
      ~next:(fun () ~before:_ ~pid:_ ~after:_ -> Error "rejected")
      ()
  in
  let snaps = solo_snaps 3 in
  let s0, s1, s2 =
    match snaps with
    | a :: b :: c :: _ -> a, b, c
    | _ -> Alcotest.fail "short solo run"
  in
  let mon, at_init = Pr2.start [ rejector ] s0 in
  Alcotest.(check bool) "accepts at init" true (at_init = None);
  (match Pr2.advance mon ~before:s0 ~pid:0 ~after:s1 with
  | Some ("rejector", "rejected") -> ()
  | Some (n, d) -> Alcotest.failf "wrong violation %s: %s" n d
  | None -> Alcotest.fail "rejector did not reject");
  Alcotest.(check bool) "dead after rejecting" true
    (Pr2.advance mon ~before:s1 ~pid:0 ~after:s2 = None);
  (* an automaton rejecting at init is reported by start *)
  let dead_at_init =
    Pr2.automaton ~name:"doa" ~desc:""
      ~init:(fun _ -> Error "no")
      ~next:(fun () ~before:_ ~pid:_ ~after:_ -> Ok ())
      ()
  in
  match Pr2.start [ dead_at_init ] s0 with
  | _, Some ("doa", "no") -> ()
  | _, _ -> Alcotest.fail "init rejection not reported by start"

let test_obs_counters () =
  let checked = Obs.counter "prop.checked" in
  let violated = Obs.counter "prop.violated" in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let c0 = Obs.Counter.value checked
      and v0 = Obs.Counter.value violated in
      let s = s0 () in
      ignore (Pr2.eval_config Pr2.agreement s);
      ignore (Pr2.eval_config (Pr2.never ~name:"x" (fun _ -> true)) s);
      Alcotest.(check bool) "prop.checked advanced by 2" true
        (Obs.Counter.value checked = c0 + 2);
      Alcotest.(check bool) "prop.violated advanced by 1" true
        (Obs.Counter.value violated = v0 + 1))

(* ------------------------------------------------------------------ *)
(* The linear monitor on Algorithm 1's random runs                     *)
(* ------------------------------------------------------------------ *)

(* Step through seeded random runs with the §4 online properties
   positioned by [Pr.start] and advanced across every transition: none may
   fire on the real algorithm. *)
let test_linear_monitor_random_runs () =
  List.iter
    (fun (n, k, m) ->
      let module P = (val mk ~n ~k ~m) in
      let module M = Core.Swap_ksa_monitor.Make (P) in
      let module Pr = Prop.Make (P) in
      let module E = M.E in
      let snap (c : E.config) : Pr.snap =
        { Pr.states = c.E.states; mem = c.E.mem }
      in
      for seed = 0 to 9 do
        let rng = Random.State.make [| 0x9a0b; seed; n; k; m |] in
        let inputs = Array.init n (fun _ -> Random.State.int rng m) in
        let c = ref (E.initial ~inputs) in
        let mon, at_init = Pr.start M.online_props (snap !c) in
        Alcotest.(check bool) "clean at init" true (at_init = None);
        let steps = ref 0 in
        let continue = ref true in
        while !continue && !steps < 300 do
          match E.undecided !c with
          | [] -> continue := false
          | enabled ->
            let pid =
              List.nth enabled (Random.State.int rng (List.length enabled))
            in
            let c', _ = E.step !c pid in
            (match Pr.advance mon ~before:(snap !c) ~pid ~after:(snap c') with
            | None -> ()
            | Some (name, d) ->
              Alcotest.failf "linear monitor fired on Algorithm 1: %s: %s"
                name d);
            c := c';
            incr steps
        done
      done)
    [ 3, 1, 2; 4, 2, 3 ]

(* ------------------------------------------------------------------ *)
(* Differential: checker built-ins vs registry-attached properties     *)
(* ------------------------------------------------------------------ *)

(* Exploring with the §4 properties attached must not change the checker's
   verdict, the explored-configuration count or truncation — the extra
   properties ride along and simply never fire on the real algorithm.
   Covers n = 3..5, with and without symmetry reduction at the smaller
   instances. *)
let test_differential_checker () =
  let cases =
    (* (n, k, m, lap cap, max_configs, sym settings) *)
    [ 3, 1, 2, 2, 60_000, [ false; true ]
    ; 4, 3, 2, 3, 60_000, [ false; true ]
    ; 5, 4, 3, 2, 60_000, [ true ]
    ]
  in
  List.iter
    (fun (n, k, m, cap, max_configs, syms) ->
      let module P = (val mk ~n ~k ~m) in
      let module M = Core.Swap_ksa_monitor.Make (P) in
      let module C = Checker.Make (P) in
      let prune (c : C.E.config) = Util.lap_prune_pair cap c.C.E.mem in
      let inputs = Array.init n (fun pid -> pid mod m) in
      List.iter
        (fun sym ->
          let what = Fmt.str "n=%d k=%d m=%d sym=%b" n k m sym in
          let plain = C.explore ~max_configs ~prune ~sym ~inputs () in
          let with_props =
            C.explore ~max_configs ~prune ~sym
              ~extra_props:(fun _ -> M.online_props)
              ~inputs ()
          in
          Util.check_ok (what ^ " plain") plain;
          Util.check_ok (what ^ " with §4 props") with_props;
          Alcotest.(check int)
            (what ^ ": props do not change the explored count")
            plain.Checker.configs_explored
            with_props.Checker.configs_explored;
          Alcotest.(check bool)
            (what ^ ": props do not change truncation")
            plain.Checker.truncated with_props.Checker.truncated)
        syms)
    cases

let test_checker_select () =
  let module P = P2 in
  let module C = Checker.Make (P) in
  let inputs = [| 0; 1 |] in
  let all = C.explore ~inputs () in
  let named =
    C.explore ~inputs
      ~select:[ "k-agreement"; "validity"; "solo-termination" ]
      ()
  in
  Util.check_ok "default built-ins" all;
  Alcotest.(check int) "explicit selection explores the same graph"
    all.Checker.configs_explored named.Checker.configs_explored;
  let none = C.explore ~inputs ~select:[] () in
  Alcotest.(check int) "pure enumeration still covers the graph"
    all.Checker.configs_explored none.Checker.configs_explored;
  Alcotest.(check bool) "pure enumeration reports nothing" true
    (none.Checker.violations = []);
  match C.explore ~inputs ~select:[ "bogus" ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "select accepted an unknown property"

(* ------------------------------------------------------------------ *)
(* Planted mutants                                                     *)
(* ------------------------------------------------------------------ *)

(* Minimal Swap_ksa.S implementations (2 processes, one swap object, an
   m=2 lap vector) whose transition functions misbehave in exactly one
   way each, proving each declared property fires on the violation it was
   declared for.  [next ~tick laps] returns the post-step lap counter and
   decision; [swap_value] is what the process installs. *)
let mutant ~name
    ?(swap_value = fun laps pid -> V.Pair (V.Ints laps, V.Pid pid))
    ~(next : tick:int -> int array -> int array * int option) () :
    (module Core.Swap_ksa.S) =
  (module struct
    let name = name
    let n = 2
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded |]
    let init_object _ = V.Pair (V.Ints [| 0; 0 |], V.Bot)

    type state = {
      pid : int;
      laps : int array;
      decided : int option;
      tick : int;
    }

    let init ~pid ~input:_ = { pid; laps = [| 0; 0 |]; decided = None; tick = 0 }
    let poised s = Sh.Op.swap 0 (swap_value (Array.copy s.laps) s.pid)

    let on_response s _ =
      let laps, decided = next ~tick:s.tick s.laps in
      { s with laps; decided; tick = min (s.tick + 1) 7 }

    let decision s = s.decided
    let equal_state = ( = )
    let hash_state = Hashtbl.hash

    let pp_state ppf s =
      Fmt.pf ppf "{p%d laps=%a}" s.pid Fmt.(Dump.array int) s.laps

    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Sh.Protocol.Asymmetric
    let recovery = Sh.Protocol.Restart
    let laps s = Array.copy s.laps
    let laps_get s j = s.laps.(j)
    let preference s = if s.decided = None then Some 0 else None
    let mid_pass _ = 0
    let in_conflict _ = false
  end)

(* lap counter shrinks on the second step: Observation 3 *)
let shrink_laps_mutant () =
  mutant ~name:"mutant-shrink-laps"
    ~next:(fun ~tick _laps ->
      (if tick = 0 then [| 1; 0 |] else [| 0; 0 |]), None)
    ()

(* a component jumps by 2 in one step: Observation 1 *)
let jump_mutant () =
  mutant ~name:"mutant-lap-jump"
    ~next:(fun ~tick laps -> (if tick = 0 then [| 2; 0 |] else laps), None)
    ()

(* decides with zero laps: Observation 4 / line 16 *)
let zero_lead_mutant () =
  mutant ~name:"mutant-zero-lead"
    ~next:(fun ~tick laps -> laps, if tick = 0 then Some 0 else None)
    ()

(* installs ⟨[5;5], pid⟩ while its own counter stays zero: totality *)
let big_write_mutant () =
  mutant ~name:"mutant-big-write"
    ~swap_value:(fun _ pid -> V.Pair (V.Ints [| 5; 5 |], V.Pid pid))
    ~next:(fun ~tick:_ laps -> laps, None)
    ()

(* never decides: Lemma 8 / solo termination *)
let spinner_mutant () =
  mutant ~name:"mutant-spinner" ~next:(fun ~tick:_ laps -> laps, None) ()

let test_mutants_linear_monitor () =
  let expect_name planted expected select_totality_only =
    let (module P : Core.Swap_ksa.S) = planted in
    let module M = Core.Swap_ksa_monitor.Make (P) in
    let module Pr = Prop.Make (P) in
    let module E = M.E in
    let snap (c : E.config) : Pr.snap =
      { Pr.states = c.E.states; mem = c.E.mem }
    in
    let props =
      if select_totality_only then [ M.prop_totality ] else M.online_props
    in
    let c = ref (E.initial ~inputs:[| 0; 1 |]) in
    let mon, at_init = Pr.start props (snap !c) in
    Alcotest.(check bool) (P.name ^ ": clean at init") true (at_init = None);
    let rec go i =
      if i >= 10 then Alcotest.failf "%s: no violation in 10 steps" P.name
      else
        let c', _ = E.step !c 0 in
        match Pr.advance mon ~before:(snap !c) ~pid:0 ~after:(snap c') with
        | Some (got, _) ->
          Alcotest.(check string) (P.name ^ ": caught by") expected got
        | None ->
          c := c';
          go (i + 1)
    in
    go 0
  in
  expect_name (shrink_laps_mutant ()) "lap-domination" false;
  expect_name (jump_mutant ()) "max-lap-increment" false;
  expect_name (zero_lead_mutant ()) "decide-lead-by-2" false;
  (* the big write also trips max-lap-increment, which is checked first;
     monitoring totality alone shows the invariant itself fires *)
  expect_name (big_write_mutant ()) "total-config-domination" true

let test_mutant_solo_bound () =
  let (module P : Core.Swap_ksa.S) = spinner_mutant () in
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let module Pr = Prop.Make (P) in
  let module E = M.E in
  let c0 = E.initial ~inputs:[| 0; 1 |] in
  let s0 : Pr.snap = { Pr.states = c0.E.states; mem = c0.E.mem } in
  (match Pr.eval_config (M.prop_solo_bound ()) s0 with
  | Some _ -> ()
  | None -> Alcotest.fail "solo-bound accepted a spinner");
  (* the checker's built-in solo-termination hook agrees *)
  let module C = Checker.Make (P) in
  let r = C.explore ~max_configs:500 ~inputs:[| 0; 1 |] () in
  Alcotest.(check bool) "checker rejects the spinner" false (Checker.ok r);
  Alcotest.(check bool) "as a solo-termination violation" true
    (List.exists
       (fun (v : Checker.violation) -> v.Checker.property = "solo-termination")
       r.Checker.violations)

(* the unsafe ablation (decision lead 1) is a ready-made mutant for the
   checker path: exploring with the §4 properties attached must surface
   "decide-lead-by-2" with a replayable, shrinkable counterexample *)
let test_mutant_checker_and_shrink () =
  let module P = (val Core.Swap_ksa.make_ablation ~n:3 ~k:1 ~m:2 ~lead:1 ()) in
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) = Util.lap_prune_pair 3 c.C.E.mem in
  let inputs = [| 0; 1; 0 |] in
  let r =
    C.explore ~max_configs:100_000 ~prune ~check_solo:false
      ~extra_props:(fun _ -> M.online_props)
      ~inputs ()
  in
  Alcotest.(check bool) "lead-1 ablation rejected" false (Checker.ok r);
  match
    List.find_opt
      (fun (v : Checker.violation) ->
        v.Checker.property = "decide-lead-by-2")
      r.Checker.violations
  with
  | None ->
    Alcotest.fail "no decide-lead-by-2 violation on the lead-1 ablation"
  | Some v ->
    let shrunk =
      C.shrink_violation ~props:M.online_props ~inputs v
    in
    Alcotest.(check string) "shrinking preserves the property"
      "decide-lead-by-2" shrunk.Checker.property;
    Alcotest.(check bool) "shrunk trace is no longer" true
      (List.length shrunk.Checker.trace <= List.length v.Checker.trace)

(* ------------------------------------------------------------------ *)
(* Step guards                                                         *)
(* ------------------------------------------------------------------ *)

(* The guard contract on a product and on undeclared guards. *)
let test_guard_composition () =
  let yes _ _ _ _ = true and no _ _ _ _ = false in
  let rel ?guard name =
    Pr2.step_rel ~name ~desc:"" ?guard (fun ~before:_ ~pid:_ ~after:_ -> None)
  in
  let st = (s0 ()).Pr2.states.(0) and mem = (s0 ()).Pr2.mem in
  let guard_says p = Option.map (fun g -> g st mem st mem) (Pr2.joint_guard [ p ]) in
  Alcotest.(check (option bool)) "unguarded relation" None (guard_says (rel "u"));
  Alcotest.(check (option bool)) "declared guard" (Some false)
    (guard_says (rel ~guard:no "g"));
  Alcotest.(check (option bool)) "invariants have none" None
    (guard_says Pr2.agreement);
  Alcotest.(check (option bool)) "product: disjunction" (Some true)
    (guard_says
       (Pr2.product ~name:"p" [ rel ~guard:no "a"; rel ~guard:yes "b"; Pr2.agreement ]));
  Alcotest.(check (option bool)) "product: all clear" (Some false)
    (guard_says (Pr2.product ~name:"p" [ rel ~guard:no "a"; rel ~guard:no "b" ]));
  Alcotest.(check (option bool)) "product with an unguarded relation" None
    (guard_says (Pr2.product ~name:"p" [ rel ~guard:no "a"; rel "b" ]))

(* Algorithm 1 at n = 3, two of its ablations and the planted mutants
   whose step relations fail, with what their relations do *)
let guard_cases () =
  [ "Algorithm 1", mk ~n:3 ~k:1 ~m:2, `Silent
  ; "lead:1", Core.Swap_ksa.make_ablation ~n:3 ~k:1 ~m:2 ~lead:1 (), `Reports
  ; "merge:false", Core.Swap_ksa.make_ablation ~n:3 ~k:1 ~m:2 ~merge:false (), `Any
  ; "shrink-laps", shrink_laps_mutant (), `Reports
  ; "lap-jump", jump_mutant (), `Reports
  ; "zero-lead", zero_lead_mutant (), `Reports
  ; "big-write", big_write_mutant (), `Reports
  ]

(* Guard soundness: on every edge of the lap-2 graph, plain and reduced,
   a guard that says no means its relation reports nothing.  The
   traversal has no guard, so it reports every edge. *)
let test_guard_soundness () =
  List.iter
    (fun (what, (module P : Core.Swap_ksa.S), expect) ->
      let module M = Core.Swap_ksa_monitor.Make (P) in
      let module X = Explore.Make (P) in
      let module Pr = Prop.Make (P) in
      let inputs = Array.init P.n (fun pid -> pid mod P.num_inputs) in
      let guards =
        List.map
          (fun p ->
            match Pr.joint_guard [ p ] with
            | Some g -> p, g
            | None -> Alcotest.failf "%s declares no guard" (Pr.name p))
          M.step_props
      in
      List.iter
        (fun sym ->
          let what = Fmt.str "%s sym=%b" what sym in
          let t = X.create ~sym ~inputs () in
          let edges = ref 0 and fired = ref 0 and reported = ref 0 in
          let on_step (o : X.step_obs) =
            incr edges;
            let pid = o.X.step.Sh.Trace.pid in
            let before = { Pr.states = o.X.before.X.E.states; mem = o.X.before.X.E.mem }
            and after = { Pr.states = o.X.after.X.E.states; mem = o.X.after.X.E.mem } in
            List.iter
              (fun (p, g) ->
                let detail = Pr.eval_step p ~before ~pid ~after in
                if Option.is_some detail then incr reported;
                if g before.Pr.states.(pid) before.Pr.mem after.Pr.states.(pid) after.Pr.mem
                then incr fired
                else
                  match detail with
                  | None -> ()
                  | Some d ->
                    Alcotest.failf "%s: %s's guard is false on an edge it reports: %s"
                      what (Pr.name p) d)
              guards
          in
          let visit (v : X.visit) =
            if Util.lap_prune_pair 2 v.X.config.X.E.mem then X.Prune else X.Continue
          in
          ignore (X.bfs t ~max_configs:200_000 ~on_step ~visit ());
          Alcotest.(check bool) (what ^ ": edges seen") true (!edges > 0);
          match expect with
          | `Silent ->
            (* so the checker's guarded run spells no edge of Algorithm 1 *)
            Alcotest.(check int) (what ^ ": no guard fires") 0 !fired
          | `Reports ->
            Alcotest.(check bool) (what ^ ": the relations report") true (!reported > 0)
          | `Any -> ())
        [ false; true ])
    (guard_cases ())

(* Identical violations: [Checker.explore] with the §4 properties reports
   the same (property, detail, trace) list as with the same check
   functions re-declared without guards, which run on every edge. *)
let same_violations what (module P : Core.Swap_ksa.S) ~inputs ~prune ~expect =
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let module C = Checker.Make (P) in
  let module Pr = Prop.Make (P) in
  let bare p =
    if Pr.has_step p then
      Pr.step_rel ~name:(Pr.name p) ~desc:(Pr.spec p).Prop.desc
        (fun ~before ~pid ~after -> Pr.eval_step p ~before ~pid ~after)
    else p
  in
  let run props =
    C.explore ~max_configs:100_000
      ~prune:(fun (c : C.E.config) -> prune c.C.E.mem)
      ~check_solo:false
      ~extra_props:(fun _ -> props)
      ~inputs ()
  in
  let view (r : Checker.report) =
    List.map
      (fun (v : Checker.violation) ->
        v.Checker.property, v.Checker.detail, Fmt.str "%a" Sh.Trace.pp v.Checker.trace)
      r.Checker.violations
  in
  let guarded = view (run M.online_props) in
  let unguarded = view (run (List.map bare M.online_props)) in
  Alcotest.(check bool) (what ^ ": the guarded check has a " ^ expect ^ " violation") true
    (List.exists (fun (p, _, _) -> p = expect) guarded);
  Alcotest.(check (list (triple string string string)))
    (what ^ ": same violations with and without guards")
    unguarded guarded

let test_guard_same_violations () =
  same_violations "lead:1"
    (Core.Swap_ksa.make_ablation ~n:3 ~k:1 ~m:2 ~lead:1 ())
    ~inputs:[| 0; 1; 0 |]
    ~prune:(fun (mem : V.t array) -> Util.lap_prune_pair 2 mem)
    ~expect:"decide-lead-by-2";
  same_violations "shrink-laps mutant" (shrink_laps_mutant ()) ~inputs:[| 0; 1 |]
    ~prune:(fun _ -> false) ~expect:"lap-domination"

(* ------------------------------------------------------------------ *)
(* Fault-injection integration                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_prop_oracle () =
  let (module P : Core.Swap_ksa.S) = shrink_laps_mutant () in
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let module F = Fault.Sim (P) in
  let inputs = [| 0; 1 |] in
  let sched ~step_index:_ _ enabled =
    match enabled with [] -> None | pid :: _ -> Some pid
  in
  let report =
    F.run ~props:M.online_props [] ~sched ~max_steps:50 ~inputs
  in
  (match report.F.prop_violation with
  | Some ("lap-domination", _) -> ()
  | Some (name, d) -> Alcotest.failf "wrong property: %s: %s" name d
  | None -> Alcotest.fail "no property violation on the shrink-laps mutant");
  let violation =
    match F.detect ~inputs report with
    | Some (F.Property (name, _) as v) ->
      Alcotest.(check string) "detect classifies by name" "lap-domination"
        name;
      Alcotest.(check string) "class embeds the property name"
        "prop:lap-domination" (F.violation_class v);
      v
    | Some v ->
      Alcotest.failf "detect returned %a, not the property"
        F.pp_violation v
    | None -> Alcotest.fail "detect missed the property violation"
  in
  let schedule = F.schedule_of report in
  let shrunk = F.shrink ~props:M.online_props [] ~inputs violation schedule in
  Alcotest.(check bool) "shrunk schedule is no longer" true
    (List.length shrunk <= List.length schedule);
  let replay = F.run_schedule ~props:M.online_props [] ~inputs shrunk in
  match replay.F.prop_violation with
  | Some ("lap-domination", _) -> ()
  | _ -> Alcotest.fail "shrunk schedule lost the violation"

let test_fault_campaign_tally () =
  let (module P : Core.Swap_ksa.S) = shrink_laps_mutant () in
  let module M = Core.Swap_ksa_monitor.Make (P) in
  let module F = Fault.Sim (P) in
  let summary =
    F.campaign ~props:M.online_props ~inputs:[| 0; 1 |] ~max_steps:200
      ~seed:42 ~runs:4 ~kinds:[] ()
  in
  Alcotest.(check int) "every fault-free run violates" 4
    (List.length summary.F.violations);
  Alcotest.(check (list (pair string int))) "tallied per property"
    [ "lap-domination", 4 ]
    summary.F.prop_detections;
  (* on the real algorithm the §4 properties hold even under object
     faults (lap counters merge by componentwise max, so stale or torn
     responses cannot shrink them or mint laps): detections come from the
     atomicity replay and the protocol's own checks, and the property
     tally stays empty.  Freeze that fact. *)
  let module P3 = (val mk ~n:3 ~k:1 ~m:2) in
  let module M3 = Core.Swap_ksa_monitor.Make (P3) in
  let module F3 = Fault.Sim (P3) in
  let real =
    F3.campaign ~props:M3.online_props ~max_steps:20_000 ~seed:7 ~runs:10
      ~kinds:Fault.all_kinds ()
  in
  Alcotest.(check int) "nothing missed on Algorithm 1" 0 real.F3.missed;
  Alcotest.(check bool) "no benign-run violations on Algorithm 1" true
    (real.F3.violations = []);
  Alcotest.(check (list (pair string int)))
    "§4 properties hold under object faults" [] real.F3.prop_detections

let test_mc_oracles () =
  let module P = (val mk ~n:3 ~k:1 ~m:2) in
  let module F = Fault.Mc (P) in
  let flaky = ref 0 in
  let oracles =
    [ "always-happy", (fun ~inputs:_ _ -> Ok ())
    ; ( "always-grumpy",
        fun ~inputs:_ _ ->
          incr flaky;
          Error "unconditionally rejected" )
    ]
  in
  let summary =
    F.campaign ~oracles ~max_ops:20_000 ~seed:3 ~runs:2 ~kinds:[] ()
  in
  Alcotest.(check int) "grumpy oracle ran per run" 2 !flaky;
  Alcotest.(check (list (pair string int))) "failures tallied per oracle"
    [ "always-grumpy", 2 ]
    summary.F.prop_detections;
  Alcotest.(check int) "each failure is a violation" 2
    (List.length summary.F.violations)

(* ------------------------------------------------------------------ *)
(* Registry packs                                                      *)
(* ------------------------------------------------------------------ *)

let test_registry_packs () =
  let entries = Baselines.Registry.standard ~n:3 () in
  Alcotest.(check bool) "registry is populated" true (entries <> []);
  List.iter
    (fun (e : Baselines.Registry.entry) ->
      let specs = Prop.pack_specs e.props in
      let names = List.map (fun (s : Prop.spec) -> s.Prop.name) specs in
      if
        String.length e.name >= 8 && String.sub e.name 0 8 = "swap-ksa"
      then
        Alcotest.(check (list string))
          (e.name ^ " carries the §4 properties")
          [ "lap-domination"
          ; "decide-lead-by-2"
          ; "max-lap-increment"
          ; "total-config-domination"
          ]
          names
      else
        Alcotest.(check (list string))
          (e.name ^ " carries the generic pack")
          [ "k-agreement" ] names;
      (* pack-first unpacking: the pack's protocol instantiates a checker
         whose types unify with the pack's properties *)
      let (module Pk : Prop.PACK) = e.props in
      let module C = Checker.Make (Pk.P) in
      let r =
        C.explore ~max_configs:300 ~check_solo:false
          ~prune:(fun (c : C.E.config) -> Util.lap_prune_pair 1 c.C.E.mem)
          ~extra_props:(fun _ -> Pk.props)
          ~inputs:(Array.init Pk.P.n (fun pid -> pid mod Pk.P.num_inputs))
          ()
      in
      Util.check_ok (e.name ^ " bounded exploration with pack props") r)
    entries

let () =
  Alcotest.run "prop"
    [ ( "combinators",
        [ Alcotest.test_case "shapes and specs" `Quick test_shapes
        ; Alcotest.test_case "config evaluation" `Quick test_eval_config
        ; Alcotest.test_case "built-ins allocate nothing where they hold" `Quick
            test_builtins_allocate_nothing
        ; Alcotest.test_case "product and select" `Quick test_product_select
        ; Alcotest.test_case "leads_to_within" `Quick test_leads_to_within
        ; Alcotest.test_case "automaton lifecycle" `Quick
            test_monitor_automaton_dies
        ; Alcotest.test_case "obs counters" `Quick test_obs_counters
        ] )
    ; ( "differential",
        [ Alcotest.test_case "vs legacy monitor (random runs)" `Quick
            test_linear_monitor_random_runs
        ; Alcotest.test_case "vs checker built-ins (n=3..5, ±sym)"
            `Slow test_differential_checker
        ; Alcotest.test_case "property selection" `Quick test_checker_select
        ] )
    ; ( "mutants",
        [ Alcotest.test_case "each §4 property fires" `Quick
            test_mutants_linear_monitor
        ; Alcotest.test_case "solo bound and solo termination" `Quick
            test_mutant_solo_bound
        ; Alcotest.test_case "checker catches lead-1 ablation, shrinks"
            `Slow test_mutant_checker_and_shrink
        ] )
    ; ( "guards",
        [ Alcotest.test_case "composition" `Quick test_guard_composition
        ; Alcotest.test_case "sound on every edge (n=3, lap 2, ±sym)" `Quick
            test_guard_soundness
        ; Alcotest.test_case "same violations as without guards" `Quick
            test_guard_same_violations
        ] )
    ; ( "fault",
        [ Alcotest.test_case "property as detection oracle" `Quick
            test_fault_prop_oracle
        ; Alcotest.test_case "campaign tally" `Slow test_fault_campaign_tally
        ; Alcotest.test_case "multicore outcome oracles" `Slow
            test_mc_oracles
        ] )
    ; "packs", [ Alcotest.test_case "registry packs" `Quick test_registry_packs ]
    ]
