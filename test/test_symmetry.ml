(* Differential tests for the symmetry reduction: with it on, the checker
   must reach the same verdicts and the same reachable decision sets as the
   unreduced engine, with interned counts related by at most the orbit
   bound n!; violation traces found in the reduced graph must replay
   concretely from the initial configuration.  Plus qcheck laws for the
   [Value.rename] machinery the reduction is built on. *)

module Sh = Shmem

let factorial n =
  let r = ref 1 in
  for i = 2 to n do
    r := !r * i
  done;
  !r

(* ------------------------------------------------- value rename laws *)

let gen_value =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self size ->
         let base =
           oneof
             [ return Sh.Value.Unit
             ; return Sh.Value.Bot
             ; map (fun i -> Sh.Value.Int i) (int_range 0 20)
             ; map (fun p -> Sh.Value.Pid p) (int_range 0 7)
             ; map
                 (fun l -> Sh.Value.ints (Array.of_list l))
                 (list_size (int_range 0 3) (int_range 0 5))
             ]
         in
         if size <= 0 then base
         else
           oneof
             [ base
             ; map2
                 (fun a b -> Sh.Value.Pair (a, b))
                 (self (size / 2)) (self (size / 2))
             ])

let value_tests =
  let mk name prop =
    QCheck2.Test.make ~name ~count:500 ~print:Sh.Value.to_string gen_value
      prop
  in
  [ mk "rename id is the identity" (fun v ->
        Sh.Value.equal (Sh.Value.rename Fun.id v) v)
  ; mk "rename composes" (fun v ->
        let f p = (p + 3) mod 8 and g p = (2 * p) mod 8 in
        Sh.Value.equal
          (Sh.Value.rename f (Sh.Value.rename g v))
          (Sh.Value.rename (fun p -> f (g p)) v))
  ; mk "hash_skel is rename-invariant" (fun v ->
        let f p = (p + 5) mod 8 in
        Sh.Value.hash_skel (Sh.Value.rename f v) = Sh.Value.hash_skel v)
  ; mk "fold_pids commutes with rename" (fun v ->
        let f p = (p + 1) mod 8 in
        let pids u = List.rev (Sh.Value.fold_pids (fun acc p -> p :: acc) [] u)
        in
        List.equal Int.equal
          (pids (Sh.Value.rename f v))
          (List.map f (pids v)))
  ]

(* ------------------------------------------ registry differentials *)

type run = {
  ok : bool;
  decisions : int list;  (* union of decided values over visited configs *)
  interned : int;
  truncated : bool;
}

let run_engine (module P : Sh.Protocol.S) ~sym ~prune ~inputs ~max_configs =
  let module C = Checker.Make (P) in
  let module X = C.X in
  let t = X.create ~sym ~inputs () in
  let seen = Hashtbl.create 16 in
  let violations = ref [] in
  let visit (v : X.visit) =
    let c = v.X.config in
    List.iter (fun d -> Hashtbl.replace seen d ()) (X.E.decided_values c);
    if not (X.E.check_agreement c) then violations := `Agreement :: !violations;
    if not (X.E.check_validity ~inputs c) then
      violations := `Validity :: !violations;
    List.iter
      (fun pid ->
        if not (X.solo_ok t ~pid c) then violations := `Solo :: !violations)
      (X.E.undecided c);
    if prune c.X.E.mem then X.Prune else X.Continue
  in
  let stats = X.bfs t ~max_configs ~visit () in
  { ok = !violations = []
  ; decisions =
      List.sort Stdlib.compare
        (Hashtbl.fold (fun d () acc -> d :: acc) seen [])
  ; interned = X.size t
  ; truncated = stats.X.truncated
  }

let diff_entry ?(max_configs = 30_000) (e : Baselines.Registry.entry) =
  let (module P) = e.protocol in
  let inputs = Array.init P.n (fun p -> p mod P.num_inputs) in
  let run ~sym = run_engine (module P) ~sym ~prune:e.prune ~inputs ~max_configs in
  let plain = run ~sym:false in
  let symr = run ~sym:true in
  (* verdicts must agree no matter what (these protocols are correct, so
     any reduced-run violation is a reduction soundness bug) *)
  Alcotest.(check bool) (e.name ^ ": plain ok") true plain.ok;
  Alcotest.(check bool) (e.name ^ ": sym ok") true symr.ok;
  (* the finer comparisons need both explorations to have completed *)
  if not (plain.truncated || symr.truncated) then begin
    Alcotest.(check (list int))
      (e.name ^ ": decision sets agree under sym")
      plain.decisions symr.decisions;
    if symr.interned > plain.interned then
      Alcotest.failf "%s: sym interned %d > unreduced %d" e.name symr.interned
        plain.interned;
    if plain.interned > symr.interned * factorial P.n then
      Alcotest.failf "%s: unreduced %d exceeds sym %d x n!" e.name
        plain.interned symr.interned
  end

let test_registry_diff () =
  List.iter diff_entry (Baselines.Registry.standard ~n:4 ())

let test_swap_ksa_n5_diff () =
  let (module P) = Core.Swap_ksa.make ~n:5 ~k:1 ~m:2 in
  let e : Baselines.Registry.entry =
    match Baselines.Registry.find "swap-ksa k=1" ~n:5 with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  diff_entry ~max_configs:120_000 e

(* ------------------------------------- violations survive reduction *)

(* an anonymous variant of [Util.stubborn_protocol]: every process swaps
   once and stubbornly decides its own input — agreement is violated, and
   the state carries no pid, so the reduction is maximally aggressive *)
let stubborn_anon ~n : Sh.Protocol.t =
  (module struct
    let name = "stubborn-anon"
    let n = n
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded |]
    let init_object _ = Sh.Value.Bot

    type state = { input : int; decided : int option }

    let init ~pid:_ ~input = { input; decided = None }
    let poised s = Sh.Op.swap 0 (Sh.Value.Int s.input)
    let on_response s _ = { s with decided = Some s.input }
    let decision s = s.decided

    let equal_state s1 s2 =
      s1.input = s2.input && Option.equal Int.equal s1.decided s2.decided

    let hash_state s = Sh.Hashx.(opt int (int seed s.input) s.decided)
    let pp_state ppf s = Fmt.pf ppf "{input=%d}" s.input

    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry =
      Sh.Protocol.Anonymous
        { canon_key = hash_state; rename = (fun _ s -> s) }
    let recovery = Sh.Protocol.Restart
  end)

let test_reduced_violation_replays () =
  let (module P) = stubborn_anon ~n:3 in
  let module C = Checker.Make (P) in
  let inputs = [| 0; 1; 1 |] in
  let r = C.explore ~sym:true ~inputs () in
  if Checker.ok r then Alcotest.fail "reduced run missed the violation";
  List.iter
    (fun (v : Checker.violation) ->
      (* the trace must be concrete: replaying it from the real initial
         configuration reproduces every recorded response... *)
      let c = C.E.replay (C.E.initial ~inputs) v.trace in
      (* ...and actually exhibits the violated property *)
      match v.property with
      | "k-agreement" ->
        Alcotest.(check bool)
          "replayed trace violates agreement" false (C.E.check_agreement c)
      | "validity" ->
        Alcotest.(check bool)
          "replayed trace violates validity" false
          (C.E.check_validity ~inputs c)
      | p -> Alcotest.failf "unexpected property %s" p)
    r.Checker.violations;
  (* and the unreduced checker agrees on the verdict *)
  let r0 = C.explore ~inputs () in
  Alcotest.(check bool) "unreduced verdict" false (Checker.ok r0)

let test_reduced_traces_replay_deep () =
  (* every interned id of a reduced exploration must reconstruct a
     replayable concrete schedule with permutation-invariant outcome *)
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let inputs = [| 0; 1; 0; 1 |] in
  let t = X.create ~sym:true ~inputs () in
  let ids = ref [] in
  let visit (v : X.visit) =
    if v.X.depth mod 3 = 0 then ids := v.X.id :: !ids;
    if Util.lap_prune_pair 2 (v.X.config).X.E.mem then X.Prune else X.Continue
  in
  ignore (X.bfs t ~max_configs:20_000 ~visit ());
  Alcotest.(check bool) "sym active" true (X.sym_enabled t);
  List.iter
    (fun id ->
      let tr = X.trace_to t id in
      (* [E.replay] asserts every response matches the recorded one *)
      let c = X.E.replay (X.E.initial ~inputs) tr in
      Alcotest.(check (list int))
        "decided values invariant across the orbit"
        (X.E.decided_values (X.config t id))
        (X.E.decided_values c))
    !ids

let test_walk_under_reduction () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let inputs = [| 1; 0; 1; 0 |] in
  let t = X.create ~sym:true ~inputs () in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 20 do
    let r =
      X.walk t ~sched:(X.E.random rng) ~max_steps:60
        ~visit:(fun _ -> X.Continue)
        ()
    in
    (* the interned id of the walk's last position must reconstruct a
       concrete, replayable schedule from the root *)
    let tr = X.trace_to t r.X.last in
    ignore (X.E.replay (X.E.initial ~inputs) tr)
  done

let test_all_inputs_multiset_dedup () =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  let prune c = Util.lap_prune_pair 2 c.C.E.mem in
  let full = C.explore_all_inputs ~prune () in
  let reduced = C.explore_all_inputs ~prune ~sym:true () in
  Alcotest.(check bool) "full ok" true (Checker.ok full);
  Alcotest.(check bool) "reduced ok" true (Checker.ok reduced);
  if reduced.Checker.configs_explored >= full.Checker.configs_explored then
    Alcotest.failf "input-multiset dedup saved nothing: %d >= %d"
      reduced.Checker.configs_explored full.Checker.configs_explored

let () =
  Alcotest.run "symmetry"
    [ Util.qsuite "value-rename" value_tests
    ; ( "differential",
        [ Alcotest.test_case "registry protocols at n=4" `Slow
            test_registry_diff
        ; Alcotest.test_case "swap-ksa at n=5" `Slow test_swap_ksa_n5_diff
        ] )
    ; ( "reduction",
        [ Alcotest.test_case "reduced violations replay" `Quick
            test_reduced_violation_replays
        ; Alcotest.test_case "reduced traces replay deep" `Quick
            test_reduced_traces_replay_deep
        ; Alcotest.test_case "walks intern under reduction" `Quick
            test_walk_under_reduction
        ; Alcotest.test_case "all-inputs multiset dedup" `Quick
            test_all_inputs_multiset_dedup
        ] )
    ]
