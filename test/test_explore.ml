(* The lib/explore refactor contract: rebasing the checker and the Theorem
   10 search onto the unified engine must be observationally invisible.
   These suites diff the production implementations against the frozen seed
   copies in [Seed_ref] (same instances, same seeds, field-by-field — for
   the checker literally [=] on whole reports), and exercise the engine
   surface the seed never had: DFS, walks, the memoized solo oracle and
   id-based trace reconstruction. *)

let report =
  Alcotest.testable Checker.pp_report (fun (a : Checker.report) b -> a = b)

(* ---------------------------------------------------- checker differential *)

let diff_explore name (module P : Shmem.Protocol.S) ?solo_cap ?prune_lap
    ~inputs () =
  let module C = Checker.Make (P) in
  let module R = Seed_ref.Checker_ref (P) in
  let prune =
    match prune_lap with
    | None -> None
    | Some bound -> Some (fun (c : C.E.config) -> Util.lap_prune_pair bound c.C.E.mem)
  in
  let new_report = C.explore ?solo_cap ?prune ~inputs () in
  let seed_report = R.explore ?solo_cap ?prune ~inputs () in
  Alcotest.check report (name ^ ": explore report identical to seed")
    seed_report new_report

let test_diff_stubborn () =
  diff_explore "stubborn" (Util.stubborn_protocol ()) ~inputs:[| 0; 1 |] ()

let test_diff_invalid () =
  diff_explore "invalid" (Util.invalid_protocol ()) ~inputs:[| 0; 0 |] ()

let test_diff_spinner () =
  diff_explore "spinner" (Util.spinner_protocol ()) ~solo_cap:64
    ~inputs:[| 0; 1 |] ()

let test_diff_cas () =
  diff_explore "cas" (Baselines.Cas_consensus.make ~n:2 ~m:2)
    ~inputs:[| 0; 1 |] ()

let test_diff_swap_ksa_all_inputs () =
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  List.iter
    (fun inputs ->
      diff_explore
        (Fmt.str "swap-ksa inputs=[%a]" Fmt.(array ~sep:(any ",") int) inputs)
        (module P) ~prune_lap:3 ~inputs ())
    (C.all_input_vectors ())

let test_diff_truncation () =
  (* the budget path: truncation flag and partial exploration must agree *)
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  let module R = Seed_ref.Checker_ref (P) in
  let inputs = [| 0; 1 |] in
  let new_report =
    C.explore ~max_configs:500 ~check_solo:false ~inputs ()
  in
  let seed_report =
    R.explore ~max_configs:500 ~check_solo:false ~inputs ()
  in
  Alcotest.check report "truncated run identical to seed" seed_report
    new_report

let test_diff_random_runs () =
  let check name (module P : Shmem.Protocol.S) ~runs ~max_steps
      ~solo_check_every =
    let module C = Checker.Make (P) in
    let module R = Seed_ref.Checker_ref (P) in
    let new_report = C.random_runs ~runs ~max_steps ~solo_check_every () in
    let seed_report = R.random_runs ~runs ~max_steps ~solo_check_every () in
    Alcotest.check report (name ^ ": random_runs identical to seed")
      seed_report new_report
  in
  check "stubborn" (Util.stubborn_protocol ()) ~runs:50 ~max_steps:100
    ~solo_check_every:0;
  check "swap-ksa n=3"
    (let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
     (module P))
    ~runs:10 ~max_steps:200 ~solo_check_every:50

(* -------------------------------------------------- theorem 10 differential *)

(* The certificate types of the production and reference drivers are
   distinct nominal records; compare them through a shared summary. *)
let test_diff_theorem10 () =
  let diff ~n ~k ~search_rounds =
    let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
    let module T = Lowerbound.Theorem10.Make (P) in
    let module R = Seed_ref.Theorem10_ref (P) in
    let t_cert = T.run ~search_rounds () in
    let r_cert = R.run ~search_rounds () in
    let t_levels =
      List.map
        (function
          | T.Base c -> `Base (c.T.L9.objects_forced, c.T.L9.gamma, c.T.L9.delta)
          | T.Found_k_values { r; alpha; cert } ->
            `Found
              (r, alpha, cert.T.L9.objects_forced, cert.T.L9.gamma,
               cert.T.L9.delta)
          | T.Recursed { r } -> `Recursed r)
        t_cert.T.levels
    in
    let r_levels =
      List.map
        (function
          | R.Base c -> `Base (c.R.L9.objects_forced, c.R.L9.gamma, c.R.L9.delta)
          | R.Found_k_values { r; alpha; cert } ->
            `Found
              (r, alpha, cert.R.L9.objects_forced, cert.R.L9.gamma,
               cert.R.L9.delta)
          | R.Recursed { r } -> `Recursed r)
        r_cert.R.levels
    in
    Alcotest.(check bool)
      (Fmt.str "n=%d k=%d: certificate identical to seed" n k)
      true
      (t_levels = r_levels
      && t_cert.T.objects_forced = r_cert.R.objects_forced
      && t_cert.T.bound = r_cert.R.bound)
  in
  diff ~n:4 ~k:1 ~search_rounds:30;
  diff ~n:6 ~k:2 ~search_rounds:30;
  diff ~n:9 ~k:3 ~search_rounds:30

(* --------------------------------------------------------- engine surface *)

let test_dfs_covers_same_space () =
  (* on a finite graph BFS and DFS must intern the same configuration set *)
  let (module P) = Baselines.Cas_consensus.make ~n:2 ~m:2 in
  let module X = Explore.Make (P) in
  let inputs = [| 0; 1 |] in
  let run strat =
    let t = X.create ~inputs () in
    let stats = strat t ~visit:(fun _ -> X.Continue) () in
    stats.X.visited, X.size t
  in
  let bfs_visited, bfs_size = run (fun t ~visit () -> X.bfs t ~visit ()) in
  let dfs_visited, dfs_size = run (fun t ~visit () -> X.dfs t ~visit ()) in
  Alcotest.(check int) "same configs interned" bfs_size dfs_size;
  Alcotest.(check int) "same configs visited" bfs_visited dfs_visited;
  Alcotest.(check int) "every interned config visited once" bfs_size
    bfs_visited

let test_trace_to_replays () =
  (* every back-edge path must replay from the root to its configuration *)
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let inputs = [| 0; 1 |] in
  let t = X.create ~inputs () in
  let checked = ref 0 in
  let visit (v : X.visit) =
    if v.X.id mod 7 = 0 then begin
      incr checked;
      let c = X.E.replay (X.E.initial ~inputs) (X.trace_to t v.X.id) in
      if not (X.E.equal_config c v.X.config) then
        Alcotest.failf "trace_to id %d does not replay to its config" v.X.id;
      (* the lazy visitor path must spell the same schedule *)
      if Lazy.force v.X.path <> X.trace_to t v.X.id then
        Alcotest.failf "visit.path diverges from trace_to at id %d" v.X.id
    end;
    if Util.lap_prune_pair 2 v.X.config.X.E.mem then X.Prune else X.Continue
  in
  ignore (X.bfs t ~visit ());
  Alcotest.(check bool) "sampled some ids" true (!checked > 5)

(* The oracle against direct solo runs, exactly: at every visited
   configuration and for every undecided pid, [X.solo_steps] must equal the
   length of [E.run_solo]'s trace under the same cap ([None] beyond it).
   Queries run in BFS order, so most verdicts are served from the memo or
   from positions an earlier miss recorded along its solo chain.  A second
   oracle answers the same queries, asked before or after the first by
   turns, so neither may reuse the other's memory keys.  The first oracle
   is asked again on copies of the configuration's arrays, which it cannot
   recognise by identity, so it hashes and interns them.  Returns how many
   verdicts were [None] and how many decided at exactly the cap. *)
let solo_differential name (module P : Shmem.Protocol.S) ~sym ?solo_cap
    ~prune ~inputs () =
  let module X = Explore.Make (P) in
  let t = X.create ?solo_cap ~sym ~inputs () in
  let other = X.create ?solo_cap ~sym ~inputs () in
  let cap = X.solo_cap t in
  let checked = ref 0 and none = ref 0 and at_cap = ref 0 in
  let visit (v : X.visit) =
    List.iter
      (fun pid ->
        incr checked;
        let direct =
          Option.map
            (fun (_, trace) -> Shmem.Trace.length trace)
            (X.E.run_solo ~pid ~max_steps:cap v.X.config)
        in
        let ask t =
          let memo = X.solo_steps t ~pid v.X.config in
          if direct <> memo then
            Alcotest.failf "%s: id %d p%d: oracle %a, run_solo %a" name
              v.X.id pid
              Fmt.(option ~none:(any "None") int)
              memo
              Fmt.(option ~none:(any "None") int)
              direct
        in
        if (v.X.id + pid) mod 2 = 0 then (ask t; ask other)
        else (ask other; ask t);
        let c = v.X.config in
        let copy = X.E.unsafe_config ~states:c.X.E.states ~mem:c.X.E.mem in
        let copied = X.solo_steps t ~pid copy in
        if direct <> copied then
          Alcotest.failf "%s: id %d p%d: oracle on copies %a, run_solo %a" name
            v.X.id pid
            Fmt.(option ~none:(any "None") int)
            copied
            Fmt.(option ~none:(any "None") int)
            direct;
        match direct with
        | None -> incr none
        | Some l -> if l = cap then incr at_cap)
      (X.E.undecided v.X.config);
    if prune v.X.config.X.E.mem then X.Prune else X.Continue
  in
  ignore (X.bfs t ~max_configs:20_000 ~visit ());
  Alcotest.(check bool) (name ^ ": checked verdicts") true (!checked > 100);
  !none, !at_cap

let test_solo_oracle_consistent () =
  let swap_ksa =
    let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
    (module P : Shmem.Protocol.S)
  in
  let bitwise = Baselines.Bitwise_consensus.make ~n:2 ~m:3 ~cap:6 in
  let lap2 = Util.lap_prune_pair 2 in
  let near_cap = Baselines.Bitwise_consensus.near_cap ~n:2 ~m:3 ~cap:6 ~margin:2 in
  let cases =
    [ "swap-ksa plain", swap_ksa, false, None, lap2, [| 0; 1; 0 |];
      "swap-ksa sym", swap_ksa, true, None, lap2, [| 0; 1; 0 |];
      "swap-ksa plain cap 7", swap_ksa, false, Some 7, lap2, [| 0; 1; 0 |];
      "swap-ksa sym cap 7", swap_ksa, true, Some 7, lap2, [| 0; 1; 0 |];
      "bitwise", bitwise, false, None, near_cap, [| 0; 2 |];
      "bitwise cap 9", bitwise, false, Some 9, near_cap, [| 0; 2 |]
    ]
  in
  List.iter
    (fun (name, p, sym, solo_cap, prune, inputs) ->
      let none, at_cap = solo_differential name p ~sym ?solo_cap ~prune ~inputs () in
      if Option.is_some solo_cap then begin
        Alcotest.(check bool) (name ^ ": some verdicts are None") true (none > 0);
        Alcotest.(check bool)
          (name ^ ": some runs decide at exactly the cap")
          true (at_cap > 0)
      end)
    cases

let test_solo_symmetric_key () =
  (* under symmetry reduction a pid permutation of a restriction is the
     same query: the same verdict, served from the table *)
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let rename_state =
    match P.symmetry with
    | Shmem.Protocol.Anonymous { rename; _ } -> rename
    | Shmem.Protocol.Asymmetric -> Alcotest.fail "swap-ksa is anonymous"
  in
  let inputs = [| 0; 1; 0; 1 |] in
  let t = X.create ~sym:true ~inputs () in
  let rng = Random.State.make [| 14 |] in
  let hits = Obs.counter "explore.solo.cache_hits" in
  let checked = ref 0 in
  let shuffle () =
    let a = Array.init P.n Fun.id in
    for i = P.n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let visit (v : X.visit) =
    if v.X.id mod 5 = 0 then
      List.iter
        (fun pid ->
          let verdict = X.solo_steps t ~pid v.X.config in
          let perm = shuffle () in
          let c' = X.E.rename ~perm ~rename_state v.X.config in
          let before = Obs.Counter.value hits in
          let verdict' = X.solo_steps t ~pid:perm.(pid) c' in
          incr checked;
          Alcotest.(check int)
            (Fmt.str "id %d p%d: the permuted query is one cache hit" v.X.id
               pid)
            1
            (Obs.Counter.value hits - before);
          Alcotest.(check (option int))
            (Fmt.str "id %d p%d: same verdict" v.X.id pid)
            verdict verdict')
        (X.E.undecided v.X.config);
    if Util.lap_prune_pair 2 v.X.config.X.E.mem then X.Prune else X.Continue
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      ignore (X.bfs t ~max_configs:5_000 ~visit ()));
  Alcotest.(check bool) "checked some permuted queries" true (!checked > 100)

let test_walk_interns_path () =
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let t = X.create ~inputs:[| 0; 1 |] () in
  let rng = Random.State.make [| 7 |] in
  let r = X.walk t ~sched:(X.E.random rng) ~max_steps:50
      ~visit:(fun _ -> X.Continue) ()
  in
  Alcotest.(check bool) "walk interned its positions" true (X.size t > 1);
  Alcotest.(check bool) "walk took steps" true (r.X.steps > 0);
  let c = X.E.replay (X.E.initial ~inputs:[| 0; 1 |]) (X.trace_to t r.X.last) in
  Alcotest.(check bool) "last id replays" true
    (X.E.equal_config c (X.config t r.X.last))

(* ------------------------------------------------ symmetry-reduced store *)

(* `swapspace check --total-lap 2`'s prune: more than two laps in all *)
let total_lap_prune (mem : Shmem.Value.t array) =
  let total = ref 0 in
  Array.iter
    (function
      | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
        Array.iter (fun x -> total := !total + x) u
      | _ -> ())
    mem;
  !total > 2

(* The graph as the store holds it: every visited configuration printed
   in id order with the solo oracle's verdict for each process, the number
   of expanded edges, and the checker's report (with a small solo cap, so
   solo-termination violations appear).  Symmetry-reduced unless
   [~sym:false]. *)
let reduced_graph ?(sym = true) (module P : Shmem.Protocol.S) ~inputs =
  let module X = Explore.Make (P) in
  let module C = Checker.Make (P) in
  let t = X.create ~sym ~inputs () in
  let configs = ref [] and edges = ref 0 in
  let visit (v : X.visit) =
    let c = v.X.config in
    let solo = List.map (fun pid -> X.solo_steps t ~pid c) (X.E.undecided c) in
    configs := (v.X.id, Fmt.str "%a" X.E.pp_config c, solo) :: !configs;
    if total_lap_prune c.X.E.mem then X.Prune else X.Continue
  in
  ignore (X.bfs t ~max_configs:50_000 ~on_step:(fun _ -> incr edges) ~visit ());
  let prune (c : C.E.config) = total_lap_prune c.C.E.mem in
  ( List.sort compare !configs,
    !edges,
    C.explore ~max_configs:50_000 ~solo_cap:7 ~prune ~sym ~inputs () )

let test_sym_exact_under_collisions () =
  (* a constant [hash_state] makes every state collide in the state table
     that the store and the solo oracle both key on, so only
     [P.equal_state] keeps them apart; a wrong id would change the graph
     or the report.  Canonicalization sorts on [canon_key]s, not
     [hash_state]s: the orbit test below makes those collide. *)
  let (module P) = Core.Swap_ksa.make ~n:5 ~k:1 ~m:2 in
  let module Collide = struct
    include P

    let hash_state _ = 0
  end in
  let inputs = [| 0; 1; 0; 1; 0 |] in
  let configs, edges, r = reduced_graph (module P) ~inputs in
  let configs', edges', r' = reduced_graph (module Collide) ~inputs in
  Alcotest.(check int) "same configs" (List.length configs)
    (List.length configs');
  Alcotest.(check bool) "same configs, id for id" true (configs = configs');
  Alcotest.(check int) "same edges" edges edges';
  Alcotest.(check bool) "some violations at solo cap 7" true
    (r.Checker.violations <> []);
  Alcotest.check report "same report" r r'

let test_plain_exact_under_collisions () =
  (* unreduced, the store and the oracle both key on state ids; with a
     constant [hash_state] every state collides in the state table, and
     only [P.equal_state] tells them apart *)
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module Collide = struct
    include P

    let hash_state _ = 0
  end in
  let inputs = [| 0; 1; 0; 1 |] in
  let configs, edges, r = reduced_graph ~sym:false (module P) ~inputs in
  let configs', edges', r' =
    reduced_graph ~sym:false (module Collide) ~inputs
  in
  Alcotest.(check bool) "a sizeable graph" true (List.length configs > 500);
  Alcotest.(check bool) "same configs, id for id" true (configs = configs');
  Alcotest.(check int) "same edges" edges edges';
  Alcotest.(check bool) "some violations at solo cap 7" true
    (r.Checker.violations <> []);
  Alcotest.check report "same report" r r'

module Store_checks (P : Shmem.Protocol.S) = struct
  module X = Explore.Make (P)

  (* Each of the stored [ids], built back from the id tables, is what its
     back-edge schedule reaches: the configuration itself when unreduced,
     a member of its orbit (interning it hits the same id) under symmetry
     reduction. *)
  let replays name t ids =
    let inputs = X.inputs t in
    let size = X.size t in
    List.iter (fun id ->
      let c = X.E.replay (X.E.initial ~inputs) (X.trace_to t id) in
      if X.sym_enabled t then begin
        let id', fresh, _ = X.intern t c in
        if fresh || id' <> id then
          Alcotest.failf "%s: trace_to id %d reaches id %d" name id id'
      end
      else if not (X.E.equal_config c (X.config t id)) then
        Alcotest.failf "%s: trace_to id %d does not replay to its config" name
          id) ids;
    Alcotest.(check int) (name ^ ": nothing interned by the checks") size
      (X.size t)

  (* the ids are [0 .. size - 1] *)
  let replays_every_id name t = replays name t (List.init (X.size t) Fun.id)

  (* [config] and [trace_to] reject -1 and every id from the size to twice
     the size plus 16.  A chunk holds at most as many configurations as
     the chunks before it, and the first chunk 16, so that range covers the
     spare capacity of the last chunk and the first id past it. *)
  let rejects_unissued name t =
    let size = X.size t in
    List.iter
      (fun id ->
        (match X.config t id with
        | _ -> Alcotest.failf "%s: config accepted the unissued id %d" name id
        | exception Invalid_argument _ -> ());
        match X.trace_to t id with
        | _ -> Alcotest.failf "%s: trace_to accepted the unissued id %d" name id
        | exception Invalid_argument _ -> ())
      (-1 :: List.init (size + 17) (fun i -> size + i))
end

let test_config_replays_every_id () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module K = Store_checks (P) in
  let module X = K.X in
  let inputs = [| 0; 1; 0; 1 |] in
  List.iter
    (fun sym ->
      let t = X.create ~sym ~inputs () in
      let visit (v : X.visit) =
        if total_lap_prune v.X.config.X.E.mem then X.Prune else X.Continue
      in
      ignore (X.bfs t ~max_configs:50_000 ~visit ());
      Alcotest.(check bool) "a sizeable store" true (X.size t > 200);
      K.replays_every_id (if sym then "sym" else "plain") t)
    [ false; true ]

let equal_step (a : Shmem.Trace.step) (b : Shmem.Trace.step) =
  a.Shmem.Trace.pid = b.Shmem.Trace.pid
  && Shmem.Op.equal a.Shmem.Trace.op b.Shmem.Trace.op
  && Shmem.Value.equal a.Shmem.Trace.resp b.Shmem.Trace.resp

(* A store of many chunks: the unreduced n=5 graph of `swapspace check
   --total-lap 2 --no-sym` (7,916 configurations), past the chunks that
   double up to the fixed size.  Its ids are exactly [0 .. size - 1],
   every one replays, and the ids it never issued are rejected. *)
let test_chunked_store () =
  let (module P) = Core.Swap_ksa.make ~n:5 ~k:1 ~m:2 in
  let module K = Store_checks (P) in
  let module X = K.X in
  let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
  let name = "n=5 unreduced" in
  let t = X.create ~inputs () in
  let ids = ref [ X.root t ] in
  let on_step (o : X.step_obs) = if o.X.fresh then ids := o.X.dst :: !ids in
  let visit (v : X.visit) =
    if total_lap_prune v.X.config.X.E.mem then X.Prune else X.Continue
  in
  ignore (X.bfs t ~max_configs:500_000 ~on_step ~visit ());
  Alcotest.(check int) (name ^ ": configs") 7_916 (X.size t);
  Alcotest.(check (list int)) (name ^ ": ids are 0 .. size - 1")
    (List.init (X.size t) Fun.id) (List.sort compare !ids);
  K.replays_every_id name t;
  K.rejects_unissued name t

(* Process 0 swaps 0, 1, …, 299 into one swap object and decides, process
   1 swaps 1000 and 1001 and decides, and five more processes are decided
   from the start.  That is over 256 states and over 256 memories, so as
   the graph is explored both fields of a stored record widen, and the
   record grows from one word to two. *)
let counter_protocol : (module Shmem.Protocol.S) =
  (module struct
    let name = "counter"
    let n = 7
    let k = 1
    let num_inputs = 1
    let objects = [| Shmem.Obj_kind.Swap_only Shmem.Obj_kind.Unbounded |]
    let init_object _ = Shmem.Value.Bot

    type state = { pid : int; count : int; goal : int }

    let init ~pid ~input:_ =
      { pid; count = 0; goal = (match pid with 0 -> 300 | 1 -> 2 | _ -> 0) }

    let poised s = Shmem.Op.swap 0 (Shmem.Value.Int ((1000 * s.pid) + s.count))
    let on_response s _ = { s with count = s.count + 1 }
    let decision s = if s.count >= s.goal then Some 0 else None
    let equal_state = ( = )
    let hash_state = Hashtbl.hash
    let pp_state ppf s = Fmt.pf ppf "{p%d %d/%d}" s.pid s.count s.goal
    let space_bound ~n:_ ~k:_ = 1
    let symmetry = Shmem.Protocol.Asymmetric
    let recovery = Shmem.Protocol.Restart
  end)

(* A store whose records widen while it is explored, checked as
   [test_chunked_store] checks one of fixed width, and every stored
   configuration interns again as a dedup hit on its own id.  Every field
   starts 0 bits wide, so the back-edge field widens too, to the 14 bits
   [1503 * 7] needs.  The budget stops a store that loses its records at
   10,000 configurations. *)
let test_widened_store () =
  let (module P) = counter_protocol in
  let module K = Store_checks (P) in
  let module X = K.X in
  let name = "counter" in
  let t = X.create ~inputs:(Array.make 7 0) () in
  let ids = ref [ X.root t ] in
  let on_step (o : X.step_obs) = if o.X.fresh then ids := o.X.dst :: !ids in
  ignore (X.bfs t ~max_configs:10_000 ~on_step ~visit:(fun _ -> X.Continue) ());
  let size = X.size t in
  (* the counts (c0, c1) with the memory holding the last value swapped in:
     1 at (0, 0), 2 for c0 = 0, 300 for c1 = 0 and 2 each for the 600
     others *)
  Alcotest.(check int) (name ^ ": configs") 1_503 size;
  Alcotest.(check (list int)) (name ^ ": ids are 0 .. size - 1")
    (List.init size Fun.id) (List.sort compare !ids);
  K.replays_every_id name t;
  for id = 0 to size - 1 do
    match X.intern t (X.config t id) with
    | id', false, _ when id' = id -> ()
    | id', fresh, _ ->
      Alcotest.failf "%s: config %d interns as %d (fresh %b)" name id id' fresh
  done;
  Alcotest.(check int) (name ^ ": nothing interned") size (X.size t);
  Alcotest.(check int) (name ^ ": two-int records") 2 (X.record_words t);
  K.rejects_unissued name t

(* [bfs] visits the root, then every id it issues in increasing order,
   and a configuration's depth is the length of its back-edge schedule:
   the store is the queue and its level boundaries the depths. *)
let test_bfs_order () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let inputs = [| 0; 1; 0; 1 |] in
  List.iter
    (fun sym ->
      let name = if sym then "sym" else "plain" in
      let t = X.create ~sym ~inputs () in
      let order = ref [] in
      let visit (v : X.visit) =
        order := v.X.id :: !order;
        Alcotest.(check int)
          (Fmt.str "%s: depth of %d" name v.X.id)
          (List.length (X.trace_to t v.X.id))
          v.X.depth;
        if total_lap_prune v.X.config.X.E.mem then X.Prune else X.Continue
      in
      let stats = X.bfs t ~max_configs:50_000 ~visit () in
      Alcotest.(check bool) (name ^ ": a sizeable store") true (X.size t > 200);
      Alcotest.(check int) (name ^ ": every id visited") (X.size t)
        stats.X.visited;
      Alcotest.(check (list int)) (name ^ ": root, then ids in order")
        (List.init (X.size t) Fun.id) (List.rev !order))
    [ false; true ]

(* The graphs CI pins, built as [check] builds them (solo queries at every
   visit), keep records of one int at n=5 unreduced and two at n=7
   reduced. *)
let test_record_words () =
  let words ~n ~sym ~configs =
    let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
    let module X = Explore.Make (P) in
    let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
    let t = X.create ~sym ~inputs () in
    let visit (v : X.visit) =
      let c = v.X.config in
      List.iter (fun pid -> ignore (X.solo_steps t ~pid c)) (X.E.undecided c);
      if Util.lap_prune_pair 3 c.X.E.mem || total_lap_prune c.X.E.mem then
        X.Prune
      else X.Continue
    in
    ignore (X.bfs t ~max_configs:500_000 ~visit ());
    let what = Fmt.str "n=%d sym=%b" n sym in
    Alcotest.(check int) (what ^ ": configs") configs (X.size t);
    X.record_words t
  in
  Alcotest.(check int) "n=5 unreduced: one-int records" 1
    (words ~n:5 ~sym:false ~configs:7_916);
  Alcotest.(check int) "n=7 reduced: two-int records" 2
    (words ~n:7 ~sym:true ~configs:6_388)

(* The states and memories a solo walk alone reaches widen no field: the
   counter protocol's process 0 walks through 300 states and memories,
   but a bfs that stops at depth 1 stores only the root and its two
   successors, so its records stay one int. *)
let test_solo_walks_widen_nothing () =
  let (module P) = counter_protocol in
  let module K = Store_checks (P) in
  let module X = K.X in
  let t = X.create ~solo_cap:1_000 ~inputs:(Array.make 7 0) () in
  let visit (v : X.visit) =
    let c = v.X.config in
    List.iter
      (fun pid ->
        Alcotest.(check bool) "solo run decides" true
          (Option.is_some (X.solo_steps t ~pid c)))
      (X.E.undecided c);
    if v.X.depth >= 1 then X.Prune else X.Continue
  in
  ignore (X.bfs t ~visit ());
  Alcotest.(check int) "configs" 3 (X.size t);
  Alcotest.(check int) "one-int records" 1 (X.record_words t);
  K.replays_every_id "counter, depth 1" t

(* [bfs]'s queue is the store, so a visitor or an observer that interns
   a new configuration would have it visited: [bfs] raises
   [Invalid_argument] instead.  Interning one the store holds is a dedup
   hit and allowed. *)
let test_bfs_rejects_interning () =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let inputs = [| 0; 1; 0 |] in
  (* the configuration two steps of process 0 reach from the root, which
     a bfs has not interned while it visits the root *)
  let deep t =
    let c0 = X.config t (X.root t) in
    fst (X.E.step (fst (X.E.step c0 0)) 0)
  in
  let prune (v : X.visit) =
    if total_lap_prune v.X.config.X.E.mem then X.Prune else X.Continue
  in
  let expect_raise what run =
    match run () with
    | _ -> Alcotest.failf "%s: bfs returned" what
    | exception Invalid_argument _ -> ()
  in
  expect_raise "visitor" (fun () ->
      let t = X.create ~inputs () in
      X.bfs t ~max_configs:50_000
        ~visit:(fun v ->
          if v.X.depth = 0 then begin
            let _, fresh, _ = X.intern t (deep t) in
            Alcotest.(check bool) "visitor: fresh" true fresh
          end;
          prune v)
        ());
  expect_raise "observer" (fun () ->
      let t = X.create ~inputs () in
      let once = ref true in
      X.bfs t ~max_configs:50_000
        ~on_step:(fun _ ->
          if !once then begin
            once := false;
            ignore (X.intern t (deep t))
          end)
        ~visit:prune ());
  let t = X.create ~inputs () in
  let stats =
    X.bfs t ~max_configs:50_000
      ~visit:(fun v ->
        let id, fresh, _ = X.intern t v.X.config in
        Alcotest.(check bool) "a dedup hit" false fresh;
        Alcotest.(check int) "on its own id" v.X.id id;
        prune v)
      ()
  in
  Alcotest.(check int) "re-interning visitor: every id visited" (X.size t)
    stats.X.visited

(* Every edge a strategy reports is the step [E.step] takes: the same pid,
   op and response, and an equal configuration after it, whether the
   step came from the restriction table or from a miss.  The op and
   response are recomputed from the restriction, so the protocols that
   read (bitwise, readable-swap) check that of a [Read] too.  Graph
   traversals report their source in its stored frame, [walk] its own
   concrete configuration.  The store keeps no steps: [trace_to] rebuilds each
   from the parent's ids and pid.  So for every fresh insert reported,
   [trace_to dst] must be [trace_via src] of the observed step spelled in
   [src]'s stored frame (for a walk, renamed by the witness that interning
   [before] returns), whose last step is the observed one itself when
   unreduced, and its replay must reach [after]'s orbit.  Afterwards every
   id the store holds still replays. *)
let step_differential name (module P : Shmem.Protocol.S) ~sym ~prune ~inputs
    =
  let module K = Store_checks (P) in
  let module X = K.X in
  let visit (v : X.visit) =
    if prune v.X.config.X.E.mem then X.Prune else X.Continue
  in
  let max_configs = 20_000 in
  let strategies =
    [ "bfs", (fun t on_step -> ignore (X.bfs t ~max_configs ~on_step ~visit ()))
    ; "dfs", (fun t on_step -> ignore (X.dfs t ~max_configs ~on_step ~visit ()))
    ; ( "walk",
        fun t on_step ->
          let rng = Random.State.make [| 5 |] in
          for _ = 1 to 30 do
            ignore
              (X.walk t ~sched:(X.E.random rng) ~on_step ~max_steps:60 ~visit ())
          done )
    ]
  in
  List.iter
    (fun (strategy, run) ->
      let name = Fmt.str "%s %s" name strategy in
      let t = X.create ~sym ~inputs () in
      let seen = ref 0 in
      let ids = ref [ X.root t ] and fresh = ref [] in
      let on_step (o : X.step_obs) =
        incr seen;
        ids := o.X.dst :: !ids;
        if o.X.fresh then fresh := o :: !fresh;
        let pid = o.X.step.Shmem.Trace.pid in
        let after, step = X.E.step o.X.before pid in
        if not (equal_step step o.X.step && X.E.equal_config after o.X.after)
        then
          Alcotest.failf "%s: the edge %d -> %d by p%d is not E.step's" name
            o.X.src o.X.dst pid
      in
      run t on_step;
      Alcotest.(check bool) (name ^ ": edges observed") true (!seen > 0);
      let size = X.size t in
      List.iter
        (fun (o : X.step_obs) ->
          let stored =
            if strategy <> "walk" then o.X.step
            else
              match X.intern t o.X.before with
              | _, _, None -> o.X.step
              | _, _, Some sigma ->
                Shmem.Trace.rename_step (fun p -> sigma.(p)) o.X.step
          in
          let trace = X.trace_to t o.X.dst in
          let want = X.trace_via t o.X.src stored in
          if not (List.equal equal_step trace want) then
            Alcotest.failf "%s: trace_to %d is not trace_via %d of its step"
              name o.X.dst o.X.src;
          if (not (X.sym_enabled t))
             && not (equal_step (List.nth trace (List.length trace - 1))
                       o.X.step)
          then
            Alcotest.failf "%s: trace_to %d does not end in the observed step"
              name o.X.dst;
          let reached = X.E.replay (X.E.initial ~inputs) trace in
          let id, _, _ = X.intern t reached and id', _, _ = X.intern t o.X.after in
          if id <> o.X.dst || id' <> o.X.dst then
            Alcotest.failf "%s: trace_to %d misses the orbit of after" name
              o.X.dst)
        !fresh;
      Alcotest.(check bool) (name ^ ": fresh inserts observed") true
        (!fresh <> []);
      Alcotest.(check int) (name ^ ": nothing interned by the step checks")
        size (X.size t);
      let ids = List.sort_uniq compare !ids in
      if strategy <> "walk" then
        Alcotest.(check int) (name ^ ": every id met") (X.size t)
          (List.length ids);
      K.replays name t ids)
    strategies

let test_step_differential () =
  let swap_ksa ~n =
    let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
    (module P : Shmem.Protocol.S)
  in
  let collide =
    let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
    let module Collide = struct
      include P

      let hash_state _ = 0
    end in
    (module Collide : Shmem.Protocol.S)
  in
  let bitwise = Baselines.Bitwise_consensus.make ~n:2 ~m:3 ~cap:6 in
  let near_cap =
    Baselines.Bitwise_consensus.near_cap ~n:2 ~m:3 ~cap:6 ~margin:2
  in
  let cas = Baselines.Cas_consensus.make ~n:3 ~m:2 in
  let readable = Baselines.Readable_swap_consensus.make ~n:3 ~m:2 in
  List.iter
    (fun (name, p, sym, prune, inputs) ->
      step_differential name p ~sym ~prune ~inputs)
    [ "swap-ksa plain", swap_ksa ~n:3, false, total_lap_prune, [| 0; 1; 0 |];
      "swap-ksa sym", swap_ksa ~n:4, true, total_lap_prune, [| 0; 1; 0; 1 |];
      "collide plain", collide, false, total_lap_prune, [| 0; 1; 0; 1 |];
      "collide sym", collide, true, total_lap_prune, [| 0; 1; 0; 1 |];
      "bitwise", bitwise, false, near_cap, [| 0; 2 |];
      "cas", cas, false, (fun _ -> false), [| 0; 1; 1 |];
      "readable-swap", readable, false, total_lap_prune, [| 0; 1; 1 |];
      "readable-swap sym", readable, true, total_lap_prune, [| 0; 1; 1 |]
    ]

(* The step memo's traffic on the pinned checks, `swapspace check -a
   swap-ksa -n 7 --total-lap 2`, `-n 8 --total-lap 2` and the unreduced
   `-n 5 --total-lap 2 --no-sym`: the size of each graph, one lookup per
   expanded edge, and how few distinct restrictions are ever stepped.  The
   reduced stores keep each representative's memory in first-mention form,
   so a restriction orbit is stepped in one frame: 290 misses at n=7 (1,833
   when the representative's slots were sorted by state key first). *)
let test_step_memo_traffic () =
  let traffic ~n ~sym ~configs ~edges:want_edges ~misses =
    let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
    let module C = Checker.Make (P) in
    let what = Fmt.str "n=%d sym=%b" n sym in
    let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
    let over_budget (c : C.E.config) =
      Util.lap_prune_pair 3 c.C.E.mem || total_lap_prune c.C.E.mem
    in
    Obs.reset ();
    Obs.enable ();
    let r =
      Fun.protect ~finally:Obs.disable (fun () ->
          C.explore ~max_configs:500_000 ~prune:over_budget ~sym ~inputs ())
    in
    let counters = (Obs.snapshot ()).Obs.counters in
    let c name = Option.value ~default:0 (List.assoc_opt name counters) in
    let edges =
      c "explore.configs.interned" - 1 + c "explore.configs.dedup_hits"
    in
    Alcotest.(check int) (what ^ ": configs") configs
      r.Checker.configs_explored;
    Alcotest.(check int) (what ^ ": edges") want_edges edges;
    Alcotest.(check int) (what ^ ": misses") misses
      (c "explore.step.memo_misses");
    Alcotest.(check int) (what ^ ": one lookup per edge") edges
      (c "explore.step.memo_hits" + c "explore.step.memo_misses")
  in
  traffic ~n:7 ~sym:true ~configs:6_388 ~edges:9_786 ~misses:290;
  traffic ~n:8 ~sym:true ~configs:16_233 ~edges:26_856 ~misses:351;
  traffic ~n:5 ~sym:false ~configs:7_916 ~edges:9_325 ~misses:583

(* Under symmetry reduction every stored representative's memory is in
   first-mention form: a left-to-right scan of it mentions pids 0, 1, …,
   m−1 in that order, so the representative's frame is the solo oracle's.
   Checked on every configuration the reduced BFS visits, for each
   anonymous registry protocol at n=3 and n=4. *)
let test_first_mention_form () =
  let checked = ref 0 and mentioning = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun (e : Baselines.Registry.entry) ->
          let (module P : Shmem.Protocol.S) = e.Baselines.Registry.protocol in
          match P.symmetry with
          | Shmem.Protocol.Asymmetric -> ()
          | Shmem.Protocol.Anonymous _ ->
            let module X = Explore.Make (P) in
            let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
            let t = X.create ~sym:true ~inputs () in
            let visit (v : X.visit) =
              let mem = v.X.config.X.E.mem in
              let next = ref 0 in
              let mark () p =
                if p >= 0 && p < P.n && p >= !next then begin
                  if p > !next then
                    Alcotest.failf
                      "%s n=%d: id %d's memory mentions p%d before p%d"
                      e.Baselines.Registry.name n v.X.id p !next;
                  incr next
                end
              in
              Array.iter (Shmem.Value.fold_pids mark ()) mem;
              incr checked;
              if !next >= 2 then incr mentioning;
              if e.Baselines.Registry.prune mem then X.Prune else X.Continue
            in
            ignore (X.bfs t ~max_configs:5_000 ~visit ()))
        (Baselines.Registry.standard ~n ()))
    [ 3; 4 ];
  Alcotest.(check bool) "representatives mentioning two pids or more" true
    (!mentioning > 100);
  Alcotest.(check bool) "configurations checked" true (!checked > 1_000)

exception Planted of int

(* A raise during [bfs] reaches the caller, and leaves a store that still
   works: the root interns as a dedup hit and [solo_steps] answers.  The
   visitor raises at its [150 + 7i]-th visit, the protocol at its
   [20 + 6i]-th response, so across the runs the raise lands at various
   depths, in a step, a solo walk or between them. *)
let test_raise_propagates () =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let fuse = ref max_int in
  let module Fragile = struct
    include P

    let on_response st resp =
      decr fuse;
      if !fuse = 0 then raise (Planted (-1));
      P.on_response st resp
  end in
  let module X = Explore.Make (Fragile) in
  let inputs = [| 0; 1; 0 |] in
  let run ?(visit = fun _ -> ()) what i =
    let t = X.create ~inputs () in
    let visit (v : X.visit) =
      visit v;
      ignore (X.solo_steps t ~pid:0 v.X.config);
      if total_lap_prune v.X.config.X.E.mem then X.Prune else X.Continue
    in
    (match X.bfs t ~visit () with
    | _ -> Alcotest.failf "%s %d: returned" what i
    | exception Planted _ -> ());
    fuse := max_int;
    let c0 = X.E.initial ~inputs in
    let _, fresh, _ = X.intern t c0 in
    Alcotest.(check bool) (Fmt.str "%s %d: root interned" what i) false fresh;
    Alcotest.(check bool) (Fmt.str "%s %d: solo_steps answers" what i) true
      (Option.is_some (X.solo_steps t ~pid:0 c0))
  in
  for i = 0 to 19 do
    let visits = ref 0 in
    run "visitor" i ~visit:(fun _ ->
        incr visits;
        if !visits = 151 + (7 * i) then raise (Planted i));
    fuse := 20 + (6 * i);
    run "on_response" i
  done

let test_sym_covers_every_orbit () =
  (* with a constant [canon_key] as well, canonicalization sorts slots by
     memory mention rank alone, and one orbit may keep several members;
     the reduced store must still hold a member of every reachable orbit,
     and only members of reachable orbits *)
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let rename_state =
    match P.symmetry with
    | Shmem.Protocol.Anonymous { rename; _ } -> rename
    | Shmem.Protocol.Asymmetric -> Alcotest.fail "swap-ksa is anonymous"
  in
  let module Coarse = struct
    include P

    let hash_state _ = 0

    let symmetry =
      Shmem.Protocol.Anonymous
        { canon_key = (fun _ -> 0); rename = rename_state }
  end in
  let module X = Explore.Make (P) in
  let module Xc = Explore.Make (Coarse) in
  let module Tbl = Hashtbl.Make (struct
    type t = P.state array * Shmem.Value.t array

    let equal (s, m) (s', m') =
      Array.for_all2 P.equal_state s s'
      && Array.for_all2 Shmem.Value.equal m m'

    let hash (s, m) = X.E.hash_config (X.E.unsafe_config ~states:s ~mem:m)
  end) in
  let inputs = [| 0; 1; 0; 1 |] in
  let plain = Tbl.create 1024 and reduced = Tbl.create 1024 in
  let visit (v : X.visit) =
    let c = v.X.config in
    Tbl.replace plain (c.X.E.states, c.X.E.mem) ();
    if total_lap_prune c.X.E.mem then X.Prune else X.Continue
  in
  ignore (X.bfs (X.create ~inputs ()) ~max_configs:50_000 ~visit ());
  let visit (v : Xc.visit) =
    let c = v.Xc.config in
    Tbl.replace reduced (c.Xc.E.states, c.Xc.E.mem) ();
    if total_lap_prune c.Xc.E.mem then Xc.Prune else Xc.Continue
  in
  let tc = Xc.create ~sym:true ~inputs () in
  ignore (Xc.bfs tc ~max_configs:50_000 ~visit ());
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (List.cons x) (perms (List.filter (( <> ) x) l)))
        l
  in
  let perms = List.map Array.of_list (perms (List.init P.n Fun.id)) in
  let orbit_meets tbl (states, mem) =
    let c = X.E.unsafe_config ~states ~mem in
    List.exists
      (fun perm ->
        let c' = X.E.rename ~perm ~rename_state c in
        Tbl.mem tbl (c'.X.E.states, c'.X.E.mem))
      perms
  in
  Alcotest.(check bool) "fewer stored than reachable" true
    (Tbl.length reduced < Tbl.length plain);
  Tbl.iter
    (fun k () ->
      if not (orbit_meets reduced k) then
        Alcotest.fail "a reachable orbit has no stored member")
    plain;
  Tbl.iter
    (fun k () ->
      if not (orbit_meets plain k) then
        Alcotest.fail "a stored configuration is in no reachable orbit")
    reduced

let test_permuted_intern () =
  (* interning any renaming π·c of a stored configuration c is a dedup hit
     on c's id, and the returned witness σ maps π·c back onto c *)
  let (module P) = Core.Swap_ksa.make ~n:6 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let rename_state =
    match P.symmetry with
    | Shmem.Protocol.Anonymous { rename; _ } -> rename
    | Shmem.Protocol.Asymmetric -> Alcotest.fail "swap-ksa is anonymous"
  in
  let t = X.create ~sym:true ~inputs:[| 0; 1; 0; 1; 1; 0 |] () in
  let rng = Random.State.make [| 17 |] in
  let checked = ref 0 in
  let visit (v : X.visit) =
    if v.X.id mod 3 = 0 then begin
      let perm = Array.init P.n Fun.id in
      for i = P.n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- x
      done;
      let c = X.E.rename ~perm ~rename_state v.X.config in
      let size = X.size t in
      let id, fresh, w = X.intern t c in
      incr checked;
      Alcotest.(check int)
        (Fmt.str "id %d: the renaming's id" v.X.id)
        v.X.id id;
      Alcotest.(check bool) (Fmt.str "id %d: a dedup hit" v.X.id) false fresh;
      Alcotest.(check int) "nothing interned" size (X.size t);
      let back =
        match w with
        | None -> c
        | Some sigma -> X.E.rename ~perm:sigma ~rename_state c
      in
      if not (X.E.equal_config back (X.config t id)) then
        Alcotest.failf "id %d: the witness does not map the renaming back"
          v.X.id
    end;
    if total_lap_prune v.X.config.X.E.mem then X.Prune else X.Continue
  in
  ignore (X.bfs t ~max_configs:50_000 ~visit ());
  Alcotest.(check bool) "checked some renamings" true (!checked > 100)

let () =
  Alcotest.run "explore"
    [ ( "checker-differential",
        [ Alcotest.test_case "stubborn" `Quick test_diff_stubborn
        ; Alcotest.test_case "invalid" `Quick test_diff_invalid
        ; Alcotest.test_case "spinner" `Quick test_diff_spinner
        ; Alcotest.test_case "cas exhaustive" `Quick test_diff_cas
        ; Alcotest.test_case "swap-ksa all inputs" `Quick
            test_diff_swap_ksa_all_inputs
        ; Alcotest.test_case "truncation" `Quick test_diff_truncation
        ; Alcotest.test_case "random runs" `Quick test_diff_random_runs
        ] )
    ; ( "theorem10-differential",
        [ Alcotest.test_case "certificates identical" `Slow
            test_diff_theorem10
        ] )
    ; ( "engine",
        [ Alcotest.test_case "dfs covers same space" `Quick
            test_dfs_covers_same_space
        ; Alcotest.test_case "trace_to replays" `Quick test_trace_to_replays
        ; Alcotest.test_case "config replays from trace_to, every id" `Quick
            test_config_replays_every_id
        ; Alcotest.test_case "solo oracle consistent" `Quick
            test_solo_oracle_consistent
        ; Alcotest.test_case "solo key is permutation-invariant" `Quick
            test_solo_symmetric_key
        ; Alcotest.test_case "walk interns its path" `Quick
            test_walk_interns_path
        ; Alcotest.test_case "every observed step is E.step's" `Quick
            test_step_differential
        ; Alcotest.test_case "step memo traffic, n=5 unreduced and n=7 reduced"
            `Quick test_step_memo_traffic
        ; Alcotest.test_case
            "a store of many chunks: every id replays, unissued ids rejected"
            `Quick test_chunked_store
        ; Alcotest.test_case
            "a store whose records widen: every id replays and re-interns"
            `Quick test_widened_store
        ; Alcotest.test_case "a raise in bfs propagates, the store still works"
            `Quick test_raise_propagates
        ; Alcotest.test_case "bfs visits the root, then ids in order" `Quick
            test_bfs_order
        ; Alcotest.test_case "record words, n=5 unreduced and n=7 reduced"
            `Quick test_record_words
        ; Alcotest.test_case "solo walks widen no field" `Quick
            test_solo_walks_widen_nothing
        ; Alcotest.test_case "bfs rejects a visitor that interns" `Quick
            test_bfs_rejects_interning
        ] )
    ; ( "symmetry-store",
        [ Alcotest.test_case "exact under state-hash collisions" `Quick
            test_sym_exact_under_collisions
        ; Alcotest.test_case "unreduced, exact under state-hash collisions"
            `Quick test_plain_exact_under_collisions
        ; Alcotest.test_case "covers every orbit under key collisions" `Quick
            test_sym_covers_every_orbit
        ; Alcotest.test_case "a renamed configuration is a dedup hit" `Quick
            test_permuted_intern
        ; Alcotest.test_case "representatives' memories in first-mention form"
            `Quick test_first_mention_form
        ] )
    ]
