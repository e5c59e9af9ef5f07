(* The benchmark harness: regenerates every table and figure of the
   reproduction (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record).

   The paper is a theory paper — its "evaluation" is a set of theorems — so
   each table pairs the proved bound with the quantity measured by the
   corresponding executable engine:

     T1  Theorem 10 / Corollary 11: swap objects forced by the Lemma 9
         adversary vs ⌈n/k⌉-1, vs Algorithm 1's n-k and the register
         baseline's n-k+1.
     T2  Lemma 8: measured solo-execution lengths vs the 8(n-k) bound.
     T3  Theorem 17 / Lemma 15: objects accumulated by the construction vs
         n-2 (readable binary swap).
     T4  Theorem 21 / Lemma 19: potential vs n-2, implied object count vs
         (n-2)/(3b+1).
     T5  The §1/§2 landscape: declared and touched space of every algorithm.
     T6  Contention behaviour (not in the paper): steps to decision under
         solo windows vs uniformly random scheduling.
     T7  Real multicore runs: every registry protocol through the generic
         runtime (Runtime.Make over atomic cells), and Algorithm 1 across
         (n, k).
     T9  Exploration throughput (not in the paper): the seed checker's flat
         BFS vs lib/explore's interned store + memoized solo oracle.
     T10 Chaos campaigns (not in the paper): fault-injection throughput and
         detection counts — benign plans must produce zero violations,
         object-fault plans must be detected whenever they manifest.
     T12 Symmetry reduction (not in the paper): reduced vs
         unreduced exploration on identical state spaces — interned-state
         collapse, wall-clock, and the Theorem 10 induction's forced
         objects.
     T13 Declared-property overhead (not in the paper): the same reduced
         exploration with and without the §4 properties (lib/prop)
         attached — identical graphs and verdicts, so the wall-clock delta
         is the cost of incremental property evaluation; budget <= 10%.
     T14 Supervised recovery (not in the paper): Runtime.Make bare vs
         under Supervisor.Make (lib/resil) with no crash (supervision
         overhead) and with one seeded victim crash per run
         (detection + rebuild + respawn round, time-to-recover
         quantiles).
     T15 Arena service (not in the paper): closed-loop throughput and
         decide latency of the pooled consensus service vs domain count,
         quiet and under a kill-and-heal overlay.
     T16 Space certification & lint (not in the paper): the static lint
         registry's whole-tree throughput, and per registry protocol the
         declared space bound vs the measured/witnessed object usage from
         Analyze.Space.
     F1  The Lemma 15 induction chain (paper Figure 1).
     F2  The Lemma 19 induction chain (paper Figure 2).

   Usage: dune exec bench/main.exe [-- section ...] [--csv DIR] [--json FILE]
   where section ∈ {t0..t16 f1 f2 bechamel all}; default all.  With
   [--csv DIR], every table is additionally written to DIR/<section>.csv;
   with [--json FILE], all tables of the run are written to FILE as one
   machine-readable JSON document (section id, title, header, rows, wall
   time, and — since the run was instrumented — an "obs" metrics snapshot
   per table covering the work since the section started).

   A second entry point compares two such JSON files:

     dune exec bench/main.exe -- compare old.json new.json \
       [--max-regress PCT] [--min-seconds S]

   It pairs sections by id on their wall times and exits non-zero when any
   section regressed beyond the budget or disappeared — the CI bench gate. *)

let csv_dir = ref None
let json_path = ref None
let current_section = ref "table"
let current_title = ref ""
let section_start = ref 0.

(* (section id, section title, header, rows, seconds since section start,
   metrics since section start), accumulated by [print_table] in emission
   order *)
let json_tables :
    (string * string * string list * string list list * float
    * Obs.snapshot)
    list
    ref =
  ref []

(* repackage extended protocol modules at the plain signature *)
let sksa ~n ~k ~m : (module Shmem.Protocol.S) =
  let (module P) = Core.Swap_ksa.make ~n ~k ~m in
  (module P)

let btrack ~n ~cap : (module Shmem.Protocol.S) =
  let (module B) = Baselines.Binary_track_consensus.make ~n ~cap in
  (module B)

let section_header id title =
  current_section := id;
  current_title := title;
  section_start := Unix.gettimeofday ();
  (* per-section metrics: each table's snapshot covers the work since its
     section header (instrumentation is only live under [--json]) *)
  if Obs.enabled () then Obs.reset ();
  Fmt.pr "@.============ %s: %s ============@." (String.uppercase_ascii id)
    title

let write_csv header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (!current_section ^ ".csv") in
    let oc = open_out path in
    let quote cell =
      if String.exists (fun c -> c = ',' || c = '"') cell then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
      else cell
    in
    let emit row = output_string oc (String.concat "," (List.map quote row) ^ "\n") in
    emit header;
    List.iter emit rows;
    close_out oc;
    Fmt.pr "(written to %s)@." path

let hline widths =
  Fmt.pr "+%s+@."
    (String.concat "+" (List.map (fun w -> String.make w '-') widths))

let row widths cells =
  Fmt.pr "|%s|@."
    (String.concat "|"
       (List.map2
          (fun w c ->
            let pad = max 0 (w - String.length c) in
            " " ^ c ^ String.make (max 0 (pad - 1)) ' ')
          widths cells))

let print_table header rows =
  let widths =
    List.mapi
      (fun i h ->
        2
        + List.fold_left
            (fun acc r -> max acc (String.length (List.nth r i)))
            (String.length h) rows)
      header
  in
  hline widths;
  row widths header;
  hline widths;
  List.iter (row widths) rows;
  hline widths;
  write_csv header rows;
  json_tables :=
    ( !current_section
    , !current_title
    , header
    , rows
    , Unix.gettimeofday () -. !section_start
    , if Obs.enabled () then Obs.snapshot () else Obs.empty_snapshot )
    :: !json_tables

let write_json () =
  match !json_path with
  | None -> ()
  | Some path ->
    let table_json (section, title, header, rows, wall, snap) =
      let base =
        [ "section", Obs.Json.Str section
        ; "title", Obs.Json.Str title
        ; "wall_s", Obs.Json.Num (Float.of_string (Printf.sprintf "%.3f" wall))
        ; "header", Obs.Json.Arr (List.map (fun h -> Obs.Json.Str h) header)
        ; "rows",
          Obs.Json.Arr
            (List.map
               (fun r -> Obs.Json.Arr (List.map (fun c -> Obs.Json.Str c) r))
               rows)
        ]
      in
      Obs.Json.Obj
        (if Obs.is_empty snap then base
         else base @ [ "obs", Obs.snapshot_to_json snap ])
    in
    let doc =
      Obs.Json.Obj
        [ "tables", Obs.Json.Arr (List.map table_json (List.rev !json_tables)) ]
    in
    let oc = open_out path in
    output_string oc (Obs.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Fmt.pr "(json written to %s)@." path

(* ------------------------------------------------------------------ T0 *)

let t0 () =
  section_header "t0" "the paper's bound landscape (closed forms)";
  let n = 16 and k = 2 and b = 2 in
  Fmt.pr "at n=%d, k=%d, b=%d:@." n k b;
  print_table [ "bound"; "value" ]
    (List.map
       (fun (d, v) -> [ d; v ])
       (Lowerbound.Bounds.summary ~n ~k ~b))

(* ------------------------------------------------------------------ T1 *)

let forced_objects ~n ~k =
  let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
  let module T = Lowerbound.Theorem10.Make (P) in
  let cert = T.run ~search_rounds:30 () in
  List.length cert.T.objects_forced

let t1 () =
  section_header "t1" "space of k-set agreement from swap (Thm 10 + Alg 1)";
  let grid =
    [ 4, 1; 8, 1; 16, 1; 32, 1; 64, 1; 8, 2; 12, 2; 9, 3; 16, 4; 20, 5 ]
  in
  let rows =
    List.map
      (fun (n, k) ->
        let bound = Lowerbound.Bounds.ksa_swap_lb ~n ~k in
        let forced = forced_objects ~n ~k in
        [ string_of_int n
        ; string_of_int k
        ; string_of_int bound
        ; string_of_int forced
        ; string_of_int (n - k)
        ; string_of_int (n - k + 1)
        ])
      grid
  in
  print_table
    [ "n"
    ; "k"
    ; "lower bound ⌈n/k⌉-1"
    ; "forced (Lemma 9)"
    ; "Alg 1 (swap)"
    ; "registers [15]"
    ]
    rows;
  Fmt.pr
    "for k=1 the adversary forces exactly n-1 objects, matching Algorithm \
     1's usage.@."

(* ------------------------------------------------------------------ T2 *)

let t2 () =
  section_header "t2" "solo-termination step bound (Lemma 8)";
  let measure ~n ~k =
    let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
    let module E = Shmem.Exec.Make (P) in
    let rng = Random.State.make [| 99; n; k |] in
    let worst = ref 0 in
    (* probe solo runs from initial configurations and from configurations
       reached by adversarial prefixes of various lengths *)
    for _ = 1 to 20 do
      let inputs = Array.init n (fun _ -> Random.State.int rng (k + 1)) in
      let c0 = E.initial ~inputs in
      (* keep the adversarial prefix short enough that undecided
         processes remain to probe *)
      let prefix_len = Random.State.int rng (4 * n) in
      let c, _, _ =
        E.run ~sched:(E.random rng) ~max_steps:prefix_len c0
      in
      List.iter
        (fun pid ->
          match E.run_solo ~pid ~max_steps:(8 * (n - k)) c with
          | Some (_, tr) -> worst := max !worst (Shmem.Trace.length tr)
          | None -> failwith "Lemma 8 violated!")
        (E.undecided c)
    done;
    !worst
  in
  let rows =
    List.map
      (fun (n, k) ->
        let w = measure ~n ~k in
        [ string_of_int n
        ; string_of_int k
        ; string_of_int w
        ; string_of_int (8 * (n - k))
        ])
      [ 2, 1; 4, 1; 8, 1; 16, 1; 6, 2; 9, 3; 12, 4 ]
  in
  print_table [ "n"; "k"; "max solo steps observed"; "8(n-k) bound" ] rows

(* ------------------------------------------------------------------ T3 *)

let t3 () =
  section_header "t3"
    "readable binary swap lower bound (Thm 17 via Lemma 15)";
  let rows =
    List.map
      (fun n ->
        let (module B) = Baselines.Binary_track_consensus.make ~n ~cap:8 in
        let module L = Lowerbound.Binary_lb.Make (B) in
        let t0 = Unix.gettimeofday () in
        let r = L.run () in
        [ string_of_int n
        ; string_of_int r.L.distinct_objects
        ; string_of_int r.L.bound
        ; string_of_int (List.length r.L.x)
        ; string_of_int (List.length r.L.y)
        ; Fmt.str "%.1fs" (Unix.gettimeofday () -. t0)
        ])
      [ 3; 4; 5; 6; 7; 8 ]
  in
  print_table
    [ "n"; "distinct objects"; "bound n-2"; "|X|"; "|Y|"; "time" ]
    rows;
  Fmt.pr
    "the construction certifies that the protocol cannot be rewritten to \
     use fewer than n-2 readable binary swap objects.@."

(* ------------------------------------------------------------------ T4 *)

let t4 () =
  section_header "t4" "bounded-domain lower bound (Thm 21 via Lemma 19)";
  let rows =
    List.map
      (fun n ->
        let (module B) = Baselines.Binary_track_consensus.make ~n ~cap:8 in
        let module L = Lowerbound.Bounded_lb.Make (B) in
        let r = L.run () in
        let b = r.L.domain_size in
        [ string_of_int n
        ; string_of_int b
        ; string_of_int r.L.potential
        ; string_of_int (n - 2)
        ; string_of_int r.L.implied_objects
        ; Fmt.str "%.2f" (float_of_int (n - 2) /. float_of_int ((3 * b) + 1))
        ])
      [ 3; 4; 5; 6 ]
  in
  print_table
    [ "n"
    ; "b"
    ; "potential Σ(2|f|+|g|)+|S|"
    ; "bound n-2"
    ; "implied objects"
    ; "(n-2)/(3b+1)"
    ]
    rows

(* ------------------------------------------------------------------ T5 *)

let touched protocol =
  let (module P : Shmem.Protocol.S) = protocol in
  let module E = Shmem.Exec.Make (P) in
  let rng = Random.State.make [| 5; P.n |] in
  let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
  let c0 = E.initial ~inputs in
  let _, trace, _ =
    E.run
      ~sched:(E.bursty rng ~burst:(64 * Array.length P.objects))
      ~max_steps:200_000 c0
  in
  List.length (Shmem.Trace.objects_accessed trace)

let t5 () =
  section_header "t5" "space landscape of all implemented algorithms";
  let n = 8 in
  let entries =
    [ sksa ~n ~k:1 ~m:2, "swap-ksa k=1 (Alg 1)", "n-1 (optimal, Thm 10)"
    ; sksa ~n ~k:2 ~m:3, "swap-ksa k=2 (Alg 1)", "n-k; LB ⌈n/k⌉-1"
    ; Baselines.Register_ksa.make ~n ~k:1 ~m:2, "register-ksa k=1 [15]",
      "n-k+1; LB n [10]"
    ; Baselines.Readable_swap_consensus.make ~n ~m:2,
      "readable-swap consensus [16]", "n-1"
    ; btrack ~n ~cap:16, "binary-track consensus [17]",
      "2n-1 binary objs (unary here)"
    ; Baselines.Bitwise_consensus.make ~n ~m:4 ~cap:16,
      "bitwise multivalued [16]", "O(n log m) binary objects"
    ; Core.Two_proc_swap.make ~m:2, "2-proc swap consensus", "1 (wait-free)"
    ; Core.Pair_ksa.make ~n ~m:2, "(n-1)-set agreement", "1 (wait-free)"
    ; Baselines.Cas_consensus.make ~n ~m:2, "CAS consensus [7]",
      "1 (CAS not historyless)"
    ]
  in
  let rows =
    List.map
      (fun (p, name, stated) ->
        let (module P : Shmem.Protocol.S) = p in
        [ name
        ; string_of_int (Array.length P.objects)
        ; string_of_int (touched p)
        ; stated
        ])
      entries
  in
  print_table
    [ Fmt.str "algorithm (n=%d)" n
    ; "objects declared"
    ; "objects touched"
    ; "stated bound"
    ]
    rows

(* ------------------------------------------------------------------ T6 *)

let t6 () =
  section_header "t6"
    "contention: steps to decision, solo windows vs uniform scheduling";
  let runs = 10 in
  let measure protocol ~burst =
    let (module P : Shmem.Protocol.S) = protocol in
    let module E = Shmem.Exec.Make (P) in
    let rng = Random.State.make [| 17; burst |] in
    let total = ref 0 and decided = ref 0 in
    for _ = 1 to runs do
      let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
      let sched =
        if burst <= 1 then E.random rng else E.bursty rng ~burst
      in
      let _, trace, outcome =
        E.run ~sched ~max_steps:100_000 (E.initial ~inputs)
      in
      if outcome = E.All_decided then begin
        incr decided;
        total := !total + Shmem.Trace.length trace
      end
    done;
    if !decided = 0 then "never (>100k)"
    else if !decided < runs then
      Fmt.str "%d/%d decide" !decided runs
    else Fmt.str "%d" (!total / runs)
  in
  let rows =
    List.concat_map
      (fun n ->
        let swap = sksa ~n ~k:1 ~m:2 in
        let reg = Baselines.Register_ksa.make ~n ~k:1 ~m:2 in
        let burst = 2 * 8 * (n - 1) in
        [ [ string_of_int n
          ; "swap-ksa"
          ; measure swap ~burst
          ; measure swap ~burst:1
          ]
        ; [ string_of_int n
          ; "register-ksa"
          ; measure reg ~burst
          ; measure reg ~burst:1
          ]
        ])
      [ 2; 4; 6; 8 ]
  in
  print_table
    [ "n"
    ; "algorithm"
    ; "mean steps (bursty sched)"
    ; "steps (uniform sched)"
    ]
    rows;
  Fmt.pr
    "obstruction-freedom in action: with solo windows decisions are quick; \
     under a uniformly random scheduler they may never come.@."

(* ------------------------------------------------------------------ T7 *)

let t7 () =
  section_header "t7"
    "cross-backend: simulator steps vs real multicore (generic runtime)";
  (* one protocol definition, two backends: every multicore_runnable entry
     of the registry grid runs (a) on the simulator under its bursty solo
     window and (b) on real domains via Runtime.Make, from the same
     Protocol.S module *)
  let n = 4 in
  let runs = 5 in
  let rows =
    List.map
      (fun (e : Baselines.Registry.entry) ->
        let (module P : Shmem.Protocol.S) = e.Baselines.Registry.protocol in
        let module E = Shmem.Exec.Make (P) in
        let rng = Random.State.make [| 7 |] in
        let sim_steps = ref 0 in
        for _ = 1 to runs do
          let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
          let _, trace, outcome =
            E.run
              ~sched:(E.bursty rng ~burst:e.Baselines.Registry.burst)
              ~max_steps:400_000 (E.initial ~inputs)
          in
          assert (outcome = E.All_decided);
          sim_steps := !sim_steps + Shmem.Trace.length trace
        done;
        let mc =
          if not e.Baselines.Registry.multicore_runnable then
            [ "-"; "-"; "-" ]
          else begin
            let module R = Runtime.Make (P) in
            let elapsed = ref 0. and ops = ref 0 in
            for seed = 1 to runs do
              let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
              let o = R.run ~inputs ~seed () in
              (match R.check ~inputs o with
              | Ok () -> ()
              | Error err ->
                failwith (e.Baselines.Registry.name ^ ": " ^ err));
              elapsed := !elapsed +. o.R.elapsed;
              ops := !ops + Array.fold_left ( + ) 0 o.R.ops
            done;
            let mean_elapsed = !elapsed /. float_of_int runs in
            let mean_ops = float_of_int !ops /. float_of_int runs in
            [ Fmt.str "%.4f" mean_elapsed
            ; Fmt.str "%.0f" mean_ops
            ; Fmt.str "%.0f" (mean_ops /. mean_elapsed)
            ]
          end
        in
        [ e.Baselines.Registry.name
          ; string_of_int (Array.length P.objects)
          ; string_of_int (!sim_steps / runs)
        ]
        @ mc)
      (Baselines.Registry.standard ~n ())
  in
  print_table
    [ Fmt.str "algorithm (n=%d)" n
    ; "objects"
    ; "sim steps (bursty)"
    ; "mc elapsed (s)"
    ; "mc ops/run"
    ; "mc ops/s"
    ]
    rows;
  Fmt.pr
    "'-' = not multicore_runnable (cap-bounded unary tracks may livelock \
     at the cap under real concurrency).@.";
  (* Algorithm 1 alone through the generic runtime across (n, k) *)
  let grid_rows =
    List.map
      (fun (n, k) ->
        let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
        let module R = Runtime.Make (P) in
        let elapsed = ref 0. and ops = ref 0 in
        for seed = 1 to runs do
          let inputs = Array.init n (fun i -> i mod (k + 1)) in
          let o = R.run ~inputs ~seed () in
          (match R.check ~inputs o with
          | Ok () -> ()
          | Error e -> failwith e);
          elapsed := !elapsed +. o.R.elapsed;
          ops := !ops + Array.fold_left ( + ) 0 o.R.ops
        done;
        [ string_of_int n
        ; string_of_int k
        ; Fmt.str "%.4f" (!elapsed /. float_of_int runs)
        ; string_of_int (!ops / runs)
        ])
      [ 2, 1; 4, 1; 8, 1; 8, 2 ]
  in
  Fmt.pr "Algorithm 1 on the generic runtime:@.";
  print_table
    [ "n"; "k"; "generic elapsed (s)"; "generic ops/run" ]
    grid_rows

(* ------------------------------------------------------------------ T8 *)

let t8 () =
  section_header "t8" "ablations of Algorithm 1's design choices";
  let variant ~lead ~merge : (module Shmem.Protocol.S) * string =
    let (module P) = Core.Swap_ksa.make_ablation ~n:2 ~k:1 ~m:2 ~lead ~merge () in
    ( (module P),
      if merge then Fmt.str "lead=%d" lead else Fmt.str "lead=%d, no merge" lead )
  in
  let verdict protocol =
    let (module P : Shmem.Protocol.S) = protocol in
    let module C = Checker.Make (P) in
    let prune (c : C.E.config) =
      Array.exists
        (fun v ->
          match v with
          | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
            Array.exists (fun x -> x > 4) u
          | _ -> false)
        c.C.E.mem
    in
    let r = C.explore_all_inputs ~prune ~max_configs:300_000 () in
    if Checker.ok r then "safe (checked)"
    else
      match r.Checker.violations with
      | v :: _ -> Fmt.str "UNSAFE: %s" v.Checker.property
      | [] -> assert false
  in
  let steps ~lead ~merge =
    (* mean steps to decision for a safe variant at n=6 under solo windows *)
    let (module P) = Core.Swap_ksa.make_ablation ~n:6 ~k:1 ~m:2 ~lead ~merge () in
    let module E = Shmem.Exec.Make (P) in
    let rng = Random.State.make [| 23; lead |] in
    let total = ref 0 in
    let runs = 10 in
    for _ = 1 to runs do
      let inputs = Array.init 6 (fun i -> i mod 2) in
      let _, trace, outcome =
        E.run ~sched:(E.bursty rng ~burst:100) ~max_steps:200_000
          (E.initial ~inputs)
      in
      assert (outcome = E.All_decided);
      total := !total + Shmem.Trace.length trace
    done;
    string_of_int (!total / runs)
  in
  let rows =
    List.map
      (fun (lead, merge) ->
        let p, name = variant ~lead ~merge in
        let v = verdict p in
        let mean =
          if String.length v >= 4 && String.sub v 0 4 = "safe" then
            steps ~lead ~merge
          else "-"
        in
        [ name; v; mean ])
      [ 1, true; 2, true; 3, true; 4, true; 2, false ]
  in
  print_table
    [ "variant"; "exhaustive check (n=2)"; "mean steps n=6 (bursty)" ]
    rows;
  Fmt.pr
    "the paper's choices (lead 2, merging) are the cheapest safe point: a \
     1-lap lead breaks agreement, as does dropping the merge of lines \
     11-12.@."

(* ------------------------------------------------------------------ T9 *)

(* The seed checker's traversal (commit 1298ebb) inlined as the throughput
   baseline: one flat hash table, a Queue of whole configurations, and —
   the dominant cost — solo-termination checks that re-run [run_solo] from
   scratch for every undecided process of every visited configuration.
   lib/explore replaces this with an interned configuration store and a
   memoized solo oracle; T9 quantifies the gain on identical state
   spaces. *)
module Seed_bfs (P : Shmem.Protocol.S) = struct
  module E = Shmem.Exec.Make (P)
  module Pr = Prop.Make (P)

  module Cfg_tbl = Hashtbl.Make (struct
    type t = E.config

    let equal = E.equal_config
    let hash = E.hash_config
  end)

  let solo_cap = 64 * (Array.length P.objects + 1)

  let explore ?(max_configs = 200_000) ?(prune = fun _ -> false) ~inputs () =
    let c0 = E.initial ~inputs in
    let seen = Cfg_tbl.create 4096 in
    let parents = Cfg_tbl.create 4096 in
    let queue = Queue.create () in
    let bad = ref 0 in
    let check c =
      if Option.is_some (Pr.check_agreement ~bound:P.k c.E.states) then incr bad;
      if Option.is_some (Pr.check_validity ~inputs c.E.states) then incr bad;
      List.iter
        (fun pid ->
          match E.run_solo ~pid ~max_steps:solo_cap c with
          | Some _ -> ()
          | None -> incr bad)
        (E.undecided c)
    in
    Cfg_tbl.replace seen c0 ();
    Cfg_tbl.replace parents c0 None;
    Queue.push c0 queue;
    let explored = ref 0 in
    while not (Queue.is_empty queue) do
      let c = Queue.pop queue in
      incr explored;
      check c;
      if prune c then ()
      else if Cfg_tbl.length seen >= max_configs then ()
      else
        List.iter
          (fun pid ->
            let c', step = E.step c pid in
            if not (Cfg_tbl.mem seen c') then begin
              Cfg_tbl.replace seen c' ();
              Cfg_tbl.replace parents c' (Some (c, step));
              Queue.push c' queue
            end)
          (E.undecided c)
    done;
    !explored, !bad
end

let t9 () =
  section_header "t9"
    "exploration throughput: seed BFS vs lib/explore (Swap_ksa)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    r, Unix.gettimeofday () -. t0
  in
  let rate cfgs t = float_of_int cfgs /. t in
  let rows =
    List.map
      (fun (n, k, m, lap, max_configs) ->
        let (module P) = Core.Swap_ksa.make ~n ~k ~m in
        let module S = Seed_bfs (P) in
        let module C = Checker.Make (P) in
        (* bound the total lap progress so the reachable space is finite
           and the budget is never hit; the same predicate goes to both
           engines *)
        let prune (c : C.E.config) =
          let total = ref 0 in
          Array.iter
            (fun v ->
              match v with
              | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
                Array.iter (fun x -> total := !total + x) u
              | _ -> ())
            c.C.E.mem;
          !total > lap
        in
        let inputs = Array.init n (fun i -> i mod m) in
        let (seed_cfgs, seed_bad), seed_t =
          time (fun () -> S.explore ~max_configs ~prune ~inputs ())
        in
        let serial_r, serial_t =
          time (fun () -> C.explore ~max_configs ~prune ~inputs ())
        in
        (* both engines must have visited the same state space *)
        assert (seed_cfgs = serial_r.Checker.configs_explored);
        assert (seed_bad = List.length serial_r.Checker.violations);
        [ string_of_int n
        ; string_of_int k
        ; string_of_int seed_cfgs
        ; Fmt.str "%.0f" (rate seed_cfgs seed_t)
        ; Fmt.str "%.0f" (rate seed_cfgs serial_t)
        ; Fmt.str "%.1fx" (seed_t /. serial_t)
        ])
      [ 4, 1, 2, 4, 2_000_000
      ; 5, 1, 2, 3, 2_000_000
      ; 6, 1, 2, 2, 2_000_000
      ; 7, 1, 2, 2, 2_000_000
      ]
  in
  print_table
    [ "n"
    ; "k"
    ; "configs"
    ; "seed cfg/s"
    ; "explore cfg/s"
    ; "serial speedup"
    ]
    rows;
  Fmt.pr
    "same configurations, same violations; the gain is the memoized solo \
     oracle (the seed re-ran every solo execution from scratch).@."

let t10 () =
  section_header "t10"
    "chaos campaigns: fault-injection throughput and detection counts";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    r, Unix.gettimeofday () -. t0
  in
  let sim_row name (module P : Shmem.Protocol.S) kinds_label kinds runs =
    let module F = Fault.Sim (P) in
    let s, t = time (fun () -> F.campaign ~seed:42 ~runs ~kinds ()) in
    [ name
    ; "sim"
    ; kinds_label
    ; string_of_int runs
    ; string_of_int s.F.steps
    ; Fmt.str "%.0f" (float_of_int s.F.steps /. t)
    ; string_of_int s.F.fired
    ; string_of_int (List.length s.F.detections)
    ; string_of_int (List.length s.F.violations)
    ; string_of_int s.F.missed
    ]
  in
  let mc_row name (module P : Shmem.Protocol.S) runs =
    let module MC = Fault.Mc (P) in
    let s, t =
      time (fun () ->
          MC.campaign ~seed:42 ~runs ~kinds:Fault.benign_kinds ())
    in
    [ name
    ; "multicore"
    ; "benign"
    ; string_of_int runs
    ; string_of_int s.MC.total_ops
    ; Fmt.str "%.0f" (float_of_int s.MC.total_ops /. t)
    ; "-"
    ; "-"
    ; string_of_int (List.length s.MC.violations)
    ; "-"
    ]
  in
  let rows =
    [ sim_row "swap-ksa" (sksa ~n:4 ~k:1 ~m:2) "benign" Fault.benign_kinds 60
    ; sim_row "swap-ksa" (sksa ~n:4 ~k:1 ~m:2) "all" Fault.all_kinds 60
    ; sim_row "swap-ksa" (sksa ~n:6 ~k:2 ~m:3) "all" Fault.all_kinds 30
    ; sim_row "register-ksa"
        (Baselines.Register_ksa.make ~n:4 ~k:1 ~m:2)
        "all" Fault.all_kinds 30
    ; sim_row "cas" (Baselines.Cas_consensus.make ~n:4 ~m:2) "all"
        Fault.all_kinds 30
    ; mc_row "swap-ksa" (sksa ~n:4 ~k:1 ~m:2) 10
    ]
  in
  print_table
    [ "algo"
    ; "backend"
    ; "kinds"
    ; "runs"
    ; "steps/ops"
    ; "per sec"
    ; "fired"
    ; "detected"
    ; "violations"
    ; "missed"
    ]
    rows;
  Fmt.pr
    "violations and missed must be 0: benign faults (crash/stall) are \
     tolerated by obstruction-freedom, and every manifested object fault \
     (torn/lost/stale) is caught by the sequential-replay atomicity check \
     and shrunk to a locally-minimal schedule.@."

let t11 () =
  section_header "t11"
    "static analysis: lint throughput and measured solo maxima vs proved \
     bounds";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    r, Unix.gettimeofday () -. t0
  in
  let rows =
    List.map
      (fun (e : Baselines.Registry.entry) ->
        let r, t =
          time (fun () ->
              Analyze.run_protocol ~max_configs:5_000
                ?solo_bound:e.solo_bound ~prune:e.prune e.protocol)
        in
        [ e.name
        ; (if Analyze.ok r then "ok" else "FAIL")
        ; string_of_int r.Analyze.configs
        ; (if r.Analyze.exhaustive then "yes" else "no")
        ; Fmt.str "%b/%b" r.Analyze.declared_historyless
            r.Analyze.derived_historyless
        ; string_of_int r.Analyze.solo_measured_max
        ; (match r.Analyze.solo_bound with
          | Some b -> string_of_int b
          | None -> "-")
        ; Fmt.str "%.0f" (float_of_int r.Analyze.configs /. t)
        ])
      (Baselines.Registry.standard ())
  in
  print_table
    [ "algo"
    ; "verdict"
    ; "configs"
    ; "exhaustive"
    ; "historyless d/d"
    ; "solo max"
    ; "8(n-k)"
    ; "configs/sec"
    ]
    rows;
  Fmt.pr
    "every verdict must be ok; where a closed-form solo bound is declared \
     (Algorithm 1, Lemma 8) the measured maximum stays within it.@."

(* ----------------------------------------------------------------- T12 *)

(* Reduced vs unreduced exploration: the symmetry reduction
   (canonical-orbit interning) of lib/explore, measured on identical state
   spaces.  The check rows share T9's total-lap prune so
   every non-"-" run closes its graph inside the budget; the ratio column
   is the interned-state collapse the canonicalization buys.  Larger n run
   reduced-only — their unreduced spaces no longer fit the budget, which is
   the point of the reduction.  The Theorem 10 rows time the §5 induction,
   whose random walks run unreduced, and pin the objects it forces. *)
let t12 () =
  section_header "t12"
    "symmetry: reduced vs unreduced exploration (Swap_ksa)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    r, Unix.gettimeofday () -. t0
  in
  let max_configs = 3_000_000 in
  let check_rows =
    List.map
      (fun (n, lap, unreduced_too) ->
        let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
        let module C = Checker.Make (P) in
        let prune (c : C.E.config) =
          let total = ref 0 in
          Array.iter
            (fun v ->
              match v with
              | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
                Array.iter (fun x -> total := !total + x) u
              | _ -> ())
            c.C.E.mem;
          !total > lap
        in
        let inputs = Array.init n (fun i -> i mod 2) in
        let red, red_t =
          time (fun () ->
              C.explore ~max_configs ~prune ~sym:true ~inputs ())
        in
        assert (Checker.ok red);
        assert (red.Checker.configs_explored < max_configs);
        let full_cell, ratio_cell, speedup_cell =
          if not unreduced_too then "-", "-", "-"
          else begin
            let full, full_t =
              time (fun () -> C.explore ~max_configs ~prune ~inputs ())
            in
            assert (Checker.ok full);
            assert (full.Checker.configs_explored < max_configs);
            ( string_of_int full.Checker.configs_explored
            , Fmt.str "%.1fx"
                (float_of_int full.Checker.configs_explored
                /. float_of_int red.Checker.configs_explored)
            , Fmt.str "%.1fx" (full_t /. red_t) )
          end
        in
        [ string_of_int n
        ; string_of_int lap
        ; string_of_int red.Checker.configs_explored
        ; Fmt.str "%.2f" red_t
        ; full_cell
        ; ratio_cell
        ; speedup_cell
        ])
      [ 5, 3, true; 6, 2, true; 7, 2, true; 8, 2, false; 9, 1, false ]
  in
  print_table
    [ "n"
    ; "lap budget"
    ; "reduced configs"
    ; "reduced wall (s)"
    ; "unreduced configs"
    ; "state collapse"
    ; "wall speedup"
    ]
    check_rows;
  let t10_rows =
    List.map
      (fun (n, k, pinned) ->
        let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
        let module T = Lowerbound.Theorem10.Make (P) in
        let cert, wall = time (fun () -> T.run ~search_rounds:30 ()) in
        assert (cert.T.objects_forced = pinned);
        [ string_of_int n
        ; string_of_int k
        ; string_of_int (List.length cert.T.objects_forced)
        ; Fmt.str "%.2f" wall
        ])
      [ 8, 2, [ 0; 1; 2 ]; 9, 3, [ 0; 1 ] ]
  in
  print_table [ "n"; "k"; "objects forced"; "T10 plain wall (s)" ] t10_rows;
  Fmt.pr
    "every reduced verdict ok and every certificate as pinned; the collapse \
     column is bounded by the input-vector stabilizer (%s at n=7) and must \
     stay >= 10x there.@."
    "4!*3! = 144"

(* ----------------------------------------------------------------- T13 *)

(* Declared-property overhead: the checker's generic driver evaluates the
   §4 properties (three step relations on the expanded edges their guards
   let through, which on Algorithm 1 is none, and the totality invariant
   on every visited configuration) incrementally during exploration.  Attaching them must not change the explored graph or the
   verdict (test/test_prop.ml proves verdict-for-verdict equality); this
   table times what riding along costs.  Both runs are measured best-of-3
   after a shared warm-up, on the symmetry-reduced graph under T12's
   total-lap prune.  The overhead column is the gate: it must stay within
   the 10% budget at every row. *)
let t13 () =
  section_header "t13"
    "declared-property overhead: exploration with vs without §4 props";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    r, Unix.gettimeofday () -. t0
  in
  (* interleave the two sides trial by trial: background-load drift on a
     shared runner then biases both minima equally instead of landing
     wholly on whichever side was measured second *)
  let best_of_pair k f g =
    let rec go k (bf, bg) =
      if k = 0 then (bf, bg)
      else
        let _, tf = time f in
        let _, tg = time g in
        go (k - 1) (min bf tf, min bg tg)
    in
    go k (infinity, infinity)
  in
  let max_configs = 3_000_000 in
  let sum_bare = ref 0. and sum_attached = ref 0. in
  let rows =
    List.map
      (fun (n, lap) ->
        let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
        let module M = Core.Swap_ksa_monitor.Make (P) in
        let module C = Checker.Make (P) in
        let prune (c : C.E.config) =
          let total = ref 0 in
          Array.iter
            (fun v ->
              match v with
              | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
                Array.iter (fun x -> total := !total + x) u
              | _ -> ())
            c.C.E.mem;
          !total > lap
        in
        let inputs = Array.init n (fun i -> i mod 2) in
        let bare () =
          C.explore ~max_configs ~prune ~sym:true ~inputs ()
        in
        let attached () =
          C.explore ~max_configs ~prune ~sym:true
            ~extra_props:(fun _ -> M.online_props)
            ~inputs ()
        in
        (* identical graphs, clean verdicts — the timing below compares
           like with like *)
        let rb, _ = time bare in
        let ra, _ = time attached in
        assert (Checker.ok rb && Checker.ok ra);
        assert (rb.Checker.configs_explored = ra.Checker.configs_explored);
        let bare_t, attached_t = best_of_pair 5 bare attached in
        sum_bare := !sum_bare +. bare_t;
        sum_attached := !sum_attached +. attached_t;
        let overhead_pct = (attached_t /. bare_t -. 1.) *. 100. in
        [ string_of_int n
        ; string_of_int lap
        ; string_of_int rb.Checker.configs_explored
        ; Fmt.str "%.3f" bare_t
        ; Fmt.str "%.3f" attached_t
        ; Fmt.str "%.1f" overhead_pct
        ])
      [ 5, 4; 6, 3; 7, 3 ]
  in
  let rows =
    rows
    @ [ [ "all"
        ; "-"
        ; "-"
        ; Fmt.str "%.3f" !sum_bare
        ; Fmt.str "%.3f" !sum_attached
        ; Fmt.str "%.1f" ((!sum_attached /. !sum_bare -. 1.) *. 100.)
        ]
      ]
  in
  print_table
    [ "n"
    ; "lap budget"
    ; "configs"
    ; "bare wall (s)"
    ; "props wall (s)"
    ; "overhead %"
    ]
    rows;
  Fmt.pr
    "identical graphs and verdicts by construction; the overhead column \
     is the property-evaluation cost.  Budget: <= 10 on the aggregate \
     'all' row (per-row numbers are informational — single rows are \
     noise-prone on shared runners).@."

(* ----------------------------------------------------------------- T14 *)

(* Supervision and crash-recovery cost: the same protocol on real domains
   (a) bare through Runtime.Make, (b) under Supervisor.Make with no crash
   injected (pure supervision overhead: breaker + merged-view accounting
   around a single round), and (c) under supervision with one seeded
   victim crash per run, which exercises detection, state rebuild through
   P.recovery and a respawn round.  The crashed column also reports
   time-to-recover quantiles out of report.recover_ns (failure detection
   to the recovery round's last join).  Wall times feed the CI bench gate
   like every other section; the overhead of (b) over (a) is the number
   to watch — supervision must be free when nothing fails. *)
let t14 () =
  section_header "t14" "supervised recovery: overhead and time-to-recover";
  let runs = 20 in
  let rows =
    List.map
      (fun n ->
        let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
        let module R = Runtime.Make (P) in
        let module Sup = Supervisor.Make (P) in
        let inputs = Array.init n (fun i -> i mod 2) in
        let bare = ref 0. in
        for seed = 1 to runs do
          let o = R.run ~inputs ~seed () in
          (match R.check ~inputs o with Ok () -> () | Error e -> failwith e);
          bare := !bare +. o.R.elapsed
        done;
        let quiet = ref 0. in
        for seed = 1 to runs do
          let r = Sup.supervise ~inputs ~seed () in
          (match Sup.check ~inputs r with
          | Ok () -> ()
          | Error e -> failwith e);
          assert (r.Sup.rounds = 1);
          quiet := !quiet +. r.Sup.outcome.Sup.R.elapsed
        done;
        let crashed = ref 0. in
        let respawns = ref 0 in
        let lat = ref [] in
        for seed = 1 to runs do
          let victim = seed mod n in
          let crash_plan ~round ~pid =
            if round = 0 && pid = victim then Some (seed mod 16) else None
          in
          let r = Sup.supervise ~inputs ~seed ~crash_plan () in
          (match Sup.check ~inputs r with
          | Ok () -> ()
          | Error e -> failwith e);
          crashed := !crashed +. r.Sup.outcome.Sup.R.elapsed;
          respawns := !respawns + Array.fold_left ( + ) 0 r.Sup.respawns;
          lat := r.Sup.recover_ns @ !lat
        done;
        let lat = List.sort Int64.compare !lat in
        let pct p =
          match lat with
          | [] -> 0.
          | l ->
            let len = List.length l in
            let idx = min (len - 1) (((p * (len - 1)) + 99) / 100) in
            Int64.to_float (List.nth l idx) /. 1e6
        in
        let per t = t /. float_of_int runs in
        [ string_of_int n
        ; Fmt.str "%.4f" (per !bare)
        ; Fmt.str "%.4f" (per !quiet)
        ; Fmt.str "%.1f" ((!quiet /. !bare -. 1.) *. 100.)
        ; Fmt.str "%.4f" (per !crashed)
        ; string_of_int !respawns
        ; Fmt.str "%.3f" (pct 50)
        ; Fmt.str "%.3f" (pct 99)
        ])
      [ 4; 8 ]
  in
  print_table
    [ "n"
    ; "bare (s)"
    ; "supervised quiet (s)"
    ; "overhead %"
    ; "1-crash (s)"
    ; "respawns"
    ; "recover p50 (ms)"
    ; "recover p99 (ms)"
    ]
    rows;
  Fmt.pr
    "quiet supervision = one round, no respawns: its overhead column is \
     bookkeeping only and should stay near zero.  The crashed column \
     pays detection (the round's watchdog join) + rebuild + one respawn \
     round; p50/p99 are per-incarnation failure-detection-to-join \
     latencies from report.recover_ns.@."

let t15 () =
  section_header "t15"
    "arena service: closed-loop throughput and latency vs domain count";
  let protocol : Shmem.Protocol.t =
    let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
    (module P)
  in
  let rounds = 4_000 and clients = 256 in
  let rows =
    List.concat_map
      (fun domains ->
        List.map
          (fun (label, kill_every) ->
            let open Arena.Loadgen in
            let r =
              run ~protocol ~clients ~rounds ~workers:domains ~seed:7
                ~profile:Zero_think ?kill_every ()
            in
            if not r.ok then
              failwith
                (Fmt.str "t15: %s run failed at %d domains (%d violations)"
                   label domains r.violation_count);
            [ string_of_int domains
            ; label
            ; Fmt.str "%.0f" r.rounds_per_sec
            ; Fmt.str "%.0f" r.decisions_per_sec
            ; Fmt.str "%.1f" r.decide_p50_us
            ; Fmt.str "%.1f" r.decide_p99_us
            ; string_of_int r.kills
            ; string_of_int r.steals
            ])
          [ "quiet", None; "kill-and-heal", Some 8 ])
      [ 1; 2; 4 ]
  in
  print_table
    [ "domains"
    ; "overlay"
    ; "rounds/s"
    ; "decisions/s"
    ; "decide p50 (us)"
    ; "decide p99 (us)"
    ; "kills"
    ; "steals"
    ]
    rows;
  Fmt.pr
    "closed-loop service (%d clients, %d rounds, zero-think saturation): \
     workers pull whole rounds from pooled epoch-stamped arenas, so \
     throughput should scale with domains until admission serializes.  \
     The kill-and-heal overlay (one round in 8 loses its driving \
     incarnation; the round is adopted at the degraded bound) pays a \
     respawn per kill — its throughput column prices recovery, and every \
     run still passes agreement/validity/conservation or the bench \
     aborts.@."
    clients rounds

let t16 () =
  section_header "t16"
    "space certification & lint: declared vs measured bounds, lint \
     throughput";
  let rows =
    List.map
      (fun (e : Baselines.Registry.entry) ->
        let r =
          Analyze.Space.run_protocol ~prune:e.prune ~certificate:false
            e.protocol
        in
        [ e.name
        ; string_of_int r.Analyze.Space.n
        ; string_of_int r.Analyze.Space.k
        ; string_of_int r.Analyze.Space.declared
        ; string_of_int r.Analyze.Space.measured
        ; string_of_int r.Analyze.Space.witness
        ; string_of_int r.Analyze.Space.configs
        ; (if r.Analyze.Space.exhaustive then "yes" else "no")
        ; (if Analyze.Space.ok r then "pass" else "FAIL")
        ])
      (Baselines.Registry.standard ~n:4 ())
  in
  print_table
    [ "protocol"
    ; "n"
    ; "k"
    ; "declared"
    ; "measured"
    ; "witness"
    ; "configs"
    ; "exhaustive"
    ; "certified"
    ]
    rows;
  (* lint throughput: the whole-tree plan [swapspace lint] runs, timed.
     The bench may be invoked away from the repo root (e.g. an installed
     binary); skip rather than fail in that case. *)
  let core = [ "lib/core"; "lib/baselines" ] in
  let mono =
    [ "lib/resil"; "lib/runtime"; "lib/arena"; "lib/prop"; "lib/obs"
    ; "lib/fault" ]
  in
  let conc = [ "lib/runtime"; "lib/arena"; "lib/resil" ] in
  if List.for_all Sys.file_exists (core @ mono @ conc) then begin
    let plan =
      List.map
        (fun d -> d, [ Lint.purity; Lint.poly_hash; Lint.state_equality ])
        core
      @ List.map (fun d -> d, [ Lint.monotonic ]) mono
      @ List.map
          (fun d -> d, [ Lint.domain_escape; Lint.atomics_discipline ])
          conc
    in
    let files =
      List.fold_left
        (fun acc (d, _) -> acc + List.length (Lint.ml_files d))
        0 plan
    in
    let t0 = Unix.gettimeofday () in
    let findings = Lint.run_plan plan in
    let dt = Unix.gettimeofday () -. t0 in
    print_table
      [ "lint files"; "findings"; "wall (s)"; "files/s" ]
      [ [ string_of_int files
        ; string_of_int (List.length findings)
        ; Fmt.str "%.3f" dt
        ; Fmt.str "%.0f" (float_of_int files /. Float.max dt 1e-9)
        ] ]
  end
  else
    Fmt.pr "lint throughput skipped: source tree not visible from cwd@.";
  Fmt.pr
    "space certification explores the reduced configuration graph and \
     unions the objects any reachable process is poised to access: \
     measured <= declared is the soundness direction the gate enforces, \
     witness is the densest single explored execution, and the lap-pruned \
     protocols report exhaustive = no (their tightness is not assessable \
     by a bounded search).  The lint table times the same whole-tree pass \
     plan the CI lint job runs.@."

(* ------------------------------------------------------------- figures *)

let f1 () =
  section_header "f1" "Lemma 15 construction chain (paper Figure 1)";
  (* n = 8: large enough that the construction exercises both cases of the
     induction (a covered object enters Y) *)
  let (module B) = Baselines.Binary_track_consensus.make ~n:8 ~cap:8 in
  let module L = Lowerbound.Binary_lb.Make (B) in
  let r = L.run () in
  Fmt.pr "%a@.@.%a@." L.pp_result r L.pp_figure r

let f2 () =
  section_header "f2" "Lemma 19 construction chain (paper Figure 2)";
  let (module B) = Baselines.Binary_track_consensus.make ~n:4 ~cap:8 in
  let module L = Lowerbound.Bounded_lb.Make (B) in
  let r = L.run () in
  Fmt.pr "%a@.@.%a@." L.pp_result r L.pp_figure r

(* ----------------------------------------------------------- bechamel *)

let bechamel () =
  section_header "bechamel" "wall-clock micro-benchmarks (one per table)";
  let open Bechamel in
  let simulated protocol ~burst name =
    Test.make ~name
      (Staged.stage (fun () ->
           let (module P : Shmem.Protocol.S) = protocol in
           let module E = Shmem.Exec.Make (P) in
           let rng = Random.State.make [| 3 |] in
           let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
           let _, _, outcome =
             E.run ~sched:(E.bursty rng ~burst) ~max_steps:100_000
               (E.initial ~inputs)
           in
           assert (outcome = E.All_decided)))
  in
  let tests =
    [ (* T1: the Lemma 9 adversary, full certificate *)
      Test.make ~name:"t1/lemma9-adversary-n8"
        (Staged.stage (fun () -> ignore (forced_objects ~n:8 ~k:1)))
    ; (* T2: a solo execution *)
      Test.make ~name:"t2/solo-run-n16"
        (Staged.stage
           (let (module P) = Core.Swap_ksa.make ~n:16 ~k:1 ~m:2 in
            let module E = Shmem.Exec.Make (P) in
            let inputs = Array.init 16 (fun i -> i mod 2) in
            let c0 = E.initial ~inputs in
            fun () ->
              match E.run_solo ~pid:0 ~max_steps:200 c0 with
              | Some _ -> ()
              | None -> assert false))
    ; (* T3/T4/F1/F2: the Lemma 15 construction at n=3 *)
      Test.make ~name:"t3/lemma15-construction-n3"
        (Staged.stage (fun () ->
             let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:8 in
             let module L = Lowerbound.Binary_lb.Make (B) in
             ignore (L.run ())))
    ; (* T5/T6: simulated contended runs *)
      simulated (sksa ~n:8 ~k:1 ~m:2) ~burst:112 "t6/swap-ksa-n8-bursty"
    ; simulated
        (Baselines.Register_ksa.make ~n:8 ~k:1 ~m:2)
        ~burst:112 "t6/register-ksa-n8-bursty"
    ; (* T7: a real multicore decision *)
      Test.make ~name:"t7/multicore-n4"
        (Staged.stage
           (let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
            let module R = Runtime.Make (P) in
            let inputs = [| 0; 1; 0; 1 |] in
            fun () -> ignore (R.run ~inputs ())))
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false
        ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.iter
      (fun name ols ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Fmt.str "%.0f ns/run" est
          | _ -> "n/a"
        in
        Fmt.pr "  %-32s %s@." name ns)
      results
  in
  List.iter
    (fun t -> benchmark (Test.make_grouped ~name:"bench" [ t ]))
    tests

(* ------------------------------------------------------------ compare *)

(* [bench compare old.json new.json]: the CI regression gate.  Each record
   is a [--json] document from a previous run; a section's wall time is the
   max [wall_s] among its tables (wall_s is cumulative since the section
   header, so the max is the section total).  Sections present only in the
   new record are ignored — new benchmarks are not regressions — while
   sections that disappeared fail the gate. *)
let wall_by_section path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | doc -> (
  match Obs.Json.of_string doc with
  | Error e -> Error (Fmt.str "%s: %s" path e)
  | Ok json -> (
    match Option.bind (Obs.Json.mem "tables" json) Obs.Json.arr_opt with
    | None -> Error (Fmt.str "%s: no \"tables\" array" path)
    | Some tables ->
      let walls = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun t ->
          match
            ( Option.bind (Obs.Json.mem "section" t) Obs.Json.str_opt,
              Option.bind (Obs.Json.mem "wall_s" t) Obs.Json.num_opt )
          with
          | Some sec, Some w ->
            if not (Hashtbl.mem walls sec) then order := sec :: !order;
            Hashtbl.replace walls sec
              (max w (Option.value ~default:0. (Hashtbl.find_opt walls sec)))
          | _ -> ())
        tables;
      Ok
        (List.rev_map (fun sec -> sec, Hashtbl.find walls sec) !order
        |> List.rev)))

let run_compare args =
  let usage () =
    Fmt.epr
      "usage: bench compare OLD.json NEW.json [--max-regress PCT] \
       [--min-seconds S]@.";
    exit 2
  in
  let max_regress = ref 30. and floor = ref 0.05 in
  let files = ref [] in
  let float_arg name v =
    match float_of_string_opt v with
    | Some f -> f
    | None ->
      Fmt.epr "bad %s %s (want a number)@." name v;
      usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--max-regress" :: v :: rest ->
      max_regress := float_arg "--max-regress" v;
      parse rest
    | "--min-seconds" :: v :: rest ->
      floor := float_arg "--min-seconds" v;
      parse rest
    | a :: rest -> (
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "--max-regress" ->
        max_regress :=
          float_arg "--max-regress"
            (String.sub a (i + 1) (String.length a - i - 1));
        parse rest
      | Some i when String.sub a 0 i = "--min-seconds" ->
        floor :=
          float_arg "--min-seconds"
            (String.sub a (i + 1) (String.length a - i - 1));
        parse rest
      | _ ->
        if String.length a > 0 && a.[0] = '-' then begin
          Fmt.epr "unknown option %s@." a;
          usage ()
        end;
        files := a :: !files;
        parse rest)
  in
  parse args;
  match List.rev !files with
  | [ old_path; new_path ] -> (
    match wall_by_section old_path, wall_by_section new_path with
    | Error e, _ | _, Error e ->
      Fmt.epr "bench compare: %s@." e;
      exit 2
    | Ok baseline, Ok current ->
      let rows =
        Obs.Compare.run ~max_regress:!max_regress ~floor:!floor ~baseline
          ~current ()
      in
      (* audit trail: say exactly which tables this comparison covered,
         and name the one-sided ones — a table present only in the
         baseline is a Missing failure below, but one present only in
         the new file would otherwise be skipped without a trace *)
      let names l = List.map fst l in
      let only_in a b =
        List.filter (fun s -> not (List.mem s (names b))) (names a)
      in
      let compared =
        List.filter (fun s -> List.mem s (names current)) (names baseline)
      in
      Fmt.pr "compared %d table(s): %s@." (List.length compared)
        (String.concat ", " compared);
      (match only_in baseline current with
      | [] -> ()
      | gone ->
        Fmt.pr "only in %s (compared as Missing): %s@." old_path
          (String.concat ", " gone));
      (match only_in current baseline with
      | [] -> ()
      | fresh ->
        Fmt.pr "only in %s (no baseline yet, not compared): %s@." new_path
          (String.concat ", " fresh));
      Fmt.pr "%a@." Obs.Compare.pp rows;
      if Obs.Compare.failed rows then begin
        Fmt.pr "FAIL: regression beyond %.0f%% budget@." !max_regress;
        exit 1
      end
      else Fmt.pr "OK: within %.0f%% budget@." !max_regress)
  | _ -> usage ()

(* --------------------------------------------------------------- main *)

let sections =
  [ "t0", t0; "t1", t1; "t2", t2; "t3", t3; "t4", t4; "t5", t5; "t6", t6; "t7", t7
  ; "t8", t8; "t9", t9; "t10", t10; "t11", t11; "t12", t12; "t13", t13
  ; "t14", t14; "t15", t15; "t16", t16
  ; "f1", f1
  ; "f2", f2; "bechamel", bechamel ]

let run_tables args =
  (* accept "--csv DIR", "--csv=DIR", "--json FILE" and "--json=FILE" *)
  let rec strip = function
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      strip rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      strip rest
    | a :: rest -> (
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "--csv" ->
        csv_dir := Some (String.sub a (i + 1) (String.length a - i - 1));
        strip rest
      | Some i when String.sub a 0 i = "--json" ->
        json_path := Some (String.sub a (i + 1) (String.length a - i - 1));
        strip rest
      | _ -> a :: strip rest)
    | [] -> []
  in
  let args = strip args in
  (* instrument only recorded runs: [--json] documents carry obs snapshots
     and feed the regression gate, while plain (human-readable) runs keep
     the disabled fast path they are meant to measure *)
  if !json_path <> None then Obs.enable ();
  let requested =
    match args with
    | _ :: _ when not (List.mem "all" args) -> args
    | _ -> List.map fst sections
  in
  List.iter
    (fun id ->
      match List.assoc_opt id sections with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown section %s (available: %s)@." id
          (String.concat " " (List.map fst sections));
        exit 1)
    requested;
  write_json ();
  Fmt.pr "@.done.@."

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> run_compare rest
  | args -> run_tables args
