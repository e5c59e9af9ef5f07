(* The swapspace command-line interface.

     swapspace run        simulate an algorithm under a chosen scheduler
     swapspace check      model-check an algorithm (exhaustive or random)
     swapspace analyze    static protocol lints + solo-bound verification
     swapspace lemma9     run the Theorem 10 / Lemma 9 adversary
     swapspace lb-binary  run the Lemma 15 construction (Theorem 17)
     swapspace lb-bounded run the Lemma 19 construction (Theorem 21)
     swapspace multicore  run an algorithm on real domains *)

open Cmdliner

(* ---------------------------------------------------------- protocols *)

let protocol_of ~algo ~n ~k ~m ~cap : (module Shmem.Protocol.S) =
  match algo with
  | "swap-ksa" ->
    let (module P) = Core.Swap_ksa.make ~n ~k ~m in
    (module P)
  | "register-ksa" -> Baselines.Register_ksa.make ~n ~k ~m
  | "readable-swap" -> Baselines.Readable_swap_consensus.make ~n ~m
  | "binary-track" ->
    let (module B) = Baselines.Binary_track_consensus.make ~n ~cap in
    (module B)
  | "bitwise" -> Baselines.Bitwise_consensus.make ~n ~m ~cap
  | "grouped" -> Baselines.Grouped_ksa.make ~n ~k ~m
  | "cas" -> Baselines.Cas_consensus.make ~n ~m
  | "two-proc" -> Core.Two_proc_swap.make ~m
  | "pair-ksa" -> Core.Pair_ksa.make ~n ~m
  | other ->
    Fmt.failwith
      "unknown algorithm %s (try swap-ksa, register-ksa, readable-swap, \
       binary-track, bitwise, grouped, cas, two-proc, pair-ksa)"
      other

(* [check] and [analyze] are the verbs CI drives over algorithm names, so
   an unknown name is a usage error (exit 2, like cmdliner's own), not an
   uncaught exception *)
let protocol_or_usage_error ~algo ~n ~k ~m ~cap =
  match protocol_of ~algo ~n ~k ~m ~cap with
  | p -> p
  | exception Failure msg ->
    Fmt.epr "swapspace: %s@." msg;
    exit 2

(* --------------------------------------------------------------- args *)

let algo =
  Arg.(
    value
    & opt string "swap-ksa"
    & info [ "algo"; "a" ] ~docv:"NAME" ~doc:"Algorithm to use.")

let n = Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Processes.")

let k =
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Agreement parameter.")

let m =
  Arg.(value & opt int 2 & info [ "m" ] ~docv:"M" ~doc:"Number of inputs.")

let cap =
  Arg.(
    value & opt int 16
    & info [ "cap" ] ~docv:"CAP" ~doc:"Track length for binary-track.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let inputs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inputs"; "i" ] ~docv:"I0,I1,..."
        ~doc:"Comma-separated inputs (default: pid mod m).")

let parse_inputs ~n ~m = function
  | None -> Array.init n (fun i -> i mod m)
  | Some s ->
    let l = String.split_on_char ',' s |> List.map int_of_string in
    if List.length l <> n then Fmt.failwith "expected %d inputs" n;
    Array.of_list l

(* symmetry reduction is on by default for the verbs that explore state
   spaces; [--no-sym] is the escape hatch for debugging the reduction
   itself or comparing against the full graph *)
let no_sym_arg =
  Arg.(
    value & flag
    & info [ "no-sym" ]
        ~doc:
          "Disable the process-permutation symmetry reduction (explore the \
           full configuration graph instead of one representative per \
           orbit).")

(* ------------------------------------------------------------ metrics *)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "table") (some string) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Enable the observability layer for this run and print a metric \
           snapshot afterwards, rendered as $(docv): 'table' (default) or \
           'json'.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the --metrics snapshot to $(docv) instead of stdout.")

(* enable obs before the workload, snapshot after it; the snapshot is
   emitted before any violation-driven non-zero exit so CI can always
   collect it *)
let with_metrics ~metrics ~out f =
  match metrics with
  | None -> f ()
  | Some fmt ->
    (match fmt with
    | "table" | "json" -> ()
    | s -> Fmt.failwith "unknown --metrics format %s (table, json)" s);
    Obs.enable ();
    let result = f () in
    let snap = Obs.snapshot () in
    let doc =
      match fmt with
      | "json" -> Obs.Json.to_string (Obs.snapshot_to_json snap) ^ "\n"
      | _ -> Fmt.str "@[<v>%a@]" Obs.pp_table snap
    in
    (match out with
    | None ->
      print_string doc;
      flush stdout
    | Some file ->
      let oc = open_out file in
      output_string oc doc;
      close_out oc);
    result

(* ---------------------------------------------------------------- run *)

let run_cmd =
  let go algo n k m cap seed inputs sched burst max_steps show_trace script
      diagram =
    let (module P) = protocol_of ~algo ~n ~k ~m ~cap in
    let module E = Shmem.Exec.Make (P) in
    let module Pr = Prop.Make (P) in
    let inputs = parse_inputs ~n:P.n ~m:P.num_inputs inputs in
    let rng = Random.State.make [| seed |] in
    let c0 = E.initial ~inputs in
    let c, trace, outcome =
      match script with
      | Some text -> (
        match Shmem.Schedule.parse text with
        | Error e -> Fmt.failwith "bad --script: %s" e
        | Ok pids ->
          let c, trace = E.run_script c0 pids in
          c, trace, E.Stopped)
      | None ->
        let sched =
          match sched with
          | "random" -> E.random rng
          | "round-robin" -> E.round_robin
          | "bursty" -> E.bursty rng ~burst
          | s -> Fmt.failwith "unknown scheduler %s" s
        in
        E.run ~sched ~max_steps c0
    in
    if show_trace then Fmt.pr "%a@." Shmem.Trace.pp trace;
    if diagram then
      Fmt.pr "@[<v>%a@]@." (fun ppf -> Shmem.Timeline.render ~n:P.n ppf) trace;
    Fmt.pr "%s: inputs=[%a] outcome=%s decided=[%a]@." P.name
      Fmt.(array ~sep:(any ",") int)
      inputs
      (match outcome with
      | E.All_decided -> "all-decided"
      | E.Stopped -> "stopped"
      | E.Step_limit -> "step-limit")
      Fmt.(list ~sep:(any ",") int)
      (E.decided_values c);
    Fmt.pr "%a@." Shmem.Stats.pp (Shmem.Stats.of_trace trace);
    if Option.is_some (Pr.check_agreement ~bound:P.k c.E.states) then
      Fmt.failwith "k-AGREEMENT VIOLATED";
    if Option.is_some (Pr.check_validity ~inputs c.E.states) then
      Fmt.failwith "VALIDITY VIOLATED"
  in
  let sched =
    Arg.(
      value & opt string "bursty"
      & info [ "sched" ] ~docv:"S" ~doc:"Scheduler: random, round-robin, bursty.")
  in
  let burst =
    Arg.(
      value & opt int 64
      & info [ "burst" ] ~docv:"B" ~doc:"Solo window for the bursty scheduler.")
  in
  let max_steps =
    Arg.(
      value & opt int 100_000
      & info [ "max-steps" ] ~docv:"STEPS" ~doc:"Step limit.")
  in
  let show_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full trace.")
  in
  let script =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"SCHED"
          ~doc:"Run this exact schedule (e.g. '0x3, 1, (2 0)x2') instead of \
                a scheduler.")
  in
  let diagram =
    Arg.(
      value & flag
      & info [ "diagram" ] ~doc:"Draw a space-time diagram of the execution.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate an algorithm under a chosen scheduler.")
    Term.(
      const go $ algo $ n $ k $ m $ cap $ seed $ inputs_arg $ sched $ burst
      $ max_steps $ show_trace $ script $ diagram)

(* -------------------------------------------------------------- check *)

(* the checker's own properties, always in force unless deselected *)
let builtin_prop_names = [ "k-agreement"; "validity"; "solo-termination" ]

(* --props all | none | P1,P2,... compiled to the checker's [?select] *)
let parse_prop_select = function
  | "all" -> None
  | "none" -> Some []
  | s ->
    Some
      (String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> ""))

(* the declared-property pack the CLI attaches to a protocol built from raw
   --algo/--n/--k/--m flags (the registry carries packs for its own
   entries): Algorithm 1 gets the §4 invariant monitor, everything else the
   generic protocol-independent set *)
let pack_of_algo ~algo ~n ~k ~m (module P : Shmem.Protocol.S) : Prop.pack =
  if algo = "swap-ksa" then
    (module struct
      module P = (val Core.Swap_ksa.make ~n ~k ~m)

      let props =
        let module M = Core.Swap_ksa_monitor.Make (P) in
        M.online_props
    end)
  else Prop.generic_pack (module P)

let check_cmd =
  let go algo n k m cap inputs all_inputs all_algos props_sel lap_cap
      total_lap max_configs no_solo no_sym metrics metrics_out =
    let sym = not no_sym in
    let select = parse_prop_select props_sel in
    (* an unknown --props name is a usage error, like an unknown --algo *)
    let or_usage f =
      match f () with
      | r -> r
      | exception Invalid_argument msg ->
        Fmt.epr "swapspace: %s@." msg;
        exit 2
    in
    if all_algos then begin
      (* every registry entry, all input vectors, with the entry's own
         declared-property pack riding along *)
      let entries = Baselines.Registry.standard ~n () in
      let results =
        with_metrics ~metrics ~out:metrics_out (fun () ->
            List.map
              (fun (e : Baselines.Registry.entry) ->
                let (module Pk) = e.props in
                let module C = Checker.Make (Pk.P) in
                let module PM = Prop.Make (Pk.P) in
                let extra =
                  List.filter
                    (fun p ->
                      not (List.mem (PM.name p) builtin_prop_names))
                    Pk.props
                in
                let prune (c : C.E.config) = e.prune c.C.E.mem in
                ( e.name,
                  or_usage (fun () ->
                      C.explore_all_inputs ~prune ~max_configs
                        ~check_solo:(not no_solo) ~sym
                        ~extra_props:(fun _ -> extra)
                        ?select ()) ))
              entries)
      in
      List.iter
        (fun (name, r) -> Fmt.pr "%s: %a@." name Checker.pp_report r)
        results;
      if not (List.for_all (fun (_, r) -> Checker.ok r) results) then exit 1
    end
    else begin
      let p = protocol_or_usage_error ~algo ~n ~k ~m ~cap in
      let (module Pk) = pack_of_algo ~algo ~n ~k ~m p in
      let module P = Pk.P in
      let module C = Checker.Make (P) in
      let module PM = Prop.Make (P) in
      let extra =
        List.filter
          (fun pr -> not (List.mem (PM.name pr) builtin_prop_names))
          Pk.props
      in
      let extra_props _ = extra in
      let prune (c : C.E.config) =
        let cell_over =
          Array.exists
            (fun v ->
              match v with
              | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
                Array.exists (fun x -> x > lap_cap) u
              | _ -> false)
            c.C.E.mem
        in
        cell_over
        ||
        match total_lap with
        | None -> false
        | Some budget ->
          let total = ref 0 in
          Array.iter
            (fun v ->
              match v with
              | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
                Array.iter (fun x -> total := !total + x) u
              | _ -> ())
            c.C.E.mem;
          !total > budget
      in
      let report =
        with_metrics ~metrics ~out:metrics_out (fun () ->
            or_usage (fun () ->
                if all_inputs then
                  C.explore_all_inputs ~prune ~max_configs
                    ~check_solo:(not no_solo) ~sym ~extra_props ?select ()
                else
                  let inputs = parse_inputs ~n:P.n ~m:P.num_inputs inputs in
                  C.explore ~prune ~max_configs ~check_solo:(not no_solo) ~sym
                    ~extra_props ?select ~inputs ()))
      in
      Fmt.pr "%s: %a@." P.name Checker.pp_report report;
      if not (Checker.ok report) then exit 1
    end
  in
  let all_inputs =
    Arg.(value & flag & info [ "all-inputs" ] ~doc:"Check every input vector.")
  in
  let all_algos =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Check every registered algorithm (at $(b,--n)) over every \
             input vector, each with its registry-attached declared \
             properties; overrides $(b,--algo) and the lap-prune flags \
             (each entry uses its own pruning).")
  in
  let props_sel =
    Arg.(
      value & opt string "all"
      & info [ "props" ] ~docv:"P1,P2|all|none"
          ~doc:
            "Which properties to check: 'all' (default — the built-ins \
             k-agreement, validity, solo-termination plus every declared \
             property attached to the algorithm), 'none' (pure \
             enumeration), or a comma-separated list of property names \
             (see $(b,swapspace props)).  Unknown names are a usage error \
             (exit 2).")
  in
  let lap_cap =
    Arg.(
      value & opt int 3
      & info [ "lap-cap" ] ~docv:"L" ~doc:"Prune configurations beyond this lap.")
  in
  let total_lap =
    Arg.(
      value
      & opt (some int) None
      & info [ "total-lap" ] ~docv:"L"
          ~doc:
            "Additionally prune configurations whose lap counters sum to \
             more than $(docv) across all processes (the tighter budget \
             the T9/T12 benches use to close large-n graphs).")
  in
  let max_configs =
    Arg.(
      value & opt int 500_000
      & info [ "max-configs" ] ~docv:"N" ~doc:"Exploration budget.")
  in
  let no_solo =
    Arg.(value & flag & info [ "no-solo" ] ~doc:"Skip solo-termination checks.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check declared properties (built-ins: agreement, validity, \
          solo termination).")
    Term.(
      const go $ algo $ n $ k $ m $ cap $ inputs_arg $ all_inputs $ all_algos
      $ props_sel $ lap_cap $ total_lap $ max_configs $ no_solo $ no_sym_arg
      $ metrics_arg $ metrics_out_arg)

(* -------------------------------------------------------------- props *)

let props_cmd =
  let go algo n =
    let entries =
      match algo with
      | None -> Baselines.Registry.standard ~n ()
      | Some name -> (
        match Baselines.Registry.find name ~n with
        | Ok e -> [ e ]
        | Error msg ->
          Fmt.epr "swapspace: %s@." msg;
          exit 2)
    in
    Fmt.pr
      "built-in for every algorithm: k-agreement [invariant], validity \
       [invariant], solo-termination [invariant]@.";
    List.iter
      (fun (e : Baselines.Registry.entry) ->
        Fmt.pr "@.%s:@." e.name;
        match Prop.pack_specs e.props with
        | [] -> Fmt.pr "  (no declared properties)@."
        | specs ->
          List.iter (fun s -> Fmt.pr "  %a@." Prop.pp_spec s) specs)
      entries
  in
  let algo =
    Arg.(
      value
      & opt (some string) None
      & info [ "algo"; "a" ] ~docv:"NAME"
          ~doc:
            "Registry entry to list (prefix match); omitted (or with \
             $(b,--all)), every registered algorithm is listed.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"List every registered algorithm (default).")
  in
  let combine algo all =
    if all && algo <> None then (
      Fmt.epr "swapspace: --all and --algo are mutually exclusive@.";
      exit 2);
    algo
  in
  let algo = Term.(const combine $ algo $ all) in
  Cmd.v
    (Cmd.info "props"
       ~doc:
         "List the declared properties attached to each registered \
          algorithm (name, kind, statement) — the names $(b,check --props) \
          selects on.")
    Term.(const go $ algo $ n)

(* ------------------------------------------------------------- lemma9 *)

let lemma9_cmd =
  let go n k =
    let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
    let module T = Lowerbound.Theorem10.Make (P) in
    let cert = T.run () in
    List.iter
      (fun level ->
        match level with
        | T.Base l9 ->
          Fmt.pr "base case (k=1): adversary forced objects {%a}@."
            Fmt.(list ~sep:(any ",") int)
            l9.T.L9.objects_forced
        | T.Found_k_values { r; cert; _ } ->
          Fmt.pr "found a %d-values execution among R=%a; forced {%a}@."
            P.k
            Fmt.(list ~sep:(any ",") int)
            r
            Fmt.(list ~sep:(any ",") int)
            cert.T.L9.objects_forced
        | T.Recursed { r } ->
          Fmt.pr "no k-values execution found; recursing on R=%a@."
            Fmt.(list ~sep:(any ",") int)
            r)
      cert.T.levels;
    Fmt.pr "objects forced: %d  (theorem bound ⌈n/k⌉-1 = %d; Algorithm 1 \
            uses %d)@."
      (List.length cert.T.objects_forced)
      cert.T.bound (n - k)
  in
  Cmd.v
    (Cmd.info "lemma9"
       ~doc:"Run the Theorem 10 induction against Algorithm 1.")
    Term.(const go $ n $ k)

(* -------------------------------------------------------- lb engines *)

(* a falsified proof claim or an exhausted search budget fails the run
   (exit 1, one line on stderr), like a checker violation *)
let or_construction_failed ~verb f =
  try f ()
  with Lowerbound.Construction.Construction_failed msg ->
    Fmt.epr "swapspace %s: construction failed: %s@." verb
      (String.concat " " (String.split_on_char '\n' msg));
    exit 1

let lb_binary_cmd =
  let go n cap full =
    let (module B) = Baselines.Binary_track_consensus.make ~n ~cap in
    let module L = Lowerbound.Binary_lb.Make (B) in
    or_construction_failed ~verb:"lb-binary" (fun () ->
        let r = L.run ~include_others:full () in
        Fmt.pr "%a@.@.%a@." L.pp_result r L.pp_figure r)
  in
  let full =
    Arg.(
      value & flag
      & info [ "full-class" ]
          ~doc:"Search the full (Q ∪ P_i)-only witness class (slow).")
  in
  Cmd.v
    (Cmd.info "lb-binary"
       ~doc:"Run the Lemma 15 construction (Theorem 17) on binary-track.")
    Term.(const go $ n $ cap $ full)

let lb_bounded_cmd =
  let go n cap full =
    let (module B) = Baselines.Binary_track_consensus.make ~n ~cap in
    let module L = Lowerbound.Bounded_lb.Make (B) in
    or_construction_failed ~verb:"lb-bounded" (fun () ->
        let r = L.run ~include_others:full () in
        Fmt.pr "%a@.@.%a@." L.pp_result r L.pp_figure r)
  in
  let full =
    Arg.(
      value & flag
      & info [ "full-class" ]
          ~doc:"Search the full (Q ∪ P_i)-only witness class (slow).")
  in
  Cmd.v
    (Cmd.info "lb-bounded"
       ~doc:"Run the Lemma 19 construction (Theorem 21) on binary-track.")
    Term.(const go $ n $ cap $ full)

(* -------------------------------------------------------------- bounds *)

let bounds_cmd =
  let go n k b =
    Fmt.pr "space bounds at n=%d, k=%d, domain size b=%d:@." n k b;
    List.iter
      (fun (what, value) -> Fmt.pr "  %-55s %s@." what value)
      (Lowerbound.Bounds.summary ~n ~k ~b)
  in
  let b =
    Arg.(value & opt int 2 & info [ "b" ] ~docv:"B" ~doc:"Domain size.")
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print every bound from the paper in closed form.")
    Term.(const go $ n $ k $ b)

(* ---------------------------------------------------------- multicore *)

let multicore_cmd =
  let go algo n k m cap seed inputs metrics metrics_out =
    with_metrics ~metrics ~out:metrics_out @@ fun () ->
    let (module P) = protocol_of ~algo ~n ~k ~m ~cap in
    let module R = Runtime.Make (P) in
    let inputs = parse_inputs ~n:P.n ~m:P.num_inputs inputs in
    let o = R.run ~inputs ~seed () in
    (match R.check ~inputs o with
    | Ok () -> ()
    | Error e -> Fmt.failwith "%s (k-agreement/validity check)" e);
    Fmt.pr
      "%s: decided=[%a] in %.4fs; ops=[%a] backoffs=[%a]@." P.name
      Fmt.(array ~sep:(any ",") int)
      o.R.decisions o.R.elapsed
      Fmt.(array ~sep:(any ",") int)
      o.R.ops
      Fmt.(array ~sep:(any ",") int)
      o.R.backoffs
  in
  Cmd.v
    (Cmd.info "multicore"
       ~doc:"Run any algorithm on real domains via the generic runtime \
             (atomic objects, one domain per process).")
    Term.(
      const go $ algo $ n $ k $ m $ cap $ seed $ inputs_arg $ metrics_arg
      $ metrics_out_arg)

(* -------------------------------------------------------------- chaos *)

(* one backend-independent rendering of a campaign summary, so both the
   simulator and the multicore branches share the printer and exit logic *)
type chaos_out = {
  header : string;
  counters : string;
  expected : (int * string) list;  (** (run, rendered finding) *)
  unexpected : (int * string) list;
  failed : bool;
}

module Chaos_sim (P : Shmem.Protocol.S) = struct
  module F = Fault.Sim (P)

  let render (f : F.finding) =
    Fmt.str "plan [%a]@;<1 4>%a%a" Fault.pp_plan f.F.plan F.pp_violation
      f.F.violation
      Fmt.(
        option (fun ppf s ->
            Fmt.pf ppf "@;<1 4>minimal schedule: %s"
              (Shmem.Schedule.to_string s)))
      f.F.schedule

  let go ?props ?inputs ~burst ~max_steps ~seed ~runs ~kinds () =
    let s = F.campaign ?props ?inputs ~burst ~max_steps ~seed ~runs ~kinds () in
    { header =
        Fmt.str "chaos (sim) %s: %d runs, seed %d, kinds [%a]" P.name runs
          seed
          Fmt.(list ~sep:(any ",") (of_to_string Fault.kind_to_string))
          kinds;
      counters =
        Fmt.str "steps=%d fired=%d detections=%d violations=%d missed=%d%s"
          s.F.steps s.F.fired
          (List.length s.F.detections)
          (List.length s.F.violations)
          s.F.missed
          (match s.F.prop_detections with
          | [] -> ""
          | l ->
            Fmt.str " prop_detections=[%a]"
              Fmt.(
                list ~sep:(any ",") (pair ~sep:(any ":") string int))
              l);
      expected = List.map (fun f -> f.F.run, render f) s.F.detections;
      unexpected = List.map (fun f -> f.F.run, render f) s.F.violations;
      failed = s.F.violations <> [] || s.F.missed > 0
    }
end

module Chaos_mc (P : Shmem.Protocol.S) = struct
  module MC = Fault.Mc (P)

  let go ?pack ?inputs ~deadline ~seed ~runs ~kinds ~recover ~max_respawns ()
      =
    let s =
      MC.campaign ?pack ?inputs ~deadline ~seed ~runs ~kinds ~recover
        ~max_respawns ()
    in
    { header =
        Fmt.str "chaos (multicore%s) %s: %d runs, seed %d, kinds [%a]"
          (if recover then ", supervised" else "")
          P.name runs seed
          Fmt.(list ~sep:(any ",") (of_to_string Fault.kind_to_string))
          kinds;
      counters =
        Fmt.str
          "crashes=%d stalls=%d%s ops=%d elapsed=%.2fs hb_checked=%d \
           hb_skipped=%d violations=%d"
          s.MC.crashes_injected s.MC.stalls_injected
          (if recover then
             Fmt.str " respawns=%d rounds=%d" s.MC.respawns s.MC.rounds
           else "")
          s.MC.total_ops s.MC.elapsed s.MC.hb_checked s.MC.hb_skipped
          (List.length s.MC.violations);
      expected = [];
      unexpected =
        List.map
          (fun (f : MC.finding) ->
            ( f.MC.run,
              Fmt.str "plan [%a]@;<1 4>%s" Fault.pp_plan f.MC.plan
                f.MC.detail ))
          s.MC.violations;
      failed = s.MC.violations <> []
    }
end

let chaos_cmd =
  let go algo n k m cap seed inputs backend runs kinds burst max_steps deadline
      recover max_respawns metrics metrics_out =
    let kinds =
      match Fault.kinds_of_string kinds with
      | Ok [] -> Fmt.failwith "--kinds is empty"
      | Ok ks -> ks
      | Error e -> Fmt.failwith "bad --kinds: %s" e
    in
    let out =
      with_metrics ~metrics ~out:metrics_out @@ fun () ->
      match backend with
      | "sim" ->
        (* --recover: draw kill-and-heal plans — appended so the crash of
           an existing kind list is drawn first and the respawn heals it *)
        let kinds =
          if recover && not (List.mem Fault.Respawn_k kinds) then
            kinds @ [ Fault.Respawn_k ]
          else kinds
        in
        if algo = "swap-ksa" then (
          (* Algorithm 1 additionally gets the §4 invariants monitored on
             every step, as declared properties — the negative tests must
             trip one of them or the atomicity check, and the summary's
             prop_detections tallies which property caught what *)
          let (module P) = Core.Swap_ksa.make ~n ~k ~m in
          let module C = Chaos_sim (P) in
          let module M = Core.Swap_ksa_monitor.Make (P) in
          let inputs =
            Option.map
              (fun s -> parse_inputs ~n:P.n ~m:P.num_inputs (Some s))
              inputs
          in
          C.go ~props:M.online_props ?inputs ~burst ~max_steps ~seed ~runs
            ~kinds ())
        else
          let (module P) = protocol_or_usage_error ~algo ~n ~k ~m ~cap in
          let module C = Chaos_sim (P) in
          let inputs =
            Option.map
              (fun s -> parse_inputs ~n:P.n ~m:P.num_inputs (Some s))
              inputs
          in
          C.go ?inputs ~burst ~max_steps ~seed ~runs ~kinds ()
      | "multicore" ->
        let dropped = List.filter (fun k -> not (Fault.kind_is_benign k)) kinds in
        let kinds = List.filter Fault.kind_is_benign kinds in
        let kinds =
          if recover && not (List.mem Fault.Respawn_k kinds) then
            kinds @ [ Fault.Respawn_k ]
          else if not recover then
            List.filter (fun k -> k <> Fault.Respawn_k) kinds
          else kinds
        in
        if kinds = [] then
          Fmt.failwith
            "--backend multicore supports only benign fault kinds (crash, \
             stall): real atomics cannot be torn";
        if dropped <> [] then
          Fmt.epr
            "note: dropping simulator-only fault kinds [%a] on the \
             multicore backend@."
            Fmt.(list ~sep:(any ",") (of_to_string Fault.kind_to_string))
            dropped;
        if algo = "swap-ksa" then (
          (* under supervision the §4 config invariants double as the
             cross-recovery-boundary oracle, evaluated on the merged final
             snapshot *)
          let (module P) = Core.Swap_ksa.make ~n ~k ~m in
          let module C = Chaos_mc (P) in
          let module M = Core.Swap_ksa_monitor.Make (P) in
          let inputs =
            Option.map
              (fun s -> parse_inputs ~n:P.n ~m:P.num_inputs (Some s))
              inputs
          in
          C.go ~pack:M.online_props ?inputs ~deadline ~seed ~runs ~kinds
            ~recover ~max_respawns ())
        else
          let (module P) = protocol_or_usage_error ~algo ~n ~k ~m ~cap in
          let module C = Chaos_mc (P) in
          let inputs =
            Option.map
              (fun s -> parse_inputs ~n:P.n ~m:P.num_inputs (Some s))
              inputs
          in
          C.go ?inputs ~deadline ~seed ~runs ~kinds ~recover ~max_respawns ()
      | s -> Fmt.failwith "unknown backend %s (sim, multicore)" s
    in
    Fmt.pr "%s@.%s@." out.header out.counters;
    List.iter
      (fun (run, s) -> Fmt.pr "@[<v>detection (run %d): %s@]@." run s)
      out.expected;
    List.iter
      (fun (run, s) -> Fmt.pr "@[<v>VIOLATION (run %d): %s@]@." run s)
      out.unexpected;
    if out.failed then exit 1
  in
  let backend =
    Arg.(
      value & opt string "sim"
      & info [ "backend" ] ~docv:"B" ~doc:"Backend: sim or multicore.")
  in
  let runs =
    Arg.(
      value & opt int 100
      & info [ "runs" ] ~docv:"N" ~doc:"Number of randomized runs.")
  in
  let kinds =
    Arg.(
      value & opt string "all"
      & info [ "kinds" ] ~docv:"K1,K2,..."
          ~doc:"Fault kinds to draw plans from: crash, stall, respawn, \
                torn, lost, stale; or the groups 'all', 'benign' and \
                'recovery'.")
  in
  let recover =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:"Kill-and-heal campaigns: crashed processes come back \
                through the protocol's recovery hook — respawn plan \
                entries on the simulator, supervised respawns on fresh \
                domains on the multicore backend — and every run is held \
                to the degraded (k + crashed-incarnations)-agreement \
                contract, the cross-boundary happens-before check and the \
                declared property pack.")
  in
  let max_respawns =
    Arg.(
      value & opt int 2
      & info [ "max-respawns" ] ~docv:"R"
          ~doc:"Per-process respawn budget before the supervisor \
                escalates (multicore --recover).")
  in
  let burst =
    Arg.(
      value & opt int 32
      & info [ "burst" ] ~docv:"B" ~doc:"Solo window for the bursty scheduler.")
  in
  let max_steps =
    Arg.(
      value & opt int 100_000
      & info [ "max-steps" ] ~docv:"STEPS" ~doc:"Per-run step limit (sim).")
  in
  let deadline =
    Arg.(
      value & opt float 10.
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Per-run wall-clock watchdog (multicore).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run seeded randomized fault-injection campaigns: crash/stall \
             plans on either backend, torn/lost/stale object faults on the \
             simulator (negative tests — every manifestation must be \
             detected and is shrunk to a locally-minimal schedule), and \
             kill-and-heal recovery campaigns with $(b,--recover). Exit 0 \
             when clean, 1 on violations, 2 on usage errors.")
    Term.(
      const go $ algo $ n $ k $ m $ cap $ seed $ inputs_arg $ backend $ runs
      $ kinds $ burst $ max_steps $ deadline $ recover $ max_respawns
      $ metrics_arg $ metrics_out_arg)

(* -------------------------------------------------------------- resil *)

let resil_cmd =
  let go algo n k m cap seed inputs runs max_respawns deadline metrics
      metrics_out =
    let (module P) = protocol_or_usage_error ~algo ~n ~k ~m ~cap in
    let module Sup = Supervisor.Make (P) in
    let inputs = parse_inputs ~n:P.n ~m:P.num_inputs inputs in
    let failures = ref [] in
    let respawns = ref 0 in
    let rounds = ref 0 in
    let gave_up = ref 0 in
    let lat = ref [] in
    with_metrics ~metrics ~out:metrics_out (fun () ->
        for i = 0 to runs - 1 do
          let rng = Random.State.make [| seed; i; 0x0E51 |] in
          let victim = Random.State.int rng P.n in
          let crash_op = Random.State.int rng 32 in
          (* round 0 always kills one victim early; respawned incarnations
             are re-killed with probability 1/2 until the breaker trips *)
          let crash_plan ~round ~pid =
            if round = 0 then if pid = victim then Some crash_op else None
            else if Random.State.bool rng then
              Some (Random.State.int rng 32)
            else None
          in
          let policy =
            { (Sup.default_policy ()) with
              max_respawns;
              round_deadline = Some deadline
            }
          in
          let report =
            Sup.supervise ~inputs ~seed:(seed + i) ~policy ~crash_plan ()
          in
          respawns := !respawns + Array.fold_left ( + ) 0 report.Sup.respawns;
          rounds := !rounds + report.Sup.rounds;
          gave_up := !gave_up + List.length report.Sup.gave_up;
          lat := report.Sup.recover_ns @ !lat;
          match Sup.check ~inputs report with
          | Ok () -> ()
          | Error e -> failures := (i, e) :: !failures
        done);
    let lat = List.sort Int64.compare !lat in
    let pct p =
      match lat with
      | [] -> 0.
      | l ->
        let len = List.length l in
        let idx = min (len - 1) (((p * (len - 1)) + 99) / 100) in
        Int64.to_float (List.nth l idx) /. 1e6
    in
    Fmt.pr "resil %s: %d supervised runs, seed %d, max-respawns %d@." P.name
      runs seed max_respawns;
    Fmt.pr
      "respawns=%d rounds=%d gave_up=%d recoveries=%d recover_ms p50=%.3f \
       p99=%.3f@."
      !respawns !rounds !gave_up (List.length lat) (pct 50) (pct 99);
    List.iter
      (fun (i, e) -> Fmt.pr "VIOLATION (run %d): %s@." i e)
      (List.rev !failures);
    if !failures <> [] then exit 1
  in
  let runs =
    Arg.(
      value & opt int 20
      & info [ "runs" ] ~docv:"N" ~doc:"Number of supervised runs.")
  in
  let max_respawns =
    Arg.(
      value & opt int 2
      & info [ "max-respawns" ] ~docv:"R"
          ~doc:"Per-process respawn budget before the supervisor escalates.")
  in
  let deadline =
    Arg.(
      value & opt float 10.
      & info [ "deadline" ] ~docv:"SECS" ~doc:"Per-round watchdog.")
  in
  Cmd.v
    (Cmd.info "resil"
       ~doc:"Run an algorithm under supervision on real domains: a seeded \
             victim is crashed each run, recovered through the protocol's \
             recovery hook on a fresh domain against the same memory, \
             re-killed with probability 1/2 up to the respawn budget, and \
             the outcome is held to the degraded \
             (k + crashed-incarnations)-agreement contract. Prints respawn \
             counts and time-to-recover quantiles. Exit 0 when every run \
             passes, 1 on a violation, 2 on usage errors.")
    Term.(
      const go $ algo $ n $ k $ m $ cap $ seed $ inputs_arg $ runs
      $ max_respawns $ deadline $ metrics_arg $ metrics_out_arg)

(* -------------------------------------------------------------- serve *)

let serve_cmd =
  let go algo n k m cap seed clients rounds domains arenas profile recover
      kill_every max_think paranoid metrics metrics_out =
    let protocol = protocol_or_usage_error ~algo ~n ~k ~m ~cap in
    let usage msg =
      Fmt.epr "swapspace: %s@." msg;
      exit 2
    in
    if clients < 1 then usage "--clients must be >= 1";
    if rounds < 1 then usage "--rounds must be >= 1";
    if domains < 1 then usage "--domains must be >= 1";
    if kill_every < 1 then usage "--kill-every must be >= 1";
    if max_think < 0 then usage "--max-think must be >= 0";
    (match arenas with
    | Some a when a < 1 -> usage "--arenas must be >= 1"
    | _ -> ());
    let profile =
      match Arena.Loadgen.profile_of_string profile with
      | Ok p -> p
      | Error msg -> usage msg
    in
    let result =
      with_metrics ~metrics ~out:metrics_out (fun () ->
          Arena.Loadgen.run ~protocol ~clients ~rounds ~workers:domains
            ~seed ?arenas ~profile ~max_think
            ?kill_every:(if recover then Some kill_every else None)
            ~paranoid ())
    in
    Fmt.pr "%a@." Arena.Loadgen.pp result;
    if not result.Arena.Loadgen.ok then exit 1
  in
  let clients =
    Arg.(
      value & opt int 1_000
      & info [ "clients" ] ~docv:"M"
          ~doc:"Closed-loop client population size.")
  in
  let rounds =
    Arg.(
      value & opt int 10_000
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Agreement rounds to decide before the service drains.")
  in
  let domains =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"D"
          ~doc:"Workers in the fixed pool: the calling domain plus D-1 \
                spawned domains.")
  in
  let arenas =
    Arg.(
      value
      & opt (some int) None
      & info [ "arenas" ] ~docv:"A"
          ~doc:"Arena pool size (default: twice the domain count).")
  in
  let profile =
    Arg.(
      value & opt string "steady"
      & info [ "profile" ] ~docv:"P"
          ~doc:"Think-time profile: 'zero-think', 'steady' or 'bursty'.")
  in
  let recover =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Enable the kill-and-heal chaos overlay: roughly one round in \
             $(b,--kill-every) loses its driving worker incarnation \
             mid-flight and is adopted by a respawned or stealing worker, \
             escalating that round to the degraded \
             (k + crashed-incarnations)-agreement bound.")
  in
  let kill_every =
    Arg.(
      value & opt int 8
      & info [ "kill-every" ] ~docv:"N"
          ~doc:"With $(b,--recover): kill roughly one round in $(docv).")
  in
  let max_think =
    Arg.(
      value & opt int 4
      & info [ "max-think" ] ~docv:"T"
          ~doc:"Think-time bound, in rounds of service time.")
  in
  let paranoid =
    Arg.(
      value & flag
      & info [ "paranoid" ]
          ~doc:
            "Re-read every arena cell after each recycle and fail on any \
             residue from the previous round.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-running consensus service under closed-loop load: a \
          pool of pre-allocated swap arenas recycled under epoch stamps, \
          batched client admission through a lock-free intake queue, and a \
          fixed supervised pool of worker domains pulling whole rounds \
          (work-stealing). Reports throughput and admission/decision \
          latency quantiles; with --metrics the arena.* counters and \
          histograms are snapshotted. Exit 0 when the service drained \
          cleanly (agreement within the declared bound, validity, no lost \
          or duplicated client), 1 on any violation or shortfall, 2 on \
          usage errors.")
    Term.(
      const go $ algo $ n $ k $ m $ cap $ seed $ clients $ rounds $ domains
      $ arenas $ profile $ recover $ kill_every $ max_think $ paranoid
      $ metrics_arg $ metrics_out_arg)

(* ------------------------------------------------------------ analyze *)

let analyze_cmd =
  let go algo n max_configs json space no_certificate no_sym metrics
      metrics_out =
    let entries =
      match algo with
      | None -> Baselines.Registry.standard ~n ()
      | Some name -> (
        match Baselines.Registry.find name ~n with
        | Ok e -> [ e ]
        | Error msg ->
          Fmt.epr "swapspace: %s@." msg;
          exit 2)
    in
    if space then begin
      let reports =
        with_metrics ~metrics ~out:metrics_out (fun () ->
            List.map
              (fun (e : Baselines.Registry.entry) ->
                Analyze.Space.run_protocol ~max_configs ~prune:e.prune
                  ~sym:(not no_sym) ~certificate:(not no_certificate)
                  e.protocol)
              entries)
      in
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Arr (List.map Analyze.Space.report_to_json reports)))
      else
        List.iter (fun r -> Fmt.pr "%a@." Analyze.Space.pp_report r) reports;
      if not (List.for_all Analyze.Space.ok reports) then exit 1
    end
    else begin
      let reports =
        with_metrics ~metrics ~out:metrics_out (fun () ->
            List.map
              (fun (e : Baselines.Registry.entry) ->
                Analyze.run_protocol ~max_configs ?solo_bound:e.solo_bound
                  ~prune:e.prune ~sym:(not no_sym) ~props:e.props
                  e.protocol)
              entries)
      in
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Arr (List.map Analyze.report_to_json reports)))
      else
        List.iter (fun r -> Fmt.pr "%a@." Analyze.pp_report r) reports;
      if not (List.for_all Analyze.ok reports) then exit 1
    end
  in
  let algo =
    Arg.(
      value
      & opt (some string) None
      & info [ "algo"; "a" ] ~docv:"NAME"
          ~doc:
            "Registry entry to analyze (prefix match); omitted (or with \
             $(b,--all)) every registered protocol is analyzed.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Analyze every registered protocol (default).")
  in
  let combine algo all =
    if all && algo <> None then (
      Fmt.epr "swapspace: --all and --algo are mutually exclusive@.";
      exit 2);
    algo
  in
  let algo = Term.(const combine $ algo $ all) in
  let max_configs =
    Arg.(
      value & opt int 20_000
      & info [ "max-configs" ] ~docv:"C"
          ~doc:"Exploration budget per protocol.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the reports as a JSON array on stdout.")
  in
  let space =
    Arg.(
      value & flag
      & info [ "space" ]
          ~doc:
            "Run the object-space certifier instead of the structural \
             lints: measure the distinct base objects accessed across all \
             explored executions (per object kind, with a single-execution \
             witness), certify measured <= the protocol's declared \
             space_bound (under-claims are fatal; over-claims only on an \
             exhaustively closed graph), and bracket the measurement \
             against the Theorem 10 adversary's forced lower bound on \
             swap-only protocols.")
  in
  let no_certificate =
    Arg.(
      value & flag
      & info [ "no-certificate" ]
          ~doc:
            "With $(b,--space): skip the Theorem 10 adversary run; the \
             lb-bracket check reports as skipped.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically analyze protocol definitions: op-conformance against \
          declared object kinds, derived historyless/swap-only flags \
          cross-checked against the hand-written predicates, determinism \
          and hash-coherence lints, decision range/coverage, symmetry-hook \
          coherence on reachable states, and measured solo \
          executions gated by the proved solo-step bound (8(n-k) for \
          Algorithm 1). With $(b,--space), certify each protocol's \
          declared object-space bound against the measured access set and \
          the Theorem 10 lower-bound certificate instead. Exit 0 if every \
          check passes, 1 on analysis failure, 2 on usage errors.")
    Term.(
      const go $ algo $ n $ max_configs $ json $ space $ no_certificate
      $ no_sym_arg $ metrics_arg $ metrics_out_arg)

(* --------------------------------------------------------------- lint *)

let lint_cmd =
  let go root pass_names list json metrics metrics_out =
    if list then begin
      List.iter
        (fun p -> Fmt.pr "%-20s %s@." (Lint.pass_name p) (Lint.pass_doc p))
        Lint.registry;
      exit 0
    end;
    let selected =
      match pass_names with
      | [] -> None
      | names ->
        Some
          (List.map
             (fun name ->
               match Lint.find_pass name with
               | Ok p -> p
               | Error msg ->
                 Fmt.epr "swapspace: %s@." msg;
                 exit 2)
             names)
    in
    let filter ps =
      match selected with
      | None -> ps
      | Some sel -> List.filter (fun p -> List.memq p sel) ps
    in
    let dir d = Filename.concat root d in
    (* the repo lint plan: protocol purity over the proof-bearing
       libraries, the wall-clock ban over every deadline/metrics layer,
       and the concurrency discipline over the layers that spawn domains *)
    let core = [ Lint.purity; Lint.poly_hash; Lint.state_equality ] in
    let conc = [ Lint.domain_escape; Lint.atomics_discipline ] in
    let plan =
      List.map (fun d -> dir d, filter core) [ "lib/core"; "lib/baselines" ]
      @ List.map
          (fun d -> dir d, filter [ Lint.monotonic ])
          [ "lib/resil"; "lib/runtime"; "lib/arena"; "lib/prop"; "lib/obs"
          ; "lib/fault"
          ]
      @ List.map
          (fun d -> dir d, filter conc)
          [ "lib/runtime"; "lib/arena"; "lib/resil" ]
    in
    let plan =
      List.filter (fun (d, ps) -> ps <> [] && Sys.file_exists d) plan
    in
    if plan = [] then begin
      Fmt.epr
        "swapspace: no lint targets under %s (expected the repository's \
         lib/ layout; use --root)@."
        root;
      exit 2
    end;
    let findings =
      with_metrics ~metrics ~out:metrics_out (fun () -> Lint.run_plan plan)
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Arr
              (List.map
                 (fun (f : Lint.finding) ->
                   Obs.Json.Obj
                     [ "file", Obs.Json.Str f.Lint.file
                     ; "line", Obs.Json.Num (float_of_int f.Lint.line)
                     ; "col", Obs.Json.Num (float_of_int f.Lint.col)
                     ; "pass", Obs.Json.Str f.Lint.pass
                     ; "message", Obs.Json.Str f.Lint.message
                     ])
                 findings)))
    else
      List.iter (fun f -> Fmt.pr "%a@." Lint.pp_finding f) findings;
    match List.length findings with
    | 0 -> ()
    | count ->
      Fmt.epr "swapspace lint: %d finding(s)@." count;
      exit 1
  in
  let root =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Repository root the default lint targets resolve against.")
  in
  let pass_names =
    Arg.(
      value
      & opt_all string []
      & info [ "pass"; "p" ] ~docv:"NAME"
          ~doc:
            "Run only this pass (repeatable); default: every pass on its \
             default targets. See $(b,--list) for names.")
  in
  let list =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the registered passes and exit.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the findings as a JSON array on stdout.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static source lints (lib/lint pass registry) over the \
          repository: purity and hash/equality discipline on the \
          proof-bearing protocol libraries, the wall-clock ban on \
          deadline code, and the domain-escape / atomics-discipline \
          concurrency passes on the multicore layers. Each file is parsed \
          once; findings are deduplicated and stably sorted. Exit 0 \
          clean, 1 with findings, 2 on usage errors.")
    Term.(
      const go $ root $ pass_names $ list $ json $ metrics_arg
      $ metrics_out_arg)

let () =
  let doc =
    "Obstruction-free consensus and k-set agreement from swap objects \
     (reproduction of Ovens, PODC 2022)."
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "swapspace" ~version:"1.0.0" ~doc)
          [ run_cmd; check_cmd; props_cmd; analyze_cmd; lint_cmd; lemma9_cmd
          ; lb_binary_cmd; lb_bounded_cmd; bounds_cmd; multicore_cmd
          ; chaos_cmd; resil_cmd; serve_cmd
          ]))
