(* The benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds of measurement and prints, as the
   last line of standard output, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones (Obs off); with --trace 1 they are the
   per-layer ones, from a separate traced run.  The line before it holds
   the diagnostics: host probe and fingerprint, medians beside the
   reported repetition, and the exact-repeat counts.  See README.md. *)

open Measure

let layers = Check_wl.layers @ Serve_wl.layers @ trace_layers

let usage msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref Serve_wl.default_seed in
  let secs = ref 10. and trace = ref 0 in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "NAME";
      "--seed", Arg.Set_int seed, "N";
      "--seconds", Arg.Set_float secs, "S";
      "--trace", Arg.Set_int trace, "0|1"
    ]
    (fun a -> usage ("unexpected argument " ^ a))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !secs <= 0. then usage "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
  let traced = !trace = 1 and seconds = !secs and seed = !seed in
  let run =
    match
      ( List.find_opt (fun (w : Check_wl.workload) -> w.name = !workload) Check_wl.workloads,
        List.find_opt (fun (w : Serve_wl.workload) -> w.name = !workload) Serve_wl.workloads )
    with
    | Some w, _ -> fun () -> if traced then Check_wl.traced w ~seconds else Check_wl.e2e w ~seconds
    | None, Some w ->
      fun () -> if traced then Serve_wl.traced w ~seed ~seconds else Serve_wl.e2e w ~seed ~seconds
    | None, None -> usage ("unknown workload " ^ !workload)
  in
  Obs.disable ();
  let before = Host.probe () in
  let o = run () in
  let after = Host.probe () in
  (* the layers of the other stack do no work on this workload: 0 *)
  let metrics =
    if traced then
      List.map
        (fun s ->
          match List.find_opt (fun (s', _) -> s'.name = s.name) o.metrics with
          | Some m -> m
          | None -> s, 0.)
        layers
    else o.metrics
  in
  List.iter (fun p -> prerr_endline ("bench: FAILED CHECK: " ^ p)) o.problems;
  print_endline
    (to_string
       (Obj
          [ ( "detail",
              Obj
                ([ "workload", Str !workload;
                   "seed", Int seed;
                   "trace", Bool traced;
                   "host", Host.fingerprint ();
                   "probe_start", before;
                   "probe_end", after;
                   "problems", Arr (List.map (fun p -> Str p) o.problems)
                 ]
                @ o.detail) )
          ]));
  print_endline
    (to_string
       (Obj
          [ "correct", Bool (o.problems = [] && o.failed = 0);
            "attempted", Int o.attempted;
            "failed", Int o.failed;
            "metrics", metric_obj metrics
          ]))
