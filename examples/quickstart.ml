(* Quickstart: run the paper's Algorithm 1 — obstruction-free m-valued
   k-set agreement from n-k swap objects — first in the discrete-event
   simulator under a random scheduler, then on real OCaml 5 domains with
   hardware swap (Atomic.exchange).

     dune exec examples/quickstart.exe *)

let () =
  let n = 6 and k = 2 and m = 3 in
  Fmt.pr "=== Algorithm 1: %d processes, %d-set agreement, %d input values, \
          %d swap objects ===@.@." n k m (n - k);

  (* --- simulated run --- *)
  let (module P) = Core.Swap_ksa.make ~n ~k ~m in
  let module E = Shmem.Exec.Make (P) in
  let inputs = [| 0; 1; 2; 0; 1; 2 |] in
  let c0 = E.initial ~inputs in
  let rng = Random.State.make [| 2024 |] in
  (* a bursty scheduler grants solo windows — obstruction-free algorithms
     are only guaranteed to terminate when some process eventually runs
     uninterrupted (bench table T6 quantifies this) *)
  let sched = E.bursty rng ~burst:(2 * Core.Swap_ksa.solo_step_bound ~n ~k) in
  let c, trace, outcome = E.run ~sched ~max_steps:100_000 c0 in
  assert (outcome = E.All_decided);
  Fmt.pr "simulator: inputs  = %a@." Fmt.(array ~sep:(any " ") int) inputs;
  Fmt.pr "simulator: decided = %a  (at most k=%d distinct values)@."
    Fmt.(array ~sep:(any " ") (option int))
    (Array.init n (E.decision c))
    k;
  Fmt.pr "simulator: %a@.@." Shmem.Stats.pp (Shmem.Stats.of_trace trace);
  assert (E.check_agreement c);
  assert (E.check_validity ~inputs c);

  (* --- every process alone decides its own input within 8(n-k) steps
         (validity + the Lemma 8 bound) --- *)
  let bound = Core.Swap_ksa.solo_step_bound ~n ~k in
  List.iter
    (fun pid ->
      match E.run_solo ~pid ~max_steps:bound c0 with
      | Some (c', solo) ->
        Fmt.pr "solo p%d: decides %a in %d steps (Lemma 8 bound: %d)@." pid
          Fmt.(option int)
          (E.decision c' pid) (Shmem.Trace.length solo) bound
      | None -> assert false)
    [ 0; 3 ];
  Fmt.pr "@.";

  (* --- real multicore run: the same protocol definition on one domain
         per process, each swap object an Atomic.exchange cell --- *)
  let module R = Runtime.Make (P) in
  let o = R.run ~inputs () in
  (match R.check ~inputs o with
  | Ok () -> ()
  | Error e -> failwith e);
  Fmt.pr "multicore: decided = %a in %.4fs (max %d operations)@."
    Fmt.(array ~sep:(any " ") int)
    o.R.decisions o.R.elapsed
    (Array.fold_left max 0 o.R.ops);
  Fmt.pr "@.ok.@."
