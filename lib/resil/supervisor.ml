module Sh = Shmem

let m_respawns = Obs.counter "resil.respawns"
let m_rounds = Obs.counter "resil.supervisor.rounds"
let m_escalations = Obs.counter "resil.supervisor.escalations"
let h_recover = Obs.histogram "resil.recover_ns"

module Make (P : Sh.Protocol.S) = struct
  module R = Runtime.Make (P)
  module Pr = Prop.Make (P)

  type policy = {
    max_respawns : int;
    budget : Resil.Policy.Deadline.t;
    round_deadline : float option;
    pace : Resil.Policy.Backoff.t;
  }

  let default_policy () =
    { max_respawns = 2;
      budget = Resil.Policy.Deadline.never;
      round_deadline = Some 10.;
      pace = Resil.Policy.Backoff.exponential ~base:64 ~cap:4096 ~jitter:true ()
    }

  type report = {
    outcome : R.outcome;
    rounds : int;
    respawns : int array;
    crashed_incarnations : int;
    gave_up : int list;
    unanchored : int list;
    degraded_k : int;
    recover_ns : int64 list;
  }

  let rebuild ~arena ~inputs pid =
    match P.recovery with
    | Sh.Protocol.Restart -> P.init ~pid ~input:inputs.(pid)
    | Sh.Protocol.Resume f -> f ~pid ~input:inputs.(pid) (R.arena_mem arena)

  let supervise ~inputs ?(seed = 0x5EED) ?policy ?max_ops ?backoff_window
      ?record ?exchange ?(crash_plan = fun ~round:_ ~pid:_ -> None)
      ?(stalls = []) () =
    if Array.length inputs <> P.n then
      invalid_arg (Fmt.str "Supervisor %s: expected %d inputs" P.name P.n);
    Array.iter
      (fun v ->
        if v < 0 || v >= P.num_inputs then
          invalid_arg (Fmt.str "Supervisor %s: input out of range" P.name))
      inputs;
    let policy =
      match policy with Some p -> p | None -> default_policy ()
    in
    if policy.max_respawns < 0 then
      invalid_arg "Supervisor: max_respawns must be >= 0";
    let arena = R.make_arena ?exchange () in
    (* threshold = budget + 1: a pid respawns while its breaker has not
       tripped, so it is replaced at most [max_respawns] times *)
    let breaker =
      Resil.Policy.Breaker.create ~threshold:(policy.max_respawns + 1) ~n:P.n
    in
    let rng = Random.State.make [| seed; 0x9ACE |] in
    (* merged view, overlaid round by round: decisions/statuses/finals are
       the last incarnation's, ops/backoffs accumulate across incarnations,
       histories concatenate (the shared arena clock keeps their timestamps
       totally ordered, so one final sort restores invocation order) *)
    let decisions = Array.make P.n (-1) in
    let statuses = Array.make P.n R.Timed_out in
    let ops = Array.make P.n 0 in
    let last_ops = Array.make P.n 0 in
    let backoffs = Array.make P.n 0 in
    let finals = Array.make P.n None in
    let histories = Array.make (Array.length P.objects) [] in
    let elapsed = ref 0. in
    let respawns = Array.make P.n 0 in
    let rounds_run = ref 0 in
    let crashed_incarnations = ref 0 in
    let gave_up = ref [] in
    let recover_ns = ref [] in
    let rec loop ~round ~entries ~stalls =
      incr rounds_run;
      Obs.Counter.incr m_rounds;
      let pids = List.map fst entries in
      let crash_at =
        List.filter_map
          (fun pid ->
            Option.map (fun t -> pid, t) (crash_plan ~round ~pid))
          pids
      in
      let out =
        R.run_round ~arena ~entries ~seed:(seed + round) ?max_ops
          ?backoff_window ?record ~crash_at ~stalls
          ?deadline:policy.round_deadline ()
      in
      List.iter
        (fun pid ->
          decisions.(pid) <- out.R.decisions.(pid);
          statuses.(pid) <- out.R.statuses.(pid);
          ops.(pid) <- ops.(pid) + out.R.ops.(pid);
          last_ops.(pid) <- out.R.ops.(pid);
          backoffs.(pid) <- backoffs.(pid) + out.R.backoffs.(pid);
          finals.(pid) <- out.R.finals.(pid))
        pids;
      Array.iteri
        (fun i evs -> histories.(i) <- histories.(i) @ evs)
        out.R.histories;
      elapsed := !elapsed +. out.R.elapsed;
      let failed =
        List.filter (fun pid -> statuses.(pid) <> R.Decided) pids
      in
      if failed <> [] then begin
        let t_detect = Resil.Clock.now_ns () in
        List.iter
          (fun pid -> Resil.Policy.Breaker.record_failure breaker ~pid)
          failed;
        let budget_gone = Resil.Policy.Deadline.expired policy.budget in
        let revive, abandon =
          List.partition
            (fun pid ->
              (not budget_gone)
              && not (Resil.Policy.Breaker.tripped breaker ~pid))
            failed
        in
        List.iter
          (fun pid ->
            Obs.Counter.incr m_escalations;
            gave_up := pid :: !gave_up)
          abandon;
        if revive <> [] then begin
          (* every replaced incarnation that touched shared memory is at
             most one extra silent participant — conservative even under
             [Resume] (a looser agreement bound is still a bound) *)
          List.iter
            (fun pid ->
              if out.R.ops.(pid) > 0 then incr crashed_incarnations)
            revive;
          ignore (Resil.Policy.Backoff.once ~rng policy.pace ~attempt:round);
          let entries =
            List.map
              (fun pid ->
                respawns.(pid) <- respawns.(pid) + 1;
                Obs.Counter.incr m_respawns;
                pid, rebuild ~arena ~inputs pid)
              revive
          in
          loop ~round:(round + 1) ~entries ~stalls:[];
          (* recovery latency: failure detection to the recovery round's
             last join (the recursion has fully unwound by now, so this
             covers cascaded re-failures of the same incarnations too) *)
          let dt = Resil.Clock.elapsed_ns ~since:t_detect in
          List.iter
            (fun _ ->
              recover_ns := dt :: !recover_ns;
              Obs.Histogram.observe h_recover (Int64.to_int dt))
            revive
        end
      end
    in
    let entries =
      List.init P.n (fun pid -> pid, P.init ~pid ~input:inputs.(pid))
    in
    loop ~round:0 ~entries ~stalls;
    let outcome =
      { R.decisions
      ; statuses
      ; ops
      ; backoffs
      ; elapsed = !elapsed
      ; histories =
          Array.map
            (List.sort (fun (a : Linearize.Obj_history.event) b ->
                 compare a.start b.start))
            histories
      ; finals
      ; mem = R.arena_mem arena
      }
    in
    (* a [Restart] incarnation that never touched shared memory again has
       not overwritten or re-anchored the residue its predecessor left:
       config invariants relating its (reset) private state to memory are
       not sound on the final snapshot, so [check_props] abstains *)
    let unanchored =
      match P.recovery with
      | Sh.Protocol.Resume _ -> []
      | Sh.Protocol.Restart ->
        List.filter
          (fun pid -> respawns.(pid) > 0 && last_ops.(pid) = 0)
          (List.init P.n Fun.id)
    in
    { outcome
    ; rounds = !rounds_run
    ; respawns
    ; crashed_incarnations = !crashed_incarnations
    ; gave_up = List.sort_uniq compare !gave_up
    ; unanchored
    ; degraded_k = P.k + !crashed_incarnations
    ; recover_ns = !recover_ns
    }

  let check ~inputs report =
    R.check ~bound:report.degraded_k ~inputs report.outcome

  let check_props props report =
    let finals = report.outcome.R.finals in
    if report.unanchored <> [] || Array.exists Option.is_none finals then
      None
    else
      let snap =
        { Pr.states = Array.map Option.get finals;
          mem = report.outcome.R.mem
        }
      in
      List.fold_left
        (fun acc p ->
          match acc with
          | Some _ -> acc
          | None -> (
            match Pr.eval_config p snap with
            | None -> None
            | Some detail -> Some (Pr.name p, detail)))
        None props
end

(* ------------------------------------------------------------------ *)
(* Pool supervision: N worker slots, not one protocol round.

   [Make] supervises the processes of a single agreement instance; a
   service instead keeps a fixed pool of worker domains that each drive
   many rounds.  [Pool.run] owns that pool, and each slot heals itself:
   when its body raises, the same domain records the crash, charges the
   slot's circuit breaker, runs [on_crash] (the hook through which a
   service re-queues the round the dead incarnation had in flight) and
   starts the next incarnation, until the breaker trips.  A crash costs
   no spawn and no supervisor thread, so a crash in slot 3 is healed
   while slot 0 is still running.  The caller drives slot 0 itself. *)

module Pool = struct
  let m_pool_respawns = Obs.counter "resil.pool.respawns"
  let m_pool_gave_up = Obs.counter "resil.pool.gave_up"

  type report = {
    respawns : int array;
    gave_up : int list;
    crashes : (int * int * string) list;
  }

  let run ~workers ?(max_respawns = 2) ?(charge = fun _ -> true) ?on_crash
      body =
    if workers < 1 then
      invalid_arg "Supervisor.Pool.run: workers must be >= 1";
    if max_respawns < 0 then
      invalid_arg "Supervisor.Pool.run: max_respawns must be >= 0";
    let breaker =
      Resil.Policy.Breaker.create ~threshold:(max_respawns + 1) ~n:workers
    in
    (* slot s writes only index s, read after the joins; the shared
       ticket orders crashes and trips across slots *)
    let ticket = Atomic.make 0 in
    let respawns = Array.make workers 0 in
    let crashes = Array.make workers [] in
    let gave_up = Array.make workers [] in
    let rec go slot incarnation =
      match body ~slot ~incarnation with
      | () -> ()
      | exception e ->
        let t = Atomic.fetch_and_add ticket 1 in
        crashes.(slot) <-
          (t, (slot, incarnation, Printexc.to_string e)) :: crashes.(slot);
        if charge e then Resil.Policy.Breaker.record_failure breaker ~pid:slot;
        Option.iter (fun f -> f ~slot ~incarnation e) on_crash;
        if Resil.Policy.Breaker.tripped breaker ~pid:slot then begin
          Obs.Counter.incr m_pool_gave_up;
          gave_up.(slot) <- [ (Atomic.fetch_and_add ticket 1, slot) ]
        end
        else begin
          respawns.(slot) <- respawns.(slot) + 1;
          Obs.Counter.incr m_pool_respawns;
          go slot (incarnation + 1)
        end
    in
    let domains =
      List.init (workers - 1) (fun i -> Domain.spawn (fun () -> go (i + 1) 0))
    in
    (* join every domain before re-raising the first escaped exception *)
    let first = match go 0 0 with () -> None | exception e -> Some e in
    let first =
      List.fold_left
        (fun first d ->
          match Domain.join d with
          | () -> first
          | exception e -> if Option.is_some first then first else Some e)
        first domains
    in
    Option.iter raise first;
    let in_order per_slot =
      List.concat (Array.to_list per_slot)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    in
    { respawns; gave_up = in_order gave_up; crashes = in_order crashes }
end
