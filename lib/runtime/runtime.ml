module Sh = Shmem

(* ----------------------------------------------------------------- metrics *)

(* Shared across every Make instantiation; each site is one branch when Obs
   is disabled and allocation-free when enabled (hot-loop tallies accumulate
   in local ints and are flushed once per process, see [Make.run]). *)
let m_cas_retries = Obs.counter "runtime.cas_retries"
let m_tas_retries = Obs.counter "runtime.tas_retries"

(* bounded backoff between atomic retry attempts: 1, 2, 4, ... capped at
   1024 cpu_relax, so a contended loop yields the cache line instead of
   hammering it, but a process never sleeps unboundedly long.  The curve
   lives in [Resil.Policy] — one audited implementation for every retry
   loop in the tree. *)
let retry_policy = Resil.Policy.Backoff.exponential ~base:1 ~cap:1024 ()
let retry_backoff attempts =
  ignore (Resil.Policy.Backoff.once retry_policy ~attempt:attempts)

(* ------------------------------------------------------------------ cells *)

module Cell = struct
  type t = {
    kind : Sh.Obj_kind.t;
    cell : Sh.Value.t Atomic.t;
    exchange : Sh.Value.t Atomic.t -> Sh.Value.t -> Sh.Value.t;
    direct_swap : bool;
        (* a swap on an unbounded (readable) swap object is legal whatever
           the value, so it needs no check and no kind dispatch *)
  }

  let make ?(exchange = Atomic.exchange) kind init =
    let dom = Sh.Obj_kind.domain kind in
    if
      not
        (Sh.Obj_kind.value_in_domain dom init
        || Sh.Value.equal init Sh.Value.Bot)
    then
      invalid_arg
        (Fmt.str "Runtime.Cell.make: initial value %a outside domain"
           Sh.Value.pp init);
    let direct_swap =
      match kind with
      | Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded
      | Sh.Obj_kind.Readable_swap Sh.Obj_kind.Unbounded ->
        true
      | _ -> false
    in
    { kind; cell = Atomic.make init; exchange; direct_swap }

  let kind t = t.kind
  let peek t = Atomic.get t.cell

  (* structural compare-and-set: [Atomic.compare_and_set] compares
     physically, so re-read until the witnessed value — the one the CAS is
     performed against — is the one we structurally compared.  Retries feed
     the obs counter and back off (capped) so a storm of failing CASes
     neither spins blind nor goes unmeasured. *)
  let structural_cas t ~expected ~desired =
    let rec go attempts =
      let current = Atomic.get t.cell in
      if not (Sh.Value.equal current expected) then Sh.Value.zero
      else if Atomic.compare_and_set t.cell current desired then Sh.Value.one
      else begin
        Obs.Counter.incr m_cas_retries;
        retry_backoff attempts;
        go (attempts + 1)
      end
    in
    go 0

  (* test-and-set as a compare-and-set loop: the only transition is 0 -> 1,
     and once the cell holds 1 a TAS is a no-op returning 1 (linearized at
     the read) *)
  let tas t v =
    let rec go attempts =
      let current = Atomic.get t.cell in
      if Sh.Value.equal current Sh.Value.one then Sh.Value.one
      else if Atomic.compare_and_set t.cell current v then current
      else begin
        Obs.Counter.incr m_tas_retries;
        retry_backoff attempts;
        go (attempts + 1)
      end
    in
    go 0

  (* every action on every kind: the legality check, then the kind's
     primitive *)
  let checked_apply t (action : Sh.Op.action) =
    if not (Sh.Obj_kind.supports t.kind action) then
      raise
        (Sh.Obj_kind.Illegal_operation
           (Fmt.str "%a does not support %a" Sh.Obj_kind.pp t.kind Sh.Op.pp
              { Sh.Op.obj = -1; action }));
    match t.kind, action with
    | _, Sh.Op.Read -> Atomic.get t.cell
    | (Sh.Obj_kind.Register _ | Sh.Obj_kind.Test_and_set_reset), Sh.Op.Write v
      ->
      Atomic.set t.cell v;
      Sh.Value.Unit
    | (Sh.Obj_kind.Swap_only _ | Sh.Obj_kind.Readable_swap _), Sh.Op.Swap v ->
      t.exchange t.cell v
    | ( (Sh.Obj_kind.Test_and_set | Sh.Obj_kind.Test_and_set_reset),
        Sh.Op.Swap v ) ->
      tas t v
    | Sh.Obj_kind.Compare_and_swap _, Sh.Op.Cas (expected, desired) ->
      structural_cas t ~expected ~desired
    | _ ->
      (* unreachable: [supports] admits exactly the cases above *)
      assert false

  (* the serve path's one operation, a swap on an unbounded swap object,
     skips the legality check and the kind match ([make] resolved both) *)
  let apply t (action : Sh.Op.action) =
    match action with
    | Sh.Op.Swap v when t.direct_swap -> t.exchange t.cell v
    | _ -> checked_apply t action
end

(* -------------------------------------------------------------- recording *)

(* a timestamped operation on object [obj]; the per-object histories are
   assembled after the domains join *)
type tagged_event = { obj : int; event : Linearize.Obj_history.event }

let assemble_histories ~num_objects per_process =
  let histories = Array.make num_objects [] in
  Array.iter
    (List.iter (fun { obj; event } -> histories.(obj) <- event :: histories.(obj)))
    per_process;
  Array.map
    (fun evs ->
      List.sort
        (fun (a : Linearize.Obj_history.event) b -> compare a.start b.start)
        evs)
    histories

let record_cell ~kind ~init ~threads ~ops_per_thread ?(seed = 0xCE11)
    ?exchange ~gen () =
  let cell = Cell.make ?exchange kind init in
  let clock = Atomic.make 0 in
  let now () = Atomic.fetch_and_add clock 1 in
  let results = Array.make threads [] in
  let worker thread =
    let rng = Random.State.make [| seed; thread |] in
    let events = ref [] in
    for step = 1 to ops_per_thread do
      let action = gen ~thread ~step rng in
      let start = now () in
      let response = Cell.apply cell action in
      let finish = now () in
      events :=
        { Linearize.Obj_history.thread; action; response; start; finish }
        :: !events
    done;
    results.(thread) <- List.rev !events
  in
  let domains =
    Array.init threads (fun t -> Domain.spawn (fun () -> worker t))
  in
  Array.iter Domain.join domains;
  Array.to_list results |> List.concat
  |> List.sort (fun (a : Linearize.Obj_history.event) b ->
         compare a.start b.start)

(* ------------------------------------------------------------ interpreter *)

module Make (P : Sh.Protocol.S) = struct
  module Pr = Prop.Make (P)

  type status = Decided | Crashed_injected | Timed_out | Faulted of exn

  let pp_status ppf = function
    | Decided -> Fmt.string ppf "decided"
    | Crashed_injected -> Fmt.string ppf "crashed(injected)"
    | Timed_out -> Fmt.string ppf "timed-out"
    | Faulted e -> Fmt.pf ppf "faulted(%s)" (Printexc.to_string e)

  type outcome = {
    decisions : int array;
    statuses : status array;
    ops : int array;
    backoffs : int array;
    elapsed : float;
    histories : Linearize.Obj_history.event list array;
    finals : P.state option array;
    mem : Sh.Value.t array;
  }

  let num_objects = Array.length P.objects

  (* the shared side of a run, separated from the processes so a supervisor
     can respawn crashed processes against the same memory: the atomic
     cells, each object's initial value (built once, so a rewind allocates
     nothing; values are immutable, so every reset can store the same
     ones), plus the logical timestamp source for recorded histories (which
     therefore stays totally ordered across respawn rounds) *)
  type arena = {
    cells : Cell.t array;
    init : Sh.Value.t array;
    tick : int Atomic.t;
  }

  let make_arena ?exchange () =
    let init = Array.init num_objects P.init_object in
    { cells =
        Array.init num_objects (fun i ->
            Cell.make ?exchange P.objects.(i) init.(i));
      init;
      tick = Atomic.make 0
    }

  let arena_mem a = Array.map Cell.peek a.cells

  (* arena re-entry: a long-running service (lib/arena) reuses one arena
     for many rounds instead of allocating fresh cells per run.  The reset
     rewinds every cell to its declared initial value but leaves the
     logical clock alone — recorded timestamps must stay totally ordered
     across recycling, exactly as they do across supervisor respawns. *)
  let reset_arena a =
    for i = 0 to Array.length a.cells - 1 do
      Atomic.set a.cells.(i).Cell.cell a.init.(i)
    done

  (* apply one protocol operation directly against an arena's cells — the
     execution primitive for drivers that interleave several process state
     machines on one domain (a service worker pulling rounds) rather than
     spawning a domain per process *)
  let arena_apply a (op : Sh.Op.t) =
    if op.Sh.Op.obj < 0 || op.Sh.Op.obj >= num_objects then
      invalid_arg (Fmt.str "Runtime.arena_apply %s: no object B%d" P.name op.Sh.Op.obj);
    Cell.apply a.cells.(op.Sh.Op.obj) op.Sh.Op.action

  let m_ops = Obs.counter "runtime.ops"
  let m_backoff_rounds = Obs.counter "runtime.backoff_rounds"
  let m_backoff_spins = Obs.counter "runtime.backoff_spins"
  let m_watchdog = Obs.counter "runtime.watchdog_firings"
  let m_crashes = Obs.counter "runtime.crashes_injected"
  let m_stall_spins = Obs.counter "runtime.stall_spins"
  let h_exchange = Obs.histogram "runtime.exchange_ns"
  let sp_run = Obs.span "runtime.run"

  (* the obstruction-free solo-window backoff curve: fully jittered so
     contending processes desynchronize, capped so nobody sleeps forever *)
  let solo_policy =
    Resil.Policy.Backoff.exponential ~base:2 ~cap:(1 lsl 16) ~jitter:true ()

  let run_round ~arena ~entries ?(seed = 0x5EED) ?(max_ops = 4_000_000)
      ?backoff_window ?(record = false) ?(crash_at = []) ?(stalls = [])
      ?deadline () =
    List.iter
      (fun (pid, _) ->
        if pid < 0 || pid >= P.n then
          invalid_arg (Fmt.str "Runtime.run %s: pid out of range" P.name))
      entries;
    if
      List.length (List.sort_uniq compare (List.map fst entries))
      <> List.length entries
    then invalid_arg (Fmt.str "Runtime.run %s: duplicate pid" P.name);
    List.iter
      (fun (pid, t) ->
        if pid < 0 || pid >= P.n || t < 0 then
          invalid_arg (Fmt.str "Runtime.run %s: bad crash point" P.name))
      crash_at;
    List.iter
      (fun (pid, t, dur) ->
        if pid < 0 || pid >= P.n || t < 0 || dur < 1 then
          invalid_arg (Fmt.str "Runtime.run %s: bad stall" P.name))
      stalls;
    (match deadline with
    | Some d when d <= 0. ->
      invalid_arg "Runtime.run: deadline must be positive"
    | _ -> ());
    let window =
      match backoff_window with
      | Some w ->
        if w < 1 then invalid_arg "Runtime.run: backoff_window must be >= 1";
        w
      | None -> 8 * (num_objects + 1)
    in
    Obs.Span.time sp_run @@ fun () ->
    let cells = arena.cells in
    let now () = Atomic.fetch_and_add arena.tick 1 in
    let decisions = Array.make P.n (-1) in
    let statuses = Array.make P.n Timed_out in
    let ops = Array.make P.n 0 in
    let backoffs = Array.make P.n 0 in
    let events = Array.make P.n [] in
    let finals = Array.make P.n None in
    (* the watchdog: whichever process first observes the monotonic
       deadline exceeded flips the flag, and everyone winds down with
       status [Timed_out] and partial data — no exception ever crosses a
       domain boundary for budget/deadline exhaustion.  Monotonic on
       purpose: an NTP step or a suspended laptop must neither fire the
       watchdog spuriously nor starve it. *)
    let give_up = Atomic.make false in
    let t0 = Resil.Clock.now_ns () in
    let expiry =
      match deadline with
      | None -> Resil.Policy.Deadline.never
      | Some d -> Resil.Policy.Deadline.after ~seconds:d
    in
    let over_deadline () =
      Atomic.get give_up
      ||
      if Resil.Policy.Deadline.expired expiry then begin
        if not (Atomic.exchange give_up true) then
          Obs.Counter.incr m_watchdog;
        true
      end
      else false
    in
    let process (pid, state0) =
      let rng = Random.State.make [| seed; pid |] in
      let state = ref state0 in
      let my_ops = ref 0 in
      let my_backoffs = ref 0 in
      let my_spins = ref 0 in
      let my_events = ref [] in
      let attempt = ref 0 in
      let until_backoff = ref window in
      let crash_point = List.assoc_opt pid crash_at in
      let my_stalls =
        List.filter_map
          (fun (p, t, dur) -> if p = pid then Some (t, dur) else None)
          stalls
      in
      let status = ref Decided in
      (try
         let running = ref true in
         while !running && P.decision !state = None do
           if Atomic.get give_up then begin
             status := Timed_out;
             running := false
           end
           else if
             match crash_point with Some t -> !my_ops >= t | None -> false
           then begin
             (* injected halting crash: the domain stops cold after its
                t-th operation, mid-protocol *)
             Obs.Counter.incr m_crashes;
             status := Crashed_injected;
             running := false
           end
           else if !my_ops >= max_ops then begin
             status := Timed_out;
             running := false
           end
           else begin
             (* injected stall: a forced preemption window before the
                process's t-th operation *)
             List.iter
               (fun (t, dur) ->
                 if t = !my_ops then begin
                   Obs.Counter.add m_stall_spins dur;
                   for _ = 1 to dur do
                     Domain.cpu_relax ()
                   done
                 end)
               my_stalls;
             let op = P.poised !state in
             let response =
               if record then begin
                 let start = now () in
                 let response =
                   Cell.apply cells.(op.Sh.Op.obj) op.Sh.Op.action
                 in
                 let finish = now () in
                 my_events :=
                   { obj = op.Sh.Op.obj
                   ; event =
                       { Linearize.Obj_history.thread = pid
                       ; action = op.Sh.Op.action
                       ; response
                       ; start
                       ; finish
                       }
                   }
                   :: !my_events;
                 response
               end
               else if Obs.enabled () then begin
                 (* per-operation latency: a monotonic timestamp pair per
                    op is paid only when metrics are on *)
                 let t0 = Resil.Clock.now_ns () in
                 let response =
                   Cell.apply cells.(op.Sh.Op.obj) op.Sh.Op.action
                 in
                 Obs.Histogram.observe h_exchange
                   (Int64.to_int (Resil.Clock.elapsed_ns ~since:t0));
                 response
               end
               else Cell.apply cells.(op.Sh.Op.obj) op.Sh.Op.action
             in
             incr my_ops;
             state := P.on_response !state response;
             if !my_ops land 255 = 0 && over_deadline () then ();
             decr until_backoff;
             if !until_backoff <= 0 && P.decision !state = None then begin
               (* jittered exponential backoff ([solo_policy]):
                  obstruction-free protocols need some process to
                  eventually run effectively alone.  [Backoff.spins] is
                  pure, so the spin tally stays process-local and is
                  flushed once at exit. *)
               incr my_backoffs;
               let spins =
                 Resil.Policy.Backoff.spins ~rng solo_policy
                   ~attempt:!attempt
               in
               incr attempt;
               my_spins := !my_spins + spins;
               for _ = 1 to spins do
                 Domain.cpu_relax ()
               done;
               until_backoff := window;
               ignore (over_deadline ())
             end
           end
         done;
         match P.decision !state with
         | Some d ->
           decisions.(pid) <- d;
           status := Decided
         | None -> ()
       with e -> status := Faulted e);
      (* partial data is always published, whatever ended the loop *)
      statuses.(pid) <- !status;
      ops.(pid) <- !my_ops;
      backoffs.(pid) <- !my_backoffs;
      events.(pid) <- !my_events;
      finals.(pid) <- Some !state;
      (* hot-loop tallies accumulated in local ints, flushed once here so
         the loop itself never touches a shared cache line for metrics *)
      Obs.Counter.add m_ops !my_ops;
      Obs.Counter.add m_backoff_rounds !my_backoffs;
      Obs.Counter.add m_backoff_spins !my_spins
    in
    let domains =
      List.map
        (fun entry -> fst entry, Domain.spawn (fun () -> process entry))
        entries
    in
    (* join *every* domain, even if one's join re-raises: a single faulted
       process must neither leak running siblings nor mask their results *)
    List.iter
      (fun (pid, d) ->
        match Domain.join d with
        | () -> ()
        | exception e -> statuses.(pid) <- Faulted e)
      domains;
    let elapsed = Resil.Clock.elapsed_s ~since:t0 in
    { decisions
    ; statuses
    ; ops
    ; backoffs
    ; elapsed
    ; histories = assemble_histories ~num_objects events
    ; finals
    ; mem = arena_mem arena
    }

  let run ~inputs ?seed ?max_ops ?backoff_window ?record ?exchange
      ?crash_at ?stalls ?deadline () =
    if Array.length inputs <> P.n then
      invalid_arg (Fmt.str "Runtime.run %s: expected %d inputs" P.name P.n);
    Array.iter
      (fun v ->
        if v < 0 || v >= P.num_inputs then
          invalid_arg (Fmt.str "Runtime.run %s: input out of range" P.name))
      inputs;
    let arena = make_arena ?exchange () in
    let entries =
      List.init P.n (fun pid -> pid, P.init ~pid ~input:inputs.(pid))
    in
    run_round ~arena ~entries ?seed ?max_ops ?backoff_window ?record
      ?crash_at ?stalls ?deadline ()

  let check ?(bound = P.k) ~inputs outcome =
    (* injected crashes are the only excused failure; the decided values
       are judged by the shared rules on the final states *)
    if bound < P.k then invalid_arg "Runtime.check: bound must be >= k";
    let bad =
      Array.to_list outcome.statuses
      |> List.mapi (fun pid s -> pid, s)
      |> List.filter (fun (_, s) ->
             match s with
             | Decided | Crashed_injected -> false
             | Timed_out | Faulted _ -> true)
    in
    if bad <> [] then
      Error
        (Fmt.str "undecided processes: %a"
           Fmt.(
             list ~sep:(any ", ") (fun ppf (pid, s) ->
                 Fmt.pf ppf "p%d %a" pid pp_status s))
           bad)
    else
      let states =
        Array.of_list (List.filter_map Fun.id (Array.to_list outcome.finals))
      in
      match Pr.check_agreement ~bound states with
      | Some d -> Error d
      | None -> (
        match Pr.check_validity ~inputs states with
        | Some d -> Error d
        | None -> Ok ())

  let check_histories ?(max_events = 24) outcome =
    let checked = ref 0 in
    let skipped = ref 0 in
    let rec go i =
      if i >= num_objects then Ok (!checked, !skipped)
      else
        let history = outcome.histories.(i) in
        if List.length history > max_events then begin
          incr skipped;
          go (i + 1)
        end
        else begin
          incr checked;
          match
            Linearize.Obj_history.explain ~kind:P.objects.(i)
              ~init:(P.init_object i) history
          with
          | Ok _ -> go (i + 1)
          | Error e -> Error (Fmt.str "object B%d: %s" i e)
        end
    in
    go 0

  let check_hb ?max_events outcome =
    Analyze.Hb.check_histories ?max_events ~kinds:P.objects
      ~init:P.init_object outcome.histories
end
