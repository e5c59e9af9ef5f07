(* The long-running consensus service.  See service.mli for the model;
   the short version: a fixed pool of pre-allocated runtime arenas is
   recycled under Shmem.Epoch stamps, waiting clients are coalesced into
   rounds by a single-admitter critical section fed from a swap-based
   intake queue, and a fixed pool of worker slots — run and healed in
   place by Supervisor.Pool — pulls whole rounds (work-stealing), driving
   every member's state machine on one domain via Runtime.arena_apply. *)

module Sh = Shmem

exception Killed of int

(* ------------------------------------------------------------------ *)
(* Always-on latency histograms (power-of-two ns buckets).  Obs
   histograms are also fed, but they are off unless the caller enabled
   metrics, and the load generator must report quantiles regardless. *)

module Hist = struct
  let buckets = 63

  type t = {
    counts : int array;
    mutable n : int;
    mutable max_ns : int;
  }

  let create () =
    { counts = Array.make buckets 0; n = 0; max_ns = 0 }

  (* floor(log2 ns), clamped into [0, buckets) *)
  let bucket_of ns =
    if ns <= 1 then 0 else min (Obs.floor_log2 ns) (buckets - 1)

  let observe t ns =
    let ns = if ns < 0 then 0 else ns in
    let b = bucket_of ns in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    if ns > t.max_ns then t.max_ns <- ns

  let merge_into ~into t =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
    into.n <- into.n + t.n;
    if t.max_ns > into.max_ns then into.max_ns <- t.max_ns

  let count t = t.n
  let max_ns t = t.max_ns

  let quantile t q =
    if q < 0. || q > 1. then invalid_arg "Service.Hist.quantile";
    if t.n = 0 then 0.
    else begin
      let rank =
        max 1 (min t.n (int_of_float (Float.ceil (q *. float_of_int t.n))))
      in
      let acc = ref 0 and b = ref 0 in
      while !acc < rank && !b < buckets do
        acc := !acc + t.counts.(!b);
        incr b
      done;
      (* upper edge of the bucket that crossed the rank, capped by the
         true maximum so q = 1 is exact *)
      let upper =
        if !b >= buckets then float_of_int t.max_ns
        else float_of_int ((1 lsl !b) - 1)
      in
      Float.min upper (float_of_int t.max_ns)
    end
end

(* ------------------------------------------------------------------ *)

module Make (P : Sh.Protocol.S) = struct
  module R = Runtime.Make (P)
  module Pr = Prop.Make (P)

  let m_rounds = Obs.counter "arena.rounds"
  let m_decisions = Obs.counter "arena.decisions"
  let m_kills = Obs.counter "arena.kills"
  let m_adoptions = Obs.counter "arena.adoptions"
  let m_steals = Obs.counter "arena.steals"
  let m_recycles = Obs.counter "arena.recycles"
  let m_escalations = Obs.counter "arena.escalations"
  let h_admit = Obs.histogram "arena.admit_ns"
  let h_decide = Obs.histogram "arena.decide_ns"
  let h_batch = Obs.histogram "arena.batch"
  let sp_serve = Obs.span "arena.serve"

  type client = {
    id : int;
    mutable served : int;
    mutable submit_ns : int64;
    mutable pending : bool;
  }

  type round = {
    rid : int;
    stamp : Sh.Epoch.stamp;
    members : client array;
    inputs : int array;
    mutable incarnation : int;
    mutable crashed : int;
    mutable states : P.state array option;
  }

  type summary = {
    rounds_done : int;
    target : int;
    decisions : int;
    kills : int;
    adoptions : int;
    steals : int;
    escalated : int;
    max_bound : int;
    recycles : int;
    respawns : int;
    gave_up : int list;
    violation_count : int;
    violations : (int * string) list;
    conservation : (unit, string) result;
    residue : int;
    elapsed : float;
    admit_hist : Hist.t;
    decide_hist : Hist.t;
    digest : int;
  }

  let ok s =
    s.violation_count = 0
    && s.rounds_done = s.target
    && s.gave_up = []
    && s.residue = 0
    && match s.conservation with Ok () -> true | Error _ -> false

  let default_think ~seed ~max_think ~client ~served =
    if max_think <= 0 then 0
    else
      let module H = Sh.Hashx in
      H.finish (H.int (H.int (H.int H.seed seed) client) served)
      mod (max_think + 1)

  let default_input ~seed ~client ~served =
    let module H = Sh.Hashx in
    H.finish (H.int (H.int (H.int H.seed (seed lxor 0x1A7E4A)) client) served)
    mod P.num_inputs

  let serve ~clients ~rounds ~workers ?(seed = 0x5EED) ?arenas
      ?(max_think = 4) ?think ?input ?kill ?max_respawns ?(paranoid = false)
      () =
    if clients < 1 then invalid_arg "Service.serve: clients must be >= 1";
    if rounds < 0 then invalid_arg "Service.serve: rounds must be >= 0";
    if workers < 1 then invalid_arg "Service.serve: workers must be >= 1";
    if max_think < 0 then invalid_arg "Service.serve: max_think must be >= 0";
    let arenas_n =
      match arenas with
      | Some a ->
        if a < 1 then invalid_arg "Service.serve: arenas must be >= 1";
        a
      | None -> max 2 (2 * workers)
    in
    if arenas_n > Sh.Epoch.max_slots then
      invalid_arg "Service.serve: arenas exceeds Epoch.max_slots";
    let target = rounds in
    let think =
      match think with
      | Some f -> f
      | None -> fun ~client ~served -> default_think ~seed ~max_think ~client ~served
    in
    let input_of =
      match input with
      | Some f -> f
      | None -> fun ~client ~served -> default_input ~seed ~client ~served
    in
    (* -------------------- shared state -------------------- *)
    let pool = Array.init arenas_n (fun _ -> R.make_arena ()) in
    let epochs =
      Array.init arenas_n (fun s ->
          Atomic.make (Sh.Epoch.to_int (Sh.Epoch.make ~slot:s ~epoch:0)))
    in
    let free_slots : int Intake.t = Intake.create () in
    for s = arenas_n - 1 downto 0 do
      Intake.push free_slots s
    done;
    let intake : client Intake.t = Intake.create () in
    let queues : round Intake.t array =
      Array.init workers (fun _ -> Intake.create ())
    in
    let inflight : round option Atomic.t array =
      Array.init workers (fun _ -> Atomic.make None)
    in
    let wheel_sz = max 8 (2 * (max_think + 1)) in
    let park : (client * int) Intake.t array =
      Array.init wheel_sz (fun _ -> Intake.create ())
    in
    let parked = Atomic.make 0 in
    let issued = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let vclock = Atomic.make 0 in
    let admit_lock = Atomic.make false in
    (* mutated only inside the admit critical section *)
    let digest = ref Sh.Hashx.seed in
    let admit_hist = Hist.create () in
    let decide_hists = Array.init workers (fun _ -> Hist.create ()) in
    let kills = Atomic.make 0 in
    let adoptions = Atomic.make 0 in
    let steals = Atomic.make 0 in
    let escalated = Atomic.make 0 in
    let max_bound = Atomic.make P.k in
    let residue = Atomic.make 0 in
    let decisions = Atomic.make 0 in
    let recycles = Atomic.make 0 in
    let violation_count = Atomic.make 0 in
    let violations : (int * string) Intake.t = Intake.create () in
    let violate rid detail =
      if Atomic.fetch_and_add violation_count 1 < 32 then
        Intake.push violations (rid, detail)
    in
    let population =
      Array.init clients (fun id ->
          { id; served = 0; submit_ns = 0L; pending = false })
    in
    let submit now c =
      c.submit_ns <- now;
      Intake.push intake c
    in
    (* -------------------- admission -------------------- *)
    (* drain wheel buckets (last, vt]; entries parked for a later lap of
       the wheel are re-parked *)
    let release_due vt last =
      let released = ref 0 in
      for r = last + 1 to vt do
        List.iter
          (fun (c, rel) ->
            if rel <= vt then begin
              incr released;
              Atomic.decr parked;
              submit (Resil.Clock.now_ns ()) c
            end
            else Intake.push park.(rel mod wheel_sz) (c, rel))
          (Intake.drain park.(r mod wheel_sz))
      done;
      !released
    in
    (* the admitter's private FIFO of waiting clients, touched only
       inside the admit critical section: a ring of [clients] slots, which
       never overflows because each client is in at most one place *)
    let backlog = Array.make clients population.(0) in
    let backlog_head = ref 0 and backlog_len = ref 0 in
    let admit () =
      if Atomic.compare_and_set admit_lock false true then begin
        (* 1. advance the think wheel to the completed-rounds clock *)
        let vt0 = Atomic.get vclock in
        let vt = ref (max vt0 (Atomic.get completed)) in
        ignore (release_due !vt vt0);
        (* 2. fast-forward through pure think time: when every client is
           parked and nothing is in flight, round time cannot advance on
           its own, so the admitter ticks the wheel until someone wakes
           (deterministic — no wall clock involved in the decision) *)
        while
          Atomic.get issued < target
          && Intake.is_empty intake
          && !backlog_len = 0
          && Atomic.get issued = Atomic.get completed
          && Atomic.get parked > 0
        do
          ignore (release_due (!vt + 1) !vt);
          incr vt
        done;
        Atomic.set vclock !vt;
        (* 3. append the new arrivals to the backlog, then coalesce its
           head into epoch-stamped rounds *)
        List.iter
          (fun c ->
            backlog.((!backlog_head + !backlog_len) mod clients) <- c;
            incr backlog_len)
          (Intake.drain intake);
        let now = Resil.Clock.now_ns () in
        let out_of_slots = ref false in
        while
          (not !out_of_slots)
          && !backlog_len > 0
          && Atomic.get issued < target
        do
          match Intake.pop free_slots with
          | None -> out_of_slots := true
          | Some slot ->
            let b = min P.n !backlog_len in
            let members =
              Array.init b (fun i -> backlog.((!backlog_head + i) mod clients))
            in
            backlog_head := (!backlog_head + b) mod clients;
            backlog_len := !backlog_len - b;
            let rid = Atomic.fetch_and_add issued 1 in
            let stamp = Sh.Epoch.of_int (Atomic.get epochs.(slot)) in
            let inputs = Array.make b 0 in
            let d = ref (Sh.Hashx.int !digest rid) in
            Array.iteri
              (fun pid c ->
                if c.pending then
                  violate rid (Fmt.str "client %d admitted twice" c.id);
                c.pending <- true;
                inputs.(pid) <- input_of ~client:c.id ~served:c.served;
                let lat = Int64.to_int (Int64.sub now c.submit_ns) in
                Hist.observe admit_hist lat;
                Obs.Histogram.observe h_admit lat;
                d := Sh.Hashx.int (Sh.Hashx.int !d c.id) inputs.(pid))
              members;
            digest := !d;
            Obs.Histogram.observe h_batch b;
            let states =
              Array.init b (fun pid -> P.init ~pid ~input:inputs.(pid))
            in
            let round =
              { rid;
                stamp;
                members;
                inputs;
                incarnation = 0;
                crashed = 0;
                states = Some states
              }
            in
            Intake.push queues.(rid mod workers) round
        done;
        Atomic.set admit_lock false
      end
    in
    (* -------------------- round driving -------------------- *)
    let drive ~wslot ~rng round =
      Atomic.set inflight.(wslot) (Some round);
      let slot = Sh.Epoch.slot round.stamp in
      let arena = pool.(slot) in
      (* the issued stamp must still be current: a mismatch means the
         slot was recycled under a live reference — the ABA failure the
         epoch exists to catch *)
      if Atomic.get epochs.(slot) <> Sh.Epoch.to_int round.stamp then
        violate round.rid
          (Fmt.str "stale stamp %a on slot %d" Sh.Epoch.pp round.stamp slot);
      if round.incarnation > 0 then begin
        Atomic.incr adoptions;
        Obs.Counter.incr m_adoptions
      end;
      let b = Array.length round.members in
      let states =
        match round.states with
        | Some s -> s
        | None ->
          (* adopted after a kill: rebuild every member through the
             protocol's declared recovery against the dirty arena *)
          Array.init b (fun pid ->
              match P.recovery with
              | Sh.Protocol.Restart -> P.init ~pid ~input:round.inputs.(pid)
              | Sh.Protocol.Resume f ->
                f ~pid ~input:round.inputs.(pid) (R.arena_mem arena))
      in
      round.states <- Some states;
      let kill_pt =
        match kill with
        | None -> None
        | Some plan -> plan ~round:round.rid ~incarnation:round.incarnation
      in
      let ops = ref 0 in
      let kill_check () =
        match kill_pt with
        | Some pt when !ops >= pt ->
          (* chaos: this incarnation dies here.  If it already touched
             memory, the successor effectively runs with one more silent
             participant, so the round's agreement bound degrades by one
             (Gafni's restricted-runs view, as in the supervisor). *)
          if !ops > 0 then round.crashed <- round.crashed + 1;
          round.incarnation <- round.incarnation + 1;
          round.states <- None;
          Atomic.incr kills;
          Obs.Counter.incr m_kills;
          raise (Killed round.rid)
        | _ -> ()
      in
      (* one domain drives the whole round, so every member below runs
         solo: obstruction-freedom guarantees each decides.  The order is
         a seeded shuffle so recycled arenas see varied access patterns;
         the budget is a livelock tripwire, not a pacing knob. *)
      let order = Array.init b (fun i -> i) in
      for i = b - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let budget = 10_000 * (b + 1) in
      Array.iter
        (fun pid ->
          (* the member's state lives in [go]'s argument and reaches
             [states] once, when the member stops; a kill drops the whole
             array ([round.states <- None]), so nothing reads it after *)
          let rec go st guard =
            match P.decision st with
            | Some _ -> states.(pid) <- st
            | None ->
              if guard >= budget then begin
                states.(pid) <- st;
                violate round.rid
                  (Fmt.str "pid %d exceeded solo op budget %d" pid budget)
              end
              else begin
                kill_check ();
                let resp = R.arena_apply arena (P.poised st) in
                incr ops;
                go (P.on_response st resp) (guard + 1)
              end
          in
          go states.(pid) 0)
        order;
      (* per-round degradation contract, by the shared rules on the
         members' states: agreement within k + crashed incarnations that
         touched memory, and validity *)
      let bound = P.k + round.crashed in
      (match Pr.check_agreement ~bound states with
      | Some d -> violate round.rid ("agreement: " ^ d)
      | None -> ());
      (match Pr.check_validity ~inputs:round.inputs states with
      | Some d -> violate round.rid ("validity: " ^ d)
      | None -> ());
      if round.crashed > 0 then begin
        Atomic.incr escalated;
        Obs.Counter.incr m_escalations;
        let rec bump () =
          let cur = Atomic.get max_bound in
          if bound > cur && not (Atomic.compare_and_set max_bound cur bound)
          then bump ()
        in
        bump ()
      end;
      (* serve the members: record latency, then think and re-enter *)
      let now = Resil.Clock.now_ns () in
      Array.iter
        (fun c ->
          c.pending <- false;
          c.served <- c.served + 1;
          let lat = Int64.to_int (Int64.sub now c.submit_ns) in
          Hist.observe decide_hists.(wslot) lat;
          Obs.Histogram.observe h_decide lat;
          let tt = think ~client:c.id ~served:c.served in
          if tt <= 0 then submit now c
          else begin
            Atomic.incr parked;
            let rel = Atomic.get completed + 1 + tt in
            Intake.push park.(rel mod wheel_sz) (c, rel)
          end)
        round.members;
      ignore (Atomic.fetch_and_add decisions b);
      Obs.Counter.add m_decisions b;
      (* recycle: quiescence is structural (this worker was the only
         driver and every member has decided), so rewind the cells, bump
         the slot's epoch — invalidating any stale stamp — and return it
         to the pool *)
      R.reset_arena arena;
      if paranoid then
        Array.iteri
          (fun i v ->
            if not (Sh.Value.equal v (P.init_object i)) then begin
              Atomic.incr residue;
              violate round.rid
                (Fmt.str "residue in B%d after reset: %a" i Sh.Value.pp v)
            end)
          (R.arena_mem arena);
      Atomic.set epochs.(slot) (Sh.Epoch.to_int (Sh.Epoch.next round.stamp));
      Atomic.incr recycles;
      Obs.Counter.incr m_recycles;
      Intake.push free_slots slot;
      Atomic.set inflight.(wslot) None;
      Atomic.incr completed;
      Obs.Counter.incr m_rounds
    in
    (* -------------------- workers -------------------- *)
    let next_round slot =
      match Intake.pop queues.(slot) with
      | Some r -> Some r
      | None ->
        let stolen = ref None in
        let w = ref 0 in
        while
          (match !stolen with None -> true | Some _ -> false) && !w < workers
        do
          if !w <> slot then begin
            match Intake.pop queues.(!w) with
            | Some r ->
              stolen := Some r;
              Atomic.incr steals;
              Obs.Counter.incr m_steals
            | None -> ()
          end;
          incr w
        done;
        !stolen
    in
    let worker ~slot ~incarnation =
      let rng = Random.State.make [| seed; 0xA12E4A; slot; incarnation |] in
      let pace = Resil.Policy.Backoff.exponential ~base:1 ~cap:256 () in
      let idle = ref 0 in
      let rec loop () =
        if Atomic.get completed >= target then ()
        else
          match next_round slot with
          | Some r ->
            idle := 0;
            drive ~wslot:slot ~rng r;
            loop ()
          | None ->
            admit ();
            (match next_round slot with
            | Some r ->
              idle := 0;
              drive ~wslot:slot ~rng r
            | None ->
              ignore
                (Resil.Policy.Backoff.once pace ~attempt:(min !idle 8));
              incr idle);
            loop ()
      in
      loop ()
    in
    let on_crash ~slot ~incarnation:_ e =
      (* heal, on the dead worker's domain: whatever round the dead
         incarnation had in flight goes back to its slot's queue for
         adoption (by the next incarnation or a thief) *)
      (match Atomic.exchange inflight.(slot) None with
      | Some r -> Intake.push queues.(slot) r
      | None -> ());
      match e with
      | Killed _ -> ()
      | e -> violate (-1) ("worker raised: " ^ Printexc.to_string e)
    in
    (* -------------------- run -------------------- *)
    let since = Resil.Clock.now_ns () in
    Array.iter (submit since) population;
    let report =
      if target = 0 then
        { Supervisor.Pool.respawns = Array.make workers 0;
          gave_up = [];
          crashes = []
        }
      else
        Obs.Span.time sp_serve (fun () ->
            (* a chaos kill is healed, not a persistent worker fault: it
               is never charged to the slot breaker *)
            Supervisor.Pool.run ~workers ?max_respawns
              ~charge:(function Killed _ -> false | _ -> true)
              ~on_crash worker)
    in
    let elapsed = Resil.Clock.elapsed_s ~since in
    (* -------------------- conservation -------------------- *)
    let conservation =
      let seen = Array.make clients false in
      let count = ref 0 in
      let problem = ref None in
      let note p = match !problem with Some _ -> () | None -> problem := Some p in
      let visit ~in_round c =
        incr count;
        if c.id < 0 || c.id >= clients then
          note (Fmt.str "unknown client id %d" c.id)
        else begin
          if seen.(c.id) then note (Fmt.str "client %d duplicated" c.id);
          seen.(c.id) <- true
        end;
        if c.pending && not in_round then
          note (Fmt.str "client %d pending outside any round" c.id)
      in
      List.iter (visit ~in_round:false) (Intake.drain intake);
      for i = 0 to !backlog_len - 1 do
        visit ~in_round:false backlog.((!backlog_head + i) mod clients)
      done;
      Array.iter
        (fun b ->
          List.iter (fun (c, _) -> visit ~in_round:false c) (Intake.drain b))
        park;
      Array.iter
        (fun q ->
          List.iter
            (fun r -> Array.iter (visit ~in_round:true) r.members)
            (Intake.drain q))
        queues;
      Array.iter
        (fun a ->
          match Atomic.get a with
          | Some r -> Array.iter (visit ~in_round:true) r.members
          | None -> ())
        inflight;
      match !problem with
      | Some p -> Error p
      | None ->
        if !count <> clients then
          Error
            (Fmt.str "%d clients accounted for, expected %d" !count clients)
        else Ok ()
    in
    let decide_hist = Hist.create () in
    Array.iter (fun h -> Hist.merge_into ~into:decide_hist h) decide_hists;
    { rounds_done = Atomic.get completed;
      target;
      decisions = Atomic.get decisions;
      kills = Atomic.get kills;
      adoptions = Atomic.get adoptions;
      steals = Atomic.get steals;
      escalated = Atomic.get escalated;
      max_bound = Atomic.get max_bound;
      recycles = Atomic.get recycles;
      respawns = Array.fold_left ( + ) 0 report.Supervisor.Pool.respawns;
      gave_up = report.Supervisor.Pool.gave_up;
      violation_count = Atomic.get violation_count;
      violations = Intake.drain violations;
      conservation;
      residue = Atomic.get residue;
      elapsed;
      admit_hist;
      decide_hist;
      digest = !digest
    }
end
