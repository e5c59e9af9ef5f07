(** Fault injection and chaos campaigns for both execution backends.  See
    the interface for the model; the short version: benign faults (crash,
    stall) compile to scheduler combinators / runtime injection points,
    object faults (torn swap, lost update, stale read) substitute a
    deliberately non-atomic apply function into the simulator so the
    monitors and the atomicity check can prove they would catch a broken
    base object. *)

type fault =
  | Crash of int * int
  | Stall of int * int * int
  | Respawn of int * int
  | Torn_swap of int
  | Lost_update of int
  | Stale_read of int * int

type plan = fault list

let pp_fault ppf = function
  | Crash (p, t) -> Fmt.pf ppf "crash(p%d@%d)" p t
  | Stall (p, t, d) -> Fmt.pf ppf "stall(p%d@%d+%d)" p t d
  | Respawn (p, d) -> Fmt.pf ppf "respawn(p%d+%d)" p d
  | Torn_swap o -> Fmt.pf ppf "torn-swap(B%d)" o
  | Lost_update o -> Fmt.pf ppf "lost-update(B%d)" o
  | Stale_read (o, lag) -> Fmt.pf ppf "stale-read(B%d,lag=%d)" o lag

let pp_plan ppf = function
  | [] -> Fmt.string ppf "(no faults)"
  | plan -> Fmt.(list ~sep:(any ", ") pp_fault) ppf plan

let is_benign = function
  | Crash _ | Stall _ | Respawn _ -> true
  | Torn_swap _ | Lost_update _ | Stale_read _ -> false

let benign plan = List.for_all is_benign plan

let fault_object = function
  | Torn_swap o | Lost_update o | Stale_read (o, _) -> Some o
  | Crash _ | Stall _ | Respawn _ -> None

let validate ~n ~num_objects plan =
  let check_pid p = p >= 0 && p < n in
  let check_obj o = o >= 0 && o < num_objects in
  let rec go seen_objs seen_respawns = function
    | [] -> Ok ()
    | f :: rest -> (
      let bad fmt = Fmt.kstr (fun s -> Error s) fmt in
      match f with
      | Crash (p, t) ->
        if not (check_pid p) then bad "%a: pid out of range" pp_fault f
        else if t < 0 then bad "%a: negative time" pp_fault f
        else go seen_objs seen_respawns rest
      | Stall (p, t, d) ->
        if not (check_pid p) then bad "%a: pid out of range" pp_fault f
        else if t < 0 then bad "%a: negative time" pp_fault f
        else if d < 1 then bad "%a: duration must be positive" pp_fault f
        else go seen_objs seen_respawns rest
      | Respawn (p, d) ->
        if not (check_pid p) then bad "%a: pid out of range" pp_fault f
        else if d < 1 then bad "%a: delay must be positive" pp_fault f
        else if List.mem p seen_respawns then
          bad "%a: p%d already has a respawn" pp_fault f p
        else go seen_objs (p :: seen_respawns) rest
      | Torn_swap o | Lost_update o | Stale_read (o, _) ->
        if not (check_obj o) then bad "%a: object out of range" pp_fault f
        else if List.mem o seen_objs then
          bad "%a: object B%d already has a fault" pp_fault f o
        else if
          (match f with Stale_read (_, lag) -> lag < 1 | _ -> false)
        then bad "%a: lag must be positive" pp_fault f
        else go (o :: seen_objs) seen_respawns rest)
  in
  go [] [] plan

let crashes plan =
  List.filter_map (function Crash (p, t) -> Some (p, t) | _ -> None) plan

let stalls plan =
  List.filter_map
    (function Stall (p, t, d) -> Some (p, t, d) | _ -> None)
    plan

let respawns plan =
  List.filter_map (function Respawn (p, d) -> Some (p, d) | _ -> None) plan

(* ------------------------------------------------------------------ *)
(* ddmin (Zeller & Hildebrandt), plus a final single-deletion pass so   *)
(* the result is 1-minimal: removing any one element stops violating.   *)

let m_ddmin_probes = Obs.counter "fault.ddmin.probe_runs"
let h_shrink_pct = Obs.histogram "fault.shrink_pct"

let ddmin ~violates input =
  let violates input =
    Obs.Counter.incr m_ddmin_probes;
    violates input
  in
  if not (violates input) then
    invalid_arg "Fault.ddmin: the initial input does not violate";
  if violates [] then []
  else
  let partition lst n =
    let arr = Array.of_list lst in
    let len = Array.length arr in
    List.init n (fun i ->
        let lo = i * len / n and hi = (i + 1) * len / n in
        Array.to_list (Array.sub arr lo (hi - lo)))
    |> List.filter (fun chunk -> chunk <> [])
  in
  let rec go lst n =
    let len = List.length lst in
    if len <= 1 then lst
    else
      let chunks = partition lst n in
      match List.find_opt violates chunks with
      | Some chunk -> go chunk 2
      | None -> (
        let complements =
          (* with 2 chunks each complement is the other chunk, just tried *)
          if List.length chunks <= 2 then []
          else
            List.mapi
              (fun i _ ->
                List.concat (List.filteri (fun j _ -> j <> i) chunks))
              chunks
        in
        match List.find_opt violates complements with
        | Some compl -> go compl (max (n - 1) 2)
        | None -> if n < len then go lst (min (2 * n) len) else lst)
  in
  let rec one_minimal lst =
    let len = List.length lst in
    let rec try_delete i =
      if i >= len then lst
      else
        let candidate = List.filteri (fun j _ -> j <> i) lst in
        if candidate <> [] && violates candidate then one_minimal candidate
        else try_delete (i + 1)
    in
    if len <= 1 then lst else try_delete 0
  in
  one_minimal (go input 2)

(* ------------------------------------------------------------------ *)
(* Random plans *)

type kind = Crash_k | Stall_k | Respawn_k | Torn_k | Lost_k | Stale_k

(* [all_kinds] deliberately excludes [Respawn_k]: existing seeded campaigns
   and their recorded expectations stay bit-identical; recovery campaigns
   opt in through the ["recovery"] group or an explicit kind list *)
let all_kinds = [ Crash_k; Stall_k; Torn_k; Lost_k; Stale_k ]
let benign_kinds = [ Crash_k; Stall_k ]
let recovery_kinds = [ Crash_k; Stall_k; Respawn_k ]

let kind_to_string = function
  | Crash_k -> "crash"
  | Stall_k -> "stall"
  | Respawn_k -> "respawn"
  | Torn_k -> "torn"
  | Lost_k -> "lost"
  | Stale_k -> "stale"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "crash" -> Ok Crash_k
  | "stall" -> Ok Stall_k
  | "respawn" -> Ok Respawn_k
  | "torn" | "torn-swap" -> Ok Torn_k
  | "lost" | "lost-update" -> Ok Lost_k
  | "stale" | "stale-read" -> Ok Stale_k
  | other ->
    Error
      (Fmt.str
         "unknown fault kind %S (crash, stall, respawn, torn, lost, stale)"
         other)

let kinds_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "all" -> Ok all_kinds
  | "benign" -> Ok benign_kinds
  | "recovery" -> Ok recovery_kinds
  | _ ->
    String.split_on_char ',' s
    |> List.filter (fun tok -> String.trim tok <> "")
    |> List.fold_left
         (fun acc tok ->
           match acc, kind_of_string tok with
           | Error e, _ -> Error e
           | Ok ks, Ok k -> Ok (k :: ks)
           | Ok _, Error e -> Error e)
         (Ok [])
    |> Result.map List.rev

let kind_is_benign = function
  | Crash_k | Stall_k | Respawn_k -> true
  | Torn_k | Lost_k | Stale_k -> false

let gen_plan ~rng ~n ~num_objects kinds =
  (* object faults target distinct objects: walk a shuffle *)
  let objs = Array.init num_objects Fun.id in
  for i = num_objects - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = objs.(i) in
    objs.(i) <- objs.(j);
    objs.(j) <- tmp
  done;
  let next_obj = ref 0 in
  let take_obj () =
    if !next_obj >= num_objects then None
    else (
      let o = objs.(!next_obj) in
      incr next_obj;
      Some o)
  in
  (* a left fold (not filter_map) so [Respawn_k] can see the crash drawn
     for an earlier kind; the RNG consumption order for the pre-existing
     kinds is unchanged, keeping historical seeds bit-identical *)
  List.fold_left
    (fun acc k ->
      if not (Random.State.bool rng) then acc
      else
        match k with
        | Crash_k ->
          Crash (Random.State.int rng n, Random.State.int rng 64) :: acc
        | Stall_k ->
          Stall
            ( Random.State.int rng n,
              Random.State.int rng 64,
              1 + Random.State.int rng 127 )
          :: acc
        | Respawn_k -> (
          (* heal an already-drawn crash when there is one; otherwise draw
             a fresh kill-and-heal pair *)
          let delay = 1 + Random.State.int rng 32 in
          match
            List.filter_map
              (function Crash (p, t) -> Some (p, t) | _ -> None)
              acc
          with
          | (p, _) :: _ -> Respawn (p, delay) :: acc
          | [] ->
            let p = Random.State.int rng n in
            let t = Random.State.int rng 64 in
            Respawn (p, delay) :: Crash (p, t) :: acc)
        | Torn_k -> (
          match take_obj () with
          | Some o -> Torn_swap o :: acc
          | None -> acc)
        | Lost_k -> (
          match take_obj () with
          | Some o -> Lost_update o :: acc
          | None -> acc)
        | Stale_k -> (
          match take_obj () with
          | Some o -> Stale_read (o, 1 + Random.State.int rng 3) :: acc
          | None -> acc))
    [] kinds
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Service-mode chaos *)

let service_kill_plan ~seed ~kill_every ?(max_point = 32)
    ?(max_incarnations = 2) () =
  if kill_every < 1 then
    invalid_arg "Fault.service_kill_plan: kill_every must be >= 1";
  if max_point < 1 then
    invalid_arg "Fault.service_kill_plan: max_point must be >= 1";
  if max_incarnations < 0 then
    invalid_arg "Fault.service_kill_plan: max_incarnations must be >= 0";
  fun ~round ~incarnation ->
    if incarnation >= max_incarnations then None
    else
      (* two independent draws from one mixed word: the low bits select
         roughly one round in [kill_every], the high bits place the kill
         point — deterministic in (seed, round, incarnation) alone, so
         the plan is identical regardless of which worker pulls the
         round *)
      let h =
        let module H = Shmem.Hashx in
        H.int (H.int (H.int H.seed seed) round) incarnation
      in
      if h mod kill_every <> 0 then None
      else Some ((h lsr 17) mod max_point)

(* ------------------------------------------------------------------ *)
(* Simulator campaigns *)

module Sim (P : Shmem.Protocol.S) = struct
  module E = Shmem.Exec.Make (P)
  module Pr = Prop.Make (P)
  open Shmem

  let snap (c : E.config) : Pr.snap = { Pr.states = c.E.states; mem = c.E.mem }

  let m_plans = Obs.counter "fault.sim.plans"
  let m_steps = Obs.counter "fault.sim.steps"
  let m_fired = Obs.counter "fault.sim.manifestations"
  let m_missed = Obs.counter "fault.sim.missed"
  let m_violations = Obs.counter "fault.sim.violations"
  let m_revivals = Obs.counter "fault.sim.revivals"
  let h_ttd = Obs.histogram "fault.time_to_detection"
  let sp_campaign = Obs.span "fault.sim.campaign"

  (* one counter per detection class, so a campaign's snapshot shows
     where faults were caught (property vs protocol raise vs replay check) *)
  let m_detect cls = Obs.counter ("fault.detect." ^ cls)

  type report = {
    final : E.config;
    trace : Trace.t;
    outcome : E.outcome;
    fired : (fault * int) list;
    prop_violation : (string * string) option;
    raised : (int * string) option;
    revived : (int * int) list;
    first_fired_step : int option;
  }

  let fired_total r = List.fold_left (fun acc (_, c) -> acc + c) 0 r.fired

  (* The injector holds the mutable per-object fault state and exposes an
     [E.apply_fn].  Semantics are engineered so that every manifestation
     ([fired]) is detectable by [check_atomic]:

     - torn swap: the swap's write is withheld only when it would change
       the value; if the next access to the object is by the owner, the
       write lands silently first (program order within a process is
       preserved, nothing observable happened); if it is by another
       process, that operation executes against the stale value and the
       delayed write lands after it, clobbering its write — a response or
       final-value divergence from any sequential order.
     - lost update: every second value-changing nontrivial operation's
       write evaporates (the response is still correct), so the sequential
       replay diverges at the next response on the object, or at the final
       value.
     - stale read: a lagged response is only substituted when it differs
       from the true one — an immediate replay mismatch. *)
  let injector plan =
    let num_objects = Array.length P.objects in
    let torn = Array.make num_objects false in
    let torn_pending = Array.make num_objects None in
    let lost = Array.make num_objects false in
    let lost_count = Array.make num_objects 0 in
    let stale = Array.make num_objects 0 in
    let hist = Array.make num_objects [] in
    List.iter
      (function
        | Torn_swap o -> torn.(o) <- true
        | Lost_update o -> lost.(o) <- true
        | Stale_read (o, lag) -> stale.(o) <- lag
        | Crash _ | Stall _ | Respawn _ -> ())
      plan;
    let counts : (fault, int) Hashtbl.t = Hashtbl.create 8 in
    let fire f =
      Hashtbl.replace counts f
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
    in
    let apply ~pid ~op ~current =
      let o = op.Op.obj in
      if stale.(o) > 0 && hist.(o) = [] then hist.(o) <- [ current ];
      (* a pending torn write by this same process lands silently first *)
      let current =
        match torn_pending.(o) with
        | Some (owner, v) when owner = pid ->
          torn_pending.(o) <- None;
          v
        | _ -> current
      in
      let foreign_pending = torn_pending.(o) in
      let true_new, true_resp =
        Obj_kind.apply P.objects.(o) ~current op.Op.action
      in
      (* stale read: Read and the read half of Swap observe the past *)
      let resp =
        if stale.(o) > 0 then (
          match op.Op.action with
          | Op.Read | Op.Swap _ ->
            let h = hist.(o) in
            let lagged = List.nth h (min stale.(o) (List.length h - 1)) in
            if not (Value.equal lagged true_resp) then
              fire (Stale_read (o, stale.(o)));
            lagged
          | Op.Write _ | Op.Cas _ -> true_resp)
        else true_resp
      in
      (* lost update: every second value-changing write evaporates *)
      let new_value =
        if lost.(o) && Op.is_nontrivial op && not (Value.equal true_new current)
        then (
          lost_count.(o) <- lost_count.(o) + 1;
          if lost_count.(o) mod 2 = 0 then (
            fire (Lost_update o);
            current)
          else true_new)
        else true_new
      in
      (* torn swap: withhold the write half (only when it would change the
         value — tearing a value-preserving swap is unobservable) *)
      let new_value =
        match op.Op.action with
        | Op.Swap v
          when torn.(o)
               && Option.is_none foreign_pending
               && not (Value.equal v current) ->
          torn_pending.(o) <- Some (pid, v);
          current
        | _ -> new_value
      in
      (* a foreign torn write was pending across this operation: the
         delayed write lands now, clobbering whatever this one wrote *)
      let new_value =
        match foreign_pending with
        | Some (_, v) ->
          torn_pending.(o) <- None;
          fire (Torn_swap o);
          v
        | None -> new_value
      in
      if stale.(o) > 0 && not (Value.equal new_value current) then
        hist.(o) <- new_value :: hist.(o);
      new_value, resp
    in
    let fired () =
      List.filter_map
        (fun f ->
          match fault_object f with
          | None -> None
          | Some _ ->
            Some (f, Option.value ~default:0 (Hashtbl.find_opt counts f)))
        plan
    in
    apply, fired

  type violation =
    | Property of string * string
    | Protocol_raise of string
    | Non_atomic of string
    | Liveness of string

  let pp_violation ppf = function
    | Property (name, d) -> Fmt.pf ppf "property %s: %s" name d
    | Protocol_raise d -> Fmt.pf ppf "protocol raised: %s" d
    | Non_atomic d -> Fmt.pf ppf "non-atomic: %s" d
    | Liveness d -> Fmt.pf ppf "liveness: %s" d

  let violation_class = function
    | Property (name, _) -> "prop:" ^ name
    | Protocol_raise _ -> "protocol-raise"
    | Non_atomic _ -> "non-atomic"
    | Liveness _ -> "liveness"

  let exec ?(props = []) ?(revivals = []) ?revive ~apply ~fired
      ~sched ~max_steps c0 =
    let fired_total_now () =
      List.fold_left (fun acc (_, c) -> acc + c) 0 (fired ())
    in
    let first_fired = ref None in
    let note_fired i =
      if Option.is_none !first_fired && fired_total_now () > 0 then
        first_fired := Some i
    in
    let revived = ref [] in
    (* crash windows that end in a revival: (pid, dead_from, revive_at);
       the pid is unschedulable from [dead_from] until its entry is
       consumed by [apply_revival] *)
    let remaining = ref revivals in
    (* revived pids that have not yet taken their first post-revival step:
       while nonempty, the linear property monitor is suppressed, and it
       is re-anchored (Pr.start) once every revived pid has stepped.
       Config invariants that relate a process's private state to residue
       the previous incarnation left in shared memory (e.g. the §4
       totality invariant) would false-alarm on the reset state; one step
       by the new incarnation overwrites or re-anchors that residue, after
       which the invariants are sound again.  Step relations never see the
       discontinuity either way: before/after snapshots are taken around a
       single step. *)
    let pending = ref [] in
    let mon0, at_init = Pr.start props (snap c0) in
    let mon = ref mon0 in
    let finish ?prop ?raised c rev_steps outcome =
      { final = c;
        trace = List.rev rev_steps;
        outcome;
        fired = fired ();
        prop_violation = prop;
        raised;
        revived = List.rev !revived;
        first_fired_step = !first_fired
      }
    in
    match at_init with
    | Some pv -> finish ~prop:pv c0 [] E.Stopped
    | None ->
      let dead_now i pid =
        List.exists (fun (p, from, _) -> p = pid && i >= from) !remaining
      in
      let apply_revival i c (pid, _, _) =
        remaining := List.filter (fun (p, _, _) -> p <> pid) !remaining;
        match P.decision c.E.states.(pid) with
        | Some _ -> c (* crashed after deciding: nothing to recover *)
        | None ->
          let st =
            match revive with
            | Some f -> f ~pid c
            | None -> invalid_arg "Fault.Sim: revival without a revive fn"
          in
          let states =
            Array.mapi (fun j s -> if j = pid then st else s) c.E.states
          in
          revived := (pid, i) :: !revived;
          pending := pid :: !pending;
          Obs.Counter.incr m_revivals;
          E.unsafe_config ~states ~mem:c.E.mem
      in
      let rec go c rev_steps i =
        (* due revivals rebuild the pid's state in place *)
        let due, _ = List.partition (fun (_, _, at) -> at <= i) !remaining in
        let c = List.fold_left (apply_revival i) c due in
        if i >= max_steps then finish c rev_steps E.Step_limit
        else
          match E.undecided c with
          | [] -> finish c rev_steps E.All_decided
          | enabled -> (
            let alive =
              List.filter (fun pid -> not (dead_now i pid)) enabled
            in
            (* every undecided pid sits inside a crash window that ends in
               a revival: pull the earliest revival forward so the run
               makes progress instead of wedging (step indexes only
               advance on executed steps, so waiting cannot help) *)
            let early =
              if alive <> [] then None
              else
                List.filter (fun (p, _, _) -> List.mem p enabled) !remaining
                |> List.fold_left
                     (fun best ((_, _, at) as r) ->
                       match best with
                       | Some (_, _, bat) when bat <= at -> best
                       | _ -> Some r)
                     None
            in
            match early with
            | Some r -> go (apply_revival i c r) rev_steps i
            | None when alive = [] -> finish c rev_steps E.Stopped
            | None -> (
              match sched ~step_index:i c alive with
              | None -> finish c rev_steps E.Stopped
              | Some pid -> (
                (* a protocol may legitimately raise when a fault hands it a
                   response it can prove impossible — that is a detection,
                   not a campaign crash *)
                match E.step_with ~apply c pid with
                | exception e ->
                  note_fired i;
                  finish ~raised:(pid, Printexc.to_string e) c rev_steps
                    E.Stopped
                | c', s -> (
                  note_fired i;
                  if !pending <> [] then begin
                    (* monitor suppressed across the recovery boundary *)
                    pending := List.filter (fun p -> p <> pid) !pending;
                    if !pending = [] then begin
                      match Pr.start props (snap c') with
                      | _, Some pv ->
                        finish ~prop:pv c' (s :: rev_steps) E.Stopped
                      | m, None ->
                        mon := m;
                        go c' (s :: rev_steps) (i + 1)
                    end
                    else go c' (s :: rev_steps) (i + 1)
                  end
                  else
                    match
                      Pr.advance !mon ~before:(snap c) ~pid ~after:(snap c')
                    with
                    | Some pv -> finish ~prop:pv c' (s :: rev_steps) E.Stopped
                    | None -> go c' (s :: rev_steps) (i + 1)))))
      in
      go c0 [] 0

  (* the crash/revival split: crashes whose pid also has a [Respawn] in
     the plan become finite windows handled inside [exec] (the pid is
     unschedulable from the crash step until the revival rebuilds its
     state via [P.recovery]); plain crashes keep compiling to the
     [E.with_crashes] combinator exactly as before *)
  let recovery_of plan ~inputs =
    let resp = respawns plan in
    let cr = crashes plan in
    let plain =
      List.filter (fun (p, _) -> not (List.mem_assoc p resp)) cr
    in
    let revivals =
      List.filter_map
        (fun (p, t) ->
          Option.map (fun d -> p, t, t + d) (List.assoc_opt p resp))
        cr
    in
    let revive ~pid (c : E.config) =
      match P.recovery with
      | Shmem.Protocol.Restart -> P.init ~pid ~input:inputs.(pid)
      | Shmem.Protocol.Resume f ->
        f ~pid ~input:inputs.(pid) (Array.copy c.E.mem)
    in
    plain, revivals, revive

  let run ?props plan ~sched ~max_steps ~inputs =
    (match validate ~n:P.n ~num_objects:(Array.length P.objects) plan with
    | Ok () -> ()
    | Error e -> invalid_arg (Fmt.str "Fault.Sim.run: %s" e));
    let apply, fired = injector plan in
    let plain_crashes, revivals, revive = recovery_of plan ~inputs in
    let sched =
      E.with_crashes ~crash_at:plain_crashes
        (E.with_stalls ~stalls:(stalls plan) sched)
    in
    exec ?props ~revivals ~revive ~apply ~fired ~sched ~max_steps
      (E.initial ~inputs)

  let run_schedule ?props plan ~inputs pids =
    let apply, fired = injector plan in
    let _, revivals, revive = recovery_of plan ~inputs in
    let queue = ref pids in
    (* feed the explicit pid sequence; pids that have decided are skipped
       (deletions during shrinking leave other pids further along) *)
    let sched ~step_index:_ c enabled =
      ignore c;
      let rec next () =
        match !queue with
        | [] -> None
        | pid :: rest ->
          queue := rest;
          if List.mem pid enabled then Some pid else next ()
      in
      next ()
    in
    exec ?props ~revivals ~revive ~apply ~fired ~sched
      ~max_steps:(List.length pids + 1)
      (E.initial ~inputs)

  let check_atomic r =
    let num_objects = Array.length P.objects in
    let vals = Array.init num_objects P.init_object in
    let rec go i = function
      | [] ->
        let rec final_values o =
          if o >= num_objects then Ok ()
          else if not (Value.equal vals.(o) (E.value r.final o)) then
            Error
              (Fmt.str
                 "object B%d finished at %a, but a sequential replay of its \
                  operations gives %a"
                 o Value.pp (E.value r.final o) Value.pp vals.(o))
          else final_values (o + 1)
        in
        final_values 0
      | { Trace.pid; op; resp } :: rest ->
        let o = op.Op.obj in
        let new_v, expected =
          Obj_kind.apply P.objects.(o) ~current:vals.(o) op.Op.action
        in
        if not (Value.equal expected resp) then
          Error
            (Fmt.str
               "step %d (p%d %a) responded %a, but the sequential \
                specification gives %a"
               i pid Op.pp op Value.pp resp Value.pp expected)
        else (
          vals.(o) <- new_v;
          go (i + 1) rest)
    in
    go 0 r.trace

  let detect ?(bound = P.k) ~inputs r =
    match r.prop_violation, r.raised with
    | Some (name, d), _ -> Some (Property (name, d))
    | None, Some (pid, d) -> Some (Protocol_raise (Fmt.str "p%d: %s" pid d))
    | None, None -> (
      match check_atomic r with
      | Error d -> Some (Non_atomic d)
      | Ok () -> (
        (* the final snapshot, by the shared rules at the degraded bound *)
        let states = r.final.E.states in
        match Pr.check_agreement ~bound states with
        | Some d -> Some (Property ("k-agreement", d))
        | None ->
          Option.map (fun d -> Property ("validity", d))
            (Pr.check_validity ~inputs states)))

  let shrink ?props ?bound plan ~inputs violation pids =
    let cls = violation_class violation in
    let violates pids =
      match detect ?bound ~inputs (run_schedule ?props plan ~inputs pids) with
      | Some v -> String.equal (violation_class v) cls
      | None -> false
    in
    let shrunk = ddmin ~violates pids in
    if pids <> [] then
      Obs.Histogram.observe h_shrink_pct
        (100 * List.length shrunk / List.length pids);
    shrunk

  (* the pid sequence that reproduces a report under [run_schedule]: the
     trace's schedule, plus the step that raised (it never made the trace) *)
  let schedule_of r =
    Schedule.of_trace r.trace
    @ match r.raised with Some (pid, _) -> [ pid ] | None -> []

  type finding = {
    run : int;
    plan : plan;
    violation : violation;
    schedule : int list option;
  }

  type summary = {
    runs : int;
    steps : int;
    fired : int;
    revived : int;
    violations : finding list;
    detections : finding list;
    prop_detections : (string * int) list;
    missed : int;
  }

  let campaign ?props ?inputs ?(burst = 32) ?(max_steps = 100_000)
      ~seed ~runs ~kinds () =
    Obs.Span.time sp_campaign @@ fun () ->
    let num_objects = Array.length P.objects in
    let violations = ref [] in
    let detections = ref [] in
    let missed = ref 0 in
    let steps = ref 0 in
    let fired = ref 0 in
    let revived_total = ref 0 in
    for i = 0 to runs - 1 do
      let rng = Random.State.make [| seed; i; 0x5EED |] in
      let plan = gen_plan ~rng ~n:P.n ~num_objects kinds in
      let inputs =
        match inputs with
        | Some inputs -> inputs
        | None ->
          Array.init P.n (fun _ -> Random.State.int rng P.num_inputs)
      in
      let sched = E.bursty rng ~burst in
      let r = run ?props plan ~sched ~max_steps ~inputs in
      Obs.Counter.incr m_plans;
      if Obs.enabled () then begin
        Obs.Counter.add m_steps (Trace.length r.trace);
        Obs.Counter.add m_fired (fired_total r)
      end;
      steps := !steps + Trace.length r.trace;
      fired := !fired + fired_total r;
      revived_total := !revived_total + List.length r.revived;
      (* restart-recovery degrades agreement: each replaced incarnation is
         at most one extra silent participant (it may have left its value
         in shared memory before dying), so a run that revived [c]
         incarnations is held to [(k + c)]-set agreement, not [k] *)
      let bound =
        match P.recovery with
        | Shmem.Protocol.Resume _ -> P.k
        | Shmem.Protocol.Restart -> P.k + List.length r.revived
      in
      let record ~expected violation =
        (match r.first_fired_step with
        | Some f ->
          Obs.Histogram.observe h_ttd (max 0 (Trace.length r.trace - f))
        | None -> ());
        let schedule =
          match violation with
          | Liveness _ -> None
          | _ ->
            Some
              (shrink ?props ~bound plan ~inputs violation
                 (schedule_of r))
        in
        let finding = { run = i; plan; violation; schedule } in
        if expected then begin
          Obs.Counter.incr (m_detect (violation_class violation));
          detections := finding :: !detections
        end
        else begin
          Obs.Counter.incr m_violations;
          violations := finding :: !violations
        end
      in
      match detect ~bound ~inputs r with
      | Some v -> record ~expected:(not (benign plan)) v
      | None ->
        if fired_total r > 0 then begin
          Obs.Counter.incr m_missed;
          incr missed
        end;
        (* liveness: every process that was not crashed must have decided —
           and a crashed pid that was revived counts as a survivor again
           (object faults may legitimately wedge a protocol — only benign
           plans carry the expectation) *)
        if benign plan then (
          let crashed =
            List.filter
              (fun pid -> not (List.mem_assoc pid r.revived))
              (List.map fst (crashes plan))
          in
          let stuck =
            List.filter
              (fun pid -> not (List.mem pid crashed))
              (E.undecided r.final)
          in
          match stuck with
          | [] -> ()
          | stuck ->
            record ~expected:false
              (Liveness
                 (Fmt.str "survivors %a undecided after %d steps (%s)"
                    Fmt.(list ~sep:(any " ") (fmt "p%d"))
                    stuck (Trace.length r.trace)
                    (match r.outcome with
                    | E.All_decided -> "all-decided"
                    | E.Stopped -> "stopped"
                    | E.Step_limit -> "step-limit"))))
    done;
    let violations = List.rev !violations in
    let detections = List.rev !detections in
    (* per-property tally over every finding, expected or not — the chaos
       summary's "which declared property caught what" line *)
    let prop_detections =
      let tally = Hashtbl.create 8 in
      List.iter
        (fun f ->
          match f.violation with
          | Property (name, _) ->
            Hashtbl.replace tally name
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally name))
          | _ -> ())
        (detections @ violations);
      List.sort compare
        (Hashtbl.fold (fun name c acc -> (name, c) :: acc) tally [])
    in
    { runs;
      steps = !steps;
      fired = !fired;
      revived = !revived_total;
      violations;
      detections;
      prop_detections;
      missed = !missed
    }
end

(* ------------------------------------------------------------------ *)
(* Multicore campaigns *)

module Mc (P : Shmem.Protocol.S) = struct
  module R = Runtime.Make (P)
  module Sup = Supervisor.Make (P)

  let m_runs = Obs.counter "fault.mc.runs"
  let m_violations = Obs.counter "fault.mc.violations"
  let sp_campaign = Obs.span "fault.mc.campaign"

  type finding = { run : int; plan : plan; detail : string }

  type summary = {
    runs : int;
    crashes_injected : int;
    stalls_injected : int;
    respawns : int;
    rounds : int;
    total_ops : int;
    elapsed : float;
    hb_checked : int;
    hb_skipped : int;
    violations : finding list;
    prop_detections : (string * int) list;
  }

  let campaign ?inputs ?max_ops ?(deadline = 10.) ?(record = true)
      ?(oracles = []) ?(recover = false) ?(max_respawns = 2) ?(pack = [])
      ~seed ~runs ~kinds () =
    List.iter
      (fun k ->
        if not (kind_is_benign k) then
          invalid_arg
            (Fmt.str
               "Fault.Mc.campaign: %s faults only exist on the simulator"
               (kind_to_string k));
        if k = Respawn_k && not recover then
          invalid_arg
            "Fault.Mc.campaign: respawn faults need recover:true \
             (supervised campaigns)")
      kinds;
    Obs.Span.time sp_campaign @@ fun () ->
    let violations = ref [] in
    let crashes_injected = ref 0 in
    let stalls_injected = ref 0 in
    let respawns_total = ref 0 in
    let rounds_total = ref 0 in
    let total_ops = ref 0 in
    let elapsed = ref 0. in
    let hb_checked = ref 0 in
    let hb_skipped = ref 0 in
    let prop_tally = Hashtbl.create 8 in
    let violation i plan detail =
      Obs.Counter.incr m_violations;
      violations := { run = i; plan; detail } :: !violations
    in
    for i = 0 to runs - 1 do
      let rng = Random.State.make [| seed; i; 0xC4A05 |] in
      (* the supervisor owns respawning on this backend, so [Respawn_k]
         contributes no plan entry: crashes drive the kill, the
         supervisor the heal *)
      let plan =
        gen_plan ~rng ~n:P.n
          ~num_objects:(Array.length P.objects)
          (if recover then List.filter (fun k -> k <> Respawn_k) kinds
           else kinds)
      in
      let inputs =
        match inputs with
        | Some inputs -> inputs
        | None ->
          Array.init P.n (fun _ -> Random.State.int rng P.num_inputs)
      in
      let crash_at = crashes plan in
      let stalls = stalls plan in
      stalls_injected := !stalls_injected + List.length stalls;
      Obs.Counter.incr m_runs;
      if recover then begin
        (* supervised kill-and-heal: round 0 crashes per the plan, and
           every respawned incarnation is re-killed with probability 1/2
           at a small operation count, so a single campaign run exercises
           repeated crash-recovery cycles up to the breaker limit *)
        let crash_plan ~round ~pid =
          if round = 0 then (
            match List.assoc_opt pid crash_at with
            | Some t ->
              incr crashes_injected;
              Some t
            | None -> None)
          else if Random.State.bool rng then begin
            incr crashes_injected;
            Some (Random.State.int rng 32)
          end
          else None
        in
        let policy =
          { (Sup.default_policy ()) with
            max_respawns;
            round_deadline = Some deadline
          }
        in
        let report =
          Sup.supervise ~inputs ~seed:(seed + i) ~policy ?max_ops ~record
            ~crash_plan ~stalls ()
        in
        respawns_total :=
          !respawns_total + Array.fold_left ( + ) 0 report.Sup.respawns;
        rounds_total := !rounds_total + report.Sup.rounds;
        total_ops :=
          !total_ops + Array.fold_left ( + ) 0 report.Sup.outcome.Sup.R.ops;
        elapsed := !elapsed +. report.Sup.outcome.Sup.R.elapsed;
        (match Sup.check ~inputs report with
        | Ok () -> ()
        | Error detail -> violation i plan ("degraded: " ^ detail));
        (if record then
           match Sup.R.check_hb report.Sup.outcome with
           | Ok (c, s) ->
             hb_checked := !hb_checked + c;
             hb_skipped := !hb_skipped + s
           | Error detail ->
             violation i plan ("happens-before: " ^ detail));
        match Sup.check_props pack report with
        | None -> ()
        | Some (name, detail) ->
          Hashtbl.replace prop_tally name
            (1 + Option.value ~default:0 (Hashtbl.find_opt prop_tally name));
          violation i plan (Fmt.str "property %s: %s" name detail)
      end
      else begin
        crashes_injected := !crashes_injected + List.length crash_at;
        let outcome =
          R.run ~inputs ~seed:(seed + i) ?max_ops ~record ~crash_at ~stalls
            ~deadline ()
        in
        total_ops := !total_ops + Array.fold_left ( + ) 0 outcome.R.ops;
        elapsed := !elapsed +. outcome.R.elapsed;
        (match R.check ~inputs outcome with
        | Ok () -> ()
        | Error detail -> violation i plan detail);
        (* second detector: the vector-clock happens-before pass over the
           recorded histories — a crash/stall must never tear an atomic
           exchange, so any violation here is a runtime bug even when the
           degradation contract still holds *)
        (if record then
           match R.check_hb outcome with
           | Ok (c, s) ->
             hb_checked := !hb_checked + c;
             hb_skipped := !hb_skipped + s
           | Error detail ->
             violation i plan ("happens-before: " ^ detail));
        (* third detector: caller-supplied property oracles over the
           outcome (only benign faults run here, so any oracle failure is
           a bug) *)
        List.iter
          (fun (name, oracle) ->
            match oracle ~inputs outcome with
            | Ok () -> ()
            | Error detail ->
              Hashtbl.replace prop_tally name
                (1
                + Option.value ~default:0 (Hashtbl.find_opt prop_tally name));
              violation i plan (Fmt.str "property %s: %s" name detail))
          oracles
      end
    done;
    { runs;
      crashes_injected = !crashes_injected;
      stalls_injected = !stalls_injected;
      respawns = !respawns_total;
      rounds = !rounds_total;
      total_ops = !total_ops;
      elapsed = !elapsed;
      hb_checked = !hb_checked;
      hb_skipped = !hb_skipped;
      violations = List.rev !violations;
      prop_detections =
        List.sort compare
          (Hashtbl.fold (fun name c acc -> (name, c) :: acc) prop_tally [])
    }
end
