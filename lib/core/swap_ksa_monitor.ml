(** Executable monitors for the invariants §4 proves about Algorithm 1.

    Each numbered statement of the paper is a {e declared property}
    ([Prop.Make(P).t]): the checker evaluates them incrementally during
    exhaustive exploration, and the fault injector uses them as detection
    oracles:

    - Observation 3 ([prop_lap_domination]): a process's local lap counter
      only grows (domination).
    - Observation 4 + line 16 ([prop_decide_lead]): on decision of [x], the
      deciding counter has [U.(x) >= 2] and leads every other component by
      at least 2.
    - Observation 1, externally visible form ([prop_max_lap_increment]):
      for each component [j], the maximum of [U.(j)] over all local lap
      counters and all object fields never increases by more than 1 in a
      single step (new laps are minted only by line 20, one at a time).
    - ⟨V,p⟩-totality, relaxed to domination ([prop_totality]; used by
      Observation 2 and Lemma 5): whenever every object holds the same
      ⟨V,p⟩ with a process id [p], [p]'s own lap counter dominates [V].
      (Exact equality — the [total] predicate — is {e not} invariant: [p]
      may advance its counter before re-installing; domination is, by
      Observation 3 plus the fact that only [p] installs ⟨·,p⟩.)
    - Lemma 8 ([prop_solo_bound]): from any reachable configuration, each
      undecided process decides within [8*(n-k)] solo steps. *)

exception Malformed of string

let fail fmt = Fmt.kstr (fun s -> raise (Malformed s)) fmt

module Make (P : Swap_ksa.S) = struct
  module E = Shmem.Exec.Make (P)
  module Pr = Prop.Make (P)

  (* the raw material of a configuration, decoupled from any particular
     execution engine: the fault-injection interpreter (lib/fault) steps its
     own [Exec.Make] instance — a distinct [config] type — but produces the
     same states and memory.  Identical to the property layer's snapshot
     type, so monitor snapshots feed [Prop] evaluation directly. *)
  type snapshot = Pr.snap = {
    states : P.state array;
    mem : Shmem.Value.t array;
  }

  let snap (c : E.config) = { states = c.E.states; mem = c.E.mem }

  let lap_of_value v =
    match v with
    | Shmem.Value.Pair (Shmem.Value.Ints u, _) -> u
    | _ -> fail "object holds malformed value %a" Shmem.Value.pp v

  (* componentwise max of U over all local lap counters and object fields *)
  let global_max_snap (s : snapshot) =
    let acc = Array.make P.num_inputs 0 in
    let absorb u = Array.iteri (fun j x -> acc.(j) <- max acc.(j) x) u in
    Array.iter (fun st -> absorb (P.laps st)) s.states;
    Array.iter (fun v -> absorb (lap_of_value v)) s.mem;
    acc

  (* Is [c] a ⟨V,p⟩-total configuration?  (every object holds ⟨V,p⟩ and p's
     local lap counter is V) *)
  let total (c : E.config) =
    match c.E.mem.(0) with
    | Shmem.Value.Pair (Shmem.Value.Ints v, Shmem.Value.Pid p) ->
      let all_equal =
        Array.for_all (Shmem.Value.equal c.E.mem.(0)) c.E.mem
      in
      if
        all_equal
        && Array.for_all2 Int.equal (P.laps c.E.states.(p)) v
      then Some (Array.copy v, p)
      else None
    | _ -> None

  (* The per-step checks, declaratively: [Some detail] = violated.
     Malformed object values (possible only under fault injection) surface
     as a violation of whichever check observes them.  Each declares a
     guard (see [Prop.Make.guard]) over the stepping process's state and
     the memory, which the explorer asks once per restriction step. *)

  (* Observation 3 reads only the stepping process's state, so whether
     the lap counter shrinks from state [sb] to [sa], on any memories, is
     both the check and its guard; componentwise via [laps_get], so the
     defensive copies of [P.laps] are avoided *)
  let laps_shrink sb _ sa _ =
    let rec grows j =
      j >= P.num_inputs || (P.laps_get sa j >= P.laps_get sb j && grows (j + 1))
    in
    not (grows 0)

  let check_obs3 ~before ~pid ~after =
    if laps_shrink before.states.(pid) before.mem after.states.(pid) after.mem
    then Some (Fmt.str "Observation 3 violated: p%d's lap counter shrank" pid)
    else None

  (* a step of process [pid] from state [sb] to [sa] that decides *)
  let decide_lead ~pid sb sa =
    match P.decision sa with
    | Some x when Option.is_none (P.decision sb) ->
      let ux = P.laps_get sa x in
      if ux < 2 then
        Some (Fmt.str "Observation 4 violated: p%d decided %d with lap %d" pid x ux)
      else
        let rec lead j =
          if j >= P.num_inputs then None
          else if j <> x && ux < P.laps_get sa j + 2 then
            Some
              (Fmt.str
                 "line 16 violated: p%d decided %d without a 2-lap lead over %d"
                 pid x j)
          else lead (j + 1)
        in
        lead 0
    | _ -> None

  let check_decide ~before ~pid ~after =
    decide_lead ~pid before.states.(pid) after.states.(pid)

  (* Observation 4 and line 16 read only the deciding process's state, and
     the pid only names it in the detail: their own guard *)
  let guard_decide sb _ sa _ = Option.is_some (decide_lead ~pid:0 sb sa)

  (* A step changes only [pid]'s local state and the object it operated
     on, and the other values contribute equally to both global maxima.
     So if, per component, the maximum over [pid]'s lap counter and the
     sites grows by at most 1, then gmax_after <= gmax_before + 1 and
     Observation 1 holds — no scan of the other processes' states.  Only a
     suspicious jump triggers the exact two-scan comparison; on
     Algorithm 1 there is none, since a merge (lines 11-12) copies laps
     the object held before the step and line 20 adds one lap.

     The test reads only [pid]'s state and the memory, so it is also the
     guard.  A malformed value makes a step suspicious, and the exact
     comparison reports it. *)
  let suspicious sb mem sa mem' =
    match
      let jump = ref false in
      for j = 0 to P.num_inputs - 1 do
        let top_b = ref (P.laps_get sb j) and top_a = ref (P.laps_get sa j) in
        for i = 0 to Array.length mem' - 1 do
          top_b := max !top_b (lap_of_value mem.(i)).(j);
          top_a := max !top_a (lap_of_value mem'.(i)).(j)
        done;
        if !top_a > !top_b + 1 then jump := true
      done;
      !jump
    with
    | r -> r
    | exception Malformed _ -> true

  let check_obs1 ~before ~pid ~after =
    if not (suspicious before.states.(pid) before.mem after.states.(pid) after.mem)
    then None
    else
      match
        let gmax_before = global_max_snap before
        and gmax_after = global_max_snap after in
        let rec jumped j =
          if j >= Array.length gmax_before then None
          else if gmax_after.(j) > gmax_before.(j) + 1 then
            Some
              (Fmt.str
                 "Observation 1 violated: global max of component %d jumped %d -> %d"
                 j gmax_before.(j) gmax_after.(j))
          else jumped (j + 1)
        in
        jumped 0
      with
      | r -> r
      | exception Malformed m -> Some m

  (* ------------------------------------------- the declared properties *)

  let prop_lap_domination =
    Pr.step_rel ~name:"lap-domination"
      ~desc:"Observation 3: a process's lap counter only grows"
      ~guard:laps_shrink check_obs3

  let prop_decide_lead =
    Pr.step_rel ~name:"decide-lead-by-2"
      ~desc:
        "Observation 4 + line 16: deciding x requires lap >= 2 on x and a \
         2-lap lead over every other component"
      ~guard:guard_decide check_decide

  let prop_max_lap_increment =
    Pr.step_rel ~name:"max-lap-increment"
      ~desc:
        "Observation 1: the global max of each lap component grows by at \
         most 1 per step"
      ~guard:suspicious check_obs1

  let prop_totality =
    Pr.invariant ~name:"total-config-domination"
      ~desc:
        "⟨V,p⟩-totality (Observation 2 / Lemma 5 premise): when every \
         object holds the same ⟨V,p⟩, p's lap counter dominates V"
      (fun s ->
        match s.mem.(0) with
        | Shmem.Value.Pair (Shmem.Value.Ints v, Shmem.Value.Pid p) as v0
          when p >= 0 && p < P.n ->
          (* a loop, not [Array.for_all] on a closure: this runs at every
             visited configuration *)
          let b = ref 1 in
          while !b < Array.length s.mem && Shmem.Value.equal v0 s.mem.(!b) do
            incr b
          done;
          if
            !b = Array.length s.mem
            && not (Swap_ksa.dominates (P.laps s.states.(p)) v)
          then
            Some
              (Fmt.str
                 "total configuration ⟨V,p%d⟩ but p%d's lap counter does \
                  not dominate V"
                 p p)
          else None
        | _ -> None)

  let solo_bound = Swap_ksa.solo_step_bound ~n:P.n ~k:P.k

  let default_solo_ok ~pid (s : snapshot) =
    match
      E.run_solo ~pid ~max_steps:solo_bound
        (E.unsafe_config ~states:s.states ~mem:s.mem)
    with
    | Some _ -> true
    | None -> false

  let prop_solo_bound ?(solo_ok = default_solo_ok) () =
    Pr.invariant ~name:"solo-bound"
      ~desc:
        (Fmt.str
           "Lemma 8: every undecided process decides within %d solo steps"
           solo_bound)
      (fun s ->
        let states = s.Pr.states and p = ref 0 in
        while
          !p < Array.length states
          && (Option.is_some (P.decision states.(!p)) || solo_ok ~pid:!p s)
        do
          incr p
        done;
        if !p = Array.length states then None
        else
          Some
            (Fmt.str "Lemma 8 violated: p%d did not decide within %d solo steps"
               !p solo_bound))

  let step_props =
    [ prop_lap_domination; prop_decide_lead; prop_max_lap_increment ]

  let online_props = step_props @ [ prop_totality ]

  let props ?solo_ok () = online_props @ [ prop_solo_bound ?solo_ok () ]
end
