type violation = {
  property : string;
  detail : string;
  trace : Shmem.Trace.t;
}

type report = {
  configs_explored : int;
  violations : violation list;
  truncated : bool;
}

let ok r = r.violations = []

let pp_report ppf r =
  Fmt.pf ppf "@[<v>explored %d configurations%s: %s@,%a@]" r.configs_explored
    (if r.truncated then " (truncated)" else "")
    (if ok r then "no violations" else "VIOLATIONS FOUND")
    Fmt.(
      list ~sep:cut (fun ppf v ->
          Fmt.pf ppf "- %s: %s (schedule length %d)" v.property v.detail
            (Shmem.Trace.length v.trace)))
    r.violations

let combine r1 r2 =
  { configs_explored = r1.configs_explored + r2.configs_explored
  ; violations = r1.violations @ r2.violations
  ; truncated = r1.truncated || r2.truncated
  }

module Make (P : Shmem.Protocol.S) = struct
  module X = Explore.Make (P)
  module E = X.E
  module Pr = Prop.Make (P)

  (* A snapshot view of an engine configuration (shares the arrays:
     snapshots are read-only by convention). *)
  let snap (c : E.config) : Pr.snap = { Pr.states = c.E.states; mem = c.E.mem }

  (* The memoized solo oracle on a snapshot's arrays, without copying
     them back into a configuration. *)
  let solo_ok t ~pid (s : Pr.snap) =
    X.solo_ok_of t ~pid ~st:s.Pr.states.(pid) ~mem:s.Pr.mem

  (* The paper's three correctness properties as [Prop] declarations.  One
     solo-termination property per pid, evaluated in ascending pid order,
     reproduces the seed checker's one-violation-per-stuck-process
     reporting exactly. *)
  let builtin_props ~t ~inputs ~solo_cap ~check_solo =
    [ Pr.agreement; Pr.validity ~inputs ]
    @ (if check_solo then
         List.init P.n (fun pid ->
             Pr.solo_termination ~pid ~cap:solo_cap ~solo_ok:(solo_ok t) ())
       else [])

  let apply_select ?select props =
    match select with
    | None -> props
    | Some names -> (
      match Pr.select ~names props with
      | Ok ps -> ps
      | Error msg -> Fmt.invalid_arg "Checker: %s" msg)

  (* The generic "check these properties" driver of [explore]: invariants
     are evaluated at each visited configuration (in property order —
     violation lists stay chronological in discovery order); step relations
     and safety automata are driven by the traversal's [on_step] observer,
     with counterexample traces rebuilt by [trace_via].

     The observer runs on the edges the returned step guard lets through:
     the disjunction of the step relations' guards.  An unguarded relation
     or any automaton makes it [None], the constant [true], so the observer
     runs on every expanded edge.  A guard rules out only edges on which
     every relation returns [None], so the violations, their order and
     their traces are those of the unguarded run.

     Automaton markings are tracked per configuration id, seeded at the
     root and stored at each destination's first discovery — exact on the
     traversal tree, one-step checks on cross edges (an automaton property
     over a DAG is evaluated along the discovery tree plus each non-tree
     edge once). *)
  let prop_driver ~t ~props ~record =
    let cprops = List.filter Pr.has_config props in
    let sprops = List.filter Pr.has_step props in
    let aprops = List.filter Pr.has_auto props in
    (* a loop, not a closure per visit: a visit where every invariant
       holds allocates nothing here *)
    let rec check_all (v : X.visit) s = function
      | [] -> ()
      | p :: rest ->
        (match Pr.eval_config p s with
        | None -> ()
        | Some detail ->
          record { property = Pr.name p; detail; trace = Lazy.force v.X.path });
        check_all v s rest
    in
    let check_visit (v : X.visit) =
      match cprops with
      | [] -> ()
      | _ ->
        check_all v (snap v.X.config) cprops
    in
    let step_guard = match aprops with [] -> Pr.joint_guard sprops | _ -> None in
    let on_step =
      if sprops = [] && aprops = [] then None
      else begin
        let markings : (X.id, Pr.marking list) Hashtbl.t =
          Hashtbl.create 256
        in
        if aprops <> [] then begin
          let s0 = snap (X.config t (X.root t)) in
          let ms =
            List.map
              (fun p ->
                match Pr.init_marking p s0 with
                | Ok m -> m
                | Error detail ->
                  record { property = Pr.name p; detail; trace = [] };
                  Pr.no_marking)
              aprops
          in
          Hashtbl.replace markings (X.root t) ms
        end;
        Some
          (fun (o : X.step_obs) ->
            let before = snap o.X.before and after = snap o.X.after in
            let pid = o.X.step.Shmem.Trace.pid in
            List.iter
              (fun p ->
                match Pr.eval_step p ~before ~pid ~after with
                | None -> ()
                | Some detail ->
                  record
                    { property = Pr.name p
                    ; detail
                    ; trace = X.trace_via t o.X.src o.X.step
                    })
              sprops;
            match aprops with
            | [] -> ()
            | _ -> (
              match Hashtbl.find_opt markings o.X.src with
              | None -> ()
              | Some ms ->
                let ms' =
                  List.map2
                    (fun p m ->
                      match Pr.advance_marking p m ~before ~pid ~after with
                      | Ok m' -> m'
                      | Error detail ->
                        record
                          { property = Pr.name p
                          ; detail
                          ; trace = X.trace_via t o.X.src o.X.step
                          };
                        Pr.no_marking)
                    aprops ms
                in
                if o.X.fresh then Hashtbl.replace markings o.X.dst ms'))
      end
    in
    check_visit, on_step, step_guard

  let explore ?(max_configs = 200_000) ?(solo_cap = X.default_solo_cap)
      ?(check_solo = true) ?(prune = fun _ -> false) ?(sym = false)
      ?por:_ ?(extra_props = fun _ -> []) ?select ~inputs () =
    let t = X.create ~solo_cap ~sym ~inputs () in
    let props =
      apply_select ?select
        (builtin_props ~t ~inputs ~solo_cap ~check_solo @ extra_props t)
    in
    let violations = ref [] in
    let record v = violations := v :: !violations in
    let check_visit, on_step, step_guard = prop_driver ~t ~props ~record in
    let visit v =
      check_visit v;
      if prune v.X.config then X.Prune else X.Continue
    in
    let stats = X.bfs t ~max_configs ?on_step ?step_guard ~visit () in
    { configs_explored = stats.X.visited
    ; violations = List.rev !violations
    ; truncated = stats.X.truncated
    }

  let all_input_vectors () =
    let rec go i acc =
      if i >= P.n then [ Array.of_list (List.rev acc) ]
      else
        List.concat_map
          (fun input -> go (i + 1) (input :: acc))
          (List.init P.num_inputs Fun.id)
    in
    go 0 []

  let explore_all_inputs ?max_configs ?solo_cap ?check_solo ?prune
      ?(sym = false) ?extra_props ?select () =
    let vectors = all_input_vectors () in
    let vectors =
      (* for anonymous protocols under symmetry reduction, permuting the
         input vector permutes the whole reachable space: one initial
         configuration per input multiset (the nondecreasing vectors)
         suffices *)
      let anonymous =
        match P.symmetry with
        | Shmem.Protocol.Anonymous _ -> true
        | Shmem.Protocol.Asymmetric -> false
      in
      if sym && anonymous then
        List.filter
          (fun v ->
            let s = Array.copy v in
            Array.sort Stdlib.compare s;
            Array.for_all2 Int.equal s v)
          vectors
      else vectors
    in
    List.fold_left
      (fun acc inputs ->
        combine acc
          (explore ?max_configs ?solo_cap ?check_solo ?prune ~sym ?extra_props
             ?select ~inputs ()))
      { configs_explored = 0; violations = []; truncated = false }
      vectors

  (* Re-simulate a schedule (pids only — responses are recomputed), checking
     after every step whether [violates] holds; steps by already-decided
     processes are dropped. *)
  let schedule_violates ~inputs ~violates pids =
    let rec go c = function
      | [] -> false
      | pid :: rest ->
        if E.decision c pid <> None then go c rest
        else
          let c', _ = E.step c pid in
          violates c' || go c' rest
    in
    go (E.initial ~inputs) pids

  (* Greedy deletion to a fix-point: drop any pid whose removal keeps the
     schedule violating. *)
  let greedy_min ~violates pids =
    let pass pids =
      let rec go kept = function
        | [] -> List.rev kept
        | pid :: rest ->
          if violates (List.rev_append kept rest) then go kept rest
          else go (pid :: kept) rest
      in
      go [] pids
    in
    let rec fix pids =
      let pids' = pass pids in
      if List.length pids' < List.length pids then fix pids' else pids
    in
    fix pids

  (* Replay a pid schedule under a single property's full monitor
     (invariant + step relation + automaton), returning the trace up to and
     including the first violating step ([Some []] if the initial
     configuration already violates), or [None] if the schedule does not
     trip the property. *)
  let prop_violating_trace ~inputs q pids =
    let c0 = E.initial ~inputs in
    let r, v0 = Pr.start [ q ] (snap c0) in
    if Option.is_some v0 then Some []
    else
      let rec go c acc = function
        | [] -> None
        | pid :: rest ->
          if E.decision c pid <> None then go c acc rest
          else
            let c', s = E.step c pid in
            if
              Option.is_some
                (Pr.advance r ~before:(snap c) ~pid ~after:(snap c'))
            then Some (List.rev (s :: acc))
            else go c' (s :: acc) rest
      in
      go c0 [] pids

  let shrink_violation ?(solo_cap = X.default_solo_cap) ?(props = []) ~inputs
      v =
    let pids = List.map (fun s -> s.Shmem.Trace.pid) v.trace in
    match v.property with
    | "k-agreement" | "validity" | "solo-termination" ->
      let violates =
        match v.property with
        | "k-agreement" ->
          fun c -> Option.is_some (Pr.check_agreement ~bound:P.k c.E.states)
        | "validity" -> fun c -> Option.is_some (Pr.check_validity ~inputs c.E.states)
        | _ ->
          fun c ->
            List.exists
              (fun pid -> E.run_solo ~pid ~max_steps:solo_cap c = None)
              (E.undecided c)
      in
      if not (schedule_violates ~inputs ~violates pids) then
        invalid_arg "shrink_violation: schedule does not violate the property";
      let reduced =
        greedy_min ~violates:(schedule_violates ~inputs ~violates) pids
      in
      (* rebuild the trace with the responses of the reduced schedule,
         truncated at the first violating configuration *)
      let rec rebuild c acc = function
        | [] -> List.rev acc
        | pid :: rest ->
          if E.decision c pid <> None then rebuild c acc rest
          else
            let c', s = E.step c pid in
            if violates c' then List.rev (s :: acc)
            else rebuild c' (s :: acc) rest
      in
      { v with trace = rebuild (E.initial ~inputs) [] reduced }
    | pname -> (
      (* a declared property: the oracle is a full linear replay under its
         monitor, so step relations and automata shrink too *)
      match List.find_opt (fun q -> String.equal (Pr.name q) pname) props with
      | None -> Fmt.invalid_arg "shrink_violation: unknown property %s" pname
      | Some q ->
        let violates pids =
          Option.is_some (prop_violating_trace ~inputs q pids)
        in
        if not (violates pids) then
          invalid_arg
            "shrink_violation: schedule does not violate the property";
        let reduced = greedy_min ~violates pids in
        { v with
          trace = Option.get (prop_violating_trace ~inputs q reduced)
        })

  (* The sampling path's historical detail strings differ from the
     exhaustive path's; the frozen-seed differentials pin them, so
     [random_runs] declares its own [Prop] instances. *)
  let walk_props ~t ~inputs =
    let agreement =
      Pr.invariant ~name:"k-agreement"
        ~desc:(Fmt.str "at most %d distinct values are decided" P.k)
        (fun s ->
          let decided = Prop.decided_values P.decision s.Pr.states in
          if List.length decided <= P.k then None
          else
            Some
              (Fmt.str "values %a decided"
                 Fmt.(list ~sep:(any ",") int)
                 decided))
    in
    let validity =
      Pr.invariant ~name:"validity"
        ~desc:"every decided value is some process's input" (fun s ->
          if
            List.for_all
              (fun v -> Array.exists (Int.equal v) inputs)
              (Prop.decided_values P.decision s.Pr.states)
          then None
          else Some "decided value is no process's input")
    in
    let solo =
      List.init P.n (fun pid ->
          Pr.invariant ~name:"solo-termination"
            ~desc:
              (Fmt.str "p%d decides within %d solo steps when run alone" pid
                 X.default_solo_cap)
            (fun s ->
              if Option.is_some (P.decision s.Pr.states.(pid)) then None
              else if solo_ok t ~pid s then None
              else
                Some
                  (Fmt.str "p%d stuck after %d solo steps" pid
                     X.default_solo_cap)))
    in
    agreement, validity, solo

  let random_runs ?(seed = 0xC0FFEE) ?(max_steps = 100_000)
      ?(solo_check_every = 0) ?(extra_props = fun _ -> []) ~runs () =
    let rng = Random.State.make [| seed |] in
    let violations = ref [] in
    let total = ref 0 in
    for _ = 1 to runs do
      let inputs = Array.init P.n (fun _ -> Random.State.int rng P.num_inputs) in
      let t = X.create ~inputs () in
      let agreement, validity, solo = walk_props ~t ~inputs in
      (* extra declared properties ride along under the linear monitor *)
      let rev_steps = ref [] in
      let xrun =
        match extra_props t with
        | [] -> None
        | xprops ->
          let r, v0 = Pr.start xprops (snap (X.config t (X.root t))) in
          (match v0 with
          | Some (property, detail) ->
            violations := { property; detail; trace = [] } :: !violations
          | None -> ());
          Some r
      in
      let on_step =
        match xrun with
        | None -> None
        | Some r ->
          Some
            (fun (o : X.step_obs) ->
              rev_steps := o.X.step :: !rev_steps;
              match
                Pr.advance r ~before:(snap o.X.before)
                  ~pid:o.X.step.Shmem.Trace.pid ~after:(snap o.X.after)
              with
              | None -> ()
              | Some (property, detail) ->
                violations :=
                  { property; detail; trace = List.rev !rev_steps }
                  :: !violations)
      in
      let visit (v : X.visit) =
        incr total;
        let s = snap v.X.config in
        let record property detail =
          violations :=
            { property; detail; trace = Lazy.force v.X.path } :: !violations
        in
        let eval p =
          match Pr.eval_config p s with
          | Some detail -> record (Pr.name p) detail
          | None -> ()
        in
        eval agreement;
        eval validity;
        if solo_check_every > 0 && v.X.depth mod solo_check_every = 0 then
          List.iter eval solo;
        X.Continue
      in
      ignore (X.walk t ~sched:(E.random rng) ?on_step ~max_steps ~visit ())
    done;
    { configs_explored = !total
    ; violations = List.rev !violations
    ; truncated = false
    }
end
