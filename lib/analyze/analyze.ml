module Sh = Shmem

(* ---------------------------------------------------------------- reports *)

type status = Pass | Fail of string list | Skipped of string

type check = { id : string; title : string; status : status }

type report = {
  protocol : string;
  n : int;
  k : int;
  m : int;
  configs : int;
  exhaustive : bool;
  declared_historyless : bool;
  declared_swap_only : bool;
  derived_historyless : bool;
  derived_swap_only : bool;
  solo_measured_max : int;
  solo_checked : int;
  solo_bound : int option;
  checks : check list;
}

let ok r =
  List.for_all
    (fun c -> match c.status with Fail _ -> false | Pass | Skipped _ -> true)
    r.checks

let pp_status ppf = function
  | Pass -> Fmt.string ppf "pass"
  | Skipped why -> Fmt.pf ppf "skipped (%s)" why
  | Fail details ->
    Fmt.pf ppf "FAIL@,%a"
      Fmt.(list ~sep:cut (fun ppf d -> Fmt.pf ppf "    %s" d))
      details

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%s (n=%d k=%d m=%d): %s, %d configurations%s@,\
     flags: historyless declared=%b derived=%b, swap-only declared=%b \
     derived=%b@,\
     solo: measured max %d over %d runs%a@,%a@]"
    r.protocol r.n r.k r.m
    (if ok r then "ok" else "ANALYSIS FAILED")
    r.configs
    (if r.exhaustive then " (exhaustive)" else " (bounded)")
    r.declared_historyless r.derived_historyless r.declared_swap_only
    r.derived_swap_only r.solo_measured_max r.solo_checked
    Fmt.(option (fun ppf b -> Fmt.pf ppf ", declared bound %d" b))
    r.solo_bound
    Fmt.(
      list ~sep:cut (fun ppf c ->
          Fmt.pf ppf "  %-18s %a" c.id pp_status c.status))
    r.checks

let report_to_json r =
  let open Obs.Json in
  let status_json = function
    | Pass -> Obj [ "status", Str "pass" ]
    | Skipped why -> Obj [ "status", Str "skipped"; "why", Str why ]
    | Fail details ->
      Obj
        [ "status", Str "fail"
        ; "details", Arr (List.map (fun d -> Str d) details)
        ]
  in
  Obj
    [ "protocol", Str r.protocol
    ; "n", Num (float_of_int r.n)
    ; "k", Num (float_of_int r.k)
    ; "m", Num (float_of_int r.m)
    ; "ok", Bool (ok r)
    ; "configs", Num (float_of_int r.configs)
    ; "exhaustive", Bool r.exhaustive
    ; ( "declared",
        Obj
          [ "historyless", Bool r.declared_historyless
          ; "swap_only", Bool r.declared_swap_only
          ] )
    ; ( "derived",
        Obj
          [ "historyless", Bool r.derived_historyless
          ; "swap_only", Bool r.derived_swap_only
          ] )
    ; ( "solo",
        Obj
          [ "measured_max", Num (float_of_int r.solo_measured_max)
          ; "checked", Num (float_of_int r.solo_checked)
          ; ( "bound",
              match r.solo_bound with
              | None -> Null
              | Some b -> Num (float_of_int b) )
          ] )
    ; ( "checks",
        Arr
          (List.map
             (fun c ->
               match status_json c.status with
               | Obj fields -> Obj (("id", Str c.id) :: fields)
               | j -> j)
             r.checks) )
    ]

(* Failure accumulator: keeps the first few details and counts the rest, so
   a lint that fires at every configuration stays readable. *)
module Acc = struct
  type t = {
    mutable details : string list;  (* reversed *)
    mutable kept : int;
    mutable dropped : int;
    cap : int;
  }

  let create ?(cap = 5) () = { details = []; kept = 0; dropped = 0; cap }

  let add t detail =
    if t.kept < t.cap then begin
      t.details <- detail :: t.details;
      t.kept <- t.kept + 1
    end
    else t.dropped <- t.dropped + 1

  let is_empty t = t.kept = 0

  let status t =
    if is_empty t then Pass
    else
      Fail
        (List.rev
           (if t.dropped > 0 then
              Fmt.str "... and %d more" t.dropped :: t.details
            else t.details))
end

(* ------------------------------------------------------- static analysis *)

let m_runs = Obs.counter "analyze.runs"
let m_configs = Obs.counter "analyze.configs"
let m_solo_runs = Obs.counter "analyze.solo_runs"
let sp_run = Obs.span "analyze.run"

module Make (P : Sh.Protocol.S) = struct
  module X = Explore.Make (P)
  module E = X.E
  module Pr = Prop.Make (P)

  (* how many configurations get the (3x cost) double-step determinism
     probe, and how many states enter the O(s^2) hash-coherence pool *)
  let determinism_sample = 4_096
  let hash_pool_size = 256

  (* how many reachable states get the symmetry-hook coherence probe, and
     how many configurations get the property-equivariance probe *)
  let canon_sample = 2_048
  let prop_sample = 512

  let run ?(max_configs = 20_000) ?inputs ?solo_bound
      ?(prune = fun _ -> false) ?(sym = false) ?(props = []) () =
    Obs.Span.time sp_run @@ fun () ->
    Obs.Counter.incr m_runs;
    let inputs =
      match inputs with
      | Some i -> i
      | None -> Array.init P.n (fun i -> i mod P.num_inputs)
    in
    let solo_cap =
      match solo_bound with
      | None -> X.default_solo_cap
      | Some b -> max X.default_solo_cap (2 * b)
    in
    let wellformed = Acc.create () in
    (match Sh.Protocol.validate (module P : Sh.Protocol.S) with
    | () -> ()
    | exception Invalid_argument msg -> Acc.add wellformed msg);
    let symfns =
      match P.symmetry with
      | Sh.Protocol.Anonymous { canon_key; rename } -> Some (canon_key, rename)
      | Sh.Protocol.Asymmetric -> None
    in
    let canon = Acc.create () in
    let canon_probes = ref 0 in
    let prop_equiv = Acc.create () in
    let prop_probes = ref 0 in
    let conformance = Acc.create () in
    let derivation = Acc.create () in
    let determinism = Acc.create () in
    let hash_coherence = Acc.create () in
    let decision_range = Acc.create () in
    let coverage = Acc.create () in
    let solo = Acc.create () in
    let saw_cas = ref false in
    let saw_non_swap = ref false in
    let solo_max = ref 0 in
    let solo_checked = ref 0 in
    let pruned = ref false in
    let det_probes = ref 0 in
    let pool = ref [] in
    let pool_len = ref 0 in
    let num_objects = Array.length P.objects in
    let t = X.create ~solo_cap ~sym ~inputs () in
    let nonconforming = ref false in
    let visit (v : X.visit) =
      Obs.Counter.incr m_configs;
      let c = v.X.config in
      (* decision range: every decided value must lie in 0 .. m-1 *)
      for pid = 0 to P.n - 1 do
        match E.decision c pid with
        | Some d when d < 0 || d >= P.num_inputs ->
          Acc.add decision_range
            (Fmt.str "p%d decided %d outside 0..%d" pid d (P.num_inputs - 1))
        | _ -> ()
      done;
      (* a configuration with an illegal poised operation must not be
         expanded or probed — the executor would (rightly) raise
         [Illegal_operation]; the analysis reports instead of crashing *)
      let config_conforms = ref true in
      List.iter
        (fun pid ->
          let op = E.poised c pid in
          (* op-conformance: object in range, action legal for the kind
             (including the domain check on stored values) *)
          let legal =
            if op.Sh.Op.obj < 0 || op.Sh.Op.obj >= num_objects then begin
              Acc.add conformance
                (Fmt.str "p%d poised on out-of-range object: %a" pid
                   Sh.Op.pp op);
              false
            end
            else begin
              let kind = P.objects.(op.Sh.Op.obj) in
              if not (Sh.Obj_kind.supports kind op.Sh.Op.action) then begin
                Acc.add conformance
                  (Fmt.str "p%d poised to apply %a, but B%d is a %a" pid
                     Sh.Op.pp op op.Sh.Op.obj Sh.Obj_kind.pp kind);
                false
              end
              else true
            end
          in
          if not legal then config_conforms := false;
          if not (Sh.Op.is_historyless op) then saw_cas := true;
          if not (Sh.Op.is_swap_action op.Sh.Op.action) then
            saw_non_swap := true;
          (* solo-bound: the memoized oracle measures the solo execution of
             [pid] from here; the declared bound gates the measurement *)
          if legal then begin
            incr solo_checked;
            Obs.Counter.incr m_solo_runs;
            (match X.solo_steps t ~pid c with
            | None ->
              Acc.add solo
                (Fmt.str "p%d does not decide within %d solo steps" pid
                   solo_cap)
            | Some steps ->
              if steps > !solo_max then solo_max := steps;
              (match solo_bound with
              | Some bound when steps > bound ->
                Acc.add solo
                  (Fmt.str
                     "p%d needs %d solo steps from a reachable \
                      configuration (declared bound %d)"
                     pid steps bound)
              | _ -> ()));
            (* determinism: two steps of the same process from the same
               configuration must coincide exactly *)
            if !det_probes < determinism_sample then begin
              incr det_probes;
              let c1, s1 = E.step c pid in
              let c2, s2 = E.step c pid in
              if
                not
                  (Sh.Op.equal s1.Sh.Trace.op s2.Sh.Trace.op
                  && Sh.Value.equal s1.Sh.Trace.resp s2.Sh.Trace.resp
                  && E.equal_config c1 c2)
              then
                Acc.add determinism
                  (Fmt.str
                     "p%d steps differently on replay: %a -> %a vs %a -> %a"
                     pid Sh.Op.pp s1.Sh.Trace.op Sh.Value.pp s1.Sh.Trace.resp
                     Sh.Op.pp s2.Sh.Trace.op Sh.Value.pp s2.Sh.Trace.resp)
            end;
            (* canon-coherence: the symmetry hooks must behave as a group
               action on REACHABLE states, not just the initial ones
               [Protocol.validate] covers — rename invertible and
               key/decision-invariant, and commuting with the step
               function (the property that licenses interning canonical
               representatives) *)
            (match symfns with
            | Some (canon_key, rename) when !canon_probes < canon_sample ->
              incr canon_probes;
              let s = c.E.states.(pid) in
              let rot p = (p + 1) mod P.n in
              let unrot p = (p + P.n - 1) mod P.n in
              if not (P.equal_state (rename Fun.id s) s) then
                Acc.add canon "rename by the identity changes a state";
              let s' = rename rot s in
              if not (P.equal_state (rename unrot s') s) then
                Acc.add canon
                  "rename by a rotation is not undone by its inverse";
              if P.hash_state (rename unrot s') <> P.hash_state s then
                Acc.add canon "equal states hash apart after rename";
              if canon_key s' <> canon_key s then
                Acc.add canon
                  "canon_key is not renaming-invariant on a reachable state";
              if not (Option.equal Int.equal (P.decision s') (P.decision s))
              then Acc.add canon "rename changes a decision";
              (match P.decision s with
              | Some _ -> ()
              | None ->
                let op = P.poised s in
                if not (Sh.Op.equal (P.poised s') (Sh.Op.rename rot op)) then
                  Acc.add canon
                    "poised does not commute with rename on a reachable \
                     state";
                let _, st = E.step c pid in
                let resp = st.Sh.Trace.resp in
                let lhs = rename rot (P.on_response s resp) in
                let rhs = P.on_response s' (Sh.Value.rename rot resp) in
                if not (P.equal_state lhs rhs) then
                  Acc.add canon
                    (Fmt.str
                       "on_response does not commute with rename (p%d): %a \
                        vs %a"
                       pid P.pp_state lhs P.pp_state rhs)
                else if P.hash_state lhs <> P.hash_state rhs then
                  Acc.add canon
                    "renamed on_response results are equal but hash apart")
            | _ -> ())
          end;
          (* hash hygiene, cheap half: both functions self-consistent *)
          let s = c.E.states.(pid) in
          if not (P.equal_state s s) then
            Acc.add hash_coherence "equal_state is not reflexive";
          if P.hash_state s <> P.hash_state s then
            Acc.add hash_coherence "hash_state is not deterministic";
          if !pool_len < hash_pool_size then begin
            pool := s :: !pool;
            incr pool_len
          end)
        (E.undecided c);
      (* prop-equivariance: the verdict of every supplied declared property
         must be invariant under process renaming — the property that makes
         checking properties over the symmetry-reduced quotient graph sound
         (one representative per orbit stands for the whole orbit only if
         no property can tell orbit members apart).  Verdicts (violated or
         not) are compared, not details, which legitimately mention pids. *)
      (match symfns with
      | Some (_, rename)
        when props <> [] && !config_conforms
             && !prop_probes < prop_sample ->
        incr prop_probes;
        let rot p = (p + 1) mod P.n in
        let snap_of (cfg : E.config) =
          { Pr.states = cfg.E.states; mem = cfg.E.mem }
        in
        let rename_snap (s : Pr.snap) =
          let states = Array.make P.n s.Pr.states.(0) in
          Array.iteri
            (fun i st -> states.(rot i) <- rename rot st)
            s.Pr.states;
          { Pr.states; mem = Array.map (Sh.Value.rename rot) s.Pr.mem }
        in
        let s0 = snap_of c in
        let s0' = rename_snap s0 in
        List.iter
          (fun p ->
            if Pr.has_config p then
              let v = Option.is_some (Pr.eval_config p s0) in
              let v' = Option.is_some (Pr.eval_config p s0') in
              if v <> v' then
                Acc.add prop_equiv
                  (Fmt.str
                     "property %s: configuration verdict changes under \
                      renaming"
                     (Pr.name p)))
          props;
        (match E.undecided c with
        | [] -> ()
        | pid :: _ ->
          let c', _ = E.step c pid in
          let s1 = snap_of c' in
          let s1' = rename_snap s1 in
          List.iter
            (fun p ->
              if Pr.has_step p then
                let v =
                  Option.is_some (Pr.eval_step p ~before:s0 ~pid ~after:s1)
                in
                let v' =
                  Option.is_some
                    (Pr.eval_step p ~before:s0' ~pid:(rot pid) ~after:s1')
                in
                if v <> v' then
                  Acc.add prop_equiv
                    (Fmt.str
                       "property %s: step verdict changes under renaming"
                       (Pr.name p)))
            props)
      | _ -> ());
      if not !config_conforms then begin
        nonconforming := true;
        X.Prune
      end
      else if prune c.E.mem then begin
        pruned := true;
        X.Prune
      end
      else X.Continue
    in
    let stats = X.bfs t ~max_configs ~visit () in
    (* hash hygiene, quadratic half over the sampled pool: equal states must
       hash equally *)
    let pool = Array.of_list !pool in
    (try
       for i = 0 to Array.length pool - 1 do
         for j = i + 1 to Array.length pool - 1 do
           if
             P.equal_state pool.(i) pool.(j)
             && P.hash_state pool.(i) <> P.hash_state pool.(j)
           then begin
             Acc.add hash_coherence
               (Fmt.str "equal states hash to %d and %d"
                  (P.hash_state pool.(i))
                  (P.hash_state pool.(j)));
             raise Exit
           end
         done
       done
     with Exit -> ());
    let exhaustive =
      not (stats.X.truncated || !pruned || !nonconforming || stats.X.stopped)
    in
    (* flag derivation: reachable-op truth vs the hand-written kind-based
       predicates.  The unsound-direction divergence (declared historyless
       yet a CAS is reachable) fails regardless; the over-conservative
       direction (declared CAS-ful yet none reachable) is only a proof when
       the exploration was exhaustive. *)
    let declared_historyless =
      Sh.Protocol.uses_only_historyless (module P : Sh.Protocol.S)
    in
    let declared_swap_only =
      Sh.Protocol.uses_only_swap (module P : Sh.Protocol.S)
    in
    let derived_historyless = not !saw_cas in
    let derived_swap_only = not !saw_non_swap in
    if declared_historyless && not derived_historyless then
      Acc.add derivation
        "a Cas is reachable although every object kind claims historyless";
    if declared_swap_only && not derived_swap_only then
      Acc.add derivation
        "a non-Swap operation is reachable although the declared model is \
         swap-only";
    if exhaustive then begin
      if derived_historyless && not declared_historyless then
        Acc.add derivation
          "no Cas is reachable (exhaustive) yet an object kind declares \
           Compare_and_swap: the historyless flag under-claims";
      if derived_swap_only && not declared_swap_only then
        Acc.add derivation
          "only Swap operations are reachable (exhaustive) yet the object \
           kinds are not all Swap_only: the swap-only flag under-claims"
    end;
    (* decision coverage: from the all-v input vector, the solo execution
       of p0 must decide exactly v — every decision value is reachable and
       solo validity holds *)
    for v = 0 to P.num_inputs - 1 do
      let c0 = E.initial ~inputs:(Array.make P.n v) in
      match E.run_solo ~pid:0 ~max_steps:solo_cap c0 with
      | None ->
        Acc.add coverage
          (Fmt.str "all-%d inputs: p0 does not decide solo within %d steps"
             v solo_cap)
      | Some (c, _) -> (
        match E.decision c 0 with
        | Some d when d = v -> ()
        | Some d ->
          Acc.add coverage
            (Fmt.str "all-%d inputs: p0 decides %d solo (validity)" v d)
        | None -> assert false)
      | exception Sh.Obj_kind.Illegal_operation msg ->
        Acc.add coverage
          (Fmt.str "all-%d inputs: illegal operation solo (%s)" v msg)
    done;
    { protocol = P.name
    ; n = P.n
    ; k = P.k
    ; m = P.num_inputs
    ; configs = stats.X.visited
    ; exhaustive
    ; declared_historyless
    ; declared_swap_only
    ; derived_historyless
    ; derived_swap_only
    ; solo_measured_max = !solo_max
    ; solo_checked = !solo_checked
    ; solo_bound
    ; checks =
        [ { id = "well-formedness"
          ; title = "parameters and initial values in range"
          ; status = Acc.status wellformed
          }
        ; { id = "op-conformance"
          ; title = "every reachable operation legal for its object kind"
          ; status = Acc.status conformance
          }
        ; { id = "flag-derivation"
          ; title = "derived historyless/swap-only flags match declarations"
          ; status = Acc.status derivation
          }
        ; { id = "determinism"
          ; title = "steps replay identically"
          ; status = Acc.status determinism
          }
        ; { id = "hash-coherence"
          ; title = "equal_state/hash_state agree on sampled states"
          ; status = Acc.status hash_coherence
          }
        ; { id = "canon-coherence"
          ; title = "symmetry hooks form a group action on reachable states"
          ; status =
              (match symfns with
              | None -> Skipped "protocol declares Asymmetric"
              | Some _ -> Acc.status canon)
          }
        ; { id = "prop-equivariance"
          ; title = "declared properties invariant under process renaming"
          ; status =
              (match symfns with
              | None -> Skipped "protocol declares Asymmetric"
              | Some _ ->
                if props = [] then Skipped "no declared properties supplied"
                else Acc.status prop_equiv)
          }
        ; { id = "decision-range"
          ; title = "decisions lie in 0..m-1"
          ; status = Acc.status decision_range
          }
        ; { id = "decision-coverage"
          ; title = "every value decided solo from its all-v inputs"
          ; status = Acc.status coverage
          }
        ; { id = "solo-bound"
          ; title = "solo executions terminate within the declared bound"
          ; status = Acc.status solo
          }
        ]
    }
end

let run_protocol ?max_configs ?inputs ?solo_bound ?prune ?sym ?props p =
  match props with
  | Some pack ->
    (* analyze the pack's own protocol module, so the packed properties
       type-check against the analyzer's instantiation; callers (the
       registry) pack the very module [p] wraps, making the two the same
       protocol *)
    let (module Pk : Prop.PACK) = pack in
    let module A = Make (Pk.P) in
    A.run ?max_configs ?inputs ?solo_bound ?prune ?sym ~props:Pk.props ()
  | None ->
    let (module P : Sh.Protocol.S) = p in
    let module A = Make (P) in
    A.run ?max_configs ?inputs ?solo_bound ?prune ?sym ()

(* -------------------------------------------------- space certification *)

let m_space_runs = Obs.counter "analyze.space.runs"
let m_space_configs = Obs.counter "analyze.space.configs"
let sp_space = Obs.span "analyze.space"

module Space = struct
  type kind_usage = { kind : string; total : int; touched : int }

  type bracket = { theorem_bound : int; forced : int }

  type report = {
    protocol : string;
    n : int;
    k : int;
    total_objects : int;
    declared : int;
    measured : int;
    witness : int;
    per_kind : kind_usage list;
    configs : int;
    exhaustive : bool;
    bracket : bracket option;
    checks : check list;
  }

  let ok r =
    List.for_all
      (fun c ->
        match c.status with Fail _ -> false | Pass | Skipped _ -> true)
      r.checks

  let pp_report ppf r =
    Fmt.pf ppf
      "@[<v>%s (n=%d k=%d): %s, %d configurations%s@,\
       space: declared %d, measured %d of %d objects, witness execution \
       touches %d%a@,\
       per kind: %a@,%a@]"
      r.protocol r.n r.k
      (if ok r then "ok" else "SPACE CERTIFICATION FAILED")
      r.configs
      (if r.exhaustive then " (exhaustive)" else " (bounded)")
      r.declared r.measured r.total_objects r.witness
      Fmt.(
        option (fun ppf b ->
            Fmt.pf ppf "@,bracket: theorem bound %d, adversary forced %d"
              b.theorem_bound b.forced))
      r.bracket
      Fmt.(
        list ~sep:comma (fun ppf u ->
            Fmt.pf ppf "%s %d/%d" u.kind u.touched u.total))
      r.per_kind
      Fmt.(
        list ~sep:cut (fun ppf c ->
            Fmt.pf ppf "  %-18s %a" c.id pp_status c.status))
      r.checks

  let report_to_json r =
    let open Obs.Json in
    let status_json = function
      | Pass -> Obj [ "status", Str "pass" ]
      | Skipped why -> Obj [ "status", Str "skipped"; "why", Str why ]
      | Fail details ->
        Obj
          [ "status", Str "fail"
          ; "details", Arr (List.map (fun d -> Str d) details)
          ]
    in
    Obj
      [ "protocol", Str r.protocol
      ; "n", Num (float_of_int r.n)
      ; "k", Num (float_of_int r.k)
      ; "ok", Bool (ok r)
      ; "configs", Num (float_of_int r.configs)
      ; "exhaustive", Bool r.exhaustive
      ; ( "space",
          Obj
            [ "declared", Num (float_of_int r.declared)
            ; "measured", Num (float_of_int r.measured)
            ; "witness", Num (float_of_int r.witness)
            ; "total_objects", Num (float_of_int r.total_objects)
            ] )
      ; ( "per_kind",
          Arr
            (List.map
               (fun u ->
                 Obj
                   [ "kind", Str u.kind
                   ; "touched", Num (float_of_int u.touched)
                   ; "total", Num (float_of_int u.total)
                   ])
               r.per_kind) )
      ; ( "bracket",
          match r.bracket with
          | None -> Null
          | Some b ->
            Obj
              [ "theorem_bound", Num (float_of_int b.theorem_bound)
              ; "forced", Num (float_of_int b.forced)
              ] )
      ; ( "checks",
          Arr
            (List.map
               (fun c ->
                 match status_json c.status with
                 | Obj fields -> Obj (("id", Str c.id) :: fields)
                 | j -> j)
               r.checks) )
      ]

  (* Bytes-backed bitsets for per-configuration access masks: the
     binary-track instances carry [2 * cap] objects, more than an int's
     worth of bits. *)
  module Bits = struct
    let create num = Bytes.make ((num + 7) lsr 3) '\000'

    let set b i =
      let j = i lsr 3 in
      Bytes.set b j
        (Char.chr (Char.code (Bytes.get b j) lor (1 lsl (i land 7))))

    let mem b i =
      Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

    let with_bit b i =
      if mem b i then b
      else begin
        let c = Bytes.copy b in
        set c i;
        c
      end

    let popcount b =
      let n = ref 0 in
      Bytes.iter
        (fun ch ->
          let c = ref (Char.code ch) in
          while !c <> 0 do
            incr n;
            c := !c land (!c - 1)
          done)
        b;
      !n
  end

  module Make (P : Sh.Protocol.S) = struct
    module X = Explore.Make (P)
    module E = X.E
    module T10 = Lowerbound.Theorem10.Make (P)

    let run ?(max_configs = 20_000) ?inputs ?(prune = fun _ -> false)
        ?(sym = true) ?(certificate = true)
        ?(search_rounds = 200) () =
      Obs.Span.time sp_space @@ fun () ->
      Obs.Counter.incr m_space_runs;
      let inputs =
        match inputs with
        | Some i -> i
        | None -> Array.init P.n (fun i -> i mod P.num_inputs)
      in
      let num_objects = Array.length P.objects in
      let declared = P.space_bound ~n:P.n ~k:P.k in
      (* [touched] is the union of poised-operation targets over every
         visited configuration.  A poised operation executes in some
         execution (schedule its process next), so on the explored region
         this is exactly the set of objects accessed across all executions
         — and it is renaming-invariant ([Op.rename] never moves the
         target index), so measuring on the symmetry quotient equals
         measuring concretely. *)
      let touched = Bits.create (max 1 num_objects) in
      (* per-configuration discovery masks: mask(dst) = mask(src) + the
         stepped object, so popcount(mask) is the number of distinct
         objects one concrete execution (the discovery schedule,
         [X.trace_to]) accesses — the constructive witness half of the
         measurement. *)
      let masks = ref (Array.make 1024 Bytes.empty) in
      let ensure id =
        let len = Array.length !masks in
        if id >= len then begin
          let bigger =
            Array.make (max (2 * len) (id + 1)) Bytes.empty
          in
          Array.blit !masks 0 bigger 0 len;
          masks := bigger
        end
      in
      let witness = ref 0 in
      let conformance = Acc.create () in
      let nonconforming = ref false in
      let pruned = ref false in
      let t = X.create ~sym ~inputs () in
      ensure (X.root t);
      (!masks).(X.root t) <- Bits.create (max 1 num_objects);
      let on_step (s : X.step_obs) =
        let obj = s.X.step.Sh.Trace.op.Sh.Op.obj in
        let m = Bits.with_bit (!masks).(s.X.src) obj in
        let pc = Bits.popcount m in
        if pc > !witness then witness := pc;
        if s.X.fresh then begin
          ensure s.X.dst;
          (!masks).(s.X.dst) <- m
        end
      in
      let visit (v : X.visit) =
        Obs.Counter.incr m_space_configs;
        let c = v.X.config in
        let conforms = ref true in
        List.iter
          (fun pid ->
            let op = E.poised c pid in
            if op.Sh.Op.obj < 0 || op.Sh.Op.obj >= num_objects then begin
              Acc.add conformance
                (Fmt.str "p%d poised on out-of-range object: %a" pid
                   Sh.Op.pp op);
              conforms := false
            end
            else begin
              if
                not
                  (Sh.Obj_kind.supports
                     P.objects.(op.Sh.Op.obj)
                     op.Sh.Op.action)
              then begin
                Acc.add conformance
                  (Fmt.str "p%d poised to apply %a, but B%d is a %a" pid
                     Sh.Op.pp op op.Sh.Op.obj Sh.Obj_kind.pp
                     P.objects.(op.Sh.Op.obj));
                conforms := false
              end;
              Bits.set touched op.Sh.Op.obj
            end)
          (E.undecided c);
        if not !conforms then begin
          nonconforming := true;
          X.Prune
        end
        else if prune c.E.mem then begin
          pruned := true;
          X.Prune
        end
        else X.Continue
      in
      let stats = X.bfs t ~max_configs ~on_step ~visit () in
      let exhaustive =
        not
          (stats.X.truncated || !pruned || !nonconforming || stats.X.stopped)
      in
      let measured = Bits.popcount touched in
      let per_kind =
        let tbl = Hashtbl.create 4 in
        let order = ref [] in
        Array.iteri
          (fun i kind ->
            let key = Fmt.str "%a" Sh.Obj_kind.pp kind in
            let total, hit =
              match Hashtbl.find_opt tbl key with
              | Some th -> th
              | None ->
                order := key :: !order;
                0, 0
            in
            Hashtbl.replace tbl key
              (total + 1, hit + if Bits.mem touched i then 1 else 0))
          P.objects;
        List.rev_map
          (fun key ->
            let total, hit = Hashtbl.find tbl key in
            { kind = key; total; touched = hit })
          !order
      in
      (* under-claim (fatal): the measured access set exceeds the declared
         family bound — some execution of this very instance touches more
         objects than the declaration admits *)
      let under = Acc.create () in
      if measured > declared then
        Acc.add under
          (Fmt.str
             "executions access %d distinct objects; the declared bound \
              admits %d%s"
             measured declared
             (if !witness > declared then
                Fmt.str " (a single explored execution touches %d)" !witness
              else ""));
      (* over-claim: the declaration exceeds even the union across all
         executions.  Like the historyless flag derivation, this is only a
         finding when the exploration closed the graph — on a bounded
         region the unreached objects may simply be further out. *)
      let tightness =
        if measured >= declared then Pass
        else if exhaustive then
          Fail
            [ Fmt.str
                "declared bound %d, but the closed reachable graph \
                 accesses only %d objects: the declaration over-claims"
                declared measured
            ]
        else Skipped "exploration bounded; tightness not assessable"
      in
      (* bracket against the Theorem 10 adversary: the forced lower bound
         and the measured upper bound must enclose each other, and the
         declaration must respect the theorem *)
      let bracket, bracket_status =
        if not certificate then None, Skipped "certificate not requested"
        else if not (Sh.Protocol.uses_only_swap (module P : Sh.Protocol.S))
        then None, Skipped "protocol is not swap-only (Theorem 10 model)"
        else if P.num_inputs < P.k + 1 then
          None,
            Skipped
              (Fmt.str
                 "Theorem 10 needs k+1 = %d input values, protocol has %d"
                 (P.k + 1) P.num_inputs)
        else begin
          match T10.run ~search_rounds () with
          | cert ->
            let forced = T10.forced cert in
            let acc = Acc.create () in
            if declared < cert.T10.bound then
              Acc.add acc
                (Fmt.str
                   "declared space %d is below the Theorem 10 bound %d — \
                    no correct algorithm fits the declaration"
                   declared cert.T10.bound);
            if forced < cert.T10.bound then
              Acc.add acc
                (Fmt.str
                   "adversary forced only %d objects, below the promised \
                    %d"
                   forced cert.T10.bound);
            if forced > measured then
              Acc.add acc
                (Fmt.str
                   "adversary forced %d objects but the certifier \
                    measured only %d — the bracket is inverted"
                   forced measured);
            ( Some { theorem_bound = cert.T10.bound; forced },
              Acc.status acc )
          | exception Lowerbound.Lemma9.Hypothesis_violated msg ->
            None, Skipped (Fmt.str "Lemma 9 hypothesis violated: %s" msg)
        end
      in
      { protocol = P.name
      ; n = P.n
      ; k = P.k
      ; total_objects = num_objects
      ; declared
      ; measured
      ; witness = !witness
      ; per_kind
      ; configs = stats.X.visited
      ; exhaustive
      ; bracket
      ; checks =
          [ { id = "op-conformance"
            ; title = "every reachable operation legal for its object kind"
            ; status = Acc.status conformance
            }
          ; { id = "space-under-claim"
            ; title = "measured object usage within the declared bound"
            ; status = Acc.status under
            }
          ; { id = "space-tightness"
            ; title = "declared bound reached by the measured usage"
            ; status = tightness
            }
          ; { id = "lb-bracket"
            ; title = "Theorem 10 lower bound brackets the measurement"
            ; status = bracket_status
            }
          ]
      }
  end

  let run_protocol ?max_configs ?inputs ?prune ?sym ?certificate
      ?search_rounds p =
    let (module P : Sh.Protocol.S) = p in
    let module M = Make (P) in
    M.run ?max_configs ?inputs ?prune ?sym ?certificate ?search_rounds ()
end

(* ------------------------------------------------- happens-before checker *)

module Hb = struct
  type violation = { rule : string; detail : string }

  type stats = { events : int; threads : int; hb_edges : int }

  module Vtbl = Hashtbl.Make (struct
    type t = Sh.Value.t

    let equal = Sh.Value.equal
    let hash = Sh.Value.hash
  end)

  type ev = Linearize.Obj_history.event

  let pp_ev = Linearize.Obj_history.pp_event

  (* the value an event installed in the object, if any (Write/Swap always,
     Cas only on success, Read never) *)
  let installs (e : ev) = Sh.Op.installs ~resp:e.response e.action

  let check ~kind ~init events =
    let evs = Array.of_list events in
    let n = Array.length evs in
    if n = 0 then Ok { events = 0; threads = 0; hb_edges = 0 }
    else begin
      (* dense thread numbering *)
      let tids = Hashtbl.create 8 in
      Array.iter
        (fun (e : ev) ->
          if not (Hashtbl.mem tids e.thread) then
            Hashtbl.replace tids e.thread (Hashtbl.length tids))
        evs;
      let nthreads = Hashtbl.length tids in
      (* per-thread finish times in order; a thread's operations are
         sequential, so its finishes are sorted and [count of finishes <
         start] is one binary search — that count is the thread's entry in
         the observer's vector clock *)
      let finishes = Array.make nthreads [] in
      Array.iter
        (fun (e : ev) ->
          let t = Hashtbl.find tids e.thread in
          finishes.(t) <- e.finish :: finishes.(t))
        evs;
      let finishes =
        Array.map
          (fun l -> Array.of_list (List.sort compare l))
          finishes
      in
      let preceding_of_thread t before =
        (* events of thread [t] with finish < before *)
        let a = finishes.(t) in
        let lo = ref 0 and hi = ref (Array.length a) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if a.(mid) < before then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      let vclock (e : ev) =
        Array.init nthreads (fun t -> preceding_of_thread t e.start)
      in
      let hb_edges = ref 0 in
      Array.iter
        (fun (e : ev) ->
          Array.iter (fun c -> hb_edges := !hb_edges + c) (vclock e))
        evs;
      (* per installed value: the two earliest-starting installers (two, so
         a reader that itself installed the value can be excluded), the
         total install count, and the earliest finish of any installer *)
      let first_two = Vtbl.create 64 in
      let install_count = Vtbl.create 64 in
      let min_install_finish = ref max_int in
      Array.iteri
        (fun i (e : ev) ->
          match installs e with
          | None -> ()
          | Some v ->
            Vtbl.replace install_count v
              (1 + Option.value ~default:0 (Vtbl.find_opt install_count v));
            if e.finish < !min_install_finish then
              min_install_finish := e.finish;
            (match Vtbl.find_opt first_two v with
            | None -> Vtbl.replace first_two v [ (e.start, i) ]
            | Some [ f ] -> Vtbl.replace first_two v [ f; (e.start, i) ]
            | Some _ -> ()))
        evs;
      let init_reinstalled = Vtbl.mem install_count init in
      let count v = Option.value ~default:0 (Vtbl.find_opt install_count v) in
      (* could some installer of [v], other than event [i], precede an
         operation that finishes at [fin]?  (definite-precedence is [finish
         < start]; its negation, [start <= fin], is what a justifying
         reads-from edge needs) *)
      let justified ~reader:i ~fin v =
        match Vtbl.find_opt first_two v with
        | None -> false
        | Some ((s1, i1) :: rest) ->
          (if i1 <> i then s1 <= fin
           else
             match rest with
             | (s2, _) :: _ -> s2 <= fin
             | [] -> false)
        | Some [] -> false
      in
      let violation = ref None in
      let flag rule detail =
        if !violation = None then violation := Some { rule; detail }
      in
      (* a response claiming the object still held [init]: impossible once
         any install definitely preceded, unless someone re-installs init *)
      let check_init_read (e : ev) =
        if (not init_reinstalled) && !min_install_finish < e.start then
          flag "lost-seniority"
            (Fmt.str
               "%a returns the initial value %a although an install \
                definitely preceded it (finish %d < start %d) and nothing \
                re-installs it"
               pp_ev e Sh.Value.pp init !min_install_finish e.start)
      in
      (* reads-from justification for a witnessed value [v] *)
      let check_witness (e : ev) i v what =
        if Sh.Value.equal v init then check_init_read e
        else if not (justified ~reader:i ~fin:e.finish v) then
          flag "stale-response"
            (Fmt.str
               "%a %s %a, which no operation that could precede it installed"
               pp_ev e what Sh.Value.pp v)
      in
      Array.iteri
        (fun i (e : ev) ->
          if !violation = None then
            match e.action with
            | Sh.Op.Read -> check_witness e i e.response "returns"
            | Sh.Op.Swap _ -> check_witness e i e.response "returns"
            | Sh.Op.Cas (expected, _) ->
              if Sh.Value.equal e.response Sh.Value.one then
                check_witness e i expected "succeeded against"
            | Sh.Op.Write _ -> ())
        evs;
      (* duplicate consumption: each install instance is returned by at
         most one later swap, plus one consumer for the initial value —
         torn exchanges, lost updates and double TAS winners all land
         here *)
      if !violation = None then begin
        let consumed = Vtbl.create 64 in
        Array.iter
          (fun (e : ev) ->
            match e.action with
            | Sh.Op.Swap _ ->
              Vtbl.replace consumed e.response
                (1 + Option.value ~default:0 (Vtbl.find_opt consumed e.response))
            | _ -> ())
          evs;
        Vtbl.iter
          (fun v c ->
            let budget = count v + if Sh.Value.equal v init then 1 else 0 in
            if c > budget then
              flag "duplicate-consumption"
                (Fmt.str
                   "%d swaps return %a but only %d install(s) could supply \
                    it — a torn or lost exchange"
                   c Sh.Value.pp v budget))
          consumed
      end;
      ignore kind;
      match !violation with
      | Some v -> Error v
      | None -> Ok { events = n; threads = nthreads; hb_edges = !hb_edges }
    end

  let check_histories ?(max_events = 65_536) ~kinds ~init histories =
    let checked = ref 0 in
    let skipped = ref 0 in
    let rec go i =
      if i >= Array.length histories then Ok (!checked, !skipped)
      else if List.length histories.(i) > max_events then begin
        incr skipped;
        go (i + 1)
      end
      else begin
        incr checked;
        match check ~kind:kinds.(i) ~init:(init i) histories.(i) with
        | Ok _ -> go (i + 1)
        | Error v ->
          Error (Fmt.str "object B%d [%s]: %s" i v.rule v.detail)
      end
    in
    go 0
end
