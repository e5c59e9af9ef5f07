type kind = Invariant | Step | Automaton

let kind_to_string = function
  | Invariant -> "invariant"
  | Step -> "step-relation"
  | Automaton -> "automaton"

type spec = { name : string; kind : kind; desc : string }

let pp_spec ppf s =
  Fmt.pf ppf "%s [%s]: %s" s.name (kind_to_string s.kind) s.desc

let m_checked = Obs.counter "prop.checked"
let m_violated = Obs.counter "prop.violated"

module Make (P : Shmem.Protocol.S) = struct
  type snap = { states : P.state array; mem : Shmem.Value.t array }
  type guard =
    P.state -> Shmem.Value.t array -> P.state -> Shmem.Value.t array -> bool

  let decided_values s =
    Array.to_list s.states
    |> List.filter_map P.decision
    |> List.sort_uniq Stdlib.compare

  let undecided s =
    let rec go pid acc =
      if pid < 0 then acc
      else
        go (pid - 1)
          (match P.decision s.states.(pid) with
          | None -> pid :: acc
          | Some _ -> acc)
    in
    go (Array.length s.states - 1) []

  type apack =
    | Apack : {
        init : snap -> ('s, string) result;
        next : 's -> before:snap -> pid:int -> after:snap -> ('s, string) result;
      }
        -> apack

  type t = {
    spec : spec;
    check_config : (snap -> string option) option;
    check_step : (before:snap -> pid:int -> after:snap -> string option) option;
    guard : guard option;  (* [check_step]'s, if it declares one *)
    auto : apack option;
    span : Obs.Span.t;
  }

  let spec t = t.spec
  let name t = t.spec.name
  let has_config t = Option.is_some t.check_config
  let has_step t = Option.is_some t.check_step
  let has_auto t = Option.is_some t.auto

  (* the disjunction of the step guards of [props]' step relations: [None]
     if one declares no guard, or there are none.  It names no other
     function of this functor, so applying the functor allocates no
     closure for it, nor for [product]. *)
  let joint_guard props =
    let stepping = List.filter (fun p -> Option.is_some p.check_step) props in
    let gs = List.filter_map (fun p -> p.guard) stepping in
    match gs with
    | _ :: _ when List.compare_lengths gs stepping = 0 ->
      Some (fun st mem st' mem' -> List.exists (fun g -> g st mem st' mem') gs)
    | _ -> None

  let mk_span name = Obs.span ("prop.eval." ^ name)

  let invariant ~name ~desc f =
    { spec = { name; kind = Invariant; desc }
    ; check_config = Some f
    ; check_step = None
    ; guard = None
    ; auto = None
    ; span = mk_span name
    }

  let step_rel ~name ~desc ?guard f =
    { spec = { name; kind = Step; desc }
    ; check_config = None
    ; check_step = Some f
    ; guard
    ; auto = None
    ; span = mk_span name
    }

  let automaton ~name ~desc ~init ~next () =
    { spec = { name; kind = Automaton; desc }
    ; check_config = None
    ; check_step = None
    ; guard = None
    ; auto = Some (Apack { init; next })
    ; span = mk_span name
    }

  let always ~name ?desc pred =
    let desc = Option.value desc ~default:name in
    invariant ~name ~desc (fun s ->
        if pred s then None else Some (Fmt.str "%s does not hold" desc))

  let never ~name ?desc pred =
    let desc = Option.value desc ~default:name in
    invariant ~name ~desc:(Fmt.str "never: %s" desc) (fun s ->
        if pred s then Some (Fmt.str "%s holds" desc) else None)

  let leads_to_within ~name ?desc ~trigger ~goal ~within () =
    if within < 1 then invalid_arg "Prop.leads_to_within: within must be >= 1";
    let desc =
      Option.value desc
        ~default:(Fmt.str "the trigger leads to the goal within %d steps" within)
    in
    (* hidden state: [None] = idle, [Some d] = the earliest pending trigger
       fired [d] transitions ago without the goal having held since *)
    let arm s st =
      match st with
      | Some _ -> st
      | None -> if trigger s && not (goal s) then Some 0 else None
    in
    automaton ~name ~desc
      ~init:(fun s -> Ok (arm s None))
      ~next:(fun st ~before:_ ~pid:_ ~after ->
        match st with
        | None -> Ok (arm after None)
        | Some d ->
          if goal after then Ok (arm after None)
          else if d + 1 >= within then
            Error (Fmt.str "goal not reached within %d steps of the trigger" within)
          else Ok (Some (d + 1)))
      ()

  type runner =
    | Runner : {
        nm : string;
        next : 's -> before:snap -> pid:int -> after:snap -> ('s, string) result;
        st : 's;
      }
        -> runner

  let product ~name ?desc parts =
    (match parts with [] -> invalid_arg "Prop.product: empty list" | _ -> ());
    let desc =
      Option.value desc
        ~default:(String.concat " AND " (List.map (fun p -> p.spec.name) parts))
    in
    let solo = match parts with [ _ ] -> true | _ -> false in
    let prefix nm d = if solo then d else Fmt.str "%s: %s" nm d in
    let configs =
      List.filter_map
        (fun p -> Option.map (fun f -> (p.spec.name, f)) p.check_config)
        parts
    and steps =
      List.filter_map
        (fun p -> Option.map (fun f -> (p.spec.name, f)) p.check_step)
        parts
    and autos =
      List.filter_map (fun p -> Option.map (fun a -> (p.spec.name, a)) p.auto) parts
    in
    let check_config =
      match configs with
      | [] -> None
      | fs ->
        Some (fun s -> List.find_map (fun (nm, f) -> Option.map (prefix nm) (f s)) fs)
    in
    let check_step =
      match steps with
      | [] -> None
      | fs ->
        Some
          (fun ~before ~pid ~after ->
            List.find_map
              (fun (nm, f) -> Option.map (prefix nm) (f ~before ~pid ~after))
              fs)
    in
    let auto =
      match autos with
      | [] -> None
      | autos ->
        Some
          (Apack
             { init =
                 (fun s ->
                   let rec go acc = function
                     | [] -> Ok (List.rev acc)
                     | (nm, Apack a) :: rest -> (
                       match a.init s with
                       | Error e -> Error (prefix nm e)
                       | Ok st -> go (Runner { nm; next = a.next; st } :: acc) rest)
                   in
                   go [] autos)
             ; next =
                 (fun rs ~before ~pid ~after ->
                   let rec go acc = function
                     | [] -> Ok (List.rev acc)
                     | Runner r :: rest -> (
                       match r.next r.st ~before ~pid ~after with
                       | Error e -> Error (prefix r.nm e)
                       | Ok st ->
                         go (Runner { nm = r.nm; next = r.next; st } :: acc) rest)
                   in
                   go [] rs)
             })
    in
    let kind =
      if auto <> None then Automaton else if check_step <> None then Step else Invariant
    in
    { spec = { name; kind; desc }
    ; check_config
    ; check_step
    ; guard = joint_guard parts
    ; auto
    ; span = mk_span name
    }

  (* Built-ins; detail strings match the checker's historical output.  They
     run at every visited configuration, so a check that holds allocates
     nothing: the decided values are listed only for a violation's
     detail. *)

  let agreement =
    invariant ~name:"k-agreement"
      (* built at each application of the functor: concatenation, not a
         formatter, which costs more than the rest of the functor *)
      ~desc:("at most " ^ string_of_int P.k ^ " distinct values are decided")
      (fun s ->
        (* the distinct decided values, counted in place: a decision
           counts at its first process *)
        let states = s.states and c = ref 0 in
        for p = 0 to Array.length states - 1 do
          match P.decision states.(p) with
          | None -> ()
          | Some v ->
            let q = ref 0 in
            while
              !q < p
              && match P.decision states.(!q) with Some w -> w <> v | None -> true
            do
              incr q
            done;
            if !q = p then incr c
        done;
        if !c <= P.k then None
        else
          Some
            (Fmt.str "values %a decided (k=%d)"
               Fmt.(list ~sep:(any ",") int)
               (decided_values s) P.k))

  let validity ~inputs =
    let is_input v =
      let i = ref 0 in
      while !i < Array.length inputs && inputs.(!i) <> v do
        incr i
      done;
      !i < Array.length inputs
    in
    invariant ~name:"validity" ~desc:"every decided value is some process's input"
      (fun s ->
        let states = s.states and p = ref 0 in
        while
          !p < Array.length states
          && match P.decision states.(!p) with Some v -> is_input v | None -> true
        do
          incr p
        done;
        if !p = Array.length states then None
        else
          Some
            (Fmt.str "decided values %a, inputs %a"
               Fmt.(list ~sep:(any ",") int)
               (decided_values s)
               Fmt.(array ~sep:(any ",") int)
               inputs))

  let solo_termination ?pid ~cap ~solo_ok () =
    let stuck pid = Some (Fmt.str "p%d does not decide within %d solo steps" pid cap) in
    invariant ~name:"solo-termination"
      ~desc:(Fmt.str "every undecided process decides within %d solo steps" cap)
      (match pid with
      | Some p ->
        fun s ->
          if Option.is_some (P.decision s.states.(p)) || solo_ok ~pid:p s then None
          else stuck p
      | None ->
        fun s ->
          List.find_map
            (fun pid -> if solo_ok ~pid s then None else stuck pid)
            (undecided s))

  let tally violated =
    Obs.Counter.incr m_checked;
    if violated then Obs.Counter.incr m_violated

  (* both evaluators run on every visited configuration / expanded edge of
     instrumented explorations; when Obs is off (the common case, and what
     bench T13's budget measures) skip the span closure and counter reads
     entirely *)
  let eval_config t s =
    match t.check_config with
    | None -> None
    | Some f ->
      if not (Obs.enabled ()) then f s
      else begin
        let r = Obs.Span.time t.span (fun () -> f s) in
        tally (Option.is_some r);
        r
      end

  let eval_step t ~before ~pid ~after =
    match t.check_step with
    | None -> None
    | Some f ->
      if not (Obs.enabled ()) then f ~before ~pid ~after
      else begin
        let r = Obs.Span.time t.span (fun () -> f ~before ~pid ~after) in
        tally (Option.is_some r);
        r
      end

  type marking =
    | No_auto
    | Marking : {
        next : 's -> before:snap -> pid:int -> after:snap -> ('s, string) result;
        st : 's;
      }
        -> marking

  let no_marking = No_auto

  let init_marking t s =
    match t.auto with
    | None -> Ok No_auto
    | Some (Apack a) -> (
      match Obs.Span.time t.span (fun () -> a.init s) with
      | Ok st ->
        tally false;
        Ok (Marking { next = a.next; st })
      | Error e ->
        tally true;
        Error e)

  let advance_marking t m ~before ~pid ~after =
    match m with
    | No_auto -> Ok No_auto
    | Marking r -> (
      match Obs.Span.time t.span (fun () -> r.next r.st ~before ~pid ~after) with
      | Ok st ->
        tally false;
        Ok (Marking { next = r.next; st })
      | Error e ->
        tally true;
        Error e)

  type run = { mutable cells : (t * marking) list }

  let start props s =
    let viol = ref None in
    let hit p d = if !viol = None then viol := Some (p.spec.name, d) in
    let cells =
      List.map
        (fun p ->
          (match eval_config p s with Some d -> hit p d | None -> ());
          match init_marking p s with
          | Ok m -> (p, m)
          | Error d ->
            hit p d;
            (p, No_auto))
        props
    in
    ({ cells }, !viol)

  let advance run ~before ~pid ~after =
    let viol = ref None in
    let hit p d = if !viol = None then viol := Some (p.spec.name, d) in
    run.cells <-
      List.map
        (fun (p, m) ->
          (match eval_step p ~before ~pid ~after with
          | Some d -> hit p d
          | None -> ());
          (match eval_config p after with Some d -> hit p d | None -> ());
          match advance_marking p m ~before ~pid ~after with
          | Ok m' -> (p, m')
          | Error d ->
            hit p d;
            (p, No_auto))
        run.cells;
    !viol

  let select ~names props =
    let available = List.map name props in
    match List.filter (fun n -> not (List.mem n available)) names with
    | [] -> Ok (List.filter (fun p -> List.mem (name p) names) props)
    | unknown ->
      Error
        (Fmt.str "unknown propert%s %s (available: %s)"
           (match unknown with [ _ ] -> "y" | _ -> "ies")
           (String.concat ", " unknown)
           (String.concat ", " (List.sort_uniq String.compare available)))
end

module type PACK = sig
  module P : Shmem.Protocol.S

  val props : Make(P).t list
end

type pack = (module PACK)

let pack_specs (pack : pack) =
  let (module Pk) = pack in
  let module M = Make (Pk.P) in
  List.map M.spec Pk.props

let generic_pack (p : Shmem.Protocol.t) : pack =
  let (module P : Shmem.Protocol.S) = p in
  (module struct
    module P = P
    module M = Make (P)

    let props = [ M.agreement ]
  end : PACK)
