module Make (P : Protocol.S) = struct
  type config = { states : P.state array; mem : Value.t array }

  let initial ~inputs =
    if Array.length inputs <> P.n then
      invalid_arg
        (Fmt.str "Exec.initial: %d inputs for %d processes"
           (Array.length inputs) P.n);
    Array.iter
      (fun input ->
        if input < 0 || input >= P.num_inputs then
          invalid_arg (Fmt.str "Exec.initial: input %d out of range" input))
      inputs;
    { states = Array.init P.n (fun pid -> P.init ~pid ~input:inputs.(pid))
    ; mem = Array.init (Array.length P.objects) P.init_object
    }

  let shared_config ~states ~mem =
    if Array.length states <> P.n then
      invalid_arg
        (Fmt.str "Exec: %d states for %d processes"
           (Array.length states) P.n);
    if Array.length mem <> Array.length P.objects then
      invalid_arg
        (Fmt.str "Exec: %d values for %d objects"
           (Array.length mem)
           (Array.length P.objects));
    { states; mem }

  let unsafe_config ~states ~mem =
    shared_config ~states:(Array.copy states) ~mem:(Array.copy mem)

  let value c b = c.mem.(b)
  let decision c pid = P.decision c.states.(pid)

  let decided_values c =
    Array.to_list c.states
    |> List.filter_map P.decision
    |> List.sort_uniq Stdlib.compare

  let undecided c =
    let rec go pid acc =
      if pid < 0 then acc
      else
        go (pid - 1)
          (match P.decision c.states.(pid) with
          | None -> pid :: acc
          | Some _ -> acc)
    in
    go (P.n - 1) []

  let all_decided c = undecided c = []
  let poised c pid = P.poised c.states.(pid)

  let covers c ~pids ~objs =
    List.length pids = List.length objs
    && List.for_all (fun pid -> decision c pid = None) pids
    &&
    let poised_objs =
      List.filter_map
        (fun pid ->
          let op = poised c pid in
          if Op.is_nontrivial op then Some op.Op.obj else None)
        pids
      |> List.sort Stdlib.compare
    in
    List.equal Int.equal poised_objs (List.sort_uniq Stdlib.compare objs)

  type apply_fn = pid:int -> op:Op.t -> current:Value.t -> Value.t * Value.t

  let default_apply ~pid:_ ~op ~current =
    Obj_kind.apply P.objects.(op.Op.obj) ~current op.Op.action

  let step_with ~apply c pid =
    (match P.decision c.states.(pid) with
    | Some _ -> invalid_arg (Fmt.str "Exec.step: p%d already decided" pid)
    | None -> ());
    let op = P.poised c.states.(pid) in
    let new_value, resp = apply ~pid ~op ~current:c.mem.(op.Op.obj) in
    let states = Array.copy c.states in
    let mem = Array.copy c.mem in
    states.(pid) <- P.on_response c.states.(pid) resp;
    mem.(op.Op.obj) <- new_value;
    { states; mem }, { Trace.pid; op; resp }

  let step c pid = step_with ~apply:default_apply c pid

  let run_script c pids =
    let c, rev_steps =
      List.fold_left
        (fun (c, acc) pid ->
          let c, s = step c pid in
          c, s :: acc)
        (c, []) pids
    in
    c, List.rev rev_steps

  let replay c trace =
    List.fold_left
      (fun c { Trace.pid; op; resp } ->
        let c', s = step c pid in
        assert (Op.equal s.Trace.op op);
        assert (Value.equal s.Trace.resp resp);
        c')
      c trace

  type scheduler = step_index:int -> config -> int list -> int option

  let round_robin ~step_index _c enabled =
    match enabled with
    | [] -> None
    | _ ->
      let idx = step_index mod List.length enabled in
      Some (List.nth enabled idx)

  let random rng ~step_index:_ _c enabled =
    match enabled with
    | [] -> None
    | _ -> Some (List.nth enabled (Random.State.int rng (List.length enabled)))

  let solo pid ~step_index:_ _c enabled =
    if List.mem pid enabled then Some pid else None

  let bursty rng ~burst =
    let current = ref None in
    let remaining = ref 0 in
    fun ~step_index:_ _c enabled ->
      match enabled with
      | [] -> None
      | _ ->
        (match !current with
        | Some pid when !remaining > 0 && List.mem pid enabled ->
          decr remaining;
          Some pid
        | _ ->
          let pid = List.nth enabled (Random.State.int rng (List.length enabled)) in
          current := Some pid;
          remaining := burst - 1;
          Some pid)

  let with_crashes ~crash_at sched ~step_index c enabled =
    let alive pid =
      match List.assoc_opt pid crash_at with
      | Some t -> step_index < t
      | None -> true
    in
    match List.filter alive enabled with
    | [] -> None
    | survivors -> sched ~step_index c survivors

  let with_stalls ~stalls sched ~step_index c enabled =
    (* a stalled process is merely delayed, not dead: when every enabled
       process is inside a stall window, stop only if the underlying
       scheduler would (the windows are finite, so a real run resumes) *)
    let awake pid =
      not
        (List.exists
           (fun (p, t, dur) -> p = pid && step_index >= t && step_index < t + dur)
           stalls)
    in
    match List.filter awake enabled with
    | [] -> sched ~step_index c enabled
    | awake -> sched ~step_index c awake

  type outcome = All_decided | Stopped | Step_limit

  let run ~sched ~max_steps c0 =
    let rec go c rev_steps i =
      if i >= max_steps then c, List.rev rev_steps, Step_limit
      else
        match undecided c with
        | [] -> c, List.rev rev_steps, All_decided
        | enabled -> (
          match sched ~step_index:i c enabled with
          | None -> c, List.rev rev_steps, Stopped
          | Some pid ->
            let c, s = step c pid in
            go c (s :: rev_steps) (i + 1))
    in
    go c0 [] 0

  let run_solo ~pid ~max_steps c0 =
    let rec go c rev_steps i =
      match P.decision c.states.(pid) with
      | Some _ -> Some (c, List.rev rev_steps)
      | None ->
        if i >= max_steps then None
        else
          let c, s = step c pid in
          go c (s :: rev_steps) (i + 1)
    in
    go c0 [] 0

  let equal_config c1 c2 =
    Array.for_all2 P.equal_state c1.states c2.states
    && Array.for_all2 Value.equal c1.mem c2.mem

  let hash_config c =
    let h = ref 17 in
    Array.iter (fun s -> h := (!h * 31) + P.hash_state s) c.states;
    Array.iter (fun v -> h := (!h * 31) + Value.hash v) c.mem;
    !h land max_int

  (* pids outside 0..n-1 can only appear in malformed stored values;
     leave them alone rather than crash *)
  let pid_map perm p = if p >= 0 && p < P.n then perm.(p) else p

  let check_perm fn perm =
    if Array.length perm <> P.n then
      invalid_arg (Fmt.str "Exec.%s: permutation length <> n" fn)

  let rename ~perm ~rename_state c =
    check_perm "rename" perm;
    let f = pid_map perm in
    let states = Array.make P.n c.states.(0) in
    Array.iteri (fun p s -> states.(perm.(p)) <- rename_state f s) c.states;
    { states; mem = Array.map (Value.rename f) c.mem }

  let indistinguishable_to ~pids c1 c2 =
    List.for_all (fun pid -> P.equal_state c1.states.(pid) c2.states.(pid)) pids

  let restricted_key ~pids c =
    let h = ref 19 in
    List.iter (fun pid -> h := (!h * 31) + P.hash_state c.states.(pid)) pids;
    Array.iter (fun v -> h := (!h * 31) + Value.hash v) c.mem;
    !h land max_int

  let equal_restricted ~pids c1 c2 =
    indistinguishable_to ~pids c1 c2
    && Array.for_all2 Value.equal c1.mem c2.mem

  let check_validity ~inputs c =
    List.for_all
      (fun v -> Array.exists (Int.equal v) inputs)
      (decided_values c)

  let check_agreement c = List.length (decided_values c) <= P.k

  let pp_config ppf c =
    Fmt.pf ppf "@[<v>mem: @[%a@]@,%a@]"
      Fmt.(array ~sep:(any " ") Value.pp)
      c.mem
      Fmt.(
        iter_bindings ~sep:cut
          (fun f arr -> Array.iteri (fun i s -> f i s) arr)
          (fun ppf (i, s) -> Fmt.pf ppf "p%d: %a" i P.pp_state s))
      c.states
end
