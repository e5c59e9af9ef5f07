module Make (P : Shmem.Protocol.S) = struct
  module L9 = Lemma9.Make (P)
  module E = L9.E

  type level =
    | Base of L9.certificate
    | Found_k_values of {
        r : int list;
        alpha : Shmem.Trace.t;
        cert : L9.certificate;
      }
    | Recursed of { r : int list }

  type certificate = {
    levels : level list;
    objects_forced : int list;
    bound : int;
  }

  let bound ~n ~k = Bounds.ksa_swap_lb ~n ~k
  let forced cert = List.length cert.objects_forced

  (* Base case (k = 1): the lowest active process runs solo from the
     configuration where it alone has input 0; validity forces it to decide
     0, and Lemma 9 applied to the remaining active processes (input 1)
     forces one fresh object per process. *)
  let base_case ~active ~solo_cap =
    let p0, rest =
      match active with
      | p0 :: rest -> p0, rest
      | [] -> invalid_arg "Theorem10: empty active set"
    in
    let inputs = Array.make P.n 1 in
    inputs.(p0) <- 0;
    let c0 = E.initial ~inputs in
    let alpha =
      match E.run_solo ~pid:p0 ~max_steps:solo_cap c0 with
      | Some (c1, trace) ->
        (match E.decision c1 p0 with
        | Some 0 -> trace
        | Some w ->
          raise
            (Lemma9.Hypothesis_violated
               (Fmt.str "p%d decided %d solo, violating validity" p0 w))
        | None -> assert false)
      | None ->
        raise
          (Lemma9.Hypothesis_violated
             (Fmt.str "p%d did not decide within %d solo steps" p0 solo_cap))
    in
    L9.run ~inputs ~alpha ~q:rest ~v:1 ~required_distinct:1 ~solo_cap ()

  (* Search for an R-only execution (inputs of R in {0..kk-1}, inputs of Q
     fixed to kk) that decides kk distinct values.  Each attempt is one
     seeded schedule of R's processes from the initial configuration,
     stopped as soon as kk values are decided; nothing is stored. *)
  let search ~rng ~rounds ~kk ~r ~q ~max_steps =
    let try_one ~inputs ~sched =
      let rec go c rev_steps i =
        if List.length (E.decided_values c) >= kk then
          Some (inputs, List.rev rev_steps)
        else if i >= max_steps then None
        else
          match List.filter (fun p -> List.mem p r) (E.undecided c) with
          | [] -> None
          | en -> (
            match sched ~step_index:i c en with
            | None -> None
            | Some pid ->
              let c', step = E.step c pid in
              go c' (step :: rev_steps) (i + 1))
      in
      go (E.initial ~inputs) [] 0
    in
    let structured_inputs =
      (* lanes: the j-th process of R prefers value j mod kk *)
      let inputs = Array.make P.n kk in
      List.iteri (fun j pid -> inputs.(pid) <- j mod kk) r;
      List.iter (fun pid -> inputs.(pid) <- kk) q;
      inputs
    in
    let random_inputs () =
      let inputs = Array.make P.n kk in
      List.iter (fun pid -> inputs.(pid) <- Random.State.int rng kk) r;
      inputs
    in
    let rec attempt i =
      if i >= rounds then None
      else
        let inputs =
          if i = 0 then structured_inputs else random_inputs ()
        in
        let sched = if i mod 2 = 0 then E.random rng else E.round_robin in
        match try_one ~inputs ~sched with
        | Some res -> Some res
        | None -> attempt (i + 1)
    in
    attempt 0

  let run ?(search_rounds = 200) ?(seed = 42)
      ?(solo_cap = 1024 * (Array.length P.objects + 1)) () =
    let rng = Random.State.make [| seed |] in
    let rec go active kk levels =
      if kk = 1 then
        let cert = base_case ~active ~solo_cap in
        { levels = List.rev (Base cert :: levels)
        ; objects_forced = cert.L9.objects_forced
        ; bound = bound ~n:P.n ~k:P.k
        }
      else begin
        let a = List.length active in
        let r_size = (a * (kk - 1) + kk - 1) / kk in
        let rec split i = function
          | [] -> [], []
          | x :: xs ->
            if i = 0 then [], x :: xs
            else
              let l, r = split (i - 1) xs in
              x :: l, r
        in
        let r, q = split r_size active in
        match
          search ~rng ~rounds:search_rounds ~kk ~r ~q
            ~max_steps:(200 * P.n * (Array.length P.objects + 1))
        with
        | Some (inputs, alpha) ->
          let cert =
            L9.run ~inputs ~alpha ~q ~v:kk ~required_distinct:kk ~solo_cap ()
          in
          { levels = List.rev (Found_k_values { r; alpha; cert } :: levels)
          ; objects_forced = cert.L9.objects_forced
          ; bound = bound ~n:P.n ~k:P.k
          }
        | None -> go r (kk - 1) (Recursed { r } :: levels)
      end
    in
    go (List.init P.n Fun.id) P.k []
end
