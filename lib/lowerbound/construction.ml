exception Construction_failed of string

let fail fmt = Fmt.kstr (fun s -> raise (Construction_failed s)) fmt

module Make (P : Shmem.Protocol.S) = struct
  module V = Valency.Make (P)
  module E = V.E

  type ctx = { q : int list; oracle : V.t }

  let make_ctx ~q = { q; oracle = V.create ~allowed:q }

  let block_swap _ctx c ~s = E.run_script c s

  let lemma12 ctx ~c ~s =
    let beta_of c = fst (block_swap ctx c ~s) in
    if V.bivalent ctx.oracle (beta_of c) then c, []
    else begin
      let v =
        match V.univalent_value ctx.oracle (beta_of c) with
        | Some v -> v
        | None -> assert false
      in
      let vbar = 1 - v in
      (* Q is bivalent in c, so a Q-only execution deciding v̄ exists *)
      let alpha =
        match V.witness ctx.oracle c ~value:vbar with
        | Some tr -> tr
        | None ->
          fail "Lemma 12: Q is bivalent in C but no witness for %d exists"
            vbar
      in
      (* scan prefixes of α for the step that flips Q's valency after β *)
      let rec scan cur trace_rev = function
        | [] ->
          fail
            "Lemma 12: walked all of α without Q's valency after β leaving \
             {%d} — impossible since α decides %d"
            v vbar
        | step :: rest ->
          let cur', step' = E.step cur step.Shmem.Trace.pid in
          if not (Shmem.Value.equal step'.Shmem.Trace.resp step.Shmem.Trace.resp)
          then fail "Lemma 12: witness replay diverged";
          let trace_rev = step' :: trace_rev in
          if V.univalent_value ctx.oracle (beta_of cur') = Some v then
            scan cur' trace_rev rest
          else begin
            (* the proof shows Q must be bivalent (not merely v̄-univalent)
               in Cα's·β *)
            if not (V.bivalent ctx.oracle (beta_of cur')) then
              fail
                "Lemma 12: Q became %d-univalent after β at the flip point, \
                 contradicting the proof"
                vbar;
            cur', List.rev trace_rev
          end
      in
      scan c [] alpha
    end

  type lemma13_result = {
    j : int;
    alpha_j : Shmem.Trace.t;
    c_alpha_j : E.config;
    delta : Shmem.Trace.t;
    d_op : Shmem.Op.t;
    b_star : int;
    v_before : Shmem.Value.t;
    v_after : Shmem.Value.t;
  }

  (* nodes of the Lemma 13 search: configurations reachable from C by
     (Q ∪ P_i)-only steps in which p_i's steps replay δ's responses, at
     level j.  [key] caches the restricted hash; equality is exact on the
     movers' states and memory, so a hash collision never merges two
     distinct configurations *)
  type node = { key : int; j : int; conf : E.config }

  let lemma13 ctx ~c ~c' ~pi ~others ?(include_others = false)
      ?(solo_cap = 4096) ?(max_nodes = 500_000) () =
    (* The witness class: the paper quantifies over (Q ∪ P_i)-only
       executions.  By default we search Q ∪ {p_i} only — every witness
       found is still a valid (Q ∪ P_i)-only execution, and the search stays
       tractable; [include_others] restores the full class. *)
    let movers = ctx.q @ (pi :: if include_others then others else []) in
    (* δ: p_i's solo-terminating execution from C' *)
    let delta =
      match E.run_solo ~pid:pi ~max_steps:solo_cap c' with
      | Some (_, tr) -> tr
      | None ->
        fail "Lemma 13: p%d's solo execution from C' did not decide in %d steps"
          pi solo_cap
    in
    let delta_arr = Array.of_list delta in
    let r = Array.length delta_arr in
    (* intermediate configurations C'·δ_s and the poised data at each s *)
    let c'_at = Array.make (r + 1) c' in
    for s = 0 to r - 1 do
      c'_at.(s + 1) <- fst (E.step c'_at.(s) delta_arr.(s).Shmem.Trace.pid)
    done;
    (* BFS over the constrained execution class, recording for each level j
       a bivalent witness if one exists *)
    let module Node_tbl = Hashtbl.Make (struct
      type t = node

      let equal a b =
        a.key = b.key && a.j = b.j
        && E.equal_restricted ~pids:movers a.conf b.conf

      let hash a = Hashtbl.hash (a.key, a.j)
    end) in
    let seen = Node_tbl.create 4096 in
    let queue = Queue.create () in
    let witness_at = Array.make (r + 1) None in
    let push c j trace_rev =
      let k = { key = E.restricted_key ~pids:movers c; j; conf = c } in
      if not (Node_tbl.mem seen k) then begin
        Node_tbl.replace seen k ();
        if witness_at.(j) = None && V.bivalent ctx.oracle c then
          witness_at.(j) <- Some (c, List.rev trace_rev);
        Queue.push (c, j, trace_rev) queue
      end
    in
    push c 0 [];
    let nodes = ref 0 in
    while not (Queue.is_empty queue) do
      incr nodes;
      if !nodes > max_nodes then
        fail "Lemma 13: witness search exceeded %d nodes" max_nodes;
      let cur, j, trace_rev = Queue.pop queue in
      (* steps by Q and the other P_i processes are unconstrained *)
      List.iter
        (fun pid ->
          if pid <> pi && E.decision cur pid = None then begin
            let cur', step = E.step cur pid in
            push cur' j (step :: trace_rev)
          end)
        movers;
      (* p_i may step only if its response matches δ's next response *)
      if j < r && E.decision cur pi = None then begin
        let expected = delta_arr.(j) in
        let op = E.poised cur pi in
        if not (Shmem.Op.equal op expected.Shmem.Trace.op) then
          fail
            "Lemma 13: p%d poised to %a but δ_{%d+1} applies %a — state \
             indistinguishability broken"
            pi Shmem.Op.pp op j Shmem.Op.pp expected.Shmem.Trace.op;
        let cur', step = E.step cur pi in
        if Shmem.Value.equal step.Shmem.Trace.resp expected.Shmem.Trace.resp
        then push cur' (j + 1) (step :: trace_rev)
      end
    done;
    (* the paper's j: minimum level whose successor level has no bivalent
       witness (level 0, the empty execution, is always bivalent) *)
    if witness_at.(0) = None then
      fail "Lemma 13: Q is not bivalent in C itself";
    let rec find j =
      if j >= r then
        fail
          "Lemma 13: bivalent witnesses exist at every level, including one \
           indistinguishable from all of δ — the protocol violates agreement"
      else if witness_at.(j + 1) = None then j
      else find (j + 1)
    in
    let j = find 0 in
    let c_alpha_j, alpha_j =
      match witness_at.(j) with Some w -> w | None -> assert false
    in
    let d_op = delta_arr.(j).Shmem.Trace.op in
    let b_star = d_op.Shmem.Op.obj in
    { j
    ; alpha_j
    ; c_alpha_j
    ; delta
    ; d_op
    ; b_star
    ; v_before = E.value c'_at.(j) b_star
    ; v_after = E.value c'_at.(j + 1) b_star
    }
end
