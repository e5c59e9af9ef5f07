(* The solo oracle's per-configuration memory key, reused by the n queries
   on one configuration.  A query recognises its configuration's memory by
   physical identity ([mem]) in the same oracle ([owner]); the cell is
   domain-local, so parallel workers never share it.  It does not depend
   on the protocol, so one key serves every [Make] instance. *)
type mem_memo = {
  mutable owner : int;  (* the oracle's [uid]; -1 before first use *)
  mutable mem : Shmem.Value.t array;
  mutable mid : int;  (* the interned id of [mem]'s (canonical) form *)
  mutable perm : int array;
      (* symmetry mode: first-mention rank of each mentioned pid, then the
         unmentioned pids ascending *)
  mutable mentioned : int;  (* how many pids [mem] mentions *)
}

let new_memo () = { owner = -1; mem = [||]; mid = 0; perm = [||]; mentioned = 0 }
let memo_key = Domain.DLS.new_key new_memo
let next_uid = Atomic.make 0

module Make (P : Shmem.Protocol.S) = struct
  module E = Shmem.Exec.Make (P)

  type id = int

  (* Metric handles are find-or-create by name, so every Make instantiation
     feeds the same series; each site is one branch when Obs is disabled. *)
  let m_interned = Obs.counter "explore.configs.interned"
  let m_dedup = Obs.counter "explore.configs.dedup_hits"
  let m_visited = Obs.counter "explore.visited"
  let m_solo_hits = Obs.counter "explore.solo.cache_hits"
  let m_solo_misses = Obs.counter "explore.solo.cache_misses"
  let m_canon = Obs.counter "explore.canon.renamed"
  let m_por = Obs.counter "explore.por.pruned"
  let h_orbit = Obs.histogram "explore.canon.orbit_size"
  let h_frontier = Obs.histogram "explore.frontier_level"
  let sp_bfs = Obs.span "explore.bfs"
  let sp_dfs = Obs.span "explore.dfs"
  let sp_par = Obs.span "explore.bfs_parallel"
  let sp_walk = Obs.span "explore.walk"

  let default_solo_cap = 64 * (Array.length P.objects + 1)

  (* Configurations enter the index paired with their hash, computed once
     per [intern] call: shard selection, bucket lookup and insertion all
     reuse it instead of re-walking the configuration.  Under symmetry
     reduction a lookup does not build the representative first: a [View]
     holds the states already renamed into their canonical slots and the
     memory as it stands, read through the permutation [perm]; it equals
     the [Stored] representative it would become once that memory is
     renamed.  Only [Stored] keys enter the index. *)
  module Cfg_key = struct
    type t =
      | Stored of { h : int; c : E.config }
      | View of {
          h : int;
          states : P.state array;
          mem : Shmem.Value.t array;
          perm : int array;
        }

    let equal a b =
      match a, b with
      | Stored a, Stored b -> a.h = b.h && E.equal_config a.c b.c
      | View v, Stored s | Stored s, View v ->
        v.h = s.h
        && Array.for_all2 P.equal_state v.states s.c.E.states
        && Array.for_all2
             (Shmem.Value.equal_renamed (E.pid_map v.perm))
             v.mem s.c.E.mem
      | View _, View _ -> invalid_arg "Explore: views are never stored"

    let hash (Stored { h; _ } | View { h; _ }) = h

    (* the key the index keeps and the configuration it stands for; a
       view's representative is built here, at last *)
    let stored = function
      | Stored s as k -> k, s.c
      | View v ->
        let c = E.rename_onto ~perm:v.perm ~states:v.states v.mem in
        Stored { h = v.h; c }, c
  end

  module Cfg_tbl = Hashtbl.Make (Cfg_key)

  (* Under symmetry reduction the stored [config] is the canonical orbit
     representative ĉ; [witness] is the permutation σ (as an array,
     [None] = identity) with ĉ = σ·c for the configuration [c] that was
     first reached along the recorded [parent] edge, whose step is spelled
     in the {e parent's} canonical frame.  [trace_to] composes the inverse
     witnesses along the back-edge chain to recover a concrete schedule. *)
  type entry = {
    config : E.config;
    parent : (id * Shmem.Trace.step) option;
    witness : int array option;
  }

  (* One lockable partition of the store.  Ids interleave across shards
     ([slot * nshards + shard]), so id allocation needs no global lock. *)
  type shard = {
    index : int Cfg_tbl.t;  (* configuration -> slot within this shard *)
    mutable entries : entry array;
    mutable len : int;
    lock : Mutex.t;
  }

  (* The solo oracle.  A solo execution of a process reads only its own
     state and the memory, so verdicts are keyed by that restriction
     [{h; mid; st}]: [mid] is the interned id of the memory (under symmetry
     reduction, of the memory renamed to first-mention order), [st] the
     queried process's state (under symmetry reduction, renamed by the same
     permutation extended with the owner-at-rank rule, see
     [restriction]).  The memory is keyed once per configuration and its
     id shared by the n queries on that configuration. *)
  module Mem_key = struct
    type t =
      | Stored of { h : int; mem : Shmem.Value.t array }
      | View of { h : int; mem : Shmem.Value.t array; perm : int array }
          (** symmetry mode: [mem] read through the permutation [perm];
              lookup only, like [Cfg_key.View] *)

    (* stepping copies the memory array but shares the untouched values,
       so equal memories mostly hold physically equal values *)
    let equal a b =
      match a, b with
      | Stored a, Stored b ->
        a.h = b.h
        && Array.for_all2
             (fun u v -> u == v || Shmem.Value.equal u v)
             a.mem b.mem
      | View v, Stored s | Stored s, View v ->
        v.h = s.h
        && Array.for_all2
             (Shmem.Value.equal_renamed (E.pid_map v.perm))
             v.mem s.mem
      | View _, View _ -> invalid_arg "Explore: views are never stored"

    let hash (Stored { h; _ } | View { h; _ }) = h

    let stored = function
      | Stored _ as k -> k
      | View v ->
        let f = E.pid_map v.perm in
        Stored { h = v.h; mem = Array.map (Shmem.Value.rename f) v.mem }
  end

  module Mem_tbl = Hashtbl.Make (Mem_key)

  module Restriction = struct
    type t = { h : int; mid : int; st : P.state }

    let equal a b =
      a.h = b.h && Int.equal a.mid b.mid
      && (a.st == b.st || P.equal_state a.st b.st)
    let hash k = k.h
  end

  module Verdict_tbl = Hashtbl.Make (Restriction)

  (* Memory ids interleave across shards like configuration ids. *)
  type solo_shard = {
    mids : int Mem_tbl.t;
    verdicts : int option Verdict_tbl.t;
    solo_lock : Mutex.t;
  }

  type t = {
    uid : int;  (* tells oracles apart in the domain-local [mem_memo] *)
    shards : shard array;
    nshards : int;
    total : int Atomic.t;  (* interned configurations across all shards *)
    solo : solo_shard array;
    cap : int;
    ins : int array;
    root : id;
    symfns : ((P.state -> int) * ((int -> int) -> P.state -> P.state)) option;
    por : bool;
  }

  let locked lock f =
    Mutex.lock lock;
    match f () with
    | v ->
      Mutex.unlock lock;
      v
    | exception e ->
      Mutex.unlock lock;
      raise e

  (* ------------------------------------------------------ permutations *)

  let inv sigma =
    let r = Array.make (Array.length sigma) 0 in
    Array.iteri (fun p j -> r.(j) <- p) sigma;
    r

  let inv_opt = function None -> None | Some s -> Some (inv s)

  (* [compose a b] is a ∘ b with [None] as the identity *)
  let compose a b =
    match a, b with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Array.init P.n (fun p -> a.(b.(p))))

  (* First-mention rank of each pid in a structural left-to-right scan of
     [mem], written into [rank] ([max_int] for unmentioned pids); returns
     the number of pids mentioned.  Renaming the whole configuration by π
     moves π p to the scan position p held, so rank is orbit-invariant and
     sound as a canonical sort key. *)
  let mention_ranks mem rank =
    Array.fill rank 0 P.n max_int;
    let next = ref 0 in
    let mark () p =
      if p >= 0 && p < P.n && rank.(p) = max_int then begin
        rank.(p) <- !next;
        incr next
      end
    in
    for b = 0 to Array.length mem - 1 do
      Shmem.Value.fold_pids mark () mem.(b)
    done;
    !next

  let factorial k =
    let r = ref 1 in
    for i = 2 to k do
      r := !r * i
    done;
    !r

  (* n! / ∏ (size of each equal-(key, rank) class)! — a lower bound on the
     orbit size of the configuration (classes that are genuinely
     interchangeable shrink the orbit; hash collisions only overcount the
     classes, never the bound's soundness as a bound) *)
  let orbit_lower_bound keys rank order =
    let n = Array.length order in
    let denom = ref 1 and run = ref 1 in
    for j = 1 to n - 1 do
      let p = order.(j) and q = order.(j - 1) in
      if keys.(p) = keys.(q) && rank.(p) = rank.(q) then begin
        incr run;
        denom := !denom * !run
      end
      else run := 1
    done;
    factorial n / !denom

  (* The reduced store's hash of a configuration from the [canon_key]s of
     its states in slot order and its memory [mem] read through [f].  Both
     are functions of the renamed configuration alone ([canon_key] is
     renaming-invariant), so a view and the representative it stands for
     hash alike without the states being hashed again.  [E.hash_config]
     hashes memory values with [Hashtbl.hash], which cannot see through a
     renaming, so the reduced store keys on this one instead. *)
  let sym_hash keys order mem f =
    let h = ref Shmem.Hashx.seed in
    for j = 0 to Array.length order - 1 do
      h := Shmem.Hashx.int !h keys.(order.(j))
    done;
    for b = 0 to Array.length mem - 1 do
      h := Shmem.Value.hash_into f !h mem.(b)
    done;
    Shmem.Hashx.finish !h

  (* The lookup key of [c]'s canonical orbit representative, and the
     witness σ with representative = σ·c ([None] = identity).  Process
     slots are sorted by (renaming-invariant state key, memory first-mention
     rank, pid).  Both sort keys are invariant across the orbit, so every
     member maps to the same representative up to [canon_key] collisions —
     and a collision only loses collapse, never soundness (the
     representative is still a genuine orbit member, reached via the
     returned witness).  Only the n states are renamed here; the memory is
     hashed through σ and renamed by [Cfg_key.stored] on a fresh insert. *)
  let canonical t (c : E.config) : Cfg_key.t * int array option =
    match t.symfns with
    | None -> Cfg_key.Stored { h = E.hash_config c; c }, None
    | Some (canon_key, rename_state) ->
      let n = P.n in
      let rank = Array.make n max_int in
      ignore (mention_ranks c.E.mem rank);
      let keys = Array.map canon_key c.E.states in
      (* insertion sort on ints, stable, so ties stay in pid order *)
      let order = Array.init n Fun.id in
      for j = 1 to n - 1 do
        let p = order.(j) in
        let kp = keys.(p) and rp = rank.(p) in
        let i = ref (j - 1) in
        while
          !i >= 0
          &&
          let q = order.(!i) in
          keys.(q) > kp || (keys.(q) = kp && rank.(q) > rp)
        do
          order.(!i + 1) <- order.(!i);
          decr i
        done;
        order.(!i + 1) <- p
      done;
      if Obs.enabled () then
        Obs.Histogram.observe h_orbit (orbit_lower_bound keys rank order);
      let identity = ref true in
      Array.iteri (fun j p -> if j <> p then identity := false) order;
      if !identity then
        Cfg_key.Stored { h = sym_hash keys order c.E.mem Fun.id; c }, None
      else begin
        Obs.Counter.incr m_canon;
        let perm = Array.make n 0 in
        Array.iteri (fun j p -> perm.(p) <- j) order;
        let f = E.pid_map perm in
        let states = Array.map (fun p -> rename_state f c.E.states.(p)) order in
        let h = sym_hash keys order c.E.mem f in
        Cfg_key.View { h; states; mem = c.E.mem; perm }, Some perm
      end

  (* Hash-cons [c].  [frame] is the permutation mapping the caller's
     concrete parent configuration to the parent's stored representative
     (identity except under [walk] with reduction on): the parent step is
     renamed into that frame and the stored witness adjusted so the
     [trace_to] invariant holds.  The returned permutation maps THIS call's
     [c] to the stored representative — also on dedup hits, which is what
     [walk] needs to keep tracking its own frame. *)
  let intern_entry t ~parent ~frame c =
    let key, w = canonical t c in
    let parent =
      match parent, frame with
      | None, _ | _, None -> parent
      | Some (id, step), Some f ->
        Some (id, Shmem.Trace.rename_step (fun p -> f.(p)) step)
    in
    let witness = compose w (inv_opt frame) in
    let sh = Cfg_key.hash key mod t.nshards in
    let s = t.shards.(sh) in
    let id, fresh =
      locked s.lock (fun () ->
          match Cfg_tbl.find_opt s.index key with
          | Some slot -> (slot * t.nshards) + sh, false
          | None ->
            let key, config = Cfg_key.stored key in
            let e = { config; parent; witness } in
            let slot = s.len in
            if slot >= Array.length s.entries then begin
              let grown = Array.make (max 16 (2 * Array.length s.entries)) e in
              Array.blit s.entries 0 grown 0 s.len;
              s.entries <- grown
            end;
            s.entries.(slot) <- e;
            s.len <- slot + 1;
            Cfg_tbl.add s.index key slot;
            Atomic.incr t.total;
            (slot * t.nshards) + sh, true)
    in
    if fresh then Obs.Counter.incr m_interned else Obs.Counter.incr m_dedup;
    id, fresh, w

  let intern t ?parent c = intern_entry t ~parent ~frame:None c

  let create ?(shards = 1) ?(solo_cap = default_solo_cap) ?(sym = false)
      ?(por = false) ~inputs () =
    let nshards = max 1 shards in
    let c0 = E.initial ~inputs in
    let dummy = { config = c0; parent = None; witness = None } in
    let symfns =
      if not sym then None
      else
        match P.symmetry with
        | Shmem.Protocol.Asymmetric -> None
        | Shmem.Protocol.Anonymous { canon_key; rename } ->
          Some (canon_key, rename)
    in
    let t =
      { uid = Atomic.fetch_and_add next_uid 1
      ; shards =
          Array.init nshards (fun _ ->
              { index = Cfg_tbl.create 1024
              ; entries = Array.make 64 dummy
              ; len = 0
              ; lock = Mutex.create ()
              })
      ; nshards
      ; total = Atomic.make 0
      ; solo =
          Array.init nshards (fun _ ->
              { mids = Mem_tbl.create 1024
              ; verdicts = Verdict_tbl.create 1024
              ; solo_lock = Mutex.create ()
              })
      ; cap = solo_cap
      ; ins = Array.copy inputs
      ; root = 0 (* patched below *)
      ; symfns
      ; por
      }
    in
    let root, _, _ = intern t c0 in
    { t with root }

  let root t = t.root
  let inputs t = Array.copy t.ins
  let size t = Atomic.get t.total
  let solo_cap t = t.cap
  let sym_enabled t = Option.is_some t.symfns
  let por_enabled t = t.por

  let entry t id =
    let s = t.shards.(id mod t.nshards) in
    locked s.lock (fun () -> s.entries.(id / t.nshards))

  let config t id = (entry t id).config

  (* [trace_to_frame t id] is the concrete schedule reaching [id]'s orbit,
     paired with the final frame F (as a permutation array, [None] =
     identity) satisfying F·(stored config of [id]) = the concrete
     configuration the schedule reaches from [E.initial] — so a further
     step spelled in [id]'s canonical frame extends the schedule once
     renamed by F (that is [trace_via]). *)
  let trace_to_frame t id =
    let rec collect id acc =
      let e = entry t id in
      match e.parent with
      | None -> e.witness, acc
      | Some (parent, step) -> collect parent ((step, e.witness) :: acc)
    in
    let w0, edges = collect id [] in
    if Option.is_none w0 && List.for_all (fun (_, w) -> Option.is_none w) edges
    then List.map fst edges, None
    else begin
      (* Maintain F with F·(stored config) = the concrete configuration the
         emitted prefix reaches from [E.initial]: start at inv σ_root and
         compose F ∘ σ⁻¹ across each edge, renaming the stored step (spelled
         in the parent's canonical frame) by the parent's F. *)
      let f = ref (match w0 with None -> Array.init P.n Fun.id | Some s -> inv s)
      in
      let steps =
        List.map
          (fun (step, w) ->
            let cur = !f in
            let step' = Shmem.Trace.rename_step (E.pid_map cur) step in
            (match w with
            | None -> ()
            | Some s ->
              let is = inv s in
              f := Array.init P.n (fun j -> cur.(is.(j))));
            step')
          edges
      in
      steps, Some !f
    end

  let trace_to t id = fst (trace_to_frame t id)

  let trace_via t id step =
    let steps, frame = trace_to_frame t id in
    let step' =
      match frame with
      | None -> step
      | Some cur -> Shmem.Trace.rename_step (E.pid_map cur) step
    in
    steps @ [ step' ]

  (* ------------------------------------------------------ solo oracle *)

  let intern_mem t key =
    let sh = Mem_key.hash key mod t.nshards in
    let s = t.solo.(sh) in
    locked s.solo_lock (fun () ->
        match Mem_tbl.find_opt s.mids key with
        | Some mid -> mid
        | None ->
          let mid = (Mem_tbl.length s.mids * t.nshards) + sh in
          Mem_tbl.add s.mids (Mem_key.stored key) mid;
          mid)

  (* Key [mem] into [m].  Under symmetry reduction the memory is keyed as
     renamed to first-mention order, hashed and compared through that
     permutation and renamed only when it mints a new id; the permutation
     does not depend on which process is queried, so all n queries on a
     configuration share it. *)
  let fill t m mem =
    m.owner <- -1;
    let key =
      match t.symfns with
      | None ->
        let h = ref 19 in
        for b = 0 to Array.length mem - 1 do
          h := (!h * 31) + Shmem.Value.hash mem.(b)
        done;
        Mem_key.Stored { h = !h land max_int; mem }
      | Some _ ->
        if Array.length m.perm <> P.n then m.perm <- Array.make P.n max_int;
        let perm = m.perm in
        let mentioned = mention_ranks mem perm in
        let next = ref mentioned in
        for p = 0 to P.n - 1 do
          if perm.(p) = max_int then begin
            perm.(p) <- !next;
            incr next
          end
        done;
        m.mentioned <- mentioned;
        let f = E.pid_map perm in
        let h = ref Shmem.Hashx.seed in
        for b = 0 to Array.length mem - 1 do
          h := Shmem.Value.hash_into f !h mem.(b)
        done;
        Mem_key.View { h = Shmem.Hashx.finish !h; mem; perm }
    in
    m.mid <- intern_mem t key;
    m.mem <- mem;
    m.owner <- t.uid

  (* The key of the restriction [(st, m.mem)] of process [pid].  Under
     symmetry reduction [st] is renamed by the permutation g that agrees
     with [m.perm] on the pids the memory mentions, sends the owner [pid] to
     its mention rank or, when the memory does not mention it, to the first
     free rank, and the other unmentioned pids to the ranks after that in
     ascending order.  g is a bijection, so equal keys mean some π maps one
     restriction onto the other; solo runs of an anonymous protocol commute
     with renaming, so both restrictions have the same verdict. *)
  let restriction t m ~pid st =
    let st =
      match t.symfns with
      | None -> st
      | Some (_, rename_state) ->
        let perm = m.perm and mentioned = m.mentioned in
        let own = perm.(pid) in
        rename_state
          (fun p ->
            if p < 0 || p >= P.n then p
            else if p = pid then min own mentioned
            else
              let r = perm.(p) in
              if r >= mentioned && r < own then r + 1 else r)
          st
    in
    { Restriction.h = ((m.mid * 31) + P.hash_state st) land max_int
    ; mid = m.mid
    ; st
    }

  let verdict_shard t (k : Restriction.t) = t.solo.(k.Restriction.h mod t.nshards)

  let find_verdict t k =
    let s = verdict_shard t k in
    locked s.solo_lock (fun () -> Verdict_tbl.find_opt s.verdicts k)

  let record_verdict t k v =
    let s = verdict_shard t k in
    locked s.solo_lock (fun () -> Verdict_tbl.replace s.verdicts k v)

  (* A miss: run [pid] alone from [(st, mem)] on the restriction only — one
     state and one memory copy per step, no configuration, no trace —
     keying every position and stopping at the first one already known.
     If the run decides after l steps in all, position j gets its exact
     verdict [Some (l - j)] when that is within the cap and [None]
     otherwise.  A walk that runs out of cap records only its start: the
     later positions were not followed for a full cap.  A walk racing on
     another domain only repeats work, since verdicts are deterministic. *)
  let walk_solo t ~pid key st mem =
    let m = new_memo () in
    (* [keys] holds positions j, j - 1, …, 0, none of them known *)
    let settle keys j total =
      List.iteri
        (fun i k ->
          record_verdict t k
            (match total with
            | Some l when l - (j - i) <= t.cap -> Some (l - (j - i))
            | _ -> None))
        keys;
      match total with Some l when l <= t.cap -> total | _ -> None
    in
    let rec go j st mem keys =
      if Option.is_some (P.decision st) then settle keys j (Some j)
      else if j >= t.cap then begin
        record_verdict t key None;
        None
      end
      else begin
        let op = P.poised st in
        let b = op.Shmem.Op.obj in
        let v, resp = E.default_apply ~pid ~op ~current:mem.(b) in
        let mem' = Array.copy mem in
        mem'.(b) <- v;
        let st' = P.on_response st resp in
        fill t m mem';
        let k = restriction t m ~pid st' in
        match find_verdict t k with
        | Some known -> settle keys j (Option.map (fun r -> j + 1 + r) known)
        | None -> go (j + 1) st' mem' (k :: keys)
      end
    in
    go 0 st mem [ key ]

  let solo_steps_of t ~pid ~st ~mem =
    let m = Domain.DLS.get memo_key in
    if not (m.owner = t.uid && m.mem == mem) then fill t m mem;
    let key = restriction t m ~pid st in
    match find_verdict t key with
    | Some verdict ->
      Obs.Counter.incr m_solo_hits;
      verdict
    | None ->
      Obs.Counter.incr m_solo_misses;
      walk_solo t ~pid key st mem

  let solo_steps t ~pid (c : E.config) =
    solo_steps_of t ~pid ~st:c.E.states.(pid) ~mem:c.E.mem

  let solo_ok t ~pid c = solo_steps t ~pid c <> None

  (* ---------------------------------------------- partial-order reduction *)

  (* Two poised operations commute when they cannot influence each other's
     response: distinct objects, or both reads of the same object. *)
  let commuting_front c en =
    let ops = List.map (fun p -> E.poised c p) en in
    let commute (o : Shmem.Op.t) (o' : Shmem.Op.t) =
      o.Shmem.Op.obj <> o'.Shmem.Op.obj
      ||
      match o.Shmem.Op.action, o'.Shmem.Op.action with
      | Shmem.Op.Read, Shmem.Op.Read -> true
      | _, _ -> false
    in
    let rec pairwise = function
      | [] -> true
      | o :: rest -> List.for_all (commute o) rest && pairwise rest
    in
    pairwise ops

  let all_deciding c en =
    List.for_all
      (fun p ->
        let c', _ = E.step c p in
        Option.is_some (E.decision c' p))
      en

  (* The one reduction rule: when every enabled process's next step decides
     it and the poised operations pairwise commute, every interleaving of
     the front yields the same responses — hence the same decisions and
     final memory — and no intermediate configuration can exhibit a
     violation that the fully-stepped one (which IS visited) does not.
     Expanding only the least pid is therefore sound for agreement,
     validity and solo termination; see DESIGN.md for the argument. *)
  let expansion t c en =
    match en with
    | [] | [ _ ] -> en
    | p :: _ when t.por && commuting_front c en && all_deciding c en ->
      Obs.Counter.add m_por (List.length en - 1);
      [ p ]
    | _ -> en

  type verdict = Continue | Prune | Stop

  type visit = {
    id : id;
    config : E.config;
    depth : int;
    path : Shmem.Trace.t Lazy.t;
  }

  type stats = { visited : int; truncated : bool; stopped : bool }

  (* Every expanded edge, reported to [?on_step] observers as it is taken.
     During graph traversals [before]/[after] are spelled in [src]'s
     canonical frame (they are concrete when reduction is off); during
     [walk] they are the walk's own concrete configurations.  [dst] names
     [after]'s orbit representative; [fresh] is false on dedup hits. *)
  type step_obs = {
    src : id;
    before : E.config;
    step : Shmem.Trace.step;
    after : E.config;
    dst : id;
    fresh : bool;
  }

  (* Serial traversal generic over the frontier discipline.  The seed
     checker's loop is reproduced exactly: visit, then prune/budget, then
     expand enabled processes in ascending pid order. *)
  let traverse ~push ~pop t ?(max_configs = max_int) ?on_step ~visit () =
    push (t.root, 0);
    let visited = ref 0 and truncated = ref false and stopped = ref false in
    let rec loop () =
      match pop () with
      | None -> ()
      | Some (id, depth) ->
        let c = config t id in
        incr visited;
        Obs.Counter.incr m_visited;
        (match visit { id; config = c; depth; path = lazy (trace_to t id) } with
        | Stop -> stopped := true
        | Prune -> truncated := true
        | Continue ->
          if size t >= max_configs then truncated := true
          else
            List.iter
              (fun pid ->
                let c', step = E.step c pid in
                let id', fresh, _ = intern t ~parent:(id, step) c' in
                (match on_step with
                | None -> ()
                | Some f ->
                  f { src = id; before = c; step; after = c'; dst = id'; fresh });
                if fresh then push (id', depth + 1))
              (expansion t c (E.undecided c)));
        if not !stopped then loop ()
    in
    loop ();
    { visited = !visited; truncated = !truncated; stopped = !stopped }

  let bfs t ?max_configs ?on_step ~visit () =
    Obs.Span.time sp_bfs (fun () ->
        let q = Queue.create () in
        traverse
          ~push:(fun x -> Queue.push x q)
          ~pop:(fun () -> Queue.take_opt q)
          t ?max_configs ?on_step ~visit ())

  let dfs t ?max_configs ?on_step ~visit () =
    Obs.Span.time sp_dfs (fun () ->
        let st = ref [] in
        traverse
          ~push:(fun x -> st := x :: !st)
          ~pop:(fun () ->
            match !st with
            | [] -> None
            | x :: rest ->
              st := rest;
              Some x)
          t ?max_configs ?on_step ~visit ())

  (* Split [items] into [n] chunks of near-equal length. *)
  let chunks n items =
    let len = List.length items in
    let per = (len + n - 1) / n in
    let rec go acc cur cnt = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
        if cnt = per then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (cnt + 1) rest
    in
    go [] [] 0 items

  let bfs_parallel t ~domains ?(max_configs = max_int) ?on_step ~visit () =
    let visited = Atomic.make 0 in
    let truncated = Atomic.make false in
    let stopped = Atomic.make false in
    (* expand one slice of a frontier level, returning the fresh ids *)
    let expand slice =
      List.fold_left
        (fun acc (id, depth) ->
          if Atomic.get stopped then acc
          else begin
            let c = config t id in
            Atomic.incr visited;
            Obs.Counter.incr m_visited;
            match
              visit { id; config = c; depth; path = lazy (trace_to t id) }
            with
            | Stop ->
              Atomic.set stopped true;
              acc
            | Prune ->
              Atomic.set truncated true;
              acc
            | Continue ->
              if size t >= max_configs then begin
                Atomic.set truncated true;
                acc
              end
              else
                List.fold_left
                  (fun acc pid ->
                    let c', step = E.step c pid in
                    let id', fresh, _ = intern t ~parent:(id, step) c' in
                    (match on_step with
                    | None -> ()
                    | Some f ->
                      (* runs on worker domains: observers must be
                         thread-safe *)
                      f { src = id; before = c; step; after = c'; dst = id'
                        ; fresh
                        });
                    if fresh then (id', depth + 1) :: acc else acc)
                  acc
                  (expansion t c (E.undecided c))
          end)
        [] slice
    in
    (* Persistent worker pool: [domains - 1] spawned domains plus the
       caller, synchronised once per BFS level through a generation counter
       (spawning a domain per level costs more than expanding a whole small
       level).  Workers block on the condition variable between levels, so
       idle domains burn no cpu. *)
    let nworkers = max 0 (domains - 1) in
    let pool_lock = Mutex.create () in
    let pool_cond = Condition.create () in
    let slices = Array.make (max 1 nworkers) [] in
    let results = Array.make (max 1 nworkers) [] in
    let generation = ref 0 in
    let pending = ref 0 in
    let quit = ref false in
    let worker i =
      let my_gen = ref 0 in
      let rec serve () =
        Mutex.lock pool_lock;
        while !generation = !my_gen && not !quit do
          Condition.wait pool_cond pool_lock
        done;
        if !quit then Mutex.unlock pool_lock
        else begin
          my_gen := !generation;
          let slice = slices.(i) in
          Mutex.unlock pool_lock;
          let r = expand slice in
          Mutex.lock pool_lock;
          results.(i) <- r;
          decr pending;
          Condition.broadcast pool_cond;
          Mutex.unlock pool_lock;
          serve ()
        end
      in
      serve ()
    in
    let workers =
      Array.init nworkers (fun i -> Domain.spawn (fun () -> worker i))
    in
    let expand_level frontier =
      (* fan the level out to the pool; the caller expands its own slice
         while the workers run *)
      match chunks (nworkers + 1) frontier with
      | [] -> []
      | mine :: others ->
        let others = Array.of_list others in
        Mutex.lock pool_lock;
        for i = 0 to nworkers - 1 do
          slices.(i) <- (if i < Array.length others then others.(i) else []);
          results.(i) <- []
        done;
        pending := nworkers;
        incr generation;
        Condition.broadcast pool_cond;
        Mutex.unlock pool_lock;
        let here = expand mine in
        Mutex.lock pool_lock;
        while !pending > 0 do
          Condition.wait pool_cond pool_lock
        done;
        Mutex.unlock pool_lock;
        List.concat (here :: Array.to_list results)
    in
    let rec level frontier =
      if frontier <> [] && not (Atomic.get stopped) then begin
        (* the length is only worth computing when someone records it *)
        if Obs.enabled () then
          Obs.Histogram.observe h_frontier (List.length frontier);
        let next =
          (* below this size, level fan-out costs more than it saves *)
          if nworkers = 0 || List.length frontier < 4 * domains then
            expand frontier
          else expand_level frontier
        in
        level next
      end
    in
    Obs.Span.time sp_par (fun () -> level [ t.root, 0 ]);
    Mutex.lock pool_lock;
    quit := true;
    Condition.broadcast pool_cond;
    Mutex.unlock pool_lock;
    Array.iter Domain.join workers;
    { visited = Atomic.get visited
    ; truncated = Atomic.get truncated
    ; stopped = Atomic.get stopped
    }

  type walk_stop = Visit_stop | Visit_prune | Stuck | Max_steps

  type walk_result = { last : id; steps : int; stop : walk_stop }

  let walk t ~sched ?(enabled = E.undecided) ?on_step ~max_steps ~visit () =
    (* The walk runs over concrete configurations — schedulers and visitors
       see genuine states even under symmetry reduction — while each
       position is interned by canonical representative.  [sigma] maps the
       current concrete configuration to its stored representative, so the
       parent edge can be spelled in the parent's canonical frame as
       [trace_to] requires. *)
    let rec go id sigma c rev_steps i =
      Obs.Counter.incr m_visited;
      match
        visit { id; config = c; depth = i; path = lazy (List.rev rev_steps) }
      with
      | Stop -> { last = id; steps = i; stop = Visit_stop }
      | Prune -> { last = id; steps = i; stop = Visit_prune }
      | Continue ->
        if i >= max_steps then { last = id; steps = i; stop = Max_steps }
        else (
          match enabled c with
          | [] -> { last = id; steps = i; stop = Stuck }
          | en -> (
            match sched ~step_index:i c en with
            | None -> { last = id; steps = i; stop = Stuck }
            | Some pid ->
              let c', step = E.step c pid in
              let id', fresh, sigma' =
                intern_entry t ~parent:(Some (id, step)) ~frame:sigma c'
              in
              (match on_step with
              | None -> ()
              | Some f ->
                f { src = id; before = c; step; after = c'; dst = id'; fresh });
              go id' sigma' c' (step :: rev_steps) (i + 1)))
    in
    let c0 = E.initial ~inputs:t.ins in
    let sigma0 = (entry t t.root).witness in
    Obs.Span.time sp_walk (fun () -> go t.root sigma0 c0 [] 0)
end
