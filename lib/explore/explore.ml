(* A growable array. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable len : int }

  let create () = { a = [||]; len = 0 }
  let get v i = v.a.(i)

  let push v x =
    if v.len = Array.length v.a then begin
      let a = Array.make (max 16 (2 * v.len)) x in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  (* the last element, removed; the vector must not be empty *)
  let pop v =
    v.len <- v.len - 1;
    v.a.(v.len)
end

(* the hash of the ints [a.(o) … a.(o + len - 1)] *)
let hash_words (a : int array) o len =
  let h = ref Shmem.Hashx.seed in
  for i = o to o + len - 1 do
    h := Shmem.Hashx.int !h a.(i)
  done;
  Shmem.Hashx.finish !h

(* A vector of int records, [width] ints each, kept in chunks: chunk 0
   holds [1 lsl first_bits] records and each later chunk as many as all
   the chunks before it, until a chunk holds [1 lsl chunk_bits] records,
   the size of every chunk after it.  Growing allocates a chunk and never
   copies one, so a tiny vector stays tiny and a huge one never moves its
   records. *)
module Chunks = struct
  let first_bits = 4
  let chunk_bits = 12
  let doubling = chunk_bits - first_bits

  type t = { mutable width : int; chunks : int array Vec.t; mutable len : int }

  let create width = { width; chunks = Vec.create (); len = 0 }

  (* [bits.[r]] is the bit length of [r < 16]; a string literal, so
     static data and no heap *)
  let bits = "\000\001\002\002\003\003\003\003\004\004\004\004\004\004\004\004"

  (* the chunk of record [s]: below [1 lsl chunk_bits], the bit length of
     [s lsr first_bits] (less than 256), so 0 and then one more per
     doubling of [s] *)
  let chunk s =
    if s >= 1 lsl chunk_bits then (s lsr chunk_bits) + doubling
    else
      let r = s lsr first_bits in
      if r < 16 then Char.code bits.[r] else 4 + Char.code bits.[r lsr 4]

  (* the first record of chunk [k] *)
  let start k =
    if k = 0 then 0
    else if k <= doubling then 1 lsl (k + first_bits - 1)
    else (k - doubling) lsl chunk_bits

  (* the chunk holding record [s], and where in it the record starts *)
  let block v s = Vec.get v.chunks (chunk s)
  let offset v s = (s - start (chunk s)) * v.width

  (* append the record [x]; its index *)
  let push v (x : int array) =
    let s = v.len in
    let k = chunk s in
    if k = v.chunks.Vec.len then begin
      let records = if k = 0 then 1 lsl first_bits else start (k + 1) - start k in
      Vec.push v.chunks (Array.make (records * v.width) 0)
    end;
    v.len <- s + 1;
    Array.blit x 0 (block v s) (offset v s) v.width

  (* Rewrite every record as [width] ints: [f src o dst o'] writes the
     record at [src.(o)] into [dst.(o')], where [dst] is [src] itself when
     the width stays.  Chunk by chunk, so a wider record needs one new
     chunk at a time beside the records. *)
  let reshape v width f =
    for k = 0 to v.chunks.Vec.len - 1 do
      let c = Vec.get v.chunks k in
      let records = Array.length c / v.width in
      let c' = if width = v.width then c else Array.make (records * width) 0 in
      for s = 0 to min records (v.len - start k) - 1 do
        f c (s * v.width) c' (s * width)
      done;
      v.chunks.Vec.a.(k) <- c'
    done;
    v.width <- width
end

(* Ids are packed in pairs into one int key, so each must fit in 31 bits. *)
let max_ids = 1 lsl 31
let pack a b = (a lsl 31) lor b

(* the bits the non-negative [v] needs: none for 0 *)
let bits_of v =
  let b = ref 0 in
  while v lsr !b > 0 do
    incr b
  done;
  !b

(* A configuration record's layout over n + 3 fields: f < n the code of
   process f's state, f = n the code of the memory, [n + 1] the back-edge
   [parent id * n + pid] plus one (0 at the root), [n + 2] the witness's
   perm id plus one (0 = identity, always 0 unreduced).  Field f is
   [bits.(f)] wide, possibly 0, and [at.(f)] places it as [word lsl 6 lor
   shift] in [words] ints of 62 bits (so no word is negative, and
   [Shmem.Hashx.int], which drops bit 62, hashes every bit): the memory
   first, then the states in pid order, then the witness and the
   back-edge, each in the word so far if it still fits there and at the
   start of the next otherwise.  The key, the memory and the states, is in
   the first [kwords] ints, and [kmask] masks its bits in the last of them:
   the witness and the back-edge take the spare bits after it. *)
type packing = {
  bits : int array;
  at : int array;
  words : int;
  kwords : int;
  kmask : int;
}

let packing bits =
  let n = Array.length bits - 3 in
  let at = Array.make (n + 3) 0 in
  let word = ref 0 and used = ref 0 in
  let place f =
    if !used + bits.(f) > 62 then begin
      incr word;
      used := 0
    end;
    at.(f) <- (!word lsl 6) lor !used;
    used := !used + bits.(f)
  in
  place n;
  for p = 0 to n - 1 do
    place p
  done;
  let kwords = !word + 1 and kmask = (1 lsl !used) - 1 in
  place (n + 2);
  place (n + 1);
  { bits; at; words = !word + 1; kwords; kmask }

(* write the first [fields] of the values [v] into the record at
   [dst.(o)], whose other bits are cleared *)
let encode pk (v : int array) fields dst o =
  Array.fill dst o pk.words 0;
  for f = 0 to fields - 1 do
    let l = pk.at.(f) in
    let w = o + (l lsr 6) in
    dst.(w) <- dst.(w) lor (v.(f) lsl (l land 63))
  done

(* the value of field [f] of the record at [src.(o)] *)
let field pk (src : int array) o f =
  let l = pk.at.(f) in
  (src.(o + (l lsr 6)) lsr (l land 63)) land ((1 lsl pk.bits.(f)) - 1)

(* read the first [fields] values of the record at [src.(o)] into [v] *)
let decode pk src o fields (v : int array) =
  for f = 0 to fields - 1 do
    v.(f) <- field pk src o f
  done

(* the hash of the key bits of the record at [a.(o)] *)
let hash_key pk (a : int array) o =
  let last = o + pk.kwords - 1 in
  let h = ref Shmem.Hashx.seed in
  for i = o to last - 1 do
    h := Shmem.Hashx.int !h a.(i)
  done;
  Shmem.Hashx.finish (Shmem.Hashx.int !h (a.(last) land pk.kmask))

(* whether the records at [a.(o)] and [key.(0)] have the same key bits,
   compared from the last word *)
let equal_key pk (a : int array) o (key : int array) =
  let last = pk.kwords - 1 in
  (a.(o + last) lxor key.(last)) land pk.kmask = 0
  &&
  let i = ref (last - 1) in
  while !i >= 0 && a.(o + !i) = key.(!i) do
    decr i
  done;
  !i < 0

(* Hash-consing: each distinct value gets the next dense id.  Linear
   probing over [slots] (id + 1, 0 = empty; a power of two, at most half
   full), with every id's hash kept for probing and regrowth.  Lookups are
   exact: a hash match is confirmed by the caller's equality. *)
module Hc = struct
  type 'a t = { objs : 'a Vec.t; hashes : int Vec.t; mutable slots : int array }

  let create () =
    { objs = Vec.create (); hashes = Vec.create (); slots = Array.make 64 0 }

  let length t = t.objs.Vec.len
  let get t i = Vec.get t.objs i

  (* the id of a stored [o] with [equal o x], where [x] hashes to [h]; -1
     if there is none *)
  let find t equal h x =
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let i = ref (h land mask) and r = ref (-2) in
    while !r = -2 do
      let s = slots.(!i) in
      if s = 0 then r := -1
      else if t.hashes.Vec.a.(s - 1) = h && equal t.objs.Vec.a.(s - 1) x then
        r := s - 1
      else i := (!i + 1) land mask
    done;
    !r

  let place slots h id =
    let mask = Array.length slots - 1 in
    let i = ref (h land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1

  (* the id of [x], which [find] just missed *)
  let add t h x =
    let id = length t in
    if id >= max_ids then failwith "Explore: id space exhausted";
    Vec.push t.objs x;
    Vec.push t.hashes h;
    if 2 * (id + 1) > Array.length t.slots then begin
      let slots = Array.make (2 * Array.length t.slots) 0 in
      for j = 0 to id do
        place slots (Vec.get t.hashes j) j
      done;
      t.slots <- slots
    end
    else place t.slots h id;
    id
end

(* An int -> int map on non-negative keys, by linear probing. *)
module Imap = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable len : int;
  }

  let absent = min_int
  let create () = { keys = Array.make 64 (-1); vals = Array.make 64 0; len = 0 }

  (* where [k] is, or the empty slot where it would go *)
  let slot keys k =
    let mask = Array.length keys - 1 in
    let i = ref (Shmem.Hashx.finish k land mask) in
    while keys.(!i) <> k && keys.(!i) <> -1 do
      i := (!i + 1) land mask
    done;
    !i

  let find t k =
    let i = slot t.keys k in
    if t.keys.(i) = k then t.vals.(i) else absent

  let rec replace t k v =
    let i = slot t.keys k in
    if t.keys.(i) = k then t.vals.(i) <- v
    else if 2 * (t.len + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.len <- 0;
      Array.iteri (fun j k' -> if k' >= 0 then replace t k' vals.(j)) keys;
      replace t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.len <- t.len + 1
    end
end

(* An int array indexed by dense ids, grown on demand; -1 = not set. *)
module Dense = struct
  type t = { mutable d : int array }

  let create () = { d = [||] }
  let get t i = if i < Array.length t.d then t.d.(i) else -1

  let set t i x =
    if i >= Array.length t.d then begin
      let d = Array.make (max 64 (2 * (i + 1))) (-1) in
      Array.blit t.d 0 d 0 (Array.length t.d);
      t.d <- d
    end;
    t.d.(i) <- x
end

(* Dense codes for some of a table's ids, given out in the order [add]
   first meets them: [code] maps an id to its code (-1 = none) and [ids]
   a code back to its id. *)
module Codes = struct
  type t = { code : Dense.t; ids : int Vec.t }

  let create () = { code = Dense.create (); ids = Vec.create () }
  let length t = t.ids.Vec.len
  let code t id = Dense.get t.code id
  let id t c = Vec.get t.ids c

  (* [id]'s code, given the next one if it has none *)
  let add t id =
    match Dense.get t.code id with
    | -1 ->
      let c = length t in
      Dense.set t.code id c;
      Vec.push t.ids id;
      c
    | c -> c
end

(* The restriction table: per restriction, packed into one int key, the
   solo verdict from it and the process's step from it, in int arrays
   beside the keys (linear probing, as in [Imap]).  A process is a
   deterministic state machine that reads nothing but its state and the
   memory, so its step is a function of the restriction: the table keeps
   the ids of the state and the memory it leads to, as [pack next_sid
   next_mid], and the op and response are recomputed where a step is
   spelled out. *)
module Rtab = struct
  type t = {
    mutable keys : int array;
    mutable verdicts : int array;
        (* the solo steps to decide, -1 beyond the cap, [Imap.absent]
           before a solo walk *)
    mutable steps : int array;  (* -1 before a step *)
    mutable len : int;
  }

  let create () =
    { keys = Array.make 64 (-1)
    ; verdicts = Array.make 64 Imap.absent
    ; steps = Array.make 64 (-1)
    ; len = 0
    }

  let verdict t k =
    let i = Imap.slot t.keys k in
    if t.keys.(i) = k then t.verdicts.(i) else Imap.absent

  let step t k =
    let i = Imap.slot t.keys k in
    if t.keys.(i) = k then t.steps.(i) else -1

  (* [k]'s slot, added if the table has none *)
  let rec add t k =
    let i = Imap.slot t.keys k in
    if t.keys.(i) = k then i
    else if 2 * (t.len + 1) > Array.length t.keys then begin
      let keys = t.keys and verdicts = t.verdicts in
      let steps = t.steps and size = 2 * Array.length t.keys in
      t.keys <- Array.make size (-1);
      t.verdicts <- Array.make size Imap.absent;
      t.steps <- Array.make size (-1);
      t.len <- 0;
      Array.iteri
        (fun j k' ->
          if k' >= 0 then begin
            let i = add t k' in
            t.verdicts.(i) <- verdicts.(j);
            t.steps.(i) <- steps.(j)
          end)
        keys;
      add t k
    end
    else begin
      t.keys.(i) <- k;
      t.len <- t.len + 1;
      i
    end

  let set_verdict t k v = t.verdicts.(add t k) <- v

  let set_step t k s = t.steps.(add t k) <- s
end

(* the ids of the state and the memory a recorded step leads to *)
let next_sid s = s lsr 31
let next_mid s = s land (max_ids - 1)

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
  let m_step_hits = Obs.counter "explore.step.memo_hits"
  let m_step_misses = Obs.counter "explore.step.memo_misses"
  let m_canon = Obs.counter "explore.canon.renamed"
  let h_orbit = Obs.histogram "explore.canon.orbit_size"
  let sp_bfs = Obs.span "explore.bfs"
  let sp_dfs = Obs.span "explore.dfs"
  let sp_walk = Obs.span "explore.walk"

  let default_solo_cap = 64 * (Array.length P.objects + 1)

  (* The hash-consed pieces of configurations, each distinct value stored
     once under a dense id: process states, memories and permutations, and
     the memos that work on their ids.  A configuration is then the int
     array [sid_0 … sid_{n-1}; mid], and a restriction the int pair
     [pack sid mid]. *)
  type atoms = {
    states : P.state Hc.t;
    keys : int Vec.t;  (* symmetry mode: [canon_key] of each state id *)
    mems : Shmem.Value.t array Hc.t;
    ranks : int array Vec.t;
        (* symmetry mode: per memory id, the first-mention rank of each pid
           ([max_int] for unmentioned pids) *)
    perms : int array Hc.t;
    renamed : Imap.t;  (* pack (state id, perm id) -> the renamed state's id *)
    renamed_mems : Imap.t;  (* pack (memory id, perm id) -> likewise *)
    solo_mems : Dense.t;  (* memory id -> its first-mention form's id *)
    solo_perms : Dense.t;
        (* memory id * n + pid -> the owner-at-rank permutation's id *)
    restrictions : Rtab.t;  (* keyed by pack (state id, memory id) *)
  }

  (* The store is one chunked int vector, [records], indexed by id: per
     configuration one record bit-packed by [packing] (see there) that
     holds its ids [sid_0 … sid_{n-1}; mid] (under symmetry reduction those
     of the canonical orbit representative ĉ) as dense codes, its
     back-edge [parent id * n + pid] and, under symmetry reduction, the
     perm id of the witness σ with ĉ = σ·c for the configuration c first
     reached along that edge.  A state or memory gets its code from
     [scodes] or [mcodes] the first time a stored record holds it, so the
     states and memories only a solo walk or a renaming met take no code
     and widen no field.  The edge's step is not stored: it is spelled in
     the {e parent's} canonical frame, so it is [pid]'s step from the
     parent's restriction, which [trace_to] recomputes from the parent's
     state and memory and renames through the composed inverse witnesses.
     [index] hash-conses the records on their key bits, the codes, by
     linear probing (id + 1, 0 = empty; a power of two, at most half
     full); no hash is kept, a rehash recomputes each from the key words.
     When a value to store no longer fits its field, [fit] widens the
     field, re-encodes every record if the layout moved and rebuilds the
     index if the key did.  [key] holds the record being interned or read,
     [fields] its values.

     [cur_mem] and [cur_ids] are the cursor: the memory array of the
     configuration a visitor is looking at and its ids [sid_0 … sid_{n-1};
     mid] (a state id of -1 is not known), kept where the solo oracle
     finds them.  [materialise] points it at the configuration it builds,
     so a query on that memory array reads its ids instead of hashing; a
     query recognises the memory by physical identity and a state by
     physical identity with the table's state object for its slot's id,
     and anything else is hashed and interned.

     [sort_keys], [order], [perm] and [canon] are [canonical]'s buffers. *)
  type t = {
    records : Chunks.t;
    mutable index : int array;
    mutable packing : packing;
    mutable key : int array;
    fields : int array;
    scodes : Codes.t;
    mcodes : Codes.t;
    atoms : atoms;
    mutable cur_mem : Shmem.Value.t array;
    mutable cur_ids : int array;
    cap : int;
    ins : int array;
    symfns : ((P.state -> int) * ((int -> int) -> P.state -> P.state)) option;
    sort_keys : int array;
    order : int array;
    perm : int array;
    canon : int array;
  }

  (* ------------------------------------------------------ permutations *)

  let inv sigma =
    let r = Array.make (Array.length sigma) 0 in
    Array.iteri (fun p j -> r.(j) <- p) sigma;
    r

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

  (* n! / ∏ (size of each equal-(rank, key) class)! — a lower bound on the
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

  (* ------------------------------------------------------------- atoms *)

  let equal_ints (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    !i = n

  (* stepping copies the memory array but shares the untouched values, so
     equal memories mostly hold physically equal values *)
  let equal_mem (a : Shmem.Value.t array) b =
    let n = Array.length a in
    let i = ref 0 in
    while !i < n && (a.(!i) == b.(!i) || Shmem.Value.equal a.(!i) b.(!i)) do
      incr i
    done;
    !i = n

  let hash_mem mem =
    let h = ref Shmem.Hashx.seed in
    for b = 0 to Array.length mem - 1 do
      h := Shmem.Value.hash_into !h mem.(b)
    done;
    Shmem.Hashx.finish !h

  let state_id t st =
    let a = t.atoms in
    let h = Shmem.Hashx.finish (P.hash_state st) in
    match Hc.find a.states P.equal_state h st with
    | -1 ->
      (match t.symfns with
      | Some (canon_key, _) -> Vec.push a.keys (canon_key st)
      | None -> ());
      Hc.add a.states h st
    | sid -> sid

  let mem_id t mem =
    let a = t.atoms in
    let h = hash_mem mem in
    match Hc.find a.mems equal_mem h mem with
    | -1 ->
      if Option.is_some t.symfns then begin
        let rank = Array.make P.n max_int in
        ignore (mention_ranks mem rank);
        Vec.push a.ranks rank
      end;
      Hc.add a.mems h mem
    | mid -> mid

  (* the id of [perm], which may be a buffer: the table keeps a copy *)
  let perm_id t perm =
    let a = t.atoms in
    let h = hash_words perm 0 (Array.length perm) in
    match Hc.find a.perms equal_ints h perm with
    | -1 -> Hc.add a.perms h (Array.copy perm)
    | pm -> pm

  (* the id of state [sid] renamed by permutation [pm] *)
  let renamed_state t sid pm =
    let a = t.atoms in
    let k = pack sid pm in
    match Imap.find a.renamed k with
    | r when r <> Imap.absent -> r
    | _ ->
      let rename_state =
        match t.symfns with Some (_, r) -> r | None -> assert false
      in
      let f = E.pid_map (Hc.get a.perms pm) in
      let r = state_id t (rename_state f (Hc.get a.states sid)) in
      Imap.replace a.renamed k r;
      r

  (* the id of memory [mid] renamed by permutation [pm] *)
  let renamed_mem t mid pm =
    let a = t.atoms in
    let k = pack mid pm in
    match Imap.find a.renamed_mems k with
    | r when r <> Imap.absent -> r
    | _ ->
      let f = E.pid_map (Hc.get a.perms pm) in
      let r = mem_id t (Array.map (Shmem.Value.rename f) (Hc.get a.mems mid)) in
      Imap.replace a.renamed_mems k r;
      r

  (* the ids of [c]'s states and memory *)
  let raw_ids t (c : E.config) =
    let ids = Array.make (P.n + 1) 0 in
    for p = 0 to P.n - 1 do
      ids.(p) <- state_id t c.E.states.(p)
    done;
    ids.(P.n) <- mem_id t c.E.mem;
    ids

  (* The ids of the canonical orbit representative of the configuration
     with ids [raw], and the perm id of the witness σ with representative
     = σ·c (-1 = identity).  Process slots are sorted by
     (memory first-mention rank, renaming-invariant state key, pid).  Both
     sort keys are invariant across the orbit, so every member maps to the
     same representative up to [canon_key] collisions — and a collision
     only loses collapse, never soundness (the representative is still a
     genuine orbit member, reached via the returned witness).  Ranks are
     distinct among the m pids the memory mentions, so rank first puts
     them in slots 0..m−1 in mention order: the stored memory is in
     first-mention form, the solo oracle's frame, and each restriction
     orbit reaches the step table in one frame.  Only the unmentioned
     pids, all of rank [max_int], are ordered by key.  The renamed states
     and memory come from memos keyed on (id, permutation id), so a
     renaming seen before costs no hashing.  The sort and the renamed ids
     use the store's buffers: the ids returned are [raw] or [t.canon],
     valid until the next call. *)
  let canonical t raw =
    match t.symfns with
    | None -> raw, -1
    | Some _ ->
      let a = t.atoms and n = P.n in
      let rank = Vec.get a.ranks raw.(n) in
      let keys = t.sort_keys and order = t.order in
      for p = 0 to n - 1 do
        keys.(p) <- Vec.get a.keys raw.(p);
        order.(p) <- p
      done;
      (* insertion sort on ints, stable, so ties stay in pid order *)
      for j = 1 to n - 1 do
        let p = order.(j) in
        let kp = keys.(p) and rp = rank.(p) in
        let i = ref (j - 1) in
        while
          !i >= 0
          &&
          let q = order.(!i) in
          rank.(q) > rp || (rank.(q) = rp && keys.(q) > kp)
        do
          order.(!i + 1) <- order.(!i);
          decr i
        done;
        order.(!i + 1) <- p
      done;
      if Obs.enabled () then
        Obs.Histogram.observe h_orbit (orbit_lower_bound keys rank order);
      let j = ref 0 in
      while !j < n && order.(!j) = !j do
        incr j
      done;
      if !j = n then raw, -1
      else begin
        Obs.Counter.incr m_canon;
        let perm = t.perm in
        for j = 0 to n - 1 do
          perm.(order.(j)) <- j
        done;
        let pm = perm_id t perm in
        let ids = t.canon in
        for j = 0 to n - 1 do
          ids.(j) <- renamed_state t raw.(order.(j)) pm
        done;
        ids.(n) <- renamed_mem t raw.(n) pm;
        ids, pm
      end

  (* the perm id of σ ∘ f⁻¹, for σ the permutation [pm] (-1 = identity) *)
  let compose_inv t pm f =
    let fi = inv f in
    let r =
      if pm < 0 then fi
      else
        let sigma = Hc.get t.atoms.perms pm in
        Array.map (fun j -> sigma.(j)) fi
    in
    let identity = ref true in
    Array.iteri (fun p j -> if p <> j then identity := false) r;
    if !identity then -1 else perm_id t r

  (* the permutation [pm] as an array, [None] for -1 (the identity) *)
  let perm_of t pm =
    if pm < 0 then None
    else Some (Hc.get t.atoms.perms pm)

  let size t = t.records.Chunks.len
  let record_words t = t.packing.words

  (* place every stored record in [index], which is empty *)
  let reindex t index =
    let r = t.records and pk = t.packing in
    for j = 0 to size t - 1 do
      Hc.place index (hash_key pk (Chunks.block r j) (Chunks.offset r j)) j
    done

  (* Widen the fields that the values in [fields], about to be stored,
     no longer fit.  A field only ever widens, to the bits its largest
     value needs.  When every field keeps its place, the bits a field
     gains were clear in every record, so the records stand as they are;
     otherwise every record is re-encoded in the new packing.  The key's
     place depends only on the state and memory widths, so the index is
     rebuilt, as a rehash does, only when one of those widens.  This is
     rare and O(size) each time: the n=9, lap-3 check widens 45 times and
     re-encodes 26 times. *)
  let fit t =
    let pk = t.packing and f = t.fields and n = P.n in
    let scode = Codes.length t.scodes - 1 and mcode = Codes.length t.mcodes - 1 in
    let b = pk.bits in
    if
      scode lsr b.(0) <> 0
      || mcode lsr b.(n) <> 0
      || f.(n + 1) lsr b.(n + 1) <> 0
      || f.(n + 2) lsr b.(n + 2) <> 0
    then begin
      let need i v = max pk.bits.(i) (bits_of v) in
      let sbits = need 0 scode and mbits = need n mcode in
      let bits = Array.make (n + 3) sbits in
      bits.(n) <- mbits;
      bits.(n + 1) <- need (n + 1) f.(n + 1);
      bits.(n + 2) <- need (n + 2) f.(n + 2);
      let pk' = packing bits in
      if pk'.at <> pk.at || pk'.words <> pk.words then begin
        let v = Array.make (n + 3) 0 in
        Chunks.reshape t.records pk'.words (fun src o dst o' ->
            decode pk src o (n + 3) v;
            encode pk' v (n + 3) dst o')
      end;
      t.packing <- pk';
      t.key <- Array.make pk'.words 0;
      if sbits <> pk.bits.(0) || mbits <> pk.bits.(n) then begin
        Array.fill t.index 0 (Array.length t.index) 0;
        reindex t t.index
      end
    end

  (* the id of the configuration whose key is in [key], which hashes to
     [h]; -1 if the store has none *)
  let find t h key =
    let index = t.index and r = t.records and pk = t.packing in
    let mask = Array.length index - 1 in
    let i = ref (h land mask) and res = ref (-2) in
    while !res = -2 do
      let x = index.(!i) in
      if x = 0 then res := -1
      else if equal_key pk (Chunks.block r (x - 1)) (Chunks.offset r (x - 1)) key
      then res := x - 1
      else i := (!i + 1) land mask
    done;
    !res

  (* append the configuration with ids [ids], which the store does not
     hold, with the back-edge and witness in [fields]; its id.  [h] is the
     key's hash when the probe computed it (-1 otherwise): every code was
     then known, so [fit] widens no key field and the hash still holds. *)
  let add t ~h ids =
    let id = size t in
    if id >= max_ids then failwith "Explore: id space exhausted";
    let f = t.fields and n = P.n in
    for p = 0 to n - 1 do
      if f.(p) < 0 then f.(p) <- Codes.add t.scodes ids.(p)
    done;
    if f.(n) < 0 then f.(n) <- Codes.add t.mcodes ids.(n);
    fit t;
    let pk = t.packing and key = t.key in
    encode pk f (n + 3) key 0;
    Chunks.push t.records key;
    if 2 * (id + 1) > Array.length t.index then begin
      let index = Array.make (2 * Array.length t.index) 0 in
      reindex t index;
      t.index <- index
    end
    else Hc.place t.index (if h >= 0 then h else hash_key pk key 0) id;
    id

  (* Hash-cons the configuration with ids [raw], which is not kept.
     [edge] is its back-edge, [parent id * n + pid] (-1 for none), recorded
     only on a fresh insert.  [frame] is the permutation mapping the
     caller's concrete parent configuration to the parent's stored
     representative (identity except under [walk] with reduction on): the
     edge's pid must already be renamed into that frame, and the stored
     witness is adjusted so the [trace_to] invariant holds.  Returns the
     id, whether it is fresh, and the perm id of the permutation mapping
     THIS configuration to the stored representative — also on dedup hits,
     which is what [walk] needs to keep tracking its own frame.  A state or
     memory with no code is in no stored record, so the configuration is
     fresh without probing. *)
  let intern_entry t ~edge ~frame raw =
    let ids, pm = canonical t raw in
    let n = P.n and f = t.fields in
    let known = ref true in
    for p = 0 to n - 1 do
      let c = Codes.code t.scodes ids.(p) in
      if c < 0 then known := false;
      f.(p) <- c
    done;
    f.(n) <- Codes.code t.mcodes ids.(n);
    let h =
      if !known && f.(n) >= 0 then begin
        let pk = t.packing and key = t.key in
        encode pk f (n + 1) key 0;
        hash_key pk key 0
      end
      else -1
    in
    let id = if h >= 0 then find t h t.key else -1 in
    if id >= 0 then begin
      Obs.Counter.incr m_dedup;
      id, false, pm
    end
    else begin
      Obs.Counter.incr m_interned;
      f.(n + 1) <- edge + 1;
      f.(n + 2) <-
        (match frame with None -> pm | Some fr -> compose_inv t pm fr) + 1;
      add t ~h ids, true, pm
    end

  let intern t ?parent c =
    let raw = raw_ids t c in
    let edge =
      match parent with
      | Some (src, step) -> (src * P.n) + step.Shmem.Trace.pid
      | None -> -1
    in
    let id, fresh, pm = intern_entry t ~edge ~frame:None raw in
    id, fresh, perm_of t pm

  let create ?(solo_cap = default_solo_cap) ?(sym = false) ?por:_ ~inputs
      () =
    let c0 = E.initial ~inputs in
    let symfns =
      if not sym then None
      else
        match P.symmetry with
        | Shmem.Protocol.Asymmetric -> None
        | Shmem.Protocol.Anonymous { canon_key; rename } ->
          Some (canon_key, rename)
    in
    let pk = packing (Array.make (P.n + 3) 0) in
    let t =
      { records = Chunks.create pk.words
      ; index = Array.make 64 0
      ; packing = pk
      ; key = Array.make pk.words 0
      ; fields = Array.make (P.n + 3) 0
      ; scodes = Codes.create ()
      ; mcodes = Codes.create ()
      ; atoms =
          { states = Hc.create ()
          ; keys = Vec.create ()
          ; mems = Hc.create ()
          ; ranks = Vec.create ()
          ; perms = Hc.create ()
          ; renamed = Imap.create ()
          ; renamed_mems = Imap.create ()
          ; solo_mems = Dense.create ()
          ; solo_perms = Dense.create ()
          ; restrictions = Rtab.create ()
          }
        (* a fresh array, so no query's memory is physically it *)
      ; cur_mem = Array.make 1 Shmem.Value.Unit
      ; cur_ids = [||]
      ; cap = solo_cap
      ; ins = Array.copy inputs
      ; symfns
      ; sort_keys = Array.make P.n 0
      ; order = Array.make P.n 0
      ; perm = Array.make P.n 0
      ; canon = Array.make (P.n + 1) 0
      }
    in
    ignore (intern t c0);
    t

  (* the first configuration interned *)
  let root _ = 0
  let inputs t = Array.copy t.ins
  let solo_cap t = t.cap
  let sym_enabled t = Option.is_some t.symfns

  let never_issued id =
    invalid_arg (Printf.sprintf "Explore: id %d was never issued" id)

  (* Check that the store issued [id]: an id past its length is spare
     chunk capacity, not a configuration. *)
  let locate t id = if id < 0 || id >= size t then never_issued id

  (* decode [id]'s ids into [dst] *)
  let read_ids t id dst =
    locate t id;
    let n = P.n and r = t.records in
    decode t.packing (Chunks.block r id) (Chunks.offset r id) (n + 1) dst;
    for p = 0 to n - 1 do
      dst.(p) <- Codes.id t.scodes dst.(p)
    done;
    dst.(n) <- Codes.id t.mcodes dst.(n)

  (* [id]'s back-edge and its witness's perm id, -1 for none *)
  let back_edge t id =
    locate t id;
    let pk = t.packing and r = t.records and n = P.n in
    let c = Chunks.block r id and o = Chunks.offset r id in
    field pk c o (n + 1) - 1, field pk c o (n + 2) - 1

  (* The configuration with ids [ids], built from the tables' own objects. *)
  let build t ids =
    let a = t.atoms and n = P.n in
    let states = Array.make n (Hc.get a.states ids.(0)) in
    for p = 1 to n - 1 do
      states.(p) <- Hc.get a.states ids.(p)
    done;
    E.shared_config ~states ~mem:(Hc.get a.mems ids.(n))

  (* [build], with the cursor pointed at the result: [ids] must not change
     while the cursor holds it *)
  let materialise t ids =
    let c = build t ids in
    t.cur_mem <- c.E.mem;
    t.cur_ids <- ids;
    c

  let config t id =
    let ids = Array.make (P.n + 1) 0 in
    read_ids t id ids;
    materialise t ids

  (* ---------------------------------------------------- restriction steps *)

  (* [pid]'s recorded step from the configuration with ids [ids]: the entry
     of the restriction [(ids.(pid), ids.(n))], -1 if it was never stepped *)
  let recorded_step t ids pid =
    Rtab.step t.atoms.restrictions (pack ids.(pid) ids.(P.n))

  (* [pid]'s step from [c], whose ids are [ids], run by [E.step]; the
     stepped memory and state are interned and the step recorded *)
  let record_step t (c : E.config) ids pid =
    let c', _ = E.step c pid in
    let mid = mem_id t c'.E.mem in
    let s = pack (state_id t c'.E.states.(pid)) mid in
    Rtab.set_step t.atoms.restrictions (pack ids.(pid) ids.(P.n)) s;
    s

  (* [pid]'s step from the configuration [c], whose ids are [ids]: a table
     lookup, and only a miss runs [E.step] *)
  let step_memo t (c : E.config) ids pid =
    match recorded_step t ids pid with
    | -1 ->
      Obs.Counter.incr m_step_misses;
      record_step t c ids pid
    | s ->
      Obs.Counter.incr m_step_hits;
      s

  (* write into [dst] the ids of the configuration [pid]'s recorded step
     [s] leads to from the one with ids [ids] *)
  let successor_into dst ids pid s =
    Array.blit ids 0 dst 0 (P.n + 1);
    dst.(pid) <- next_sid s;
    dst.(P.n) <- next_mid s

  (* [pid]'s step from its state [st] on the memory [mem], computed as
     [E.step] computes it: the op [st] is poised on and the response that op
     gets from its object *)
  let spell pid st (mem : Shmem.Value.t array) =
    let op = P.poised st in
    let _, resp = E.default_apply ~pid ~op ~current:mem.(op.Shmem.Op.obj) in
    { Shmem.Trace.pid; op; resp }

  (* The configuration [step], recorded as [s], leads to from [c]: the
     tables' stepped state and written value, and [c]'s other states and
     values, physically, as [E.step] shares them (observers may find the
     changed sites by physical inequality). *)
  let stepped_config t (c : E.config) (step : Shmem.Trace.step) s =
    let states = Array.copy c.E.states and mem = Array.copy c.E.mem in
    let b = step.op.Shmem.Op.obj in
    states.(step.pid) <- Hc.get t.atoms.states (next_sid s);
    mem.(b) <- (Hc.get t.atoms.mems (next_mid s)).(b);
    E.shared_config ~states ~mem

  (* The step of the back-edge [edge] = [parent * n + pid], spelled in the
     parent's stored frame: [pid]'s step from the parent's state and
     memory. *)
  let rebuild_step t edge =
    let pid = edge mod P.n and ids = Array.make (P.n + 1) 0 in
    read_ids t (edge / P.n) ids;
    spell pid (Hc.get t.atoms.states ids.(pid)) (Hc.get t.atoms.mems ids.(P.n))

  (* [trace_to_frame t id] is the concrete schedule reaching [id]'s orbit,
     paired with the final frame F (as a permutation array, [None] =
     identity) satisfying F·(stored config of [id]) = the concrete
     configuration the schedule reaches from [E.initial] — so a further
     step spelled in [id]'s canonical frame extends the schedule once
     renamed by F (that is [trace_via]). *)
  let trace_to_frame t id =
    let rec collect id acc =
      match back_edge t id with
      | -1, w -> w, acc
      | edge, w -> collect (edge / P.n) ((rebuild_step t edge, w) :: acc)
    in
    let w0, edges = collect id [] in
    if w0 < 0 && List.for_all (fun (_, w) -> w < 0) edges then
      List.map fst edges, None
    else begin
      let inv_perm pm = inv (Option.get (perm_of t pm)) in
      (* Maintain F with F·(stored config) = the concrete configuration the
         emitted prefix reaches from [E.initial]: start at inv σ_root and
         compose F ∘ σ⁻¹ across each edge, renaming the rebuilt step
         (spelled in the parent's canonical frame) by the parent's F. *)
      let f = ref (if w0 < 0 then Array.init P.n Fun.id else inv_perm w0) in
      let steps =
        List.map
          (fun (step, w) ->
            let cur = !f in
            let step' = Shmem.Trace.rename_step (E.pid_map cur) step in
            if w >= 0 then begin
              let is = inv_perm w in
              f := Array.init P.n (fun j -> cur.(is.(j)))
            end;
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

  (* A memory's first-mention order π from its first-mention [rank]s,
     which [mention_ranks] wrote and this overwrites: the unmentioned pids
     take the ranks after the [mentioned] ones, ascending. *)
  let first_mention rank mentioned =
    let next = ref mentioned in
    for p = 0 to P.n - 1 do
      if rank.(p) = max_int then begin
        rank.(p) <- !next;
        incr next
      end
    done;
    rank

  (* the owner-at-rank permutation g of process [pid] *)
  let owner_at_rank perm mentioned pid =
    let own = perm.(pid) in
    Array.init P.n (fun p ->
        if p = pid then min own mentioned
        else
          let r = perm.(p) in
          if r >= mentioned && r < own then r + 1 else r)

  (* memory [mid]'s first-mention order and how many pids it mentions *)
  let memory_order t mid =
    let rank = Array.copy (Vec.get t.atoms.ranks mid) in
    let mentioned =
      Array.fold_left (fun m r -> if r < max_int then m + 1 else m) 0 rank
    in
    first_mention rank mentioned, mentioned

  (* The solo oracle.  A solo execution of a process reads only its own
     state and the memory, so verdicts are keyed by that restriction,
     packed into one int: the ids of the state and the memory.  Under
     symmetry reduction the memory is renamed to first-mention order π
     (mentioned pids by rank, then the unmentioned ones ascending) and the
     state by the permutation g that agrees with π on the pids the memory
     mentions, sends the owner [pid] to its mention rank or, when the
     memory does not mention it, to the first free rank, and the other
     unmentioned pids to the ranks after that in ascending order.  g is a
     bijection, so equal keys mean some permutation maps one restriction
     onto the other; solo runs of an anonymous protocol commute with
     renaming, so both restrictions have the same verdict.  The memory's
     form is memoized per memory id and g per (memory id, pid), in arrays
     indexed by the dense ids, so a key costs a few array reads. *)
  let solo_key t ~pid sid mid =
    match t.symfns with
    | None -> pack sid mid
    | Some _ ->
      let a = t.atoms in
      let smid =
        match Dense.get a.solo_mems mid with
        | -1 ->
          let perm, _ = memory_order t mid in
          let r = renamed_mem t mid (perm_id t perm) in
          Dense.set a.solo_mems mid r;
          r
        | r -> r
      in
      let gk = (mid * P.n) + pid in
      let g =
        match Dense.get a.solo_perms gk with
        | -1 ->
          let perm, mentioned = memory_order t mid in
          let r = perm_id t (owner_at_rank perm mentioned pid) in
          Dense.set a.solo_perms gk r;
          r
        | r -> r
      in
      pack (renamed_state t sid g) smid

  (* The key of [pid]'s restriction [(st, mem)], reading the ids from the
     cursor when it holds these arrays and interning them otherwise; an
     unknown memory replaces the cursor's configuration. *)
  let query_key t pid st mem =
    if t.cur_mem != mem then begin
      let ids = Array.make (P.n + 1) (-1) in
      ids.(P.n) <- mem_id t mem;
      t.cur_mem <- mem;
      t.cur_ids <- ids
    end;
    let known = t.cur_ids.(pid) in
    let sid =
      if known >= 0 && Hc.get t.atoms.states known == st then known
      else state_id t st
    in
    solo_key t ~pid sid t.cur_ids.(P.n)

  (* The key of a position of a solo walk, which is seldom met again:
     under symmetry reduction only the renamed forms the key names are
     interned, not [st] and [mem] themselves. *)
  let walk_key t (pid, st) mem =
    match t.symfns with
    | None -> pack (state_id t st) (mem_id t mem)
    | Some (_, rename_state) ->
      let rank = Array.make P.n max_int in
      let mentioned = mention_ranks mem rank in
      let perm = first_mention rank mentioned in
      let smid =
        mem_id t (Array.map (Shmem.Value.rename (E.pid_map perm)) mem)
      in
      let g = owner_at_rank perm mentioned pid in
      pack (state_id t (rename_state (E.pid_map g) st)) smid

  (* Verdicts live in the restriction table, under the solo key's
     restriction: the pair itself, or its renamed form under symmetry. *)
  let find_verdict t k = Rtab.verdict t.atoms.restrictions k
  let record_verdict t k v = Rtab.set_verdict t.atoms.restrictions k v

  let decode v = if v < 0 then None else Some v

  (* A miss: run [pid] alone from [(st, mem)] on the restriction only — one
     state and one memory copy per step, no configuration, no trace —
     keying every position and stopping at the first one already known.
     If the run decides after l steps in all, position j gets its exact
     verdict [Some (l - j)] when that is within the cap and [None]
     otherwise.  A walk that runs out of cap records only its start: the
     later positions were not followed for a full cap. *)
  let walk_solo t ~pid key st mem =
    (* [keys] holds positions j, j - 1, …, 0, none of them known *)
    let settle keys j total =
      List.iteri
        (fun i k ->
          record_verdict t k
            (match total with
            | Some l when l - (j - i) <= t.cap -> l - (j - i)
            | _ -> -1))
        keys;
      match total with Some l when l <= t.cap -> total | _ -> None
    in
    let rec go j st mem keys =
      if Option.is_some (P.decision st) then settle keys j (Some j)
      else if j >= t.cap then begin
        record_verdict t key (-1);
        None
      end
      else begin
        let op = P.poised st in
        let b = op.Shmem.Op.obj in
        let v, resp = E.default_apply ~pid ~op ~current:mem.(b) in
        let mem' = Array.copy mem in
        mem'.(b) <- v;
        let st' = P.on_response st resp in
        let k = walk_key t (pid, st') mem' in
        match find_verdict t k with
        | v when v <> Imap.absent ->
          settle keys j (Option.map (fun r -> j + 1 + r) (decode v))
        | _ -> go (j + 1) st' mem' (k :: keys)
      end
    in
    go 0 st mem [ key ]

  let solo_steps_of t ~pid ~st ~mem =
    let key = query_key t pid st mem in
    match find_verdict t key with
    | v when v <> Imap.absent ->
      Obs.Counter.incr m_solo_hits;
      decode v
    | _ ->
      Obs.Counter.incr m_solo_misses;
      walk_solo t ~pid key st mem

  let solo_steps t ~pid (c : E.config) =
    solo_steps_of t ~pid ~st:c.E.states.(pid) ~mem:c.E.mem

  let solo_ok t ~pid c = solo_steps t ~pid c <> None

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

  (* Expand the edge by [pid] out of the visited configuration [c], whose
     id is [id] and ids [ids]: intern the successor, whose ids are built in
     [succ], and report the edge to [on_step].  Returns the
     successor's id when it is fresh, -1 on a dedup hit. *)
  let expand_edge t on_step id c ids succ pid =
    let s = step_memo t c ids pid in
    successor_into succ ids pid s;
    let id', fresh, _ =
      intern_entry t ~edge:((id * P.n) + pid) ~frame:None succ
    in
    (match on_step with
    | None -> ()
    | Some f ->
      let step = spell pid c.E.states.(pid) c.E.mem in
      f
        { src = id
        ; before = c
        ; step
        ; after = stepped_config t c step s
        ; dst = id'
        ; fresh
        });
    if fresh then id' else -1

  (* Serial traversal generic over the frontier discipline.  The seed
     checker's loop is reproduced exactly: visit, then prune/budget, then
     expand enabled processes in ascending pid order.  The frontier is
     given by [pop], which returns the next configuration to visit as
     [pack depth id] (-1 when there is none), and [push], which is handed
     each fresh successor the same way.  The visited configuration's ids
     are read from the store into [pids], and each successor's built in
     [succ]: the loop owns both buffers. *)
  let traverse ~push ~pop t ?(max_configs = max_int) ?on_step ~visit () =
    let visited = ref 0 and truncated = ref false and stopped = ref false in
    let pids = Array.make (P.n + 1) 0 and succ = Array.make (P.n + 1) 0 in
    let rec loop () =
      match pop () with
      | -1 -> ()
      | x ->
        let id = x land (max_ids - 1) and depth = x lsr 31 in
        read_ids t id pids;
        let c = materialise t pids in
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
                let id' = expand_edge t on_step id c pids succ pid in
                if id' >= 0 then push (pack (depth + 1) id'))
              (E.undecided c));
        if not !stopped then loop ()
    in
    loop ();
    { visited = !visited; truncated = !truncated; stopped = !stopped }

  (* The store is the queue: ids are issued in discovery order, so the
     queue is the root, then every id issued since [bfs] began, at [next]
     and after.  A level ends where the ids issued when it began end.
     [push] only counts the ids [expand_edge] issues, so [pop] sees a
     store that grew any other way. *)
  let bfs t ?max_configs ?on_step ~visit () =
    Obs.Span.time sp_bfs (fun () ->
        let start = size t in
        let issued = ref start and next = ref (-1) in
        let depth = ref 0 and level_end = ref start in
        let pop () =
          if size t <> !issued then
            invalid_arg
              "Explore.bfs: a visitor or observer interned a configuration";
          if !next < 0 then begin
            next := start;
            pack 0 (root t)
          end
          else if !next >= !issued then -1
          else begin
            if !next = !level_end then begin
              incr depth;
              level_end := !issued
            end;
            incr next;
            pack !depth (!next - 1)
          end
        in
        traverse ~push:(fun _ -> incr issued) ~pop t ?max_configs ?on_step
          ~visit ())

  let dfs t ?max_configs ?on_step ~visit () =
    Obs.Span.time sp_dfs (fun () ->
        let stack = Vec.create () in
        Vec.push stack (pack 0 (root t));
        traverse ~push:(Vec.push stack)
          ~pop:(fun () -> if stack.Vec.len = 0 then -1 else Vec.pop stack)
          t ?max_configs ?on_step ~visit ())

  type walk_stop = Visit_stop | Visit_prune | Stuck | Max_steps

  type walk_result = { last : id; steps : int; stop : walk_stop }

  let walk t ~sched ?(enabled = E.undecided) ?on_step ~max_steps ~visit () =
    (* The walk runs over concrete configurations — schedulers and visitors
       see genuine states even under symmetry reduction — while each
       position is interned by canonical representative.  [sigma] maps the
       current concrete configuration to its stored representative, so the
       parent edge's pid can be renamed into the parent's canonical frame
       as [trace_to] requires (by anonymity, that pid's step from the
       representative is the walk's step renamed); [raw] holds the current
       configuration's own ids, so a step is a restriction-table lookup. *)
    let rec go id sigma c raw rev_steps i =
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
              let s = step_memo t c raw pid in
              let step = spell pid c.E.states.(pid) c.E.mem in
              let raw' = Array.make (P.n + 1) 0 in
              successor_into raw' raw pid s;
              let pid' = match sigma with None -> pid | Some f -> f.(pid) in
              let id', fresh, pm =
                intern_entry t ~edge:((id * P.n) + pid') ~frame:sigma raw'
              in
              let sigma' = perm_of t pm in
              let c' = stepped_config t c step s in
              (match on_step with
              | None -> ()
              | Some f ->
                f { src = id; before = c; step; after = c'; dst = id'; fresh });
              go id' sigma' c' raw' (step :: rev_steps) (i + 1)))
    in
    let c0 = E.initial ~inputs:t.ins in
    let raw0 = raw_ids t c0 in
    let sigma0 = perm_of t (snd (back_edge t (root t))) in
    Obs.Span.time sp_walk (fun () -> go (root t) sigma0 c0 raw0 [] 0)
end
