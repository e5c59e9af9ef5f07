module Sh = Shmem

let dominates v' v =
  let len = Array.length v in
  if Array.length v' <> len then
    invalid_arg "Swap_ksa.dominates: length mismatch";
  let j = ref 0 in
  while !j < len && v.(!j) <= v'.(!j) do incr j done;
  !j = len

(* Lap equality for the [same_u] test of line 10: physical equality first
   (a process reading back its own pair gets its own array), then one
   componentwise pass. *)
let same_laps (u : int array) (u' : int array) =
  u == u'
  ||
  let len = Array.length u in
  Array.length u' = len
  &&
  let j = ref 0 in
  while !j < len && u.(!j) = u'.(!j) do incr j done;
  !j = len

let solo_step_bound ~n ~k = 8 * (n - k)

module type S = sig
  include Sh.Protocol.S

  val laps : state -> int array
  val laps_get : state -> int -> int
  val preference : state -> int option
  val mid_pass : state -> int
  val in_conflict : state -> bool
end

module type With_fields = sig
  include S

  val of_fields :
    pid:int ->
    laps:int array ->
    mid_pass:int ->
    in_conflict:bool ->
    decided:int option ->
    state
end

(* The smallest index holding the maximal lap count (lines 14-15). *)
let leader u =
  let v = ref 0 in
  for j = 1 to Array.length u - 1 do
    if u.(j) > u.(!v) then v := j
  done;
  !v

(* Line 16: does value [v] lead every other value by at least [lead]
   laps?  (the paper's threshold is 2) *)
let leads_by u v ~lead =
  let ok = ref true in
  for j = 0 to Array.length u - 1 do
    if j <> v && u.(v) < u.(j) + lead then ok := false
  done;
  !ok

(* [lead] is the decision threshold of line 16 (the paper uses 2) and
   [merge] controls lines 11-12 (the paper merges); both are exposed as
   ablation knobs through {!make_ablation}. *)
let make_general ~n ~k ~m ~lead ~merge : (module With_fields) =
  if not (n > k && k >= 1) then
    invalid_arg (Fmt.str "Swap_ksa.make: need n > k >= 1, got n=%d k=%d" n k);
  if m < 2 then invalid_arg "Swap_ksa.make: need m >= 2";
  if lead < 1 then invalid_arg "Swap_ksa.make: need lead >= 1";
  let nk = n - k in
  (module struct
    let name =
      if lead = 2 && merge then Fmt.str "swap-ksa(n=%d,k=%d,m=%d)" n k m
      else Fmt.str "swap-ksa(n=%d,k=%d,m=%d,lead=%d,merge=%b)" n k m lead merge
    let n = n
    let k = k
    let num_inputs = m
    let objects = Array.make nk (Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded)

    let init_object _ =
      Sh.Value.Pair (Sh.Value.Ints (Array.make m 0), Sh.Value.Bot)

    (* Algorithm 1's headline bound: n - k swap objects suffice *)
    let space_bound ~n ~k = n - k

    type state = {
      pid : int;
      u : int array;  (* local lap counter; never mutated after creation *)
      i : int;  (* next object to swap in the loop on lines 6-12 *)
      conflict : bool;
      decided : int option;
    }

    let init ~pid ~input =
      let u = Array.make m 0 in
      u.(input) <- 1;
      { pid; u; i = 0; conflict = false; decided = None }

    let poised s =
      Sh.Op.swap s.i (Sh.Value.Pair (Sh.Value.Ints s.u, Sh.Value.Pid s.pid))

    (* Lines 8-20 in one pass.  Each response allocates one state record;
       a fresh lap array is allocated only when [u] changes, through the
       merge of lines 11-12 or the increment of line 20. *)
    let on_response s resp =
      match resp with
      | Sh.Value.Pair (Sh.Value.Ints u', p') ->
        let same_u = same_laps s.u u' in
        let same_id =
          match p' with Sh.Value.Pid q -> q = s.pid | _ -> false
        in
        let conflict = s.conflict || not (same_id && same_u) in
        let u =
          if same_u || not merge then s.u
          else begin
            let w = Array.copy s.u in
            for j = 0 to m - 1 do
              let x = u'.(j) in
              if x > w.(j) then w.(j) <- x
            done;
            w
          end
        in
        let i = s.i + 1 in
        if i < nk then { s with u; i; conflict }
        else if conflict then { s with u; i = 0; conflict = false }
        else
          (* a clean pass: [u] is still [s.u] (lines 13-20) *)
          let v = leader u in
          if leads_by u v ~lead then { s with i = nk; decided = Some v }
          else begin
            let w = Array.copy u in
            w.(v) <- w.(v) + 1;
            { s with u = w; i = 0 }
          end
      | v ->
        invalid_arg
          (Fmt.str "swap-ksa: malformed object value %a" Sh.Value.pp v)

    let decision s = s.decided

    let equal_state s1 s2 =
      s1.pid = s2.pid && s1.i = s2.i && s1.conflict = s2.conflict
      && s1.decided = s2.decided
      && Array.for_all2 Int.equal s1.u s2.u

    let hash_state s =
      Sh.Hashx.(
        opt int
          (bool (int (ints (int seed s.pid) s.u) s.i) s.conflict)
          s.decided)

    let pp_state ppf s =
      Fmt.pf ppf "{u=[%a] i=%d conflict=%b%a}"
        Fmt.(array ~sep:(any ";") int)
        s.u s.i s.conflict
        Fmt.(option (fun ppf d -> Fmt.pf ppf " decided=%d" d))
        s.decided

    (* anonymity: the pid appears only in the swapped pair and the [same_id]
       test, both of which a renaming maps coherently *)
    let symmetry =
      Sh.Protocol.Anonymous
        { canon_key =
            (fun s ->
              Sh.Hashx.(
                opt int (bool (int (ints seed s.u) s.i) s.conflict) s.decided))
        ; rename = (fun f s -> { s with pid = f s.pid })
        }
    let recovery = Sh.Protocol.Restart

    let laps s = Array.copy s.u
    let laps_get s j = s.u.(j)
    let preference s = match s.decided with
      | Some _ -> None
      | None -> Some (leader s.u)

    let mid_pass s = s.i
    let in_conflict s = s.conflict

    let of_fields ~pid ~laps ~mid_pass ~in_conflict ~decided =
      if Array.length laps <> m then
        invalid_arg "Swap_ksa.of_fields: laps length is not num_inputs";
      { pid; u = laps; i = mid_pass; conflict = in_conflict; decided }
  end)

let make_with_fields ~n ~k ~m ?(lead = 2) ?(merge = true) () =
  make_general ~n ~k ~m ~lead ~merge

let make_ablation ~n ~k ~m ?lead ?merge () : (module S) =
  let (module P) = make_with_fields ~n ~k ~m ?lead ?merge () in
  (module P)

let make ~n ~k ~m = make_ablation ~n ~k ~m ()
