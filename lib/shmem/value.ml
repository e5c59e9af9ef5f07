type t =
  | Unit
  | Bot
  | Int of int
  | Pid of int
  | Ints of int array
  | Pair of t * t

let rec equal v1 v2 =
  match v1, v2 with
  | Unit, Unit | Bot, Bot -> true
  | Int i, Int j | Pid i, Pid j -> i = j
  | Ints a, Ints b ->
    Array.length a = Array.length b
    &&
    let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
    go 0
  | Pair (a1, b1), Pair (a2, b2) -> equal a1 a2 && equal b1 b2
  | (Unit | Bot | Int _ | Pid _ | Ints _ | Pair _), _ -> false

let rec compare v1 v2 =
  let tag = function
    | Unit -> 0
    | Bot -> 1
    | Int _ -> 2
    | Pid _ -> 3
    | Ints _ -> 4
    | Pair _ -> 5
  in
  match v1, v2 with
  | Unit, Unit | Bot, Bot -> 0
  | Int i, Int j | Pid i, Pid j -> Stdlib.compare i j
  | Ints a, Ints b ->
    let c = Stdlib.compare (Array.length a) (Array.length b) in
    if c <> 0 then c
    else
      let rec go i =
        if i >= Array.length a then 0
        else
          let c = Stdlib.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
  | Pair (a1, b1), Pair (a2, b2) ->
    let c = compare a1 a2 in
    if c <> 0 then c else compare b1 b2
  | (Unit | Bot | Int _ | Pid _ | Ints _ | Pair _), _ ->
    Stdlib.compare (tag v1) (tag v2)

let hash v = Hashtbl.hash v

let rec rename f v =
  match v with
  | Unit | Bot | Int _ | Ints _ -> v
  | Pid p ->
    let p' = f p in
    if p' = p then v else Pid p'
  | Pair (a, b) ->
    let a' = rename f a and b' = rename f b in
    if a' == a && b' == b then v else Pair (a', b')

(* [Hashx.int] and [Hashx.ints], spelled out: [hash_into] runs on every
   interned memory, and a call into another module is not inlined *)
let mix h x = ((h lxor x) * 0x01000193) land max_int

let rec hash_into h v =
  match v with
  | Unit -> mix h 0x11
  | Bot -> mix h 0x13
  | Int i -> mix (mix h 2) i
  | Pid p -> mix (mix h 3) p
  | Ints a ->
    let h = ref (mix (mix h 4) (Array.length a)) in
    for i = 0 to Array.length a - 1 do
      h := mix !h a.(i)
    done;
    !h
  | Pair (a, b) -> hash_into (hash_into (mix h 5) a) b

let rec fold_pids f acc v =
  match v with
  | Unit | Bot | Int _ | Ints _ -> acc
  | Pid p -> f acc p
  | Pair (a, b) -> fold_pids f (fold_pids f acc a) b

let rec hash_skel v =
  match v with
  | Unit -> 0x11
  | Bot -> 0x13
  | Int i -> Hashx.int (Hashx.int Hashx.seed 2) i
  | Pid _ -> 0x17  (* all pids collapse: the skeleton is pid-blind *)
  | Ints a -> Hashx.ints (Hashx.int Hashx.seed 4) a
  | Pair (a, b) ->
    Hashx.int (Hashx.int (Hashx.int Hashx.seed 5) (hash_skel a)) (hash_skel b)

let rec pp ppf v =
  match v with
  | Unit -> Fmt.string ppf "()"
  | Bot -> Fmt.string ppf "⊥"
  | Int i -> Fmt.int ppf i
  | Pid p -> Fmt.pf ppf "p%d" p
  | Ints a ->
    Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ";") int) a
  | Pair (a, b) -> Fmt.pf ppf "⟨%a,%a⟩" pp a pp b

let to_string v = Fmt.str "%a" pp v
let zero = Int 0
let one = Int 1
let ints a = Ints (Array.copy a)

let as_int = function
  | Int i -> i
  | v -> invalid_arg (Fmt.str "Value.as_int: %a" pp v)
