let seed = 0x811c9dc5

let int h x =
  let h = (h lxor x) * 0x01000193 in
  h land max_int

(* splitmix64's finalizer, on 63-bit ints *)
let finish h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  (h lxor (h lsr 31)) land max_int

let bool h b = int h (if b then 0x9e37 else 0x61c8)
let opt f h = function None -> int h 0x7f4a7c15 | Some x -> f (int h 1) x
let ints h a = Array.fold_left int (int h (Array.length a)) a
let list f h l = List.fold_left f (int h (List.length l)) l
