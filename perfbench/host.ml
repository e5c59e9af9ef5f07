(* Host-speed probe and fingerprint.  A diagnostic printed beside the
   metrics, never a metric: when a run is slow, a slow CPU loop says the
   host was throttled, and a slow memory walk with a normal CPU loop says
   the memory system was contended — the phases that move memory-bound
   exploration by tens of percent while a CPU-only loop stays within a few. *)

open Bigarray

(* a fixed xorshift loop: pure ALU work, no memory traffic *)
let cpu_ms () =
  let t0 = Measure.now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 20_000_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  Measure.seconds ~from:t0 ~until:(Measure.now_ns ()) *. 1e3

(* One random cycle through 32 MiB (Sattolo's shuffle under a fixed LCG,
   so every run walks the same cycle), built once and kept off-heap so it
   never shows in the workloads' heap figures. *)
let ring =
  lazy
    (let len = 1 lsl 22 in
     let r = Array1.create int c_layout len in
     for i = 0 to len - 1 do
       Array1.unsafe_set r i i
     done;
     let s = ref 88172645463325252 in
     for i = len - 1 downto 1 do
       s := ((!s * 25214903917) + 11) land max_int;
       let j = (!s lsr 11) mod i in
       let t = Array1.unsafe_get r i in
       Array1.unsafe_set r i (Array1.unsafe_get r j);
       Array1.unsafe_set r j t
     done;
     r)

(* a dependent pointer chase: each load waits on the previous one *)
let mem_ms () =
  let r = Lazy.force ring in
  let t0 = Measure.now_ns () in
  let i = ref 0 in
  for _ = 1 to 1 lsl 19 do
    i := Array1.unsafe_get r !i
  done;
  ignore (Sys.opaque_identity !i);
  Measure.seconds ~from:t0 ~until:(Measure.now_ns ()) *. 1e3

let loadavg () =
  try In_channel.with_open_text "/proc/loadavg" input_line
  with Sys_error _ | End_of_file -> "unavailable"

let probe () =
  let mem = mem_ms () in
  let cpu = cpu_ms () in
  Measure.Obj
    [ "cpu_loop_ms", Measure.Num cpu;
      "mem_walk_ms", Measure.Num mem;
      "loadavg", Measure.Str (loadavg ())
    ]

let fingerprint () =
  Measure.Obj
    [ "nproc", Measure.Int (Domain.recommended_domain_count ());
      "ocaml", Measure.Str Sys.ocaml_version;
      "word_size", Measure.Int Sys.word_size
    ]
