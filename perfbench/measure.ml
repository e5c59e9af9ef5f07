(* Timing, statistics and JSON output shared by every workload. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ~from ~until = float_of_int (until - from) *. 1e-9

(* process-wide user+sys CPU seconds, every domain included *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Off-heap int buffers for timestamps and latency samples: they must not
   count in the heap figures the workloads report. *)
type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let buf n : buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 n)

let sorted_prefix (b : buf) len =
  let a = Array.init len (fun i -> Bigarray.Array1.unsafe_get b i) in
  Array.sort Int.compare a;
  a

(* nearest-rank quantile of a sorted array; 0 when empty *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let minimum xs = List.fold_left Float.min infinity xs

(* [f] run [times] times; the fastest and the median duration, seconds *)
let time_best ~times f =
  let ds =
    List.init times (fun _ ->
        let t0 = now_ns () in
        f ();
        seconds ~from:t0 ~until:(now_ns ()))
  in
  minimum ds, median ds

(* ------------------------------------------------------------------ *)
(* Metrics *)

type better = Lower | Higher
(* [rank] picks the repetition a metric reports: 0 is the best, 0.5 the
   median. *)
type spec = { name : string; unit_ : string; better : better; rank : float }

let spec ?(rank = 0.) name unit_ better = { name; unit_; better; rank }

(* The end-to-end metrics, read on every workload.  On the check workloads
   a "decision" is one configuration the checker visits, checks and
   expands; on the serve workloads it is one client's agreement decision. *)
let end_to_end =
  [ (* serve sets up once per repetition: the median call; check times
       its set-ups apart *)
    spec ~rank:0.5 "setup_s" "s" Lower;
    spec "wall_s" "s" Lower;
    spec "peak_heap_mb" "MB" Lower;
    spec "decisions_per_s" "1/s" Higher;
    spec "decide_p50_us" "us" Lower;
    spec "decide_p90_us" "us" Lower;
    spec "cpu_us_per_decision" "us" Lower
  ]

(* Read by the traced run of every workload: the wall time its layer
   split adds up to, and what tracing cost against the untraced call. *)
let trace_layers = [ spec "trace.wall_s" "s" Lower; spec "trace.overhead_pct" "%" Lower ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* One repetition's readings, by metric name. *)
type reading = (string * float) list

(* The value of each metric at its rank over the repetitions (host
   interference only ever adds time, so the best repetitions are the steady
   statistic) and the median beside it, so the spread stays visible. *)
let summarize specs (reps : reading list) =
  List.map
    (fun s ->
      let a = Array.of_list (List.filter_map (List.assoc_opt s.name) reps) in
      Array.sort (match s.better with Lower -> Float.compare | Higher -> Fun.flip Float.compare) a;
      let n = Array.length a in
      let ranked = if n = 0 then nan else a.(int_of_float (s.rank *. float_of_int (n - 1))) in
      s, ranked, median (Array.to_list a))
    specs

(* ------------------------------------------------------------------ *)
(* JSON *)

type json =
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec add b = function
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num f ->
    (* every digit as measured; JSON has no non-finite numbers *)
    if Float.is_finite f then Printf.bprintf b "%.17g" f
    else Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i j ->
        if i > 0 then Buffer.add_char b ',';
        add b j)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, j) ->
        if i > 0 then Buffer.add_char b ',';
        add b (Str k);
        Buffer.add_char b ':';
        add b j)
      l;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  add b j;
  Buffer.contents b

(* Output checks: operations attempted, and those whose checks failed. *)
type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let tally () = { attempted = 0; failed = 0; problems = [] }

(* [ops] operations checked together: all fail if any check did *)
let account t ?(ops = 1) problems =
  t.attempted <- t.attempted + ops;
  if problems <> [] then begin
    t.failed <- t.failed + ops;
    t.problems <- problems @ t.problems
  end

(* What a workload hands back to bench.ml. *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks, in words *)
  metrics : (spec * float) list;
  detail : (string * json) list;  (** diagnostics: medians, counts, samples *)
}

let summary_json rows =
  Obj
    (List.map
       (fun (s, ranked, med) -> s.name, Obj [ "reported", Num ranked; "median", Num med ])
       rows)

let metric_obj (l : (spec * float) list) =
  Obj
    (List.map
       (fun (s, v) -> s.name, Obj [ "value", Num v; "unit", Str s.unit_ ])
       l)
