(* The checker workloads: Checker.Make(P).explore on Algorithm 1
   (k = 1, m = 2) with the arguments `swapspace check -a swap-ksa -n N
   --total-lap 2 [--no-sym --no-por]` passes — default inputs, the CLI's
   lap prune, its 500,000-config budget, every property on and the §4
   monitor pack riding along. *)

open Measure

type workload = {
  name : string;
  n : int;
  reduced : bool;  (** symmetry reduction and POR both on, as by default *)
  configs : int;  (** pinned: the graph closes inside the lap budget *)
  edges : int;  (** pinned *)
  repeat : int * int * int;
      (** minor and major collections of a fresh process's first check,
          and its top heap words: exact on an unchanged program *)
}

(* Sized so one exploration takes about 50 ms over a ~6 MB heap: a run
   holds hundreds of repetitions, and the host's slow phases, which last
   seconds, cannot slow all of them. *)
let workloads =
  [ { name = "check-sym";
      n = 7;
      reduced = true;
      configs = 6_388;
      edges = 9_786;
      repeat = 63, 4, 719_374
    };
    { name = "check-plain";
      n = 5;
      reduced = false;
      configs = 7_916;
      edges = 9_325;
      repeat = 58, 4, 720_914
    }
  ]

(* the CLI's defaults for `check` *)
let lap_cap = 3
let total_lap = 2
let max_configs = 500_000

type counts = { visited : int; edges : int; dedup : int; solo_hits : int; solo_misses : int }

type inst = {
  explore :
    tick:(unit -> unit) -> select:string list option -> check_solo:bool -> Checker.report;
      (** [tick] runs once per visited configuration, from the prune hook *)
  replays : every:int -> (string * float) list;
      (** per-call costs over every [every]-th edge of the workload's graph *)
}

module Inst (P : Core.Swap_ksa.S) = struct
  module C = Checker.Make (P)
  module X = C.X
  module E = C.E
  module M = Core.Swap_ksa_monitor.Make (P)

  let inputs = Array.init P.n (fun i -> i mod P.num_inputs)

  (* bin/swapspace.ml's prune for --lap-cap 3 --total-lap 2 *)
  let over_budget (c : E.config) =
    let laps f =
      Array.iter
        (function Shmem.Value.Pair (Shmem.Value.Ints u, _) -> Array.iter f u | _ -> ())
        c.E.mem
    in
    let over = ref false and total = ref 0 in
    laps (fun x -> if x > lap_cap then over := true);
    !over
    || begin
      laps (fun x -> total := !total + x);
      !total > total_lap
    end

  let explore ~reduced ~tick ~select ~check_solo =
    C.explore
      ~prune:(fun c ->
        tick ();
        over_budget c)
      ~max_configs ~check_solo ~sym:reduced ~por:reduced
      ~extra_props:(fun _ -> M.online_props)
      ?select ~inputs ()

  (* Every [every]-th edge of the workload's own graph, as
     (configuration stepped from, pid, configuration reached). *)
  let sample_edges ~reduced ~every =
    let t = X.create ~sym:reduced ~por:reduced ~inputs () in
    let acc = ref [] and i = ref 0 in
    let on_step (o : X.step_obs) =
      if !i mod every = 0 then
        acc := (o.X.before, o.X.step.Shmem.Trace.pid, o.X.after) :: !acc;
      incr i
    in
    let visit (v : X.visit) = if over_budget v.X.config then X.Prune else X.Continue in
    ignore (X.bfs t ~max_configs ~on_step ~visit ());
    Array.of_list (List.rev !acc)

  (* fastest of [passes] timed passes of [f] over the samples, in µs per
     call; [fresh] builds untimed per-pass state *)
  let per_call_us ~passes samples ~fresh f =
    let best = ref infinity in
    for _ = 1 to passes do
      let st = fresh () in
      let t0 = now_ns () in
      Array.iter (f st) samples;
      best := Float.min !best (seconds ~from:t0 ~until:(now_ns ()))
    done;
    !best *. 1e6 /. float_of_int (Array.length samples)

  let replays ~reduced ~every =
    let samples = sample_edges ~reduced ~every in
    let passes = 5 in
    let none () = () in
    let step_us =
      per_call_us ~passes samples ~fresh:none (fun () (b, pid, _) ->
          ignore (Sys.opaque_identity (E.step b pid)))
    in
    let hash_us =
      per_call_us ~passes samples ~fresh:none (fun () (_, _, a) ->
          ignore (Sys.opaque_identity (E.hash_config a)))
    in
    let intern_us sym =
      per_call_us ~passes samples
        ~fresh:(fun () -> X.create ~sym ~inputs ())
        (fun t (_, _, a) -> ignore (X.intern t a))
    in
    let raw = intern_us false in
    let canon = intern_us true -. raw in
    [ "shmem.step_us", step_us;
      "shmem.hash_us", hash_us;
      "explore.intern_us", raw;
      "explore.canon_us", canon;
      "samples", float_of_int (Array.length samples)
    ]
end

(* Building the protocol, the property pack and the checker instance:
   what `swapspace check` does before it explores. *)
let setup w =
  let module P = (val Core.Swap_ksa.make ~n:w.n ~k:1 ~m:2) in
  let module I = Inst (P) in
  { explore = I.explore ~reduced:w.reduced;
    replays = I.replays ~reduced:w.reduced
  }

let counter snap name =
  match List.assoc_opt name snap.Obs.counters with
  | Some v -> v
  | None -> failwith ("Obs counter missing: " ^ name)

(* one full check with the existing Obs counters on *)
let counted inst =
  Obs.reset ();
  Obs.enable ();
  let r =
    Fun.protect ~finally:Obs.disable (fun () ->
        inst.explore ~tick:ignore ~select:None ~check_solo:true)
  in
  let c = counter (Obs.snapshot ()) in
  let dedup = c "explore.configs.dedup_hits" in
  ( r,
    { visited = c "explore.visited";
      (* the root is interned by create, every other intern is an edge *)
      edges = c "explore.configs.interned" - 1 + dedup;
      dedup;
      solo_hits = c "explore.solo.cache_hits";
      solo_misses = c "explore.solo.cache_misses"
    } )

let verify (w : workload) (r : Checker.report) =
  if not (Checker.ok r) then [ "verdict: violations found" ]
  else if r.Checker.configs_explored <> w.configs then
    [ Printf.sprintf "explored %d configs, pinned %d" r.Checker.configs_explored w.configs ]
  else []

let verify_counts (w : workload) (c : counts) =
  if c.edges <> w.edges then [ Printf.sprintf "%d edges, pinned %d" c.edges w.edges ] else []

(* Per-configuration latency: the prune hook stamps every visit, so
   consecutive stamps bracket one configuration's check and expansion. *)
type stamps = { at : buf; gaps : buf; mutable len : int }

let stamps () = { at = buf (max_configs + 1); gaps = buf max_configs; len = 0 }

let tick s () =
  if s.len <= max_configs then begin
    Bigarray.Array1.unsafe_set s.at s.len (now_ns ());
    s.len <- s.len + 1
  end

let intervals s =
  for i = 1 to s.len - 1 do
    Bigarray.Array1.unsafe_set s.gaps (i - 1)
      (Bigarray.Array1.unsafe_get s.at i - Bigarray.Array1.unsafe_get s.at (i - 1))
  done;
  sorted_prefix s.gaps (max 0 (s.len - 1))

let gc_counts (a : Gc.stat) (b : Gc.stat) =
  b.Gc.minor_collections - a.Gc.minor_collections, b.Gc.major_collections - a.Gc.major_collections

let e2e w ~seconds:budget =
  (* A set-up takes microseconds: time it in batches of 500, before the
     warm-up and again after every repetition, so the fastest batch is
     drawn from every phase of the run.  A batch that long holds its share
     of minor collections.  The median batch follows the host's slow
     phases: over ten runs it spread 40%. *)
  let batch = 500 and setups = ref [] in
  let time_setups times =
    for _ = 1 to times do
      let t0 = now_ns () in
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (setup w))
      done;
      setups := (seconds ~from:t0 ~until:(now_ns ()) /. float_of_int batch) :: !setups
    done
  in
  time_setups 20;
  let inst = setup w in
  let st = stamps () in
  let t = tally () in
  let run () =
    st.len <- 0;
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let c0 = cpu_s () and t0 = now_ns () in
    let r = inst.explore ~tick:(tick st) ~select:None ~check_solo:true in
    let t1 = now_ns () and c1 = cpu_s () in
    let g1 = Gc.quick_stat () in
    account t (verify w r);
    let configs = float_of_int r.Checker.configs_explored in
    let wall = seconds ~from:t0 ~until:t1 in
    let lat = intervals st in
    let us q = float_of_int (quantile lat q) /. 1e3 in
    ( [ "wall_s", wall;
        "decisions_per_s", configs /. wall;
        "decide_p50_us", us 0.50;
        "decide_p90_us", us 0.90;
        "cpu_us_per_decision", (c1 -. c0) *. 1e6 /. configs
      ],
      gc_counts g0 g1,
      Array.length lat )
  in
  (* warm-up: the first exploration in the process, as a CLI user runs it;
     a full collection then settles the heap before its peak is read *)
  let _, (minor, major), samples = run () in
  Gc.full_major ();
  let heap = peak_heap_mb () and top_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let deadline = now_ns () + int_of_float (budget *. 1e9) in
  let rec loop acc gcs =
    let reading, gc, _ = run () in
    time_setups 1;
    let acc = reading :: acc and gcs = gc :: gcs in
    if now_ns () < deadline || List.length acc < 3 then loop acc gcs else acc, gcs
  in
  let reps, gcs = loop [] [] in
  let r, counts = counted inst in
  account t (verify w r @ verify_counts w counts);
  let rows = summarize end_to_end reps in
  let metric ((s : spec), ranked, _) =
    match s.name with
    | "setup_s" -> s, minimum !setups
    | "peak_heap_mb" -> s, heap
    | _ -> s, ranked
  in
  let repeat = minor, major, top_words in
  if repeat <> w.repeat then
    prerr_endline "bench: flag: warm-up GC counts or top heap differ from the pinned ones";
  let gc_obj (minor, major) = Obj [ "minor_collections", Int minor; "major_collections", Int major ] in
  { attempted = t.attempted;
    failed = t.failed;
    problems = t.problems;
    metrics = List.map metric rows;
    detail =
      [ "repetitions", Int (List.length reps);
        "reps", Arr (List.rev_map (fun r -> Obj (List.map (fun (k, v) -> k, Num v) r)) reps);
        "latency_samples_per_rep", Int samples;
        ( "setup_s",
          Obj
            [ "median", Num (median !setups);
              "best", Num (minimum !setups);
              "batches", Int (List.length !setups);
              "batch", Int batch
            ] );
        "summary", summary_json rows;
        ( "repeat",
          Obj
            [ "configs", Int r.Checker.configs_explored;
              "edges", Int counts.edges;
              "warm_up_gc", gc_obj (minor, major);
              "top_heap_words", Int top_words;
              (* flagged, not failed: a program change may move them *)
              "matches_pinned", Bool (repeat = w.repeat);
              "timed_gc", Arr (List.map gc_obj (List.sort_uniq compare gcs))
            ] )
      ]
  }

(* ------------------------------------------------------------------ *)
(* Traced run *)

let layers =
  [ spec "explore.configs" "count" Lower;
    spec "explore.edges" "count" Lower;
    spec "explore.dedup_ratio" "ratio" Higher;
    spec "explore.solo_hit_ratio" "ratio" Higher;
    spec "explore.enum_s" "s" Lower;
    spec "prop.eval_s" "s" Lower;
    spec "explore.solo_s" "s" Lower;
    spec "shmem.step_us" "us" Lower;
    spec "shmem.hash_us" "us" Lower;
    spec "explore.intern_us" "us" Lower;
    spec "explore.canon_us" "us" Lower;
    spec "explore.unattributed_s" "s" Lower;
    spec "explore.alloc_words_per_config" "words" Lower;
    spec "explore.major_gcs" "count" Lower
  ]

let traced w ~seconds:budget =
  let inst = setup w in
  let t = tally () in
  let check r = account t (verify w r) in
  (* first in the process, so the allocation figures are exact *)
  let g0 = Gc.quick_stat () in
  let r, counts = counted inst in
  let g1 = Gc.quick_stat () in
  account t (verify w r @ verify_counts w counts);
  let words =
    g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
    -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words)
  in
  (* Differential runs of the same call, round robin so a slow host phase
     hits every variant alike; the fastest of each is kept. *)
  let st = stamps () in
  let variant ~obs ~select ~check_solo () =
    st.len <- 0;
    Gc.full_major ();
    if obs then (Obs.reset (); Obs.enable ());
    let t0 = now_ns () in
    let r =
      Fun.protect ~finally:Obs.disable (fun () ->
          inst.explore ~tick:(tick st) ~select ~check_solo)
    in
    let dt = seconds ~from:t0 ~until:(now_ns ()) in
    check r;
    dt
  in
  let variants =
    [ "full", variant ~obs:false ~select:None ~check_solo:true;
      "no_solo", variant ~obs:false ~select:None ~check_solo:false;
      "enum", variant ~obs:false ~select:(Some []) ~check_solo:false;
      "full_traced", variant ~obs:true ~select:None ~check_solo:true
    ]
  in
  let deadline = now_ns () + int_of_float (budget *. 0.8 *. 1e9) in
  let times = Hashtbl.create 4 in
  let rounds = ref 0 in
  while !rounds < 2 || now_ns () < deadline do
    List.iter (fun (name, f) -> Hashtbl.add times name (f ())) variants;
    incr rounds
  done;
  let best name = minimum (Hashtbl.find_all times name) in
  let wall = best "full" and no_solo = best "no_solo" and enum = best "enum" in
  let every = max 1 (counts.edges / 10_000) in
  let rp = inst.replays ~every in
  let get k = List.assoc k rp in
  let per_edge =
    get "shmem.step_us" +. get "explore.intern_us"
    +. if w.reduced then get "explore.canon_us" else 0.
  in
  let configs = float_of_int counts.visited in
  let values =
    [ "explore.configs", configs;
      "explore.edges", float_of_int counts.edges;
      "explore.dedup_ratio", float_of_int counts.dedup /. float_of_int counts.edges;
      ( "explore.solo_hit_ratio",
        float_of_int counts.solo_hits /. float_of_int (counts.solo_hits + counts.solo_misses) );
      "explore.enum_s", enum;
      "prop.eval_s", no_solo -. enum;
      "explore.solo_s", wall -. no_solo;
      "shmem.step_us", get "shmem.step_us";
      "shmem.hash_us", get "shmem.hash_us";
      "explore.intern_us", get "explore.intern_us";
      "explore.canon_us", get "explore.canon_us";
      "explore.unattributed_s", enum -. (float_of_int counts.edges *. per_edge *. 1e-6);
      "explore.alloc_words_per_config", words /. configs;
      "explore.major_gcs", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
      "trace.wall_s", wall;
      "trace.overhead_pct", (best "full_traced" -. wall) /. wall *. 100.
    ]
  in
  { attempted = t.attempted;
    failed = t.failed;
    problems = t.problems;
    metrics = List.map (fun (s : spec) -> s, List.assoc s.name values) (layers @ trace_layers);
    detail =
      [ "rounds", Int !rounds;
        "replay_samples", Num (get "samples");
        "fastest_s", Obj (List.map (fun (n, _) -> n, Num (best n)) variants);
        ( "split_check",
          Obj
            [ "enum+eval+solo_s", Num (enum +. (no_solo -. enum) +. (wall -. no_solo));
              "wall_s", Num wall
            ] )
      ]
  }
