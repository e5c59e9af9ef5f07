(* The service workloads: Arena.Service.Make(P).serve on Algorithm 1
   (n = 4, k = 1, m = 2) with the arguments `swapspace serve --domains 1
   --profile zero-think [--clients 16 --recover]` passes through
   Arena.Loadgen.run: one worker domain, zero think time, the default
   arena pool, and on serve-kill the CLI's `--kill-every 8` plan.  The
   seed drives the inputs and the kill plan. *)

open Measure

type workload = {
  name : string;
  clients : int;
  rounds : int;  (** per serve call *)
  kill_every : int option;
  pins : (int * int list) list;
      (** per seed: the admission digest, kills, adoptions, respawns and
          escalations — exact, because one worker makes the service
          deterministic *)
}

let default_seed = 42
let held_out_seed = 1009

(* 5,000 rounds make a call of about 0.1 s: hundreds per run, as on the
   check workloads. *)
let workloads =
  [ { name = "serve-crowd"; clients = 1_000; rounds = 5_000; kill_every = None;
      pins =
        [ default_seed, [ 1103822357911649960; 0; 0; 0; 0 ];
          held_out_seed, [ 2622333098443031324; 0; 0; 0; 0 ] ]
    };
    { name = "serve-kill"; clients = 16; rounds = 5_000; kill_every = Some 8;
      pins =
        [ default_seed, [ 3937757533824082952; 625; 625; 625; 604 ];
          held_out_seed, [ 1668516987488642182; 625; 625; 625; 605 ] ]
    }
  ]

module P = (val Core.Swap_ksa.make ~n:4 ~k:1 ~m:2)
module S = Arena.Service.Make (P)

(* splitmix64's finalizer, on OCaml's 63-bit ints *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* The inputs, generated from the seed by the benchmark and passed to both
   runs (the traced run hooks admission through this argument).  Not the
   service's default: that one mixes with FNV-1a and takes its input mod
   2, so it sees only the parity of seed, client and round count, and
   every even seed produced the same inputs. *)
let input_of ~seed ~client ~served =
  (mix (mix (mix seed + client) + served) land max_int) mod P.num_inputs

(* The plan picks one round in [kill_every] from the low bits of an FNV-1a
   hash, and those see only the low bits of its seed: seeds differing
   there kill different rounds and shift the heap and tail figures.  The
   plan's seed is therefore the run's seed shifted clear of them — every
   seed kills the same rounds, and the seed varies where each kill lands. *)
let plan w ~seed =
  Option.map
    (fun kill_every -> Fault.service_kill_plan ~seed:(seed lsl 3) ~kill_every ())
    w.kill_every

let serve w ~seed ~input ~think ~kill =
  S.serve ~clients:w.clients ~rounds:w.rounds ~workers:1 ~seed ~max_think:4 ~think ~input
    ~kill ()

(* The counts that must repeat exactly for one seed. *)
let key (s : S.summary) = [ s.S.digest; s.S.kills; s.S.adoptions; s.S.respawns; s.S.escalated ]

let repeat_key s =
  Obj (List.map2 (fun k v -> k, Int v) [ "digest"; "kills"; "adoptions"; "respawns"; "escalated" ] (key s))

let verify w ~seed (s : S.summary) =
  let ints l = String.concat "," (List.map string_of_int l) in
  (if S.ok s then []
   else
     [ Printf.sprintf
         "service not ok: %d violations, %d/%d rounds, %d slots abandoned, residue %d%s"
         s.S.violation_count s.S.rounds_done s.S.target (List.length s.S.gave_up) s.S.residue
         (match s.S.conservation with Ok () -> "" | Error e -> ", conservation: " ^ e)
     ])
  @ (if s.S.kills = s.S.adoptions then []
     else [ Printf.sprintf "%d kills but %d adoptions" s.S.kills s.S.adoptions ])
  @
  match List.assoc_opt seed w.pins with
  | Some k when k <> key s ->
    [ Printf.sprintf "exact counts [%s], pinned [%s] for seed %d" (ints (key s)) (ints k) seed ]
  | _ -> []

(* A serve call that fails its checks fails every round it was asked
   for.  Its exact-repeat key joins the run's set of distinct keys. *)
let account t keys w ~seed s =
  account t ~ops:w.rounds (verify w ~seed s);
  let k = repeat_key s in
  if not (List.mem k !keys) then keys := k :: !keys

let repeat keys =
  ( (match keys with
    | [] | [ _ ] -> []
    | _ -> [ "exact-repeat counts differ between serve calls with one seed" ]),
    Obj [ "keys", Arr keys; "identical", Bool (List.length keys = 1) ] )

(* ------------------------------------------------------------------ *)
(* End-to-end run *)

(* With zero think time the service calls [think] when a decision is
   stamped and the client resubmits at that instant, so consecutive
   [think] calls for one client bracket exactly one request. *)
type lat = { last : int array; samples : buf; mutable n : int; mutable first_drive : int }

let lat w = { last = Array.make w.clients 0; samples = buf (w.rounds * P.n); n = 0; first_drive = 0 }

let e2e_rep w ~seed ~plan lat =
  Array.fill lat.last 0 w.clients 0;
  lat.n <- 0;
  lat.first_drive <- 0;
  let think ~client ~served:_ =
    let t = now_ns () in
    let l = lat.last.(client) in
    if l <> 0 then begin
      Bigarray.Array1.unsafe_set lat.samples lat.n (t - l);
      lat.n <- lat.n + 1
    end;
    lat.last.(client) <- t;
    0
  in
  (* the kill plan is consulted at every drive start: the first call ends
     set-up; on serve-crowd the hook never kills *)
  let kill ~round ~incarnation =
    if lat.first_drive = 0 then lat.first_drive <- now_ns ();
    match plan with None -> None | Some f -> f ~round ~incarnation
  in
  let c0 = cpu_s () and t0 = now_ns () in
  let s = serve w ~seed ~input:(input_of ~seed) ~think ~kill in
  let t1 = now_ns () and c1 = cpu_s () in
  let sorted = sorted_prefix lat.samples lat.n in
  let us q = float_of_int (quantile sorted q) /. 1e3 in
  let decisions = float_of_int s.S.decisions in
  ( s,
    [ "setup_s", seconds ~from:t0 ~until:lat.first_drive;
      "wall_s", seconds ~from:t0 ~until:t1;
      "decisions_per_s", decisions /. s.S.elapsed;
      "decide_p50_us", us 0.50;
      "decide_p90_us", us 0.90;
      "cpu_us_per_decision", (c1 -. c0) *. 1e6 /. decisions
    ] )

let e2e w ~seed ~seconds:budget =
  let plan = plan w ~seed in
  let lat = lat w in
  let t = tally () and keys = ref [] in
  (* warm-up: the first serve call in the process; a full collection then
     settles the heap before its peak is read.  Later calls raise the peak
     further, by different amounts in different runs. *)
  let s, _ = e2e_rep w ~seed ~plan lat in
  account t keys w ~seed s;
  Gc.full_major ();
  let heap = peak_heap_mb () in
  let deadline = now_ns () + int_of_float (budget *. 1e9) in
  let rec loop acc =
    let s, reading = e2e_rep w ~seed ~plan lat in
    account t keys w ~seed s;
    let acc = reading :: acc in
    if now_ns () < deadline || List.length acc < 3 then loop acc else acc
  in
  let reps = loop [] in
  let rows = summarize end_to_end reps in
  let metric ((s : spec), ranked, _) = if s.name = "peak_heap_mb" then s, heap else s, ranked in
  let differ, repeat = repeat !keys in
  { attempted = t.attempted;
    failed = t.failed;
    problems = differ @ t.problems;
    metrics = List.map metric rows;
    detail =
      [ "repetitions", Int (List.length reps);
        "reps", Arr (List.rev_map (fun r -> Obj (List.map (fun (k, v) -> k, Num v) r)) reps);
        "latency_samples_per_rep", Int lat.n;
        "summary", summary_json rows;
        "repeat", repeat
      ]
  }

(* ------------------------------------------------------------------ *)
(* Traced run: the round timeline from the service's own hooks *)

type log = { kind : buf; id : buf; aux : buf; at : buf; mutable len : int }

let admit_ev = 0
let drive_ev = 1
let decide_ev = 2

let log w =
  (* admissions + decisions <= 2 per member, drives <= 3 per round *)
  let cap = (w.rounds * ((2 * P.n) + 3)) + 64 in
  { kind = buf cap; id = buf cap; aux = buf cap; at = buf cap; len = 0 }

let record l k i a =
  let j = l.len in
  if j < Bigarray.Array1.dim l.at then begin
    Bigarray.Array1.unsafe_set l.at j (now_ns ());
    Bigarray.Array1.unsafe_set l.kind j k;
    Bigarray.Array1.unsafe_set l.id j i;
    Bigarray.Array1.unsafe_set l.aux j a;
    l.len <- j + 1
  end

let traced_rep w ~seed ~plan l =
  l.len <- 0;
  let input ~client ~served =
    record l admit_ev client served;
    input_of ~seed ~client ~served
  in
  let think ~client ~served:_ =
    record l decide_ev client 0;
    0
  in
  let kill ~round ~incarnation =
    record l drive_ev round incarnation;
    match plan with None -> None | Some f -> f ~round ~incarnation
  in
  let t0 = now_ns () in
  let s = serve w ~seed ~input ~think ~kill in
  s, t0, now_ns ()

(* One worker domain makes the hook calls a single sequence: each drive
   start is followed by its round's decisions, or — when the incarnation
   was killed — directly by the next drive start. *)
let timeline w l ~t0 ~t1 =
  let get a j = Bigarray.Array1.unsafe_get a j in
  let last_dec = Array.make w.clients (-1) in
  let admitted = Array.make w.clients 0 in
  let first_start = Array.make w.rounds (-1) in
  let killed_start = Array.make w.rounds 0 in
  let heal = ref [] in
  let admit = ref 0 and admits = ref 0 and queue = ref 0 and queued = ref 0 in
  let drive = ref 0 and drives = ref 0 and between = ref 0 and gaps = ref 0 in
  let lost = ref 0 in
  let cur = ref (-1) and start = ref 0 and decided = ref false and last = ref 0 in
  let close t =
    if !cur >= 0 then
      if !decided then begin
        drive := !drive + (!last - !start);
        incr drives
      end
      else begin
        lost := !lost + (t - !start);
        killed_start.(!cur) <- !start
      end
  in
  for j = 0 to l.len - 1 do
    let k = get l.kind j and id = get l.id j and aux = get l.aux j and t = get l.at j in
    if k = admit_ev then begin
      if aux > 0 then begin
        admit := !admit + (t - last_dec.(id));
        incr admits
      end;
      admitted.(id) <- t
    end
    else if k = drive_ev then begin
      close t;
      if !cur >= 0 && !decided then begin
        between := !between + (t - !last);
        incr gaps
      end;
      if first_start.(id) < 0 then first_start.(id) <- t;
      if aux > 0 then heal := (t - killed_start.(id)) :: !heal;
      cur := id;
      start := t;
      decided := false
    end
    else begin
      decided := true;
      last := t;
      queue := !queue + (first_start.(!cur) - admitted.(id));
      incr queued;
      last_dec.(id) <- t
    end
  done;
  close t1;
  let heal = Array.of_list !heal in
  Array.sort Int.compare heal;
  let mean_us sum n = if n = 0 then 0. else float_of_int sum /. float_of_int n /. 1e3 in
  let s ns = float_of_int ns *. 1e-9 in
  let wall = seconds ~from:t0 ~until:t1 in
  [ "arena.admit_wait_us", mean_us !admit !admits;
    "arena.queue_wait_us", mean_us !queue !queued;
    "arena.drive_us", mean_us !drive !drives;
    "arena.between_us", mean_us !between !gaps;
    "resil.heal_p50_us", float_of_int (quantile heal 0.50) /. 1e3;
    "resil.heal_p99_us", float_of_int (quantile heal 0.99) /. 1e3;
    "arena.drive_s", s !drive;
    "arena.between_s", s !between;
    "resil.heal_s", s !lost;
    "arena.unattributed_s", wall -. s (!drive + !between + !lost);
    "trace.wall_s", wall;
    "heal_samples", float_of_int (Array.length heal)
  ]

(* Replays of single layers, each the fastest of many timed samples. *)
let replays w ~seed =
  let arena = S.R.make_arena () in
  (* one round recorded: every member driven solo, in pid order, the way a
     worker drives a round *)
  let ops = ref [] in
  for pid = 0 to P.n - 1 do
    let st = ref (P.init ~pid ~input:(input_of ~seed ~client:pid ~served:0)) in
    while Option.is_none (P.decision !st) do
      let op = P.poised !st in
      ops := op :: !ops;
      st := P.on_response !st (S.R.arena_apply arena op)
    done
  done;
  let ops = Array.of_list (List.rev !ops) in
  let apply_ns =
    let best = ref infinity in
    for _ = 1 to 2_000 do
      S.R.reset_arena arena;
      let t0 = now_ns () in
      Array.iter (fun op -> ignore (Sys.opaque_identity (S.R.arena_apply arena op))) ops;
      best := Float.min !best (float_of_int (now_ns () - t0))
    done;
    !best /. float_of_int (Array.length ops)
  in
  let reset_ns, _ =
    time_best ~times:200 (fun () ->
        for _ = 1 to 1_000 do
          S.R.reset_arena arena
        done)
  in
  let q = Arena.Intake.create () in
  for c = 0 to w.clients - 1 do
    Arena.Intake.push q c
  done;
  let drain_s, _ =
    time_best ~times:1_000 (fun () -> List.iter (Arena.Intake.push q) (Arena.Intake.drain q))
  in
  [ "runtime.apply_ns", apply_ns;
    "runtime.reset_ns", reset_ns *. 1e9 /. 1_000.;
    "arena.intake_drain_us", drain_s *. 1e6;
    "recorded_ops", float_of_int (Array.length ops)
  ]

let layers =
  [ spec "arena.admit_wait_us" "us" Lower;
    spec "arena.queue_wait_us" "us" Lower;
    spec "arena.drive_us" "us" Lower;
    spec "arena.between_us" "us" Lower;
    spec "resil.heal_p50_us" "us" Lower;
    spec "resil.heal_p99_us" "us" Lower;
    spec "arena.drive_s" "s" Lower;
    spec "arena.between_s" "s" Lower;
    spec "resil.heal_s" "s" Lower;
    spec "arena.unattributed_s" "s" Lower;
    spec "arena.batch_mean" "count" Higher;
    spec "arena.kills" "count" Lower;
    spec "arena.adoptions" "count" Lower;
    spec "arena.escalated" "count" Lower;
    spec "resil.respawns" "count" Lower;
    spec "runtime.apply_ns" "ns" Lower;
    spec "runtime.reset_ns" "ns" Lower;
    spec "arena.intake_drain_us" "us" Lower
  ]

let traced w ~seed ~seconds:budget =
  let plan = plan w ~seed in
  let lat = lat w and l = log w in
  let t = tally () and keys = ref [] in
  (* plain and traced calls alternate, so a slow host phase hits both *)
  let deadline = now_ns () + int_of_float (budget *. 0.9 *. 1e9) in
  let plain = ref [] and fastest = ref None and rounds = ref 0 in
  while !rounds < 3 || now_ns () < deadline do
    let s, reading = e2e_rep w ~seed ~plan lat in
    account t keys w ~seed s;
    plain := List.assoc "wall_s" reading :: !plain;
    let s, t0, t1 = traced_rep w ~seed ~plan l in
    account t keys w ~seed s;
    let tl = timeline w l ~t0 ~t1 in
    let wall = List.assoc "trace.wall_s" tl in
    (match !fastest with
    | Some (_, tl') when List.assoc "trace.wall_s" tl' <= wall -> ()
    | _ -> fastest := Some (s, tl));
    incr rounds
  done;
  let s, tl = Option.get !fastest in
  let plain_wall = minimum !plain in
  let counts =
    [ "arena.batch_mean", float_of_int s.S.decisions /. float_of_int s.S.rounds_done;
      "arena.kills", float_of_int s.S.kills;
      "arena.adoptions", float_of_int s.S.adoptions;
      "arena.escalated", float_of_int s.S.escalated;
      "resil.respawns", float_of_int s.S.respawns;
      ( "trace.overhead_pct",
        (List.assoc "trace.wall_s" tl -. plain_wall) /. plain_wall *. 100. )
    ]
  in
  let rp = replays w ~seed in
  let values = tl @ counts @ rp in
  let differ, repeat = repeat !keys in
  { attempted = t.attempted;
    failed = t.failed;
    problems = differ @ t.problems;
    metrics = List.map (fun (s : spec) -> s, List.assoc s.name values) (layers @ trace_layers);
    detail =
      [ "rounds", Int !rounds;
        "heal_samples", Num (List.assoc "heal_samples" tl);
        "recorded_ops", Num (List.assoc "recorded_ops" rp);
        "plain_wall_s", Num plain_wall;
        "repeat", repeat
      ]
  }
