(* Closed-loop load generation over Service.  See the interface. *)

module Sh = Shmem

type profile = Zero_think | Steady | Bursty

let profile_of_string = function
  | "zero" | "zero-think" -> Ok Zero_think
  | "steady" -> Ok Steady
  | "bursty" -> Ok Bursty
  | s -> Error (Fmt.str "unknown profile %S (zero|steady|bursty)" s)

type result = {
  protocol : string;
  clients : int;
  workers : int;
  target : int;
  rounds : int;
  decisions : int;
  elapsed : float;
  rounds_per_sec : float;
  decisions_per_sec : float;
  admit_p50_us : float;
  admit_p95_us : float;
  admit_p99_us : float;
  decide_p50_us : float;
  decide_p95_us : float;
  decide_p99_us : float;
  kills : int;
  adoptions : int;
  steals : int;
  escalated : int;
  max_bound : int;
  respawns : int;
  gave_up : int;
  violation_count : int;
  violations : (int * string) list;
  conservation_error : string option;
  residue : int;
  digest : int;
  ok : bool;
}

(* think-time shaping: deterministic in (seed, client, served) *)
let think_of ~profile ~seed ~max_think ~client ~served =
  let module H = Sh.Hashx in
  let h = H.int (H.int (H.int H.seed (seed lxor 0x7417)) client) served in
  match profile with
  | Zero_think -> 0
  | Steady -> if max_think <= 0 then 0 else h mod (max_think + 1)
  | Bursty -> if h mod 5 = 0 then 4 * max_think else 0

let run ~protocol ~clients ~rounds ~workers ?(seed = 0x5EED) ?arenas
    ?(profile = Steady) ?(max_think = 4) ?kill_every ?max_point
    ?(paranoid = false) () =
  let module P = (val protocol : Sh.Protocol.S) in
  let module S = Service.Make (P) in
  let kill =
    match kill_every with
    | None -> None
    | Some kill_every ->
      Some (Fault.service_kill_plan ~seed ~kill_every ?max_point ())
  in
  let think ~client ~served =
    think_of ~profile ~seed ~max_think ~client ~served
  in
  let s =
    S.serve ~clients ~rounds ~workers ~seed ?arenas ~max_think ~think ?kill
      ~paranoid ()
  in
  let open S in
  let q h p = Service.Hist.quantile h p /. 1e3 in
  let per_sec n = if s.elapsed > 0. then float_of_int n /. s.elapsed else 0. in
  { protocol = P.name;
    clients;
    workers;
    target = s.target;
    rounds = s.rounds_done;
    decisions = s.decisions;
    elapsed = s.elapsed;
    rounds_per_sec = per_sec s.rounds_done;
    decisions_per_sec = per_sec s.decisions;
    admit_p50_us = q s.admit_hist 0.50;
    admit_p95_us = q s.admit_hist 0.95;
    admit_p99_us = q s.admit_hist 0.99;
    decide_p50_us = q s.decide_hist 0.50;
    decide_p95_us = q s.decide_hist 0.95;
    decide_p99_us = q s.decide_hist 0.99;
    kills = s.kills;
    adoptions = s.adoptions;
    steals = s.steals;
    escalated = s.escalated;
    max_bound = s.max_bound;
    respawns = s.respawns;
    gave_up = List.length s.gave_up;
    violation_count = s.violation_count;
    violations = s.violations;
    conservation_error =
      (match s.conservation with Ok () -> None | Error e -> Some e);
    residue = s.residue;
    digest = s.digest;
    ok = S.ok s
  }

let pp ppf r =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "protocol          %s  (%d clients, %d domains)@," r.protocol
    r.clients r.workers;
  Fmt.pf ppf "rounds            %d / %d decided in %.3fs@," r.rounds r.target
    r.elapsed;
  Fmt.pf ppf "throughput        %.0f rounds/s, %.0f decisions/s@,"
    r.rounds_per_sec r.decisions_per_sec;
  Fmt.pf ppf "admission latency p50 %.1fus  p95 %.1fus  p99 %.1fus@,"
    r.admit_p50_us r.admit_p95_us r.admit_p99_us;
  Fmt.pf ppf "decision latency  p50 %.1fus  p95 %.1fus  p99 %.1fus@,"
    r.decide_p50_us r.decide_p95_us r.decide_p99_us;
  Fmt.pf ppf "chaos             %d kills, %d adoptions, %d escalated (bound <= %d)@,"
    r.kills r.adoptions r.escalated r.max_bound;
  Fmt.pf ppf "pool              %d steals, %d respawns, %d slots abandoned@,"
    r.steals r.respawns r.gave_up;
  (match r.conservation_error with
  | None -> Fmt.pf ppf "conservation      ok (no client lost or duplicated)@,"
  | Some e -> Fmt.pf ppf "conservation      VIOLATED: %s@," e);
  if r.residue > 0 then Fmt.pf ppf "residue           %d recycles leaked state@," r.residue;
  if r.violation_count > 0 then begin
    Fmt.pf ppf "violations        %d@," r.violation_count;
    List.iter
      (fun (rid, d) -> Fmt.pf ppf "  round %d: %s@," rid d)
      r.violations
  end;
  Fmt.pf ppf "verdict           %s" (if r.ok then "OK" else "FAILED");
  Fmt.pf ppf "@]"
