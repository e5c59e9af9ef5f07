(* The hand-optimized Algorithm 1: n domains racing on n-k hardware swap
   objects (Atomic.exchange), with the pass structure written out instead
   of interpreted from Core.Swap_ksa's state machine.  It is the reference
   the generic runtime (Runtime.Make over Core.Swap_ksa) is differentially
   tested against.

   Obstruction freedom alone does not guarantee termination under real
   contention, so a process backs off for a random, exponentially growing
   number of Domain.cpu_relax after a conflicted pass: the practical form of
   Giakkoupis, Helmi, Higham and Woelfel's randomized wait-free
   transformation (cited in the paper's section 2). *)

(* object contents: an immutable lap-counter array and the pid of the last
   swapper (-1 encodes the initial ⊥) *)
type cell = { laps : int array; owner : int }

(* [run ~n ~k ~m ~inputs ()] spawns one domain per process and returns each
   process's decision.  A process exceeding [max_passes] raises [Failure],
   which with backoff in place indicates a bug rather than contention. *)
let run ~n ~k ~m ~inputs ?(seed = 0x5EED) ?(max_passes = 1_000_000) () =
  if not (n > k && k >= 1) then
    invalid_arg
      (Fmt.str "Swap_ksa_ref.run: need n > k >= 1, got n=%d k=%d" n k);
  if m < 2 then invalid_arg "Swap_ksa_ref.run: need m >= 2";
  if Array.length inputs <> n then
    invalid_arg "Swap_ksa_ref.run: wrong number of inputs";
  Array.iter
    (fun v ->
      if v < 0 || v >= m then
        invalid_arg "Swap_ksa_ref.run: input out of range")
    inputs;
  let nk = n - k in
  let objects =
    Array.init nk (fun _ -> Atomic.make { laps = Array.make m 0; owner = -1 })
  in
  let decisions = Array.make n (-1) in
  let process pid =
    let rng = Random.State.make [| seed; pid |] in
    let u = Array.make m 0 in
    u.(inputs.(pid)) <- 1;
    let backoff = ref 1 in
    let rec go pass =
      if pass > max_passes then
        failwith (Fmt.str "p%d exceeded %d passes" pid max_passes);
      (* one iteration of the loop on lines 4-20 *)
      let conflict = ref false in
      for i = 0 to nk - 1 do
        let prev =
          Atomic.exchange objects.(i) { laps = Array.copy u; owner = pid }
        in
        let same_u = Array.for_all2 Int.equal prev.laps u in
        if not (same_u && prev.owner = pid) then conflict := true;
        if not same_u then
          for j = 0 to m - 1 do
            u.(j) <- max u.(j) prev.laps.(j)
          done
      done;
      if !conflict then begin
        let spins = Random.State.int rng !backoff in
        for _ = 1 to spins do
          Domain.cpu_relax ()
        done;
        if !backoff < 1 lsl 16 then backoff := !backoff * 2;
        go (pass + 1)
      end
      else begin
        backoff := 1;
        let v = ref 0 in
        for j = 1 to m - 1 do
          if u.(j) > u.(!v) then v := j
        done;
        let lead2 = ref true in
        for j = 0 to m - 1 do
          if j <> !v && u.(!v) < u.(j) + 2 then lead2 := false
        done;
        if !lead2 then decisions.(pid) <- !v
        else begin
          u.(!v) <- u.(!v) + 1;
          go (pass + 1)
        end
      end
    in
    go 1
  in
  let domains = Array.init n (fun pid -> Domain.spawn (fun () -> process pid)) in
  Array.iter Domain.join domains;
  decisions
