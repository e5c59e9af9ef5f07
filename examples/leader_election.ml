(* Leader election on real cores: each domain proposes its own id through
   Algorithm 1 with m = n possible values (k = 1, i.e. consensus), so all
   domains agree on a single leader — using only n-1 hardware swap objects,
   one fewer than any register-based solution can achieve (the paper's
   Theorem 10 shows n-1 is optimal for swap).  Both elections run the
   protocol definitions through the generic runtime (Runtime.Make).

     dune exec examples/leader_election.exe *)

let () =
  let n = 8 in
  Fmt.pr "=== Leader election among %d domains via swap-based consensus ===@.@."
    n;
  let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:n in
  let module R = Runtime.Make (P) in
  (* each process proposes its own pid *)
  let inputs = Array.init n Fun.id in
  let o = R.run ~inputs () in
  (match R.check ~inputs o with
  | Ok () -> ()
  | Error e -> failwith e);
  let leader = o.R.decisions.(0) in
  Array.iteri
    (fun pid d ->
      assert (d = leader);
      Fmt.pr "domain %d: leader is %d (%d swaps, %d backoffs)@." pid d
        o.R.ops.(pid) o.R.backoffs.(pid))
    o.R.decisions;
  Fmt.pr "@.elected domain %d in %.4fs using %d swap objects@." leader
    o.R.elapsed (Array.length P.objects);

  (* the 2-process special case needs a single swap object and one
     operation per process *)
  let (module P2) = Core.Two_proc_swap.make ~m:2 in
  let module R2 = Runtime.Make (P2) in
  let inputs = [| 0; 1 |] in
  let o2 = R2.run ~inputs () in
  (match R2.check ~inputs o2 with
  | Ok () -> ()
  | Error e -> failwith e);
  Fmt.pr "2-process election from ONE swap object: both chose %d@."
    o2.R2.decisions.(0)
