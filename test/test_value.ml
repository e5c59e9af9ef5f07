(* Unit and property tests for the value, operation and object-kind
   semantics of the shared-memory substrate. *)

module V = Shmem.Value
module K = Shmem.Obj_kind
module Op = Shmem.Op

(* --- generators --- *)

let value_gen : V.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [ return V.Unit
          ; return V.Bot
          ; map (fun i -> V.Int i) small_signed_int
          ; map (fun i -> V.Pid (abs i mod 64)) small_signed_int
          ; map (fun l -> V.Ints (Array.of_list l)) (small_list small_nat)
          ]
      in
      if n <= 1 then leaf
      else
        oneof
          [ leaf
          ; map2 (fun a b -> V.Pair (a, b)) (self (n / 2)) (self (n / 2))
          ])

(* --- value properties --- *)

let prop_equal_refl =
  QCheck2.Test.make ~name:"Value.equal is reflexive" ~count:500 value_gen
    (fun v -> V.equal v v)

let prop_compare_refl =
  QCheck2.Test.make ~name:"Value.compare v v = 0" ~count:500 value_gen
    (fun v -> V.compare v v = 0)

let prop_equal_compare_agree =
  QCheck2.Test.make ~name:"equal agrees with compare = 0" ~count:500
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) -> V.equal a b = (V.compare a b = 0))

let prop_compare_antisym =
  QCheck2.Test.make ~name:"compare is antisymmetric" ~count:500
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) -> Int.compare (V.compare a b) 0 = -Int.compare (V.compare b a) 0)

let prop_equal_hash =
  QCheck2.Test.make ~name:"equal values hash equally" ~count:500
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) -> (not (V.equal a b)) || V.hash a = V.hash b)

(* a structurally equal value sharing no block with [v] *)
let rec deep_copy (v : V.t) =
  match v with
  | V.Unit | V.Bot | V.Int _ | V.Pid _ -> v
  | V.Ints a -> V.Ints (Array.copy a)
  | V.Pair (a, b) -> V.Pair (deep_copy a, deep_copy b)

let prop_hash_into =
  QCheck2.Test.make ~name:"equal values hash_into equally" ~count:1000
    QCheck2.Gen.(
      triple small_nat value_gen
        (oneof [ return None; map Option.some value_gen ]))
    (fun (h, a, other) ->
      let b = match other with None -> deep_copy a | Some b -> b in
      (not (V.equal a b)) || V.hash_into h a = V.hash_into h b)

let prop_ints_copies =
  QCheck2.Test.make ~name:"Value.ints copies its argument" ~count:200
    QCheck2.Gen.(small_list small_nat)
    (fun l ->
      let arr = Array.of_list l in
      let v = V.ints arr in
      Array.iteri (fun i _ -> arr.(i) <- arr.(i) + 1) arr;
      match v with
      | V.Ints stored -> Array.to_list stored = l
      | _ -> false)

(* --- object-kind semantics --- *)

let test_register_semantics () =
  let k = K.Register K.Unbounded in
  let v, r = K.apply k ~current:(V.Int 3) (Op.Write (V.Int 7)) in
  Alcotest.(check bool) "write stores" true (V.equal v (V.Int 7));
  Alcotest.(check bool) "write returns unit" true (V.equal r V.Unit);
  let v, r = K.apply k ~current:(V.Int 7) Op.Read in
  Alcotest.(check bool) "read keeps" true (V.equal v (V.Int 7));
  Alcotest.(check bool) "read returns current" true (V.equal r (V.Int 7))

let test_swap_semantics () =
  let k = K.Swap_only K.Unbounded in
  let v, r = K.apply k ~current:V.Bot (Op.Swap (V.Int 5)) in
  Alcotest.(check bool) "swap stores" true (V.equal v (V.Int 5));
  Alcotest.(check bool) "swap returns previous" true (V.equal r V.Bot)

let test_swap_rejects_read () =
  let k = K.Swap_only K.Unbounded in
  try
    ignore (K.apply k ~current:V.Bot Op.Read);
    Alcotest.fail "swap object accepted Read"
  with K.Illegal_operation _ -> ()

let test_domain_enforced () =
  let k = K.Readable_swap (K.Bounded 2) in
  (try
     ignore (K.apply k ~current:V.zero (Op.Swap (V.Int 2)));
     Alcotest.fail "stored out-of-domain value"
   with K.Illegal_operation _ -> ());
  let v, _ = K.apply k ~current:V.zero (Op.Swap (V.Int 1)) in
  Alcotest.(check bool) "in-domain swap ok" true (V.equal v V.one)

let test_tas_semantics () =
  let k = K.Test_and_set in
  let v, r = K.apply k ~current:V.zero (Op.Swap V.one) in
  Alcotest.(check bool) "TAS sets" true (V.equal v V.one);
  Alcotest.(check bool) "TAS returns old" true (V.equal r V.zero);
  (try
     ignore (K.apply k ~current:V.zero (Op.Swap V.zero));
     Alcotest.fail "TAS accepted Swap(0)"
   with K.Illegal_operation _ -> ());
  let k = K.Test_and_set_reset in
  let v, _ = K.apply k ~current:V.one (Op.Write V.zero) in
  Alcotest.(check bool) "reset clears" true (V.equal v V.zero)

let test_cas_semantics () =
  let k = K.Compare_and_swap K.Unbounded in
  let v, r = K.apply k ~current:V.Bot (Op.Cas (V.Bot, V.Int 4)) in
  Alcotest.(check bool) "cas success stores" true (V.equal v (V.Int 4));
  Alcotest.(check bool) "cas success returns 1" true (V.equal r V.one);
  let v, r = K.apply k ~current:(V.Int 4) (Op.Cas (V.Bot, V.Int 9)) in
  Alcotest.(check bool) "cas failure keeps" true (V.equal v (V.Int 4));
  Alcotest.(check bool) "cas failure returns 0" true (V.equal r V.zero)

let test_historyless_classification () =
  Alcotest.(check bool) "register historyless" true
    (K.is_historyless (K.Register K.Unbounded));
  Alcotest.(check bool) "swap historyless" true
    (K.is_historyless (K.Swap_only K.Unbounded));
  Alcotest.(check bool) "tas historyless" true (K.is_historyless K.Test_and_set);
  Alcotest.(check bool) "cas not historyless" false
    (K.is_historyless (K.Compare_and_swap K.Unbounded))

let test_nontrivial_ops () =
  Alcotest.(check bool) "read trivial" false (Op.is_nontrivial (Op.read 0));
  Alcotest.(check bool) "write nontrivial" true
    (Op.is_nontrivial (Op.write 0 V.zero));
  Alcotest.(check bool) "swap nontrivial" true
    (Op.is_nontrivial (Op.swap 0 V.zero));
  (* nontrivial as an operation even when it would not change the value *)
  Alcotest.(check bool) "swap of current value still nontrivial" true
    (Op.is_nontrivial (Op.swap 0 V.Bot))

let prop_historyless_last_write_wins =
  (* historyless property: the value after a sequence of nontrivial ops
     depends only on the last one *)
  QCheck2.Test.make ~name:"historyless: value = last nontrivial op" ~count:300
    QCheck2.Gen.(small_list (map (fun i -> V.Int (abs i mod 100)) small_signed_int))
    (fun writes ->
      let k = K.Readable_swap K.Unbounded in
      let final =
        List.fold_left
          (fun cur v -> fst (K.apply k ~current:cur (Op.Swap v)))
          V.Bot writes
      in
      match List.rev writes with
      | [] -> V.equal final V.Bot
      | last :: _ -> V.equal final last)

let () =
  Alcotest.run "value"
    [ Util.qsuite "value-props"
        [ prop_equal_refl
        ; prop_compare_refl
        ; prop_equal_compare_agree
        ; prop_compare_antisym
        ; prop_equal_hash
        ; prop_ints_copies
        ; prop_historyless_last_write_wins
        ; prop_hash_into
        ]
    ; ( "semantics",
        [ Alcotest.test_case "register" `Quick test_register_semantics
        ; Alcotest.test_case "swap" `Quick test_swap_semantics
        ; Alcotest.test_case "swap rejects read" `Quick test_swap_rejects_read
        ; Alcotest.test_case "bounded domain" `Quick test_domain_enforced
        ; Alcotest.test_case "test-and-set" `Quick test_tas_semantics
        ; Alcotest.test_case "compare-and-swap" `Quick test_cas_semantics
        ; Alcotest.test_case "historyless classification" `Quick
            test_historyless_classification
        ; Alcotest.test_case "trivial vs nontrivial" `Quick test_nontrivial_ops
        ] )
    ]
