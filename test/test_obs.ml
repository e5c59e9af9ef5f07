(* lib/obs contract tests: the disabled path records nothing, counters and
   histograms aggregate correctly across domains, snapshot merge is a
   commutative monoid (so per-domain/per-shard snapshots combine in any
   order), quantiles are monotone and bounded by the observed max, JSON
   snapshots round-trip, and the [bench compare] kernel classifies
   regressions/improvements/missing keys the way the CI gate relies on. *)

let snapshot =
  Alcotest.testable Obs.pp_table (fun (a : Obs.snapshot) b -> a = b)

(* ------------------------------------------------------------ recording *)

let test_disabled_noop () =
  Obs.disable ();
  let reg = Obs.Registry.create () in
  let c = Obs.counter ~registry:reg "c" in
  let h = Obs.histogram ~registry:reg "h" in
  let s = Obs.span ~registry:reg "s" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Histogram.observe h 7;
  assert (Obs.Span.time s (fun () -> 13) = 13);
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "span untouched" 0 (Obs.Span.count s);
  Alcotest.(check bool) "snapshot empty" true
    (Obs.is_empty (Obs.snapshot ~registry:reg ()))

let test_enabled_records () =
  Obs.enable ();
  let reg = Obs.Registry.create () in
  let c = Obs.counter ~registry:reg "c" in
  let h = Obs.histogram ~registry:reg "h" in
  let s = Obs.span ~registry:reg "s" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Histogram.observe h 7;
  Obs.Histogram.observe h 0;
  Obs.Histogram.observe h (-3) (* clamps to 0 *);
  assert (Obs.Span.time s (fun () -> 13) = 13);
  Obs.disable ();
  Alcotest.(check int) "counter" 42 (Obs.Counter.value c);
  Alcotest.(check int) "histogram count" 3 (Obs.Histogram.count h);
  Alcotest.(check int) "histogram sum" 7 (Obs.Histogram.sum h);
  Alcotest.(check int) "span count" 1 (Obs.Span.count s);
  Alcotest.(check bool) "span duration positive" true (Obs.Span.total_ns s >= 1)

let test_find_or_create () =
  let reg = Obs.Registry.create () in
  let c1 = Obs.counter ~registry:reg "x" in
  let c2 = Obs.counter ~registry:reg "x" in
  Obs.enable ();
  Obs.Counter.incr c1;
  Obs.Counter.incr c2;
  Obs.disable ();
  Alcotest.(check int) "same series" 2 (Obs.Counter.value c1);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs: metric \"x\" is a counter, requested a histogram")
    (fun () -> ignore (Obs.histogram ~registry:reg "x"))

let test_reset_in_place () =
  Obs.enable ();
  let reg = Obs.Registry.create () in
  let c = Obs.counter ~registry:reg "c" in
  let h = Obs.histogram ~registry:reg "h" in
  Obs.Counter.add c 5;
  Obs.Histogram.observe h 9;
  Obs.Registry.reset reg;
  Obs.Counter.incr c;
  Obs.Histogram.observe h 2;
  Obs.disable ();
  Alcotest.(check int) "counter restarted" 1 (Obs.Counter.value c);
  Alcotest.(check int) "hist count restarted" 1 (Obs.Histogram.count h);
  Alcotest.(check int) "hist sum restarted" 2 (Obs.Histogram.sum h)

let test_multidomain_totals () =
  Obs.enable ();
  let reg = Obs.Registry.create () in
  let c = Obs.counter ~registry:reg "c" in
  let h = Obs.histogram ~registry:reg "h" in
  let per_domain = 25_000 and domains = 4 in
  let worker () =
    for i = 1 to per_domain do
      Obs.Counter.incr c;
      Obs.Histogram.observe h (i land 1023)
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Obs.disable ();
  Alcotest.(check int) "counter total" (domains * per_domain)
    (Obs.Counter.value c);
  Alcotest.(check int) "histogram total" (domains * per_domain)
    (Obs.Histogram.count h)

(* ------------------------------------------------------- merge algebra *)

(* a random snapshot = a random batch of operations applied to a fresh
   registry; merging snapshots must agree with concatenating the batches *)
type op = Add of int * int | Observe of int * int

let apply_ops reg ops =
  Obs.enable ();
  List.iter
    (fun op ->
      match op with
      | Add (i, v) -> Obs.Counter.add (Obs.counter ~registry:reg (Fmt.str "c%d" i)) v
      | Observe (i, v) ->
        Obs.Histogram.observe (Obs.histogram ~registry:reg (Fmt.str "h%d" i)) v)
    ops;
  Obs.disable ()

let snap_of_ops ops =
  let reg = Obs.Registry.create () in
  apply_ops reg ops;
  Obs.snapshot ~registry:reg ()

let ops_gen =
  QCheck.Gen.(
    list_size (int_bound 40)
      (map
         (fun (is_counter, i, v) ->
           if is_counter then Add (i, abs v) else Observe (i, v))
         (triple bool (int_bound 4) (int_bound 2_000_000))))

let ops_arb =
  QCheck.make ops_gen
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add (i, v) -> Fmt.str "c%d+=%d" i v
             | Observe (i, v) -> Fmt.str "h%d<-%d" i v)
           ops))

let qcheck_merge_assoc =
  QCheck.Test.make ~name:"merge associative" ~count:100
    QCheck.(triple ops_arb ops_arb ops_arb)
    (fun (a, b, c) ->
      let sa = snap_of_ops a and sb = snap_of_ops b and sc = snap_of_ops c in
      Obs.merge sa (Obs.merge sb sc) = Obs.merge (Obs.merge sa sb) sc)

let qcheck_merge_commutes =
  QCheck.Test.make ~name:"merge commutative" ~count:100
    QCheck.(pair ops_arb ops_arb)
    (fun (a, b) ->
      let sa = snap_of_ops a and sb = snap_of_ops b in
      Obs.merge sa sb = Obs.merge sb sa)

let qcheck_merge_is_concat =
  QCheck.Test.make ~name:"merge = concatenated batches" ~count:100
    QCheck.(pair ops_arb ops_arb)
    (fun (a, b) ->
      (* merging per-batch snapshots equals one registry fed both batches;
         this is exactly the per-domain aggregation the runtime relies on *)
      Obs.merge (snap_of_ops a) (snap_of_ops b) = snap_of_ops (a @ b))

let test_merge_unit () =
  let s = snap_of_ops [ Add (0, 3); Observe (1, 9) ] in
  Alcotest.check snapshot "left unit" s (Obs.merge Obs.empty_snapshot s);
  Alcotest.check snapshot "right unit" s (Obs.merge s Obs.empty_snapshot)

(* ----------------------------------------------------------- quantiles *)

let dist_of_observations vs =
  let reg = Obs.Registry.create () in
  ignore (Obs.histogram ~registry:reg "h0");
  apply_ops reg (List.map (fun v -> Observe (0, v)) vs);
  List.assoc "h0" (Obs.snapshot ~registry:reg ()).Obs.hists

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone and bounded" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (int_bound 5_000_000))
              (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (vs, (q1, q2)) ->
      let d = dist_of_observations vs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      let observed_max = List.fold_left max 0 vs in
      Obs.quantile d lo <= Obs.quantile d hi
      && Obs.quantile d hi <= observed_max
      && Obs.quantile d 1. = observed_max)

let test_quantile_exact_small () =
  (* one observation: every quantile is that value *)
  let d = dist_of_observations [ 37 ] in
  List.iter
    (fun q -> Alcotest.(check int) (Fmt.str "q=%.2f" q) 37 (Obs.quantile d q))
    [ 0.; 0.5; 0.99; 1. ];
  Alcotest.(check int) "empty dist" 0
    (Obs.quantile (dist_of_observations []) 0.5)

(* ---------------------------------------------------------------- json *)

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot json round-trip" ~count:100 ops_arb
    (fun ops ->
      let s = snap_of_ops ops in
      Obs.snapshot_of_json (Obs.snapshot_to_json s) = Ok s)

let test_snapshot_roundtrip_with_spans () =
  Obs.enable ();
  let reg = Obs.Registry.create () in
  let sp = Obs.span ~registry:reg "phase" in
  Obs.Span.time sp (fun () -> Obs.Counter.incr (Obs.counter ~registry:reg "n"));
  Obs.disable ();
  let s = Obs.snapshot ~registry:reg () in
  match Obs.snapshot_of_json (Obs.snapshot_to_json s) with
  | Ok s' -> Alcotest.check snapshot "round-trips" s s'
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_parser () =
  let ok s = match Obs.Json.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  let err s = match Obs.Json.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected parse error" s
    | Error _ -> ()
  in
  Alcotest.(check bool) "array of numbers" true
    (ok "[1, 2.5, -3e2]"
    = Obs.Json.Arr [ Obs.Json.Num 1.; Obs.Json.Num 2.5; Obs.Json.Num (-300.) ]);
  Alcotest.(check bool) "nested object" true
    (ok {|{"a": [true, false, null], "b": "x\n\"A"}|}
    = Obs.Json.Obj
        [ "a", Obs.Json.Arr [ Obs.Json.Bool true; Obs.Json.Bool false; Obs.Json.Null ]
        ; "b", Obs.Json.Str "x\n\"A"
        ]);
  err "[1, 2";
  err "{\"a\":}";
  err "12 34" (* trailing garbage *);
  err "";
  (* printer round-trip on a tree with tricky atoms *)
  let tree =
    Obs.Json.Obj
      [ "i", Obs.Json.Num 720479965. (* an ns total: must not lose digits *)
      ; "f", Obs.Json.Num 0.125
      ; "s", Obs.Json.Str "a\"b\\c\nd\te"
      ; "u", Obs.Json.Str "π∀"
      ]
  in
  Alcotest.(check bool) "print/parse round-trip" true
    (Obs.Json.of_string (Obs.Json.to_string tree) = Ok tree)

(* ------------------------------------------------------------- compare *)

let verdicts rows = List.map (fun r -> r.Obs.Compare.key, r.Obs.Compare.verdict) rows

let test_compare_regress () =
  let rows =
    Obs.Compare.run ~max_regress:30.
      ~baseline:[ "t1", 1.0; "t2", 2.0 ]
      ~current:[ "t1", 1.5; "t2", 2.1 ] ()
  in
  Alcotest.(check bool) "t1 regressed, t2 ok" true
    (verdicts rows
    = [ "t1", Obs.Compare.Regressed; "t2", Obs.Compare.Pass ]);
  Alcotest.(check bool) "failed" true (Obs.Compare.failed rows)

let test_compare_improve () =
  let rows =
    Obs.Compare.run ~max_regress:30. ~baseline:[ "t1", 2.0 ]
      ~current:[ "t1", 1.0 ] ()
  in
  Alcotest.(check bool) "improved" true
    (verdicts rows = [ "t1", Obs.Compare.Improved ]);
  Alcotest.(check bool) "improvement is not a failure" false
    (Obs.Compare.failed rows)

let test_compare_missing_and_new () =
  let rows =
    Obs.Compare.run ~baseline:[ "gone", 1.0; "kept", 1.0 ]
      ~current:[ "kept", 1.0; "brand-new", 99.0 ] ()
  in
  Alcotest.(check bool) "missing flagged, new ignored" true
    (verdicts rows
    = [ "gone", Obs.Compare.Missing; "kept", Obs.Compare.Pass ]);
  Alcotest.(check bool) "missing fails" true (Obs.Compare.failed rows)

let test_compare_floor () =
  (* both sides under the noise floor: a 4x blowup on 10ms is not a
     regression *)
  let rows =
    Obs.Compare.run ~max_regress:30. ~floor:0.05 ~baseline:[ "tiny", 0.01 ]
      ~current:[ "tiny", 0.04 ] ()
  in
  Alcotest.(check bool) "sub-floor passes" true
    (verdicts rows = [ "tiny", Obs.Compare.Pass ]);
  (* ... but crossing well above the floor is *)
  let rows =
    Obs.Compare.run ~max_regress:30. ~floor:0.05 ~baseline:[ "tiny", 0.01 ]
      ~current:[ "tiny", 0.2 ] ()
  in
  Alcotest.(check bool) "crossing the floor regresses" true
    (Obs.Compare.failed rows)

let test_compare_bad_budget () =
  Alcotest.check_raises "nonpositive budget"
    (Invalid_argument "Obs.Compare.run: max_regress must be positive")
    (fun () ->
      ignore (Obs.Compare.run ~max_regress:0. ~baseline:[] ~current:[] ()))

(* ------------------------------------------------------------- buckets *)

(* the bucket loop [Obs.Histogram.bucket_of] replaced: one shift per bit *)
let loop_bucket v =
  if v <= 0 then 0
  else begin
    let v = ref v and i = ref 0 in
    while !v <> 0 do
      v := !v lsr 1;
      incr i
    done;
    !i
  end

let test_bucket_of_matches_loop () =
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Fmt.str "bucket_of %d" v)
        (loop_bucket v) (Obs.Histogram.bucket_of v);
      if v >= 1 then
        Alcotest.(check int)
          (Fmt.str "floor_log2 %d" v)
          (loop_bucket v - 1) (Obs.floor_log2 v))
    (Util.log2_probes ())

(* ---------------------------------------------------------------- main *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [ ( "recording",
        [ Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop
        ; Alcotest.test_case "enabled records" `Quick test_enabled_records
        ; Alcotest.test_case "find-or-create aggregates" `Quick
            test_find_or_create
        ; Alcotest.test_case "reset in place" `Quick test_reset_in_place
        ; Alcotest.test_case "multi-domain totals" `Quick
            test_multidomain_totals
        ] )
    ; ( "merge",
        [ q qcheck_merge_assoc
        ; q qcheck_merge_commutes
        ; q qcheck_merge_is_concat
        ; Alcotest.test_case "empty snapshot is the unit" `Quick
            test_merge_unit
        ] )
    ; ( "quantiles",
        [ q qcheck_quantile_monotone
        ; Alcotest.test_case "small exact cases" `Quick
            test_quantile_exact_small
        ; Alcotest.test_case "bucket_of = bit loop" `Quick
            test_bucket_of_matches_loop
        ] )
    ; ( "json",
        [ q qcheck_snapshot_roundtrip
        ; Alcotest.test_case "round-trip with spans" `Quick
            test_snapshot_roundtrip_with_spans
        ; Alcotest.test_case "parser" `Quick test_json_parser
        ] )
    ; ( "compare",
        [ Alcotest.test_case "regression flagged" `Quick test_compare_regress
        ; Alcotest.test_case "improvement passes" `Quick test_compare_improve
        ; Alcotest.test_case "missing fails, new ignored" `Quick
            test_compare_missing_and_new
        ; Alcotest.test_case "noise floor" `Quick test_compare_floor
        ; Alcotest.test_case "budget validation" `Quick test_compare_bad_budget
        ] )
    ]
