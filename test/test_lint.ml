(* lib/lint contract: the whole repository source tree is clean under the
   full pass registry, and each planted mutant is caught by exactly the
   pass that owns its shape — a mutable binding captured by two
   [Domain.spawn] closures by domain-escape, an [Atomic.set] derived from
   an [Atomic.get] of the same cell (and a blocking call inside a
   [Policy.retry] body) by atomics-discipline.  QCheck varies the planted
   identifiers so the passes key on structure, not on names. *)

(* each test plants its mutant in a fresh temp directory so [run_plan]
   sees exactly one file *)
let with_source source f =
  let dir = Filename.temp_file "lintmut" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let ml = Filename.concat dir "mutant.ml" in
  let oc = open_out ml in
  output_string oc source;
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove ml;
      Sys.rmdir dir)
    (fun () -> f dir)

let run_all dir = Lint.run_plan [ dir, Lint.registry ]

let passes_of findings =
  List.sort_uniq compare
    (List.map (fun (f : Lint.finding) -> f.pass) findings)

let assert_only_pass ~expected findings =
  match passes_of findings with
  | [] -> Alcotest.failf "mutant not caught by any pass (want %s)" expected
  | [ p ] when p = expected -> ()
  | ps ->
    Alcotest.failf "mutant caught by [%s], want exactly [%s]"
      (String.concat "; " ps) expected

(* ------------------------------------------------------- planted mutants *)

let escape_source name =
  Fmt.str
    "let %s = ref 0\n\n\
     let race () =\n\
    \  let a = Domain.spawn (fun () -> %s := !%s + 1) in\n\
    \  let b = Domain.spawn (fun () -> %s := !%s + 2) in\n\
    \  Domain.join a;\n\
    \  Domain.join b;\n\
    \  !%s\n"
    name name name name name name

let test_domain_escape () =
  with_source (escape_source "shared") (fun dir ->
      assert_only_pass ~expected:"domain-escape" (run_all dir))

let get_then_set_source cell =
  Fmt.str
    "let bump %s = Atomic.set %s (Atomic.get %s + 1)\n\n\
     let double %s =\n\
    \  let v = Atomic.get %s in\n\
    \  Atomic.set %s (v * 2)\n"
    cell cell cell cell cell cell

let test_atomics_get_then_set () =
  with_source (get_then_set_source "cell") (fun dir ->
      let findings = run_all dir in
      assert_only_pass ~expected:"atomics-discipline" findings;
      (* both the inline and the let-bound shape are flagged *)
      if List.length findings < 2 then
        Alcotest.failf "expected both get-then-set shapes flagged, got %d"
          (List.length findings))

let blocking_retry_source =
  "let slow policy =\n\
  \  Resil.Policy.retry policy (fun () ->\n\
  \      Thread.delay 0.1;\n\
  \      3)\n"

let test_blocking_in_retry () =
  with_source blocking_retry_source (fun dir ->
      assert_only_pass ~expected:"atomics-discipline" (run_all dir))

(* the same shapes with the mutation reverted pass every pass: per-spawn
   private state, a compare_and_set retry loop, a pure retry body *)
let clean_source =
  "let independent () =\n\
  \  let a = Domain.spawn (fun () -> 1) in\n\
  \  let b = Domain.spawn (fun () -> 2) in\n\
  \  Domain.join a + Domain.join b\n\n\
   let bump cell =\n\
  \  let rec go () =\n\
  \    let v = Atomic.get cell in\n\
  \    if not (Atomic.compare_and_set cell v (v + 1)) then go ()\n\
  \  in\n\
  \  go ()\n\n\
   let quick policy = Resil.Policy.retry policy (fun () -> 3)\n"

let test_clean_file () =
  with_source clean_source (fun dir ->
      match run_all dir with
      | [] -> ()
      | fs ->
        Alcotest.failf "clean file flagged: %a"
          (Fmt.list ~sep:Fmt.comma Lint.pp_finding)
          fs)

let test_parse_error_is_a_finding () =
  with_source "let = in" (fun dir ->
      match run_all dir with
      | [ f ] when f.Lint.pass = "parse" -> ()
      | fs ->
        Alcotest.failf "want one parse finding, got %a"
          (Fmt.list ~sep:Fmt.comma Lint.pp_finding)
          fs)

(* ----------------------------------------------------------------- fuzz *)

(* the lowercase words the OCaml parser reserves: a planted mutant named
   after one would not parse, and the fuzz tests would report [parse] *)
let keywords =
  [ "and"; "as"; "asr"; "assert"; "begin"; "class"; "constraint"; "do"
  ; "done"; "downto"; "else"; "end"; "exception"; "external"; "false"; "for"
  ; "fun"; "function"; "functor"; "if"; "in"; "include"; "inherit"
  ; "initializer"; "land"; "lazy"; "let"; "lor"; "lsl"; "lsr"; "lxor"
  ; "match"; "method"; "mod"; "module"; "mutable"; "new"; "nonrec"
  ; "object"; "of"; "open"; "or"; "private"; "rec"; "sig"; "struct"
  ; "then"; "to"; "true"; "try"; "type"; "val"; "virtual"; "when"; "while"
  ; "with"
  ]

(* a lowercase identifier; a keyword gets a trailing underscore, which no
   keyword has, so shrinking stays inside the identifiers too *)
let ident_gen =
  let open QCheck2.Gen in
  let letter = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound 25) in
  map2
    (fun c cs ->
      let name =
        String.init (1 + List.length cs) (fun i ->
            if i = 0 then c else List.nth cs (i - 1))
      in
      if List.mem name keywords then name ^ "_" else name)
    letter
    (list_size (int_bound 6) letter)

let fuzz_escape =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"domain-escape fires for any binding name"
       ~count:25 ~print:Fun.id ident_gen (fun name ->
         with_source (escape_source name) (fun dir ->
             passes_of (run_all dir) = [ "domain-escape" ])))

let fuzz_get_then_set =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"atomics-discipline fires for any cell name"
       ~count:25 ~print:Fun.id ident_gen (fun cell ->
         with_source (get_then_set_source cell) (fun dir ->
             passes_of (run_all dir) = [ "atomics-discipline" ])))

(* ------------------------------------------------------------ framework *)

let test_registry_names () =
  List.iter
    (fun p ->
      match Lint.find_pass (Lint.pass_name p) with
      | Ok p' ->
        Alcotest.(check string)
          "round-trip" (Lint.pass_name p) (Lint.pass_name p')
      | Error e -> Alcotest.failf "registry pass not findable: %s" e)
    Lint.registry;
  match Lint.find_pass "no-such-pass" with
  | Ok _ -> Alcotest.fail "unknown pass resolved"
  | Error _ -> ()

let test_dedup_and_order () =
  (* the same directory scheduled twice reports each finding once, in
     stable position order *)
  with_source (get_then_set_source "cell") (fun dir ->
      let once = run_all dir in
      let twice = Lint.run_plan [ dir, Lint.registry; dir, Lint.registry ] in
      Alcotest.(check int)
        "deduplicated" (List.length once) (List.length twice);
      let sorted =
        List.sort Lint.compare_finding twice = twice
      in
      if not sorted then Alcotest.fail "findings not in stable order")

let test_whole_tree_clean () =
  (* the tree the CI lint job checks is clean under the same plan
     [swapspace lint] uses; skip when the sources are not visible from the
     test sandbox *)
  let root d = Filename.concat "../../.." d in
  let core = [ "lib/core"; "lib/baselines" ] in
  let mono =
    [ "lib/resil"; "lib/runtime"; "lib/arena"; "lib/prop"; "lib/obs"
    ; "lib/fault" ]
  in
  let conc = [ "lib/runtime"; "lib/arena"; "lib/resil" ] in
  let existing = List.filter (fun d -> Sys.file_exists (root d)) in
  let plan =
    List.map
      (fun d ->
        root d, [ Lint.purity; Lint.poly_hash; Lint.state_equality ])
      (existing core)
    @ List.map (fun d -> root d, [ Lint.monotonic ]) (existing mono)
    @ List.map
        (fun d -> root d, [ Lint.domain_escape; Lint.atomics_discipline ])
        (existing conc)
  in
  match Lint.run_plan plan with
  | [] -> ()
  | fs ->
    Alcotest.failf "tree not lint-clean: %a"
      (Fmt.list ~sep:Fmt.comma Lint.pp_finding)
      fs

let () =
  Alcotest.run "lint"
    [ ( "mutants",
        [ Alcotest.test_case "shared ref across two spawns" `Quick
            test_domain_escape
        ; Alcotest.test_case "get-then-set on one cell" `Quick
            test_atomics_get_then_set
        ; Alcotest.test_case "blocking call in retry body" `Quick
            test_blocking_in_retry
        ; Alcotest.test_case "reverted shapes are clean" `Quick
            test_clean_file
        ; Alcotest.test_case "parse error surfaces as finding" `Quick
            test_parse_error_is_a_finding
        ] )
    ; "fuzz", [ fuzz_escape; fuzz_get_then_set ]
    ; ( "framework",
        [ Alcotest.test_case "pass registry round-trips" `Quick
            test_registry_names
        ; Alcotest.test_case "dedup and stable order" `Quick
            test_dedup_and_order
        ; Alcotest.test_case "repo tree is clean" `Slow
            test_whole_tree_clean
        ] )
    ]
