let of_trace trace = List.map (fun s -> s.Trace.pid) trace

(* tokenizer: ints, 'x', '(', ')'; commas count as whitespace *)
type token = Int of int | Times | Open | Close

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | ',' -> go (i + 1) acc
      | '(' -> go (i + 1) (Open :: acc)
      | ')' -> go (i + 1) (Close :: acc)
      | 'x' | '*' -> go (i + 1) (Times :: acc)
      | '0' .. '9' -> (
        let j = ref i in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
          incr j
        done;
        let digits = String.sub s i (!j - i) in
        match int_of_string_opt digits with
        | Some v -> go !j (Int v :: acc)
        | None ->
          Error (Fmt.str "integer %s at offset %d does not fit" digits i))
      | c -> Error (Fmt.str "unexpected character %c at offset %d" c i)
  in
  go 0 []

(* the longest schedule [parse] will return: every sequence and every
   repetition is checked against the steps still left under it before it
   is built, so neither a long run of atoms nor nested repetitions can get
   past the cap *)
let max_expansion = 1_000_000

let over_cap =
  Fmt.str
    "schedule expands past the %d-step cap (split the schedule or lower the \
     count)"
    max_expansion

(* [count] copies of [base], end to end *)
let repeat count base =
  let rbase = List.rev base in
  let rec go k acc =
    if k = 0 then acc else go (k - 1) (List.rev_append rbase acc)
  in
  go count []

(* atoms ::= atom* ; atom ::= (INT | '(' atoms ')') ('x' INT)?
   Each parser is given the steps it may still add, and returns its steps
   with their number. *)
let parse s =
  let ( let* ) = Result.bind in
  let* tokens = tokenize s in
  let rec atoms toks budget acc len =
    match toks with
    | [] | Close :: _ ->
      (* [acc] holds the atoms last first; one atom is returned as is *)
      let steps =
        match acc with
        | [ one ] -> one
        | _ -> List.fold_left (fun steps a -> a @ steps) [] acc
      in
      Ok ((steps, len), toks)
    | _ ->
      let* (steps, n), toks = atom toks (budget - len) in
      atoms toks budget (steps :: acc) (len + n)
  and atom toks budget =
    let* (base, len), toks =
      match toks with
      | Int pid :: rest -> Ok (([ pid ], 1), rest)
      | Open :: rest -> (
        let* inner, rest = atoms rest budget [] 0 in
        match rest with
        | Close :: rest -> Ok (inner, rest)
        | _ -> Error "unclosed parenthesis")
      | Times :: _ -> Error "repetition without a preceding atom"
      | Close :: _ -> Error "unexpected ')'"
      | [] -> Error "unexpected end of schedule"
    in
    match toks with
    | Times :: Int count :: rest ->
      if count < 0 then Error "negative repetition"
      else if count > max_expansion then
        Error
          (Fmt.str "repetition count %d exceeds the %d cap" count
             max_expansion)
      else if count * len > budget then Error over_cap
      else if count = 1 then Ok ((base, len), rest)
      else
        Ok ((repeat count base, count * len), rest)
    | Times :: _ -> Error "repetition count missing"
    | _ -> if len > budget then Error over_cap else Ok ((base, len), toks)
  in
  let* (result, _), leftover = atoms tokens max_expansion [] 0 in
  match leftover with
  | [] -> Ok result
  | _ -> Error "trailing tokens"

let to_string pids =
  (* run-length encode consecutive repeats *)
  let rec runs = function
    | [] -> []
    | pid :: rest ->
      let rec count n = function
        | p :: tl when p = pid -> count (n + 1) tl
        | tl -> n, tl
      in
      let n, rest = count 1 rest in
      (pid, n) :: runs rest
  in
  runs pids
  |> List.map (fun (pid, n) ->
         if n = 1 then string_of_int pid else Fmt.str "%dx%d" pid n)
  |> String.concat " "
