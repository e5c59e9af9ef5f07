(* Zero-dependency observability: counters, bucketed histograms, named
   spans, a registry that snapshots to JSON or a text table, and the
   comparison kernel behind `bench compare`.  See the interface for the
   contract; the design constraint throughout is that every hot-path
   operation is one branch when the library is disabled, and allocation-free
   when enabled (counters and histograms touch only preallocated atomics). *)

(* ------------------------------------------------------------- switch *)

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* --------------------------------------------------------------- json *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let buffer_add buf t =
    let str s =
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
    in
    let num v =
      if Float.is_integer v && Float.abs v < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" v)
      else Buffer.add_string buf (Printf.sprintf "%.12g" v)
    in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num v -> num v
      | Str s -> str s
      | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            str k;
            Buffer.add_char buf ':';
            go v)
          fields;
        Buffer.add_char buf '}'
    in
    go t

  let to_string t =
    let buf = Buffer.create 1024 in
    buffer_add buf t;
    Buffer.contents buf

  exception Fail of string * int

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (msg, !pos)) in
    let peek () = if !pos < n then s.[!pos] else '\255' in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" lit)
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = int_of_string ("0x" ^ String.sub s !pos 4) in
      pos := !pos + 4;
      v
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            (if !pos >= n then fail "truncated escape"
             else
               match s.[!pos] with
               | '"' -> incr pos; Buffer.add_char buf '"'
               | '\\' -> incr pos; Buffer.add_char buf '\\'
               | '/' -> incr pos; Buffer.add_char buf '/'
               | 'n' -> incr pos; Buffer.add_char buf '\n'
               | 't' -> incr pos; Buffer.add_char buf '\t'
               | 'r' -> incr pos; Buffer.add_char buf '\r'
               | 'b' -> incr pos; Buffer.add_char buf '\b'
               | 'f' -> incr pos; Buffer.add_char buf '\012'
               | 'u' ->
                 incr pos;
                 let c = hex4 () in
                 let c =
                   (* surrogate pair *)
                   if c >= 0xD800 && c <= 0xDBFF
                      && !pos + 6 <= n
                      && s.[!pos] = '\\'
                      && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     0x10000 + (((c - 0xD800) lsl 10) lor (lo - 0xDC00))
                   end
                   else c
                 in
                 Buffer.add_utf_8_uchar buf
                   (if Uchar.is_valid c then Uchar.of_int c
                    else Uchar.rep)
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
          | c -> incr pos; Buffer.add_char buf c; go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some v -> Num v
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin incr pos; Obj [] end
        else
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
      | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin incr pos; Arr [] end
        else
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; elems (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elems []
      | '"' -> Str (string_lit ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> number ()
      | _ -> fail "expected a JSON value"
    in
    match
      let v = value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Fail (msg, at) ->
      Error (Printf.sprintf "%s at offset %d" msg at)

  let mem key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let num_opt = function Num v -> Some v | _ -> None
  let str_opt = function Str s -> Some s | _ -> None
  let arr_opt = function Arr xs -> Some xs | _ -> None
end

(* ---------------------------------------------------------- primitives *)

(* power-of-two buckets: bucket 0 holds value 0 (and clamped negatives),
   bucket i >= 1 holds [2^(i-1), 2^i - 1].  63 buckets cover the whole
   non-negative int range. *)
let nbuckets = 63

(* floor(log2 v) for v >= 1, read from the exponent field of [v] as a
   double.  Below 2^53 the conversion is exact.  Above it, rounding to
   nearest can carry [v] up to the next power of two, never past it nor
   below 2^floor(log2 v), so the exponent read is floor(log2 v) or one
   more, and the shift test takes back that one. *)
let floor_log2 v =
  let e =
    Int64.to_int
      (Int64.shift_right_logical (Int64.bits_of_float (Float.of_int v)) 52)
    - 1023
  in
  if v lsr e = 0 then e - 1 else e

let bucket_of v = if v <= 0 then 0 else floor_log2 v + 1

let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

(* monotonic max over an atomic: the witnessed value only grows, so the
   retry loop makes progress; cpu_relax between attempts keeps a contended
   loop from hammering the cache line *)
let rec bump_max a v =
  let cur = Atomic.get a in
  if v <= cur then ()
  else if Atomic.compare_and_set a cur v then ()
  else begin
    Domain.cpu_relax ();
    bump_max a v
  end

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let incr t = if enabled () then Atomic.incr t.v
  let add t n = if enabled () then ignore (Atomic.fetch_and_add t.v n)
  let value t = Atomic.get t.v
  let name t = t.name
end

module Histogram = struct
  type t = {
    name : string;
    total : int Atomic.t;
    sum : int Atomic.t;
    max_v : int Atomic.t;
    counts : int Atomic.t array;  (* length [nbuckets] *)
  }

  let bucket_of = bucket_of

  let observe t v =
    if enabled () then begin
      let v = if v < 0 then 0 else v in
      Atomic.incr t.counts.(bucket_of v);
      ignore (Atomic.fetch_and_add t.sum v);
      Atomic.incr t.total;
      bump_max t.max_v v
    end

  let count t = Atomic.get t.total
  let sum t = Atomic.get t.sum
  let name t = t.name
end

module Span = struct
  type t = { name : string; h : Histogram.t }

  (* CLOCK_MONOTONIC via bechamel's noalloc external: span durations must
     not jump under NTP slew (the same discipline Resil.Clock enforces for
     deadlines, and srclint --monotonic now checks here) *)
  let now_ns () = Int64.to_int (Monotonic_clock.now ())
  let ns_of_s dt = max 1 (int_of_float (dt *. 1e9))

  let time t f =
    if not (enabled ()) then f ()
    else begin
      let t0 = now_ns () in
      Fun.protect
        ~finally:(fun () ->
          Histogram.observe t.h (max 1 (now_ns () - t0)))
        f
    end

  let count t = Histogram.count t.h
  let total_ns t = Histogram.sum t.h
  let name t = t.name
end

(* ------------------------------------------------------------ registry *)

module Registry = struct
  type metric =
    | M_counter of Counter.t
    | M_hist of Histogram.t
    | M_span of Span.t

  type t = { lock : Mutex.t; tbl : (string, metric) Hashtbl.t }

  let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }
  let default = create ()

  let locked t f =
    Mutex.lock t.lock;
    match f () with
    | v ->
      Mutex.unlock t.lock;
      v
    | exception e ->
      Mutex.unlock t.lock;
      raise e

  let kind_name = function
    | M_counter _ -> "counter"
    | M_hist _ -> "histogram"
    | M_span _ -> "span"

  (* find-or-create: a metric name denotes one underlying metric per
     registry, so repeated functor instantiations (Explore.Make, etc.)
     share and aggregate rather than shadow *)
  let get t name ~kind ~make ~cast =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl name with
        | Some m -> (
          match cast m with
          | Some v -> v
          | None ->
            invalid_arg
              (Printf.sprintf "Obs: metric %S is a %s, requested a %s" name
                 (kind_name m) kind))
        | None ->
          let v, m = make () in
          Hashtbl.replace t.tbl name m;
          v)

  let reset t =
    let zero_hist (h : Histogram.t) =
      Atomic.set h.Histogram.total 0;
      Atomic.set h.Histogram.sum 0;
      Atomic.set h.Histogram.max_v 0;
      Array.iter (fun a -> Atomic.set a 0) h.Histogram.counts
    in
    locked t (fun () ->
        Hashtbl.iter
          (fun _ m ->
            match m with
            | M_counter c -> Atomic.set c.Counter.v 0
            | M_hist h -> zero_hist h
            | M_span s -> zero_hist s.Span.h)
          t.tbl)
end

let fresh_hist name =
  { Histogram.name
  ; total = Atomic.make 0
  ; sum = Atomic.make 0
  ; max_v = Atomic.make 0
  ; counts = Array.init nbuckets (fun _ -> Atomic.make 0)
  }

let counter ?(registry = Registry.default) name =
  Registry.get registry name ~kind:"counter"
    ~make:(fun () ->
      let c = { Counter.name; v = Atomic.make 0 } in
      c, Registry.M_counter c)
    ~cast:(function Registry.M_counter c -> Some c | _ -> None)

let histogram ?(registry = Registry.default) name =
  Registry.get registry name ~kind:"histogram"
    ~make:(fun () ->
      let h = fresh_hist name in
      h, Registry.M_hist h)
    ~cast:(function Registry.M_hist h -> Some h | _ -> None)

let span ?(registry = Registry.default) name =
  Registry.get registry name ~kind:"span"
    ~make:(fun () ->
      let s = { Span.name; h = fresh_hist name } in
      s, Registry.M_span s)
    ~cast:(function Registry.M_span s -> Some s | _ -> None)

(* ------------------------------------------------------------ snapshots *)

type dist = {
  count : int;
  sum : int;
  max_v : int;
  buckets : (int * int) list;  (* (bucket index, count), sparse, sorted *)
}

type snapshot = {
  counters : (string * int) list;
  hists : (string * dist) list;
  spans : (string * dist) list;
}

let empty_snapshot = { counters = []; hists = []; spans = [] }

let dist_of_hist (h : Histogram.t) =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    let c = Atomic.get h.Histogram.counts.(i) in
    if c > 0 then buckets := (i, c) :: !buckets
  done;
  { count = Atomic.get h.Histogram.total
  ; sum = Atomic.get h.Histogram.sum
  ; max_v = Atomic.get h.Histogram.max_v
  ; buckets = !buckets
  }

let quantile d q =
  if d.count = 0 then 0
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int d.count))) in
    let rec go acc = function
      | [] -> d.max_v
      | (i, c) :: rest ->
        let acc = acc + c in
        if acc >= target then min (bucket_upper i) d.max_v else go acc rest
    in
    go 0 d.buckets
  end

let mean d = if d.count = 0 then 0. else float_of_int d.sum /. float_of_int d.count

let snapshot ?(registry = Registry.default) () =
  let counters = ref [] and hists = ref [] and spans = ref [] in
  Registry.locked registry (fun () ->
      Hashtbl.iter
        (fun name m ->
          match m with
          | Registry.M_counter c ->
            counters := (name, Counter.value c) :: !counters
          | Registry.M_hist h -> hists := (name, dist_of_hist h) :: !hists
          | Registry.M_span s ->
            spans := (name, dist_of_hist s.Span.h) :: !spans)
        registry.Registry.tbl);
  let by_name (a, _) (b, _) = String.compare a b in
  { counters = List.sort by_name !counters
  ; hists = List.sort by_name !hists
  ; spans = List.sort by_name !spans
  }

let reset ?(registry = Registry.default) () = Registry.reset registry

(* merge two sorted assoc lists, combining values on key collision *)
let rec merge_assoc combine a b =
  match a, b with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
    let c = String.compare ka kb in
    if c < 0 then (ka, va) :: merge_assoc combine ta b
    else if c > 0 then (kb, vb) :: merge_assoc combine a tb
    else (ka, combine va vb) :: merge_assoc combine ta tb

let rec merge_buckets a b =
  match a, b with
  | [], rest | rest, [] -> rest
  | (ia, ca) :: ta, (ib, cb) :: tb ->
    if ia < ib then (ia, ca) :: merge_buckets ta b
    else if ia > ib then (ib, cb) :: merge_buckets a tb
    else (ia, ca + cb) :: merge_buckets ta tb

let merge_dist a b =
  { count = a.count + b.count
  ; sum = a.sum + b.sum
  ; max_v = max a.max_v b.max_v
  ; buckets = merge_buckets a.buckets b.buckets
  }

let merge a b =
  { counters = merge_assoc ( + ) a.counters b.counters
  ; hists = merge_assoc merge_dist a.hists b.hists
  ; spans = merge_assoc merge_dist a.spans b.spans
  }

let is_empty s =
  List.for_all (fun (_, v) -> v = 0) s.counters
  && List.for_all (fun (_, d) -> d.count = 0) s.hists
  && List.for_all (fun (_, d) -> d.count = 0) s.spans

(* ----------------------------------------------------- snapshot <-> json *)

let dist_to_json d =
  Json.Obj
    [ "count", Json.Num (float_of_int d.count)
    ; "sum", Json.Num (float_of_int d.sum)
    ; "max", Json.Num (float_of_int d.max_v)
    ; "buckets",
      Json.Arr
        (List.map
           (fun (i, c) ->
             Json.Arr [ Json.Num (float_of_int i); Json.Num (float_of_int c) ])
           d.buckets)
      (* derived, for human readers and dashboards; ignored on parse *)
    ; "p50", Json.Num (float_of_int (quantile d 0.5))
    ; "p95", Json.Num (float_of_int (quantile d 0.95))
    ; "p99", Json.Num (float_of_int (quantile d 0.99))
    ]

let snapshot_to_json s =
  let section to_json xs =
    Json.Obj (List.map (fun (name, v) -> name, to_json v) xs)
  in
  Json.Obj
    [ "counters", section (fun v -> Json.Num (float_of_int v)) s.counters
    ; "histograms", section dist_to_json s.hists
    ; "spans", section dist_to_json s.spans
    ]

let int_field name j =
  match Json.mem name j with
  | Some (Json.Num v) -> Ok (int_of_float v)
  | _ -> Error (Printf.sprintf "missing numeric field %S" name)

let ( let* ) = Result.bind

let dist_of_json j =
  let* count = int_field "count" j in
  let* sum = int_field "sum" j in
  let* max_v = int_field "max" j in
  let* buckets =
    match Json.mem "buckets" j with
    | Some (Json.Arr pairs) ->
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          match p with
          | Json.Arr [ Json.Num i; Json.Num c ] ->
            Ok ((int_of_float i, int_of_float c) :: acc)
          | _ -> Error "malformed bucket entry")
        (Ok []) pairs
      |> Result.map List.rev
    | _ -> Error "missing bucket list"
  in
  Ok { count; sum; max_v; buckets }

let snapshot_of_json j =
  let section name of_json =
    match Json.mem name j with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* v = of_json v in
          Ok ((k, v) :: acc))
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error (Printf.sprintf "field %S is not an object" name)
    | None -> Ok []
  in
  let* counters =
    section "counters" (function
      | Json.Num v -> Ok (int_of_float v)
      | _ -> Error "counter value is not a number")
  in
  let* hists = section "histograms" dist_of_json in
  let* spans = section "spans" dist_of_json in
  let by_name (a, _) (b, _) = String.compare a b in
  Ok
    { counters = List.sort by_name counters
    ; hists = List.sort by_name hists
    ; spans = List.sort by_name spans
    }

(* -------------------------------------------------------------- render *)

let pp_ns ppf ns =
  if ns >= 1_000_000_000 then Fmt.pf ppf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Fmt.pf ppf "%.1fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Fmt.pf ppf "%.1fus" (float_of_int ns /. 1e3)
  else Fmt.pf ppf "%dns" ns

let pp_table ppf s =
  let line name pp = Fmt.pf ppf "  %-36s %a@," name pp () in
  Fmt.pf ppf "@[<v>";
  if s.counters <> [] then begin
    Fmt.pf ppf "counters@,";
    List.iter
      (fun (name, v) -> line name (fun ppf () -> Fmt.int ppf v))
      s.counters
  end;
  if s.hists <> [] then begin
    Fmt.pf ppf "histograms@,";
    List.iter
      (fun (name, d) ->
        line name (fun ppf () ->
            Fmt.pf ppf "count=%d sum=%d p50=%d p95=%d p99=%d max=%d" d.count
              d.sum (quantile d 0.5) (quantile d 0.95) (quantile d 0.99)
              d.max_v))
      s.hists
  end;
  if s.spans <> [] then begin
    Fmt.pf ppf "spans@,";
    List.iter
      (fun (name, d) ->
        line name (fun ppf () ->
            Fmt.pf ppf "count=%d total=%a mean=%a p95=%a max=%a" d.count
              pp_ns d.sum pp_ns
              (int_of_float (mean d))
              pp_ns (quantile d 0.95) pp_ns d.max_v))
      s.spans
  end;
  if is_empty s then Fmt.pf ppf "(no metrics recorded)@,";
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------- compare *)

module Compare = struct
  type verdict = Pass | Improved | Regressed | Missing

  type row = {
    key : string;
    baseline : float;
    current : float option;
    delta_pct : float;
    verdict : verdict;
  }

  let verdict_to_string = function
    | Pass -> "ok"
    | Improved -> "improved"
    | Regressed -> "REGRESSED"
    | Missing -> "MISSING"

  let run ?(max_regress = 30.) ?(floor = 0.05) ~baseline ~current () =
    if max_regress <= 0. then
      invalid_arg "Obs.Compare.run: max_regress must be positive";
    List.map
      (fun (key, base) ->
        match List.assoc_opt key current with
        | None ->
          { key; baseline = base; current = None; delta_pct = 0.
          ; verdict = Missing }
        | Some cur ->
          let delta_pct =
            if base <= 0. then 0. else (cur -. base) /. base *. 100.
          in
          let verdict =
            (* below the floor on both sides the numbers are noise *)
            if base < floor && cur < floor then Pass
            else if delta_pct > max_regress then Regressed
            else if delta_pct < -.max_regress then Improved
            else Pass
          in
          { key; baseline = base; current = Some cur; delta_pct; verdict })
      baseline

  let failed rows =
    List.exists
      (fun r -> match r.verdict with Regressed | Missing -> true | _ -> false)
      rows

  let pp ppf rows =
    Fmt.pf ppf "@[<v>%-24s %12s %12s %9s  %s@,"
      "key" "baseline" "current" "delta" "verdict";
    List.iter
      (fun r ->
        Fmt.pf ppf "%-24s %12.3f %12s %8.1f%%  %s@," r.key r.baseline
          (match r.current with
          | Some c -> Fmt.str "%.3f" c
          | None -> "-")
          r.delta_pct
          (verdict_to_string r.verdict))
      rows;
    Fmt.pf ppf "@]"
end
