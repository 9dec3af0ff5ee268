(* The campaign metrics registry: counters, gauges and log-bucketed
   latency histograms, with immutable mergeable snapshots.

   Registries form a tree: [fork] hangs a child registry off a parent —
   one per worker domain, so hot-path updates only ever contend on the
   owning domain's leaf mutex — and [snapshot] folds the whole tree into
   one [snap].  Merging is associative and commutative by construction:
   counters add, gauges keep the maximum (they are high-water marks
   across registries; a "current value" gauge is only meaningful on the
   single registry that writes it), and histograms add element-wise
   because every registry shares the same fixed geometric bucket
   boundaries.  A quantile read off a merged histogram is therefore
   within one bucket (~19% relative) of the exact sample quantile.

   Everything here is wall-clock flavored and volatile by construction:
   snapshots must never enter a determinism-gated artifact (records,
   CSV, telemetry JSONL, journal entries). *)

module J = Kfi_trace.Telemetry

(* ----- bucket geometry (global, so merge = element-wise add) ----- *)

let nbuckets = 128

(* bucket 0 is [0, 1e-7] seconds; each later bucket is 2^0.25 (~19%)
   wider, so bucket 127 starts at 1e-7 * 2^31.5 ~ 300 s and doubles as
   the overflow bucket *)
let lo_edge = 1e-7
let ratio = sqrt (sqrt 2.)
let log_ratio = log ratio

let bucket_of v =
  if not (Float.is_finite v) || v <= lo_edge then 0
  else begin
    let i = 1 + int_of_float (Float.floor (log (v /. lo_edge) /. log_ratio)) in
    if i >= nbuckets then nbuckets - 1 else i
  end

let bucket_bounds i =
  if i <= 0 then (0., lo_edge)
  else
    ( lo_edge *. (ratio ** float_of_int (i - 1)),
      lo_edge *. (ratio ** float_of_int i) )

(* ----- the mutable registry ----- *)

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

type t = {
  name : string;
  lock : Mutex.t; (* guards the three tables and [children] *)
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable children : t list;
}

let create ?(name = "metrics") () =
  {
    name;
    lock = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
    children = [];
  }

let name t = t.name

let fork t ~name =
  let child = create ~name () in
  Mutex.protect t.lock (fun () -> t.children <- child :: t.children);
  child

let incr t ?(by = 1) key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.counters key with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace t.counters key (ref by))

let set_gauge t key v =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.gauges key with
      | Some r -> r := v
      | None -> Hashtbl.replace t.gauges key (ref v))

(* the histogram under [key], created empty; callers hold the lock *)
let hist_locked t key =
  match Hashtbl.find_opt t.hists key with
  | Some h -> h
  | None ->
    let h =
      {
        h_count = 0;
        h_sum = 0.;
        h_min = infinity;
        h_max = neg_infinity;
        h_buckets = Array.make nbuckets 0;
      }
    in
    Hashtbl.replace t.hists key h;
    h

let observe t key v =
  Mutex.protect t.lock (fun () ->
      let h = hist_locked t key in
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let b = bucket_of v in
      h.h_buckets.(b) <- h.h_buckets.(b) + 1)

let time t key f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe t key (Unix.gettimeofday () -. t0)) f

(* ----- immutable snapshots ----- *)

type hsnap = {
  hs_count : int;
  hs_sum : float;
  hs_min : float; (* [infinity] when empty *)
  hs_max : float; (* [neg_infinity] when empty *)
  hs_buckets : (int * int) list; (* sparse, sorted by bucket index *)
}

type snap = {
  sn_counters : (string * int) list; (* all three sorted by key *)
  sn_gauges : (string * float) list;
  sn_hists : (string * hsnap) list;
}

let empty = { sn_counters = []; sn_gauges = []; sn_hists = [] }

let hsnap_of_hist h =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
  done;
  {
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_min = h.h_min;
    hs_max = h.h_max;
    hs_buckets = !buckets;
  }

let sorted_of_tbl f tbl =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* merge two assoc lists sorted by key *)
let merge_sorted combine a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
      if ka < kb then go ((ka, va) :: acc) ta b
      else if kb < ka then go ((kb, vb) :: acc) a tb
      else go ((ka, combine va vb) :: acc) ta tb
  in
  go [] a b

let merge_hsnap a b =
  {
    hs_count = a.hs_count + b.hs_count;
    hs_sum = a.hs_sum +. b.hs_sum;
    hs_min = Float.min a.hs_min b.hs_min;
    hs_max = Float.max a.hs_max b.hs_max;
    hs_buckets = merge_sorted ( + ) a.hs_buckets b.hs_buckets;
  }

let merge a b =
  {
    sn_counters = merge_sorted ( + ) a.sn_counters b.sn_counters;
    sn_gauges = merge_sorted Float.max a.sn_gauges b.sn_gauges;
    sn_hists = merge_sorted merge_hsnap a.sn_hists b.sn_hists;
  }

let rec snapshot t =
  let own, children =
    Mutex.protect t.lock (fun () ->
        ( {
            sn_counters = sorted_of_tbl ( ! ) t.counters;
            sn_gauges = sorted_of_tbl ( ! ) t.gauges;
            sn_hists = sorted_of_tbl hsnap_of_hist t.hists;
          },
          t.children ))
  in
  List.fold_left (fun acc c -> merge acc (snapshot c)) own children

(* Fold a snapshot into [t] with [merge]'s rules, so that [snapshot t]
   afterwards equals the merge of the old one and [s]. *)
let add t s =
  Mutex.protect t.lock (fun () ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt t.counters k with
          | Some r -> r := !r + v
          | None -> Hashtbl.replace t.counters k (ref v))
        s.sn_counters;
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt t.gauges k with
          | Some r -> r := Float.max !r v
          | None -> Hashtbl.replace t.gauges k (ref v))
        s.sn_gauges;
      List.iter
        (fun (k, hs) ->
          let h = hist_locked t k in
          h.h_count <- h.h_count + hs.hs_count;
          h.h_sum <- h.h_sum +. hs.hs_sum;
          h.h_min <- Float.min h.h_min hs.hs_min;
          h.h_max <- Float.max h.h_max hs.hs_max;
          List.iter (fun (i, n) -> h.h_buckets.(i) <- h.h_buckets.(i) + n) hs.hs_buckets)
        s.sn_hists)

(* ----- reading a snapshot ----- *)

let counter s key =
  match List.assoc_opt key s.sn_counters with Some v -> v | None -> 0

let gauge s key = List.assoc_opt key s.sn_gauges

let hist s key = List.assoc_opt key s.sn_hists

let mean h = if h.hs_count = 0 then 0. else h.hs_sum /. float_of_int h.hs_count

(* Nearest-rank quantile over the buckets; the representative of a
   bucket is its geometric midpoint, clamped into the observed
   [min, max] so degenerate histograms (one distinct value) answer
   exactly. *)
let quantile h q =
  if h.hs_count = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.hs_count)) in
      max 1 (min h.hs_count r)
    in
    let clamp v = Float.max h.hs_min (Float.min h.hs_max v) in
    let rec go cum = function
      | [] -> clamp h.hs_max
      | (i, n) :: tl ->
        if cum + n >= rank then
          let b_lo, b_hi = bucket_bounds i in
          clamp (if i = 0 then lo_edge else sqrt (b_lo *. b_hi))
        else go (cum + n) tl
    in
    go 0 h.hs_buckets
  end

(* ----- JSON (de)serialization, on the Telemetry value type ----- *)

(* empty-histogram min/max are infinities, which JSON cannot carry;
   they serialize as 0 and deserialize back to the empty identity *)
let hsnap_to_json h =
  J.Obj
    [
      ("count", J.Int h.hs_count);
      ("sum", J.Float h.hs_sum);
      ("min", J.Float (if h.hs_count = 0 then 0. else h.hs_min));
      ("max", J.Float (if h.hs_count = 0 then 0. else h.hs_max));
      ( "buckets",
        J.List
          (List.map (fun (i, n) -> J.List [ J.Int i; J.Int n ]) h.hs_buckets) );
    ]

let to_json s =
  J.Obj
    [
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.sn_counters));
      ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) s.sn_gauges));
      ("hists", J.Obj (List.map (fun (k, h) -> (k, hsnap_to_json h)) s.sn_hists));
    ]

let num = function
  | J.Int i -> Ok (float_of_int i)
  | J.Float f -> Ok f
  | _ -> Error "expected a number"

let int_ = function J.Int i -> Ok i | _ -> Error "expected an integer"

let ( let* ) r f = Result.bind r f

let field_or obj key default =
  match obj with
  | J.Obj fs -> ( match List.assoc_opt key fs with Some v -> v | None -> default)
  | _ -> default

let sort_by_key l = List.sort (fun (a, _) (b, _) -> compare a b) l

let map_fields what f v =
  match v with
  | J.Obj fs ->
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        let* v = Result.map_error (fun e -> what ^ " " ^ k ^ ": " ^ e) (f v) in
        Ok ((k, v) :: acc))
      (Ok []) fs
    |> Result.map sort_by_key
  | _ -> Error (what ^ ": expected an object")

let hsnap_of_json v =
  let* count = int_ (field_or v "count" J.Null) in
  let* sum = num (field_or v "sum" J.Null) in
  let* min_ = num (field_or v "min" J.Null) in
  let* max_ = num (field_or v "max" J.Null) in
  let* buckets =
    match field_or v "buckets" J.Null with
    | J.List l ->
      List.fold_left
        (fun acc b ->
          let* acc = acc in
          match b with
          | J.List [ J.Int i; J.Int n ] ->
            if i < 0 || i >= nbuckets then Error "bucket index out of range"
            else if n < 0 then Error "negative bucket count"
            else Ok ((i, n) :: acc)
          | _ -> Error "bucket must be [index, count]")
        (Ok []) l
      |> Result.map (fun l -> List.sort compare (List.rev l))
    | _ -> Error "buckets must be a list"
  in
  if count < 0 then Error "negative count"
  else if count <> List.fold_left (fun a (_, n) -> a + n) 0 buckets then
    Error "bucket counts do not sum to count"
  else
    Ok
      {
        hs_count = count;
        hs_sum = sum;
        hs_min = (if count = 0 then infinity else min_);
        hs_max = (if count = 0 then neg_infinity else max_);
        hs_buckets = buckets;
      }

(* Tolerant of extra keys, so a metric frame (which wraps a snapshot in
   type/seq/elapsed_s/final metadata) parses directly. *)
let of_json v =
  match v with
  | J.Obj _ ->
    let* counters =
      map_fields "counter" int_ (field_or v "counters" (J.Obj []))
    in
    let* gauges = map_fields "gauge" num (field_or v "gauges" (J.Obj [])) in
    let* hists =
      map_fields "hist" hsnap_of_json (field_or v "hists" (J.Obj []))
    in
    Ok { sn_counters = counters; sn_gauges = gauges; sn_hists = hists }
  | _ -> Error "snapshot must be a JSON object"
