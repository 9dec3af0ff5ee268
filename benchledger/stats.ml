(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so spreads quoted
   from the ledger match the ones its readers recompute. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let at j =
      (* j-th cut of 4 over positions (n + 1) * j / 4, 1-based *)
      let m = n + 1 in
      let num = j * m in
      let k = max 1 (min (n - 1) (num / 4)) in
      let frac = float_of_int (num - (k * 4)) /. 4. in
      a.(k - 1) +. ((a.(k) -. a.(k - 1)) *. frac)
    in
    (at 1, at 3)

let iqr xs =
  let q1, q3 = quartiles xs in
  q3 -. q1

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
