(* Order statistics with an honesty rule: a percentile is reported only
   when at least [min_beyond] samples lie beyond it, so a tail figure is
   never read off a handful of observations. *)

let min_beyond = 10

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of [a] (0 < p < 1), with the number of samples
   above its rank.  [None] when fewer than [min_beyond] lie beyond. *)
let percentile a p =
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  let beyond = n - rank in
  if n = 0 || beyond < min_beyond then None
  else Some ((sorted a).(rank - 1), beyond)

let median = function
  | [] -> nan
  | xs ->
      let a = sorted (Array.of_list xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n
