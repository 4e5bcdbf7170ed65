(* Order statistics over the benchmark's samples, and the one clock it
   times with. *)

(* Monotonic nanoseconds (CLOCK_MONOTONIC): immune to wall-clock steps,
   fine-grained enough to time single sub-microsecond store calls in
   batches. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* [p] in [0,100], interpolated; [nan] on no samples. *)
let percentile = Nd_bench_util.percentile

let median a = percentile a 50.

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* First and third quartile exactly as Python's
   [statistics.quantiles(data, n=4)] computes them (its default
   "exclusive" method), so the A/A spreads printed here are the ones
   the acceptance rule computes. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((s.(j - 1) *. (4. -. delta)) +. (s.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread a =
  let q1, q3 = quartiles a in
  (q3 -. q1) /. median a
