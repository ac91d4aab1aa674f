(* Order statistics and span arithmetic for the benchmark. Pure functions
   only, so the self-tests can pin them on synthetic inputs. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* The usual median: the middle value, or the mean of the two middle
   values of an even-sized sample. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The median of [blocks] interleaved block means: sample i goes to
   block i mod blocks, so every block spans the whole sample in order.
   Where the samples come from a mixture of two speeds in stretches
   (a host that is fast for a while, then slow), the plain median jumps
   from one speed to the other as the mix crosses one half, while each
   block mean, and so their median, moves in proportion to the mix; one
   stray sample moves only its own block. With fewer samples than
   blocks it is the plain median. *)
let median_of_means ~blocks a =
  let n = Array.length a in
  let k = min blocks n in
  let sums = Array.make k 0.0 and counts = Array.make k 0 in
  Array.iteri
    (fun i x ->
      let j = i mod k in
      sums.(j) <- sums.(j) +. x;
      counts.(j) <- counts.(j) + 1)
    a;
  median (Array.mapi (fun j s -> s /. float_of_int counts.(j)) sums)

(* Percentiles are given in per-mille (990 = p99) so the rank arithmetic
   stays in integers: with floats, 0.9 *. 100. is 90.000000000000014 and
   its ceiling is 91. *)

(* Nearest-rank index (0-based) of per-mille [pm] in a sample of [n]. *)
let rank ~n pm = max 0 (((pm * n) + 999) / 1000 - 1)

(* Samples strictly beyond the nearest-rank position of [pm]. *)
let beyond ~n pm = n - (rank ~n pm + 1)

(* Nearest-rank percentile of a sorted sample. *)
let percentile_sorted s pm = s.(rank ~n:(Array.length s) pm)

(* The tail ladder, highest first. A coarse ladder keeps the chosen
   percentile fixed while a run's sample count moves several-fold, so
   run-to-run changes in the count do not switch percentiles. *)
let ladder = [ 999; 990; 900; 750; 500 ]

(* The highest ladder percentile with at least ten samples beyond it, or
   [None] when even the median has fewer than ten beyond (n < 20). *)
let tail_pm ~n = List.find_opt (fun pm -> beyond ~n pm >= 10) ladder

let pm_name pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

(* Self time: the span's duration minus the part of [start, stop] that
   its children's intervals cover. Children may overlap each other and
   stick out of the span; only the union inside the span counts. *)
let covered ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
  in
  let by_start = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        if b <= reach then (total, reach)
        else (total +. (b -. Float.max a reach), b))
      (0.0, neg_infinity) by_start
  in
  total

let self_time ~start ~stop children = stop -. start -. covered ~start ~stop children

(* The same union as a running sweep, for children that arrive in start
   order (the tracer's case: wrapped calls inside one parent never nest,
   so they end in the order they start). State is [| reach; covered |]
   in a flat float array, so [add] allocates nothing on the hot path. *)
module Sweep = struct
  type t = Float.Array.t

  let create () = Float.Array.make 2 0.0

  let reset s ~start =
    Float.Array.set s 0 start;
    Float.Array.set s 1 0.0

  (* Add child [t0, t1]; true when it starts before the previous
     children's reach, i.e. it overlaps them. *)
  let[@inline] add s t0 t1 =
    let reach = Float.Array.get s 0 in
    let a = if t0 > reach then t0 else reach in
    if t1 > a then begin
      Float.Array.set s 1 (Float.Array.get s 1 +. (t1 -. a));
      Float.Array.set s 0 t1
    end;
    t0 < reach

  let covered s = Float.Array.get s 1
end
