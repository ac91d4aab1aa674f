(* Self-tests of the benchmark's own arithmetic on synthetic inputs:
   span self time, the tail-percentile rule and the setup statistic.
   Every benchmark run executes them first and counts a failure as a
   failed check; `bench.exe --self-test` prints them. *)

let close a b = Float.abs (a -. b) < 1e-12

let self_time_checks =
  [
    ("self time: no children", close (Stats.self_time ~start:0. ~stop:10. []) 10.);
    ( "self time: disjoint children",
      close (Stats.self_time ~start:0. ~stop:10. [ (1., 2.); (3., 4.) ]) 8. );
    ( "self time: a nested child is not counted twice",
      close (Stats.self_time ~start:0. ~stop:10. [ (1., 9.); (2., 3.) ]) 2. );
    ( "self time: overlapping and protruding children count once, clipped to the span",
      close
        (Stats.self_time ~start:0. ~stop:10.
           [ (8., 12.); (1., 3.); (-1., 0.5); (2., 5.); (4., 4.5) ])
        3.5 );
    ( "sweep: in-order children give the union and flag the overlaps",
      let s = Stats.Sweep.create () in
      Stats.Sweep.reset s ~start:0.;
      let children = [ (1., 3.); (2., 5.); (4., 4.5); (6., 7.) ] in
      let overlaps = List.filter (fun (a, b) -> Stats.Sweep.add s a b) children in
      close (Stats.Sweep.covered s) (Stats.covered ~start:0. ~stop:10. children)
      && close (Stats.Sweep.covered s) 5.
      && List.length overlaps = 2 );
    ( "tracer: a parent's children plus its self time make its total",
      let tr = Trace.create () in
      let p = Trace.id tr "parent" and c = Trace.id tr "child" in
      Trace.parent tr p (fun () ->
          for _ = 1 to 3 do
            let t0 = Trace.clock () in
            Trace.leaf tr c t0 (Trace.clock ()) 0.0
          done);
      let total = Trace.secs tr "parent" in
      tr.Trace.overlaps = 0
      && Trace.calls tr "child" = 3
      && close (Trace.inner tr "parent") (Trace.secs tr "child")
      && Float.abs (Trace.inner tr "parent" +. Trace.self tr "parent" -. total) < 1e-9 );
  ]

let tail_checks =
  let pick n = Stats.tail_pm ~n in
  [
    ("tail: n=100 gives p90 with 10 beyond", pick 100 = Some 900 && Stats.beyond ~n:100 900 = 10);
    ("tail: n=99 falls back to p75", pick 99 = Some 750);
    ("tail: n=52 gives p75 with 13 beyond", pick 52 = Some 750 && Stats.beyond ~n:52 750 = 13);
    ("tail: n=39 falls back to p50", pick 39 = Some 500);
    ("tail: n=1000 gives p99", pick 1000 = Some 990);
    ("tail: n=999 gives p90", pick 999 = Some 900);
    ("tail: n=10000 gives p99.9", pick 10000 = Some 999);
    ("tail: n=20 gives p50 with 10 beyond", pick 20 = Some 500);
    ("tail: n=19 has no percentile with 10 beyond", pick 19 = None);
    ( "tail: for n up to 20000 the pick leaves >= 10 beyond and every higher rung < 10",
      List.for_all
        (fun n ->
          match pick n with
          | None -> Stats.beyond ~n 500 < 10
          | Some pm ->
              Stats.beyond ~n pm >= 10
              && List.for_all (fun h -> h <= pm || Stats.beyond ~n h < 10) Stats.ladder)
        (List.init 20000 (fun i -> i + 1)) );
    ( "percentile: nearest rank",
      let s = Array.init 100 (fun i -> float_of_int (i + 1)) in
      Stats.percentile_sorted s 900 = 90. && Stats.percentile_sorted s 990 = 99.
      && Stats.percentile_sorted s 500 = 50. && Stats.percentile_sorted s 750 = 75. );
    ( "median: odd and even samples",
      Stats.median [| 3.; 1.; 2. |] = 2. && Stats.median [| 4.; 1.; 3.; 2. |] = 2.5 );
    ( "median of means: with blocks of one it is the median",
      Stats.median_of_means ~blocks:9 [| 5.; 1.; 4.; 2.; 3. |] = 3. );
    ( "median of means: interleaved blocks, a stray sample moves only its block",
      Stats.median_of_means ~blocks:3 [| 1.; 2.; 3.; 1.; 2.; 3.; 1.; 2.; 300. |] = 2. );
    ( "median of means: a two-speed run in stretches gives the mix, where the median jumps",
      (* the first [slow] of 90 samples at 6.5, the rest at 4.0 *)
      let run slow = Array.init 90 (fun i -> if i < slow then 6.5 else 4.0) in
      let mix slow = 4.0 +. (2.5 *. float_of_int slow /. 90.0) in
      List.for_all
        (fun slow ->
          Float.abs (Stats.median_of_means ~blocks:9 (run slow) -. mix slow) <= 0.25 +. 1e-9)
        (List.init 91 Fun.id)
      && Stats.median (run 44) = 4.0
      && Stats.median (run 46) = 6.5 );
  ]

let run () = self_time_checks @ tail_checks
