(* Tests for asynchronous binary agreement and agreement on a common
   subset, run inside the simulator. *)

open Sim.Types
module Aba = Agreement.Aba
module Acs = Agreement.Acs
module Coin = Agreement.Coin

let to_effects sends = List.map (fun (dst, m) -> Send (dst, m)) sends

let aba_honest ~n ~f ~me ~coin ~proposal =
  let session = Aba.create ~n ~f ~me ~coin in
  let emit (r : Aba.reaction) =
    to_effects r.Aba.sends
    @ (match r.Aba.decided with Some v -> [ Move (if v then 1 else 0) ] | None -> [])
  in
  {
    start = (fun () -> emit (Aba.propose session proposal));
    receive = (fun ~src m -> emit (Aba.handle session ~src m));
    will = (fun () -> None);
  }

let silent = { start = (fun () -> []); receive = (fun ~src:_ _ -> []); will = (fun () -> None) }

let run ?(sched = Sim.Scheduler.fifo ()) ?(max_steps = 500_000) procs =
  Sim.Runner.run (Sim.Runner.config ~max_steps ~scheduler:sched procs)

let common_coin seed ~round = Coin.common ~seed ~instance:0 ~round

let check_all_decide name o expected =
  Array.iteri
    (fun i mv ->
      match expected with
      | Some v -> Alcotest.(check (option int)) (Printf.sprintf "%s: player %d" name i) (Some v) mv
      | None -> (
          match mv with
          | Some _ -> ()
          | None -> Alcotest.failf "%s: player %d did not decide" name i))
    o.moves

let test_unanimous_validity () =
  let n = 4 and f = 1 in
  List.iter
    (fun v ->
      let procs =
        Array.init n (fun me -> aba_honest ~n ~f ~me ~coin:(common_coin 3) ~proposal:(v = 1))
      in
      let o = run procs in
      check_all_decide "unanimous" o (Some v))
    [ 0; 1 ]

let test_unanimous_all_schedulers () =
  let n = 4 and f = 1 in
  let rng = Random.State.make [| 19 |] in
  List.iter
    (fun sched ->
      let procs =
        Array.init n (fun me -> aba_honest ~n ~f ~me ~coin:(common_coin 5) ~proposal:true)
      in
      let o = run ~sched procs in
      check_all_decide ("unanimous/" ^ sched.Sim.Scheduler.name) o (Some 1))
    (Sim.Scheduler.standard_library rng)

let test_mixed_agreement () =
  let n = 4 and f = 1 in
  List.iter
    (fun seed ->
      let procs =
        Array.init n (fun me ->
            aba_honest ~n ~f ~me ~coin:(common_coin seed) ~proposal:(me mod 2 = 0))
      in
      let o = run ~sched:(Sim.Scheduler.random_seeded seed) procs in
      let decisions = List.filter_map (fun x -> x) (Array.to_list o.moves) in
      Alcotest.(check int) "everyone decides" n (List.length decisions);
      match decisions with
      | v :: rest -> List.iter (fun w -> Alcotest.(check int) "agreement" v w) rest
      | [] -> Alcotest.fail "no decisions")
    (List.init 25 (fun i -> i))

let test_crash_tolerance () =
  let n = 4 and f = 1 in
  let procs =
    Array.init n (fun me -> aba_honest ~n ~f ~me ~coin:(common_coin 11) ~proposal:true)
  in
  procs.(2) <- silent;
  let o = run procs in
  List.iter
    (fun i ->
      Alcotest.(check (option int)) (Printf.sprintf "player %d decides" i) (Some 1) o.moves.(i))
    [ 0; 1; 3 ]

let test_local_coin_terminates () =
  (* Ben-Or style local coins: agreement still holds; termination is
     probabilistic, so allow generous step budget and check across seeds. *)
  let n = 4 and f = 1 in
  List.iter
    (fun seed ->
      let procs =
        Array.init n (fun me ->
            let rng = Random.State.make [| seed; me; 101 |] in
            aba_honest ~n ~f ~me ~coin:(Coin.local rng) ~proposal:(me < 2))
      in
      let o = run ~sched:(Sim.Scheduler.random_seeded seed) procs in
      let decisions = List.filter_map (fun x -> x) (Array.to_list o.moves) in
      Alcotest.(check int) "everyone decides (local coin)" n (List.length decisions);
      match decisions with
      | v :: rest -> List.iter (fun w -> Alcotest.(check int) "agreement" v w) rest
      | [] -> ())
    [ 1; 2; 3 ]

let test_validation () =
  Alcotest.check_raises "n <= 3f" (Invalid_argument "Aba.create: need n > 3f") (fun () ->
      ignore (Aba.create ~n:3 ~f:1 ~me:0 ~coin:(common_coin 1)));
  Alcotest.check_raises "me out of range" (Invalid_argument "Aba.create: pid range") (fun () ->
      ignore (Aba.create ~n:4 ~f:1 ~me:4 ~coin:(common_coin 1)))

(* --- ACS --- *)

let acs_honest ~n ~f ~me ~coin ~value ~outputs =
  let session = Acs.create ~n ~f ~me ~coin in
  let emit (r : _ Acs.reaction) =
    (match r.Acs.output with Some core -> outputs.(me) <- Some core | None -> ());
    to_effects r.Acs.sends
  in
  {
    start = (fun () -> emit (Acs.input session value));
    receive = (fun ~src m -> emit (Acs.handle session ~src m));
    will = (fun () -> None);
  }

let acs_coin seed ~instance ~round = Coin.common ~seed ~instance ~round

let test_acs_all_honest () =
  let n = 4 and f = 1 in
  let outputs = Array.make n None in
  let procs =
    Array.init n (fun me ->
        acs_honest ~n ~f ~me ~coin:(acs_coin 21) ~value:(100 + me) ~outputs)
  in
  let _o = run procs in
  (* all players produce the same core set of size >= n-f with correct values *)
  let cores = Array.map (function Some c -> c | None -> Alcotest.fail "no output") outputs in
  let size c = Array.fold_left (fun acc v -> if Option.is_some v then acc + 1 else acc) 0 c in
  Alcotest.(check bool) "core >= n-f" true (size cores.(0) >= n - f);
  Array.iter
    (fun c ->
      Alcotest.(check bool) "identical cores" true (c = cores.(0)))
    cores;
  Array.iteri
    (fun j v ->
      match v with
      | Some x -> Alcotest.(check int) "values correct" (100 + j) x
      | None -> ())
    cores.(0)

let test_acs_with_crash () =
  let n = 4 and f = 1 in
  List.iter
    (fun seed ->
      let outputs = Array.make n None in
      let procs =
        Array.init n (fun me ->
            acs_honest ~n ~f ~me ~coin:(acs_coin seed) ~value:(200 + me) ~outputs)
      in
      procs.(3) <- silent;
      let _o = run ~sched:(Sim.Scheduler.random_seeded seed) procs in
      let size c = Array.fold_left (fun acc v -> if Option.is_some v then acc + 1 else acc) 0 c in
      List.iter
        (fun i ->
          match outputs.(i) with
          | Some c ->
              Alcotest.(check bool) "core >= n-f" true (size c >= n - f);
              (match outputs.(0) with
              | Some c0 -> Alcotest.(check bool) "identical" true (c = c0)
              | None -> ())
          | None -> Alcotest.failf "player %d no ACS output (seed %d)" i seed)
        [ 0; 1; 2 ])
    (List.init 10 (fun i -> i))

(* --- input validation and per-sender counting, driven by hand --- *)

let bval r v = Aba.Bval { round = r; value = v }
let aux r v = Aba.Aux { round = r; value = v }

(* Feed [msgs] (src, msg) to [a]; collect every send and decision. *)
let feed a msgs =
  List.fold_left
    (fun (sends, dec) (src, m) ->
      let r = Aba.handle a ~src m in
      (sends @ r.Aba.sends, match r.Aba.decided with Some v -> Some v | None -> dec))
    ([], None) msgs

let test_out_of_range_senders_ignored () =
  let n = 4 and f = 1 in
  let mk () = Aba.create ~n ~f ~me:0 ~coin:(Coin.constant true) in
  let bad = [ -1; 4; 5; 99 ] in
  (* f+1 = 2 DECIDEs would decide; from outside [0, n) they count nothing *)
  let a = mk () in
  let sends, dec = feed a (List.map (fun src -> (src, Aba.Decide true)) bad) in
  Alcotest.(check (option bool)) "no decision from bad senders" None dec;
  Alcotest.(check (option bool)) "state undecided" None (Aba.decision a);
  Alcotest.(check int) "no DECIDE echo" 0 (List.length sends);
  Alcotest.(check bool) "not halted" false (Aba.halted a);
  (* f+1 BVALs would make us echo; 2f+1 would enter bin_values *)
  let a = mk () in
  let sends, _ = feed a (List.map (fun src -> (src, bval 1 true)) bad) in
  Alcotest.(check int) "no BVAL echo for bad senders" 0 (List.length sends);
  (* rounds below 1 are never entered by an honest player *)
  let a = mk () in
  let sends, _ =
    feed a (List.concat_map (fun src -> [ (src, bval 0 true); (src, aux 0 true) ]) [ 1; 2; 3 ])
  in
  Alcotest.(check int) "round 0 ignored" 0 (List.length sends);
  let sends, _ = feed a (List.map (fun src -> (src, bval (-3) false)) [ 1; 2; 3 ]) in
  Alcotest.(check int) "negative round ignored" 0 (List.length sends);
  (* the instance still works normally afterwards *)
  let sends, _ = feed a [ (1, bval 1 true); (2, bval 1 true) ] in
  Alcotest.(check bool) "valid senders still count" true (sends <> [])

let test_duplicates_count_once () =
  let n = 4 and f = 1 in
  (* BVAL: one sender repeating itself is still one sender (f+1 = 2) *)
  let a = Aba.create ~n ~f ~me:0 ~coin:(Coin.constant true) in
  let sends, _ = feed a [ (1, bval 1 true); (1, bval 1 true); (1, bval 1 true) ] in
  Alcotest.(check int) "repeated BVAL: no echo" 0 (List.length sends);
  let sends, _ = feed a [ (2, bval 1 true) ] in
  Alcotest.(check bool) "second sender: echo" true
    (List.exists (function _, Aba.Bval { round = 1; value = true } -> true | _ -> false) sends);
  (* AUX: round 1 completes at n-f = 3 AUX values inside bin_values *)
  let a = Aba.create ~n ~f ~me:0 ~coin:(Coin.constant true) in
  ignore (Aba.propose a true);
  let _ = feed a [ (1, bval 1 true); (2, bval 1 true) ] in
  let _, dec = feed a [ (1, aux 1 true); (1, aux 1 true); (1, aux 1 false) ] in
  Alcotest.(check (option bool)) "repeated AUX: no completion" None dec;
  Alcotest.(check int) "still round 1" 1 (Aba.round a);
  let _, dec = feed a [ (2, aux 1 true) ] in
  Alcotest.(check (option bool)) "third sender completes and decides" (Some true) dec;
  (* DECIDE: f+1 = 2 distinct senders decide *)
  let a = Aba.create ~n ~f ~me:0 ~coin:(Coin.constant true) in
  let sends, dec = feed a [ (1, Aba.Decide false); (1, Aba.Decide false) ] in
  Alcotest.(check (option bool)) "repeated DECIDE: no decision" None dec;
  Alcotest.(check int) "repeated DECIDE: no echo" 0 (List.length sends);
  let _, dec = feed a [ (2, Aba.Decide false) ] in
  Alcotest.(check (option bool)) "second sender decides" (Some false) dec;
  Alcotest.(check bool) "halts at n-f DECIDEs (ours included)" true (Aba.halted a)

let () =
  Alcotest.run "agreement"
    [
      ( "aba",
        [
          Alcotest.test_case "unanimous validity" `Quick test_unanimous_validity;
          Alcotest.test_case "all schedulers" `Quick test_unanimous_all_schedulers;
          Alcotest.test_case "mixed agreement" `Quick test_mixed_agreement;
          Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance;
          Alcotest.test_case "local coin" `Quick test_local_coin_terminates;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "out-of-range senders ignored" `Quick
            test_out_of_range_senders_ignored;
          Alcotest.test_case "duplicates count once" `Quick test_duplicates_count_once;
        ] );
      ( "acs",
        [
          Alcotest.test_case "all honest" `Quick test_acs_all_honest;
          Alcotest.test_case "with crash" `Quick test_acs_with_crash;
        ] );
    ]
