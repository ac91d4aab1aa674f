(* The repository's benchmark: compiled cheap-talk sessions end to end,
   and the default verification suite.

   Usage (from the repository root, normally through perfbench/run.py,
   which builds this executable first):

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --self-test

   Workloads (README.md in this directory records why each was chosen
   and its measured noise):

     session-sim        Theorem 4.1 coordination sessions, n=5 k=0 t=1,
                        through Engine.run on the Sim backend
     session-live       the same sessions on the Live backend, 16 in flight
     session-journaled  the same plan journaled into a trace store,
                        reopened and replayed, one session at a time
     verify-suite       E1-E10, A1 and chaos at the smoke budget plus the
                        model-checker fixture catalog, sequentially

   The seed shifts the range of session seeds: workload seed s runs
   sessions s * 1_000_000 + i. The library only ever receives the
   configs built from those seeds.

   With --trace 0 the last line of stdout is one JSON object carrying
   every end-to-end metric; with --trace 1 it carries every per-layer
   metric, measured by wrapping the library's entry points from outside
   (trace.ml) on every other round, the rounds in between measuring the
   untraced rate the tracing overhead is reported against. *)

module Compile = Cheaptalk.Compile

let now = Sim.Runner.now

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* ------------------------------------------------------------------ *)
(* Correctness bookkeeping: every unit of work (session, table, fixture)
   is attempted and either passes its check or is counted failed. *)

let attempted = ref 0
let failed = ref 0

let units ~n ~ok what =
  attempted := !attempted + n;
  if not ok then begin
    failed := !failed + n;
    prerr_endline ("perfbench: FAILED CHECK: " ^ what)
  end

let pinned ~what ~expect got =
  units ~n:1
    ~ok:(String.equal expect got)
    (Printf.sprintf "%s: digest %s, pinned %s" what got expect)

let digest s = Digest.to_hex (Digest.string s)

(* Files the benchmark writes (the journal store, the span log) live in
   this directory under the working directory. *)
let out_dir = ".perfbench"

let out_file name =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir name

let trace_path args = out_file (Printf.sprintf "trace-%s-seed%d.tsv" args.workload args.seed)

(* ------------------------------------------------------------------ *)
(* Plans and session configs. *)

let coordination = Mediator.Spec.coordination ~n:5

(* The largest plan of the verification suite: E1's n=9 majority-match
   row, Theorem 4.1 with k=1, t=1. *)
let majority9 = Mediator.Spec.majority_match ~n:9
let plan5 () = Compile.plan_memo_exn ~spec:coordination ~theorem:Compile.T41 ~k:0 ~t:1 ()
let plan9 () = Compile.plan_memo_exn ~spec:majority9 ~theorem:Compile.T41 ~k:1 ~t:1 ()
let stride = 1_000_000
let default_seed = 0
let show = string_of_int

(* What the traced run hands the tracer: span ids resolved once. *)
type tracing = { tr : Trace.t; ids : Trace.ids; make : int }

let tracing tr = { tr; ids = Trace.ids tr; make = Trace.id tr "core.make" }

(* The session config for [seed], exactly as `ctmed serve` and
   `ctmed run` build it: all players of type 0, coin seed [seed * 7919],
   deliveries chosen by [Scheduler.random_seeded seed]. *)
let config ?tracing ~record plan ~seed =
  let build () =
    let n = plan.Compile.spec.Mediator.Spec.game.Games.Game.n in
    let procs =
      Compile.processes plan ~types:(Array.make n 0) ~coin_seed:(seed * 7919) ~seed
    in
    let sched = Sim.Scheduler.random_seeded seed in
    match tracing with
    | None -> Sim.Runner.config ~record ~scheduler:sched procs
    | Some g ->
        Sim.Runner.config ~record
          ~scheduler:(Trace.scheduler g.tr g.ids sched)
          (Array.map (Trace.process g.tr g.ids) procs)
  in
  match tracing with None -> build () | Some g -> Trace.span g.tr g.make build

(* ------------------------------------------------------------------ *)
(* Measurement helpers. *)

(* A growable buffer of float samples. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.make 256 0.0; n = 0 }
  let clear s = s.n <- 0

  let add s x =
    if s.n = Float.Array.length s.a then begin
      let b = Float.Array.make (2 * s.n) 0.0 in
      Float.Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    Float.Array.set s.a s.n x;
    s.n <- s.n + 1

  let to_array s = Array.init s.n (Float.Array.get s.a)
end

(* GC words allocated so far on this domain: minor + major - promoted,
   the same total Engine.words_per_session reports. *)
let words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let gc_counts () =
  let g = Gc.quick_stat () in
  (g.Gc.minor_collections, g.Gc.major_collections)

(* setup_s: cold starts, each from cleared caches (the plan memo and
   the Shamir caches) to the first completed session of the default
   seed, whose repr is checked against a pinned digest. An untraced run
   makes them between its rounds, outside the rounds' timing, so they
   sample the whole run rather than its first tenth of a second, and
   reports a median over them (setup_s below). A full major collection before each, untimed,
   keeps the previous round's pending GC work out of it. A cold start
   leaves the caches warm again for the next round. *)
type setup = { times : Samples.t; what : string; expect : string; first : unit -> string }

let setup ~what ~expect first = { times = Samples.create (); what; expect; first }

let cold_start s =
  Compile.clear_caches ();
  Shamir.clear_caches ();
  Gc.full_major ();
  let t0 = now () in
  let repr = s.first () in
  Samples.add s.times (now () -. t0);
  pinned ~what:s.what ~expect:s.expect (digest repr)

(* A run's cold starts fall in two tight clusters, one for each of the
   host's two speeds (README.md, noise record), so their plain median
   jumps between the clusters from run to run; setup_s is the median of
   [setup_blocks] interleaved block means, which moves with the mix
   instead. Every cold start, in order, goes to
   .perfbench/setup-<workload>-seed<N>.tsv for noise analysis. *)
let setup_blocks = 9

let setup_s args s =
  let times = Samples.to_array s.times in
  let oc = open_out (out_file (Printf.sprintf "setup-%s-seed%d.tsv" args.workload args.seed)) in
  Array.iter (Printf.fprintf oc "%.9f\n") times;
  close_out oc;
  Stats.median_of_means ~blocks:setup_blocks times

(* The timed part of a run is a sequence of rounds of sessions: [secs]
   of measured time and one latency per session. In a traced run every
   other round is traced. *)
type round = { secs : float; lat : float array; traced : bool }

let rate rounds =
  let n, s =
    List.fold_left (fun (n, s) r -> (n + Array.length r.lat, s +. r.secs)) (0, 0.0) rounds
  in
  60.0 *. float_of_int n /. s

(* The tail is taken over [tail_sample] sessions spread evenly over the
   run, so its percentile (p90, with 40 samples beyond) stays the same
   when a change makes the workload faster or slower; over every session
   it would move from p90 to p99 to p99.9 as the count crosses 1,000 and
   10,000. *)
let tail_sample = 400

(* sessions_per_min over every untraced round and session_tail_ms over
   an even sample of their sessions, with a note naming the tail
   percentile and its sample. The note also gives the median latency,
   which is printed but not a BENCHMARK.json metric: when a host
   alternates between two speeds for minutes at a time, each run sits
   mostly in one of them and the median of the mixture jumps between
   the two (README.md, noise record). *)
let timing rounds =
  let measured = List.filter (fun r -> not r.traced) rounds in
  let all = Array.concat (List.map (fun r -> r.lat) (List.rev measured)) in
  let n = Array.length all in
  let sample =
    if n <= tail_sample then all else Array.init tail_sample (fun j -> all.(j * n / tail_sample))
  in
  let s = Stats.sorted sample in
  let k = Array.length s in
  match Stats.tail_pm ~n:k with
  | None -> failwith (Printf.sprintf "only %d latency samples; the tail needs 20" n)
  | Some pm ->
      ( rate measured,
        Stats.percentile_sorted s pm *. 1000.0,
        Printf.sprintf
          "session_tail_ms is %s of %d of the %d sessions, spread evenly (%d beyond); \
           median session %.4f ms"
          (Stats.pm_name pm) k n (Stats.beyond ~n:k pm)
          (Stats.median all *. 1000.0) )

(* Every round of an untraced run, as tab-separated lines (round, time
   in seconds, session latencies in seconds), for noise analysis. *)
let write_rounds args rounds =
  let oc =
    open_out (out_file (Printf.sprintf "rounds-%s-seed%d.tsv" args.workload args.seed))
  in
  List.iteri
    (fun i r ->
      Printf.fprintf oc "%d\t%.9f\t%s\n" i r.secs
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.9f") r.lat))))
    (List.rev rounds);
  close_out oc

(* Traced and untraced session rates of a traced run, over all rounds. *)
let trace_rates rounds =
  let traced, untraced = List.partition (fun r -> r.traced) rounds in
  (rate traced, rate untraced)

type result = {
  end_to_end : (string * float) list;
  layers : (string * float) list;
  summary : string;
}

let end_to_end_units =
  [
    ("setup_s", "s");
    ("sessions_per_min", "sessions/min");
    ("session_tail_ms", "ms");
    ("alloc_mwords", "Mwords/unit");
    ("peak_heap_mb", "MB");
  ]

let end_to_end ~setup_s ~sessions_per_min ~tail ~alloc_mwords =
  [
    ("setup_s", setup_s);
    ("sessions_per_min", sessions_per_min);
    ("session_tail_ms", tail);
    ("alloc_mwords", alloc_mwords);
    ("peak_heap_mb", peak_heap_mb ());
  ]

(* The end-to-end result of a session workload: timings and allocation
   per session over all of its rounds. *)
let session_result args ~summary ~setup_s ~rounds ~alloc_words =
  write_rounds args rounds;
  let sessions_per_min, tail, note = timing rounds in
  let sessions = List.fold_left (fun n r -> n + Array.length r.lat) 0 rounds in
  {
    end_to_end =
      end_to_end ~setup_s ~sessions_per_min ~tail
        ~alloc_mwords:(alloc_words /. float_of_int sessions /. 1e6);
    layers = [];
    summary = summary ^ "; " ^ note;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer results of a traced run. Session layers are per traced
   session, suite layers per suite pass; a layer the workload bypasses
   reports 0. *)

let layer_names =
  [
    ("mpc.share.msgs", "msgs/session");
    ("mpc.share.s", "s/session");
    ("mpc.share.kwords", "kwords/session");
    ("mpc.vote.msgs", "msgs/session");
    ("mpc.vote.s", "s/session");
    ("mpc.vote.kwords", "kwords/session");
    ("mpc.output.msgs", "msgs/session");
    ("mpc.output.s", "s/session");
    ("mpc.output.kwords", "kwords/session");
    ("mpc.start_s", "s/session");
    ("mpc.sends", "msgs/session");
    ("sim.scheduler.choose_calls", "calls/session");
    ("sim.scheduler.choose_s", "s/session");
    ("sim.steps", "steps/session");
    ("driver.self_s", "s/session");
    ("engine.run_s", "s/session");
    ("core.make_s", "s/session");
    ("core.make_calls", "calls/session");
    ("store.write_s", "s/session");
    ("store.read_s", "s/session");
    ("store.records", "records/session");
    ("store.bytes", "bytes/session");
    ("sim.replay_s", "s/session");
    ("sim.run_journaled_self_s", "s/session");
    ("experiments.e1_s", "s/suite");
    ("experiments.e2_s", "s/suite");
    ("experiments.e3_s", "s/suite");
    ("experiments.e4_s", "s/suite");
    ("experiments.e5_s", "s/suite");
    ("experiments.e6_s", "s/suite");
    ("experiments.e7_s", "s/suite");
    ("experiments.e8_s", "s/suite");
    ("experiments.e9_s", "s/suite");
    ("experiments.e10_s", "s/suite");
    ("experiments.a1_s", "s/suite");
    ("experiments.chaos_s", "s/suite");
    ("analysis.mc_s", "s/suite");
    ("analysis.mc.runs", "runs/suite");
    ("analysis.mc.states", "states/suite");
    ("verify.suite_s", "s/suite");
    ("gc.minor_collections", "count/unit");
    ("gc.major_collections", "count/unit");
    ("shamir.cache_entries", "count");
    ("trace.sessions_per_min", "sessions/min");
    ("trace.untraced_sessions_per_min", "sessions/min");
    ("trace.overhead_pct", "%");
  ]

(* Counters the traced rounds accumulate beside the tracer. *)
type layer_acc = {
  mutable sessions : int;  (** traced sessions *)
  mutable delivered : int;  (** Obs.Metrics.delivered_total over them *)
  mutable steps : int;
  mutable minor : int;  (** GC collections during traced work *)
  mutable major : int;
  mutable records : int;
  mutable bytes : int;
}

let layer_acc () =
  { sessions = 0; delivered = 0; steps = 0; minor = 0; major = 0; records = 0; bytes = 0 }

(* Count traced sessions' own counters and GC collections into [acc]. *)
let note_traced acc (m : Obs.Metrics.t) ~sessions ~minor ~major =
  acc.sessions <- acc.sessions + sessions;
  acc.delivered <- acc.delivered + Obs.Metrics.delivered_total m;
  acc.steps <- acc.steps + m.Obs.Metrics.steps;
  acc.minor <- acc.minor + minor;
  acc.major <- acc.major + major

(* The per-layer metrics of a traced run, plus the reconciliation
   checks: the tracer's message counts against the program's own
   delivery counter, and every parent's children plus its self time
   against its total. *)
let traced_layers ~(g : tracing) ~acc ~gc_units ~rounds ~suite =
  let tr = g.tr in
  let per_session x = if acc.sessions = 0 then 0.0 else x /. float_of_int acc.sessions in
  let msgs name = Trace.sent tr name in
  let total_msgs = msgs "mpc.share" + msgs "mpc.vote" + msgs "mpc.output" in
  units ~n:1 ~ok:(total_msgs = acc.delivered)
    (Printf.sprintf "traced messages %d <> Obs.Metrics.delivered_total %d" total_msgs
       acc.delivered);
  units ~n:1 ~ok:(tr.Trace.overlaps = 0)
    (Printf.sprintf "%d wrapped calls overlapped inside a parent span" tr.Trace.overlaps);
  List.iter
    (fun parent ->
      let total = Trace.secs tr parent and inner = Trace.inner tr parent in
      let self = Trace.self tr parent in
      units ~n:1
        ~ok:(Float.abs (inner +. self -. total) <= 1e-6 +. (1e-9 *. total))
        (Printf.sprintf "%s: children %.9f s + self %.9f s <> total %.9f s" parent inner self
           total))
    [ "engine.run"; "sim.run_journaled"; "sim.run" ];
  let traced_rate, untraced_rate = trace_rates rounds in
  let layer name =
    match name with
    | "mpc.share.msgs" -> per_session (float_of_int (msgs "mpc.share"))
    | "mpc.vote.msgs" -> per_session (float_of_int (msgs "mpc.vote"))
    | "mpc.output.msgs" -> per_session (float_of_int (msgs "mpc.output"))
    | "mpc.share.s" -> per_session (Trace.secs tr "mpc.share")
    | "mpc.vote.s" -> per_session (Trace.secs tr "mpc.vote")
    | "mpc.output.s" -> per_session (Trace.secs tr "mpc.output")
    | "mpc.share.kwords" -> per_session (Trace.kwords tr "mpc.share")
    | "mpc.vote.kwords" -> per_session (Trace.kwords tr "mpc.vote")
    | "mpc.output.kwords" -> per_session (Trace.kwords tr "mpc.output")
    | "mpc.start_s" -> per_session (Trace.secs tr "mpc.start")
    | "mpc.sends" -> per_session (float_of_int tr.Trace.sends)
    | "sim.scheduler.choose_calls" ->
        per_session (float_of_int (Trace.calls tr "sim.scheduler.choose"))
    | "sim.scheduler.choose_s" -> per_session (Trace.secs tr "sim.scheduler.choose")
    | "sim.steps" -> per_session (float_of_int acc.steps)
    | "driver.self_s" -> per_session (Trace.self tr "engine.run" +. Trace.self tr "sim.run")
    | "engine.run_s" -> per_session (Trace.secs tr "engine.run")
    | "core.make_s" -> per_session (Trace.secs tr "core.make")
    | "core.make_calls" -> per_session (float_of_int (Trace.calls tr "core.make"))
    | "store.write_s" -> per_session (Trace.secs tr "store.write")
    | "store.read_s" -> per_session (Trace.secs tr "store.read")
    | "store.records" -> per_session (float_of_int acc.records)
    | "store.bytes" -> per_session (float_of_int acc.bytes)
    | "sim.replay_s" -> per_session (Trace.secs tr "sim.replay")
    | "sim.run_journaled_self_s" -> per_session (Trace.self tr "sim.run_journaled")
    | "gc.minor_collections" -> float_of_int acc.minor /. float_of_int (max 1 gc_units)
    | "gc.major_collections" -> float_of_int acc.major /. float_of_int (max 1 gc_units)
    | "shamir.cache_entries" -> float_of_int (Shamir.cache_size ())
    | "trace.sessions_per_min" -> traced_rate
    | "trace.untraced_sessions_per_min" -> untraced_rate
    | "trace.overhead_pct" -> 100.0 *. (1.0 -. (traced_rate /. untraced_rate))
    | suite_layer -> Option.value (List.assoc_opt suite_layer suite) ~default:0.0
  in
  List.map (fun (name, _) -> (name, layer name)) layer_names

(* The result of a traced run; its span log is written out here. *)
let traced_result args ~summary ~g ~acc ~gc_units ~rounds ~suite =
  let layers = traced_layers ~g ~acc ~gc_units ~rounds ~suite in
  Trace.write g.tr (trace_path args);
  { end_to_end = []; layers; summary }

(* ------------------------------------------------------------------ *)
(* session-sim and session-live: rounds of [round] sessions through
   Engine.run, one domain, recycling on, record:false. *)

let round = 64

(* Cold starts after each round: two, about 20 ms against the round's
   0.3 s or more, so that setup_s is taken over about 150 cold starts on
   session-sim and 75 on session-live. *)
let engine_cold_starts = 2

(* Coordination: every player must move, and all on the same action. *)
let coordinated (o : int Sim.Types.outcome) =
  let m = o.Sim.Types.moves in
  Array.length m > 0
  && Array.for_all (fun x -> Option.is_some x && Option.equal Int.equal x m.(0)) m

let engine_round ?tracing ?lat ~backend ~bad plan ~base ~sessions () =
  let make ~seed = config ?tracing ~record:false plan ~seed:(base + seed) in
  let profile o =
    Option.iter (fun l -> Samples.add l o.Sim.Types.metrics.Obs.Metrics.wall_clock) lat;
    if not (coordinated o) then incr bad;
    Transport.Differential.profile ~show o
  in
  let go () = Engine.run ~backend ~sessions ~make ~profile () in
  match tracing with
  | None -> go ()
  | Some g -> Trace.parent g.tr (Trace.id g.tr "engine.run") go

(* Engine.det_repr of the default seed's first [round] sessions, the same
   on both backends (the live backend is byte-identical to the sim). *)
let pinned_round = "ac5e8b788798fd2004b565551e2b671d"

(* Engine.det_repr of the default seed's first session alone. *)
let pinned_first = "072ac1df9dbd8c023dfd079fbc5d861f"

let check_round ~what ~bad (st : Engine.stats) =
  units ~n:st.Engine.sessions
    ~ok:(st.Engine.completed = st.Engine.sessions && !bad = 0)
    (Printf.sprintf "%s: %d/%d sessions completed, %d not coordinated" what
       st.Engine.completed st.Engine.sessions !bad);
  bad := 0

let run_engine args ~backend =
  let name = Transport.Backend.to_string backend in
  let bad = ref 0 in
  let default_base = default_seed * stride in
  let cold =
    setup ~what:(name ^ " first session") ~expect:pinned_first (fun () ->
        let st = engine_round ~backend ~bad (plan5 ()) ~base:default_base ~sessions:1 () in
        check_round ~what:"setup" ~bad st;
        Engine.det_repr st)
  in
  let plan = plan5 () in
  let probe = engine_round ~backend ~bad plan ~base:default_base ~sessions:round () in
  check_round ~what:"default-seed round" ~bad probe;
  pinned ~what:(name ^ " default-seed round") ~expect:pinned_round
    (digest (Engine.det_repr probe));
  let tracer = if args.trace then Some (tracing (Trace.create ())) else None in
  let acc = layer_acc () in
  let lat = Samples.create () in
  let rounds = ref [] in
  let alloc = ref 0.0 in
  let first = ref "" in
  let base = args.seed * stride in
  let stop = now () +. args.seconds in
  let r = ref 0 in
  while now () < stop do
    let traced = args.trace && !r land 1 = 1 in
    let tracing = if traced then tracer else None in
    Samples.clear lat;
    let w0 = words () in
    let mi0, ma0 = gc_counts () in
    let t0 = now () in
    let st =
      engine_round ?tracing ~lat ~backend ~bad plan ~base:(base + (!r * round))
        ~sessions:round ()
    in
    let dt = now () -. t0 in
    let mi1, ma1 = gc_counts () in
    alloc := !alloc +. words () -. w0;
    rounds := { secs = dt; lat = Samples.to_array lat; traced } :: !rounds;
    if traced then
      note_traced acc (Obs.Agg.total st.Engine.agg) ~sessions:round ~minor:(mi1 - mi0)
        ~major:(ma1 - ma0);
    if not args.trace then for _ = 1 to engine_cold_starts do cold_start cold done;
    check_round ~what:(Printf.sprintf "%s round %d" name !r) ~bad st;
    if !r = 0 then first := Engine.det_repr st;
    incr r
  done;
  (* the live backend must reproduce the simulator's digest on the same
     seeds: rerun the first measured round on the sim, untimed *)
  if backend = Transport.Backend.Live then begin
    let sim = engine_round ~backend:Transport.Backend.Sim ~bad plan ~base ~sessions:round () in
    units ~n:round
      ~ok:(String.equal !first (Engine.det_repr sim))
      "live round 0 digest differs from the sim backend's on the same seeds"
  end;
  let rounds = !rounds in
  let summary =
    Printf.sprintf "%s: %d sessions in %d rounds of %d" name (!r * round) !r round
  in
  match tracer with
  | Some g -> traced_result args ~summary ~g ~acc ~gc_units:acc.sessions ~rounds ~suite:[]
  | None -> session_result args ~summary ~setup_s:(setup_s args cold) ~rounds ~alloc_words:!alloc

(* ------------------------------------------------------------------ *)
(* session-journaled: `ctmed run --journal` plus `ctmed replay`, in
   process, one session at a time. Run with record:true while emitting
   every decision into a Store.Writer, append the trace and the metrics,
   reopen the file with Store.Reader (entries, events, metrics) and
   replay the journal on a freshly built config. *)

type journaled = {
  original : int Sim.Types.outcome;
  replayed : int Sim.Types.outcome;
  recovery : Store.recovery;
  events : int Sim.Types.trace_event list;
  stored : Obs.Metrics.t option;
  records : int;
}

(* The metadata `ctmed run --journal` writes, so `ctmed replay` can
   replay a store this workload leaves behind. *)
let journal_meta ~seed =
  Obs.Json.Obj
    [
      ("format", Obs.Json.String "ctmed-run");
      ("spec", Obs.Json.String "coordination");
      ("theorem", Obs.Json.String "4.1");
      ("k", Obs.Json.Int 0);
      ("t", Obs.Json.Int 1);
      ("seed", Obs.Json.Int seed);
      ("faults", Obs.Json.Null);
      ("fuel", Obs.Json.Null);
    ]

let journaled_session ?tracing ~path plan ~seed =
  let spanned name f =
    match tracing with None -> f () | Some g -> Trace.span g.tr (Trace.id g.tr name) f
  in
  let cfg = config ?tracing ~record:true plan ~seed in
  let w =
    spanned "store.write" (fun () -> Store.Writer.create ~path ~meta:(journal_meta ~seed))
  in
  let emit =
    match tracing with
    | None -> Store.Writer.entry w
    | Some g ->
        let id = Trace.id g.tr "store.write" in
        fun e -> Trace.span g.tr id (fun () -> Store.Writer.entry w e)
  in
  let run () = Sim.Runner.run_journaled ~emit cfg in
  let original =
    match tracing with
    | None -> run ()
    | Some g -> Trace.parent g.tr (Trace.id g.tr "sim.run_journaled") run
  in
  spanned "store.write" (fun () ->
      List.iter (Store.Writer.event w) original.Sim.Types.trace;
      Store.Writer.metrics w original.Sim.Types.metrics);
  let records = Store.Writer.records w in
  spanned "store.write" (fun () -> Store.Writer.close w);
  let recovery, entries, events, stored =
    spanned "store.read" (fun () ->
        let r, recovery = Store.Reader.open_ path in
        let entries = Store.Reader.entries r in
        let events = Store.Reader.events r in
        let stored = Store.Reader.metrics r in
        Store.Reader.close r;
        (recovery, entries, events, stored))
  in
  let replayed =
    spanned "sim.replay" (fun () ->
        Sim.Runner.replay ~entries (config ~record:true plan ~seed))
  in
  { original; replayed; recovery; events; stored; records }

(* The replay checks of `ctmed replay`, plus byte-identity of the whole
   replayed outcome; returns the original outcome's repr. *)
let check_journaled ~what j =
  let repr = Transport.Differential.outcome_repr ~show j.original in
  let ok =
    j.recovery = Store.Clean
    && String.equal repr (Transport.Differential.outcome_repr ~show j.replayed)
    && j.events = j.original.Sim.Types.trace
    && (match j.stored with
       | Some m ->
           String.equal (Obs.Metrics.det_repr m)
             (Obs.Metrics.det_repr j.original.Sim.Types.metrics)
       | None -> false)
    && j.original.Sim.Types.termination = Sim.Types.All_halted
    && coordinated j.original
  in
  units ~n:1 ~ok (what ^ ": store recovery, replay or outcome check failed");
  repr

(* outcome_repr digest of the default seed's first journaled session,
   and of its first [journal_probe] sessions concatenated. *)
let pinned_journal_first = "b2115755e5e76dd3c2c1f15534532e01"
let pinned_journal_probe = "eaa9154ce2120c23baba93454355e9f2"
let journal_probe = 16

(* Sessions per round: about a quarter second, like the engine rounds. *)
let journal_round = 8

let run_journaled args =
  let path = out_file (Printf.sprintf "journal-%d.ctst" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let default_base = default_seed * stride in
      let cold =
        setup ~what:"journaled first session" ~expect:pinned_journal_first (fun () ->
            check_journaled ~what:"setup" (journaled_session ~path (plan5 ()) ~seed:default_base))
      in
      let plan = plan5 () in
      let probe =
        List.init journal_probe (fun i ->
            check_journaled ~what:"default-seed probe"
              (journaled_session ~path plan ~seed:(default_base + i)))
      in
      pinned ~what:"journaled default-seed probe" ~expect:pinned_journal_probe
        (digest (String.concat "\n" probe));
      let tracer = if args.trace then Some (tracing (Trace.create ())) else None in
      let acc = layer_acc () in
      let lat = Samples.create () in
      let rounds = ref [] in
      let alloc = ref 0.0 in
      let base = args.seed * stride in
      let stop = now () +. args.seconds in
      let r = ref 0 in
      while now () < stop do
        let traced = args.trace && !r land 1 = 1 in
        let tracing = if traced then tracer else None in
        Samples.clear lat;
        let secs = ref 0.0 in
        for i = 0 to journal_round - 1 do
          let seed = base + (!r * journal_round) + i in
          let w0 = words () in
          let mi0, ma0 = gc_counts () in
          let t0 = now () in
          let j = journaled_session ?tracing ~path plan ~seed in
          let dt = now () -. t0 in
          let mi1, ma1 = gc_counts () in
          alloc := !alloc +. words () -. w0;
          secs := !secs +. dt;
          Samples.add lat dt;
          if traced then begin
            note_traced acc j.original.Sim.Types.metrics ~sessions:1 ~minor:(mi1 - mi0)
              ~major:(ma1 - ma0);
            acc.records <- acc.records + j.records;
            acc.bytes <- acc.bytes + (Unix.stat path).Unix.st_size
          end;
          ignore (check_journaled ~what:(Printf.sprintf "journaled seed %d" seed) j : string)
        done;
        rounds := { secs = !secs; lat = Samples.to_array lat; traced } :: !rounds;
        if not args.trace then cold_start cold;
        incr r
      done;
      let rounds = !rounds in
      let summary =
        Printf.sprintf "session-journaled: %d sessions in %d rounds of %d"
          (!r * journal_round) !r journal_round
      in
      match tracer with
      | Some g -> traced_result args ~summary ~g ~acc ~gc_units:acc.sessions ~rounds ~suite:[]
      | None -> session_result args ~summary ~setup_s:(setup_s args cold) ~rounds ~alloc_words:!alloc)

(* ------------------------------------------------------------------ *)
(* verify-suite: what the default `make` verifies about the paper's
   claims, on a sequential pool. Tables are pure functions of the
   budget, so each one's deterministic repr is pinned. Verdicts are not
   required to PASS: E1, E2, E9 and A1 FAIL at the smoke budget by
   design; what must hold is that the tables do not change. *)

let suite_tables : (string * (Experiments.Common.ctx -> Experiments.Common.table)) list =
  [
    ("e1", Experiments.E1.run);
    ("e2", Experiments.E2.run);
    ("e3", Experiments.E3.run);
    ("e4", Experiments.E4.run);
    ("e5", Experiments.E5.run);
    ("e6", Experiments.E6.run);
    ("e7", Experiments.E7.run);
    ("e8", Experiments.E8.run);
    ("e9", Experiments.E9.run);
    ("e10", Experiments.E10.run);
    ("a1", Experiments.A1.run);
    ("chaos", Experiments.Chaos.run);
  ]

(* Digest of each table's repr: CSV, verdict and deterministic metrics,
   built as bench/main.ml's [table_repr] builds it. *)
let pinned_tables =
  [
    ("e1", "a22104a4494413308e703061aca20bfd");
    ("e2", "ded45774762724ce22e8d0b236aeb21a");
    ("e3", "ff429f9bfc3e24d817f02fcc837e8119");
    ("e4", "f98d35ba135dfde94743307937a0f7b7");
    ("e5", "70dc8d4ff16e5f3275ddd386c6945af1");
    ("e6", "7f0ec8e0e5655fc2ec7ff1ac661f1ad4");
    ("e7", "564acb0d6982a56f755d2f6159e80adc");
    ("e8", "c78b81f803212a979838bb272a3a5404");
    ("e9", "597f262cfc2b912b8d0a8ae7a9946bd3");
    ("e10", "7ca97c09969e6924dc3b51e62ec3e49a");
    ("a1", "8387ad9f1d7fa4a275b0278e14ac21b3");
    ("chaos", "1e0dd8ff86ee14700102b4dfdb5742c1");
  ]

let table_repr (t : Experiments.Common.table) =
  let metrics =
    match t.Experiments.Common.metrics with
    | None -> ""
    | Some m -> "\n" ^ Obs.Metrics.det_repr m
  in
  Experiments.Common.to_csv t ^ t.Experiments.Common.verdict ^ metrics

(* outcome_repr digest of the default seed's first n=9 session. *)
let pinned_n9_first = "26a6777d52ef7ff593f74631b3c806d7"

(* Sessions of the suite's n=9 plan measured for the session latency, in
   rounds of four; their p90 has 16 beyond. *)
let n9_sessions = 160
let n9_round = 4

let n9_session ?tracing plan ~seed =
  let cfg = config ?tracing ~record:false plan ~seed in
  let run () = Sim.Runner.run cfg in
  match tracing with
  | None -> run ()
  | Some g -> Trace.parent g.tr (Trace.id g.tr "sim.run") run

let check_n9 ~what (o : int Sim.Types.outcome) =
  units ~n:1
    ~ok:
      (o.Sim.Types.termination = Sim.Types.All_halted
      && Array.for_all Option.is_some o.Sim.Types.moves)
    (what ^ ": n=9 session did not complete with every player moving")

type pass = {
  wall : float;  (** summed over the tables and fixtures, each timed alone *)
  histories : int;
  alloc : float;
  minor : int;
  major : int;
  values : (string * float) list;
}

(* One pass over the suite, each table and fixture timed alone. *)
let suite_pass ?tracing () =
  let ctx = Experiments.Common.ctx Experiments.Common.Smoke in
  let wall = ref 0.0 and alloc = ref 0.0 and minor = ref 0 and major = ref 0 in
  let measured name f =
    let w0 = words () in
    let mi0, ma0 = gc_counts () in
    let t0 = now () in
    let r =
      match tracing with None -> f () | Some g -> Trace.span g.tr (Trace.id g.tr name) f
    in
    let dt = now () -. t0 in
    let mi1, ma1 = gc_counts () in
    wall := !wall +. dt;
    alloc := !alloc +. words () -. w0;
    minor := !minor + mi1 - mi0;
    major := !major + ma1 - ma0;
    (r, dt)
  in
  let histories = ref 0 in
  let values = ref [] in
  List.iter
    (fun (id, run) ->
      let t, dt = measured ("experiments." ^ id) (fun () -> run ctx) in
      values := (Printf.sprintf "experiments.%s_s" id, dt) :: !values;
      Option.iter
        (fun m -> histories := !histories + m.Obs.Metrics.runs)
        t.Experiments.Common.metrics;
      pinned ~what:("table " ^ id) ~expect:(List.assoc id pinned_tables)
        (digest (table_repr t)))
    suite_tables;
  let mc_s = ref 0.0 and mc_runs = ref 0 and mc_states = ref 0 in
  List.iter
    (fun (f : Experiments.Check.fixture) ->
      let r, dt = measured "analysis.mc" (fun () -> f.Experiments.Check.run ()) in
      mc_s := !mc_s +. dt;
      mc_runs := !mc_runs + r.Experiments.Check.stats.Analysis.Mc.runs;
      mc_states := !mc_states + r.Experiments.Check.stats.Analysis.Mc.states;
      units ~n:1 ~ok:r.Experiments.Check.ok
        ("fixture " ^ f.Experiments.Check.name ^ " contradicts its expected verdict"))
    Experiments.Check.fixtures;
  {
    wall = !wall;
    histories = !histories;
    alloc = !alloc;
    minor = !minor;
    major = !major;
    values =
      ("analysis.mc_s", !mc_s)
      :: ("analysis.mc.runs", float_of_int !mc_runs)
      :: ("analysis.mc.states", float_of_int !mc_states)
      :: ("verify.suite_s", !wall)
      :: !values;
  }

let run_suite args =
  let cold =
    setup ~what:"n=9 first session" ~expect:pinned_n9_first (fun () ->
        let o = n9_session (plan9 ()) ~seed:(default_seed * stride) in
        check_n9 ~what:"setup" o;
        Transport.Differential.outcome_repr ~show o)
  in
  let start = now () in
  let plan = plan9 () in
  let tracer = if args.trace then Some (tracing (Trace.create ())) else None in
  let acc = layer_acc () in
  let lat = Samples.create () in
  let base = args.seed * stride in
  let n9_round_at r =
    let traced = args.trace && r land 1 = 1 in
    let tracing = if traced then tracer else None in
    Samples.clear lat;
    let secs = ref 0.0 in
    for i = 0 to n9_round - 1 do
      let seed = base + (r * n9_round) + i in
      let t0 = now () in
      let o = n9_session ?tracing plan ~seed in
      secs := !secs +. (now () -. t0);
      Samples.add lat o.Sim.Types.metrics.Obs.Metrics.wall_clock;
      if traced then note_traced acc o.Sim.Types.metrics ~sessions:1 ~minor:0 ~major:0;
      check_n9 ~what:(Printf.sprintf "n=9 seed %d" seed) o
    done;
    if not args.trace then cold_start cold;
    { secs = !secs; lat = Samples.to_array lat; traced }
  in
  (* The n=9 rounds and their cold starts come first, so that clearing
     the caches never falls between the suite's tables: a table runs
     with whatever the tables before it left in the caches, as under
     `make`. *)
  let rounds = ref [] in
  for r = 0 to (n9_sessions / n9_round) - 1 do
    rounds := n9_round_at r :: !rounds
  done;
  let rounds = !rounds in
  (* then whole suite passes: as many as fit in --seconds from the start
     of the measurement, at least one *)
  let rec passes acc_passes =
    let p = suite_pass ?tracing:tracer () in
    acc.minor <- acc.minor + p.minor;
    acc.major <- acc.major + p.major;
    let acc_passes = p :: acc_passes in
    if now () -. start +. p.wall <= args.seconds then passes acc_passes else acc_passes
  in
  let ps = Array.of_list (passes []) in
  let med f = Stats.median (Array.map f ps) in
  let suite_s = med (fun p -> p.wall) in
  let histories = ps.(0).histories in
  let summary =
    Printf.sprintf
      "verify-suite: %d suite pass(es), suite_s %.3f (median), %d simulated histories per \
       pass; %d n=9 sessions in rounds of %d"
      (Array.length ps) suite_s histories n9_sessions n9_round
  in
  match tracer with
  | Some g ->
      let suite =
        List.map
          (fun (name, _) -> (name, med (fun p -> List.assoc name p.values)))
          ps.(0).values
      in
      traced_result args ~summary ~g ~acc ~gc_units:(Array.length ps) ~rounds ~suite
  | None ->
      (* the suite's own figures: simulated histories per minute of suite
         time, and allocation per pass; the n=9 sessions give the
         latencies *)
      write_rounds args rounds;
      let _, tail, note = timing rounds in
      {
        end_to_end =
          end_to_end ~setup_s:(setup_s args cold)
            ~sessions_per_min:(60.0 *. float_of_int histories /. suite_s)
            ~tail
            ~alloc_mwords:(med (fun p -> p.alloc) /. 1e6);
        layers = [];
        summary = summary ^ "; n=9 " ^ note;
      }

(* ------------------------------------------------------------------ *)
(* Command line and the result line. *)

let workloads =
  [
    ("session-sim", fun args -> run_engine args ~backend:Transport.Backend.Sim);
    ("session-live", fun args -> run_engine args ~backend:Transport.Backend.Live);
    ("session-journaled", run_journaled);
    ("verify-suite", run_suite);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (session-sim|session-live|session-journaled|verify-suite) \
     --seed N --seconds S --trace 0|1\n       bench.exe --self-test";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let known = [ "--workload"; "--seed"; "--seconds"; "--trace" ] in
  if List.exists (fun (k, _) -> not (List.mem k known)) kv then usage ();
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with Some n when n >= 0 -> n | _ -> usage ()
  in
  let workload = get "--workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seed = int "--seed" in
  (* session seeds are seed * stride + i and feed seed * 7919 coin seeds *)
  if seed > 1_000_000_000 then usage ();
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  { workload; seed; seconds = float_of_int seconds; trace }

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--self-test" then begin
    let results = Selftest.run () in
    List.iter
      (fun (name, ok) -> Printf.printf "%s  %s\n" (if ok then "ok  " else "FAIL") name)
      results;
    exit (if List.for_all snd results then 0 else 1)
  end;
  let args = parse Sys.argv in
  List.iter
    (fun (name, ok) -> units ~n:1 ~ok ("benchmark self-test failed: " ^ name))
    (Selftest.run ());
  let r = (List.assoc args.workload workloads) args in
  let metrics =
    if args.trace then
      List.map (fun (name, unit) -> (name, List.assoc name r.layers, unit)) layer_names
    else
      List.map (fun (name, unit) -> (name, List.assoc name r.end_to_end, unit)) end_to_end_units
  in
  List.iter
    (fun (name, v, _) ->
      units ~n:1 ~ok:(Float.is_finite v) (Printf.sprintf "metric %s is not finite" name))
    metrics;
  let metrics = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) metrics in
  let correct = !failed = 0 in
  print_endline r.summary;
  Printf.printf "failed_share %.6f (%d of %d units failed their check)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", " (List.map json_metric metrics))
