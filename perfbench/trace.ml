(* Outside-in tracer for the traced run. Nothing inside lib/ is
   instrumented: the benchmark wraps the closures and calls it hands to
   the library (the per-player [start]/[receive] closures, the
   scheduler's [choose], its own [make ~seed], store/replay calls and
   whole tables or fixtures) and times them here.

   Every wrapped call is a span. Leaf spans (process activations,
   scheduler decisions, make, store and replay calls) never nest inside
   one another. A parent span is the call that drives sessions: one
   [Engine.run], [Runner.run_journaled] or [Runner.run]. While a parent
   is open, leaf spans are its children, and the parent's self time is
   its duration minus the union of its children (computed as a running
   sweep, which is exact because children arrive in start order).

   Totals are kept per span name; the first [log_cap] spans are also
   kept verbatim in memory and written out by [write] when the run
   ends. *)

(* Monotonic: a wall-clock step during a run would misorder spans. *)
let clock = Sim.Runner.now

type t = {
  mutable names : string array;
  mutable calls : int array;
  mutable sent : int array;  (** messages sent, by the class of their payload *)
  mutable secs : Float.Array.t;
  mutable words : Float.Array.t;
  mutable self : Float.Array.t;  (** parents only: duration minus children *)
  mutable inner : Float.Array.t;  (** parents only: summed child durations *)
  mutable sends : int;
  mutable overlaps : int;  (** children that started before the previous one ended *)
  (* the open parent span: log id (-1 when none), name id, and the
     running union of its children *)
  mutable parent : int;
  mutable parent_name : int;
  sweep : Stats.Sweep.t;
  origin : float;
  log_name : int array;
  log_parent : int array;
  log_start : Float.Array.t;
  log_stop : Float.Array.t;
  mutable logged : int;
  mutable unlogged : int;
}

let log_cap = 1 lsl 17

let create () =
  {
    names = [||];
    calls = [||];
    sent = [||];
    secs = Float.Array.create 0;
    words = Float.Array.create 0;
    self = Float.Array.create 0;
    inner = Float.Array.create 0;
    sends = 0;
    overlaps = 0;
    parent = -1;
    parent_name = -1;
    sweep = Stats.Sweep.create ();
    origin = clock ();
    log_name = Array.make log_cap 0;
    log_parent = Array.make log_cap (-1);
    log_start = Float.Array.make log_cap 0.0;
    log_stop = Float.Array.make log_cap 0.0;
    logged = 0;
    unlogged = 0;
  }

let grow_float a n =
  let b = Float.Array.make n 0.0 in
  Float.Array.blit a 0 b 0 (Float.Array.length a);
  b

(* The id of span name [name], registering it on first use. *)
let id t name =
  let rec find i =
    if i = Array.length t.names then begin
      let n = i + 1 in
      t.names <- Array.append t.names [| name |];
      t.calls <- Array.append t.calls [| 0 |];
      t.sent <- Array.append t.sent [| 0 |];
      t.secs <- grow_float t.secs n;
      t.words <- grow_float t.words n;
      t.self <- grow_float t.self n;
      t.inner <- grow_float t.inner n;
      i
    end
    else if String.equal t.names.(i) name then i
    else find (i + 1)
  in
  find 0

let log t name ~parent t0 t1 =
  if t.logged < log_cap then begin
    let i = t.logged in
    t.log_name.(i) <- name;
    t.log_parent.(i) <- parent;
    Float.Array.set t.log_start i t0;
    Float.Array.set t.log_stop i t1;
    t.logged <- i + 1;
    i
  end
  else begin
    t.unlogged <- t.unlogged + 1;
    -1
  end

let[@inline] leaf t name t0 t1 w =
  t.calls.(name) <- t.calls.(name) + 1;
  Float.Array.set t.secs name (Float.Array.get t.secs name +. (t1 -. t0));
  Float.Array.set t.words name (Float.Array.get t.words name +. w);
  if t.parent_name >= 0 then begin
    let p = t.parent_name in
    Float.Array.set t.inner p (Float.Array.get t.inner p +. (t1 -. t0));
    if Stats.Sweep.add t.sweep t0 t1 then t.overlaps <- t.overlaps + 1
  end;
  ignore (log t name ~parent:t.parent t0 t1 : int)

(* Time [f ()] as a leaf span. *)
let span t name f =
  let t0 = clock () in
  let r = f () in
  leaf t name t0 (clock ()) 0.0;
  r

(* Time [f ()] as a parent span: the leaf spans it encloses are its
   children. Parents do not nest. *)
let parent t name f =
  if t.parent_name >= 0 then invalid_arg "Trace.parent: parents do not nest";
  let t0 = clock () in
  t.parent <- log t name ~parent:(-1) t0 t0;
  t.parent_name <- name;
  Stats.Sweep.reset t.sweep ~start:t0;
  let finish () =
    let t1 = clock () in
    if t.parent >= 0 then Float.Array.set t.log_stop t.parent t1;
    t.calls.(name) <- t.calls.(name) + 1;
    Float.Array.set t.secs name (Float.Array.get t.secs name +. (t1 -. t0));
    Float.Array.set t.self name
      (Float.Array.get t.self name +. (t1 -. t0 -. Stats.Sweep.covered t.sweep));
    t.parent <- -1;
    t.parent_name <- -1
  in
  Fun.protect ~finally:finish f

let calls t name = t.calls.(id t name)
let sent t name = t.sent.(id t name)
let secs t name = Float.Array.get t.secs (id t name)
let kwords t name = Float.Array.get t.words (id t name) /. 1000.0
let self t name = Float.Array.get t.self (id t name)
let inner t name = Float.Array.get t.inner (id t name)

(* --- wrappers around the closures the library calls ----------------- *)

type ids = { share : int; vote : int; output : int; start : int; choose : int }

let ids t =
  {
    share = id t "mpc.share";
    vote = id t "mpc.vote";
    output = id t "mpc.output";
    start = id t "mpc.start";
    choose = id t "sim.scheduler.choose";
  }

(* Messages are classified by their [Mpc.Engine.msg] constructor:
   Share_msg is AVSS/RBC, Vote_msg is ABA/coin/ACS, Output_msg is output
   reconstruction. *)
let layer ids = function
  | Mpc.Engine.Share_msg _ -> ids.share
  | Mpc.Engine.Vote_msg _ -> ids.vote
  | Mpc.Engine.Output_msg _ -> ids.output

(* Messages are counted where they are sent: the runner delivers every
   message of a session that ends with all players halted, but it does
   not call [receive] for one addressed to a player that has already
   halted, so counting activations would miss those deliveries. *)
let count_sends t ids effs =
  List.iter
    (function
      | Sim.Types.Send (_, m) ->
          let l = layer ids m in
          t.sent.(l) <- t.sent.(l) + 1;
          t.sends <- t.sends + 1
      | _ -> ())
    effs

(* A player process whose activations are spans, classified by the
   message they deliver. The GC words are the minor-heap words the
   activation allocated. *)
let process t ids (p : (Mpc.Engine.msg, 'a) Sim.Types.process) =
  {
    p with
    Sim.Types.start =
      (fun () ->
        let w0 = Gc.minor_words () in
        let t0 = clock () in
        let r = p.Sim.Types.start () in
        let t1 = clock () in
        let w1 = Gc.minor_words () in
        leaf t ids.start t0 t1 (w1 -. w0);
        count_sends t ids r;
        r);
    receive =
      (fun ~src m ->
        let name = layer ids m in
        let w0 = Gc.minor_words () in
        let t0 = clock () in
        let r = p.Sim.Types.receive ~src m in
        let t1 = clock () in
        let w1 = Gc.minor_words () in
        leaf t name t0 t1 (w1 -. w0);
        count_sends t ids r;
        r);
  }

let scheduler t ids (s : Sim.Scheduler.t) =
  {
    s with
    Sim.Scheduler.choose =
      (fun ~step ~history ~pending ->
        let t0 = clock () in
        let d = s.Sim.Scheduler.choose ~step ~history ~pending in
        leaf t ids.choose t0 (clock ()) 0.0;
        d);
  }

(* --- output -------------------------------------------------------- *)

(* Write the logged spans as tab-separated lines: span id, parent id
   (-1 for none), name, start and duration in microseconds since the
   tracer was created. *)
let write t path =
  let oc = open_out path in
  Printf.fprintf oc "# spans logged %d, not logged (log full) %d\n" t.logged t.unlogged;
  Printf.fprintf oc "id\tparent\tname\tstart_us\tdur_us\n";
  for i = 0 to t.logged - 1 do
    let t0 = Float.Array.get t.log_start i and t1 = Float.Array.get t.log_stop i in
    Printf.fprintf oc "%d\t%d\t%s\t%.3f\t%.3f\n" i t.log_parent.(i)
      t.names.(t.log_name.(i))
      ((t0 -. t.origin) *. 1e6)
      ((t1 -. t0) *. 1e6)
  done;
  close_out oc
