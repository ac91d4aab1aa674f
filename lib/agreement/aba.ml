type msg =
  | Bval of { round : int; value : bool }
  | Aux of { round : int; value : bool }
  | Decide of bool

let pp_msg fmt = function
  | Bval { round; value } -> Format.fprintf fmt "BVAL(%d,%b)" round value
  | Aux { round; value } -> Format.fprintf fmt "AUX(%d,%b)" round value
  | Decide v -> Format.fprintf fmt "DECIDE(%b)" v

module Rounds = Hashtbl.Make (Int)

(* Per-sender state is dense: pids are 0..n-1, so who sent what is a
   flat array plus a running count, and every quorum read is an array
   scan (or just the count). Votes are stored as ints: -1 = nothing
   from that sender yet, 0 = false, 1 = true. All quorum reads are
   order-independent, so the layout does not change any outcome. *)
type round_state = {
  bval_from_false : bool array; (* src -> BVAL(r, false) received *)
  bval_from_true : bool array;
  mutable n_bval_false : int;
  mutable n_bval_true : int;
  mutable bval_sent_false : bool;
  mutable bval_sent_true : bool;
  mutable bin_false : bool;
  mutable bin_true : bool;
  mutable aux_sent : bool;
  aux_from : int array; (* src -> first AUX(r, _) value, -1 if none *)
  mutable n_aux : int;
  mutable completed : bool;
}

type t = {
  n : int;
  f : int;
  me : int;
  others : int list; (* every pid but [me], ascending *)
  coin : Coin.t;
  rounds : round_state Rounds.t;
  mutable current : int; (* 0 = not proposed *)
  mutable est : bool;
  mutable decided : bool option;
  mutable decide_sent : bool;
  decide_from : int array; (* src -> first DECIDE value, -1 if none *)
  mutable n_decide : int;
  mutable halted : bool;
}

let code v = if v then 1 else 0

let create ~n ~f ~me ~coin =
  if n <= 3 * f then invalid_arg "Aba.create: need n > 3f";
  if me < 0 || me >= n then invalid_arg "Aba.create: pid range";
  {
    n;
    f;
    me;
    others = List.filter (fun i -> i <> me) (List.init n Fun.id);
    coin;
    rounds = Rounds.create 4;
    current = 0;
    est = false;
    decided = None;
    decide_sent = false;
    decide_from = Array.make n (-1);
    n_decide = 0;
    halted = false;
  }

let round_state s r =
  match Rounds.find s.rounds r with
  | st -> st
  | exception Not_found ->
      let st =
        {
          bval_from_false = Array.make s.n false;
          bval_from_true = Array.make s.n false;
          n_bval_false = 0;
          n_bval_true = 0;
          bval_sent_false = false;
          bval_sent_true = false;
          bin_false = false;
          bin_true = false;
          aux_sent = false;
          aux_from = Array.make s.n (-1);
          n_aux = 0;
          completed = false;
        }
      in
      Rounds.replace s.rounds r st;
      st

type reaction = {
  sends : (int * msg) list;
  decided : bool option;
}

let nothing = { sends = []; decided = None }

let to_others s m = List.map (fun dst -> (dst, m)) s.others

(* [a @ b], without copying [a] when [b] is empty (the usual case). *)
let append a b = match b with [] -> a | _ :: _ -> a @ b

let bval_count st v = if v then st.n_bval_true else st.n_bval_false
let bval_sent st v = if v then st.bval_sent_true else st.bval_sent_false

let record_bval st src v =
  if v then begin
    if not st.bval_from_true.(src) then begin
      st.bval_from_true.(src) <- true;
      st.n_bval_true <- st.n_bval_true + 1
    end
  end
  else if not st.bval_from_false.(src) then begin
    st.bval_from_false.(src) <- true;
    st.n_bval_false <- st.n_bval_false + 1
  end

(* First AUX from [src] wins. *)
let record_aux st src v =
  if st.aux_from.(src) < 0 then begin
    st.aux_from.(src) <- code v;
    st.n_aux <- st.n_aux + 1
  end

let mark_bval_sent st v = if v then st.bval_sent_true <- true else st.bval_sent_false <- true
let in_bin st v = if v then st.bin_true else st.bin_false
let add_bin st v = if v then st.bin_true <- true else st.bin_false <- true

(* Send BVAL(r, v) from ourselves: mark, self-record, emit. *)
let send_bval s r v =
  let st = round_state s r in
  if bval_sent st v then []
  else begin
    mark_bval_sent st v;
    record_bval st s.me v;
    to_others s (Bval { round = r; value = v })
  end

(* Our own AUX/DECIDE overwrite whatever is recorded under [me]. *)
let send_aux s r v =
  let st = round_state s r in
  if st.aux_sent then []
  else begin
    st.aux_sent <- true;
    if st.aux_from.(s.me) < 0 then st.n_aux <- st.n_aux + 1;
    st.aux_from.(s.me) <- code v;
    to_others s (Aux { round = r; value = v })
  end

let send_decide s v =
  if s.decide_sent then []
  else begin
    s.decide_sent <- true;
    if s.decide_from.(s.me) < 0 then s.n_decide <- s.n_decide + 1;
    s.decide_from.(s.me) <- code v;
    to_others s (Decide v)
  end

(* The BVAL quorums for value [v] in round [r]; prepends to [sends]. *)
let bval_quorums s r st v sends =
  let c = bval_count st v in
  let sends =
    if c >= s.f + 1 && not (bval_sent st v) then append (send_bval s r v) sends else sends
  in
  if c >= (2 * s.f) + 1 && not (in_bin st v) then begin
    add_bin st v;
    (* bin_values became nonempty: send AUX once (in our current round). *)
    if r = s.current && not st.aux_sent then append (send_aux s r v) sends else sends
  end
  else sends

(* Propagate quorum effects inside round [r]; returns sends. *)
let bval_progress s r =
  let st = round_state s r in
  let sends = bval_quorums s r st true (bval_quorums s r st false []) in
  (* We may have entered round r with bin_values already populated. *)
  if r = s.current && not st.aux_sent then begin
    if st.bin_true then append (send_aux s r true) sends
    else if st.bin_false then append (send_aux s r false) sends
    else sends
  end
  else sends

(* Try to complete the current round; may decide and/or advance. *)
let rec try_complete s =
  if s.halted || s.current = 0 then nothing
  else begin
    let r = s.current in
    let st = round_state s r in
    if st.completed || (not st.aux_sent) || st.n_aux < s.n - s.f then nothing
    else begin
      (* AUX values inside bin_values: how many, and which values. *)
      let valid = ref 0 and vals_true = ref false and vals_false = ref false in
      for src = 0 to s.n - 1 do
        match st.aux_from.(src) with
        | 1 ->
            if st.bin_true then begin
              incr valid;
              vals_true := true
            end
        | 0 ->
            if st.bin_false then begin
              incr valid;
              vals_false := true
            end
        | _ -> ()
      done;
      if !valid < s.n - s.f then nothing
      else begin
        st.completed <- true;
        let c = s.coin ~round:r in
        let decided_now = ref None in
        let sends = ref [] in
        (match (!vals_false, !vals_true) with
        | true, false | false, true ->
            let v = !vals_true in
            s.est <- v;
            if Bool.equal v c then begin
              match s.decided with
              | Some _ -> ()
              | None ->
                  s.decided <- Some v;
                  decided_now := Some v;
                  sends := append (send_decide s v) !sends
            end
        | _ ->
            (* both (or pathologically neither): adopt the coin *)
            s.est <- c);
        (* Advance. *)
        s.current <- r + 1;
        sends := append !sends (send_bval s (r + 1) s.est);
        sends := append !sends (bval_progress s (r + 1));
        let next = try_complete s in
        { sends = append !sends next.sends; decided = (match !decided_now with Some v -> Some v | None -> next.decided) }
      end
    end
  end

let propose s v =
  if s.current <> 0 then invalid_arg "Aba.propose: already proposed";
  if s.halted then nothing
  else begin
    s.current <- 1;
    s.est <- v;
    let sends = send_bval s 1 v in
    let sends = append sends (bval_progress s 1) in
    let r = try_complete s in
    { sends = append sends r.sends; decided = r.decided }
  end

let check_halt s = if (not s.halted) && s.n_decide >= s.n - s.f then s.halted <- true

(* Messages from outside the player range, and rounds an honest player
   never enters (they start at 1), are dropped unseen, as Avss does with
   a bad [src]. *)
let handle s ~src m =
  if s.halted || src < 0 || src >= s.n then nothing
  else
    match m with
    | Bval { round; _ } | Aux { round; _ } when round < 1 -> nothing
    | Bval { round; value } ->
        let st = round_state s round in
        record_bval st src value;
        let sends = bval_progress s round in
        let r = try_complete s in
        check_halt s;
        { sends = append sends r.sends; decided = r.decided }
    | Aux { round; value } ->
        record_aux (round_state s round) src value;
        let r = try_complete s in
        check_halt s;
        r
    | Decide v ->
        if s.decide_from.(src) < 0 then begin
          s.decide_from.(src) <- code v;
          s.n_decide <- s.n_decide + 1
        end;
        let cv = code v in
        let count = ref 0 in
        for i = 0 to s.n - 1 do
          if s.decide_from.(i) = cv then incr count
        done;
        let sends = ref [] in
        let decided_now = ref None in
        if !count >= s.f + 1 then begin
          (match s.decided with
          | Some _ -> ()
          | None ->
              s.decided <- Some v;
              decided_now := Some v);
          sends := append (send_decide s v) !sends
        end;
        check_halt s;
        { sends = !sends; decided = !decided_now }

let decision (s : t) = s.decided
let halted (s : t) = s.halted
let round (s : t) = s.current
