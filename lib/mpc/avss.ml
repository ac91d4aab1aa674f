module Gf = Field.Gf
module Poly = Field.Poly
module Bipoly = Field.Bipoly

type msg =
  | Row of Poly.t
  | Point of Gf.t
  | Ready

let pp_msg fmt = function
  | Row p -> Format.fprintf fmt "Row(%a)" Poly.pp p
  | Point v -> Format.fprintf fmt "Point(%a)" Gf.pp v
  | Ready -> Format.fprintf fmt "Ready"

type t = {
  n : int;
  deg : int; (* sharing degree: privacy threshold (k+t in the compiler) *)
  faults : int; (* max Byzantine players the quorums must absorb *)
  me : int;
  dealer : int;
  others : int list; (* every pid but [me], ascending *)
  mutable row : Poly.t option;
  mutable row_received : bool; (* a Row message was already processed *)
  mutable points_sent : bool;
  (* Per-pid state lives in flat arrays (pids are dense 0..n-1): the old
     per-instance Hashtbls cost a polymorphic hash + bucket walk on every
     progress scan, which dominated the simulator profile. *)
  points : Gf.t option array; (* src -> claimed f_src(me) = f_me(src) *)
  mutable n_points : int;
  mutable readied : bool;
  ready : bool array;
  mutable n_ready : int;
  mutable accepted_share : Gf.t option;
}

type reaction = {
  sends : (int * msg) list;
  accepted : Gf.t option;
}

let nothing = { sends = []; accepted = None }

(* [a @ b], without copying [a] when [b] is empty (the usual case). *)
let append a b = match b with [] -> a | _ :: _ -> a @ b

let create ~n ~degree ~faults ~me ~dealer =
  if n <= 3 * faults then invalid_arg "Avss.create: need n > 3*faults";
  if n < degree + (2 * faults) + 1 then
    invalid_arg "Avss.create: need n >= degree + 2*faults + 1";
  if me < 0 || me >= n || dealer < 0 || dealer >= n then invalid_arg "Avss.create: pid range";
  {
    n;
    deg = degree;
    faults;
    me;
    dealer;
    others = List.filter (fun i -> i <> me) (List.init n Fun.id);
    row = None;
    row_received = false;
    points_sent = false;
    points = Array.make n None;
    n_points = 0;
    readied = false;
    ready = Array.make n false;
    n_ready = 0;
    accepted_share = None;
  }

let share s = s.accepted_share
let is_accepted s = Option.is_some s.accepted_share

(* Points from others claimed to equal our row at their index (1-based
   evaluation points: player i evaluates at i+1). *)
let point_of _s i = Gf.of_int (i + 1)

let matching_points s row =
  let acc = ref 1 (* our own point trivially matches *) in
  for src = 0 to s.n - 1 do
    match s.points.(src) with
    | Some p -> if Gf.equal (Poly.eval row (point_of s src)) p then incr acc
    | None -> ()
  done;
  !acc

let send_points s row =
  if s.points_sent then []
  else begin
    s.points_sent <- true;
    List.map (fun j -> (j, Point (Poly.eval row (point_of s j)))) s.others
  end

let send_ready s =
  if s.readied then []
  else begin
    s.readied <- true;
    if not s.ready.(s.me) then begin
      s.ready.(s.me) <- true;
      s.n_ready <- s.n_ready + 1
    end;
    List.map (fun j -> (j, Ready)) s.others
  end

let ready_count s = s.n_ready

(* Attempt to recover our row from cross points: the points (j, p_j) we
   received lie on our row. Adopt a decoded row only when it is certified
   against >= 2t+1 of the points (so at least t+1 honest points pin it). *)
let try_recover_row s =
  match s.row with
  | Some _ -> None
  | None ->
      (* Collect received cross points in pid order (the decoded row is
         the unique certified polynomial, so point order cannot change
         the result — only the cache keys). *)
      let r = s.n_points in
      let xs = Array.make r Gf.zero in
      let ys = Array.make r Gf.zero in
      let i = ref 0 in
      for src = 0 to s.n - 1 do
        match s.points.(src) with
        | Some p ->
            xs.(!i) <- point_of s src;
            ys.(!i) <- p;
            incr i
        | None -> ()
      done;
      let rec try_e e =
        if e > s.faults || s.deg + s.faults + 1 + e > r then None
        else
          match Shamir.decode_arrays ~degree:s.deg ~max_errors:e xs ys with
          | Some row -> Some row
          | None -> try_e (e + 1)
      in
      try_e 0

(* Progress rules shared by all handlers. *)
let progress s =
  let sends = ref [] in
  (match s.row with
  | None -> (
      (* Row recovery becomes possible as points accumulate, and is only
         attempted once the instance shows signs of life (some READY). *)
      if ready_count s >= 1 then
        match try_recover_row s with
        | Some row ->
            s.row <- Some row;
            sends := append (send_points s row) !sends
        | None -> ())
  | Some _ -> ());
  (match s.row with
  | Some row ->
      let m = matching_points s row in
      if m >= s.deg + s.faults + 1 then sends := append (send_ready s) !sends
      else if m >= s.deg + 1 && ready_count s >= s.faults + 1 then
        (* READY amplification: enough corroboration plus t+1 announcements *)
        sends := append (send_ready s) !sends
  | None -> ());
  let accepted =
    match (s.accepted_share, s.row) with
    | None, Some row when ready_count s >= (2 * s.faults) + 1 ->
        let sh = Poly.eval row Gf.zero in
        s.accepted_share <- Some sh;
        Some sh
    | _ -> None
  in
  { sends = !sends; accepted }

let deal s rng ~secret =
  if s.me <> s.dealer then invalid_arg "Avss.deal: not the dealer";
  if s.row_received then invalid_arg "Avss.deal: already dealt";
  let b = Bipoly.random_symmetric rng ~degree:s.deg ~secret in
  s.row_received <- true;
  let my_row = Bipoly.row b (point_of s s.me) in
  s.row <- Some my_row;
  let row_sends =
    List.map (fun j -> (j, Row (Bipoly.row b (point_of s j)))) s.others
  in
  let pt_sends = send_points s my_row in
  let r = progress s in
  { r with sends = row_sends @ append pt_sends r.sends }

let handle s ~src m =
  match m with
  | Row row ->
      if src <> s.dealer || s.row_received then nothing
      else begin
        s.row_received <- true;
        if Poly.degree row > s.deg then nothing
        else begin
          (match s.row with
          | Some _ -> () (* already recovered; keep the recovered row *)
          | None -> s.row <- Some row);
          let sends =
            match s.row with Some r -> send_points s r | None -> []
          in
          let r = progress s in
          { r with sends = append sends r.sends }
        end
      end
  | Point p ->
      if src < 0 || src >= s.n || Option.is_some s.points.(src) then nothing
      else begin
        s.points.(src) <- Some p;
        s.n_points <- s.n_points + 1;
        progress s
      end
  | Ready ->
      if src < 0 || src >= s.n || s.ready.(src) then nothing
      else begin
        s.ready.(src) <- true;
        s.n_ready <- s.n_ready + 1;
        progress s
      end
