module Rbc = Broadcast.Rbc

type 'p msg =
  | Rb of int * 'p Rbc.msg
  | Ab of int * Aba.msg

type 'p t = {
  n : int;
  f : int;
  me : int;
  rbc : 'p Rbc.t array;
  aba : Aba.t array;
  values : 'p option array;
  proposed : bool array;  (* whether we proposed to aba.(j) *)
  mutable emitted : bool;  (* output already produced *)
}

type 'p reaction = {
  sends : (int * 'p msg) list;
  output : 'p option array option;
}

let create ~n ~f ~me ~coin =
  {
    n;
    f;
    me;
    rbc = Array.init n (fun sender -> Rbc.create ~n ~f ~me ~sender);
    aba = Array.init n (fun i -> Aba.create ~n ~f ~me ~coin:(coin ~instance:i));
    values = Array.make n None;
    proposed = Array.make n false;
    emitted = false;
  }

let wrap_rb i sends = List.map (fun (dst, m) -> (dst, Rb (i, m))) sends
let wrap_ab i sends = List.map (fun (dst, m) -> (dst, Ab (i, m))) sends

let decided_true s =
  Array.fold_left
    (fun acc a -> match Aba.decision a with Some true -> acc + 1 | Some false | None -> acc)
    0 s.aba

let all_decided s = Array.for_all (fun a -> Option.is_some (Aba.decision a)) s.aba

(* Propose [v] to aba.(j) if we have not proposed yet. *)
let propose s j v =
  if s.proposed.(j) then []
  else begin
    s.proposed.(j) <- true;
    wrap_ab j (Aba.propose s.aba.(j) v).Aba.sends
  end

(* After n-f instances accepted, vote to close out the rest. *)
let close_out s =
  if decided_true s >= s.n - s.f then
    List.concat (List.init s.n (fun j -> propose s j false))
  else []

let try_output s =
  if s.emitted || not (all_decided s) then None
  else begin
    (* Must hold every accepted value before emitting. *)
    let ready =
      Array.for_all
        (fun j ->
          match Aba.decision s.aba.(j) with
          | Some true -> Option.is_some s.values.(j)
          | _ -> true)
        (Array.init s.n (fun j -> j))
    in
    if not ready then None
    else begin
      s.emitted <- true;
      Some
        (Array.init s.n (fun j ->
             match Aba.decision s.aba.(j) with Some true -> s.values.(j) | _ -> None))
    end
  end

let after_event s sends =
  let sends = sends @ close_out s in
  { sends; output = try_output s }

let input s v =
  let r = Rbc.broadcast s.rbc.(s.me) v in
  let sends = wrap_rb s.me r.Rbc.sends in
  let sends =
    match r.Rbc.output with
    | Some v ->
        s.values.(s.me) <- Some v;
        sends @ propose s s.me true
    | None -> sends
  in
  after_event s sends

let handle s ~src m =
  match m with
  | Rb (i, sub) when i >= 0 && i < s.n ->
      let r = Rbc.handle s.rbc.(i) ~src sub in
      let sends = wrap_rb i r.Rbc.sends in
      let sends =
        match r.Rbc.output with
        | Some v ->
            s.values.(i) <- Some v;
            sends @ propose s i true
        | None -> sends
      in
      after_event s sends
  | Ab (i, sub) when i >= 0 && i < s.n ->
      let r = Aba.handle s.aba.(i) ~src sub in
      after_event s (wrap_ab i r.Aba.sends)
  | Rb _ | Ab _ -> { sends = []; output = None }

let output s =
  if s.emitted then
    Some
      (Array.init s.n (fun j ->
           match Aba.decision s.aba.(j) with Some true -> s.values.(j) | _ -> None))
  else None

let core_size s = if all_decided s then Some (decided_true s) else None
