open Ujam_linalg

let offsets u =
  let d = Vec.dim u in
  let rec go k =
    if k = d then [ [] ]
    else
      let rest = go (k + 1) in
      List.concat_map
        (fun o -> List.map (fun tl -> o :: tl) rest)
        (List.init (Vec.get u k + 1) Fun.id)
  in
  List.map Vec.of_list (go 0)

let validate nest u =
  let d = Nest.depth nest in
  if Vec.dim u <> d then invalid_arg "Unroll.unroll_and_jam: dimension";
  if Vec.exists (fun x -> x < 0) u then
    invalid_arg "Unroll.unroll_and_jam: negative unroll amount";
  if Vec.get u (d - 1) <> 0 then
    invalid_arg "Unroll.unroll_and_jam: innermost loop must not be unrolled"

let divides nest u =
  match Nest.trip_counts nest with
  | None -> true
  | Some trips ->
      let ok = ref true in
      Array.iteri
        (fun k trip ->
          let f = Vec.get u k + 1 in
          if f > 1 && (trip <= 0 || trip mod f <> 0) then ok := false)
        trips;
      !ok

let clamp_divisible nest u =
  match Nest.trip_counts nest with
  | None -> u
  | Some trips ->
      Vec.init (Nest.depth nest) (fun k ->
          let want = Vec.get u k + 1 in
          let rec fit f = if trips.(k) mod f = 0 then f else fit (f - 1) in
          fit (max 1 (min want trips.(k))) - 1)

let unroll_and_jam nest u =
  validate nest u;
  if Vec.is_zero u then nest
  else begin
    let loops =
      Array.map
        (fun (l : Loop.t) ->
          let f = Vec.get u l.Loop.level + 1 in
          if f = 1 then l else Loop.with_step l (l.Loop.step * f))
        (Nest.loops nest)
    in
    let body =
      (* The zero-offset copy is physically the original: [Stmt.shift]
         returns its argument on a zero delta. *)
      List.concat_map
        (fun o ->
          let shift_iters =
            Array.mapi
              (fun k ok -> ok * (Nest.loops nest).(k).Loop.step)
              (Vec.to_array o)
          in
          List.map (fun s -> Stmt.shift s shift_iters) (Nest.body nest))
        (offsets u)
    in
    Nest.with_loops (Nest.with_body nest body) loops
  end
