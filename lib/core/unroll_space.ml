open Ujam_linalg

type t = { bounds : int array; strides : int array; card : int }

let make ~bounds =
  let d = Array.length bounds in
  if d = 0 then invalid_arg "Unroll_space.make: empty";
  if Array.exists (fun b -> b < 0) bounds then
    invalid_arg "Unroll_space.make: negative bound";
  if bounds.(d - 1) <> 0 then
    invalid_arg "Unroll_space.make: innermost bound must be 0";
  (* Mixed-radix strides for dense indexing; radix per level is b+1. *)
  let strides = Array.make d 1 in
  for k = d - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * (bounds.(k + 1) + 1)
  done;
  let card = strides.(0) * (bounds.(0) + 1) in
  { bounds = Array.copy bounds; strides; card }

let uniform ~depth ~bound ~unroll_levels =
  let bounds = Array.make depth 0 in
  List.iter
    (fun k ->
      if k < 0 || k >= depth - 1 then
        invalid_arg "Unroll_space.uniform: level out of range";
      bounds.(k) <- bound)
    unroll_levels;
  make ~bounds

let depth t = Array.length t.bounds
let bounds t = Array.copy t.bounds
let card t = t.card

let mem t v =
  Vec.dim v = depth t
  && Array.for_all2 (fun b x -> x >= 0 && x <= b) t.bounds (Vec.to_array v)

let unroll_levels t =
  let acc = ref [] in
  Array.iteri (fun k b -> if b > 0 then acc := k :: !acc) t.bounds;
  List.rev !acc

let copies u = Vec.fold (fun acc x -> acc * (x + 1)) 1 u

let iter t f =
  let d = depth t in
  let v = Array.make d 0 in
  let rec go k =
    if k = d then f (Vec.make v)
    else
      for x = 0 to t.bounds.(k) do
        v.(k) <- x;
        go (k + 1)
      done
  in
  go 0

(* The dense index is the lexicographic rank, so decoding ascending
   indices enumerates the space in lex order. *)
let of_index t i = Vec.init (depth t) (fun k -> i / t.strides.(k) mod (t.bounds.(k) + 1))

let vectors t =
  let acc = ref [] in
  for i = t.card - 1 downto 0 do
    acc := of_index t i :: !acc
  done;
  !acc

let fold t init f =
  let acc = ref init in
  iter t (fun v -> acc := f !acc v);
  !acc

let iter_pruned t ~prune f =
  let d = depth t in
  let v = Array.make d 0 in
  let pruned = ref 0 in
  (* Invariant: entering [go k], components k.. of [v] are 0, so the
     vector passed to [prune] is the pointwise-minimal completion of the
     current prefix.  When it is pruned, every leaf of the subtree is
     pointwise above it — and so is every later sibling's subtree, since
     bumping component k only raises the minimal completion.  Both are
     skipped in one step; [strides.(k)] is the per-subtree leaf count. *)
  let rec go k =
    if k = d then f (Vec.make v)
    else begin
      let x = ref 0 in
      let stop = ref false in
      while (not !stop) && !x <= t.bounds.(k) do
        v.(k) <- !x;
        if prune (Vec.make v) then begin
          pruned := !pruned + ((t.bounds.(k) - !x + 1) * t.strides.(k));
          stop := true
        end
        else go (k + 1);
        incr x
      done;
      v.(k) <- 0
    end
  in
  go 0;
  !pruned

let index t v =
  let idx = ref 0 in
  Array.iteri (fun k s -> idx := !idx + (s * Vec.get v k)) t.strides;
  !idx

module Table = struct
  type space = t

  (* [cells] holds materialized values.  [pending] is the difference
     layer: a delta written at corner [lo] means "add it at every
     [u >= lo]", which one running-sum sweep per axis turns into
     per-cell values (the d-dimensional difference-array scheme).
     Region writes therefore cost O(corners), not O(cells); the sweeps
     run once per read-after-write, O(d * card) total no matter how
     many regions were accumulated.  [prefix] caches the summed-area
     table of [cells] so prefix sums are O(1) per query. *)
  type nonrec t = {
    space : space;
    cells : int array;
    pending : int array;
    mutable dirty : bool;
    mutable prefix : int array option;
  }

  let create space init =
    { space;
      cells = Array.make space.card init;
      pending = Array.make space.card 0;
      dirty = false;
      prefix = None }

  let invalidate t = t.prefix <- None

  let check t v =
    if not (mem t.space v) then invalid_arg "Unroll_space.Table: out of space"

  (* One running pass per axis; composing all d of them replaces each
     entry with its downward-box accumulation (lex order guarantees the
     [i - stride] operand is already swept). *)
  let sweep_with op s arr =
    Array.iteri
      (fun k stride ->
        let radix = s.bounds.(k) + 1 in
        if radix > 1 then
          for i = 0 to s.card - 1 do
            if i / stride mod radix <> 0 then arr.(i) <- op arr.(i) arr.(i - stride)
          done)
      s.strides

  let materialize t =
    if t.dirty then begin
      sweep_with ( + ) t.space t.pending;
      Array.iteri
        (fun i d -> if d <> 0 then t.cells.(i) <- t.cells.(i) + d)
        t.pending;
      Array.fill t.pending 0 t.space.card 0;
      t.dirty <- false
    end

  let get t v =
    check t v;
    materialize t;
    t.cells.(index t.space v)

  let set t v x =
    check t v;
    materialize t;
    invalidate t;
    t.cells.(index t.space v) <- x

  let add t v x =
    check t v;
    materialize t;
    invalidate t;
    let i = index t.space v in
    t.cells.(i) <- t.cells.(i) + x

  (* Clip a corner into the space: negative components clamp to 0 (the
     box {u >= lo} meets the space in {u >= max(lo, 0)}); a component
     above its bound makes the box empty. *)
  let corner t lo =
    if Vec.dim lo <> depth t.space then
      invalid_arg "Unroll_space.Table: dimension mismatch";
    let clamped = Vec.map (fun x -> max 0 x) lo in
    if mem t.space clamped then Some clamped else None

  let add_from t lo delta =
    match corner t lo with
    | None -> ()
    | Some lo ->
        invalidate t;
        t.dirty <- true;
        let i = index t.space lo in
        t.pending.(i) <- t.pending.(i) + delta

  let add_cover t points delta =
    let points = List.sort_uniq Vec.compare (List.filter_map (corner t) points) in
    (* The union of upward boxes depends only on the minimal antichain,
       and 1- and 2-point antichains take the O(1) corner path. *)
    let points =
      if List.compare_length_with points 128 > 0 then points
      else
        List.filter
          (fun p ->
            not
              (List.exists
                 (fun q -> Vec.compare q p <> 0 && Vec.leq_pointwise q p)
                 points))
          points
    in
    match points with
    | [] -> ()
    | [ p ] -> add_from t p delta
    | [ p; q ] ->
        (* inclusion–exclusion over two boxes *)
        add_from t p delta;
        add_from t q delta;
        add_from t (Vec.map2 max p q) (-delta)
    | points ->
        invalidate t;
        let cov = Array.make t.space.card 0 in
        List.iter (fun p -> cov.(index t.space p) <- 1) points;
        sweep_with ( lor ) t.space cov;
        Array.iteri
          (fun i c -> if c <> 0 then t.cells.(i) <- t.cells.(i) + delta)
          cov

  let prefix_table t =
    materialize t;
    match t.prefix with
    | Some p -> p
    | None ->
        let p = Array.copy t.cells in
        sweep_with ( + ) t.space p;
        t.prefix <- Some p;
        p

  let prefix_sum t v =
    check t v;
    (prefix_table t).(index t.space v)
end
