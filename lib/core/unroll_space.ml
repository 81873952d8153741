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
  { bounds = Array.copy bounds; strides; card = strides.(0) * (bounds.(0) + 1) }

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
let coord t i k = i / t.strides.(k) mod (t.bounds.(k) + 1)
let vector t i = Vec.init (depth t) (coord t i)

(* The pointwise order on positions. *)
let leq t i j =
  let ok = ref true in
  for k = 0 to depth t - 1 do
    if coord t i k > coord t j k then ok := false
  done;
  !ok

(* Steps the coordinates [o] to the next vector in lex order, from the
   last to the first. *)
let next t o =
  let k = ref (depth t - 1) in
  while !k >= 0 && o.(!k) = t.bounds.(!k) do
    o.(!k) <- 0;
    decr k
  done;
  if !k >= 0 then o.(!k) <- o.(!k) + 1

(* [at] holds the join closure's positions in lex order.  A chain is its
   own closure ([points] empty): a position it was built from is below
   its [k]-th point iff it comes no later.  Otherwise [points] are the
   closure's vectors, and [largest_below] is empty while the closure has
   at most sqrt card points, else maps every position to the index of
   the largest point below it, or -1. *)
type lattice =
  { space : t; at : int array; chain : bool; points : Vec.t array; largest_below : int array }

(* Every join of a subset is a smaller join joined with one more
   position, so joining each point found with each position finds the
   closure, unless it outgrows sqrt card; then one sweep in lex order
   finds the join of the positions below each position (it is the
   position itself, or the join of those below its axis neighbours at
   [i - stride]), and the closure is where that join is the position. *)
let close t positions =
  let small n = n * n <= t.card in
  let seen = Bytes.make t.card '\000' in
  let found = ref [] and count = ref 0 and todo = ref [] in
  let add i v =
    Bytes.set seen i '\001';
    found := (i, v) :: !found;
    incr count;
    todo := v :: !todo
  in
  let rec seed = function
    | i :: rest when small !count ->
        if Bytes.get seen i = '\000' then add i (vector t i);
        seed rest
    | _ -> ()
  in
  seed positions;
  let gens = !todo in
  while small !count && !todo <> [] do
    let v = List.hd !todo in
    todo := List.tl !todo;
    List.iter
      (fun g ->
        let i = ref 0 in
        for k = 0 to depth t - 1 do
          i := !i + (t.strides.(k) * max (Vec.get v k) (Vec.get g k))
        done;
        if small !count && Bytes.get seen !i = '\000' then add !i (Vec.map2 max v g))
      gens
  done;
  if small !count then begin
    let found = Array.of_list !found in
    Array.sort (fun (i, _) (j, _) -> Int.compare i j) found;
    let at = Array.map fst found and points = Array.map snd found in
    { space = t; at; chain = false; points; largest_below = [||] }
  end
  else begin
    (* [bc] holds the coordinates of the join below each position, -1
       where no position is below *)
    let d = depth t in
    let bc = Array.make (t.card * d) (-1) in
    List.iter (fun p -> for k = 0 to d - 1 do bc.((p * d) + k) <- coord t p k done) positions;
    let o = Array.make d 0 and index = Array.make t.card (-1) and at = ref [] and n = ref 0 in
    for i = 0 to t.card - 1 do
      for k = 0 to d - 1 do
        if o.(k) > 0 then
          for k' = 0 to d - 1 do
            let x = (i * d) + k' and y = ((i - t.strides.(k)) * d) + k' in
            bc.(x) <- max bc.(x) bc.(y)
          done
      done;
      let self = ref true in
      for k = 0 to d - 1 do
        if bc.((i * d) + k) <> o.(k) then self := false
      done;
      if !self then begin
        index.(i) <- !n;
        incr n;
        at := i :: !at
      end;
      next t o
    done;
    let at = Array.of_list (List.rev !at) in
    let largest_below i =
      let p = ref 0 in
      for k = 0 to d - 1 do
        p := !p + (t.strides.(k) * bc.((i * d) + k))
      done;
      if bc.(i * d) < 0 then -1 else index.(!p)
    in
    { space = t; at; chain = false; points = Array.map (vector t) at;
      largest_below = Array.init t.card largest_below }
  end

(* In lex order, positions form a chain when each is below the next. *)
let lattice t positions =
  let sorted = List.sort_uniq Int.compare positions in
  let rec chain = function i :: (j :: _ as rest) -> leq t i j && chain rest | _ -> true in
  if chain sorted then
    { space = t; at = Array.of_list sorted; chain = true; points = [||]; largest_below = [||] }
  else close t sorted

(* Above some point the largest point of the closure below [u] exists,
   so a constant on the closure of the minimal positions covers the
   union of their upward boxes.  A position comes after every position
   below it in lex order. *)
let cover t positions =
  lattice t
    (List.fold_left
       (fun kept i -> if List.exists (fun j -> leq t j i) kept then kept else i :: kept)
       [] (List.sort_uniq Int.compare positions))

let lattice_size l = Array.length l.at

(* Off a chain, the positions are decoded once. *)
let lattice_below l offs =
  if l.chain then fun k i -> offs.(i) <= l.at.(k)
  else
    let vs = Array.map (vector l.space) offs in
    fun k i -> Vec.leq_pointwise vs.(i) l.points.(k)

let vectors t =
  let acc = ref [] in
  for i = t.card - 1 downto 0 do
    acc := vector t i :: !acc
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

  let add_at t i delta =
    if delta <> 0 then begin
      invalidate t;
      t.dirty <- true;
      t.pending.(i) <- t.pending.(i) + delta
    end

  (* Möbius inversion over the closure: [g k] is [f k] minus the [g] of
     the points below point [k] (all earlier in lex order), so the
     corners below [u] sum to [f] at the largest of them — their join.
     Over a chain the points below are all the earlier ones, so [g k]
     is [f k - f (k - 1)].  A large closure is written cell by cell
     instead, O(card): a cell is its materialized value plus the swept
     pending corners, so the pending layer need not be swept first. *)
  let add_lattice t (l : lattice) f =
    if l.chain then begin
      let prev = ref 0 in
      for k = 0 to Array.length l.at - 1 do
        let x = f k in
        add_at t l.at.(k) (x - !prev);
        prev := x
      done
    end
    else begin
      let g = Array.init (Array.length l.at) f in
      if l.largest_below = [||] then
        Array.iteri
          (fun k c ->
            for k' = 0 to k - 1 do
              if Vec.leq_pointwise l.points.(k') c then g.(k) <- g.(k) - g.(k')
            done;
            add_at t l.at.(k) g.(k))
          l.points
      else begin
        invalidate t;
        Array.iteri
          (fun i k -> if k >= 0 then t.cells.(i) <- t.cells.(i) + g.(k))
          l.largest_below
      end
    end

  (* Negative components clamp to 0 (the box {u >= lo} meets the space
     in {u >= max(lo, 0)}); a component above its bound makes the box
     empty. *)
  let add_cover t points delta =
    let positions =
      List.filter_map
        (fun lo ->
          if Vec.dim lo <> depth t.space then
            invalid_arg "Unroll_space.Table: dimension mismatch";
          let clamped = Vec.map (fun x -> max 0 x) lo in
          if mem t.space clamped then Some (index t.space clamped) else None)
        points
    in
    add_lattice t (cover t.space positions) (fun _ -> delta)

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
