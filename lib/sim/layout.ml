open Ujam_ir

type array_info = { base : int; mins : int array; strides : int array; extents : int array }

type t = { arrays : (string, array_info) Hashtbl.t; footprint : int }

(* Interval of an affine form given per-level index intervals. *)
let affine_interval (a : Affine.t) (ivals : (int * int) array) =
  let lo = ref a.Affine.const and hi = ref a.Affine.const in
  Array.iteri
    (fun k c ->
      let l, h = ivals.(k) in
      if c >= 0 then begin
        lo := !lo + (c * l);
        hi := !hi + (c * h)
      end
      else begin
        lo := !lo + (c * h);
        hi := !hi + (c * l)
      end)
    a.Affine.coefs;
  (!lo, !hi)

(* Per-level index intervals, propagating affine bounds outside-in. *)
let index_intervals nest =
  let loops = Nest.loops nest in
  let d = Array.length loops in
  let ivals = Array.make d (0, 0) in
  for k = 0 to d - 1 do
    let l = loops.(k) in
    let lo, _ = affine_interval l.Loop.lo ivals in
    let _, hi = affine_interval l.Loop.hi ivals in
    ivals.(k) <- (lo, max lo hi)
  done;
  ivals

let of_nest nest ~line =
  if line <= 0 then invalid_arg "Layout.of_nest: line";
  let ivals = index_intervals nest in
  (* Gather min/max subscript values per array dimension. *)
  let ranges : (string, (int * int) array) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (r, _) ->
      let b = Aref.base r in
      let dims = Aref.rank r in
      let cur =
        match Hashtbl.find_opt ranges b with
        | Some cur -> cur
        | None ->
            let cur = Array.make dims (max_int, min_int) in
            Hashtbl.add ranges b cur;
            order := b :: !order;
            cur
      in
      Array.iteri
        (fun i s ->
          let lo, hi = affine_interval s ivals in
          let clo, chi = cur.(i) in
          cur.(i) <- (min clo lo, max chi hi))
        r.Aref.subs)
    (Nest.refs nest);
  let arrays = Hashtbl.create 8 in
  let next = ref 0 in
  List.iter
    (fun b ->
      let rng = Hashtbl.find ranges b in
      let dims = Array.length rng in
      let mins = Array.map fst rng in
      let extents = Array.map (fun (lo, hi) -> hi - lo + 1) rng in
      let strides = Array.make dims 1 in
      for i = 1 to dims - 1 do
        strides.(i) <- strides.(i - 1) * extents.(i - 1)
      done;
      let size = if dims = 0 then 1 else strides.(dims - 1) * extents.(dims - 1) in
      let base = !next in
      (* Line-align and stagger consecutive arrays by a few lines so
         power-of-two extents do not alias pathologically in low-
         associativity caches (the usual inter-array padding). *)
      next := base + (((size + line - 1) / line) * line) + (7 * line);
      Hashtbl.add arrays b { base; mins; strides; extents })
    (List.rev !order);
  { arrays; footprint = !next }

(* Fold [base + sum_i (s_i(iv) - min_i) * stride_i] into one affine form.
   Int arithmetic is modular, so the folded form gives bit-identical
   addresses even where a product wraps. *)
let compile t (r : Aref.t) =
  match Hashtbl.find_opt t.arrays (Aref.base r) with
  | None -> invalid_arg "Layout.compile: unknown array"
  | Some info ->
      let coefs = Array.make (Aref.depth r) 0 in
      let const = ref info.base in
      Array.iteri
        (fun i (s : Affine.t) ->
          const := !const + ((s.Affine.const - info.mins.(i)) * info.strides.(i));
          Array.iteri (fun k c -> coefs.(k) <- coefs.(k) + (c * info.strides.(i))) s.Affine.coefs)
        r.Aref.subs;
      Affine.make ~coefs ~const:!const

(* The loop order of [Nest.iter_index_vectors], handing [f] each run of
   the innermost loop: every reference's address at the run's first
   iteration and its step [coef * step]. *)
let iter_trace t nest refs f =
  let cs = Array.map (compile t) refs in
  let loops = Nest.loops nest in
  let d = Array.length loops in
  let step = loops.(d - 1).Loop.step in
  let incs = Array.map (fun (c : Affine.t) -> c.Affine.coefs.(d - 1) * step) cs in
  let addrs = Array.make (Array.length cs) 0 in
  let iv = Array.make d 0 in
  let count = ref 0 in
  let rec go k =
    let l = loops.(k) in
    let lo = Affine.eval l.Loop.lo iv and hi = Affine.eval l.Loop.hi iv in
    if k < d - 1 then begin
      let i = ref lo in
      while !i <= hi do
        iv.(k) <- !i;
        go (k + 1);
        i := !i + l.Loop.step
      done
    end
    else if lo <= hi then begin
      iv.(k) <- lo;
      for j = 0 to Array.length cs - 1 do
        addrs.(j) <- Affine.eval cs.(j) iv
      done;
      let trips = ((hi - lo) / step) + 1 in
      count := !count + trips;
      f addrs incs trips
    end
  in
  go 0;
  !count

let footprint t = t.footprint

let info t base = Hashtbl.find t.arrays base
