open Ujam_linalg
open Ujam_ir

type bucket = { distance : float; weight : float }

type profile = {
  ugs : Ugs.t;
  accesses : float;
  near : float;
  near_distance : float;
  buckets : bucket list;
  cold : float;
  write_only : float;
}

let eps = 1e-9

(* Suffix localized space S_k = span{k, .., d-1}: reuse carried by loops
   k..d-1 is exploitable when the cache holds one sweep of them. *)
let suffix_space ~dim k = Subspace.span_dims ~dim (List.init (dim - k) (fun i -> k + i))

(* Column-major array strides, mirroring Sim.Layout's interval analysis
   (the inter-array stagger is irrelevant here: it moves bases, not
   strides).  Needed because the boolean kernel classification cannot
   see that a walk whose address stride is smaller than the line — a
   column walk under a TLB-size "line" — is effectively spatial. *)
let affine_interval (a : Affine.t) ivals =
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

(* Per base, the interval each subscript covers over the index box
   [ivals]. *)
let subscript_ranges nest ivals =
  let ranges : (string, (int * int) array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r, _) ->
      let b = Aref.base r in
      let cur =
        match Hashtbl.find_opt ranges b with
        | Some cur -> cur
        | None ->
            let cur = Array.make (Aref.rank r) (max_int, min_int) in
            Hashtbl.add ranges b cur;
            cur
      in
      Array.iteri
        (fun i s ->
          let lo, hi = affine_interval s ivals in
          let clo, chi = cur.(i) in
          cur.(i) <- (min clo lo, max chi hi))
        r.Aref.subs)
    (Nest.refs nest);
  ranges

let array_strides nest =
  let loops = Nest.loops nest in
  let d = Array.length loops in
  let ivals = Array.make d (0, 0) in
  for k = 0 to d - 1 do
    let l = loops.(k) in
    let lo, _ = affine_interval l.Loop.lo ivals in
    let _, hi = affine_interval l.Loop.hi ivals in
    ivals.(k) <- (lo, max lo hi)
  done;
  let ranges = subscript_ranges nest ivals in
  let strides = Hashtbl.create 8 in
  Hashtbl.iter
    (fun b rng ->
      let dims = Array.length rng in
      let st = Array.make dims 1 in
      for i = 1 to dims - 1 do
        let lo, hi = rng.(i - 1) in
        st.(i) <- st.(i - 1) * (hi - lo + 1)
      done;
      Hashtbl.add strides b st)
    ranges;
  (strides, ivals)

(* Address span (in elements) each base covers while loops k..d-1 sweep
   with loops 0..k-1 held fixed.  This bounds the distinct lines a sweep
   can touch, which in turn bounds its reuse distance: a sweep that
   re-fetches the same few lines over and over has a small stack
   distance no matter how many fetches it issues. *)
let sweep_spans nest ~strides ~ivals =
  let d = Array.length ivals in
  let spans : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  for k = 0 to d - 1 do
    (* collapse the fixed outer loops to a point; only k..d-1 vary *)
    let ivals_k =
      Array.mapi (fun j (lo, hi) -> if j < k then (lo, lo) else (lo, hi)) ivals
    in
    Hashtbl.iter
      (fun b rng ->
        let st =
          match Hashtbl.find_opt strides b with
          | Some st -> st
          | None -> Array.make (Array.length rng) 1
        in
        let span =
          let acc = ref 0 in
          Array.iteri
            (fun i (lo, hi) ->
              if hi >= lo then acc := !acc + ((hi - lo) * st.(i)))
            rng;
          !acc
        in
        let cur =
          match Hashtbl.find_opt spans b with
          | Some cur -> cur
          | None ->
              let cur = Array.make d 0 in
              Hashtbl.add spans b cur;
              cur
        in
        cur.(k) <- span)
      (subscript_ranges nest ivals_k)
  done;
  spans

(* |address delta| of one innermost-loop step for the UGS's access shape
   (all members share H, hence the stride). *)
let inner_stride ~strides (u : Ugs.t) =
  match u.Ugs.members with
  | [] -> max_int
  | (s : Site.t) :: _ -> (
      let r = s.Site.ref_ in
      match Hashtbl.find_opt strides (Aref.base r) with
      | None -> max_int
      | Some st ->
          let d = Aref.depth r in
          let acc = ref 0 in
          Array.iteri
            (fun i (sub : Affine.t) ->
              if d > 0 && Array.length sub.Affine.coefs = d then
                acc := !acc + (sub.Affine.coefs.(d - 1) * st.(i)))
            r.Aref.subs;
          abs !acc)

(* Mass a no-allocate (write-through) level can never retain: spatial
   classes containing no read under the FULL localized space.  A write
   class that merges with a read class when every loop is localized has
   its lines installed by those reads at some finite distance, so its
   misses are governed by the ordinary histogram fold, not charged
   unconditionally. *)
let write_only_weight ~localized (u : Ugs.t) =
  let p = Groups.group_spatial ~localized u in
  List.fold_left
    (fun acc cls ->
      if List.exists (fun s -> not (Site.is_write s)) cls then acc
      else acc +. float_of_int (List.length cls))
    0.0 p.Groups.classes

let profiles ?groups nest =
  match Nest.trip_counts nest with
  | None -> None
  | Some trips ->
      let d = Nest.depth nest in
      let groups = match groups with Some g -> g | None -> Ugs.of_nest nest in
      let spaces = Array.init d (fun k -> suffix_space ~dim:d k) in
      let strides, ivals = array_strides nest in
      let spans = sweep_spans nest ~strides ~ivals in
      (* Everything so far, the counts and the write-only mass hold for
         every line size. *)
      let counts =
        Array.map (fun l -> List.map (fun u -> Locality.ugs_cost ~localized:l u) groups) spaces
      in
      let write_only = Array.of_list (List.map (write_only_weight ~localized:spaces.(0)) groups) in
      Some (fun ~line ->
        (* distinct lines all bases together can touch during a sweep of
           loops k..d-1: the footprint bound on that sweep's reuse distance *)
        let footprint_lines k =
          Hashtbl.fold
            (fun _ sp acc -> acc +. (float_of_int sp.(k) /. float_of_int line) +. 1.0)
            spans 0.0
        in
        let total_iters =
          Array.fold_left (fun acc t -> acc *. float_of_int t) 1.0 trips
        in
        let sweep_iters k =
          let it = ref 1.0 in
          for j = k to d - 1 do
            it := !it *. float_of_int trips.(j)
          done;
          !it
        in
        let base_span_fp k b =
          match Hashtbl.find_opt spans b with
          | Some sp -> (float_of_int sp.(k) /. float_of_int line) +. 1.0
          | None -> Float.infinity
        in
        (* Distinct lines one UGS's orbit can land on while loops k..d-1
           sweep.  The span bound counts every line under the swept
           interval, but a loop whose address stride exceeds the line
           skips lines: each loop contributes at most min(trips, its own
           span in lines) landing positions.  Members are constant
           offsets of one orbit; an offset below the line only adds the
           boundary-crossing fraction spread/line. *)
        let orbit_lines k (u : Ugs.t) =
          match u.Ugs.members with
          | [] -> Float.infinity
          | (s : Site.t) :: _ -> (
              let r = s.Site.ref_ in
              match Hashtbl.find_opt strides (Aref.base r) with
              | None -> Float.infinity
              | Some st when Array.length st <> Aref.rank r -> Float.infinity
              | Some st ->
                  let dep = Aref.depth r in
                  if dep <> d then Float.infinity
                  else
                    let prod = ref 1.0 in
                    for j = k to d - 1 do
                      let sj = ref 0 in
                      Array.iteri
                        (fun i (sub : Affine.t) ->
                          if Array.length sub.Affine.coefs = d then
                            sj := !sj + (sub.Affine.coefs.(j) * st.(i)))
                        r.Aref.subs;
                      let tj = float_of_int trips.(j) in
                      let span_lines =
                        (float_of_int (abs !sj) *. (tj -. 1.0)
                         /. float_of_int line)
                        +. 1.0
                      in
                      prod := !prod *. Float.min tj span_lines
                    done;
                    let offset (s : Site.t) =
                      let acc = ref 0 in
                      Array.iteri
                        (fun i (sub : Affine.t) ->
                          acc := !acc + (sub.Affine.const * st.(i)))
                        s.Site.ref_.Aref.subs;
                      !acc
                    in
                    let offs = List.map offset u.Ugs.members in
                    let spread =
                      List.fold_left Int.max min_int offs
                      - List.fold_left Int.min max_int offs
                    in
                    !prod *. (1.0 +. (float_of_int spread /. float_of_int line)))
        in
        let ugs_span k (u : Ugs.t) =
          match u.Ugs.members with
          | (s : Site.t) :: _ -> base_span_fp k (Aref.base s.Site.ref_)
          | [] -> Float.infinity
        in
        let ugs_lines k u = Float.min (ugs_span k u) (orbit_lines k u) in
        (* distinct lines all groups together can touch during a sweep of
           loops k..d-1 — every touched line belongs to some group's
           orbit, so the per-group sum is an upper bound too; take the
           tighter of the two *)
        let ugs_footprint k =
          List.fold_left (fun acc u -> acc +. ugs_lines k u) 0.0 groups
        in
        (* cost.(k).(g): line fetches per innermost iteration of UGS g with
           reuse inside S_k exploited (Equation 1); monotone non-increasing
           in localization, so the differences are the histogram weights.
           Two corrections Equation 1's boolean classification cannot see:
           a No_reuse stream stepping less than a line per iteration is a
           strided spatial walk (scale by stride/line), and under the
           localized-space premise — the cache holds one S_k sweep — a
           sweep fetches at most its distinct-line footprint, so the rate
           is capped by footprint / sweep iterations (a middle loop whose
           address stride is below a page keeps re-touching the same pages
           even though it never walks the line dimension). *)
        let cost =
          Array.mapi
            (fun k counts ->
              let iters = sweep_iters k in
              Array.of_list
                (List.map2
                   (fun (u : Ugs.t) fold ->
                     let c = fold ~line in
                     let eq1 =
                       match c.Locality.stream with
                       | Locality.No_reuse ->
                           let s = inner_stride ~strides u in
                           if s < line then
                             c.Locality.accesses *. float_of_int s
                             /. float_of_int line
                           else c.Locality.accesses
                       | _ -> c.Locality.accesses
                     in
                     let fp_rate = ugs_lines k u /. iters in
                     Float.min eq1 fp_rate)
                   groups counts))
            counts
        in
        (* the interval clamps can locally invert the chain (a span is not
           sub-multiplicative in the trip counts); restore monotonicity —
           localizing more loops never costs more *)
        for k = d - 2 downto 0 do
          Array.iteri
            (fun g c_k -> cost.(k).(g) <- Float.min c_k cost.(k + 1).(g))
            cost.(k)
        done;
        let vol_per_iter = Array.map (Array.fold_left ( +. ) 0.0) cost in
        (* Lines touched during one full sweep of loops k..d-1 — the reuse
           distance seen by references whose reuse loop k-1 carries. *)
        let sweep_volume k =
          (* fetch count over the sweep, capped by the sweep's distinct-line
             footprint: re-fetching the same lines does not deepen the stack *)
          Float.min
            (vol_per_iter.(k) *. sweep_iters k)
            (Float.min (footprint_lines k) (ugs_footprint k))
        in
        let near_distance = Float.max 1.0 (2.0 *. vol_per_iter.(d - 1)) in
        let profile_of idx (u : Ugs.t) =
          let n = float_of_int (List.length u.Ugs.members) in
          let c k = cost.(k).(idx) in
          let near = Float.max 0.0 (n -. c (d - 1)) in
          (* compulsory mass cannot exceed the base's distinct lines *)
          let cold = ref (c 0) in
          let buckets = ref [] in
          for k = d - 1 downto 1 do
            let w = c k -. c (k - 1) in
            if w > eps then
              if trips.(k - 1) <= 1 then
                (* the carrying loop never comes around: those fetches are
                   compulsory, not capacity-sensitive *)
                cold := !cold +. w
              else buckets := { distance = sweep_volume k; weight = w } :: !buckets
          done;
          { ugs = u;
            accesses = n;
            near;
            near_distance;
            buckets = List.sort (fun a b -> Float.compare a.distance b.distance) !buckets;
            cold = Float.min !cold (ugs_span 0 u /. total_iters);
            write_only = write_only.(idx) }
        in
        List.mapi profile_of groups)

(* A bucket misses when its reuse distance strictly exceeds the
   capacity: a working set of exactly [capacity_lines] distinct lines
   still hits under LRU.  [slack > 1] demands the distance clear the
   capacity by that factor, yielding a confident lower bound — the
   distances are interval-analysis overestimates, so a bucket sitting
   just past the capacity may in truth fit. *)
let miss_ratio ?(write_through = false) ?(slack = 1.0) ~capacity_lines p =
  if p.accesses <= eps then 0.0
  else
    let cap = slack *. capacity_lines in
    let missed =
      p.cold
      +. (if p.near_distance > cap then p.near else 0.0)
      +. List.fold_left
           (fun acc b -> if b.distance > cap then acc +. b.weight else acc)
           0.0 p.buckets
    in
    let base = Float.min 1.0 (Float.max 0.0 (missed /. p.accesses)) in
    if write_through then
      let fw = Float.min 1.0 (p.write_only /. p.accesses) in
      Float.min 1.0 (fw +. ((1.0 -. fw) *. base))
    else base

let nest_miss_ratio ?write_through ?slack ~capacity_lines ps =
  let num, den =
    List.fold_left
      (fun (num, den) p ->
        ( num +. (miss_ratio ?write_through ?slack ~capacity_lines p *. p.accesses),
          den +. p.accesses ))
      (0.0, 0.0) ps
  in
  if den <= eps then 0.0 else num /. den

let dominant_distance p =
  match
    List.fold_left
      (fun best b ->
        match best with
        | Some bb when bb.weight >= b.weight -> best
        | _ -> Some b)
      None p.buckets
  with
  | Some b -> Some b.distance
  | None -> None
