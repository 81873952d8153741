(* Optional process-wide counters: no-ops (one atomic flag read) until
   the observability sink is enabled, so the simulator hot loop pays
   ~nothing by default. *)
module Obs = Ujam_obs.Obs

let m_accesses = Obs.counter "sim.cache.accesses"
let m_misses = Obs.counter "sim.cache.misses"
let m_evictions = Obs.counter "sim.cache.evictions"

type t = {
  line : int;
  sets : int;
  line_shift : int;   (* log2 line when a power of two, else -1 *)
  set_mask : int;     (* sets - 1 when a power of two, else -1 *)
  assoc : int;
  steal : int;        (* fault injection: ways disabled in the last set *)
  tags : int array;   (* sets * assoc; [invalid] = empty way *)
  ages : int array;   (* LRU stamps *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

(* Not -1: that is the block of every address in [-line, -1]. *)
let invalid = min_int

let create ?(steal_lines = 0) ~size ~line ~assoc () =
  if line <= 0 || assoc <= 0 || size <= 0 then invalid_arg "Cache.create";
  if size mod (line * assoc) <> 0 then
    invalid_arg "Cache.create: size not a multiple of line * assoc";
  if steal_lines < 0 || steal_lines >= assoc then
    invalid_arg "Cache.create: steal_lines out of range";
  let sets = size / (line * assoc) in
  let pow2 n = n land (n - 1) = 0 in
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  { line;
    sets;
    line_shift = (if pow2 line then log2 line else -1);
    set_mask = (if pow2 sets then sets - 1 else -1);
    assoc;
    steal = steal_lines;
    tags = Array.make (sets * assoc) invalid;
    ages = Array.make (sets * assoc) 0;
    clock = 0;
    accesses = 0;
    misses = 0 }

let of_machine (m : Ujam_machine.Machine.t) =
  create ~size:m.Ujam_machine.Machine.cache_size ~line:m.Ujam_machine.Machine.cache_line
    ~assoc:m.Ujam_machine.Machine.associativity ()

let access_gen ~allocate t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  (* [asr] and [land] floor, so the shift/mask path agrees with the
     division path for negative addresses too. *)
  let block =
    if t.line_shift >= 0 then addr asr t.line_shift
    else if addr >= 0 then addr / t.line
    else (addr - t.line + 1) / t.line
  in
  let set =
    if t.set_mask >= 0 then block land t.set_mask
    else ((block mod t.sets) + t.sets) mod t.sets
  in
  let base = set * t.assoc in
  (* injected-fault support: the last set loses [steal] ways *)
  let ways = if set = t.sets - 1 then t.assoc - t.steal else t.assoc in
  let last = base + ways in
  let w = ref base in
  while !w < last && t.tags.(!w) <> block do
    incr w
  done;
  let hit = !w < last in
  if hit then t.ages.(!w) <- t.clock;
  let evicted = ref false in
  if not hit then begin
    t.misses <- t.misses + 1;
    if allocate then begin
      (* Fill the LRU way. *)
      let victim = ref base in
      for w = base + 1 to base + ways - 1 do
        if t.ages.(w) < t.ages.(!victim) then victim := w
      done;
      evicted := t.tags.(!victim) <> invalid;
      t.tags.(!victim) <- block;
      t.ages.(!victim) <- t.clock
    end
  end;
  if Obs.enabled () then begin
    Obs.Counter.incr m_accesses;
    if not hit then begin
      Obs.Counter.incr m_misses;
      if !evicted then Obs.Counter.incr m_evictions
    end
  end;
  hit

let access t addr = access_gen ~allocate:true t addr

(* Reference [j] of a run allocates on a miss unless [no_alloc.(j)]. *)
let replay ?no_alloc t addrs incs trips =
  let n = Array.length addrs in
  if t.assoc = 1 && t.line_shift >= 0 && t.set_mask >= 0 then begin
    (* Direct-mapped, power-of-two geometry: [block land mask] indexes one
       tag per set, so a hit is one compare, an allocating miss one store,
       no stamp. *)
    let tags = t.tags and shift = t.line_shift and mask = t.set_mask in
    let misses = ref 0 and evictions = ref 0 in
    for _ = 1 to trips do
      for j = 0 to n - 1 do
        let a = addrs.(j) in
        let block = a asr shift in
        let old = Array.unsafe_get tags (block land mask) in
        if old <> block then begin
          incr misses;
          if match no_alloc with None -> true | Some m -> not m.(j) then begin
            if old <> invalid then incr evictions;
            Array.unsafe_set tags (block land mask) block
          end
        end;
        addrs.(j) <- a + incs.(j)
      done
    done;
    t.accesses <- t.accesses + (max trips 0 * n);
    t.misses <- t.misses + !misses;
    Obs.Counter.add m_accesses (max trips 0 * n);
    Obs.Counter.add m_misses !misses;
    Obs.Counter.add m_evictions !evictions
  end
  else
    for _ = 1 to trips do
      for j = 0 to n - 1 do
        let allocate = match no_alloc with None -> true | Some m -> not m.(j) in
        ignore (access_gen ~allocate t addrs.(j));
        addrs.(j) <- addrs.(j) + incs.(j)
      done
    done

let access_run t addrs incs trips = replay t addrs incs trips

let accesses t = t.accesses
let misses t = t.misses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) invalid;
  Array.fill t.ages 0 (Array.length t.ages) 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.misses <- 0

(* Reference LRU stack: the textbook stack-distance algorithm (Mattson
   et al.).  A fully-associative LRU cache of capacity [C] lines hits
   exactly the accesses whose stack distance is < C, which is both the
   QCheck cross-check for the set-associative simulator above and the
   semantic ground the static predictor's histograms stand on. *)
module Stack = struct
  type nonrec t = { line : int; mutable stack : int list }

  let create ~line =
    if line <= 0 then invalid_arg "Cache.Stack.create";
    { line; stack = [] }

  let access t addr =
    let block =
      if addr >= 0 then addr / t.line else (addr - t.line + 1) / t.line
    in
    let rec pull i acc = function
      | [] -> (None, List.rev acc)
      | b :: rest when b = block -> (Some i, List.rev_append acc rest)
      | b :: rest -> pull (i + 1) (b :: acc) rest
    in
    let d, rest = pull 0 [] t.stack in
    t.stack <- block :: rest;
    d
end

(* Multi-level hierarchy: every level observes the full reference
   stream independently (for same-line LRU levels this equals the
   probe-on-miss chain by stack inclusion, and it is the only sane
   semantics once a TLB-style level with a different "line" joins the
   list).  Write-through levels do not allocate on write misses. *)
module Hierarchy = struct
  module Level = Ujam_machine.Machine.Level

  type nonrec t = { caches : (Level.t * t) array }

  let create ?steal_lines levels =
    (match Ujam_machine.Machine.validate_levels levels with
    | Ok () -> ()
    | Error e ->
        invalid_arg
          ("Cache.Hierarchy.create: " ^ Ujam_machine.Machine.geometry_message e));
    { caches =
        Array.of_list
          (List.map
             (fun (l : Level.t) ->
               ( l,
                 create ?steal_lines ~size:l.Level.size ~line:l.Level.line
                   ~assoc:l.Level.assoc () ))
             levels) }

  let of_machine ?steal_lines m =
    create ?steal_lines (Ujam_machine.Machine.effective_levels m)

  let access t ?(write = false) addr =
    for i = 0 to Array.length t.caches - 1 do
      let (l : Level.t), c = t.caches.(i) in
      let allocate =
        match l.Level.write with
        | Level.Write_allocate -> true
        | Level.Write_through -> not write
      in
      ignore (access_gen ~allocate c addr)
    done

  let access_run t ~writes addrs incs trips =
    let last = Array.length t.caches - 1 in
    for i = 0 to last do
      let (l : Level.t), c = t.caches.(i) in
      let no_alloc = if l.Level.write = Level.Write_through then Some writes else None in
      replay ?no_alloc c (if i = last then addrs else Array.copy addrs) incs trips
    done

  let stats t =
    Array.to_list
      (Array.map (fun (l, c) -> (l, c.accesses, c.misses)) t.caches)
end
