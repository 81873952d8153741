(* Deterministic work-stealing parallel map.

   Each domain owns a deque holding a contiguous index range; owners
   pop one index at a time from the low end, idle domains steal the
   high half of a victim's range.  Results are written into their
   input slots, so the output ordering is the input ordering no matter
   how many domains run or how the scheduler interleaves them.

   Compared to the previous single shared atomic counter, contiguous
   per-domain ranges mean a domain's claims are cache-local and the
   only cross-domain traffic is the (rare) steal — memo-hit workloads
   with very short per-job cost no longer serialize on one cache line.

   Lock discipline: a thief holds at most one deque lock at a time —
   it removes the stolen range under the victim's lock, releases it,
   then installs the range under its own lock.  Holding both would
   deadlock when two domains steal from each other simultaneously.

   Termination: a global [unclaimed] counter is decremented at claim
   time.  A stolen range in flight (removed from the victim, not yet
   installed at the thief) keeps [unclaimed] positive, so no worker
   can exit while work exists anywhere; workers spin with
   [Domain.cpu_relax] only when every remaining job is claimed or in
   flight.

   Its one caller is [Engine.parallel_map], which layers its queue
   metrics on via [on_claim]; the engine's corpus runner, the fuzz
   harness's nest queue and the serve daemon's miss batches all run
   through it. *)

let clamp_domains domains n = max 1 (min domains (max 1 n))

(* Half-open index range [lo, hi), guarded by [lock]. *)
type deque = { lock : Mutex.t; mutable lo : int; mutable hi : int }

let map ?(domains = 1) ?(on_claim = fun ~remaining:_ -> ())
    ?(on_steal = fun ~thief:_ ~victim:_ ~count:_ -> ()) ~f jobs =
  let n = Array.length jobs in
  let out = Array.make n None in
  let domains = clamp_domains domains n in
  if domains = 1 then begin
    (* Sequential fast path: no locks, no atomics beyond the hook. *)
    for i = 0 to n - 1 do
      on_claim ~remaining:(n - i - 1);
      out.(i) <- Some (f ~domain:0 jobs.(i))
    done;
    Array.map (fun slot -> Option.get slot) out
  end
  else begin
    let deques =
      Array.init domains (fun d ->
          (* Contiguous initial chunks; the first [n mod domains]
             domains take one extra. *)
          let base = n / domains and extra = n mod domains in
          let lo = (d * base) + min d extra in
          let hi = lo + base + (if d < extra then 1 else 0) in
          { lock = Mutex.create (); lo; hi })
    in
    let unclaimed = Atomic.make n in
    (* Owner pop: one index off the low end, or None if empty. *)
    let pop (dq : deque) =
      Mutex.lock dq.lock;
      let r =
        if dq.lo < dq.hi then begin
          let i = dq.lo in
          dq.lo <- i + 1;
          Some i
        end
        else None
      in
      Mutex.unlock dq.lock;
      r
    in
    (* Steal: remove the high half of [victim]'s range (at least one
       index) under its lock alone; the caller installs it under its
       own lock afterwards. *)
    let steal (victim : deque) =
      Mutex.lock victim.lock;
      let r =
        let avail = victim.hi - victim.lo in
        if avail <= 0 then None
        else begin
          let take = max 1 (avail / 2) in
          victim.hi <- victim.hi - take;
          Some (victim.hi, victim.hi + take)
        end
      in
      Mutex.unlock victim.lock;
      r
    in
    let worker dom () =
      let mine = deques.(dom) in
      let run_job i =
        on_claim ~remaining:(Atomic.fetch_and_add unclaimed (-1) - 1);
        out.(i) <- Some (f ~domain:dom jobs.(i))
      in
      let rec drain () =
        match pop mine with
        | Some i ->
            run_job i;
            drain ()
        | None -> hunt 0
      and hunt tries =
        if Atomic.get unclaimed > 0 then begin
          (* Cycle through the other domains, starting at our right
             neighbour; never probes self. *)
          let victim = (dom + 1 + (tries mod (domains - 1))) mod domains in
          match steal deques.(victim) with
          | Some (lo, hi) ->
              Mutex.lock mine.lock;
              mine.lo <- lo;
              mine.hi <- hi;
              Mutex.unlock mine.lock;
              on_steal ~thief:dom ~victim ~count:(hi - lo);
              drain ()
          | None ->
              Domain.cpu_relax ();
              hunt (tries + 1)
        end
      in
      drain ()
    in
    let spawned =
      List.init (domains - 1) (fun k ->
          Domain.spawn (fun () -> worker (k + 1) ()))
    in
    worker 0 ();
    List.iter Domain.join spawned;
    Array.map (fun slot -> Option.get slot) out
  end
