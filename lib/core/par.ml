(* Deterministic parallel map over one shared atomic index.

   Every domain claims the next unclaimed index with one
   [Atomic.fetch_and_add] and writes the result into that input slot,
   so the output ordering is the input ordering no matter how many
   domains run or how they interleave.  With [domains:1] no domain is
   spawned and the loop runs on the caller.

   Its one caller is [Engine.parallel_map], which layers its queue
   metrics on via [on_claim]; the engine's corpus runner, the fuzz
   harness's nest queue and the serve daemon's miss batches all run
   through it. *)

let clamp_domains domains n = max 1 (min domains (max 1 n))

let map ?(domains = 1) ?(on_claim = fun ~remaining:_ -> ()) ~f jobs =
  let n = Array.length jobs in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let rec worker domain () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      on_claim ~remaining:(n - i - 1);
      out.(i) <- Some (f ~domain jobs.(i));
      worker domain ()
    end
  in
  let spawned =
    List.init
      (clamp_domains domains n - 1)
      (fun k -> Domain.spawn (worker (k + 1)))
  in
  worker 0 ();
  List.iter Domain.join spawned;
  Array.map Option.get out
