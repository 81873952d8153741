(* The simulator substrate: cache, layout, CPU model, runner. *)

open Ujam_ir
open Ujam_ir.Build
open Ujam_sim
open Ujam_machine

(* A reference's element address at an index vector, and an array's
   per-dimension extents, from the layout's compiled form. *)
let address l r iv = Affine.eval (Layout.compile l r) iv
let extent l b = Array.copy (Layout.info l b).extents

(* Misses per access, 0 before the first access. *)
let miss_rate c =
  if Cache.accesses c = 0 then 0.0
  else float_of_int (Cache.misses c) /. float_of_int (Cache.accesses c)

let test_cache_basics () =
  let c = Cache.create ~size:16 ~line:4 ~assoc:1 () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 3);
  Alcotest.(check bool) "next line misses" false (Cache.access c 4);
  Alcotest.(check int) "accesses" 3 (Cache.accesses c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Alcotest.(check (float 1e-9)) "miss rate" (2.0 /. 3.0) (miss_rate c);
  Cache.reset c;
  Alcotest.(check int) "reset" 0 (Cache.accesses c)

let test_cache_conflict_directmapped () =
  (* 16 elements, line 4, direct-mapped: 4 sets; addresses 0 and 16 map
     to the same set. *)
  let c = Cache.create ~size:16 ~line:4 ~assoc:1 () in
  ignore (Cache.access c 0);
  ignore (Cache.access c 16);
  Alcotest.(check bool) "conflict evicted" false (Cache.access c 0)

let test_cache_associativity () =
  (* 2-way: both lines coexist. *)
  let c = Cache.create ~size:32 ~line:4 ~assoc:2 () in
  ignore (Cache.access c 0);
  ignore (Cache.access c 32);
  Alcotest.(check bool) "2-way keeps both" true (Cache.access c 0);
  (* LRU: third conflicting line evicts the least recent (32) *)
  ignore (Cache.access c 64);
  Alcotest.(check bool) "0 still resident" true (Cache.access c 0);
  Alcotest.(check bool) "32 evicted" false (Cache.access c 32)

let test_cache_capacity_sweep () =
  let c = Cache.create ~size:64 ~line:4 ~assoc:2 () in
  (* stream over 128 elements twice: no reuse survives *)
  for _pass = 1 to 2 do
    for a = 0 to 127 do
      ignore (Cache.access c a)
    done
  done;
  Alcotest.(check int) "compulsory+capacity misses" 64 (Cache.misses c);
  (* now a stream that fits: second pass all hits *)
  let c2 = Cache.create ~size:64 ~line:4 ~assoc:2 () in
  for _pass = 1 to 2 do
    for a = 0 to 63 do
      ignore (Cache.access c2 a)
    done
  done;
  Alcotest.(check int) "fits: only compulsory" 16 (Cache.misses c2)

let test_layout () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let nest =
    nest "lay"
      [ loop d "J" ~level:0 ~lo:1 ~hi:8 (); loop d "I" ~level:1 ~lo:1 ~hi:10 () ]
      [ aref "A" [ i; j ] <<- rd "B" [ i; j +$ 1 ] ]
  in
  let l = Layout.of_nest nest ~line:4 in
  Alcotest.(check (array int)) "A extents" [| 10; 8 |] (extent l "A");
  (* B's J+1 subscript ranges over 2..9: extent 8 from its own minimum *)
  Alcotest.(check (array int)) "B extents follow the subscript range" [| 10; 8 |]
    (extent l "B");
  (* column-major: consecutive I differ by 1, consecutive J by extent *)
  let a = aref "A" [ i; j ] in
  let base = address l a [| 1; 1 |] in
  Alcotest.(check int) "I stride 1" (base + 1) (address l a [| 1; 2 |]);
  Alcotest.(check int) "J stride = column" (base + 10) (address l a [| 2; 1 |]);
  (* arrays are allocated in order of first appearance (B is read before
     A is written) and never overlap *)
  Alcotest.(check bool) "arrays disjoint" true
    (abs (address l (aref "B" [ i; j +$ 1 ]) [| 1; 1 |] - base) >= 10 * 8);
  Alcotest.(check bool) "footprint covers everything" true
    (Layout.footprint l >= (10 * 8) + (10 * 9));
  Alcotest.check_raises "unknown array" Not_found (fun () ->
      ignore (extent l "Z"))

let test_layout_triangular () =
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  let nest =
    nest "tri"
      [ loop d "I" ~level:0 ~lo:1 ~hi:6 ();
        loop_aff "J" ~level:1 ~lo:(var d 0) ~hi:(cst d 6) () ]
      [ aref "A" [ i ++$ j ] <<- f 0.0 ]
  in
  let l = Layout.of_nest nest ~line:4 in
  (* subscript I+J ranges over 2..12 *)
  Alcotest.(check (array int)) "interval analysis" [| 11 |] (extent l "A")

let test_cpu_model () =
  Alcotest.(check int) "expr depth" 2
    (Cpu.expr_depth Expr.(Bin (Add, Bin (Mul, Const 1.0, Const 2.0), Const 3.0)));
  let m = Presets.alpha in
  Alcotest.(check (float 1e-9)) "issue bound mem" 5.0
    (Cpu.issue_cycles m ~mem_ops:5 ~flops:3);
  Alcotest.(check (float 1e-9)) "issue bound fp" 7.0
    (Cpu.issue_cycles m ~mem_ops:5 ~flops:7);
  (* reduction recurrence: one add chained across iterations *)
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  let red =
    nest "red"
      [ loop d "J" ~level:0 ~lo:1 ~hi:8 (); loop d "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "A" [ j ] <<- rd "A" [ j ] +: rd "B" [ i ] ]
  in
  Alcotest.(check bool) "recurrence at least latency" true (Cpu.recurrence_ii m red >= 6.0);
  let stream =
    nest "stream"
      [ loop d "J" ~level:0 ~lo:1 ~hi:8 (); loop d "I" ~level:1 ~lo:1 ~hi:8 () ]
      [ aref "A" [ i; j ] <<- rd "B" [ i; j ] +: f 1.0 ]
  in
  Alcotest.(check (float 1e-9)) "no recurrence" 0.0 (Cpu.recurrence_ii m stream)

let test_runner_counts () =
  let nest = Ujam_kernels.Kernels.jacobi ~n:18 () in
  let machine = Presets.alpha in
  let r = Runner.run ~machine nest in
  Alcotest.(check int) "iterations" (16 * 16) r.Runner.iterations;
  Alcotest.(check int) "accesses = sites x iterations" (5 * 16 * 16) r.Runner.accesses;
  Alcotest.(check bool) "misses bounded by accesses" true (r.Runner.misses <= r.Runner.accesses);
  Alcotest.(check bool) "misses at least cold footprint" true
    (r.Runner.misses >= 2 * 16 * 16 / 4 / 2);
  Alcotest.(check (float 1.0)) "cycles add up" r.Runner.cycles
    (r.Runner.issue_cycles +. r.Runner.stall_cycles)

let test_runner_with_plan () =
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let machine = Presets.alpha in
  let plan = Ujam_core.Scalar_replace.plan nest in
  let without = Runner.run ~machine nest in
  let with_plan = Runner.run ~machine ~plan nest in
  Alcotest.(check int) "B load eliminated" 3 with_plan.Runner.mem_ops_per_iteration;
  Alcotest.(check bool) "fewer accesses" true
    (with_plan.Runner.accesses < without.Runner.accesses)

let test_runner_normalized () =
  let machine = Presets.alpha in
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:32 () in
  let base = Runner.run ~machine nest in
  Alcotest.(check (float 1e-9)) "self-normalized" 1.0 (Runner.normalized ~baseline:base base)

let test_prefetch_reduces_stalls () =
  let nest = Ujam_kernels.Kernels.dmxpy0 ~n:32 () in
  let no_pf = Presets.generic ~prefetch_bandwidth:0.0 () in
  let pf = Presets.generic ~prefetch_bandwidth:1.0 () in
  let a = Runner.run ~machine:no_pf nest in
  let b = Runner.run ~machine:pf nest in
  Alcotest.(check bool) "prefetch hides stalls" true
    (b.Runner.stall_cycles < a.Runner.stall_cycles)

let test_model_vs_simulator_misses () =
  (* Equation 1 predicts misses per innermost iteration with the
     innermost-only localized space.  Because it cannot see reuse
     carried by outer loops, it is an (approximate) upper bound on the
     measured steady-state rate for every kernel; and when the cache is
     too small for any outer-carried reuse to survive, the prediction
     becomes tight. *)
  let upper = Presets.alpha in
  List.iter
    (fun name ->
      let e = Option.get (Ujam_kernels.Catalogue.find name) in
      let nest = e.Ujam_kernels.Catalogue.build () in
      let d = Nest.depth nest in
      let space = Ujam_core.Unroll_space.make ~bounds:(Array.make d 0) in
      let b = Ujam_core.Balance.prepare ~machine:upper space nest in
      let model = Ujam_core.Balance.misses b (Ujam_linalg.Vec.zero d) in
      let sim = Runner.run ~machine:upper nest in
      let measured =
        float_of_int sim.Runner.misses /. float_of_int sim.Runner.iterations
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: model %.3f >= measured %.3f" name model measured)
        true
        (measured <= (model *. 1.3) +. 0.05))
    [ "dmxpy0"; "dmxpy1"; "mmjki"; "mmjik"; "jacobi"; "sor"; "vpenta.7";
      "cond.7"; "dflux.20"; "shal" ];
  (* tightness: a 64-element cache kills all outer-carried reuse *)
  (* fully associative so the measurement sees capacity behaviour, not
     direct-mapped conflicts the analytic model never claimed to cover *)
  let tiny =
    Machine.make ~name:"tiny-cache" ~cache_size:64 ~cache_line:4 ~associativity:16
      ~miss_penalty:24 ()
  in
  List.iter
    (fun name ->
      let e = Option.get (Ujam_kernels.Catalogue.find name) in
      let nest = e.Ujam_kernels.Catalogue.build () in
      let d = Nest.depth nest in
      let space = Ujam_core.Unroll_space.make ~bounds:(Array.make d 0) in
      let b = Ujam_core.Balance.prepare ~machine:tiny space nest in
      let model = Ujam_core.Balance.misses b (Ujam_linalg.Vec.zero d) in
      let sim = Runner.run ~machine:tiny nest in
      let measured =
        float_of_int sim.Runner.misses /. float_of_int sim.Runner.iterations
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s (tiny cache): model %.3f ~ measured %.3f" name model
           measured)
        true
        (measured <= (model *. 1.4) +. 0.1 && measured >= (model *. 0.6) -. 0.1))
    [ "dmxpy1"; "dmxpy0"; "mmjki" ]

(* ---- property tests: random access traces through the cache -------- *)

let geom_gen =
  let open QCheck2.Gen in
  let* line = oneofl [ 1; 2; 4; 8 ] in
  let* assoc = oneofl [ 1; 2; 4 ] in
  let* sets = oneofl [ 1; 2; 4; 8 ] in
  return (line * assoc * sets, line, assoc)

let trace_gen =
  let open QCheck2.Gen in
  let* geom = geom_gen in
  let* trace = list_size (int_range 1 200) (int_range 0 511) in
  return (geom, trace)

let trace_print ((size, line, assoc), trace) =
  Printf.sprintf "size=%d line=%d assoc=%d trace=[%s]" size line assoc
    (String.concat ";" (List.map string_of_int trace))

let prop_misses_bounded =
  QCheck2.Test.make ~name:"property: misses <= accesses" ~count:100
    ~print:trace_print trace_gen
    (fun ((size, line, assoc), trace) ->
      let c = Cache.create ~size ~line ~assoc () in
      List.iter (fun a -> ignore (Cache.access c a)) trace;
      Cache.misses c <= Cache.accesses c
      && Cache.accesses c = List.length trace)

let prop_same_line_hits =
  QCheck2.Test.make
    ~name:"property: immediate re-access within the same line hits" ~count:100
    ~print:trace_print trace_gen
    (fun ((size, line, assoc), trace) ->
      let c = Cache.create ~size ~line ~assoc () in
      List.for_all
        (fun a ->
          ignore (Cache.access c a);
          (* the line was just touched: its first element must be resident *)
          Cache.access c (a / line * line))
        trace)

let prop_reset_is_fresh =
  QCheck2.Test.make ~name:"property: reset behaves like a fresh cache"
    ~count:100 ~print:trace_print trace_gen
    (fun ((size, line, assoc), trace) ->
      let replay c = List.map (fun a -> Cache.access c a) trace in
      let warm = Cache.create ~size ~line ~assoc () in
      ignore (replay warm);
      Cache.reset warm;
      let after_reset = replay warm in
      let fresh = Cache.create ~size ~line ~assoc () in
      let from_fresh = replay fresh in
      after_reset = from_fresh
      && Cache.accesses warm = Cache.accesses fresh
      && Cache.misses warm = Cache.misses fresh)

let prop_full_assoc_only_compulsory =
  (* fully associative, working set <= size: after the warm-up pass every
     later pass hits, so misses stay at the compulsory line count *)
  QCheck2.Test.make
    ~name:"property: fully-associative fit has only compulsory misses"
    ~count:100
    ~print:(fun ws -> Printf.sprintf "working set = %d" ws)
    QCheck2.Gen.(int_range 1 64)
    (fun ws ->
      let c = Cache.create ~size:64 ~line:4 ~assoc:16 () in
      for a = 0 to ws - 1 do
        ignore (Cache.access c a)
      done;
      let compulsory = Cache.misses c in
      for _pass = 1 to 3 do
        for a = 0 to ws - 1 do
          ignore (Cache.access c a)
        done
      done;
      Cache.misses c = compulsory && compulsory = ((ws + 3) / 4))

let prop_miss_rate_clean_after_reset =
  QCheck2.Test.make ~name:"property: miss_rate reads 0 after reset" ~count:100
    ~print:trace_print trace_gen
    (fun ((size, line, assoc), trace) ->
      let c = Cache.create ~size ~line ~assoc () in
      List.iter (fun a -> ignore (Cache.access c a)) trace;
      Cache.reset c;
      miss_rate c = 0.0 && Cache.accesses c = 0 && Cache.misses c = 0)

let assoc_trace_gen =
  let open QCheck2.Gen in
  let* line = oneofl [ 1; 2; 4 ] in
  let* capacity = oneofl [ 1; 2; 4; 8 ] in
  let* trace = list_size (int_range 1 300) (int_range 0 255) in
  return ((line, capacity), trace)

let assoc_trace_print ((line, capacity), trace) =
  Printf.sprintf "line=%d capacity=%d trace=[%s]" line capacity
    (String.concat ";" (List.map string_of_int trace))

let prop_full_assoc_matches_stack =
  (* a fully-associative LRU cache of capacity C lines must hit exactly
     the accesses whose Mattson stack distance is < C — the simulator
     against its executable specification *)
  QCheck2.Test.make
    ~name:"property: fully-associative LRU = reference stack distance"
    ~count:200 ~print:assoc_trace_print assoc_trace_gen
    (fun ((line, capacity), trace) ->
      let c = Cache.create ~size:(line * capacity) ~line ~assoc:capacity () in
      let s = Cache.Stack.create ~line in
      List.for_all
        (fun a ->
          let hit = Cache.access c a in
          let expect =
            match Cache.Stack.access s a with
            | None -> false
            | Some d -> d < capacity
          in
          hit = expect)
        trace)

let hierarchy_trace_gen =
  let open QCheck2.Gen in
  let* line = oneofl [ 1; 2; 4 ] in
  let* caps = list_size (int_range 1 3) (oneofl [ 1; 2; 4; 8; 16 ]) in
  let* trace = list_size (int_range 1 300) (int_range 0 255) in
  return ((line, List.sort compare caps), trace)

let hierarchy_trace_print ((line, caps), trace) =
  Printf.sprintf "line=%d caps=[%s] trace=[%s]" line
    (String.concat ";" (List.map string_of_int caps))
    (String.concat ";" (List.map string_of_int trace))

let prop_hierarchy_misses_monotone =
  (* fully-associative levels with non-decreasing capacities and one
     shared line size: LRU stack inclusion makes per-level miss counts
     non-increasing from L1 outwards *)
  QCheck2.Test.make
    ~name:"property: hierarchy misses are level-monotone" ~count:200
    ~print:hierarchy_trace_print hierarchy_trace_gen
    (fun ((line, caps), trace) ->
      let levels =
        List.mapi
          (fun i cap ->
            Machine.Level.make
              ~name:(Printf.sprintf "L%d" (i + 1))
              ~size:(line * cap) ~line ~assoc:cap ())
          caps
      in
      let h = Cache.Hierarchy.create levels in
      List.iter (fun a -> Cache.Hierarchy.access h a) trace;
      let misses = List.map (fun (_, _, m) -> m) (Cache.Hierarchy.stats h) in
      let rec mono = function
        | a :: (b :: _ as tl) -> a >= b && mono tl
        | _ -> true
      in
      mono misses)

(* ---- cache indexing: negative addresses, other geometries, faults -- *)

let test_cache_negative_addresses () =
  (* line 4, 4 sets, direct-mapped: lines are [-8,-5], [-4,-1], [0,3], ...
     and set indexing floors, so -1 shares set 3 with address 15 *)
  let c = Cache.create ~size:16 ~line:4 ~assoc:1 () in
  Alcotest.(check bool) "cold -1 misses" false (Cache.access c (-1));
  Alcotest.(check bool) "-4 shares -1's line" true (Cache.access c (-4));
  Alcotest.(check bool) "-5 is the line below" false (Cache.access c (-5));
  Alcotest.(check bool) "0 is the line above" false (Cache.access c 0);
  ignore (Cache.access c 15);
  Alcotest.(check bool) "15 evicted -1 (set 3)" false (Cache.access c (-1));
  Alcotest.(check int) "misses" 5 (Cache.misses c)

let test_cache_non_power_of_two () =
  (* line 3, 5 sets: block = floor (addr / 3), set = block mod 5 *)
  let c = Cache.create ~size:15 ~line:3 ~assoc:1 () in
  Alcotest.(check bool) "cold" false (Cache.access c 0);
  Alcotest.(check bool) "2 shares line 0" true (Cache.access c 2);
  Alcotest.(check bool) "3 starts line 1" false (Cache.access c 3);
  Alcotest.(check bool) "15 maps to set 0" false (Cache.access c 15);
  Alcotest.(check bool) "0 was evicted" false (Cache.access c 0);
  Alcotest.(check bool) "line 1 untouched" true (Cache.access c 5);
  Alcotest.(check bool) "-1 is block -1, set 4" false (Cache.access c (-1));
  Alcotest.(check bool) "-3 shares -1's line" true (Cache.access c (-3));
  Alcotest.(check bool) "12 is block 4, set 4" false (Cache.access c 12);
  Alcotest.(check bool) "-1 was evicted" false (Cache.access c (-1))

let test_steal_lines_last_set_only () =
  List.iter
    (fun (size, sets) ->
      (* line 1, 2 ways: [steal_lines 1] leaves the last set one way *)
      let c = Cache.create ~steal_lines:1 ~size ~line:1 ~assoc:2 () in
      List.iter (fun a -> ignore (Cache.access c a)) [ 0; sets; sets - 1; 2 * sets - 1 ];
      Alcotest.(check bool) (Printf.sprintf "%d sets: set 0 keeps two ways" sets) true
        (Cache.access c 0);
      Alcotest.(check bool) (Printf.sprintf "%d sets: last set holds one" sets) false
        (Cache.access c (sets - 1)))
    [ (16, 8); (10, 5) ]

(* Set-associative LRU by its definition: floor division for the line and
   the set, one most-recent-first list per set, [steal] ways fewer in the
   last set. *)
let model_hits ~size ~line ~assoc ~steal trace =
  let sets = size / (line * assoc) in
  let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b) in
  let lru = Array.make sets [] in
  List.map
    (fun a ->
      let block = fdiv a line in
      let set = block - (sets * fdiv block sets) in
      let ways = if set = sets - 1 then assoc - steal else assoc in
      let hit = List.mem block lru.(set) in
      lru.(set) <-
        List.filteri (fun i _ -> i < ways) (block :: List.filter (( <> ) block) lru.(set));
      hit)
    trace

let model_print ((size, line, assoc, steal), trace) =
  Printf.sprintf "size=%d line=%d assoc=%d steal=%d trace=[%s]" size line assoc steal
    (String.concat ";" (List.map string_of_int trace))

let model_gen ~lines ~sets ~addr =
  let open QCheck2.Gen in
  let* line = oneofl lines in
  let* sets = oneofl sets in
  let* assoc = oneofl [ 1; 2; 4 ] in
  let* steal = int_range 0 (assoc - 1) in
  let* trace = list_size (int_range 1 300) addr in
  return ((line * sets * assoc, line, assoc, steal), trace)

let cache_matches_model ((size, line, assoc, steal), trace) =
  let c = Cache.create ~steal_lines:steal ~size ~line ~assoc () in
  List.map (Cache.access c) trace = model_hits ~size ~line ~assoc ~steal trace

let prop_shift_mask_indexing =
  (* power-of-two geometries index by [asr] and [land]; the model divides *)
  QCheck2.Test.make
    ~name:"property: shift/mask indexing agrees with floor division" ~count:100
    ~print:model_print
    (model_gen ~lines:[ 1; 2; 4; 8; 1024 ] ~sets:[ 1; 2; 4; 8; 64 ]
       ~addr:
         QCheck2.Gen.(
           oneof [ int_range (-64) 64; int_range (-(1 lsl 40)) (1 lsl 40) ]))
    cache_matches_model

let prop_cache_matches_model =
  QCheck2.Test.make
    ~name:"property: cache = set-associative LRU model (any geometry, steal)"
    ~count:100 ~print:model_print
    (model_gen ~lines:[ 1; 2; 3; 4; 5 ] ~sets:[ 1; 2; 3; 4; 5; 6 ]
       ~addr:(QCheck2.Gen.int_range (-200) 200))
    cache_matches_model

(* ---- the compiled address stream against the per-subscript walk ----- *)

(* The walk the simulator made before its address stream was compiled:
   every index vector of [Nest.iter_index_vectors], every subscript
   evaluated on its own and folded through its array's minimum and
   stride. *)
let ref_address layout (r : Aref.t) iv =
  let info = Layout.info layout (Aref.base r) in
  let a = ref info.Layout.base in
  Array.iteri
    (fun i s ->
      a := !a + ((Affine.eval s iv - info.Layout.mins.(i)) * info.Layout.strides.(i)))
    r.Aref.subs;
  !a

let ref_walk layout nest refs f =
  let n = ref 0 in
  Nest.iter_index_vectors nest (fun iv ->
      incr n;
      Array.iteri (fun j r -> f j (ref_address layout r iv)) refs);
  !n

let ref_run ~machine ?plan nest =
  let layout = Layout.of_nest nest ~line:machine.Machine.cache_line in
  let cache = Cache.of_machine machine in
  let sites = Site.of_nest nest in
  let sites =
    match plan with
    | None -> sites
    | Some p -> List.filter (Ujam_core.Scalar_replace.issues_memory p) sites
  in
  let refs = Array.of_list (List.map (fun (s : Site.t) -> s.Site.ref_) sites) in
  let iterations = ref_walk layout nest refs (fun _ a -> ignore (Cache.access cache a)) in
  let mem_ops = Array.length refs in
  let issue =
    Cpu.cycles_per_iteration machine nest ~mem_ops *. float_of_int iterations
  in
  let misses = Cache.misses cache in
  let unhidden =
    Float.max 0.0 (float_of_int misses -. (machine.Machine.prefetch_bandwidth *. issue))
  in
  let stall = unhidden *. float_of_int machine.Machine.miss_penalty in
  { Runner.iterations;
    mem_ops_per_iteration = mem_ops;
    accesses = Cache.accesses cache;
    misses;
    issue_cycles = issue;
    stall_cycles = stall;
    cycles = issue +. stall;
    cycles_per_iteration =
      (if iterations = 0 then 0.0 else (issue +. stall) /. float_of_int iterations) }

let ref_run_levels ?steal_lines ~machine nest =
  let layout = Layout.of_nest nest ~line:machine.Machine.cache_line in
  let h = Cache.Hierarchy.of_machine ?steal_lines machine in
  let sites = Array.of_list (Site.of_nest nest) in
  ignore
    (ref_walk layout nest
       (Array.map (fun (s : Site.t) -> s.Site.ref_) sites)
       (fun j a -> Cache.Hierarchy.access h ~write:(Site.is_write sites.(j)) a));
  Cache.Hierarchy.stats h

(* Nests beyond the generator's separable class: bounds affine in the
   enclosing indices (triangular when a coefficient is non-zero), steps
   up to 3, subscripts with coefficients in -2..2 and constants in -4..4
   over arrays of rank 1 to 3. *)
let affine_nest_gen =
  let open QCheck2.Gen in
  let* depth = int_range 1 3 in
  let form ~upto ~coef ~const =
    let* coefs =
      flatten_l (List.init depth (fun k -> if k < upto then coef else return 0))
    in
    let* const = const in
    return (Affine.make ~coefs:(Array.of_list coefs) ~const)
  in
  let* loops =
    flatten_l
      (List.init depth (fun level ->
           let bound const = form ~upto:level ~coef:(int_range (-1) 1) ~const in
           let* lo = bound (int_range (-3) 2) in
           let* hi = bound (int_range 2 8) in
           let* step = int_range 1 3 in
           return (Loop.make ~var:(String.make 1 "IJK".[level]) ~level ~lo ~hi ~step)))
  in
  let* ranks = list_size (return 3) (int_range 1 3) in
  let ref_ a =
    let* subs =
      list_size (return (List.nth ranks a))
        (form ~upto:depth ~coef:(int_range (-2) 2) ~const:(int_range (-4) 4))
    in
    return (Aref.make (String.make 1 "ABC".[a]) subs)
  in
  let* body =
    list_size (int_range 1 3)
      (let* lhs = int_range 0 2 >>= ref_ in
       let* reads = list_size (int_range 1 3) (int_range 0 2 >>= ref_) in
       let rhs =
         List.fold_left
           (fun e (r : Aref.t) -> Expr.(Bin (Add, e, Read r)))
           (Expr.Const 1.0) reads
       in
       return (Stmt.store lhs rhs))
  in
  return (Nest.make ~name:"affine" ~loops ~body)

(* Generator nests, affine nests, and either unroll-and-jammed by up to
   2 extra copies of each outer loop. *)
let trace_nest_gen =
  let open QCheck2.Gen in
  let* nest = oneof [ Gen.nest_gen (); affine_nest_gen ] in
  let d = Nest.depth nest in
  let* u = flatten_l (List.init d (fun k -> if k = d - 1 then return 0 else int_range 0 2)) in
  let* jam = bool in
  return
    (if jam then Ujam_ir.Unroll.unroll_and_jam nest (Ujam_linalg.Vec.of_list u) else nest)

let prop_compiled_trace =
  QCheck2.Test.make
    ~name:"property: compiled address trace = per-subscript reference walk"
    ~count:100 ~print:Gen.nest_print trace_nest_gen
    (fun nest ->
      let layout = Layout.of_nest nest ~line:4 in
      let refs = Array.of_list (List.map fst (Nest.refs nest)) in
      let out = ref [] in
      let emit j a = out := (j, a) :: !out in
      (* each run expanded to its (reference, address) pairs, in order *)
      let n =
        Layout.iter_trace layout nest refs (fun addrs incs trips ->
            for t = 0 to trips - 1 do
              Array.iteri (fun j a -> emit j (a + (t * incs.(j)))) addrs
            done)
      in
      let compiled = (n, !out) in
      out := [];
      let n = ref_walk layout nest refs emit in
      compiled = (n, !out))

let small = Machine.make ~name:"small" ~cache_size:96 ~cache_line:4 ~associativity:2 ()
let odd = Machine.make ~name:"odd" ~cache_size:90 ~cache_line:3 ~associativity:2 ()

let small_mem =
  Machine.make ~name:"small-mem" ~cache_size:256 ~cache_line:4 ~associativity:2
    ~levels:
      [ Machine.Level.make ~name:"L1" ~size:24 ~line:3 ~assoc:2
          ~write:Machine.Level.Write_through ();
        Machine.Level.make ~name:"L2" ~size:256 ~line:4 ~assoc:2 ();
        Machine.Level.make ~name:"TLB" ~size:512 ~line:32 ~assoc:4 () ]
    ()

let prop_runner_matches_reference =
  QCheck2.Test.make
    ~name:"property: Runner.run and run_levels = reference runner" ~count:100
    ~print:Gen.nest_print trace_nest_gen
    (fun nest ->
      let plan = Ujam_core.Scalar_replace.plan nest in
      List.for_all
        (fun machine ->
          Runner.run ~machine nest = ref_run ~machine nest
          && Runner.run ~machine ~plan nest = ref_run ~machine ~plan nest)
        [ Presets.alpha; Presets.hppa; small; odd ]
      && List.for_all
           (fun (machine, steal_lines) ->
             Runner.run_levels ?steal_lines ~machine nest
             = ref_run_levels ?steal_lines ~machine nest)
           [ (Presets.alpha_mem, None); (Presets.hppa_mem, None); (small_mem, None);
             (small_mem, Some 1) ])

(* ---- one innermost run per call against the per-access trace -------- *)

(* Runs of up to four references: start addresses near zero or far from
   it, either sign; increments negative, zero or positive; zero trips
   allowed. *)
let run_gen =
  let open QCheck2.Gen in
  let* n = int_range 0 4 in
  let* addrs =
    array_size (return n)
      (oneof [ int_range (-300) 300; int_range (-(1 lsl 20)) (1 lsl 20) ])
  in
  let* incs = array_size (return n) (oneof [ int_range (-8) 8; int_range (-2048) 2048 ]) in
  let* trips = oneof [ return 0; int_range 1 24 ] in
  return (addrs, incs, trips)

let expand (addrs, incs, trips) =
  List.concat
    (List.init trips (fun t ->
         List.init (Array.length addrs) (fun j -> (j, addrs.(j) + (t * incs.(j))))))

let runs_gen =
  let open QCheck2.Gen in
  let* line = oneofl [ 1; 2; 3; 4; 5; 1024 ] in
  let* sets = oneofl [ 1; 2; 3; 4; 5; 8; 64 ] in
  let* assoc = oneofl [ 1; 2; 4 ] in
  let* steal = int_range 0 (assoc - 1) in
  let* runs = list_size (int_range 1 8) run_gen in
  let* probe = list_size (int_range 1 60) (int_range (-400) 400) in
  return ((line * sets * assoc, line, assoc, steal), runs, probe)

let runs_print ((size, line, assoc, steal), runs, probe) =
  let ints a = String.concat ";" (List.map string_of_int (Array.to_list a)) in
  Printf.sprintf "size=%d line=%d assoc=%d steal=%d runs=[%s] probe=[%s]" size line assoc
    steal
    (String.concat " "
       (List.map
          (fun (a, i, t) -> Printf.sprintf "(%s|%s|%d)" (ints a) (ints i) t)
          runs))
    (String.concat ";" (List.map string_of_int probe))

let prop_access_run_matches_access =
  QCheck2.Test.make ~name:"property: Cache.access_run = per-access replay" ~count:300
    ~print:runs_print runs_gen
    (fun ((size, line, assoc, steal), runs, probe) ->
      let by_run = Cache.create ~steal_lines:steal ~size ~line ~assoc () in
      let by_access = Cache.create ~steal_lines:steal ~size ~line ~assoc () in
      List.iter
        (fun ((addrs, incs, trips) as run) ->
          Cache.access_run by_run (Array.copy addrs) incs trips;
          List.iter (fun (_, a) -> ignore (Cache.access by_access a)) (expand run))
        runs;
      Cache.accesses by_run = Cache.accesses by_access
      && Cache.misses by_run = Cache.misses by_access
      && List.map (Cache.access by_run) probe = List.map (Cache.access by_access) probe)

let prop_hierarchy_run_matches_access =
  (* a write-through L1 (write misses do not allocate), an L2 with a
     power-of-two geometry and the L1's ways, and a wide-line TLB level *)
  QCheck2.Test.make ~name:"property: Hierarchy.access_run = per-access replay"
    ~count:200 ~print:runs_print runs_gen
    (fun ((size, line, assoc, steal), runs, probe) ->
      let levels =
        [ Machine.Level.make ~name:"L1" ~size ~line ~assoc ~write:Machine.Level.Write_through ();
          Machine.Level.make ~name:"L2" ~size:(max size 256) ~line:4 ~assoc ();
          Machine.Level.make ~name:"TLB" ~size:(max size 2048) ~line:64 ~assoc:4 () ]
      in
      let steal_lines = if steal = 0 then None else Some steal in
      let by_run = Cache.Hierarchy.create ?steal_lines levels in
      let by_access = Cache.Hierarchy.create ?steal_lines levels in
      let replay h = List.iter (fun a -> Cache.Hierarchy.access h ~write:(a land 1 = 0) a) probe in
      List.iter
        (fun ((addrs, incs, trips) as run) ->
          let writes = Array.mapi (fun j _ -> j mod 2 = 0) addrs in
          Cache.Hierarchy.access_run by_run ~writes (Array.copy addrs) incs trips;
          List.iter
            (fun (j, a) -> Cache.Hierarchy.access by_access ~write:writes.(j) a)
            (expand run))
        runs;
      let after_runs = Cache.Hierarchy.stats by_run = Cache.Hierarchy.stats by_access in
      replay by_run;
      replay by_access;
      after_runs && Cache.Hierarchy.stats by_run = Cache.Hierarchy.stats by_access)

let suite =
  [ Alcotest.test_case "cache basics" `Quick test_cache_basics;
    Gen.to_alcotest prop_miss_rate_clean_after_reset;
    Gen.to_alcotest prop_full_assoc_matches_stack;
    Gen.to_alcotest prop_hierarchy_misses_monotone;
    Gen.to_alcotest prop_misses_bounded;
    Gen.to_alcotest prop_same_line_hits;
    Gen.to_alcotest prop_reset_is_fresh;
    Gen.to_alcotest prop_full_assoc_only_compulsory;
    Alcotest.test_case "direct-mapped conflicts" `Quick test_cache_conflict_directmapped;
    Alcotest.test_case "associativity + LRU" `Quick test_cache_associativity;
    Alcotest.test_case "capacity" `Quick test_cache_capacity_sweep;
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "layout triangular" `Quick test_layout_triangular;
    Alcotest.test_case "cpu model" `Quick test_cpu_model;
    Alcotest.test_case "runner counts" `Quick test_runner_counts;
    Alcotest.test_case "runner with plan" `Quick test_runner_with_plan;
    Alcotest.test_case "runner normalized" `Quick test_runner_normalized;
    Alcotest.test_case "prefetch" `Quick test_prefetch_reduces_stalls;
    Alcotest.test_case "Equation 1 vs simulator" `Quick test_model_vs_simulator_misses;
    Gen.to_alcotest prop_shift_mask_indexing;
    Gen.to_alcotest prop_cache_matches_model;
    Gen.to_alcotest prop_compiled_trace;
    Gen.to_alcotest prop_runner_matches_reference;
    Alcotest.test_case "negative addresses" `Quick test_cache_negative_addresses;
    Alcotest.test_case "line 3, 5 sets" `Quick test_cache_non_power_of_two;
    Alcotest.test_case "steal_lines: last set only" `Quick test_steal_lines_last_set_only;
    Gen.to_alcotest prop_access_run_matches_access;
    Gen.to_alcotest prop_hierarchy_run_matches_access ]
