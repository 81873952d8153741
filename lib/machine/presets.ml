(* Cache quantities are in 8-byte elements: a 32-byte line is 4 elements.
   The modelled cache is the board-level SRAM whose misses pay the DRAM
   penalty (the 21064's 8 KB on-chip cache sits in front of a 128 KB+
   board cache; the paper's balance model charges the expensive level). *)

let alpha =
  Machine.make ~name:"DEC-Alpha-21064" ~mem_issue:1 ~fp_issue:1 ~fp_latency:6
    ~fp_registers:32 ~cache_size:16384 ~cache_line:4 ~associativity:1
    ~cache_access:1 ~miss_penalty:24 ()

let hppa =
  Machine.make ~name:"HP-PA-RISC-7100" ~mem_issue:1 ~fp_issue:2 ~fp_latency:2
    ~fp_registers:32 ~cache_size:32768 ~cache_line:4 ~associativity:1
    ~cache_access:1 ~miss_penalty:12 ()

let generic ?(fp_registers = 32) ?(miss_penalty = 20) ?(prefetch_bandwidth = 0.0) () =
  Machine.make ~name:"generic" ~fp_registers ~miss_penalty ~prefetch_bandwidth
    ~cache_size:4096 ~cache_line:4 ()

(* Multi-level scenarios for the reuse-distance analysis.  [alpha_mem]
   spells out the hierarchy the flat [alpha] preset collapses: the 8 KB
   write-through on-chip cache (1024 elements), the 128 KB board cache,
   and a 32-entry TLB whose "line" is the 8 KB page.  The flat fields
   keep the board-cache geometry so the balance model and every pinned
   output are unchanged when the hierarchy is ignored. *)

let alpha_mem =
  Machine.make ~name:"DEC-Alpha-21064-mem" ~mem_issue:1 ~fp_issue:1
    ~fp_latency:6 ~fp_registers:32 ~cache_size:16384 ~cache_line:4
    ~associativity:1 ~cache_access:1 ~miss_penalty:24
    ~levels:
      [ Machine.Level.make ~name:"L1" ~size:1024 ~line:4 ~assoc:1 ~access:1
          ~penalty:5 ~write:Machine.Level.Write_through ();
        Machine.Level.make ~name:"L2" ~size:16384 ~line:4 ~assoc:1 ~access:6
          ~penalty:24 ();
        Machine.Level.make ~name:"TLB" ~size:32768 ~line:1024 ~assoc:32
          ~access:1 ~penalty:50 () ]
    ()

let hppa_mem =
  Machine.make ~name:"HP-PA-RISC-7100-mem" ~mem_issue:1 ~fp_issue:2
    ~fp_latency:2 ~fp_registers:32 ~cache_size:32768 ~cache_line:4
    ~associativity:1 ~cache_access:1 ~miss_penalty:12
    ~levels:
      [ Machine.Level.make ~name:"L1" ~size:2048 ~line:4 ~assoc:1 ~access:1
          ~penalty:4 ();
        Machine.Level.make ~name:"L2" ~size:32768 ~line:4 ~assoc:1 ~access:5
          ~penalty:12 ();
        Machine.Level.make ~name:"TLB" ~size:32768 ~line:512 ~assoc:64
          ~access:1 ~penalty:40 () ]
    ()

(* Every spelling the CLI and the daemon accept, canonical name first;
   [generic] is built fresh per lookup. *)
let table =
  [ ("alpha", [], fun () -> alpha);
    ("hppa", [ "pa-risc" ], fun () -> hppa);
    ("alpha-mem", [ "alpha_mem" ], fun () -> alpha_mem);
    ("hppa-mem", [ "hppa_mem" ], fun () -> hppa_mem);
    ("generic", [], fun () -> generic ()) ]

let names = List.map (fun (n, _, _) -> n) table

let of_name s =
  let s = String.lowercase_ascii s in
  List.find_map
    (fun (n, aliases, m) -> if n = s || List.mem s aliases then Some (m ()) else None)
    table
