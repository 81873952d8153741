open Ujam_core

module type MODEL = sig
  val name : string
  val description : string

  val cache : bool
  (** Whether the strategy's balance includes the cache-miss term (used
      to evaluate the original loop under the same objective). *)

  val prunes : bool
  (** Whether [analyze] uses the pruned register-bound search, i.e.
      depends on the register table being pointwise monotone. *)

  val analyze : ?exhaustive:bool -> Analysis_ctx.t -> Search.choice
end

(* The dependence-based and brute-force baselines report their own
   metrics record; fold it into the common choice shape so all four
   strategies are interchangeable downstream. *)
let choice_of_metrics ~machine ~cache (u, (m : Bruteforce.metrics)) =
  { Search.u;
    balance = (if cache then m.Bruteforce.balance_cache else m.Bruteforce.balance_nocache);
    objective = Bruteforce.objective ~cache ~machine m;
    registers = m.Bruteforce.registers;
    memory_ops = m.Bruteforce.memory_ops;
    flops = m.Bruteforce.flops }

(* The table strategies differ only in name, cache term and the
   hierarchy level the balance is priced at ([None]: the machine's
   default).  A level beyond the machine falls back to its deepest (the
   tables are line-independent, see [Balance.misses_with]). *)
let tables ~name ~description ~cache ~level : (module MODEL) =
  (module struct
    let name = name
    let description = description
    let cache = cache
    let prunes = true

    let analyze ?(exhaustive = false) ctx =
      let level =
        Option.map
          (fun k ->
            let machine = Analysis_ctx.machine ctx in
            match Ujam_machine.Machine.level_at machine k with
            | Some l -> l
            | None ->
                let levels = Ujam_machine.Machine.effective_levels machine in
                List.nth levels (List.length levels - 1))
          level
      in
      let balance = Analysis_ctx.balance ctx in
      Analysis_ctx.timed ctx Analysis_ctx.Search (fun () ->
          Search.best ~prune:(not exhaustive) ?level ~cache balance)
  end)

module Ugs_tables =
  (val tables ~name:"ugs"
         ~description:"UGS tables + balance search (the paper's model)"
         ~cache:true ~level:None)

module No_cache =
  (val tables ~name:"no-cache"
         ~description:"UGS tables under the all-hits Carr-Kennedy balance"
         ~cache:false ~level:None)

(* The baselines re-derive reuse for every candidate; they differ only
   in name and in the search that does it. *)
let baseline ~name ~description best : (module MODEL) =
  (module struct
    let name = name
    let description = description
    let cache = true
    let prunes = false

    let analyze ?exhaustive:_ ctx =
      let machine = Analysis_ctx.machine ctx in
      Analysis_ctx.timed ctx Analysis_ctx.Search (fun () ->
          choice_of_metrics ~machine ~cache
            (best ~cache ~machine (Analysis_ctx.space ctx) (Analysis_ctx.nest ctx)))
  end)

module Dep_based =
  (val baseline ~name:"dep"
         ~description:"dependence-graph reuse model (Carr PACT'96 baseline)"
         Depmodel.best)

module Brute_force =
  (val baseline ~name:"brute"
         ~description:"materialise every unrolled body (Wolf-Maydan-Chen)"
         Bruteforce.best)

let at_level k =
  tables
    ~name:(Printf.sprintf "ugs-l%d" k)
    ~description:
      (Printf.sprintf "UGS tables, balance priced at hierarchy level %d" k)
    ~cache:true ~level:(Some k)

module Ugs_l2 = (val at_level 2)

let all : (module MODEL) list =
  [ (module Ugs_tables); (module Dep_based); (module Brute_force);
    (module No_cache); (module Ugs_l2) ]

let name (module M : MODEL) = M.name

let names = List.map name all

let find s =
  let s = String.lowercase_ascii s in
  let canonical =
    match s with
    | "ugs" | "ugs-tables" | "tables" -> Some "ugs"
    | "dep" | "dep-based" | "dependence" -> Some "dep"
    | "brute" | "brute-force" | "bruteforce" -> Some "brute"
    | "no-cache" | "nocache" | "carr-kennedy" -> Some "no-cache"
    | "ugs-l2" | "l2" -> Some "ugs-l2"
    | _ -> None
  in
  match canonical with
  | Some c -> List.find_opt (fun (module M : MODEL) -> String.equal M.name c) all
  | None -> (
      match Scanf.sscanf_opt s "ugs-l%u%!" Fun.id with
      | Some k when k >= 1 -> Some (at_level k)
      | _ -> None)
