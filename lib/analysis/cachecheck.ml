open Ujam_ir
open Ujam_linalg
open Ujam_reuse
module Machine = Ujam_machine.Machine
module Json = Ujam_obs.Json

type level_report = {
  level : Machine.Level.t;
  capacity_lines : float;
  predicted : float;
  floor : float;
  ceiling : float;
  per_ugs : (Distance.profile * float) list;
}

(* Reuse distances are interval estimates; the confident [floor] only
   counts buckets clearing the capacity by this factor, the [ceiling]
   also counts buckets within a factor of it on the near side.  A
   working set sitting inside the [cap/1.4, cap*1.4] uncertainty band
   lands between the two bounds, so neither direction of the
   calibration oracle flags it. *)
let confidence_slack = 1.4

type t = {
  nest : string;
  machine : string;
  u : Vec.t option;
  original : level_report list;
  transformed : level_report list option;
}

let write_through (l : Machine.Level.t) =
  match l.Machine.Level.write with
  | Machine.Level.Write_through -> true
  | Machine.Level.Write_allocate -> false

(* Profiles are line-relative, so each line size gets its own histogram
   pass (an L1 line and a TLB page are three orders of magnitude apart);
   levels sharing a line share the pass, and all passes one set of counts. *)
let report_levels ~levels nest =
  let lines = List.sort_uniq compare (List.map (fun (l : Machine.Level.t) -> l.line) levels) in
  let counted = lazy (Distance.profiles nest) in
  let passes =
    List.map (fun line -> (line, lazy (Option.map (fun p -> p ~line) (Lazy.force counted)))) lines
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (l : Machine.Level.t) :: rest -> (
        match Lazy.force (List.assoc l.Machine.Level.line passes) with
        | None -> None
        | Some ps ->
            let capacity_lines =
              float_of_int (l.Machine.Level.size / l.Machine.Level.line)
            in
            let wt = write_through l in
            let per_ugs =
              List.map
                (fun p ->
                  (p, Distance.miss_ratio ~write_through:wt ~capacity_lines p))
                ps
            in
            let predicted =
              Distance.nest_miss_ratio ~write_through:wt ~capacity_lines ps
            in
            let floor =
              Distance.nest_miss_ratio ~write_through:wt ~slack:confidence_slack
                ~capacity_lines ps
            in
            let ceiling =
              Distance.nest_miss_ratio ~write_through:wt
                ~slack:(1.0 /. confidence_slack) ~capacity_lines ps
            in
            go
              ({ level = l; capacity_lines; predicted; floor; ceiling; per_ugs }
              :: acc)
              rest)
  in
  go [] levels

let run ?u ~machine nest =
  let levels = Machine.effective_levels machine in
  match report_levels ~levels nest with
  | None -> None
  | Some original ->
      let transformed =
        match u with
        | None -> None
        | Some u -> (
            match Unroll.unroll_and_jam nest (Unroll.clamp_divisible nest u) with
            | exception Invalid_argument _ -> None
            | jammed -> report_levels ~levels jammed)
      in
      Some
        { nest = Nest.name nest;
          machine = machine.Machine.name;
          u;
          original;
          transformed }

(* ---- located diagnostics UJ027-UJ030 ----------------------------------- *)

let diag ~rule ~severity ?loc ?notes fmt =
  Format.kasprintf (fun m -> Diagnostic.make ~rule ~severity ?loc ?notes m) fmt

let site_loc ~nest (p : Distance.profile) =
  match p.Distance.ugs.Ugs.members with
  | (s : Site.t) :: _ -> Loc.stmt ~nest ~site:s.Site.id s.Site.stmt
  | [] -> Loc.nest nest

let thrash_threshold = 0.33
let degrade_threshold = 0.1

let geometry_diagnostics ~machine nest =
  match Machine.validate_levels machine.Machine.levels with
  | Ok () -> []
  | Error e ->
      [ diag ~rule:"UJ030" ~severity:Diagnostic.Error
          ~loc:(Loc.nest (Nest.name nest))
          "machine %s: %s" machine.Machine.name (Machine.geometry_message e) ]

let level_diagnostics ~nest ?u report =
  let lname = report.level.Machine.Level.name in
  let at_u =
    match u with
    | None -> ""
    | Some u -> Printf.sprintf " at u=%s" (Vec.to_string u)
  in
  let thrash =
    List.filter_map
      (fun ((p : Distance.profile), ratio) ->
        match Distance.dominant_distance p with
        | Some dist
          when ratio >= thrash_threshold && dist >= report.capacity_lines ->
            Some
              (diag ~rule:"UJ027" ~severity:Diagnostic.Warning
                 ~loc:(site_loc ~nest p)
                 "UGS %s thrashes %s%s: predicted miss ratio %.2f vs capacity \
                  reuse distance %.1fx %s"
                 p.Distance.ugs.Ugs.base lname at_u ratio
                 (dist /. Float.max 1.0 report.capacity_lines)
                 lname)
        | _ -> None)
      report.per_ugs
  in
  let no_fit =
    let buckets =
      List.concat_map (fun (p, _) -> p.Distance.buckets) report.per_ugs
    in
    if
      buckets <> []
      && List.for_all
           (fun (b : Distance.bucket) ->
             b.Distance.distance >= report.capacity_lines)
           buckets
    then
      [ diag ~rule:"UJ028" ~severity:Diagnostic.Info ~loc:(Loc.nest nest)
          "no carried reuse fits %s%s: every reuse distance exceeds its %.0f \
           lines"
          lname at_u report.capacity_lines ]
    else []
  in
  thrash @ no_fit

let diagnostics ?level ?u ~machine nest =
  let geometry = geometry_diagnostics ~machine nest in
  if geometry <> [] then geometry
  else
    match run ?u ~machine nest with
    | None -> []
    | Some t ->
        let name = t.nest in
        let reports, reports_u =
          match t.transformed with
          | Some tr -> (t.original, tr)
          | None -> (t.original, t.original)
        in
        let select rs =
          match level with
          | None -> rs
          | Some k -> (
              match List.nth_opt rs (k - 1) with Some r -> [ r ] | None -> [])
        in
        let located =
          (* judge the nest as it will run: at the chosen vector when
             one is known, else as written *)
          List.concat_map
            (level_diagnostics ~nest:name ?u:t.u)
            (select (if t.transformed = None then reports else reports_u))
        in
        let degraded =
          List.concat
            (List.map2
               (fun orig tr ->
                 if tr.predicted -. orig.predicted > degrade_threshold then
                   [ diag ~rule:"UJ029" ~severity:Diagnostic.Warning
                       ~loc:(Loc.nest name)
                       "unroll-and-jam%s degrades the predicted %s miss \
                        ratio: %.2f -> %.2f"
                       (match t.u with
                       | Some u -> Printf.sprintf " at u=%s" (Vec.to_string u)
                       | None -> "")
                       orig.level.Machine.Level.name orig.predicted tr.predicted ]
                 else [])
               (select reports) (select reports_u))
        in
        located @ degraded

(* ---- rendering: one code path for ujc explain text and JSON ------------ *)

let pp_table ppf t =
  let open Format in
  let row reports =
    List.iter
      (fun r ->
        fprintf ppf "@,    %-4s %8.0f %9.3f  %s" r.level.Machine.Level.name
          r.capacity_lines r.predicted
          (String.concat ", "
             (List.map
                (fun ((p : Distance.profile), ratio) ->
                  Printf.sprintf "%s=%.3f" p.Distance.ugs.Ugs.base ratio)
                r.per_ugs)))
      reports
  in
  fprintf ppf "@[<v>  miss profile (%s):" t.machine;
  fprintf ppf "@,    lvl  cap(lin)  predicted  per-UGS";
  row t.original;
  (match (t.u, t.transformed) with
  | Some u, Some tr ->
      fprintf ppf "@,    at u=%s:" (Vec.to_string u);
      row tr
  | _ -> ());
  fprintf ppf "@]"

let level_report_to_json r =
  Json.Obj
    [ ("level", Json.Str r.level.Machine.Level.name);
      ("line", Json.Int r.level.Machine.Level.line);
      ("capacity_lines", Json.Float r.capacity_lines);
      ("predicted", Json.Float r.predicted);
      ( "per_ugs",
        Json.List
          (List.map
             (fun ((p : Distance.profile), ratio) ->
               Json.Obj
                 [ ("ugs", Json.Str p.Distance.ugs.Ugs.base);
                   ("accesses", Json.Float p.Distance.accesses);
                   ("cold", Json.Float p.Distance.cold);
                   ("predicted", Json.Float ratio) ])
             r.per_ugs) ) ]

let to_json t =
  Json.Obj
    ([ ("machine", Json.Str t.machine);
       ("levels", Json.List (List.map level_report_to_json t.original)) ]
    @
    match t.transformed with
    | Some tr ->
        [ ("levels_at_u", Json.List (List.map level_report_to_json tr)) ]
    | None -> [])

let predicted_ratios t =
  List.map (fun r -> (r.level, r.floor, r.predicted, r.ceiling)) t.original

let select_level k t =
  let pick rs =
    match List.nth_opt rs (k - 1) with Some r -> [ r ] | None -> []
  in
  { t with original = pick t.original; transformed = Option.map pick t.transformed }
