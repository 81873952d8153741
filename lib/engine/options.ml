type overrides = {
  machine : string option;
  model : string option;
  bound : int option;
  max_loops : int option;
  seq : bool option;
  rules : string list option;
}

type t = {
  machine : Ujam_machine.Machine.t;
  model : (module Model.MODEL);
  bound : int;
  max_loops : int;
  seq : bool;
  rules : string list option;
}

type error =
  | Unknown of { what : string; value : string; known : string list }
  | Below of { what : string; value : int; min : int }

let to_string = function
  | Unknown { what; value; known } ->
      Printf.sprintf "unknown %s %S (known: %s)" what value
        (String.concat ", " known)
  | Below { what; value; min } ->
      Printf.sprintf "%s must be >= %d (got %d)" what min value

let lookup what known find value =
  Option.to_result (find value) ~none:(Unknown { what; value; known })

let at_least what min value =
  if value >= min then Ok value else Error (Below { what; value; min })

let machine =
  lookup "machine" Ujam_machine.Presets.names Ujam_machine.Presets.of_name

let model = lookup "model" Model.names Model.find
let bound = at_least "bound" 0
let level = at_least "level" 1
let rule_ids = List.map (fun (id, _, _) -> id) Ujam_analysis.Lint.rules

let rules ids =
  match List.find_opt (fun id -> not (List.mem id rule_ids)) ids with
  | Some id -> Error (Unknown { what = "rule id"; value = id; known = rule_ids })
  | None -> Ok ids

let resolve (d : t) (o : overrides) =
  let ( let* ) = Result.bind in
  let pick check default = Option.fold ~none:(Ok default) ~some:check in
  let* machine = pick machine d.machine o.machine in
  let* model = pick model d.model o.model in
  let* bound = bound (Option.value o.bound ~default:d.bound) in
  let* rules = pick (fun ids -> Result.map Option.some (rules ids)) d.rules o.rules in
  Ok
    { machine;
      model;
      bound;
      max_loops = Option.value o.max_loops ~default:d.max_loops;
      seq = Option.value o.seq ~default:d.seq;
      rules }

let fingerprint ~op ~extra t nest =
  let extra =
    Option.fold t.rules ~none:extra ~some:(fun ids ->
        extra ^ "|" ^ String.concat "," ids)
  in
  Result_cache.fingerprint ~op ~machine:t.machine ~bound:t.bound
    ~max_loops:t.max_loops ~model:(Model.name t.model) ~seq:t.seq ~extra nest
