module Level = struct
  type write_policy = Write_allocate | Write_through

  type t = {
    name : string;
    size : int;
    line : int;
    assoc : int;
    access : int;
    penalty : int;
    write : write_policy;
  }

  let make ~name ~size ?(line = 4) ?(assoc = 1) ?(access = 1) ?(penalty = 20)
      ?(write = Write_allocate) () =
    { name; size; line; assoc; access; penalty; write }

  let pp_write ppf w =
    Format.pp_print_string ppf
      (match w with Write_allocate -> "wa" | Write_through -> "wt")

  let pp ppf l =
    Format.fprintf ppf "%s=%d/%d-elt %d-way hit=%dc miss=+%dc %a" l.name l.size
      l.line l.assoc l.access l.penalty pp_write l.write
end

type geometry_error = { level : string; reason : string }

let geometry_message e =
  Printf.sprintf "cache geometry (%s): %s" e.level e.reason

(* One level's shape: positive line and associativity, size a positive
   multiple of [line * assoc] (so the set count is a whole number). *)
let validate_level_shape ~level ~size ~line ~assoc =
  if line <= 0 then Error { level; reason = "line size must be positive" }
  else if assoc <= 0 then
    Error { level; reason = "associativity must be positive" }
  else if size <= 0 then Error { level; reason = "size must be positive" }
  else if size mod (line * assoc) <> 0 then
    Error
      { level;
        reason =
          Printf.sprintf "size %d is not a multiple of line %d * assoc %d" size
            line assoc }
  else Ok ()

let validate_levels levels =
  let rec go prev = function
    | [] -> Ok ()
    | (l : Level.t) :: rest -> (
        match
          validate_level_shape ~level:l.Level.name ~size:l.Level.size
            ~line:l.Level.line ~assoc:l.Level.assoc
        with
        | Error _ as e -> e
        | Ok () -> (
            match prev with
            | Some (p : Level.t) when l.Level.size < p.Level.size ->
                Error
                  { level = l.Level.name;
                    reason =
                      Printf.sprintf
                        "capacity %d is smaller than the preceding level %s \
                         (%d): levels must be capacity-monotone"
                        l.Level.size p.Level.name p.Level.size }
            | _ -> go (Some l) rest))
  in
  go None levels

type t = {
  name : string;
  mem_issue : int;
  fp_issue : int;
  fp_latency : int;
  fp_registers : int;
  cache_size : int;
  cache_line : int;
  associativity : int;
  cache_access : int;
  miss_penalty : int;
  prefetch_bandwidth : float;
  levels : Level.t list;
}

let balance t = float_of_int t.mem_issue /. float_of_int t.fp_issue
let miss_ratio_cost t = float_of_int t.miss_penalty /. float_of_int t.cache_access

let validate ~name:_ ~mem_issue ~fp_issue ~cache_size ~cache_line ~associativity
    ~levels =
  if mem_issue <= 0 || fp_issue <= 0 then
    Error { level = "cpu"; reason = "issue rates must be positive" }
  else if cache_line <= 0 || cache_size < cache_line then
    Error { level = "cache"; reason = "size must be at least one line" }
  else
    match
      validate_level_shape ~level:"cache" ~size:cache_size ~line:cache_line
        ~assoc:associativity
    with
    | Error _ as e -> e
    | Ok () -> validate_levels levels

let make_checked ~name ?(mem_issue = 1) ?(fp_issue = 1) ?(fp_latency = 3)
    ?(fp_registers = 32) ?(cache_size = 1024) ?(cache_line = 4)
    ?(associativity = 1) ?(cache_access = 1) ?(miss_penalty = 20)
    ?(prefetch_bandwidth = 0.0) ?(levels = []) () =
  match
    validate ~name ~mem_issue ~fp_issue ~cache_size ~cache_line ~associativity
      ~levels
  with
  | Error _ as e -> e
  | Ok () ->
      Ok
        { name; mem_issue; fp_issue; fp_latency; fp_registers; cache_size;
          cache_line; associativity; cache_access; miss_penalty;
          prefetch_bandwidth; levels }

let make ~name ?mem_issue ?fp_issue ?fp_latency ?fp_registers ?cache_size
    ?cache_line ?associativity ?cache_access ?miss_penalty ?prefetch_bandwidth
    ?levels () =
  match
    make_checked ~name ?mem_issue ?fp_issue ?fp_latency ?fp_registers
      ?cache_size ?cache_line ?associativity ?cache_access ?miss_penalty
      ?prefetch_bandwidth ?levels ()
  with
  | Ok t -> t
  | Error e -> invalid_arg ("Machine.make: " ^ geometry_message e)

let effective_levels t =
  match t.levels with
  | [] ->
      [ { Level.name = "L1";
          size = t.cache_size;
          line = t.cache_line;
          assoc = t.associativity;
          access = t.cache_access;
          penalty = t.miss_penalty;
          write = Level.Write_allocate } ]
  | ls -> ls

let level_at t k =
  let ls = effective_levels t in
  List.nth_opt ls (k - 1)

let pp ppf t =
  Format.fprintf ppf
    "%s: beta_M=%.2f mem/cyc=%d fp/cyc=%d lat=%d regs=%d cache=%d/%d-elt \
     %d-way hit=%dc miss=+%dc prefetch=%.2f/cyc"
    t.name (balance t) t.mem_issue t.fp_issue t.fp_latency t.fp_registers
    t.cache_size t.cache_line t.associativity t.cache_access t.miss_penalty
    t.prefetch_bandwidth;
  match t.levels with
  | [] -> ()
  | ls ->
      Format.fprintf ppf " levels=[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           Level.pp)
        ls
