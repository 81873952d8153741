module Json = Ujam_obs.Json

type method_ = Optimize | Explain | Lint | Metrics | Ping | Shutdown

let method_name = function
  | Optimize -> "optimize"
  | Explain -> "explain"
  | Lint -> "lint"
  | Metrics -> "metrics"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

let methods =
  [ Optimize; Explain; Lint; Metrics; Ping; Shutdown ]

let method_names = List.map method_name methods

let method_of_name s =
  List.find_opt (fun m -> String.equal (method_name m) s) methods

type source = Ujam_engine.Load.source =
  | Inline of string
  | Kernel of string * int option

type request = {
  id : Json.t;
  meth : method_;
  name : string option;
  source : source option;
  options : Ujam_engine.Options.overrides;
  timeout_ms : int option;
}

type error_kind = Protocol | Oversized | Parse | Analysis | Timeout

let error_kind_name = function
  | Protocol -> "protocol"
  | Oversized -> "oversized"
  | Parse -> "parse"
  | Analysis -> "analysis"
  | Timeout -> "timeout"

(* ---- decoding -------------------------------------------------------- *)

let ( let* ) = Result.bind

let str_field name params =
  match Json.member name params with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "params.%s must be a string" name)

let int_field name params =
  match Json.member name params with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "params.%s must be an integer" name)

let bool_field name params =
  match Json.member name params with
  | None | Some Json.Null -> Ok None
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "params.%s must be a boolean" name)

let str_list_field name params =
  match Json.member name params with
  | None | Some Json.Null -> Ok None
  | Some (Json.List items) ->
      let* strs =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | Json.Str s -> Ok (s :: acc)
            | _ -> Error (Printf.sprintf "params.%s must list strings" name))
          (Ok []) items
      in
      Ok (Some (List.rev strs))
  | Some _ -> Error (Printf.sprintf "params.%s must be a list" name)

let request_of_json json =
  match json with
  | Json.Obj _ ->
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      let* meth =
        match Json.member "method" json with
        | Some (Json.Str s) -> (
            match method_of_name s with
            | Some m -> Ok m
            | None ->
                Error
                  (Printf.sprintf "unknown method %S (known: %s)" s
                     (String.concat ", " method_names)))
        | Some _ -> Error "method must be a string"
        | None ->
            Error
              (Printf.sprintf "missing method (known: %s)"
                 (String.concat ", " method_names))
      in
      let params =
        Option.value (Json.member "params" json) ~default:(Json.Obj [])
      in
      let* () =
        match params with
        | Json.Obj _ -> Ok ()
        | _ -> Error "params must be an object"
      in
      let* nest = str_field "nest" params in
      let* kernel = str_field "kernel" params in
      let* n = int_field "n" params in
      let* source =
        match (nest, kernel) with
        | Some _, Some _ -> Error "params has both nest and kernel"
        | Some src, None -> Ok (Some (Inline src))
        | None, Some k -> Ok (Some (Kernel (k, n)))
        | None, None -> Ok None
      in
      let* name = str_field "name" params in
      let* machine = str_field "machine" params in
      let* bound = int_field "bound" params in
      let* max_loops = int_field "max_loops" params in
      let* model = str_field "model" params in
      let* seq = bool_field "seq" params in
      let* rules = str_list_field "rules" params in
      let* timeout_ms = int_field "timeout_ms" params in
      Ok
        { id;
          meth;
          name;
          source;
          options =
            { Ujam_engine.Options.machine; bound; max_loops; model; seq; rules };
          timeout_ms }
  | _ -> Error "request must be a JSON object"

(* ---- encoding -------------------------------------------------------- *)

let response_of_payload ~id ~ok payload =
  Json.to_string
    (Json.Obj
       [ ("id", id);
         ("ok", Json.Bool ok);
         ((if ok then "result" else "error"), payload) ])

let ok_response ~id payload = response_of_payload ~id ~ok:true payload

let error_payload ~kind ?(diagnostics = []) message =
  Json.Obj
    ([ ("kind", Json.Str (error_kind_name kind));
       ("message", Json.Str message) ]
    @
    if diagnostics = [] then []
    else [ ("diagnostics", Json.List diagnostics) ])

let error_response ~id ~kind ?diagnostics message =
  response_of_payload ~id ~ok:false (error_payload ~kind ?diagnostics message)
