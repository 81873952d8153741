open Ujam_ir
module Diagnostic = Ujam_analysis.Diagnostic

type stage = Load | Validate | Parse | Graph | Tables | Search | Transform | Sim | Native

type t = {
  stage : stage;
  routine : string;
  message : string;
  diagnostics : Diagnostic.t list;
}

let make ~stage ~routine ?(diagnostics = []) message =
  { stage; routine; message; diagnostics }

let stage_name = function
  | Load -> "load"
  | Validate -> "validate"
  | Parse -> "parse"
  | Graph -> "graph"
  | Tables -> "tables"
  | Search -> "search"
  | Transform -> "transform"
  | Sim -> "sim"
  | Native -> "native"

let pp ppf e =
  Format.fprintf ppf "ERROR [%s] %s: %s" (stage_name e.stage) e.routine
    e.message;
  List.iter
    (fun d -> Format.fprintf ppf "@,  %a" Diagnostic.pp d)
    e.diagnostics

let to_string e = Format.asprintf "%a" pp e

let guard ~stage ~routine f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (make ~stage ~routine msg)
  | exception Failure msg -> Error (make ~stage ~routine msg)
  | exception Not_found -> Error (make ~stage ~routine "internal lookup failed")
  | exception Stack_overflow -> Error (make ~stage ~routine "stack overflow")

(* The supported subscript class is defined once, in the IR layer
   ({!Ujam_ir.Supported}), so the workload generator and the oracle agree
   with the engine on what "supported" means; here a violation becomes a
   typed Validate error instead of feeding the lattice solvers inputs
   they do not model. *)
let check_supported ~routine nest =
  match Supported.violations nest with
  | [] -> Ok ()
  | first :: _ ->
      let diagnostics = Ujam_analysis.Lint.check_supported nest in
      Error
        (make ~stage:Validate ~routine ~diagnostics (Supported.message nest first))
