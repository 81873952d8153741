module Catalogue = Ujam_kernels.Catalogue
module Parse = Ujam_ir.Parse

type source = Inline of string | Kernel of string * int option

let nest ?(name = "nest") = function
  | Kernel (k, n) -> (
      let fail msg = Error (Error.make ~stage:Load ~routine:k msg) in
      match Catalogue.find k with
      | None -> fail (Printf.sprintf "unknown kernel %S" k)
      | Some e -> (
          try Ok (e.Catalogue.build ?n ())
          with exn ->
            fail (Printf.sprintf "kernel %S: %s" k (Printexc.to_string exn))))
  | Inline text -> (
      match Parse.nest ~name text with
      | Ok nest -> Ok nest
      | Error pe ->
          Error
            (Error.make ~stage:Parse ~routine:name
               ~diagnostics:[ Ujam_analysis.Lint.of_parse_error pe ]
               (Format.asprintf "%a" Parse.pp_error pe)))
