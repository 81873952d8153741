type entry = {
  num : int;
  name : string;
  description : string;
  build : ?n:int -> unit -> Ujam_ir.Nest.t;
}

let all =
  [ { num = 1; name = "jacobi"; description = "Compute Jacobian of a Matrix";
      build = Kernels.jacobi };
    { num = 2; name = "afold"; description = "Adjoint Convolution";
      build = Kernels.afold };
    { num = 3; name = "btrix.1"; description = "SPEC/NASA7/BTRIX";
      build = Kernels.btrix1 };
    { num = 4; name = "btrix.2"; description = "SPEC/NASA7/BTRIX";
      build = Kernels.btrix2 };
    { num = 5; name = "btrix.7"; description = "SPEC/NASA7/BTRIX";
      build = Kernels.btrix7 };
    { num = 6; name = "collc.2"; description = "Perfect/FLO52/COLLC";
      build = Kernels.collc2 };
    { num = 7; name = "cond.7"; description = "local/SIMPLE/CONDUCT";
      build = Kernels.cond7 };
    { num = 8; name = "cond.9"; description = "local/SIMPLE/CONDUCT";
      build = Kernels.cond9 };
    { num = 9; name = "dflux.16"; description = "Perfect/FLO52/DFLUX";
      build = Kernels.dflux16 };
    { num = 10; name = "dflux.17"; description = "Perfect/FLO52/DFLUX";
      build = Kernels.dflux17 };
    { num = 11; name = "dflux.20"; description = "Perfect/FLO52/DFLUX";
      build = Kernels.dflux20 };
    { num = 12; name = "dmxpy0"; description = "Vector-Matrix Multiply";
      build = Kernels.dmxpy0 };
    { num = 13; name = "dmxpy1"; description = "Vector-Matrix Multiply";
      build = Kernels.dmxpy1 };
    { num = 14; name = "gmtry.3"; description = "SPEC/NASA7/GMTRY";
      build = Kernels.gmtry3 };
    { num = 15; name = "mmjik"; description = "Matrix-Matrix Multiply";
      build = Kernels.mmjik };
    { num = 16; name = "mmjki"; description = "Matrix-Matrix Multiply";
      build = Kernels.mmjki };
    { num = 17; name = "vpenta.7"; description = "SPEC/NASA7/VPENTA";
      build = Kernels.vpenta7 };
    { num = 18; name = "sor"; description = "Successive Over Relaxation";
      build = Kernels.sor };
    { num = 19; name = "shal"; description = "Shallow Water Kernel";
      build = Kernels.shal } ]

let find name =
  match List.find_opt (fun e -> String.equal e.name name) all with
  | Some _ as e -> e
  | None ->
      Option.map
        (fun build -> { num = 0; name; description = "extra kernel"; build })
        (List.assoc_opt name Extras.all)

let pp_table ppf () =
  Format.fprintf ppf "@[<v>%-4s %-10s %s@," "Num" "Loop" "Description";
  List.iter
    (fun e -> Format.fprintf ppf "%-4d %-10s %s@," e.num e.name e.description)
    all;
  Format.fprintf ppf "@]"
