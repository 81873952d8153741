open Ujam_ir.Build

let mmijk ?(n = 46) () =
  let d = 3 in
  let i = var d 0 and j = var d 1 and k = var d 2 in
  nest "mmijk"
    [ loop d "I" ~level:0 ~lo:1 ~hi:n ();
      loop d "J" ~level:1 ~lo:1 ~hi:n ();
      loop d "K" ~level:2 ~lo:1 ~hi:n () ]
    [ aref "C" [ i; j ] <<- rd "C" [ i; j ] +: (rd "A" [ i; k ] *: rd "B" [ k; j ]) ]

let mmikj ?(n = 46) () =
  let d = 3 in
  let i = var d 0 and k = var d 1 and j = var d 2 in
  nest "mmikj"
    [ loop d "I" ~level:0 ~lo:1 ~hi:n ();
      loop d "K" ~level:1 ~lo:1 ~hi:n ();
      loop d "J" ~level:2 ~lo:1 ~hi:n () ]
    [ aref "C" [ i; j ] <<- rd "C" [ i; j ] +: (rd "A" [ i; k ] *: rd "B" [ k; j ]) ]

(* [B(I,J) = A(J,I)] — no reuse to exploit, a tiling candidate. *)
let transpose ?(n = 130) () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  nest "transpose"
    [ loop d "J" ~level:0 ~lo:1 ~hi:n (); loop d "I" ~level:1 ~lo:1 ~hi:n () ]
    [ aref "B" [ i; j ] <<- rd "A" [ j; i ] ]

(* 3-D 7-point stencil (the 3-D jacobi). *)
let stencil27 ?(n = 34) () =
  let d = 3 in
  let k = var d 0 and j = var d 1 and i = var d 2 in
  nest "stencil7p"
    [ loop d "K" ~level:0 ~lo:2 ~hi:(n - 1) ();
      loop d "J" ~level:1 ~lo:2 ~hi:(n - 1) ();
      loop d "I" ~level:2 ~lo:2 ~hi:(n - 1) () ]
    [ aref "U" [ i; j; k ]
      <<- s "C0" *: rd "V" [ i; j; k ]
          +: (s "C1"
             *: (rd "V" [ i -$ 1; j; k ] +: rd "V" [ i +$ 1; j; k ]
                +: rd "V" [ i; j -$ 1; k ] +: rd "V" [ i; j +$ 1; k ]
                +: rd "V" [ i; j; k -$ 1 ] +: rd "V" [ i; j; k +$ 1 ])) ]

let conv2d ?(n = 40) ?(k = 3) () =
  let d = 4 in
  let j = var d 0 and i = var d 1 and q = var d 2 and p = var d 3 in
  nest "conv2d"
    [ loop d "J" ~level:0 ~lo:1 ~hi:n ();
      loop d "I" ~level:1 ~lo:1 ~hi:n ();
      loop d "Q" ~level:2 ~lo:1 ~hi:k ();
      loop d "P" ~level:3 ~lo:1 ~hi:k () ]
    [ aref "OUT" [ i; j ]
      <<- rd "OUT" [ i; j ] +: (rd "IMG" [ i ++$ p; j ++$ q ] *: rd "KER" [ p; q ]) ]

(* LU rank-1 update with split factors (the gmtry.3 shape at depth 3). *)
let lufact ?(n = 40) () =
  let d = 3 in
  let k = var d 0 and j = var d 1 and i = var d 2 in
  nest "lufact"
    [ loop d "K" ~level:0 ~lo:1 ~hi:n ();
      loop d "J" ~level:1 ~lo:1 ~hi:n ();
      loop d "I" ~level:2 ~lo:1 ~hi:n () ]
    [ aref "A" [ i; j ] <<- rd "A" [ i; j ] -: (rd "L" [ i; k ] *: rd "U" [ k; j ]) ]

(* Dot-product reduction under an outer batch loop. *)
let dot ?(n = 130) () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  nest "dot"
    [ loop d "J" ~level:0 ~lo:1 ~hi:n (); loop d "I" ~level:1 ~lo:1 ~hi:n () ]
    [ aref "S" [ j ] <<- rd "S" [ j ] +: (rd "X" [ i; j ] *: rd "Y" [ i; j ]) ]

(* Banded triad: [Y(I,J) = Y(I,J) + A(J) * X(I,J-1) + B(J) * X(I,J+1)]. *)
let saxpy_bands ?(n = 130) () =
  let d = 2 in
  let j = var d 0 and i = var d 1 in
  nest "saxpy_bands"
    [ loop d "J" ~level:0 ~lo:2 ~hi:(n - 1) ();
      loop d "I" ~level:1 ~lo:1 ~hi:n () ]
    [ aref "Y" [ i; j ]
      <<- rd "Y" [ i; j ]
          +: (rd "A" [ j ] *: rd "X" [ i; j -$ 1 ])
          +: (rd "B" [ j ] *: rd "X" [ i; j +$ 1 ]) ]

let skewrec ?(n = 16) () =
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  nest "skewrec"
    [ loop d "I" ~level:0 ~lo:1 ~hi:n (); loop d "J" ~level:1 ~lo:1 ~hi:n () ]
    [ aref "A" [ i; j ]
      <<- (rd "A" [ i -$ 1; j +$ 1 ] *: s "S") +: rd "B" [ i; j ] ]

let all =
  [ ("mmijk", mmijk); ("mmikj", mmikj); ("transpose", transpose);
    ("stencil7p", stencil27); ("conv2d", fun ?n () -> conv2d ?n ());
    ("lufact", lufact); ("dot", dot); ("saxpy_bands", saxpy_bands);
    ("skewrec", skewrec) ]
