open Ujam_linalg

let spatial_matrix h = if Mat.rows h = 0 then h else Mat.zero_row h 0

let kernel_space h = Subspace.of_basis ~dim:(Mat.cols h) (Mat.kernel h)

let self_temporal h = kernel_space h
let self_spatial h = kernel_space (spatial_matrix h)

let has_self_temporal ~localized h = Subspace.kernel_dim h localized > 0

let has_self_spatial ~localized h =
  Subspace.kernel_dim (spatial_matrix h) localized > Subspace.kernel_dim h localized
