//! # qfr-solver
//!
//! The efficient Raman spectral solver of Section V-E: instead of
//! diagonalizing the `3N x 3N` mass-weighted Hessian (impossible at 10⁸
//! atoms — a 3·10⁸-dimensional eigenproblem), the intensity is rewritten as
//! a matrix functional
//!
//! ```text
//! I(ω) ∝ dᵀ δ(ω − H) d ≈ dᵀ g_σ(ω − H) d
//! ```
//!
//! and evaluated with a k-step Lanczos process plus the *generalized
//! averaged Gauss quadrature* (GAGQ) of Reichel–Spalević: the Lanczos
//! tridiagonal `T_k` is augmented to a `(2k−1) x (2k−1)` matrix `T̂` whose
//! Gauss-type rule has almost twice the degree of exactness at negligible
//! extra cost. Only `k` passes over `H` are needed, each shared by all the
//! starting vectors of a panel.
//!
//! [`raman`] combines seven such quadratures (the isotropic combination and
//! the six tensor components) into the orientation-averaged Raman intensity
//! of Eq. (4), and provides the dense-diagonalization reference used to
//! validate accuracy on small systems.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops over grid/component arrays

pub mod gagq;
pub mod infrared;
pub mod lanczos;
pub mod raman;
pub mod sharded;
pub mod spectrum;

pub use gagq::{averaged_quadrature, gauss_quadrature};
pub use infrared::{ir_lanczos, raman_polarized, PolarizedRaman};
pub use lanczos::{lanczos, lanczos_panel, LanczosResult};
pub use raman::{
    raman_dense_reference, raman_ir_lanczos, raman_lanczos, RamanOptions, RamanSpectrum,
};
pub use sharded::{CsrTile, ShardedOperator, TileSource};
pub use spectrum::{gaussian_broadening, SpectralDensity};
