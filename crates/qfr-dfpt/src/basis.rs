//! Normalized s-type Gaussian basis and analytic one-electron integrals.
//!
//! Each basis function is `χ_μ(r) = N_μ exp(-α_μ |r - A_μ|²)` with
//! `N = (2α/π)^{3/4}`. Hydrogen carries one shell, heavy atoms two (a tight
//! and a diffuse one), mirroring the "light"-tier basis the paper uses in
//! spirit: enough variational freedom for a polarizable density at fragment
//! scale. All one-electron integrals (overlap, kinetic, Gaussian-well
//! attraction, dipole) are analytic.

use qfr_fragment::FragmentStructure;
use qfr_geom::{Element, Vec3};
use qfr_linalg::DMatrix;

/// Gaussian exponents per element (Å⁻²). Two shells on H and three on heavy
/// atoms leave virtual orbitals above the occupied manifold — without them
/// the DFPT response (and hence the polarizability) would vanish
/// identically.
fn shells_for(el: Element) -> &'static [f64] {
    match el {
        Element::H => &[1.00, 0.30],
        Element::C => &[1.20, 0.40, 0.12],
        Element::N => &[1.35, 0.45, 0.14],
        Element::O => &[1.50, 0.50, 0.16],
        Element::S => &[0.90, 0.30, 0.10],
    }
}

/// Gaussian nuclear–nuclear repulsion amplitude (per unit Z·Z, model energy
/// units). Without this term the attractive wells make atoms collapse onto
/// each other and every frozen-density Hessian diagonal turns negative.
pub const REPULSION_AMPLITUDE: f64 = 1.6;

/// Exponent of the repulsive Gaussian (Å⁻²); narrower than the wells so
/// repulsion wins at short range and attraction at bonding range.
pub const REPULSION_EXPONENT: f64 = 0.55;

/// Model valence charge (electrons contributed / well depth scale).
pub fn valence(el: Element) -> f64 {
    match el {
        Element::H => 1.0,
        Element::C => 4.0,
        Element::N => 5.0,
        Element::O => 6.0,
        Element::S => 6.0,
    }
}

/// Width parameter of the external Gaussian wells (Å⁻²).
pub const WELL_EXPONENT: f64 = 0.8;

/// Depth scale of the external wells (model energy units).
pub const WELL_DEPTH: f64 = 4.0;

/// One s-type primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shell {
    /// Center (Å).
    pub center: Vec3,
    /// Exponent (Å⁻²).
    pub alpha: f64,
    /// Normalization `(2α/π)^{3/4}`.
    pub norm: f64,
    /// Owning atom (fragment-local index).
    pub atom: usize,
}

/// The fragment basis: a flat list of shells plus element/charge metadata.
#[derive(Debug, Clone)]
pub struct Basis {
    /// All shells, atom-major order.
    pub shells: Vec<Shell>,
    /// Nuclear well positions (= atom positions).
    pub nuclei: Vec<(Vec3, f64)>,
    /// Total valence electron count.
    pub n_electrons: f64,
}

impl Basis {
    /// Builds the basis of a fragment.
    pub fn for_fragment(frag: &FragmentStructure) -> Self {
        let mut shells = Vec::new();
        let mut nuclei = Vec::with_capacity(frag.n_atoms());
        let mut n_electrons = 0.0;
        for (a, (&el, &pos)) in frag.elements.iter().zip(&frag.positions).enumerate() {
            for &alpha in shells_for(el) {
                shells.push(Shell {
                    center: pos,
                    alpha,
                    norm: (2.0 * alpha / std::f64::consts::PI).powf(0.75),
                    atom: a,
                });
            }
            nuclei.push((pos, valence(el)));
            n_electrons += valence(el);
        }
        Self { shells, nuclei, n_electrons }
    }

    /// Basis dimension.
    pub fn len(&self) -> usize {
        self.shells.len()
    }

    /// True when the basis is empty.
    pub fn is_empty(&self) -> bool {
        self.shells.is_empty()
    }

    /// Overlap matrix `S`.
    pub fn overlap(&self) -> DMatrix {
        let n = self.len();
        qfr_linalg::flops::add((n * n * 10) as u64);
        DMatrix::from_fn(n, n, |i, j| {
            let (a, b) = (&self.shells[i], &self.shells[j]);
            gaussian_overlap(a, b)
        })
    }

    /// Kinetic energy matrix `T` (model units).
    pub fn kinetic(&self) -> DMatrix {
        let n = self.len();
        qfr_linalg::flops::add((n * n * 14) as u64);
        DMatrix::from_fn(n, n, |i, j| {
            let (a, b) = (&self.shells[i], &self.shells[j]);
            let p = a.alpha + b.alpha;
            let mu = a.alpha * b.alpha / p;
            let r2 = a.center.dist_sqr(b.center);
            gaussian_overlap(a, b) * mu * (3.0 - 2.0 * mu * r2)
        })
    }

    /// External-potential matrix for the Gaussian nuclear wells:
    /// `V_μν = -Σ_A Z_A W ∫ χ_μ χ_ν exp(-γ|r-R_A|²) dr` (analytic).
    pub fn external_potential(&self) -> DMatrix {
        let n = self.len();
        qfr_linalg::flops::add((n * n * self.nuclei.len() * 20) as u64);
        DMatrix::from_fn(n, n, |i, j| {
            let (a, b) = (&self.shells[i], &self.shells[j]);
            let p = a.alpha + b.alpha;
            let prod_center = (a.center * a.alpha + b.center * b.alpha) * (1.0 / p);
            let k = gaussian_overlap(a, b) * (p / std::f64::consts::PI).powf(1.5);
            let mut v = 0.0;
            for &(rc, z) in &self.nuclei {
                let q = p + WELL_EXPONENT;
                let d2 = prod_center.dist_sqr(rc);
                v -= z
                    * WELL_DEPTH
                    * k
                    * (std::f64::consts::PI / q).powf(1.5)
                    * (-p * WELL_EXPONENT / q * d2).exp();
            }
            v
        })
    }

    /// Dipole matrices `D_c[μν] = ∫ χ_μ r_c χ_ν dr` for c = x, y, z,
    /// relative to the basis centroid (gauge origin).
    pub fn dipole(&self) -> [DMatrix; 3] {
        let n = self.len();
        let centroid = self.centroid();
        qfr_linalg::flops::add((n * n * 12) as u64);
        let mut out = [DMatrix::zeros(n, n), DMatrix::zeros(n, n), DMatrix::zeros(n, n)];
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (&self.shells[i], &self.shells[j]);
                let s = gaussian_overlap(a, b);
                let p = a.alpha + b.alpha;
                let pc = (a.center * a.alpha + b.center * b.alpha) * (1.0 / p) - centroid;
                let arr = pc.to_array();
                for (c, m) in out.iter_mut().enumerate() {
                    m[(i, j)] = s * arr[c];
                }
            }
        }
        out
    }

    /// Nuclear–nuclear repulsion energy of the Gaussian-well model:
    /// `Σ_{A<B} Z_A Z_B · κ · exp(-η R_AB²)`.
    pub fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for a in 0..self.nuclei.len() {
            for b in (a + 1)..self.nuclei.len() {
                let (ra, za) = self.nuclei[a];
                let (rb, zb) = self.nuclei[b];
                e += za * zb * REPULSION_AMPLITUDE * (-REPULSION_EXPONENT * ra.dist_sqr(rb)).exp();
            }
        }
        e
    }

    /// `∂ tr(P (T + V_ext)) / ∂R` for a fixed density matrix `p`, one entry
    /// per nuclear coordinate `3·atom + c`. Both integrals are closed forms
    /// of s-Gaussians: `T_μν` and the overlap factor of `V_μν` depend on the
    /// centres only through `r² = |A_μ − A_ν|²`, and each well term also
    /// through the product centre `P = (α_μ A_μ + α_ν A_ν)/p` (which moves
    /// both shells' atoms) and the well centre `R_C` (which moves atom C).
    pub(crate) fn core_gradient(&self, p: &DMatrix) -> Vec<f64> {
        let n = self.len();
        assert_eq!(p.shape(), (n, n), "density matrix shape");
        qfr_linalg::flops::add((n * n * (24 + self.nuclei.len() * 36)) as u64);
        let mut grad = vec![0.0; 3 * self.nuclei.len()];
        let mut add = |atom: usize, v: Vec3| {
            for (g, v) in grad[3 * atom..3 * atom + 3].iter_mut().zip(v.to_array()) {
                *g += v;
            }
        };
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (&self.shells[i], &self.shells[j]);
                let pij = p[(i, j)];
                let s = gaussian_overlap(a, b);
                let pe = a.alpha + b.alpha;
                let mu = a.alpha * b.alpha / pe;
                let r2 = a.center.dist_sqr(b.center);
                // T = S μ (3 − 2μ r²) with dS/dr² = −μ S.
                let dt_dr2 = -mu * mu * s * (5.0 - 2.0 * mu * r2);
                let prod_center = (a.center * a.alpha + b.center * b.alpha) * (1.0 / pe);
                let k = s * (pe / std::f64::consts::PI).powf(1.5);
                let q = pe + WELL_EXPONENT;
                let beta = pe * WELL_EXPONENT / q;
                let mut v = 0.0;
                for (atom, &(rc, z)) in self.nuclei.iter().enumerate() {
                    let d = prod_center - rc;
                    let vc = -z
                        * WELL_DEPTH
                        * k
                        * (std::f64::consts::PI / q).powf(1.5)
                        * (-beta * d.norm_sqr()).exp();
                    v += vc;
                    // ∂V_C/∂P = −2β V_C (P − R_C) = −∂V_C/∂R_C; ∂P/∂A = α/p.
                    let f = d * (2.0 * beta * vc * pij);
                    add(atom, f);
                    add(a.atom, f * (-a.alpha / pe));
                    add(b.atom, f * (-b.alpha / pe));
                }
                // Through r²: dV/dr² = −μ V; ∂r²/∂A_μ = 2(A_μ − A_ν).
                let f = (a.center - b.center) * (2.0 * pij * (dt_dr2 - mu * v));
                add(a.atom, f);
                add(b.atom, -f);
            }
        }
        grad
    }

    /// `∂E_nn/∂R` of [`Basis::nuclear_repulsion`], one entry per nuclear
    /// coordinate `3·atom + c`.
    pub(crate) fn nuclear_repulsion_gradient(&self) -> Vec<f64> {
        let mut grad = vec![0.0; 3 * self.nuclei.len()];
        for a in 0..self.nuclei.len() {
            for b in (a + 1)..self.nuclei.len() {
                let (ra, za) = self.nuclei[a];
                let (rb, zb) = self.nuclei[b];
                let e =
                    za * zb * REPULSION_AMPLITUDE * (-REPULSION_EXPONENT * ra.dist_sqr(rb)).exp();
                let f = ((ra - rb) * (-2.0 * REPULSION_EXPONENT * e)).to_array();
                for (c, f) in f.into_iter().enumerate() {
                    grad[3 * a + c] += f;
                    grad[3 * b + c] -= f;
                }
            }
        }
        grad
    }

    /// Centroid of the shell centers (dipole gauge origin).
    pub fn centroid(&self) -> Vec3 {
        let mut c = Vec3::ZERO;
        for s in &self.shells {
            c += s.center;
        }
        c * (1.0 / self.len().max(1) as f64)
    }

    /// Evaluates all basis functions at `points`: returns the
    /// `npts x nbasis` value matrix `X`.
    pub fn evaluate(&self, points: &[Vec3]) -> DMatrix {
        let npts = points.len();
        let n = self.len();
        qfr_linalg::flops::add((npts * n * 8) as u64);
        DMatrix::from_fn(npts, n, |p, mu| self.shells[mu].value(points[p]))
    }

    /// Evaluates the value panel `X` and the three gradient panels at
    /// `points` from one exponential per point and function: each gradient
    /// entry is `-2α (r_c - A_c)` times the value entry, the expression
    /// [`Basis::evaluate_gradient`] uses, so all four panels equal the
    /// separate evaluations bit for bit. Books the FLOPs of one `evaluate`
    /// plus three `evaluate_gradient` calls, so the counters match too.
    pub fn evaluate_with_gradients(&self, points: &[Vec3]) -> (DMatrix, [DMatrix; 3]) {
        let npts = points.len();
        let n = self.len();
        qfr_linalg::flops::add((npts * n * (8 + 3 * 11)) as u64);
        let x = DMatrix::from_fn(npts, n, |p, mu| self.shells[mu].value(points[p]));
        let grads = std::array::from_fn(|c| {
            DMatrix::from_fn(npts, n, |p, mu| {
                self.shells[mu].gradient_factor(points[p], c) * x[(p, mu)]
            })
        });
        (x, grads)
    }

    /// Rewrites the columns of the value panel `x` and the gradient panels
    /// `grads` of `points` (as [`Basis::evaluate_with_gradients`] returns
    /// them) whose shell centre differs from `previous`'s, and keeps the
    /// rest: each rewritten column is the expression of
    /// `evaluate_with_gradients` (one exponential, the gradients scaled
    /// from it), and an unmoved column is the same expression of the same
    /// inputs, so the panels equal a full evaluation bit for bit. Books the
    /// FLOPs of the rewritten columns.
    pub(crate) fn refresh_moved_panels(
        &self,
        previous: &Basis,
        points: &[Vec3],
        x: &mut DMatrix,
        grads: &mut [DMatrix; 3],
    ) {
        assert_eq!(x.shape(), (points.len(), self.len()), "value panel shape");
        assert!(grads.iter().all(|g| g.shape() == x.shape()), "gradient panel shape");
        assert_eq!(previous.len(), self.len(), "bases differ in size");
        for (mu, (sh, old)) in self.shells.iter().zip(&previous.shells).enumerate() {
            if sh.center == old.center {
                continue;
            }
            qfr_linalg::flops::add((points.len() * (8 + 3 * 11)) as u64);
            for (p, &point) in points.iter().enumerate() {
                let v = sh.value(point);
                x[(p, mu)] = v;
                for (c, g) in grads.iter_mut().enumerate() {
                    g[(p, mu)] = sh.gradient_factor(point, c) * v;
                }
            }
        }
    }

    /// Evaluates the Cartesian gradient component `c` of all basis
    /// functions at `points` (`∂χ/∂r_c = -2α (r_c - A_c) χ`).
    pub fn evaluate_gradient(&self, points: &[Vec3], c: usize) -> DMatrix {
        let npts = points.len();
        let n = self.len();
        qfr_linalg::flops::add((npts * n * 11) as u64);
        DMatrix::from_fn(npts, n, |p, mu| {
            let sh = &self.shells[mu];
            sh.gradient_factor(points[p], c) * sh.value(points[p])
        })
    }
}

impl Shell {
    /// `χ(r) = N exp(-α |r - A|²)`.
    #[inline]
    fn value(&self, r: Vec3) -> f64 {
        self.norm * (-self.alpha * r.dist_sqr(self.center)).exp()
    }

    /// `∂χ/∂r_c / χ = -2α (r_c - A_c)`.
    #[inline]
    fn gradient_factor(&self, r: Vec3, c: usize) -> f64 {
        let delta = match c {
            0 => r.x - self.center.x,
            1 => r.y - self.center.y,
            _ => r.z - self.center.z,
        };
        -2.0 * self.alpha * delta
    }
}

/// Analytic overlap of two normalized s-Gaussians.
#[inline]
fn gaussian_overlap(a: &Shell, b: &Shell) -> f64 {
    let p = a.alpha + b.alpha;
    let mu = a.alpha * b.alpha / p;
    a.norm
        * b.norm
        * (std::f64::consts::PI / p).powf(1.5)
        * (-mu * a.center.dist_sqr(b.center)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::{FragmentJob, JobKind};
    use qfr_geom::WaterBoxBuilder;

    fn water_fragment() -> FragmentStructure {
        let sys = WaterBoxBuilder::new(1).seed(1).build();
        FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: vec![0, 1, 2],
            link_hydrogens: vec![],
        }
        .structure(&sys)
    }

    #[test]
    fn water_basis_shape() {
        let b = Basis::for_fragment(&water_fragment());
        // O: 3 shells, H: 2 each -> 7 functions; 8 valence electrons.
        assert_eq!(b.len(), 7);
        assert!((b.n_electrons - 8.0).abs() < 1e-12);
        assert_eq!(b.nuclei.len(), 3);
    }

    #[test]
    fn overlap_diagonal_is_one() {
        let b = Basis::for_fragment(&water_fragment());
        let s = b.overlap();
        for i in 0..b.len() {
            assert!((s[(i, i)] - 1.0).abs() < 1e-12, "normalization broken");
        }
        assert!(s.is_symmetric(1e-14));
        // Off-diagonals bounded by Cauchy-Schwarz.
        for i in 0..b.len() {
            for j in 0..b.len() {
                assert!(s[(i, j)].abs() <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn overlap_positive_definite() {
        let b = Basis::for_fragment(&water_fragment());
        let s = b.overlap();
        assert!(qfr_linalg::cholesky::Cholesky::new(&s).is_ok());
    }

    #[test]
    fn kinetic_positive_definite_and_symmetric() {
        let b = Basis::for_fragment(&water_fragment());
        let t = b.kinetic();
        assert!(t.is_symmetric(1e-12));
        let eig = qfr_linalg::eigen::symmetric_eigen(&t);
        assert!(eig.eigenvalues.iter().all(|&w| w > 0.0), "{:?}", eig.eigenvalues);
    }

    #[test]
    fn external_potential_attractive() {
        let b = Basis::for_fragment(&water_fragment());
        let v = b.external_potential();
        assert!(v.is_symmetric(1e-12));
        for i in 0..b.len() {
            assert!(v[(i, i)] < 0.0, "wells must attract");
        }
    }

    #[test]
    fn grid_overlap_matches_analytic() {
        // Quadrature of X^T X over a fine grid approximates S.
        let frag = water_fragment();
        let b = Basis::for_fragment(&frag);
        let grid = crate::grid::RealSpaceGrid::for_fragment(&frag, 0.22, 5.0, 64);
        let x = b.evaluate(&grid.points);
        let mut s_num = qfr_linalg::blas::gram(&x);
        s_num.scale_mut(grid.dv);
        let s = b.overlap();
        assert!(s_num.max_abs_diff(&s) < 0.02, "numeric overlap error {}", s_num.max_abs_diff(&s));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let frag = water_fragment();
        let b = Basis::for_fragment(&frag);
        let pts = vec![Vec3::new(0.3, -0.2, 0.5), Vec3::new(1.0, 0.8, -0.4)];
        let h = 1e-6;
        for c in 0..3 {
            let g = b.evaluate_gradient(&pts, c);
            let shift = |p: Vec3, s: f64| {
                let mut q = p;
                match c {
                    0 => q.x += s,
                    1 => q.y += s,
                    _ => q.z += s,
                }
                q
            };
            let xp = b.evaluate(&pts.iter().map(|&p| shift(p, h)).collect::<Vec<_>>());
            let xm = b.evaluate(&pts.iter().map(|&p| shift(p, -h)).collect::<Vec<_>>());
            for p in 0..2 {
                for mu in 0..b.len() {
                    let fd = (xp[(p, mu)] - xm[(p, mu)]) / (2.0 * h);
                    assert!((fd - g[(p, mu)]).abs() < 1e-6);
                }
            }
        }
    }

    fn bits(m: &DMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn sample_points() -> Vec<Vec3> {
        (0..37)
            .map(|i| {
                let t = i as f64;
                Vec3::new((t * 0.37).sin() * 2.0, (t * 0.11).cos() - 0.5, t * 0.05 - 0.9)
            })
            .collect()
    }

    #[test]
    fn shared_exponential_panels_match_separate_evaluations_bit_for_bit() {
        let b = Basis::for_fragment(&water_fragment());
        let pts = sample_points();
        let (x, grads) = b.evaluate_with_gradients(&pts);
        assert_eq!(bits(&x), bits(&b.evaluate(&pts)));
        for (c, g) in grads.iter().enumerate() {
            assert_eq!(bits(g), bits(&b.evaluate_gradient(&pts, c)), "direction {c}");
        }
    }

    #[test]
    fn refreshed_columns_match_a_full_evaluation_bit_for_bit() {
        let frag = water_fragment();
        let reference = Basis::for_fragment(&frag);
        let pts = sample_points();
        let mut moved = frag.clone();
        moved.positions[1].y += 0.02;
        moved.positions[2].x -= 0.02;
        let displaced = Basis::for_fragment(&moved);
        let (ref_x, ref_grads) = reference.evaluate_with_gradients(&pts);
        let (mut x, mut grads) = (ref_x.clone(), ref_grads.clone());
        displaced.refresh_moved_panels(&reference, &pts, &mut x, &mut grads);
        let (full_x, full_grads) = displaced.evaluate_with_gradients(&pts);
        assert_eq!(bits(&x), bits(&full_x));
        for c in 0..3 {
            assert_eq!(bits(&grads[c]), bits(&full_grads[c]), "direction {c}");
        }
        // The oxygen's columns were kept, the hydrogens' rewritten.
        assert_eq!(x.col(0), ref_x.col(0));
        assert_eq!(grads[1].col(0), ref_grads[1].col(0));
        assert_ne!(x.col(3), ref_x.col(3));
        assert_ne!(grads[1].col(3), ref_grads[1].col(3));
    }

    #[test]
    fn integral_gradients_match_central_differences() {
        let frag = water_fragment();
        let b = Basis::for_fragment(&frag);
        // Any fixed symmetric matrix stands in for the frozen density.
        let p = DMatrix::from_fn(b.len(), b.len(), |i, j| 0.3 + ((i * j + i + j) as f64).sin());
        let core = |f: &FragmentStructure| {
            let b = Basis::for_fragment(f);
            crate::scf::trace_product(&p, &(&b.kinetic() + &b.external_potential()))
        };
        let repulsion = |f: &FragmentStructure| Basis::for_fragment(f).nuclear_repulsion();
        let (g_core, g_rep) = (b.core_gradient(&p), b.nuclear_repulsion_gradient());
        let h = 1e-5;
        for coord in 0..frag.dof() {
            let shifted = |s: f64| {
                let mut f = frag.clone();
                let pos = &mut f.positions[coord / 3];
                match coord % 3 {
                    0 => pos.x += s,
                    1 => pos.y += s,
                    _ => pos.z += s,
                }
                f
            };
            let (fp, fm) = (shifted(h), shifted(-h));
            let fd_core = (core(&fp) - core(&fm)) / (2.0 * h);
            let fd_rep = (repulsion(&fp) - repulsion(&fm)) / (2.0 * h);
            assert!(
                (fd_core - g_core[coord]).abs() < 1e-6,
                "core {coord}: {fd_core} vs {}",
                g_core[coord]
            );
            assert!(
                (fd_rep - g_rep[coord]).abs() < 1e-6,
                "repulsion {coord}: {fd_rep} vs {}",
                g_rep[coord]
            );
        }
    }

    #[test]
    fn dipole_antisymmetric_under_centroid_shift() {
        // For two identical shells mirrored about the centroid, the x-dipole
        // diagonal entries are opposite.
        let b = Basis::for_fragment(&water_fragment());
        let d = b.dipole();
        for m in &d {
            assert!(m.is_symmetric(1e-12));
        }
    }
}
