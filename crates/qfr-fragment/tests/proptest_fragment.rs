//! Property tests for the QF decomposition and assembly.

use proptest::prelude::*;
use qfr_fragment::{
    assemble, AssembledSystem, Decomposition, DecompositionParams, FragmentJob, FragmentResponse,
    JobKind, MassWeighted, RowRangeAccumulator,
};
use qfr_geom::{MolecularSystem, ProteinBuilder, WaterBoxBuilder};
use qfr_linalg::DMatrix;
use std::ops::Range;

/// splitmix64: a reproducible stream of well-mixed bits per `(seed, index)`.
fn mix(seed: u64, index: usize) -> u64 {
    let mut z = seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A water box or a protein chain with its decomposition at `lambda`.
fn decomposed(protein: bool, n: usize, seed: u64, lambda: f64) -> (MolecularSystem, Decomposition) {
    let sys = if protein {
        ProteinBuilder::new(n).seed(seed).build()
    } else {
        WaterBoxBuilder::new(n).seed(seed).build()
    };
    let d = Decomposition::new(&sys, DecompositionParams { lambda, ..Default::default() });
    (sys, d)
}

/// Correctly shaped responses with full-mantissa entries in (-1, 1), so any
/// change of summation order shows in the bits, and about one exact zero in
/// eight, which the fold must skip.
fn noisy_responses(jobs: &[FragmentJob], seed: u64) -> Vec<FragmentResponse> {
    (jobs.iter().enumerate())
        .map(|(k, job)| {
            let m3 = 3 * job.size();
            let entry = |salt: usize| {
                move |i: usize, j: usize| {
                    let bits = mix(seed ^ mix(k as u64, salt), i * m3 + j);
                    let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
                    f64::from(bits & 7 != 0) * (2.0 * unit - 1.0)
                }
            };
            FragmentResponse {
                hessian: DMatrix::from_fn(m3, m3, entry(0)),
                dalpha: DMatrix::from_fn(6, m3, entry(1)),
                dmu: DMatrix::from_fn(3, m3, entry(2)),
            }
        })
        .collect()
}

/// Contiguous ranges tiling `0..n_atoms`, cut at `cuts` (per mille of the
/// atom count); coinciding cuts leave empty ranges.
fn partition(n_atoms: usize, cuts: &[usize]) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c * n_atoms / 1000).collect();
    bounds.extend([0, n_atoms]);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

type OperatorBits = (Vec<usize>, Vec<u32>, Vec<u64>, Vec<Vec<u64>>);

/// CSR arrays and derivative spans of row-range operators stacked in range
/// order, values as bit patterns.
fn stacked<'a>(
    parts: impl IntoIterator<Item = (&'a qfr_linalg::CsrMatrix, &'a [Vec<f64>; 6], &'a [Vec<f64>; 3])>,
) -> OperatorBits {
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    let mut spans = vec![Vec::new(); 9];
    for (hessian, dalpha, dmu) in parts {
        let (ptr, cols, vals) = hessian.raw_parts();
        row_ptr.extend(ptr[1..].iter().map(|p| p + col_idx.len()));
        col_idx.extend_from_slice(cols);
        values.extend(vals.iter().map(|v| v.to_bits()));
        for (span, part) in spans.iter_mut().zip(dalpha.iter().chain(dmu)) {
            span.extend(part.iter().map(|v| v.to_bits()));
        }
    }
    (row_ptr, col_idx, values, spans)
}

fn raw_bits(parts: &[AssembledSystem]) -> OperatorBits {
    stacked(parts.iter().map(|a| (&a.hessian, &a.dalpha, &a.dmu)))
}

fn weighted_bits(parts: &[AssembledSystem], masses: &[f64]) -> OperatorBits {
    let weighted: Vec<MassWeighted> =
        parts.iter().map(|a| MassWeighted::in_place(a.clone(), masses)).collect();
    stacked(weighted.iter().map(|w| (&w.hessian, &w.dalpha, &w.dmu)))
}

/// Folds the `kept` jobs into one accumulator per range, each fed only the
/// jobs that touch it, in job order.
fn fold_ranges(
    ranges: &[Range<usize>],
    n_atoms: usize,
    jobs: &[FragmentJob],
    responses: &[FragmentResponse],
    kept: impl Fn(usize) -> bool,
) -> Vec<AssembledSystem> {
    (ranges.iter())
        .map(|range| {
            let mut acc = RowRangeAccumulator::new(range.clone(), n_atoms);
            for (k, (job, resp)) in jobs.iter().zip(responses).enumerate() {
                if kept(k) && acc.touches(job) {
                    acc.add(job, resp);
                }
            }
            acc.finish()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Coverage: every atom's one-body term enters exactly once for any
    /// water box and any λ.
    #[test]
    fn water_coverage_any_lambda(n in 1..40usize, seed in 0u64..1000, lambda in 0.1..8.0f64) {
        let sys = WaterBoxBuilder::new(n).seed(seed).build();
        let d = Decomposition::new(
            &sys,
            DecompositionParams { lambda, ..Default::default() },
        );
        for (a, c) in d.atom_coverage(sys.n_atoms()).iter().enumerate() {
            prop_assert!((c - 1.0).abs() < 1e-12, "atom {a}: {c}");
        }
    }

    /// Protein coverage for any chain length and fold.
    #[test]
    fn protein_coverage(n in 1..30usize, seed in 0u64..500, per_row in 2..12usize) {
        let sys = ProteinBuilder::new(n).seed(seed).fold(per_row, 3).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        for (a, c) in d.atom_coverage(sys.n_atoms()).iter().enumerate() {
            prop_assert!((c - 1.0).abs() < 1e-12, "atom {a}: {c}");
        }
        // Fragment / cap counts follow the Eq. (1) bookkeeping.
        if n >= 3 {
            prop_assert_eq!(d.stats.n_capped_fragments, n - 2);
            prop_assert_eq!(d.stats.n_cap_pairs, n.saturating_sub(3));
        } else {
            prop_assert_eq!(d.stats.n_capped_fragments, 1);
        }
    }

    /// λ monotonicity: growing the threshold never removes two-body terms.
    #[test]
    fn lambda_monotonicity(n in 2..25usize, seed in 0u64..500, l1 in 1.0..4.0f64, dl in 0.0..3.0f64) {
        let sys = WaterBoxBuilder::new(n).seed(seed).build();
        let d1 = Decomposition::new(&sys, DecompositionParams { lambda: l1, ..Default::default() });
        let d2 = Decomposition::new(
            &sys,
            DecompositionParams { lambda: l1 + dl, ..Default::default() },
        );
        prop_assert!(d2.stats.n_water_water_pairs >= d1.stats.n_water_water_pairs);
    }

    /// Assembly is linear: doubling every response doubles the assembled
    /// operators.
    #[test]
    fn assembly_linearity(n in 1..12usize, seed in 0u64..500) {
        let sys = WaterBoxBuilder::new(n).seed(seed).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let make = |scale: f64| -> Vec<FragmentResponse> {
            d.jobs
                .iter()
                .map(|j| {
                    let m = j.size();
                    FragmentResponse {
                        hessian: DMatrix::from_fn(3 * m, 3 * m, |i, jj| {
                            scale * ((i * 31 + jj * 7 + seed as usize) % 11) as f64
                        }),
                        dalpha: DMatrix::from_fn(6, 3 * m, |i, jj| {
                            scale * ((i * 13 + jj * 3) % 5) as f64
                        }),
                        dmu: DMatrix::from_fn(3, 3 * m, |i, jj| {
                            scale * ((i * 5 + jj) % 7) as f64
                        }),
                    }
                })
                .collect()
        };
        let a1 = assemble::assemble(&d.jobs, &make(1.0), sys.n_atoms());
        let a2 = assemble::assemble(&d.jobs, &make(2.0), sys.n_atoms());
        let d1 = a1.hessian.to_dense();
        let d2 = a2.hessian.to_dense();
        prop_assert!(d2.max_abs_diff(&d1.scaled(2.0)) < 1e-9);
        for c in 0..6 {
            for (x1, x2) in a1.dalpha[c].iter().zip(&a2.dalpha[c]) {
                prop_assert!((x2 - 2.0 * x1).abs() < 1e-9);
            }
        }
    }

    /// Mass weighting with unit masses is the identity.
    #[test]
    fn unit_mass_weighting_is_identity(n in 1..10usize, seed in 0u64..300) {
        let sys = WaterBoxBuilder::new(n).seed(seed).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let responses: Vec<FragmentResponse> = d
            .jobs
            .iter()
            .map(|j| {
                let m = j.size();
                FragmentResponse {
                    hessian: DMatrix::identity(3 * m),
                    dalpha: DMatrix::from_fn(6, 3 * m, |_, _| 1.0),
                    dmu: DMatrix::from_fn(3, 3 * m, |_, _| 1.0),
                }
            })
            .collect();
        let asm = assemble::assemble(&d.jobs, &responses, sys.n_atoms());
        let mw = MassWeighted::new(&asm, &vec![1.0; sys.n_atoms()]);
        prop_assert!(mw.hessian.to_dense().max_abs_diff(&asm.hessian.to_dense()) < 1e-12);
    }

    /// Sharding cannot change a bit: the rows of any contiguous partition,
    /// stacked in range order, are the whole-system operator — before and
    /// after mass weighting, for the full job list and for the partial
    /// operator of a run that lost a random subset of its jobs.
    #[test]
    fn row_ranges_stack_to_the_whole_operator(
        protein in 0..2usize,
        n in 1..9usize,
        seed in 0u64..500,
        lambda in 0.5..6.0f64,
        cuts in prop::collection::vec(0..=1000usize, 0..=6),
        lost in 0u64..4,
    ) {
        let (sys, d) = decomposed(protein == 1, n, seed, lambda);
        let (n_atoms, masses) = (sys.n_atoms(), sys.masses());
        let responses = noisy_responses(&d.jobs, seed);
        // lost == 0 keeps every job, otherwise about a quarter are dropped.
        let kept = |k: usize| lost == 0 || mix(lost, k) % 4 != 0;

        let survivors: Vec<usize> = (0..d.jobs.len()).filter(|&k| kept(k)).collect();
        let kept_jobs: Vec<FragmentJob> = survivors.iter().map(|&k| d.jobs[k].clone()).collect();
        let kept_responses: Vec<FragmentResponse> =
            survivors.iter().map(|&k| responses[k].clone()).collect();
        let whole = [assemble::assemble(&kept_jobs, &kept_responses, n_atoms)];
        prop_assert_eq!(whole[0].atoms.clone(), 0..n_atoms);

        let ranges = partition(n_atoms, &cuts);
        let parts = fold_ranges(&ranges, n_atoms, &d.jobs, &responses, kept);
        for (part, range) in parts.iter().zip(&ranges) {
            prop_assert_eq!(part.hessian.rows(), 3 * range.len());
            prop_assert_eq!(part.hessian.cols(), 3 * n_atoms);
        }
        prop_assert!(raw_bits(&parts) == raw_bits(&whole), "raw rows differ for {ranges:?}");
        prop_assert!(
            weighted_bits(&parts, &masses) == weighted_bits(&whole, &masses),
            "mass-weighted rows differ for {ranges:?}"
        );
    }

    /// Mass weighting is exactly the per-entry product `v * w_i * w_j` on an
    /// unchanged pattern, and `v * w_i` on the derivative vectors.
    #[test]
    fn mass_weighting_is_the_per_entry_product(
        protein in 0..2usize,
        n in 1..9usize,
        seed in 0u64..500,
    ) {
        let (sys, d) = decomposed(protein == 1, n, seed, 4.0);
        let raw = assemble::assemble(&d.jobs, &noisy_responses(&d.jobs, seed), sys.n_atoms());
        let mw = MassWeighted::new(&raw, &sys.masses());
        let w: Vec<f64> = sys.masses().iter().map(|m| 1.0 / m.sqrt()).collect();
        prop_assert_eq!(mw.hessian.raw_parts().0, raw.hessian.raw_parts().0);
        prop_assert_eq!(mw.hessian.raw_parts().1, raw.hessian.raw_parts().1);
        for i in 0..mw.dim() {
            for (j, v) in mw.hessian.row_entries(i) {
                let want = raw.hessian.get(i, j) * w[i / 3] * w[j / 3];
                prop_assert_eq!(v.to_bits(), want.to_bits(), "H[{}, {}]", i, j);
            }
            let vectors = mw.dalpha.iter().chain(&mw.dmu).zip(raw.dalpha.iter().chain(&raw.dmu));
            for (weighted, unweighted) in vectors {
                prop_assert_eq!(weighted[i].to_bits(), (unweighted[i] * w[i / 3]).to_bits());
            }
        }
    }

    /// Fragment structures always carry their bonds and valid global maps.
    #[test]
    fn structures_well_formed(n in 1..15usize, seed in 0u64..300) {
        let sys = WaterBoxBuilder::new(n).seed(seed).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        for job in &d.jobs {
            let frag = job.structure(&sys);
            prop_assert_eq!(frag.n_atoms(), job.size());
            for b in &frag.bonds {
                prop_assert!(b.i < frag.n_atoms() && b.j < frag.n_atoms());
            }
            // Water jobs: 2 bonds per molecule, no crossings.
            match job.kind {
                JobKind::WaterMonomer { .. } => prop_assert_eq!(frag.bonds.len(), 2),
                JobKind::WaterWaterDimer { .. } => prop_assert_eq!(frag.bonds.len(), 4),
                _ => {}
            }
            // Global map: real atoms map, link H do not.
            for (local, g) in frag.global_map.iter().enumerate() {
                if local < job.atoms.len() {
                    prop_assert_eq!(*g, Some(job.atoms[local]));
                } else {
                    prop_assert!(g.is_none());
                }
            }
        }
    }
}

/// Non-proptest regression: dimers appear symmetrically (i<j once).
#[test]
fn dimers_unique_and_ordered() {
    let sys = WaterBoxBuilder::new(27).seed(5).build();
    let d = Decomposition::new(&sys, DecompositionParams::default());
    let mut seen = std::collections::HashSet::new();
    for job in &d.jobs {
        if let JobKind::WaterWaterDimer { a, b } = job.kind {
            assert!(a < b, "dimer order violated");
            assert!(seen.insert((a, b)), "duplicate dimer {a},{b}");
        }
    }
    assert_eq!(seen.len(), d.stats.n_water_water_pairs);
}

/// Non-proptest regression: capped fragments contain their own residue's
/// atoms plus both neighbors.
#[test]
fn capped_fragment_atom_spans() {
    let sys = ProteinBuilder::new(6).seed(6).build();
    let d = Decomposition::new(&sys, DecompositionParams::default());
    for job in &d.jobs {
        if let JobKind::CappedFragment { k } = job.kind {
            let lo = sys.residues[k - 1].start;
            let hi = sys.residues[k + 1].start + sys.residues[k + 1].len;
            let expect: Vec<usize> = (lo..hi).collect();
            assert_eq!(job.atoms, expect, "fragment {k} span");
        }
    }
}

/// The FragmentJob size matches the structure it materializes, including
/// caps.
#[test]
fn job_size_includes_link_hydrogens() {
    let sys = ProteinBuilder::new(5).seed(7).build();
    let d = Decomposition::new(&sys, DecompositionParams::default());
    for job in &d.jobs {
        let frag = job.structure(&sys);
        assert_eq!(job.size(), frag.n_atoms());
        assert_eq!(frag.n_atoms(), job.atoms.len() + job.link_hydrogens.len());
    }
}
