//! Property tests for the QF decomposition and assembly.

use proptest::prelude::*;
use qfr_fragment::fragment::LinkHydrogen;
use qfr_fragment::{
    assemble, AssembledSystem, Decomposition, DecompositionParams, FragmentJob, FragmentResponse,
    FragmentStructure, JobKind, MassWeighted, RowRangeAccumulator,
};
use qfr_geom::system::{Bond, BondClass};
use qfr_geom::{
    build_scenario, BondAdjacency, Element, MolecularSystem, ProteinBuilder, SolvatedSystem, Vec3,
    WaterBoxBuilder, SCENARIO_NAMES,
};
use qfr_linalg::{DMatrix, TripletBuilder};
use std::collections::HashMap;
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

/// Folds the `kept` jobs into one accumulator per range, each built from
/// every job and fed only the kept jobs that touch it, in job order: slots
/// of pairs only left-out jobs couple stay zero and must not be stored.
fn fold_ranges(
    ranges: &[Range<usize>],
    n_atoms: usize,
    jobs: &[FragmentJob],
    responses: &[FragmentResponse],
    kept: impl Fn(usize) -> bool,
) -> Vec<AssembledSystem> {
    (ranges.iter())
        .map(|range| {
            let mut acc = RowRangeAccumulator::new(jobs, range.clone(), n_atoms, None);
            for (k, (job, resp)) in jobs.iter().zip(responses).enumerate() {
                if kept(k) && acc.touches(job) {
                    acc.add(job, resp);
                }
            }
            acc.finish()
        })
        .collect()
}

/// Reference extraction: the global scan `FragmentJob::structure_with`
/// replaced — hash every job atom, pass over the whole bond list.
fn scanned_structure(job: &FragmentJob, sys: &MolecularSystem) -> FragmentStructure {
    let (mut elements, mut positions, mut global_map) = (Vec::new(), Vec::new(), Vec::new());
    let mut local_of = HashMap::new();
    for (local, &g) in job.atoms.iter().enumerate() {
        elements.push(sys.atoms[g].element);
        positions.push(sys.atoms[g].position);
        global_map.push(Some(g));
        local_of.insert(g, local);
    }
    let mut bonds = Vec::new();
    for b in &sys.bonds {
        if let (Some(&i), Some(&j)) = (local_of.get(&b.i), local_of.get(&b.j)) {
            bonds.push(Bond { i, j, order: b.order, class: b.class });
        }
    }
    for lh in &job.link_hydrogens {
        let (i, j) = (local_of[&lh.anchor], elements.len());
        elements.push(Element::H);
        positions.push(lh.position);
        global_map.push(None);
        let class = BondClass::classify(sys.atoms[lh.anchor].element, Element::H, 1);
        bonds.push(Bond { i, j, order: 1, class });
    }
    FragmentStructure { elements, positions, bonds, global_map }
}

/// The indexed extraction of every job equals the scan field for field
/// (positions by bits, bonds in order with order and class), and the index
/// lists every bond once per endpoint, ascending.
fn assert_extraction_matches_scan(sys: &MolecularSystem, jobs: &[FragmentJob], what: &str) {
    let adjacency = BondAdjacency::new(sys);
    assert_eq!(adjacency.n_atoms(), sys.n_atoms());
    let mut listed = vec![0usize; sys.bonds.len()];
    for atom in 0..sys.n_atoms() {
        let ids = adjacency.incident(atom);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: atom {atom} ids not ascending");
        for &k in ids {
            let b = &sys.bonds[k as usize];
            assert!(b.i == atom || b.j == atom, "{what}: bond {k} does not touch atom {atom}");
            listed[k as usize] += 1;
        }
    }
    assert!(listed.iter().all(|&n| n == 2), "{what}: a bond not listed once per endpoint");

    let bits = |p: &Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
    for (k, job) in jobs.iter().enumerate() {
        let (got, want) = (job.structure_with(sys, &adjacency), scanned_structure(job, sys));
        assert_eq!(got.elements, want.elements, "{what}: job {k} elements");
        assert!(
            got.positions.iter().map(bits).eq(want.positions.iter().map(bits)),
            "{what}: job {k} positions"
        );
        assert_eq!(got.bonds, want.bonds, "{what}: job {k} bonds");
        assert_eq!(got.global_map, want.global_map, "{what}: job {k} global map");
    }
}

/// Reference fold: the loop `RowRangeAccumulator` replaced — every scalar
/// pushed as a triplet, stable-sorted and summed at the end.
fn triplet_fold(
    range: &Range<usize>,
    n_atoms: usize,
    jobs: &[FragmentJob],
    responses: &[FragmentResponse],
    kept: impl Fn(usize) -> bool,
) -> AssembledSystem {
    let span = 3 * range.len();
    let mut builder = TripletBuilder::new(span, 3 * n_atoms);
    let mut dalpha: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; span]);
    let mut dmu: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; span]);
    for (k, (job, resp)) in jobs.iter().zip(responses).enumerate() {
        if !kept(k) {
            continue;
        }
        let coeff = job.coefficient;
        for (la, &ga) in job.atoms.iter().enumerate() {
            if !range.contains(&ga) {
                continue;
            }
            let row = 3 * (ga - range.start);
            for (lb, &gb) in job.atoms.iter().enumerate() {
                for da in 0..3 {
                    for db in 0..3 {
                        let v = resp.hessian[(3 * la + da, 3 * lb + db)];
                        if v != 0.0 {
                            builder.push(row + da, 3 * gb + db, coeff * v);
                        }
                    }
                }
            }
            for da in 0..3 {
                for (comp, dvec) in dalpha.iter_mut().enumerate() {
                    dvec[row + da] += coeff * resp.dalpha[(comp, 3 * la + da)];
                }
                for (comp, dvec) in dmu.iter_mut().enumerate() {
                    dvec[row + da] += coeff * resp.dmu[(comp, 3 * la + da)];
                }
            }
        }
    }
    AssembledSystem { hessian: builder.build(), dalpha, dmu, n_atoms, atoms: range.clone() }
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

    /// The indexed extraction is the global scan, for every job of solvated
    /// proteins and water boxes at any λ.
    #[test]
    fn indexed_extraction_matches_the_global_scan(
        residues in 0..7usize,
        waters in 1..20usize,
        seed in 0u64..500,
        lambda in 0.5..6.0f64,
        padding in 2.0..5.0f64,
    ) {
        let sys = if residues == 0 {
            WaterBoxBuilder::new(waters).seed(seed).build()
        } else {
            let protein = ProteinBuilder::new(residues).seed(seed).build();
            SolvatedSystem::build(&protein, padding, 3.1, 2.4, seed + 1)
        };
        let d = Decomposition::new(&sys, DecompositionParams { lambda, ..Default::default() });
        assert_extraction_matches_scan(&sys, &d.jobs, "random system");
    }

    /// The pattern accumulator is the triplet fold: same `row_ptr`, `col_idx`
    /// and value bits, raw and mass-weighted, over any row partition and job
    /// subset — with zeros of both signs among the addends, the negative
    /// merged-monomer coefficients of a real decomposition, and one job
    /// repeated with the opposite coefficient so its slots cancel exactly.
    #[test]
    fn block_fold_matches_the_triplet_fold(
        protein in 0..2usize,
        n in 1..9usize,
        seed in 0u64..500,
        lambda in 0.5..6.0f64,
        cuts in prop::collection::vec(0..=1000usize, 0..=6),
        lost in 0u64..4,
    ) {
        let (sys, d) = decomposed(protein == 1, n, seed, lambda);
        let (n_atoms, masses) = (sys.n_atoms(), sys.masses());
        let mut jobs = d.jobs.clone();
        let mut responses = noisy_responses(&jobs, seed);
        for (k, resp) in responses.iter_mut().enumerate() {
            let m3 = resp.hessian.rows();
            for at in (0..m3 * m3).filter(|&at| mix(seed ^ 0x5eed, k * 4096 + at) % 16 == 0) {
                resp.hessian[(at / m3, at % m3)] = -0.0;
            }
        }
        let twin = mix(seed, 77) as usize % jobs.len();
        let cancelling = FragmentJob { coefficient: -jobs[twin].coefficient, ..jobs[twin].clone() };
        jobs.insert(twin + 1, cancelling);
        responses.insert(twin + 1, responses[twin].clone());
        // The twins are kept or lost together.
        let kept = |k: usize| lost == 0 || mix(lost, k - usize::from(k > twin)) % 4 != 0;

        let ranges = partition(n_atoms, &cuts);
        let got = fold_ranges(&ranges, n_atoms, &jobs, &responses, kept);
        let want: Vec<AssembledSystem> = (ranges.iter())
            .map(|range| triplet_fold(range, n_atoms, &jobs, &responses, kept))
            .collect();
        prop_assert!(raw_bits(&got) == raw_bits(&want), "raw rows differ for {ranges:?}");
        prop_assert!(
            weighted_bits(&got, &masses) == weighted_bits(&want, &masses),
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

/// The graph path — cut bonds, link hydrogens, ligands, a second chain —
/// extracts through the index exactly as through the scan.
#[test]
fn indexed_extraction_matches_the_scan_on_every_scenario() {
    for &name in SCENARIO_NAMES {
        for (seed, max_fragment_atoms) in [(3, 12), (11, 40)] {
            let sys = build_scenario(name, seed).expect("known scenario");
            let params = DecompositionParams { max_fragment_atoms, ..Default::default() };
            let d = Decomposition::new(&sys, params);
            let cut = d.jobs.iter().any(|j| !j.link_hydrogens.is_empty());
            assert!(cut || max_fragment_atoms == 40, "{name}: a 12-atom budget forces cuts");
            assert_extraction_matches_scan(&sys, &d.jobs, name);
        }
    }
}

/// Nothing enforces the ascending order of `FragmentJob::atoms`: unsorted
/// lists, and a link hydrogen anchored on the last atom, extract alike.
#[test]
fn indexed_extraction_takes_unsorted_atom_lists() {
    let sys = ProteinBuilder::new(4).seed(9).build();
    let span = sys.residues[1].atom_range();
    let hydrogen = |anchor: usize| LinkHydrogen {
        anchor,
        position: sys.atoms[anchor].position + Vec3::new(1.0, 0.0, 0.0),
    };
    let job = |atoms: Vec<usize>| {
        let link_hydrogens = vec![hydrogen(atoms[atoms.len() - 1]), hydrogen(atoms[0])];
        FragmentJob {
            kind: JobKind::ResidueMonomer { r: 1 },
            coefficient: 1.0,
            atoms,
            link_hydrogens,
        }
    };
    let reversed: Vec<usize> = span.clone().rev().collect();
    let mut shuffled: Vec<usize> = span.collect();
    shuffled.sort_by_key(|&a| mix(9, a));
    let sparse: Vec<usize> = shuffled.iter().copied().step_by(2).collect();
    let jobs = [job(reversed), job(shuffled), job(sparse)];
    assert!(jobs.iter().all(|j| !j.structure(&sys).bonds.is_empty()));
    assert_extraction_matches_scan(&sys, &jobs, "hand-built jobs");
}
