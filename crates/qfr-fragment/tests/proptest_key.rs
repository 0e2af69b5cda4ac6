//! Property tests for the exact fragment geometry key: any rigid motion or
//! atom relabeling changes it.

use proptest::prelude::*;
use qfr_fragment::{exact_key, FragmentJob, FragmentStructure, JobKind};
use qfr_geom::{Vec3, WaterBoxBuilder};

/// A water monomer or dimer fragment out of a seeded box.
fn fragment(n_waters: usize, seed: u64, w: usize, dimer: bool) -> FragmentStructure {
    let sys = WaterBoxBuilder::new(n_waters).seed(seed).build();
    let w = w % n_waters;
    let mut atoms = sys.water_atoms(w).to_vec();
    let kind = if dimer {
        let w2 = (w + 1) % n_waters;
        if w2 != w {
            atoms.extend(sys.water_atoms(w2));
        }
        JobKind::WaterWaterDimer { a: w.min((w + 1) % n_waters), b: w.max((w + 1) % n_waters) }
    } else {
        JobKind::WaterMonomer { w }
    };
    FragmentJob { kind, coefficient: 1.0, atoms, link_hydrogens: vec![] }.structure(&sys)
}

/// Rodrigues rotation of every position, then a translation.
fn rigid_motion(
    frag: &FragmentStructure,
    axis: Vec3,
    angle: f64,
    shift: Vec3,
) -> FragmentStructure {
    let k = axis.normalized();
    let (s, c) = angle.sin_cos();
    let mut out = frag.clone();
    for p in &mut out.positions {
        let r = *p;
        *p = r * c + k.cross(r) * s + k * (k.dot(r) * (1.0 - c)) + shift;
    }
    out
}

/// Cyclic relabeling of the fragment's atoms by `offset`, bonds remapped.
fn relabel(frag: &FragmentStructure, offset: usize) -> FragmentStructure {
    let n = frag.n_atoms();
    let perm: Vec<usize> = (0..n).map(|i| (i + offset) % n).collect(); // new -> old
    let mut inv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let mut out = frag.clone();
    for (new, &old) in perm.iter().enumerate() {
        out.elements[new] = frag.elements[old];
        out.positions[new] = frag.positions[old];
        out.global_map[new] = frag.global_map[old];
    }
    for b in &mut out.bonds {
        b.i = inv[b.i];
        b.j = inv[b.j];
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact key is keyed on absolute positions in local atom order:
    /// a rigid motion (any rotation + translation) changes it, and so does
    /// a relabeling of the atoms.
    #[test]
    fn exact_key_changes_under_rigid_motion_and_relabeling(
        n in 2..8usize, seed in 0u64..500, w in 0usize..8, dimer in 0usize..2,
        ax in -1.0..1.0f64, ay in -1.0..1.0f64, az in -1.0..1.0f64,
        angle in 0.01..6.2f64, tx in -50.0..50.0f64, ty in -50.0..50.0f64, tz in -50.0..50.0f64,
        offset in 0usize..5,
    ) {
        prop_assume!(ax.abs() + ay.abs() + az.abs() > 0.1);
        let frag = fragment(n, seed, w, dimer == 1);
        let moved = rigid_motion(&frag, Vec3::new(ax, ay, az), angle, Vec3::new(tx, ty, tz));
        prop_assert!(exact_key(&frag) != exact_key(&moved));
        let shuffled = relabel(&frag, 1 + offset % (frag.n_atoms() - 1));
        prop_assert!(exact_key(&frag) != exact_key(&shuffled));
    }
}
