//! Content-addressed fragment geometry key.
//!
//! The **exact key** hashes the engine's literal input over a materialized
//! [`FragmentStructure`] — element kinds, link-hydrogen flags, bonds, and
//! the raw `f64` bit patterns of every position, in local atom order. Two
//! fragments share an exact key iff a deterministic engine is guaranteed to
//! produce bit-identical responses for both, which is what makes cache hits
//! safe to substitute without any tolerance argument. Any rigid motion or
//! atom relabeling changes the key.
//!
//! The key is a 128-bit FNV-1a digest of an explicit byte stream (the
//! checkpoint layer's 64-bit file fingerprint folds per-fragment exact keys
//! into its digest). 128 bits keep silent collisions negligible at the
//! paper's 10⁷–10⁸ fragment scale, where a 64-bit birthday bound would not.

use crate::fragment::FragmentStructure;
use qfr_geom::Element;

/// A 128-bit content key over fragment geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GeomKey(pub u128);

impl std::fmt::Display for GeomKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv128(u128);

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128 {
    /// FNV-1a 128-bit offset basis.
    pub fn new() -> Self {
        Fnv128(0x6c62272e07bb014262b821756295c58d)
    }

    /// Absorbs a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(0x0000000001000000000000000000013b);
        }
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Finishes the digest.
    pub fn finish(&self) -> GeomKey {
        GeomKey(self.0)
    }
}

/// Stable per-element code for hashing (atomic number).
fn z(e: Element) -> u8 {
    match e {
        Element::H => 1,
        Element::C => 6,
        Element::N => 7,
        Element::O => 8,
        Element::S => 16,
    }
}

/// True for atoms that are link hydrogens (no global index).
fn is_link(frag: &FragmentStructure, i: usize) -> bool {
    frag.global_map[i].is_none()
}

/// Exact key: elements, link flags, bonds, and raw position bits in local
/// atom order. See the module docs for the substitution guarantee.
pub fn exact_key(frag: &FragmentStructure) -> GeomKey {
    let mut h = Fnv128::new();
    h.write(b"qfr-exact-v1");
    h.write_u64(frag.n_atoms() as u64);
    for i in 0..frag.n_atoms() {
        h.write(&[is_link(frag, i) as u8, z(frag.elements[i])]);
        let p = frag.positions[i];
        h.write_u64(p.x.to_bits());
        h.write_u64(p.y.to_bits());
        h.write_u64(p.z.to_bits());
    }
    hash_bonds(&mut h, frag);
    h.finish()
}

/// Bond list digest over local atom indices.
fn hash_bonds(h: &mut Fnv128, frag: &FragmentStructure) {
    let mut bonds: Vec<(usize, usize, u8, u8)> =
        frag.bonds.iter().map(|b| (b.i.min(b.j), b.i.max(b.j), b.order, b.class as u8)).collect();
    bonds.sort_unstable();
    h.write_u64(bonds.len() as u64);
    for (i, j, order, class) in bonds {
        h.write_u64(i as u64);
        h.write_u64(j as u64);
        h.write(&[order, class]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{FragmentJob, JobKind, LinkHydrogen};
    use qfr_geom::WaterBoxBuilder;

    fn water_frag(n: usize, seed: u64, w: usize) -> FragmentStructure {
        let sys = WaterBoxBuilder::new(n).seed(seed).build();
        FragmentJob {
            kind: JobKind::WaterMonomer { w },
            coefficient: 1.0,
            atoms: sys.water_atoms(w).to_vec(),
            link_hydrogens: vec![],
        }
        .structure(&sys)
    }

    #[test]
    fn exact_key_sensitive_to_everything() {
        let frag = water_frag(4, 1, 2);
        let base = exact_key(&frag);
        assert_eq!(base, exact_key(&frag), "deterministic");
        let mut moved = frag.clone();
        moved.positions[0].x += 1e-9;
        assert_ne!(base, exact_key(&moved), "position bits matter");
        let mut relabeled = frag.clone();
        relabeled.elements[1] = Element::O;
        assert_ne!(base, exact_key(&relabeled), "elements matter");
        let mut translated = frag.clone();
        for p in &mut translated.positions {
            p.z += 3.0;
        }
        assert_ne!(base, exact_key(&translated), "exact key is absolute-position keyed");
    }

    #[test]
    fn exact_key_sensitive_to_atom_order() {
        let frag = water_frag(5, 4, 0);
        // Relabel the two hydrogens: elements and the O–H bond set are
        // unchanged, so only the position order differs.
        let mut swapped = frag.clone();
        swapped.positions.swap(1, 2);
        swapped.global_map.swap(1, 2);
        assert_ne!(exact_key(&frag), exact_key(&swapped), "exact key is order-sensitive");
    }

    #[test]
    fn link_hydrogen_distinguished_from_real_hydrogen() {
        let sys = WaterBoxBuilder::new(1).seed(7).build();
        let o = sys.water_atoms(0)[0];
        let h1 = sys.water_atoms(0)[1];
        let real = FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: vec![o, h1],
            link_hydrogens: vec![],
        }
        .structure(&sys);
        let link = FragmentJob {
            kind: JobKind::WaterMonomer { w: 0 },
            coefficient: 1.0,
            atoms: vec![o],
            link_hydrogens: vec![LinkHydrogen { anchor: o, position: sys.atoms[h1].position }],
        }
        .structure(&sys);
        assert_eq!(real.n_atoms(), link.n_atoms());
        assert_ne!(exact_key(&real), exact_key(&link));
    }
}
