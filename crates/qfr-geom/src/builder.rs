//! Synthetic system builders: proteins, water boxes, solvated proteins.
//!
//! The paper's test systems are (i) a water-dimer benchmark (uniform 6-atom
//! fragments), (ii) the SARS-CoV-2 spike protein with 3,180 residues, and
//! (iii) the spike protein in an explicit water box (101,299,008 atoms).
//! These builders generate deterministic synthetic stand-ins with matching
//! workload statistics: residue sizes spanning GLY(7)–TRP(24) naked atoms
//! (9–68 after conjugate capping), water at liquid density, and a λ-scale
//! contact structure produced by a compact serpentine fold.

use crate::element::Element;
use crate::embed::plan_hydrogens;
use crate::residue::ResidueKind;
use crate::system::{Atom, Bond, BondClass, MolecularSystem, ResidueSpan};
use crate::vec3::Vec3;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Spacing between consecutive residue origins along a row (Å).
const RESIDUE_PITCH: f64 = 3.5;

/// Chain fold geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FoldStyle {
    /// Boustrophedon rows folded into layers (compact globule; the
    /// default).
    Serpentine,
    /// An α-helix-like coil: residues on a helical curve. Produces the
    /// physical i→i+3 / i→i+4 backbone contacts, i.e. generalized concaps
    /// at small sequence separations.
    Helix {
        /// Helix radius (Å); ~2.1 reproduces a ~3.5 Å Cα pitch.
        radius: f64,
        /// Twist per residue (degrees); ~100° for an α-helix.
        twist_deg: f64,
        /// Rise per residue (Å); ~1.5 for an α-helix.
        rise: f64,
    },
}

impl FoldStyle {
    /// The α-helix parameterization.
    pub fn alpha_helix() -> Self {
        FoldStyle::Helix { radius: 2.1, twist_deg: 100.0, rise: 1.5 }
    }
}

/// Builder for synthetic protein chains laid out as a compact serpentine
/// (rows of residues folded into layers), giving a globular contact
/// structure for the generalized-concap enumeration.
#[derive(Debug, Clone)]
pub struct ProteinBuilder {
    n_residues: usize,
    seed: u64,
    sequence: Option<Vec<ResidueKind>>,
    residues_per_row: usize,
    rows_per_layer: usize,
    row_spacing: f64,
    layer_spacing: f64,
    jitter: f64,
    fold_style: FoldStyle,
}

impl ProteinBuilder {
    /// New builder for a chain of `n_residues` (must be ≥ 1).
    pub fn new(n_residues: usize) -> Self {
        assert!(n_residues >= 1, "a protein needs at least one residue");
        Self {
            n_residues,
            seed: 42,
            sequence: None,
            residues_per_row: 32,
            rows_per_layer: 16,
            row_spacing: 7.0,
            layer_spacing: 10.0,
            jitter: 0.05,
            fold_style: FoldStyle::Serpentine,
        }
    }

    /// Sets the RNG seed (sequence sampling + geometric jitter).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an explicit residue sequence instead of sampling one.
    ///
    /// # Panics
    /// Panics if the length differs from `n_residues`.
    pub fn sequence(mut self, seq: Vec<ResidueKind>) -> Self {
        assert_eq!(seq.len(), self.n_residues, "sequence length mismatch");
        self.sequence = Some(seq);
        self
    }

    /// Overrides the serpentine fold shape (residues per row, rows per
    /// layer). Small values make denser globules with more λ contacts.
    pub fn fold(mut self, residues_per_row: usize, rows_per_layer: usize) -> Self {
        assert!(residues_per_row >= 1 && rows_per_layer >= 1);
        self.residues_per_row = residues_per_row;
        self.rows_per_layer = rows_per_layer;
        self
    }

    /// Sets the per-atom positional jitter amplitude (Å).
    pub fn jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Selects the chain fold geometry (default: serpentine globule).
    pub fn fold_style(mut self, style: FoldStyle) -> Self {
        self.fold_style = style;
        self
    }

    /// The atoms [`build`](Self::build) places, counted from the residue
    /// sequence alone: `None` once the count passes `limit`, so a chain too
    /// long for it costs at most `limit / 7` residue draws.
    pub fn atom_count(&self, limit: usize) -> Option<usize> {
        // Two terminal hydrogens beside each residue's in-chain atoms.
        let mut count = 2;
        for kind in self.residues(&mut StdRng::seed_from_u64(self.seed)) {
            count += kind.chain_atom_count();
            if count > limit {
                return None;
            }
        }
        Some(count)
    }

    /// The residue sequence, drawn from `rng` unless it was given.
    fn residues<'a>(&'a self, rng: &'a mut StdRng) -> impl Iterator<Item = ResidueKind> + 'a {
        let given = self.sequence.iter().flatten().copied();
        let n_drawn = if self.sequence.is_some() { 0 } else { self.n_residues };
        let drawn =
            (0..n_drawn).map(|_| ResidueKind::ALL[rng.random_range(0..ResidueKind::ALL.len())]);
        given.chain(drawn)
    }

    /// Builds the molecular system (protein only, no waters).
    pub fn build(&self) -> MolecularSystem {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let sequence: Vec<ResidueKind> = self.residues(&mut rng).collect();

        // ------------------------------------------------------------------
        // Pass 1: place all heavy atoms in global coordinates.
        // ------------------------------------------------------------------
        let mut heavy_el: Vec<Element> = Vec::new();
        let mut heavy_pos: Vec<Vec3> = Vec::new();
        // (i, j, order, class override) with *temporary* heavy indices.
        let mut heavy_bonds: Vec<(usize, usize, u8, Option<BondClass>)> = Vec::new();
        // Per residue: (temp heavy index base, template).
        let mut residue_info = Vec::with_capacity(sequence.len());

        let mut prev_c_temp: Option<usize> = None;
        for (r, &kind) in sequence.iter().enumerate() {
            let tpl = kind.template();
            // Per-residue placement: (origin, template transform).
            let (origin, reversed, helix_angle) = match self.fold_style {
                FoldStyle::Serpentine => {
                    let row = r / self.residues_per_row;
                    let col = r % self.residues_per_row;
                    let layer = row / self.rows_per_layer;
                    let row_in_layer = row % self.rows_per_layer;
                    let reversed = row % 2 == 1;
                    let base_x = if reversed {
                        (self.residues_per_row - 1 - col) as f64 * RESIDUE_PITCH
                    } else {
                        col as f64 * RESIDUE_PITCH
                    };
                    (
                        Vec3::new(
                            base_x,
                            row_in_layer as f64 * self.row_spacing,
                            layer as f64 * self.layer_spacing,
                        ),
                        reversed,
                        None,
                    )
                }
                FoldStyle::Helix { radius, twist_deg, rise } => {
                    let theta = twist_deg.to_radians() * r as f64;
                    (
                        Vec3::new(radius * theta.cos(), radius * theta.sin(), rise * r as f64),
                        false,
                        Some(theta),
                    )
                }
            };
            let temp_base = heavy_el.len();
            for (&el, &p) in tpl.elements.iter().zip(&tpl.positions) {
                // Odd serpentine rows run in -x (180° about y); helix
                // residues co-rotate with the helical frame about z so side
                // chains point outward.
                let local = match helix_angle {
                    Some(theta) => p.rotated_about(Vec3::new(0.0, 0.0, 1.0), theta),
                    None if reversed => Vec3::new(-p.x, p.y, -p.z),
                    None => p,
                };
                let jit = Vec3::new(
                    rng.random_range(-self.jitter..=self.jitter),
                    rng.random_range(-self.jitter..=self.jitter),
                    rng.random_range(-self.jitter..=self.jitter),
                );
                heavy_el.push(el);
                heavy_pos.push(origin + local + jit);
            }
            for &(i, j, order) in &tpl.bonds {
                heavy_bonds.push((temp_base + i, temp_base + j, order, None));
            }
            // Peptide bond to the previous residue.
            if let Some(pc) = prev_c_temp {
                heavy_bonds.push((pc, temp_base + tpl.n, 1, Some(BondClass::CNAmide)));
            }
            prev_c_temp = Some(temp_base + tpl.c);
            residue_info.push((temp_base, tpl));
        }

        // ------------------------------------------------------------------
        // Pass 2: hydrogenate (valences depend on the peptide bonds).
        // ------------------------------------------------------------------
        let mut adjacency: Vec<Vec<(usize, u8)>> = vec![Vec::new(); heavy_el.len()];
        for &(i, j, order, _) in &heavy_bonds {
            adjacency[i].push((j, order));
            adjacency[j].push((i, order));
        }
        let h_plan = plan_hydrogens(&heavy_el, &heavy_pos, &adjacency);

        // ------------------------------------------------------------------
        // Pass 3: assemble final atom order (per residue: heavy then H).
        // ------------------------------------------------------------------
        let mut atoms: Vec<Atom> = Vec::new();
        let mut bonds: Vec<Bond> = Vec::new();
        let mut residues: Vec<ResidueSpan> = Vec::new();
        let mut temp_to_final = vec![usize::MAX; heavy_el.len()];

        for (temp_base, tpl) in &residue_info {
            let start = atoms.len();
            let heavy_n = tpl.heavy_count();
            for local in 0..heavy_n {
                let t = temp_base + local;
                temp_to_final[t] = atoms.len();
                atoms.push(Atom { element: heavy_el[t], position: heavy_pos[t] });
            }
            // Hydrogens, right after their residue's heavy atoms.
            for local in 0..heavy_n {
                let t = temp_base + local;
                for &hpos in &h_plan[t] {
                    let h_idx = atoms.len();
                    atoms.push(Atom { element: Element::H, position: hpos });
                    bonds.push(Bond::new(temp_to_final[t], h_idx, 1, heavy_el[t], Element::H));
                }
            }
            residues.push(ResidueSpan {
                kind: tpl.kind,
                start,
                len: atoms.len() - start,
                n_idx: temp_to_final[temp_base + tpl.n],
                ca_idx: temp_to_final[temp_base + tpl.ca],
                c_idx: temp_to_final[temp_base + tpl.c],
                o_idx: temp_to_final[temp_base + tpl.o],
            });
        }
        for &(i, j, order, class) in &heavy_bonds {
            let (fi, fj) = (temp_to_final[i], temp_to_final[j]);
            let mut b = Bond::new(fi, fj, order, heavy_el[i], heavy_el[j]);
            if let Some(c) = class {
                b.class = c;
            }
            bonds.push(b);
        }

        MolecularSystem { atoms, bonds, residues, n_waters: 0 }
    }
}

/// Builder for water boxes at liquid density (one molecule per ~3.1 Å grid
/// cell ≈ 0.033 molecules/Å³), with randomized orientations.
#[derive(Debug, Clone)]
pub struct WaterBoxBuilder {
    n_molecules: usize,
    seed: u64,
    spacing: f64,
    jitter: f64,
}

/// Water geometry constants (Å / degrees).
const OH_LEN: f64 = 0.9572;
const HOH_ANGLE: f64 = 104.52_f64;

impl WaterBoxBuilder {
    /// New builder for `n_molecules` water molecules.
    pub fn new(n_molecules: usize) -> Self {
        Self { n_molecules, seed: 7, spacing: 3.1, jitter: 0.25 }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the grid spacing (Å); 3.1 gives liquid density.
    pub fn spacing(mut self, spacing: f64) -> Self {
        assert!(spacing > 1.5, "waters would overlap");
        self.spacing = spacing;
        self
    }

    /// Builds the water box.
    pub fn build(&self) -> MolecularSystem {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let side = (self.n_molecules as f64).cbrt().ceil() as usize;
        let mut sys = MolecularSystem::default();
        let mut placed = 0;
        'outer: for i in 0..side {
            for j in 0..side {
                for k in 0..side {
                    if placed == self.n_molecules {
                        break 'outer;
                    }
                    let o = Vec3::new(i as f64, j as f64, k as f64) * self.spacing
                        + Vec3::new(
                            rng.random_range(-self.jitter..=self.jitter),
                            rng.random_range(-self.jitter..=self.jitter),
                            rng.random_range(-self.jitter..=self.jitter),
                        );
                    push_water(&mut sys, o, &mut rng);
                    placed += 1;
                }
            }
        }
        sys.n_waters = placed;
        sys
    }
}

/// Appends one water molecule (O, H, H + two O–H bonds) with a random
/// orientation at oxygen position `o`.
fn push_water(sys: &mut MolecularSystem, o: Vec3, rng: &mut StdRng) {
    let dir1 = random_unit(rng);
    let axis = dir1.any_perpendicular();
    // Random roll around dir1 so molecules are not co-planar.
    let axis = axis.rotated_about(dir1, rng.random_range(0.0..std::f64::consts::TAU));
    let dir2 = dir1.rotated_about(axis, HOH_ANGLE.to_radians());
    let base = sys.atoms.len();
    sys.atoms.push(Atom { element: Element::O, position: o });
    sys.atoms.push(Atom { element: Element::H, position: o + dir1 * OH_LEN });
    sys.atoms.push(Atom { element: Element::H, position: o + dir2 * OH_LEN });
    sys.bonds.push(Bond::new(base, base + 1, 1, Element::O, Element::H));
    sys.bonds.push(Bond::new(base, base + 2, 1, Element::O, Element::H));
}

fn random_unit(rng: &mut StdRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.random_range(-1.0..=1.0),
            rng.random_range(-1.0..=1.0),
            rng.random_range(-1.0..=1.0),
        );
        let n = v.norm_sqr();
        if n > 1e-4 && n <= 1.0 {
            return v * (1.0 / n.sqrt());
        }
    }
}

/// Combines a protein with a surrounding water box (the paper's
/// "protein with explicit water" system).
#[derive(Debug, Clone, Copy)]
pub struct SolvatedSystem;

impl SolvatedSystem {
    /// Solvates `protein` in a box extending `padding` Å beyond its bounding
    /// box, on a `spacing` Å grid, skipping sites within `exclusion` Å of
    /// any protein atom.
    pub fn build(
        protein: &MolecularSystem,
        padding: f64,
        spacing: f64,
        exclusion: f64,
        seed: u64,
    ) -> MolecularSystem {
        assert!(protein.n_waters == 0, "protein input must not already contain waters");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = protein.clone();

        let positions: Vec<Vec3> = protein.atoms.iter().map(|a| a.position).collect();
        let cl = crate::neighbor::CellList::new(&positions, exclusion.max(1.0));
        let (start, sites) = grid(&positions, padding, spacing);
        let [nx, ny, nz] = sites.map(|n| n as usize);
        let mut n_waters = 0;
        for i in 0..nx {
            for j in 0..ny {
                for k in 0..nz {
                    let o = start + Vec3::new(i as f64, j as f64, k as f64) * spacing;
                    if cl.any_within(o, exclusion) {
                        continue;
                    }
                    push_water(&mut sys, o, &mut rng);
                    n_waters += 1;
                }
            }
        }
        sys.n_waters = n_waters;
        sys
    }

    /// The grid sites [`build`](Self::build) tries, each a water unless it
    /// is excluded, counted without placing any: an f64, which no padding
    /// overflows.
    pub fn sites(protein: &MolecularSystem, padding: f64, spacing: f64) -> f64 {
        let positions: Vec<Vec3> = protein.atoms.iter().map(|a| a.position).collect();
        grid(&positions, padding, spacing).1.iter().product()
    }
}

/// The solvation grid around `positions`: its first site and its site
/// count along x, y and z.
fn grid(positions: &[Vec3], padding: f64, spacing: f64) -> (Vec3, [f64; 3]) {
    let (lo, hi) = bounding_box(positions);
    let extent = (hi - lo).to_array();
    let start = lo - Vec3::new(padding, padding, padding);
    (start, extent.map(|e| ((e + 2.0 * padding) / spacing).floor() + 1.0))
}

fn bounding_box(positions: &[Vec3]) -> (Vec3, Vec3) {
    assert!(!positions.is_empty());
    let mut lo = positions[0];
    let mut hi = positions[0];
    for p in positions {
        lo.x = lo.x.min(p.x);
        lo.y = lo.y.min(p.y);
        lo.z = lo.z.min(p.z);
        hi.x = hi.x.max(p.x);
        hi.y = hi.y.max(p.y);
        hi.z = hi.z.max(p.z);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BondClass;

    #[test]
    fn single_residue_counts() {
        for kind in ResidueKind::ALL {
            let sys = ProteinBuilder::new(3)
                .sequence(vec![ResidueKind::Gly, kind, ResidueKind::Gly])
                .build();
            assert!(sys.validate().is_empty(), "{kind:?}: {:?}", sys.validate());
            // Middle residue has both peptide bonds -> standard atom count.
            let mid = sys.residues[1];
            assert_eq!(mid.len, kind.chain_atom_count(), "{kind:?} in-chain atom count");
        }
    }

    /// The counts that size a request before it is built agree with what
    /// the builders place: the exact protein atom count, stopped at its
    /// limit, and the solvation sites each water comes from.
    #[test]
    fn counts_ahead_of_the_build_match_it() {
        for (n, seed) in [(1, 1), (7, 2), (40, 42)] {
            let builder = ProteinBuilder::new(n).seed(seed);
            let protein = builder.build();
            let atoms = protein.n_atoms();
            assert_eq!(builder.atom_count(atoms), Some(atoms), "{n} residues, seed {seed}");
            assert_eq!(builder.atom_count(atoms - 1), None);
            let solvated = SolvatedSystem::build(&protein, 2.0, 3.1, 2.4, seed);
            let sites = SolvatedSystem::sites(&protein, 2.0, 3.1);
            assert!(solvated.n_waters > 0 && solvated.n_waters as f64 <= sites);
        }
        let given = ProteinBuilder::new(2).sequence(vec![ResidueKind::Gly, ResidueKind::Trp]);
        assert_eq!(given.atom_count(usize::MAX), Some(given.build().n_atoms()));
        assert!(SolvatedSystem::sites(&ProteinBuilder::new(2).build(), 1e300, 3.1).is_infinite());
    }

    #[test]
    fn terminal_residues_gain_hydrogens() {
        // First N misses its peptide bond -> one extra H; last C -> one
        // extra H.
        let sys = ProteinBuilder::new(2).sequence(vec![ResidueKind::Ala, ResidueKind::Ala]).build();
        assert_eq!(sys.residues[0].len, ResidueKind::Ala.chain_atom_count() + 1);
        assert_eq!(sys.residues[1].len, ResidueKind::Ala.chain_atom_count() + 1);
    }

    #[test]
    fn peptide_bonds_present_and_classified() {
        let sys = ProteinBuilder::new(5).seed(1).build();
        let amide: Vec<&Bond> =
            sys.bonds.iter().filter(|b| b.class == BondClass::CNAmide).collect();
        assert_eq!(amide.len(), 4, "N-1 peptide bonds");
        for b in amide {
            let d = sys.atoms[b.i].position.dist(sys.atoms[b.j].position);
            assert!(d < 2.5, "peptide bond stretched to {d:.2} A");
        }
    }

    #[test]
    fn serpentine_turns_have_long_bonds_only_at_turns() {
        let sys = ProteinBuilder::new(20).fold(8, 4).seed(2).build();
        let long: usize = sys
            .bonds
            .iter()
            .filter(|b| sys.atoms[b.i].position.dist(sys.atoms[b.j].position) > 3.0)
            .count();
        // 20 residues / 8 per row -> 2 turns.
        assert!(long <= 3, "unexpected long bonds: {long}");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let a = ProteinBuilder::new(10).seed(9).build();
        let b = ProteinBuilder::new(10).seed(9).build();
        assert_eq!(a.n_atoms(), b.n_atoms());
        for (x, y) in a.atoms.iter().zip(&b.atoms) {
            assert_eq!(x.position, y.position);
        }
        let c = ProteinBuilder::new(10).seed(10).build();
        let same = a.n_atoms() == c.n_atoms()
            && a.atoms.iter().zip(&c.atoms).all(|(x, y)| x.position == y.position);
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn water_box_geometry() {
        let sys = WaterBoxBuilder::new(27).seed(3).build();
        assert_eq!(sys.n_waters, 27);
        assert_eq!(sys.n_atoms(), 81);
        assert!(sys.validate().is_empty());
        for w in 0..27 {
            let [o, h1, h2] = sys.water_atoms(w);
            let d1 = sys.atoms[o].position.dist(sys.atoms[h1].position);
            let d2 = sys.atoms[o].position.dist(sys.atoms[h2].position);
            assert!((d1 - OH_LEN).abs() < 1e-9);
            assert!((d2 - OH_LEN).abs() < 1e-9);
            let v1 = sys.atoms[h1].position - sys.atoms[o].position;
            let v2 = sys.atoms[h2].position - sys.atoms[o].position;
            let ang = v1.angle_between(v2).to_degrees();
            assert!((ang - HOH_ANGLE).abs() < 1e-6, "HOH angle {ang}");
        }
    }

    #[test]
    fn water_density_close_to_liquid() {
        let n = 512;
        let sys = WaterBoxBuilder::new(n).seed(4).build();
        // 8^3 grid at 3.1 A -> 24.8 A box; 512/24.8^3 = 0.0336 /A^3.
        let side: f64 = 8.0 * 3.1;
        let density = n as f64 / side.powi(3);
        assert!((0.025..0.045).contains(&density), "density {density}");
        let _ = sys;
    }

    #[test]
    fn waters_do_not_overlap() {
        let sys = WaterBoxBuilder::new(64).seed(5).build();
        for a in 0..sys.n_waters {
            for b in (a + 1)..sys.n_waters {
                let d = sys.atoms[sys.water_atoms(a)[0]]
                    .position
                    .dist(sys.atoms[sys.water_atoms(b)[0]].position);
                assert!(d > 1.8, "waters {a},{b} overlap at {d:.2}");
            }
        }
    }

    #[test]
    fn solvation_respects_exclusion_zone() {
        let protein = ProteinBuilder::new(4).seed(6).build();
        let solvated = SolvatedSystem::build(&protein, 6.0, 3.1, 2.4, 11);
        assert!(solvated.n_waters > 0, "padding must admit waters");
        assert_eq!(solvated.protein_atom_count(), protein.n_atoms());
        assert!(solvated.validate().is_empty());
        for w in 0..solvated.n_waters {
            let o_pos = solvated.atoms[solvated.water_atoms(w)[0]].position;
            for pa in &protein.atoms {
                assert!(o_pos.dist(pa.position) > 2.4 - 1e-9, "water O inside exclusion zone");
            }
        }
    }

    #[test]
    fn helix_fold_builds_valid_system() {
        let sys = ProteinBuilder::new(12).seed(31).fold_style(FoldStyle::alpha_helix()).build();
        assert!(sys.validate().is_empty(), "{:?}", sys.validate());
        assert_eq!(sys.residues.len(), 12);
        // The coarse rigid-template placement stretches peptide bonds on
        // the helical curve (the harmonic model takes the built length as
        // equilibrium, so only gross breakage would matter).
        for b in sys.bonds.iter().filter(|b| b.class == BondClass::CNAmide) {
            let d = sys.atoms[b.i].position.dist(sys.atoms[b.j].position);
            assert!(d < 6.5, "helical peptide bond stretched to {d:.2}");
        }
    }

    #[test]
    fn helix_has_short_range_backbone_contacts() {
        // The alpha-helix signature: residues i and i+3/i+4 are spatially
        // close (within the lambda threshold), unlike an extended strand.
        use crate::neighbor::group_pairs_within;
        let contacts = |style: FoldStyle| {
            let sys = ProteinBuilder::new(16)
                .seed(32)
                .sequence(vec![crate::residue::ResidueKind::Ala; 16])
                .fold_style(style)
                .build();
            let positions: Vec<Vec3> = sys.atoms.iter().map(|a| a.position).collect();
            let mut groups = vec![0u32; sys.n_atoms()];
            for (r, span) in sys.residues.iter().enumerate() {
                for a in span.atom_range() {
                    groups[a] = r as u32;
                }
            }
            group_pairs_within(&positions, &groups, 4.0)
                .into_iter()
                .filter(|&(i, j)| j - i >= 3 && j - i <= 4)
                .count()
        };
        let helix = contacts(FoldStyle::alpha_helix());
        let strand = contacts(FoldStyle::Serpentine);
        assert!(
            helix > strand,
            "helix i->i+3/4 contacts ({helix}) should exceed the strand's ({strand})"
        );
        assert!(helix >= 8, "expected pervasive helical contacts, got {helix}");
    }

    #[test]
    fn fragment_size_distribution_matches_paper_regime() {
        // Paper: naked residues + caps span 9..=68 atoms, ~19x cost spread.
        let sys = ProteinBuilder::new(200).seed(12).build();
        let sizes: Vec<usize> = sys.residues.iter().map(|r| r.len).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min >= 7 && max <= 26, "sizes {min}..{max}");
        // Cubic cost spread between smallest/largest capped fragments
        // (3 residues) comfortably exceeds an order of magnitude.
        let spread = (3.0 * max as f64).powi(3) / (3.0 * min as f64).powi(3);
        assert!(spread > 10.0, "cost spread {spread}");
    }
}
