//! Graph-algorithm fragmentation for arbitrary covalent systems.
//!
//! The residue-chain decomposition of [`crate::decompose`] assumes the
//! covalent block is a single peptide chain; ligands, disulfide-bridged
//! multi-chain proteins and polymers break that assumption. This module
//! generalizes the QF cut to any covalent graph:
//!
//! 1. **Covalent graph** — adjacency is taken from the system's bond list
//!    restricted to the covalent block (everything before the water block).
//! 2. **Bond scoring** — each bond gets a cut cost, or is declared
//!    uncuttable: X–H bonds and anything double-bond-like (aromatic C–C,
//!    C=O, C=N, order ≥ 2) are never cut; C–C single bonds are the
//!    preferred cut (cost 0), then C–S/C–N single, then amide C–N and C–O
//!    single, then S–S, then everything else.
//! 3. **Bridges only** — a bond inside a ring is never cut (cutting it
//!    would not disconnect anything and the two caps would overlap), so
//!    only bridge edges (Tarjan) are cuttable.
//! 4. **Contraction** — uncuttable edges are contracted with a union-find;
//!    the cuttable bridges between the resulting super-nodes form a
//!    forest.
//! 5. **Partitioning** — each tree is partitioned bottom-up under the
//!    `max_fragment_atoms` budget. At every node the children are merged
//!    in deterministic order (highest cut cost first, then smallest open
//!    part, then lowest atom index) while the budget allows; the rest are
//!    cut. A refinement pass re-merges cut edges (most expensive first)
//!    wherever the combined part still fits.
//! 6. **Capping** — every cut bond is terminated with a link hydrogen on
//!    *both* sides via the same `cap_hydrogen` placement the chain path
//!    uses.
//!
//! Job emission mirrors Eq. (1): one-body partition terms, two-body
//! partition pairs within λ (plus every cut-bond-adjacent pair, whose
//! dimer restores the cut bond and drops its caps), partition–water and
//! water–water pairs, with monomer coefficients merged exactly as in the
//! chain path. The atom-coverage invariant (every real atom counted
//! exactly once) holds by the same inclusion–exclusion argument.

use crate::decompose::{cap_hydrogen, Decomposition, DecompositionParams};
use crate::fragment::{FragmentJob, JobKind, LinkHydrogen};
use crate::stats::DecompositionStats;
use qfr_geom::neighbor::group_pairs_within;
use qfr_geom::system::{Bond, BondClass};
use qfr_geom::{MolecularSystem, Vec3};
use qfr_obs::Counter;
use std::collections::{BTreeMap, BTreeSet};

/// Total covalent bonds cut across all graph decompositions.
static BONDS_CUT: Counter = Counter::deterministic("fragment.graph.bonds_cut");
/// Total partitions emitted across all graph decompositions.
static PARTITIONS: Counter = Counter::deterministic("fragment.graph.partitions");

/// Cut cost of a bond, or `None` when the bond must never be cut.
///
/// Never cut: X–H terminal bonds (capping them would replace an H with an
/// H), and double-bond-like classes (aromatic C–C, C=O, C=N, or any formal
/// order ≥ 2) whose π systems a link hydrogen cannot represent. Among the
/// cuttable single bonds, apolar C–C is cheapest, heteroatom single bonds
/// cost more, the conjugated amide C–N and the soft S–S more still.
pub fn cut_cost(bond: &Bond) -> Option<u32> {
    if bond.order >= 2 {
        return None;
    }
    match bond.class {
        BondClass::CH | BondClass::NH | BondClass::OH | BondClass::SH => None,
        BondClass::CCAromatic | BondClass::CNDouble | BondClass::CODouble => None,
        BondClass::CCSingle => Some(0),
        BondClass::CSSingle | BondClass::CNSingle => Some(1),
        BondClass::CNAmide | BondClass::COSingle => Some(2),
        BondClass::SSBond => Some(3),
        BondClass::Other => Some(4),
    }
}

/// One covalent partition: a connected set of atoms plus the cut bonds on
/// its boundary.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Global atom indices, ascending (not necessarily contiguous).
    pub atoms: Vec<usize>,
    /// Cut bonds as `(anchor, removed)`: `anchor` is inside this partition,
    /// `removed` is the neighbor lost to the cut (capped with a link H).
    pub caps: Vec<(usize, usize)>,
}

/// Result of partitioning the covalent block.
#[derive(Debug, Clone)]
pub struct CovalentPartitioning {
    /// Partitions ordered by their lowest atom index.
    pub parts: Vec<Partition>,
    /// Partition index of every covalent atom.
    pub part_of: Vec<usize>,
    /// Cut bonds as global `(i, j)` pairs with `i < j`, sorted.
    pub cut_bonds: Vec<(usize, usize)>,
}

/// Disjoint-set forest with union by size and path halving.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), size: vec![1; n] }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[small] = big;
        self.size[big] += self.size[small];
    }

    fn size_of(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r]
    }
}

/// Marks bridge edges (whose removal disconnects the graph) with an
/// iterative Tarjan low-link sweep. `adj[u]` holds `(neighbor, edge index)`
/// pairs; the returned vector is indexed by edge.
fn bridges(n: usize, adj: &[Vec<(usize, usize)>], n_edges: usize) -> Vec<bool> {
    const UNSEEN: usize = usize::MAX;
    let mut disc = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut is_bridge = vec![false; n_edges];
    let mut timer = 0usize;
    // Frames: (node, edge taken to reach it, next adjacency slot).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for start in 0..n {
        if disc[start] != UNSEEN {
            continue;
        }
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        stack.push((start, usize::MAX, 0));
        while let Some(frame) = stack.last_mut() {
            let (u, parent_edge) = (frame.0, frame.1);
            if frame.2 < adj[u].len() {
                let (v, e) = adj[u][frame.2];
                frame.2 += 1;
                if e == parent_edge {
                    continue; // the tree edge back up; parallel edges keep their own id
                }
                if disc[v] == UNSEEN {
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, e, 0));
                } else {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(parent) = stack.last() {
                    let p = parent.0;
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        is_bridge[parent_edge] = true;
                    }
                }
            }
        }
    }
    is_bridge
}

/// Partitions the covalent block (atoms before the water block) into
/// connected fragments of at most `max_fragment_atoms` real atoms each,
/// cutting only bridge single-bonds and preferring cheap cuts. A single
/// contracted super-node larger than the budget becomes an oversized
/// partition of its own (it cannot be split without cutting a ring or a
/// double bond). Fully deterministic for a given system.
pub fn partition_covalent(
    sys: &MolecularSystem,
    max_fragment_atoms: usize,
) -> CovalentPartitioning {
    assert!(max_fragment_atoms >= 1, "fragment budget must be at least one atom");
    let n_cov = sys.water_start();

    // Covalent graph: edges with cost, adjacency with edge indices.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut costs: Vec<Option<u32>> = Vec::new();
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n_cov];
    for b in &sys.bonds {
        if b.i < n_cov && b.j < n_cov {
            let e = edges.len();
            edges.push((b.i.min(b.j), b.i.max(b.j)));
            costs.push(cut_cost(b));
            adj[b.i].push((b.j, e));
            adj[b.j].push((b.i, e));
        }
    }

    // Only scored bridges are cuttable; contract everything else.
    let bridge = bridges(n_cov, &adj, edges.len());
    let cuttable: Vec<bool> = (0..edges.len()).map(|e| bridge[e] && costs[e].is_some()).collect();
    let mut uf = UnionFind::new(n_cov);
    for (e, &(i, j)) in edges.iter().enumerate() {
        if !cuttable[e] {
            uf.union(i, j);
        }
    }

    // Super-node id = lowest atom index of the contracted set.
    let mut sid_of_root = vec![usize::MAX; n_cov];
    for a in 0..n_cov {
        let r = uf.find(a);
        if sid_of_root[r] == usize::MAX {
            sid_of_root[r] = a;
        }
    }
    let sid: Vec<usize> = (0..n_cov).map(|a| sid_of_root[uf.find(a)]).collect();

    // Super-graph over the cuttable bridges: a forest by construction.
    let mut sadj: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for &s in &sid {
        sadj.entry(s).or_default();
    }
    for (e, &(i, j)) in edges.iter().enumerate() {
        if cuttable[e] {
            sadj.get_mut(&sid[i]).unwrap().push((sid[j], e));
            sadj.get_mut(&sid[j]).unwrap().push((sid[i], e));
        }
    }
    for list in sadj.values_mut() {
        list.sort_unstable();
    }

    // Bottom-up tree partitioning: reverse preorder visits children before
    // parents; each node absorbs children while the budget allows.
    let mut visited = vec![false; n_cov];
    let mut greedy_cuts: Vec<usize> = Vec::new();
    let roots: Vec<usize> = sadj.keys().copied().collect();
    for root in roots {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        let mut pre: Vec<(usize, usize, usize)> = Vec::new(); // (sid, parent sid, edge)
        let mut stack = vec![(root, usize::MAX, usize::MAX)];
        while let Some((u, p, pe)) = stack.pop() {
            pre.push((u, p, pe));
            for &(v, e) in &sadj[&u] {
                if !visited[v] {
                    visited[v] = true;
                    stack.push((v, u, e));
                }
            }
        }
        let mut children: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for &(u, p, pe) in &pre {
            if p != usize::MAX {
                children.entry(p).or_default().push((u, pe));
            }
        }
        for &(u, _, _) in pre.iter().rev() {
            let Some(kids) = children.get(&u) else { continue };
            // Merge order: protect expensive cuts first, then pack the
            // smallest open parts, then lowest atom index.
            let mut cand: Vec<(u32, usize, usize, usize)> = kids
                .iter()
                .map(|&(c, e)| (costs[e].expect("cuttable edge has a cost"), uf.size_of(c), c, e))
                .collect();
            cand.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            for (_, _, c, e) in cand {
                if uf.size_of(u) + uf.size_of(c) <= max_fragment_atoms {
                    uf.union(u, c);
                } else {
                    greedy_cuts.push(e);
                }
            }
        }
    }

    // Refinement: re-merge across cut edges, most expensive first, wherever
    // the combined part still fits the budget.
    let mut ranked: Vec<(u32, usize)> =
        greedy_cuts.iter().map(|&e| (costs[e].expect("cut edge has a cost"), e)).collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut final_cuts: Vec<usize> = Vec::new();
    for (_, e) in ranked {
        let (i, j) = edges[e];
        if uf.find(i) != uf.find(j) && uf.size_of(i) + uf.size_of(j) <= max_fragment_atoms {
            uf.union(i, j);
        } else {
            final_cuts.push(e);
        }
    }

    // Materialize partitions in order of first (lowest) atom index.
    let mut part_index: BTreeMap<usize, usize> = BTreeMap::new();
    let mut part_of = vec![usize::MAX; n_cov];
    let mut parts: Vec<Partition> = Vec::new();
    for (a, slot) in part_of.iter_mut().enumerate() {
        let r = uf.find(a);
        let idx = *part_index.entry(r).or_insert_with(|| {
            parts.push(Partition { atoms: Vec::new(), caps: Vec::new() });
            parts.len() - 1
        });
        *slot = idx;
        parts[idx].atoms.push(a);
    }
    let mut cut_bonds: Vec<(usize, usize)> = final_cuts.iter().map(|&e| edges[e]).collect();
    cut_bonds.sort_unstable();
    for &(i, j) in &cut_bonds {
        parts[part_of[i]].caps.push((i, j));
        parts[part_of[j]].caps.push((j, i));
    }
    for p in &mut parts {
        p.caps.sort_unstable();
    }
    CovalentPartitioning { parts, part_of, cut_bonds }
}

/// General decomposition over graph partitions; entered by
/// [`Decomposition::new`] whenever the system is not a single water-capped
/// residue chain.
pub(crate) fn decompose(sys: &MolecularSystem, params: DecompositionParams) -> Decomposition {
    let part = partition_covalent(sys, params.max_fragment_atoms);
    let nparts = part.parts.len();
    BONDS_CUT.add(part.cut_bonds.len() as u64);
    PARTITIONS.add(nparts as u64);

    // Link hydrogens per partition, one per cut bond, deterministic order.
    let caps: Vec<Vec<LinkHydrogen>> = part
        .parts
        .iter()
        .map(|p| {
            p.caps.iter().map(|&(anchor, removed)| cap_hydrogen(sys, anchor, removed)).collect()
        })
        .collect();

    // λ pairs over partition and water groups, plus every cut-bond-adjacent
    // partition pair (its dimer restores the cut bond).
    let positions: Vec<Vec3> = sys.atoms.iter().map(|a| a.position).collect();
    let mut group_of = vec![0u32; sys.n_atoms()];
    for (a, &p) in part.part_of.iter().enumerate() {
        group_of[a] = p as u32;
    }
    for w in 0..sys.n_waters {
        for a in sys.water_atoms(w) {
            group_of[a] = (nparts + w) as u32;
        }
    }
    let mut pairs: BTreeSet<(usize, usize)> =
        group_pairs_within(&positions, &group_of, params.lambda)
            .into_iter()
            .map(|(a, b)| (a as usize, b as usize))
            .collect();
    for &(i, j) in &part.cut_bonds {
        let (p, q) = (part.part_of[i], part.part_of[j]);
        pairs.insert((p.min(q), p.max(q)));
    }

    let mut jobs: Vec<FragmentJob> = Vec::new();
    let mut stats = DecompositionStats::default();
    let mut part_coeff = vec![1.0f64; nparts];
    let mut water_coeff = vec![1.0f64; sys.n_waters];

    for &(ga, gb) in &pairs {
        match (ga < nparts, gb < nparts) {
            (true, true) => {
                let mut atoms = part.parts[ga].atoms.clone();
                atoms.extend(&part.parts[gb].atoms);
                atoms.sort_unstable();
                // Drop the caps of any bond internal to the dimer: the
                // carried-over real bond replaces them.
                let mut link_hydrogens = Vec::new();
                for (&(_, removed), lh) in part.parts[ga].caps.iter().zip(&caps[ga]) {
                    if part.part_of[removed] != gb {
                        link_hydrogens.push(*lh);
                    }
                }
                for (&(_, removed), lh) in part.parts[gb].caps.iter().zip(&caps[gb]) {
                    if part.part_of[removed] != ga {
                        link_hydrogens.push(*lh);
                    }
                }
                jobs.push(FragmentJob {
                    kind: JobKind::GraphDimer { p: ga, q: gb },
                    coefficient: 1.0,
                    atoms,
                    link_hydrogens,
                });
                part_coeff[ga] -= 1.0;
                part_coeff[gb] -= 1.0;
                stats.n_generalized_concaps += 1;
            }
            (true, false) => {
                let w = gb - nparts;
                let mut atoms = part.parts[ga].atoms.clone();
                atoms.extend(sys.water_atoms(w));
                jobs.push(FragmentJob {
                    kind: JobKind::GraphWaterDimer { p: ga, w },
                    coefficient: 1.0,
                    atoms,
                    link_hydrogens: caps[ga].clone(),
                });
                part_coeff[ga] -= 1.0;
                water_coeff[w] -= 1.0;
                stats.n_residue_water_pairs += 1;
            }
            (false, false) => {
                let (a, b) = (ga - nparts, gb - nparts);
                let mut atoms = sys.water_atoms(a).to_vec();
                atoms.extend(sys.water_atoms(b));
                jobs.push(FragmentJob {
                    kind: JobKind::WaterWaterDimer { a, b },
                    coefficient: 1.0,
                    atoms,
                    link_hydrogens: vec![],
                });
                water_coeff[a] -= 1.0;
                water_coeff[b] -= 1.0;
                stats.n_water_water_pairs += 1;
            }
            (false, true) => unreachable!("pairs are ordered ga <= gb"),
        }
    }

    // Merged one-body terms: base coefficient 1 minus one per pair; zeros
    // are omitted (their coverage is carried entirely by the dimers).
    for (p, &coeff) in part_coeff.iter().enumerate() {
        if coeff != 0.0 {
            jobs.push(FragmentJob {
                kind: JobKind::GraphMonomer { p },
                coefficient: coeff,
                atoms: part.parts[p].atoms.clone(),
                link_hydrogens: caps[p].clone(),
            });
        }
    }
    for (w, &coeff) in water_coeff.iter().enumerate() {
        if coeff != 0.0 {
            jobs.push(FragmentJob {
                kind: JobKind::WaterMonomer { w },
                coefficient: coeff,
                atoms: sys.water_atoms(w).to_vec(),
                link_hydrogens: vec![],
            });
        }
    }

    stats.n_capped_fragments = nparts;
    stats.n_graph_partitions = nparts;
    stats.n_bonds_cut = part.cut_bonds.len();
    stats.n_water_monomers = sys.n_waters;
    for job in &jobs {
        stats.record_size(job.size());
    }
    stats.n_jobs = jobs.len();
    Decomposition { jobs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_geom::scenario::{build_scenario, SCENARIO_NAMES};
    use qfr_geom::{ProteinBuilder, SolvatedSystem};

    fn graph_params() -> DecompositionParams {
        DecompositionParams::default()
    }

    #[test]
    fn coverage_is_exactly_one_on_all_scenarios() {
        for &name in SCENARIO_NAMES {
            let sys = build_scenario(name, 11).expect("known scenario");
            let d = Decomposition::new(&sys, graph_params());
            assert!(d.stats.n_graph_partitions > 0, "{name} must take the graph path");
            for (a, &c) in d.atom_coverage(sys.n_atoms()).iter().enumerate() {
                assert!(c == 1.0, "{name}: atom {a} covered {c} times (should be exactly 1)");
            }
        }
    }

    #[test]
    fn partitions_respect_budget_and_cover_every_atom() {
        let sys = build_scenario("polymer-melt", 7).unwrap();
        let budget = 20;
        let part = partition_covalent(&sys, budget);
        let n_cov = sys.water_start();
        let mut seen = vec![false; n_cov];
        for p in &part.parts {
            assert!(p.atoms.len() <= budget, "partition exceeds the atom budget");
            for &a in &p.atoms {
                assert!(!seen[a], "atom {a} in two partitions");
                seen[a] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every covalent atom belongs to a partition");
        assert!(part.parts.len() > 1, "a melt above the budget must be split");
        assert!(!part.cut_bonds.is_empty());
    }

    #[test]
    fn rings_double_bonds_and_hydrogens_are_never_cut() {
        let sys = build_scenario("protein-ligand", 3).unwrap();
        let part = partition_covalent(&sys, 12);
        assert!(!part.cut_bonds.is_empty(), "a 12-atom budget forces cuts");
        for &(i, j) in &part.cut_bonds {
            let bond = sys
                .bonds
                .iter()
                .find(|b| (b.i.min(b.j), b.i.max(b.j)) == (i, j))
                .expect("cut bond exists in the system");
            assert!(cut_cost(bond).is_some(), "cut an uncuttable bond {bond:?}");
            assert_eq!(bond.order, 1);
        }
        // No uncuttable bond (X–H, aromatic, double) may straddle a
        // partition boundary: every aromatic ring stays whole.
        let n_cov = sys.water_start();
        for b in &sys.bonds {
            if b.i < n_cov && b.j < n_cov && cut_cost(b).is_none() {
                assert_eq!(
                    part.part_of[b.i], part.part_of[b.j],
                    "uncuttable bond {b:?} crosses a partition boundary"
                );
            }
        }
    }

    #[test]
    fn decomposition_is_deterministic() {
        let sys = build_scenario("disulfide", 5).unwrap();
        let d1 = Decomposition::new(&sys, graph_params());
        let d2 = Decomposition::new(&sys, graph_params());
        assert_eq!(d1.jobs.len(), d2.jobs.len());
        for (a, b) in d1.jobs.iter().zip(&d2.jobs) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.coefficient, b.coefficient);
            assert_eq!(a.atoms, b.atoms);
            assert_eq!(a.link_hydrogens.len(), b.link_hydrogens.len());
        }
        assert_eq!(d1.stats, d2.stats);
    }

    #[test]
    fn chain_systems_still_take_the_fast_path() {
        let protein = ProteinBuilder::new(8).seed(2).fold(4, 2).build();
        let sys = SolvatedSystem::build(&protein, 4.0, 3.1, 2.4, 3);
        let d = Decomposition::new(&sys, graph_params());
        assert_eq!(d.stats.n_graph_partitions, 0, "chain+water must use the residue path");
        assert!(!d.jobs.iter().any(|j| matches!(
            j.kind,
            JobKind::GraphMonomer { .. }
                | JobKind::GraphDimer { .. }
                | JobKind::GraphWaterDimer { .. }
        )));
    }

    #[test]
    fn cut_bond_dimers_restore_the_bond_and_drop_its_caps() {
        let sys = build_scenario("disulfide", 5).unwrap();
        let params = DecompositionParams { max_fragment_atoms: 25, ..Default::default() };
        let part = partition_covalent(&sys, params.max_fragment_atoms);
        let d = Decomposition::new(&sys, params);
        let (ci, cj) = part.cut_bonds[0];
        let (p, q) =
            (part.part_of[ci].min(part.part_of[cj]), part.part_of[ci].max(part.part_of[cj]));
        let dimer = d
            .jobs
            .iter()
            .find(|j| j.kind == JobKind::GraphDimer { p, q })
            .expect("cut-bond-adjacent parts always form a dimer");
        let frag = dimer.structure(&sys);
        let has_cut_bond = frag.bonds.iter().any(|b| {
            let (gi, gj) = (frag.global_map[b.i], frag.global_map[b.j]);
            (gi == Some(ci) && gj == Some(cj)) || (gi == Some(cj) && gj == Some(ci))
        });
        assert!(has_cut_bond, "the dimer must carry the restored cut bond");
        let internal_cuts = part.parts[p]
            .caps
            .iter()
            .filter(|&&(_, removed)| part.part_of[removed] == q)
            .count()
            + part.parts[q].caps.iter().filter(|&&(_, removed)| part.part_of[removed] == p).count();
        assert_eq!(
            dimer.link_hydrogens.len(),
            part.parts[p].caps.len() + part.parts[q].caps.len() - internal_cuts,
            "caps of the internal bond are dropped, all boundary caps kept"
        );
    }

    #[test]
    fn graph_counters_accumulate() {
        let sys = build_scenario("polymer-melt", 9).unwrap();
        let before = qfr_obs::counter::value_of("fragment.graph.partitions").unwrap_or(0);
        let d = Decomposition::new(&sys, graph_params());
        let after = qfr_obs::counter::value_of("fragment.graph.partitions").unwrap_or(0);
        assert!(after >= before + d.stats.n_graph_partitions as u64);
        assert!(qfr_obs::counter::value_of("fragment.graph.bonds_cut").is_some());
    }
}
