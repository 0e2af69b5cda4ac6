//! Checkpoint / restart of per-fragment engine results.
//!
//! The engine stage dominates wall time for large systems (millions of
//! fragment jobs); on the paper's machines such runs checkpoint as a matter
//! of course. This module persists the per-job [`FragmentResponse`] blocks
//! keyed by a fingerprint of the decomposition, so a re-run with the same
//! system and λ resumes directly at assembly.
//!
//! Format v4 is a file of the crate's one `container` codec: magic `QFRC`,
//! version 4, the fingerprint, one geometry word (the job count) and one
//! block per job. An empty block is an absent job; a present one holds `m`
//! (u32, atoms incl. link H), the `3m×3m` Hessian, `6×3m` ∂α/∂ξ and `3×3m`
//! ∂μ/∂ξ as f64 arrays — exactly `4 + 8·(9m² + 27m)` bytes, which the
//! reader checks against the decomposition before it reads the block. A
//! *partial* save writes more empty blocks; every save is atomic. Saves and
//! loads stream each response between its matrices and the file.
//!
//! The fingerprint folds every fragment's [`qfr_fragment::exact_key`]
//! (elements, link-H flags, bonds, raw position bits) and the name of the
//! engine that computed the responses into the digest, so a checkpoint
//! taken before atoms moved, or by another engine, never validates.
//! Versions 1 and 2 keyed files by atom indices, counts and coefficients
//! only — blind to geometry — and they and v3 (presence bitmap) are
//! rejected on read.

use crate::container::{self, BlockReader, Container, Header};
use qfr_fragment::{exact_key, Decomposition, FragmentResponse};
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_linalg::DMatrix;
use std::path::Path;

const MAGIC: &[u8; 4] = b"QFRC";
const VERSION: u32 = 4;

/// Errors from checkpoint and shard spill I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Not a checkpoint file, or an incompatible version.
    Format(String),
    /// The checkpoint belongs to a different system/decomposition.
    FingerprintMismatch {
        /// Fingerprint stored in the file.
        found: u64,
        /// Fingerprint of the current decomposition.
        expected: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
            CheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint belongs to a different run (fingerprint {found:#x}, expected {expected:#x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// [`engine_fingerprint`] of a run with the default force-field engine.
pub fn fingerprint(decomposition: &Decomposition, sys: &MolecularSystem) -> u64 {
    engine_fingerprint(decomposition, sys, qfr_model::ForceFieldEngine::NAME)
}

/// Geometry-aware FNV-1a fingerprint of a decomposition's responses as
/// `engine` (a [`qfr_fragment::FragmentEngine::name`]) computes them: per
/// job it folds the atom indices, the coefficient, and the materialized
/// fragment's [`exact_key`] — elements, link-hydrogen flags, bonds, and the
/// raw position bits — then the engine name. A checkpoint taken before
/// atoms moved, elements changed, or link hydrogens were re-placed, or by
/// another engine, therefore does not validate.
pub fn engine_fingerprint(
    decomposition: &Decomposition,
    sys: &MolecularSystem,
    engine: &str,
) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(sys.n_atoms() as u64);
    mix(decomposition.jobs.len() as u64);
    let adjacency = BondAdjacency::new(sys);
    for job in &decomposition.jobs {
        mix(job.atoms.len() as u64);
        mix(job.link_hydrogens.len() as u64);
        mix(job.coefficient.to_bits());
        for &a in &job.atoms {
            mix(a as u64);
        }
        let key = exact_key(&job.structure_with(sys, &adjacency)).0;
        mix(key as u64);
        mix((key >> 64) as u64);
    }
    mix(engine.len() as u64);
    engine.bytes().for_each(|b| mix(b.into()));
    h
}

fn header(decomposition: &Decomposition, sys: &MolecularSystem, engine: &str) -> Header {
    let n_jobs = decomposition.jobs.len();
    Header {
        magic: MAGIC,
        version: VERSION,
        fingerprint: engine_fingerprint(decomposition, sys, engine),
        words: vec![n_jobs as u64],
        n_blocks: n_jobs,
    }
}

/// Checks every matrix of a response against the shapes implied by the
/// job size `m`: `3m×3m` Hessian, `6×3m` ∂α/∂ξ, `3×3m` ∂μ/∂ξ. A malformed
/// response is rejected before its block is written, and fails the save
/// with the target untouched.
fn validate_response(m: usize, resp: &FragmentResponse) -> Result<(), CheckpointError> {
    let checks = [
        ("hessian", resp.hessian.shape(), (3 * m, 3 * m)),
        ("dalpha", resp.dalpha.shape(), (6, 3 * m)),
        ("dmu", resp.dmu.shape(), (3, 3 * m)),
    ];
    for (name, got, want) in checks {
        if got != want {
            return Err(CheckpointError::Format(format!(
                "response {name} shape {got:?} does not match job size {m} (want {want:?})"
            )));
        }
    }
    Ok(())
}

/// Saves a *partial* result set: `slots[j]` is `Some` iff job `j` has
/// completed. Writes one block per job, empty for absent ones, atomically.
/// Call repeatedly as a run fills in — each save is a superset rewrite, so
/// a crash between saves loses at most the work since the previous save.
/// `engine` names the engine that computed the responses.
pub fn save_partial(
    path: &Path,
    decomposition: &Decomposition,
    sys: &MolecularSystem,
    engine: &str,
    slots: &[Option<FragmentResponse>],
) -> Result<(), CheckpointError> {
    assert_eq!(decomposition.jobs.len(), slots.len(), "one slot per job");
    container::write(path, &header(decomposition, sys, engine), |j, out| {
        let Some(resp) = &slots[j] else { return Ok(()) };
        let m = decomposition.jobs[j].size();
        validate_response(m, resp)?;
        out.u32(m as u32)?;
        for matrix in [&resp.hessian, &resp.dalpha, &resp.dmu] {
            matrix.as_slice().iter().try_for_each(|&v| out.f64(v))?;
        }
        Ok(())
    })?;
    Ok(())
}

/// Loads a (possibly partial) checkpoint: `slots[j]` is `Some` iff the file
/// holds job `j`'s response. Verifies the fingerprint against the current
/// decomposition, geometry *and engine*; a complete checkpoint is simply
/// one with every slot present.
pub fn load_partial(
    path: &Path,
    decomposition: &Decomposition,
    sys: &MolecularSystem,
    engine: &str,
) -> Result<Vec<Option<FragmentResponse>>, CheckpointError> {
    let file = Container::open(path, &header(decomposition, sys, engine))?;
    let load = |(j, job): (usize, &qfr_fragment::FragmentJob)| {
        let (m, len) = (job.size(), file.block_len(j));
        if len == 0 {
            return Ok(None);
        }
        let bad = || CheckpointError::Format(format!("job {j}: block is not a {m}-atom response"));
        if len != 4 + 8 * (9 * m * m + 27 * m) {
            return Err(bad());
        }
        let mut block = BlockReader::new(&file, j);
        if block.read_vec(1, u32::from_le_bytes)?[0] as usize != m {
            return Err(bad());
        }
        let mut matrix = |rows, cols| {
            block
                .read_vec(rows * cols, f64::from_le_bytes)
                .map(|v| DMatrix::from_vec(rows, cols, v))
        };
        Ok(Some(FragmentResponse {
            hessian: matrix(3 * m, 3 * m)?,
            dalpha: matrix(6, 3 * m)?,
            dmu: matrix(3, 3 * m)?,
        }))
    };
    decomposition.jobs.iter().enumerate().map(load).collect()
}

/// Drops the jobs `pick` selects (by job index) from the checkpoint at
/// `path` and saves it back — the file a run killed with exactly those jobs
/// outstanding leaves behind. Returns how many present jobs it dropped.
pub fn drop_jobs(
    path: &Path,
    decomposition: &Decomposition,
    sys: &MolecularSystem,
    engine: &str,
    mut pick: impl FnMut(usize) -> bool,
) -> Result<usize, CheckpointError> {
    let mut slots = load_partial(path, decomposition, sys, engine)?;
    let mut dropped = 0;
    for (j, slot) in slots.iter_mut().enumerate() {
        if pick(j) && slot.take().is_some() {
            dropped += 1;
        }
    }
    save_partial(path, decomposition, sys, engine, &slots)?;
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::CHUNK;
    use qfr_fragment::{DecompositionParams, FragmentEngine};
    use qfr_geom::{ProteinBuilder, WaterBoxBuilder};
    use qfr_model::ForceFieldEngine;

    const FF: &str = ForceFieldEngine::NAME;

    fn setup() -> (qfr_geom::MolecularSystem, Decomposition, Vec<FragmentResponse>) {
        responses_of(WaterBoxBuilder::new(6).seed(1).build())
    }

    fn responses_of(
        sys: MolecularSystem,
    ) -> (MolecularSystem, Decomposition, Vec<FragmentResponse>) {
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let engine = ForceFieldEngine::new();
        let responses = d.jobs.iter().map(|j| engine.compute(&j.structure(&sys))).collect();
        (sys, d, responses)
    }

    fn full(responses: &[FragmentResponse]) -> Vec<Option<FragmentResponse>> {
        responses.iter().cloned().map(Some).collect()
    }

    #[test]
    fn round_trip_bitexact() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("responses.qfrc");
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        let loaded = load_partial(&path, &d, &sys, FF).unwrap();
        assert_eq!(loaded.len(), responses.len());
        for (a, b) in loaded.iter().zip(&responses) {
            let a = a.as_ref().expect("every job present");
            assert_eq!(a.hessian.max_abs_diff(&b.hessian), 0.0, "bit-exact hessian");
            assert_eq!(a.dalpha.max_abs_diff(&b.dalpha), 0.0);
            assert_eq!(a.dmu.max_abs_diff(&b.dmu), 0.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Protein fragments of up to 61 atoms make blocks several chunks long;
    /// every response still reads back bit for bit.
    #[test]
    fn multi_chunk_blocks_round_trip_bitexact() {
        let (sys, d, responses) = responses_of(ProteinBuilder::new(6).build());
        let dir = std::env::temp_dir().join("qfr_ckpt_test_chunks");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("protein.qfrc");
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        let file = Container::open(&path, &header(&d, &sys, FF)).unwrap();
        let longest = (0..d.jobs.len()).map(|j| file.block_len(j)).max().unwrap();
        assert!(longest > CHUNK, "longest block is {longest} bytes, within one chunk");
        let loaded = load_partial(&path, &d, &sys, FF).unwrap();
        let bits = |m: &DMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (j, (a, b)) in loaded.iter().zip(&responses).enumerate() {
            let a = a.as_ref().expect("every job present");
            let pairs = [(&a.hessian, &b.hessian), (&a.dalpha, &b.dalpha), (&a.dmu, &b.dmu)];
            for (got, want) in pairs {
                assert_eq!(got.shape(), want.shape(), "job {j}");
                assert_eq!(bits(got), bits(want), "job {j}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A block of the right length whose `m` word names another fragment
    /// size is rejected with the job's format error.
    #[test]
    fn m_word_disagreeing_with_its_job_rejected() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_mword");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("responses.qfrc");
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let (m, block0) = (d.jobs[0].size(), 16 + 8 * (1 + d.jobs.len()));
        bytes[block0..block0 + 4].copy_from_slice(&(m as u32 + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_partial(&path, &d, &sys, FF).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        let want = format!("checkpoint format error: job 0: block is not a {m}-atom response");
        assert_eq!(err.to_string(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_rejects_other_system() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_fp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("responses.qfrc");
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        // A different box has a different decomposition.
        let other_sys = WaterBoxBuilder::new(7).seed(2).build();
        let other = Decomposition::new(&other_sys, DecompositionParams::default());
        let err = load_partial(&path, &other, &other_sys, FF).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Responses of one engine never resume a run of another: the file
    /// written by one fails the other's load with the fingerprint error.
    #[test]
    fn fingerprint_rejects_other_engine() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_engine");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("responses.qfrc");
        let dfpt = qfr_dfpt::DfptEngine::new().name();
        assert_eq!(engine_fingerprint(&d, &sys, FF), fingerprint(&d, &sys));
        assert_ne!(engine_fingerprint(&d, &sys, dfpt), fingerprint(&d, &sys));
        for (saved, loaded) in [(dfpt, FF), (FF, dfpt)] {
            save_partial(&path, &d, &sys, saved, &full(&responses)).unwrap();
            let err = load_partial(&path, &d, &sys, loaded).unwrap_err();
            assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }), "{err}");
            assert!(load_partial(&path, &d, &sys, saved).is_ok(), "{saved} reloads its own file");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_file_rejected() {
        let dir = std::env::temp_dir().join("qfr_ckpt_test_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.qfrc");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let (sys, d, _) = setup();
        let err = load_partial(&path, &d, &sys, FF).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("responses.qfrc");
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_partial(&path, &d, &sys, FF).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_deterministic_and_sensitive() {
        let (sys, d, _) = setup();
        let f1 = fingerprint(&d, &sys);
        let f2 = fingerprint(&d, &sys);
        assert_eq!(f1, f2);
        // Geometry sensitivity: nudging one atom changes the fingerprint
        // even though indices, counts and coefficients are untouched.
        let mut moved = sys.clone();
        moved.atoms[0].position.x += 1e-6;
        assert_ne!(f1, fingerprint(&d, &moved));
        // Element sensitivity likewise.
        let mut mutated = sys.clone();
        mutated.atoms[1].element = qfr_geom::Element::O;
        assert_ne!(f1, fingerprint(&d, &mutated));
    }

    #[test]
    fn partial_round_trip_preserves_presence() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_partial");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.qfrc");
        // Every other job present.
        let slots: Vec<Option<FragmentResponse>> =
            responses.iter().enumerate().map(|(j, r)| (j % 2 == 0).then(|| r.clone())).collect();
        save_partial(&path, &d, &sys, FF, &slots).unwrap();
        let loaded = load_partial(&path, &d, &sys, FF).unwrap();
        assert_eq!(loaded.len(), slots.len());
        for (j, (a, b)) in loaded.iter().zip(&slots).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.hessian.max_abs_diff(&b.hessian), 0.0, "job {j}");
                    assert_eq!(a.dalpha.max_abs_diff(&b.dalpha), 0.0, "job {j}");
                    assert_eq!(a.dmu.max_abs_diff(&b.dmu), 0.0, "job {j}");
                }
                (None, None) => {}
                _ => panic!("presence mismatch at job {j}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Versions 1 and 2 keyed files by a geometry-blind fingerprint, and v3
    /// carried a presence bitmap; their headers are rejected outright
    /// rather than trusted.
    #[test]
    fn v1_and_v2_headers_rejected() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.qfrc");
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        let current = std::fs::read(&path).unwrap();
        for version in [1u32, 2, 3] {
            let mut legacy = current.clone();
            legacy[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &legacy).unwrap();
            let err = load_partial(&path, &d, &sys, FF).unwrap_err();
            assert!(matches!(err, CheckpointError::Format(_)), "v{version}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_response_shapes_rejected_before_write() {
        let (sys, d, mut responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_shape");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.qfrc");
        // Corrupt dalpha: the old writer validated only the hessian, wrote
        // the file, and the reader misparsed every later block.
        responses[0].dalpha = DMatrix::zeros(5, 5);
        let err = save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        assert!(!path.exists(), "a rejected save must not leave a file behind");
        // Same for dmu.
        let (_, _, mut responses) = setup();
        responses[1].dmu = DMatrix::zeros(1, 1);
        let err = save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_names_are_unique_per_write() {
        // Two successive saves to one path leave no temp droppings in the
        // directory. That the pid+sequence temp names never repeat is
        // `container::tests::temp_sequence_never_repeats`.
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_tmpname");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.qfrc");
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression for the geometry-blind fingerprint: a checkpoint saved
    /// before atoms moved used to load cleanly (indices, counts and
    /// coefficients are unchanged by a displacement) and silently
    /// resurrect stale responses. It must be rejected with
    /// `FingerprintMismatch`.
    #[test]
    fn displaced_geometry_checkpoint_rejected() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_displaced");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("displaced.qfrc");
        save_partial(&path, &d, &sys, FF, &full(&responses)).unwrap();
        // Displace the geometry; the decomposition's job list (indices,
        // coefficients, link-H count) is structurally identical.
        let mut moved = sys.clone();
        for a in &mut moved.atoms {
            a.position.x += 0.25;
            a.position.y -= 0.1;
        }
        let d_moved = Decomposition::new(&moved, DecompositionParams::default());
        assert_eq!(d_moved.jobs.len(), d.jobs.len(), "same job structure");
        let err = load_partial(&path, &d_moved, &moved, FF).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed save must leave no `.{name}.{pid}.{seq}.tmp` droppings:
    /// the drop guard cleans the temp on every error exit, here a rename
    /// failure forced by saving onto a path that is a directory.
    #[test]
    fn failed_save_leaves_no_temp_files() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_failsave");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // The target path is an existing non-empty directory: the temp
        // file writes fine, the rename onto it fails.
        let target = dir.join("is_a_dir.qfrc");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let err = save_partial(&target, &d, &sys, FF, &full(&responses)).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "failed save must clean its temp: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
