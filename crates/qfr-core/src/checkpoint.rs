//! Checkpoint / restart of per-fragment engine results.
//!
//! The engine stage dominates wall time for large systems (millions of
//! fragment jobs); on the paper's machines such runs checkpoint as a matter
//! of course. This module persists the per-job [`FragmentResponse`] blocks
//! in a compact binary format keyed by a fingerprint of the decomposition,
//! so a re-run with the same system and λ resumes directly at assembly.
//!
//! Format v3 (little-endian): magic `QFRC`, version u32 (= 3), fingerprint
//! u64, total job count u64, present-job count u64, then a presence bitmap
//! of `ceil(total/8)` bytes (bit `j` of byte `j / 8` = job `j` present),
//! followed by one block per *present* job in ascending job order: `m`
//! (u32, atoms incl. link H), the `3m×3m` Hessian, `6×3m` ∂α/∂ξ and
//! `3×3m` ∂μ/∂ξ as f64 arrays. A *partial* save simply flips fewer bitmap
//! bits and appends fewer blocks — the header and bitmap sizes depend only
//! on the decomposition, so successive saves of a filling run grow the file
//! monotonically (append-friendly), while each save stays an atomic
//! temp-file + rename (cleanup of the temp on *any* failed save is a drop
//! guard, so write/sync/rename errors and panics leave no droppings).
//!
//! The fingerprint folds every fragment's [`qfr_fragment::exact_key`]
//! (elements, link-H flags, bonds, raw position bits) into the digest, so a
//! checkpoint taken before atoms moved never validates. Versions 1 and 2
//! keyed files by atom indices, counts and coefficients only — blind to
//! geometry — and are rejected on read.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use qfr_fragment::{exact_key, Decomposition, FragmentResponse};
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_linalg::DMatrix;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 4] = b"QFRC";
const VERSION: u32 = 3;

/// Per-process temp-file sequence number: together with the pid it makes
/// concurrent savers targeting the same checkpoint path collision-free.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Errors from checkpoint I/O.
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

/// Geometry-aware FNV-1a fingerprint of a decomposition: per job it folds
/// the atom indices, the coefficient, and the materialized fragment's
/// [`exact_key`] — elements, link-hydrogen flags, bonds, and the raw
/// position bits. A checkpoint taken before atoms moved, elements changed,
/// or link hydrogens were re-placed therefore does not validate.
pub fn fingerprint(decomposition: &Decomposition, sys: &MolecularSystem) -> u64 {
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
    h
}

fn put_matrix(buf: &mut BytesMut, m: &DMatrix) {
    for &v in m.as_slice() {
        buf.put_f64_le(v);
    }
}

fn get_matrix(buf: &mut Bytes, rows: usize, cols: usize) -> Result<DMatrix, CheckpointError> {
    let need = rows * cols * 8;
    if buf.remaining() < need {
        return Err(CheckpointError::Format("truncated matrix data".into()));
    }
    let data = (0..rows * cols).map(|_| buf.get_f64_le()).collect();
    Ok(DMatrix::from_vec(rows, cols, data))
}

/// Checks every matrix of a response against the shapes implied by the
/// job size `m`: `3m×3m` Hessian, `6×3m` ∂α/∂ξ, `3×3m` ∂μ/∂ξ. A malformed
/// response must be rejected *before* serialization — the reader trusts
/// these shapes, so a bad block would misparse every block after it.
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

/// Removes the temp file on drop unless the write was completed by the
/// rename. Covers every failure exit of [`atomic_write`]: short write,
/// failed sync, failed rename, and unwinding panics.
struct TmpGuard {
    tmp: PathBuf,
    committed: bool,
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if !self.committed {
            std::fs::remove_file(&self.tmp).ok();
        }
    }
}

/// Atomically replaces `path` with `contents`: write to a per-process
/// unique temp file in the same directory, fsync, rename. The pid+sequence
/// temp name means concurrent runs sharing a checkpoint path cannot clobber
/// each other mid-write — the last rename wins, and both renames are of
/// complete files.
pub(crate) fn atomic_write(path: &Path, contents: &[u8]) -> Result<(), CheckpointError> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("checkpoint");
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let mut guard = TmpGuard { tmp, committed: false };
    {
        let mut f = std::fs::File::create(&guard.tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&guard.tmp, path)?;
    guard.committed = true;
    Ok(())
}

/// Saves a *partial* result set: `slots[j]` is `Some` iff job `j` has
/// completed. Writes the full header + presence bitmap and one block per
/// present job, atomically. Call repeatedly as a run fills in — each save
/// is a superset rewrite, so a crash between saves loses at most the work
/// since the previous save.
pub fn save_partial(
    path: &Path,
    decomposition: &Decomposition,
    sys: &MolecularSystem,
    slots: &[Option<FragmentResponse>],
) -> Result<(), CheckpointError> {
    assert_eq!(decomposition.jobs.len(), slots.len(), "one slot per job");
    let total = slots.len();
    let present = slots.iter().filter(|s| s.is_some()).count();
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(fingerprint(decomposition, sys));
    buf.put_u64_le(total as u64);
    buf.put_u64_le(present as u64);
    let mut bitmap = vec![0u8; total.div_ceil(8)];
    for (j, slot) in slots.iter().enumerate() {
        if slot.is_some() {
            bitmap[j / 8] |= 1 << (j % 8);
        }
    }
    buf.put_slice(&bitmap);
    for (job, slot) in decomposition.jobs.iter().zip(slots) {
        let Some(resp) = slot else { continue };
        let m = job.size();
        validate_response(m, resp)?;
        buf.put_u32_le(m as u32);
        put_matrix(&mut buf, &resp.hessian);
        put_matrix(&mut buf, &resp.dalpha);
        put_matrix(&mut buf, &resp.dmu);
    }
    atomic_write(path, &buf)
}

/// Loads a (possibly partial) checkpoint: `slots[j]` is `Some` iff the file
/// holds job `j`'s response. Verifies the fingerprint against the current
/// decomposition *and geometry*; a complete checkpoint is simply one with
/// every slot present.
pub fn load_partial(
    path: &Path,
    decomposition: &Decomposition,
    sys: &MolecularSystem,
) -> Result<Vec<Option<FragmentResponse>>, CheckpointError> {
    let mut raw = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut raw)?;
    let mut buf = Bytes::from(raw);
    if buf.remaining() < 4 + 4 + 8 + 8 + 8 {
        return Err(CheckpointError::Format("file too short".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(CheckpointError::Format(format!("unsupported version {version}")));
    }
    let found = buf.get_u64_le();
    let expected = fingerprint(decomposition, sys);
    if found != expected {
        return Err(CheckpointError::FingerprintMismatch { found, expected });
    }
    let total = buf.get_u64_le() as usize;
    if total != decomposition.jobs.len() {
        return Err(CheckpointError::Format(format!(
            "job count {total} does not match decomposition {}",
            decomposition.jobs.len()
        )));
    }
    let present_count = buf.get_u64_le() as usize;
    let bitmap_len = total.div_ceil(8);
    if buf.remaining() < bitmap_len {
        return Err(CheckpointError::Format("truncated presence bitmap".into()));
    }
    let mut bitmap = vec![0u8; bitmap_len];
    buf.copy_to_slice(&mut bitmap);
    let present: Vec<bool> = (0..total).map(|j| bitmap[j / 8] & (1 << (j % 8)) != 0).collect();
    if present.iter().filter(|&&p| p).count() != present_count {
        return Err(CheckpointError::Format(
            "presence bitmap disagrees with present-job count".into(),
        ));
    }
    let mut out = Vec::with_capacity(total);
    for (job, &is_present) in decomposition.jobs.iter().zip(&present) {
        if !is_present {
            out.push(None);
            continue;
        }
        if buf.remaining() < 4 {
            return Err(CheckpointError::Format("truncated job header".into()));
        }
        let m = buf.get_u32_le() as usize;
        if m != job.size() {
            return Err(CheckpointError::Format(format!(
                "job size {m} does not match decomposition {}",
                job.size()
            )));
        }
        out.push(Some(FragmentResponse {
            hessian: get_matrix(&mut buf, 3 * m, 3 * m)?,
            dalpha: get_matrix(&mut buf, 6, 3 * m)?,
            dmu: get_matrix(&mut buf, 3, 3 * m)?,
        }));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::{DecompositionParams, FragmentEngine};
    use qfr_geom::WaterBoxBuilder;
    use qfr_model::ForceFieldEngine;

    fn setup() -> (qfr_geom::MolecularSystem, Decomposition, Vec<FragmentResponse>) {
        let sys = WaterBoxBuilder::new(6).seed(1).build();
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
        save_partial(&path, &d, &sys, &full(&responses)).unwrap();
        let loaded = load_partial(&path, &d, &sys).unwrap();
        assert_eq!(loaded.len(), responses.len());
        for (a, b) in loaded.iter().zip(&responses) {
            let a = a.as_ref().expect("every job present");
            assert_eq!(a.hessian.max_abs_diff(&b.hessian), 0.0, "bit-exact hessian");
            assert_eq!(a.dalpha.max_abs_diff(&b.dalpha), 0.0);
            assert_eq!(a.dmu.max_abs_diff(&b.dmu), 0.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_rejects_other_system() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_fp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("responses.qfrc");
        save_partial(&path, &d, &sys, &full(&responses)).unwrap();
        // A different box has a different decomposition.
        let other_sys = WaterBoxBuilder::new(7).seed(2).build();
        let other = Decomposition::new(&other_sys, DecompositionParams::default());
        let err = load_partial(&path, &other, &other_sys).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_file_rejected() {
        let dir = std::env::temp_dir().join("qfr_ckpt_test_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.qfrc");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let (sys, d, _) = setup();
        let err = load_partial(&path, &d, &sys).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("responses.qfrc");
        save_partial(&path, &d, &sys, &full(&responses)).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = load_partial(&path, &d, &sys).unwrap_err();
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
        save_partial(&path, &d, &sys, &slots).unwrap();
        let loaded = load_partial(&path, &d, &sys).unwrap();
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

    /// Versions 1 and 2 keyed files by a geometry-blind fingerprint; their
    /// headers are rejected outright rather than trusted.
    #[test]
    fn v1_and_v2_headers_rejected() {
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.qfrc");
        save_partial(&path, &d, &sys, &full(&responses)).unwrap();
        let current = std::fs::read(&path).unwrap();
        for version in [1u32, 2] {
            let mut legacy = current.clone();
            legacy[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &legacy).unwrap();
            let err = load_partial(&path, &d, &sys).unwrap_err();
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
        let err = save_partial(&path, &d, &sys, &full(&responses)).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        assert!(!path.exists(), "a rejected save must not leave a file behind");
        // Same for dmu.
        let (_, _, mut responses) = setup();
        responses[1].dmu = DMatrix::zeros(1, 1);
        let err = save_partial(&path, &d, &sys, &full(&responses)).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_names_are_unique_per_write() {
        // The fixed `.tmp` suffix let two concurrent runs clobber each
        // other's half-written temp file; the pid+sequence name may never
        // repeat within a process either.
        let a = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let b = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        assert_ne!(a, b);
        // And a successful save leaves no temp droppings in the directory.
        let (sys, d, responses) = setup();
        let dir = std::env::temp_dir().join("qfr_ckpt_test_tmpname");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.qfrc");
        save_partial(&path, &d, &sys, &full(&responses)).unwrap();
        save_partial(&path, &d, &sys, &full(&responses)).unwrap();
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
        save_partial(&path, &d, &sys, &full(&responses)).unwrap();
        // Displace the geometry; the decomposition's job list (indices,
        // coefficients, link-H count) is structurally identical.
        let mut moved = sys.clone();
        for a in &mut moved.atoms {
            a.position.x += 0.25;
            a.position.y -= 0.1;
        }
        let d_moved = Decomposition::new(&moved, DecompositionParams::default());
        assert_eq!(d_moved.jobs.len(), d.jobs.len(), "same job structure");
        let err = load_partial(&path, &d_moved, &moved).unwrap_err();
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
        let err = save_partial(&target, &d, &sys, &full(&responses)).unwrap_err();
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
