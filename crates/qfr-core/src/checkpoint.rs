//! Checkpoint / restart of per-fragment engine results: a [`Journal`] a run
//! appends each [`FragmentResponse`] to as it settles, so a re-run of the
//! same system, λ and engine reads back what the file holds and computes
//! only the rest.
//!
//! Format v5 is a journal of the crate's one `container` codec: magic
//! `QFRC`, version 5, the fingerprint, the job count, then one record per
//! settled job: its index and `m` (u64 each, `m` atoms incl. link H), then
//! the `3m×3m` Hessian, `6×3m` ∂α/∂ξ and `3×3m` ∂μ/∂ξ as f64 arrays. A
//! last record cut short — a run killed mid-append — is dropped; an index
//! past the job count, a job recorded twice, an `m` that is not the job's
//! size, or a wrong magic, version, fingerprint or job count is a
//! [`CheckpointError`]. The fingerprint folds every fragment's
//! [`qfr_fragment::exact_key`] (elements, link-H flags, bonds, raw position
//! bits) and the engine's name, so a checkpoint taken before atoms moved,
//! or by another engine, never validates.

use crate::container::{self, BlockReader, BlockWriter, Container, Header};
use qfr_fragment::{exact_key, Decomposition, FragmentJob, FragmentResponse};
use qfr_geom::{BondAdjacency, MolecularSystem};
use qfr_linalg::DMatrix;
use std::path::Path;
use std::sync::Mutex;

const MAGIC: &[u8; 4] = b"QFRC";
const VERSION: u32 = 5;

// Records appended: each settled job is appended once, whatever the
// scheduling, so the count is deterministic and CI-gated.
static CHECKPOINT_SAVES: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("core.checkpoint.saves");

/// Errors from checkpoint and shard spill I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Not a checkpoint file, or a malformed one.
    Format(String),
    /// A file of another format version.
    Version {
        /// Version stored in the file.
        found: u32,
        /// The version this build reads.
        expected: u32,
    },
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
            CheckpointError::Version { found, expected } => {
                write!(f, "checkpoint format version {found}, this build reads {expected}")
            }
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
    Header {
        magic: MAGIC,
        version: VERSION,
        fingerprint: engine_fingerprint(decomposition, sys, engine),
        words: vec![decomposition.jobs.len() as u64],
        n_blocks: 0,
    }
}

/// Checks every matrix of a response against the shapes implied by the
/// job size `m`: `3m×3m` Hessian, `6×3m` ∂α/∂ξ, `3×3m` ∂μ/∂ξ. A malformed
/// response is rejected before any of its bytes are written.
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

/// Encodes job `j`'s record: its index, `m`, then the three matrices,
/// whose shapes [`validate_response`] has checked.
fn put_record(
    out: &mut BlockWriter,
    j: usize,
    m: usize,
    resp: &FragmentResponse,
) -> Result<(), CheckpointError> {
    out.u64(j as u64)?;
    out.u64(m as u64)?;
    for matrix in [&resp.hessian, &resp.dalpha, &resp.dmu] {
        matrix.as_slice().iter().try_for_each(|&v| out.f64(v))?;
    }
    Ok(())
}

/// A response checkpoint of one decomposition, open to read back the jobs
/// it held when opened and to append the ones a run settles.
pub struct Journal<'d> {
    jobs: &'d [FragmentJob],
    file: Container,
    /// The record of each job the file held when opened; a job without
    /// one has a number past the whole records.
    record_of: Vec<u32>,
    /// `None` once an append failed.
    out: Mutex<Option<BlockWriter>>,
}

impl<'d> Journal<'d> {
    /// Opens the checkpoint at `path` for `decomposition`'s responses as
    /// `engine` computes them on `sys`; an absent file is created empty. A
    /// file whose fingerprint (of the decomposition, geometry *and*
    /// engine), records or format do not match is an error and keeps its
    /// bytes; only a torn last record is cut off.
    pub fn open(
        path: &Path,
        decomposition: &'d Decomposition,
        sys: &MolecularSystem,
        engine: &str,
    ) -> Result<Self, CheckpointError> {
        let jobs = &decomposition.jobs[..];
        let header = header(decomposition, sys, engine);
        if !path.exists() {
            container::write(path, &header, 0, |_, _| Ok(()))?;
        }
        let (mut record_of, mut records) = (vec![u32::MAX; jobs.len()], 0);
        let file = Container::open_journal(path, &header, 2, |head| {
            let (j, m) = (head[0] as usize, head[1]);
            let why = match (record_of.get(j), jobs.get(j).map(FragmentJob::size)) {
                (Some(&u32::MAX), Some(size)) if m == size as u64 => {
                    record_of[j] = records;
                    records += 1;
                    return Ok(8 * (9 * m * m + 27 * m));
                }
                (Some(&u32::MAX), Some(size)) => {
                    format!("job {j}: record of {m} atoms, not {size}")
                }
                (Some(_), _) => format!("job {j} recorded twice"),
                _ => format!("record of job {j}, past the {} jobs", jobs.len()),
            };
            Err(CheckpointError::Format(why))
        })?;
        let out = Mutex::new(Some(container::append(path, file.extent().1)?));
        CHECKPOINT_SAVES.add(0); // every checkpointed run reports its count
        Ok(Self { jobs, file, record_of, out })
    }

    /// Number of jobs the file held when opened.
    pub fn resumed(&self) -> usize {
        self.file.extent().0
    }

    /// Whether the file held job `j` when opened.
    pub fn holds(&self, j: usize) -> bool {
        (self.record_of[j] as usize) < self.file.extent().0
    }

    /// Job `j`'s response as the file holds it.
    ///
    /// # Panics
    /// Panics if the file did not hold job `j` when opened.
    pub fn read(&self, j: usize) -> Result<FragmentResponse, CheckpointError> {
        assert!(self.holds(j), "job {j} is not in the journal");
        let m = self.jobs[j].size();
        let mut block = BlockReader::new(&self.file, self.record_of[j] as usize);
        block.read_vec(2, u64::from_le_bytes)?;
        let mut matrix = |rows, cols| {
            block
                .read_vec(rows * cols, f64::from_le_bytes)
                .map(|v| DMatrix::from_vec(rows, cols, v))
        };
        Ok(FragmentResponse {
            hessian: matrix(3 * m, 3 * m)?,
            dalpha: matrix(6, 3 * m)?,
            dmu: matrix(3, 3 * m)?,
        })
    }

    /// Appends the `(job index, response)` pairs and hands them to the
    /// operating system. A malformed response fails the append before its
    /// bytes are written. After an error the journal appends nothing more:
    /// its tail may be torn, which the next resume drops.
    pub fn append<'r>(
        &self,
        settled: impl IntoIterator<Item = (usize, &'r FragmentResponse)>,
    ) -> Result<(), CheckpointError> {
        let mut out = self.out.lock().expect("journal poisoned");
        let Some(writer) = out.as_mut() else { return Ok(()) };
        let appended = settled.into_iter().try_for_each(|(j, resp)| {
            let m = self.jobs[j].size();
            validate_response(m, resp)?;
            put_record(writer, j, m, resp)?;
            CHECKPOINT_SAVES.incr();
            Ok(())
        });
        let flushed = appended.and_then(|()| writer.flush(false));
        if flushed.is_err() {
            *out = None;
        }
        flushed
    }

    /// Waits until every appended record is on the disk.
    pub fn sync(&self) -> Result<(), CheckpointError> {
        let mut out = self.out.lock().expect("journal poisoned");
        out.as_mut().map_or(Ok(()), |writer| writer.flush(true))
    }
}

/// Rewrites the checkpoint at `path` without the records of the jobs `pick`
/// selects (by job index) — the file a run killed with exactly those jobs
/// outstanding leaves behind. Returns how many records it dropped.
pub fn drop_jobs(
    path: &Path,
    decomposition: &Decomposition,
    sys: &MolecularSystem,
    engine: &str,
    mut pick: impl FnMut(usize) -> bool,
) -> Result<usize, CheckpointError> {
    let journal = Journal::open(path, decomposition, sys, engine)?;
    let kept: Vec<usize> =
        (0..decomposition.jobs.len()).filter(|&j| journal.holds(j) && !pick(j)).collect();
    container::write(path, &header(decomposition, sys, engine), kept.len(), |i, out| {
        let j = kept[i];
        put_record(out, j, decomposition.jobs[j].size(), &journal.read(j)?)
    })?;
    Ok(journal.resumed() - kept.len())
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

    /// A fresh directory for one test.
    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Journals the responses of the jobs `keep` selects at `path`, in job
    /// order.
    fn save(
        path: &Path,
        d: &Decomposition,
        sys: &MolecularSystem,
        engine: &str,
        responses: &[FragmentResponse],
        keep: impl Fn(usize) -> bool,
    ) {
        std::fs::remove_file(path).ok();
        let journal = Journal::open(path, d, sys, engine).unwrap();
        journal.append(responses.iter().enumerate().filter(|(j, _)| keep(*j))).unwrap();
        journal.sync().unwrap();
    }

    fn assert_bits(got: &FragmentResponse, want: &FragmentResponse, j: usize) {
        let bits = |m: &DMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let pairs =
            [(&got.hessian, &want.hessian), (&got.dalpha, &want.dalpha), (&got.dmu, &want.dmu)];
        for (got, want) in pairs {
            assert_eq!(got.shape(), want.shape(), "job {j}");
            assert_eq!(bits(got), bits(want), "job {j}");
        }
    }

    #[test]
    fn round_trip_bitexact() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_rt");
        let path = dir.join("responses.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        let loaded = Journal::open(&path, &d, &sys, FF).unwrap();
        assert_eq!(loaded.resumed(), responses.len());
        for (j, want) in responses.iter().enumerate() {
            assert_bits(&loaded.read(j).unwrap(), want, j);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Protein fragments of up to 61 atoms make records several chunks
    /// long; every response still reads back bit for bit.
    #[test]
    fn multi_chunk_blocks_round_trip_bitexact() {
        let (sys, d, responses) = responses_of(ProteinBuilder::new(6).build());
        let dir = temp_dir("qfr_ckpt_test_chunks");
        let path = dir.join("protein.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        let loaded = Journal::open(&path, &d, &sys, FF).unwrap();
        let longest = (0..d.jobs.len()).map(|r| loaded.file.block_len(r)).max().unwrap();
        assert!(longest > CHUNK, "longest record is {longest} bytes, within one chunk");
        for (j, want) in responses.iter().enumerate() {
            assert_bits(&loaded.read(j).unwrap(), want, j);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record whose `m` word names another fragment size is rejected
    /// with the job's format error.
    #[test]
    fn m_word_disagreeing_with_its_job_rejected() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_mword");
        let path = dir.join("responses.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        let mut bytes = std::fs::read(&path).unwrap();
        // The header is 24 bytes; record 0 (job 0) starts with its index.
        let m = d.jobs[0].size();
        bytes[32..40].copy_from_slice(&(m as u64 + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::open(&path, &d, &sys, FF).err().unwrap();
        let want = format!("checkpoint format error: job 0: record of {} atoms, not {m}", m + 1);
        assert_eq!(err.to_string(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_rejects_other_system() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_fp");
        let path = dir.join("responses.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        // A different box has a different decomposition.
        let other_sys = WaterBoxBuilder::new(7).seed(2).build();
        let other = Decomposition::new(&other_sys, DecompositionParams::default());
        let err = Journal::open(&path, &other, &other_sys, FF).err().unwrap();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Responses of one engine never resume a run of another: the file
    /// written by one fails the other's load with the fingerprint error.
    #[test]
    fn fingerprint_rejects_other_engine() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_engine");
        let path = dir.join("responses.qfrc");
        let dfpt = qfr_dfpt::DfptEngine::new().name();
        assert_eq!(engine_fingerprint(&d, &sys, FF), fingerprint(&d, &sys));
        assert_ne!(engine_fingerprint(&d, &sys, dfpt), fingerprint(&d, &sys));
        for (saved, loaded) in [(dfpt, FF), (FF, dfpt)] {
            save(&path, &d, &sys, saved, &responses, |_| true);
            let err = Journal::open(&path, &d, &sys, loaded).err().unwrap();
            assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }), "{err}");
            assert!(Journal::open(&path, &d, &sys, saved).is_ok(), "{saved} reloads its own file");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_file_rejected() {
        let dir = temp_dir("qfr_ckpt_test_bad");
        let path = dir.join("garbage.qfrc");
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        let (sys, d, _) = setup();
        let err = Journal::open(&path, &d, &sys, FF).err().unwrap();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"not a checkpoint at all");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file cut inside its header is no journal at all.
    #[test]
    fn truncated_file_rejected() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_trunc");
        let path = dir.join("responses.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        let full = std::fs::read(&path).unwrap();
        for cut in [4, 16, 23] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = Journal::open(&path, &d, &sys, FF).err().unwrap();
            assert!(matches!(err, CheckpointError::Format(_)), "{cut} bytes: {err}");
            assert_eq!(std::fs::read(&path).unwrap(), &full[..cut], "file touched");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A last record cut anywhere — inside its head words or its matrices —
    /// is dropped on load, and cut off by a resume, which appends after the
    /// last whole record.
    #[test]
    fn torn_last_record_is_dropped() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_torn");
        let path = dir.join("responses.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        let full = std::fs::read(&path).unwrap();
        let last = d.jobs.len() - 1;
        let record = 16 + 8 * (9 * d.jobs[last].size().pow(2) + 27 * d.jobs[last].size());
        for cut in [1, 8, 15, 16, record - 1] {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let loaded = Journal::open(&path, &d, &sys, FF).unwrap();
            assert_eq!(loaded.resumed(), d.jobs.len() - 1, "cut {cut}");
            assert!(!loaded.holds(last), "cut {cut}");
            let resumed = Journal::open(&path, &d, &sys, FF).unwrap();
            resumed.append([(last, &responses[last])]).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), full, "cut {cut}: resume re-appends");
        }
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

    /// Jobs appended out of order read back by job index; absent ones are
    /// not held.
    #[test]
    fn partial_round_trip_preserves_presence() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_partial");
        let path = dir.join("partial.qfrc");
        let journal = Journal::open(&path, &d, &sys, FF).unwrap();
        let even = (0..responses.len()).rev().filter(|j| j % 2 == 0);
        journal.append(even.map(|j| (j, &responses[j]))).unwrap();
        let loaded = Journal::open(&path, &d, &sys, FF).unwrap();
        assert_eq!(loaded.resumed(), responses.len().div_ceil(2));
        for (j, want) in responses.iter().enumerate() {
            assert_eq!(loaded.holds(j), j % 2 == 0, "job {j}");
            if loaded.holds(j) {
                assert_bits(&loaded.read(j).unwrap(), want, j);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Files of an older format version (v1 and v2 were geometry-blind, v3
    /// had a presence bitmap, v4 rewrote one block per job) are a typed
    /// version error, never trusted.
    #[test]
    fn v1_and_v2_headers_rejected() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_legacy");
        let path = dir.join("legacy.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        let current = std::fs::read(&path).unwrap();
        for version in [1u32, 2, 3, 4] {
            let mut legacy = current.clone();
            legacy[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &legacy).unwrap();
            let err = Journal::open(&path, &d, &sys, FF).err().unwrap();
            assert!(
                matches!(err, CheckpointError::Version { found, expected: 5 } if found == version),
                "v{version}: {err}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), legacy, "v{version}: file touched");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Index past the job count and a job recorded twice are format errors.
    #[test]
    fn foreign_and_duplicate_records_rejected() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_records");
        let path = dir.join("responses.qfrc");
        save(&path, &d, &sys, FF, &responses, |j| j < 2);
        let good = std::fs::read(&path).unwrap();
        let second = 24 + 16 + 8 * (9 * d.jobs[0].size().pow(2) + 27 * d.jobs[0].size());
        let n = d.jobs.len() as u64;
        for (index, want) in [
            (n, format!("record of job {n}, past the {n} jobs")),
            (0, "job 0 recorded twice".into()),
        ] {
            let mut bytes = good.clone();
            bytes[second..second + 8].copy_from_slice(&index.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = Journal::open(&path, &d, &sys, FF).err().unwrap();
            assert_eq!(err.to_string(), format!("checkpoint format error: {want}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A malformed response is refused before any of its bytes reach the
    /// file, and the journal then appends nothing more.
    #[test]
    fn malformed_response_shapes_rejected_before_write() {
        let (sys, d, mut responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_shape");
        let path = dir.join("bad.qfrc");
        let good = responses[1].clone();
        responses[0].dalpha = DMatrix::zeros(5, 5);
        responses[1].dmu = DMatrix::zeros(1, 1);
        for bad in [0, 1] {
            std::fs::remove_file(&path).ok();
            let journal = Journal::open(&path, &d, &sys, FF).unwrap();
            let empty = std::fs::read(&path).unwrap();
            let err = journal.append([(bad, &responses[bad])]).unwrap_err();
            assert!(matches!(err, CheckpointError::Format(_)), "{err}");
            journal.append([(1, &good)]).unwrap();
            journal.sync().unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), empty, "job {bad}: the journal wrote on");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temp_names_are_unique_per_write() {
        // Two successive rewrites of one path leave no temp droppings in
        // the directory. That the pid+sequence temp names never repeat is
        // `container::tests::temp_sequence_never_repeats`.
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_tmpname");
        let path = dir.join("clean.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        assert_eq!(drop_jobs(&path, &d, &sys, FF, |j| j == 0).unwrap(), 1);
        assert_eq!(drop_jobs(&path, &d, &sys, FF, |j| j == 1).unwrap(), 1);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away: {leftovers:?}");
        assert_eq!(Journal::open(&path, &d, &sys, FF).unwrap().resumed(), d.jobs.len() - 2);
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
        let dir = temp_dir("qfr_ckpt_test_displaced");
        let path = dir.join("displaced.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        // Displace the geometry; the decomposition's job list (indices,
        // coefficients, link-H count) is structurally identical.
        let mut moved = sys.clone();
        for a in &mut moved.atoms {
            a.position.x += 0.25;
            a.position.y -= 0.1;
        }
        let d_moved = Decomposition::new(&moved, DecompositionParams::default());
        assert_eq!(d_moved.jobs.len(), d.jobs.len(), "same job structure");
        let err = Journal::open(&path, &d_moved, &moved, FF).err().unwrap();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed write must leave no `.{name}.{pid}.{seq}.tmp` droppings:
    /// the drop guard cleans the temp on every error exit, here a rename
    /// failure forced by rewriting onto a path that became a directory.
    #[test]
    fn failed_save_leaves_no_temp_files() {
        let (sys, d, responses) = setup();
        let dir = temp_dir("qfr_ckpt_test_failsave");
        let path = dir.join("journal.qfrc");
        save(&path, &d, &sys, FF, &responses, |_| true);
        let header = header(&d, &sys, FF);
        // The target path is an existing non-empty directory: the temp
        // file writes fine, the rename onto it fails.
        let target = dir.join("is_a_dir.qfrc");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let err = container::write(&target, &header, 0, |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        let err = Journal::open(&target, &d, &sys, FF).err().unwrap();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "failed write must clean its temp: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
