//! Out-of-core sharded assembly of the Eq. (1) operators.
//!
//! An in-core run holds every Hessian row at once: peak RSS is `O(n)`, and
//! the 10⁸-atom run is memory-bound long before it is worker-bound. Here
//! the **atoms** are split into `K` contiguous ranges ([`ShardPlan`]); a
//! shard worker runs the one Eq. (1) fold
//! ([`qfr_fragment::RowRangeAccumulator`]) over its range, re-deriving only
//! the responses that touch it, mass-weights the rows in place and spills
//! them as fixed-height CSR tiles to `shard-NNNNN.qfrs`. [`ShardStore`]
//! serves the tiles back through [`qfr_solver::TileSource`], so the
//! Lanczos stage holds one tile per worker plus its vectors.
//!
//! ## File format (QFRS v2)
//!
//! A file of the crate's one `container` codec: magic `QFRS`, version 2,
//! geometry words `(n_atoms, K, shard, lo, hi, tile_rows)` and `1 + n_tiles`
//! blocks. Block 0 holds the mass-weighted ∂α (6 rows) and ∂μ (3 rows) spans
//! over the shard's dof window, f64; block `1 + t` is CSR tile `t`: `rows`
//! u32, `row_ptr` as `rows + 1` u64, then `col_idx` u32 and `values` f64 per
//! non-zero, so its nnz follows from its length. Block lengths that disagree
//! with the geometry reject the file at open, and the shard is rebuilt.
//!
//! ## The fingerprint
//!
//! A shard file is keyed by the checkpoint's geometry-aware fingerprint of
//! the decomposition folded with the shard geometry (`K`, shard index,
//! `tile_rows`, `n_atoms`), so moving an atom, changing λ, resharding, or
//! retiling all invalidate stale spills — the checkpoints' own contract.
//!
//! ## Why `K` cannot change the spectrum
//!
//! Every Hessian row belongs to exactly one shard, and in-core assembly is
//! the same accumulator with one range. `add` sums into the `(r, c)` slot
//! in the order jobs are added (within a job, in atom-pair order); a shard
//! build adds the *same* jobs in the *same* order, skipping only those
//! that contribute nothing to its rows, so every slot of row `r` receives
//! the identical add sequence and `finish` emits the same non-zeros in the
//! same column order. Mass weighting is one function too, and the streamed
//! SpMV computes each `y[r]` as the same dot product over the same entries
//! — identical `y`, identical Lanczos recursion, bit-identical spectrum
//! for every `K`, which `ablation_shards` pins in CI.

use crate::checkpoint::CheckpointError;
use crate::container::{self, Container, Header};
use bytes::BufMut;
use qfr_fragment::{FragmentJob, FragmentResponse, MassWeighted, RowRangeAccumulator};
use qfr_geom::MolecularSystem;
use qfr_linalg::CsrMatrix;
use qfr_solver::{CsrTile, TileSource};
use std::ops::Range;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"QFRS";
const VERSION: u32 = 2;

/// Bytes one block read moves: a tile or the spans block is decoded in
/// pieces this size, never held whole as bytes. A multiple of every word
/// width, so no word straddles two pieces.
const CHUNK: usize = 64 << 10;

// Shard lifecycle counters. Spilled bytes and tile geometry are pure
// functions of the system, λ, K and tile_rows; the number of streamed
// tiles is (present tiles) x (matvec count), and the Lanczos step count is
// fixed by the options — all deterministic, all CI-gateable.
static SHARD_BYTES_SPILLED: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("shard.bytes_spilled");
static SHARD_TILES_STREAMED: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("shard.tiles_streamed");
static SHARD_SHARDS_BUILT: qfr_obs::Counter = qfr_obs::Counter::deterministic("shard.shards_built");
static SHARD_SHARDS_RESUMED: qfr_obs::Counter =
    qfr_obs::Counter::deterministic("shard.shards_resumed");

/// Contiguous-range partition of `n_atoms` atoms into `k` shards.
///
/// The split is balanced: the first `n_atoms % k` shards own one extra
/// atom. Ranges tile `0..n_atoms` exactly — no overlap, no gap — for
/// *every* `(n_atoms, k)` (the proptest in `tests/shard.rs` pins this),
/// including `k > n_atoms`, where trailing shards own empty ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n_atoms: usize,
    k: usize,
}

impl ShardPlan {
    /// Plan for `n_atoms` atoms in `k` shards.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(n_atoms: usize, k: usize) -> Self {
        assert!(k > 0, "shard count must be positive");
        Self { n_atoms, k }
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of atoms partitioned.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Atom range owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        assert!(s < self.k, "shard {s} out of {}", self.k);
        let base = self.n_atoms / self.k;
        let extra = self.n_atoms % self.k;
        let lo = s * base + s.min(extra);
        let hi = lo + base + usize::from(s < extra);
        lo..hi
    }

    /// All shard ranges in ascending order.
    pub fn ranges(&self) -> Vec<Range<usize>> {
        (0..self.k).map(|s| self.range(s)).collect()
    }

    /// The shard owning `atom`.
    pub fn shard_of(&self, atom: usize) -> usize {
        assert!(atom < self.n_atoms, "atom {atom} out of {}", self.n_atoms);
        let base = self.n_atoms / self.k;
        let extra = self.n_atoms % self.k;
        let boundary = extra * (base + 1);
        if atom < boundary {
            atom / (base + 1)
        } else {
            extra + (atom - boundary) / base
        }
    }
}

/// Folds the checkpoint decomposition fingerprint with the shard
/// geometry: different `K`, shard index, tile height, or atom count mean a
/// different key, so stale spills never validate.
pub fn shard_fingerprint(base: u64, plan: &ShardPlan, shard: usize, tile_rows: usize) -> u64 {
    let mut h = base ^ 0x53_48_41_52_44_u64; // "SHARD"
    for v in [plan.n_atoms as u64, plan.k as u64, shard as u64, tile_rows as u64] {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Spill file path of shard `s` under `dir`.
pub fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:05}.qfrs"))
}

fn dof_span(range: &Range<usize>) -> usize {
    3 * (range.end - range.start)
}

fn n_tiles_of(span: usize, tile_rows: usize) -> usize {
    span.div_ceil(tile_rows)
}

/// Local dof rows of tile `t` in a shard of `span` dof rows.
fn tile(span: usize, tile_rows: usize, t: usize) -> Range<usize> {
    t * tile_rows..((t + 1) * tile_rows).min(span)
}

/// Non-zeros of a `rows`-row tile stored in `len` bytes, if `len` fits.
fn tile_nnz(len: usize, rows: usize) -> Option<usize> {
    len.checked_sub(4 + 8 * (rows + 1)).filter(|b| b % 12 == 0).map(|b| b / 12)
}

fn header(plan: &ShardPlan, shard: usize, tile_rows: usize, fingerprint: u64) -> Header {
    let range = plan.range(shard);
    let geometry = [plan.n_atoms, plan.k, shard, range.start, range.end, tile_rows];
    Header {
        magic: MAGIC,
        version: VERSION,
        fingerprint,
        words: geometry.map(|w| w as u64).to_vec(),
        n_blocks: 1 + n_tiles_of(dof_span(&range), tile_rows),
    }
}

/// Accumulates, mass-weights and spills one shard.
///
/// `compute` produces the response of one fragment job (through the
/// engine, or the attached cache — responses are bit-identical either
/// way); it is invoked once per job whose atoms intersect the shard's
/// range, in global job order. The save is atomic; on success the
/// `shard.bytes_spilled` and `shard.shards_built` counters advance.
#[allow(clippy::too_many_arguments)]
pub fn build_shard<F>(
    path: &Path,
    sys: &MolecularSystem,
    jobs: &[FragmentJob],
    plan: &ShardPlan,
    shard: usize,
    tile_rows: usize,
    fingerprint: u64,
    mut compute: F,
) -> Result<(), CheckpointError>
where
    F: FnMut(&FragmentJob) -> FragmentResponse,
{
    assert!(tile_rows > 0, "tile_rows must be positive");
    let mut acc = RowRangeAccumulator::new(plan.range(shard), plan.n_atoms);
    for job in jobs {
        if acc.touches(job) {
            acc.add(job, &compute(job));
        }
    }
    let mw = MassWeighted::in_place(acc.finish(), &sys.masses());
    let span = dof_span(&plan.range(shard));
    let (row_ptr, col_idx, values) = mw.hessian.raw_parts();
    let header = header(plan, shard, tile_rows, fingerprint);
    let len = container::write(path, &header, |block, buf| {
        if block == 0 {
            mw.dalpha.iter().chain(&mw.dmu).flatten().for_each(|&v| buf.put_f64_le(v));
            return Ok(());
        }
        let rows = tile(span, tile_rows, block - 1);
        let (lo, hi) = (row_ptr[rows.start], row_ptr[rows.end]);
        buf.put_u32_le(rows.len() as u32);
        for r in rows.start..=rows.end {
            buf.put_u64_le((row_ptr[r] - lo) as u64);
        }
        col_idx[lo..hi].iter().for_each(|&c| buf.put_u32_le(c));
        values[lo..hi].iter().for_each(|&v| buf.put_f64_le(v));
        Ok(())
    })?;
    SHARD_BYTES_SPILLED.add(len);
    SHARD_SHARDS_BUILT.incr();
    Ok(())
}

/// Opens shard `shard`'s spill file: the container header, then every
/// block length against the geometry — 72 bytes per dof row of spans, and
/// per tile a CSR header plus whole 12-byte non-zeros. Payloads stay on
/// disk.
fn open_shard(
    path: &Path,
    plan: &ShardPlan,
    shard: usize,
    tile_rows: usize,
    expected: u64,
) -> Result<Container, CheckpointError> {
    let header = header(plan, shard, tile_rows, expected);
    let file = Container::open(path, &header)?;
    let span = dof_span(&plan.range(shard));
    let tiles_fit = (1..header.n_blocks)
        .all(|b| tile_nnz(file.block_len(b), tile(span, tile_rows, b - 1).len()).is_some());
    if file.block_len(0) != 72 * span || !tiles_fit {
        return Err(CheckpointError::Format("block lengths disagree with the geometry".into()));
    }
    Ok(file)
}

/// True when `path` holds a complete, geometry-matching shard spill —
/// the resume predicate: valid shards are skipped, anything else rebuilt.
pub fn shard_file_valid(
    path: &Path,
    plan: &ShardPlan,
    shard: usize,
    tile_rows: usize,
    expected: u64,
) -> bool {
    open_shard(path, plan, shard, tile_rows, expected).is_ok()
}

/// Read side of a spill directory: opens every valid shard file and serves
/// their tiles to the solver in ascending global row order.
///
/// Shards whose file is absent, truncated, or stale are *missing*: their
/// tiles stream as `None` (zero rows, partial spectrum) and their indices
/// are reported by [`ShardStore::missing_shards`].
pub struct ShardStore {
    plan: ShardPlan,
    tile_rows: usize,
    shards: Vec<Option<Container>>,
    /// Global tile index -> (shard, local tile, global row0, rows).
    tiles: Vec<(usize, usize, usize, usize)>,
    nnz: usize,
    dalpha: [Vec<f64>; 6],
    dmu: [Vec<f64>; 3],
}

impl ShardStore {
    /// Opens the spill directory, tolerating missing or invalid shards.
    ///
    /// `base` is the checkpoint fingerprint of the decomposition; each
    /// shard file must match its [`shard_fingerprint`].
    pub fn open(
        dir: &Path,
        plan: ShardPlan,
        tile_rows: usize,
        base: u64,
    ) -> Result<Self, CheckpointError> {
        assert!(tile_rows > 0, "tile_rows must be positive");
        let dim = 3 * plan.n_atoms;
        let mut shards = Vec::with_capacity(plan.k);
        let mut tiles = Vec::new();
        let mut nnz = 0;
        let mut dalpha: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; dim]);
        let mut dmu: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; dim]);
        for s in 0..plan.k {
            let range = plan.range(s);
            let span = dof_span(&range);
            let fp = shard_fingerprint(base, &plan, s, tile_rows);
            let file = open_shard(&shard_path(dir, s), &plan, s, tile_rows, fp).ok();
            if let Some(file) = &file {
                let mut spans = BlockReader::new(file, 0);
                for v in dalpha.iter_mut().chain(dmu.iter_mut()) {
                    let mut dst = v[3 * range.start..3 * range.end].iter_mut();
                    spans.read(8 * span, |piece| {
                        for (w, d) in words(piece).zip(&mut dst) {
                            *d = f64::from_le_bytes(w);
                        }
                    })?;
                }
            }
            for t in 0..n_tiles_of(span, tile_rows) {
                let rows = tile(span, tile_rows, t);
                if let Some(file) = &file {
                    nnz += tile_nnz(file.block_len(1 + t), rows.len()).expect("checked at open");
                }
                tiles.push((s, t, 3 * range.start + rows.start, rows.len()));
            }
            shards.push(file);
        }
        Ok(Self { plan, tile_rows, shards, tiles, nnz, dalpha, dmu })
    }

    /// The partition this store serves.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Dof rows per solver tile.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Indices of shards with no usable spill file.
    pub fn missing_shards(&self) -> Vec<usize> {
        (0..self.plan.k).filter(|&s| self.shards[s].is_none()).collect()
    }

    /// Total stored non-zeros across present shards.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Mass-weighted ∂α vectors (missing shards' spans are zero).
    pub fn dalpha(&self) -> &[Vec<f64>; 6] {
        &self.dalpha
    }

    /// Mass-weighted ∂μ vectors (missing shards' spans are zero).
    pub fn dmu(&self) -> &[Vec<f64>; 3] {
        &self.dmu
    }
}

impl TileSource for ShardStore {
    fn dim(&self) -> usize {
        3 * self.plan.n_atoms
    }

    fn n_tiles(&self) -> usize {
        self.tiles.len()
    }

    fn load_tile(&self, index: usize) -> Option<CsrTile> {
        let (s, local, row0, rows) = self.tiles[index];
        let file = self.shards[s].as_ref()?;
        let matrix = decode_tile(file, 1 + local, rows, self.dim()).expect("shard tile read");
        SHARD_TILES_STREAMED.incr();
        Some(CsrTile { row0, matrix })
    }
}

/// Decodes the `rows × dim` CSR tile in `block` section by section through
/// one [`CHUNK`]-sized buffer, straight into the CSR arrays. The file lock
/// is held per chunk, so concurrent loads of one shard's tiles interleave.
fn decode_tile(
    file: &Container,
    block: usize,
    rows: usize,
    dim: usize,
) -> Result<CsrMatrix, CheckpointError> {
    let nnz = tile_nnz(file.block_len(block), rows).expect("checked at open");
    let mut tile = BlockReader::new(file, block);
    let mut stored_rows = 0;
    tile.read(4, |piece| {
        stored_rows = words(piece).map(u32::from_le_bytes).next().expect("one word")
    })?;
    assert_eq!(stored_rows as usize, rows, "tile row count disagrees with geometry");
    let mut row_ptr = Vec::with_capacity(rows + 1);
    tile.read(8 * (rows + 1), |piece| {
        row_ptr.extend(words(piece).map(|w| u64::from_le_bytes(w) as usize));
    })?;
    let mut col_idx = Vec::with_capacity(nnz);
    tile.read(4 * nnz, |piece| col_idx.extend(words(piece).map(u32::from_le_bytes)))?;
    let mut values = Vec::with_capacity(nnz);
    tile.read(8 * nnz, |piece| values.extend(words(piece).map(f64::from_le_bytes)))?;
    Ok(CsrMatrix::from_raw_parts(rows, dim, row_ptr, col_idx, values))
}

/// Reads one block front to back in pieces of at most [`CHUNK`] bytes
/// through one reused buffer.
struct BlockReader<'a> {
    file: &'a Container,
    block: usize,
    /// Bytes of the block already read.
    at: usize,
    buf: Vec<u8>,
}

impl<'a> BlockReader<'a> {
    fn new(file: &'a Container, block: usize) -> Self {
        let buf = vec![0; CHUNK.min(file.block_len(block))];
        Self { file, block, at: 0, buf }
    }

    /// Reads the next `len` bytes, handing them to `take` piece by piece.
    fn read(&mut self, len: usize, mut take: impl FnMut(&[u8])) -> Result<(), CheckpointError> {
        let end = self.at + len;
        while self.at < end {
            let piece = &mut self.buf[..(end - self.at).min(CHUNK)];
            self.file.read_at(self.block, self.at, piece)?;
            take(piece);
            self.at += piece.len();
        }
        Ok(())
    }
}

/// The little-endian `W`-byte words of `piece`, whose length is a whole
/// number of words.
fn words<const W: usize>(piece: &[u8]) -> impl Iterator<Item = [u8; W]> + '_ {
    piece.chunks_exact(W).map(|w| w.try_into().expect("whole words"))
}

/// Records `n` shards resumed from valid spill files (counter hook for the
/// workflow's resume path).
pub(crate) fn note_shards_resumed(n: usize) {
    if n > 0 {
        SHARD_SHARDS_RESUMED.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::{Decomposition, DecompositionParams, FragmentEngine};
    use qfr_geom::WaterBoxBuilder;
    use qfr_model::ForceFieldEngine;
    use std::io::{Seek, SeekFrom, Write};

    /// A one-shard spill of a water box's first `n_jobs` jobs (all of them
    /// when `None`), opened as a store, beside the operator the same jobs
    /// assemble to in core.
    struct Spilled {
        store: ShardStore,
        want: MassWeighted,
        path: PathBuf,
    }

    fn spill(name: &str, waters: usize, n_jobs: Option<usize>, tile_rows: usize) -> Spilled {
        let sys = WaterBoxBuilder::new(waters).seed(3).build();
        let d = Decomposition::new(&sys, DecompositionParams::default());
        let jobs = &d.jobs[..n_jobs.unwrap_or(d.jobs.len())];
        let engine = ForceFieldEngine::new();
        let compute = |job: &FragmentJob| engine.compute(&job.structure(&sys));
        let dir = std::env::temp_dir().join("qfr_shard_unit").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let (plan, base) = (ShardPlan::new(sys.n_atoms(), 1), 7);
        let fp = shard_fingerprint(base, &plan, 0, tile_rows);
        let path = shard_path(&dir, 0);
        build_shard(&path, &sys, jobs, &plan, 0, tile_rows, fp, compute).unwrap();
        let store = ShardStore::open(&dir, plan, tile_rows, base).unwrap();
        let mut acc = RowRangeAccumulator::new(0..sys.n_atoms(), sys.n_atoms());
        jobs.iter().for_each(|job| acc.add(job, &compute(job)));
        let want = MassWeighted::in_place(acc.finish(), &sys.masses());
        Spilled { store, want, path }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every tile and span decodes to the bits `build_shard` wrote: one
    /// tile whose payload spans several chunks, and one-atom tiles of
    /// which those of atoms the first job leaves out hold no non-zeros.
    #[test]
    fn tiles_and_spans_read_back_as_written() {
        for (name, n_jobs, tile_rows) in [("multi_chunk", None, 243), ("empty", Some(1), 3)] {
            let Spilled { store, want, path } = spill(name, 27, n_jobs, tile_rows);
            let (row_ptr, col_idx, values) = want.hessian.raw_parts();
            let mut empty_tiles = 0;
            for t in 0..store.n_tiles() {
                let tile = store.load_tile(t).expect("present shard");
                let rows = tile.row0..tile.row0 + tile.matrix.rows();
                assert_eq!(rows, t * tile_rows..((t + 1) * tile_rows).min(store.dim()));
                let (lo, hi) = (row_ptr[rows.start], row_ptr[rows.end]);
                let got = tile.matrix.raw_parts();
                let ptr: Vec<usize> =
                    row_ptr[rows.start..=rows.end].iter().map(|r| r - lo).collect();
                assert_eq!(got.0, &ptr[..], "{name}: tile {t} row pointers");
                assert_eq!(got.1, &col_idx[lo..hi], "{name}: tile {t} columns");
                assert_eq!(bits(got.2), bits(&values[lo..hi]), "{name}: tile {t} values");
                empty_tiles += usize::from(lo == hi);
            }
            for (got, want) in store.dalpha().iter().zip(&want.dalpha) {
                assert_eq!(bits(got), bits(want), "{name}: dalpha");
            }
            for (got, want) in store.dmu().iter().zip(&want.dmu) {
                assert_eq!(bits(got), bits(want), "{name}: dmu");
            }
            if n_jobs.is_none() {
                let payload = 12 * want.hessian.nnz() + 8 * (tile_rows + 1);
                assert!(payload > 2 * CHUNK, "{payload}-byte tile fits in two chunks");
            } else {
                assert!(empty_tiles > 0, "no 0-nnz tile");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// Overwrites bytes of tile 0 at `at` (from the tile's start) in a
    /// spill that is already open.
    fn corrupt_tile0(spilled: &Spilled, at: usize, bytes: &[u8]) {
        let n_blocks = 1 + spilled.store.n_tiles() as u64;
        let tile0 = 16 + 8 * (6 + n_blocks) + 72 * spilled.store.dim() as u64;
        let mut file = std::fs::OpenOptions::new().write(true).open(&spilled.path).unwrap();
        file.seek(SeekFrom::Start(tile0 + at as u64)).unwrap();
        file.write_all(bytes).unwrap();
    }

    #[test]
    #[should_panic(expected = "row_ptr must be non-decreasing")]
    fn decreasing_row_pointer_written_after_open_panics() {
        let spilled = spill("corrupt_row_ptr", 4, None, 36);
        // Row 0 holds its diagonal, so a zero row_ptr[2] decreases.
        corrupt_tile0(&spilled, 4 + 2 * 8, &0u64.to_le_bytes());
        spilled.store.load_tile(0);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn column_past_the_dimension_written_after_open_panics() {
        let spilled = spill("corrupt_col", 4, None, 36);
        let dim = spilled.store.dim() as u32;
        corrupt_tile0(&spilled, 4 + 8 * 37, &dim.to_le_bytes());
        spilled.store.load_tile(0);
    }

    #[test]
    fn plan_ranges_tile_exactly() {
        for (n, k) in [(10, 3), (7, 7), (5, 9), (0, 4), (100, 1), (97, 16)] {
            let plan = ShardPlan::new(n, k);
            let ranges = plan.ranges();
            assert_eq!(ranges.len(), k);
            let mut cursor = 0;
            for r in &ranges {
                assert_eq!(r.start, cursor, "gap/overlap at {r:?} for n={n} k={k}");
                cursor = r.end;
            }
            assert_eq!(cursor, n, "cover must end at n_atoms");
            // Balance: sizes differ by at most one.
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn shard_of_inverts_range() {
        for (n, k) in [(10, 3), (97, 16), (5, 5), (12, 7)] {
            let plan = ShardPlan::new(n, k);
            for atom in 0..n {
                let s = plan.shard_of(atom);
                assert!(plan.range(s).contains(&atom), "atom {atom} n={n} k={k} -> shard {s}");
            }
        }
    }

    #[test]
    fn fingerprint_sensitive_to_geometry() {
        let plan = ShardPlan::new(100, 4);
        let f = shard_fingerprint(1, &plan, 0, 64);
        assert_ne!(f, shard_fingerprint(2, &plan, 0, 64), "base must enter");
        assert_ne!(f, shard_fingerprint(1, &plan, 1, 64), "shard index must enter");
        assert_ne!(f, shard_fingerprint(1, &plan, 0, 128), "tile height must enter");
        assert_ne!(f, shard_fingerprint(1, &ShardPlan::new(100, 5), 0, 64), "K must enter");
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let _ = ShardPlan::new(10, 0);
    }
}
