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
//! Lanczos stage holds one tile plus its vectors: `O(n/K + window)`.
//!
//! ## File format (v1, little-endian)
//!
//! Magic `QFRS`, version u32 (= 1), fingerprint u64, then the geometry
//! header (`n_atoms`, `K`, shard index, atom range, `tile_rows`, tile
//! count, present-tile count — all u64), a tile presence bitmap of
//! `ceil(n_tiles/8)` bytes in the checkpoint bitmap layout (bit `t` of byte
//! `t/8`), the total nnz (u64), the mass-weighted ∂α (6 rows) and ∂μ
//! (3 rows) spans as f64 arrays over the shard's dof window, a per-tile
//! nnz table (u64 each, absent tiles zero), and finally one CSR block per
//! *present* tile in ascending tile order: `rows` u32, `row_ptr` as
//! `rows + 1` u64, `col_idx` u32 each, `values` f64 each. Saves go through
//! the checkpoint module's atomic temp-name write (pid+sequence temp file,
//! fsync, rename, drop-guard cleanup), so a killed worker leaves either a
//! complete file or none — never a torn one. The presence bitmap guards
//! against hand-truncated or partially copied files the way the
//! checkpoint's job bitmap does: an incomplete shard is rejected at open
//! and recomputed.
//!
//! ## The fingerprint
//!
//! A shard file is keyed by the checkpoint v3 geometry-aware fingerprint of
//! the decomposition folded with the shard geometry (`K`, shard index,
//! `tile_rows`, `n_atoms`), so moving an atom, changing λ, resharding, or
//! retiling all invalidate stale spills — the same contract checkpoints
//! acquired when v3 fixed their geometry-blind keys.
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

use crate::checkpoint::{atomic_write, CheckpointError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use qfr_fragment::{FragmentJob, FragmentResponse, MassWeighted, RowRangeAccumulator};
use qfr_geom::MolecularSystem;
use qfr_linalg::CsrMatrix;
use qfr_solver::{CsrTile, TileSource};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: &[u8; 4] = b"QFRS";
const VERSION: u32 = 1;

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

/// Errors from shard planning and spill I/O.
pub type ShardError = CheckpointError;

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

/// Folds the checkpoint v3 decomposition fingerprint with the shard
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
) -> Result<(), ShardError>
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
    let bytes = encode_shard(plan, shard, tile_rows, fingerprint, &mw);
    let len = bytes.len() as u64;
    atomic_write(path, &bytes)?;
    SHARD_BYTES_SPILLED.add(len);
    SHARD_SHARDS_BUILT.incr();
    Ok(())
}

fn encode_shard(
    plan: &ShardPlan,
    shard: usize,
    tile_rows: usize,
    fingerprint: u64,
    mw: &MassWeighted,
) -> BytesMut {
    let range = plan.range(shard);
    let span = dof_span(&range);
    let n_tiles = n_tiles_of(span, tile_rows);
    let (row_ptr, col_idx, values) = mw.hessian.raw_parts();

    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(fingerprint);
    for v in [
        plan.n_atoms as u64,
        plan.k as u64,
        shard as u64,
        range.start as u64,
        range.end as u64,
        tile_rows as u64,
        n_tiles as u64,
        n_tiles as u64, // present count: a fresh save always has every tile
    ] {
        buf.put_u64_le(v);
    }
    let mut bitmap = vec![0u8; n_tiles.div_ceil(8)];
    for t in 0..n_tiles {
        bitmap[t / 8] |= 1 << (t % 8);
    }
    buf.put_slice(&bitmap);
    buf.put_u64_le(mw.hessian.nnz() as u64);
    for dvec in mw.dalpha.iter().chain(mw.dmu.iter()) {
        for &v in dvec {
            buf.put_f64_le(v);
        }
    }
    // Per-tile nnz table, then the tile CSR blocks.
    let tile_bounds: Vec<(usize, usize)> = (0..n_tiles)
        .map(|t| {
            let lo = t * tile_rows;
            (lo, (lo + tile_rows).min(span))
        })
        .collect();
    for &(lo, hi) in &tile_bounds {
        buf.put_u64_le((row_ptr[hi] - row_ptr[lo]) as u64);
    }
    for &(lo, hi) in &tile_bounds {
        let base = row_ptr[lo];
        buf.put_u32_le((hi - lo) as u32);
        for r in lo..=hi {
            buf.put_u64_le((row_ptr[r] - base) as u64);
        }
        for &c in &col_idx[row_ptr[lo]..row_ptr[hi]] {
            buf.put_u32_le(c);
        }
        for &v in &values[row_ptr[lo]..row_ptr[hi]] {
            buf.put_f64_le(v);
        }
    }
    buf
}

/// Parsed header of one shard spill file.
#[derive(Debug, Clone)]
pub struct ShardMeta {
    /// Atom range the file covers.
    pub atom_range: Range<usize>,
    /// Dof rows per tile.
    pub tile_rows: usize,
    /// Tiles the geometry implies.
    pub n_tiles: usize,
    /// Per-tile presence (checkpoint bitmap layout).
    pub present: Vec<bool>,
    /// Total stored non-zeros.
    pub nnz: u64,
    /// Per-tile nnz.
    tile_nnz: Vec<u64>,
    /// Absolute byte offset of each present tile's block.
    tile_offset: Vec<u64>,
    /// Mass-weighted ∂α span (6 x dof_span).
    dalpha: [Vec<f64>; 6],
    /// Mass-weighted ∂μ span (3 x dof_span).
    dmu: [Vec<f64>; 3],
}

impl ShardMeta {
    /// True when every tile the geometry implies is present.
    pub fn is_complete(&self) -> bool {
        self.present.iter().all(|&p| p)
    }
}

/// Reads and validates a shard file's header (not the tile payloads).
///
/// Rejects wrong magic/version, a fingerprint that does not match
/// `expected` (stale geometry, different K/tiling), a bitmap disagreeing
/// with its present count, and truncated headers.
pub fn load_shard_meta(
    path: &Path,
    plan: &ShardPlan,
    shard: usize,
    tile_rows: usize,
    expected: u64,
) -> Result<ShardMeta, ShardError> {
    let raw = std::fs::read(path)?;
    let file_len = raw.len() as u64;
    let mut buf = Bytes::from(raw);
    if buf.remaining() < 4 + 4 + 8 {
        return Err(ShardError::Format("shard file too short".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ShardError::Format("bad shard magic".into()));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(ShardError::Format(format!("unsupported shard version {version}")));
    }
    let found = buf.get_u64_le();
    if found != expected {
        return Err(ShardError::FingerprintMismatch { found, expected });
    }
    if buf.remaining() < 8 * 8 {
        return Err(ShardError::Format("truncated shard header".into()));
    }
    let n_atoms = buf.get_u64_le() as usize;
    let k = buf.get_u64_le() as usize;
    let s = buf.get_u64_le() as usize;
    let lo = buf.get_u64_le() as usize;
    let hi = buf.get_u64_le() as usize;
    let file_tile_rows = buf.get_u64_le() as usize;
    let n_tiles = buf.get_u64_le() as usize;
    let present_count = buf.get_u64_le() as usize;
    let range = plan.range(shard);
    if n_atoms != plan.n_atoms
        || k != plan.k
        || s != shard
        || lo != range.start
        || hi != range.end
        || file_tile_rows != tile_rows
    {
        return Err(ShardError::Format("shard geometry does not match the plan".into()));
    }
    let span = dof_span(&range);
    if n_tiles != n_tiles_of(span, tile_rows) {
        return Err(ShardError::Format("tile count does not match the geometry".into()));
    }
    let bitmap_len = n_tiles.div_ceil(8);
    if buf.remaining() < bitmap_len + 8 {
        return Err(ShardError::Format("truncated tile bitmap".into()));
    }
    let mut bitmap = vec![0u8; bitmap_len];
    buf.copy_to_slice(&mut bitmap);
    let present: Vec<bool> = (0..n_tiles).map(|t| bitmap[t / 8] & (1 << (t % 8)) != 0).collect();
    if present.iter().filter(|&&p| p).count() != present_count {
        return Err(ShardError::Format("tile bitmap disagrees with present count".into()));
    }
    let nnz = buf.get_u64_le();
    if buf.remaining() < 9 * span * 8 + n_tiles * 8 {
        return Err(ShardError::Format("truncated derivative spans".into()));
    }
    let mut read_span = || -> Vec<f64> { (0..span).map(|_| buf.get_f64_le()).collect() };
    let dalpha: [Vec<f64>; 6] = std::array::from_fn(|_| read_span());
    let dmu: [Vec<f64>; 3] = std::array::from_fn(|_| read_span());
    let tile_nnz: Vec<u64> = (0..n_tiles).map(|_| buf.get_u64_le()).collect();
    if tile_nnz.iter().sum::<u64>() != nnz {
        return Err(ShardError::Format("tile nnz table disagrees with total".into()));
    }

    // Tile block offsets follow from the geometry: blocks of present tiles
    // are packed in ascending order right after the nnz table.
    let mut offset = file_len - buf.remaining() as u64;
    let mut tile_offset = vec![0u64; n_tiles];
    for t in 0..n_tiles {
        if !present[t] {
            continue;
        }
        tile_offset[t] = offset;
        let rows = tile_bounds(span, tile_rows, t);
        offset += 4 + 8 * (rows as u64 + 1) + 12 * tile_nnz[t];
    }
    if offset != file_len {
        return Err(ShardError::Format("shard payload length mismatch".into()));
    }
    Ok(ShardMeta {
        atom_range: range,
        tile_rows,
        n_tiles,
        present,
        nnz,
        tile_nnz,
        tile_offset,
        dalpha,
        dmu,
    })
}

/// Rows of tile `t` in a shard of `span` dof rows.
fn tile_bounds(span: usize, tile_rows: usize, t: usize) -> usize {
    let lo = t * tile_rows;
    (lo + tile_rows).min(span) - lo
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
    load_shard_meta(path, plan, shard, tile_rows, expected).is_ok_and(|m| m.is_complete())
}

struct ShardHandle {
    file: Mutex<std::fs::File>,
    meta: ShardMeta,
}

/// Read side of a spill directory: opens every valid shard file and serves
/// their tiles to the solver in ascending global row order.
///
/// Shards whose file is absent, incomplete, or stale are *missing*: their
/// tiles stream as `None` (zero rows, partial spectrum) and their indices
/// are reported by [`ShardStore::missing_shards`].
pub struct ShardStore {
    plan: ShardPlan,
    tile_rows: usize,
    shards: Vec<Option<ShardHandle>>,
    /// Global tile index -> (shard, local tile, global row0, rows).
    tiles: Vec<(usize, usize, usize, usize)>,
    dalpha: [Vec<f64>; 6],
    dmu: [Vec<f64>; 3],
}

impl ShardStore {
    /// Opens the spill directory, tolerating missing or invalid shards.
    ///
    /// `base` is the checkpoint v3 fingerprint of the decomposition; each
    /// shard file must match its [`shard_fingerprint`].
    pub fn open(
        dir: &Path,
        plan: ShardPlan,
        tile_rows: usize,
        base: u64,
    ) -> Result<Self, ShardError> {
        assert!(tile_rows > 0, "tile_rows must be positive");
        let dim = 3 * plan.n_atoms;
        let mut shards = Vec::with_capacity(plan.k);
        let mut tiles = Vec::new();
        let mut dalpha: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; dim]);
        let mut dmu: [Vec<f64>; 3] = std::array::from_fn(|_| vec![0.0; dim]);
        for s in 0..plan.k {
            let range = plan.range(s);
            let span = dof_span(&range);
            let fp = shard_fingerprint(base, &plan, s, tile_rows);
            let path = shard_path(dir, s);
            let handle = match load_shard_meta(&path, &plan, s, tile_rows, fp) {
                Ok(meta) if meta.is_complete() => {
                    let file = std::fs::File::open(&path)?;
                    for c in 0..6 {
                        dalpha[c][3 * range.start..3 * range.end].copy_from_slice(&meta.dalpha[c]);
                    }
                    for c in 0..3 {
                        dmu[c][3 * range.start..3 * range.end].copy_from_slice(&meta.dmu[c]);
                    }
                    Some(ShardHandle { file: Mutex::new(file), meta })
                }
                _ => None,
            };
            for t in 0..n_tiles_of(span, tile_rows) {
                tiles.push((
                    s,
                    t,
                    3 * range.start + t * tile_rows,
                    tile_bounds(span, tile_rows, t),
                ));
            }
            shards.push(handle);
        }
        Ok(Self { plan, tile_rows, shards, tiles, dalpha, dmu })
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
        self.shards.iter().flatten().map(|h| h.meta.nnz as usize).sum()
    }

    /// Mass-weighted ∂α vectors (missing shards' spans are zero).
    pub fn dalpha(&self) -> &[Vec<f64>; 6] {
        &self.dalpha
    }

    /// Mass-weighted ∂μ vectors (missing shards' spans are zero).
    pub fn dmu(&self) -> &[Vec<f64>; 3] {
        &self.dmu
    }

    fn read_tile(&self, handle: &ShardHandle, local: usize, rows: usize) -> CsrMatrix {
        use std::io::{Read, Seek, SeekFrom};
        let nnz = handle.meta.tile_nnz[local] as usize;
        let len = 4 + 8 * (rows + 1) + 12 * nnz;
        let mut raw = vec![0u8; len];
        {
            let mut f = handle.file.lock().expect("shard file poisoned");
            f.seek(SeekFrom::Start(handle.meta.tile_offset[local])).expect("shard seek");
            f.read_exact(&mut raw).expect("shard tile read");
        }
        let mut buf = Bytes::from(raw);
        let stored_rows = buf.get_u32_le() as usize;
        assert_eq!(stored_rows, rows, "tile row count disagrees with geometry");
        let row_ptr: Vec<usize> = (0..=rows).map(|_| buf.get_u64_le() as usize).collect();
        let col_idx: Vec<u32> = (0..nnz).map(|_| buf.get_u32_le()).collect();
        let values: Vec<f64> = (0..nnz).map(|_| buf.get_f64_le()).collect();
        CsrMatrix::from_raw_parts(rows, 3 * self.plan.n_atoms, row_ptr, col_idx, values)
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
        let handle = self.shards[s].as_ref()?;
        let matrix = self.read_tile(handle, local, rows);
        SHARD_TILES_STREAMED.incr();
        Some(CsrTile { row0, matrix })
    }
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
