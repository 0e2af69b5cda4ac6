//! # qfr-cache
//!
//! Exact-only content-addressed fragment result cache: one response is
//! computed once and substituted for every bit-identical fragment, within
//! a run (shared across scheduler workers and concurrent spectrum
//! requests) and across runs (checkpoints pre-warm a cache slice).
//!
//! ## Keys and substitution guarantees
//!
//! Entries are stored under the fragment's **exact key**
//! ([`qfr_fragment::exact_key`]): element kinds, link-hydrogen flags,
//! bonds, and the raw position bits in local order. Two fragments with the
//! same exact key get bit-identical responses from any deterministic
//! engine, so a hit substitutes without any tolerance argument — cached
//! spectra are bit-identical to uncached ones. There is no other key: a
//! fragment that differs in any position bit is a miss.
//!
//! ## Single-compute semantics and counter determinism
//!
//! A miss installs a *pending* slot before computing; concurrent requests
//! for the same key block on it and count as hits once it resolves. Misses
//! are therefore exactly the number of distinct exact keys computed, and
//! `cache.hits`/`cache.misses`/`cache.bytes` are pure functions of the
//! workload — safe for the CI metrics gate — provided the working set fits
//! in the byte budget (evictions re-introduce misses in arrival order,
//! which is timing-dependent under parallelism).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use qfr_fragment::{exact_key, FragmentStructure, GeomKey};
use qfr_obs::Counter;

static HITS: Counter = Counter::deterministic("cache.hits");
static MISSES: Counter = Counter::deterministic("cache.misses");
static BYTES: Counter = Counter::deterministic("cache.bytes");
static EVICTIONS: Counter = Counter::timing_sensitive("cache.evictions");

/// Number of independent shards (lock striping).
const SHARDS: usize = 16;

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitKind {
    /// Exact-key hit: the returned response is bit-identical to what the
    /// engine would have produced.
    Exact,
    /// The response was computed by this request (and inserted).
    Miss,
}

/// Point-in-time cache statistics (resident state; the monotone event
/// counts live in the `cache.*` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Ready entries currently resident.
    pub entries: usize,
    /// Estimated resident payload bytes.
    pub resident_bytes: usize,
    /// Exact hits served since construction (this instance).
    pub hits: u64,
    /// Misses (unique computes) since construction (this instance).
    pub misses: u64,
    /// Always 0: the cache is exact-only. Kept so existing readers of
    /// this field keep compiling.
    pub near_hits: u64,
    /// Evictions since construction (this instance).
    pub evictions: u64,
}

/// A stored response.
struct Entry {
    response: Arc<qfr_fragment::FragmentResponse>,
    bytes: usize,
    /// Lazy LRU stamp: the highest queue stamp issued for this key.
    stamp: u64,
}

enum Slot {
    /// A compute is in flight; waiters block on the shard condvar.
    Pending,
    Ready(Entry),
}

#[derive(Default)]
struct ShardState {
    map: HashMap<GeomKey, Slot>,
    /// Lazy LRU queue of (exact key, stamp); stale stamps are skipped.
    lru: VecDeque<(GeomKey, u64)>,
    next_stamp: u64,
    resident_bytes: usize,
}

struct Shard {
    state: Mutex<ShardState>,
    ready: Condvar,
}

/// Content-addressed fragment result cache. Cheap to share: clone an
/// `Arc<FragmentCache>` into every worker / request.
pub struct FragmentCache {
    shards: Vec<Shard>,
    max_bytes: usize,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    evictions: std::sync::atomic::AtomicU64,
}

/// Result of [`FragmentCache::lookup`].
pub enum Lookup<'a> {
    /// Served from the cache (an exact hit).
    Hit(Arc<qfr_fragment::FragmentResponse>),
    /// The caller must compute and [`Ticket::fulfill`] (dropping the
    /// ticket unfulfilled releases the pending slot so another request
    /// retries the compute).
    MustCompute(Ticket<'a>),
}

/// Estimated payload bytes of a response for an `n`-atom fragment.
fn response_bytes(n_atoms: usize) -> usize {
    let d = 3 * n_atoms;
    (d * d + 6 * d + 3 * d) * std::mem::size_of::<f64>()
}

impl FragmentCache {
    /// A cache bounded to `max_bytes` resident payload bytes;
    /// least-recently-used entries are evicted to stay under it. `0`
    /// means unbounded.
    pub fn with_capacity(max_bytes: usize) -> Self {
        Self::with_shards(max_bytes, SHARDS)
    }

    fn with_shards(max_bytes: usize, shards: usize) -> Self {
        Self {
            shards: (0..shards)
                .map(|_| Shard { state: Mutex::new(ShardState::default()), ready: Condvar::new() })
                .collect(),
            max_bytes,
            hits: Default::default(),
            misses: Default::default(),
            evictions: Default::default(),
        }
    }

    fn shard(&self, key: GeomKey) -> &Shard {
        // High bits: FNV-1a mixes well; shard count is small.
        &self.shards[(key.0 >> 64) as usize % self.shards.len()]
    }

    /// Looks up `frag`; on a miss installs a pending slot and hands back a
    /// [`Ticket`] the caller must fulfill with the computed response.
    /// Concurrent lookups of the same key block until the ticket resolves
    /// and then count as hits, so misses are exactly the distinct keys
    /// computed.
    pub fn lookup(&self, frag: &FragmentStructure) -> Lookup<'_> {
        let key = exact_key(frag);
        let shard = self.shard(key);
        let mut st = shard.state.lock().expect("cache shard poisoned");
        loop {
            match st.map.get(&key) {
                Some(Slot::Ready(e)) => {
                    let resp = Arc::clone(&e.response);
                    self.touch(&mut st, key);
                    drop(st);
                    HITS.incr();
                    self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    return Lookup::Hit(resp);
                }
                Some(Slot::Pending) => {
                    st = shard.ready.wait(st).expect("cache shard poisoned");
                }
                None => break,
            }
        }
        st.map.insert(key, Slot::Pending);
        drop(st);
        MISSES.incr();
        self.misses.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Lookup::MustCompute(Ticket { cache: self, key, n_atoms: frag.n_atoms(), armed: true })
    }

    /// Convenience wrapper: lookup, computing on a miss via `compute`.
    pub fn get_or_compute(
        &self,
        frag: &FragmentStructure,
        compute: impl FnOnce() -> qfr_fragment::FragmentResponse,
    ) -> (Arc<qfr_fragment::FragmentResponse>, HitKind) {
        match self.lookup(frag) {
            Lookup::Hit(resp) => (resp, HitKind::Exact),
            Lookup::MustCompute(ticket) => (ticket.fulfill(compute()), HitKind::Miss),
        }
    }

    /// Inserts an externally computed response (checkpoint pre-warm).
    /// Counts toward `cache.bytes` but neither hits nor misses.
    pub fn insert_precomputed(
        &self,
        frag: &FragmentStructure,
        response: qfr_fragment::FragmentResponse,
    ) {
        self.install(exact_key(frag), Arc::new(response), frag.n_atoms());
    }

    /// Installs a Ready entry (resolving a pending slot if present),
    /// accounts bytes, evicts over-budget LRU entries, and wakes waiters.
    fn install(&self, key: GeomKey, response: Arc<qfr_fragment::FragmentResponse>, n_atoms: usize) {
        let bytes = response_bytes(n_atoms);
        let shard = self.shard(key);
        let mut st = shard.state.lock().expect("cache shard poisoned");
        let prev = st.map.insert(key, Slot::Ready(Entry { response, bytes, stamp: 0 }));
        let first_insert = !matches!(prev, Some(Slot::Ready(_)));
        if let Some(Slot::Ready(e)) = prev {
            st.resident_bytes -= e.bytes;
        }
        st.resident_bytes += bytes;
        self.touch(&mut st, key);
        self.evict_over_budget(&mut st);
        drop(st);
        if first_insert {
            BYTES.add(bytes as u64);
        }
        shard.ready.notify_all();
    }

    /// Marks `key` most-recently-used (lazy stamping).
    fn touch(&self, st: &mut ShardState, key: GeomKey) {
        st.next_stamp += 1;
        let stamp = st.next_stamp;
        if let Some(Slot::Ready(e)) = st.map.get_mut(&key) {
            e.stamp = stamp;
        }
        st.lru.push_back((key, stamp));
        // Lazy stamping leaves stale queue records behind on every touch;
        // compact once the queue outgrows the live set so hit-heavy runs
        // don't grow it unboundedly.
        if st.lru.len() > 4 * st.map.len() + 64 {
            let live: Vec<(GeomKey, u64)> = st
                .lru
                .iter()
                .copied()
                .filter(|&(k, s)| matches!(st.map.get(&k), Some(Slot::Ready(e)) if e.stamp == s))
                .collect();
            st.lru = live.into();
        }
    }

    /// Evicts least-recently-used Ready entries until this shard is under
    /// its share of the byte budget. Pending slots are never evicted.
    fn evict_over_budget(&self, st: &mut ShardState) {
        if self.max_bytes == 0 {
            return;
        }
        let budget = (self.max_bytes / self.shards.len()).max(1);
        while st.resident_bytes > budget {
            let Some((key, stamp)) = st.lru.pop_front() else { break };
            let stale = match st.map.get(&key) {
                Some(Slot::Ready(e)) => e.stamp != stamp,
                _ => true, // evicted already, or pending (re-stamped on install)
            };
            if stale {
                continue;
            }
            if let Some(Slot::Ready(e)) = st.map.remove(&key) {
                st.resident_bytes -= e.bytes;
                EVICTIONS.incr();
                self.evictions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// Point-in-time statistics for this instance.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut resident = 0;
        for sh in &self.shards {
            let st = sh.state.lock().expect("cache shard poisoned");
            entries += st.map.values().filter(|s| matches!(s, Slot::Ready(_))).count();
            resident += st.resident_bytes;
        }
        use std::sync::atomic::Ordering::Relaxed;
        CacheStats {
            entries,
            resident_bytes: resident,
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            near_hits: 0,
            evictions: self.evictions.load(Relaxed),
        }
    }

    /// Resident Ready-entry count.
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// True when no Ready entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for FragmentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("FragmentCache")
            .field("entries", &s.entries)
            .field("resident_bytes", &s.resident_bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

/// Permission (and obligation) to compute a missed entry. Fulfill with the
/// computed response; dropping the ticket unfulfilled (compute panicked or
/// was abandoned) releases the pending slot and wakes waiters so one of
/// them retries.
pub struct Ticket<'a> {
    cache: &'a FragmentCache,
    key: GeomKey,
    n_atoms: usize,
    armed: bool,
}

impl Ticket<'_> {
    /// The exact key this ticket will fill.
    pub fn key(&self) -> GeomKey {
        self.key
    }

    /// Stores the computed response, wakes waiters, and returns it.
    pub fn fulfill(
        mut self,
        response: qfr_fragment::FragmentResponse,
    ) -> Arc<qfr_fragment::FragmentResponse> {
        self.armed = false;
        let resp = Arc::new(response);
        self.cache.install(self.key, Arc::clone(&resp), self.n_atoms);
        resp
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Abandoned compute: clear the pending slot so a waiter retries.
        let shard = self.cache.shard(self.key);
        let mut st = shard.state.lock().expect("cache shard poisoned");
        if matches!(st.map.get(&self.key), Some(Slot::Pending)) {
            st.map.remove(&self.key);
        }
        drop(st);
        shard.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfr_fragment::{FragmentEngine, FragmentJob, JobKind};
    use qfr_geom::WaterBoxBuilder;
    use qfr_model::ForceFieldEngine;

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
    fn exact_hit_is_bit_identical() {
        let cache = FragmentCache::with_capacity(64 << 20);
        let engine = ForceFieldEngine::new();
        let frag = water_frag(4, 1, 2);
        let (first, k1) = cache.get_or_compute(&frag, || engine.compute(&frag));
        assert_eq!(k1, HitKind::Miss);
        let (second, k2) = cache.get_or_compute(&frag, || panic!("must not recompute"));
        assert_eq!(k2, HitKind::Exact);
        assert_eq!(first.hessian.as_slice(), second.hessian.as_slice());
        assert_eq!(first.dalpha.as_slice(), second.dalpha.as_slice());
        assert_eq!(first.dmu.as_slice(), second.dmu.as_slice());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_geometries_do_not_collide() {
        let cache = FragmentCache::with_capacity(64 << 20);
        let engine = ForceFieldEngine::new();
        let a = water_frag(4, 1, 0);
        let b = water_frag(4, 1, 1);
        cache.get_or_compute(&a, || engine.compute(&a));
        let (_, kind) = cache.get_or_compute(&b, || engine.compute(&b));
        assert_eq!(kind, HitKind::Miss);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        // One entry of a 3-atom water is 9*9+6*9+3*9 = 162 doubles = 1296 B.
        let one = response_bytes(3);
        let cache = FragmentCache::with_shards(2 * one, 1);
        let engine = ForceFieldEngine::new();
        let frags: Vec<_> = (0..3).map(|w| water_frag(3, 1, w)).collect();
        for f in &frags {
            cache.get_or_compute(f, || engine.compute(f));
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2, "third insert evicts the oldest");
        assert!(s.evictions >= 1);
        assert!(s.resident_bytes <= 2 * one);
        // frags[0] was evicted; re-requesting recomputes.
        let (_, kind) = cache.get_or_compute(&frags[0], || engine.compute(&frags[0]));
        assert_eq!(kind, HitKind::Miss);
    }

    #[test]
    fn touch_refreshes_lru_rank() {
        let one = response_bytes(3);
        let cache = FragmentCache::with_shards(2 * one, 1);
        let engine = ForceFieldEngine::new();
        let frags: Vec<_> = (0..3).map(|w| water_frag(3, 1, w)).collect();
        cache.get_or_compute(&frags[0], || engine.compute(&frags[0]));
        cache.get_or_compute(&frags[1], || engine.compute(&frags[1]));
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_compute(&frags[0], || panic!("hit expected"));
        cache.get_or_compute(&frags[2], || engine.compute(&frags[2]));
        let (_, kind) = cache.get_or_compute(&frags[0], || panic!("survivor expected"));
        assert_eq!(kind, HitKind::Exact);
        let (_, kind) = cache.get_or_compute(&frags[1], || engine.compute(&frags[1]));
        assert_eq!(kind, HitKind::Miss, "frags[1] was the eviction victim");
    }

    #[test]
    fn dropped_ticket_releases_pending_slot() {
        let cache = FragmentCache::with_capacity(64 << 20);
        let frag = water_frag(3, 3, 0);
        match cache.lookup(&frag) {
            Lookup::MustCompute(t) => drop(t),
            Lookup::Hit(..) => panic!("cold cache"),
        }
        // The slot was released: the next lookup is a fresh miss, not a
        // deadlocked wait on an abandoned pending entry.
        let engine = ForceFieldEngine::new();
        let (_, kind) = cache.get_or_compute(&frag, || engine.compute(&frag));
        assert_eq!(kind, HitKind::Miss);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(FragmentCache::with_capacity(64 << 20));
        let frag = Arc::new(water_frag(3, 4, 0));
        let computes = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let frag = Arc::clone(&frag);
                let computes = Arc::clone(&computes);
                std::thread::spawn(move || {
                    let engine = ForceFieldEngine::new();
                    let (resp, _) = cache.get_or_compute(&frag, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        engine.compute(&frag)
                    });
                    resp.hessian.as_slice().to_vec()
                })
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1, "single-compute semantics");
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all callers see the same bits");
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn precomputed_insert_hits_without_compute() {
        let cache = FragmentCache::with_capacity(64 << 20);
        let engine = ForceFieldEngine::new();
        let frag = water_frag(3, 5, 1);
        cache.insert_precomputed(&frag, engine.compute(&frag));
        let (_, kind) = cache.get_or_compute(&frag, || panic!("pre-warmed"));
        assert_eq!(kind, HitKind::Exact);
        let s = cache.stats();
        assert_eq!(s.misses, 0);
        assert_eq!(s.hits, 1);
    }
}
