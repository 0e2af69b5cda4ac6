//! The staged traced run: the benchmark itself calls the layers' public
//! functions in pipeline order (`Decomposition::new` →
//! `FragmentEngine::compute` per job → `assemble` + `MassWeighted::new` →
//! `raman_lanczos` + `ir_lanczos`) and records a span around every call.
//! The public traits `MatVec`, `TileSource` and `FragmentEngine` are wrapped
//! in timing adapters so SpMV, tile reads and per-fragment latencies are
//! separated from solver self time — no file under `crates/` is touched.
//! The spectra must come out bit-identical to the untraced run; that is the
//! proof the staged path measures the same computation.

use crate::record::Record;
use crate::spans::{self, Recorder};
use crate::stats::{median, percentile};
use crate::workloads::{
    self, check_spectra, golden_path, hash_spectra, Kind, Workload, CLIENT_ORDER, LAMBDA,
    LANCZOS_STEPS, SHARDS, SIGMA, TILE_ROWS,
};
use qfr_cache::FragmentCache;
use qfr_core::shard::{self, ShardPlan, ShardStore};
use qfr_fragment::{
    assemble, Decomposition, DecompositionParams, FragmentEngine, FragmentResponse,
    FragmentStructure, MassWeighted,
};
use qfr_geom::MolecularSystem;
use qfr_linalg::sparse::MatVec;
use qfr_linalg::vecops;
use qfr_solver::{
    averaged_quadrature, ir_lanczos, lanczos, raman_lanczos, CsrTile, RamanOptions,
    ShardedOperator, SpectralDensity, TileSource,
};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

type Spectra = (SpectralDensity, SpectralDensity);

/// Times every operator application; counts the bytes one application moves
/// as computed from the array sizes (CSR values + column indices + row
/// pointers, `x` read, `y` written) — computed, not measured.
struct TimedMatVec<'a> {
    inner: &'a dyn MatVec,
    rec: &'a Recorder,
    bytes_per_apply: u64,
    bytes: &'a AtomicU64,
}

impl MatVec for TimedMatVec<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.rec.span("solver.matvec", || self.inner.apply(x, y));
        self.bytes.fetch_add(self.bytes_per_apply, Ordering::Relaxed);
    }
}

/// Times every tile load and counts the bytes read (the spill format's tile
/// payload: row count, row pointers, 12 B per non-zero).
struct TimedTiles<'a> {
    inner: &'a dyn TileSource,
    rec: &'a Recorder,
    bytes: &'a AtomicU64,
}

impl TileSource for TimedTiles<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn n_tiles(&self) -> usize {
        self.inner.n_tiles()
    }

    fn load_tile(&self, index: usize) -> Option<CsrTile> {
        let tile = self.rec.span("core.tile_read", || self.inner.load_tile(index));
        if let Some(t) = &tile {
            let payload = 4 + 8 * (t.matrix.rows() + 1) + 12 * t.matrix.nnz();
            self.bytes.fetch_add(payload as u64, Ordering::Relaxed);
        }
        tile
    }
}

/// Times every fragment the engine computes.
struct TimedEngine<'a> {
    inner: &'a dyn FragmentEngine,
    rec: &'a Recorder,
    span: &'static str,
}

impl FragmentEngine for TimedEngine<'_> {
    fn compute(&self, frag: &FragmentStructure) -> FragmentResponse {
        self.rec.span(self.span, || self.inner.compute(frag))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The assembled operator of one request, kept for the solver probes.
enum Operator {
    InCore(MassWeighted),
    Sharded(ShardStore),
}

impl Operator {
    fn dim(&self) -> usize {
        match self {
            Operator::InCore(mw) => mw.dim(),
            Operator::Sharded(store) => TileSource::dim(store),
        }
    }

    fn nnz(&self) -> usize {
        match self {
            Operator::InCore(mw) => mw.hessian.nnz(),
            Operator::Sharded(store) => store.nnz(),
        }
    }

    /// Hands `f` the untimed operator and the first ∂α start vector.
    fn with_plain<R>(&self, f: impl FnOnce(&dyn MatVec, &[f64]) -> R) -> R {
        match self {
            Operator::InCore(mw) => f(&mw.hessian, &mw.dalpha[0]),
            Operator::Sharded(store) => f(&ShardedOperator::new(store), &store.dalpha()[0]),
        }
    }
}

/// Sizes and byte counts the spans cannot carry.
#[derive(Default)]
struct Facts {
    jobs: Cell<usize>,
    nnz: Cell<usize>,
    spmv_bytes: AtomicU64,
    tile_bytes: AtomicU64,
}

struct Stage<'a> {
    rec: &'a Recorder,
    engine: TimedEngine<'a>,
    facts: Facts,
}

fn raman_options() -> RamanOptions {
    RamanOptions { sigma: SIGMA, lanczos_steps: LANCZOS_STEPS, ..RamanOptions::default() }
}

impl Stage<'_> {
    fn decompose(&self, system: &MolecularSystem) -> Result<Decomposition, String> {
        let params = DecompositionParams { lambda: LAMBDA, ..DecompositionParams::default() };
        let d = self.rec.span("fragment.decompose", || Decomposition::new(system, params));
        let errs = self.rec.span("core.validate", || system.validate());
        if !errs.is_empty() {
            return Err(format!("invalid system: {}", errs.join("; ")));
        }
        self.facts.jobs.set(self.facts.jobs.get() + d.jobs.len());
        Ok(d)
    }

    fn response(
        &self,
        system: &MolecularSystem,
        job: &qfr_fragment::FragmentJob,
        cache: Option<&FragmentCache>,
    ) -> FragmentResponse {
        let frag = self.rec.span("fragment.structure", || job.structure(system));
        match cache {
            Some(cache) => self.rec.span("cache.get_or_compute", || {
                let (resp, _) = cache.get_or_compute(&frag, || self.engine.compute(&frag));
                (*resp).clone()
            }),
            None => self.engine.compute(&frag),
        }
    }

    fn solve(&self, operator: &Operator) -> Spectra {
        let bytes_per_apply = (12 * operator.nnz() + 24 * operator.dim()) as u64;
        let run = |op: &dyn MatVec, dalpha: &[Vec<f64>; 6], dmu: &[Vec<f64>; 3]| {
            let timed = TimedMatVec {
                inner: op,
                rec: self.rec,
                bytes_per_apply,
                bytes: &self.facts.spmv_bytes,
            };
            let opts = raman_options();
            let raman = self.rec.span("solver.raman", || raman_lanczos(&timed, dalpha, &opts));
            let ir = self.rec.span("solver.ir", || ir_lanczos(&timed, dmu, &opts));
            (raman, ir)
        };
        match operator {
            Operator::InCore(mw) => run(&mw.hessian, &mw.dalpha, &mw.dmu),
            Operator::Sharded(store) => {
                let tiles =
                    TimedTiles { inner: store, rec: self.rec, bytes: &self.facts.tile_bytes };
                run(&ShardedOperator::new(&tiles), store.dalpha(), store.dmu())
            }
        }
    }

    /// One in-core request, mirroring `RamanWorkflow::run` (and, with a
    /// cache, one `SpectrumService` request).
    fn in_core(
        &self,
        system: &MolecularSystem,
        cache: Option<&FragmentCache>,
    ) -> Result<(Spectra, Operator), String> {
        let d = self.decompose(system)?;
        let responses: Vec<FragmentResponse> = self.rec.span("core.engine_stage", || {
            d.jobs.iter().map(|job| self.response(system, job, cache)).collect()
        });
        let mw = self.rec.span("fragment.assemble", || {
            let assembled = assemble::assemble(&d.jobs, &responses, system.n_atoms());
            MassWeighted::new(&assembled, &system.masses())
        });
        self.facts.nnz.set(self.facts.nnz.get() + mw.hessian.nnz());
        let operator = Operator::InCore(mw);
        Ok((self.solve(&operator), operator))
    }

    /// One out-of-core request, mirroring `RamanWorkflow::run_sharded`.
    fn sharded(
        &self,
        system: &MolecularSystem,
        spill: &Path,
    ) -> Result<(Spectra, Operator), String> {
        let d = self.decompose(system)?;
        let plan = ShardPlan::new(system.n_atoms(), SHARDS);
        let base = self
            .rec
            .span("core.shard_fingerprint", || qfr_core::checkpoint::fingerprint(&d, system));
        let fp = |s: usize| shard::shard_fingerprint(base, &plan, s, TILE_ROWS);
        self.rec.span("core.engine_stage", || {
            for s in 0..plan.k() {
                let path = shard::shard_path(spill, s);
                if shard::shard_file_valid(&path, &plan, s, TILE_ROWS, fp(s)) {
                    continue;
                }
                self.rec
                    .span("core.shard_build", || {
                        shard::build_shard(
                            &path,
                            system,
                            &d.jobs,
                            &plan,
                            s,
                            TILE_ROWS,
                            fp(s),
                            |job| self.response(system, job, None),
                        )
                    })
                    .map_err(|e| format!("shard {s}: {e}"))?;
            }
            Ok::<(), String>(())
        })?;
        let store = self
            .rec
            .span("core.shard_open", || ShardStore::open(spill, plan, TILE_ROWS, base))
            .map_err(|e| format!("open spill: {e}"))?;
        self.facts.nnz.set(self.facts.nnz.get() + store.nnz());
        let operator = Operator::Sharded(store);
        Ok((self.solve(&operator), operator))
    }
}

/// One `lanczos(op, d, 140)` and one `averaged_quadrature` on its result,
/// plus dot + axpy at dof length — the solver's building blocks, untraced.
fn probe_solver(operator: &Operator, rec: &mut Record) {
    operator.with_plain(|op, d| {
        let t = Instant::now();
        let lz = lanczos(op, d, LANCZOS_STEPS);
        rec.set("solver.lanczos1_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(averaged_quadrature(&lz));
        rec.set("solver.gagq_probe_ms", t.elapsed().as_secs_f64() * 1e3);
    });
    let n = operator.dim();
    rec.set("solver.basis_mib", (LANCZOS_STEPS * n * 8) as f64 / (1 << 20) as f64);
    let (x, mut y) = (vec![1.0; n], vec![0.5; n]);
    let rounds = (50_000_000 / n.max(1)).max(1);
    let t = Instant::now();
    for _ in 0..rounds {
        let c = vecops::dot(&x, &y);
        vecops::axpy(black_box(1e-9 * c), &x, &mut y);
    }
    black_box(&y);
    // Computed traffic: dot reads two vectors, axpy reads two and writes one.
    rec.set("linalg.vecops_probe_gbs", (40 * n * rounds) as f64 / t.elapsed().as_secs_f64() / 1e9);
}

/// The fragment jobs once more through `run_master_leader_worker` (2 leaders
/// x 1 worker) with the same engine as executor: what the scheduler runtime
/// adds on top of the plain loop. Structure extraction is part of the
/// executor, so the ratio's base is engine + structure seconds.
fn probe_sched(
    system: &MolecularSystem,
    engine: &dyn FragmentEngine,
    base_s: f64,
    rec: &mut Record,
) {
    use qfr_sched::{
        run_master_leader_worker, FragmentWorkItem, RuntimeConfig, SizeSensitivePolicy,
    };
    let params = DecompositionParams { lambda: LAMBDA, ..DecompositionParams::default() };
    let jobs = Decomposition::new(system, params).jobs;
    let items: Vec<FragmentWorkItem> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| FragmentWorkItem::new(i as u32, job.size() as u32))
        .collect();
    let cfg = RuntimeConfig { n_leaders: 2, workers_per_leader: 1, ..RuntimeConfig::default() };
    let t = Instant::now();
    let report = run_master_leader_worker(
        Box::new(SizeSensitivePolicy::with_defaults(items)),
        |item| {
            black_box(engine.compute(&jobs[item.id as usize].structure(system)));
            true
        },
        cfg,
    );
    let dt = t.elapsed().as_secs_f64();
    rec.set("sched.runtime_engine_s", dt);
    rec.set("sched.tasks_completed", report.tasks_executed as f64);
    rec.set("sched.retries", report.retries as f64);
    rec.set("sched.overhead_ratio", if base_s > 0.0 { dt / base_s } else { 0.0 });
    if report.fragments_done != jobs.len() {
        rec.failures.push(format!(
            "sched: {} of {} fragments done",
            report.fragments_done,
            jobs.len()
        ));
    }
}

/// Sharded only: the spill must equal the in-core run bit for bit, and a
/// second `run_sharded` on the kept spill directory must resume every shard.
fn check_sharded(
    w: &Workload,
    system: &MolecularSystem,
    spill: &Path,
    staged: &Spectra,
    rec: &mut Record,
) {
    match w.workflow(system.clone()).run() {
        Ok(r) if (&r.spectrum, &r.ir) == (&staged.0, &staged.1) => {}
        Ok(_) => rec.failures.push("sharded spectra differ from the in-core run()".into()),
        Err(e) => rec.failures.push(format!("in-core run(): {e}")),
    }
    let resumed_before = qfr_obs::counter::value_of("shard.shards_resumed").unwrap_or(0);
    let t = Instant::now();
    let resumed = w.workflow(system.clone()).run_sharded(workloads::shard_config(spill));
    rec.set("core.shard_resume_s", t.elapsed().as_secs_f64());
    let resumed_now = qfr_obs::counter::value_of("shard.shards_resumed").unwrap_or(0);
    match resumed {
        Ok(r) if (&r.spectrum, &r.ir) != (&staged.0, &staged.1) => {
            rec.failures.push("resumed run_sharded spectra differ from the staged run".into())
        }
        Ok(_) if resumed_now - resumed_before != SHARDS as u64 => rec.failures.push(format!(
            "resume rebuilt shards: {} of {SHARDS} resumed",
            resumed_now - resumed_before
        )),
        Ok(_) => {}
        Err(e) => rec.failures.push(format!("resumed run_sharded: {e}")),
    }
}

/// Runs the staged traced pass of one workload and writes its trace file.
pub fn run_staged(
    w: &Workload,
    seed: u64,
    bench_dir: &Path,
    scratch: &Path,
    trace_out: &Path,
) -> Record {
    let mut rec = Record::default();
    let mut builds = Vec::new();
    let mut systems = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        systems = w.systems(seed);
        builds.push(t.elapsed().as_secs_f64());
    }
    rec.set("geom.build_s", median(&builds));
    rec.set("geom.atoms", systems.iter().map(|s| s.n_atoms() as f64).sum());

    let spill = scratch.join("spill");
    let inner: Box<dyn FragmentEngine> = match w.kind {
        Kind::Dfpt => Box::new(qfr_dfpt::DfptEngine::new()),
        _ => Box::new(qfr_model::ForceFieldEngine::new()),
    };
    let engine_span = if w.kind == Kind::Dfpt { "dfpt.compute" } else { "model.compute" };
    let recorder = Recorder::new();
    let stage = Stage {
        rec: &recorder,
        engine: TimedEngine { inner: inner.as_ref(), rec: &recorder, span: engine_span },
        facts: Facts::default(),
    };

    let t = Instant::now();
    let outcome: Result<Vec<(Spectra, Operator)>, String> = recorder.span("run", || match w.kind {
        Kind::Service => {
            // The eight requests in result order (client A's four, then
            // B's), one after the other on this thread, sharing one cache.
            let cache = FragmentCache::with_capacity(256 << 20);
            CLIENT_ORDER
                .iter()
                .flatten()
                .map(|&v| {
                    recorder.span("core.request", || stage.in_core(&systems[v], Some(&cache)))
                })
                .collect()
        }
        Kind::Sharded => {
            std::fs::create_dir_all(&spill).map_err(|e| format!("{}: {e}", spill.display()))?;
            Ok(vec![recorder.span("core.request", || stage.sharded(&systems[0], &spill))?])
        }
        _ => Ok(vec![recorder.span("core.request", || stage.in_core(&systems[0], None))?]),
    });
    let wall = t.elapsed().as_secs_f64();
    rec.set("staged.wall_s", wall);
    let Stage { facts, .. } = stage;
    let spans = recorder.finish();

    let done = match outcome {
        Ok(done) => done,
        Err(e) => {
            rec.failed = w.requests();
            rec.failures.push(format!("staged run failed: {e}"));
            return rec;
        }
    };
    rec.hash = hash_spectra(done.iter().map(|((raman, ir), _)| (raman, ir)));
    let ((raman, ir), operator) = done.last().expect("at least one request");
    let golden = golden_path(bench_dir, w);
    let (first_raman, first_ir) = &done[0].0;
    check_spectra(w, Some(&golden), seed, first_raman, first_ir, &mut rec);

    let totals = spans::totals_by_name(&spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for (name, t) in &totals {
        rec.set(&format!("span:{name}:calls"), t.calls as f64);
        rec.set(&format!("span:{name}:total_s"), t.total_s);
        rec.set(&format!("span:{name}:self_s"), t.self_s);
    }
    let self_sum: f64 = totals.values().map(|t| t.self_s).sum();
    if (self_sum - get("run").total_s).abs() > 0.05 * wall {
        rec.failures
            .push(format!("span self times sum to {self_sum:.4} s, staged wall is {wall:.4} s"));
    }
    rec.set("obs.spans_recorded", spans.len() as f64);

    rec.set("fragment.decompose_s", get("fragment.decompose").total_s);
    let (jobs, nnz) = (facts.jobs.get() as f64, facts.nnz.get() as f64);
    rec.set("fragment.jobs", jobs);
    rec.set("fragment.structure_s", get("fragment.structure").total_s);
    let assemble_s = get("fragment.assemble").total_s;
    rec.set("fragment.assemble_s", assemble_s);
    rec.set("fragment.assemble_nnz", nnz);
    rec.set("fragment.assemble_mnnz_per_s", ratio(nnz / 1e6, assemble_s));
    rec.set("staged.engine_stage_s", get("core.engine_stage").total_s);

    let latencies = spans::durations_of(&spans, engine_span);
    let engine_s: f64 = latencies.iter().sum();
    let slowest = latencies.iter().copied().fold(0.0, f64::max);
    if w.kind == Kind::Dfpt {
        rec.set("dfpt.engine_s", engine_s);
        rec.set("dfpt.fragment_max_s", slowest);
    } else {
        rec.set("model.engine_s", engine_s);
        rec.set("model.fragments", latencies.len() as f64);
        rec.set("model.fragment_p50_us", median(&latencies) * 1e6);
        rec.set("model.fragment_p99_us", percentile(&latencies, 99.0) * 1e6);
        rec.set("model.fragment_max_us", slowest * 1e6);
    }

    let matvec = get("solver.matvec");
    let solver_s = get("solver.raman").total_s + get("solver.ir").total_s;
    rec.set("solver.total_s", solver_s);
    rec.set("solver.raman_s", get("solver.raman").total_s);
    rec.set("solver.ir_s", get("solver.ir").total_s);
    rec.set("solver.matvec_s", matvec.total_s);
    rec.set("solver.self_s", solver_s - matvec.total_s);
    rec.set("solver.self_frac", ratio(solver_s - matvec.total_s, solver_s));
    rec.set("solver.matvec_calls", matvec.calls as f64);
    // The operator's own arithmetic: apply time minus the tile reads inside it.
    rec.set("linalg.spmv_s", matvec.self_s);
    rec.set("linalg.spmv_calls", matvec.calls as f64);
    rec.set("linalg.spmv_gbs", ratio(facts.spmv_bytes.into_inner() as f64 / 1e9, matvec.self_s));

    if w.kind == Kind::Sharded {
        let build_s = get("core.shard_build").total_s;
        let spilled = qfr_obs::counter::value_of("shard.bytes_spilled").unwrap_or(0) as f64;
        let tiles = get("core.tile_read");
        rec.set("core.shard_build_s", build_s);
        rec.set("core.shard_bytes_spilled", spilled);
        rec.set("core.shard_spill_mbs", ratio(spilled / 1e6, build_s));
        rec.set("core.shard_open_s", get("core.shard_open").total_s);
        rec.set("core.tile_read_s", tiles.total_s);
        rec.set("core.tiles_streamed", tiles.calls as f64);
        rec.set(
            "core.tile_read_mbs",
            ratio(facts.tile_bytes.into_inner() as f64 / 1e6, tiles.total_s),
        );
        rec.set("core.shard_recompute_ratio", ratio(latencies.len() as f64, jobs));
    }

    let trace =
        serde_json::to_string(&spans::chrome_trace(&spans, w.name)).expect("trace serialises");
    if let Err(e) = std::fs::write(trace_out, trace + "\n") {
        rec.failures.push(format!("trace {}: {e}", trace_out.display()));
    }

    probe_solver(operator, &mut rec);
    match w.kind {
        Kind::InCore => {
            let base_s = engine_s + get("fragment.structure").total_s;
            probe_sched(&systems[0], inner.as_ref(), base_s, &mut rec);
        }
        Kind::Sharded => {
            check_sharded(w, &systems[0], &spill, &(raman.clone(), ir.clone()), &mut rec)
        }
        _ => {}
    }
    let _ = std::fs::remove_dir_all(&spill);
    rec
}
