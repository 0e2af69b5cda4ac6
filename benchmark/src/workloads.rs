//! The five pinned workloads and their untraced (end-to-end) execution.
//!
//! Every workload runs through the same public entry point the `qfr` CLI
//! uses, with the CLI's defaults (λ = 4 Å, 140 Lanczos steps, σ = 20 cm⁻¹,
//! f64, batched offload). The program only ever receives the generated
//! `MolecularSystem`; the seed stays in the benchmark.

use crate::host;
use crate::record::{fnv1a, Record, FNV_OFFSET};
use crate::stats::median;
use qfr_cache::FragmentCache;
use qfr_core::{
    EngineKind, RamanResult, RamanWorkflow, ServiceConfig, ShardConfig, SpectrumRequest,
    SpectrumService,
};
use qfr_geom::{MolecularSystem, ProteinBuilder, SolvatedSystem, WaterBoxBuilder};
use qfr_solver::SpectralDensity;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

pub const LAMBDA: f64 = 4.0;
pub const LANCZOS_STEPS: usize = 140;
pub const SIGMA: f64 = 20.0;
/// Seed the committed golden spectra were generated with.
pub const GOLDEN_SEED: u64 = 42;
/// A spectrum may differ from its golden by this much (1 − cosine).
pub const GOLDEN_TOL: f64 = 1e-3;

pub const SHARDS: usize = 4;
pub const TILE_ROWS: usize = 512;
const CACHE_BYTES: usize = 256 << 20;
/// Closed loop: each client sends its next request when the last returned.
pub const CLIENTS: usize = 2;
/// Seed variants client A and client B ask for, in order.
pub const CLIENT_ORDER: [[usize; 4]; CLIENTS] = [[0, 1, 0, 1], [1, 0, 1, 0]];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    InCore,
    Protein,
    Dfpt,
    Sharded,
    Service,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Why the workload exists (one line, goes into `BENCHMARK.json`).
    pub why: &'static str,
}

// Sizes are the issue's workloads shrunk until one repetition takes 2-3 s:
// the builder contract allows 114 runs in 3420 s including two builds, and
// a run needs at least three repetitions for a median.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "water512_incore",
        kind: Kind::InCore,
        why: "Water box through RamanWorkflow::run(): the solver-bound case (Lanczos ~85 % of \
              wall) with small uniform fragments; solver changes must show here.",
    },
    Workload {
        name: "protein40_solvated",
        kind: Kind::Protein,
        why: "Solvated 40-residue protein through run(): capped residues, concaps and \
              residue-water dimers give the force-field engine and Eq. (1) assembly their \
              largest share.",
    },
    Workload {
        name: "water2_dfpt",
        kind: Kind::Dfpt,
        why: "Water dimer with the model-DFPT engine: the only workload that runs qfr-dfpt and \
              GEMM/batch/FFT; engine ~100 % of wall, solver and assembly bypassed.",
    },
    Workload {
        name: "water256_sharded",
        kind: Kind::Sharded,
        why: "run_sharded with 4 shards and 512-row tiles: the operator streams CSR tiles from \
              disk instead of holding CSR in core; peak RSS and tile I/O are the point.",
    },
    Workload {
        name: "water128_service",
        kind: Kind::Service,
        why: "SpectrumService closed loop, 2 clients x 4 requests over 2 geometries: the only \
              workload using qfr-cache, the worker pool and admission; 6 of 8 requests bypass \
              the engine.",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The generated inputs: one system, or the two service seed variants.
    pub fn systems(&self, seed: u64) -> Vec<MolecularSystem> {
        let water = |n: usize, s: u64| WaterBoxBuilder::new(n).seed(s).build();
        match self.kind {
            Kind::InCore => vec![water(512, seed)],
            Kind::Protein => {
                // The protein is fixed; the seed places the solvent.
                let protein = ProteinBuilder::new(40).build();
                vec![SolvatedSystem::build(&protein, 0.0, 3.1, 2.4, seed + 1)]
            }
            Kind::Dfpt => vec![water(2, seed)],
            Kind::Sharded => vec![water(256, seed)],
            Kind::Service => vec![water(128, seed), water(128, seed + 1)],
        }
    }

    pub fn engine(&self) -> EngineKind {
        match self.kind {
            Kind::Dfpt => EngineKind::ModelDfpt,
            _ => EngineKind::ForceField,
        }
    }

    pub fn workflow(&self, system: MolecularSystem) -> RamanWorkflow {
        RamanWorkflow::new(system)
            .sigma(SIGMA)
            .lambda(LAMBDA)
            .lanczos_steps(LANCZOS_STEPS)
            .engine(self.engine())
    }

    /// Spectra one run of this workload is asked for.
    pub fn requests(&self) -> u64 {
        match self.kind {
            Kind::Service => CLIENT_ORDER.iter().flatten().count() as u64,
            _ => 1,
        }
    }

    /// Water bend and O-H stretch bands are expected in the Raman spectrum
    /// (the model-DFPT engine is uncalibrated, its bands are not pinned).
    fn has_water_bands(&self) -> bool {
        self.kind != Kind::Dfpt
    }
}

pub fn shard_config(spill: &Path) -> ShardConfig {
    ShardConfig::new(SHARDS, spill).tile_rows(TILE_ROWS)
}

pub fn request(system: &MolecularSystem) -> SpectrumRequest {
    SpectrumRequest::new(system.clone()).sigma(SIGMA).lambda(LAMBDA).lanczos_steps(LANCZOS_STEPS)
}

enum Prepared {
    Batch { workflow: Box<RamanWorkflow>, shard: Option<ShardConfig> },
    Service { service: SpectrumService, variants: Vec<MolecularSystem> },
}

fn prepare(w: &Workload, seed: u64, scratch: &Path) -> Prepared {
    let mut systems = w.systems(seed);
    match w.kind {
        Kind::Service => {
            let cache = Arc::new(FragmentCache::with_capacity(CACHE_BYTES));
            let service = SpectrumService::new(ServiceConfig {
                workers: 2,
                max_active: 2,
                max_queued: 16,
                batch_window: 32,
                engine: EngineKind::ForceField,
                cache: Some(cache),
            });
            Prepared::Service { service, variants: systems }
        }
        _ => {
            let workflow = Box::new(w.workflow(systems.remove(0)));
            let shard = (w.kind == Kind::Sharded).then(|| {
                let spill = scratch.join("spill");
                // A fresh spill directory per set-up, so nothing resumes.
                let _ = std::fs::remove_dir_all(&spill);
                std::fs::create_dir_all(&spill).expect("create spill dir under the scratch dir");
                shard_config(&spill)
            });
            Prepared::Batch { workflow, shard }
        }
    }
}

/// What the timed region produced.
struct Outcome {
    results: Vec<RamanResult>,
    /// Submit-to-result seconds of every request, in `results` order.
    latencies: Vec<f64>,
    /// Whether the request was the first for its geometry on its client.
    cold: Vec<bool>,
    errors: Vec<String>,
}

fn execute(prepared: &Prepared) -> Outcome {
    let mut out = Outcome { results: vec![], latencies: vec![], cold: vec![], errors: vec![] };
    match prepared {
        Prepared::Batch { workflow, shard } => {
            let t = Instant::now();
            let result = match shard {
                Some(cfg) => workflow.run_sharded(cfg.clone()),
                None => workflow.run(),
            };
            out.latencies.push(t.elapsed().as_secs_f64());
            out.cold.push(true);
            match result {
                Ok(r) => out.results.push(r),
                Err(e) => out.errors.push(e.to_string()),
            }
        }
        Prepared::Service { service, variants } => {
            let per_client: Vec<Vec<(Result<RamanResult, String>, f64)>> =
                std::thread::scope(|scope| {
                    let clients: Vec<_> = CLIENT_ORDER
                        .iter()
                        .map(|order| {
                            scope.spawn(move || {
                                order
                                    .iter()
                                    .map(|&v| {
                                        let t = Instant::now();
                                        let result = service
                                            .submit(request(&variants[v]))
                                            .and_then(|handle| handle.wait())
                                            .map_err(|e| e.to_string());
                                        (result, t.elapsed().as_secs_f64())
                                    })
                                    .collect()
                            })
                        })
                        .collect();
                    clients.into_iter().map(|c| c.join().expect("client thread")).collect()
                });
            for client in per_client {
                for (i, (result, latency)) in client.into_iter().enumerate() {
                    match result {
                        Ok(r) => {
                            out.results.push(r);
                            out.latencies.push(latency);
                            out.cold.push(i == 0);
                        }
                        Err(e) => out.errors.push(e),
                    }
                }
            }
        }
    }
    out
}

/// Hash of every spectrum produced, in request order.
pub fn hash_spectra<'a>(
    spectra: impl IntoIterator<Item = (&'a SpectralDensity, &'a SpectralDensity)>,
) -> String {
    let h = spectra
        .into_iter()
        .fold(FNV_OFFSET, |h, (raman, ir)| fnv1a(fnv1a(h, &raman.intensities), &ir.intensities));
    format!("{h:016x}")
}

pub fn golden_path(bench_dir: &Path, w: &Workload) -> PathBuf {
    bench_dir.join("golden").join(format!("{}.seed{GOLDEN_SEED}.json", w.name))
}

/// The golden document of one spectrum pair. Intensities keep ten
/// significant digits, and Gaussian tails below 1e-12 of the peak are
/// written as 0 (the JSON writer has no exponent form, so 1e-300 would
/// take 300 characters); both are far inside [`GOLDEN_TOL`].
pub fn spectra_json(raman: &SpectralDensity, ir: &SpectralDensity) -> Value {
    let arr = |v: &[f64]| {
        let floor = 1e-12 * v.iter().copied().fold(0.0, f64::max);
        let round = |x: f64| if x < floor { 0.0 } else { format!("{x:.9e}").parse().unwrap_or(x) };
        Value::Array(v.iter().map(|&x| Value::Float(round(x))).collect())
    };
    Value::Object(vec![
        ("raman".into(), arr(&raman.intensities)),
        ("ir".into(), arr(&ir.intensities)),
    ])
}

fn load_golden(path: &Path, like: &SpectralDensity) -> Result<[SpectralDensity; 2], String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let load = |key: &str| -> Result<SpectralDensity, String> {
        let values: Option<Vec<f64>> =
            doc[key].as_array().and_then(|a| a.iter().map(Value::as_f64).collect());
        match values {
            Some(v) if v.len() == like.intensities.len() => {
                Ok(SpectralDensity { wavenumbers: like.wavenumbers.clone(), intensities: v })
            }
            _ => Err(format!(
                "{}: '{key}' is not a {}-point array",
                path.display(),
                like.intensities.len()
            )),
        }
    };
    Ok([load("raman")?, load("ir")?])
}

fn has_peak_in(s: &SpectralDensity, lo: f64, hi: f64) -> bool {
    s.peaks_above(0.05).iter().any(|&nu| (lo..=hi).contains(&nu))
}

/// Structural checks on one result's spectra, and (unless the run is the
/// one generating it) its distance from the golden pair. The golden is
/// enforced only for the seed it was generated with; for other seeds the
/// distance is reported, not judged.
pub fn check_spectra(
    w: &Workload,
    golden: Option<&Path>,
    seed: u64,
    raman: &SpectralDensity,
    ir: &SpectralDensity,
    rec: &mut Record,
) {
    for (label, s) in [("raman", raman), ("ir", ir)] {
        let sane = s.intensities.len() == 2001
            && s.intensities.iter().all(|x| x.is_finite() && *x >= 0.0)
            && s.peak().is_some();
        if !sane {
            rec.failures
                .push(format!("{label}: not a finite, non-negative, non-zero 2001-point spectrum"));
        }
    }
    if w.has_water_bands() {
        if !has_peak_in(raman, 1500.0, 1900.0) {
            rec.failures.push("raman: water bend band (1500-1900 cm-1) missing".into());
        }
        if !has_peak_in(raman, 3200.0, 3700.0) {
            rec.failures.push("raman: O-H stretch band (3200-3700 cm-1) missing".into());
        }
    }
    let Some(golden) = golden else { return };
    match load_golden(golden, raman) {
        Ok([g_raman, g_ir]) => {
            // Rounding can put a cosine a hair above 1.
            let raman_err = (1.0 - raman.cosine_similarity(&g_raman)).max(0.0);
            let ir_err = (1.0 - ir.cosine_similarity(&g_ir)).max(0.0);
            rec.set("check.raman_err", raman_err);
            rec.set("check.ir_err", ir_err);
            if seed == GOLDEN_SEED && (raman_err > GOLDEN_TOL || ir_err > GOLDEN_TOL) {
                rec.failures.push(format!(
                    "golden: raman_err {raman_err:.3e}, ir_err {ir_err:.3e} exceed {GOLDEN_TOL:e}"
                ));
            }
        }
        Err(e) => rec.failures.push(format!("golden: {e}")),
    }
}

/// Reads the deterministic counters of this process.
pub fn deterministic_counters(rec: &mut Record) {
    for c in qfr_obs::counter::snapshot() {
        if c.determinism == qfr_obs::Determinism::Deterministic {
            rec.counters.insert(c.name.to_string(), c.value);
        }
    }
}

/// One untraced repetition: set up, run the entry point, check, measure.
/// `spawned_at` is when the runner started this process (or when `main` was
/// entered, for a child started by hand): a water-box set-up alone takes
/// microseconds, so `setup_s` is everything a user waits for before the
/// computation starts — process start, argument parsing, input generation,
/// workflow or service construction.
pub fn run_e2e(
    w: &Workload,
    seed: u64,
    bench_dir: &Path,
    scratch: &Path,
    dump: Option<&Path>,
    spawned_at: SystemTime,
) -> Record {
    let mut rec = Record::default();
    let prepared = prepare(w, seed, scratch);
    rec.set("setup_s", spawned_at.elapsed().map_or(0.0, |d| d.as_secs_f64()));

    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let out = execute(&prepared);
    let wall = t.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu0;

    rec.failed = out.errors.len() as u64;
    rec.failures.extend(out.errors.iter().map(|e| format!("request failed: {e}")));
    rec.set("wall_s", wall);
    rec.set("cpu_s", cpu);
    rec.set("core.cores_used", cpu / wall);
    rec.set("atoms", out.results.iter().map(|r| r.n_atoms as f64).sum());
    rec.set("request_p50_s", median(&out.latencies));
    let stage = |f: fn(&RamanResult) -> f64| median(&out.results.iter().map(f).collect::<Vec<_>>());
    rec.set("core.stage_decompose_s", stage(|r| r.timings.decompose_s));
    rec.set("core.stage_engine_s", stage(|r| r.timings.engine_s));
    rec.set("core.stage_assemble_s", stage(|r| r.timings.assemble_s));
    rec.set("core.stage_solver_s", stage(|r| r.timings.solver_s));
    let overheads: Vec<f64> =
        out.results.iter().zip(&out.latencies).map(|(r, l)| l - r.timings.total()).collect();
    rec.set("core.overhead_s", median(&overheads));

    if let Prepared::Service { service, variants } = &prepared {
        let by_cold = |want: bool| -> Vec<f64> {
            out.latencies
                .iter()
                .zip(&out.cold)
                .filter(|(_, &c)| c == want)
                .map(|(l, _)| *l)
                .collect()
        };
        rec.set("core.service_request_max_s", out.latencies.iter().copied().fold(0.0, f64::max));
        rec.set("core.service_miss_request_s", median(&by_cold(true)));
        rec.set("core.service_hit_request_s", median(&by_cold(false)));
        rec.set(
            "core.service_rejected",
            qfr_obs::counter::value_of("service.rejected").unwrap_or(0) as f64,
        );
        let stats = service.cache().stats();
        rec.set("cache.hits", stats.hits as f64);
        rec.set("cache.misses", stats.misses as f64);
        rec.set("cache.near_hits", stats.near_hits as f64);
        rec.set("cache.evictions", stats.evictions as f64);
        rec.set("cache.hit_rate", stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64);
        rec.set("cache.resident_mib", stats.resident_bytes as f64 / (1 << 20) as f64);
        // Requests for one geometry must agree bit for bit, whichever client
        // asked and whether the engine or the cache answered.
        if out.errors.is_empty() {
            let order: Vec<usize> = CLIENT_ORDER.iter().flatten().copied().collect();
            for v in 0..variants.len() {
                let mut same =
                    out.results.iter().zip(&order).filter(|(_, &o)| o == v).map(|(r, _)| r);
                let first = same.next().expect("every variant is requested");
                if same.any(|r| r.spectrum != first.spectrum || r.ir != first.ir) {
                    rec.failures
                        .push(format!("service: variant {v} spectra differ between requests"));
                }
            }
        }
    }

    rec.hash = hash_spectra(out.results.iter().map(|r| (&r.spectrum, &r.ir)));
    if let Some(first) = out.results.first() {
        let golden = dump.is_none().then(|| golden_path(bench_dir, w));
        check_spectra(w, golden.as_deref(), seed, &first.spectrum, &first.ir, &mut rec);
        if let Some(path) = dump {
            let text = serde_json::to_string(&spectra_json(&first.spectrum, &first.ir))
                .expect("spectra serialise");
            if let Err(e) = std::fs::write(path, text + "\n") {
                rec.failures.push(format!("dump {}: {e}", path.display()));
            }
        }
    }
    deterministic_counters(&mut rec);
    drop(prepared);
    let _ = std::fs::remove_dir_all(scratch.join("spill"));
    rec.set("peak_rss_mib", host::peak_rss_mib());
    rec
}
