//! `qfr` — command-line front end to the QF-RAMAN pipeline.
//!
//! ```text
//! qfr spectrum  --protein 100 [--solvate 6.0] [--sigma 5] [--lanczos 160]
//!               [--seed 42] [--temperature 300] [--json out.json] [--xyz out.xyz]
//! qfr spectrum  --waters 1000 [--sigma 20] [--cache [--cache-mb 256]] ...
//! qfr spectrum  --scenario disulfide            # graph-decomposition demo systems
//! qfr decompose --protein 3180 [--lambda 4.0]
//! qfr serve     --waters 200 --requests 6 [--distinct 2] [--workers 4]
//! qfr info
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency) and strict: every
//! flag has a paper-matching default, and an unknown flag, an unparsable
//! value or a conflicting combination is a one-line error with exit
//! status 2.

use qfr_cache::FragmentCache;
use qfr_core::{
    EngineKind, HessianOperator, RamanWorkflow, ResponseSource, RunPlan, ServiceConfig,
    ShardConfig, SpectrumRequest, SpectrumService, WorkflowError,
};
use qfr_fragment::MAX_ATOMS;
use qfr_geom::{io, MolecularSystem, ProteinBuilder, SolvatedSystem, WaterBoxBuilder};

/// A usage error: one line on stderr, exit status 2.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Writes the output file `flag` names; a failed write is a run error: one
/// line on stderr, exit status 1.
fn write_output(
    flag: &str,
    path: &str,
    write: impl FnOnce(&std::path::Path) -> std::io::Result<()>,
) {
    if let Err(e) = write(std::path::Path::new(path)) {
        eprintln!("error: {flag} {path}: {e}");
        std::process::exit(1);
    }
}

/// Value-taking flags selecting the system, shared by every subcommand.
const SYSTEM_VALUES: &str = "--protein --waters --scenario --solvate --seed";

/// The checked command line of one subcommand: `(flag, value)` pairs, each
/// flag known to the subcommand and given at most once.
struct Args(Vec<(String, Option<String>)>);

impl Args {
    /// Checks `argv` against the subcommand's space-separated
    /// value-taking flags (`SYSTEM_VALUES` plus `values`), its `switches`,
    /// and its `requires` pairs (`(flag, flag it is meaningless without)`).
    fn parse(argv: &[String], values: &str, switches: &str, requires: &[(&str, &str)]) -> Self {
        let listed = |list: &str, flag: &str| list.split_whitespace().any(|f| f == flag);
        let mut parsed: Vec<(String, Option<String>)> = Vec::new();
        let mut tokens = argv.iter();
        while let Some(flag) = tokens.next() {
            if parsed.iter().any(|(seen, _)| seen == flag) {
                fail(format!("{flag} given more than once"));
            }
            let value = if listed(switches, flag) {
                None
            } else if listed(SYSTEM_VALUES, flag) || listed(values, flag) {
                match tokens.next() {
                    Some(value) => Some(value.clone()),
                    None => fail(format!("{flag} needs a value")),
                }
            } else {
                fail(format!("unknown flag '{flag}' (run `qfr` for usage)"));
            };
            parsed.push((flag.clone(), value));
        }
        let args = Self(parsed);
        for (flag, parent) in requires.iter().chain(&[("--solvate", "--protein")]) {
            if args.has(flag) && !args.has(parent) {
                fail(format!("{flag} only applies with {parent}"));
            }
        }
        args
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The flag's value parsed as `T`, `None` when the flag is absent.
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                let what = std::any::type_name::<T>();
                fail(format!("{flag} takes a value of type {what}, got '{v}'"))
            })
        })
    }

    fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.get(flag).unwrap_or(default)
    }

    /// Like [`Args::get_or`], but 0 is a usage error.
    fn get_positive(&self, flag: &str, default: usize) -> usize {
        let value = self.get_or(flag, default);
        if value == 0 {
            fail(format!("{flag} must be at least 1"));
        }
        value
    }

    /// The flag's value as an `f64`, `None` when the flag is absent; a
    /// value that is not finite and above 0 is a usage error.
    fn get_positive_f64(&self, flag: &str) -> Option<f64> {
        let value: f64 = self.get(flag)?;
        if !(value.is_finite() && value > 0.0) {
            fail(format!("{flag} must be a finite number above 0, got {value}"));
        }
        Some(value)
    }

    /// The `--cache-mb` budget in bytes; a byte count that overflows
    /// `usize` is a usage error.
    fn cache_bytes(&self) -> usize {
        let mb: usize = self.get_or("--cache-mb", 256);
        mb.checked_mul(1 << 20)
            .unwrap_or_else(|| fail(format!("--cache-mb {mb} overflows the byte budget")))
    }

    /// At most one of `flags` may be present.
    fn exclusive(&self, flags: &[&str]) {
        let given: Vec<&str> = flags.iter().copied().filter(|f| self.has(f)).collect();
        if given.len() > 1 {
            fail(format!("{} are mutually exclusive", given.join(" and ")));
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         qfr spectrum  (--protein N | --waters N | --scenario NAME)\n                \
         [--solvate PAD] [--sigma S]\n                \
         [--lambda L] [--lanczos K] [--seed SEED] [--temperature T]\n                \
         [--ir] [--json FILE] [--xyz FILE]\n                \
         [--dfpt]\n                \
         [--dense | --shards K [--spill DIR] [--tile-rows N]]\n                \
         [--sched LEADERS [--workers W]]\n                \
         [--checkpoint FILE]\n                \
         [--cache [--cache-mb MB] [--warm N]]\n                \
         [--trace FILE] [--metrics] [--metrics-out FILE]\n  \
         qfr decompose (--protein N | --waters N | --scenario NAME)\n                \
         [--lambda L] [--seed SEED]\n  \
         qfr serve    (--protein N | --waters N | --scenario NAME)\n                \
         [--requests R] [--distinct D]\n                \
         [--workers W] [--max-active A] [--max-queued Q]\n                \
         [--batch-window B] [--cache-mb MB] [--sigma S] [--lambda L]\n                \
         [--lanczos K] [--seed SEED] [--metrics]\n  \
         qfr info"
    );
    std::process::exit(2);
}

/// `--lambda` (a finite distance above 0, default 4 Å) and `--lanczos`
/// (at least 1 step, default 140).
fn lambda_and_lanczos(args: &Args) -> (f64, usize) {
    (args.get_positive_f64("--lambda").unwrap_or(4.0), args.get_positive("--lanczos", 140))
}

fn build_system(args: &Args) -> MolecularSystem {
    build_seeded_system(args, args.get_or("--seed", 42))
}

fn build_seeded_system(args: &Args, seed: u64) -> MolecularSystem {
    args.exclusive(&["--scenario", "--protein", "--waters"]);
    if let Some(name) = args.value("--scenario") {
        qfr_geom::build_scenario(name, seed).unwrap_or_else(|| {
            fail(format!(
                "unknown scenario '{name}' (available: {})",
                qfr_geom::SCENARIO_NAMES.join(", ")
            ))
        })
    } else if args.has("--protein") {
        let n = args.get_positive("--protein", 1);
        let pad = args.get::<f64>("--solvate");
        if let Some(pad) = pad.filter(|pad| !(pad.is_finite() && *pad >= 0.0)) {
            fail(format!("--solvate must be a finite number of at least 0, got {pad}"))
        }
        let builder = ProteinBuilder::new(n).seed(seed);
        let Some(atoms) = builder.atom_count(MAX_ATOMS) else {
            too_large(format!("--protein {n}"))
        };
        let protein = builder.build();
        match pad {
            Some(pad) => {
                let waters = SolvatedSystem::sites(&protein, pad, WATER_SPACING);
                if atoms as f64 + 3.0 * waters > MAX_ATOMS as f64 {
                    let pad = args.value("--solvate").unwrap_or_default();
                    too_large(format!("--protein {n} --solvate {pad}"))
                }
                SolvatedSystem::build(&protein, pad, WATER_SPACING, 2.4, seed + 1)
            }
            None => protein,
        }
    } else if args.has("--waters") {
        let n = args.get_positive("--waters", 1);
        if n > MAX_ATOMS / 3 {
            too_large(format!("--waters {n}"))
        }
        WaterBoxBuilder::new(n).seed(seed).build()
    } else {
        usage()
    }
}

/// Grid spacing (Å) of the solvation shell: liquid water density.
const WATER_SPACING: f64 = 3.1;

/// A system request whose atom count passes what the operators index,
/// worked out from the sizes asked for before anything is built: a
/// solvated protein counts every site of its water grid as a water.
fn too_large(request: String) -> ! {
    fail(format!("{request} asks for more than {MAX_ATOMS} atoms, the most a system may have"))
}

/// The run plan the mode flags describe. `--dense` and `--shards` pick
/// the operator, `--sched` the response source; combinations no plan can
/// honour are rejected by `execute`.
fn run_plan(args: &Args) -> RunPlan {
    args.exclusive(&["--dense", "--shards"]);
    let operator = if args.has("--dense") {
        HessianOperator::DenseReference
    } else if let Some(shards) = args.get("--shards") {
        let spill = args.value("--spill").unwrap_or("target/spill");
        let tile_rows = args.get_or("--tile-rows", 512);
        HessianOperator::Sharded(ShardConfig::new(shards, spill).tile_rows(tile_rows))
    } else {
        HessianOperator::InCore
    };
    let source = match args.get("--sched") {
        Some(n_leaders) => ResponseSource::Scheduler(qfr_sched::RuntimeConfig {
            n_leaders,
            workers_per_leader: args.get_or("--workers", 2),
            ..Default::default()
        }),
        None => ResponseSource::Rayon,
    };
    RunPlan {
        checkpoint: args.value("--checkpoint").map(std::path::PathBuf::from),
        ..RunPlan::new(source, operator)
    }
}

fn cmd_spectrum(argv: &[String]) {
    let args = &Args::parse(
        argv,
        "--sigma --lambda --lanczos --temperature --json --xyz --shards \
         --spill --tile-rows --sched --workers --checkpoint \
         --cache-mb --warm --trace --metrics-out",
        "--ir --dense --dfpt --cache --metrics",
        &[
            ("--spill", "--shards"),
            ("--tile-rows", "--shards"),
            ("--workers", "--sched"),
            ("--cache-mb", "--cache"),
            ("--warm", "--cache"),
        ],
    );
    let plan = run_plan(args);
    // Every value is parsed before any work starts.
    let temperature = args.get_positive_f64("--temperature");
    let warm: usize = args.get_or("--warm", 0);
    let sigma = args.get_positive_f64("--sigma");
    let (lambda, lanczos) = lambda_and_lanczos(args);
    let cache_bytes = args.cache_bytes();

    let trace_path = args.value("--trace");
    if trace_path.is_some() {
        qfr_obs::trace::enable();
    }
    let system = build_system(args);
    println!(
        "system: {} atoms ({} residues, {} waters)",
        system.n_atoms(),
        system.residues.len(),
        system.n_waters
    );
    if let Some(path) = args.value("--xyz") {
        write_output("--xyz", path, |p| {
            std::fs::write(p, io::to_xyz(&system, "qfr spectrum input"))
        });
        println!("geometry written to {path}");
    }

    let sigma = sigma.unwrap_or(if system.n_waters > 0 { 20.0 } else { 5.0 });
    let mut workflow =
        RamanWorkflow::new(system).sigma(sigma).lambda(lambda).lanczos_steps(lanczos);
    if args.has("--dfpt") {
        workflow = workflow.engine(EngineKind::ModelDfpt);
    }
    // --cache attaches a content-addressed fragment result cache;
    // --warm N re-runs the workflow N extra times against the warm cache
    // (hit-rate demonstration — spectra are bit-identical regardless).
    let cache =
        args.has("--cache").then(|| std::sync::Arc::new(FragmentCache::with_capacity(cache_bytes)));
    if let Some(cache) = &cache {
        workflow = workflow.with_cache(std::sync::Arc::clone(cache));
    }
    if let HessianOperator::Sharded(cfg) = &plan.operator {
        let ShardConfig { shards, spill, tile_rows } = cfg;
        println!("sharded: K={shards}, spill dir {}, tile rows {tile_rows}", spill.display());
    }
    let mut result = workflow.execute(plan).unwrap_or_else(|e| match e {
        WorkflowError::UnsupportedPlan(_) => fail(e),
        _ => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    });

    if let Some(t) = temperature {
        result.spectrum.apply_bose_factor(t);
        result.ir.apply_bose_factor(t);
        println!("applied Bose factor at {t} K");
    }

    if let Some(cache) = &cache {
        for i in 0..warm {
            let rerun = workflow.run().unwrap_or_else(|e| {
                eprintln!("error: warm run {i}: {e}");
                std::process::exit(1);
            });
            assert_eq!(
                rerun.spectrum.intensities, result.spectrum.intensities,
                "cache broke bit-identity"
            );
        }
        let s = cache.stats();
        println!(
            "cache: {} entries, {:.1} MiB resident, {} hits / {} misses / {} evicted",
            s.entries,
            s.resident_bytes as f64 / (1 << 20) as f64,
            s.hits,
            s.misses,
            s.evictions
        );
    }

    println!("decomposition: {}", result.stats.summary());
    println!("run: {}", result.summary());
    if let Some(rec) = &result.recovery {
        println!(
            "recovery: {} retries, {} resumed, {} re-issues, \
             {} duplicates suppressed, {} quarantined, {} unfinished, {} leaders died, \
             {} cache hits",
            rec.retries,
            rec.resumed_jobs,
            rec.reissues,
            rec.duplicates_suppressed,
            rec.quarantined_jobs,
            rec.unfinished_jobs,
            rec.leaders_died,
            rec.cache_hits
        );
    }
    println!(
        "Raman bands (cm-1): {:?}",
        result.spectrum.peaks_above(0.05).iter().map(|p| p.round()).collect::<Vec<_>>()
    );
    if args.has("--ir") {
        println!(
            "IR bands    (cm-1): {:?}",
            result.ir.peaks_above(0.05).iter().map(|p| p.round()).collect::<Vec<_>>()
        );
        println!("\nIR spectrum:\n{}", result.ir.ascii_plot(25, 55));
    }
    println!("\nRaman spectrum:\n{}", result.spectrum.ascii_plot(25, 55));

    if let Some(path) = args.value("--json") {
        write_output("--json", path, |p| std::fs::write(p, result.to_json()));
        println!("record written to {path}");
    }

    // --metrics prints the full span/counter report, then the deterministic
    // counter block between sentinel lines so CI (and `diff`) can extract
    // and compare it byte-for-byte across same-seed runs.
    if args.has("--metrics") {
        println!("\n{}", qfr_obs::report());
        println!("-- deterministic counters --");
        print!("{}", qfr_obs::counter::deterministic_report());
        println!("-- end deterministic counters --");
    }
    if let Some(path) = args.value("--metrics-out") {
        write_output("--metrics-out", path, |p| {
            std::fs::write(p, qfr_obs::counter::deterministic_report())
        });
        println!("deterministic counters written to {path}");
    }
    if let Some(path) = trace_path {
        write_output("--trace", path, qfr_obs::trace::save);
        qfr_obs::trace::disable();
        println!("chrome trace written to {path}");
    }
}

fn cmd_decompose(argv: &[String]) {
    let args = &Args::parse(argv, "--lambda", "", &[]);
    let lambda = args.get_positive_f64("--lambda").unwrap_or(4.0);
    let system = build_system(args);
    let workflow = RamanWorkflow::new(system).lambda(lambda);
    let d = workflow.decompose();
    println!("system: {} atoms", workflow.system().n_atoms());
    println!("{}", d.stats.summary());
    println!("capped fragments    : {}", d.stats.n_capped_fragments);
    println!("conjugate caps      : {}", d.stats.n_cap_pairs);
    println!("generalized concaps : {}", d.stats.n_generalized_concaps);
    println!("residue-water pairs : {}", d.stats.n_residue_water_pairs);
    println!("water-water pairs   : {}", d.stats.n_water_water_pairs);
    println!("fragment sizes      : {}..{}", d.stats.min_size, d.stats.max_size);
}

/// Scripted driver for the concurrent [`SpectrumService`]: submits
/// `--requests` spectrum requests drawn from `--distinct` seed variants of
/// the base system (repeats of a variant are served from the shared
/// cache), waits for all of them, and reports per-request and cache-wide
/// statistics. There is no network listener — this is the in-process
/// demonstration of the service's admission, batching and cache sharing.
fn cmd_serve(argv: &[String]) {
    let args = &Args::parse(
        argv,
        "--requests --distinct --workers --max-active --max-queued --batch-window --cache-mb \
         --sigma --lambda --lanczos",
        "--metrics",
        &[],
    );
    let requests = args.get_positive("--requests", 6);
    let distinct = args.get_positive("--distinct", 2);
    let base_seed: u64 = args.get_or("--seed", 42);
    let (lambda, lanczos) = lambda_and_lanczos(args);
    let sigma = args.get_positive_f64("--sigma");
    let config = ServiceConfig {
        workers: args.get_positive("--workers", 4),
        max_active: args.get_positive("--max-active", 4),
        max_queued: args.get_or("--max-queued", 16),
        batch_window: args.get_positive("--batch-window", 32),
        engine: EngineKind::ForceField,
        cache: Some(std::sync::Arc::new(FragmentCache::with_capacity(args.cache_bytes()))),
    };
    let variants: Vec<MolecularSystem> =
        (0..distinct).map(|d| build_seeded_system(args, base_seed + d as u64)).collect();
    println!("service: {config:?}");
    let service = SpectrumService::new(config);

    let sigma = sigma.unwrap_or(if variants[0].n_waters > 0 { 20.0 } else { 5.0 });

    let mut handles = Vec::new();
    for r in 0..requests {
        let system = variants[r % distinct].clone();
        let request =
            SpectrumRequest::new(system).sigma(sigma).lambda(lambda).lanczos_steps(lanczos);
        match service.submit(request) {
            Ok(handle) => {
                println!("request {:>2}: admitted (variant {})", handle.id(), r % distinct);
                handles.push(handle);
            }
            Err(e) => println!("request {r:>2}: shed ({e})"),
        }
    }
    let (admitted, mut failed) = (handles.len(), 0);
    for handle in handles {
        let id = handle.id();
        match handle.wait() {
            Ok(result) => {
                let hits = result.recovery.as_ref().map_or(0, |r| r.cache_hits);
                println!(
                    "request {:>2}: done — {} ({} of {} fragments from cache)",
                    id,
                    result.summary(),
                    hits,
                    result.stats.n_jobs
                );
            }
            Err(e) => {
                println!("request {id:>2}: failed ({e})");
                failed += 1;
            }
        }
    }
    let s = service.cache().stats();
    println!(
        "cache: {} entries, {:.1} MiB resident, {} hits / {} misses / {} evicted",
        s.entries,
        s.resident_bytes as f64 / (1 << 20) as f64,
        s.hits,
        s.misses,
        s.evictions
    );
    if args.has("--metrics") {
        println!("\n{}", qfr_obs::report());
    }
    // A shed request was refused at admission, which the line above
    // already reports; an admitted request that failed is a run error.
    if failed > 0 {
        eprintln!("error: {failed} of {admitted} admitted requests failed");
        std::process::exit(1);
    }
}

fn cmd_info() {
    println!("qfr-raman-rs — QF-RAMAN (SC 2024) reproduction in Rust");
    println!("pipeline: QF decomposition -> per-fragment engine -> Eq.(1) assembly");
    println!("          -> Lanczos/GAGQ spectral solver (no diagonalization)");
    println!("engines : force-field (calibrated, production) | model-dfpt (faithful, small)");
    println!("docs    : README.md, DESIGN.md, EXPERIMENTS.md");
    println!("threads : {}", rayon::current_num_threads());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spectrum") => cmd_spectrum(&args[1..]),
        Some("decompose") => cmd_decompose(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("info") => cmd_info(),
        _ => usage(),
    }
}
