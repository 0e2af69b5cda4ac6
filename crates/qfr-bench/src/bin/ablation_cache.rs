//! Ablation: the content-addressed fragment result cache.
//!
//! Three runs of the same workload — uncached, cold-cached (computes and
//! populates), warm-cached (served from memory). The contract under test:
//! hits are **bit-identical** (all three spectra must match value for
//! value), and the warm run's hit rate must be ≥ 90%.

use qfr_bench::{fast_mode, header, row, scaled, write_record};
use qfr_cache::FragmentCache;
use qfr_core::RamanWorkflow;
use qfr_geom::{MolecularSystem, WaterBoxBuilder};
use std::sync::Arc;
use std::time::Instant;

fn timed_run(wf: &RamanWorkflow) -> (qfr_core::RamanResult, f64) {
    let t = Instant::now();
    let result = wf.run().expect("workflow run");
    (result, t.elapsed().as_secs_f64())
}

fn main() {
    let n_waters = scaled(64usize, 16);
    let system = WaterBoxBuilder::new(n_waters).seed(29).build();
    let lanczos = scaled(120usize, 40);
    let workflow =
        |sys: MolecularSystem| RamanWorkflow::new(sys).sigma(25.0).lanczos_steps(lanczos);

    // Uncached baseline.
    let (uncached, t_uncached) = timed_run(&workflow(system.clone()));
    let n_jobs = uncached.stats.n_jobs;

    // Cold + warm through one cache.
    let cache = Arc::new(FragmentCache::with_capacity(256 << 20));
    let wf = workflow(system).with_cache(Arc::clone(&cache));
    let (cold, t_cold) = timed_run(&wf);
    let hits_before_warm = cache.stats().hits;
    let (warm, t_warm) = timed_run(&wf);
    let warm_hits = cache.stats().hits - hits_before_warm;
    let hit_rate = warm_hits as f64 / n_jobs as f64;

    for (name, run) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(
            run.spectrum.intensities, uncached.spectrum.intensities,
            "{name} cached spectrum must be bit-identical to the uncached baseline"
        );
        assert_eq!(run.ir.intensities, uncached.ir.intensities);
    }
    assert!(
        hit_rate >= 0.9,
        "warm-run hit rate {hit_rate:.3} below the 0.9 floor ({warm_hits}/{n_jobs})"
    );

    header(&format!("Fragment cache ablation ({} atoms, {n_jobs} jobs)", uncached.n_atoms));
    row(&["run", "wall(s)", "hits", "hit rate", "speedup"], &[10, 10, 8, 10, 10]);
    let line = |name: &str, t: f64, hits: u64, rate: f64| {
        row(
            &[
                name,
                &format!("{t:.4}"),
                &hits.to_string(),
                &format!("{:.1}%", 100.0 * rate),
                &format!("{:.2}x", t_uncached / t),
            ],
            &[10, 10, 8, 10, 10],
        );
    };
    line("uncached", t_uncached, 0, 0.0);
    line("cold", t_cold, 0, 0.0);
    line("warm", t_warm, warm_hits, hit_rate);

    println!(
        "\nReading: hits reuse stored responses bit-for-bit (the warm run\n\
         does no engine work)."
    );

    write_record(
        "ablation_cache",
        &format!(
            "{{\"n_jobs\":{n_jobs},\"uncached_s\":{t_uncached},\"cold_s\":{t_cold},\
             \"warm_s\":{t_warm},\"warm_hits\":{warm_hits},\"warm_hit_rate\":{hit_rate},\
             \"warm_speedup\":{},\"fast\":{}}}",
            t_uncached / t_warm,
            fast_mode()
        ),
    );
}
