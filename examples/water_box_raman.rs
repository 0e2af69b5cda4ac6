//! Pure-water Raman spectrum at increasing system size, with the
//! low-frequency intermolecular band.
//!
//! The paper computes a 101,250,000-atom pure-water spectrum and observes
//! "the emergence of peaks in the low-frequency region ... attributed to
//! two-body interactions and the increased number of atoms". This example
//! sweeps the box size, showing the low-frequency (< 400 cm⁻¹)
//! intermolecular intensity growing with system size relative to the
//! intramolecular bands, plus the out-of-core sharded path
//! ([`qfr_core::RamanWorkflow::run_sharded`]) that makes beyond-memory
//! sizes tractable.
//!
//! ```sh
//! cargo run --release -p qfr-core --example water_box_raman
//! ```

use qfr_core::{RamanWorkflow, ShardConfig};
use qfr_geom::WaterBoxBuilder;

fn main() {
    println!("size sweep (assembled path):");
    for n in [8usize, 64, 216] {
        let system = WaterBoxBuilder::new(n).seed(21).build();
        let result = RamanWorkflow::new(system).sigma(20.0).run().expect("workflow failed");
        let mut spec = result.spectrum.clone();
        spec.normalize_max();
        // Fraction of spectral weight below 400 cm^-1.
        let low: f64 = spec
            .wavenumbers
            .iter()
            .zip(&spec.intensities)
            .filter(|(&w, _)| w < 400.0)
            .map(|(_, &i)| i)
            .sum();
        let total: f64 = spec.intensities.iter().sum();
        println!(
            "  {:>6} molecules ({:>6} atoms): ww pairs {:>6}, low-freq weight {:.3}%",
            n,
            3 * n,
            result.stats.n_water_water_pairs,
            100.0 * low / total
        );
    }

    // The out-of-core path: the Hessian is built one atom range at a time
    // (four here), spilled to disk and streamed back tile by tile — same bits.
    println!("\nsharded out-of-core operator (64 molecules, K = 4):");
    let system = WaterBoxBuilder::new(64).seed(21).build();
    let workflow = RamanWorkflow::new(system).sigma(20.0).lanczos_steps(80);
    let spill = std::env::temp_dir().join(format!("qfr_water_box_raman_{}", std::process::id()));
    let in_core = workflow.run().expect("workflow failed");
    let sharded = workflow.run_sharded(ShardConfig::new(4, &spill)).expect("sharded run failed");
    std::fs::remove_dir_all(&spill).ok();
    assert_eq!(sharded.spectrum.intensities, in_core.spectrum.intensities);
    println!(
        "  peak at {:?} cm-1 ({} stored Hessian entries, one tile resident during the solve)",
        sharded.spectrum.peak().map(|p| p.round()),
        sharded.hessian_nnz
    );
    println!("\nspectrum:\n{}", sharded.spectrum.ascii_plot(30, 60));
}
