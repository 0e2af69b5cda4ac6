//! Ablation: fault-rate sweep through the discrete-event simulator.
//!
//! At the paper's scale (96,000 Sunway nodes, multi-hour runs) node and
//! task failures are routine — `MachineModel::expected_node_failures`
//! predicts tens per run — so the scheduler's recovery machinery is load-
//! bearing, not defensive. This study derives the injected per-attempt
//! failure rate from the ORISE machine's MTBF via
//! [`FaultPlan::from_machine`] (rate = nodes ×
//! `node_failure_probability(run_hours)` / tasks) over a sweep of run
//! lengths, and reports how retries, quarantine, and makespan respond,
//! plus a straggler re-issue on/off comparison at a fixed failure rate
//! using `work_complete_time` (the honest "workload done" clock — a
//! suppressed duplicate can keep one node busy past it).

use qfr_bench::{header, pct, row, scaled, write_record};
use qfr_sched::balancer::SizeSensitivePolicy;
use qfr_sched::fault::{FaultPlan, RecoveryPolicy};
use qfr_sched::machine::MachineModel;
use qfr_sched::simulator::{simulate, SimConfig};
use qfr_sched::task::protein_workload;

fn main() {
    let n_frag = scaled(20_000, 1_000);
    let nodes = scaled(500, 50);
    let machine = MachineModel::orise();
    // Run lengths swept from a realistic campaign (hours) to a stress
    // regime (MTBF-scale) so the derived rate spans quiet to retry-bound.
    let run_hours = [0.0, 100.0, 1_000.0, 10_000.0, 50_000.0, 200_000.0];

    header(&format!(
        "Fault ablation — {n_frag} protein fragments on {nodes} nodes, \
         MTBF-derived failure rates ({}, MTBF {} h)",
        machine.name, machine.node_mtbf_hours
    ));
    row(
        &["run hours", "fail rate", "retries", "quarantined", "fragments", "makespan", "inflation"],
        &[10, 10, 9, 12, 10, 12, 10],
    );

    let base = SimConfig {
        n_leaders: nodes,
        recovery: RecoveryPolicy { max_attempts: 3, backoff_base: 0.5, ..Default::default() },
        ..Default::default()
    };
    let mut clean_makespan = 0.0;
    let mut records = Vec::new();
    for &hours in &run_hours {
        let plan = FaultPlan::from_machine(&machine, hours, n_frag, 2024);
        let rate = plan.failure_rate;
        let report = simulate(
            Box::new(SizeSensitivePolicy::with_defaults(protein_workload(n_frag, 1))),
            &SimConfig { faults: plan, ..base.clone() },
        );
        if hours == 0.0 {
            clean_makespan = report.makespan;
        }
        let inflation = report.makespan / clean_makespan - 1.0;
        row(
            &[
                &format!("{hours:.0}"),
                &format!("{rate:.4}"),
                &report.retries.to_string(),
                &report.quarantined_fragments.len().to_string(),
                &report.fragments.to_string(),
                &format!("{:.0}", report.makespan),
                &pct(inflation),
            ],
            &[10, 10, 9, 12, 10, 12, 10],
        );
        records.push(format!(
            "{{\"run_hours\":{hours},\"rate\":{rate},\"retries\":{},\"quarantined\":{},\"fragments\":{},\"makespan\":{},\"inflation\":{inflation}}}",
            report.retries,
            report.quarantined_fragments.len(),
            report.fragments,
            report.makespan,
        ));
    }

    // Straggler-only plan: mixing in attempt failures would hide the
    // re-issue effect, because a failing attempt fails on every copy and
    // its retry has to wait for the slowest copy to finish either way.
    header("Straggler re-issue on/off — 1% stragglers at 50x latency, no failures");
    let plan = FaultPlan::with_stragglers(7, 0.01, 50.0);
    let with = simulate(
        Box::new(SizeSensitivePolicy::with_defaults(protein_workload(n_frag, 1))),
        &SimConfig { faults: plan.clone(), ..base.clone() },
    );
    let without = simulate(
        Box::new(SizeSensitivePolicy::with_defaults(protein_workload(n_frag, 1))),
        &SimConfig {
            faults: plan,
            recovery: RecoveryPolicy { straggler_factor: None, ..base.recovery },
            ..base
        },
    );
    row(&["re-issue", "work done at", "makespan", "reissues", "suppressed"], &[10, 14, 12, 10, 12]);
    for (name, r) in [("on", &with), ("off", &without)] {
        row(
            &[
                name,
                &format!("{:.0}", r.work_complete_time),
                &format!("{:.0}", r.makespan),
                &r.reissues.to_string(),
                &r.duplicates_suppressed.to_string(),
            ],
            &[10, 14, 12, 10, 12],
        );
    }
    let gain = 1.0 - with.work_complete_time / without.work_complete_time;
    println!(
        "\nReading: the per-attempt rate follows the machine's node failure\n\
         probability (1 - exp(-h/MTBF)) spread over the task attempts;\n\
         realistic campaigns sit in the quiet regime and only MTBF-scale\n\
         runs stress recovery. Retries grow linearly in the rate while\n\
         quarantine stays rare until the rate approaches the retry budget;\n\
         makespan\n\
         inflation tracks the retry volume. Straggler re-issue finishes the\n\
         workload {} earlier (work_complete_time, not makespan: the\n\
         suppressed original still occupies its node to the end). With\n\
         attempt failures mixed in, the tail is retry-bound instead —\n\
         a failing attempt fails on every copy, so re-issue cannot\n\
         shortcut its retry.",
        pct(gain)
    );
    records.push(format!(
        "{{\"study\":\"straggler\",\"work_done_on\":{},\"work_done_off\":{},\"gain\":{gain}}}",
        with.work_complete_time, without.work_complete_time
    ));

    // Checkpoint/restart sweep through the *real* workflow: kill a
    // checkpointed scheduled run at increasing completion fractions
    // (simulated by thinning its journal) and measure how much of
    // the engine stage the restart skips. The restarted spectrum is
    // asserted bit-identical to the uninterrupted one — restart is a pure
    // scheduling change, never a numerical one.
    header("Checkpoint/restart — engine work skipped vs kill point (water box, scheduled)");
    use qfr_core::{HessianOperator, RamanWorkflow, ResponseSource, RunPlan};
    use qfr_geom::WaterBoxBuilder;
    let ckpt = std::env::temp_dir().join("qfr_ablation_restart.qfrc");
    std::fs::remove_file(&ckpt).ok();
    let wf = RamanWorkflow::new(WaterBoxBuilder::new(scaled(40, 10)).seed(11).build())
        .sigma(25.0)
        .lanczos_steps(60);
    let sched = || RunPlan {
        checkpoint: Some(ckpt.clone()),
        ..RunPlan::new(
            ResponseSource::Scheduler(qfr_sched::RuntimeConfig {
                n_leaders: 4,
                workers_per_leader: 2,
                ..Default::default()
            }),
            HessianOperator::InCore,
        )
    };
    let reference = wf.execute(sched()).expect("reference run");
    let d = wf.decompose();
    let n_jobs = d.jobs.len();
    row(&["kill at", "resumed", "recomputed", "engine s", "vs cold"], &[10, 9, 11, 10, 9]);
    let cold_engine = reference.timings.engine_s;
    for keep_pct in [0usize, 25, 50, 75, 90] {
        // Every run journals every job, so each kill point thins a full
        // journal.
        let keep = n_jobs * keep_pct / 100;
        qfr_core::checkpoint::drop_jobs(
            &ckpt,
            &d,
            wf.system(),
            qfr_model::ForceFieldEngine::NAME,
            |j| j >= keep,
        )
        .expect("partial checkpoint");
        let restarted = wf.execute(sched()).expect("restarted run");
        assert_eq!(
            restarted.spectrum.intensities, reference.spectrum.intensities,
            "restart must be bit-identical"
        );
        let rec = restarted.recovery.as_ref().expect("recovery block");
        row(
            &[
                &pct(keep_pct as f64 / 100.0),
                &rec.resumed_jobs.to_string(),
                &(n_jobs - rec.resumed_jobs).to_string(),
                &format!("{:.3}", restarted.timings.engine_s),
                &pct(restarted.timings.engine_s / cold_engine - 1.0),
            ],
            &[10, 9, 11, 10, 9],
        );
        records.push(format!(
            "{{\"study\":\"restart\",\"keep_pct\":{keep_pct},\"resumed\":{},\"recomputed\":{},\"engine_s\":{}}}",
            rec.resumed_jobs,
            n_jobs - rec.resumed_jobs,
            restarted.timings.engine_s,
        ));
    }
    std::fs::remove_file(&ckpt).ok();

    write_record("ablation_faults", &format!("[{}]", records.join(",")));
}
