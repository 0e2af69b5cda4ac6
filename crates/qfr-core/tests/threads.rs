//! Thread-count parity: under `RAYON_NUM_THREADS` = 1, 2 and 4 the `qfr`
//! binary writes the same `--json` record and the same `--metrics-out`
//! counter report, byte for byte, in every mode. The record's timings
//! (`*_s`) and the scheduler's timing-sensitive recovery counts (straggler
//! re-issues and the duplicates they suppress, DESIGN.md §8) are left out.

use std::path::Path;
use std::process::{Child, Command};

const THREADS: [&str; 3] = ["1", "2", "4"];

/// Starts one `qfr spectrum` run writing its record and counters to `dir`.
fn start(args: &[&str], threads: &str, dir: &Path) -> Child {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create temp dir");
    let mut qfr = Command::new(env!("CARGO_BIN_EXE_qfr"));
    qfr.args(["spectrum", "--seed", "42"]).args(args).env("RAYON_NUM_THREADS", threads);
    qfr.arg("--json").arg(dir.join("record.json"));
    qfr.arg("--metrics-out").arg(dir.join("metrics.txt"));
    if args.contains(&"--shards") {
        qfr.arg("--spill").arg(dir.join("spill"));
    }
    qfr.stdout(std::process::Stdio::null()).spawn().expect("spawn qfr")
}

/// The record without its timing-sensitive lines, and the counter report.
fn outputs(dir: &Path) -> (String, String) {
    let read = |name| std::fs::read_to_string(dir.join(name)).expect("qfr output file");
    let timed = |key: &str| {
        key.ends_with("_s\"") || ["\"reissues\"", "\"duplicates_suppressed\""].contains(&key)
    };
    let untimed = read("record.json")
        .lines()
        .filter(|line| !timed(line.trim_start().split(':').next().unwrap_or("")))
        .collect::<Vec<_>>()
        .join("\n");
    (untimed, read("metrics.txt"))
}

#[test]
fn outputs_do_not_depend_on_the_thread_count() {
    let modes: [(&str, &[&str]); 4] = [
        ("in-core", &["--waters", "64"]),
        ("sharded", &["--waters", "64", "--shards", "4"]),
        ("scheduled", &["--waters", "64", "--sched", "2"]),
        ("dfpt", &["--waters", "2", "--dfpt"]),
    ];
    let root = std::env::temp_dir().join("qfr_thread_parity");
    for (mode, args) in modes {
        // The three thread counts run side by side.
        let dirs = THREADS.map(|t| root.join(format!("{mode}-{t}")));
        let runs: Vec<Child> = THREADS.iter().zip(&dirs).map(|(t, d)| start(args, t, d)).collect();
        for (mut run, threads) in runs.into_iter().zip(THREADS) {
            assert!(run.wait().expect("wait for qfr").success(), "{mode} failed on {threads}");
        }
        let reference = outputs(&dirs[0]);
        assert!(reference.0.contains("\"intensities\""), "{mode}: no spectrum in the record");
        for (dir, threads) in dirs.iter().zip(THREADS).skip(1) {
            let (record, metrics) = outputs(dir);
            assert!(record == reference.0, "{mode}: record differs on {threads} threads");
            assert!(metrics == reference.1, "{mode}: counters differ on {threads} threads");
        }
    }
}
