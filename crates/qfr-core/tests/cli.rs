//! `qfr` command-line contract: malformed `spectrum` and `serve` input is
//! a one-line error with exit status 2, and every `spectrum` mode flag runs
//! the plan it names — its spectrum record matches an in-process `run()`.

use qfr_core::RamanWorkflow;
use qfr_geom::WaterBoxBuilder;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SYSTEM: [&str; 5] = ["spectrum", "--waters", "8", "--lanczos", "60"];

fn qfr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qfr")).args(args).output().expect("spawn qfr")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qfr_cli_tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn intensities(record: &Value) -> Vec<f64> {
    let values = record["intensities"].as_array().expect("intensities array");
    values.iter().map(|v| v.as_f64().expect("number")).collect()
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f64>();
    dot(a, b) / (dot(a, a) * dot(b, b)).sqrt()
}

fn with<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    [&SYSTEM[..], extra].concat()
}

fn assert_usage_error(args: &[&str], mentions: &str) {
    assert_one_error_line(qfr(args), args, mentions);
}

/// `args` must be refused before the system is built: run under a 1 GiB
/// address-space cap, a build starts and aborts instead of exhausting the
/// host's memory.
fn assert_refused_unbuilt(args: &[&str], mentions: &str) {
    let out = Command::new("sh")
        .args(["-c", r#"ulimit -v 1048576 && exec "$0" "$@""#, env!("CARGO_BIN_EXE_qfr")])
        .args(args)
        .output()
        .expect("spawn qfr under sh");
    assert_one_error_line(out, args, mentions);
}

fn assert_one_error_line(out: Output, args: &[&str], mentions: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?} must print one line, got: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(mentions), "{args:?}: '{mentions}' missing from: {stderr}");
}

#[test]
fn malformed_command_lines_exit_2_with_one_line() {
    let dir = temp_dir("errors");
    let checkpoint = dir.join("rejected.qfrc");

    // An unparsable value is not the default.
    assert_usage_error(&["spectrum", "--waters", "8", "--lanczos", "abc"], "--lanczos");
    assert_usage_error(&["spectrum", "--waters", "many"], "--waters");
    // Unknown, valueless, repeated and orphaned flags are not ignored.
    assert_usage_error(&with(&["--bogus"]), "--bogus");
    assert_usage_error(&with(&["--json"]), "--json");
    assert_usage_error(&with(&["--sigma", "5", "--sigma", "6"]), "--sigma");
    assert_usage_error(&with(&["--tile-rows", "64"]), "--shards");
    // Conflicting modes do not silently pick one.
    assert_usage_error(&with(&["--dense", "--shards", "2"]), "--dense and --shards");
    assert_usage_error(&["spectrum", "--waters", "8", "--protein", "4"], "--protein and --waters");
    // Plans the pipeline cannot honour are usage errors too, and touch no file.
    assert_usage_error(&with(&["--shards", "0"]), "shard count");
    // Retired flags (matrix-free operator, mixed precision, scattered
    // offload) are rejected, not ignored.
    assert_usage_error(&with(&["--stream"]), "--stream");
    assert_usage_error(&with(&["--precision", "f64"]), "--precision");
    assert_usage_error(&with(&["--offload", "scattered"]), "unknown flag '--offload'");
    // A checkpoint is a journal appended as responses settle: there is no
    // save interval to set.
    let interval = ["spectrum", "--waters", "8", "--checkpoint", "x", "--checkpoint-interval", "4"];
    assert_usage_error(&interval, "unknown flag '--checkpoint-interval'");
    assert!(!Path::new("x").exists(), "a refused command line wrote a checkpoint");
    let checkpoint_arg = checkpoint.to_str().expect("utf-8 temp path");
    assert_usage_error(&with(&["--shards", "2", "--checkpoint", checkpoint_arg]), "checkpoint");
    assert!(!checkpoint.exists(), "a rejected plan wrote a checkpoint");
    // A cache budget whose byte count overflows is not wrapped to
    // "unbounded".
    assert_usage_error(&with(&["--cache", "--cache-mb", "17592186044416"]), "--cache-mb");
    // Zero workers, running slots or batch window would hang or be
    // silently replaced; all three are rejected.
    for flag in ["--workers", "--max-active", "--batch-window"] {
        assert_usage_error(&["serve", "--waters", "8", "--requests", "1", flag, "0"], flag);
    }
    // Out-of-range numbers are usage errors, not panics or an all-zero
    // spectrum: σ, λ and T must be finite and above 0, step and residue
    // counts at least 1.
    for (flag, value) in [
        ("--sigma", "-1"),
        ("--sigma", "0"),
        ("--sigma", "nan"),
        ("--sigma", "inf"),
        ("--lambda", "0"),
        ("--lambda", "-1"),
        ("--lambda", "nan"),
        ("--temperature", "-5"),
        ("--temperature", "nan"),
        ("--lanczos", "0"),
    ] {
        assert_usage_error(&["spectrum", "--waters", "8", flag, value], flag);
    }
    assert_usage_error(&["spectrum", "--protein", "0"], "--protein");
    // An empty water box is refused up front, not run (and failed, or
    // decomposed into nothing) on zero atoms.
    for command in ["spectrum", "decompose", "serve"] {
        assert_usage_error(&[command, "--waters", "0"], "--waters must be at least 1");
    }
    assert_usage_error(&["serve", "--waters", "8", "--sigma", "0"], "--sigma");
    assert_usage_error(&["serve", "--waters", "8", "--lambda", "nan"], "--lambda");
    assert_usage_error(&["serve", "--waters", "8", "--lanczos", "0"], "--lanczos");
    assert_usage_error(&["decompose", "--waters", "8", "--lambda", "-1"], "--lambda");
    // A solvation pad must be finite and at least 0 (0 is a valid pad), and
    // at least one seed variant and one request must be served.
    assert_usage_error(&["spectrum", "--protein", "2", "--solvate", "-1"], "--solvate");
    assert_usage_error(&["spectrum", "--protein", "2", "--solvate", "nan"], "--solvate");
    // A system past the operators' index range is refused from the sizes
    // asked for, not built first.
    let limit = "more than 1431655765 atoms";
    assert_refused_unbuilt(&["spectrum", "--protein", "2", "--solvate", "1e9"], limit);
    assert_refused_unbuilt(&["spectrum", "--waters", "2000000000"], limit);
    assert_usage_error(&["serve", "--waters", "8", "--distinct", "0"], "--distinct");
    assert_usage_error(&["serve", "--waters", "8", "--requests", "0"], "--requests");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_mode_flag_reproduces_run() {
    let dir = temp_dir("modes");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_owned();
    let system = WaterBoxBuilder::new(8).seed(42).build();
    let reference = RamanWorkflow::new(system).sigma(20.0).lanczos_steps(60).run().expect("run()");
    let reference: Value = serde_json::from_str(&reference.to_json()).expect("reference record");

    let (spill, checkpoint, sched_checkpoint) =
        (path("spill"), path("plain.qfrc"), path("sched.qfrc"));
    let modes: [(&str, &[&str], bool); 6] = [
        ("default", &[], true),
        ("dense", &["--dense"], false),
        ("shards", &["--shards", "3", "--spill", &spill, "--tile-rows", "16"], true),
        ("sched", &["--sched", "2", "--workers", "1"], true),
        ("checkpoint", &["--checkpoint", &checkpoint], true),
        ("sched+checkpoint", &["--sched", "2", "--checkpoint", &sched_checkpoint], true),
    ];
    for (name, flags, exact) in modes {
        let json = path(&format!("{name}.json"));
        let out = qfr(&[&SYSTEM[..], flags, &["--json", &json]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {stderr}");
        let text = std::fs::read_to_string(&json).expect("spectrum record");
        let record: Value = serde_json::from_str(&text).expect("record parses");
        assert_eq!(record["wavenumbers"], reference["wavenumbers"], "{name}");
        if exact {
            assert_eq!(record["intensities"], reference["intensities"], "{name}");
            assert_eq!(record["hessian_nnz"], reference["hessian_nnz"], "{name}");
        } else {
            let sim = cosine(&intensities(&record), &intensities(&reference));
            assert!(sim > 0.995, "{name}: cosine similarity {sim}");
        }
    }
    assert!(Path::new(&checkpoint).exists() && Path::new(&sched_checkpoint).exists());
    assert!(Path::new(&spill).join("shard-00002.qfrs").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--checkpoint` file that exists but does not load is a run error (exit
/// 1, one line), not a cold start whose final save overwrites it.
#[test]
fn unloadable_checkpoint_exits_1_and_is_left_untouched() {
    let dir = temp_dir("unloadable");
    let checkpoint = dir.join("garbage.qfrc");
    let garbage = b"not a checkpoint at all";
    std::fs::write(&checkpoint, garbage).expect("write checkpoint");
    let out = qfr(&with(&["--checkpoint", checkpoint.to_str().expect("utf-8 temp path")]));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains("checkpoint"), "{stderr}");
    assert_eq!(std::fs::read(&checkpoint).expect("reread"), garbage, "checkpoint overwritten");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint the model-DFPT engine wrote does not resume a force-field
/// run of the same system: exit 1 with one line, the file left as it is.
#[test]
fn checkpoint_of_another_engine_exits_1_and_is_left_untouched() {
    let dir = temp_dir("other_engine");
    let checkpoint = dir.join("dfpt.qfrc");
    let path = checkpoint.to_str().expect("utf-8 temp path");
    let dimer = ["spectrum", "--waters", "2", "--lanczos", "20", "--checkpoint", path];
    let first = qfr(&[&dimer[..], &["--dfpt"]].concat());
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let written = std::fs::read(&checkpoint).expect("model-DFPT checkpoint");
    let out = qfr(&dimer);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line, got: {stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains("checkpoint"), "{stderr}");
    assert_eq!(std::fs::read(&checkpoint).expect("reread"), written, "checkpoint overwritten");
    std::fs::remove_dir_all(&dir).ok();
}

/// An output file that cannot be written is a run error (exit 1, one line
/// naming the flag and the path), not a panic after the run.
#[test]
fn unwritable_output_path_exits_1_with_one_line() {
    let dir = temp_dir("unwritable");
    let file = dir.join("plain");
    std::fs::write(&file, b"").expect("write regular file");
    let under_file = file.join("out");
    let path = under_file.to_str().expect("utf-8 temp path");
    for flag in ["--xyz", "--json", "--metrics-out", "--trace"] {
        let out = qfr(&with(&[flag, path]));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: stderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} must print one line, got: {stderr}");
        let prefix = format!("error: {flag} {path}: ");
        assert!(stderr.starts_with(&prefix), "{flag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `qfr serve` runs every request to completion: two variants, each asked
/// for twice. The shared cache computes each fragment of a variant once, so
/// the two requests of a variant report `N` cache hits between them (which
/// request computes a fragment depends on timing) and the same spectrum.
#[test]
fn serve_completes_and_repeats_hit_the_cache() {
    let out =
        qfr(&["serve", "--waters", "8", "--requests", "4", "--distinct", "2", "--lanczos", "40"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // "request  2: done — <summary>, 0.02s total (23 of 23 fragments from cache)"
    let done: Vec<(usize, String, usize, usize)> = stdout
        .lines()
        .filter_map(|line| {
            let (head, rest) = line.split_once(": done — ")?;
            let id = head.trim_start_matches("request").trim().parse().expect("request id");
            let (summary, cache) = rest.rsplit_once(" (").expect("cache note");
            let spectrum = summary.rsplit_once(", ").expect("timing").0.to_owned();
            let counts = cache.strip_suffix(" fragments from cache)").expect("cache note");
            let (hits, n) = counts.split_once(" of ").expect("hits of n");
            Some((id, spectrum, hits.parse().expect("hits"), n.parse().expect("n")))
        })
        .collect();
    assert_eq!(done.len(), 4, "four done lines expected in: {stdout}");
    for variant in 0..2 {
        let pair: Vec<_> = done.iter().filter(|(id, ..)| id % 2 == variant).collect();
        let [(_, spectrum_a, hits_a, n_a), (_, spectrum_b, hits_b, n_b)] = pair[..] else {
            panic!("variant {variant}: expected two requests in: {stdout}");
        };
        assert_eq!(n_a, n_b, "variant {variant}: fragment counts differ");
        assert_eq!(hits_a + hits_b, *n_a, "variant {variant}: each fragment computed once");
        assert_eq!(spectrum_a, spectrum_b, "variant {variant}: repeat served a different spectrum");
    }
}
