//! Host facts and benchmark-owned machine probes.
//!
//! The probes are the denominators of the `_frac` layer metrics and of
//! `wall_per_ref`. They are compiled with this crate's release profile (the
//! root's, copied), so their rates are ceilings for the shipped codegen —
//! baseline x86-64 has no fused multiply-add, the "FMA" probe is a mul+add
//! chain exactly like the repo's kernels.

use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. Fixed at 100
/// on every Linux configuration this repo targets; reading it properly needs
/// `sysconf`, i.e. `libc` and `unsafe`, which this crate forbids.
const CLK_TCK: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// User + system CPU seconds of this process (all threads, dead ones too).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after ") ".
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let field = |i: usize| rest.split(' ').nth(i).and_then(|s| s.parse::<f64>().ok());
    match (field(11), field(12)) {
        (Some(u), Some(s)) => (u + s) / CLK_TCK,
        _ => 0.0,
    }
}

fn status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Size of the largest cache level sysfs reports for cpu0, in bytes.
pub fn llc_bytes() -> usize {
    let mut best = (0u32, 0usize);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.as_bytes().last() {
            Some(b'K') => size[..size.len() - 1].parse::<usize>().unwrap_or(0) << 10,
            Some(b'M') => size[..size.len() - 1].parse::<usize>().unwrap_or(0) << 20,
            _ => size.parse().unwrap_or(0),
        };
        if level >= best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// One STREAM-triad pass `a[i] = b[i] + s * c[i]`.
fn triad_pass(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
        *x = y + s * z;
    }
}

/// `rounds` steps of 16 independent mul+add chains; returns the flop count.
fn fma_chains(rounds: usize) -> u64 {
    let mut acc = [1.0f64; 16];
    let (m, a) = (black_box(0.999_999_9f64), black_box(1e-7f64));
    for _ in 0..rounds {
        for x in &mut acc {
            *x = *x * m + a;
        }
    }
    black_box(acc);
    2 * 16 * rounds as u64
}

/// Peak mul+add rate of one core under this build's codegen, GFLOP/s
/// (best of five, so a preempted slice does not lower the ceiling).
pub fn fma_gflops() -> f64 {
    let rounds = 4_000_000;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let flops = fma_chains(rounds);
            flops as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// Result of the memory-bandwidth probe.
pub struct Triad {
    /// Computed traffic (24 B per element: two reads, one write; the
    /// write-allocate read is not counted), GB/s, best pass.
    pub gbs: f64,
    /// Size of each of the three arrays.
    pub array_mib: f64,
}

/// Largest triad array. The rule is four times the last-level cache, but a
/// virtual host reports the whole socket's cache (260 MiB where this was
/// written) and first-touching the 3 GiB that asks for costs 17 s of page
/// faults there. The measured rate is flat from 32 MiB per array upwards
/// (12-13 GB/s, the same at 1040 MiB), so the probe stops at 128 MiB and
/// reports the size it used beside the cache size.
const TRIAD_ARRAY_CAP: usize = 128 << 20;

/// STREAM triad on three arrays of four times the last-level cache each,
/// capped at [`TRIAD_ARRAY_CAP`]; the size used is reported.
pub fn triad_probe() -> Triad {
    let n = (4 * llc_bytes()).clamp(32 << 20, TRIAD_ARRAY_CAP) / 8;
    let (mut a, b, c) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
    let mut best = 0.0f64;
    for pass in 0..3 {
        let t = Instant::now();
        triad_pass(&mut a, &b, &c, 3.0 + pass as f64);
        let dt = t.elapsed().as_secs_f64();
        if pass > 0 {
            // Pass 0 pays the page faults of `a`.
            best = best.max(24.0 * n as f64 / dt / 1e9);
        }
    }
    black_box(&a);
    Triad { gbs: best, array_mib: (n * 8) as f64 / (1 << 20) as f64 }
}

/// The fixed reference workload behind `host.ref_s` / `wall_per_ref`: a
/// cache-spilling triad plus a mul+add chain, about a tenth of a second.
/// Timed immediately before and after every repetition, it moves with the
/// host's momentary speed, so `wall_s / ref_s` cancels drift between sets
/// of runs. Buffers are allocated once and reused.
pub struct Reference {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let n = (4 << 20) / 8 * 2; // 8 MiB per array: beyond L2 on any host
        Self { a: vec![0.0; n], b: vec![1.0; n], c: vec![2.0; n] }
    }

    /// Seconds the reference work takes right now.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        for pass in 0..40 {
            triad_pass(&mut self.a, &self.b, &self.c, pass as f64);
        }
        black_box(&self.a);
        black_box(fma_chains(20_000_000));
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        black_box(fma_chains(20_000_000));
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn triad_pass_computes_the_triad() {
        let (mut a, b, c) = (vec![0.0; 4], vec![1.0; 4], vec![2.0; 4]);
        triad_pass(&mut a, &b, &c, 3.0);
        assert_eq!(a, vec![7.0; 4]);
    }
}
