//! Global double-precision FLOP accounting.
//!
//! Table I of the QF-RAMAN paper reports measured FP64 FLOP rates for the two
//! hot DFPT phases (response density `n1(r)` and response Hamiltonian
//! `H1`). The paper's measurement mechanism is "timer and FLOP count"; this
//! module is our FLOP-count half. Every kernel in this workspace calls
//! [`add`] with its exact floating-point operation count, and a [`FlopScope`]
//! bracketing a phase yields the count attributable to that phase.
//!
//! The counter is a process-global relaxed atomic: kernels on any rayon
//! worker thread contribute to the same counter, so a scope measured around a
//! parallel region captures the whole region's work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static FLOPS: AtomicU64 = AtomicU64::new(0);

/// Mirror of the global FLOP total in the `qfr-obs` registry, so `--metrics`
/// reports and the CI baseline see the same number [`total`] returns.
/// The two are reset independently ([`reset`] here, `qfr_obs::counter::reset`
/// there); measured sections reset both via `qfr_obs::reset_all` + [`reset`].
static OBS_FLOPS: qfr_obs::Counter = qfr_obs::Counter::deterministic("linalg.flops");

/// Adds `n` double-precision floating-point operations to the global counter.
#[inline]
pub fn add(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
    OBS_FLOPS.add(n);
}

/// Current global FLOP counter value.
#[inline]
pub fn total() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// Resets the global counter to zero. Intended for test/bench setup only —
/// racing resets against in-flight kernels yields unspecified totals.
pub fn reset() {
    FLOPS.store(0, Ordering::Relaxed);
}

/// Measures the FLOPs and wall-clock time of a bracketed region.
///
/// ```
/// use qfr_linalg::flops::FlopScope;
/// let scope = FlopScope::start();
/// qfr_linalg::flops::add(1000);
/// let m = scope.finish();
/// assert_eq!(m.flops, 1000);
/// ```
#[derive(Debug)]
pub struct FlopScope {
    start_flops: u64,
    start_time: Instant,
}

/// Result of a [`FlopScope`] measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlopMeasurement {
    /// FLOPs executed (globally) during the scope.
    pub flops: u64,
    /// Wall-clock seconds elapsed.
    pub seconds: f64,
}

impl FlopMeasurement {
    /// Achieved GFLOP/s (0 when the elapsed time is zero).
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

impl FlopScope {
    /// Starts a measurement scope at the current counter value.
    pub fn start() -> Self {
        Self { start_flops: total(), start_time: Instant::now() }
    }

    /// Ends the scope, returning FLOPs and elapsed seconds.
    pub fn finish(self) -> FlopMeasurement {
        FlopMeasurement {
            flops: total().wrapping_sub(self.start_flops),
            seconds: self.start_time.elapsed().as_secs_f64(),
        }
    }
}

/// Exact FLOP count of a `m x k` by `k x n` GEMM with accumulate
/// (`C += A B`): one multiply and one add per inner-product term.
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_measures_delta() {
        let s = FlopScope::start();
        add(123);
        add(877);
        let m = s.finish();
        assert!(m.flops >= 1000); // other tests may add concurrently
        assert!(m.seconds >= 0.0);
    }

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }

    #[test]
    fn gflops_zero_time_is_zero() {
        let m = FlopMeasurement { flops: 100, seconds: 0.0 };
        assert_eq!(m.gflops(), 0.0);
        let m = FlopMeasurement { flops: 2_000_000_000, seconds: 1.0 };
        assert!((m.gflops() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_is_monotone_under_add() {
        let before = total();
        add(5);
        assert!(total() >= before + 5 || total() < before /* reset raced */);
    }
}
