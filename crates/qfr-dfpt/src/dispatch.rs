//! The gather → accelerator → scatter bridge of the DFPT hot loops.
//!
//! Every dense-algebra hot loop in this crate (SCF density and Fock
//! builds, response phases 1/2/4) funnels its kernel-tagged job stream
//! through this one chokepoint, which dispatches to
//! [`qfr_sched::CpuAccelerator`] under the caller's
//! [`OffloadMode`] and returns results in job-index order. Keeping a single
//! dispatch point makes the determinism argument local (DESIGN.md §10):
//! gather order is the loop order of the caller, execution computes each
//! job independently of its batch companions, and scatter-back is indexed —
//! so results are identical in both modes and independent of batching
//! companions.

use qfr_linalg::batch::{BatchJob, OffloadMode};
use qfr_linalg::DMatrix;

/// Executes a gathered job stream through the shared CPU accelerator,
/// returning results in job order.
pub fn dispatch_jobs(jobs: &[BatchJob], mode: OffloadMode) -> Vec<DMatrix> {
    qfr_sched::CpuAccelerator.execute_jobs(jobs, mode).0
}
