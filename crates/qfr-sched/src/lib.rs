//! # qfr-sched
//!
//! The HPC runtime of QF-RAMAN (Section V of the paper), reproduced at two
//! levels of fidelity:
//!
//! - a **real shared-memory runtime** ([`runtime`]) with the paper's
//!   three-level master/leader/worker hierarchy on OS threads and crossbeam
//!   channels, including task prefetching and fault recovery;
//! - a **discrete-event cluster simulator** ([`simulator`]) that drives the
//!   *same* [`balancer`] policies at the paper's scales (750–96,000 nodes),
//!   regenerating the load-balance variance of Fig. 8 and the strong/weak
//!   scaling of Figs. 10–11 — the substitution for the inaccessible ORISE
//!   and Sunway machines (see DESIGN.md);
//! - a **deterministic fault-injection layer** ([`fault`]) shared by both
//!   executors: a seedable [`FaultPlan`] of per-attempt failure
//!   probabilities, injected straggler latency, and leader-death schedules,
//!   plus the [`RecoveryPolicy`] governing retries and re-issue;
//! - the **system-size-sensitive load balancer** ([`balancer`], Fig. 4):
//!   largest fragments as singleton tasks, medium fragments packed to a
//!   target cost, and a shrinking-granularity tail that lets busy leaders
//!   finish together with idle ones;
//! - **elastic workload offloading** ([`offload`], Fig. 5): scattered small
//!   GEMMs gathered into stride-32 size-class batches and priced against a
//!   modeled accelerator with launch overheads, reproducing the
//!   profitability crossover (the real batched execution is
//!   `qfr_linalg::batch::execute_jobs`);
//! - **machine models** ([`machine`]) of ORISE and the new Sunway for the
//!   Table I full-system extrapolations.
//!
//! # Recovery-semantics contract
//!
//! Both executors drive one task state machine, the recovery [`ledger`],
//! whose module doc is the normative statement of the contract: eager
//! retry with backoff, quarantine, straggler re-issue, exactly-once
//! crediting and fragment conservation. Retries and quarantines therefore
//! match [`FaultPlan::forecast`] exactly in either executor.

#![forbid(unsafe_code)]

pub mod balancer;
pub mod fault;
pub mod ledger;
pub mod machine;
pub mod offload;
pub mod pool;
pub mod runtime;
pub mod simulator;
pub mod task;

pub use balancer::{
    Policy, RandomPolicy, RoundRobinPolicy, SizeSensitivePolicy, SortedSingletonPolicy,
};
pub use fault::{FaultForecast, FaultPlan, RecoveryPolicy};
pub use machine::MachineModel;
pub use offload::{offload_comparison, ModeledAccelerator, OffloadReport};
pub use pool::WorkerPool;
pub use runtime::{
    run_master_leader_worker, run_master_leader_worker_settled, RunReport, RuntimeConfig,
};
pub use simulator::{simulate, SimConfig, SimReport};
pub use task::{cost_model, shard_range_workload, FragmentWorkItem, Task};
