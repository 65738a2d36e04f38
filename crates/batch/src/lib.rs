//! # mph-batch — multi-problem batch scheduling on one link fabric
//!
//! The paper's economics — `Ts + S·Tw` per message under a port model —
//! only pay off while the links are busy. A solo solve leaves them idle in
//! its serial tail (division + last transitions) and pipeline
//! prologues/epilogues; serving heavy traffic means *many* small and
//! medium problems, and their bubbles are each other's bandwidth. This
//! crate is the job-queue layer over the cooperative multi-plan driver
//! (`mph_eigen::run_job_batch`):
//!
//! * [`Job`] — an independent problem: `Job::Eigen { a, family, opts }` or
//!   `Job::Svd { a, family, opts }`;
//! * [`Policy`] — how the batch shares the fabric: [`Policy::Fifo`]
//!   (serial baseline), [`Policy::Interleave`] (round-robin micro-op
//!   interleaving — fills link bubbles, maximizes throughput),
//!   [`Policy::ShortestPlanFirst`] (serial in ascending plan-priced cost —
//!   the classic SJF, minimizes mean completion time);
//! * [`solve_batch`] — lowers every job to its `CommPlan` chain, prices
//!   the batch (`mph_ccpipe::batch_cost`), executes it on ONE shared
//!   `run_spmd` instance, and reports per-job results, per-job
//!   virtual-clock spans, per-job traffic, aggregate throughput
//!   (jobs/time and elements/time on the fabric clock), and the cost
//!   sheet's measured-vs-predicted context.
//!
//! The load-bearing invariant, proptested in `tests/proptests.rs`: every
//! job's result is **bitwise identical** to its solo
//! `block_jacobi_threaded` / `svd_block` run under every policy, port
//! model, pipelining degree, and cache setting — batching changes when
//! messages move, never what any job computes.

pub mod admission;
pub mod job;
pub mod policy;
pub mod scheduler;

pub use admission::{service_plan, AdmissionConfig};
pub use job::Job;
pub use mph_ccpipe::{batch_cost, BatchCost, BatchOrder, PlannedJob};
pub use mph_eigen::{JobResult, JobSpan, JobSpec, ServicePlan};
pub use policy::Policy;
pub use scheduler::{solve_batch, BatchConfigError, BatchOptions, BatchReport, Throughput};
