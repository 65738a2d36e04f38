//! # mph-serve — online job service over one shared link fabric
//!
//! The batch layer (`mph-batch`) answers "here are N problems, solve
//! them well together". This crate answers the serving question: jobs
//! *arrive over time* on the fabric's deterministic virtual clock, wait
//! in a bounded admission queue, and join the cooperative driver
//! mid-flight at sweep boundaries — preemption-free shortest-plan-first
//! admission priced by the same `mph_ccpipe` cost model that schedules
//! the batch, with size-staggered de-phasing of same-family jobs.
//!
//! * [`ScenarioGen`] — seeded open-loop traffic: exponential
//!   interarrival gaps over a weighted job-size mix, fully replayable;
//! * [`serve`] — lower once, plan admission ([`mph_batch::service_plan`]),
//!   run `mph_eigen::run_job_service`, measure;
//! * [`ServeReport`] — per-job outcomes (latency = arrival→finish),
//!   [`LatencyStats`] p50/p90/p99, queue-wait distribution, jobs/s and
//!   elems/s on the virtual clock, and a priced backlog time series
//!   (queued at full cost, active at the plan price of their remaining
//!   sweeps);
//! * backpressure — an arrival finding the queue full is shed with the
//!   typed `Rejected::QueueFull`, never silently dropped.
//!
//! The serving layer inherits the batch invariant, proptested in
//! `tests/proptests.rs`: every *served* job is bitwise identical to its
//! solo threaded run — mid-flight admission changes when micro-ops run,
//! never what any job computes — and every admitted job finishes
//! (preemption-free SPF cannot starve an admitted job).

pub mod metrics;
pub mod scenario;
pub mod service;

pub use metrics::{latency_stats, LatencyStats};
pub use mph_batch::{AdmissionConfig, Policy, Throughput};
pub use mph_eigen::{BoundarySample, JobOutcome, Rejected, ServiceRun};
pub use scenario::{JobClass, Scenario, ScenarioGen};
pub use service::{serve, BacklogPoint, ServeOptions, ServeReport};
