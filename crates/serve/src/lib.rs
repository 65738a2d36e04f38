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
//!   [`mph_trace::Summary`] p50/p90/p99, queue-wait distribution, jobs/s and
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

pub mod scenario;
pub mod service;

pub use mph_batch::{AdmissionConfig, Policy, Throughput};
pub use mph_eigen::{BoundarySample, JobOutcome, Rejected, ServiceRun};
pub use scenario::{JobClass, Scenario, ScenarioGen};
pub use service::{serve, BacklogPoint, ServeOptions, ServeReport};

/// The SLO metrics contract: a [`ServeReport`]'s latency and queue-wait
/// distributions are [`mph_trace::summarize`] over the served jobs'
/// samples, so these pin what the report promises of it.
#[cfg(test)]
mod metrics {
    mod tests {
        use mph_trace::summarize;

        #[test]
        fn stats_summarize_and_order_their_percentiles() {
            let sample: Vec<f64> = (1..=100).map(|i| i as f64).collect();
            let stats = summarize(&sample).expect("non-empty");
            assert_eq!(stats.count, 100);
            assert_eq!(stats.p50, 50.0);
            assert_eq!(stats.p90, 90.0);
            assert_eq!(stats.p99, 99.0);
            assert_eq!(stats.max, 100.0);
            assert_eq!(stats.mean, 50.5);
            assert!(stats.p50 <= stats.p90 && stats.p90 <= stats.p99 && stats.p99 <= stats.max);
        }

        /// A run where everything was shed has no latency distribution,
        /// not a zero one.
        #[test]
        fn empty_samples_have_no_distribution() {
            assert_eq!(summarize(&[]), None);
        }
    }
}
