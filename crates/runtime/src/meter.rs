//! Traffic accounting for the threaded multicomputer.
//!
//! Every send is recorded per hypercube dimension: message count and data
//! volume (in elements). The meters let tests and experiments confirm that
//! an ordering's *executed* traffic matches what the analytic cost models
//! assumed — e.g. that BR really pushes half of all volume through
//! dimension 0 while permuted-BR spreads it.
//!
//! Accounting is split into two planes:
//!
//! * the **data plane** — block payloads, the traffic the paper's tables
//!   and Figure 2 count; reported by [`TrafficMeter::volume`],
//!   [`TrafficMeter::messages`] and friends;
//! * the **control plane** — protocol messages that carry no block data
//!   (convergence-vote scalars, acknowledgements); reported by the
//!   `control_*` accessors and kept out of the data totals so a
//!   convergence vote can never pollute a block-traffic comparison.
//!
//! A message's plane is declared by its type via
//! [`Meterable::is_control`](crate::spmd::Meterable::is_control).
//!
//! Both planes count *modelled* transmissions, one per
//! [`NodeCtx::charge`](crate::spmd::NodeCtx::charge). What the host moved
//! to produce them is counted apart: [`TrafficMeter::shipments`] is the
//! number of channel messages, fewer than the transmissions wherever a
//! program charges a payload packet by packet and ships it once.
//!
//! When several independent problems share one fabric (the batch
//! scheduler), every message also carries a *job id*
//! ([`Meterable::job`](crate::spmd::Meterable::job)) and the meter keeps
//! per-job totals next to the per-dimension ones, so each job's data and
//! control traffic is reported separately instead of blending all jobs
//! into one number. Solo programs tag everything job 0 and see exactly the
//! historical totals.

use std::sync::atomic::{AtomicU64, Ordering};

/// One job's traffic totals: data/control messages and elements.
#[derive(Debug, Default)]
struct JobCounters {
    messages: AtomicU64,
    elems: AtomicU64,
    control_messages: AtomicU64,
    control_elems: AtomicU64,
}

/// Lock-free per-dimension traffic counters (shared by all node threads),
/// kept separately for the data and control planes, plus per-job totals.
#[derive(Debug)]
pub struct TrafficMeter {
    messages: Vec<AtomicU64>,
    elems: Vec<AtomicU64>,
    control_messages: Vec<AtomicU64>,
    control_elems: Vec<AtomicU64>,
    jobs: Vec<JobCounters>,
    shipments: AtomicU64,
}

impl TrafficMeter {
    /// A meter for a `d`-cube carrying a single (solo) job.
    pub fn new(d: usize) -> Self {
        TrafficMeter::with_jobs(d, 1)
    }

    /// A meter for a `d`-cube shared by `njobs` batch jobs (ids
    /// `0..njobs`).
    pub fn with_jobs(d: usize, njobs: usize) -> Self {
        let counters = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let n = d.max(1);
        TrafficMeter {
            messages: counters(n),
            elems: counters(n),
            control_messages: counters(n),
            control_elems: counters(n),
            jobs: (0..njobs.max(1)).map(|_| JobCounters::default()).collect(),
            shipments: AtomicU64::new(0),
        }
    }

    /// Number of jobs this meter tracks separately.
    pub fn jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Records one message of `elems` elements on dimension `dim` for
    /// `job`, on the control plane when `control` is set, on the data
    /// plane otherwise.
    ///
    /// # Panics
    /// Panics if `job` is outside the meter's job range — a message tagged
    /// for a job the run never registered means the framing is corrupt.
    pub fn record(&self, dim: usize, elems: u64, control: bool, job: u32) {
        let jc = self
            .jobs
            .get(job as usize)
            .unwrap_or_else(|| panic!("message tagged job {job}, meter tracks {}", self.jobs()));
        if control {
            self.control_messages[dim].fetch_add(1, Ordering::Relaxed);
            self.control_elems[dim].fetch_add(elems, Ordering::Relaxed);
            jc.control_messages.fetch_add(1, Ordering::Relaxed);
            jc.control_elems.fetch_add(elems, Ordering::Relaxed);
        } else {
            self.messages[dim].fetch_add(1, Ordering::Relaxed);
            self.elems[dim].fetch_add(elems, Ordering::Relaxed);
            jc.messages.fetch_add(1, Ordering::Relaxed);
            jc.elems.fetch_add(elems, Ordering::Relaxed);
        }
    }

    /// Counts one channel message, whatever it carries.
    pub(crate) fn record_shipment(&self) {
        self.shipments.fetch_add(1, Ordering::Relaxed);
    }

    /// Channel messages moved so far, both planes: what the host did,
    /// where every other counter here is what the model was charged.
    pub fn shipments(&self) -> u64 {
        self.shipments.load(Ordering::Relaxed)
    }

    /// Data-plane messages sent on `dim` so far.
    pub fn messages(&self, dim: usize) -> u64 {
        self.messages[dim].load(Ordering::Relaxed)
    }

    /// Data-plane elements sent on `dim` so far.
    pub fn volume(&self, dim: usize) -> u64 {
        self.elems[dim].load(Ordering::Relaxed)
    }

    /// Total data-plane messages across dimensions.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Total data-plane volume across dimensions.
    pub fn total_volume(&self) -> u64 {
        self.elems.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Per-dimension data-plane volume snapshot.
    pub fn volume_by_dim(&self) -> Vec<u64> {
        self.elems.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    /// Control-plane messages sent on `dim` so far.
    pub fn control_messages(&self, dim: usize) -> u64 {
        self.control_messages[dim].load(Ordering::Relaxed)
    }

    /// Control-plane elements sent on `dim` so far.
    pub fn control_volume(&self, dim: usize) -> u64 {
        self.control_elems[dim].load(Ordering::Relaxed)
    }

    /// Total control-plane messages across dimensions.
    pub fn total_control_messages(&self) -> u64 {
        self.control_messages.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Total control-plane volume across dimensions.
    pub fn total_control_volume(&self) -> u64 {
        self.control_elems.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Data-plane messages sent so far by `job`.
    pub fn job_messages(&self, job: usize) -> u64 {
        self.jobs[job].messages.load(Ordering::Relaxed)
    }

    /// Data-plane elements sent so far by `job`.
    pub fn job_volume(&self, job: usize) -> u64 {
        self.jobs[job].elems.load(Ordering::Relaxed)
    }

    /// Control-plane messages sent so far by `job`.
    pub fn job_control_messages(&self, job: usize) -> u64 {
        self.jobs[job].control_messages.load(Ordering::Relaxed)
    }

    /// Control-plane elements sent so far by `job`.
    pub fn job_control_volume(&self, job: usize) -> u64 {
        self.jobs[job].control_elems.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let m = TrafficMeter::new(3);
        m.record(0, 10, false, 0);
        m.record(0, 5, false, 0);
        m.record(2, 7, false, 0);
        assert_eq!(m.messages(0), 2);
        assert_eq!(m.volume(0), 15);
        assert_eq!(m.messages(1), 0);
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.total_volume(), 22);
        assert_eq!(m.volume_by_dim(), vec![15, 0, 7]);
        // A solo meter tracks one job, and everything lands on it.
        assert_eq!(m.jobs(), 1);
        assert_eq!(m.job_messages(0), 3);
        assert_eq!(m.job_volume(0), 22);
    }

    #[test]
    fn control_plane_is_kept_out_of_data_totals() {
        let m = TrafficMeter::new(2);
        m.record(0, 100, false, 0); // a block
        m.record(0, 1, true, 0); // a convergence vote
        m.record(1, 1, true, 0);
        assert_eq!(m.total_volume(), 100, "votes must not pollute block volume");
        assert_eq!(m.total_messages(), 1);
        assert_eq!(m.control_messages(0), 1);
        assert_eq!(m.control_messages(1), 1);
        assert_eq!(m.total_control_messages(), 2);
        assert_eq!(m.total_control_volume(), 2);
        assert_eq!(m.control_volume(0), 1);
        assert_eq!(m.volume_by_dim(), vec![100, 0]);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let m = std::sync::Arc::new(TrafficMeter::new(2));
        let mut handles = Vec::new();
        for i in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.record(1, 3, i % 2 == 0, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.messages(1), 4000);
        assert_eq!(m.volume(1), 12000);
        assert_eq!(m.control_messages(1), 4000);
        assert_eq!(m.control_volume(1), 12000);
    }

    #[test]
    fn per_job_totals_split_the_planes() {
        // Two jobs on one meter: the per-dimension totals blend, the
        // per-job accessors keep every job's data and control traffic
        // apart — the batch scheduler's reporting invariant.
        let m = TrafficMeter::with_jobs(2, 2);
        m.record(0, 100, false, 0);
        m.record(1, 40, false, 1);
        m.record(0, 1, true, 1);
        assert_eq!(m.jobs(), 2);
        assert_eq!(m.total_volume(), 140);
        assert_eq!(m.job_volume(0), 100);
        assert_eq!(m.job_volume(1), 40);
        assert_eq!(m.job_messages(0), 1);
        assert_eq!(m.job_messages(1), 1);
        assert_eq!(m.job_control_messages(0), 0);
        assert_eq!(m.job_control_messages(1), 1);
        assert_eq!(m.job_control_volume(1), 1);
        // Per-job sums reproduce the blended totals exactly.
        assert_eq!(m.job_volume(0) + m.job_volume(1), m.total_volume());
    }

    #[test]
    #[should_panic(expected = "meter tracks")]
    fn unregistered_job_panics() {
        let m = TrafficMeter::with_jobs(1, 2);
        m.record(0, 1, false, 2);
    }
}
