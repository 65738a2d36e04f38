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
//!   (convergence-vote scalars, acknowledgements); counted by
//!   [`TrafficMeter::total_control_messages`] and kept out of the data
//!   totals so a convergence vote can never pollute a block-traffic
//!   comparison.
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
//! each job's data volume next to the per-dimension totals
//! ([`TrafficMeter::job_volume`]) instead of blending all jobs into one
//! number. Solo programs tag everything job 0 and see exactly the
//! historical totals.
//!
//! Nothing here is shared while a run is in flight. Every node counts its
//! own sends in the meter of its own book
//! ([`LinkClock`](crate::fabric::LinkClock), which its thread owns), and
//! the [`TrafficMeter`] a run returns is the sum of those, taken once
//! when the threads are joined.

/// Data messages and elements, and control messages, of one dimension.
#[derive(Debug, Default, Clone)]
struct Counters {
    messages: u64,
    elems: u64,
    control_messages: u64,
}

impl Counters {
    fn count(&mut self, elems: u64, control: bool) {
        if control {
            self.control_messages += 1;
        } else {
            self.messages += 1;
            self.elems += elems;
        }
    }

    fn absorb(&mut self, other: &Counters) {
        self.messages += other.messages;
        self.elems += other.elems;
        self.control_messages += other.control_messages;
    }
}

/// Per-dimension traffic totals, kept separately for the data and control
/// planes, plus each job's data elements and the host's shipment count:
/// one node's while it runs, the whole run's once the nodes' meters are
/// merged.
#[derive(Debug)]
pub struct TrafficMeter {
    dims: Vec<Counters>,
    job_elems: Vec<u64>,
    shipments: u64,
}

impl TrafficMeter {
    /// An empty meter for a `d`-cube shared by `njobs` batch jobs (ids
    /// `0..njobs`; a solo run is one job).
    pub(crate) fn with_jobs(d: usize, njobs: usize) -> Self {
        TrafficMeter {
            dims: vec![Counters::default(); d.max(1)],
            job_elems: vec![0; njobs.max(1)],
            shipments: 0,
        }
    }

    /// Records one message of `elems` elements on dimension `dim` for
    /// `job`, on the control plane when `control` is set, on the data
    /// plane otherwise.
    ///
    /// # Panics
    /// Panics if `job` is outside the meter's job range — a message tagged
    /// for a job the run never registered means the framing is corrupt.
    pub(crate) fn record(&mut self, dim: usize, elems: u64, control: bool, job: u32) {
        let njobs = self.job_elems.len();
        let job_elems = self
            .job_elems
            .get_mut(job as usize)
            .unwrap_or_else(|| panic!("message tagged job {job}, meter tracks {njobs}"));
        if !control {
            *job_elems += elems;
        }
        self.dims[dim].count(elems, control);
    }

    /// Counts one channel message, whatever it carries.
    pub(crate) fn record_shipment(&mut self) {
        self.shipments += 1;
    }

    /// Adds everything `node` counted to this meter: the merge at join.
    pub(crate) fn absorb(&mut self, node: &TrafficMeter) {
        for (mine, theirs) in self.dims.iter_mut().zip(&node.dims) {
            mine.absorb(theirs);
        }
        for (mine, theirs) in self.job_elems.iter_mut().zip(&node.job_elems) {
            *mine += theirs;
        }
        self.shipments += node.shipments;
    }

    /// Channel messages moved, both planes: what the host did, where
    /// every other counter here is what the model was charged.
    pub fn shipments(&self) -> u64 {
        self.shipments
    }

    /// Data-plane messages sent on `dim`.
    pub fn messages(&self, dim: usize) -> u64 {
        self.dims[dim].messages
    }

    /// Data-plane elements sent on `dim`.
    pub fn volume(&self, dim: usize) -> u64 {
        self.dims[dim].elems
    }

    /// Total data-plane messages across dimensions.
    pub fn total_messages(&self) -> u64 {
        self.dims.iter().map(|c| c.messages).sum()
    }

    /// Total data-plane volume across dimensions.
    pub fn total_volume(&self) -> u64 {
        self.dims.iter().map(|c| c.elems).sum()
    }

    /// Per-dimension data-plane volume.
    pub fn volume_by_dim(&self) -> Vec<u64> {
        self.dims.iter().map(|c| c.elems).collect()
    }

    /// Total control-plane messages across dimensions.
    pub fn total_control_messages(&self) -> u64 {
        self.dims.iter().map(|c| c.control_messages).sum()
    }

    /// Data-plane elements sent by `job`.
    pub fn job_volume(&self, job: usize) -> u64 {
        self.job_elems[job]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut m = TrafficMeter::with_jobs(3, 1);
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
        assert_eq!(m.job_volume(0), 22);
    }

    #[test]
    fn control_plane_is_kept_out_of_data_totals() {
        let mut m = TrafficMeter::with_jobs(2, 1);
        m.record(0, 100, false, 0); // a block
        m.record(0, 1, true, 0); // a convergence vote
        m.record(1, 1, true, 0);
        assert_eq!(m.total_volume(), 100, "votes must not pollute block volume");
        assert_eq!(m.total_messages(), 1);
        assert_eq!(m.total_control_messages(), 2);
        assert_eq!(m.volume_by_dim(), vec![100, 0]);
    }

    #[test]
    fn per_job_totals_split_the_planes() {
        // Two jobs on one meter: the per-dimension totals blend, the
        // per-job volume keeps every job's data apart and a job's control
        // traffic out of it — the batch scheduler's reporting invariant.
        // Two nodes' meters merge into the run's without blending either
        // split.
        let mut m = TrafficMeter::with_jobs(2, 2);
        m.record(0, 100, false, 0);
        m.record(0, 1, true, 1);
        let mut other = TrafficMeter::with_jobs(2, 2);
        other.record(1, 40, false, 1);
        other.record_shipment();
        m.absorb(&other);
        assert_eq!(m.total_volume(), 140);
        assert_eq!(m.volume_by_dim(), vec![100, 40]);
        assert_eq!(m.job_volume(0), 100);
        assert_eq!(m.job_volume(1), 40);
        assert_eq!(m.total_control_messages(), 1);
        assert_eq!(m.shipments(), 1);
        // Per-job sums reproduce the blended totals exactly.
        assert_eq!(m.job_volume(0) + m.job_volume(1), m.total_volume());
    }

    #[test]
    #[should_panic(expected = "meter tracks")]
    fn unregistered_job_panics() {
        let mut m = TrafficMeter::with_jobs(1, 2);
        m.record(0, 1, false, 2);
    }
}
