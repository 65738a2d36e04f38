//! Admission lowering: from a job list + arrival times to the
//! cooperative driver's [`ServicePlan`].
//!
//! The batch layer already knows how to *price* jobs
//! ([`mph_ccpipe::solo_plan_costs`]) and how to *order* them
//! ([`crate::Policy`]); this module reuses both to configure the online
//! service in `mph_eigen::run_job_service`: the bounded queue, the
//! preemption-free admission priority, and the de-phasing stagger that
//! keeps same-family jobs off the same wire in the same round.

use crate::job::Job;
use crate::policy::Policy;
use mph_ccpipe::{solo_plan_costs, Machine, PlannedJob};
use mph_eigen::ServicePlan;

/// Service-level knobs the scenario does not dictate: how much
/// backpressure headroom the queue has, how many jobs interleave at
/// once, and how hard same-family jobs are de-phased.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Bounded queue depth; an arrival finding it full is shed.
    pub queue_cap: usize,
    /// Mid-flight interleaving width.
    pub max_active: usize,
    /// Micro-op offset per rank between same-key active jobs (0 turns
    /// de-phasing off).
    pub stagger_slots: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { queue_cap: 16, max_active: 4, stagger_slots: 2 }
    }
}

/// De-phasing keys: two jobs share a key iff they share an ordering
/// family and a column count — the signature of an identical link walk,
/// which is exactly what the service staggers apart.
fn stagger_keys(jobs: &[Job]) -> Vec<u32> {
    let mut classes: Vec<(mph_core::OrderingFamily, usize)> = Vec::new();
    jobs.iter()
        .map(|job| {
            let class = (job.family(), job.cols());
            match classes.iter().position(|&c| c == class) {
                Some(k) => k as u32,
                None => {
                    classes.push(class);
                    (classes.len() - 1) as u32
                }
            }
        })
        .collect()
}

/// Admission priorities under `policy`: [`Policy::ShortestPlanFirst`]
/// prices each job's whole plan chain on `machine` (smaller cost admits
/// first); FIFO and interleaving admit in arrival order.
fn admission_priorities(
    policy: &Policy,
    planned: &[PlannedJob<'_>],
    machine: &Machine,
) -> Vec<f64> {
    match policy {
        Policy::ShortestPlanFirst => solo_plan_costs(planned, machine),
        Policy::Fifo | Policy::Interleave { .. } => (0..planned.len()).map(|j| j as f64).collect(),
    }
}

/// Lowers a job list, its plan chains, and an arrival sequence to the
/// driver's [`ServicePlan`]. The policy contributes the admission
/// priority and the round-robin stride ([`Policy::Interleave`] strides
/// as configured, clamped to ≥ 1 like the batch path; the serial
/// policies stride 1 — the service always interleaves its active set,
/// that is its point).
pub fn service_plan(
    jobs: &[Job],
    planned: &[PlannedJob<'_>],
    arrivals: Vec<f64>,
    policy: &Policy,
    machine: &Machine,
    cfg: &AdmissionConfig,
) -> ServicePlan {
    assert_eq!(jobs.len(), planned.len(), "one plan chain per job");
    assert_eq!(jobs.len(), arrivals.len(), "one arrival per job");
    let stride = match policy {
        Policy::Interleave { stride } => (*stride).max(1),
        Policy::Fifo | Policy::ShortestPlanFirst => 1,
    };
    ServicePlan {
        arrivals,
        queue_cap: cfg.queue_cap.max(1),
        max_active: cfg.max_active.max(1),
        priority: admission_priorities(policy, planned, machine),
        stagger_key: stagger_keys(jobs),
        stagger_slots: cfg.stagger_slots,
        stride,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::OrderingFamily;
    use mph_eigen::lower_job;
    use mph_linalg::symmetric::random_symmetric;

    fn lowered_for(jobs: &[Job], d: usize) -> Vec<(Vec<mph_core::CommPlan>, Vec<Vec<usize>>)> {
        jobs.iter().map(|j| lower_job(&j.to_spec(), d)).collect()
    }

    fn planned(lowered: &[(Vec<mph_core::CommPlan>, Vec<Vec<usize>>)]) -> Vec<PlannedJob<'_>> {
        lowered.iter().map(|(plans, qs)| PlannedJob { plans, qs, tail_q: 1 }).collect()
    }

    #[test]
    fn stagger_keys_class_jobs_by_family_and_size() {
        let jobs = vec![
            Job::eigen(random_symmetric(16, 1), OrderingFamily::Br),
            Job::svd(random_symmetric(16, 2), OrderingFamily::Br),
            Job::eigen(random_symmetric(16, 3), OrderingFamily::Degree4),
            Job::eigen(random_symmetric(32, 4), OrderingFamily::Br),
            Job::eigen(random_symmetric(16, 5), OrderingFamily::Br),
        ];
        // Same (family, cols) shares a key regardless of eigen/svd kind;
        // a different family or size gets a fresh class.
        assert_eq!(stagger_keys(&jobs), vec![0, 0, 1, 2, 0]);
    }

    #[test]
    fn spf_priorities_are_priced_and_fifo_priorities_are_arrival_order() {
        let jobs = vec![
            Job::eigen(random_symmetric(48, 1), OrderingFamily::Br),
            Job::eigen(random_symmetric(16, 2), OrderingFamily::Br),
        ];
        let lowered = lowered_for(&jobs, 2);
        let planned = planned(&lowered);
        let machine = Machine::paper_figure2();
        let spf = admission_priorities(&Policy::ShortestPlanFirst, &planned, &machine);
        assert!(spf[1] < spf[0], "the small job prices cheaper: {spf:?}");
        assert_eq!(spf, solo_plan_costs(&planned, &machine));
        let fifo = admission_priorities(&Policy::Fifo, &planned, &machine);
        assert_eq!(fifo, vec![0.0, 1.0]);
    }

    #[test]
    fn service_plan_lowers_policy_config_and_arrivals_together() {
        let jobs = vec![
            Job::eigen(random_symmetric(16, 1), OrderingFamily::Br),
            Job::eigen(random_symmetric(16, 2), OrderingFamily::Br),
            Job::svd(random_symmetric(16, 3), OrderingFamily::Degree4),
        ];
        let lowered = lowered_for(&jobs, 1);
        let planned = planned(&lowered);
        let machine = Machine::paper_figure2();
        let cfg = AdmissionConfig { queue_cap: 2, max_active: 1, stagger_slots: 3 };
        let plan = service_plan(
            &jobs,
            &planned,
            vec![0.0, 1.0, 2.0],
            &Policy::Interleave { stride: 4 },
            &machine,
            &cfg,
        );
        assert_eq!(plan.arrivals, vec![0.0, 1.0, 2.0]);
        assert_eq!(plan.queue_cap, 2);
        assert_eq!(plan.max_active, 1);
        assert_eq!(plan.stagger_slots, 3);
        assert_eq!(plan.stride, 4);
        assert_eq!(plan.stagger_key, vec![0, 0, 1]);
        assert_eq!(plan.priority, vec![0.0, 1.0, 2.0], "interleave admits in arrival order");
        // Degenerate knobs clamp instead of wedging the service.
        let clamped = service_plan(
            &jobs,
            &planned,
            vec![0.0, 0.0, 0.0],
            &Policy::Interleave { stride: 0 },
            &machine,
            &AdmissionConfig { queue_cap: 0, max_active: 0, stagger_slots: 0 },
        );
        assert_eq!(clamped.stride, 1);
        assert_eq!(clamped.queue_cap, 1);
        assert_eq!(clamped.max_active, 1);
    }
}
