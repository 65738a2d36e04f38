//! Scheduling policies: how a batch shares the fabric.

use mph_ccpipe::{solo_plan_costs, BatchOrder, Machine, PlannedJob};

/// The scheduler's sharing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Jobs run back-to-back in submission order — the serial baseline
    /// every gain is measured against.
    Fifo,
    /// Round-robin micro-op interleaving with the given stride: every
    /// job's packets fill the link idle time the others leave behind.
    /// Maximizes fabric utilization and batch throughput on multi-port
    /// machines (a one-port machine serializes the wires anyway).
    ///
    /// Clamp contract: `stride: 0` grants no micro-ops per turn, which
    /// interleaves nothing — [`Policy::order`] clamps it to 1 so a
    /// hand-built struct literal still lowers to a runnable schedule.
    /// The checked path, [`crate::BatchOptions::new`], rejects it with
    /// [`crate::BatchConfigError::ZeroStride`] instead; prefer it when
    /// the stride comes from configuration rather than code.
    Interleave { stride: usize },
    /// Serial, but in ascending plan-priced cost
    /// ([`solo_plan_costs`]: `plan_cost_with_tail` summed over each job's
    /// sweep chain) — the classical shortest-job-first discipline: the
    /// same total makespan as FIFO, the smallest mean completion time.
    ShortestPlanFirst,
}

impl Policy {
    /// Lowers the policy to the concrete [`BatchOrder`] the cooperative
    /// driver executes, pricing jobs on `machine` where the policy needs
    /// prices.
    pub fn order(&self, planned: &[PlannedJob<'_>], machine: &Machine) -> BatchOrder {
        let n = planned.len();
        match self {
            Policy::Fifo => BatchOrder::Serial((0..n).collect()),
            Policy::Interleave { stride } => {
                BatchOrder::RoundRobin { order: (0..n).collect(), stride: (*stride).max(1) }
            }
            Policy::ShortestPlanFirst => {
                let costs = solo_plan_costs(planned, machine);
                let mut idx: Vec<usize> = (0..n).collect();
                // Ties break by submission order: sort_by is stable.
                idx.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
                BatchOrder::Serial(idx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::{CommPlan, OrderingFamily};

    fn ones(plans: &[CommPlan]) -> Vec<Vec<usize>> {
        plans.iter().map(|p| p.exchange_phases().map(|_| 1).collect()).collect()
    }

    #[test]
    fn shortest_plan_first_sorts_by_priced_cost() {
        let big = CommPlan::chain(64, 2, OrderingFamily::Br, 128, 1);
        let small = CommPlan::chain(16, 2, OrderingFamily::Br, 32, 1);
        let (qb, qs) = (ones(&big), ones(&small));
        let planned = [
            PlannedJob { plans: &big, qs: &qb, tail_q: 1 },
            PlannedJob { plans: &small, qs: &qs, tail_q: 1 },
        ];
        let machine = Machine::paper_figure2();
        let order = Policy::ShortestPlanFirst.order(&planned, &machine);
        assert_eq!(order, BatchOrder::Serial(vec![1, 0]), "small job first");
        let costs = solo_plan_costs(&planned, &machine);
        assert!(costs[1] < costs[0]);
    }

    #[test]
    fn fifo_and_interleave_keep_submission_order() {
        let a = CommPlan::chain(16, 1, OrderingFamily::Br, 32, 1);
        let qa = ones(&a);
        let planned = [
            PlannedJob { plans: &a, qs: &qa, tail_q: 1 },
            PlannedJob { plans: &a, qs: &qa, tail_q: 1 },
        ];
        let machine = Machine::paper_figure2();
        assert_eq!(Policy::Fifo.order(&planned, &machine), BatchOrder::Serial(vec![0, 1]));
        assert_eq!(
            Policy::Interleave { stride: 0 }.order(&planned, &machine),
            BatchOrder::RoundRobin { order: vec![0, 1], stride: 1 },
            "stride clamps to at least 1"
        );
    }
}
