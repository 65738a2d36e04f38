//! The committed witness of "no value that steers anything moves": the
//! plan prices and the degrees `Pipelining::Auto` derives from them,
//! pinned to constants captured at the commit *before* the chained-tail
//! recurrence was folded into the schedule clock (PR 17). SPF orders,
//! admission priorities, Auto degrees and every predicted virtual time are
//! functions of these values, so a refactor of `plancost` that moves one
//! bit of one of them fails here without a scratch copy of the parent.
//!
//! The prices use only `+ × max` on exactly representable inputs'
//! products, all correctly rounded by IEEE 754: the constants do not
//! depend on the host or the build profile.

use mph_ccpipe::{
    plan_cost_with_tail, plan_pipelining, plan_sweep_cost, plan_tail_pipelining,
    plan_unpipelined_cost, solo_plan_costs, Machine, PlannedJob, PortModel, SweepCost,
};
use mph_core::{BlockLayout, BlockPartition, CommPlan, OrderingFamily, SweepSchedule};

/// The machines of `plancost`'s and `batchcost`'s own test grids, plus
/// k-port ones (the earliest-port rule) and start-up-heavy ones whose
/// optimal tail degree lies strictly between 1 and the cap.
const MACHINES: [Machine; 6] = [
    Machine { ts: 1000.0, tw: 100.0, ports: PortModel::AllPort },
    Machine { ts: 1000.0, tw: 100.0, ports: PortModel::OnePort },
    Machine { ts: 500.0, tw: 10.0, ports: PortModel::KPort(2) },
    Machine { ts: 0.0, tw: 7.0, ports: PortModel::AllPort },
    Machine { ts: 3000.0, tw: 1.0, ports: PortModel::AllPort },
    Machine { ts: 20000.0, tw: 3.0, ports: PortModel::KPort(3) },
];

/// `(m, d)`: the sizes of the same grids; `(10, 1)` is an uneven partition.
const SIZES: [(usize, usize); 4] = [(64, 2), (256, 3), (1024, 3), (10, 1)];

/// `plan_tail_pipelining` on sweep 0, `[machine][size]`, capped at the
/// block's column count. A tail run's links differ between families only
/// by a relabelling of dimensions, so all four choose alike.
const AUTO_TAIL_Q: [[usize; 4]; 6] =
    [[8, 16, 64, 1], [1, 1, 1, 1], [2, 2, 2, 1], [8, 16, 64, 1], [1, 2, 8, 1], [1, 1, 3, 1]];

/// [`price_checksum`] per machine.
const PRICE_CHECKSUM: [u64; 6] = [
    0xb398_186b_a93e_bc6d,
    0xc348_2d40_7531_66c5,
    0x9ccc_f6eb_f167_4865,
    0xdb94_19db_9258_1d15,
    0xba4a_d6dc_5f74_112d,
    0xe6ef_c22b_61df_3345,
];

/// Sweeps `0..sweeps` of an `m`-column eigensolve on a `d`-cube, chained.
fn lower_chain(m: usize, d: usize, family: OrderingFamily, sweeps: usize) -> Vec<CommPlan> {
    let partition = BlockPartition::new(m, 2 << d);
    let mut layout = BlockLayout::canonical(d);
    (0..sweeps)
        .map(|s| {
            let schedule = SweepSchedule::sweep(d, family, s);
            let plan = CommPlan::lower(&schedule, &partition, &layout, 2 * m);
            layout = plan.final_layout().clone();
            plan
        })
        .collect()
}

fn cap(m: usize, d: usize) -> usize {
    (m / (2 << d)).max(1)
}

/// FNV-1a over 64-bit words, fed byte by byte (little-endian).
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn sweep_cost(&mut self, c: &SweepCost) {
        self.word(c.total.to_bits());
        self.word(c.serial.to_bits());
        self.word(c.tail_q as u64);
        for p in &c.phases {
            self.word(p.q as u64);
            self.word(p.cost.to_bits());
        }
    }
}

/// Every bit the three plan walks, the two degree optimizers and the solo
/// price return for `machine` over [`SIZES`] × families × two chained
/// sweeps, tail degrees 1, 2, 3, 5 and the cap.
fn price_checksum(machine: &Machine) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (m, d) in SIZES {
        let cap = cap(m, d);
        for family in OrderingFamily::ALL {
            let plans = lower_chain(m, d, family, 2);
            for plan in &plans {
                h.word(plan_unpipelined_cost(plan, machine).to_bits());
                h.sweep_cost(&plan_sweep_cost(plan, machine, cap as f64));
                let auto: Vec<usize> =
                    plan_pipelining(plan, machine, cap as f64).iter().map(|c| c.opt.q).collect();
                h.word(plan_tail_pipelining(plan, machine, cap as f64) as u64);
                let fixed: Vec<usize> = plan.exchange_phases().map(|ph| ph.k().min(3)).collect();
                for qs in [&auto, &fixed] {
                    for tail_q in [1, 2, 3, 5, cap] {
                        h.sweep_cost(&plan_cost_with_tail(plan, machine, qs, tail_q));
                    }
                }
            }
            let qs: Vec<Vec<usize>> =
                plans.iter().map(|p| p.exchange_phases().map(|_| 2).collect()).collect();
            for tail_q in [1, 2] {
                let job = PlannedJob { plans: &plans, qs: &qs, tail_q };
                h.word(solo_plan_costs(&[job], machine)[0].to_bits());
            }
        }
    }
    h.0
}

#[test]
fn auto_tail_degrees_are_the_parents() {
    for (machine, want) in MACHINES.iter().zip(AUTO_TAIL_Q) {
        for ((m, d), want) in SIZES.into_iter().zip(want) {
            for family in OrderingFamily::ALL {
                let plan = &lower_chain(m, d, family, 1)[0];
                let got = plan_tail_pipelining(plan, machine, cap(m, d) as f64);
                assert_eq!(got, want, "{machine:?} m={m} d={d} {family}: Auto tail degree moved");
            }
        }
    }
}

#[test]
fn plan_prices_are_the_parents_bit_for_bit() {
    let got: Vec<u64> = MACHINES.iter().map(price_checksum).collect();
    assert_eq!(got, PRICE_CHECKSUM, "a plan price moved a bit; computed checksums:\n{got:#018x?}");
}
