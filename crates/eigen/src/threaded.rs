//! The solo threaded solvers' front door: the planning helpers that fix a
//! solve's communication before it runs, and one entry point per
//! factorization — [`block_jacobi_threaded`] and [`svd_block_threaded`],
//! each returning a [`ThreadedRun`].
//!
//! The solve itself runs on the micro-op engine in [`crate::multidrive`] —
//! one program per hypercube node, stepped on `min(2^d, available CPUs)`
//! worker threads (one thread per node when the CPUs allow, all of them on
//! the calling thread on one CPU), blocks exchanged over the links, the
//! paper's communication pipelining (§2.4) when enabled — as a batch of
//! one; see that module for the phase machine and for why every
//! [`Pipelining`] degree, fabric and impairment yields the same bits as
//! the logical driver ([`block_jacobi`](crate::blockjacobi::block_jacobi)).
//! What lives here is what callers outside the engine share with it:
//!
//! * [`lower_sweeps`] lowers every sweep to its [`CommPlan`] — the same
//!   plan the cost model prices and the network simulator replays;
//! * [`packetization_cap`], [`choose_qs`] and [`choose_tail_qs`] pick the
//!   packet degrees the engine executes, so experiments and conformance tests
//!   predict traffic for the schedule the solver runs, not a near copy;
//! * [`AdaptiveReport`] is what a degraded solve reports back, in
//!   [`ThreadedRun::adaptive`].

use crate::multidrive::{eigen_answer, solve_solo, svd_answer, JobSpec};
use crate::options::{EigenResult, JacobiOptions, Pipelining};
use crate::svd::SvdResult;
use mph_ccpipe::{plan_pipelining, plan_tail_pipelining};
use mph_core::{CommPlan, OrderingFamily};
use mph_linalg::Matrix;
use mph_runtime::{FabricReport, TrafficMeter};

/// What the adaptive layer did during a degraded run — all zeros on
/// clean fabrics. See [`block_jacobi_threaded`]; batch and service runs
/// report their relays too (`BatchRun::adaptive`, `ServiceRun::adaptive`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdaptiveReport {
    /// Times the solver re-priced against a newly agreed machine
    /// ([`Reactive`](crate::options::Adaptation::Reactive): calibrated from
    /// live windows; [`Oracle`](crate::options::Adaptation::Oracle): the
    /// scenario's worst alive machine).
    pub recalibrations: usize,
    /// Origin messages routed around dead links, summed over nodes.
    pub reroutes: u64,
    /// Origin elements routed around dead links, summed over nodes.
    pub rerouted_elems: u64,
}

/// The cap [`Pipelining::Auto`] hands the cost model: experiments that
/// report the solver's schedule must use this same function.
pub use mph_ccpipe::packetization_cap;

/// Lowers every sweep's communication of a threaded solve up front: the
/// exact plan chain ([`CommPlan::chain`]) [`block_jacobi_threaded`]
/// executes, including the per-column payload — `2m` elements, a column's
/// `A` and `U` halves — public so experiments and conformance tests
/// predict traffic for the same plans the solver runs, not a near copy.
///
/// `_cache_diagonals` is ignored, like [`JacobiOptions::cache_diagonals`]:
/// no block carries a diagonal, so every value prices `2m` per column.
/// Kept only because the repository benchmark (`benchmark/src`) still
/// passes it; the benchmark-correcting change of ROADMAP item 1 deletes
/// it.
pub fn lower_sweeps(
    m: usize,
    d: usize,
    family: OrderingFamily,
    _cache_diagonals: bool,
    budget: usize,
) -> Vec<CommPlan> {
    CommPlan::chain(m, d, family, 2 * m, budget)
}

/// Picks each exchange phase's packet count for one sweep's plan — the
/// exact schedule [`block_jacobi_threaded`] executes for `pipelining`
/// (pass [`packetization_cap`] as `q_cap`, as the solver does).
pub fn choose_qs(plan: &CommPlan, pipelining: &Pipelining, q_cap: usize) -> Vec<usize> {
    match pipelining {
        Pipelining::Off => plan.exchange_phases().map(|_| 1).collect(),
        Pipelining::Fixed(q) => plan.exchange_phases().map(|_| (*q).max(1)).collect(),
        Pipelining::Auto(machine) => {
            plan_pipelining(plan, machine, q_cap as f64).iter().map(|c| c.opt.q).collect()
        }
    }
}

/// Picks the serial tail's packet degree on one sweep's plan for
/// [`JacobiOptions::tail_pipelining`] (pass [`packetization_cap`] as
/// `q_cap`, as the solver does). `1` means whole-block transitions — the
/// classical protocol, bit-for-bit. A job runs the degree its first plan
/// picks on every sweep ([`planned_jobs`](crate::planned_jobs)); only a
/// degraded solo sweep picks its own again.
pub fn choose_tail_qs(plan: &CommPlan, tail: &Pipelining, q_cap: usize) -> usize {
    match tail {
        Pipelining::Off => 1,
        Pipelining::Fixed(q) => (*q).max(1),
        Pipelining::Auto(machine) => plan_tail_pipelining(plan, machine, q_cap as f64),
    }
}

/// What a solo threaded solve returns: the assembled factorization and
/// what running it on the link fabric measured.
#[derive(Debug)]
pub struct ThreadedRun<R> {
    /// The assembled result.
    pub result: R,
    /// The runtime traffic meter.
    pub meter: TrafficMeter,
    /// The link fabric's report: with
    /// [`mph_runtime::FabricModel::Throttled`] in [`JacobiOptions::fabric`],
    /// `fabric.makespan` is the solve's *measured* communication time on
    /// the enforced `Ts`/`Tw`/port machine — the deterministic
    /// virtual-clock counterpart of the cost the plan layer predicts
    /// (compute is free on the virtual clock, so the two are directly
    /// comparable).
    ///
    /// One caveat for exact measured-vs-priced comparisons: the fabric
    /// charges *every* message, including the per-sweep convergence-vote
    /// all-reduce (`d` scalar exchanges per node per sweep) that
    /// free-running solves perform — real traffic on a real machine, but
    /// traffic the plan layer does not price. Set
    /// [`JacobiOptions::force_sweeps`] (as all the conformance tests do) to
    /// suppress the votes when the makespan must equal the plan cost to
    /// rounding; otherwise expect the makespan to exceed it by
    /// `sweeps · d · (Ts + Tw)`.
    pub fabric: FabricReport,
    /// What the adaptive layer did — all zeros on clean fabrics.
    pub adaptive: AdaptiveReport,
}

/// Distributed eigensolve on a `d`-cube of threads, over
/// [`JacobiOptions::fabric`].
///
/// On the default fabric, [`mph_runtime::FabricModel::Free`], this is the
/// parallel form of [`block_jacobi`](crate::blockjacobi::block_jacobi):
/// the `2^d` node programs run on `min(2^d, available CPUs)` workers and
/// no other thread, charge no clock, and return its bits.
///
/// On a [`mph_runtime::FabricModel::Degraded`] fabric the driver becomes
/// scenario-aware:
///
/// * it passes a barrier at the end of every sweep, so sweep `s` runs at
///   scenario **epoch** `s` on every node — deterministic, whatever the OS
///   scheduler does;
/// * transitions whose link is **dead** at the current epoch relay their
///   blocks along the surviving route ([`mph_hypercube::surviving_route`])
///   through a fixed global script (see [`crate::multidrive`]) — the solve
///   completes with the exact same bits, because the relay changes only
///   *how* a payload travels, never what is computed from it. Sweeps with
///   dead links run whole-block (`Q = 1`): packetized pipelines assume
///   direct links, and packetization never changes bits anyway;
/// * under [`Reactive`](crate::options::Adaptation::Reactive) each node drains its live
///   [`mph_runtime::FabricStats`] window every sweep, fits a machine, and
///   the nodes **agree** (max-allreduce of `Ts`, then `Tw` — relay-aware,
///   so agreement survives dead links) before re-pricing every phase's `Q`
///   through the cost model;
///   [`Oracle`](crate::options::Adaptation::Oracle) re-prices against the
///   scenario's `worst_alive_machine` instead — the privileged baseline
///   the reactive mode is benchmarked against.
///
/// Impairments may change when every packet moves, never what it carries:
/// the result is bitwise-identical to the clean-fabric run of the same
/// options (asserted by the tests below and the proptests).
pub fn block_jacobi_threaded(
    a0: &Matrix,
    d: usize,
    family: OrderingFamily,
    opts: &JacobiOptions,
) -> ThreadedRun<EigenResult> {
    solve_solo(&JobSpec::eigen(a0, family, opts.clone()), d, eigen_answer)
}

/// The block one-sided Jacobi SVD on the same engine: the phase walk,
/// packet pipeline, link fabric, metering and degraded-fabric behaviour of
/// [`block_jacobi_threaded`], with the Gram pairing rule. Bitwise identical
/// to the logical [`svd_block`](crate::svd::svd_block) for a fixed sweep
/// count (asserted in [`crate::multidrive`]'s tests).
pub fn svd_block_threaded(
    a: &Matrix,
    d: usize,
    family: OrderingFamily,
    opts: &JacobiOptions,
) -> ThreadedRun<SvdResult> {
    solve_solo(&JobSpec::svd(a, family, opts.clone()), d, svd_answer)
}

/// [`block_jacobi_threaded`] as the 3-tuple `benchmark/src/api.rs` names.
/// The benchmark-correcting PR of ROADMAP item 1 re-points `api.rs` and
/// deletes this.
#[doc(hidden)]
pub fn block_jacobi_threaded_fabric(
    a0: &Matrix,
    d: usize,
    family: OrderingFamily,
    opts: &JacobiOptions,
) -> (EigenResult, TrafficMeter, FabricReport) {
    let run = block_jacobi_threaded(a0, d, family, opts);
    (run.result, run.meter, run.fabric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockjacobi::block_jacobi;
    use crate::options::Adaptation;
    use mph_ccpipe::Machine;
    use mph_linalg::block::ColumnBlock;
    use mph_linalg::matmul::{eigen_residual, orthogonality_defect};
    use mph_linalg::symmetric::random_symmetric;
    use mph_runtime::FabricModel;

    #[test]
    fn threaded_solves_with_small_residual() {
        let a = random_symmetric(16, 31);
        for family in [OrderingFamily::Br, OrderingFamily::Degree4] {
            let r = block_jacobi_threaded(&a, 2, family, &JacobiOptions::default()).result;
            let resid = eigen_residual(&a, &r.eigenvectors, &r.eigenvalues);
            assert!(resid < 1e-6, "{family}: residual {resid}");
            assert!(orthogonality_defect(&r.eigenvectors) < 1e-10);
        }
    }

    #[test]
    fn threaded_equals_logical_bitwise_for_fixed_sweeps() {
        let a = random_symmetric(16, 90);
        // Both drivers call the one shared kernel on the same block
        // storage, so bitwise equality must hold.
        let opts = JacobiOptions { force_sweeps: Some(3), ..Default::default() };
        for d in [1usize, 2] {
            for family in OrderingFamily::ALL {
                let logical = block_jacobi(&a, d, family, &opts);
                let threaded = block_jacobi_threaded(&a, d, family, &opts).result;
                assert_eq!(logical.rotations, threaded.rotations, "{family} d={d}");
                for c in 0..16 {
                    assert_eq!(
                        logical.eigenvalues[c], threaded.eigenvalues[c],
                        "{family} d={d} λ_{c} differs"
                    );
                    assert_eq!(
                        logical.eigenvectors.col(c),
                        threaded.eigenvectors.col(c),
                        "{family} d={d} u_{c} differs"
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_driver_is_bitwise_identical_for_every_q() {
        // The tentpole invariant: packetizing the exchange phases changes
        // the message framing and the overlap, not one bit of the result —
        // across shallow (Q=2), oversplit (Q=5, beyond the 2-column blocks
        // so empty tail packets fly), and deep (Q ≥ K) degrees.
        let m = 16;
        let a = random_symmetric(m, 90);
        let base = JacobiOptions { force_sweeps: Some(3), ..Default::default() };
        for d in [1usize, 2] {
            let k_max = (1 << d) - 1; // K of the longest exchange phase
            for family in OrderingFamily::ALL {
                let reference = block_jacobi_threaded(&a, d, family, &base).result;
                for q in [1usize, 2, 5, k_max + 1] {
                    let opts = JacobiOptions { pipelining: Pipelining::Fixed(q), ..base.clone() };
                    let piped = block_jacobi_threaded(&a, d, family, &opts).result;
                    assert_eq!(reference.rotations, piped.rotations, "{family} d={d} q={q}");
                    for c in 0..m {
                        assert_eq!(
                            reference.eigenvalues[c], piped.eigenvalues[c],
                            "{family} d={d} q={q} λ_{c}"
                        );
                        assert_eq!(
                            reference.eigenvectors.col(c),
                            piped.eigenvectors.col(c),
                            "{family} d={d} q={q} u_{c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn auto_pipelining_matches_the_reference_bitwise_and_converges() {
        // The cost model schedules Q per phase; the result is still the
        // reference bits, and free-running convergence is unaffected.
        let a = random_symmetric(24, 61);
        let auto = JacobiOptions {
            pipelining: Pipelining::Auto(Machine::paper_figure2()),
            ..Default::default()
        };
        let r = block_jacobi_threaded(&a, 2, OrderingFamily::PermutedBr, &auto).result;
        assert!(r.converged);
        assert!(eigen_residual(&a, &r.eigenvectors, &r.eigenvalues) < 1e-6);
        let base =
            block_jacobi_threaded(&a, 2, OrderingFamily::PermutedBr, &JacobiOptions::default())
                .result;
        assert_eq!(base.sweeps, r.sweeps);
        for c in 0..24 {
            assert_eq!(base.eigenvalues[c], r.eigenvalues[c], "λ_{c}");
        }
    }

    #[test]
    fn tail_pipelined_driver_is_bitwise_identical_for_every_q() {
        // The PR's invariant: packetizing the serial tail (division/last
        // transitions, chained per run) changes the framing and the
        // overlap, not one bit of the result — across shallow (Q=2),
        // oversplit (Q=5, beyond the block widths so empty packets fly),
        // and cap-deep degrees, alone and combined with exchange
        // pipelining.
        let m = 16;
        let a = random_symmetric(m, 90);
        let base = JacobiOptions { force_sweeps: Some(3), ..Default::default() };
        for d in [1usize, 2] {
            let cap = packetization_cap(m, d);
            for family in OrderingFamily::ALL {
                let reference = block_jacobi_threaded(&a, d, family, &base).result;
                for tq in [1usize, 2, 5, cap] {
                    let opts =
                        JacobiOptions { tail_pipelining: Pipelining::Fixed(tq), ..base.clone() };
                    let piped = block_jacobi_threaded(&a, d, family, &opts).result;
                    assert_eq!(reference.rotations, piped.rotations, "{family} d={d} tail_q={tq}");
                    for c in 0..m {
                        assert_eq!(
                            reference.eigenvalues[c], piped.eigenvalues[c],
                            "{family} d={d} tail_q={tq} λ_{c}"
                        );
                        assert_eq!(
                            reference.eigenvectors.col(c),
                            piped.eigenvectors.col(c),
                            "{family} d={d} tail_q={tq} u_{c}"
                        );
                    }
                }
                // Both pipelines at once: exchange packets and tail
                // packets coexist on the same links.
                let both = JacobiOptions {
                    pipelining: Pipelining::Fixed(2),
                    tail_pipelining: Pipelining::Fixed(3),
                    ..base.clone()
                };
                let piped = block_jacobi_threaded(&a, d, family, &both).result;
                for c in 0..m {
                    assert_eq!(
                        reference.eigenvectors.col(c),
                        piped.eigenvectors.col(c),
                        "{family} d={d} both pipelines u_{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_tail_pipelining_matches_the_reference_bitwise_and_converges() {
        // The cost model schedules the job's one tail degree; the result is
        // still the reference bits, and free-running convergence is
        // unaffected.
        let a = random_symmetric(24, 61);
        let auto = JacobiOptions {
            tail_pipelining: Pipelining::Auto(Machine::paper_figure2()),
            ..Default::default()
        };
        let r = block_jacobi_threaded(&a, 2, OrderingFamily::Br, &auto).result;
        assert!(r.converged);
        assert!(eigen_residual(&a, &r.eigenvectors, &r.eigenvalues) < 1e-6);
        let base =
            block_jacobi_threaded(&a, 2, OrderingFamily::Br, &JacobiOptions::default()).result;
        assert_eq!(base.sweeps, r.sweeps);
        for c in 0..24 {
            assert_eq!(base.eigenvalues[c], r.eigenvalues[c], "λ_{c}");
            assert_eq!(base.eigenvectors.col(c), r.eigenvectors.col(c), "u_{c}");
        }
    }

    #[test]
    fn tail_pipelining_preserves_traffic_volume_and_scales_messages() {
        // Tail packetization reframes the same payload: per-dimension data
        // volume is Q-invariant, message counts scale exactly as the plan
        // layer charges them (`messages_with_tail`).
        let a = random_symmetric(32, 17);
        let d = 2;
        let sweeps = 2usize;
        let base = JacobiOptions { force_sweeps: Some(sweeps), ..Default::default() };
        let meter0 = block_jacobi_threaded(&a, d, OrderingFamily::Br, &base).meter;
        let plans = lower_sweeps(32, d, OrderingFamily::Br, false, sweeps);
        for tq in [2usize, 3, 4] {
            let opts = JacobiOptions { tail_pipelining: Pipelining::Fixed(tq), ..base.clone() };
            let meter = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).meter;
            assert_eq!(meter.volume_by_dim(), meter0.volume_by_dim(), "tail_q={tq}");
            let want: u64 = plans
                .iter()
                .map(|p| {
                    let qs = choose_qs(p, &Pipelining::Off, 1);
                    p.messages_with_tail(&qs, tq)
                })
                .sum();
            assert_eq!(meter.total_messages(), want, "tail_q={tq}");
        }
    }

    #[test]
    fn throttled_tail_pipelined_makespan_equals_the_tail_plan_cost_exactly() {
        // Uniform partition on the all-port throttled fabric: the measured
        // makespan of the tail-pipelined solve must reproduce the chained
        // tail price — execution and pricing walk the same max-plus
        // recurrence. And chaining must actually pay: the tail-pipelined
        // makespan beats the whole-block one.
        use mph_ccpipe::plan_cost_with_tail;
        let a = random_symmetric(32, 5);
        let d = 2usize;
        let machine = Machine::all_port(1000.0, 100.0);
        let sweeps = 2usize;
        let base = JacobiOptions {
            force_sweeps: Some(sweeps),
            fabric: FabricModel::Throttled(machine),
            ..Default::default()
        };
        for family in OrderingFamily::ALL {
            let report0 = block_jacobi_threaded(&a, d, family, &base).fabric;
            for tq in [2usize, 4] {
                let opts = JacobiOptions { tail_pipelining: Pipelining::Fixed(tq), ..base.clone() };
                let report = block_jacobi_threaded(&a, d, family, &opts).fabric;
                let want: f64 = lower_sweeps(32, d, family, false, sweeps)
                    .iter()
                    .map(|p| {
                        let qs = choose_qs(p, &Pipelining::Off, 1);
                        plan_cost_with_tail(p, &machine, &qs, tq).total
                    })
                    .sum();
                assert!(
                    (report.makespan - want).abs() <= 1e-9 * want,
                    "{family} tail_q={tq}: measured {} vs priced {want}",
                    report.makespan
                );
                assert!(
                    report.makespan < report0.makespan,
                    "{family} tail_q={tq}: chained {} vs whole-block {}",
                    report.makespan,
                    report0.makespan
                );
            }
        }
    }

    #[test]
    fn pipelining_preserves_traffic_volume_and_scales_messages() {
        // Packetization reframes the same payload: per-dimension data
        // volume is Q-invariant, message counts scale with the packet
        // counts, votes stay on the control plane.
        let a = random_symmetric(32, 17);
        let d = 2;
        let base = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let meter0 = block_jacobi_threaded(&a, d, OrderingFamily::Br, &base).meter;
        for q in [2usize, 3, 8] {
            let opts = JacobiOptions { pipelining: Pipelining::Fixed(q), ..base.clone() };
            let meter = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).meter;
            assert_eq!(meter.volume_by_dim(), meter0.volume_by_dim(), "q={q}");
            assert!(meter.total_messages() > meter0.total_messages(), "q={q}");
            assert_eq!(meter.total_control_messages(), 0, "forced sweeps cast no votes");
        }
    }

    #[test]
    fn cached_diagonals_converge_to_the_same_spectrum() {
        // The cache changes rotation angles only in the last bits; the
        // converged spectrum must agree with the exact-recompute path to
        // solver tolerance.
        let a = random_symmetric(24, 61);
        let exact =
            block_jacobi_threaded(&a, 2, OrderingFamily::Degree4, &JacobiOptions::default())
                .result
                .sorted_eigenvalues();
        let opts = JacobiOptions { cache_diagonals: true, ..Default::default() };
        let r = block_jacobi_threaded(&a, 2, OrderingFamily::Degree4, &opts).result;
        assert!(r.converged);
        assert!(eigen_residual(&a, &r.eigenvectors, &r.eigenvalues) < 1e-6);
        for (x, y) in r.sorted_eigenvalues().iter().zip(&exact) {
            assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
    }

    #[test]
    fn traffic_concentration_matches_ordering_alpha() {
        // BR pushes ~half its exchange-phase volume through dimension 0;
        // permuted-BR spreads it. The runtime's meter sees exactly that.
        let a = random_symmetric(32, 17);
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let volume = |family| {
            let meter = block_jacobi_threaded(&a, 3, family, &opts).meter;
            meter.volume_by_dim()
        };
        let spread = |v: &Vec<u64>| {
            let max = *v.iter().max().unwrap() as f64;
            let mean = v.iter().sum::<u64>() as f64 / v.len() as f64;
            max / mean
        };
        let br = volume(OrderingFamily::Br);
        let pbr = volume(OrderingFamily::PermutedBr);
        assert!(spread(&br) > 1.5, "BR spread {:?}", br);
        assert!(spread(&pbr) < spread(&br), "pBR {:?} vs BR {:?}", pbr, br);
    }

    #[test]
    fn message_count_matches_schedule() {
        // One sweep exchanges 2^{d+1}−1 blocks per node... precisely: each
        // transition sends one message per node: (2^{d+1}−1) × 2^d block
        // messages on the data plane. Convergence votes would ride the
        // control plane, but forced sweeps cast none.
        let a = random_symmetric(16, 3);
        let d = 2;
        let opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        let meter = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).meter;
        let expect = ((1u64 << (d + 1)) - 1) * (1u64 << d);
        assert_eq!(meter.total_messages(), expect);
        assert_eq!(meter.total_control_messages(), 0);
    }

    #[test]
    fn convergence_votes_ride_the_control_plane() {
        // Free-running solve: d × 2^d scalar votes per sweep, metered
        // apart from the block traffic (whose volume stays a multiple of
        // the whole-block payload).
        let a = random_symmetric(16, 8);
        let d = 2usize;
        let ThreadedRun { result: r, meter, .. } =
            block_jacobi_threaded(&a, d, OrderingFamily::Br, &JacobiOptions::default());
        let votes = (d as u64) * (1u64 << d) * r.sweeps as u64;
        assert_eq!(meter.total_control_messages(), votes);
        // Every data message is one whole block: 2 columns × 2m elements.
        let block_elems = 2 * 2 * 16;
        assert_eq!(meter.total_volume() % block_elems, 0);
    }

    #[test]
    fn throttled_unpipelined_makespan_equals_the_plan_cost_exactly() {
        // Uniform partition (power-of-two m): every transition is the
        // symmetric exchange of equal blocks, so every node's virtual
        // clock advances by exactly Ts + S·Tw per transition and the
        // measured makespan reproduces the plan chain's unpipelined cost.
        use mph_ccpipe::plan_unpipelined_cost;
        let a = random_symmetric(32, 5);
        let d = 2usize;
        let machine = Machine::all_port(1000.0, 100.0);
        let sweeps = 2usize;
        let opts = JacobiOptions {
            force_sweeps: Some(sweeps),
            fabric: FabricModel::Throttled(machine),
            ..Default::default()
        };
        for family in OrderingFamily::ALL {
            let report = block_jacobi_threaded(&a, d, family, &opts).fabric;
            let want: f64 = lower_sweeps(32, d, family, false, sweeps)
                .iter()
                .map(|p| plan_unpipelined_cost(p, &machine))
                .sum();
            assert!(
                (report.makespan - want).abs() <= 1e-9 * want,
                "{family}: measured {} vs plan {want}",
                report.makespan
            );
        }
    }

    #[test]
    fn throttled_fabric_is_deterministic_and_port_ordered() {
        // Same solve, same machine: the virtual makespan is bit-identical
        // across runs (no OS-scheduling dependence), and serializing the
        // ports can only slow it down: one-port ≥ 2-port ≥ all-port.
        use mph_runtime::PortModel;
        let a = random_symmetric(32, 11);
        let d = 2usize;
        let run = |ports: PortModel, q: usize| {
            let machine = Machine { ts: 50.0, tw: 2.0, ports };
            let opts = JacobiOptions {
                force_sweeps: Some(1),
                pipelining: Pipelining::Fixed(q),
                fabric: FabricModel::Throttled(machine),
                ..Default::default()
            };
            block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &opts).fabric.makespan
        };
        for q in [1usize, 2, 4] {
            let all = run(PortModel::AllPort, q);
            assert_eq!(all, run(PortModel::AllPort, q), "q={q}: nondeterministic makespan");
            let two = run(PortModel::KPort(2), q);
            let one = run(PortModel::OnePort, q);
            assert!(all <= two + 1e-9 && two <= one + 1e-9, "q={q}: {all} ≤ {two} ≤ {one}");
        }
    }

    #[test]
    fn throttling_changes_no_bit_and_no_traffic() {
        // The fabric stamps virtual time; it must not perturb the
        // protocol: results stay bitwise-identical and the meter agrees.
        let a = random_symmetric(24, 33);
        let base = JacobiOptions {
            force_sweeps: Some(2),
            pipelining: Pipelining::Fixed(3),
            ..Default::default()
        };
        let throttled = JacobiOptions {
            fabric: FabricModel::Throttled(Machine::one_port(10.0, 1.0)),
            ..base.clone()
        };
        let ThreadedRun { result: r0, meter: m0, .. } =
            block_jacobi_threaded(&a, 2, OrderingFamily::PermutedBr, &base);
        let ThreadedRun { result: r1, meter: m1, .. } =
            block_jacobi_threaded(&a, 2, OrderingFamily::PermutedBr, &throttled);
        assert_eq!(r0.rotations, r1.rotations);
        for c in 0..24 {
            assert_eq!(r0.eigenvalues[c], r1.eigenvalues[c], "λ_{c}");
            assert_eq!(r0.eigenvectors.col(c), r1.eigenvectors.col(c), "u_{c}");
        }
        assert_eq!(m0.volume_by_dim(), m1.volume_by_dim());
        assert_eq!(m0.total_messages(), m1.total_messages());
    }

    #[test]
    fn shipped_blocks_carry_no_diagonals() {
        // The diagonal cache lives for one kernel call: a block is its
        // columns, a block message `b · 2m` elements, and the plan prices
        // `2m` per column whatever `cache_diagonals` says.
        let m = 16usize;
        let d = 2usize;
        let a = random_symmetric(m, 3);
        let b = m / (2 << d);
        let block = ColumnBlock::from_matrix_with_identity(&a, 0..b, m);
        assert_eq!(block.payload_elems(), b * (m + m));
        let plans = lower_sweeps(m, d, OrderingFamily::Br, false, 1);
        assert_eq!(lower_sweeps(m, d, OrderingFamily::Br, true, 1), plans);
        assert_eq!(plans, CommPlan::chain(m, d, OrderingFamily::Br, 2 * m, 1));
        let block_msgs = ((1u64 << (d + 1)) - 1) * (1u64 << d);
        for cache_diagonals in [false, true] {
            let opts =
                JacobiOptions { force_sweeps: Some(1), cache_diagonals, ..Default::default() };
            let meter = block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts).meter;
            let what = format!("cache_diagonals={cache_diagonals}");
            assert_eq!(meter.total_volume(), block_msgs * (b * 2 * m) as u64, "{what}");
        }
    }

    #[test]
    fn the_cache_knob_is_inert() {
        // `cache_diagonals` is read by no solver: `true` and `false` give
        // the same bits, messages and virtual time — on the logical solve,
        // on the engine on the free fabric, and on the engine on a
        // throttled one with both pipelines on; run to convergence and
        // forced. This one test stands for the cache-mode loops the
        // driver-equality tests used to run.
        let a = random_symmetric(16, 90);
        let throttled = JacobiOptions {
            fabric: FabricModel::Throttled(Machine::all_port(500.0, 10.0)),
            pipelining: Pipelining::Fixed(2),
            tail_pipelining: Pipelining::Fixed(3),
            ..Default::default()
        };
        for family in OrderingFamily::ALL {
            for force_sweeps in [None, Some(3)] {
                let [off, on] = [false, true].map(|cache_diagonals| JacobiOptions {
                    cache_diagonals,
                    force_sweeps,
                    ..Default::default()
                });
                let [want, got] = [&off, &on].map(|o| block_jacobi(&a, 2, family, o));
                let what = format!("{family} {force_sweeps:?}: logical");
                assert_eq!(got.eigenvalues, want.eigenvalues, "{what}");
                assert_eq!(got.eigenvectors, want.eigenvectors, "{what}");
                assert_eq!(got.off_history, want.off_history, "{what}");
                for free in [true, false] {
                    let [want, got] = [&off, &on].map(|o| {
                        let o = if free {
                            o.clone()
                        } else {
                            JacobiOptions {
                                cache_diagonals: o.cache_diagonals,
                                force_sweeps,
                                ..throttled.clone()
                            }
                        };
                        block_jacobi_threaded(&a, 2, family, &o)
                    });
                    let what = format!("{family} {force_sweeps:?}: engine, free fabric {free}");
                    assert_eq!(got.result.eigenvalues, want.result.eigenvalues, "{what}");
                    assert_eq!(got.result.eigenvectors, want.result.eigenvectors, "{what}");
                    assert_eq!(got.result.rotations, want.result.rotations, "{what}");
                    assert_eq!(got.meter.total_messages(), want.meter.total_messages(), "{what}");
                    assert_eq!(got.meter.volume_by_dim(), want.meter.volume_by_dim(), "{what}");
                    let [g, w] = [&got, &want].map(|run| run.fabric.makespan.to_bits());
                    assert_eq!(g, w, "{what}: virtual time");
                }
            }
        }
        // The SVD reads no knob either, logical or on the engine.
        let forced = |cache_diagonals| JacobiOptions {
            cache_diagonals,
            force_sweeps: Some(2),
            pipelining: Pipelining::Fixed(2),
            ..Default::default()
        };
        let [off, on] = [false, true].map(forced);
        for family in OrderingFamily::ALL {
            let [want, got] = [&off, &on].map(|o| crate::svd::svd_block(&a, 2, family, o));
            assert_eq!((got.singular_values, got.v), (want.singular_values, want.v), "{family}");
            let [want, got] = [&off, &on].map(|o| svd_block_threaded(&a, 2, family, o).result);
            assert_eq!((got.singular_values, got.v), (want.singular_values, want.v), "{family}");
        }
    }

    // ---- degraded-fabric scenarios -------------------------------------

    use mph_runtime::{LinkDeath, Scenario, ScenarioSpec};
    use std::sync::Arc;

    fn degraded(d: usize, spec: ScenarioSpec) -> FabricModel {
        FabricModel::Degraded(Arc::new(Scenario::new(d, spec).expect("valid scenario")))
    }

    fn impaired_spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            epochs: 6,
            hetero_spread: 2.0,
            rate_jitter: 0.3,
            delay_jitter: 0.3,
            episode_rate: 0.4,
            episode_recovery: 0.5,
            episode_severity: 5.0,
            ..ScenarioSpec::clean(seed, Machine::all_port(500.0, 10.0))
        }
    }

    fn assert_bitwise(clean: &EigenResult, got: &EigenResult, tag: &str) {
        assert_eq!(clean.rotations, got.rotations, "{tag}: rotations");
        assert_eq!(clean.sweeps, got.sweeps, "{tag}: sweeps");
        for c in 0..clean.eigenvalues.len() {
            assert_eq!(clean.eigenvalues[c], got.eigenvalues[c], "{tag}: λ_{c}");
            assert_eq!(clean.eigenvectors.col(c), got.eigenvectors.col(c), "{tag}: u_{c}");
        }
    }

    #[test]
    fn impairments_change_the_clock_but_never_the_bits() {
        // The tentpole invariant: heterogeneity, jitter walks, and
        // episodes re-time the messages — the eigensystem is bitwise the
        // clean-fabric run's, under every adaptation mode.
        let a = random_symmetric(16, 77);
        let d = 2;
        let base = JacobiOptions { force_sweeps: Some(3), ..Default::default() };
        let clean = block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &base).result;
        for adaptation in [Adaptation::Off, Adaptation::Reactive, Adaptation::Oracle] {
            let opts = JacobiOptions {
                fabric: degraded(d, impaired_spec(11)),
                adaptation,
                ..base.clone()
            };
            let ThreadedRun { result: r, fabric: fab, .. } =
                block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &opts);
            assert_bitwise(&clean, &r, &format!("{adaptation:?}"));
            assert!(fab.makespan.is_finite() && fab.makespan > 0.0, "{adaptation:?}: makespan");
        }
    }

    #[test]
    fn dead_links_are_relayed_around_with_identical_bits() {
        // Kill edge (0, dim 0) from epoch 0 on a 2-cube: every sweep's
        // dim-0 transitions between nodes 0 and 1 must relay through the
        // surviving 2-hop route. Bits match the clean run exactly and the
        // adaptive report shows rerouted traffic.
        let a = random_symmetric(16, 42);
        let d = 2;
        let base = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let clean = block_jacobi_threaded(&a, d, OrderingFamily::Br, &base).result;
        let spec = ScenarioSpec {
            epochs: 4,
            deaths: vec![LinkDeath { node: 0, dim: 0, epoch: 0 }],
            ..ScenarioSpec::clean(7, Machine::all_port(500.0, 10.0))
        };
        let opts = JacobiOptions { fabric: degraded(d, spec), ..base.clone() };
        let ThreadedRun { result: r, fabric: fab, adaptive, .. } =
            block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts);
        assert_bitwise(&clean, &r, "dead link");
        assert!(adaptive.reroutes > 0, "dead-link run must relay messages");
        assert!(adaptive.rerouted_elems > 0, "relays carry real payloads");
        assert!(fab.makespan.is_finite() && fab.makespan > 0.0);
    }

    #[test]
    fn mid_run_death_switches_to_the_relay_at_its_epoch() {
        // A death scheduled at epoch 1 leaves sweep 0 direct and relays
        // sweeps ≥ 1 — the epoch boundary (the per-sweep barrier) is where
        // the scenario switches. Still bitwise.
        let a = random_symmetric(16, 5);
        let d = 2;
        let base = JacobiOptions { force_sweeps: Some(3), ..Default::default() };
        let clean = block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &base).result;
        let spec = ScenarioSpec {
            epochs: 4,
            deaths: vec![LinkDeath { node: 2, dim: 1, epoch: 1 }],
            ..ScenarioSpec::clean(9, Machine::all_port(500.0, 10.0))
        };
        let opts = JacobiOptions { fabric: degraded(d, spec), ..base.clone() };
        let ThreadedRun { result: r, adaptive, .. } =
            block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &opts);
        assert_bitwise(&clean, &r, "mid-run death");
        assert!(adaptive.reroutes > 0);
    }

    #[test]
    fn reactive_recalibrates_and_stays_near_the_oracle() {
        // The adaptation gate: on a statically heterogeneous fabric the
        // reactive mode must (a) actually recalibrate, and (b) land within
        // 1.25× of the oracle's makespan (the bar `degraded_classes.rs`
        // holds the three `vclock_tables` scenario classes to).
        let a = random_symmetric(32, 21);
        let d = 2;
        let base = JacobiOptions {
            force_sweeps: Some(4),
            pipelining: Pipelining::Off,
            ..Default::default()
        };
        let spec = ScenarioSpec {
            epochs: 6,
            hetero_spread: 4.0,
            ..ScenarioSpec::clean(13, Machine::all_port(2000.0, 50.0))
        };
        let run = |adaptation| {
            let opts =
                JacobiOptions { fabric: degraded(d, spec.clone()), adaptation, ..base.clone() };
            block_jacobi_threaded(&a, d, OrderingFamily::Degree4, &opts)
        };
        let reactive = run(Adaptation::Reactive);
        let oracle = run(Adaptation::Oracle).fabric;
        assert!(reactive.adaptive.recalibrations > 0, "reactive mode must recalibrate");
        let ratio = reactive.fabric.makespan / oracle.makespan;
        assert!(
            ratio <= 1.25,
            "reactive {} vs oracle {} (ratio {ratio:.3}) exceeds the 1.25 gate",
            reactive.fabric.makespan,
            oracle.makespan
        );
    }

    #[test]
    fn degraded_runs_replay_bit_for_bit_from_the_seed() {
        // Same seed, same scenario, same virtual timeline: makespans and
        // adaptive reports are exactly equal across runs (and thus across
        // whatever the OS scheduler does).
        let a = random_symmetric(16, 64);
        let d = 2;
        let spec = ScenarioSpec {
            deaths: vec![LinkDeath { node: 1, dim: 1, epoch: 2 }],
            ..impaired_spec(31)
        };
        let opts = JacobiOptions {
            force_sweeps: Some(3),
            fabric: degraded(d, spec),
            adaptation: Adaptation::Reactive,
            ..Default::default()
        };
        let ThreadedRun { result: r1, fabric: f1, adaptive: a1, .. } =
            block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts);
        let ThreadedRun { result: r2, fabric: f2, adaptive: a2, .. } =
            block_jacobi_threaded(&a, d, OrderingFamily::Br, &opts);
        assert_eq!(f1.makespan.to_bits(), f2.makespan.to_bits(), "replay makespan");
        assert_eq!(a1, a2, "replay adaptive report");
        assert_bitwise(&r1, &r2, "replay");
    }

    #[test]
    fn clean_fabrics_report_no_adaptation() {
        let a = random_symmetric(16, 2);
        let opts = JacobiOptions { force_sweeps: Some(2), ..Default::default() };
        let adaptive = block_jacobi_threaded(&a, 2, OrderingFamily::Br, &opts).adaptive;
        assert_eq!(adaptive, AdaptiveReport::default(), "free fabric: nothing to adapt to");
    }
}
