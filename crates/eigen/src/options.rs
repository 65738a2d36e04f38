//! Solver options and results.

use mph_ccpipe::Machine;
use mph_linalg::{KernelPath, Matrix};
use mph_runtime::{FabricModel, SinkHandle};

/// Communication pipelining of the threaded driver's exchange phases
/// (paper §2.4): each exchange phase splits its block payload into `Q`
/// column packets, rotating packet `q` of iteration `k` as soon as it
/// arrives and forwarding it immediately, so rotation compute overlaps
/// block transmission.
///
/// Packetization never changes the result: the pipelined driver performs
/// the exact same rotation sequence as the unpipelined one and is
/// bitwise-identical to it (and to the logical driver) for every choice
/// below — asserted in `threaded.rs`'s tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pipelining {
    /// Whole-block transitions, one message each (the reference protocol).
    Off,
    /// Every exchange phase uses exactly this many packets (values larger
    /// than the block's column count send empty tail packets — legal, the
    /// protocol is position-based).
    Fixed(usize),
    /// Per-phase optimal `Q` chosen by `mph_ccpipe::optimize_q` on the
    /// lowered [`mph_core::CommPlan`] for this machine description — the
    /// cost model acting as the solver's scheduler.
    Auto(Machine),
}

/// How the threaded driver reacts to a degraded fabric
/// ([`FabricModel::Degraded`]): whether per-phase packetization (`Q`) is
/// re-priced mid-run, and against what knowledge. Adaptation never changes
/// the bits — it only re-times the same rotation sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Adaptation {
    /// No reaction: the pre-run pricing is used throughout. (Dead links
    /// are still routed around — that is survival, not adaptation.)
    #[default]
    Off,
    /// React to *measured* conditions: each sweep, every node drains its
    /// link clock's live `FabricStats` window, fits a `Machine` to it
    /// (`Machine::calibrate`), agrees with its peers by max-allreduce, and
    /// re-prices every exchange phase's `Q` via the cost model against the
    /// agreed machine.
    Reactive,
    /// Cheat: re-price each sweep against the scenario's
    /// `worst_alive_machine` for that epoch — the pricing a scheduler that
    /// knew the impairment schedule in advance would choose. The baseline
    /// the reactive mode is held to (reactive/oracle ≤ 1.25, asserted in
    /// `tests/degraded_classes.rs`).
    Oracle,
}

/// Options shared by all one-sided Jacobi drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiOptions {
    /// Convergence tolerance: stop when `off(UᵀAU) ≤ tol · ‖A‖_F`, `off`
    /// measured after each sweep as the eigen-residual of the columns
    /// ([`crate::offnorm`]) — one rule for the logical, threaded, batch
    /// and served eigensolvers (the SVD drivers stop when every pair's
    /// cosine is `≤ tol`).
    ///
    /// The measure has a floor of about `m · ε · ‖A‖_F` (orthogonality
    /// drift of `U` and cancellation in `a − λu`; `≈ 1e-13 · ‖A‖_F` at
    /// `m = 256`): a `tol` below that is never met and the solve runs
    /// out `max_sweeps`.
    ///
    /// The paper does not state its Table-2 tolerance. Its 3.23–6.03 band
    /// corresponds to `tol ≈ 1e-3…1e-4`; `1e-8` counts one to two sweeps
    /// more, with the same ordering-insensitivity (the tracked
    /// `crates/bench/paper/ablation_tolerance/` and `table2/` outputs).
    pub tol: f64,
    /// Hard sweep limit.
    pub max_sweeps: usize,
    /// When set, run exactly this many sweeps and skip convergence checks —
    /// used by the equivalence tests between the logical and threaded
    /// drivers. Every driver, eigen or SVD, then runs them all and reports
    /// `converged`.
    pub force_sweeps: Option<usize>,
    /// Opt-in diagonal caching: maintain each block's diagonal entries
    /// (`M_ii`, or `‖w_i‖²` for the SVD) under rotation instead of
    /// recomputing them per pairing, cutting the inner products per pairing
    /// from three to one. The cache is refreshed exactly once per sweep, so
    /// rounding drift is bounded; results differ from the exact-recompute
    /// path only in the last bits of the rotation angles. Off by default:
    /// the default mode recomputes every inner product, which is the
    /// bitwise-reference ("parity") behavior.
    pub cache_diagonals: bool,
    /// Communication pipelining of the threaded driver (ignored by the
    /// logical drivers, which move no messages). Any setting produces the
    /// same bits; see [`Pipelining`].
    pub pipelining: Pipelining,
    /// Packetization of the serial tail — the `d` division transitions and
    /// the last transition, which [`Pipelining`] leaves as whole-block
    /// messages. Consecutive single-link transitions form *tail runs*
    /// ([`mph_core::CommPlan::tail_runs`]); with a tail degree `Q > 1` the
    /// driver splits each run's outgoing block into `Q` column packets and
    /// chains them through the run on per-packet readiness stamps, so
    /// packet `q` of one transition departs as soon as packet `q` of the
    /// previous transition has landed — pairing compute overlaps the wire.
    /// Each packet is paired against the staying block before it ships;
    /// that is the reference pairing re-tiled by packet boundary, so any
    /// setting produces the same bits (asserted in `threaded.rs` and the
    /// proptests). `Auto` prices the chained run per plan via
    /// `mph_ccpipe::plan_tail_pipelining`.
    pub tail_pipelining: Pipelining,
    /// Link-fabric model of the threaded driver (ignored by the logical
    /// drivers). [`FabricModel::Free`] is the raw channel transport;
    /// [`FabricModel::Throttled`] charges every message `Ts + S·Tw`
    /// against the machine's port configuration on a deterministic
    /// virtual clock, so `ThreadedRun::fabric` reports a *measured*
    /// communication makespan comparable against the cost model; [`FabricModel::Degraded`] runs a seeded per-link impairment
    /// scenario (heterogeneity, jitter walks, episodes, link death) on the
    /// same clock. The fabric only stamps time — it never reorders the
    /// protocol — so any setting produces the same bits, impaired runs
    /// included.
    pub fabric: FabricModel,
    /// Mid-run reaction to a degraded fabric; see [`Adaptation`]. Ignored
    /// (harmlessly) unless `fabric` is [`FabricModel::Degraded`].
    pub adaptation: Adaptation,
    /// Ignored: no solver reads it, and every value gives the bits of the
    /// default — there is one inner product, `mph_linalg::vecops::dot`, on
    /// every vector tier. Kept only because the repository benchmark
    /// (`benchmark/src`) still sets it; the benchmark-correcting change of
    /// ROADMAP item 1 deletes it.
    #[doc(hidden)]
    pub kernel: KernelPath,
    /// Ignored: no solver reads it, and every value gives the bits of the
    /// default. Kept only because the repository benchmark (`benchmark/src`)
    /// still sets it; the benchmark-correcting change of ROADMAP item 1
    /// deletes it.
    ///
    /// For a parallel logical solve, call
    /// [`block_jacobi_threaded`](crate::threaded::block_jacobi_threaded):
    /// its default fabric, [`FabricModel::Free`], runs the `2^d` nodes on
    /// the runtime's workers, charges no clock, and returns
    /// [`block_jacobi`](crate::blockjacobi::block_jacobi)'s bits.
    #[doc(hidden)]
    pub workers: usize,
    /// Trace sink for the threaded driver (ignored by the logical
    /// drivers): when enabled — e.g.
    /// `SinkHandle::new(Arc<RingSink>)` — the fabric records
    /// link/barrier events and the driver adds sweep boundaries,
    /// recalibrations, and relay hops, all stamped on the virtual
    /// clock. Tracing is strictly observational: traced runs are
    /// bitwise-identical to untraced runs (proptested at the workspace
    /// root). The default is the zero-cost nop sink.
    pub trace: SinkHandle,
}

impl Default for JacobiOptions {
    fn default() -> Self {
        JacobiOptions {
            tol: 1e-8,
            max_sweeps: 30,
            force_sweeps: None,
            cache_diagonals: false,
            pipelining: Pipelining::Off,
            tail_pipelining: Pipelining::Off,
            fabric: FabricModel::Free,
            adaptation: Adaptation::Off,
            kernel: KernelPath::Scalar,
            workers: 0,
            trace: SinkHandle::nop(),
        }
    }
}

/// Outcome of an eigensolve.
#[derive(Debug, Clone)]
pub struct EigenResult {
    /// Eigenvalue estimates `λ_i = u_i · a_i` (unsorted: column order).
    pub eigenvalues: Vec<f64>,
    /// Accumulated orthogonal matrix `U`; column `i` approximates the
    /// eigenvector of `eigenvalues[i]`.
    pub eigenvectors: Matrix,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Rotations actually applied (pairs whose off-diagonal was not zero).
    pub rotations: u64,
    /// `off(UᵀAU)` after each sweep, as [`crate::offnorm`] measures it.
    ///
    /// The logical drivers record it from index 0 = before any sweep. A
    /// threaded, batch or served job records what each sweep's vote agreed
    /// on — the logical solve's `off_history[1..]`, to the bit — and has
    /// **no pre-sweep entry**: a vote before the first sweep would add `d`
    /// control messages per node and move the solve's virtual time (so
    /// already-diagonal input stops a logical solve at 0 sweeps, a threaded
    /// one at 1). A forced job (`force_sweeps`) casts no vote and leaves
    /// it empty.
    pub off_history: Vec<f64>,
    /// Whether `off` met `tol · ‖A‖_F` within `max_sweeps` (a logical solve
    /// also checks its input); always for a forced solve
    /// ([`JacobiOptions::force_sweeps`]). One rule for every driver.
    pub converged: bool,
}

impl EigenResult {
    /// Eigenvalues sorted ascending (for spectrum comparisons), in
    /// [`f64::total_cmp`] order: a solve fed non-finite data reports NaNs
    /// at the ends instead of panicking here.
    pub fn sorted_eigenvalues(&self) -> Vec<f64> {
        let mut v = self.eigenvalues.clone();
        v.sort_by(f64::total_cmp);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_runtime::FabricConfigError;

    #[test]
    fn defaults_are_sane() {
        let o = JacobiOptions::default();
        assert!(o.tol > 0.0 && o.tol < 1e-4);
        assert!(o.max_sweeps >= 10);
        assert!(o.force_sweeps.is_none());
        assert!(!o.cache_diagonals, "bitwise-parity recompute mode must be the default");
        assert_eq!(o.pipelining, Pipelining::Off, "whole-block protocol must be the default");
        assert_eq!(o.tail_pipelining, Pipelining::Off, "whole-block tail must be the default");
        assert_eq!(o.fabric, FabricModel::Free, "the raw channel fabric must be the default");
        assert_eq!(o.adaptation, Adaptation::Off, "no mid-run adaptation by default");
        assert!(!o.trace.is_enabled(), "tracing must default to the nop sink");
        assert!(o.fabric.validate().is_ok(), "the default option set must validate");
    }

    #[test]
    fn both_kernel_paths_solve_to_identical_bits() {
        // `kernel` is an inert field: the logical and the engine's
        // eigensolve and the logical SVD, uncached and cached, are the same
        // bits whichever path it names.
        use crate::{block_jacobi, svd::svd_block, threaded::block_jacobi_threaded};
        use mph_core::OrderingFamily::PermutedBr;
        let a = mph_linalg::random_symmetric(24, 45);
        for cache_diagonals in [false, true] {
            let [scalar, lanes] = [KernelPath::Scalar, KernelPath::Lanes]
                .map(|kernel| JacobiOptions { kernel, cache_diagonals, ..Default::default() });
            let want = block_jacobi(&a, 2, PermutedBr, &scalar);
            for got in [
                block_jacobi(&a, 2, PermutedBr, &lanes),
                block_jacobi_threaded(&a, 2, PermutedBr, &lanes).result,
            ] {
                assert_eq!(got.eigenvalues, want.eigenvalues, "cache={cache_diagonals}");
                assert_eq!(got.eigenvectors, want.eigenvectors, "cache={cache_diagonals}");
            }
            let [want, got] = [&scalar, &lanes].map(|opts| svd_block(&a, 2, PermutedBr, opts));
            assert_eq!((got.singular_values, got.v), (want.singular_values, want.v));
        }
    }

    #[test]
    fn zero_port_fabrics_fail_validation_with_the_typed_error() {
        use mph_ccpipe::PortModel;
        let opts = JacobiOptions {
            fabric: FabricModel::Throttled(Machine {
                ts: 1.0,
                tw: 1.0,
                ports: PortModel::KPort(0),
            }),
            ..JacobiOptions::default()
        };
        assert_eq!(opts.fabric.validate(), Err(FabricConfigError::ZeroPorts));
    }

    #[test]
    fn sorted_eigenvalues_sorts() {
        let r = EigenResult {
            eigenvalues: vec![3.0, -1.0, 2.0],
            eigenvectors: Matrix::identity(3),
            sweeps: 0,
            rotations: 0,
            off_history: vec![],
            converged: true,
        };
        assert_eq!(r.sorted_eigenvalues(), vec![-1.0, 2.0, 3.0]);
        // A NaN sorts (to the end, being positive) instead of panicking.
        let nan = EigenResult { eigenvalues: vec![3.0, f64::NAN, -1.0], ..r };
        let sorted = nan.sorted_eigenvalues();
        assert_eq!(sorted[..2], [-1.0, 3.0]);
        assert!(sorted[2].is_nan());
    }
}
