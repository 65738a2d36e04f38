//! One-sided Jacobi symmetric eigensolver driven by multi-port hypercube
//! Jacobi orderings.
//!
//! Four drivers share one rotation kernel:
//!
//! * [`one_sided_cyclic`] — sequential reference (row-cyclic ordering);
//! * [`two_sided_cyclic`] — the classical two-sided baseline (independent
//!   oracle for spectra);
//! * [`block_jacobi`] — the paper's parallel block algorithm executed
//!   logically (single thread following the sweep schedule), used for the
//!   Table-2 convergence measurements;
//! * the micro-op engine in [`multidrive`] — the same algorithm on the
//!   threaded multicomputer of `mph-runtime`, with real block messages:
//!   N independent eigen/SVD problems interleaved over one link fabric
//!   ([`run_job_batch`]), or one problem solo ([`block_jacobi_threaded`],
//!   [`svd_block_threaded`]); every job bitwise equal to its logical
//!   solve, run to convergence or for a fixed sweep count (an eigen
//!   job's convergence is one measure, [`offnorm`], in every mode).
//!
//! All of them, and the logical SVD drivers in [`svd`], store their
//! columns in the contiguous [`ColumnBlock`] layout of `mph-linalg` and
//! pair through the single kernel in [`kernel`]: one rotation path, one
//! storage layout, shared end to end.
//!
//! ```
//! use mph_eigen::{block_jacobi, JacobiOptions};
//! use mph_core::OrderingFamily;
//! use mph_linalg::symmetric::random_symmetric;
//!
//! let a = random_symmetric(16, 42);
//! let r = block_jacobi(&a, 2, OrderingFamily::Degree4, &JacobiOptions::default());
//! assert!(r.converged);
//! ```

pub mod blockjacobi;
pub mod harness;
pub mod kernel;
pub mod multidrive;
pub mod offnorm;
pub mod onesided;
pub mod options;
pub mod svd;
pub mod threaded;
pub mod twosided;

pub use blockjacobi::block_jacobi;
pub use harness::{convergence_stats, table2_grid, ConvergenceStats};
pub use kernel::{
    pair_across_blocks, pair_within_block, refresh_block_diag, PairOutcome, PairingRule,
    SweepAccumulator, SweepKernel,
};
pub use mph_core::BlockPartition;
pub use mph_linalg::block::ColumnBlock;
pub use mph_linalg::KernelPath;
pub use mph_runtime::{FabricModel, FabricReport};
pub use multidrive::{
    lower_job, run_job_batch, run_job_service, BatchMsg, BatchRun, BoundarySample, JobKind,
    JobOutcome, JobResult, JobSpan, JobSpec, Rejected, ServicePlan, ServiceRun,
};
pub use offnorm::{diagonal_blocks, off_norm_blocks};
pub use onesided::one_sided_cyclic;
pub use options::{Adaptation, EigenResult, JacobiOptions, Pipelining};
pub use svd::{svd_block, svd_cyclic, SvdResult};
pub use threaded::{
    block_jacobi_threaded, block_jacobi_threaded_fabric, choose_qs, choose_tail_qs, lower_sweeps,
    lower_sweeps_with, packetization_cap, svd_block_threaded, AdaptiveReport, ThreadedRun,
};
pub use twosided::two_sided_cyclic;
