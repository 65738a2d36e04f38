//! # Jacobi orderings for multi-port hypercubes
//!
//! This crate implements the primary contribution of Royo, González &
//! Valero-García, *"Jacobi Orderings for Multi-Port Hypercubes"*
//! (IPPS 1998): parallel Jacobi orderings whose transition link sequences
//! make balanced use of a hypercube node's links, so that the
//! communication-pipelining technique of Díaz de Cerio et al. can exploit a
//! multi-port architecture.
//!
//! ## The objects
//!
//! * A **link sequence** `D_e` (a `Vec<usize>` of dimensions) drives
//!   exchange phase `e` of a sweep; validity means being an `e`-sequence
//!   (a Hamiltonian-path link sequence of the `e`-cube).
//! * An [`OrderingFamily`] maps each `e` to its `D_e`:
//!   [`br::br_sequence`] (the classical Block-Recursive ordering),
//!   [`pbr::pbr_sequence`] (the paper's permuted-BR),
//!   [`d4::d4_sequence`] (the paper's degree-4) and
//!   [`minalpha::min_alpha_sequence`] (optimal, `e ≤ 6`).
//! * A [`sweep::SweepSchedule`] composes the `D_e` with division phases and
//!   the last transition into the `2^{d+1} − 1` transitions of a sweep, and
//!   [`coverage::validate_sweep_coverage`] machine-checks that one sweep
//!   pairs every block pair exactly once.
//! * A [`commplan::CommPlan`] lowers `SweepSchedule × BlockPartition` into
//!   per-phase link sequences with exact per-node message sizes — the one
//!   communication description priced by `mph-ccpipe`, simulated by
//!   `mph-simnet` and executed by the threaded solver.
//! * [`analysis`] quantifies sequence quality: α (deep pipelining),
//!   window statistics and *degree* (shallow pipelining).
//!
//! ## Quick taste
//!
//! ```
//! use mph_core::{OrderingFamily, analysis};
//!
//! let e = 8;
//! let br = OrderingFamily::Br.sequence(e);
//! let pbr = OrderingFamily::PermutedBr.sequence(e);
//! // BR concentrates half of everything on link 0; permuted-BR balances.
//! assert_eq!(analysis::alpha(&br, e), 128);
//! assert!(analysis::alpha(&pbr, e) < 64);
//! ```

pub mod analysis;
pub mod br;
pub mod columns;
pub mod commplan;
pub mod coverage;
pub mod d4;
pub mod family;
pub mod minalpha;
pub mod partition;
pub mod pbr;
pub mod permutation;
pub mod sweep;

pub use analysis::{alpha, distinct_window_fraction, link_histogram, sequence_degree};
pub use br::br_sequence;
pub use columns::{column_ordering, validate_column_ordering, ColumnOrdering, ColumnOrderingError};
pub use commplan::{CommPlan, Frame, Framing, MicroOp, OpKind, PhaseKind, PlanPhase};
pub use coverage::{trace_sweep, validate_sweep_coverage, BlockId, BlockLayout, SweepTrace};
pub use d4::{d4_sequence, e_sequence};
pub use family::OrderingFamily;
pub use minalpha::{alpha_lower_bound, min_alpha_sequence, published_min_alpha_sequence};
pub use partition::BlockPartition;
pub use pbr::{pbr_sequence, pbr_sequence_with, pbr_transformations, PbrConvention};
pub use permutation::Permutation;
pub use sweep::{SweepSchedule, Transition, TransitionKind};
