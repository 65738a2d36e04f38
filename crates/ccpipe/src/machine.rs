//! Machine model: communication parameters of the hypercube multicomputer.
//!
//! The model itself lives in `mph_runtime::machine` — the runtime both
//! *enforces* it (the throttled link fabric charges every message
//! `Ts + S·Tw` against the port configuration) and *measures* it
//! (`FabricStats` + [`Machine::calibrate`] fit `Ts`/`Tw` to wall-clock
//! probes of the live transport). This module re-exports it so the
//! analytic cost layer and the runtime price with one vocabulary: a
//! [`Machine`] calibrated from the channel runtime drops straight into
//! [`crate::optimize_q`] and `Pipelining::Auto`. [`NodeClock`], the one
//! send/wait recurrence of that machine, is re-exported beside it: the
//! schedule clock and the paper's stage simulator (`mph_simnet`) both
//! price on it.

pub use mph_runtime::machine::{CalibrationError, FabricStats, Machine, PortModel};
pub use mph_runtime::NodeClock;
