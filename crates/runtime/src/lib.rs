//! Threaded hypercube multicomputer.
//!
//! The paper's algorithms run on a message-passing multicomputer; this
//! crate is the executable substitute (`tests/end_to_end.rs` runs the
//! solvers on it across the crates): every node of the `d`-cube is an
//! `async` program that runs until it awaits, every link is a pair of
//! directed FIFO queues — one per job in each direction when several jobs
//! share the cube ([`Spmd::njobs`]) — and the only primitives are neighbor
//! send, an awaited receive of one job's next message and the awaited
//! barrier. [`run_spmd`] polls the `2^d` programs on
//! `min(2^d, available_parallelism())` worker threads.
//! Nothing is shared between nodes except the links and the barrier: a
//! node's worker owns its [`NodeCtx`] — virtual clock, traffic counters —
//! and the run's [`TrafficMeter`] is the nodes' counts summed once at the
//! end. A program written against [`NodeCtx`] would port to MPI on a real
//! hypercube unchanged in structure.
//!
//! The crate also owns the machine *model* ([`Machine`], [`PortModel`] —
//! re-exported by `mph_ccpipe` for the analytic cost layer) and its two
//! runtime halves:
//!
//! * **enforcement** — [`fabric`]: a throttled link layer charging every
//!   message `Ts + S·Tw` against the port configuration on a
//!   deterministic virtual clock ([`Spmd::fabric`]);
//! * **measurement** — [`measure_channel_fabric`] probes the live channel
//!   transport with a wall clock and [`Machine::calibrate`] fits `Ts`/`Tw`
//!   to the samples, so schedulers can optimize for the machine they
//!   actually run on.

pub mod fabric;
pub mod machine;
pub mod meter;
pub mod nodeclock;
pub mod scenario;
mod sched;
pub mod spmd;
pub mod trace;

pub use fabric::{
    calibrate_channel_machine, measure_channel_fabric, FabricConfigError, FabricModel, FabricReport,
};
pub use machine::{CalibrationError, FabricStats, Machine, PortModel};
pub use meter::TrafficMeter;
pub use nodeclock::{NodeClock, SendTimes};
pub use scenario::{LinkDeath, Scenario, ScenarioError, ScenarioSpec};
pub use spmd::{run_spmd, Meterable, NodeCtx, Spmd, SpmdRun};
pub use trace::{RingSink, SinkHandle, TraceEvent};
