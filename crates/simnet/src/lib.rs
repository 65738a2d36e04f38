//! Virtual-time simulator of a multi-port hypercube multicomputer.
//!
//! The paper evaluates its orderings on an analytic model of a multi-port
//! hypercube (start-up `Ts` per message, `Tw` per element, per-node port
//! configuration). No such machine exists to run on, so this crate is the
//! executable substitute: it takes the *actual communication schedules* the
//! Jacobi algorithms generate — unpipelined sweeps or pipelined exchange
//! phases — and plays them through a machine with exactly the paper's
//! semantics, reporting makespans, per-stage spans and per-dimension link
//! utilization.
//!
//! Two results make it more than a calculator:
//!
//! * with barrier-synchronized stages and serialized start-ups the
//!   simulated makespan equals the closed-form phase cost *exactly* (this
//!   is asserted in tests and measured in the `validate_simnet`
//!   experiment), grounding the analytic models used for Figure 2;
//! * relaxations the closed form cannot express — overlapped start-ups
//!   ([`StartupModel::Overlapped`]) and barrier-free dependency-driven
//!   execution ([`simulate_async`]) — quantify how conservative the
//!   paper's model is.
//!
//! It is the witness of the *paper's* stage model and lowers only what
//! that model defines. The schedule the threaded engine executes
//! (dataflow packets, chained tails, interleaved batches) is priced by
//! `mph_ccpipe::executed_cost` and witnessed by the throttled fabric.
//!
//! * [`schedule`] — communication stages and schedules, and the stage
//!   lowering of one CC-cube phase;
//! * [`plan`] — the stage lowering of a whole [`mph_core::CommPlan`];
//! * [`sim`] — the synchronized and asynchronous simulators;
//! * [`validate`] — simulator-vs-closed-form samples for the
//!   `validate_simnet` experiment.

pub mod plan;
pub mod schedule;
pub mod sim;
pub mod validate;

pub use plan::{plan_pipelined_schedule, plan_unpipelined_schedule};
pub use schedule::{
    pipelined_phase_schedule, unpipelined_phase_schedule, CommSchedule, CommStage, NodeSend,
};
pub use sim::{simulate_async, simulate_synchronized, SimReport, StartupModel};
pub use validate::{validate_phase, ValidationSample};
