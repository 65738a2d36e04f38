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
//! It has one stage builder and one simulator. The builder
//! ([`pipelined_phase_schedule`] for a CC-cube phase, and the plan
//! lowering of [`plan`] through it) reads the §2.4 windows of
//! [`mph_ccpipe::pipelined_schedule`]. The simulator is
//! [`simulate_synchronized`]: barrier-separated stages, start-ups
//! serialized or, as a relaxation the closed form cannot express,
//! overlapped with transmissions ([`StartupModel::Overlapped`]). With
//! serialized start-ups the simulated makespan equals the closed-form phase
//! cost *exactly* (asserted in tests and measured in the `validate_simnet`
//! experiment), grounding the analytic models used for Figure 2.
//!
//! It is the witness of the *paper's* stage model and lowers only what
//! that model defines. The schedule the threaded engine executes
//! (dataflow packets, chained tails, interleaved batches) is priced by
//! `mph_ccpipe::executed_cost` and witnessed by the throttled fabric.
//!
//! * [`schedule`] — communication stages and schedules, and the stage
//!   builder;
//! * [`plan`] — the stage lowering of a whole [`mph_core::CommPlan`];
//! * [`sim`] — the synchronized simulator;
//! * [`validate`] — simulator-vs-closed-form samples for the
//!   `validate_simnet` experiment.

pub mod plan;
pub mod schedule;
pub mod sim;
pub mod validate;

pub use plan::{plan_pipelined_schedule, plan_unpipelined_schedule};
pub use schedule::{pipelined_phase_schedule, CommSchedule, CommStage, NodeSend};
pub use sim::{simulate_synchronized, SimReport, StartupModel};
pub use validate::{validate_phase, ValidationSample};
