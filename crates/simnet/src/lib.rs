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
//! [`simulate_synchronized`]: barrier-separated stages, each replayed on
//! `NodeClock` — the one send/wait recurrence of the machine, which the
//! throttled fabric and `mph_ccpipe::executed_cost` drive too — with
//! start-ups serialized or, as a relaxation the closed form cannot
//! express, overlapped with transmissions ([`StartupModel::Overlapped`]).
//! Each stage issues its messages largest first, the order in which the
//! closed form's LPT packs them onto `k` ports. So with serialized
//! start-ups the simulated makespan equals the closed-form phase cost
//! *exactly* on all-port, one-port and `k`-port machines (asserted in
//! tests and measured in the `validate_simnet` experiment), grounding the
//! analytic models used for Figure 2.
//!
//! It is the witness of the *paper's* stage model and lowers only what
//! that model defines. The schedule the threaded engine executes
//! (dataflow packets, chained tails, interleaved batches) is priced by
//! `mph_ccpipe::executed_cost` and witnessed by the throttled fabric.
//!
//! A [`CommSchedule`] keeps every stage's sends in **one store**: a stage
//! is a range of it — one range its `2^d` nodes share for an SPMD stage,
//! one range per node for a per-node stage — and the builder writes each
//! stage's largest-first window into the store through one reused buffer,
//! reading each phase's packet sizes once. So a schedule costs a fixed
//! number of heap allocations plus one per phase (its windows), never one
//! per stage, and the simulator replays each stored range once. On the
//! repository benchmark's `model_sweep` grid (d = 3..7 × four families, one
//! CPU of an AVX-512 Xeon, medians of five alternating rounds) a job's two
//! schedules took ≈ 246 µs and 752 allocations, against ≈ 516 µs and 5 577
//! when every stage collected its own bundle; replaying them took ≈ 145
//! against ≈ 141 µs, 160 allocations either way. The per-stage builder is
//! kept as the test oracle (`oracle.rs`).
//!
//! A stage is not a slice of `CommPlan::program`. The stage model combines
//! the packets a stage sends over one link into one message, which pays
//! one `Ts` — the paper's combining assumption — while the program, like
//! the engine, charges one `Ts` per packet. The builders therefore emit at
//! most one message per link per stage; a hand-built bundle with two sends
//! on one link serializes them on that link, as the fabric does.
//!
//! * [`schedule`] — communication stages and schedules (the one send
//!   store), and the stage builder;
//! * [`plan`] — the stage lowering of a whole [`mph_core::CommPlan`];
//! * [`sim`] — the synchronized simulator.

#[cfg(test)]
mod oracle;
pub mod plan;
pub mod schedule;
pub mod sim;

pub use plan::{plan_pipelined_schedule, plan_unpipelined_schedule};
pub use schedule::{pipelined_phase_schedule, CommSchedule, CommStage, NodeSend};
pub use sim::{simulate_synchronized, SimReport, StartupModel};
