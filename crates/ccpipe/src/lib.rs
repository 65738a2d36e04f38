//! CC-cube algorithms and communication pipelining — a full reconstruction
//! of the machinery of Díaz de Cerio, González & Valero-García,
//! *"Communication pipelining in hypercubes"* (Parallel Processing Letters
//! 6(4), 1996), which the IPPS'98 Jacobi-orderings paper builds on.
//!
//! * [`cccube`] — the CC-cube algorithm class (SPMD loop, one hypercube
//!   dimension per iteration);
//! * [`pipelining`] — the pipelined CC-cube: packetization into `Q` packets
//!   and the prologue/kernel/epilogue stage schedule, in shallow
//!   (`Q ≤ K`) and deep (`Q > K`) modes;
//! * [`machine`] — the `Ts`/`Tw`/port machine model;
//! * [`cost`] — analytic phase costs: O(1) per deep degree, and every
//!   small shallow degree priced in one walk of the link sequence;
//! * [`optimum`] — the optimal pipelining degree;
//! * [`lowerbound`] — the ideal sequence whose phases bound Figure 2 from
//!   below: one more CC-cube for the phase model;
//! * [`plancost`] — the one sweep composition, on a lowered
//!   [`mph_core::CommPlan`]: each exchange phase at its optimal `Q`, the
//!   serial transitions whole; it draws Figure 2 and schedules the
//!   threaded solver's pipelining degrees;
//! * [`sweepcost`] — the sweep cost sheet and the Figure-2 data points,
//!   priced on one lowered sweep per family;
//! * [`execution`] — the computation term on top of the communication
//!   prices: total sweep times, speedup and efficiency.
//!
//! All of the above is the **paper's model**: stage-synchronous, witnessed
//! at 1e-9 on every port model by `mph_simnet::simulate_synchronized`,
//! which replays each stage on `NodeClock` ([`machine::NodeClock`]). Its
//! stages issue their per-link messages largest first, the order in which
//! the closed form's LPT packs them onto `k` ports. Two modules price what
//! the engine *executes* — barrier-free dataflow pipelining, chained
//! serial tails, several jobs interleaved on one fabric — which the paper
//! does not define:
//!
//! * [`schedclock`] — [`executed_cost`], which runs the engine's micro-op
//!   order on one `NodeClock`; its witness is the throttled
//!   fabric's measurement — the same clock type, driven by live sends —
//!   also at 1e-9;
//! * [`batchcost`] — the batch price sheet: paper-model solo prices (what
//!   orders and admits jobs) beside the executed schedule's makespan.

pub mod batchcost;
pub mod cccube;
pub mod cost;
pub mod execution;
pub mod lowerbound;
pub mod machine;
pub mod optimum;
pub mod pipelining;
pub mod plancost;
pub mod schedclock;
pub mod sweepcost;

pub use batchcost::{batch_cost, solo_plan_costs, BatchCost, BatchOrder, OrderCursor, PlannedJob};
pub use cccube::CcCube;
pub use cost::PhaseCostModel;
pub use execution::{efficiency, speedup, unpipelined_sweep_time, ComputeModel, SweepTime};
pub use lowerbound::{ideal_phase, strict_stage_lower_bound};
pub use machine::FabricStats;
pub use machine::{CalibrationError, Machine, PortModel};
pub use optimum::{optimize_q, OptimalQ};
pub use pipelining::{
    mode_of, pipelined_schedule, PipelineMode, PipelinedSchedule, Stage, StagePhase,
};
pub use plancost::{
    packetization_cap, plan_cost_with_tail, plan_pipelining, plan_sweep_cost, plan_tail_pipelining,
    plan_unpipelined_cost, PhaseChoice,
};
pub use schedclock::{executed_cost, ExecutedCost};
pub use sweepcost::{figure2_point, Figure2Point, PhaseOutcome, SweepCost};
