//! The communication-plan lowering: `SweepSchedule × BlockPartition →
//! per-phase link sequences + message sizes`.
//!
//! A [`SweepSchedule`] says *which links fire in which order*; a
//! [`BlockPartition`] says *how many columns each block carries*. Neither
//! alone determines what actually crosses the wires: message sizes depend
//! on which block sits in which node slot when a transition fires, and the
//! slot contents evolve as the sweep's transitions move blocks around.
//! [`CommPlan::lower`] runs that evolution symbolically (via
//! [`BlockLayout`]) and emits the result as a phase list:
//!
//! * one [`PlanPhase`] per **exchange phase** `e` — the phase's link
//!   sequence `D_e` (after the sweep's link rotation `σ_s`) plus, for each
//!   transition, the exact per-node message size in elements;
//! * one single-transition [`PlanPhase`] per **division** transition and
//!   for the **last transition** — the serial, unpipelinable block moves.
//!
//! A phase in which every node sends the same size at each transition — a
//! *uniform* phase, every phase of an even partition — stores one size per
//! transition; only a phase whose sizes differ across nodes keeps a
//! `K × 2^d` table. Either is read per node through [`PlanPhase::send`].
//! Lowering is the one pass that writes the sizes: as it writes each row it
//! records the phase's largest message and whether it is uniform, and the
//! pricer and the simulator read those two facts; none of them rescans
//! `2^d` nodes per transition. Lowering moves the layout once per exchange
//! phase, not once per transition, and on an even partition it computes no
//! per-node size at all: such a sweep lowers in `O(d · 2^d)`, not
//! `O(2^{2d+1})`, so Figure 2's `d = 15` lowers.
//!
//! The plan is the single source of truth the three downstream layers
//! consume:
//!
//! * `mph-ccpipe` prices it (each exchange phase is a CC-cube algorithm;
//!   `optimize_q` picks its pipelining degree; `executed_cost` runs the
//!   schedule the driver executes on a schedule clock);
//! * `mph-simnet` simulates it (lowering each phase to communication
//!   stages, packetized or not);
//! * `mph-runtime`/`mph-eigen` execute it (the threaded driver walks the
//!   same phases, splitting blocks into the packet counts the cost model
//!   chose).
//!
//! How a phase crosses the links under given degrees — whole blocks,
//! packets, or a chained tail run — is decided once, in
//! [`CommPlan::framing`], for all of them; and the order in which a framed
//! sweep's micro-ops run is written once, as [`CommPlan::op_after`] — the
//! engine executes that program, the schedule clock prices it.
//!
//! Because all three read the same object, the metered traffic of an
//! execution, the simulated traffic of the network model and the volume
//! the cost model charges are comparable *by construction* — asserted
//! cross-crate in `mph-eigen`'s pipeline-traffic tests.

use crate::coverage::BlockLayout;
use crate::family::OrderingFamily;
use crate::partition::BlockPartition;
use crate::sweep::{SweepSchedule, Transition, TransitionKind};
use std::ops::Range;

/// What a plan phase is, in the sweep's phase structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Exchange phase `e`: `2^e − 1` pipelinable transitions along `D_e`.
    Exchange { e: usize },
    /// The division transition closing exchange phase `e` (serial).
    Division { e: usize },
    /// The sweep-final rearrangement (serial).
    Last,
}

/// One phase of the plan: its links and exact per-node message sizes.
///
/// Node `n`'s size at transition `t` is [`PlanPhase::send`]`(t, n)`. A
/// uniform phase ([`PlanPhase::is_uniform`]: at every transition every node
/// sends the same) stores one size per transition, any other phase a
/// row-major `K × 2^d` table. The compact form is the only form of a
/// uniform phase, whichever way lowering reached it, so `==` compares
/// phases by their sizes. Lowering writes the sizes row by row and records,
/// in the same pass, the phase's largest message
/// ([`PlanPhase::max_message_elems`]) and whether it is uniform; no reader
/// rescans the sizes for either fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPhase {
    pub kind: PhaseKind,
    /// The link of each transition of the phase, in order (`2^e − 1` links
    /// for an exchange phase, one for a serial phase).
    pub links: Vec<usize>,
    /// Uniform: `sizes[t]`, every node's size at transition `t`; otherwise
    /// `sizes[t · nodes + n]`, node `n`'s.
    sizes: Vec<u64>,
    nodes: usize,
    max_message_elems: u64,
    uniform: bool,
}

impl PlanPhase {
    /// An empty phase of `kind` on `nodes` nodes, reserved for `k`
    /// transitions of one size each — all a uniform phase fills.
    fn open(kind: PhaseKind, nodes: usize, k: usize) -> PlanPhase {
        let (links, sizes) = (Vec::with_capacity(k), Vec::with_capacity(k));
        PlanPhase { kind, links, sizes, nodes, max_message_elems: 0, uniform: true }
    }

    /// Appends transition `link`, on which node `n` sends `row[n]` — every
    /// node `row[0]` when the row has one entry, as every row of an even
    /// partition does — and folds the row into the phase's two recorded
    /// facts. The first row whose sizes differ across nodes expands the
    /// phase into its `K × 2^d` table.
    fn push(&mut self, link: usize, row: &[u64]) {
        self.links.push(link);
        self.max_message_elems = row.iter().fold(self.max_message_elems, |max, &e| max.max(e));
        if self.uniform && row.iter().all(|&e| e == row[0]) {
            self.sizes.push(row[0]);
            return;
        }
        let nodes = self.nodes;
        if self.uniform {
            self.uniform = false;
            let mut table = Vec::with_capacity(self.links.capacity() * nodes);
            self.sizes.iter().for_each(|&e| table.extend(std::iter::repeat_n(e, nodes)));
            self.sizes = table;
        }
        self.sizes.extend_from_slice(row);
    }

    /// Number of transitions (`K` of the CC-cube for exchange phases).
    pub fn k(&self) -> usize {
        self.links.len()
    }

    /// Whether this phase is pipelinable (an exchange phase).
    pub fn is_exchange(&self) -> bool {
        matches!(self.kind, PhaseKind::Exchange { .. })
    }

    /// The elements node `n` puts on `links[t]` at transition `t` of this
    /// phase. Zero for empty blocks — the message still crosses the link
    /// (the protocol is position-based).
    pub fn send(&self, t: usize, n: usize) -> u64 {
        debug_assert!(n < self.nodes, "node {n} out of range");
        if self.uniform {
            self.sizes[t]
        } else {
            self.sizes[t * self.nodes + n]
        }
    }

    /// The elements every node together puts on `links[t]`.
    fn volume(&self, t: usize) -> u64 {
        if self.uniform {
            self.sizes[t] * self.nodes as u64
        } else {
            self.sizes[t * self.nodes..(t + 1) * self.nodes].iter().sum()
        }
    }

    /// The largest single message of the phase — the block size that
    /// bounds every transition's transmission (what the cost model prices
    /// as the phase's message size). Recorded at lowering.
    pub fn max_message_elems(&self) -> u64 {
        self.max_message_elems
    }

    /// Whether every node sends the same size at every transition — a
    /// phase stored as one size per transition, which the simulator lowers
    /// to shared SPMD stages. Recorded at lowering.
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }
}

/// The lowered communication plan of one sweep: its phases in execution
/// order, each with its per-node sizes and the two facts recorded as they
/// were written (see [`PlanPhase`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommPlan {
    d: usize,
    elems_per_col: usize,
    phases: Vec<PlanPhase>,
    final_layout: BlockLayout,
}

impl CommPlan {
    /// Lowers one sweep: walks `schedule`'s transitions from `layout`,
    /// grouping consecutive exchange transitions into phases and recording
    /// the exact message size of every (transition, node) pair — and, in
    /// the same pass, each phase's largest message and uniformity. A block of
    /// `b` columns crosses a link as `b · elems_per_col` elements
    /// (`elems_per_col` is `arows + urows`, plus one when a cached
    /// diagonal travels with each column).
    ///
    /// Every exchange transition, and the last one, swaps the mobile blocks
    /// along its link, so a phase's moves compose to one XOR mask: node
    /// `n`'s message at transition `t` is the mobile block the phase
    /// entered with at `n ^ (links[0] ^ … ^ links[t − 1])`, and the layout
    /// moves once, at the phase's end. Divisions move it one by one. When
    /// every block has the same size no per-node size is computed at all.
    ///
    /// The layout must place `2 × 2^d` blocks (two per node); chain sweeps
    /// by passing [`CommPlan::final_layout`] back in.
    pub fn lower(
        schedule: &SweepSchedule,
        partition: &BlockPartition,
        layout: &BlockLayout,
        elems_per_col: usize,
    ) -> CommPlan {
        let d = schedule.dim();
        let p = 1usize << d;
        assert_eq!(layout.nodes(), p, "layout does not match the schedule's cube");
        assert_eq!(partition.len(), 2 * p, "partition must have 2^(d+1) blocks");
        let block_elems = |b: usize| -> u64 { (partition.size(b) * elems_per_col) as u64 };
        // Every node sends the one block size at every transition.
        let even = (1..2 * p).all(|b| partition.size(b) == partition.size(0));

        let mut layout = layout.clone();
        let mut phases: Vec<PlanPhase> = Vec::new();
        // An even partition's every row is its one block size.
        let mut row: Vec<u64> = if even { vec![block_elems(0)] } else { Vec::with_capacity(p) };
        // A phase is a run of one exchange phase's transitions, or one
        // serial transition.
        let same_exchange = |a: &Transition, b: &Transition| {
            a.kind == b.kind && matches!(a.kind, TransitionKind::Exchange { .. })
        };
        for run in schedule.transitions().chunk_by(same_exchange) {
            let kind = match run[0].kind {
                TransitionKind::Exchange { phase } => PhaseKind::Exchange { e: phase },
                TransitionKind::Division { phase } => PhaseKind::Division { e: phase },
                TransitionKind::LastTransition => PhaseKind::Last,
            };
            let division = matches!(kind, PhaseKind::Division { .. });
            let mut phase = PlanPhase::open(kind, p, run.len());
            // The XOR of the links crossed so far in the phase.
            let mut moved = 0usize;
            for t in run {
                if !even {
                    row.clear();
                    row.extend((0..p).map(|n| {
                        // A division's bit = 1 endpoint sends its resident,
                        // every other sender its mobile (slot asymmetry).
                        let resident = division && n & (1 << t.link) != 0;
                        block_elems(layout.at(n ^ moved)[usize::from(!resident)])
                    }));
                }
                phase.push(t.link, &row);
                moved ^= 1 << t.link;
            }
            if division {
                layout.apply(&run[0]);
            } else {
                layout.swap_mobiles(moved);
            }
            phases.push(phase);
        }
        CommPlan { d, elems_per_col, phases, final_layout: layout }
    }

    /// Lowers sweeps `0..sweeps` of an `n_cols`-column solve on a `d`-cube
    /// under `family`, sweep `s` from sweep `s − 1`'s final layout, so
    /// message sizes stay exact on uneven partitions too: the plan chain a
    /// solve executes and the cost model prices.
    pub fn chain(
        n_cols: usize,
        d: usize,
        family: OrderingFamily,
        elems_per_col: usize,
        sweeps: usize,
    ) -> Vec<CommPlan> {
        let partition = BlockPartition::new(n_cols, 2 << d);
        let canonical = BlockLayout::canonical(d);
        let mut plans: Vec<CommPlan> = Vec::with_capacity(sweeps);
        for s in 0..sweeps {
            let layout = plans.last().map_or(&canonical, CommPlan::final_layout);
            let schedule = SweepSchedule::sweep(d, family, s);
            let plan = CommPlan::lower(&schedule, &partition, layout, elems_per_col);
            plans.push(plan);
        }
        plans
    }

    /// Cube dimension.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The phases, in execution order.
    pub fn phases(&self) -> &[PlanPhase] {
        &self.phases
    }

    /// The exchange phases only, in execution order (e = d down to 1).
    pub fn exchange_phases(&self) -> impl Iterator<Item = &PlanPhase> {
        self.phases.iter().filter(|ph| ph.is_exchange())
    }

    /// The block placement after the sweep — the next sweep's input.
    pub fn final_layout(&self) -> &BlockLayout {
        &self.final_layout
    }

    /// Whether `other` puts the same messages on the same links in the
    /// same order: everything a price or a [`Framing`] is a function of —
    /// all of the plan but where its blocks end up. A sweep chain's link
    /// rotation repeats every `d` sweeps while its layouts keep permuting,
    /// so plans compare equal here long before they do under `==`.
    pub fn same_traffic(&self, other: &CommPlan) -> bool {
        self.d == other.d
            && self.elems_per_col == other.elems_per_col
            && self.phases == other.phases
    }

    /// Per-dimension data volume of the whole sweep — invariant under
    /// packetization (pipelining reframes messages, it does not change
    /// what crosses each wire), so this single prediction covers both the
    /// pipelined and the unpipelined execution of the plan.
    pub fn volume_by_dim(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.d.max(1)];
        for ph in &self.phases {
            for (t, &link) in ph.links.iter().enumerate() {
                v[link] += ph.volume(t);
            }
        }
        v
    }

    /// The plan's **tail runs**: maximal runs of consecutive
    /// single-transition phases (`k() == 1` — the divisions, the last
    /// transition, and the `e = 1` exchange phase sandwiched between
    /// them). Within a run every phase moves one whole block over one
    /// link, so packetizing the run and forwarding each packet as soon as
    /// its predecessor arrives chains the phases into one software
    /// pipeline — the serial-tail counterpart of the exchange-phase
    /// pipelining. For a full sweep on `d ≥ 2` the runs are
    /// `[Div_d]`, …, `[Div_2, X_1, Div_1, Last]`; on `d = 1` the whole
    /// plan is one run.
    pub fn tail_runs(&self) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, ph) in self.phases.iter().enumerate() {
            if ph.k() == 1 {
                start.get_or_insert(i);
            } else if let Some(s) = start.take() {
                runs.push(s..i);
            }
        }
        if let Some(s) = start {
            runs.push(s..self.phases.len());
        }
        runs
    }

    /// How the phases of this plan move when exchange phase `i` is split
    /// into `qs[i]` packets (one entry per exchange phase, in execution
    /// order) and the tail runs into `tail_q` — the one framing decision
    /// the engine executes, the schedule clock prices, the simulator
    /// lowers and [`CommPlan::messages_with_tail`] counts.
    pub fn framing(&self, qs: &[usize], tail_q: usize) -> Framing {
        assert_eq!(qs.len(), self.exchange_phases().count(), "one q per exchange phase");
        let mut exchange_qs = qs.iter().copied();
        let mut frames: Vec<Frame> = self
            .phases
            .iter()
            .map(|ph| {
                let q = if ph.is_exchange() { exchange_qs.next().unwrap_or(1) } else { 1 };
                if q > 1 {
                    Frame::Packets(q)
                } else {
                    Frame::Whole
                }
            })
            .collect();
        if tail_q > 1 {
            // A K = 1 exchange inside a run rides at the run's degree,
            // whatever its own planned Q.
            for run in self.tail_runs() {
                let (start, end) = (run.start, run.end);
                frames[run].fill(Frame::Chained { q: tail_q, start, end });
            }
        }
        Framing(frames)
    }

    /// Packet `q`, in elements, of a `block_elems`-element block of this
    /// plan's columns split `of` ways: balanced column groups, larger first
    /// — what `ColumnBlock::split_columns` cuts, and what the engine
    /// charges the clock packet by packet.
    pub fn packet_size(&self, block_elems: u64, of: usize, q: usize) -> u64 {
        let epc = self.elems_per_col.max(1) as u64;
        let cols = block_elems / epc;
        let (base, extra) = (cols / of as u64, cols % of as u64);
        (base + u64::from((q as u64) < extra)) * epc
    }

    /// Data-plane messages of the sweep under [`CommPlan::framing`]`(qs,
    /// tail_q)`: every transition of a phase carries the phase's packet
    /// count per node. Unpipelined counts are `qs = [1, 1, …]`,
    /// `tail_q = 1`.
    pub fn messages_with_tail(&self, qs: &[usize], tail_q: usize) -> u64 {
        let p = (1usize << self.d) as u64;
        let framing = self.framing(qs, tail_q);
        self.phases
            .iter()
            .enumerate()
            .map(|(idx, ph)| ph.k() as u64 * p * framing.frame(idx).packets() as u64)
            .sum()
    }

    /// The first op of phase `idx` framed `frame`.
    fn first_op(idx: usize, frame: Frame) -> MicroOp {
        let (kind, of, entry) = match frame {
            Frame::Whole => (OpKind::Send, 1, true),
            Frame::Packets(q) => (OpKind::Pipe, q, true),
            Frame::Chained { q, start, .. } => (OpKind::TailSend, q, idx == start),
        };
        MicroOp::first(kind, idx, of, entry)
    }

    /// The op after `op` while the program stays in `op`'s phase — for a
    /// chained `frame`, in its run; `None` once that is through.
    fn next_in(&self, op: MicroOp, frame: Frame) -> Option<MicroOp> {
        use OpKind::*;
        let k_total = self.phases[op.phase].k();
        let more = op.q + 1 < op.of;
        let (kind, phase, k, q) = match op.kind {
            Send => (Recv, op.phase, op.k, 0),
            Recv if op.k + 1 < k_total => (Send, op.phase, op.k + 1, 0),
            Pipe | Drain | TailSend | TailRecv if more => (op.kind, op.phase, op.k, op.q + 1),
            // Iteration `k + 1` forwards the round iteration `k` receives;
            // the epilogue drains the last round, `k = K − 1`.
            Pipe if op.k + 1 < k_total => (Pipe, op.phase, op.k + 1, 0),
            Pipe => (Drain, op.phase, op.k, 0),
            TailSend => (TailRecv, op.phase, 0, 0),
            // An in-run K = 1 exchange rides the chain at the run's degree.
            TailRecv if !op.last => (TailSend, op.phase + 1, 0, 0),
            SweepStart | Recv | Drain | TailRecv | SweepEnd => return None,
        };
        let last = kind == TailRecv
            && q + 1 == op.of
            && matches!(frame, Frame::Chained { end, .. } if phase + 1 == end);
        Some(MicroOp { kind, phase, k, q, of: op.of, entry: kind == Send, last })
    }

    /// The successor function of the sweep's program under `framing`: the
    /// micro-op that runs after `op`, `None` after [`OpKind::SweepEnd`].
    /// Start from [`MicroOp::SWEEP_START`]. This is the order the engine
    /// (`mph_eigen`) executes and the schedule clock
    /// (`mph_ccpipe::executed_cost`) charges; nothing is built or allocated.
    pub fn op_after(&self, op: MicroOp, framing: &Framing) -> Option<MicroOp> {
        let idx = match op.kind {
            OpKind::SweepStart => 0,
            OpKind::SweepEnd => return None,
            _ => match self.next_in(op, framing.frame(op.phase)) {
                Some(next) => return Some(next),
                None => op.phase + 1,
            },
        };
        Some(match self.phases.get(idx) {
            Some(_) => Self::first_op(idx, framing.frame(idx)),
            None => MicroOp::first(OpKind::SweepEnd, idx, 1, false),
        })
    }

    /// One sweep's micro-ops under `framing`, in execution order.
    pub fn program<'a>(&'a self, framing: &'a Framing) -> impl Iterator<Item = MicroOp> + 'a {
        std::iter::successors(Some(MicroOp::SWEEP_START), move |&op| self.op_after(op, framing))
    }

    /// The ops of phases `run` (a [`CommPlan::tail_runs`] entry) chained at
    /// degree `q ≥ 1` — [`CommPlan::framing`] chains only above 1, but the
    /// tail chooser also prices the whole-block chain.
    pub fn chained_run(&self, run: Range<usize>, q: usize) -> impl Iterator<Item = MicroOp> + '_ {
        let frame = Frame::Chained { q, start: run.start, end: run.end };
        let first = Self::first_op(run.start, frame);
        std::iter::successors(Some(first), move |&op| self.next_in(op, frame))
    }
}

/// What a micro-op is in the schedule. What it *does* is its interpreter's
/// business: the engine pairs, moves blocks and votes; the schedule clock
/// sends on the charging kinds, waits on the consuming ones, skips the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    SweepStart,
    /// A whole block leaves across `links[k]`.
    Send,
    /// The partner's whole block arrives.
    Recv,
    /// Packet `q` of a packetized phase's iteration `k` is charged: the
    /// paper's stage `k + q` wavefront (§2.4).
    Pipe,
    /// Packet `q` of the phase's last round is consumed.
    Drain,
    /// Packet `q` of a chained single-link transition is charged, on the
    /// stamp its predecessor arrived with.
    TailSend,
    /// That packet is consumed; the clock waits at the run's `last` only.
    TailRecv,
    SweepEnd,
}

/// One step of a sweep's program ([`CommPlan::op_after`]). `(phase, k, q)`
/// is the identity the meter, the trace and the schedule clock key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    pub kind: OpKind,
    /// Index into [`CommPlan::phases`] (its length at `SweepEnd`).
    pub phase: usize,
    /// Transition of the phase; for `Drain`, the last one.
    pub k: usize,
    /// Packet of the round, `< of`.
    pub q: usize,
    /// Packets per round of the op's phase.
    pub of: usize,
    /// The first charge of a phase or chained run, when every lane is
    /// ready. A whole `Send` is always its own.
    pub entry: bool,
    /// The last receive of a chained run.
    pub last: bool,
}

impl MicroOp {
    /// Where every sweep's program starts.
    pub const SWEEP_START: MicroOp = MicroOp::first(OpKind::SweepStart, 0, 1, false);

    const fn first(kind: OpKind, phase: usize, of: usize, entry: bool) -> MicroOp {
        MicroOp { kind, phase, k: 0, q: 0, of, entry, last: false }
    }

    /// Whether the op puts a message on the clock: one per
    /// [`CommPlan::messages_with_tail`] count and node.
    pub fn charges(self) -> bool {
        matches!(self.kind, OpKind::Send | OpKind::Pipe | OpKind::TailSend)
    }
}

/// How one phase of a plan crosses the links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// Every transition is one whole-block message.
    Whole,
    /// An exchange phase whose mobile block travels as this many (> 1)
    /// packets, pipelined inside the phase.
    Packets(usize),
    /// A single-link transition of the tail run `start..end` (phase
    /// indices, see [`CommPlan::tail_runs`]), whose phases are chained
    /// packet by packet at degree `q` (> 1 out of [`CommPlan::framing`]).
    Chained { q: usize, start: usize, end: usize },
}

impl Frame {
    /// Messages per node per transition.
    pub fn packets(self) -> usize {
        match self {
            Frame::Whole => 1,
            Frame::Packets(q) | Frame::Chained { q, .. } => q,
        }
    }
}

/// One [`Frame`] per phase of a plan, from [`CommPlan::framing`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framing(Vec<Frame>);

impl Framing {
    /// How phase `idx` moves.
    pub fn frame(&self, idx: usize) -> Frame {
        self.0[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::OrderingFamily;

    fn plan(m: usize, d: usize, family: OrderingFamily, sweep: usize) -> CommPlan {
        let schedule = SweepSchedule::sweep(d, family, sweep);
        let partition = BlockPartition::new(m, 2 << d);
        CommPlan::lower(&schedule, &partition, &BlockLayout::canonical(d), 2 * m)
    }

    /// Every message of phase `ph`, transition by transition, node by node.
    fn messages(ph: &PlanPhase) -> impl Iterator<Item = u64> + '_ {
        (0..ph.k()).flat_map(move |t| (0..ph.nodes).map(move |n| ph.send(t, n)))
    }

    /// Node by node, the sizes of transition `t` of phase `ph`.
    fn row(ph: &PlanPhase, t: usize) -> Vec<u64> {
        (0..ph.nodes).map(|n| ph.send(t, n)).collect()
    }

    /// Data volume of the whole sweep.
    fn total_volume(p: &CommPlan) -> u64 {
        p.volume_by_dim().iter().sum()
    }

    #[test]
    fn phase_structure_matches_the_sweep() {
        // d exchange phases (e = d..1), d divisions, one last transition.
        for d in 1..=4 {
            let p = plan(32, d, OrderingFamily::Br, 0);
            let kinds: Vec<PhaseKind> = p.phases().iter().map(|ph| ph.kind).collect();
            let mut want = Vec::new();
            for e in (1..=d).rev() {
                want.push(PhaseKind::Exchange { e });
                want.push(PhaseKind::Division { e });
            }
            want.push(PhaseKind::Last);
            assert_eq!(kinds, want, "d={d}");
            for ph in p.exchange_phases() {
                let PhaseKind::Exchange { e } = ph.kind else { unreachable!() };
                assert_eq!(ph.k(), (1 << e) - 1, "K = 2^e − 1");
            }
        }
    }

    #[test]
    fn exchange_links_are_the_rotated_family_sequence() {
        let d = 3;
        for family in OrderingFamily::ALL {
            for s in 0..d {
                let p = plan(16, d, family, s);
                let sigma = crate::sweep::sweep_link_permutation(d, s);
                for (ph, e) in p.exchange_phases().zip((1..=d).rev()) {
                    let want: Vec<usize> =
                        family.sequence(e).iter().map(|&l| sigma.apply(l)).collect();
                    assert_eq!(ph.links, want, "{family} s={s} e={e}");
                }
            }
        }
    }

    #[test]
    fn uniform_partition_gives_uniform_message_sizes() {
        // m = 32 on d = 2: 8 blocks of 4 columns, 2·32 elems per column.
        let p = plan(32, 2, OrderingFamily::Degree4, 0);
        for ph in p.phases() {
            assert_eq!(ph.max_message_elems(), 4 * 64);
        }
        // Every transition moves one block per node: volume is exact.
        let transitions = (2usize << 2) - 1; // 2^{d+1} − 1
        assert_eq!(total_volume(&p), (transitions * 4 * (4 * 64)) as u64);
    }

    #[test]
    fn uneven_partition_tracks_block_movement() {
        // m = 10 on d = 1: blocks of 3, 3, 2, 2 columns. The lowering must
        // charge each transition the size of the block actually sitting in
        // the sending slot, which changes as transitions move blocks.
        let m = 10;
        let d = 1;
        let p = plan(m, d, OrderingFamily::Br, 0);
        let epc = 2 * m as u64;
        // Canonical layout: node 0 = [b0, b2], node 1 = [b1, b3].
        // Exchange phase e=1 (one transition, link 0): both nodes send
        // slot 1 → sizes of b2 (2 cols) and b3 (2 cols).
        assert_eq!(row(&p.phases()[0], 0), [2 * epc, 2 * epc]);
        // That phase is uniform, so it is stored as an even partition's
        // would be: `==` sees the sizes, not the path that wrote them.
        let schedule = SweepSchedule::sweep(d, OrderingFamily::Br, 0);
        let even = BlockPartition::new(8, 4);
        let even = CommPlan::lower(&schedule, &even, &BlockLayout::canonical(d), 2 * m);
        assert!(p.phases()[0].is_uniform() && !p.phases()[1].is_uniform());
        assert_eq!(p.phases()[0], even.phases()[0]);
        // After the exchange: node 0 = [b0, b3], node 1 = [b1, b2].
        // Division (link 0): node 0 sends slot 1 (b3, 2 cols), node 1
        // sends slot 0 (b1, 3 cols).
        assert_eq!(row(&p.phases()[1], 0), [2 * epc, 3 * epc]);
        // After division: node 0 = [b0, b1], node 1 = [b3, b2].
        // Last transition: slot-1 blocks b1 (3 cols) and b2 (2 cols).
        assert_eq!(row(&p.phases()[2], 0), [3 * epc, 2 * epc]);
        // Whole-sweep volume: every transition's sends summed.
        assert_eq!(total_volume(&p), (2 + 2 + 2 + 3 + 3 + 2) * epc);
    }

    #[test]
    fn volume_by_dim_sums_per_link() {
        let d = 3;
        let m = 32;
        let p = plan(m, d, OrderingFamily::Br, 0);
        let block = (m / (2 << d)) as u64 * (2 * m) as u64;
        let nodes = 1u64 << d;
        // BR first sweep, link histogram over all 15 transitions:
        // D_3 = <0102010> + div on 2, D_2 = <010> + div on 1, D_1 = <0> +
        // div on 0, last on 2 → dim0: 4+2+1+1 = 8, dim1: 2+1+1 = 4,
        // dim2: 1+1+1 = 3.
        assert_eq!(
            p.volume_by_dim(),
            vec![8 * nodes * block, 4 * nodes * block, 3 * nodes * block]
        );
        assert_eq!(total_volume(&p), 15 * nodes * block);
    }

    /// Data volume of the sweep's serial tail: the division and last
    /// transitions, single whole-block messages paper §2.4 leaves serial.
    fn tail_volume(p: &CommPlan) -> u64 {
        p.phases.iter().filter(|ph| !ph.is_exchange()).flat_map(messages).sum()
    }

    #[test]
    fn tail_volume_counts_exactly_the_serial_phases() {
        // Uniform partition: the tail is d divisions + the last transition,
        // one whole block per node each.
        for d in 1..=3usize {
            let m = 32;
            let p = plan(m, d, OrderingFamily::Br, 0);
            let block = (m / (2 << d)) as u64 * (2 * m) as u64;
            let nodes = 1u64 << d;
            let want = (d as u64 + 1) * nodes * block;
            assert_eq!(tail_volume(&p), want, "d={d}");
            // Tail + exchange phases = the whole sweep.
            let exchange: u64 = p.exchange_phases().flat_map(messages).sum();
            assert_eq!(exchange + tail_volume(&p), total_volume(&p), "d={d}");
        }
    }

    #[test]
    fn tail_volume_tracks_uneven_blocks() {
        // m = 10, d = 1 (see uneven_partition_tracks_block_movement): the
        // division moves 2- and 3-column blocks, the last transition 3 and
        // 2 — the tail must charge the blocks actually moved.
        let p = plan(10, 1, OrderingFamily::Br, 0);
        let epc = 2 * 10u64;
        assert_eq!(tail_volume(&p), (2 + 3 + 3 + 2) * epc);
    }

    #[test]
    fn final_layout_chains_sweeps() {
        // Lowering from the final layout of the previous sweep must agree
        // with symbolically tracing both sweeps in sequence.
        let d = 2;
        let partition = BlockPartition::new(12, 2 << d);
        let s0 = SweepSchedule::sweep(d, OrderingFamily::PermutedBr, 0);
        let p0 = CommPlan::lower(&s0, &partition, &BlockLayout::canonical(d), 24);
        let trace = crate::coverage::trace_sweep(&s0, &BlockLayout::canonical(d));
        assert_eq!(p0.final_layout(), &trace.final_layout);
        let s1 = SweepSchedule::sweep(d, OrderingFamily::PermutedBr, 1);
        let p1 = CommPlan::lower(&s1, &partition, p0.final_layout(), 24);
        assert_eq!(p1.d(), d);
        // The chained plan still moves every transition's full block volume.
        let total_cols: usize = (0..partition.len()).map(|b| partition.size(b)).sum();
        assert_eq!(total_cols, 12);
    }

    #[test]
    fn same_traffic_ignores_where_the_blocks_end_up() {
        // An even partition: sweep d repeats sweep 0's links, from a layout
        // that has moved on.
        let (d, partition) = (2, BlockPartition::new(16, 8));
        let lower = |s, layout: &BlockLayout| {
            let schedule = SweepSchedule::sweep(d, OrderingFamily::PermutedBr, s);
            CommPlan::lower(&schedule, &partition, layout, 32)
        };
        let p0 = lower(0, &BlockLayout::canonical(d));
        let p1 = lower(1, p0.final_layout());
        let p2 = lower(2, p1.final_layout());
        assert!(!p0.same_traffic(&p1), "sweep 1 rotates the links");
        assert!(p0.same_traffic(&p2) && p0 != p2);
    }

    #[test]
    fn message_counts_scale_with_packetization() {
        let d = 2;
        let p = plan(16, d, OrderingFamily::Br, 0);
        let nodes = 1u64 << d;
        let transitions = (2u64 << d) - 1;
        assert_eq!(p.messages_with_tail(&[1, 1], 1), transitions * nodes);
        // Splitting phase e=2 (K=3) into 4 packets adds 3·3·4 messages per
        // node... precisely: exchange transitions of that phase now carry 4
        // messages each.
        let piped = p.messages_with_tail(&[4, 2], 1);
        let serial = (d as u64 + 1) * nodes; // divisions + last
        assert_eq!(piped, 3 * 4 * nodes + 2 * nodes + serial);
    }

    #[test]
    fn tail_runs_group_the_consecutive_single_transition_phases() {
        // d = 3: X_3 Div_3 X_2 Div_2 X_1 Div_1 Last → runs [Div_3] and
        // [Div_2, X_1, Div_1, Last].
        let p = plan(64, 3, OrderingFamily::Br, 0);
        assert_eq!(p.tail_runs(), vec![1..2, 3..7]);
        // d = 1: the whole plan (X_1 Div_1 Last) is one run.
        let p = plan(16, 1, OrderingFamily::Degree4, 0);
        assert_eq!(p.tail_runs(), vec![0..3]);
        // d = 2: X_2 Div_2 X_1 Div_1 Last → one run after X_2.
        let p = plan(32, 2, OrderingFamily::PermutedBr, 0);
        assert_eq!(p.tail_runs(), vec![1..5]);
        for r in p.tail_runs() {
            for i in r {
                assert_eq!(p.phases()[i].k(), 1);
            }
        }
    }

    #[test]
    fn framing_chains_the_runs_and_packetizes_the_rest() {
        // d = 3: X_3 Div_3 X_2 Div_2 X_1 Div_1 Last.
        let p = plan(64, 3, OrderingFamily::Br, 0);
        let frames = |qs: &[usize], tail_q| {
            let f = p.framing(qs, tail_q);
            (0..p.phases().len()).map(|i| f.frame(i)).collect::<Vec<_>>()
        };
        use Frame::{Chained, Packets, Whole};
        // Degrees of 0 and 1 are whole blocks; a whole-block tail leaves
        // the K = 1 exchange its own degree.
        assert_eq!(
            frames(&[4, 0, 2], 1),
            [Packets(4), Whole, Whole, Whole, Packets(2), Whole, Whole]
        );
        // A chained tail takes the in-run X_1 over at the run's degree.
        let (lone, run) = (Chained { q: 3, start: 1, end: 2 }, Chained { q: 3, start: 3, end: 7 });
        assert_eq!(frames(&[4, 1, 2], 3), [Packets(4), lone, Whole, run, run, run, run]);
        assert_eq!(run.packets(), 3);
    }

    #[test]
    fn packets_are_balanced_column_groups_larger_first() {
        // 5 columns of 20 elements: 3 ways is 2 + 2 + 1 columns, 7 ways
        // leaves two empty packets; the split conserves the block.
        let p = plan(10, 1, OrderingFamily::Br, 0);
        let split = |of| (0..of).map(|q| p.packet_size(100, of, q)).collect::<Vec<_>>();
        assert_eq!(split(3), [40, 40, 20]);
        assert_eq!(split(7), [20, 20, 20, 20, 20, 0, 0]);
        assert_eq!(split(1), [100]);
    }

    #[test]
    fn tail_message_counts_scale_with_the_tail_degree() {
        let d = 2;
        let p = plan(16, d, OrderingFamily::Br, 0);
        let nodes = 1u64 << d;
        // tail_q = 3: the run [Div_2, X_1, Div_1, Last] carries 3 packets
        // per node per phase; X_2 (K=3) keeps its own q.
        let got = p.messages_with_tail(&[4, 2], 3);
        assert_eq!(got, 3 * 4 * nodes + 4 * 3 * nodes);
    }

    #[test]
    fn d0_lowers_to_an_empty_plan() {
        let schedule = SweepSchedule::first_sweep(0, OrderingFamily::Br);
        let partition = BlockPartition::new(8, 2);
        let p = CommPlan::lower(&schedule, &partition, &BlockLayout::canonical(0), 16);
        assert!(p.phases().is_empty());
        assert_eq!(total_volume(&p), 0);
        assert_eq!(p.messages_with_tail(&[], 1), 0);
    }

    #[test]
    fn empty_blocks_send_zero_sized_messages() {
        // m = 3 on d = 1 (4 blocks): blocks of 1,1,1,0 columns. The empty
        // block still crosses links as zero-element messages.
        let p = plan(3, 1, OrderingFamily::Br, 0);
        let zero_sends = p.phases().iter().flat_map(messages).filter(|&e| e == 0).count();
        assert!(zero_sends > 0, "the empty block must appear in the plan");
        assert_eq!(total_volume(&p) % (2 * 3) as u64, 0);
    }
}
