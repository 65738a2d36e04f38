//! Communication schedules: what every node sends at every stage.
//!
//! The simulator consumes a [`CommSchedule`], a list of stages. Within a
//! stage each node issues a set of messages to neighbors (one per
//! hypercube dimension at most — messages sharing a link have already been
//! combined, as the paper prescribes). One builder produces every stage
//! the Jacobi algorithms generate: a phase pipelined at degree `Q`
//! (windowed packet bundles), whose `Q = 1` case is one whole-block
//! message per transition.
//!
//! A schedule keeps every stage's sends in **one store**, so building one
//! costs a fixed number of allocations, never one per stage. A stage is a
//! range of that store: the paper's schedules are SPMD — every node sends
//! the same bundle — so an SPMD stage is one range its `2^d` nodes share,
//! checked once, not once per node; a per-node stage, which carries a
//! phase of an uneven partition, is one range per node, and every node's
//! own range is checked. Access is uniform through [`CommStage::iter`].

use mph_ccpipe::{pipelined_schedule, CcCube};
use std::cmp::Reverse;

/// One message: `elems` data elements across dimension `dim`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSend {
    pub dim: usize,
    pub elems: f64,
}

/// Where one stage lies in its schedule's store.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The stage's first bundle.
    first: usize,
    /// One bundle every node sends (SPMD), or one bundle per node.
    shared: bool,
}

/// A full schedule plus the cube dimension it runs on.
#[derive(Debug, Clone)]
pub struct CommSchedule {
    pub d: usize,
    /// Every stage's sends, bundle after bundle.
    sends: Vec<NodeSend>,
    /// Bundle `b` is `sends[bounds[b]..bounds[b + 1]]`.
    bounds: Vec<usize>,
    stages: Vec<Span>,
}

/// One synchronized stage of a [`CommSchedule`], read from its store.
///
/// In the SPMD algorithms of the paper all nodes send the same bundle
/// (stored once, shared); the simulator also accepts arbitrary per-node
/// lists.
#[derive(Debug, Clone, Copy)]
pub struct CommStage<'a> {
    nodes: usize,
    shared: bool,
    /// The stage's bundle bounds: one bundle if shared, else one per node.
    bounds: &'a [usize],
    sends: &'a [NodeSend],
}

impl<'a> CommStage<'a> {
    /// Each stored bundle once, with the number of nodes that send it: an
    /// SPMD stage's shared one for all its nodes, a per-node stage's every
    /// node's for that node.
    pub(crate) fn bundles(&self) -> impl Iterator<Item = (&'a [NodeSend], usize)> + 'a {
        let (store, copies) = (self.sends, if self.shared { self.nodes } else { 1 });
        self.bounds.windows(2).map(move |w| (&store[w[0]..w[1]], copies))
    }

    /// Node `n`'s outgoing messages, in issue order.
    fn bundle(&self, n: usize) -> &'a [NodeSend] {
        assert!(n < self.nodes, "node {n} out of range");
        let b = if self.shared { 0 } else { n };
        &self.sends[self.bounds[b]..self.bounds[b + 1]]
    }

    /// Iterates every node's bundle in node order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [NodeSend]> + 'a {
        let stage = *self;
        (0..self.nodes).map(move |n| stage.bundle(n))
    }

    /// Total messages in the stage: its range of the store, times the
    /// nodes sharing it.
    fn message_count(&self) -> usize {
        let stored = self.bounds[self.bounds.len() - 1] - self.bounds[0];
        if self.shared {
            stored * self.nodes
        } else {
            stored
        }
    }
}

impl PartialEq for CommStage<'_> {
    /// Stages compare by what each node sends, not by representation: an
    /// SPMD stage equals a per-node stage with identical bundles.
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.iter().eq(other.iter())
    }
}

impl CommSchedule {
    /// An empty schedule on the `d`-cube; [`Self::push_spmd`] and
    /// [`Self::push_per_node`] append its stages.
    pub fn new(d: usize) -> Self {
        Self::with_capacity(d, 0, 0, 0)
    }

    /// An empty schedule with room for `stages` stages, `bundles` bundles
    /// and `sends` sends.
    fn with_capacity(d: usize, stages: usize, bundles: usize, sends: usize) -> Self {
        let mut bounds = Vec::with_capacity(bundles + 1);
        bounds.push(0);
        CommSchedule {
            d,
            sends: Vec::with_capacity(sends),
            bounds,
            stages: Vec::with_capacity(stages),
        }
    }

    /// Appends a stage in which every one of the `2^d` nodes sends
    /// `bundle`: stored once, checked once.
    pub fn push_spmd(&mut self, bundle: impl IntoIterator<Item = NodeSend>) {
        self.stages.push(Span { first: self.bounds.len() - 1, shared: true });
        self.push_bundle(bundle);
    }

    /// Appends a stage in which node `n` sends the `n`-th of `bundles`;
    /// every node's bundle is checked.
    ///
    /// # Panics
    /// Panics unless there is one bundle per node, `2^d` in all.
    pub fn push_per_node<B: IntoIterator<Item = NodeSend>>(
        &mut self,
        bundles: impl IntoIterator<Item = B>,
    ) {
        let first = self.bounds.len() - 1;
        self.stages.push(Span { first, shared: false });
        for bundle in bundles {
            self.push_bundle(bundle);
        }
        assert_eq!(self.bounds.len() - 1 - first, 1 << self.d, "stage node count must be 2^d");
    }

    /// Appends one bundle to the store.
    fn push_bundle(&mut self, bundle: impl IntoIterator<Item = NodeSend>) {
        for s in bundle {
            assert!(s.dim < self.d, "dimension {} out of range", s.dim);
            assert!(s.elems >= 0.0, "negative message of {} elements", s.elems);
            self.sends.push(s);
        }
        self.bounds.push(self.sends.len());
    }

    /// The stages, in order.
    pub fn stages(&self) -> impl ExactSizeIterator<Item = CommStage<'_>> + '_ {
        let nodes = 1usize << self.d;
        self.stages.iter().map(move |&Span { first, shared }| {
            let count = if shared { 1 } else { nodes };
            CommStage {
                nodes,
                shared,
                bounds: &self.bounds[first..first + count + 1],
                sends: &self.sends,
            }
        })
    }

    pub fn message_count(&self) -> usize {
        self.stages().map(|s| s.message_count()).sum()
    }

    /// Per-dimension element volume — the prediction the runtime's traffic
    /// meter is checked against.
    pub fn volume_by_dim(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.d.max(1)];
        for st in self.stages() {
            for sends in st.iter() {
                for s in sends {
                    v[s.dim] += s.elems;
                }
            }
        }
        v
    }
}

impl PartialEq for CommSchedule {
    /// Schedules compare stage by stage by what each node sends.
    fn eq(&self, other: &Self) -> bool {
        self.d == other.d && self.stages().eq(other.stages())
    }
}

/// The pipelined exchange phase with degree `q` (`q = 1`: one whole-block
/// stage per transition): stage `s` sends, for every distinct link of the
/// window, one combined message of `multiplicity × (elems/q)` elements,
/// issued largest first (ties in the window's `a-b-c` notation order).
pub fn pipelined_phase_schedule(d: usize, cc: &CcCube, q: usize) -> CommSchedule {
    let unit = cc.message_elems / q as f64;
    let mut writer = StageWriter::new(d, [(cc.k(), q, true)]);
    writer.phase_stages(&cc.link_seq, q, true, unit, |_, _, _| 1);
    writer.schedule
}

/// Writes the stages of a schedule's phases into its store. The store and
/// the buffers every stage reuses are sized for all the phases up front,
/// so a schedule costs a fixed number of allocations plus one per phase
/// (its windows), never one per stage.
pub(crate) struct StageWriter {
    pub(crate) schedule: CommSchedule,
    /// Each writing node's units per link of a stage, largest first, one
    /// node after another.
    units: Vec<(usize, u64)>,
    /// Where each writing node's units end.
    ends: Vec<usize>,
}

impl StageWriter {
    /// A writer with room for every stage of `phases`, `(K, Q, shared)`
    /// each. A stage's window holds at most `min(K, Q)` links, of at most
    /// `d` dimensions.
    pub(crate) fn new(d: usize, phases: impl IntoIterator<Item = (usize, usize, bool)>) -> Self {
        let (mut stages, mut bundles, mut sends, mut units, mut writers) = (0, 0, 0, 0, 0);
        for (k, q, shared) in phases {
            let n = k + q - 1;
            let w = if shared { 1 } else { 1 << d };
            let window = k.min(q).min(d);
            stages += n;
            bundles += n * w;
            sends += n * w * window;
            units = units.max(w * window);
            writers = writers.max(w);
        }
        StageWriter {
            schedule: CommSchedule::with_capacity(d, stages, bundles, sends),
            units: Vec::with_capacity(units),
            ends: Vec::with_capacity(writers),
        }
    }

    /// The one stage builder of the paper's pipelined phase (§2.4): over
    /// `links` at degree `q`, stage `s` of [`pipelined_schedule`] carries
    /// packet `s − k` of every iteration `k` in its window, and node `n`
    /// puts the packets of a stage that share a link into one message. It
    /// issues them largest first, ties in first-appearance order: the order
    /// in which the closed form's LPT packs a stage onto `k` ports, so
    /// `NodeClock`'s earliest free port replays that packing. Packet `p` of
    /// iteration `k` at node `n` is `size(k, n, p)` units of `unit`
    /// elements; a message is its units' integer sum times `unit`, so a
    /// continuous phase's message is exactly `multiplicity × (elems/q)`.
    /// With `shared` every node sends node 0's sizes and each stage is one
    /// shared bundle. Each stage's windows are summed in the writer's one
    /// buffer, then appended to the store.
    pub(crate) fn phase_stages(
        &mut self,
        links: &[usize],
        q: usize,
        shared: bool,
        unit: f64,
        size: impl Fn(usize, usize, usize) -> u64,
    ) {
        let StageWriter { schedule, units, ends } = self;
        let writers = if shared { 1 } else { 1 << schedule.d };
        let message = |&(dim, u): &(usize, u64)| NodeSend { dim, elems: u as f64 * unit };
        for (s, st) in pipelined_schedule(links.len(), q).stages.iter().enumerate() {
            units.clear();
            ends.clear();
            for n in 0..writers {
                let start = units.len();
                for k in st.lo..=st.hi {
                    match units[start..].iter_mut().find(|(dim, _)| *dim == links[k]) {
                        Some((_, u)) => *u += size(k, n, s - k),
                        None => units.push((links[k], size(k, n, s - k))),
                    }
                }
                units[start..].sort_by_key(|&(_, u)| Reverse(u));
                ends.push(units.len());
            }
            if shared {
                schedule.push_spmd(units.iter().map(message));
            } else {
                let mut start = 0;
                schedule.push_per_node(ends.iter().map(|&end| {
                    let window = &units[start..end];
                    start = end;
                    window.iter().map(message)
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::OrderingFamily;

    #[test]
    fn unpipelined_schedule_shape() {
        let cc = CcCube::exchange_phase(OrderingFamily::Br, 3, 64.0);
        let s = pipelined_phase_schedule(3, &cc, 1);
        assert_eq!(s.stages().len(), 7);
        assert_eq!(s.message_count(), 7 * 8);
        assert_eq!(s.volume_by_dim().iter().sum::<f64>(), 7.0 * 8.0 * 64.0);
    }

    #[test]
    fn pipelined_schedule_conserves_volume() {
        let cc = CcCube::exchange_phase(OrderingFamily::Degree4, 4, 120.0);
        for q in [1usize, 2, 4, 8, 15, 30] {
            let s = pipelined_phase_schedule(4, &cc, q);
            // Every packet of every iteration crosses the network once:
            // volume = K · elems per node.
            let volume: f64 = s.volume_by_dim().iter().sum();
            assert!((volume - 15.0 * 120.0 * 16.0).abs() < 1e-6, "q={q}: {volume}");
        }
    }

    #[test]
    fn pipelined_stage_combines_repeated_links() {
        // BR window <0,1,0> must become messages 0:2·S, 1:1·S.
        let cc = CcCube::exchange_phase(OrderingFamily::Br, 3, 30.0);
        let s = pipelined_phase_schedule(3, &cc, 3);
        // Stage 2 (first kernel stage) has window 0,1,0.
        let bundle = s.stages().nth(2).unwrap().bundle(0);
        assert_eq!(bundle.len(), 2);
        assert_eq!(bundle[0], NodeSend { dim: 0, elems: 20.0 });
        assert_eq!(bundle[1], NodeSend { dim: 1, elems: 10.0 });
        // At Q = 4 stage 4 has window 1,0,2,0: the combined link 0 goes
        // first, the two single links keep their window order.
        let s =
            pipelined_phase_schedule(3, &CcCube::exchange_phase(OrderingFamily::Br, 3, 40.0), 4);
        let send = |dim, elems| NodeSend { dim, elems };
        assert_eq!(
            s.stages().nth(4).unwrap().bundle(0),
            [send(0, 20.0), send(1, 10.0), send(2, 10.0)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn schedule_rejects_bad_dimension() {
        // A shared bundle is checked once, and still checked; a per-node
        // stage checks every node's own list, the last one included. The
        // caught rejections' assertions carry messages of their own, so
        // only the last, uncaught one can meet `expected`.
        let rejection = |push: &dyn Fn(&mut CommSchedule)| {
            let mut schedule = CommSchedule::new(2);
            let push = std::panic::AssertUnwindSafe(|| push(&mut schedule));
            let err = std::panic::catch_unwind(push).err();
            err.and_then(|e| e.downcast_ref::<String>().cloned()).unwrap_or_default()
        };
        let ok = NodeSend { dim: 1, elems: 1.0 };
        let bad_dim = NodeSend { dim: 5, elems: 1.0 };
        let negative = NodeSend { dim: 0, elems: -1.0 };
        let last = |bad| {
            move |s: &mut CommSchedule| {
                s.push_per_node([vec![ok], vec![ok], vec![], vec![ok, bad]]);
            }
        };
        let valid = rejection(&last(ok)) + &rejection(&|s| s.push_spmd([ok, ok]));
        assert!(valid.is_empty(), "a valid stage was rejected");
        assert!(rejection(&last(bad_dim)).contains("out of range"), "the last node went unchecked");
        assert!(rejection(&last(negative)).contains("negative"), "a negative size got through");
        let shared = rejection(&|s| s.push_spmd([negative]));
        assert!(shared.contains("negative"), "a negative shared size got through");
        let short = rejection(&|s| s.push_per_node([[ok], [ok], [ok]]));
        assert!(short.contains("2^d"), "a stage short of a node got through");
        CommSchedule::new(2).push_spmd([ok, bad_dim]);
    }

    #[test]
    fn spmd_stage_stores_the_bundle_once() {
        // The 2^d nodes share one range of the store; equality still sees
        // through the representation.
        let bundle = vec![NodeSend { dim: 0, elems: 3.0 }, NodeSend { dim: 1, elems: 4.0 }];
        let mut spmd = CommSchedule::new(3);
        spmd.push_spmd(bundle.iter().copied());
        assert_eq!(spmd.sends.len(), 2, "the bundle is stored once");
        let stage = spmd.stages().next().unwrap();
        assert_eq!((stage.nodes, stage.shared), (8, true));
        assert_eq!(stage.bundles().collect::<Vec<_>>(), [(&bundle[..], 8)]);
        for n in 0..8 {
            assert_eq!(stage.bundle(n), &bundle[..]);
        }
        assert_eq!(spmd.message_count(), 16);
        let mut explicit = CommSchedule::new(3);
        explicit.push_per_node(vec![bundle; 8]);
        assert_eq!(explicit.sends.len(), 16);
        assert_eq!(spmd, explicit, "representation must not affect equality");
    }

    #[test]
    fn a_stage_is_a_range_of_the_one_store() {
        // Stages of both forms lie back to back in one store: a stage's
        // bundles are consecutive ranges of it.
        let send = |dim, elems| NodeSend { dim, elems };
        let mut s = CommSchedule::new(1);
        s.push_spmd([send(0, 1.0)]);
        s.push_per_node([vec![send(0, 2.0)], vec![]]);
        s.push_spmd([]);
        s.push_per_node([vec![], vec![send(0, 3.0)]]);
        assert_eq!(s.sends, [send(0, 1.0), send(0, 2.0), send(0, 3.0)]);
        assert_eq!(s.bounds, [0, 1, 2, 2, 2, 2, 3]);
        let stages: Vec<Vec<&[NodeSend]>> = s.stages().map(|st| st.iter().collect()).collect();
        let want: [[&[NodeSend]; 2]; 4] = [
            [&[send(0, 1.0)], &[send(0, 1.0)]],
            [&[send(0, 2.0)], &[]],
            [&[], &[]],
            [&[], &[send(0, 3.0)]],
        ];
        assert_eq!(stages, want);
        assert_eq!(s.message_count(), 2 + 1 + 1, "two nodes share the first stage's one send");
    }

    #[test]
    fn volume_by_dim_accumulates_across_stages() {
        let mut s = CommSchedule::new(2);
        s.push_spmd([NodeSend { dim: 0, elems: 5.0 }]);
        s.push_per_node([
            vec![NodeSend { dim: 1, elems: 2.0 }],
            vec![],
            vec![NodeSend { dim: 0, elems: 1.0 }],
            vec![],
        ]);
        assert_eq!(s.volume_by_dim(), vec![4.0 * 5.0 + 1.0, 2.0]);
    }
}
