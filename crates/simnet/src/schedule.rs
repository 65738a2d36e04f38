//! Communication schedules: what every node sends at every stage.
//!
//! The simulator consumes a list of [`CommStage`]s. Within a stage each
//! node issues a set of messages to neighbors (one per hypercube dimension
//! at most — messages sharing a link have already been combined, as the
//! paper prescribes). One builder produces every stage the Jacobi
//! algorithms generate: a phase pipelined at degree `Q` (windowed packet
//! bundles), whose `Q = 1` case is one whole-block message per transition.
//!
//! The paper's schedules are SPMD — every node sends the same bundle — so
//! a stage stores the bundle **once** behind an [`Arc`] rather than
//! cloning it `2^d` times, and [`CommSchedule::new`] checks it once, not
//! once per node; per-node stages carry the phases of uneven partitions,
//! and every node's own list is checked. Access is uniform through
//! [`CommStage::iter`].

use mph_ccpipe::{pipelined_schedule, CcCube};
use std::sync::Arc;

/// One message: `elems` data elements across dimension `dim`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSend {
    pub dim: usize,
    pub elems: f64,
}

/// One synchronized communication stage.
///
/// In the SPMD algorithms of the paper all nodes send the same bundle
/// (stored once, shared); the simulator also accepts arbitrary per-node
/// lists.
#[derive(Debug, Clone)]
pub enum CommStage {
    /// Every one of `nodes` nodes sends the same shared bundle.
    Spmd { nodes: usize, bundle: Arc<[NodeSend]> },
    /// Arbitrary per-node bundles (`sends[n]` is node `n`'s list).
    PerNode { sends: Vec<Vec<NodeSend>> },
}

impl CommStage {
    /// An SPMD stage: every one of the `2^d` nodes sends `bundle` —
    /// stored once, not cloned per node, and collected straight into its
    /// [`Arc`] (one allocation for a sized iterator).
    pub(crate) fn spmd(d: usize, bundle: impl IntoIterator<Item = NodeSend>) -> Self {
        CommStage::Spmd { nodes: 1 << d, bundle: bundle.into_iter().collect() }
    }

    /// Number of nodes.
    fn nodes(&self) -> usize {
        match self {
            CommStage::Spmd { nodes, .. } => *nodes,
            CommStage::PerNode { sends } => sends.len(),
        }
    }

    /// Node `n`'s outgoing messages, in issue order.
    fn bundle(&self, n: usize) -> &[NodeSend] {
        match self {
            CommStage::Spmd { nodes, bundle } => {
                assert!(n < *nodes, "node {n} out of range");
                bundle
            }
            CommStage::PerNode { sends } => &sends[n],
        }
    }

    /// Iterates every node's bundle in node order.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeSend]> {
        (0..self.nodes()).map(move |n| self.bundle(n))
    }

    /// Each stored bundle once: an SPMD stage's shared one, a per-node
    /// stage's every node's.
    fn bundles(&self) -> impl Iterator<Item = &[NodeSend]> {
        let (shared, own) = match self {
            CommStage::Spmd { bundle, .. } => (Some(&bundle[..]), &[][..]),
            CommStage::PerNode { sends } => (None, &sends[..]),
        };
        shared.into_iter().chain(own.iter().map(Vec::as_slice))
    }

    /// Total messages in the stage.
    fn message_count(&self) -> usize {
        match self {
            CommStage::Spmd { nodes, bundle } => nodes * bundle.len(),
            CommStage::PerNode { sends } => sends.iter().map(|s| s.len()).sum(),
        }
    }
}

impl PartialEq for CommStage {
    /// Stages compare by what each node sends, not by representation: an
    /// SPMD stage equals a per-node stage with identical bundles.
    fn eq(&self, other: &Self) -> bool {
        self.nodes() == other.nodes() && self.iter().eq(other.iter())
    }
}

/// A full schedule plus the cube dimension it runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct CommSchedule {
    pub d: usize,
    pub stages: Vec<CommStage>,
}

impl CommSchedule {
    pub fn new(d: usize, stages: Vec<CommStage>) -> Self {
        for st in &stages {
            assert_eq!(st.nodes(), 1 << d, "stage node count must be 2^d");
            for s in st.bundles().flatten() {
                assert!(s.dim < d, "dimension {} out of range", s.dim);
                assert!(s.elems >= 0.0, "negative message of {} elements", s.elems);
            }
        }
        CommSchedule { d, stages }
    }

    pub fn message_count(&self) -> usize {
        self.stages.iter().map(|s| s.message_count()).sum()
    }

    /// Per-dimension element volume — the prediction the runtime's traffic
    /// meter is checked against.
    pub fn volume_by_dim(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.d.max(1)];
        for st in &self.stages {
            for sends in st.iter() {
                for s in sends {
                    v[s.dim] += s.elems;
                }
            }
        }
        v
    }
}

/// The pipelined exchange phase with degree `q` (`q = 1`: one whole-block
/// stage per transition): stage `s` sends, for every distinct link of the
/// window, one combined message of `multiplicity × (elems/q)` elements,
/// issued largest first (ties in the window's `a-b-c` notation order).
pub fn pipelined_phase_schedule(d: usize, cc: &CcCube, q: usize) -> CommSchedule {
    let unit = cc.message_elems / q as f64;
    CommSchedule::new(d, phase_stages(d, &cc.link_seq, q, true, unit, |_, _, _| 1).collect())
}

/// The one stage builder of the paper's pipelined phase (§2.4): over
/// `links` at degree `q`, stage `s` of [`pipelined_schedule`] carries
/// packet `s − k` of every iteration `k` in its window, and node `n` puts
/// the packets of a stage that share a link into one message. It issues
/// them largest first, ties in first-appearance order: the order in which
/// the closed form's LPT packs a stage onto `k` ports, so `NodeClock`'s
/// earliest free port replays that packing. Packet `p` of iteration `k`
/// at node `n` is `size(k, n, p)` units of `unit` elements; a message is
/// its units' integer sum times `unit`, so a continuous phase's message is
/// exactly `multiplicity × (elems/q)`. With `spmd` every node sends node
/// 0's sizes and each stage is one shared bundle: one allocation per
/// stage, the window's per-link units summed in one buffer every stage
/// reuses.
pub(crate) fn phase_stages<'a>(
    d: usize,
    links: &'a [usize],
    q: usize,
    spmd: bool,
    unit: f64,
    size: impl Fn(usize, usize, usize) -> u64 + 'a,
) -> impl Iterator<Item = CommStage> + 'a {
    let stages = pipelined_schedule(links.len(), q).stages.into_iter().enumerate();
    let mut units: Vec<(usize, u64)> = Vec::new();
    stages.map(move |(s, st)| {
        // Node `n`'s units per link of the stage, largest first.
        let window = |units: &mut Vec<(usize, u64)>, n| {
            units.clear();
            for k in st.lo..=st.hi {
                match units.iter_mut().find(|(dim, _)| *dim == links[k]) {
                    Some((_, u)) => *u += size(k, n, s - k),
                    None => units.push((links[k], size(k, n, s - k))),
                }
            }
            units.sort_by_key(|&(_, u)| std::cmp::Reverse(u));
        };
        let message = |&(dim, u): &(usize, u64)| NodeSend { dim, elems: u as f64 * unit };
        if spmd {
            window(&mut units, 0);
            CommStage::spmd(d, units.iter().map(message))
        } else {
            let node = |n| {
                window(&mut units, n);
                units.iter().map(message).collect()
            };
            CommStage::PerNode { sends: (0..1 << d).map(node).collect() }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::OrderingFamily;

    #[test]
    fn unpipelined_schedule_shape() {
        let cc = CcCube::exchange_phase(OrderingFamily::Br, 3, 64.0);
        let s = pipelined_phase_schedule(3, &cc, 1);
        assert_eq!(s.stages.len(), 7);
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
        let bundle = s.stages[2].bundle(0);
        assert_eq!(bundle.len(), 2);
        assert_eq!(bundle[0], NodeSend { dim: 0, elems: 20.0 });
        assert_eq!(bundle[1], NodeSend { dim: 1, elems: 10.0 });
        // At Q = 4 stage 4 has window 1,0,2,0: the combined link 0 goes
        // first, the two single links keep their window order.
        let s =
            pipelined_phase_schedule(3, &CcCube::exchange_phase(OrderingFamily::Br, 3, 40.0), 4);
        let send = |dim, elems| NodeSend { dim, elems };
        assert_eq!(s.stages[4].bundle(0), [send(0, 20.0), send(1, 10.0), send(2, 10.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn schedule_rejects_bad_dimension() {
        // A shared bundle is checked once, and still checked; a per-node
        // stage checks every node's own list, the last one included. The
        // caught rejections' assertions carry messages of their own, so
        // only the last, uncaught one can meet `expected`.
        let rejection = |stage: CommStage| {
            let err = std::panic::catch_unwind(|| CommSchedule::new(2, vec![stage])).err();
            err.and_then(|e| e.downcast_ref::<String>().cloned()).unwrap_or_default()
        };
        let ok = NodeSend { dim: 1, elems: 1.0 };
        let bad_dim = NodeSend { dim: 5, elems: 1.0 };
        let negative = NodeSend { dim: 0, elems: -1.0 };
        let last =
            |bad| CommStage::PerNode { sends: vec![vec![ok], vec![ok], vec![], vec![ok, bad]] };
        let valid = rejection(last(ok)) + &rejection(CommStage::spmd(2, vec![ok, ok]));
        assert!(valid.is_empty(), "a valid stage was rejected");
        assert!(rejection(last(bad_dim)).contains("out of range"), "the last node went unchecked");
        assert!(rejection(last(negative)).contains("negative"), "a negative size got through");
        let shared = rejection(CommStage::spmd(2, vec![negative]));
        assert!(shared.contains("negative"), "a negative shared size got through");
        let _ = CommSchedule::new(2, vec![CommStage::spmd(2, vec![ok, bad_dim])]);
    }

    #[test]
    fn spmd_stage_stores_the_bundle_once() {
        // The 2^d nodes share one allocation; equality still sees through
        // the representation.
        let bundle = vec![NodeSend { dim: 0, elems: 3.0 }, NodeSend { dim: 1, elems: 4.0 }];
        let spmd = CommStage::spmd(3, bundle.clone());
        match &spmd {
            CommStage::Spmd { nodes, bundle: shared } => {
                assert_eq!(*nodes, 8);
                assert_eq!(Arc::strong_count(shared), 1);
            }
            CommStage::PerNode { .. } => panic!("spmd() must build the shared representation"),
        }
        for n in 0..8 {
            assert_eq!(spmd.bundle(n), &bundle[..]);
        }
        assert_eq!(spmd.message_count(), 16);
        let explicit = CommStage::PerNode { sends: vec![bundle; 8] };
        assert_eq!(spmd, explicit, "representation must not affect equality");
    }

    #[test]
    fn volume_by_dim_accumulates_across_stages() {
        let s = CommSchedule::new(
            2,
            vec![
                CommStage::spmd(2, vec![NodeSend { dim: 0, elems: 5.0 }]),
                CommStage::PerNode {
                    sends: vec![
                        vec![NodeSend { dim: 1, elems: 2.0 }],
                        vec![],
                        vec![NodeSend { dim: 0, elems: 1.0 }],
                        vec![],
                    ],
                },
            ],
        );
        assert_eq!(s.volume_by_dim(), vec![4.0 * 5.0 + 1.0, 2.0]);
    }
}
