//! The pipelined CC-cube: stage schedules (paper §2.4).
//!
//! Communication pipelining splits each iteration's computation into `Q`
//! *packets*. Packet `q` of iteration `k` is computed — and its result
//! communicated through `link_seq[k]` — at stage `s = k + q`. The stages
//! therefore run from `s = 0` to `s = K + Q − 2`, and the links active at
//! stage `s` form the window `link_seq[max(0, s−Q+1) ..= min(s, K−1)]`:
//!
//! * stages `s < Q − 1` form the **prologue** (growing windows — the
//!   paper's example: links `0`, then `0-1`, …);
//! * stages `Q − 1 ≤ s ≤ K − 1` form the **kernel** (full-size windows;
//!   `Q`-element windows in shallow mode, all-`K` windows in deep mode);
//! * stages `s > K − 1` form the **epilogue** (shrinking windows).
//!
//! With `Q ≤ K` this is *shallow pipelining* (kernel windows slide over the
//! sequence); with `Q > K` it is *deep pipelining* (every kernel stage uses
//! the whole sequence, so its cost is the paper's `e·Ts + α·S·Tw`).
//!
//! The paper counts the kernel as `K − Q` stages where this formulation has
//! `K − Q + 1`; its own K=7/Q=3 example lists windows consistent with the
//! sliding-window count (pinned by `shallow_example_matches_paper`).
//! [`pipelined_schedule`] is the one writing of the windows; the
//! simulator's stage builder reads them.

use crate::cccube::CcCube;

/// Which part of the pipeline a stage belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagePhase {
    Prologue,
    Kernel,
    Epilogue,
}

/// One stage of the pipelined CC-cube.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Index range `[lo, hi]` (inclusive) into the link sequence: the
    /// iterations whose packets are communicated at this stage.
    pub lo: usize,
    pub hi: usize,
    pub phase: StagePhase,
}

/// The full stage schedule of a pipelined CC-cube with degree `Q`.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinedSchedule {
    pub k: usize,
    pub q: usize,
    pub stages: Vec<Stage>,
}

/// Operating mode as the paper names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// No pipelining at all (`Q = 1` degenerates to the original CC-cube).
    Unpipelined,
    /// `1 < Q ≤ K`.
    Shallow,
    /// `Q > K`.
    Deep,
}

/// Mode implied by `(K, Q)`.
pub fn mode_of(k: usize, q: usize) -> PipelineMode {
    if q <= 1 {
        PipelineMode::Unpipelined
    } else if q <= k {
        PipelineMode::Shallow
    } else {
        PipelineMode::Deep
    }
}

/// Builds the stage schedule of a `k`-iteration CC-cube for pipelining
/// degree `q ≥ 1`.
pub fn pipelined_schedule(k: usize, q: usize) -> PipelinedSchedule {
    assert!(q >= 1, "pipelining degree must be ≥ 1");
    assert!(k >= 1);
    let n_stages = k + q - 1;
    let mut stages = Vec::with_capacity(n_stages);
    // Windows grow during the first min(Q,K)−1 stages, stay at full size
    // min(Q,K) for the kernel, and shrink during the last min(Q,K)−1. In
    // shallow mode the kernel is K−Q+1 sliding windows; in deep mode it is
    // Q−K+1 copies of the whole sequence (paper §2.4).
    let grow = q.min(k) - 1;
    for s in 0..n_stages {
        let lo = s.saturating_sub(q - 1);
        let hi = s.min(k - 1);
        let phase = if s < grow {
            StagePhase::Prologue
        } else if s < n_stages - grow {
            StagePhase::Kernel
        } else {
            StagePhase::Epilogue
        };
        stages.push(Stage { lo, hi, phase });
    }
    PipelinedSchedule { k, q, stages }
}

impl PipelinedSchedule {
    /// The links used at stage `s` (with repetitions), resolved against the
    /// CC-cube's sequence.
    fn stage_links<'a>(&self, cc: &'a CcCube, s: usize) -> &'a [usize] {
        let st = &self.stages[s];
        &cc.link_seq[st.lo..=st.hi]
    }

    /// Renders the paper's `a-b-c` notation for a stage (ex: `0-1-0`).
    pub fn stage_notation(&self, cc: &CcCube, s: usize) -> String {
        self.stage_links(cc, s).iter().map(|l| l.to_string()).collect::<Vec<_>>().join("-")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> CcCube {
        CcCube { link_seq: vec![0, 1, 0, 2, 0, 1, 0], message_elems: 30.0 }
    }

    #[test]
    fn shallow_example_matches_paper() {
        // §2.4: K=7, Q=3 → prologue "0", "0-1"; kernel windows
        // "0-1-0", "1-0-2", "0-2-0", "2-0-1", "0-1-0"; epilogue "1-0", "0".
        let cc = paper_example();
        let sched = pipelined_schedule(cc.k(), 3);
        assert_eq!(sched.stages.len(), 7 + 3 - 1);
        let notes: Vec<String> =
            (0..sched.stages.len()).map(|s| sched.stage_notation(&cc, s)).collect();
        assert_eq!(
            notes,
            vec!["0", "0-1", "0-1-0", "1-0-2", "0-2-0", "2-0-1", "0-1-0", "1-0", "0"]
        );
        let phases: Vec<StagePhase> = sched.stages.iter().map(|st| st.phase).collect();
        use StagePhase::*;
        assert_eq!(
            phases,
            vec![Prologue, Prologue, Kernel, Kernel, Kernel, Kernel, Kernel, Epilogue, Epilogue]
        );
    }

    #[test]
    fn deep_example_matches_paper() {
        // §2.4: K=3 (links 0,1,0), Q=100 → prologue "0", "0-1";
        // kernel 98 stages of "0-1-0"; epilogue "1-0", "0".
        let cc = CcCube { link_seq: vec![0, 1, 0], message_elems: 1.0 };
        let sched = pipelined_schedule(cc.k(), 100);
        assert_eq!(sched.stages.len(), 102);
        assert_eq!(sched.stage_notation(&cc, 0), "0");
        assert_eq!(sched.stage_notation(&cc, 1), "0-1");
        for s in 2..=99 {
            assert_eq!(sched.stage_notation(&cc, s), "0-1-0", "stage {s}");
            assert_eq!(sched.stages[s].phase, StagePhase::Kernel);
        }
        assert_eq!(sched.stage_notation(&cc, 100), "1-0");
        assert_eq!(sched.stage_notation(&cc, 101), "0");
        // Kernel stage count: Q − K + 1 = 98.
        let kernels = sched.stages.iter().filter(|st| st.phase == StagePhase::Kernel).count();
        assert_eq!(kernels, 98);
    }

    #[test]
    fn q1_is_the_original_cccube() {
        let cc = paper_example();
        let sched = pipelined_schedule(cc.k(), 1);
        assert_eq!(sched.stages.len(), 7);
        for (s, st) in sched.stages.iter().enumerate() {
            assert_eq!((st.lo, st.hi), (s, s));
            assert_eq!(sched.stage_links(&cc, s), &cc.link_seq[s..=s]);
        }
    }

    #[test]
    fn every_packet_is_sent_exactly_once() {
        // Sum of window widths = K·Q (each (iteration, packet) pair once).
        let cc = paper_example();
        for q in 1..=20 {
            let sched = pipelined_schedule(cc.k(), q);
            let total: usize = sched.stages.iter().map(|st| st.hi - st.lo + 1).sum();
            assert_eq!(total, cc.k() * q, "q={q}");
        }
    }

    #[test]
    fn mode_classification() {
        assert_eq!(mode_of(7, 1), PipelineMode::Unpipelined);
        assert_eq!(mode_of(7, 2), PipelineMode::Shallow);
        assert_eq!(mode_of(7, 7), PipelineMode::Shallow);
        assert_eq!(mode_of(7, 8), PipelineMode::Deep);
    }
}
