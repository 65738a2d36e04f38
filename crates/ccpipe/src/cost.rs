//! Analytic cost of a pipelined exchange phase.
//!
//! The cost of stage `s` is determined by its link window: with packet size
//! `S = message_elems / Q`, a node issues one start-up per distinct link
//! (`nd · Ts`) and then transmits, the busiest link carrying `mm` packets
//! (`tx · S · Tw`, where `tx` depends on the port model — `mm` for all-port,
//! the window width for one-port, an LPT makespan for k-port). Deep
//! pipelining's kernel stages use the whole sequence, recovering the
//! paper's `e·Ts + α·S·Tw`.
//!
//! [`PhaseCostModel`] precomputes prefix/suffix window tables so that deep
//! costs are O(1) per candidate `Q` and shallow costs are O(K) — fast
//! enough to optimize `Q` exactly as ref \[9\] prescribes, over the enormous
//! block sizes of Figure 2 (up to `m = 2^32`).

use crate::cccube::CcCube;
use crate::machine::{Machine, PortModel};

/// Precomputed per-window statistics for one CC-cube link sequence under
/// one machine model.
#[derive(Debug, Clone)]
pub struct PhaseCostModel {
    /// Iterations (sequence length) `K`.
    pub k: usize,
    /// Distinct links `e`.
    pub e: usize,
    /// Elements exchanged per iteration.
    pub elems: f64,
    machine: Machine,
    link_seq: Vec<usize>,
    /// `prefix_nd[j]`: distinct links in `link_seq[..j+1]` (window len j+1).
    prefix_nd: Vec<usize>,
    /// `prefix_tx[j]`: transmission makespan (in packets) of that window.
    prefix_tx: Vec<usize>,
    suffix_nd: Vec<usize>,
    suffix_tx: Vec<usize>,
    /// Σ of nd/tx over prefix windows of length 1..K−1 (deep prologue).
    prefix_nd_sum: f64,
    prefix_tx_sum: f64,
    suffix_nd_sum: f64,
    suffix_tx_sum: f64,
}

/// Runs `f` on `len` zeroed counters, kept on the stack up to 64: room
/// for a link per dimension of any cube a `usize` node index can name, and
/// for a port per link.
fn with_counters<T>(len: usize, f: impl FnOnce(&mut [usize]) -> T) -> T {
    let mut stack = [0usize; 64];
    match stack.get_mut(..len) {
        Some(counters) => f(counters),
        None => f(&mut vec![0; len]),
    }
}

/// Transmission makespan in packets of a window given its histogram.
fn tx_of_hist(hist: &[usize], total: usize, max_mult: usize, ports: PortModel) -> usize {
    match ports {
        PortModel::AllPort => max_mult,
        PortModel::OnePort => total,
        PortModel::KPort(k) => {
            if k <= 1 {
                return total;
            }
            with_counters(hist.len(), |jobs| {
                let mut n = 0;
                for &m in hist.iter().filter(|&&m| m > 0) {
                    jobs[n] = m;
                    n += 1;
                }
                let jobs = &mut jobs[..n];
                jobs.sort_unstable_by(|a, b| b.cmp(a));
                // Ports past the `n`-th stay idle: each of the first `n`
                // jobs finds an idle port before them.
                with_counters(k.min(n), |loads| {
                    for &j in jobs.iter() {
                        // The first least-loaded port.
                        let port = (0..loads.len()).min_by_key(|&i| loads[i]).unwrap_or(0);
                        loads[port] += j;
                    }
                    loads.iter().copied().max().unwrap_or(0)
                })
            })
        }
    }
}

/// Directional scan producing per-prefix (nd, tx) tables.
fn scan<'a>(
    seq: impl ExactSizeIterator<Item = &'a usize>,
    e: usize,
    ports: PortModel,
) -> (Vec<usize>, Vec<usize>) {
    let mut nds = Vec::with_capacity(seq.len());
    let mut txs = Vec::with_capacity(seq.len());
    with_counters(e, |hist| {
        let mut nd = 0usize;
        let mut maxm = 0usize;
        for (i, &l) in seq.enumerate() {
            if hist[l] == 0 {
                nd += 1;
            }
            hist[l] += 1;
            maxm = maxm.max(hist[l]);
            nds.push(nd);
            txs.push(tx_of_hist(hist, i + 1, maxm, ports));
        }
    });
    (nds, txs)
}

impl PhaseCostModel {
    /// Builds the model for one exchange-phase CC-cube on one machine.
    ///
    /// # Panics
    /// Panics if `cc`'s link sequence is empty: an exchange phase has
    /// `K = 2^e − 1 ≥ 1` transitions, so an empty one is a caller bug.
    pub fn new(cc: &CcCube, machine: Machine) -> Self {
        Self::from_cc(cc.clone(), machine)
    }

    /// [`Self::new`] on a CC-cube the model takes over: its link sequence
    /// becomes the model's, uncopied.
    pub(crate) fn from_cc(cc: CcCube, machine: Machine) -> Self {
        let k = cc.k();
        let e = cc.link_seq.iter().map(|&l| l + 1).max().expect("empty link sequence");
        let (prefix_nd, prefix_tx) = scan(cc.link_seq.iter(), e, machine.ports);
        let (suffix_nd, suffix_tx) = scan(cc.link_seq.iter().rev(), e, machine.ports);
        let sum_head = |v: &[usize]| v[..k - 1].iter().map(|&x| x as f64).sum::<f64>();
        let (pn, pt, sn, st) = if k >= 2 {
            (sum_head(&prefix_nd), sum_head(&prefix_tx), sum_head(&suffix_nd), sum_head(&suffix_tx))
        } else {
            (0.0, 0.0, 0.0, 0.0)
        };
        PhaseCostModel {
            k,
            e,
            elems: cc.message_elems,
            machine,
            link_seq: cc.link_seq,
            prefix_nd,
            prefix_tx,
            suffix_nd,
            suffix_tx,
            prefix_nd_sum: pn,
            prefix_tx_sum: pt,
            suffix_nd_sum: sn,
            suffix_tx_sum: st,
        }
    }

    /// Cost of the original (unpipelined) CC-cube: `K` single messages.
    pub fn unpipelined_cost(&self) -> f64 {
        self.k as f64 * self.machine.single_message_cost(self.elems)
    }

    /// Total communication cost of the pipelined CC-cube with degree `q`.
    ///
    /// `q = 1` equals [`Self::unpipelined_cost`]. Works in shallow and deep
    /// mode; deep mode is O(1) thanks to the precomputed tables.
    pub fn cost(&self, q: usize) -> f64 {
        assert!(q >= 1);
        let k = self.k;
        let s_elems = self.elems / q as f64;
        let ts = self.machine.ts;
        let tw = self.machine.tw;
        if q >= k {
            // Deep: K−1 growing prefixes, Q−K+1 full windows, K−1 suffixes.
            let full_nd = self.prefix_nd[k - 1] as f64;
            let full_tx = self.prefix_tx[k - 1] as f64;
            let kernel = (q - k + 1) as f64 * (full_nd * ts + full_tx * s_elems * tw);
            let edges_ts = (self.prefix_nd_sum + self.suffix_nd_sum) * ts;
            let edges_tw = (self.prefix_tx_sum + self.suffix_tx_sum) * s_elems * tw;
            kernel + edges_ts + edges_tw
        } else {
            // Shallow: prefixes/suffixes of length 1..q−1 plus K−Q+1 sliding
            // windows of width q.
            let mut total = 0.0;
            for j in 0..q.saturating_sub(1) {
                total += self.prefix_nd[j] as f64 * ts + self.prefix_tx[j] as f64 * s_elems * tw;
                total += self.suffix_nd[j] as f64 * ts + self.suffix_tx[j] as f64 * s_elems * tw;
            }
            total += self.sliding_kernel_cost(q, s_elems);
            total
        }
    }

    /// Σ of stage costs over the K−Q+1 width-`q` windows (shallow kernel).
    /// The window's histograms slide on the stack: a candidate degree
    /// allocates nothing unless it exceeds 62.
    fn sliding_kernel_cost(&self, q: usize, s_elems: f64) -> f64 {
        let k = self.k;
        let seq = &self.link_seq;
        let ts = self.machine.ts;
        let tw = self.machine.tw;
        with_counters(self.e, |hist| match self.machine.ports {
            PortModel::AllPort | PortModel::OnePort => with_counters(q + 2, |mult_hist| {
                let one_port = matches!(self.machine.ports, PortModel::OnePort);
                let mut nd = 0usize;
                let mut maxm = 0usize;
                let mut total = 0.0;
                for i in 0..k {
                    // add seq[i]
                    let c = hist[seq[i]];
                    if c == 0 {
                        nd += 1;
                    } else {
                        mult_hist[c] -= 1;
                    }
                    hist[seq[i]] = c + 1;
                    mult_hist[c + 1] += 1;
                    maxm = maxm.max(c + 1);
                    if i + 1 >= q {
                        let tx = if one_port { q } else { maxm };
                        total += nd as f64 * ts + tx as f64 * s_elems * tw;
                        // remove seq[i + 1 - q]
                        let l = seq[i + 1 - q];
                        let c = hist[l];
                        mult_hist[c] -= 1;
                        hist[l] = c - 1;
                        if c == 1 {
                            nd -= 1;
                        } else {
                            mult_hist[c - 1] += 1;
                        }
                        while maxm > 0 && mult_hist[maxm] == 0 {
                            maxm -= 1;
                        }
                    }
                }
                total
            }),
            PortModel::KPort(_) => {
                // Histogram slides; the LPT makespan is recomputed per
                // window (k-port is only used in small ablation studies).
                let mut total = 0.0;
                for i in 0..k {
                    hist[seq[i]] += 1;
                    if i + 1 >= q {
                        let nd = hist.iter().filter(|&&c| c > 0).count();
                        let maxm = hist.iter().copied().max().unwrap_or(0);
                        let tx = tx_of_hist(hist, q, maxm, self.machine.ports);
                        total += nd as f64 * ts + tx as f64 * s_elems * tw;
                        hist[seq[i + 1 - q]] -= 1;
                    }
                }
                total
            }
        })
    }

    /// Closed-form candidate for the deep-mode optimum: cost(q) = a·q + b +
    /// c/q, minimized at `q* = sqrt(c/a)` when `c > 0` (else at the `q = K`
    /// boundary). Returns `None` when the phase is degenerate (`K = 1`).
    pub fn deep_optimum_candidate(&self) -> Option<f64> {
        if self.k < 2 {
            return None;
        }
        let k = self.k as f64;
        let ts = self.machine.ts;
        let tw = self.machine.tw;
        let full_nd = self.prefix_nd[self.k - 1] as f64;
        let full_tx = self.prefix_tx[self.k - 1] as f64;
        let a = full_nd * ts;
        let c = (self.prefix_tx_sum + self.suffix_tx_sum - (k - 1.0) * full_tx) * self.elems * tw;
        if a <= 0.0 || c <= 0.0 {
            None
        } else {
            Some((c / a).sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipelining::pipelined_schedule;
    use mph_core::OrderingFamily;

    /// Brute-force stage-by-stage evaluation for cross-checking.
    fn naive_cost(cc: &CcCube, q: usize, machine: Machine) -> f64 {
        let sched = pipelined_schedule(cc.k(), q);
        let s_elems = cc.message_elems / q as f64;
        let e = cc.link_seq.iter().map(|&l| l + 1).max().unwrap();
        sched
            .stages
            .iter()
            .map(|st| {
                let mut hist = vec![0usize; e];
                for &l in &cc.link_seq[st.lo..=st.hi] {
                    hist[l] += 1;
                }
                machine.stage_cost_from_mults(&hist, s_elems)
            })
            .sum()
    }

    #[test]
    fn fast_cost_matches_naive_all_port() {
        let machine = Machine::all_port(1000.0, 100.0);
        for family in [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4] {
            for e in [4usize, 5, 6] {
                let cc = CcCube::exchange_phase(family, e, 240.0);
                let model = PhaseCostModel::new(&cc, machine);
                for q in [1usize, 2, 3, 5, 7, 15, 16, 31, 40, 100] {
                    let fast = model.cost(q);
                    let slow = naive_cost(&cc, q, machine);
                    assert!(
                        (fast - slow).abs() <= 1e-6 * slow.max(1.0),
                        "{family} e={e} q={q}: fast={fast} naive={slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_cost_matches_naive_one_port_and_kport() {
        for machine in [
            Machine::one_port(500.0, 10.0),
            Machine { ts: 500.0, tw: 10.0, ports: PortModel::KPort(2) },
        ] {
            let cc = CcCube::exchange_phase(OrderingFamily::Degree4, 5, 64.0);
            let model = PhaseCostModel::new(&cc, machine);
            for q in [1usize, 2, 4, 8, 31, 33, 64] {
                let fast = model.cost(q);
                let slow = naive_cost(&cc, q, machine);
                assert!(
                    (fast - slow).abs() <= 1e-6 * slow.max(1.0),
                    "{machine:?} q={q}: fast={fast} naive={slow}"
                );
            }
        }
    }

    #[test]
    fn q1_equals_unpipelined() {
        let cc = CcCube::exchange_phase(OrderingFamily::Br, 6, 1024.0);
        let model = PhaseCostModel::new(&cc, Machine::paper_figure2());
        assert!((model.cost(1) - model.unpipelined_cost()).abs() < 1e-9);
    }

    #[test]
    fn deep_kernel_stage_cost_is_paper_formula() {
        // Paper §3.1: "the time to perform the communication operation in
        // every kernel stage, in an all-port hypercube is e·Ts + α·S·Tw".
        let machine = Machine::paper_figure2();
        for family in [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4] {
            for e in [4usize, 5, 6] {
                let cc = CcCube::exchange_phase(family, e, 6200.0);
                let q = 2 * cc.k(); // comfortably deep
                let s_elems = cc.message_elems / q as f64;
                let alpha = mph_core::alpha(&cc.link_seq, e) as f64;
                let want = e as f64 * machine.ts + alpha * s_elems * machine.tw;
                // Evaluate one genuine kernel stage of the explicit schedule.
                let sched = pipelined_schedule(cc.k(), q);
                let kernel_stage = sched
                    .stages
                    .iter()
                    .find(|st| st.phase == crate::pipelining::StagePhase::Kernel)
                    .unwrap();
                let mut hist = vec![0usize; e];
                for &l in &cc.link_seq[kernel_stage.lo..=kernel_stage.hi] {
                    hist[l] += 1;
                }
                let got = machine.stage_cost_from_mults(&hist, s_elems);
                assert!(
                    (got - want).abs() < 1e-9 * want,
                    "{family} e={e}: kernel stage {got} ≠ e·Ts+α·S·Tw = {want}"
                );
            }
        }
    }

    #[test]
    fn pipelining_helps_at_most_2x_for_br() {
        // Paper §2.4: BR's zero-heavy windows cap the gain at 2×.
        let machine = Machine::all_port(0.0, 100.0); // Ts = 0 isolates Tw
        for e in 4..=8 {
            let cc = CcCube::exchange_phase(OrderingFamily::Br, e, 1e6);
            let model = PhaseCostModel::new(&cc, machine);
            let base = model.unpipelined_cost();
            for q in [2usize, 4, 16, 64, 1024] {
                let c = model.cost(q);
                assert!(
                    c > base / 2.0 * 0.99,
                    "e={e} q={q}: BR gained more than 2× ({c} vs {base})"
                );
            }
        }
    }

    #[test]
    fn degree4_beats_br_under_shallow_pipelining() {
        let machine = Machine::all_port(0.0, 100.0);
        let e = 8;
        let br = PhaseCostModel::new(&CcCube::exchange_phase(OrderingFamily::Br, e, 1e6), machine);
        let d4 =
            PhaseCostModel::new(&CcCube::exchange_phase(OrderingFamily::Degree4, e, 1e6), machine);
        assert!(d4.cost(4) < 0.6 * br.cost(4));
    }

    #[test]
    fn one_port_gains_nothing_from_pipelining() {
        // Serializing everything, Σ width·S·Tw = K·elems·Tw regardless of Q,
        // while start-ups can only grow: one-port cost(q) ≥ cost(1) − ε.
        let machine = Machine::one_port(1000.0, 100.0);
        let cc = CcCube::exchange_phase(OrderingFamily::PermutedBr, 5, 1e4);
        let model = PhaseCostModel::new(&cc, machine);
        let base = model.cost(1);
        for q in [2usize, 8, 31, 64] {
            assert!(model.cost(q) >= base - 1e-6, "q={q}");
        }
    }

    #[test]
    fn deep_optimum_candidate_is_finite_and_positive() {
        let cc = CcCube::exchange_phase(OrderingFamily::PermutedBr, 8, 1e8);
        let model = PhaseCostModel::new(&cc, Machine::paper_figure2());
        let q = model.deep_optimum_candidate().expect("candidate exists");
        assert!(q.is_finite() && q > 0.0);
    }
}
