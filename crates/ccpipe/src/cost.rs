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
//! [`PhaseCostModel`] prices a phase two ways, both exact:
//!
//! * **one degree**, [`PhaseCostModel::cost`]: a deep degree (`Q ≥ K`) is
//!   O(1) from six whole-sequence statistics, taken the first time a deep
//!   degree is priced; a shallow one slides a width-`Q` window over the
//!   sequence, O(K) — what a caller pricing a given degree, or the search
//!   pricing a grid degree above 64, runs;
//! * **every small degree at once**, `shallow_prices`, the walk the degree
//!   search ([`crate::optimize_q`]) reads: from each window end it grows
//!   the window back over the widths `1..=W` (`W = min(cap, 64, K − 1)`),
//!   keeping the distinct-link count and the busiest-link multiplicity as
//!   it goes, so one end yields every width's window statistics in `W`
//!   steps — where pricing each width on its own slides over all `K` ends
//!   once per width. The walk writes no histogram: a link's crossings of
//!   the window are the difference of two running counters.
//!
//! Both keep one summation order, so they agree to the bit. A shallow price
//! is a running total that takes, for each length `1..Q`, the prefix
//! window's term and then the suffix window's; the kernel's width-`Q`
//! windows are summed on their own from zero in window-start order; the
//! price is `total + kernel`. Every term is `nd·Ts + tx·S·Tw` of integer
//! window statistics, so which algorithm found the statistics cannot move
//! a bit. That is what lets ref \[9\]'s procedure price every degree up to
//! 64 exactly, over the enormous block sizes of Figure 2 (up to
//! `m = 2^32`).

use crate::cccube::CcCube;
use crate::machine::{Machine, PortModel};
use std::sync::OnceLock;

/// The widths one walk prices: every degree the search tries one by one.
pub(crate) const SMALL_DEGREES: usize = 64;

/// Per-phase cost model for one CC-cube link sequence under one machine
/// model.
#[derive(Debug, Clone)]
pub struct PhaseCostModel<'a> {
    /// Iterations (sequence length) `K`.
    pub k: usize,
    /// Distinct links `e`.
    pub e: usize,
    /// Elements exchanged per iteration.
    pub elems: f64,
    machine: Machine,
    link_seq: &'a [usize],
    /// What deep pipelining reads of the whole sequence, taken the first
    /// time a degree `≥ K` is priced.
    deep: OnceLock<DeepStats>,
}

/// The whole sequence as deep pipelining sees it: the full window's
/// statistics, and Σ of nd/tx over the prefix and the suffix windows of
/// length 1..K−1 (the deep prologue and epilogue).
#[derive(Debug, Clone, Copy)]
struct DeepStats {
    full_nd: usize,
    full_tx: usize,
    prefix_nd_sum: f64,
    prefix_tx_sum: f64,
    suffix_nd_sum: f64,
    suffix_tx_sum: f64,
}

/// The prices of the shallow degrees `1..=len`, one walk's yield.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShallowPrices {
    prices: [f64; SMALL_DEGREES],
    len: usize,
}

impl ShallowPrices {
    /// The price of degree `q`, if the walk priced it.
    pub(crate) fn get(&self, q: usize) -> Option<f64> {
        q.checked_sub(1).and_then(|i| self.prices[..self.len].get(i)).copied()
    }
}

/// Runs `f` on `len` zeroed counters, kept on the stack up to 64: room
/// for a link per dimension of any cube a `usize` node index can name, and
/// for a port per link.
fn with_counters<C: Copy + Default, T>(len: usize, f: impl FnOnce(&mut [C]) -> T) -> T {
    let mut stack = [C::default(); 64];
    match stack.get_mut(..len) {
        Some(counters) => f(counters),
        None => f(&mut vec![C::default(); len]),
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

/// One stage's cost from its window statistics, `nd` links and a makespan
/// of `tx` packets: `nd·Ts + tx·S·Tw`, the one term every price sums.
fn stage_term(nd: f64, tx: f64, s_elems: f64, machine: &Machine) -> f64 {
    nd * machine.ts + tx * s_elems * machine.tw
}

/// A window grown one transition at a time over zeroed counters: its
/// link histogram, width, distinct links and busiest-link multiplicity.
struct Window<'h> {
    hist: &'h mut [usize],
    width: usize,
    nd: usize,
    max_mult: usize,
}

impl<'h> Window<'h> {
    fn new(hist: &'h mut [usize]) -> Self {
        Window { hist, width: 0, nd: 0, max_mult: 0 }
    }

    /// Adds one transition through link `l`.
    fn push(&mut self, l: usize) {
        let c = self.hist[l] + 1;
        self.hist[l] = c;
        self.width += 1;
        self.nd += usize::from(c == 1);
        self.max_mult = self.max_mult.max(c);
    }

    /// The window's transmission makespan in packets.
    fn tx(&self, ports: PortModel) -> usize {
        tx_of_hist(self.hist, self.width, self.max_mult, ports)
    }
}

impl<'a> PhaseCostModel<'a> {
    /// Builds the model for one exchange-phase CC-cube on one machine,
    /// borrowing its link sequence.
    ///
    /// # Panics
    /// Panics if `cc`'s link sequence is empty: an exchange phase has
    /// `K = 2^e − 1 ≥ 1` transitions, so an empty one is a caller bug.
    pub fn new(cc: &'a CcCube, machine: Machine) -> Self {
        Self::of_links(&cc.link_seq, cc.message_elems, machine)
    }

    /// [`Self::new`] on the CC-cube whose links are `link_seq` and whose
    /// messages carry `elems` elements.
    pub(crate) fn of_links(link_seq: &'a [usize], elems: f64, machine: Machine) -> Self {
        let e = link_seq.iter().map(|&l| l + 1).max().expect("empty link sequence");
        PhaseCostModel { k: link_seq.len(), e, elems, machine, link_seq, deep: OnceLock::new() }
    }

    /// Cost of the original (unpipelined) CC-cube: `K` single messages.
    pub fn unpipelined_cost(&self) -> f64 {
        self.k as f64 * self.machine.single_message_cost(self.elems)
    }

    /// The deep-mode statistics: two scans of the sequence, the first time
    /// they are asked for.
    fn deep(&self) -> &DeepStats {
        self.deep.get_or_init(|| {
            let k = self.k;
            let ports = self.machine.ports;
            // Σ nd and Σ tx over the first K−1 windows a scan grows, and
            // the last (whole) window's nd and tx.
            let scan = |seq: &mut dyn Iterator<Item = &usize>| {
                with_counters(self.e, |hist| {
                    let mut window = Window::new(hist);
                    let (mut nd_sum, mut tx_sum) = (0.0, 0.0);
                    for &l in seq.take(k - 1) {
                        window.push(l);
                        nd_sum += window.nd as f64;
                        tx_sum += window.tx(ports) as f64;
                    }
                    window.push(*seq.next().expect("K ≥ 1 transitions"));
                    (nd_sum, tx_sum, window.nd, window.tx(ports))
                })
            };
            let (prefix_nd_sum, prefix_tx_sum, full_nd, full_tx) = scan(&mut self.link_seq.iter());
            let (suffix_nd_sum, suffix_tx_sum, ..) = scan(&mut self.link_seq.iter().rev());
            DeepStats {
                full_nd,
                full_tx,
                prefix_nd_sum,
                prefix_tx_sum,
                suffix_nd_sum,
                suffix_tx_sum,
            }
        })
    }

    /// Total communication cost of the pipelined CC-cube with degree `q`.
    ///
    /// `q = 1` equals [`Self::unpipelined_cost`]. Works in shallow and deep
    /// mode; deep mode is O(1) once the first deep degree is priced, shallow
    /// mode O(K).
    pub fn cost(&self, q: usize) -> f64 {
        assert!(q >= 1);
        let k = self.k;
        let s_elems = self.elems / q as f64;
        let ts = self.machine.ts;
        let tw = self.machine.tw;
        if q >= k {
            // Deep: K−1 growing prefixes, Q−K+1 full windows, K−1 suffixes.
            let deep = self.deep();
            let full_nd = deep.full_nd as f64;
            let full_tx = deep.full_tx as f64;
            let kernel = (q - k + 1) as f64 * (full_nd * ts + full_tx * s_elems * tw);
            let edges_ts = (deep.prefix_nd_sum + deep.suffix_nd_sum) * ts;
            let edges_tw = (deep.prefix_tx_sum + deep.suffix_tx_sum) * s_elems * tw;
            kernel + edges_ts + edges_tw
        } else {
            // Shallow: prefixes/suffixes of length 1..q−1 plus K−Q+1 sliding
            // windows of width q.
            let (seq, ports) = (self.link_seq, self.machine.ports);
            let total = with_counters(self.e, |pre| {
                with_counters(self.e, |suf| {
                    let (mut pre, mut suf) = (Window::new(pre), Window::new(suf));
                    let mut total = 0.0;
                    for j in 0..q - 1 {
                        pre.push(seq[j]);
                        suf.push(seq[k - 1 - j]);
                        for w in [&pre, &suf] {
                            let (nd, tx) = (w.nd as f64, w.tx(ports) as f64);
                            total += stage_term(nd, tx, s_elems, &self.machine);
                        }
                    }
                    total
                })
            });
            total + self.sliding_kernel_cost(q, s_elems)
        }
    }

    /// The price of every shallow degree `q ≤ min(cap, 64, K − 1)`, each
    /// bitwise [`Self::cost`]`(q)`, in one walk of the link sequence: from
    /// each window end the window grows back over the widths, and width `q`
    /// adds its window's term to its own kernel sum. The walk's first ends
    /// give the prefix windows, its last end the suffix windows. Runs on
    /// the stack: nothing is allocated.
    pub(crate) fn shallow_prices(&self, cap: usize) -> ShallowPrices {
        let ports = self.machine.ports;
        match ports {
            PortModel::AllPort => self.walk(cap, |_, _, _, max_mult| max_mult),
            PortModel::OnePort => self.walk(cap, |_, _, width, _| width as u32),
            // The LPT needs the window's histogram: the walk hands each
            // link's count as it grows, and a width-1 window starts an end.
            PortModel::KPort(_) => with_counters(self.e, |hist| {
                self.walk(cap, |l, count, width, max_mult| {
                    if width == 1 {
                        hist.fill(0);
                    }
                    hist[l] = count as usize;
                    tx_of_hist(hist, width, max_mult as usize, ports) as u32
                })
            }),
        }
    }

    /// `shallow_prices` given the port model's makespan of a window,
    /// `tx(l, count, width, max_mult)`, called as the window grows by a
    /// transition through link `l`, which it now crosses `count` times.
    fn walk(&self, cap: usize, mut tx: impl FnMut(usize, u32, usize, u32) -> u32) -> ShallowPrices {
        let (k, seq, machine) = (self.k, self.link_seq, &self.machine);
        let widths = cap.min(SMALL_DEGREES).min(k - 1);
        let mut packet = [0.0; SMALL_DEGREES];
        for (q, s) in (1..=widths).zip(&mut packet) {
            *s = self.elems / q as f64;
        }
        // Per width: the kernel's running sum, the prefix window's
        // statistics, and the latest end's window statistics — after the
        // walk, the suffix windows'.
        let mut kernel = [0.0; SMALL_DEGREES];
        let (mut prefix_nd, mut prefix_tx) = ([0; SMALL_DEGREES], [0; SMALL_DEGREES]);
        let (mut nds, mut txs) = ([0; SMALL_DEGREES], [0; SMALL_DEGREES]);
        // `seen[l]`: the transitions through link `l` up to the window end;
        // `rank[t % 64]`: those before transition `t`. The window from `t`
        // to the end crosses `seq[t]`'s link the difference of the two
        // times, so growing it back reads counters and writes none (modulo
        // 2^32, which a count of at most 64 survives).
        let mut rank = [0u32; SMALL_DEGREES];
        with_counters(self.e, |seen: &mut [u32]| {
            for end in 1..=k {
                let newest = seq[end - 1];
                rank[(end - 1) % SMALL_DEGREES] = seen[newest];
                seen[newest] = seen[newest].wrapping_add(1);
                let n = widths.min(end);
                let (mut nd, mut max_mult) = (0, 0);
                for (j, (nd_w, tx_w)) in nds[..n].iter_mut().zip(&mut txs[..n]).enumerate() {
                    let t = end - 1 - j;
                    let count = seen[seq[t]].wrapping_sub(rank[t % SMALL_DEGREES]);
                    nd += u32::from(count == 1);
                    max_mult = max_mult.max(count);
                    *nd_w = nd;
                    *tx_w = tx(seq[t], count, j + 1, max_mult);
                }
                for j in 0..n {
                    let (nd, tx) = (f64::from(nds[j]), f64::from(txs[j]));
                    kernel[j] += stage_term(nd, tx, packet[j], machine);
                }
                if end <= widths {
                    (prefix_nd[end - 1], prefix_tx[end - 1]) = (nds[end - 1], txs[end - 1]);
                }
            }
        });
        // Each price's edges in its own running total, lengths in order,
        // all widths abreast.
        let mut prices = [0.0; SMALL_DEGREES];
        for j in 0..widths.saturating_sub(1) {
            let (pre_nd, pre_tx) = (f64::from(prefix_nd[j]), f64::from(prefix_tx[j]));
            let (suf_nd, suf_tx) = (f64::from(nds[j]), f64::from(txs[j]));
            for q in j + 2..=widths {
                prices[q - 1] += stage_term(pre_nd, pre_tx, packet[q - 1], machine);
                prices[q - 1] += stage_term(suf_nd, suf_tx, packet[q - 1], machine);
            }
        }
        for (price, sum) in prices.iter_mut().zip(&kernel) {
            *price += sum;
        }
        ShallowPrices { prices, len: widths }
    }

    /// Σ of stage costs over the K−Q+1 width-`q` windows (shallow kernel).
    /// The window's histograms slide on the stack: a candidate degree
    /// allocates nothing unless it exceeds 62.
    fn sliding_kernel_cost(&self, q: usize, s_elems: f64) -> f64 {
        let k = self.k;
        let seq = self.link_seq;
        let ts = self.machine.ts;
        let tw = self.machine.tw;
        with_counters(self.e, |hist| match self.machine.ports {
            PortModel::AllPort | PortModel::OnePort => {
                with_counters(q + 2, |mult_hist: &mut [usize]| {
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
                })
            }
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
        let deep = self.deep();
        let full_nd = deep.full_nd as f64;
        let full_tx = deep.full_tx as f64;
        let a = full_nd * ts;
        let c = (deep.prefix_tx_sum + deep.suffix_tx_sum - (k - 1.0) * full_tx) * self.elems * tw;
        if a <= 0.0 || c <= 0.0 {
            None
        } else {
            Some((c / a).sqrt())
        }
    }
}

/// The parent's pricer, kept as the oracle the walk and the one-degree
/// cost are held to bit for bit: eager prefix/suffix tables from one
/// directional scan each way, every shallow degree's edges read off them
/// and its kernel slid on its own ([`PhaseCostModel`]'s slide, which the
/// walk replaced in the search and left unchanged).
#[cfg(test)]
pub(crate) mod reference {
    use super::{tx_of_hist, PhaseCostModel};
    use crate::machine::{Machine, PortModel};

    /// A model's eager window tables.
    pub(crate) struct Tables {
        prefix_nd: Vec<usize>,
        prefix_tx: Vec<usize>,
        suffix_nd: Vec<usize>,
        suffix_tx: Vec<usize>,
        prefix_nd_sum: f64,
        prefix_tx_sum: f64,
        suffix_nd_sum: f64,
        suffix_tx_sum: f64,
    }

    /// Directional scan producing per-prefix (nd, tx) tables.
    fn scan<'a>(
        seq: impl Iterator<Item = &'a usize>,
        e: usize,
        ports: PortModel,
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut nds, mut txs) = (Vec::new(), Vec::new());
        let mut hist = vec![0usize; e];
        let (mut nd, mut maxm) = (0, 0);
        for (i, &l) in seq.enumerate() {
            if hist[l] == 0 {
                nd += 1;
            }
            hist[l] += 1;
            maxm = maxm.max(hist[l]);
            nds.push(nd);
            txs.push(tx_of_hist(&hist, i + 1, maxm, ports));
        }
        (nds, txs)
    }

    impl Tables {
        pub(crate) fn new(model: &PhaseCostModel) -> Self {
            let (k, seq, ports) = (model.k, model.link_seq, model.machine.ports);
            let (prefix_nd, prefix_tx) = scan(seq.iter(), model.e, ports);
            let (suffix_nd, suffix_tx) = scan(seq.iter().rev(), model.e, ports);
            let sum_head = |v: &[usize]| v[..k - 1].iter().map(|&x| x as f64).sum::<f64>();
            let (pn, pt, sn, st) = if k >= 2 {
                (
                    sum_head(&prefix_nd),
                    sum_head(&prefix_tx),
                    sum_head(&suffix_nd),
                    sum_head(&suffix_tx),
                )
            } else {
                (0.0, 0.0, 0.0, 0.0)
            };
            Tables {
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

        /// The parent's `PhaseCostModel::cost(q)`.
        pub(crate) fn cost(&self, model: &PhaseCostModel, q: usize) -> f64 {
            let k = model.k;
            let s_elems = model.elems / q as f64;
            let (ts, tw) = (model.machine.ts, model.machine.tw);
            if q >= k {
                let full_nd = self.prefix_nd[k - 1] as f64;
                let full_tx = self.prefix_tx[k - 1] as f64;
                let kernel = (q - k + 1) as f64 * (full_nd * ts + full_tx * s_elems * tw);
                let edges_ts = (self.prefix_nd_sum + self.suffix_nd_sum) * ts;
                let edges_tw = (self.prefix_tx_sum + self.suffix_tx_sum) * s_elems * tw;
                kernel + edges_ts + edges_tw
            } else {
                let mut total = 0.0;
                for j in 0..q - 1 {
                    total +=
                        self.prefix_nd[j] as f64 * ts + self.prefix_tx[j] as f64 * s_elems * tw;
                    total +=
                        self.suffix_nd[j] as f64 * ts + self.suffix_tx[j] as f64 * s_elems * tw;
                }
                total += model.sliding_kernel_cost(q, s_elems);
                total
            }
        }

        /// The parent's `PhaseCostModel::deep_optimum_candidate`.
        pub(crate) fn deep_optimum_candidate(&self, model: &PhaseCostModel) -> Option<f64> {
            if model.k < 2 {
                return None;
            }
            let k = model.k as f64;
            let (ts, tw) = (model.machine.ts, model.machine.tw);
            let full_nd = self.prefix_nd[model.k - 1] as f64;
            let full_tx = self.prefix_tx[model.k - 1] as f64;
            let a = full_nd * ts;
            let c =
                (self.prefix_tx_sum + self.suffix_tx_sum - (k - 1.0) * full_tx) * model.elems * tw;
            if a <= 0.0 || c <= 0.0 {
                None
            } else {
                Some((c / a).sqrt())
            }
        }
    }

    /// Seeded link sequences, `K ≤ max_k` over at most `max_e` links, and
    /// every family's exchange phases `e = 1..=max_phase`: the inputs the
    /// bitwise tests share.
    pub(crate) fn sequences(max_phase: usize, max_e: usize, max_k: usize) -> Vec<Vec<usize>> {
        let families = mph_core::OrderingFamily::ALL;
        let mut seqs: Vec<Vec<usize>> =
            (1..=max_phase).flat_map(|e| families.map(|f| f.sequence(e))).collect();
        // splitmix64
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        for _ in 0..24 {
            let e = 1 + next(max_e);
            let k = 1 + next(max_k);
            seqs.push((0..k).map(|_| next(e)).collect());
        }
        seqs
    }

    /// The port models the bitwise tests run on, start-up-heavy and
    /// transmission-heavy machines alternating.
    pub(crate) fn machines() -> [Machine; 4] {
        [
            Machine { ts: 1000.0, tw: 100.0, ports: PortModel::AllPort },
            Machine { ts: 20000.0, tw: 3.0, ports: PortModel::OnePort },
            Machine { ts: 1000.0, tw: 100.0, ports: PortModel::KPort(2) },
            Machine { ts: 20000.0, tw: 3.0, ports: PortModel::KPort(3) },
        ]
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
        let [br, d4] = [OrderingFamily::Br, OrderingFamily::Degree4]
            .map(|family| CcCube::exchange_phase(family, e, 1e6));
        let [br, d4] = [&br, &d4].map(|cc| PhaseCostModel::new(cc, machine));
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

    #[test]
    fn the_walk_is_the_slide_to_the_bit() {
        // Every width the walk prices, on every family's exchange phases
        // e = 1..=9 and seeded sequences, each port model: the walk, the
        // one-degree cost and the parent's pricer agree to the bit, at a
        // message size no degree above 1 divides evenly.
        for link_seq in reference::sequences(9, 12, 300) {
            for machine in reference::machines() {
                {
                    let message_elems = 1e6 / 7.0;
                    let cc = CcCube { link_seq: link_seq.clone(), message_elems };
                    let model = PhaseCostModel::new(&cc, machine);
                    let parent = reference::Tables::new(&model);
                    let walk = model.shallow_prices(usize::MAX);
                    let widths = SMALL_DEGREES.min(model.k - 1);
                    assert_eq!(walk.get(widths + 1), None);
                    for q in 1..=widths {
                        let want = parent.cost(&model, q).to_bits();
                        let what = format!("{machine:?} K={} q={q}", model.k);
                        assert_eq!(walk.get(q).map(f64::to_bits), Some(want), "walk, {what}");
                        assert_eq!(model.cost(q).to_bits(), want, "cost, {what}");
                    }
                    // A capped walk prices the same widths, fewer of them.
                    let capped = model.shallow_prices(5);
                    for q in 1..=SMALL_DEGREES {
                        let want = (q <= 5.min(widths)).then(|| walk.get(q)).flatten();
                        assert_eq!(capped.get(q).map(f64::to_bits), want.map(f64::to_bits));
                    }
                    // The slide and the deep formula above the walk.
                    for q in [widths + 1, model.k, model.k + 1, 2 * model.k + 3, 100, 1000] {
                        let want = parent.cost(&model, q).to_bits();
                        assert_eq!(
                            model.cost(q).to_bits(),
                            want,
                            "{machine:?} K={} q={q}",
                            model.k
                        );
                    }
                    let got = model.deep_optimum_candidate().map(f64::to_bits);
                    assert_eq!(got, parent.deep_optimum_candidate(&model).map(f64::to_bits));
                }
            }
        }
    }
}
