//! Machine model: communication parameters of the hypercube multicomputer.
//!
//! The paper's model has two parameters — `Ts`, the start-up time to
//! initiate a communication through one link, and `Tw`, the transmission
//! time per data element — plus the port configuration. In an all-port
//! configuration every node can drive all `d` links simultaneously; in a
//! one-port configuration a node drives one link at a time (paper §2.1,
//! after Ni & McKinley \[14\]).
//!
//! From the paper's kernel-stage cost `e·Ts + α·S·Tw` we adopt the standard
//! interpretation: start-ups are issued serially by the node CPU (one `Ts`
//! per distinct link used in a stage), transmissions then proceed
//! concurrently on as many links as the port model allows, and packets
//! sharing a link coalesce into one message
//! (`fabric::tests::all_port_serializes_startups_but_overlaps_links`).
//!
//! The model lives in the runtime crate because the runtime both *enforces*
//! it (the throttled link fabric of [`crate::fabric`] charges every message
//! `Ts + S·Tw` against the port configuration) and *measures* it:
//! [`FabricStats`] collects wall-clock transfer samples from the live
//! channel transport, and [`Machine::calibrate`] fits `Ts`/`Tw` to them, so
//! schedulers can optimize for the machine they actually run on instead of
//! the paper's Figure-2 constants. `mph_ccpipe` re-exports everything here,
//! so the analytic cost models and this runtime share one vocabulary.

/// Port configuration of every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortModel {
    /// One message in flight per node at a time: transmissions serialize.
    OnePort,
    /// Up to `k` concurrent transmissions per node.
    KPort(usize),
    /// A transmission per link simultaneously (the paper's target).
    AllPort,
}

/// Communication parameters of the target machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Start-up (per-message initiation) time.
    pub ts: f64,
    /// Per-element transmission time.
    pub tw: f64,
    /// Port configuration.
    pub ports: PortModel,
}

impl Machine {
    /// The paper's Figure-2 machine: `Ts = 1000`, `Tw = 100`, all-port.
    pub fn paper_figure2() -> Self {
        Machine { ts: 1000.0, tw: 100.0, ports: PortModel::AllPort }
    }

    /// An all-port machine with explicit parameters.
    pub fn all_port(ts: f64, tw: f64) -> Self {
        Machine { ts, tw, ports: PortModel::AllPort }
    }

    /// A one-port machine with explicit parameters.
    pub fn one_port(ts: f64, tw: f64) -> Self {
        Machine { ts, tw, ports: PortModel::OnePort }
    }

    /// Cost of one *unpipelined* transition: a single message of
    /// `elems` elements over one link.
    pub fn single_message_cost(&self, elems: f64) -> f64 {
        self.ts + elems * self.tw
    }

    /// Cost of one communication stage in which the node sends, through
    /// each link `l` of `multiplicities`, a combined message of
    /// `multiplicities[l] × packet_elems` elements (zero entries = unused
    /// links).
    ///
    /// * all-port: `n·Ts + max_mult·S·Tw` — start-ups serialize, the
    ///   longest transmission dominates;
    /// * one-port: `n·Ts + total·S·Tw` — everything serializes;
    /// * k-port: start-ups serialize, transmissions are scheduled on `k`
    ///   ports with an LPT (longest-processing-time) list schedule.
    pub fn stage_cost_from_mults(&self, multiplicities: &[usize], packet_elems: f64) -> f64 {
        let mut n = 0usize;
        let mut total = 0usize;
        let mut maxm = 0usize;
        for &m in multiplicities {
            if m > 0 {
                n += 1;
                total += m;
                maxm = maxm.max(m);
            }
        }
        self.stage_cost(n, total, maxm, packet_elems, multiplicities)
    }

    /// Stage cost from precomputed window statistics: `n_distinct` links
    /// used, `total` packets, `max_mult` packets on the busiest link.
    /// `mults` is consulted only by the k-port model (may be empty for
    /// one-port/all-port).
    fn stage_cost(
        &self,
        n_distinct: usize,
        total: usize,
        max_mult: usize,
        packet_elems: f64,
        mults: &[usize],
    ) -> f64 {
        if n_distinct == 0 {
            return 0.0;
        }
        let startups = n_distinct as f64 * self.ts;
        let sw = packet_elems * self.tw;
        match self.ports {
            PortModel::AllPort => startups + max_mult as f64 * sw,
            PortModel::OnePort => startups + total as f64 * sw,
            PortModel::KPort(k) => {
                assert!(k >= 1);
                if k == 1 {
                    return startups + total as f64 * sw;
                }
                // LPT schedule of per-link transmission jobs on k ports.
                let mut jobs: Vec<usize> = mults.iter().copied().filter(|&m| m > 0).collect();
                jobs.sort_unstable_by(|a, b| b.cmp(a));
                let mut ports = vec![0usize; k.min(jobs.len()).max(1)];
                for j in jobs {
                    let idx = ports
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &load)| load)
                        .map(|(i, _)| i)
                        .unwrap();
                    ports[idx] += j;
                }
                let makespan = *ports.iter().max().unwrap();
                startups + makespan as f64 * sw
            }
        }
    }

    /// Fits `Ts`/`Tw` to wall-clock transfer samples gathered from a live
    /// transport (see [`crate::fabric::measure_channel_fabric`]): for each
    /// message size the per-sample median is taken (wall clocks on loaded
    /// machines have heavy right tails), then `time = Ts + elems·Tw` is
    /// least-squares fitted across sizes.
    ///
    /// Both parameters come back strictly positive. When the fitted
    /// intercept is not (cache effects make large-size transfer times
    /// convex, which can push the extrapolated zero-size intercept below
    /// zero), `Ts` falls back to **half the smallest size's median
    /// transfer time** — a *measured* magnitude that upper-bounds the
    /// true start-up, rather than a fictitious constant that would make
    /// a start-up-dominated transport look start-up-free to `optimize_q`.
    /// `Tw` keeps a tiny floor (1 fs/element) for the same reason.
    ///
    /// The returned machine is all-port: the channel transport imposes no
    /// port limit of its own. Callers wanting to *model* a port-limited
    /// deployment override `ports` afterwards.
    ///
    /// # Errors
    /// Degenerate inputs return a typed [`CalibrationError`] instead of
    /// the panic-or-fallback mix earlier revisions had: an empty sample
    /// set ([`CalibrationError::Empty`]), any non-finite sample
    /// ([`CalibrationError::NonFiniteSample`]), or fewer than two
    /// distinct message sizes — a slope needs two abscissae — including
    /// the all-identical-samples case ([`CalibrationError::SingleSize`]).
    pub fn calibrate(stats: &FabricStats) -> Result<Machine, CalibrationError> {
        if stats.is_empty() {
            return Err(CalibrationError::Empty);
        }
        if stats.samples().iter().any(|&(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(CalibrationError::NonFiniteSample);
        }
        let medians = stats.median_by_size();
        if medians.len() < 2 {
            return Err(CalibrationError::SingleSize {
                distinct: medians.len(),
                samples: stats.len(),
            });
        }
        // Least squares of secs on elems over the per-size medians.
        let n = medians.len() as f64;
        let sx: f64 = medians.iter().map(|&(x, _)| x).sum();
        let sy: f64 = medians.iter().map(|&(_, y)| y).sum();
        let sxx: f64 = medians.iter().map(|&(x, _)| x * x).sum();
        let sxy: f64 = medians.iter().map(|&(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        // A non-positive intercept means the start-up is unresolvable
        // from the fit; fall back to a measured magnitude (see docs).
        let smallest_median = medians[0].1;
        let ts = if intercept > 0.0 { intercept } else { (smallest_median * 0.5).max(1e-12) };
        let tw = slope.max(1e-15);
        Ok(Machine { ts, tw, ports: PortModel::AllPort })
    }
}

/// Why [`Machine::calibrate`] could not fit the affine cost law.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationError {
    /// No samples were recorded at all.
    Empty,
    /// A sample's size or time was NaN or infinite.
    NonFiniteSample,
    /// Fewer than two distinct message sizes (this many, across this
    /// many samples): a slope needs two abscissae. Covers the
    /// all-samples-identical case too.
    SingleSize { distinct: usize, samples: usize },
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::Empty => {
                write!(f, "calibration got an empty sample set (0 samples, 0 sizes)")
            }
            CalibrationError::NonFiniteSample => {
                write!(f, "calibration got a non-finite sample")
            }
            CalibrationError::SingleSize { distinct, samples } => write!(
                f,
                "calibration needs samples at >= 2 distinct message sizes, got {distinct} \
                 (all {samples} samples share one size)"
            ),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Wall-clock transfer samples gathered from a live transport, the input
/// to [`Machine::calibrate`]. Each sample is one timed message:
/// `(elements, seconds)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FabricStats {
    samples: Vec<(f64, f64)>,
}

impl FabricStats {
    /// An empty sample set.
    pub fn new() -> Self {
        FabricStats::default()
    }

    /// Records one timed transfer of `elems` elements taking `secs`.
    pub fn record(&mut self, elems: f64, secs: f64) {
        self.samples.push((elems, secs));
    }

    /// All samples, in recording order.
    fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Folds another sample set in (e.g. per-node probes into one fit).
    pub fn merge(&mut self, other: &FabricStats) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// `(elems, median secs)` per distinct size, sizes ascending.
    ///
    /// Total-order sort (`f64::total_cmp`), so non-finite samples — a
    /// jittery link's wall clock can hand back NaN or Inf — never panic
    /// here; [`Machine::calibrate`] rejects them with the typed
    /// [`CalibrationError::NonFiniteSample`] before fitting.
    fn median_by_size(&self) -> Vec<(f64, f64)> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            // Group under the same total order as the sort: `==` would
            // never match a NaN size, stalling the scan on its own group.
            let j =
                sorted[i..].iter().take_while(|s| s.0.total_cmp(&sorted[i].0).is_eq()).count() + i;
            out.push((sorted[i].0, sorted[i + (j - i) / 2].1));
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_parameters() {
        let m = Machine::paper_figure2();
        assert_eq!(m.ts, 1000.0);
        assert_eq!(m.tw, 100.0);
        assert_eq!(m.ports, PortModel::AllPort);
    }

    #[test]
    fn single_message_cost_is_affine() {
        let m = Machine::all_port(1000.0, 100.0);
        assert_eq!(m.single_message_cost(0.0), 1000.0);
        assert_eq!(m.single_message_cost(10.0), 2000.0);
    }

    #[test]
    fn all_port_kernel_stage_matches_paper_formula() {
        // Deep-pipelining kernel on an e-link window: e·Ts + α·S·Tw.
        let m = Machine::all_port(1000.0, 100.0);
        // e = 3 links with multiplicities (4, 2, 1): α = 4, S = 5 elems.
        let c = m.stage_cost_from_mults(&[4, 2, 1], 5.0);
        assert_eq!(c, 3.0 * 1000.0 + 4.0 * 5.0 * 100.0);
    }

    #[test]
    fn one_port_serializes_everything() {
        let m = Machine::one_port(1000.0, 100.0);
        let c = m.stage_cost_from_mults(&[4, 2, 1], 5.0);
        assert_eq!(c, 3.0 * 1000.0 + 7.0 * 5.0 * 100.0);
    }

    #[test]
    fn k_port_interpolates() {
        let all = Machine::all_port(0.0, 1.0);
        let one = Machine::one_port(0.0, 1.0);
        let two = Machine { ts: 0.0, tw: 1.0, ports: PortModel::KPort(2) };
        let mults = [3usize, 3, 2];
        let (ca, co, c2) = (
            all.stage_cost_from_mults(&mults, 1.0),
            one.stage_cost_from_mults(&mults, 1.0),
            two.stage_cost_from_mults(&mults, 1.0),
        );
        assert!(ca <= c2 && c2 <= co, "{ca} ≤ {c2} ≤ {co} violated");
        // LPT on 2 ports: jobs 3,3,2 → loads 3+2=5 and 3 → makespan 5.
        assert_eq!(c2, 5.0);
    }

    #[test]
    fn k_port_with_many_ports_equals_all_port() {
        let mults = [4usize, 1, 2, 2];
        let kp = Machine { ts: 7.0, tw: 3.0, ports: PortModel::KPort(16) };
        let ap = Machine { ts: 7.0, tw: 3.0, ports: PortModel::AllPort };
        assert_eq!(kp.stage_cost_from_mults(&mults, 2.0), ap.stage_cost_from_mults(&mults, 2.0));
    }

    #[test]
    fn empty_stage_costs_nothing() {
        let m = Machine::paper_figure2();
        assert_eq!(m.stage_cost_from_mults(&[0, 0, 0], 10.0), 0.0);
    }

    #[test]
    fn calibrate_recovers_an_exact_affine_law() {
        // Noise-free samples from time = 2e-6 + 3e-9·elems must fit back
        // exactly (one linear system, no clamping engaged).
        let mut stats = FabricStats::new();
        for &elems in &[100.0, 1000.0, 10000.0] {
            for _ in 0..5 {
                stats.record(elems, 2e-6 + 3e-9 * elems);
            }
        }
        let m = Machine::calibrate(&stats).expect("three distinct sizes fit");
        assert!((m.ts - 2e-6).abs() < 1e-12, "ts = {}", m.ts);
        assert!((m.tw - 3e-9).abs() < 1e-15, "tw = {}", m.tw);
        assert_eq!(m.ports, PortModel::AllPort);
    }

    #[test]
    fn calibrate_uses_per_size_medians_against_outliers() {
        // One wild outlier per size (a descheduled thread) must not move
        // the fit: the median absorbs it.
        let mut stats = FabricStats::new();
        for &elems in &[64.0, 4096.0] {
            let clean = 1e-6 + 1e-9 * elems;
            stats.record(elems, clean);
            stats.record(elems, clean);
            stats.record(elems, clean * 500.0); // outlier
        }
        let m = Machine::calibrate(&stats).expect("two distinct sizes fit");
        assert!((m.ts - 1e-6).abs() < 1e-10, "ts = {}", m.ts);
        assert!((m.tw - 1e-9).abs() < 1e-13, "tw = {}", m.tw);
    }

    #[test]
    fn calibrate_clamps_to_positive_parameters() {
        // A transport so fast the fitted slope/intercept would be ≤ 0
        // (pointer-shipping channels) still yields usable parameters.
        let mut stats = FabricStats::new();
        stats.record(100.0, 5e-7);
        stats.record(10000.0, 4e-7); // *faster* for the bigger message
        let m = Machine::calibrate(&stats).expect("two distinct sizes fit");
        assert!(m.ts > 0.0 && m.ts.is_finite());
        assert!(m.tw > 0.0 && m.tw.is_finite());
    }

    #[test]
    fn negative_intercept_falls_back_to_a_measured_start_up() {
        // Convex (cache-effect-shaped) medians push the least-squares
        // intercept below zero; Ts must then be a measured magnitude —
        // half the smallest size's median — not a fictitious tiny floor.
        let mut stats = FabricStats::new();
        stats.record(10.0, 1.0);
        stats.record(100.0, 5.0);
        stats.record(1000.0, 400.0);
        let m = Machine::calibrate(&stats).expect("three distinct sizes fit");
        assert_eq!(m.ts, 0.5, "Ts should be half the smallest median");
        assert!(m.tw > 0.0);
    }

    #[test]
    fn calibrate_rejects_a_single_size() {
        // One probe size — including the all-samples-identical case — is
        // a typed error, not a panic.
        let mut stats = FabricStats::new();
        stats.record(64.0, 1e-6);
        stats.record(64.0, 2e-6);
        assert_eq!(
            Machine::calibrate(&stats),
            Err(CalibrationError::SingleSize { distinct: 1, samples: 2 })
        );
        let mut identical = FabricStats::new();
        for _ in 0..5 {
            identical.record(256.0, 3e-6);
        }
        assert_eq!(
            Machine::calibrate(&identical),
            Err(CalibrationError::SingleSize { distinct: 1, samples: 5 })
        );
    }

    #[test]
    fn non_finite_samples_never_panic_the_median_pass() {
        // The degraded-fabric repro: one NaN wall-clock probe used to abort
        // the process inside `median_by_size`'s sort comparator. It must
        // sort totally (no panic) and `calibrate` must surface the typed
        // error instead.
        let mut stats = FabricStats::new();
        stats.record(64.0, 1e-6);
        stats.record(64.0, f64::NAN);
        stats.record(4096.0, f64::INFINITY);
        stats.record(f64::NAN, 2e-6);
        let medians = stats.median_by_size(); // must not panic
        assert!(!medians.is_empty());
        assert_eq!(Machine::calibrate(&stats), Err(CalibrationError::NonFiniteSample));
    }

    #[test]
    fn calibrate_rejects_empty_and_non_finite_stats() {
        assert_eq!(Machine::calibrate(&FabricStats::new()), Err(CalibrationError::Empty));
        let mut nan = FabricStats::new();
        nan.record(64.0, 1e-6);
        nan.record(4096.0, f64::NAN);
        assert_eq!(Machine::calibrate(&nan), Err(CalibrationError::NonFiniteSample));
        let mut inf = FabricStats::new();
        inf.record(f64::INFINITY, 1e-6);
        inf.record(4096.0, 2e-6);
        assert_eq!(Machine::calibrate(&inf), Err(CalibrationError::NonFiniteSample));
    }

    #[test]
    fn calibration_errors_display_their_cause() {
        assert!(CalibrationError::Empty.to_string().contains("empty"));
        assert!(CalibrationError::Empty.to_string().contains("0 samples"));
        assert!(CalibrationError::NonFiniteSample.to_string().contains("non-finite"));
        let single = CalibrationError::SingleSize { distinct: 1, samples: 7 };
        assert!(single.to_string().contains("got 1"));
        assert!(
            single.to_string().contains("7 samples"),
            "a failed fit must say how many samples it had: {single}"
        );
    }

    #[test]
    fn stats_merge_and_median() {
        let mut a = FabricStats::new();
        a.record(8.0, 3.0);
        a.record(8.0, 1.0);
        let mut b = FabricStats::new();
        b.record(8.0, 2.0);
        b.record(2.0, 5.0);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.median_by_size(), vec![(2.0, 5.0), (8.0, 2.0)]);
    }
}
