//! Seeded degraded-fabric scenarios: per-link machines, impairment walks,
//! Gilbert-Elliott-style degradation episodes, and scheduled link death.
//!
//! The throttled fabric of [`crate::fabric`] charges one uniform
//! [`Machine`] on perfect links; real fabrics are heterogeneous and they
//! degrade. A [`Scenario`] generalizes the model to *per-directed-link*
//! machine parameters that evolve over **epochs** (the fabric's barrier
//! generations — see [`crate::fabric::LinkClock`]): each link `(node,
//! dim)` carries a `Ts` factor and a `Tw` factor per epoch, composed from
//!
//! * a static heterogeneity draw (per-link machines),
//! * a multiplicative jitter walk (rate/delay drift, clamped at the base
//!   machine — degradation never makes a link faster than its spec),
//! * a two-state good/degraded Markov chain (Gilbert-Elliott episodes:
//!   enter degradation with `episode_rate`, recover with
//!   `episode_recovery`, pay `episode_severity` while degraded),
//!
//! plus an optional **death schedule**: an undirected edge dies at an
//! epoch and stays dead (sending across it panics in the link clock — an
//! adaptive driver must route around it instead).
//!
//! Everything is precomputed at construction from a `splitmix64` stream
//! keyed by `(seed, node, dim)`, so a scenario is pure data: replay is bit
//! for bit deterministic from its seed, independent of thread count or
//! scheduling. Construction validates the spec with typed
//! [`ScenarioError`]s — in particular, a death schedule that disconnects
//! the cube is rejected up front, so a surviving route always exists for
//! every scheduled death.

use crate::machine::Machine;

/// One scheduled link death: the undirected edge `(node, node ^ 2^dim)`
/// dies at `epoch` and stays dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDeath {
    /// Either endpoint of the edge (normalized internally).
    pub node: usize,
    /// The dimension the edge crosses.
    pub dim: usize,
    /// First epoch at which the edge is dead.
    pub epoch: usize,
}

/// Declarative description of a degraded-fabric scenario; feed to
/// [`Scenario::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Seed of the impairment stream; same seed, same scenario, bit for bit.
    pub seed: u64,
    /// The clean per-link machine (also fixes the port model).
    pub base: Machine,
    /// Number of precomputed epochs; epochs past the horizon clamp to the
    /// last one. Programs that never pass a barrier run entirely in
    /// epoch 0.
    pub epochs: usize,
    /// Static per-link heterogeneity: each link's factors start uniformly
    /// in `[1, 1 + hetero_spread]`.
    pub hetero_spread: f64,
    /// Per-epoch multiplicative jitter on the `Tw` (rate) factor.
    pub rate_jitter: f64,
    /// Per-epoch multiplicative jitter on the `Ts` (delay) factor.
    pub delay_jitter: f64,
    /// Per-epoch probability a good link enters a degradation episode.
    pub episode_rate: f64,
    /// Per-epoch probability a degraded link recovers.
    pub episode_recovery: f64,
    /// `Ts`/`Tw` multiplier while a link is in an episode (≥ 1).
    pub episode_severity: f64,
    /// Scheduled permanent link deaths.
    pub deaths: Vec<LinkDeath>,
}

impl ScenarioSpec {
    /// A clean scenario: `base` on every link, no impairments — the
    /// starting point to build specs from with struct update syntax.
    pub fn clean(seed: u64, base: Machine) -> Self {
        ScenarioSpec {
            seed,
            base,
            epochs: 1,
            hetero_spread: 0.0,
            rate_jitter: 0.0,
            delay_jitter: 0.0,
            episode_rate: 0.0,
            episode_recovery: 1.0,
            episode_severity: 1.0,
            deaths: Vec::new(),
        }
    }
}

/// Why a [`ScenarioSpec`] could not be compiled into a [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// `epochs` was 0 — a scenario needs at least one epoch.
    ZeroEpochs,
    /// A spread/jitter/severity/probability parameter was NaN, infinite,
    /// or out of its domain.
    InvalidParameter,
    /// `episode_severity` was below 1: episodes degrade, never accelerate.
    SeverityBelowOne,
    /// A scheduled death names a node or dimension outside the cube.
    DeathOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// The offending dimension.
        dim: usize,
    },
    /// The death schedule disconnects the cube: with every scheduled
    /// death applied no surviving route exists between some node pair, so
    /// no driver could adapt around it.
    Disconnects,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::ZeroEpochs => write!(f, "a scenario needs at least one epoch"),
            ScenarioError::InvalidParameter => {
                write!(f, "scenario parameters must be finite and within their domain")
            }
            ScenarioError::SeverityBelowOne => {
                write!(f, "episode severity must be >= 1 (episodes degrade, never accelerate)")
            }
            ScenarioError::DeathOutOfRange { node, dim } => {
                write!(f, "scheduled death (node {node}, dim {dim}) is outside the cube")
            }
            ScenarioError::Disconnects => {
                write!(f, "the death schedule disconnects the cube: no surviving route")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A compiled degraded-fabric scenario: per-link `Ts`/`Tw` factor
/// timelines plus the death schedule, all pure precomputed data (see the
/// module docs). Wrap in `Arc` and hand to
/// [`FabricModel::Degraded`](crate::fabric::FabricModel::Degraded).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    d: usize,
    base: Machine,
    epochs: usize,
    seed: u64,
    /// `factors[node][dim][epoch] = (ts_factor, tw_factor)`, both ≥ 1.
    factors: Vec<Vec<Vec<(f64, f64)>>>,
    /// `dead_from[u][dim]` for the undirected edge keyed at its smaller
    /// endpoint `u`: first dead epoch, `usize::MAX` when never.
    dead_from: Vec<Vec<usize>>,
}

/// The `splitmix64` step: a tiny, well-mixed deterministic stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from one `splitmix64` output.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Factor walks are clamped into `[1, FACTOR_CAP]`: degradation never
/// accelerates a link past its spec, and never degrades it unboundedly.
const FACTOR_CAP: f64 = 16.0;

impl Scenario {
    /// Compiles `spec` for a `d`-cube. See [`ScenarioError`] for the
    /// rejected inputs; notably a death schedule that disconnects the
    /// cube is a typed error, so every accepted scenario leaves a
    /// surviving route for every death.
    pub fn new(d: usize, spec: ScenarioSpec) -> Result<Scenario, ScenarioError> {
        if spec.epochs == 0 {
            return Err(ScenarioError::ZeroEpochs);
        }
        for x in [spec.hetero_spread, spec.rate_jitter, spec.delay_jitter] {
            if !x.is_finite() || x < 0.0 {
                return Err(ScenarioError::InvalidParameter);
            }
        }
        for p in [spec.episode_rate, spec.episode_recovery] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ScenarioError::InvalidParameter);
            }
        }
        if !spec.episode_severity.is_finite() {
            return Err(ScenarioError::InvalidParameter);
        }
        if spec.episode_severity < 1.0 {
            return Err(ScenarioError::SeverityBelowOne);
        }
        let p = 1usize << d;
        let mut dead_from = vec![vec![usize::MAX; d.max(1)]; p];
        for death in &spec.deaths {
            if death.node >= p || death.dim >= d {
                return Err(ScenarioError::DeathOutOfRange { node: death.node, dim: death.dim });
            }
            let u = death.node.min(death.node ^ (1 << death.dim));
            let slot = &mut dead_from[u][death.dim];
            *slot = (*slot).min(death.epoch);
        }
        // Connectivity with *every* death applied (deaths are permanent,
        // so the final edge set is the worst case for every epoch).
        if !connected_without(d, &dead_from) {
            return Err(ScenarioError::Disconnects);
        }
        let mut factors = Vec::with_capacity(p);
        for node in 0..p {
            let mut by_dim = Vec::with_capacity(d.max(1));
            for dim in 0..d.max(1) {
                // One independent stream per directed link, keyed on
                // (seed, node, dim) — replay never depends on evaluation
                // order.
                let mut rng = spec
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(((node as u64) << 20) | dim as u64);
                let h_ts = 1.0 + spec.hetero_spread * unit(&mut rng);
                let h_tw = 1.0 + spec.hetero_spread * unit(&mut rng);
                let mut w_ts = 1.0f64;
                let mut w_tw = 1.0f64;
                let mut degraded = false;
                let mut timeline = Vec::with_capacity(spec.epochs);
                for _ in 0..spec.epochs {
                    w_ts = (w_ts * (1.0 + spec.delay_jitter * (2.0 * unit(&mut rng) - 1.0)))
                        .clamp(1.0, FACTOR_CAP);
                    w_tw = (w_tw * (1.0 + spec.rate_jitter * (2.0 * unit(&mut rng) - 1.0)))
                        .clamp(1.0, FACTOR_CAP);
                    let flip = unit(&mut rng);
                    degraded = if degraded {
                        flip >= spec.episode_recovery
                    } else {
                        flip < spec.episode_rate
                    };
                    let sev = if degraded { spec.episode_severity } else { 1.0 };
                    timeline.push((
                        (h_ts * w_ts * sev).min(FACTOR_CAP),
                        (h_tw * w_tw * sev).min(FACTOR_CAP),
                    ));
                }
                by_dim.push(timeline);
            }
            factors.push(by_dim);
        }
        Ok(Scenario {
            d,
            base: spec.base,
            epochs: spec.epochs,
            seed: spec.seed,
            factors,
            dead_from,
        })
    }

    /// The clean per-link machine (fixes the port model too).
    pub fn base(&self) -> Machine {
        self.base
    }

    /// `(Ts factor, Tw factor)` of directed link `(node, dim)` at `epoch`.
    pub fn factors(&self, node: usize, dim: usize, epoch: usize) -> (f64, f64) {
        self.factors[node][dim][epoch.min(self.epochs - 1)]
    }

    /// The effective machine of directed link `(node, dim)` at `epoch`:
    /// the base machine scaled by the link's factors.
    pub fn machine_for(&self, node: usize, dim: usize, epoch: usize) -> Machine {
        let (fts, ftw) = self.factors(node, dim, epoch);
        Machine { ts: self.base.ts * fts, tw: self.base.tw * ftw, ports: self.base.ports }
    }

    /// Whether the undirected edge `(node, node ^ 2^dim)` is alive at
    /// `epoch`. Death epochs are **not** clamped to the horizon: deaths
    /// are permanent wall-clock-free facts, so an edge scheduled to die
    /// at epoch `k` is alive before `k` even when `k ≥ epochs`.
    pub fn edge_alive(&self, node: usize, dim: usize, epoch: usize) -> bool {
        let u = node.min(node ^ (1 << dim));
        epoch < self.dead_from[u][dim]
    }

    /// The epochs at which some link dies, ascending and distinct: the
    /// dead edges ([`Self::dead_edges`]) change there and nowhere else.
    /// Empty when no death is scheduled.
    pub fn death_epochs(&self) -> Vec<usize> {
        let mut epochs: Vec<usize> =
            self.dead_from.iter().flatten().copied().filter(|&e| e != usize::MAX).collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }

    /// The dead undirected edges at `epoch`, as `(smaller endpoint, dim)`
    /// pairs in ascending order — the deterministic iteration order the
    /// relay script relies on.
    pub fn dead_edges(&self, epoch: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (u, dims) in self.dead_from.iter().enumerate() {
            for (dim, &from) in dims.iter().enumerate() {
                if epoch >= from {
                    out.push((u, dim));
                }
            }
        }
        out
    }

    /// The oracle's pricing machine at `epoch`: the base machine scaled by
    /// the **worst factors over the alive links** — the machine a pricer
    /// that knows the scenario in advance would plan against, since the
    /// slowest link paces every lock-step transition.
    pub fn worst_alive_machine(&self, epoch: usize) -> Machine {
        let mut fts = 1.0f64;
        let mut ftw = 1.0f64;
        for node in 0..(1usize << self.d) {
            for dim in 0..self.d {
                if self.edge_alive(node, dim, epoch) {
                    let (a, b) = self.factors(node, dim, epoch);
                    fts = fts.max(a);
                    ftw = ftw.max(b);
                }
            }
        }
        Machine { ts: self.base.ts * fts, tw: self.base.tw * ftw, ports: self.base.ports }
    }
}

/// BFS connectivity of the `d`-cube with the edges in `dead_from`
/// (any finite death epoch) removed.
fn connected_without(d: usize, dead_from: &[Vec<usize>]) -> bool {
    let p = 1usize << d;
    let mut seen = vec![false; p];
    let mut queue = vec![0usize];
    seen[0] = true;
    let mut reached = 1usize;
    while let Some(n) = queue.pop() {
        for dim in 0..d {
            let u = n.min(n ^ (1 << dim));
            if dead_from[u][dim] != usize::MAX {
                continue;
            }
            let peer = n ^ (1 << dim);
            if !seen[peer] {
                seen[peer] = true;
                reached += 1;
                queue.push(peer);
            }
        }
    }
    reached == p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn impaired_spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            epochs: 8,
            hetero_spread: 0.5,
            rate_jitter: 0.2,
            delay_jitter: 0.1,
            episode_rate: 0.3,
            episode_recovery: 0.5,
            episode_severity: 3.0,
            ..ScenarioSpec::clean(seed, Machine::paper_figure2())
        }
    }

    #[test]
    fn replay_is_seed_deterministic() {
        let a = Scenario::new(3, impaired_spec(7)).expect("valid spec");
        let b = Scenario::new(3, impaired_spec(7)).expect("valid spec");
        assert_eq!(a, b, "same seed must compile bit-for-bit identically");
        let c = Scenario::new(3, impaired_spec(8)).expect("valid spec");
        assert_ne!(a, c, "a different seed must actually perturb the factors");
    }

    #[test]
    fn factors_are_finite_and_never_accelerate() {
        let sc = Scenario::new(2, impaired_spec(42)).expect("valid spec");
        for node in 0..4 {
            for dim in 0..2 {
                for epoch in 0..sc.epochs {
                    let (fts, ftw) = sc.factors(node, dim, epoch);
                    assert!(fts.is_finite() && (1.0..=FACTOR_CAP).contains(&fts));
                    assert!(ftw.is_finite() && (1.0..=FACTOR_CAP).contains(&ftw));
                }
            }
        }
        // Past-horizon epochs clamp to the last precomputed one.
        assert_eq!(sc.factors(0, 0, 10_000), sc.factors(0, 0, sc.epochs - 1));
    }

    #[test]
    fn clean_scenario_is_the_base_machine_everywhere() {
        let sc = Scenario::new(2, ScenarioSpec::clean(1, Machine::all_port(10.0, 2.0)))
            .expect("clean spec");
        for node in 0..4 {
            for dim in 0..2 {
                assert_eq!(sc.factors(node, dim, 0), (1.0, 1.0));
                assert_eq!(sc.machine_for(node, dim, 0), Machine::all_port(10.0, 2.0));
                assert!(sc.edge_alive(node, dim, 0));
            }
        }
        assert!(sc.death_epochs().is_empty());
        assert_eq!(sc.worst_alive_machine(0), Machine::all_port(10.0, 2.0));
    }

    #[test]
    fn deaths_follow_the_schedule_and_normalize_endpoints() {
        let spec = ScenarioSpec {
            deaths: vec![
                LinkDeath { node: 5, dim: 0, epoch: 2 },
                LinkDeath { node: 4, dim: 0, epoch: 9 },
            ],
            ..ScenarioSpec::clean(3, Machine::paper_figure2())
        };
        let sc = Scenario::new(3, spec).expect("one death keeps a 3-cube connected");
        // Edge (4, 5) is scheduled twice, from either endpoint: the first
        // death counts.
        assert_eq!(sc.death_epochs(), vec![2]);
        // Edge (4, 5): alive at epochs 0 and 1, dead from 2 on — queried
        // from either endpoint.
        for epoch in 0..2 {
            assert!(sc.edge_alive(5, 0, epoch));
            assert!(sc.edge_alive(4, 0, epoch));
            assert!(sc.dead_edges(epoch).is_empty());
        }
        for epoch in [2usize, 3, 100] {
            assert!(!sc.edge_alive(5, 0, epoch));
            assert!(!sc.edge_alive(4, 0, epoch));
            assert_eq!(sc.dead_edges(epoch), vec![(4, 0)]);
        }
        // Other edges are untouched.
        assert!(sc.edge_alive(0, 0, 100) && sc.edge_alive(5, 1, 100));
    }

    #[test]
    fn disconnecting_schedules_are_rejected() {
        // d = 1: killing the only edge partitions the 2-cube.
        let spec = ScenarioSpec {
            deaths: vec![LinkDeath { node: 0, dim: 0, epoch: 0 }],
            ..ScenarioSpec::clean(1, Machine::paper_figure2())
        };
        assert_eq!(Scenario::new(1, spec).unwrap_err(), ScenarioError::Disconnects);
        // d = 2: isolating node 0 by killing both its edges partitions too.
        let spec = ScenarioSpec {
            deaths: vec![
                LinkDeath { node: 0, dim: 0, epoch: 1 },
                LinkDeath { node: 0, dim: 1, epoch: 5 },
            ],
            ..ScenarioSpec::clean(2, Machine::paper_figure2())
        };
        assert_eq!(Scenario::new(2, spec).unwrap_err(), ScenarioError::Disconnects);
        // One dead edge on a 2-cube leaves the ring: fine.
        let spec = ScenarioSpec {
            deaths: vec![LinkDeath { node: 0, dim: 0, epoch: 0 }],
            ..ScenarioSpec::clean(2, Machine::paper_figure2())
        };
        assert!(Scenario::new(2, spec).is_ok());
    }

    #[test]
    fn invalid_specs_surface_typed_errors() {
        let base = Machine::paper_figure2();
        let spec = ScenarioSpec { epochs: 0, ..ScenarioSpec::clean(1, base) };
        assert_eq!(Scenario::new(2, spec).unwrap_err(), ScenarioError::ZeroEpochs);
        let spec = ScenarioSpec { rate_jitter: f64::NAN, ..ScenarioSpec::clean(1, base) };
        assert_eq!(Scenario::new(2, spec).unwrap_err(), ScenarioError::InvalidParameter);
        let spec = ScenarioSpec { episode_rate: 1.5, ..ScenarioSpec::clean(1, base) };
        assert_eq!(Scenario::new(2, spec).unwrap_err(), ScenarioError::InvalidParameter);
        let spec = ScenarioSpec { episode_severity: 0.5, ..ScenarioSpec::clean(1, base) };
        assert_eq!(Scenario::new(2, spec).unwrap_err(), ScenarioError::SeverityBelowOne);
        let spec = ScenarioSpec {
            deaths: vec![LinkDeath { node: 9, dim: 0, epoch: 0 }],
            ..ScenarioSpec::clean(1, base)
        };
        assert_eq!(
            Scenario::new(2, spec).unwrap_err(),
            ScenarioError::DeathOutOfRange { node: 9, dim: 0 }
        );
        for err in [
            ScenarioError::ZeroEpochs,
            ScenarioError::InvalidParameter,
            ScenarioError::SeverityBelowOne,
            ScenarioError::DeathOutOfRange { node: 9, dim: 0 },
            ScenarioError::Disconnects,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn worst_alive_machine_tracks_the_slowest_alive_link() {
        let sc = Scenario::new(2, impaired_spec(11)).expect("valid spec");
        for epoch in 0..sc.epochs {
            let worst = sc.worst_alive_machine(epoch);
            assert!(worst.ts >= sc.base().ts && worst.tw >= sc.base().tw);
            for node in 0..4 {
                for dim in 0..2 {
                    let m = sc.machine_for(node, dim, epoch);
                    assert!(m.ts <= worst.ts + 1e-12 && m.tw <= worst.tw + 1e-12);
                }
            }
        }
    }

    #[test]
    fn episodes_actually_fire_under_an_aggressive_spec() {
        // With a 30% entry rate over 8 epochs × 8 links, some link must
        // see a severity bump — otherwise the chain is wired wrong.
        let sc = Scenario::new(2, impaired_spec(3)).expect("valid spec");
        let mut max_factor = 0.0f64;
        for node in 0..4 {
            for dim in 0..2 {
                for epoch in 0..sc.epochs {
                    max_factor = max_factor.max(sc.factors(node, dim, epoch).1);
                }
            }
        }
        assert!(max_factor >= 3.0, "no episode fired: max factor {max_factor}");
    }
}
