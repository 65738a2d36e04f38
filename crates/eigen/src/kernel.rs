//! The column-pairing kernel (paper §2.2) — the *one* rotation path shared
//! by every driver in this crate.
//!
//! The one-sided method maintains `A ← A₀·U` and `U` (initially `I`). The
//! implicit iterate is `M = Uᵀ·A₀·U`, whose entries are reachable from
//! columns alone: `M_ij = u_i · a_j`. *Pairing* columns `i` and `j`
//! computes the 2×2 block `(M_ii, M_ij, M_jj)` from three inner products,
//! derives the Jacobi rotation annihilating `M_ij`, and applies it to
//! columns `i, j` of both `A` and `U` — no row access, which is what makes
//! the method distribute by columns.
//!
//! Two pairing rules share this machinery (selected by [`PairingRule`]):
//! the symmetric eigensolver's implicit rule above, and the Hestenes SVD's
//! Gram rule (`G_ij = w_i · w_j`, convergence measured by the cosine of the
//! column angle). Both rotate through the same fused rotation kernel
//! ([`mph_linalg::vecops::pair_rotate_lanes`], bitwise
//! [`mph_linalg::vecops::pair_rotate`]), so the logical, threaded,
//! and SVD drivers are *structurally* guaranteed to perform identical
//! floating-point work — the bitwise-equality tests between drivers check
//! an invariant the code now enforces by construction.
//!
//! When a [`ColumnBlock`] carries cached diagonals (`M_ii` or `‖w_i‖²`,
//! opt-in via `JacobiOptions::cache_diagonals`), the kernel reads the two
//! diagonal entries from the cache and maintains them under rotation with
//! the exact 2×2 similarity update, reducing the inner products per pairing
//! from three to one; the per-sweep [`refresh_block_diag`] recomputes them
//! exactly so rounding drift cannot accumulate.
//!
//! [`SweepKernel`] runs the sub-sweeps. Its serial order (`workers == 0`)
//! is the bitwise reference; with `workers ≥ 1` it runs a tournament of
//! column-disjoint tile tasks whose rounds are shared out among a pool of
//! threads. The pool belongs to a [`Tournament`], which a driver builds
//! once per solve (once per node) and passes to every call: helper
//! threads are spawned there, sleep between rounds, and are joined when it
//! drops — no call spawns a thread, and no round allocates. A call takes
//! everything a solver step may pair at once, so one round covers round
//! `r` of every block pair of the step.

use crate::options::JacobiOptions;
use crate::pool::PairingPool;
use mph_linalg::block::{cross_pair_mut, two_blocks_mut, ColumnBlock, ColumnViewMut, PairViewMut};
use mph_linalg::rotation::{apply_to_block, symmetric_schur, JacobiRotation};
use mph_linalg::vecops::{dot, dot_lanes, fused_triple, fused_triple_exact, fused_triple_exact_x2};
use mph_linalg::KernelPath;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Outcome of one pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairOutcome {
    /// The off-diagonal mass this pairing saw before rotating — `|M_ij|`
    /// under [`PairingRule::Implicit`], the column-angle cosine under
    /// [`PairingRule::Gram`] — the quantity sweep-level convergence
    /// tracking aggregates.
    pub off_before: f64,
    /// Whether a rotation was applied (false when the off-diagonal measure
    /// is already zero).
    pub rotated: bool,
}

/// How a pairing derives its 2×2 block from the pair's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingRule {
    /// Symmetric eigensolver: `M_ij = u_i · a_j`, skip when `M_ij = 0`.
    Implicit,
    /// Hestenes SVD: `G_ij = w_i · w_j` (the `A` slots hold `W`-columns,
    /// the `U` slots hold `V`-columns), skip when `G_ij = 0` or the cosine
    /// `|G_ij|/√(G_ii·G_jj)` is 0.
    Gram,
}

impl PairingRule {
    /// The exact diagonal entry for one column — what the cache refresh
    /// computes and what uncached pairings recompute per pairing.
    #[inline]
    fn diag_entry(self, a: &[f64], u: &[f64]) -> f64 {
        match self {
            PairingRule::Implicit => dot(u, a),
            PairingRule::Gram => dot(a, a),
        }
    }
}

/// Pairs one column pair presented as raw views — the shared core every
/// driver funnels through. Reads the diagonal entries from the view's
/// cache slots when present (maintaining them under rotation), recomputes
/// them otherwise. Computes the reference bits ([`KernelPath::Scalar`]);
/// see [`pair_view_with`] for the path-selected form.
fn pair_view(v: PairViewMut<'_>, rule: PairingRule) -> PairOutcome {
    pair_view_with(v, rule, KernelPath::Scalar)
}

/// [`pair_view`] with the inner products `path` selects.
///
/// `Scalar` is the reference pairing bit for bit: the uncached 2×2 block is
/// three [`dot`]s — computed in one pass by [`fused_triple_exact`], whose
/// every product is `to_bits`-equal to `dot` — and the cached off-diagonal
/// is one `dot`. `Lanes` takes the reassociated reductions instead
/// ([`fused_triple`], [`dot_lanes`]: wider partial sums, FMA, ≤1e-12
/// relative). The rotation is the same for both — the lane rotator, bitwise
/// the scalar loop — so `Lanes` differs from `Scalar` only in the last bits
/// of the inner products feeding the rotation angle.
fn pair_view_with(v: PairViewMut<'_>, rule: PairingRule, path: KernelPath) -> PairOutcome {
    let block = pair_block(&v, rule, path);
    pair_rotate_by(v, block, pair_angle(block, rule))
}

/// [`pair_view_with`] for two pairings that share no column, the three
/// stages of a pairing taken two abreast: both 2×2 blocks, then both
/// rotation angles, then both rotations — the bits of one call after the
/// other, since neither pairing reads what the other writes.
///
/// Alone, a pairing is one dependent chain — the reduction, then the
/// divide / square-root chain of [`symmetric_schur`], then the rotate —
/// and too long for the core to overlap with the next one by itself, so
/// the angle's latency is paid in full. Abreast, the two angle chains run
/// in each other's shadow; the uncached `Scalar` blocks come from one pass
/// over both pairings' columns ([`fused_triple_exact_x2`]).
pub(crate) fn pair_view2_with(
    [v0, v1]: [PairViewMut<'_>; 2],
    rule: PairingRule,
    path: KernelPath,
) -> [PairOutcome; 2] {
    let cached = |v: &PairViewMut<'_>| v.di.is_some() && v.dj.is_some();
    let [b0, b1] = if path == KernelPath::Scalar && !cached(&v0) && !cached(&v1) {
        match rule {
            PairingRule::Implicit => {
                fused_triple_exact_x2([v0.ui, v0.ai, v0.uj, v0.aj], [v1.ui, v1.ai, v1.uj, v1.aj])
            }
            PairingRule::Gram => {
                fused_triple_exact_x2([v0.ai, v0.ai, v0.aj, v0.aj], [v1.ai, v1.ai, v1.aj, v1.aj])
            }
        }
    } else {
        [pair_block(&v0, rule, path), pair_block(&v1, rule, path)]
    };
    let (r0, r1) = (pair_angle(b0, rule), pair_angle(b1, rule));
    [pair_rotate_by(v0, b0, r0), pair_rotate_by(v1, b1, r1)]
}

/// The 2×2 block `(app, apq, aqq)` of a pairing, by `path`'s reductions.
#[inline(always)]
fn pair_block(v: &PairViewMut<'_>, rule: PairingRule, path: KernelPath) -> (f64, f64, f64) {
    // One arm per path, the rule matched innermost, as the pairing was
    // always laid out: flattening the three matches into one reads better
    // and cost `logical_pool` (the Lanes arm, which this function's Scalar
    // arm must not disturb) ≈ 3 % in the repository benchmark.
    match path {
        KernelPath::Scalar => match (&v.di, &v.dj) {
            (Some(di), Some(dj)) => {
                let apq = match rule {
                    PairingRule::Implicit => dot(v.ui, v.aj),
                    PairingRule::Gram => dot(v.ai, v.aj),
                };
                (**di, apq, **dj)
            }
            // Uncached, or a mixed cache (one side of a cross-block pair
            // carries none): both diagonals are recomputed, in one fused
            // pass over the pair's columns.
            _ => match rule {
                PairingRule::Implicit => fused_triple_exact(v.ui, v.ai, v.uj, v.aj),
                PairingRule::Gram => fused_triple_exact(v.ai, v.ai, v.aj, v.aj),
            },
        },
        KernelPath::Lanes => match (&v.di, &v.dj) {
            (Some(di), Some(dj)) => {
                let apq = match rule {
                    PairingRule::Implicit => dot_lanes(v.ui, v.aj),
                    PairingRule::Gram => dot_lanes(v.ai, v.aj),
                };
                (**di, apq, **dj)
            }
            _ => match rule {
                PairingRule::Implicit => fused_triple(v.ui, v.ai, v.uj, v.aj),
                PairingRule::Gram => fused_triple(v.ai, v.ai, v.aj, v.aj),
            },
        },
    }
}

/// What a pairing's 2×2 block asks for: the off-diagonal measure it shows,
/// and the rotation annihilating it unless there is nothing to annihilate.
#[inline(always)]
fn pair_angle(
    (app, apq, aqq): (f64, f64, f64),
    rule: PairingRule,
) -> (f64, Option<JacobiRotation>) {
    let off_before = match rule {
        PairingRule::Implicit => apq.abs(),
        PairingRule::Gram => {
            // Cached Gram diagonals can round to tiny negatives; clamp so
            // the cosine stays well-defined.
            let denom = (app * aqq).max(0.0).sqrt();
            if denom > 0.0 {
                apq.abs() / denom
            } else {
                0.0
            }
        }
    };
    // `off_before <= 0.0` also skips a Gram pair whose cosine is undefined
    // (a zero or NaN norm reads 0) although `apq` is not zero.
    let skip = off_before <= 0.0 || apq == 0.0;
    (off_before, (!skip).then(|| symmetric_schur(app, apq, aqq)))
}

/// Applies what [`pair_angle`] decided for the block `(app, apq, aqq)` to
/// the pairing's columns and cache slots.
#[inline(always)]
fn pair_rotate_by(
    mut v: PairViewMut<'_>,
    (app, apq, aqq): (f64, f64, f64),
    (off_before, rot): (f64, Option<JacobiRotation>),
) -> PairOutcome {
    let Some(rot) = rot else {
        return PairOutcome { off_before, rotated: false };
    };
    v.rotate_with(rot.c, rot.s);
    if v.di.is_some() || v.dj.is_some() {
        // The rotation annihilates the off-diagonal; the new diagonal is
        // the exact 2×2 similarity image of the old block. Update every
        // populated cache slot — including the mixed case where only one
        // side of a cross-block pair carries a cache (app/aqq were then
        // recomputed exactly above, so the surviving slot stays current).
        let (pp, _, qq) = apply_to_block(rot, app, apq, aqq);
        if let Some(di) = v.di {
            *di = pp;
        }
        if let Some(dj) = v.dj {
            *dj = qq;
        }
    }
    PairOutcome { off_before, rotated: true }
}

/// Exactly recomputes a block's cached diagonals under `rule` — the
/// periodic refresh bounding the drift of the incremental updates. Call at
/// the start of every sweep when diagonal caching is enabled.
pub fn refresh_block_diag(block: &mut ColumnBlock, rule: PairingRule) {
    block.refresh_diag(|a, u| rule.diag_entry(a, u));
}

/// Pairs every column pair within `block` (ascending `(i, j)`, `i < j`) —
/// the paper's step (1): "pair each column of a block with the remaining
/// columns of the same block".
pub fn pair_within_block(block: &mut ColumnBlock, rule: PairingRule) -> SweepAccumulator {
    let mut acc = SweepAccumulator::default();
    let b = block.len();
    for i in 0..b {
        for j in (i + 1)..b {
            acc.absorb(pair_view(block.pair_mut(i, j), rule));
        }
    }
    acc
}

/// Pairs every column of `left` with every column of `right` — the paper's
/// step (2): "pair each column of a block with all the columns of the
/// other block". `left` plays the `i` role (its columns are rotated as
/// `c·a_i − s·a_j`), matching the slot-0/slot-1 roles of the threaded
/// driver and the `(b0, b1)` order of the sweep trace.
pub fn pair_across_blocks(
    left: &mut ColumnBlock,
    right: &mut ColumnBlock,
    rule: PairingRule,
) -> SweepAccumulator {
    let mut acc = SweepAccumulator::default();
    for i in 0..left.len() {
        for j in 0..right.len() {
            acc.absorb(pair_view(cross_pair_mut(left, i, right, j), rule));
        }
    }
    acc
}

/// Columns per tile of every sweep, serial or tournament. What bounds it is
/// L1 *associativity*, not capacity: with `m = 256` rows a `(A|U)` unit is
/// exactly 4 KiB, so every column maps its lines onto the same sets and a
/// 12-way L1d holds 12 columns, whatever its size. A rectangle's walk
/// ([`two_row_steps`]) keeps two left columns and the right tile live —
/// 10 columns (9 before the walk took two rows at a time), with room for
/// the next two left columns to arrive before the last two are dropped.
/// Walking whole anti-diagonals of an 8 × 8 tile pair instead (16 columns
/// live) read `logical_solve` 4.62 against 4.08 — 13 % *slower* than one
/// pairing at a time — so a wider walk needs a narrower tile.
const ACROSS_TILE: usize = 8;

/// Rounds of the circle-method tournament among `b` indices: `b − 1` for
/// even `b`, `b` (one bye per round) for odd `b`, none below two.
fn within_round_count(b: usize) -> usize {
    if b < 2 {
        0
    } else {
        b + b % 2 - 1
    }
}

/// Appends round `r` of the circle-method tournament for all pairs among
/// `b` indices, each index shifted by `offset`: `⌊b/2⌋` disjoint pairs (one
/// fewer in a bye round), every unordered pair `{i, j}` appearing in
/// exactly one of the [`within_round_count`] rounds, oriented `(min, max)`.
/// The kernel schedules *column tiles* with it: because a round's pairs
/// share no index — hence no column — they commute exactly, which is what
/// lets the pool apply them concurrently with bits independent of the
/// worker count.
fn push_within_round(b: usize, r: usize, offset: usize, out: &mut Vec<(usize, usize)>) {
    debug_assert!(r < within_round_count(b));
    let n = b + b % 2; // pad to even with a bye index (n − 1 ≥ b)
    let ring = |k: usize| 1 + k % (n - 1);
    let mut push = |x: usize, y: usize| {
        if x < b && y < b {
            out.push((offset + x.min(y), offset + x.max(y)));
        }
    };
    push(0, ring(r + n - 2));
    for k in 0..n / 2 - 1 {
        push(ring(r + k), ring(r + n - 3 - k));
    }
}

/// Appends round `r` of the cross tournament on `bl` left × `br` right
/// indices (shifted by `loff` / `roff`): the pairs `(i, (i + r) mod max)`
/// that land inside the right range. Over the `max(bl, br)` rounds each of
/// the `bl·br` cross pairs appears exactly once (`r = (j − i) mod max`),
/// and a round's pairs are disjoint on both sides. The kernel schedules
/// left/right *column tiles* with it.
fn push_across_round(
    (bl, br): (usize, usize),
    r: usize,
    (loff, roff): (usize, usize),
    out: &mut Vec<(usize, usize)>,
) {
    let rmax = bl.max(br);
    debug_assert!(r < rmax);
    out.extend((0..bl).filter_map(|i| {
        let j = (i + r) % rmax;
        (j < br).then_some((loff + i, roff + j))
    }));
}

/// Least work a thread must be given in a round — in pairings × column
/// elements, a tile task counted as `ACROSS_TILE²` pairings — before the
/// round is shared out. Waking a parked helper on another CPU and waiting
/// for it to finish costs ≈ 25 µs where this was measured (two virtual
/// CPUs), in which the lane kernels pair ≈ 55 000 column elements; a lane
/// is seated only for more than twice that. Rounds below it (one 16-column
/// block pair at `m = 256` is half a grain) run on the calling thread, so
/// the pool is never a loss; a solver step of eight such pairs seats four
/// lanes.
const LANE_GRAIN: usize = 1 << 17;

/// One tile of a tournament call's tile table: up to [`ACROSS_TILE`]
/// column views of one block. A round's tasks name tiles by index; the
/// thread that claims a task locks its tiles for the task's duration. The
/// schedules never put a tile in two tasks of one round, so the lock is
/// never contended — it is what lets the table be built once per call and
/// shared by reference across every round and thread.
type Tile<'t, 'a> = Mutex<&'t mut [ColumnViewMut<'a>]>;

/// Locks tile `t` for one task — panicking if another task of the round
/// holds it, which the tournament schedules rule out.
fn claim<'g, 't, 'a>(
    tiles: &'g [Tile<'t, 'a>],
    t: usize,
) -> MutexGuard<'g, &'t mut [ColumnViewMut<'a>]> {
    tiles[t].try_lock().expect("tournament tiles are column-disjoint")
}

/// The state one solve (or one node) carries between the kernel's
/// tournament calls: the parked helper pool and the round scratch buffer,
/// so that a call spawns no thread and a round allocates nothing. Built by
/// [`SweepKernel::tournament`]; a `workers ≤ 1` tournament owns no thread.
pub struct Tournament {
    pool: PairingPool,
    /// The round being run: `(u, v)` tile-index pairs, `u == v` for a
    /// tile's internal pairs.
    round: Vec<(usize, usize)>,
    /// One claim cursor per lane of the pool, into that lane's segment of
    /// `round`.
    cursors: Vec<AtomicUsize>,
}

impl Tournament {
    /// The threads a `workers`-wide kernel can keep busy on calls over
    /// blocks of `block_cols` columns: `workers`, clamped to the tile count
    /// of the blocks — the tasks of the first round of
    /// [`SweepKernel::within`], the largest any call schedules.
    pub(crate) fn lanes(workers: usize, block_cols: impl IntoIterator<Item = usize>) -> usize {
        workers.min(block_cols.into_iter().map(|c| c.div_ceil(ACROSS_TILE)).sum())
    }

    /// A tournament whose pool is the caller plus `lanes − 1` helpers.
    pub(crate) fn with_lanes(lanes: usize) -> Self {
        Tournament {
            pool: PairingPool::new(lanes),
            round: Vec::new(),
            cursors: (0..lanes.max(1)).map(|_| AtomicUsize::new(0)).collect(),
        }
    }
}

/// One sub-sweep's pairing configuration — rule, kernel path and worker
/// count — threaded from `JacobiOptions` through every driver so the
/// logical, threaded, and batch drivers keep performing identical
/// floating-point work for identical options.
///
/// Every sweep is made of one routine: the rectangle of pairings between
/// two `ACROSS_TILE`-wide column tiles, walked two rows at a time with two
/// column-disjoint pairings in flight (`two_row_steps`). With
/// `workers == 0` (the default) the sweeps visit the tile pairs in the
/// legacy serial row-major order — with the walk inside a rectangle, a pure
/// reordering of *commuting* operations that preserves every bit of the
/// untiled reference ([`pair_within_block`]/[`pair_across_blocks`],
/// asserted in tests). With `workers ≥ 1` the sweeps run the deterministic
/// *tile tournament*: `push_within_round`/`push_across_round` schedule
/// rounds of column-disjoint tile tasks, each task one such rectangle (or
/// one tile's triangle). A call takes every block it may touch at once — all blocks'
/// `within`, a whole step's node-disjoint block pairs — and merges round
/// `r` of all of them into one round, so the synchronisations per call are
/// those of its *largest* block pair, whatever the block count.
///
/// Tasks of a round share no column, so they commute exactly, and the
/// accumulator is a sum/max: the threads of the [`Tournament`]'s pool claim
/// the round's tasks from shared cursors — whichever thread is free takes
/// the next one — and the bits are identical for every worker count, every
/// claim order, and every grouping of blocks into calls. `workers == 1`
/// runs the same rounds on the calling thread, as does any round too small
/// to repay waking a helper (`LANE_GRAIN`).
#[derive(Debug, Clone, Copy)]
pub struct SweepKernel {
    /// How pairings derive their 2×2 block.
    pub rule: PairingRule,
    /// Which inner products the pairings take: the reference bits or the
    /// reassociated reductions.
    pub path: KernelPath,
    /// Threads a tournament round may use (0 = legacy serial order).
    pub workers: usize,
}

impl SweepKernel {
    /// The kernel a driver derives from its options.
    pub fn from_options(rule: PairingRule, opts: &JacobiOptions) -> Self {
        SweepKernel { rule, path: opts.kernel, workers: opts.workers }
    }

    /// The scalar serial reference kernel.
    pub fn reference(rule: PairingRule) -> Self {
        SweepKernel { rule, path: KernelPath::Scalar, workers: 0 }
    }

    /// The [`Tournament`] a solve with this kernel runs its calls on;
    /// `block_cols` are the column counts of the blocks one call can hold.
    /// It owns `workers − 1` helper threads, clamped to the most tasks one
    /// round over such blocks can hold, so any `workers` is safe.
    pub fn tournament(&self, block_cols: impl IntoIterator<Item = usize>) -> Tournament {
        Tournament::with_lanes(Tournament::lanes(self.workers, block_cols))
    }

    /// Pairs every column pair within each of `blocks` —
    /// [`pair_within_block`] per block on this kernel's path/worker
    /// configuration, the blocks' tournaments merged round by round.
    pub fn within<'b>(
        &self,
        tour: &mut Tournament,
        blocks: impl IntoIterator<Item = &'b mut ColumnBlock>,
    ) -> SweepAccumulator {
        if self.workers == 0 {
            let mut acc = SweepAccumulator::default();
            for block in blocks {
                acc.merge(self.within_serial(block));
            }
            return acc;
        }
        let mut blocks: Vec<&mut ColumnBlock> = blocks.into_iter().collect();
        self.run_tournament(tour, &mut blocks, |first, r, round| match r {
            // Round 0: every tile's internal pairs — the tiles are disjoint.
            0 => round.extend((0..first[first.len() - 1]).map(|t| (t, t))),
            // Then each block's tile tournament: rounds of disjoint tile
            // pairs, each a row-major micro-sweep (tile u < tile v ⇒ every
            // i < every j).
            _ => {
                for w in first.windows(2) {
                    let nt = w[1] - w[0];
                    if r - 1 < within_round_count(nt) {
                        push_within_round(nt, r - 1, w[0], round);
                    }
                }
            }
        })
    }

    /// Pairs every column of `left` with every column of `right` —
    /// [`pair_across_blocks`] on this kernel's path/worker configuration.
    /// `left` plays the `i` role, exactly as in the serial form.
    pub fn across(
        &self,
        tour: &mut Tournament,
        left: &mut ColumnBlock,
        right: &mut ColumnBlock,
    ) -> SweepAccumulator {
        if self.workers == 0 {
            return self.across_serial(left, right);
        }
        self.across_merged(tour, &mut [left, right], &[(0, 1)])
    }

    /// [`Self::across`] for every `(left, right)` index pair of one solver
    /// step at once. The pairs must be block-disjoint (a step pairs the two
    /// blocks co-located at each node, so they are): round `r` of every
    /// pair's tournament then runs as one merged round.
    ///
    /// # Panics
    /// Panics if a block index repeats within `pairs` or is out of range.
    pub fn across_step(
        &self,
        tour: &mut Tournament,
        blocks: &mut [ColumnBlock],
        pairs: &[(usize, usize)],
    ) -> SweepAccumulator {
        if self.workers == 0 {
            let mut acc = SweepAccumulator::default();
            for &(b0, b1) in pairs {
                let (left, right) = two_blocks_mut(blocks, b0, b1);
                acc.merge(self.across_serial(left, right));
            }
            return acc;
        }
        let mut blocks: Vec<&mut ColumnBlock> = blocks.iter_mut().collect();
        self.across_merged(tour, &mut blocks, pairs)
    }

    fn across_merged(
        &self,
        tour: &mut Tournament,
        blocks: &mut [&mut ColumnBlock],
        pairs: &[(usize, usize)],
    ) -> SweepAccumulator {
        let mut paired = vec![false; blocks.len()];
        for &(b0, b1) in pairs {
            for b in [b0, b1] {
                assert!(!std::mem::replace(&mut paired[b], true), "block {b} paired twice");
            }
        }
        self.run_tournament(tour, blocks, |first, r, round| {
            for &(b0, b1) in pairs {
                let shape = (first[b0 + 1] - first[b0], first[b1 + 1] - first[b1]);
                if r < shape.0.max(shape.1) {
                    push_across_round(shape, r, (first[b0], first[b1]), round);
                }
            }
        })
    }

    /// Runs the rounds `fill` schedules over the tiles of `blocks` until it
    /// schedules an empty one. `fill(first, r, round)` appends round `r`'s
    /// tasks as tile-index pairs (`(t, t)` = tile `t`'s internal pairs),
    /// where block `b` owns tiles `first[b]..first[b + 1]`.
    ///
    /// The column views and the tile table are built once for the whole
    /// call; a round is one [`PairingPool::run`].
    fn run_tournament(
        &self,
        tour: &mut Tournament,
        blocks: &mut [&mut ColumnBlock],
        fill: impl Fn(&[usize], usize, &mut Vec<(usize, usize)>),
    ) -> SweepAccumulator {
        let lens: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        // Upper bound of one tile task's work, in units of `LANE_GRAIN`.
        let column = blocks.iter().map(|b| b.arows() + b.urows()).max().unwrap_or(0);
        let task_work = ACROSS_TILE * ACROSS_TILE * column;
        let mut cols: Vec<ColumnViewMut<'_>> = Vec::with_capacity(lens.iter().sum());
        for block in blocks.iter_mut() {
            cols.extend(block.columns_mut());
        }
        let mut first = Vec::with_capacity(lens.len() + 1);
        let mut tiles: Vec<Tile<'_, '_>> = Vec::new();
        let mut rest = cols.as_mut_slice();
        for &len in &lens {
            let (block_cols, tail) = rest.split_at_mut(len);
            rest = tail;
            first.push(tiles.len());
            tiles.extend(block_cols.chunks_mut(ACROSS_TILE).map(Mutex::new));
        }
        first.push(tiles.len());

        let total = Mutex::new(SweepAccumulator::default());
        let Tournament { pool, round, cursors } = tour;
        for r in 0.. {
            round.clear();
            fill(&first, r, round);
            if round.is_empty() {
                break;
            }
            // As many lanes as the round has grains of work for. Lane `l`
            // owns the `l`-th of `lanes` equal segments of the round; rounds
            // list their tasks block by block, so a lane keeps meeting the
            // same blocks — whose columns then stay in its core's cache
            // from one round to the next.
            let grains = (round.len() * task_work / LANE_GRAIN).max(1);
            let lanes = self.workers.min(round.len()).min(cursors.len()).min(grains);
            let segment = |l: usize| l * round.len() / lanes;
            for (l, cursor) in cursors[..lanes].iter().enumerate() {
                cursor.store(segment(l), Ordering::Relaxed);
            }
            let (round, tiles, cursors) = (&*round, &tiles, &*cursors);
            pool.run(lanes, &|lane| {
                let mut acc = SweepAccumulator::default();
                // Own segment first, then whatever the other lanes have not
                // claimed yet: no thread idles while tasks remain, and a
                // lane whose thread never got scheduled loses its segment
                // to the others. The cursors publish no data — a task's
                // columns were last written before this round began, which
                // `PairingPool::run` orders through its lock — so `Relaxed`
                // suffices.
                for l in (lane..lanes).chain(0..lane) {
                    loop {
                        let t = cursors[l].fetch_add(1, Ordering::Relaxed);
                        if t >= segment(l + 1) {
                            break;
                        }
                        let (u, v) = round[t];
                        let mut left = claim(tiles, u);
                        if u == v {
                            self.sweep_tile(&mut left, &mut acc);
                        } else {
                            self.sweep_tile_pair(&mut left, &mut claim(tiles, v), &mut acc);
                        }
                    }
                }
                total.lock().expect("merging accumulators cannot panic").merge(acc);
            });
        }
        total.into_inner().expect("merging accumulators cannot panic")
    }

    /// Serial within-block sweep: the block's tiles in row-major order — for
    /// each tile, its rectangles against the tiles to its left, then its
    /// own triangle. For ops sharing a column the row-major relative order
    /// is preserved (for a shared left column, `j` still ascends across
    /// tiles; for a shared right column, `i` still ascends across the left
    /// tiles and inside each — [`two_row_steps`]), and ops sharing no column
    /// commute exactly — so the tiling is bitwise invisible.
    fn within_serial(&self, block: &mut ColumnBlock) -> SweepAccumulator {
        let mut acc = SweepAccumulator::default();
        for t0 in (0..block.len()).step_by(ACROSS_TILE) {
            for s0 in (0..t0).step_by(ACROSS_TILE) {
                let [mut left, mut right] = block.tiles_mut::<ACROSS_TILE, 2>([s0, t0]);
                self.sweep_tile_pair(&mut left, &mut right, &mut acc);
            }
            let [mut tile] = block.tiles_mut::<ACROSS_TILE, 1>([t0]);
            self.sweep_tile(&mut tile, &mut acc);
        }
        acc
    }

    /// Serial cross-block sweep: for each tile of the right block, the
    /// rectangles against the left block's tiles in order — same
    /// bitwise-invisible reordering argument as [`Self::within_serial`].
    fn across_serial(&self, left: &mut ColumnBlock, right: &mut ColumnBlock) -> SweepAccumulator {
        let mut acc = SweepAccumulator::default();
        for t0 in (0..right.len()).step_by(ACROSS_TILE) {
            let [mut rcols] = right.tiles_mut::<ACROSS_TILE, 1>([t0]);
            for s0 in (0..left.len()).step_by(ACROSS_TILE) {
                let [mut lcols] = left.tiles_mut::<ACROSS_TILE, 1>([s0]);
                self.sweep_tile_pair(&mut lcols, &mut rcols, &mut acc);
            }
        }
        acc
    }

    /// Serially sweeps one tile's internal pairs, row-major `i < j`: row
    /// `i` is a one-row rectangle, which [`two_row_steps`] walks singly.
    fn sweep_tile(&self, cols: &mut [ColumnViewMut<'_>], acc: &mut SweepAccumulator) {
        for i in 0..cols.len().saturating_sub(1) {
            let (lo, hi) = cols.split_at_mut(i + 1);
            self.sweep_tile_pair(&mut lo[i..], hi, acc);
        }
    }

    /// Sweeps a left tile × right tile rectangle in the order of
    /// [`two_row_steps`] — the L1-resident inner loop of every sweep, serial
    /// or tournament: two left columns walk the right tile, each reused
    /// against all of it before the next two. The views are reborrowed per
    /// pairing ([`ColumnViewMut::pair_mut`]).
    fn sweep_tile_pair(
        &self,
        lcols: &mut [ColumnViewMut<'_>],
        rcols: &mut [ColumnViewMut<'_>],
        acc: &mut SweepAccumulator,
    ) {
        let SweepKernel { rule, path, .. } = *self;
        two_row_steps(lcols.len(), rcols.len(), |(i, j), abreast| match abreast {
            None => {
                let pair = ColumnViewMut::pair_mut(&mut lcols[i], &mut rcols[j]);
                acc.absorb(pair_view_with(pair, rule, path));
            }
            Some((i1, j1)) => {
                let [ci, ci1] = lcols.get_disjoint_mut([i, i1]).expect("a step's rows differ");
                let [cj, cj1] = rcols.get_disjoint_mut([j, j1]).expect("a step's columns differ");
                let pairs = [ColumnViewMut::pair_mut(ci, cj), ColumnViewMut::pair_mut(ci1, cj1)];
                for outcome in pair_view2_with(pairs, rule, path) {
                    acc.absorb(outcome);
                }
            }
        });
    }
}

/// The order every sweep walks an `nl × nr` rectangle of pairings in:
/// `step((i, j), abreast)` per step, `abreast` a second pairing that shares
/// no column with the first.
///
/// Rows are taken two at a time, the odd row one step behind the even one:
/// `(2r, j)` goes abreast of `(2r + 1, j − 1)`, and `(2r + 2, 0)` of
/// `(2r + 1, nr − 1)`. Pairing `(i, j)` still comes after `(i, j − 1)` and
/// `(i − 1, j)`, so each column meets its partners in row-major order —
/// which, column-disjoint pairings commuting exactly, makes this walk
/// bitwise the row-major one. An odd last row goes singly, as does all of a
/// one-column rectangle, whose pairings all share that column.
fn two_row_steps(
    nl: usize,
    nr: usize,
    mut step: impl FnMut((usize, usize), Option<(usize, usize)>),
) {
    if nr == 1 {
        return (0..nl).for_each(|i| step((i, 0), None));
    }
    // The odd-row pairing below the previous step's even-row one.
    let mut behind = None;
    for i in (0..nl).step_by(2) {
        for j in 0..nr {
            step((i, j), behind);
            behind = (i + 1 < nl).then_some((i + 1, j));
        }
    }
    if let Some(last) = behind {
        step(last, None);
    }
}

/// Per-sweep statistics accumulated across pairings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepAccumulator {
    /// Rotations applied.
    pub rotations: u64,
    /// Pairings examined.
    pub pairings: u64,
    /// Max off-diagonal measure observed before rotation (`|M_ij|` for the
    /// eigensolver, the column cosine for the SVD). The SVD drivers stop on
    /// it; the eigensolvers stop on the post-sweep [`crate::offnorm`].
    pub max_off: f64,
}

impl SweepAccumulator {
    fn absorb(&mut self, o: PairOutcome) {
        self.pairings += 1;
        if o.rotated {
            self.rotations += 1;
        }
        if o.off_before > self.max_off {
            self.max_off = o.off_before;
        }
    }

    pub fn merge(&mut self, other: SweepAccumulator) {
        self.rotations += other.rotations;
        self.pairings += other.pairings;
        self.max_off = self.max_off.max(other.max_off);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_linalg::matmul::at_b;
    use mph_linalg::symmetric::random_symmetric;
    use mph_linalg::Matrix;

    /// Pairs columns `i` and `j` of the full matrices `(a, u)`, annihilating
    /// `M_ij` — the whole-matrix oracle the block pairings are checked against.
    fn pair_columns(a: &mut Matrix, u: &mut Matrix, i: usize, j: usize) -> PairOutcome {
        debug_assert!(i != j);
        let (ai, aj) = a.col_pair_mut(i, j);
        let (ui, uj) = u.col_pair_mut(i, j);
        pair_view(PairViewMut { ai, ui, aj, uj, di: None, dj: None }, PairingRule::Implicit)
    }

    /// Pairs every column pair within `cols` (ascending `(i, j)`, `i < j`) on
    /// full matrices.
    fn pair_within(
        a: &mut Matrix,
        u: &mut Matrix,
        cols: std::ops::Range<usize>,
    ) -> SweepAccumulator {
        let mut acc = SweepAccumulator::default();
        for i in cols.clone() {
            for j in (i + 1)..cols.end {
                acc.absorb(pair_columns(a, u, i, j));
            }
        }
        acc
    }

    /// Pairs every column of `left` with every column of `right` (disjoint
    /// ranges) on full matrices.
    fn pair_across(
        a: &mut Matrix,
        u: &mut Matrix,
        left: std::ops::Range<usize>,
        right: std::ops::Range<usize>,
    ) -> SweepAccumulator {
        debug_assert!(left.end <= right.start || right.end <= left.start);
        let mut acc = SweepAccumulator::default();
        for i in left {
            for j in right.clone() {
                acc.absorb(pair_columns(a, u, i, j));
            }
        }
        acc
    }

    fn implicit_entry(a: &Matrix, u: &Matrix, i: usize, j: usize) -> f64 {
        dot(u.col(i), a.col(j))
    }

    fn within_rounds(b: usize) -> Vec<Vec<(usize, usize)>> {
        (0..within_round_count(b))
            .map(|r| {
                let mut round = Vec::new();
                push_within_round(b, r, 0, &mut round);
                round
            })
            .collect()
    }

    fn across_rounds(bl: usize, br: usize) -> Vec<Vec<(usize, usize)>> {
        (0..bl.max(br))
            .map(|r| {
                let mut round = Vec::new();
                push_across_round((bl, br), r, (0, 0), &mut round);
                round
            })
            .collect()
    }

    /// One kernel sweep of a two-block problem: both `within`s, then the
    /// cross pairing.
    fn sweep_two(
        kern: &SweepKernel,
        left: &mut ColumnBlock,
        right: &mut ColumnBlock,
    ) -> SweepAccumulator {
        let mut tour = kern.tournament([left.len(), right.len()]);
        let mut acc = kern.within(&mut tour, [&mut *left, &mut *right]);
        acc.merge(kern.across(&mut tour, left, right));
        acc
    }

    /// The reference pairing as it was executed before the exact kernels,
    /// kept as the oracle `pair_view_with(.., Scalar)` must match bit for
    /// bit: one `dot` per inner product and the portable scalar rotation.
    fn pair_view_oracle(mut v: PairViewMut<'_>, rule: PairingRule) -> PairOutcome {
        let (app, aqq) = match (&v.di, &v.dj) {
            (Some(di), Some(dj)) => (**di, **dj),
            _ => (rule.diag_entry(v.ai, v.ui), rule.diag_entry(v.aj, v.uj)),
        };
        let apq = match rule {
            PairingRule::Implicit => dot(v.ui, v.aj),
            PairingRule::Gram => dot(v.ai, v.aj),
        };
        let off_before = match rule {
            PairingRule::Implicit => apq.abs(),
            PairingRule::Gram => {
                let denom = (app * aqq).max(0.0).sqrt();
                if denom > 0.0 {
                    apq.abs() / denom
                } else {
                    0.0
                }
            }
        };
        if off_before <= 0.0 || apq == 0.0 {
            return PairOutcome { off_before, rotated: false };
        }
        let rot = symmetric_schur(app, apq, aqq);
        v.rotate(rot.c, rot.s);
        let (pp, _, qq) = apply_to_block(rot, app, apq, aqq);
        if let Some(di) = v.di {
            *di = pp;
        }
        if let Some(dj) = v.dj {
            *dj = qq;
        }
        PairOutcome { off_before, rotated: true }
    }

    #[test]
    fn the_scalar_pairing_is_bitwise_the_three_dot_oracle() {
        // Both rules; no cache, both caches, and the mixed cache of a
        // cross-block pair; column lengths of every remainder mod 4; the
        // Gram rule on tall rectangular blocks, where the `W`-columns are
        // longer than the `V`-columns. Two sweeps, so the second runs on
        // generic (not identity) `U`-columns.
        for (rule, extra_rows) in [(PairingRule::Implicit, 0), (PairingRule::Gram, 9)] {
            for n in [8usize, 9, 10, 11] {
                let square = random_symmetric(n + extra_rows, 40 + n as u64);
                let a0 = Matrix::from_fn(n + extra_rows, n, |r, c| square[(r, c)]);
                for (cache_left, cache_right) in [(false, false), (true, true), (true, false)] {
                    let mut left = ColumnBlock::from_matrix_with_identity(&a0, 0..n / 2, n);
                    let mut right = ColumnBlock::from_matrix_with_identity(&a0, n / 2..n, n);
                    if cache_left {
                        refresh_block_diag(&mut left, rule);
                    }
                    if cache_right {
                        refresh_block_diag(&mut right, rule);
                    }
                    let (mut want_left, mut want_right) = (left.clone(), right.clone());
                    for _sweep in 0..2 {
                        for i in 0..left.len() {
                            for j in i + 1..left.len() {
                                let got = pair_view(left.pair_mut(i, j), rule);
                                let want = pair_view_oracle(want_left.pair_mut(i, j), rule);
                                assert_eq!(got, want, "{rule:?} n={n} within ({i},{j})");
                            }
                            for j in 0..right.len() {
                                let got =
                                    pair_view(cross_pair_mut(&mut left, i, &mut right, j), rule);
                                let want = pair_view_oracle(
                                    cross_pair_mut(&mut want_left, i, &mut want_right, j),
                                    rule,
                                );
                                assert_eq!(got, want, "{rule:?} n={n} across ({i},{j})");
                            }
                        }
                    }
                    let what = format!("{rule:?} n={n} cache=({cache_left},{cache_right})");
                    assert_eq!(left, want_left, "{what}");
                    assert_eq!(right, want_right, "{what}");
                }
            }
        }
    }

    #[test]
    fn pairing_annihilates_the_entry() {
        let a0 = random_symmetric(6, 11);
        let mut a = a0.clone();
        let mut u = Matrix::identity(6);
        let before = implicit_entry(&a, &u, 1, 4).abs();
        assert!(before > 0.0);
        let out = pair_columns(&mut a, &mut u, 1, 4);
        assert!(out.rotated);
        assert!((out.off_before - before).abs() < 1e-15);
        let after = implicit_entry(&a, &u, 1, 4).abs();
        assert!(after < 1e-12, "M_14 = {after} after rotation");
    }

    #[test]
    fn pairing_preserves_the_invariant_a_equals_a0_u() {
        // A must remain A₀·U through rotations.
        let a0 = random_symmetric(5, 3);
        let mut a = a0.clone();
        let mut u = Matrix::identity(5);
        for (i, j) in [(0, 1), (2, 4), (1, 3), (0, 4), (3, 4)] {
            pair_columns(&mut a, &mut u, i, j);
        }
        let a0u = mph_linalg::matmul::matmul(&a0, &u);
        for c in 0..5 {
            for r in 0..5 {
                assert!((a0u[(r, c)] - a[(r, c)]).abs() < 1e-12, "A ≠ A₀U at ({r},{c})");
            }
        }
    }

    #[test]
    fn u_stays_orthogonal() {
        let a0 = random_symmetric(7, 9);
        let mut a = a0.clone();
        let mut u = Matrix::identity(7);
        for i in 0..7 {
            for j in (i + 1)..7 {
                pair_columns(&mut a, &mut u, i, j);
            }
        }
        let g = at_b(&u, &u);
        for i in 0..7 {
            for j in 0..7 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((g[(i, j)] - want).abs() < 1e-13, "UᵀU ≠ I at ({i},{j})");
            }
        }
    }

    #[test]
    fn pair_within_covers_all_internal_pairs() {
        let a0 = random_symmetric(6, 21);
        let mut a = a0.clone();
        let mut u = Matrix::identity(6);
        let acc = pair_within(&mut a, &mut u, 1..4);
        assert_eq!(acc.pairings, 3); // (1,2) (1,3) (2,3)
    }

    #[test]
    fn pair_across_covers_the_product() {
        let a0 = random_symmetric(6, 22);
        let mut a = a0.clone();
        let mut u = Matrix::identity(6);
        let acc = pair_across(&mut a, &mut u, 0..2, 3..6);
        assert_eq!(acc.pairings, 6);
    }

    #[test]
    fn block_kernel_is_bitwise_equal_to_matrix_kernel() {
        // The structural guarantee in miniature: the same pairings through
        // ColumnBlock storage and through full matrices give the same bits.
        let m = 8;
        let a0 = random_symmetric(m, 33);
        let mut a = a0.clone();
        let mut u = Matrix::identity(m);
        let mut left = ColumnBlock::from_matrix_with_identity(&a0, 0..4, m);
        let mut right = ColumnBlock::from_matrix_with_identity(&a0, 4..8, m);

        let mut acc_m = pair_within(&mut a, &mut u, 0..4);
        acc_m.merge(pair_within(&mut a, &mut u, 4..8));
        acc_m.merge(pair_across(&mut a, &mut u, 0..4, 4..8));

        let mut acc_b = pair_within_block(&mut left, PairingRule::Implicit);
        acc_b.merge(pair_within_block(&mut right, PairingRule::Implicit));
        acc_b.merge(pair_across_blocks(&mut left, &mut right, PairingRule::Implicit));

        assert_eq!(acc_m, acc_b);
        for k in 0..4 {
            assert_eq!(left.a_col(k), a.col(k), "A col {k}");
            assert_eq!(left.u_col(k), u.col(k), "U col {k}");
            assert_eq!(right.a_col(k), a.col(4 + k), "A col {}", 4 + k);
            assert_eq!(right.u_col(k), u.col(4 + k), "U col {}", 4 + k);
        }
    }

    #[test]
    fn cached_diagonals_track_exact_recomputation() {
        let m = 10;
        let a0 = random_symmetric(m, 77);
        let mut blk = ColumnBlock::from_matrix_with_identity(&a0, 0..m, m);
        refresh_block_diag(&mut blk, PairingRule::Implicit);
        let _ = pair_within_block(&mut blk, PairingRule::Implicit);
        for k in 0..m {
            let exact = dot(blk.u_col(k), blk.a_col(k));
            let cached = blk.diag()[k];
            assert!(
                (exact - cached).abs() <= 1e-16f64.max(1e-13 * exact.abs()),
                "col {k}: cached {cached} vs exact {exact}"
            );
        }
    }

    #[test]
    fn one_sided_cache_stays_current_across_mixed_pairings() {
        // Only the left block carries a diag cache; cross pairings must
        // keep it current rather than silently leaving it stale.
        let m = 8;
        let a0 = random_symmetric(m, 55);
        let mut left = ColumnBlock::from_matrix_with_identity(&a0, 0..4, m);
        let mut right = ColumnBlock::from_matrix_with_identity(&a0, 4..8, m);
        refresh_block_diag(&mut left, PairingRule::Implicit);
        let acc = pair_across_blocks(&mut left, &mut right, PairingRule::Implicit);
        assert!(acc.rotations > 0);
        for k in 0..4 {
            let exact = dot(left.u_col(k), left.a_col(k));
            let cached = left.diag()[k];
            assert!(
                (exact - cached).abs() <= 1e-16f64.max(1e-13 * exact.abs()),
                "col {k}: cached {cached} vs exact {exact}"
            );
        }
    }

    #[test]
    fn gram_rule_orthogonalizes_columns() {
        let a0 = random_symmetric(6, 41);
        let mut blk = ColumnBlock::from_matrix_with_identity(&a0, 0..6, 6);
        for _ in 0..8 {
            let acc = pair_within_block(&mut blk, PairingRule::Gram);
            if acc.rotations == 0 {
                break;
            }
        }
        for i in 0..6 {
            for j in (i + 1)..6 {
                let wij = dot(blk.a_col(i), blk.a_col(j));
                let ni = dot(blk.a_col(i), blk.a_col(i)).sqrt();
                let nj = dot(blk.a_col(j), blk.a_col(j)).sqrt();
                assert!(wij.abs() <= 1e-8 * (ni * nj).max(1e-30), "({i},{j}): {wij}");
            }
        }
    }

    #[test]
    fn within_rounds_cover_every_pair_once_with_disjoint_rounds() {
        for b in 0..=9usize {
            let rounds = within_rounds(b);
            let mut seen = std::collections::HashSet::new();
            for round in &rounds {
                let mut used = std::collections::HashSet::new();
                for &(i, j) in round {
                    assert!(i < j && j < b, "b={b}: bad pair ({i},{j})");
                    assert!(used.insert(i) && used.insert(j), "b={b}: round reuses a column");
                    assert!(seen.insert((i, j)), "b={b}: pair ({i},{j}) repeated");
                }
            }
            assert_eq!(seen.len(), b * b.saturating_sub(1) / 2, "b={b}");
        }
    }

    #[test]
    fn across_rounds_cover_the_product_once_with_disjoint_rounds() {
        for (bl, br) in [(0, 0), (1, 1), (3, 3), (4, 4), (2, 5), (5, 2), (4, 7), (7, 4)] {
            let rounds = across_rounds(bl, br);
            let mut seen = std::collections::HashSet::new();
            for round in &rounds {
                let mut li = std::collections::HashSet::new();
                let mut rj = std::collections::HashSet::new();
                for &(i, j) in round {
                    assert!(i < bl && j < br, "{bl}x{br}: bad pair ({i},{j})");
                    assert!(li.insert(i) && rj.insert(j), "{bl}x{br}: round reuses a column");
                    assert!(seen.insert((i, j)), "{bl}x{br}: pair repeated");
                }
            }
            assert_eq!(seen.len(), bl * br, "{bl}x{br}");
        }
    }

    /// The untiled row-major sweep of a two-block problem on `path` —
    /// [`pair_within_block`] / [`pair_across_blocks`] themselves on
    /// `Scalar`, which is all they compute.
    fn sweep_two_untiled(
        left: &mut ColumnBlock,
        right: &mut ColumnBlock,
        rule: PairingRule,
        path: KernelPath,
    ) -> SweepAccumulator {
        if path == KernelPath::Scalar {
            let mut acc = pair_within_block(left, rule);
            acc.merge(pair_within_block(right, rule));
            acc.merge(pair_across_blocks(left, right, rule));
            return acc;
        }
        let mut acc = SweepAccumulator::default();
        for block in [&mut *left, &mut *right] {
            for i in 0..block.len() {
                for j in i + 1..block.len() {
                    acc.absorb(pair_view_with(block.pair_mut(i, j), rule, path));
                }
            }
        }
        for i in 0..left.len() {
            for j in 0..right.len() {
                acc.absorb(pair_view_with(cross_pair_mut(left, i, right, j), rule, path));
            }
        }
        acc
    }

    #[test]
    fn tiled_serial_kernel_is_bitwise_the_untiled_reference() {
        // The default-path guarantee: SweepKernel with workers == 0 must
        // reproduce pair_within_block / pair_across_blocks exactly — the
        // tiling and the two-row walk included — blocks and accumulator,
        // for every pair of block widths up to two tiles and a bit: none,
        // one column, odd, the 2-, 4- and 8-column blocks the service
        // solves, a full tile, a tile and a column. Both rules; no cache,
        // both caches, and the mixed cache of a cross-block pair; both
        // paths, `Lanes` against the same row-major order on its own
        // reductions.
        let m = 38;
        let a0 = random_symmetric(m, 91);
        for (nl, nr) in (0..=19usize).flat_map(|nl| (0..=19usize).map(move |nr| (nl, nr))) {
            for rule in [PairingRule::Implicit, PairingRule::Gram] {
                for (cache_left, cache_right) in [(false, false), (true, true), (true, false)] {
                    let mut l_ref = ColumnBlock::from_matrix_with_identity(&a0, 0..nl, m);
                    let mut r_ref = ColumnBlock::from_matrix_with_identity(&a0, nl..nl + nr, m);
                    if cache_left {
                        refresh_block_diag(&mut l_ref, rule);
                    }
                    if cache_right {
                        refresh_block_diag(&mut r_ref, rule);
                    }
                    for path in [KernelPath::Scalar, KernelPath::Lanes] {
                        let (mut l_ref, mut r_ref) = (l_ref.clone(), r_ref.clone());
                        let (mut l_new, mut r_new) = (l_ref.clone(), r_ref.clone());
                        let acc_ref = sweep_two_untiled(&mut l_ref, &mut r_ref, rule, path);
                        let kern = SweepKernel { path, ..SweepKernel::reference(rule) };
                        let acc_new = sweep_two(&kern, &mut l_new, &mut r_new);
                        let what = || {
                            format!(
                                "{nl}x{nr} {rule:?} {path:?} cache=({cache_left},{cache_right})"
                            )
                        };
                        assert_eq!(acc_ref, acc_new, "{}", what());
                        assert_eq!(l_ref, l_new, "{}", what());
                        assert_eq!(r_ref, r_new, "{}", what());
                    }
                }
            }
        }
    }

    #[test]
    fn two_row_steps_keep_every_columns_pairings_in_row_major_order() {
        // The law that makes the walk bitwise the row-major one, checked on
        // the schedule itself: every pairing of the rectangle exactly once,
        // the two pairings of a step on four different columns, and — per
        // left column and per right column — the partners met in ascending
        // order.
        for (nl, nr) in (0..=9usize).flat_map(|nl| (0..=9usize).map(move |nr| (nl, nr))) {
            let mut order = Vec::new();
            let mut abreast_steps = 0;
            two_row_steps(nl, nr, |first, abreast| {
                order.push(first);
                if let Some(second) = abreast {
                    assert!(
                        first.0 != second.0 && first.1 != second.1,
                        "{nl}x{nr}: {first:?} {second:?}"
                    );
                    order.push(second);
                    abreast_steps += 1;
                }
            });
            let mut sorted = order.clone();
            sorted.sort_unstable();
            let all: Vec<_> = (0..nl).flat_map(|i| (0..nr).map(move |j| (i, j))).collect();
            assert_eq!(sorted, all, "{nl}x{nr}: not every pairing exactly once");
            for i in 0..nl {
                let met: Vec<_> = order.iter().filter(|p| p.0 == i).map(|p| p.1).collect();
                assert!(met.is_sorted(), "{nl}x{nr}: left column {i} meets {met:?}");
            }
            for j in 0..nr {
                let met: Vec<_> = order.iter().filter(|p| p.1 == j).map(|p| p.0).collect();
                assert!(met.is_sorted(), "{nl}x{nr}: right column {j} meets {met:?}");
            }
            // The odd rows' stream runs one step behind the even rows';
            // wherever both have a pairing, the two go abreast.
            let (even, odd) = (nl.div_ceil(2) * nr, nl / 2 * nr);
            let want = if nr >= 2 { odd.min(even.saturating_sub(1)) } else { 0 };
            assert_eq!(abreast_steps, want, "{nl}x{nr}");
        }
    }

    #[test]
    fn tournament_bits_are_identical_for_every_worker_count() {
        let m = 20;
        let a0 = random_symmetric(m, 57);
        for path in [KernelPath::Scalar, KernelPath::Lanes] {
            let mut want: Option<(ColumnBlock, ColumnBlock, SweepAccumulator)> = None;
            for workers in [1usize, 2, 3, 4, 8] {
                let mut left = ColumnBlock::from_matrix_with_identity(&a0, 0..9, m);
                let mut right = ColumnBlock::from_matrix_with_identity(&a0, 9..m, m);
                let kern = SweepKernel { rule: PairingRule::Implicit, path, workers };
                let acc = sweep_two(&kern, &mut left, &mut right);
                match &want {
                    None => want = Some((left, right, acc)),
                    Some((wl, wr, wa)) => {
                        assert_eq!(&left, wl, "{path:?} workers={workers}");
                        assert_eq!(&right, wr, "{path:?} workers={workers}");
                        assert_eq!(&acc, wa, "{path:?} workers={workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn rounds_shared_out_among_threads_are_bitwise_the_inline_rounds() {
        // Blocks wide enough that every round clears `LANE_GRAIN` several
        // times over (16 tile tasks of 512-element columns), so helpers are
        // really seated — the small cases above all run inline.
        let m = 256;
        let a0 = random_symmetric(m, 59);
        let sweep = |workers: usize| {
            let mut left = ColumnBlock::from_matrix_with_identity(&a0, 0..m / 2, m);
            let mut right = ColumnBlock::from_matrix_with_identity(&a0, m / 2..m, m);
            refresh_block_diag(&mut left, PairingRule::Implicit);
            refresh_block_diag(&mut right, PairingRule::Implicit);
            let kern =
                SweepKernel { rule: PairingRule::Implicit, path: KernelPath::Lanes, workers };
            let acc = sweep_two(&kern, &mut left, &mut right);
            (left, right, acc)
        };
        let inline = sweep(1);
        assert_eq!(sweep(2), inline);
        assert_eq!(sweep(4), inline);
    }

    #[test]
    fn step_merged_calls_are_bitwise_the_per_block_calls() {
        // Merging round r of every block (pair) of a step into one round
        // must not move a bit against one call per block (pair): 6 blocks
        // of uneven width, so the merged tournaments differ in length and
        // the shorter ones sit out the last rounds.
        let m = 64;
        let a0 = random_symmetric(m, 71);
        let bounds = [0usize, 20, 29, 30, 47, 47, 64]; // widths 20 9 1 17 0 17
        let pairs = [(3usize, 0usize), (1, 5), (4, 2)];
        for workers in [1usize, 3] {
            let kern =
                SweepKernel { rule: PairingRule::Implicit, path: KernelPath::Scalar, workers };
            let mut merged: Vec<ColumnBlock> = bounds
                .windows(2)
                .map(|w| ColumnBlock::from_matrix_with_identity(&a0, w[0]..w[1], m))
                .collect();
            for b in merged.iter_mut() {
                refresh_block_diag(b, PairingRule::Implicit);
            }
            let mut single = merged.clone();
            let mut tour = kern.tournament(merged.iter().map(ColumnBlock::len));

            let mut acc_merged = kern.within(&mut tour, &mut merged);
            acc_merged.merge(kern.across_step(&mut tour, &mut merged, &pairs));

            let mut acc_single = SweepAccumulator::default();
            for b in single.iter_mut() {
                acc_single.merge(kern.within(&mut tour, [b]));
            }
            for &(b0, b1) in &pairs {
                let (left, right) = two_blocks_mut(&mut single, b0, b1);
                acc_single.merge(kern.across(&mut tour, left, right));
            }
            assert_eq!(acc_merged, acc_single, "workers={workers}");
            assert_eq!(merged, single, "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "block 1 paired twice")]
    fn a_step_may_not_pair_a_block_twice() {
        let a0 = random_symmetric(12, 3);
        let mut blocks: Vec<ColumnBlock> = (0..3)
            .map(|b| ColumnBlock::from_matrix_with_identity(&a0, 4 * b..4 * b + 4, 12))
            .collect();
        let kern = SweepKernel { workers: 1, ..SweepKernel::reference(PairingRule::Implicit) };
        kern.across_step(&mut kern.tournament([4; 3]), &mut blocks, &[(0, 1), (1, 2)]);
    }

    #[test]
    fn a_panicking_task_surfaces_its_own_message_and_a_fresh_pool_still_solves() {
        // Blocks of different heights make every cross pairing trip the
        // length assertion inside `dot`. With helpers in play the caller
        // must see that very message — as `workers: 1` raises it inline —
        // neither hang nor a generic "worker panicked".
        // (128-column blocks: the rounds are large enough to seat helpers.)
        let short = random_symmetric(248, 1);
        let tall = random_symmetric(256, 2);
        let raise = |workers: usize| {
            let mut left = ColumnBlock::from_matrix_with_identity(&short, 0..128, 248);
            let mut right = ColumnBlock::from_matrix_with_identity(&tall, 0..128, 256);
            let kern = SweepKernel { workers, ..SweepKernel::reference(PairingRule::Implicit) };
            let mut tour = kern.tournament([128, 128]);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                kern.across(&mut tour, &mut left, &mut right)
            }))
            .unwrap_err();
            crate::pool::panic_message(payload)
            // `tour` drops here: its helpers are woken and joined.
        };
        let inline = raise(1);
        assert!(inline.contains("left == right"), "{inline}");
        assert_eq!(raise(3), inline);

        let kern = SweepKernel { workers: 3, ..SweepKernel::reference(PairingRule::Implicit) };
        let mut left = ColumnBlock::from_matrix_with_identity(&tall, 0..128, 256);
        let mut right = ColumnBlock::from_matrix_with_identity(&tall, 128..256, 256);
        let acc = sweep_two(&kern, &mut left, &mut right);
        assert_eq!(acc.pairings, 256 * 255 / 2);
    }

    #[test]
    fn tournament_covers_the_same_pairs_as_the_serial_order() {
        // Same pair set ⇒ same pairing count; the off-diagonal mass after a
        // full sweep must drop comparably even though the order differs.
        let m = 12;
        let a0 = random_symmetric(m, 63);
        let mut serial = ColumnBlock::from_matrix_with_identity(&a0, 0..m, m);
        let mut tourney = serial.clone();
        let reference = SweepKernel::reference(PairingRule::Implicit);
        let acc_s = reference.within(&mut reference.tournament([m]), [&mut serial]);
        let kern = SweepKernel { workers: 2, ..reference };
        let acc_t = kern.within(&mut kern.tournament([m]), [&mut tourney]);
        assert_eq!(acc_s.pairings, acc_t.pairings);
        assert_eq!(acc_s.pairings, (m * (m - 1) / 2) as u64);
    }

    #[test]
    fn lanes_path_pairs_equivalently_to_scalar() {
        // Lanes reassociates the inner products (≤1e-12 relative), so the
        // rotated columns agree to tight tolerance rather than bitwise.
        let m = 16;
        let a0 = random_symmetric(m, 29);
        for cached in [false, true] {
            let mut scalar = ColumnBlock::from_matrix_with_identity(&a0, 0..m, m);
            if cached {
                refresh_block_diag(&mut scalar, PairingRule::Implicit);
            }
            let mut lanes = scalar.clone();
            let reference = SweepKernel::reference(PairingRule::Implicit);
            let _ = reference.within(&mut reference.tournament([m]), [&mut scalar]);
            let kern = SweepKernel { path: KernelPath::Lanes, ..reference };
            let _ = kern.within(&mut kern.tournament([m]), [&mut lanes]);
            for k in 0..m {
                for (g, w) in lanes.a_col(k).iter().zip(scalar.a_col(k)) {
                    assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "cached={cached} col {k}");
                }
            }
        }
    }

    #[test]
    fn accumulator_merges() {
        let mut a = SweepAccumulator { rotations: 1, pairings: 2, max_off: 0.5 };
        a.merge(SweepAccumulator { rotations: 3, pairings: 4, max_off: 0.25 });
        assert_eq!(a.rotations, 4);
        assert_eq!(a.pairings, 6);
        assert_eq!(a.max_off, 0.5);
    }
}
