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
//! column angle). Both take their inner products from the one inner
//! product, [`mph_linalg::vecops::dot`] — eight fused multiply-add chains,
//! a fixed tree and a fused tail, computed a pairing or two at a time by
//! [`fused_triple`], [`fused_triple_x2`] and [`dot_x2`] on the widest
//! vector unit the host has, with `dot`'s bits on every one — and rotate
//! through the same fused rotation kernel
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
//! [`SweepKernel`] runs the sub-sweeps on the calling thread, in one
//! order: the serial row-major tile walk, bitwise the untiled reference.
//! A solve that wants threads runs on the engine ([`crate::multidrive`]),
//! whose `2^d` node programs pair disjoint column blocks and are stepped
//! on the runtime's `min(2^d, CPUs)` workers — bitwise the logical solve,
//! and on [`mph_runtime::FabricModel::Free`] charging no clock.

use mph_linalg::block::{cross_pair_mut, two_blocks_mut, ColumnBlock, ColumnViewMut, PairViewMut};
use mph_linalg::rotation::{apply_to_block, symmetric_schur, JacobiRotation};
use mph_linalg::vecops::{dot, dot_x2, fused_triple, fused_triple_x2, TripleStreams};

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

    /// The four streams `[x, a, y, b]` whose [`fused_triple`] is a
    /// pairing's 2×2 block `(x·a, x·b, y·b)`: `[u_i, a_i, u_j, a_j]`, or
    /// the `W`-columns in both roles. The off-diagonal alone is `x·b`.
    #[inline(always)]
    fn streams<'v>(self, v: &'v PairViewMut<'_>) -> TripleStreams<'v> {
        match self {
            PairingRule::Implicit => [v.ui, v.ai, v.uj, v.aj],
            PairingRule::Gram => [v.ai, v.ai, v.aj, v.aj],
        }
    }
}

/// Pairs one column pair presented as raw views — the shared core every
/// driver funnels through. Reads the diagonal entries from the view's
/// cache slots when present (maintaining them under rotation), recomputes
/// them otherwise.
///
/// The uncached 2×2 block is three [`dot`]s, computed in one pass by
/// [`fused_triple`], whose every product is `to_bits`-equal to `dot`; the
/// cached off-diagonal is one `dot`. The rotation is the lane rotator,
/// bitwise the scalar loop. So a pairing has one set of bits on every host.
fn pair_view(v: PairViewMut<'_>, rule: PairingRule) -> PairOutcome {
    let block = pair_block(&v, rule);
    pair_rotate_by(v, block, pair_angle(block, rule))
}

/// [`pair_view`] for two pairings that share no column, the three stages
/// of a pairing taken two abreast: both 2×2 blocks, then both rotation
/// angles, then both rotations — the bits of one call after the other,
/// since neither pairing reads what the other writes.
///
/// Alone, a pairing is one dependent chain — the reduction, then the
/// divide / square-root chain of [`symmetric_schur`], then the rotate —
/// and too long for the core to overlap with the next one by itself, so
/// the angle's latency is paid in full. Abreast, the two angle chains run
/// in each other's shadow, and both blocks come from one pass over both
/// pairings' columns: [`fused_triple_x2`] when neither is cached,
/// [`dot_x2`] for the two off-diagonals when both are. A cached pairing
/// beside an uncached one takes its block alone.
fn pair_view2([v0, v1]: [PairViewMut<'_>; 2], rule: PairingRule) -> [PairOutcome; 2] {
    let (s0, s1) = (rule.streams(&v0), rule.streams(&v1));
    let [b0, b1] = match ((&v0.di, &v0.dj), (&v1.di, &v1.dj)) {
        ((Some(di0), Some(dj0)), (Some(di1), Some(dj1))) => {
            let [o0, o1] = dot_x2([s0[0], s0[3]], [s1[0], s1[3]]);
            [(**di0, o0, **dj0), (**di1, o1, **dj1)]
        }
        ((None, _) | (_, None), (None, _) | (_, None)) => fused_triple_x2(s0, s1),
        _ => [pair_block(&v0, rule), pair_block(&v1, rule)],
    };
    let (r0, r1) = (pair_angle(b0, rule), pair_angle(b1, rule));
    [pair_rotate_by(v0, b0, r0), pair_rotate_by(v1, b1, r1)]
}

/// The 2×2 block `(app, apq, aqq)` of a pairing.
#[inline(always)]
fn pair_block(v: &PairViewMut<'_>, rule: PairingRule) -> (f64, f64, f64) {
    let [x, a, y, b] = rule.streams(v);
    match (&v.di, &v.dj) {
        (Some(di), Some(dj)) => (**di, dot(x, b), **dj),
        // Uncached, or a mixed cache (one side of a cross-block pair
        // carries none): both diagonals are recomputed, in one fused pass
        // over the pair's columns.
        _ => fused_triple(x, a, y, b),
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

/// Columns per tile of every sweep. What bounds it is
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

/// One sub-sweep's pairing configuration, threaded through every driver so
/// the logical, threaded, and batch drivers keep performing identical
/// floating-point work.
///
/// Every sweep is made of one routine: the rectangle of pairings between
/// two `ACROSS_TILE`-wide column tiles, walked two rows at a time with two
/// column-disjoint pairings in flight (`two_row_steps`). The sweeps visit
/// the tile pairs in row-major order — with the walk inside a rectangle, a
/// pure reordering of *commuting* operations that preserves every bit of
/// the untiled reference ([`pair_within_block`]/[`pair_across_blocks`],
/// asserted in tests).
#[derive(Debug, Clone, Copy)]
pub struct SweepKernel {
    /// How pairings derive their 2×2 block.
    pub rule: PairingRule,
}

impl SweepKernel {
    /// Pairs every column pair within each of `blocks` —
    /// [`pair_within_block`] per block, block by block. Within a block, the
    /// tiles in row-major order: for each tile, its rectangles against the
    /// tiles to its left, then its own triangle. For ops sharing a column the row-major relative order is
    /// preserved (for a shared left column, `j` still ascends across tiles;
    /// for a shared right column, `i` still ascends across the left tiles
    /// and inside each — `two_row_steps`), and ops sharing no column
    /// commute exactly — so the tiling is bitwise invisible.
    pub fn within<'b>(
        &self,
        blocks: impl IntoIterator<Item = &'b mut ColumnBlock>,
    ) -> SweepAccumulator {
        let mut acc = SweepAccumulator::default();
        for block in blocks {
            for t0 in (0..block.len()).step_by(ACROSS_TILE) {
                for s0 in (0..t0).step_by(ACROSS_TILE) {
                    let [mut left, mut right] = block.tiles_mut::<ACROSS_TILE, 2>([s0, t0]);
                    self.sweep_tile_pair(&mut left, &mut right, &mut acc);
                }
                let [mut tile] = block.tiles_mut::<ACROSS_TILE, 1>([t0]);
                self.sweep_tile(&mut tile, &mut acc);
            }
        }
        acc
    }

    /// Pairs every column of `left` with every column of `right` —
    /// [`pair_across_blocks`], tiled. `left` plays the `i` role, exactly as
    /// in the untiled form. For each tile of the right
    /// block, the rectangles against the left block's tiles in order — the
    /// same bitwise-invisible reordering as [`Self::within`].
    pub fn across(&self, left: &mut ColumnBlock, right: &mut ColumnBlock) -> SweepAccumulator {
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

    /// [`Self::across`] for every `(left, right)` index pair of one solver
    /// step, in order.
    ///
    /// # Panics
    /// Panics if a pair's two indices are equal or out of range.
    pub fn across_step(
        &self,
        blocks: &mut [ColumnBlock],
        pairs: &[(usize, usize)],
    ) -> SweepAccumulator {
        let mut acc = SweepAccumulator::default();
        for &(b0, b1) in pairs {
            let (left, right) = two_blocks_mut(blocks, b0, b1);
            acc.merge(self.across(left, right));
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
    /// [`two_row_steps`] — the L1-resident inner loop of every sweep: two
    /// left columns walk the right tile, each reused against all of it
    /// before the next two. The views are reborrowed per pairing
    /// ([`ColumnViewMut::pair_mut`]).
    fn sweep_tile_pair(
        &self,
        lcols: &mut [ColumnViewMut<'_>],
        rcols: &mut [ColumnViewMut<'_>],
        acc: &mut SweepAccumulator,
    ) {
        let rule = self.rule;
        two_row_steps(lcols.len(), rcols.len(), |(i, j), abreast| match abreast {
            None => {
                let pair = ColumnViewMut::pair_mut(&mut lcols[i], &mut rcols[j]);
                acc.absorb(pair_view(pair, rule));
            }
            Some((i1, j1)) => {
                let (ci, ci1) = two_views_mut(lcols, i, i1);
                let (cj, cj1) = two_views_mut(rcols, j, j1);
                let pairs = [ColumnViewMut::pair_mut(ci, cj), ColumnViewMut::pair_mut(ci1, cj1)];
                for outcome in pair_view2(pairs, rule) {
                    acc.absorb(outcome);
                }
            }
        });
    }
}

/// Views `a` and `b` of a tile, taken by one split at the larger index.
/// They differ: [`two_row_steps`] never puts a row or a column abreast of
/// itself.
fn two_views_mut<'t, 'v>(
    views: &'t mut [ColumnViewMut<'v>],
    a: usize,
    b: usize,
) -> (&'t mut ColumnViewMut<'v>, &'t mut ColumnViewMut<'v>) {
    debug_assert_ne!(a, b, "a step's two pairings share a row or a column");
    let (lo, hi) = views.split_at_mut(a.max(b));
    if a < b {
        (&mut lo[a], &mut hi[0])
    } else {
        (&mut hi[0], &mut lo[b])
    }
}

/// The order every sweep walks an `nl × nr` rectangle of pairings in:
/// `step((i, j), abreast)` per step, `abreast` a second pairing that shares
/// no column with the first: its row is `i ± 1` and its column not `j`.
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

    /// One kernel sweep of a two-block problem: both `within`s, then the
    /// cross pairing.
    fn sweep_two(
        kern: &SweepKernel,
        left: &mut ColumnBlock,
        right: &mut ColumnBlock,
    ) -> SweepAccumulator {
        let mut acc = kern.within([&mut *left, &mut *right]);
        acc.merge(kern.across(left, right));
        acc
    }

    /// The pairing written plainly, kept as the oracle `pair_view` must
    /// match bit for bit: one `dot` per inner product and the portable
    /// scalar rotation.
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

    /// The untiled row-major sweep of a two-block problem.
    fn sweep_two_untiled(
        left: &mut ColumnBlock,
        right: &mut ColumnBlock,
        rule: PairingRule,
    ) -> SweepAccumulator {
        let mut acc = pair_within_block(left, rule);
        acc.merge(pair_within_block(right, rule));
        acc.merge(pair_across_blocks(left, right, rule));
        acc
    }

    #[test]
    fn tiled_serial_kernel_is_bitwise_the_untiled_reference() {
        // The kernel's guarantee: SweepKernel must reproduce
        // pair_within_block / pair_across_blocks exactly — the
        // tiling and the two-row walk included — blocks and accumulator,
        // for every pair of block widths up to two tiles and a bit: none,
        // one column, odd, the 2-, 4- and 8-column blocks the service
        // solves, a full tile, a tile and a column. Both rules; no cache,
        // both caches, and the mixed cache of a cross-block pair.
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
                    let (mut l_new, mut r_new) = (l_ref.clone(), r_ref.clone());
                    let acc_ref = sweep_two_untiled(&mut l_ref, &mut r_ref, rule);
                    let acc_new = sweep_two(&SweepKernel { rule }, &mut l_new, &mut r_new);
                    let what = format!("{nl}x{nr} {rule:?} cache=({cache_left},{cache_right})");
                    assert_eq!(acc_ref, acc_new, "{what}");
                    assert_eq!(l_ref, l_new, "{what}");
                    assert_eq!(r_ref, r_new, "{what}");
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
    fn step_merged_calls_are_bitwise_the_per_block_calls() {
        // One call over a whole step — every block's `within`, every block
        // pair's `across` — must not move a bit against one call per block
        // (pair): 6 blocks of uneven width, one of them empty.
        let m = 64;
        let a0 = random_symmetric(m, 71);
        let bounds = [0usize, 20, 29, 30, 47, 47, 64]; // widths 20 9 1 17 0 17
        let pairs = [(3usize, 0usize), (1, 5), (4, 2)];
        let kern = SweepKernel { rule: PairingRule::Implicit };
        let mut merged: Vec<ColumnBlock> = bounds
            .windows(2)
            .map(|w| ColumnBlock::from_matrix_with_identity(&a0, w[0]..w[1], m))
            .collect();
        for b in merged.iter_mut() {
            refresh_block_diag(b, PairingRule::Implicit);
        }
        let mut single = merged.clone();

        let mut acc_merged = kern.within(&mut merged);
        acc_merged.merge(kern.across_step(&mut merged, &pairs));

        let mut acc_single = SweepAccumulator::default();
        for b in single.iter_mut() {
            acc_single.merge(kern.within([b]));
        }
        for &(b0, b1) in &pairs {
            let (left, right) = two_blocks_mut(&mut single, b0, b1);
            acc_single.merge(kern.across(left, right));
        }
        assert_eq!(acc_merged, acc_single);
        assert_eq!(merged, single);
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
