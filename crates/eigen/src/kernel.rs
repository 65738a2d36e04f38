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
//! a fixed tree and a fused tail, with `dot`'s bits on every vector unit —
//! and rotate by the one rotation, [`mph_linalg::vecops::pair_rotate`] — a
//! multiply and a fused multiply-add per entry, with its bits on every
//! vector unit too.
//! A sweep's walk is one [`Walk`] per [`SweepKernel`] call: each step
//! rotates its one or two pairings and, in the same pass over the columns,
//! reduces the next step's 2×2 blocks from the rotated values — from one
//! rectangle of pairings to the next too — so a call reduces a block on
//! its own once, its first ([`fused_triple`]'s products, or [`dot`]'s for a
//! cached off-diagonal), and rotates a pairing on its own once, its last.
//! This module keeps the tiling (the rectangles, in order), the rule (the
//! pairing's angle and its books, [`Pairing`]) and the cache dispatch; the
//! walk compiles them into each vector tier's instructions. So the
//! logical, threaded, and SVD drivers are *structurally* guaranteed to
//! perform identical floating-point work — the bitwise-equality tests
//! between drivers check an invariant the code now enforces by
//! construction.
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

use mph_linalg::block::{cross_pair_mut, two_blocks_mut, ColumnBlock, PairViewMut};
use mph_linalg::rotation::{apply_to_block, symmetric_schur, JacobiRotation};
use mph_linalg::vecops::{dot, fused_triple, Pairing, Rect, Walk};

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
    fn streams<'v>(self, v: &'v PairViewMut<'_>) -> [&'v [f64]; 4] {
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
    block: (f64, f64, f64),
    (off_before, rot): (f64, Option<JacobiRotation>),
) -> PairOutcome {
    if let Some(rot) = rot {
        v.rotate_with(rot.c, rot.s);
        update_cache([v.di, v.dj], block, rot);
    }
    PairOutcome { off_before, rotated: rot.is_some() }
}

/// Keeps a rotated pairing's cache slots current: the rotation annihilates
/// the off-diagonal, and the new diagonal is the exact 2×2 similarity image
/// of the old block. Every populated slot is updated — including the mixed
/// case where only one side of a cross-block pair carries a cache (`app`
/// and `aqq` were then recomputed exactly, so the surviving slot stays
/// current).
#[inline(always)]
fn update_cache(
    [di, dj]: [Option<&mut f64>; 2],
    (app, apq, aqq): (f64, f64, f64),
    rot: JacobiRotation,
) {
    if di.is_some() || dj.is_some() {
        let (pp, _, qq) = apply_to_block(rot, app, apq, aqq);
        if let Some(di) = di {
            *di = pp;
        }
        if let Some(dj) = dj {
            *dj = qq;
        }
    }
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
/// ([`Walk`]) keeps two left columns and the right tile live — 10 columns
/// (9 before the walk took two rows at a time). A step's pass reads the
/// next step's columns too, so at a row pair's end the two left columns of
/// the next pair arrive while the last two are still read: up to 11
/// columns in one pass, one short of the 12 ways. The walk carries on from
/// one rectangle into the next: the pass that rotates a rectangle's last
/// pairing reads the next one's first two columns, 4 columns in the pass.
/// Live at that boundary are the right tile (kept when the next rectangle
/// shares it, dead when the walk moves to the next right tile), the last
/// row pair's two left columns and the next rectangle's first left one —
/// 11 again; a triangle row's boundary, inside one tile, 8. Walking whole
/// anti-diagonals of an 8 × 8 tile pair instead (16
/// columns live) read `logical_solve` 4.62 against 4.08 — 13 % *slower*
/// than one pairing at a time — so a wider walk needs a narrower tile.
const ACROSS_TILE: usize = 8;

/// One sub-sweep's pairing configuration, threaded through every driver so
/// the logical, threaded, and batch drivers keep performing identical
/// floating-point work.
///
/// Every sweep is made of one routine: the rectangle of pairings between
/// two `ACROSS_TILE`-wide column tiles, or a row of a tile's triangle,
/// walked by one [`Walk`] per call — two rows at a time with two
/// column-disjoint pairings in flight, one pass over the columns a step:
/// each step rotates its pairings and reduces the blocks of the next,
/// which it carries forward, also into the next rectangle. The sweeps
/// visit the tile pairs in row-major order — with the walk inside a
/// rectangle, a pure reordering of *commuting* operations that preserves
/// every bit of the untiled reference
/// ([`pair_within_block`]/[`pair_across_blocks`], asserted in tests).
#[derive(Debug, Clone, Copy)]
pub struct SweepKernel {
    /// How pairings derive their 2×2 block.
    pub rule: PairingRule,
}

impl SweepKernel {
    /// Pairs every column pair within each of `blocks` —
    /// [`pair_within_block`] per block, block by block. Within a block, the
    /// tiles in row-major order: for each tile, its rectangles against the
    /// tiles to its left, then its own triangle, a row at a time. For ops
    /// sharing a column the row-major relative order is preserved (for a
    /// shared left column, `j` still ascends across tiles; for a shared
    /// right column, `i` still ascends across the left tiles and inside
    /// each — [`Walk`]), and ops sharing no column commute exactly — so the
    /// tiling is bitwise invisible. One walk for the call: a rectangle's
    /// last step reduces the next one's first block.
    pub fn within<'b>(
        &self,
        blocks: impl IntoIterator<Item = &'b mut ColumnBlock>,
    ) -> SweepAccumulator {
        fn walk<'b, const GRAM: bool>(
            blocks: impl IntoIterator<Item = &'b mut ColumnBlock>,
        ) -> SweepAccumulator {
            let mut walk = Walk::new(Book::<GRAM>::default());
            for block in blocks {
                let rects = within_rects(block.len());
                if cached(block) {
                    walk.within::<true>(block, rects);
                } else {
                    walk.within::<false>(block, rects);
                }
            }
            walk.finish().0
        }
        match self.rule {
            PairingRule::Implicit => walk::<false>(blocks),
            PairingRule::Gram => walk::<true>(blocks),
        }
    }

    /// Pairs every column of `left` with every column of `right` —
    /// [`pair_across_blocks`], tiled. `left` plays the `i` role, exactly as
    /// in the untiled form. For each tile of the right
    /// block, the rectangles against the left block's tiles in order — the
    /// same bitwise-invisible reordering as [`Self::within`], one walk for
    /// the call.
    pub fn across(&self, left: &mut ColumnBlock, right: &mut ColumnBlock) -> SweepAccumulator {
        fn walk<const GRAM: bool>(
            left: &mut ColumnBlock,
            right: &mut ColumnBlock,
        ) -> SweepAccumulator {
            let mut walk = Walk::new(Book::<GRAM>::default());
            let rects = across_rects(left.len(), right.len());
            if cached(left) && cached(right) {
                walk.across::<true>(left, right, rects);
            } else {
                walk.across::<false>(left, right, rects);
            }
            walk.finish().0
        }
        match self.rule {
            PairingRule::Implicit => walk::<false>(left, right),
            PairingRule::Gram => walk::<true>(left, right),
        }
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
}

/// Whether a block caches its diagonals: then a walk over it alone, or
/// across it and another that does, reads them from the cache.
fn cached(block: &ColumnBlock) -> bool {
    !block.diag().is_empty()
}

/// The rectangles of a block's own pairings, in the order of
/// [`SweepKernel::within`]: for each tile, its rectangles against the tiles
/// to its left, then its triangle's rows, row `i` the one-row rectangle of
/// column `i` with the columns after it in the tile.
fn within_rects(b: usize) -> impl Iterator<Item = Rect> {
    (0..b).step_by(ACROSS_TILE).flat_map(move |t0| {
        let tile = t0..(t0 + ACROSS_TILE).min(b);
        let rects =
            (0..t0).step_by(ACROSS_TILE).map(move |s0| (s0..s0 + ACROSS_TILE, t0..tile.end));
        rects.chain((t0..tile.end).map(move |i| (i..i + 1, i + 1..tile.end)))
    })
}

/// The rectangles of `nl` left columns with `nr` right ones, in the order
/// of [`SweepKernel::across`]: for each right tile, the left tiles in
/// order.
fn across_rects(nl: usize, nr: usize) -> impl Iterator<Item = Rect> {
    let tile = |t0: usize, n: usize| t0..(t0 + ACROSS_TILE).min(n);
    (0..nr).step_by(ACROSS_TILE).flat_map(move |t0| {
        (0..nl).step_by(ACROSS_TILE).map(move |s0| (tile(s0, nl), tile(t0, nr)))
    })
}

/// One sweep call's book under the rule [`rule_of`] names: what the walk
/// asks of a pairing — its off-diagonal measure and its rotation, or none
/// ([`pair_angle`]) — booked as the pairing's outcome.
#[derive(Default)]
struct Book<const GRAM: bool>(SweepAccumulator);

impl<const GRAM: bool> Pairing for Book<GRAM> {
    const GRAM: bool = GRAM;

    #[inline(always)]
    fn angle(&mut self, block: (f64, f64, f64)) -> Option<JacobiRotation> {
        let (off_before, rot) = pair_angle(block, rule_of::<GRAM>());
        self.0.absorb(PairOutcome { off_before, rotated: rot.is_some() });
        rot
    }
}

/// The rule a [`Book`]'s `GRAM` names.
const fn rule_of<const GRAM: bool>() -> PairingRule {
    if GRAM {
        PairingRule::Gram
    } else {
        PairingRule::Implicit
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
    #[inline(always)]
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

    /// Whether two blocks hold the same bits — NaN payloads aside, which
    /// IEEE 754 does not pin: every column and cache slot.
    fn same_bits(got: &ColumnBlock, want: &ColumnBlock) -> bool {
        let agree = |g: &[f64], w: &[f64]| {
            g.len() == w.len()
                && g.iter()
                    .zip(w)
                    .all(|(g, w)| g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan())
        };
        got.len() == want.len()
            && (0..got.len())
                .all(|k| agree(got.a_col(k), want.a_col(k)) && agree(got.u_col(k), want.u_col(k)))
            && agree(got.diag(), want.diag())
    }

    /// A 4 × 4 rectangle whose first right column meets every left one with
    /// an exact zero `M_ij = u_i · a_j`, so the walk skips all four of its
    /// pairings — the first step, a two-pairing step's second, a wrap
    /// step's first and the pairing abreast of a row pair's opening — while
    /// that column holds −0.0 and ±∞: rotated by the identity, `0·∞` would
    /// put NaN in the left columns and `0·x + 1·(−0)` would turn its −0.0
    /// into +0.0, where a skip leaves both as they are. Every other entry
    /// is finite, so the left columns stay finite to the end.
    fn skipped_pairings_holding_signed_zeros_and_infinities() -> (ColumnBlock, ColumnBlock) {
        let m = 16;
        let entry = |k: usize, r: usize| ((r * 7 + k * 13) as f64 * 0.61).sin() + 0.05;
        let full = |k: usize| (0..m).map(|r| entry(k, r)).collect::<Vec<f64>>();
        // Left rows 0..8 only: orthogonal to the first right column's `A`.
        let left_rows = |k: usize| (0..m).map(|r| if r < 8 { entry(k, r) } else { 0.0 }).collect();
        let mut u2: Vec<f64> = (0..m).map(|r| if r < 4 { entry(2, r) } else { 0.0 }).collect();
        (u2[8], u2[9]) = (-0.0, -0.0);
        let mut a2 = full(12);
        a2[4] = 0.75;
        let mut a_r0: Vec<f64> = (0..m).map(|r| if r < 8 { 0.0 } else { entry(20, r) }).collect();
        (a_r0[4], a_r0[10]) = (-0.0, -0.7);
        let mut u_r0 = full(21);
        (u_r0[8], u_r0[9], u_r0[12], u_r0[13]) = (-0.5, -0.25, f64::INFINITY, f64::NEG_INFINITY);
        let left = [
            (full(10), left_rows(0)),
            (full(11), left_rows(1)),
            (a2, u2),
            (full(13), left_rows(3)),
        ];
        let right = [(a_r0, u_r0), (full(22), full(5)), (full(23), full(6)), (full(24), full(7))];
        let block = |cols: [(Vec<f64>, Vec<f64>); 4]| {
            let mut block = ColumnBlock::from_matrix_with_identity(&Matrix::zeros(m, 4), 0..4, m);
            for (k, (a, u)) in cols.into_iter().enumerate() {
                let view = block.pair_mut(k, (k + 1) % 4);
                view.ai.copy_from_slice(&a);
                view.ui.copy_from_slice(&u);
            }
            block
        };
        (block(left), block(right))
    }

    #[test]
    fn tiled_serial_kernel_is_bitwise_the_untiled_reference() {
        // The kernel's guarantee: SweepKernel must reproduce
        // pair_within_block / pair_across_blocks exactly — the
        // tiling and the two-row walk included — blocks and accumulator,
        // for every pair of block widths up to two tiles and a bit: none,
        // one column, odd, the 2-, 4- and 8-column blocks the service
        // solves, a full tile, a tile and a column. Both rules on a square
        // matrix, and the Gram rule on a tall one, whose `W`-columns are
        // longer than its `V`-columns; no cache, both caches, and the mixed
        // cache of a cross-block pair.
        let m = 38;
        let square = random_symmetric(m, 91);
        let tall = Matrix::from_fn(m + 9, m, |r, c| ((r * 31 + c * 17) as f64 * 0.37).sin());
        let inputs = [
            (PairingRule::Implicit, &square),
            (PairingRule::Gram, &square),
            (PairingRule::Gram, &tall),
        ];
        for (nl, nr) in (0..=19usize).flat_map(|nl| (0..=19usize).map(move |nr| (nl, nr))) {
            for (rule, a0) in inputs {
                for (cache_left, cache_right) in [(false, false), (true, true), (true, false)] {
                    let mut l_ref = ColumnBlock::from_matrix_with_identity(a0, 0..nl, m);
                    let mut r_ref = ColumnBlock::from_matrix_with_identity(a0, nl..nl + nr, m);
                    if cache_left {
                        refresh_block_diag(&mut l_ref, rule);
                    }
                    if cache_right {
                        refresh_block_diag(&mut r_ref, rule);
                    }
                    let (mut l_new, mut r_new) = (l_ref.clone(), r_ref.clone());
                    let acc_ref = sweep_two_untiled(&mut l_ref, &mut r_ref, rule);
                    let acc_new = sweep_two(&SweepKernel { rule }, &mut l_new, &mut r_new);
                    let rows = a0.rows();
                    let what = format!(
                        "{nl}x{nr} {rule:?} {rows} rows cache=({cache_left},{cache_right})"
                    );
                    assert_eq!(acc_ref, acc_new, "{what}");
                    assert_eq!(l_ref, l_new, "{what}");
                    assert_eq!(r_ref, r_new, "{what}");
                }
            }
        }
        // Skipped pairings mid-rectangle, their columns holding −0.0 and
        // ±∞ (the rectangle alone: a within-block pairing would spread the
        // infinities first).
        for rule in [PairingRule::Implicit, PairingRule::Gram] {
            for (cache_left, cache_right) in [(false, false), (true, true), (true, false)] {
                let (mut l_ref, mut r_ref) = skipped_pairings_holding_signed_zeros_and_infinities();
                if cache_left {
                    refresh_block_diag(&mut l_ref, rule);
                }
                if cache_right {
                    refresh_block_diag(&mut r_ref, rule);
                }
                let (mut l_new, mut r_new) = (l_ref.clone(), r_ref.clone());
                let acc_ref = pair_across_blocks(&mut l_ref, &mut r_ref, rule);
                let acc_new = SweepKernel { rule }.across(&mut l_new, &mut r_new);
                let what = format!("skips {rule:?} cache=({cache_left},{cache_right})");
                assert_eq!(acc_ref, acc_new, "{what}");
                assert!(same_bits(&l_new, &l_ref) && same_bits(&r_new, &r_ref), "{what}");
                if rule == PairingRule::Implicit {
                    // The input does what it says: four skips, the skipped
                    // column untouched, the left columns finite.
                    let (_, r0) = skipped_pairings_holding_signed_zeros_and_infinities();
                    assert_eq!(acc_ref.pairings - acc_ref.rotations, 4, "{what}: the skips");
                    let bits = |col: &[f64]| col.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(r_ref.a_col(0)), bits(r0.a_col(0)), "{what}");
                    assert_eq!(bits(r_ref.u_col(0)), bits(r0.u_col(0)), "{what}");
                    assert!((0..4).all(|k| l_ref.u_col(k).iter().all(|x| x.is_finite())), "{what}");
                }
            }
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
