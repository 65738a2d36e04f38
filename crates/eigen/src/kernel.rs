//! The column-pairing kernel (paper §2.2) — the *one* rotation path shared
//! by every driver in this crate.
//!
//! The one-sided method maintains `A ← A₀·U` and `U` (initially `I`). The
//! implicit iterate is `M = Uᵀ·A₀·U`, whose entries are reachable from
//! columns alone: `M_ij = u_i · a_j`. *Pairing* columns `i` and `j` takes
//! the 2×2 block `(M_ii, M_ij, M_jj)`, derives the Jacobi rotation
//! annihilating `M_ij`, and applies it to columns `i, j` of both `A` and
//! `U` — no row access, which is what makes the method distribute by
//! columns.
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
//! reduces the next step's off-diagonals from the rotated values — from
//! one rectangle of pairings to the next too — so a call reduces an
//! off-diagonal on its own once, its first, and rotates a pairing on its
//! own once, its last. This module keeps the tiling (the rectangles, in
//! order) and the rule (the pairing's angle and its books, [`Pairing`]);
//! the walk compiles them into each vector tier's instructions. So the
//! logical, threaded, and SVD drivers are *structurally* guaranteed to
//! perform identical floating-point work — the bitwise-equality tests
//! between drivers check an invariant the code now enforces by
//! construction.
//!
//! A pairing reduces one inner product, its off-diagonal. The diagonals
//! (`M_ii` or `‖w_i‖²`) are a cache that lives for one [`SweepKernel`]
//! call: each column's is reduced exactly, bitwise [`dot`], when the call
//! takes its block, kept under rotation by the exact 2×2 similarity update
//! and dropped when the call returns — so rounding drift never outlives a
//! call, no block carries a diagonal, and every driver making the same
//! calls on the same blocks gets the same bits. The untiled reference
//! ([`pair_within_block`], [`pair_across_blocks`]) keeps the same per-call
//! cache.
//!
//! [`SweepKernel`] runs the sub-sweeps on the calling thread, in one
//! order: the serial row-major tile walk, bitwise the untiled reference.
//! A solve that wants threads runs on the engine ([`crate::multidrive`]),
//! whose `2^d` node programs pair disjoint column blocks and are stepped
//! on the runtime's `min(2^d, CPUs)` workers — bitwise the logical solve,
//! and on [`mph_runtime::FabricModel::Free`] charging no clock.

use mph_linalg::block::{cross_pair_mut, two_blocks_mut, ColumnBlock, PairViewMut};
use mph_linalg::rotation::{apply_to_block, symmetric_schur, JacobiRotation};
use mph_linalg::vecops::{dot, symmetric_schur_pair, Pairing, Rect, Walk};

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
    /// The exact diagonal entry for one column — what a call's cache
    /// starts from.
    #[inline]
    fn diag_entry(self, a: &[f64], u: &[f64]) -> f64 {
        match self {
            PairingRule::Implicit => dot(u, a),
            PairingRule::Gram => dot(a, a),
        }
    }

    /// The exact diagonal of every column of `block`: a call's cache at
    /// its start.
    fn diagonals(self, block: &ColumnBlock) -> Vec<f64> {
        (0..block.len()).map(|k| self.diag_entry(block.a_col(k), block.u_col(k))).collect()
    }
}

/// Pairs one column pair presented as raw views, its two diagonals read
/// from and kept in the call's cache slots `[di, dj]` — the untiled
/// reference's pairing. The off-diagonal is one [`dot`]; the rotation is
/// the lane rotator, bitwise the scalar loop. So a pairing has one set of
/// bits on every host.
fn pair_view(mut v: PairViewMut<'_>, [di, dj]: [&mut f64; 2], rule: PairingRule) -> PairOutcome {
    let apq = match rule {
        PairingRule::Implicit => dot(v.ui, v.aj),
        PairingRule::Gram => dot(v.ai, v.aj),
    };
    let block = (*di, apq, *dj);
    let (off_before, rot) = pair_angle(block, rule);
    if let Some(rot) = rot {
        v.rotate(rot.c, rot.s);
        let (pp, _, qq) = apply_to_block(rot, block.0, block.1, block.2);
        (*di, *dj) = (pp, qq);
    }
    PairOutcome { off_before, rotated: rot.is_some() }
}

/// What a pairing's 2×2 block asks for: the off-diagonal measure it shows,
/// and the rotation annihilating it unless there is nothing to annihilate.
#[inline(always)]
fn pair_angle(block: (f64, f64, f64), rule: PairingRule) -> (f64, Option<JacobiRotation>) {
    let (off_before, turns) = pair_measure(block, rule);
    let (app, apq, aqq) = block;
    (off_before, turns.then(|| symmetric_schur(app, apq, aqq)))
}

/// The off-diagonal measure a pairing's 2×2 block shows, and whether it
/// turns: not where there is nothing to annihilate.
#[inline(always)]
fn pair_measure((app, apq, aqq): (f64, f64, f64), rule: PairingRule) -> (f64, bool) {
    let off_before = match rule {
        PairingRule::Implicit => apq.abs(),
        PairingRule::Gram => {
            // Gram diagonals kept under rotation can round to tiny
            // negatives; clamp so the cosine stays well-defined.
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
    (off_before, !skip)
}

/// Pairs every column pair within `block` (ascending `(i, j)`, `i < j`) —
/// the paper's step (1): "pair each column of a block with the remaining
/// columns of the same block" — with one call's cache.
pub fn pair_within_block(block: &mut ColumnBlock, rule: PairingRule) -> SweepAccumulator {
    let mut diag = rule.diagonals(block);
    within_cached(block, &mut diag, rule)
}

/// [`pair_within_block`] with the cache in hand.
fn within_cached(block: &mut ColumnBlock, diag: &mut [f64], rule: PairingRule) -> SweepAccumulator {
    let mut acc = SweepAccumulator::default();
    let b = block.len();
    for i in 0..b {
        for j in (i + 1)..b {
            let (head, tail) = diag.split_at_mut(j);
            acc.absorb(pair_view(block.pair_mut(i, j), [&mut head[i], &mut tail[0]], rule));
        }
    }
    acc
}

/// Pairs every column of `left` with every column of `right` — the paper's
/// step (2): "pair each column of a block with all the columns of the
/// other block". `left` plays the `i` role (its columns are rotated as
/// `c·a_i − s·a_j`), matching the slot-0/slot-1 roles of the threaded
/// driver and the `(b0, b1)` order of the sweep trace. One call's cache
/// for both blocks.
pub fn pair_across_blocks(
    left: &mut ColumnBlock,
    right: &mut ColumnBlock,
    rule: PairingRule,
) -> SweepAccumulator {
    let mut diag = [rule.diagonals(left), rule.diagonals(right)];
    across_cached(left, right, &mut diag, rule)
}

/// [`pair_across_blocks`] with the cache in hand, `left`'s slots then
/// `right`'s.
fn across_cached(
    left: &mut ColumnBlock,
    right: &mut ColumnBlock,
    [dl, dr]: &mut [Vec<f64>; 2],
    rule: PairingRule,
) -> SweepAccumulator {
    let mut acc = SweepAccumulator::default();
    for i in 0..left.len() {
        for j in 0..right.len() {
            let view = cross_pair_mut(left, i, right, j);
            acc.absorb(pair_view(view, [&mut dl[i], &mut dr[j]], rule));
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
/// 11 again; a triangle row pair's boundary, inside one tile, 8. Walking whole
/// anti-diagonals of an 8 × 8 tile pair instead (16
/// columns live) read `logical_solve` 4.62 against 4.08 — 13 % *slower*
/// than one pairing at a time — so a wider walk needs a narrower tile.
const ACROSS_TILE: usize = 8;

/// One sub-sweep's pairing configuration, threaded through every driver so
/// the logical, threaded, and batch drivers keep performing identical
/// floating-point work.
///
/// Every sweep is made of one routine: the rectangle of pairings between
/// two `ACROSS_TILE`-wide column tiles, or two rows of a tile's triangle,
/// walked by one [`Walk`] per call — two rows at a time with two
/// column-disjoint pairings in flight, one pass over the columns a step:
/// each step rotates its pairings and reduces the off-diagonals of the next,
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
    /// tiles to its left, then its own triangle, two rows at a time. For ops
    /// sharing a column the row-major relative order is preserved (for a
    /// shared left column, `j` still ascends across tiles; for a shared
    /// right column, `i` still ascends across the left tiles and inside
    /// each — [`Walk`]), and ops sharing no column commute exactly — so the
    /// tiling is bitwise invisible. One walk for the call: a rectangle's
    /// last step reduces the next one's first off-diagonal.
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
                walk.within(block, rects);
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
            walk.across(left, right, across_rects(left.len(), right.len()));
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

/// The rectangles of a block's own pairings, in the order of
/// [`SweepKernel::within`]: for each tile, its rectangles against the tiles
/// to its left, then its triangle two rows at a time. Rows `i` and `i + 1`
/// are the pairing `(i, i + 1)`, then the two-row rectangle of columns `i`
/// and `i + 1` with the columns after `i + 1` in the tile, which the walk
/// takes as a wavefront: `(i, j)` abreast of `(i + 1, j − 1)`, so each
/// column still meets its partners in row-major order.
fn within_rects(b: usize) -> impl Iterator<Item = Rect> {
    (0..b).step_by(ACROSS_TILE).flat_map(move |t0| {
        let end = (t0 + ACROSS_TILE).min(b);
        let rects = (0..t0).step_by(ACROSS_TILE).map(move |s0| (s0..s0 + ACROSS_TILE, t0..end));
        let pairs = (t0..end).step_by(2).flat_map(move |i| {
            let below = (i + 2).min(end);
            [(i..i + 1, i + 1..below), (i..below, below..end)]
        });
        rects.chain(pairs)
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

    /// Both angles in the two lanes of one register, each lane bitwise
    /// [`symmetric_schur`] — which a turning pairing's nonzero `apq` asks
    /// of it.
    #[inline(always)]
    fn angles(&mut self, blocks: [(f64, f64, f64); 2]) -> [Option<JacobiRotation>; 2] {
        let rots = symmetric_schur_pair(blocks);
        let mut out = [None; 2];
        for ((out, block), rot) in out.iter_mut().zip(blocks).zip(rots) {
            let (off_before, turns) = pair_measure(block, rule_of::<GRAM>());
            self.0.absorb(PairOutcome { off_before, rotated: turns });
            *out = turns.then_some(rot);
        }
        out
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
    /// `M_ij` — the whole-matrix oracle the block pairings are checked
    /// against — its diagonals reduced exactly, as a call's first pairing
    /// of the two columns reads them.
    fn pair_columns(a: &mut Matrix, u: &mut Matrix, i: usize, j: usize) -> PairOutcome {
        debug_assert!(i != j);
        let [mut di, mut dj] = [i, j].map(|k| dot(u.col(k), a.col(k)));
        let (ai, aj) = a.col_pair_mut(i, j);
        let (ui, uj) = u.col_pair_mut(i, j);
        pair_view(PairViewMut { ai, ui, aj, uj }, [&mut di, &mut dj], PairingRule::Implicit)
    }

    /// Pairs every column pair within `cols` (ascending `(i, j)`, `i < j`) on
    /// full matrices, with one call's cache.
    fn pair_within(
        a: &mut Matrix,
        u: &mut Matrix,
        cols: std::ops::Range<usize>,
    ) -> SweepAccumulator {
        let mut diag: Vec<f64> = (0..a.cols()).map(|k| dot(u.col(k), a.col(k))).collect();
        let mut acc = SweepAccumulator::default();
        for i in cols.clone() {
            for j in (i + 1)..cols.end {
                acc.absorb(pair_cached(a, u, i, j, &mut diag));
            }
        }
        acc
    }

    /// Pairs every column of `left` with every column of `right` (disjoint
    /// ranges) on full matrices, with one call's cache.
    fn pair_across(
        a: &mut Matrix,
        u: &mut Matrix,
        left: std::ops::Range<usize>,
        right: std::ops::Range<usize>,
    ) -> SweepAccumulator {
        debug_assert!(left.end <= right.start || right.end <= left.start);
        let mut diag: Vec<f64> = (0..a.cols()).map(|k| dot(u.col(k), a.col(k))).collect();
        let mut acc = SweepAccumulator::default();
        for i in left {
            for j in right.clone() {
                acc.absorb(pair_cached(a, u, i, j, &mut diag));
            }
        }
        acc
    }

    /// Pairs columns `i` and `j` of the full matrices with their diagonals
    /// in the cache `diag`, one slot per column.
    fn pair_cached(
        a: &mut Matrix,
        u: &mut Matrix,
        i: usize,
        j: usize,
        diag: &mut [f64],
    ) -> PairOutcome {
        let (ai, aj) = a.col_pair_mut(i, j);
        let (ui, uj) = u.col_pair_mut(i, j);
        let [mut di, mut dj] = [diag[i], diag[j]];
        let out =
            pair_view(PairViewMut { ai, ui, aj, uj }, [&mut di, &mut dj], PairingRule::Implicit);
        (diag[i], diag[j]) = (di, dj);
        out
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
    /// match bit for bit: its diagonals from the cache, one `dot` for the
    /// off-diagonal and the portable scalar rotation.
    fn pair_view_oracle(
        mut v: PairViewMut<'_>,
        [di, dj]: [&mut f64; 2],
        rule: PairingRule,
    ) -> PairOutcome {
        let (app, aqq) = (*di, *dj);
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
        (*di, *dj) = (pp, qq);
        PairOutcome { off_before, rotated: true }
    }

    #[test]
    fn the_scalar_pairing_is_bitwise_the_three_dot_oracle() {
        // Both rules; column lengths of every remainder mod 4; the Gram
        // rule on tall rectangular blocks, where the `W`-columns are longer
        // than the `V`-columns. Two sweeps of one cache each, so the second
        // runs on generic (not identity) `U`-columns; each cache's first
        // block is three `dot`s, its others one and two slots kept.
        for (rule, extra_rows) in [(PairingRule::Implicit, 0), (PairingRule::Gram, 9)] {
            for n in [8usize, 9, 10, 11] {
                let square = random_symmetric(n + extra_rows, 40 + n as u64);
                let a0 = Matrix::from_fn(n + extra_rows, n, |r, c| square[(r, c)]);
                let mut left = ColumnBlock::from_matrix_with_identity(&a0, 0..n / 2, n);
                let mut right = ColumnBlock::from_matrix_with_identity(&a0, n / 2..n, n);
                let (mut want_left, mut want_right) = (left.clone(), right.clone());
                for _sweep in 0..2 {
                    let [mut dl, mut dr] = [&left, &right].map(|b| rule.diagonals(b));
                    let (mut wl, mut wr) = (dl.clone(), dr.clone());
                    for i in 0..left.len() {
                        for j in i + 1..left.len() {
                            let (h, t) = dl.split_at_mut(j);
                            let got = pair_view(left.pair_mut(i, j), [&mut h[i], &mut t[0]], rule);
                            let (h, t) = wl.split_at_mut(j);
                            let view = want_left.pair_mut(i, j);
                            let want = pair_view_oracle(view, [&mut h[i], &mut t[0]], rule);
                            assert_eq!(got, want, "{rule:?} n={n} within ({i},{j})");
                        }
                        for j in 0..right.len() {
                            let view = cross_pair_mut(&mut left, i, &mut right, j);
                            let got = pair_view(view, [&mut dl[i], &mut dr[j]], rule);
                            let view = cross_pair_mut(&mut want_left, i, &mut want_right, j);
                            let want = pair_view_oracle(view, [&mut wl[i], &mut wr[j]], rule);
                            assert_eq!(got, want, "{rule:?} n={n} across ({i},{j})");
                        }
                    }
                    assert_eq!((&dl, &dr), (&wl, &wr), "{rule:?} n={n}: the caches");
                }
                assert_eq!(left, want_left, "{rule:?} n={n}");
                assert_eq!(right, want_right, "{rule:?} n={n}");
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

    /// Whether each slot of `diag` is within rounding of its column's
    /// exact diagonal under the implicit rule.
    fn tracks(block: &ColumnBlock, diag: &[f64]) {
        for (k, &cached) in diag.iter().enumerate() {
            let exact = dot(block.u_col(k), block.a_col(k));
            assert!(
                (exact - cached).abs() <= 1e-16f64.max(1e-13 * exact.abs()),
                "col {k}: cached {cached} vs exact {exact}"
            );
        }
    }

    #[test]
    fn cached_diagonals_track_exact_recomputation() {
        // A call's cache, kept under rotation through every pairing of a
        // block, ends within rounding of the exact diagonals.
        let m = 10;
        let a0 = random_symmetric(m, 77);
        let mut blk = ColumnBlock::from_matrix_with_identity(&a0, 0..m, m);
        let mut diag = PairingRule::Implicit.diagonals(&blk);
        let acc = within_cached(&mut blk, &mut diag, PairingRule::Implicit);
        assert!(acc.rotations > 0);
        tracks(&blk, &diag);
    }

    #[test]
    fn the_call_cache_stays_current_across_blocks() {
        // A cross-block call keeps both blocks' slots current.
        let m = 8;
        let a0 = random_symmetric(m, 55);
        let mut left = ColumnBlock::from_matrix_with_identity(&a0, 0..4, m);
        let mut right = ColumnBlock::from_matrix_with_identity(&a0, 4..8, m);
        let rule = PairingRule::Implicit;
        let mut diag = [rule.diagonals(&left), rule.diagonals(&right)];
        let acc = across_cached(&mut left, &mut right, &mut diag, rule);
        assert!(acc.rotations > 0);
        tracks(&left, &diag[0]);
        tracks(&right, &diag[1]);
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
    /// IEEE 754 does not pin: every column.
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
        // longer than its `V`-columns.
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
                let mut l_ref = ColumnBlock::from_matrix_with_identity(a0, 0..nl, m);
                let mut r_ref = ColumnBlock::from_matrix_with_identity(a0, nl..nl + nr, m);
                let (mut l_new, mut r_new) = (l_ref.clone(), r_ref.clone());
                let acc_ref = sweep_two_untiled(&mut l_ref, &mut r_ref, rule);
                let acc_new = sweep_two(&SweepKernel { rule }, &mut l_new, &mut r_new);
                let what = format!("{nl}x{nr} {rule:?} {} rows", a0.rows());
                assert_eq!(acc_ref, acc_new, "{what}");
                assert_eq!(l_ref, l_new, "{what}");
                assert_eq!(r_ref, r_new, "{what}");
            }
        }
        // Skipped pairings mid-rectangle, their columns holding −0.0 and
        // ±∞ (the rectangle alone: a within-block pairing would spread the
        // infinities first).
        for rule in [PairingRule::Implicit, PairingRule::Gram] {
            let (mut l_ref, mut r_ref) = skipped_pairings_holding_signed_zeros_and_infinities();
            let (mut l_new, mut r_new) = (l_ref.clone(), r_ref.clone());
            let acc_ref = pair_across_blocks(&mut l_ref, &mut r_ref, rule);
            let acc_new = SweepKernel { rule }.across(&mut l_new, &mut r_new);
            let what = format!("skips {rule:?}");
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
