//! The one plane rotation: the lane rotator of a column pair and the
//! two-sided oracle's top-pivot sequence, eight columns to a lane group —
//! each a kernel ([`Kernel`]) written once over the group ([`Lanes`]), so
//! every rotator runs inside the one function of its tier ([`on`]), and
//! each `f64::mul_add` of a scalar loop is the FMA instruction on both x86
//! tiers and a library call on the portable tier alone.

use super::lanes::{on, turn_lanes, Kernel, Lanes};
use super::walk::{step, STEP_STREAMS};
use super::{lane_tier, Operands};

/// The one plane rotation, of one entry pair: `(x, y) ← (c·x − s·y,
/// s·x + c·y)` as `x' = fma(c, x, −(s·y))` and `y' = fma(s, x, c·y)` — one
/// product rounded, then one fused multiply-add, so each entry is rounded
/// twice. Every rotator of every tier computes these bits.
///
/// Always inlined, so that in a tier function compiled with FMA it fuses
/// in one instruction; on the portable tier `f64::mul_add` is a library
/// call.
#[inline(always)]
pub(super) fn turn(x: f64, y: f64, c: f64, s: f64) -> (f64, f64) {
    (c.mul_add(x, -(s * y)), s.mul_add(x, c * y))
}

/// Applies the plane rotation to a column pair: `(xi, yi) ← (c·xi − s·yi,
/// s·xi + c·yi)`, each entry a multiply and a fused multiply-add,
/// `xi' = fma(c, xi, −(s·yi))` and `yi' = fma(s, xi, c·yi)`.
///
/// This is the update the paper performs on the paired columns of both the
/// `A` and `U` matrices for every similarity transformation.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rotate_pair(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    pair_rotate(x, y, &mut [], &mut [], c, s);
}

/// Fused rotation of a column *pair*: applies the same plane rotation to
/// `(ai, aj)` and `(ui, uj)` in one pass — the full update a Jacobi pairing
/// performs on the `A`- and `U`-columns of columns `i` and `j`.
///
/// The lane rotator (`Rotate`): the common prefix of all four streams is
/// rotated by the widest vector unit available, eight rows a chunk, the
/// excess (mismatched lengths, the rectangular SVD case, plus the rows past
/// the last chunk) by the scalar loop. Each entry takes `turn`'s multiply
/// and fused multiply-add, and element updates are independent, so neither
/// the vector width nor the fusing changes a bit: it is
/// `rotate_pair(ai, aj, c, s)` followed by `rotate_pair(ui, uj, c, s)`.
///
/// # Panics
/// Panics if `ai`/`aj` or `ui`/`uj` have mismatched lengths.
#[inline]
pub fn pair_rotate(ai: &mut [f64], aj: &mut [f64], ui: &mut [f64], uj: &mut [f64], c: f64, s: f64) {
    assert_eq!(ai.len(), aj.len());
    assert_eq!(ui.len(), uj.len());
    // SAFETY: the streams are four slices, each pair of one length.
    unsafe { on(lane_tier(), Rotate::new([ai, aj, ui, uj], c, s)) }
}

/// [`pair_rotate`], under the name the repository benchmark times its lane
/// path by.
#[inline]
pub fn pair_rotate_lanes(
    ai: &mut [f64],
    aj: &mut [f64],
    ui: &mut [f64],
    uj: &mut [f64],
    c: f64,
    s: f64,
) {
    pair_rotate(ai, aj, ui, uj, c, s);
}

/// The lane rotator's kernel, `rows = [ai, aj, ui, uj]`: the step pass of
/// one pairing that reduces nothing ([`step`]) — a chunk of eight rows at
/// a time, each chunk's four loads, then its turns, then its four stores,
/// and the rows past the last common chunk by the scalar loop.
pub(super) struct Rotate {
    pub(super) rows: [*mut f64; 4],
    pub(super) lens: [usize; 2],
    pub(super) c: f64,
    pub(super) s: f64,
}

/// A step that reduces no block: [`Rotate`]'s.
struct NoBlocks;

impl Operands<0> for NoBlocks {
    const TABLE: [[usize; 4]; 0] = [];
}

impl Rotate {
    /// The kernel of `(ai, aj)` and `(ui, uj)`, each pair of one length.
    pub(super) fn new([ai, aj, ui, uj]: [&mut [f64]; 4], c: f64, s: f64) -> Rotate {
        debug_assert!(ai.len() == aj.len() && ui.len() == uj.len());
        Rotate { lens: [ai.len(), ui.len()], rows: [ai, aj, ui, uj].map(<[f64]>::as_mut_ptr), c, s }
    }
}

impl Kernel for Rotate {
    type Out = ();

    #[inline(always)]
    unsafe fn run<G: Lanes>(self) {
        let mut streams = [std::ptr::null_mut(); STEP_STREAMS];
        streams[..4].copy_from_slice(&self.rows);
        step::<G, 1, 0, NoBlocks>(streams, [(self.c, self.s)], self.lens);
    }
}

/// Applies a top-pivot rotation sequence to each of the consecutive
/// `m`-element columns of `cols`: per column, `x = col[p]`, then for each
/// turn `(q, c, s)` of `chain` in order
/// `(x, col[q]) ← (c·x − s·col[q], s·x + c·col[q])` — each entry the
/// multiply and fused multiply-add of [`rotate_pair`] — then `col[p] = x`.
///
/// This is the shape of LAPACK's `dlasr` with SIDE = 'L', PIVOT = 'T' —
/// every rotation pairs the pivot row with another row — over an arbitrary
/// row sequence and in [`rotate_pair`]'s sign (`dlasr`'s `s` is `−s` here).
/// It is the deferred row half of two-sided Jacobi: the turns are the
/// rotations of pivot row `p`, and the columns are independent dependency
/// chains.
///
/// Every result is `to_bits`-equal to the scalar loop on every tier. One
/// column takes the scalar loop; more run eight at a time in one lane
/// group, lane `l` column `l`, a group of fewer repeating its last column
/// (those lanes compute its bits again and store them again). A run of
/// four consecutive pivot rows is one tile (each column's four entries
/// loaded and transposed in registers, four turns, the transpose back, the
/// stores), any other turn gathers its eight entries and scatters them
/// back, and every turn is a multiply and a fused multiply-add per entry,
/// so each entry sees the scalar operations in the scalar order.
///
/// # Panics
/// Panics unless `p < m`, `cols` is whole columns and every `q < m`.
#[inline]
pub fn rotate_top_pivot(cols: &mut [f64], m: usize, p: usize, chain: &[(usize, f64, f64)]) {
    assert!(p < m, "pivot row {p} outside a column of {m}");
    // One column is the call a pivot's catch-up makes once per pivot: no
    // division for it.
    let n = if cols.len() == m { 1 } else { cols.len() / m };
    assert_eq!(n * m, cols.len(), "not whole columns of {m}");
    if !chain.is_empty() {
        // SAFETY: `p < m` and `cols` being `n` columns were asserted above.
        unsafe { on(lane_tier(), TopPivot { cols, n, m, p, chain }) }
    }
}

/// [`rotate_top_pivot`] as a kernel on the `n` columns of `m` in `cols`.
/// Running it needs `p < m` and `cols` to be `n` whole columns.
pub(super) struct TopPivot<'a> {
    pub(super) cols: &'a mut [f64],
    pub(super) n: usize,
    pub(super) m: usize,
    pub(super) p: usize,
    pub(super) chain: &'a [(usize, f64, f64)],
}

impl Kernel for TopPivot<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<G: Lanes>(self) {
        let TopPivot { cols, n, m, p, chain } = self;
        if n == 1 {
            let mut x = cols[p];
            for &(q, c, s) in chain {
                (x, cols[q]) = turn(x, cols[q], c, s);
            }
            cols[p] = x;
            return;
        }
        let base = cols.as_mut_ptr();
        for first in (0..n).step_by(8) {
            let last = n.min(first + 8) - 1;
            let cols: [*mut f64; 8] = std::array::from_fn(|l| base.add((first + l).min(last) * m));
            let mut x = G::gather(cols, p);
            let mut t = 0;
            while t < chain.len() {
                let q = chain[t].0;
                assert!(q < m, "pivot row {q} outside a column of {m}");
                let run = q + 3 < m
                    && chain
                        .get(t + 1..t + 4)
                        .is_some_and(|r| r[0].0 == q + 1 && r[1].0 == q + 2 && r[2].0 == q + 3);
                if run {
                    // Rows q..q + 4 lie in every column: q + 3 < m.
                    let mut tile = G::gather_tile(cols, q);
                    for (row, &(_, c, s)) in tile.iter_mut().zip(&chain[t..t + 4]) {
                        (x, *row) = turn_lanes(x, *row, G::splat(c), G::splat(s));
                    }
                    G::scatter_tile(tile, cols, q);
                    t += 4;
                } else {
                    let (_, c, s) = chain[t];
                    let y;
                    (x, y) = turn_lanes(x, G::gather(cols, q), G::splat(c), G::splat(s));
                    y.scatter(cols, q);
                    t += 1;
                }
            }
            x.scatter(cols, p);
        }
    }
}

/// Turns rows `p` and `q` of two columns by the one rotation:
/// `(x[p], x[q])` and `(y[p], y[q])` each as [`rotate_top_pivot`] turns
/// one column by the turn `(q, c, s)` — a multiply and a fused
/// multiply-add per entry. It is the row half of a two-sided rotation's
/// 2×2 block, `x` and `y` its pivot columns `p` and `q`, in one call.
///
/// # Panics
/// Panics unless `p` and `q` are distinct rows of both columns.
#[inline]
pub fn rotate_pivot_rows(x: &mut [f64], y: &mut [f64], (p, q): (usize, usize), c: f64, s: f64) {
    assert!(p != q && p.max(q) < x.len().min(y.len()), "rows {p}, {q} of the columns");
    // SAFETY: the turns index the columns.
    unsafe { on(lane_tier(), PivotRows([x, y], (p, q), c, s)) }
}

/// [`rotate_pivot_rows`]' turns as a kernel, `[x, y]`, `(p, q)`, `c`, `s`.
pub(super) struct PivotRows<'a>(
    pub(super) [&'a mut [f64]; 2],
    pub(super) (usize, usize),
    pub(super) f64,
    pub(super) f64,
);

impl Kernel for PivotRows<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<G: Lanes>(self) {
        let PivotRows(cols, (p, q), c, s) = self;
        for col in cols {
            (col[p], col[q]) = turn(col[p], col[q], c, s);
        }
    }
}
