//! The one plane rotation: its scalar loop, the lane rotator, and the
//! two-sided oracle's top-pivot sequence — each a kernel ([`Kernel`]), so
//! every rotator runs inside the one function of its tier ([`on`]), and
//! each `f64::mul_add` of a scalar loop is the FMA instruction on both x86
//! tiers and a library call on the portable tier alone.

use super::lanes::{on, Kernel, Lanes};
use super::walk::{step, STEP_STREAMS};
use super::{lane_tier, LaneTier, Operands};

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
/// Element-wise identical to `rotate_pair(ai, aj, c, s)` followed by
/// `rotate_pair(ui, uj, c, s)` (each element's update is independent, so
/// fusing cannot change any bit), but walks the four streams in a single
/// loop: one round of loop control, four independent load/store streams for
/// the CPU to overlap. When the `A`- and `U`-columns have different lengths
/// (the rectangular SVD case), the common prefix of all four streams is
/// still rotated fused and only the excess of the longer pair is rotated
/// separately — bitwise identical to the back-to-back form either way.
///
/// # Panics
/// Panics if `ai`/`aj` or `ui`/`uj` have mismatched lengths.
#[inline]
pub fn pair_rotate(ai: &mut [f64], aj: &mut [f64], ui: &mut [f64], uj: &mut [f64], c: f64, s: f64) {
    assert_eq!(ai.len(), aj.len());
    assert_eq!(ui.len(), uj.len());
    // SAFETY: the loops index the slices, whose lengths were asserted above.
    unsafe { on(lane_tier(), PairLoop([ai, aj, ui, uj], c, s)) }
}

/// [`pair_rotate`]'s loops as a kernel, `[ai, aj, ui, uj]`, `c`, `s`: the
/// common prefix of the four streams, then the excess of the longer pair.
pub(super) struct PairLoop<'a>(pub(super) [&'a mut [f64]; 4], pub(super) f64, pub(super) f64);

impl Kernel for PairLoop<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<G: Lanes>(self) {
        let PairLoop([ai, aj, ui, uj], c, s) = self;
        let n = ai.len().min(ui.len());
        let (ah, bh, uh, vh) = (&mut ai[..n], &mut aj[..n], &mut ui[..n], &mut uj[..n]);
        for k in 0..n {
            (ah[k], bh[k]) = turn(ah[k], bh[k], c, s);
            (uh[k], vh[k]) = turn(uh[k], vh[k], c, s);
        }
        for (x, y) in [(&mut ai[n..], &mut aj[n..]), (&mut ui[n..], &mut uj[n..])] {
            for (x, y) in x.iter_mut().zip(y) {
                (*x, *y) = turn(*x, *y, c, s);
            }
        }
    }
}

/// The shortest prefix [`pair_rotate_lanes`] gives the AVX-512 group: four
/// of its chunks; a shorter one runs the AVX2 group. On an AVX-512 Xeon
/// (Sapphire Rapids class) the two-sided oracle ran 7–10 % quicker at
/// m = 10 and 20 with the AVX2 form, and 6–9 % slower at m = 33, 48 and 64
/// (measured when that form went four lanes a chunk).
#[cfg(target_arch = "x86_64")]
const AVX512_MIN_ROTATE: usize = 32;

/// [`pair_rotate`] on the lane path: the common prefix of all four streams
/// is rotated by the widest vector unit available, eight rows a chunk, the
/// excess (mismatched lengths, plus the rows past the last chunk) by the
/// scalar loop. On an AVX-512 host a prefix shorter than 32 elements runs
/// the AVX2 group.
///
/// Bitwise identical to [`pair_rotate`] on every tier: each lane rotates
/// its entry pair with the loop's multiply and fused multiply-add, in the
/// loop's operand order, and element updates are independent, so vector
/// width cannot reorder anything that affects a result bit.
///
/// # Panics
/// Panics if `ai`/`aj` or `ui`/`uj` have mismatched lengths.
#[inline]
pub fn pair_rotate_lanes(
    ai: &mut [f64],
    aj: &mut [f64],
    ui: &mut [f64],
    uj: &mut [f64],
    c: f64,
    s: f64,
) {
    pair_rotate_on(lane_tier(), ai, aj, ui, uj, c, s);
}

/// [`pair_rotate_lanes`] on `tier`.
#[inline]
pub(super) fn pair_rotate_on(
    tier: LaneTier,
    ai: &mut [f64],
    aj: &mut [f64],
    ui: &mut [f64],
    uj: &mut [f64],
    c: f64,
    s: f64,
) {
    assert_eq!(ai.len(), aj.len());
    assert_eq!(ui.len(), uj.len());
    // SAFETY: the streams are four slices, each pair of one length.
    unsafe { rotate_on(tier, Rotate::new([ai, aj, ui, uj], c, s)) }
}

/// Runs `rotate` on `tier`, where on AVX-512 a head shorter than
/// [`AVX512_MIN_ROTATE`] runs the AVX2 group.
///
/// # Safety
/// `rotate`'s streams must be four distinct ones, the `A` pair of
/// `lens[0]` values and the `U` pair of `lens[1]`.
#[inline]
pub(super) unsafe fn rotate_on(tier: LaneTier, rotate: Rotate) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // The tier implies avx2 and fma (rustc's `avx512f` includes both).
        LaneTier::Avx512 if rotate.lens[0].min(rotate.lens[1]) < AVX512_MIN_ROTATE => {
            super::lanes::x86::on_avx2(rotate)
        }
        _ => on(tier, rotate),
    }
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
/// Every result is `to_bits`-equal to the scalar loop on every tier. On
/// both x86 tiers four or more columns take the AVX2 form, which holds
/// four columns in one register, lane `l` column `l`: a run of four
/// consecutive pivot rows is one 4×4 tile (four loads, a transpose, four
/// turns, the transpose back, four stores), any other turn loads its four
/// entries lane by lane, and every turn is a multiply and a fused
/// multiply-add per entry, so each entry sees the scalar operations in the
/// scalar order. It runs two four-column groups abreast, so their `x`
/// chains overlap; leftover columns, fewer than four, and the portable
/// tier take the scalar loop a few columns abreast.
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

/// [`rotate_top_pivot`] as a kernel on the `n` columns of `m` in `cols`:
/// the AVX2 groups on a vector tier from four columns, the scalar loop
/// otherwise. Running it needs `p < m` and `cols` to be `n` whole columns.
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
        #[cfg(target_arch = "x86_64")]
        if n >= 4 && !matches!(G::TIER, LaneTier::Portable) {
            // SAFETY: both vector tiers imply avx2 and fma; `p < m` and `n`
            // whole columns are the kernel's own condition.
            return x86::rotate_top_pivot_avx2(cols, n, m, p, chain);
        }
        rotate_top_pivot_loop(cols, n, m, p, chain);
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

/// The scalar loop of [`rotate_top_pivot`] on the `n` columns of `cols`,
/// four abreast, then the one to three left over abreast — inlined into
/// the tier function that runs [`TopPivot`].
#[inline(always)]
fn rotate_top_pivot_loop(
    cols: &mut [f64],
    n: usize,
    m: usize,
    p: usize,
    chain: &[(usize, f64, f64)],
) {
    for g in 0..n / 4 {
        top_pivot_abreast::<4>(&mut cols[4 * g * m..4 * (g + 1) * m], m, p, chain);
    }
    let rest = &mut cols[n / 4 * 4 * m..];
    match n % 4 {
        0 => {}
        1 => top_pivot_column(rest, p, chain),
        2 => top_pivot_abreast::<2>(rest, m, p, chain),
        _ => top_pivot_abreast::<3>(rest, m, p, chain),
    }
}

/// [`rotate_top_pivot`] on one column.
#[inline(always)]
fn top_pivot_column(col: &mut [f64], p: usize, chain: &[(usize, f64, f64)]) {
    let mut x = col[p];
    for &(q, c, s) in chain {
        (x, col[q]) = turn(x, col[q], c, s);
    }
    col[p] = x;
}

/// [`rotate_top_pivot`] on exactly `N` columns, one scalar chain each.
#[inline(always)]
fn top_pivot_abreast<const N: usize>(
    cols: &mut [f64],
    m: usize,
    p: usize,
    chain: &[(usize, f64, f64)],
) {
    let mut rest = cols;
    let mut cols: [&mut [f64]; N] = std::array::from_fn(|_| {
        let (col, tail) = std::mem::take(&mut rest).split_at_mut(m);
        rest = tail;
        col
    });
    let mut x: [f64; N] = std::array::from_fn(|i| cols[i][p]);
    for &(q, c, s) in chain {
        for (col, x) in cols.iter_mut().zip(&mut x) {
            (*x, col[q]) = turn(*x, col[q], c, s);
        }
    }
    for (col, x) in cols.iter_mut().zip(x) {
        col[p] = x;
    }
}

/// The x86-64 form of the top-pivot sequence: four columns to a register,
/// every function always inlined into the tier function that runs
/// [`TopPivot`] (`lanes`' `x86::on_avx2` or `x86::on_avx512`), whose
/// features — avx2 and fma, which rustc's `avx512f` includes — each
/// intrinsic here needs.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// [`super::rotate_top_pivot`] with four columns to a register: eight
    /// columns at a time as two groups abreast, then a group of four, then
    /// the one to three left over on the scalar loop. Every turn is
    /// [`turn4`], so every entry's bits match the scalar chain.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; `p < m` and `cols` must be `n` columns of
    /// `m` (checked by the safe wrapper).
    #[inline(always)]
    pub(super) unsafe fn rotate_top_pivot_avx2(
        cols: &mut [f64],
        n: usize,
        m: usize,
        p: usize,
        chain: &[(usize, f64, f64)],
    ) {
        let base = cols.as_mut_ptr();
        let group = |j: usize| -> [*mut f64; 4] { std::array::from_fn(|l| base.add((j + l) * m)) };
        let mut j = 0;
        while j + 8 <= n {
            top_pivot_groups([group(j), group(j + 4)], m, p, chain);
            j += 8;
        }
        if j + 4 <= n {
            top_pivot_groups([group(j)], m, p, chain);
            j += 4;
        }
        super::rotate_top_pivot_loop(&mut cols[j * m..], n - j, m, p, chain);
    }

    /// Entry `r` of each of the four columns `c`, lane `l` column `l`.
    ///
    /// # Safety
    /// Requires AVX; `r` must be in bounds of every column.
    #[inline(always)]
    unsafe fn gather4(c: [*mut f64; 4], r: usize) -> __m256d {
        _mm256_set_pd(*c[3].add(r), *c[2].add(r), *c[1].add(r), *c[0].add(r))
    }

    /// Stores lane `l` of `v` to entry `r` of column `c[l]`.
    ///
    /// # Safety
    /// Requires AVX; `r` must be in bounds of every column.
    #[inline(always)]
    unsafe fn scatter4(c: [*mut f64; 4], r: usize, v: __m256d) {
        let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
        _mm_storel_pd(c[0].add(r), lo);
        _mm_storeh_pd(c[1].add(r), lo);
        _mm_storel_pd(c[2].add(r), hi);
        _mm_storeh_pd(c[3].add(r), hi);
    }

    /// The 4×4 transpose: four columns' four consecutive rows in, the four
    /// rows' four columns out — and back, as it is its own inverse.
    ///
    /// # Safety
    /// Requires AVX.
    #[inline(always)]
    unsafe fn transpose4(v: [__m256d; 4]) -> [__m256d; 4] {
        let t0 = _mm256_unpacklo_pd(v[0], v[1]);
        let t1 = _mm256_unpackhi_pd(v[0], v[1]);
        let t2 = _mm256_unpacklo_pd(v[2], v[3]);
        let t3 = _mm256_unpackhi_pd(v[2], v[3]);
        [
            _mm256_permute2f128_pd(t0, t2, 0x20),
            _mm256_permute2f128_pd(t1, t3, 0x20),
            _mm256_permute2f128_pd(t0, t2, 0x31),
            _mm256_permute2f128_pd(t1, t3, 0x31),
        ]
    }

    /// [`super::turn`] on four entry pairs: `(x, y) ← (fma(c, x, −(s·y)),
    /// fma(s, x, c·y))`, lane by lane.
    ///
    /// # Safety
    /// Requires AVX and FMA.
    #[inline(always)]
    unsafe fn turn4(x: &mut __m256d, y: &mut __m256d, vc: __m256d, vs: __m256d) {
        let (x0, y0) = (*x, *y);
        *y = _mm256_fmadd_pd(vs, x0, _mm256_mul_pd(vc, y0));
        *x = _mm256_fmsub_pd(vc, x0, _mm256_mul_pd(vs, y0));
    }

    /// The whole chain on `G` groups of four columns abreast: each group's
    /// pivot entries in one register, the groups' turns interleaved.
    ///
    /// # Safety
    /// Requires AVX2 and FMA; every column must hold `m` elements and
    /// `p < m`. Pivot rows are checked here.
    #[inline(always)]
    unsafe fn top_pivot_groups<const G: usize>(
        cols: [[*mut f64; 4]; G],
        m: usize,
        p: usize,
        chain: &[(usize, f64, f64)],
    ) {
        // No closures below: a closure would not take the target features
        // of the tier function this is inlined into, and the helpers would
        // not inline into it.
        let mut x = [_mm256_setzero_pd(); G];
        for (x, &c) in x.iter_mut().zip(&cols) {
            *x = gather4(c, p);
        }
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
                let mut tiles = [[_mm256_setzero_pd(); 4]; G];
                for (tile, &c) in tiles.iter_mut().zip(&cols) {
                    *tile = transpose4([
                        _mm256_loadu_pd(c[0].add(q)),
                        _mm256_loadu_pd(c[1].add(q)),
                        _mm256_loadu_pd(c[2].add(q)),
                        _mm256_loadu_pd(c[3].add(q)),
                    ]);
                }
                for (k, &(_, c, s)) in chain[t..t + 4].iter().enumerate() {
                    let (vc, vs) = (_mm256_set1_pd(c), _mm256_set1_pd(s));
                    for (x, tile) in x.iter_mut().zip(&mut tiles) {
                        turn4(x, &mut tile[k], vc, vs);
                    }
                }
                for (&tile, &c) in tiles.iter().zip(&cols) {
                    let rows = transpose4(tile);
                    for (&col, row) in c.iter().zip(rows) {
                        _mm256_storeu_pd(col.add(q), row);
                    }
                }
                t += 4;
            } else {
                let (_, c, s) = chain[t];
                let (vc, vs) = (_mm256_set1_pd(c), _mm256_set1_pd(s));
                for (x, &c) in x.iter_mut().zip(&cols) {
                    let mut y = gather4(c, q);
                    turn4(x, &mut y, vc, vs);
                    scatter4(c, q, y);
                }
                t += 1;
            }
        }
        for (&x, &c) in x.iter().zip(&cols) {
            scatter4(c, p, x);
        }
    }
}
