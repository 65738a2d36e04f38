//! BLAS-1 style kernels used by the one-sided Jacobi inner loop.
//!
//! These are the only operations on the solver's hot path: the inner
//! product and the plane rotation, each with one definition, and kernels
//! dispatched at runtime to the widest vector unit the CPU offers (AVX-512F,
//! then AVX2 — with FMA where the kernel uses it — then a portable loop).
//! Every tier of a kernel computes its definition's bits.
//!
//! * [`dot`] is the one inner product: eight partial sums by index mod 8,
//!   each a fused multiply-add chain that starts at 0.0, then the fixed
//!   tree `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, then the `n mod 8` tail
//!   folded in index order with a fused multiply-add. FMA is a correctly
//!   rounded IEEE operation, so the bits do not depend on the host.
//!   AVX-512F holds a product's eight sums in one register, AVX2 with FMA
//!   in two; the portable form, which is also what an AVX2 host without
//!   FMA runs, calls `f64::mul_add`. [`dot_x2`], [`fused_triple`] and
//!   [`fused_triple_x2`] take two, three and six inner products in one
//!   pass, each product bitwise [`dot`].
//! * [`pair_rotate`] is the rotation (multiply, multiply, add), and
//!   [`pair_rotate_lanes`] its vector form: it multiplies then adds — no
//!   FMA — so it is bitwise the scalar loop at every width.

/// Which bits the rotation stack computes — one set, whichever variant.
///
/// Every inner product is bitwise [`dot`] and every rotation bitwise
/// [`pair_rotate`] on both variants; neither names an instruction set.
/// Kept only because the repository benchmark (`benchmark/src`) still
/// names it; the benchmark-correcting change of ROADMAP item 1 deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The one set of bits.
    #[default]
    Scalar,
    /// The same bits as `Scalar`.
    Lanes,
}

/// The vector unit the kernels dispatch to, detected once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneTier {
    /// AVX-512F, which includes AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 with FMA: every AVX2 kernel.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// AVX2 without FMA: the rotators, which use none; the reductions run
    /// portable.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

#[cfg(target_arch = "x86_64")]
fn lane_tier() -> LaneTier {
    use std::arch::is_x86_feature_detected;
    static TIER: std::sync::OnceLock<LaneTier> = std::sync::OnceLock::new();
    *TIER.get_or_init(|| {
        if is_x86_feature_detected!("avx512f") {
            LaneTier::Avx512
        } else if is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("fma") {
                LaneTier::Avx2Fma
            } else {
                LaneTier::Avx2
            }
        } else {
            LaneTier::Portable
        }
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn lane_tier() -> LaneTier {
    LaneTier::Portable
}

/// Which inner products one pass of a reduction takes over its streams:
/// product `k` is `streams[TABLE[k][0]] · streams[TABLE[k][1]]`.
trait Products<const P: usize> {
    const TABLE: [[usize; 2]; P];
}

/// [`dot`]: `x · y` over `[x, y]`.
struct One;
/// [`dot_x2`]: `x0 · y0` and `x1 · y1` over `[x0, y0, x1, y1]`.
struct Two;
/// [`fused_triple`]: `x · a`, `x · b` and `y · b` over `[x, a, y, b]`.
struct Triple;
/// [`fused_triple_x2`]: a [`Triple`] over each half of eight streams.
struct TripleX2;

impl Products<1> for One {
    const TABLE: [[usize; 2]; 1] = [[0, 1]];
}
impl Products<2> for Two {
    const TABLE: [[usize; 2]; 2] = [[0, 1], [2, 3]];
}
impl Products<3> for Triple {
    const TABLE: [[usize; 2]; 3] = [[0, 1], [0, 3], [2, 3]];
}
impl Products<6> for TripleX2 {
    const TABLE: [[usize; 2]; 6] = [[0, 1], [0, 3], [2, 3], [4, 5], [4, 7], [6, 7]];
}

/// `T`'s products over `streams`, each bitwise [`dot`], on the widest tier
/// this host has.
///
/// # Panics
/// Panics, with `assert_eq!`'s message, unless every stream has one length.
#[inline]
fn dots<const S: usize, const P: usize, T: Products<P>>(streams: [&[f64]; S]) -> [f64; P] {
    for s in &streams[1..] {
        assert_eq!(streams[0].len(), s.len());
    }
    match lane_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier implies cpuid reported avx512f (`lane_tier`),
        // and every stream's length was just checked.
        LaneTier::Avx512 => unsafe { x86::dots_avx512::<S, P, T>(streams) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier implies cpuid reported avx2 and fma, and every
        // stream's length was just checked.
        LaneTier::Avx2Fma => unsafe { x86::dots_avx2::<S, P, T>(streams) },
        _ => dots_portable::<S, P, T>(streams),
    }
}

/// The portable tier of [`dots`]: the definition, lane `l` of product `k`
/// an `f64::mul_add` chain.
fn dots_portable<const S: usize, const P: usize, T: Products<P>>(streams: [&[f64]; S]) -> [f64; P] {
    let body = streams[0].len() / 8 * 8;
    let mut sums = [[0.0f64; 8]; P];
    for i in (0..body).step_by(8) {
        for (sums, [x, y]) in sums.iter_mut().zip(T::TABLE) {
            for (l, sum) in sums.iter_mut().enumerate() {
                *sum = streams[x][i + l].mul_add(streams[y][i + l], *sum);
            }
        }
    }
    finish::<S, P, T>(sums, streams, body)
}

/// The end every tier's reduction shares: each product's eight partial sums
/// through the fixed tree — written out here once — then the tail from
/// `body` on, folded in index order with a fused multiply-add.
#[inline(always)]
fn finish<const S: usize, const P: usize, T: Products<P>>(
    sums: [[f64; 8]; P],
    streams: [&[f64]; S],
    body: usize,
) -> [f64; P] {
    let mut out = sums
        .map(|[s0, s1, s2, s3, s4, s5, s6, s7]| ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7)));
    for i in body..streams[0].len() {
        for (out, [x, y]) in out.iter_mut().zip(T::TABLE) {
            *out = streams[x][i].mul_add(streams[y][i], *out);
        }
    }
    out
}

/// The inner product of two equal-length slices: eight partial sums by
/// index mod 8, each a fused multiply-add chain from 0.0, the tree
/// `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, then the `n mod 8` tail in
/// index order, fused. The same bits on every host.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    let [d] = dots::<2, 1, One>([x, y]);
    d
}

/// Two [`dot`]s in one pass, `[x0 · y0, x1 · y1]`, each `to_bits`-equal to
/// [`dot`]: two independent add chains where one `dot` has one. Products of
/// different lengths are taken one after the other.
///
/// # Panics
/// Panics if the two slices of either product differ in length.
#[inline]
pub fn dot_x2([x0, y0]: [&[f64]; 2], [x1, y1]: [&[f64]; 2]) -> [f64; 2] {
    if x0.len() != x1.len() {
        return [dot(x0, y0), dot(x1, y1)];
    }
    dots::<4, 2, Two>([x0, y0, x1, y1])
}

/// The three inner products a Jacobi pairing needs, in one pass:
/// `(x·a, x·b, y·b)`, each `to_bits`-equal to [`dot`].
///
/// A pairing derives its 2×2 block from `app = u_i·a_i`, `apq = u_i·a_j`,
/// `aqq = u_j·a_j` (or the Gram forms with `a` in both roles) — three dot
/// products over the same column pair. Walking the four streams once does
/// 3 multiply-adds per 4 loads instead of three separate 2-load traversals.
///
/// # Panics
/// Panics if the slices do not all have one common length.
#[inline]
pub fn fused_triple(x: &[f64], a: &[f64], y: &[f64], b: &[f64]) -> (f64, f64, f64) {
    let [pp, pq, qq] = dots::<4, 3, Triple>([x, a, y, b]);
    (pp, pq, qq)
}

/// The four streams `[x, a, y, b]` of one [`fused_triple`] call.
pub type TripleStreams<'a> = [&'a [f64]; 4];

/// Two [`fused_triple`]s in one pass: the 2×2 blocks of two pairings that
/// share no column, each of the six products `to_bits`-equal to [`dot`],
/// so six add chains are in flight where one pairing has three.
///
/// Pairings of different column lengths take the two blocks one after the
/// other, as does the AVX2 tier, whose twelve accumulators would not fit
/// its sixteen registers beside the loads.
///
/// # Panics
/// Panics if the four streams of either pairing do not share one length.
#[inline]
pub fn fused_triple_x2(p: TripleStreams<'_>, q: TripleStreams<'_>) -> [(f64, f64, f64); 2] {
    let apart = p[0].len() != q[0].len();
    #[cfg(target_arch = "x86_64")]
    let apart = apart || lane_tier() == LaneTier::Avx2Fma;
    if apart {
        let one = |[x, a, y, b]: TripleStreams<'_>| fused_triple(x, a, y, b);
        return [one(p), one(q)];
    }
    let [pp0, pq0, qq0, pp1, pq1, qq1] =
        dots::<8, 6, TripleX2>([p[0], p[1], p[2], p[3], q[0], q[1], q[2], q[3]]);
    [(pp0, pq0, qq0), (pp1, pq1, qq1)]
}

/// Applies the plane rotation to a column pair in one fused pass:
/// `(xi, yi) ← (c·xi − s·yi, s·xi + c·yi)`.
///
/// This is the update the paper performs on the paired columns of both the
/// `A` and `U` matrices for every similarity transformation.
#[inline]
pub fn rotate_pair(x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact_mut(4);
    let mut yc = y.chunks_exact_mut(4);
    for (xk, yk) in (&mut xc).zip(&mut yc) {
        // Written out element by element so each of the four updates is
        // visibly independent — no loop for the compiler to leave rolled.
        let (x0, x1, x2, x3) = (xk[0], xk[1], xk[2], xk[3]);
        let (y0, y1, y2, y3) = (yk[0], yk[1], yk[2], yk[3]);
        xk[0] = c * x0 - s * y0;
        xk[1] = c * x1 - s * y1;
        xk[2] = c * x2 - s * y2;
        xk[3] = c * x3 - s * y3;
        yk[0] = s * x0 + c * y0;
        yk[1] = s * x1 + c * y1;
        yk[2] = s * x2 + c * y2;
        yk[3] = s * x3 + c * y3;
    }
    for (xi, yi) in xc.into_remainder().iter_mut().zip(yc.into_remainder()) {
        let (x0, y0) = (*xi, *yi);
        *xi = c * x0 - s * y0;
        *yi = s * x0 + c * y0;
    }
}

/// The fused four-stream scalar rotation over equal-length slices: the body
/// shared by [`pair_rotate`] and the portable tier of
/// [`pair_rotate_lanes`].
fn rotate4(ai: &mut [f64], aj: &mut [f64], ui: &mut [f64], uj: &mut [f64], c: f64, s: f64) {
    debug_assert_eq!(ai.len(), aj.len());
    debug_assert_eq!(ai.len(), ui.len());
    debug_assert_eq!(ai.len(), uj.len());
    for k in 0..ai.len() {
        let a0 = ai[k];
        let a1 = aj[k];
        let u0 = ui[k];
        let u1 = uj[k];
        ai[k] = c * a0 - s * a1;
        aj[k] = s * a0 + c * a1;
        ui[k] = c * u0 - s * u1;
        uj[k] = s * u0 + c * u1;
    }
}

/// Splits the four streams of a column-pair rotation into an equal-length
/// common prefix (rotated fused, four streams in one loop) and at most one
/// pair of excess tails (rotated as a plain pair). Each element's update is
/// independent, so the split cannot change any bit relative to rotating the
/// `A`- and `U`-pairs back to back.
type QuadStreams<'a> = (&'a mut [f64], &'a mut [f64], &'a mut [f64], &'a mut [f64]);
type PairStreams<'a> = (&'a mut [f64], &'a mut [f64]);

#[inline]
fn split_pair_streams<'a>(
    ai: &'a mut [f64],
    aj: &'a mut [f64],
    ui: &'a mut [f64],
    uj: &'a mut [f64],
) -> (QuadStreams<'a>, PairStreams<'a>, PairStreams<'a>) {
    let n = ai.len().min(ui.len());
    let (ah, at) = ai.split_at_mut(n);
    let (bh, bt) = aj.split_at_mut(n);
    let (uh, ut) = ui.split_at_mut(n);
    let (vh, vt) = uj.split_at_mut(n);
    ((ah, bh, uh, vh), (at, bt), (ut, vt))
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
    let (head, a_tail, u_tail) = split_pair_streams(ai, aj, ui, uj);
    rotate4(head.0, head.1, head.2, head.3, c, s);
    rotate_pair(a_tail.0, a_tail.1, c, s);
    rotate_pair(u_tail.0, u_tail.1, c, s);
}

/// The shortest prefix [`pair_rotate_lanes`] gives the AVX-512 form: four
/// of its vectors. On an AVX-512 Xeon (Sapphire Rapids class) the two-sided
/// oracle ran 7–10 % quicker at m = 10 and 20 with the AVX2 form, and
/// 6–9 % slower at m = 33, 48 and 64.
#[cfg(target_arch = "x86_64")]
const AVX512_MIN_ROTATE: usize = 32;

/// [`pair_rotate`] on the lane path: the common prefix of all four streams
/// is rotated by the widest vector unit available, the excess (mismatched
/// lengths, plus the sub-width tail) by the scalar loop. On an AVX-512
/// host a prefix shorter than 32 elements runs the AVX2 form.
///
/// Bitwise identical to [`pair_rotate`] on every tier: the lane rotate
/// multiplies then adds/subtracts exactly as the scalar loop does — no FMA —
/// and element updates are independent, so vector width cannot reorder
/// anything that affects a result bit.
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
    assert_eq!(ai.len(), aj.len());
    assert_eq!(ui.len(), uj.len());
    let (head, a_tail, u_tail) = split_pair_streams(ai, aj, ui, uj);
    match lane_tier() {
        #[cfg(target_arch = "x86_64")]
        // Safety: tier implies the feature was detected (see `lane_tier`).
        LaneTier::Avx512 if head.0.len() >= AVX512_MIN_ROTATE => unsafe {
            x86::pair_rotate_avx512(head.0, head.1, head.2, head.3, c, s)
        },
        #[cfg(target_arch = "x86_64")]
        // Safety: each of these tiers implies avx2 (rustc's `avx512f`
        // includes it).
        LaneTier::Avx512 | LaneTier::Avx2Fma | LaneTier::Avx2 => unsafe {
            x86::pair_rotate_avx2(head.0, head.1, head.2, head.3, c, s)
        },
        LaneTier::Portable => rotate4(head.0, head.1, head.2, head.3, c, s),
    }
    rotate_pair(a_tail.0, a_tail.1, c, s);
    rotate_pair(u_tail.0, u_tail.1, c, s);
}

/// Applies a top-pivot rotation sequence to each of the consecutive
/// `m`-element columns of `cols`: per column, `x = col[p]`, then for each
/// turn `(q, c, s)` of `chain` in order
/// `(x, col[q]) ← (c·x − s·col[q], s·x + c·col[q])`, then `col[p] = x`.
///
/// This is the shape of LAPACK's `dlasr` with SIDE = 'L', PIVOT = 'T' —
/// every rotation pairs the pivot row with another row — over an arbitrary
/// row sequence and in [`rotate_pair`]'s sign (`dlasr`'s `s` is `−s` here).
/// It is the deferred row half of two-sided Jacobi: the turns are the
/// rotations of pivot row `p`, and the columns are independent dependency
/// chains.
///
/// Every result is `to_bits`-equal to the scalar loop on every tier. The
/// AVX2 form holds four columns in one register, lane `l` column `l`: a
/// run of four consecutive pivot rows is one 4×4 tile (four loads, a
/// transpose, four turns, the transpose back, four stores), any other turn
/// loads its four entries lane by lane, and every turn multiplies then
/// adds — no FMA — so each entry sees the scalar operations in the scalar
/// order. It runs two four-column groups abreast, so their `x` chains
/// overlap; leftover columns, and the portable tier, take the scalar loop
/// a few columns abreast.
///
/// # Panics
/// Panics unless `p < m`, `cols` is whole columns and every `q < m`.
#[inline]
pub fn rotate_top_pivot(cols: &mut [f64], m: usize, p: usize, chain: &[(usize, f64, f64)]) {
    assert!(p < m, "pivot row {p} outside a column of {m}");
    // One column fills no lanes. It is the call a pivot's catch-up makes
    // once per pivot, so it stays small enough to inline.
    if cols.len() == m {
        top_pivot_column(cols, p, chain);
    } else {
        rotate_top_pivot_columns(cols, m, p, chain);
    }
}

/// [`rotate_top_pivot`] on more than one column.
fn rotate_top_pivot_columns(cols: &mut [f64], m: usize, p: usize, chain: &[(usize, f64, f64)]) {
    let n = cols.len() / m;
    assert_eq!(n * m, cols.len(), "not whole columns of {m}");
    if chain.is_empty() {
        return;
    }
    match lane_tier() {
        #[cfg(target_arch = "x86_64")]
        // Safety: each of these tiers implies avx2 (rustc's `avx512f`
        // includes it); `p < m` and `cols` being `n` columns were asserted
        // above.
        LaneTier::Avx512 | LaneTier::Avx2Fma | LaneTier::Avx2 if n >= 4 => unsafe {
            x86::rotate_top_pivot_avx2(cols, n, m, p, chain)
        },
        _ => rotate_top_pivot_portable(cols, n, m, p, chain),
    }
}

/// The scalar loop of [`rotate_top_pivot`] on the `n` columns of `cols`,
/// four abreast, then the one to three left over abreast.
fn rotate_top_pivot_portable(
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
#[inline]
fn top_pivot_column(col: &mut [f64], p: usize, chain: &[(usize, f64, f64)]) {
    let mut x = col[p];
    for &(q, c, s) in chain {
        let y = col[q];
        col[q] = s * x + c * y;
        x = c * x - s * y;
    }
    col[p] = x;
}

/// [`rotate_top_pivot`] on exactly `N` columns, one scalar chain each.
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
            let y = col[q];
            col[q] = s * *x + c * y;
            *x = c * *x - s * y;
        }
    }
    for (col, x) in cols.iter_mut().zip(x) {
        col[p] = x;
    }
}

/// Explicit x86-64 lane kernels. Every function here carries a
/// `#[target_feature]` attribute and is only reachable through
/// [`lane_tier`]'s cpuid dispatch, which is the safety condition for each
/// of the `unsafe fn`s below.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// [`super::dots`] on AVX-512F: product `k`'s eight partial sums in one
    /// register, lane `l` the sum of index `l` mod 8, one fused
    /// multiply-add per eight elements — then [`super::finish`]'s tree and
    /// tail.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` via cpuid (rustc's `avx512f`
    /// includes `fma`); all `S` streams must share one length (checked by
    /// [`super::dots`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dots_avx512<const S: usize, const P: usize, T: super::Products<P>>(
        streams: [&[f64]; S],
    ) -> [f64; P] {
        let body = streams[0].len() / 8 * 8;
        let mut acc = [_mm512_setzero_pd(); P];
        let mut v = [_mm512_setzero_pd(); S];
        for i in (0..body).step_by(8) {
            for (reg, s) in v.iter_mut().zip(streams) {
                *reg = _mm512_loadu_pd(s.as_ptr().add(i));
            }
            for (acc, [x, y]) in acc.iter_mut().zip(T::TABLE) {
                *acc = _mm512_fmadd_pd(v[x], v[y], *acc);
            }
        }
        let mut sums = [[0.0f64; 8]; P];
        for (sums, acc) in sums.iter_mut().zip(acc) {
            _mm512_storeu_pd(sums.as_mut_ptr(), acc);
        }
        super::finish::<S, P, T>(sums, streams, body)
    }

    /// [`super::dots`] on AVX2 with FMA: product `k`'s eight partial sums in
    /// two registers, lanes 0–3 and 4–7, one fused multiply-add each per
    /// eight elements — then [`super::finish`]'s tree and tail.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` via cpuid; all `S`
    /// streams must share one length (checked by [`super::dots`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dots_avx2<const S: usize, const P: usize, T: super::Products<P>>(
        streams: [&[f64]; S],
    ) -> [f64; P] {
        let body = streams[0].len() / 8 * 8;
        let mut lo = [_mm256_setzero_pd(); P];
        let mut hi = [_mm256_setzero_pd(); P];
        let mut vlo = [_mm256_setzero_pd(); S];
        let mut vhi = [_mm256_setzero_pd(); S];
        for i in (0..body).step_by(8) {
            for ((rlo, rhi), s) in vlo.iter_mut().zip(&mut vhi).zip(streams) {
                *rlo = _mm256_loadu_pd(s.as_ptr().add(i));
                *rhi = _mm256_loadu_pd(s.as_ptr().add(i + 4));
            }
            for ((lo, hi), [x, y]) in lo.iter_mut().zip(&mut hi).zip(T::TABLE) {
                *lo = _mm256_fmadd_pd(vlo[x], vlo[y], *lo);
                *hi = _mm256_fmadd_pd(vhi[x], vhi[y], *hi);
            }
        }
        let mut sums = [[0.0f64; 8]; P];
        for ((sums, lo), hi) in sums.iter_mut().zip(lo).zip(hi) {
            _mm256_storeu_pd(sums.as_mut_ptr(), lo);
            _mm256_storeu_pd(sums.as_mut_ptr().add(4), hi);
        }
        super::finish::<S, P, T>(sums, streams, body)
    }

    /// Four-stream rotate, 8 lanes at a time. Multiplies then adds — NO
    /// FMA — so every element's bits match the scalar loop exactly.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` via cpuid; all four slices must
    /// share one length (checked by the safe wrapper).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn pair_rotate_avx512(
        ai: &mut [f64],
        aj: &mut [f64],
        ui: &mut [f64],
        uj: &mut [f64],
        c: f64,
        s: f64,
    ) {
        let n = ai.len();
        let vc = _mm512_set1_pd(c);
        let vs = _mm512_set1_pd(s);
        let chunks = n / 8;
        for k in 0..chunks {
            let i = 8 * k;
            let a0 = _mm512_loadu_pd(ai.as_ptr().add(i));
            let a1 = _mm512_loadu_pd(aj.as_ptr().add(i));
            let u0 = _mm512_loadu_pd(ui.as_ptr().add(i));
            let u1 = _mm512_loadu_pd(uj.as_ptr().add(i));
            let na0 = _mm512_sub_pd(_mm512_mul_pd(vc, a0), _mm512_mul_pd(vs, a1));
            let na1 = _mm512_add_pd(_mm512_mul_pd(vs, a0), _mm512_mul_pd(vc, a1));
            let nu0 = _mm512_sub_pd(_mm512_mul_pd(vc, u0), _mm512_mul_pd(vs, u1));
            let nu1 = _mm512_add_pd(_mm512_mul_pd(vs, u0), _mm512_mul_pd(vc, u1));
            _mm512_storeu_pd(ai.as_mut_ptr().add(i), na0);
            _mm512_storeu_pd(aj.as_mut_ptr().add(i), na1);
            _mm512_storeu_pd(ui.as_mut_ptr().add(i), nu0);
            _mm512_storeu_pd(uj.as_mut_ptr().add(i), nu1);
        }
        for i in 8 * chunks..n {
            let a0 = ai[i];
            let a1 = aj[i];
            let u0 = ui[i];
            let u1 = uj[i];
            ai[i] = c * a0 - s * a1;
            aj[i] = s * a0 + c * a1;
            ui[i] = c * u0 - s * u1;
            uj[i] = s * u0 + c * u1;
        }
    }

    /// Four-stream rotate, 4 lanes at a time; same no-FMA bitwise contract
    /// as [`pair_rotate_avx512`].
    ///
    /// # Safety
    /// Caller must have verified `avx2` via cpuid; all four slices must
    /// share one length (checked by the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub unsafe fn pair_rotate_avx2(
        ai: &mut [f64],
        aj: &mut [f64],
        ui: &mut [f64],
        uj: &mut [f64],
        c: f64,
        s: f64,
    ) {
        let n = ai.len();
        let vc = _mm256_set1_pd(c);
        let vs = _mm256_set1_pd(s);
        let chunks = n / 4;
        for k in 0..chunks {
            let i = 4 * k;
            let a0 = _mm256_loadu_pd(ai.as_ptr().add(i));
            let a1 = _mm256_loadu_pd(aj.as_ptr().add(i));
            let u0 = _mm256_loadu_pd(ui.as_ptr().add(i));
            let u1 = _mm256_loadu_pd(uj.as_ptr().add(i));
            let na0 = _mm256_sub_pd(_mm256_mul_pd(vc, a0), _mm256_mul_pd(vs, a1));
            let na1 = _mm256_add_pd(_mm256_mul_pd(vs, a0), _mm256_mul_pd(vc, a1));
            let nu0 = _mm256_sub_pd(_mm256_mul_pd(vc, u0), _mm256_mul_pd(vs, u1));
            let nu1 = _mm256_add_pd(_mm256_mul_pd(vs, u0), _mm256_mul_pd(vc, u1));
            _mm256_storeu_pd(ai.as_mut_ptr().add(i), na0);
            _mm256_storeu_pd(aj.as_mut_ptr().add(i), na1);
            _mm256_storeu_pd(ui.as_mut_ptr().add(i), nu0);
            _mm256_storeu_pd(uj.as_mut_ptr().add(i), nu1);
        }
        for i in 4 * chunks..n {
            let a0 = ai[i];
            let a1 = aj[i];
            let u0 = ui[i];
            let u1 = uj[i];
            ai[i] = c * a0 - s * a1;
            aj[i] = s * a0 + c * a1;
            ui[i] = c * u0 - s * u1;
            uj[i] = s * u0 + c * u1;
        }
    }

    /// [`super::rotate_top_pivot`] with four columns to a register: eight
    /// columns at a time as two groups abreast, then a group of four, then
    /// the one to three left over on the portable loop. Multiplies then
    /// adds — NO FMA — so every entry's bits match the scalar chain.
    ///
    /// # Safety
    /// Caller must have verified `avx2` via cpuid, and that `p < m` and
    /// `cols` is `n` columns of `m` (checked by the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub unsafe fn rotate_top_pivot_avx2(
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
        super::rotate_top_pivot_portable(&mut cols[j * m..], n - j, m, p, chain);
    }

    /// Entry `r` of each of the four columns `c`, lane `l` column `l`.
    ///
    /// # Safety
    /// Requires AVX; `r` must be in bounds of every column.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather4(c: [*mut f64; 4], r: usize) -> __m256d {
        _mm256_set_pd(*c[3].add(r), *c[2].add(r), *c[1].add(r), *c[0].add(r))
    }

    /// Stores lane `l` of `v` to entry `r` of column `c[l]`.
    ///
    /// # Safety
    /// Requires AVX; `r` must be in bounds of every column.
    #[inline]
    #[target_feature(enable = "avx2")]
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
    #[inline]
    #[target_feature(enable = "avx2")]
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

    /// One turn on a register of four columns: `(x, y) ← (c·x − s·y,
    /// s·x + c·y)`, multiply then add as the scalar loop does.
    ///
    /// # Safety
    /// Requires AVX.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn turn4(x: &mut __m256d, y: &mut __m256d, vc: __m256d, vs: __m256d) {
        let (x0, y0) = (*x, *y);
        *y = _mm256_add_pd(_mm256_mul_pd(vs, x0), _mm256_mul_pd(vc, y0));
        *x = _mm256_sub_pd(_mm256_mul_pd(vc, x0), _mm256_mul_pd(vs, y0));
    }

    /// The whole chain on `G` groups of four columns abreast: each group's
    /// pivot entries in one register, the groups' turns interleaved.
    ///
    /// # Safety
    /// Requires AVX; every column must hold `m` elements and `p < m`.
    /// Pivot rows are checked here.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn top_pivot_groups<const G: usize>(
        cols: [[*mut f64; 4]; G],
        m: usize,
        p: usize,
        chain: &[(usize, f64, f64)],
    ) {
        // No closures below: a closure would not inherit this function's
        // target feature, and the helpers would not inline into it.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_matches_naive_on_odd_lengths() {
        for n in 0..33 {
            let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect();
            let y: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((dot(&x, &y) - naive).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn rotate_pair_preserves_norms_and_angles() {
        let mut x: Vec<f64> = (0..17).map(|i| i as f64 - 8.0).collect();
        let mut y: Vec<f64> = (0..17).map(|i| (i * i) as f64 * 0.1).collect();
        let nx = dot(&x, &x) + dot(&y, &y);
        let theta = 1.234f64;
        rotate_pair(&mut x, &mut y, theta.cos(), theta.sin());
        let nx2 = dot(&x, &x) + dot(&y, &y);
        assert!((nx - nx2).abs() < 1e-10);
    }

    #[test]
    fn rotate_pair_quarter_turn() {
        let mut x = vec![1.0, 0.0];
        let mut y = vec![0.0, 1.0];
        rotate_pair(&mut x, &mut y, 0.0, 1.0);
        // x' = -y_old, y' = x_old
        assert_eq!(x, vec![-0.0, -1.0]);
        assert_eq!(y, vec![1.0, 0.0]);
    }

    #[test]
    fn rotate_pair_matches_scalar_reference_on_lengths_0_to_8() {
        // Exercises every tail length around the 4-way unrolled main loop.
        let (c, s) = (0.8f64, 0.6f64);
        for n in 0..=8usize {
            let mut x: Vec<f64> = (0..n).map(|i| i as f64 * 0.7 - 2.0).collect();
            let mut y: Vec<f64> = (0..n).map(|i| 1.3 - i as f64 * 0.4).collect();
            let want_x: Vec<f64> = x.iter().zip(&y).map(|(&xi, &yi)| c * xi - s * yi).collect();
            let want_y: Vec<f64> = x.iter().zip(&y).map(|(&xi, &yi)| s * xi + c * yi).collect();
            rotate_pair(&mut x, &mut y, c, s);
            assert_eq!(x, want_x, "n={n}");
            assert_eq!(y, want_y, "n={n}");
        }
    }

    #[test]
    fn pair_rotate_matches_two_rotate_pairs_on_lengths_0_to_8() {
        let (c, s) = (0.28f64, -0.96f64);
        for n in 0..=8usize {
            let mut ai: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let mut aj: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let mut ui: Vec<f64> = (0..n).map(|i| i as f64 - 3.5).collect();
            let mut uj: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            let (mut ra, mut rb, mut rc, mut rd) = (ai.clone(), aj.clone(), ui.clone(), uj.clone());
            rotate_pair(&mut ra, &mut rb, c, s);
            rotate_pair(&mut rc, &mut rd, c, s);
            pair_rotate(&mut ai, &mut aj, &mut ui, &mut uj, c, s);
            assert_eq!(ai, ra, "n={n}");
            assert_eq!(aj, rb, "n={n}");
            assert_eq!(ui, rc, "n={n}");
            assert_eq!(uj, rd, "n={n}");
        }
    }

    #[test]
    fn pair_rotate_handles_mismatched_a_and_u_lengths() {
        // Rectangular SVD shape: W-columns longer than V-columns.
        let (c, s) = (0.6f64, 0.8f64);
        let mut ai = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut aj = vec![-1.0, 0.5, 0.0, 2.0, -3.0];
        let mut ui = vec![1.0, 0.0];
        let mut uj = vec![0.0, 1.0];
        let (mut ra, mut rb, mut rc, mut rd) = (ai.clone(), aj.clone(), ui.clone(), uj.clone());
        rotate_pair(&mut ra, &mut rb, c, s);
        rotate_pair(&mut rc, &mut rd, c, s);
        pair_rotate(&mut ai, &mut aj, &mut ui, &mut uj, c, s);
        assert_eq!((ai, aj, ui, uj), (ra, rb, rc, rd));
    }

    #[test]
    fn pair_rotate_mismatched_is_bitwise_the_back_to_back_form_both_ways() {
        // Pins the fused-prefix fallback to the historical two-rotate_pair
        // behavior, with the excess on either side and every tail length
        // around the lane widths.
        let (c, s) = (-0.35f64, 0.93f64);
        for (na, nu) in (0..=20usize).flat_map(|a| [(a, a / 2), (a / 2, a), (a, 20 - a)]) {
            let mut ai: Vec<f64> = (0..na).map(|i| (i as f64 * 0.77).sin() + 0.2).collect();
            let mut aj: Vec<f64> = (0..na).map(|i| (i as f64 * 1.31).cos() - 0.4).collect();
            let mut ui: Vec<f64> = (0..nu).map(|i| i as f64 * 0.11 - 1.0).collect();
            let mut uj: Vec<f64> = (0..nu).map(|i| 2.0 / (i as f64 + 1.5)).collect();
            let (mut ra, mut rb, mut rc, mut rd) = (ai.clone(), aj.clone(), ui.clone(), uj.clone());
            rotate_pair(&mut ra, &mut rb, c, s);
            rotate_pair(&mut rc, &mut rd, c, s);
            pair_rotate(&mut ai, &mut aj, &mut ui, &mut uj, c, s);
            assert_eq!((ai, aj, ui, uj), (ra, rb, rc, rd), "na={na} nu={nu}");
        }
    }

    #[test]
    fn pair_rotate_lanes_is_bitwise_pair_rotate_on_lengths_0_to_40() {
        // The lane rotate's core contract: no FMA, so identical bits to the
        // scalar loop at every vector width and tail length.
        let (c, s) = (0.992f64, -0.126f64);
        for n in 0..=40usize {
            let mut ai: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin() * 3.0).collect();
            let mut aj: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos() * 0.5).collect();
            let mut ui: Vec<f64> = (0..n).map(|i| i as f64 * 0.21 - 4.0).collect();
            let mut uj: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.0)).collect();
            let (mut ra, mut rb, mut rc, mut rd) = (ai.clone(), aj.clone(), ui.clone(), uj.clone());
            pair_rotate(&mut ra, &mut rb, &mut rc, &mut rd, c, s);
            pair_rotate_lanes(&mut ai, &mut aj, &mut ui, &mut uj, c, s);
            assert_eq!(ai, ra, "n={n}");
            assert_eq!(aj, rb, "n={n}");
            assert_eq!(ui, rc, "n={n}");
            assert_eq!(uj, rd, "n={n}");
        }
    }

    #[test]
    fn pair_rotate_lanes_handles_mismatched_lengths_bitwise() {
        let (c, s) = (0.6f64, 0.8f64);
        for (na, nu) in [(19usize, 5usize), (5, 19), (40, 33), (33, 40), (0, 7)] {
            let mut ai: Vec<f64> = (0..na).map(|i| i as f64 + 0.5).collect();
            let mut aj: Vec<f64> = (0..na).map(|i| 3.0 - i as f64 * 0.2).collect();
            let mut ui: Vec<f64> = (0..nu).map(|i| (i as f64).sqrt()).collect();
            let mut uj: Vec<f64> = (0..nu).map(|i| -(i as f64) * 0.6).collect();
            let (mut ra, mut rb, mut rc, mut rd) = (ai.clone(), aj.clone(), ui.clone(), uj.clone());
            pair_rotate(&mut ra, &mut rb, &mut rc, &mut rd, c, s);
            pair_rotate_lanes(&mut ai, &mut aj, &mut ui, &mut uj, c, s);
            assert_eq!((ai, aj, ui, uj), (ra, rb, rc, rd), "na={na} nu={nu}");
        }
    }

    #[test]
    fn fused_triple_matches_three_dots_within_1e12_relative() {
        for n in (0..=40usize).chain([101, 256, 1001]) {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 2.0 + 0.1).collect();
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos() - 0.2).collect();
            let y: Vec<f64> = (0..n).map(|i| i as f64 * 0.01 - 1.5).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.2)).collect();
            let (pp, pq, qq) = fused_triple(&x, &a, &y, &b);
            for (got, want) in [(pp, dot(&x, &a)), (pq, dot(&x, &b)), (qq, dot(&y, &b))] {
                let scale = want.abs().max(1.0);
                assert!((got - want).abs() <= 1e-12 * scale, "n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn fused_triple_accepts_aliased_gram_arguments() {
        // The Gram rule passes the A-columns in both roles.
        let a: Vec<f64> = (0..23).map(|i| (i as f64 * 0.5).sin()).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64 * 0.2).cos()).collect();
        let (pp, pq, qq) = fused_triple(&a, &a, &b, &b);
        assert_eq!(
            [pp, pq, qq].map(f64::to_bits),
            [dot(&a, &a), dot(&a, &b), dot(&b, &b)].map(f64::to_bits)
        );
    }

    // --- Every tier this CPU has, called directly -------------------------
    //
    // The public kernels reach exactly one tier per host (`lane_tier`), so
    // on an AVX-512 machine the AVX2 forms would otherwise never run. The
    // tables below name each tier's function — the portable form always, an
    // x86 form only once cpuid reports its features, which is the safety
    // condition of the `unsafe` calls inside the closures.

    type DotFn = fn(&[f64], &[f64]) -> f64;
    type DotX2Fn = fn([&[f64]; 2], [&[f64]; 2]) -> [f64; 2];
    type TripleFn = fn(&[f64], &[f64], &[f64], &[f64]) -> (f64, f64, f64);
    type TripleX2Fn = fn(TripleStreams<'_>, TripleStreams<'_>) -> [(f64, f64, f64); 2];
    type RotateFn = fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64], f64, f64);

    /// One tier's four reductions.
    struct Reductions {
        name: &'static str,
        dot: DotFn,
        dot_x2: DotX2Fn,
        triple: TripleFn,
        triple_x2: TripleX2Fn,
    }

    /// [`dots_portable`] as an `unsafe fn`, so that [`reductions!`] calls
    /// every tier alike.
    unsafe fn portable<const S: usize, const P: usize, T: Products<P>>(s: [&[f64]; S]) -> [f64; P] {
        dots_portable::<S, P, T>(s)
    }

    /// The four reductions of one tier's `dots` kernel.
    macro_rules! reductions {
        ($name:literal, $($dots:ident)::+) => {
            // SAFETY (every closure): the caller detected the tier's
            // features; the tests pass streams of one length.
            Reductions {
                name: $name,
                dot: |x, y| unsafe { $($dots)::+::<2, 1, One>([x, y])[0] },
                dot_x2: |[x0, y0], [x1, y1]| unsafe { $($dots)::+::<4, 2, Two>([x0, y0, x1, y1]) },
                triple: |x, a, y, b| {
                    let [pp, pq, qq] = unsafe { $($dots)::+::<4, 3, Triple>([x, a, y, b]) };
                    (pp, pq, qq)
                },
                triple_x2: |p, q| {
                    let s = [p[0], p[1], p[2], p[3], q[0], q[1], q[2], q[3]];
                    let [a, b, c, d, e, f] = unsafe { $($dots)::+::<8, 6, TripleX2>(s) };
                    [(a, b, c), (d, e, f)]
                },
            }
        };
    }

    /// Every tier of the reductions this host can run: the portable form
    /// (also the tier of an AVX2 host without FMA), each x86 form once
    /// cpuid reports its features, and the public dispatch.
    fn reduction_tiers() -> Vec<Reductions> {
        let mut tiers = vec![
            reductions!("portable", portable),
            Reductions {
                name: "dispatch",
                dot,
                dot_x2,
                triple: fused_triple,
                triple_x2: fused_triple_x2,
            },
        ];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                tiers.push(reductions!("avx2+fma", x86::dots_avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                tiers.push(reductions!("avx512", x86::dots_avx512));
            }
        }
        tiers
    }

    /// Every tier of the rotator this host can run: the portable loop, and
    /// each x86 form once cpuid reports its features.
    fn rotate_tiers() -> Vec<(&'static str, RotateFn)> {
        let mut tiers: Vec<(&'static str, RotateFn)> = vec![("portable", rotate4)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            if is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was just detected; the tests pass
                // equal-length slices.
                tiers.push(("avx2", |ai, aj, ui, uj, c, s| unsafe {
                    x86::pair_rotate_avx2(ai, aj, ui, uj, c, s)
                }));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was just detected; the tests pass
                // equal-length slices.
                tiers.push(("avx512", |ai, aj, ui, uj, c, s| unsafe {
                    x86::pair_rotate_avx512(ai, aj, ui, uj, c, s)
                }));
            }
        }
        tiers
    }

    /// Column `k` of a deterministic, sign-mixed test family.
    fn stream(k: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i + 3 * k) as f64 * (0.37 + 0.11 * k as f64)).sin() * 2.0 - 0.2).collect()
    }

    // --- The reductions: `to_bits`-equal to the definition, tier by tier -----

    /// The inner product as the module defines it, written out: eight
    /// `mul_add` chains from 0.0 by index mod 8, the tree, then the tail in
    /// index order, fused.
    fn by_definition(x: &[f64], y: &[f64]) -> f64 {
        let body = x.len() / 8 * 8;
        let mut s = [0.0f64; 8];
        for i in 0..body {
            s[i % 8] = x[i].mul_add(y[i], s[i % 8]);
        }
        let mut d = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
        for i in body..x.len() {
            d = x[i].mul_add(y[i], d);
        }
        d
    }

    /// A pairing's three products by the definition.
    fn triple_by_definition([x, a, y, b]: TripleStreams<'_>) -> [f64; 3] {
        [by_definition(x, a), by_definition(x, b), by_definition(y, b)]
    }

    /// Every length 0–40, and one each side of 64 and 256.
    fn reduction_lengths() -> impl Iterator<Item = usize> {
        (0..=40usize).chain(63..=65).chain(255..=257)
    }

    /// Checks every reduction of every tier on the eight streams `c`
    /// against the definition, product by product, with `same` — the
    /// triples also in the Gram rule's aliasing, one column in both roles.
    fn check_reductions(c: [&[f64]; 8], same: impl Fn(f64, f64) -> bool, what: &str) {
        let n = c[0].len();
        let (p, q) = ([c[0], c[1], c[2], c[3]], [c[4], c[5], c[6], c[7]]);
        let gram = ([c[0], c[0], c[2], c[2]], [c[4], c[4], c[6], c[6]]);
        for t in reduction_tiers() {
            let check = |got: &[f64], want: &[f64], which: &str| {
                for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
                    let name = t.name;
                    assert!(
                        same(g, w),
                        "{name} {which} product {k}, {what}, n={n}: {g:e} vs {w:e}"
                    );
                }
            };
            check(&[(t.dot)(c[0], c[1])], &[by_definition(c[0], c[1])], "dot");
            let want = [by_definition(c[0], c[1]), by_definition(c[2], c[3])];
            check(&(t.dot_x2)([c[0], c[1]], [c[2], c[3]]), &want, "dot_x2");
            for (p, q) in [(p, q), gram] {
                let (pp, pq, qq) = (t.triple)(p[0], p[1], p[2], p[3]);
                check(&[pp, pq, qq], &triple_by_definition(p), "triple");
                for ((pp, pq, qq), h) in (t.triple_x2)(p, q).into_iter().zip([p, q]) {
                    check(&[pp, pq, qq], &triple_by_definition(h), "triple_x2");
                }
            }
        }
    }

    /// Eight columns of length `n` drawn from `draw`.
    fn eight_columns(n: usize, mut draw: impl FnMut() -> f64) -> Vec<Vec<f64>> {
        (0..8).map(|_| (0..n).map(|_| draw()).collect()).collect()
    }

    /// The eight columns as the streams of one reduction.
    fn as_streams(cols: &[Vec<f64>]) -> [&[f64]; 8] {
        std::array::from_fn(|k| &cols[k][..])
    }

    fn bitwise(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits()
    }

    #[test]
    fn every_tier_of_dot_and_fused_triple_meets_the_reduction_contract() {
        // The contract is the definition: every product of every tier is
        // its bits, on the deterministic family at every length.
        for n in reduction_lengths().chain([101, 1001]) {
            let cols: Vec<_> = (0..8).map(|k| stream(k, n)).collect();
            check_reductions(as_streams(&cols), bitwise, "streams");
        }
    }

    #[test]
    fn every_exact_tier_is_bitwise_dot_on_random_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        for n in reduction_lengths() {
            let cols = eight_columns(n, || rng.gen_range(-1.0..=1.0));
            check_reductions(as_streams(&cols), bitwise, "random");
        }
    }

    #[test]
    fn every_exact_tier_is_bitwise_dot_on_signed_zeros_and_subnormals() {
        // Products that underflow to ±0 or to subnormals, sums that cancel
        // to a signed zero, 1e±150 beside ordinary numbers: the sign of a
        // zero, the last subnormal bit and what a fused multiply-add keeps
        // of a product depend on the operation order, which is the thing
        // under test.
        use rand::{Rng, SeedableRng};
        const POOL: [f64; 12] = [
            0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-150, -1e-150, 1e150, -1e150, 1.0, -1.0,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for n in reduction_lengths() {
            let cols = eight_columns(n, || match rng.gen_range(0..3) {
                0 => rng.gen_range(-1.0..=1.0),
                _ => POOL[rng.gen_range(0..POOL.len())],
            });
            check_reductions(as_streams(&cols), bitwise, "tiny and huge");
        }
        // All-negative-zero columns: every partial sum is `0.0 + -0.0`.
        for n in [0usize, 3, 8, 9, 17] {
            let cols = vec![vec![-0.0; n]; 8];
            check_reductions(as_streams(&cols), bitwise, "-0");
        }
    }

    #[test]
    fn every_exact_tier_agrees_with_dot_on_non_finite_input() {
        // NaN payloads are not pinned by IEEE 754, so NaN-ness is compared,
        // and an infinity must match in sign.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let agree = |got: f64, want: f64| {
            if want.is_nan() {
                got.is_nan()
            } else {
                got == want
            }
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for n in [1usize, 8, 9, 33, 256, 259] {
                // One bad entry per column, in the vector body and the tail.
                for at in [0, n / 2, n - 1] {
                    let mut cols = eight_columns(n, || rng.gen_range(-1.0..=1.0));
                    for col in cols.iter_mut().step_by(2) {
                        col[at] = bad;
                    }
                    check_reductions(as_streams(&cols), agree, "non-finite");
                }
            }
        }
    }

    #[test]
    fn every_x2_tier_is_bitwise_dot_in_all_six_products() {
        // The eight columns 0 and 2 elements past a cache line, so the
        // vector body starts on and off a line; `check_reductions` holds
        // every tier's `dot_x2` and `fused_triple_x2`, the Gram aliasing
        // included, to the definition per product.
        for n in reduction_lengths() {
            for off in [0usize, 2] {
                let cols: Vec<_> = (0..8).map(|k| placed(&stream(k, n), off)).collect();
                let c: [&[f64]; 8] = std::array::from_fn(|k| &cols[k].0[cols[k].1.clone()]);
                check_reductions(c, bitwise, &format!("offset {off}"));
            }
        }
    }

    #[test]
    fn x2_of_pairings_of_different_lengths_takes_them_one_at_a_time() {
        // No caller pairs columns of two heights in one step; the answer is
        // still each pairing's own, not a panic.
        let short: Vec<_> = (0..4).map(|k| stream(k, 9)).collect();
        let long: Vec<_> = (4..8).map(|k| stream(k, 67)).collect();
        let p: TripleStreams<'_> = [&short[0], &short[1], &short[2], &short[3]];
        let q: TripleStreams<'_> = [&long[0], &long[1], &long[2], &long[3]];
        let want = [fused_triple(p[0], p[1], p[2], p[3]), fused_triple(q[0], q[1], q[2], q[3])];
        assert_eq!(fused_triple_x2(p, q), want);
        assert_eq!(fused_triple_x2(q, p), [want[1], want[0]]);
        let want = [dot(p[0], p[1]), dot(q[0], q[1])];
        assert_eq!(dot_x2([p[0], p[1]], [q[0], q[1]]), want);
        assert_eq!(dot_x2([q[0], q[1]], [p[0], p[1]]), [want[1], want[0]]);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn x2_rejects_a_pairing_of_mismatched_streams_with_dots_message() {
        let (short, long) = (stream(0, 8), stream(1, 9));
        fused_triple_x2([&short, &short, &short, &short], [&short, &short, &long, &long]);
    }

    /// The vector unit this host runs the reductions on, named as in
    /// [`reduction_tiers`].
    fn reduction_tier() -> &'static str {
        match lane_tier() {
            #[cfg(target_arch = "x86_64")]
            LaneTier::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            LaneTier::Avx2Fma => "avx2+fma",
            _ => "portable",
        }
    }

    #[test]
    fn the_exact_tier_name_is_one_of_the_tiers() {
        // The tier the host dispatches to is one of the forms checked above.
        let name = reduction_tier();
        assert!(reduction_tiers().iter().any(|t| t.name == name), "{name}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_reduction_tier_asks_for_fma() {
        // Every multiply-add of a reduction is fused, so a vector tier runs
        // them only where cpuid reports FMA (AVX-512F includes it); an AVX2
        // host without it runs the portable reductions beside its AVX2
        // rotators.
        use std::arch::is_x86_feature_detected;
        let avx512 = is_x86_feature_detected!("avx512f");
        let avx2 = is_x86_feature_detected!("avx2");
        let fma = is_x86_feature_detected!("fma");
        assert_eq!(reduction_tier() != "portable", avx512 || (avx2 && fma));
        if avx2 && !fma && !avx512 {
            assert_eq!(lane_tier(), LaneTier::Avx2);
        }
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn fused_triple_rejects_mismatched_lengths_with_dots_message() {
        // A pairing of columns of different heights fails with `dot`'s own
        // message, whichever kernel computes it.
        let (short, long) = (stream(0, 8), stream(1, 9));
        fused_triple(&short, &short, &long, &long);
    }

    #[test]
    fn every_tier_of_pair_rotate_is_bitwise_the_scalar_rotation() {
        // Equal lengths 0..=40, then mismatched A/U lengths with the excess
        // on either side: the tier rotates the common prefix, `rotate_pair`
        // the excess — the split `pair_rotate_lanes` performs.
        let (c, s) = (0.352f64, -0.936f64);
        let mismatched = [(19, 5), (5, 19), (40, 33), (33, 40), (0, 7), (7, 0)];
        for (na, nu) in (0..=40usize).map(|n| (n, n)).chain(mismatched) {
            let (ai, aj, ui, uj) = (stream(0, na), stream(1, na), stream(2, nu), stream(3, nu));
            let mut want = (ai.clone(), aj.clone(), ui.clone(), uj.clone());
            rotate_pair(&mut want.0, &mut want.1, c, s);
            rotate_pair(&mut want.2, &mut want.3, c, s);
            for (name, rotate) in rotate_tiers() {
                let mut got = (ai.clone(), aj.clone(), ui.clone(), uj.clone());
                let (head, a_tail, u_tail) =
                    split_pair_streams(&mut got.0, &mut got.1, &mut got.2, &mut got.3);
                rotate(head.0, head.1, head.2, head.3, c, s);
                rotate_pair(a_tail.0, a_tail.1, c, s);
                rotate_pair(u_tail.0, u_tail.1, c, s);
                assert_eq!(got, want, "{name} na={na} nu={nu}");
            }
        }
    }

    /// A copy of `src` that starts `off` elements past a 64-byte boundary:
    /// the backing vector and the copy's range within it.
    fn placed(src: &[f64], off: usize) -> (Vec<f64>, std::ops::Range<usize>) {
        let mut backing = vec![0.0; src.len() + 16];
        let to_line = crate::block::elems_to_line(&backing);
        let at = to_line + off..to_line + off + src.len();
        backing[at.clone()].copy_from_slice(src);
        (backing, at)
    }

    #[test]
    fn alignment_moves_time_never_a_bit() {
        // Every tier of every kernel, on the same four columns placed at
        // each of the eight element offsets from a cache line — column `k`
        // one element further than column `k − 1`, so the streams of one
        // call are also misaligned against each other. Offset 0 is what
        // `ColumnBlock` hands out; the rest is what a `Matrix` column or a
        // caller's slice may be.
        let (c, s) = (0.8f64, -0.6f64);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for n in [0usize, 5, 8, 37, 64, 256, 259] {
            let mut want: Option<Vec<Vec<u64>>> = None;
            for off in 0..8 {
                let place = |k: usize| placed(&stream(k, n), (off + k) % 8);
                let mut got: Vec<Vec<u64>> = Vec::new();
                let cols: Vec<_> = (0..4).map(place).collect();
                let col: [&[f64]; 4] = std::array::from_fn(|k| &cols[k].0[cols[k].1.clone()]);
                for t in reduction_tiers() {
                    let (pp, pq, qq) = (t.triple)(col[0], col[1], col[2], col[3]);
                    let [d0, d1] = (t.dot_x2)([col[0], col[1]], [col[2], col[3]]);
                    got.push(bits(&[(t.dot)(col[0], col[1]), d0, d1, pp, pq, qq]));
                }
                for (_, rotate) in rotate_tiers() {
                    let mut quad: Vec<_> = (0..4).map(place).collect();
                    let [ai, aj, ui, uj] = &mut quad[..] else { unreachable!() };
                    rotate(
                        &mut ai.0[ai.1.clone()],
                        &mut aj.0[aj.1.clone()],
                        &mut ui.0[ui.1.clone()],
                        &mut uj.0[uj.1.clone()],
                        c,
                        s,
                    );
                    got.extend(quad.iter().map(|(backing, at)| bits(&backing[at.clone()])));
                }
                match &want {
                    None => want = Some(got),
                    Some(want) => assert_eq!(&got, want, "n={n} offset={off}"),
                }
            }
        }
    }

    // --- The top-pivot rotation sequence ------------------------------------

    type TopPivotFn = fn(&mut [f64], usize, usize, &[(usize, f64, f64)]);

    /// Every form of [`rotate_top_pivot`] this host can run besides the
    /// portable one: the public dispatch, and the AVX2 form called directly
    /// once cpuid reports it.
    fn top_pivot_tiers() -> Vec<(&'static str, TopPivotFn)> {
        let mut tiers: Vec<(&'static str, TopPivotFn)> = vec![("dispatch", rotate_top_pivot)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 was just detected; the test passes whole
            // columns and `p < m`.
            tiers.push(("avx2", |cols, m, p, chain| unsafe {
                x86::rotate_top_pivot_avx2(cols, cols.len() / m, m, p, chain)
            }));
        }
        tiers
    }

    #[test]
    fn every_tier_of_the_top_pivot_sequence_is_bitwise_the_portable_form() {
        // Chains of 0–9 and 60 turns whose pivot rows count up through the
        // rows other than `p`, from the first row and from four before the
        // last (whose first run ends at row m − 1). At turn `gap` the count
        // either skips a row for good, or takes the row two further for that
        // one turn, so that a run of consecutive pivots — the lane form's
        // 4×4 tile — is broken at every offset, also where its first, second
        // and fourth rows still fit one. One to eight columns: two lane
        // groups, one, and every leftover. Entries ±0, subnormal and 1e±150
        // mixed with ordinary ones, where a fused multiply-add would round
        // differently.
        use rand::{Rng, SeedableRng};
        const POOL: [f64; 8] = [0.0, -0.0, 5e-324, -1e-310, 1e150, -1e150, 1e-150, -1e-150];
        // How far past the count turn `i` lands, given the break at `gap`.
        type Shift = fn(usize, usize) -> usize;
        let breaks: [(&str, Shift); 2] = [
            ("skip", |i, gap| usize::from(i >= gap)),
            ("jump", |i, gap| 2 * usize::from(i == gap)),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut tiles_at_the_last_row = 0;
        for m in [4usize, 5, 8, 33] {
            for p in [0, m / 2] {
                let rows: Vec<usize> = (0..m).filter(|&r| r != p).collect();
                for len in (0..=9).chain([60]) {
                    for (start, gap, (how, shift)) in [0, rows.len().saturating_sub(4)]
                        .into_iter()
                        .flat_map(|s| (0..=len).map(move |g| (s, g)))
                        .flat_map(|(s, g)| breaks.map(|b| (s, g, b)))
                    {
                        let chain: Vec<(usize, f64, f64)> = (0..len)
                            .map(|i| {
                                let q = rows[(start + i + shift(i, gap)) % rows.len()];
                                let theta: f64 = rng.gen_range(-3.2..3.2);
                                (q, theta.cos(), theta.sin())
                            })
                            .collect();
                        tiles_at_the_last_row += chain
                            .windows(4)
                            .filter(|w| (0..4).all(|k| w[k].0 + 4 == m + k))
                            .count();
                        for ncols in 1..=8 {
                            let cols: Vec<f64> = (0..ncols * m)
                                .map(|_| match rng.gen_range(0..3) {
                                    0 => POOL[rng.gen_range(0..POOL.len())],
                                    _ => rng.gen_range(-1.0..=1.0),
                                })
                                .collect();
                            let mut want = cols.clone();
                            rotate_top_pivot_portable(&mut want, ncols, m, p, &chain);
                            let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                            for (name, tier) in top_pivot_tiers() {
                                let mut got = cols.clone();
                                tier(&mut got, m, p, &chain);
                                let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                                let case =
                                    format!("m={m} p={p} len={len} start={start} {how} at {gap}");
                                assert_eq!(got, want, "{name} {case} columns={ncols}");
                            }
                        }
                    }
                }
            }
        }
        assert!(tiles_at_the_last_row > 0);
    }

    #[test]
    fn the_top_pivot_sequence_is_the_scalar_chain_per_column() {
        // The definition, written out on one column at a time.
        let (m, p) = (7usize, 2usize);
        let chain = [(3usize, 0.6f64, 0.8f64), (4, 0.28, -0.96), (5, -0.8, 0.6), (6, 1.0, 0.0)];
        let chain = [&chain[..], &chain[..], &[(0, 0.352, -0.936), (1, 0.0, 1.0)]].concat();
        for ncols in [1usize, 4, 5, 9] {
            let cols: Vec<f64> = (0..ncols * m).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut want = cols.clone();
            for col in want.chunks_exact_mut(m) {
                let mut x = col[p];
                for &(q, c, s) in &chain {
                    let y = col[q];
                    col[q] = s * x + c * y;
                    x = c * x - s * y;
                }
                col[p] = x;
            }
            let mut got = cols.clone();
            rotate_top_pivot(&mut got, m, p, &chain);
            assert_eq!(got, want, "columns={ncols}");
        }
    }

    #[test]
    #[should_panic]
    fn the_top_pivot_sequence_rejects_a_pivot_row_past_the_column() {
        // The lane form's loads are unchecked, so it asserts every pivot row
        // itself; the portable form's indexing panics.
        let mut cols = vec![1.0; 4 * 5];
        rotate_top_pivot(&mut cols, 5, 0, &[(1, 0.6, 0.8), (5, 0.6, 0.8)]);
    }

    #[test]
    fn rotate_pair_composes_like_angle_addition() {
        let mut x1 = vec![0.3, -0.7, 2.0, 1.0, 0.0];
        let mut y1 = vec![1.5, 0.2, -1.0, 0.5, 2.0];
        let mut x2 = x1.clone();
        let mut y2 = y1.clone();
        let (a, b) = (0.4f64, 0.9f64);
        rotate_pair(&mut x1, &mut y1, a.cos(), a.sin());
        rotate_pair(&mut x1, &mut y1, b.cos(), b.sin());
        rotate_pair(&mut x2, &mut y2, (a + b).cos(), (a + b).sin());
        for i in 0..x1.len() {
            assert!((x1[i] - x2[i]).abs() < 1e-12);
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }
}
