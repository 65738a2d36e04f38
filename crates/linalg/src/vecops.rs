//! BLAS-1 style kernels used by the one-sided Jacobi inner loop.
//!
//! These are the only operations on the solver's hot path: the inner
//! product and the plane rotation, each with one definition, and kernels
//! dispatched at runtime to the widest vector unit the CPU offers (AVX-512F
//! with VL, then AVX2 with FMA, then a portable loop). Every tier of a
//! kernel computes its definition's bits.
//!
//! * [`dot`] is the one inner product: eight partial sums by index mod 8,
//!   each a fused multiply-add chain that starts at 0.0, then the fixed
//!   tree `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, then the `n mod 8` tail
//!   folded in index order with a fused multiply-add. FMA is a correctly
//!   rounded IEEE operation, so the bits do not depend on the host.
//!   AVX-512F holds a product's eight sums in one register, AVX2 with FMA
//!   in two; the portable form, which is also what an AVX2 host without
//!   FMA runs, calls `f64::mul_add`. One pass may take several products,
//!   each bitwise [`dot`]: a step's off-diagonals, a walk's diagonals four
//!   columns abreast, [`fused_triple`]'s pairing block.
//! * The one plane rotation is a multiply and a fused multiply-add per
//!   entry, `x' = fma(c, x, −(s·y))` and `y' = fma(s, x, c·y)` (`turn`),
//!   the same bits on every host. [`pair_rotate`] is its loop and
//!   [`pair_rotate_lanes`] its vector form, bitwise the loop at every
//!   width. Every scalar loop of `mul_add`s a host with FMA runs is
//!   compiled with FMA, so each is the instruction there, never a library
//!   call; only the portable tier, for hosts without FMA, calls `fma`.
//! * [`Walk`] is a sweep's walk: each step rotates its one or two pairings,
//!   bitwise [`pair_rotate`], and reduces the off-diagonals of the walk's
//!   next step from the rotated columns, each product bitwise [`dot`] — a
//!   rectangle of pairings at a time, from rectangle to rectangle. The
//!   diagonals are the walk's own cache: each column's reduced exactly,
//!   bitwise `dot`, when a walk call takes its block, kept by the exact 2×2
//!   similarity update under rotation, and dropped when the walk ends. Each
//!   vector tier walks a call's rectangles inside one function compiled for
//!   it, the rule's angles included; on AVX-512 a step is one pass, each
//!   chunk of eight rows loaded, rotated and stored, the next step's
//!   multiply-adds taking the rotated lanes from the registers that stored
//!   them. Which columns the next step pairs is a `Transition`, one
//!   constant operand table per way one step of the walk follows another,
//!   named where the walk takes the step. The AVX2 and portable tiers
//!   rotate, then reduce a block at a time.

use crate::block::ColumnBlock;
use crate::rotation::{apply_to_block, JacobiRotation};

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

/// A vector unit the kernels run on. A value names a unit cpuid reported:
/// only [`lane_tier`] and [`lane_tiers`] make one, and the kernels' `unsafe`
/// tiers rely on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneTier {
    /// AVX-512F with AVX-512VL, which include AVX2 and FMA. VL lets the
    /// step pass keep its accumulators in zmm16–31: an AVX-512F function
    /// zeroes a register with a VEX instruction, which reaches zmm0–15
    /// only, and its six accumulators spilled there.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 with FMA: every AVX2 kernel. An AVX2 host without FMA runs
    /// the portable tier: every kernel fuses its multiply-adds.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    Portable,
}

/// The widest vector unit this host has, detected once per process — or,
/// with the `tier-override` feature, the one [`with_tier`] names.
#[inline]
fn lane_tier() -> LaneTier {
    #[cfg(feature = "tier-override")]
    if let Some(tier) = forced::tier() {
        return tier;
    }
    *lane_tiers().last().expect("the portable tier")
}

/// Every vector unit this host can run the kernels on, narrowest first: the
/// portable loop, then each x86 tier whose features cpuid reports —
/// detected once per process.
#[inline]
fn lane_tiers() -> &'static [LaneTier] {
    static TIERS: std::sync::OnceLock<Vec<LaneTier>> = std::sync::OnceLock::new();
    TIERS.get_or_init(|| {
        #[allow(unused_mut)]
        let mut tiers = vec![LaneTier::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                tiers.push(LaneTier::Avx2Fma);
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                tiers.push(LaneTier::Avx512);
            }
        }
        tiers
    })
}

/// A vector unit this host reports, as [`host_tiers`] lists them: what
/// [`with_tier`] runs the kernels on.
#[cfg(feature = "tier-override")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier(LaneTier);

/// Every vector unit this host reports, narrowest first.
#[cfg(feature = "tier-override")]
pub fn host_tiers() -> Vec<Tier> {
    lane_tiers().iter().copied().map(Tier).collect()
}

/// Runs `f` with every kernel, on every thread, dispatched to `tier` — a
/// test-only override, so that a whole solve can be held to its bits on
/// each tier the host has. One override at a time: a second caller waits.
#[cfg(feature = "tier-override")]
pub fn with_tier<R>(tier: Tier, f: impl FnOnce() -> R) -> R {
    forced::with(tier.0, f)
}

/// The override [`with_tier`] sets.
#[cfg(feature = "tier-override")]
mod forced {
    use super::LaneTier;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// One plus the override's index in [`super::lane_tiers`]; 0 is none.
    static FORCED: AtomicUsize = AtomicUsize::new(0);

    pub(super) fn tier() -> Option<LaneTier> {
        match FORCED.load(Ordering::Relaxed) {
            0 => None,
            k => Some(super::lane_tiers()[k - 1]),
        }
    }

    pub(super) fn with<R>(tier: LaneTier, f: impl FnOnce() -> R) -> R {
        static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
        /// Lifts the override however `f` returns.
        struct Lift;
        impl Drop for Lift {
            fn drop(&mut self) {
                FORCED.store(0, Ordering::SeqCst);
            }
        }
        let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let k = super::lane_tiers().iter().position(|&t| t == tier).expect("a host tier");
        FORCED.store(k + 1, Ordering::SeqCst);
        let _lift = Lift;
        f()
    }
}

/// Which 2×2 blocks one reduction takes over its streams: block `n` is
/// `(x·a, x·b, y·b)` over the streams `TABLE[n] = [x, a, y, b]` — or, for
/// a reduction of off-diagonals only, `x·b` alone.
trait Operands<const N: usize> {
    const TABLE: [[usize; 4]; N];
}

/// [`dot`]: `x · y` over `[x, y]`, the off-diagonal of the block
/// `[x, y, x, y]`.
struct Dot;
/// [`fused_triple`]: the block over `[x, a, y, b]`.
struct Triple;

impl Operands<1> for Dot {
    const TABLE: [[usize; 4]; 1] = [[0, 1, 0, 1]];
}
impl Operands<1> for Triple {
    const TABLE: [[usize; 4]; 1] = [[0, 1, 2, 3]];
}

/// A walk's refresh: the diagonals of `N` columns over their streams
/// `[a0, u0, a1, u1, …]`, column `n`'s the off-diagonal `x·b` of block `n`
/// — `u_n · a_n`, or `a_n · a_n` under the Gram rule, where `GRAM`.
struct Diagonals<const GRAM: bool, const N: usize>;

impl<const GRAM: bool, const N: usize> Operands<N> for Diagonals<GRAM, N> {
    const TABLE: [[usize; 4]; N] = {
        let mut table = [[0; 4]; N];
        let mut n = 0;
        while n < N {
            let (a, u) = (2 * n, 2 * n + 1);
            table[n] = if GRAM { [a, a, a, a] } else { [u, a, u, a] };
            n += 1;
        }
        table
    };
}

/// The two streams of product `p` of the block `[x, a, y, b]`: `x·a`,
/// `x·b`, `y·b`.
#[inline(always)]
const fn product([x, a, y, b]: [usize; 4], p: usize) -> [usize; 2] {
    [[x, a], [x, b], [y, b]][p]
}

/// Whether a reduction takes product `p` of its blocks: every one, or the
/// off-diagonal `x·b` alone where `off`.
#[inline(always)]
const fn takes(off: bool, p: usize) -> bool {
    !off || p == 1
}

/// The streams `T`'s products read, where `OFF` leaves out the diagonals.
struct Reads<T, const N: usize, const OFF: bool>(std::marker::PhantomData<T>);

impl<const N: usize, const OFF: bool, T: Operands<N>> Reads<T, N, OFF> {
    /// Bit `s` set where a product reads stream `s`.
    const MASK: u64 = {
        let mut mask = 0;
        let mut n = 0;
        while n < N {
            let mut p = 0;
            while p < 3 {
                if takes(OFF, p) {
                    let [x, y] = product(T::TABLE[n], p);
                    mask |= 1 << x | 1 << y;
                }
                p += 1;
            }
            n += 1;
        }
        mask
    };
}

/// Whether one of `T`'s products reads stream `s`: a constant once `T`
/// is.
#[inline(always)]
fn reads<const N: usize, const OFF: bool, T: Operands<N>>(s: usize) -> bool {
    Reads::<T, N, OFF>::MASK >> s & 1 == 1
}

/// The one length of every stream `T`'s products read (0 when they read
/// none).
///
/// # Panics
/// Panics, with `assert_eq!`'s message, unless those streams share one
/// length.
#[inline]
fn reduced_len<const S: usize, const N: usize, const OFF: bool, T: Operands<N>>(
    streams: &[&[f64]; S],
) -> usize {
    let mask = Reads::<T, N, OFF>::MASK;
    if mask == 0 {
        return 0;
    }
    let len = streams[mask.trailing_zeros() as usize].len();
    for s in 0..S {
        if reads::<N, OFF, T>(s) {
            assert_eq!(len, streams[s].len());
        }
    }
    len
}

/// `T`'s blocks over `streams` on `tier`, every product bitwise [`dot`];
/// a product `OFF` leaves out reads 0.0.
///
/// # Panics
/// Panics, with `assert_eq!`'s message, unless the streams the products
/// read share one length.
#[inline]
fn dots<const S: usize, const N: usize, const OFF: bool, T: Operands<N>>(
    tier: LaneTier,
    streams: [&[f64]; S],
) -> [[f64; 3]; N] {
    let len = reduced_len::<S, N, OFF, T>(&streams);
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier implies cpuid reported avx512f (`LaneTier`), and
        // every stream the products read holds `len` elements.
        LaneTier::Avx512 => unsafe { x86::dots_avx512::<S, N, OFF, T>(streams, len) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier implies cpuid reported avx2 and fma, and every
        // stream the products read holds `len` elements.
        LaneTier::Avx2Fma => unsafe { x86::dots_avx2::<S, N, OFF, T>(streams, len) },
        _ => dots_portable::<S, N, OFF, T>(streams, len),
    }
}

/// The portable tier of [`dots`]: the definition, lane `l` of each product
/// an `f64::mul_add` chain.
fn dots_portable<const S: usize, const N: usize, const OFF: bool, T: Operands<N>>(
    streams: [&[f64]; S],
    len: usize,
) -> [[f64; 3]; N] {
    let body = len / 8 * 8;
    let mut sums = [[[0.0f64; 8]; 3]; N];
    reduce_portable(&mut sums, streams, (T::TABLE, OFF), 0..body);
    finish(sums, streams, (T::TABLE, OFF), body, len)
}

/// Which products a reduction takes: the blocks' streams, and whether it
/// takes the off-diagonals only. A constant where the reduction is
/// monomorphized, so its indices fold; a value on the paths that take one
/// block at a time.
type Table<const N: usize> = ([[usize; 4]; N], bool);

/// The lanes of `table`'s products over the chunks starting in `chunks`,
/// each an `f64::mul_add` chain continued in `sums`.
#[inline(always)]
fn reduce_portable<const S: usize, const N: usize>(
    sums: &mut [[[f64; 8]; 3]; N],
    streams: [&[f64]; S],
    (table, off): Table<N>,
    chunks: std::ops::Range<usize>,
) {
    for i in chunks.step_by(8) {
        for (sums, row) in sums.iter_mut().zip(table) {
            for (p, sums) in sums.iter_mut().enumerate().filter(|&(p, _)| takes(off, p)) {
                let [x, y] = product(row, p);
                for (l, sum) in sums.iter_mut().enumerate() {
                    *sum = streams[x][i + l].mul_add(streams[y][i + l], *sum);
                }
            }
        }
    }
}

/// The end every tier's reduction shares: each product's eight partial sums
/// through the fixed tree — written out here once — then the tail from
/// `body` to `len`, folded in index order with a fused multiply-add.
#[inline(always)]
fn finish<const S: usize, const N: usize>(
    sums: [[[f64; 8]; 3]; N],
    streams: [&[f64]; S],
    (table, off): Table<N>,
    body: usize,
    len: usize,
) -> [[f64; 3]; N] {
    let mut out = tree(sums);
    for i in body..len {
        for (out, row) in out.iter_mut().zip(table) {
            for (p, out) in out.iter_mut().enumerate().filter(|&(p, _)| takes(off, p)) {
                let [x, y] = product(row, p);
                *out = streams[x][i].mul_add(streams[y][i], *out);
            }
        }
    }
    out
}

/// Each product's eight partial sums through the fixed tree.
#[inline(always)]
fn tree<const N: usize>(sums: [[[f64; 8]; 3]; N]) -> [[f64; 3]; N] {
    let mut out = [[0.0f64; 3]; N];
    for (out, sums) in out.iter_mut().zip(sums) {
        for (out, [s0, s1, s2, s3, s4, s5, s6, s7]) in out.iter_mut().zip(sums) {
            *out = ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7));
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
    let [[_, d, _]] = dots::<2, 1, true, Dot>(lane_tier(), [x, y]);
    d
}

/// The three inner products of a Jacobi pairing's 2×2 block in one pass:
/// `(x·a, x·b, y·b)`, each `to_bits`-equal to [`dot`].
///
/// The block is `app = u_i·a_i`, `apq = u_i·a_j`, `aqq = u_j·a_j` (or the
/// Gram forms with `a` in both roles). No solver reduces all three: a walk
/// reads the diagonals from its cache. Kept as the probe of the
/// reductions' several-products-a-pass form, which the tests hold to
/// [`dot`] tier by tier.
///
/// # Panics
/// Panics if the slices do not all have one common length.
#[inline]
pub fn fused_triple(x: &[f64], a: &[f64], y: &[f64], b: &[f64]) -> (f64, f64, f64) {
    let [[pp, pq, qq]] = dots::<4, 1, false, Triple>(lane_tier(), [x, a, y, b]);
    (pp, pq, qq)
}

/// Where a column of a walk's next step is in the step before it: a column
/// of one of the two pairings the step rotates, or a column the step does
/// not touch, which it reads as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    /// Column `i` (the left one) of the step's first pairing.
    I0,
    /// Column `j` (the right one) of the step's first pairing.
    J0,
    /// Column `i` of the pairing abreast of the first.
    I1,
    /// Column `j` of the pairing abreast of the first.
    J1,
    /// The first column the step does not rotate: `fresh[0]`.
    F0,
    /// The second: `fresh[1]`.
    F1,
}

/// One way a step of the walk follows another: the next step's `N`
/// pairings, each `[i, j]`, by where their columns are in the step before.
/// Every step [`walk_rect`] takes names its transition, so each is one
/// constant operand table of the step pass.
trait Transition<const N: usize> {
    /// The next step's pairings.
    const NEXT: [[Col; 2]; N];
}

/// Declares the transitions of the walk, one type each.
macro_rules! transitions {
    ($($(#[$doc:meta])* $name:ident<$n:literal>: [$([$i:ident, $j:ident]),+];)+) => {$(
        $(#[$doc])*
        #[derive(Debug)]
        struct $name;
        impl Transition<$n> for $name {
            const NEXT: [[Col; 2]; $n] = [$([Col::$i, Col::$j]),+];
        }
    )+};
}

transitions! {
    /// From one rectangle's last pairing to the next one's first, which
    /// shares no column with it: a rectangle or a triangle row after
    /// another.
    Fresh<1>: [[F0, F1]];
    /// Down a one-column rectangle: the next row's pairing with the same
    /// right column — also into a rectangle whose first right column is the
    /// last one's.
    Down<1>: [[F0, J0]];
    /// Along one row: the same left column with the next right one — a
    /// one-row rectangle, the odd last row of a taller one, and into a
    /// rectangle whose first left column is the last one's.
    Along<1>: [[I0, F0]];
    /// Along with a right tile of two: the odd last row's second pairing
    /// takes the right column the step rotated abreast.
    AlongTwo<1>: [[I0, J1]];
    /// A row pair's opening: the lead row moves right, and the row below
    /// starts on the lead's right column.
    Open<2>: [[I0, F0], [F1, J0]];
    /// [`Open`] with a right tile of two: the lead row's next right column
    /// is the one the step rotated abreast.
    OpenTwo<2>: [[I0, J1], [F0, J0]];
    /// Inside a row pair: the lead row moves right, the row below takes the
    /// lead's right column.
    InRow<2>: [[I0, F0], [I1, J0]];
    /// From a row pair's end to the next one's start: a new left column on
    /// the first right column, beside the row below finishing.
    Wrap<2>: [[F0, F1], [I1, J0]];
    /// [`Wrap`] with a right tile of two: the first right column is the one
    /// the step rotated abreast.
    WrapTwo<2>: [[F0, J1], [I1, J0]];
    /// The last pairing of an even rectangle: the row below's, alone.
    Last<1>: [[I1, J0]];
}

/// The streams of a step, numbered as the operand tables read them:
/// pairing `r`'s `[ai, aj, ui, uj]` from `4r`, then each fresh column's
/// `[a, u]` from 8.
const STEP_STREAMS: usize = 12;

/// The streams `[a, u]` of column `c` of a step.
const fn column_streams(c: Col) -> [usize; 2] {
    match c {
        Col::I0 => [0, 2],
        Col::J0 => [1, 3],
        Col::I1 => [4, 6],
        Col::J1 => [5, 7],
        Col::F0 => [8, 9],
        Col::F1 => [10, 11],
    }
}

/// The operand table of transition `T` under `P`'s rule: the next step's
/// block `[x, a, y, b]` per pairing, `x` and `y` each column's `u` — or its
/// `a` under the Gram rule.
struct Step<T, P>(std::marker::PhantomData<(T, P)>);

impl<const N: usize, T: Transition<N>, P: Pairing> Operands<N> for Step<T, P> {
    const TABLE: [[usize; 4]; N] = {
        let mut table = [[0; 4]; N];
        let mut n = 0;
        while n < N {
            let [[ai, ui], [aj, uj]] =
                [column_streams(T::NEXT[n][0]), column_streams(T::NEXT[n][1])];
            table[n] = if P::GRAM { [ai, ai, aj, aj] } else { [ui, ai, uj, aj] };
            n += 1;
        }
        table
    };
}

/// What a sweep's walk asks of the rule it pairs columns by.
pub trait Pairing {
    /// Whether a pairing's products read each column's `A` stream in both
    /// roles — the Gram rule, `G_ij = w_i · w_j` — rather than one
    /// column's `U` stream against the other's `A` stream,
    /// `M_ij = u_i · a_j`.
    const GRAM: bool;

    /// The rotation that annihilates the off-diagonal of a pairing's 2×2
    /// block `(app, apq, aqq)`, or `None` where the pairing is skipped —
    /// its columns then stay as they are. What the pairing shows the rule
    /// is the rule's to book. Called once per pairing, in walk order, and
    /// compiled into each vector tier's walk.
    fn angle(&mut self, block: (f64, f64, f64)) -> Option<JacobiRotation>;

    /// [`Self::angle`] of the two pairings a step rotates abreast, the
    /// first's block first: by default one at a time. A rule may take both
    /// angles at once ([`symmetric_schur_pair`]) where that gives each
    /// pairing's bits.
    #[inline(always)]
    fn angles(&mut self, [first, second]: [(f64, f64, f64); 2]) -> [Option<JacobiRotation>; 2] {
        let first = self.angle(first);
        [first, self.angle(second)]
    }
}

/// [`symmetric_schur`] of two blocks at once, lane `k` block `k`'s: `τ =
/// (aqq − app) / (2·apq)`, `t = ±1/(|τ| + √(1 + τ²))` with the sign of
/// `τ ≥ 0`, `c = 1/√(1 + t²)`, `s = t·c` — the scalar operations in the
/// scalar order, so each lane is bitwise the scalar rotation wherever its
/// `apq` is not 0.0 (where the scalar form returns the identity and a
/// lane's value means nothing). On x86-64 the two lanes are one SSE2
/// register.
///
/// [`symmetric_schur`]: crate::rotation::symmetric_schur
#[inline(always)]
pub fn symmetric_schur_pair(blocks: [(f64, f64, f64); 2]) -> [JacobiRotation; 2] {
    #[cfg(target_arch = "x86_64")]
    {
        x86::schur_pair(blocks)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        blocks.map(|(app, apq, aqq)| crate::rotation::symmetric_schur(app, apq, aqq))
    }
}

/// The diagonals [`apply_to_block`] gives two rotated blocks at once, lane
/// `k` block `k`'s `(app', aqq')`, each bitwise the scalar update.
#[inline(always)]
fn kept_pair(blocks: [[f64; 3]; 2], rots: [JacobiRotation; 2]) -> [[f64; 2]; 2] {
    #[cfg(target_arch = "x86_64")]
    {
        x86::kept_pair(blocks, rots)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let kept = |[app, apq, aqq]: [f64; 3], rot| {
            let (pp, _, qq) = apply_to_block(rot, app, apq, aqq);
            [pp, qq]
        };
        [kept(blocks[0], rots[0]), kept(blocks[1], rots[1])]
    }
}

/// A rectangle of pairings: every column of `.0`, in the `i` role, with
/// every column of `.1` — column indices of the blocks walked.
pub type Rect = (std::ops::Range<usize>, std::ops::Range<usize>);

/// One sweep call's walk over its blocks' columns: the rectangles
/// [`Walk::within`] and [`Walk::across`] are handed, in the order handed,
/// as one chain of steps. Each step rotates its one or two pairings,
/// bitwise [`pair_rotate`], and in the same pass over the columns reduces
/// the off-diagonals of the step after it from the rotated values, each
/// product bitwise [`dot`] — from rectangle to rectangle, triangle row and
/// block too. So a walk reduces an off-diagonal on its own once, its
/// first, and rotates a pairing on its own once, its last, in
/// [`Walk::finish`].
///
/// The diagonals a pairing's 2×2 block needs come from the walk's cache, a
/// slot per column of each block handed: when [`Walk::within`] or
/// [`Walk::across`] takes a block, each of its columns' diagonal is reduced
/// exactly (`u_k · a_k`, or `a_k · a_k` under the Gram rule, bitwise
/// [`dot`]); a rotation keeps its pairing's two slots by the exact 2×2
/// similarity update; and the cache is dropped with the walk. A column's
/// slot is read before its column is first rotated, so the walk's bits are
/// those of a refresh at the call's start. The slots' store is the
/// thread's, lent from one walk to the next: no call allocates once a
/// thread's walks have seen their widest blocks.
///
/// Inside a rectangle the walk takes two rows at a time, the odd row one
/// step behind the even one: `(2r, j)` goes abreast of `(2r + 1, j − 1)`,
/// and `(2r + 2, 0)` of `(2r + 1, nr − 1)`. Pairing `(i, j)` still comes
/// after `(i, j − 1)` and `(i − 1, j)`, so each column meets its partners
/// in row-major order — which, column-disjoint pairings commuting exactly,
/// makes the walk bitwise the row-major one. An odd last row goes singly,
/// as does all of a one-row or one-column rectangle.
///
/// A call's rectangles are walked inside one function per vector tier,
/// compiled for its instructions with the rule's angles, the cache slots'
/// update and the rule's books; on AVX-512 a step is one pass, each chunk
/// of eight rows loaded, rotated and stored, the next step's multiply-adds
/// taking the rotated lanes from the registers that stored them. The AVX2
/// and portable tiers, and a step that skips a pairing, rotate and then
/// reduce. A walk dropped before [`Walk::finish`] leaves its last pairing
/// unrotated.
#[must_use = "a walk rotates its last pairing in `finish`"]
pub struct Walk<'b, P> {
    pairing: P,
    /// The walk's last pairing, reduced and not yet rotated.
    last: Option<Held>,
    /// The cache: a slot per column of each block handed, in the order
    /// handed — `slots[..used]` in use.
    slots: Vec<f64>,
    used: usize,
    /// The blocks whose columns the held pairing is in.
    _blocks: std::marker::PhantomData<&'b mut ColumnBlock>,
}

thread_local! {
    /// The slots' store of the thread's last finished walk, lent to its
    /// next.
    static SPARE_SLOTS: std::cell::Cell<Vec<f64>> = const { std::cell::Cell::new(Vec::new()) };
}

impl<'b, P: Pairing> Walk<'b, P> {
    /// A walk that has paired nothing yet.
    pub fn new(pairing: P) -> Self {
        let slots = SPARE_SLOTS.with(std::cell::Cell::take);
        Walk { pairing, last: None, slots, used: 0, _blocks: std::marker::PhantomData }
    }

    /// Walks `rects` of `block`'s own pairings — each rectangle's two
    /// ranges disjoint — after whatever the walk has walked, its columns'
    /// diagonals reduced into the cache first.
    ///
    /// # Panics
    /// Panics if a rectangle reaches past the block or pairs a column with
    /// itself, or, under the implicit rule, if its `A` and `U` columns
    /// differ in length.
    pub fn within(&mut self, block: &'b mut ColumnBlock, rects: impl IntoIterator<Item = Rect>) {
        let tier = lane_tier();
        let [cols] = self.cached(tier, [Columns::of(block)]);
        self.walk(tier, [cols, cols], true, rects.into_iter());
    }

    /// Walks `rects` of `left`'s columns (the `i` role) with `right`'s,
    /// after whatever the walk has walked, both blocks' diagonals reduced
    /// into the cache first.
    ///
    /// # Panics
    /// Panics if a rectangle reaches past its block, if the blocks' columns
    /// differ in length, or, under the implicit rule, if their `A` and `U`
    /// columns differ in length.
    pub fn across(
        &mut self,
        left: &'b mut ColumnBlock,
        right: &'b mut ColumnBlock,
        rects: impl IntoIterator<Item = Rect>,
    ) {
        let tier = lane_tier();
        let cols = [Columns::of(left), Columns::of(right)];
        assert_eq!(cols[0].rows, cols[1].rows, "the blocks' columns differ in length");
        let cols = self.cached(tier, cols);
        self.walk(tier, cols, false, rects.into_iter());
    }

    /// Rotates the walk's last pairing — the one it rotates on its own —
    /// lends the cache's store to the thread's next walk, and hands the
    /// rule back.
    pub fn finish(mut self) -> P {
        self.close(lane_tier());
        SPARE_SLOTS.with(|spare| spare.set(std::mem::take(&mut self.slots)));
        self.pairing
    }

    /// The blocks `cols`, each with the cache's next slot per column,
    /// which [`walk_on`] fills before it walks them. Where the store must
    /// grow, the held pairing is rotated first: its slots move with the
    /// store.
    fn cached<const N: usize>(&mut self, tier: LaneTier, mut cols: [Columns; N]) -> [Columns; N] {
        let mut base = self.used;
        self.used += cols.iter().map(|c| c.ncols).sum::<usize>();
        if self.slots.len() < self.used {
            self.close(tier);
            self.slots.resize(self.used.max(2 * self.slots.len()), 0.0);
        }
        for c in &mut cols {
            c.diag = self.slots.as_mut_ptr().wrapping_add(base);
            base += c.ncols;
        }
        cols
    }

    /// [`Self::within`] or [`Self::across`] on `tier`, over `cols` — the
    /// same block twice where `one_block` — their slots fresh from
    /// [`Self::cached`].
    fn walk<I: Iterator<Item = Rect>>(
        &mut self,
        tier: LaneTier,
        cols: [Columns; 2],
        one_block: bool,
        rects: I,
    ) {
        let [alen, ulen] = cols[0].rows;
        if !P::GRAM {
            assert_eq!(alen, ulen, "u_i · a_j pairs columns of one length");
        }
        if self.last.as_ref().is_some_and(|last| last.rows != cols[0].rows) {
            // A block of another height: its first block reads no stream
            // of the held pairing's length.
            self.close(tier);
        }
        let last = self.last.take();
        let pairing = &mut self.pairing;
        self.last = match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier implies cpuid reported avx512f and avx512vl
            // (`LaneTier`); `cols` and the held pairing address blocks this
            // walk borrows for as long as it lives (`Columns::of`) and slots
            // of its cache, and every column of them holds `cols[0].rows`.
            LaneTier::Avx512 => unsafe {
                x86::walk_avx512::<P, I>(pairing, last, cols, one_block, rects)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the tier implies cpuid reported avx2 and fma; the
            // columns as above.
            LaneTier::Avx2Fma => unsafe {
                x86::walk_avx2::<P, I>(pairing, last, cols, one_block, rects)
            },
            // SAFETY: the columns as above.
            LaneTier::Portable => unsafe {
                walk_portable::<P, I>(pairing, last, cols, one_block, rects)
            },
        };
    }

    /// Rotates the held pairing on its own, if there is one.
    fn close(&mut self, tier: LaneTier) {
        if let Some(last) = self.last.take() {
            // SAFETY: the held pairing's columns are in blocks this walk
            // borrows, two distinct columns of `last.rows`, and its slots
            // are in the walk's cache.
            unsafe { rotate_alone(tier, &mut self.pairing, last.hand, last.rows) };
        }
    }
}

/// Reduces the diagonal of every column of `cols` into its slot, on
/// `tier`: four columns abreast, then the one to three left over abreast,
/// each `u_k · a_k` — or `a_k · a_k` where `GRAM` — bitwise [`dot`].
/// Inlined into each tier's walk.
///
/// # Safety
/// `cols` must address a block's columns, none with a mutable view alive,
/// and `ncols` writable slots at `cols.diag`.
#[inline(always)]
unsafe fn refresh<const GRAM: bool>(tier: LaneTier, cols: Columns) {
    let mut k = 0;
    while k + 4 <= cols.ncols {
        abreast::<GRAM, 8, 4>(tier, cols, k);
        k += 4;
    }
    match cols.ncols - k {
        0 => {}
        1 => abreast::<GRAM, 2, 1>(tier, cols, k),
        2 => abreast::<GRAM, 4, 2>(tier, cols, k),
        _ => abreast::<GRAM, 6, 3>(tier, cols, k),
    }
}

/// [`refresh`] of the `N` columns of `cols` from `k`, over their `S = 2N`
/// streams in one reduction.
///
/// # Safety
/// As [`refresh`], the columns in the block.
#[inline(always)]
unsafe fn abreast<const GRAM: bool, const S: usize, const N: usize>(
    tier: LaneTier,
    cols: Columns,
    k: usize,
) {
    let [alen, ulen] = cols.rows;
    let streams: [&[f64]; S] = std::array::from_fn(|s| {
        let col = cols.at(k + s / 2);
        if s % 2 == 0 {
            std::slice::from_raw_parts(col.a, alen)
        } else {
            std::slice::from_raw_parts(col.u, ulen)
        }
    });
    let blocks = dots::<S, N, true, Diagonals<GRAM, N>>(tier, streams);
    for (n, [_, d, _]) in blocks.into_iter().enumerate() {
        *cols.at(k + n).d = d;
    }
}

/// A column of a walk: its `A` and `U` streams and its cache slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Column {
    a: *mut f64,
    u: *mut f64,
    d: *mut f64,
}

/// A pairing in hand: its columns `i` and `j`, and its 2×2 block.
#[derive(Debug, Clone, Copy)]
struct Hand {
    i: Column,
    j: Column,
    block: [f64; 3],
}

/// The pairing a walk holds between its calls, and the rows of its columns.
#[derive(Debug, Clone, Copy)]
struct Held {
    hand: Hand,
    rows: [usize; 2],
}

/// The columns of a block, as a walk addresses them: column `k`'s unit
/// starts `k · unit` values into the store.
#[derive(Debug, Clone, Copy)]
struct Columns {
    data: *mut f64,
    unit: usize,
    ustart: usize,
    /// The block's slots in the walk's cache: null until the walk gives
    /// it some.
    diag: *mut f64,
    ncols: usize,
    /// The length of every column's `A` stream and `U` stream.
    rows: [usize; 2],
}

impl Columns {
    /// `block`'s columns, with no slots yet.
    fn of(block: &mut ColumnBlock) -> Columns {
        let units = block.units_mut();
        Columns {
            data: units.data.as_mut_ptr(),
            unit: units.unit,
            ustart: units.ustart,
            diag: std::ptr::null_mut(),
            ncols: units.ncols,
            rows: units.rows,
        }
    }

    /// Column `k`: an address only, dereferenced by the walk once `k` is
    /// checked to be in the block.
    #[inline(always)]
    fn at(self, k: usize) -> Column {
        let a = self.data.wrapping_add(k * self.unit);
        Column { a, u: a.wrapping_add(self.ustart), d: self.diag.wrapping_add(k) }
    }
}

/// What a walk's schedule, [`walk_rect`], drives: the pass over the
/// columns — or, in the tests, a record of it.
trait Steps {
    /// A column.
    type Col: Copy + PartialEq;
    /// One side of a rectangle: its column `k` is `Self::col(side, k)`.
    type Side: Copy;

    /// Column `k` of `side`.
    fn col(side: Self::Side, k: usize) -> Self::Col;

    /// The pairing in hand between two rectangles, if there is one.
    fn last(&self) -> Option<[Self::Col; 2]>;

    /// Reduces the block of `first` on its own: a walk's first pairing.
    fn open(&mut self, first: [Self::Col; 2]);

    /// One step: rotates the `R` pairings in hand and reduces the blocks of
    /// the next step's `N`, placed by `T`, the columns it adds being
    /// `fresh` ([`Col::F0`] first; a slot `T` does not name is ignored).
    fn step<const R: usize, const N: usize, T: Transition<N>>(&mut self, fresh: [Self::Col; 2]);

    /// Rotates the one pairing in hand on its own.
    fn close(&mut self);
}

/// Walks the `nl × nr` rectangle of pairings of `left`'s columns with
/// `right`'s, in the order [`Walk`] describes, after the pairing in hand:
/// its first block is reduced in the step that rotates that pairing unless
/// the two share a column in a way no transition places.
#[inline(always)]
fn walk_rect<S: Steps>(s: &mut S, (left, nl): (S::Side, usize), (right, nr): (S::Side, usize)) {
    // No closures below: a closure would not take the target features of
    // the tier function this is inlined into, and the steps would not
    // inline into it.
    let first = [S::col(left, 0), S::col(right, 0)];
    match s.last() {
        None => s.open(first),
        Some([i, j]) => {
            let shared = [first[0] == i || first[0] == j, first[1] == i || first[1] == j];
            match shared {
                [false, false] => s.step::<1, 1, Fresh>(first),
                [true, false] if first[0] == i => s.step::<1, 1, Along>([first[1]; 2]),
                [false, true] if first[1] == j => s.step::<1, 1, Down>([first[0]; 2]),
                _ => {
                    s.close();
                    s.open(first);
                }
            }
        }
    }
    if nr == 1 {
        for k in 1..nl {
            s.step::<1, 1, Down>([S::col(left, k); 2]);
        }
        return;
    }
    if nl == 1 {
        for k in 1..nr {
            s.step::<1, 1, Along>([S::col(right, k); 2]);
        }
        return;
    }
    s.step::<1, 2, Open>([S::col(right, 1), S::col(left, 1)]);
    let mut row = 0;
    loop {
        // In hand: `(row, 1)` and `(row + 1, 0)`.
        for k in 2..nr {
            s.step::<2, 2, InRow>([S::col(right, k); 2]);
        }
        // In hand: `(row, nr − 1)` and `(row + 1, nr − 2)`.
        if row + 2 == nl {
            return s.step::<2, 1, Last>([S::col(left, row); 2]);
        }
        row += 2;
        if nr == 2 {
            s.step::<2, 2, WrapTwo>([S::col(left, row); 2]);
        } else {
            s.step::<2, 2, Wrap>([S::col(left, row), S::col(right, 0)]);
        }
        // In hand: `(row, 0)` and `(row − 1, nr − 1)`.
        if row + 1 == nl {
            if nr == 2 {
                s.step::<2, 1, AlongTwo>([S::col(left, row); 2]);
            } else {
                s.step::<2, 1, Along>([S::col(right, 1); 2]);
            }
            for k in 2..nr {
                s.step::<1, 1, Along>([S::col(right, k); 2]);
            }
            return;
        }
        if nr == 2 {
            s.step::<2, 2, OpenTwo>([S::col(left, row + 1); 2]);
        } else {
            s.step::<2, 2, Open>([S::col(right, 1), S::col(left, row + 1)]);
        }
    }
}

/// A vector tier a walk is compiled for.
trait OnTier {
    const TIER: LaneTier;
}

/// The tiers, one type each.
#[cfg(target_arch = "x86_64")]
struct OnAvx512;
#[cfg(target_arch = "x86_64")]
struct OnAvx2;
struct OnPortable;

#[cfg(target_arch = "x86_64")]
impl OnTier for OnAvx512 {
    const TIER: LaneTier = LaneTier::Avx512;
}
#[cfg(target_arch = "x86_64")]
impl OnTier for OnAvx2 {
    const TIER: LaneTier = LaneTier::Avx2Fma;
}
impl OnTier for OnPortable {
    const TIER: LaneTier = LaneTier::Portable;
}

/// The walk on the portable tier, which a host without FMA runs: a
/// function of its own, its passes the portable kernels'.
///
/// # Safety
/// As [`walk_on`].
#[inline(never)]
unsafe fn walk_portable<P: Pairing, I: Iterator<Item = Rect>>(
    pairing: &mut P,
    last: Option<Held>,
    cols: [Columns; 2],
    one_block: bool,
    rects: I,
) -> Option<Held> {
    walk_on::<OnPortable, P, I>(pairing, last, cols, one_block, rects)
}

/// Walks `rects` over `cols` — left, right; the same block twice where
/// `one_block` — after the held pairing `last`, on tier `K`, and returns
/// the pairing it then holds, the blocks' slots [`refresh`]ed first.
/// Inlined into each tier's function, so its steps compile in the tier's
/// instructions.
///
/// # Safety
/// `K`'s features must have been reported by cpuid; `cols` must address
/// blocks the caller has borrowed for as long as the returned pairing is
/// held, every column of both holding `cols[0].rows`, and each block's
/// slots, one per column, the walk's own for as long; `last` must be a
/// pairing of distinct columns of such blocks, of `last.rows`.
///
/// # Panics
/// Panics if a rectangle reaches past its block, or pairs a column with
/// itself where both sides are one block.
#[inline(always)]
unsafe fn walk_on<K: OnTier, P: Pairing, I: Iterator<Item = Rect>>(
    pairing: &mut P,
    last: Option<Held>,
    cols: [Columns; 2],
    one_block: bool,
    rects: I,
) -> Option<Held> {
    for c in &cols[..2 - usize::from(one_block)] {
        if P::GRAM {
            refresh::<true>(K::TIER, *c);
        } else {
            refresh::<false>(K::TIER, *c);
        }
    }
    let rows = cols[0].rows;
    let mut walker = Walker::<K, P> {
        pairing,
        hand: [last.map_or(NO_HAND, |last| last.hand); 2],
        held: last.is_some(),
        rows,
        _tier: std::marker::PhantomData,
    };
    for (l, r) in rects {
        if l.is_empty() || r.is_empty() {
            continue;
        }
        assert!(l.end <= cols[0].ncols && r.end <= cols[1].ncols, "a rectangle past its block");
        assert!(
            !one_block || l.end <= r.start || r.end <= l.start,
            "a rectangle pairs a column with itself"
        );
        walk_rect(&mut walker, ((cols[0], l.start), l.len()), ((cols[1], r.start), r.len()));
    }
    walker.held.then_some(Held { hand: walker.hand[0], rows })
}

/// The hand of a walk that holds no pairing.
const NO_HAND: Hand = {
    let none = Column { a: std::ptr::null_mut(), u: std::ptr::null_mut(), d: std::ptr::null_mut() };
    Hand { i: none, j: none, block: [0.0; 3] }
};

/// The walk's steps on tier `K`: the pairings in hand, `R` of them from
/// the first, and the rule's books.
struct Walker<'p, K, P> {
    pairing: &'p mut P,
    hand: [Hand; 2],
    /// Whether `hand[0]` is a pairing — between two rectangles, the one in
    /// hand.
    held: bool,
    rows: [usize; 2],
    _tier: std::marker::PhantomData<K>,
}

impl<K: OnTier, P: Pairing> Steps for Walker<'_, K, P> {
    type Col = Column;
    type Side = (Columns, usize);

    #[inline(always)]
    fn col((cols, first): (Columns, usize), k: usize) -> Column {
        cols.at(first + k)
    }

    #[inline(always)]
    fn last(&self) -> Option<[Column; 2]> {
        self.held.then_some([self.hand[0].i, self.hand[0].j])
    }

    #[inline(always)]
    fn open(&mut self, [i, j]: [Column; 2]) {
        let [alen, _] = self.rows;
        // SAFETY: the walk checked both columns are in their blocks, every
        // stream of `alen` (the implicit rule's `U` streams too), with a
        // slot each; no mutable view of them is alive.
        let block = unsafe {
            let stream = |s: *mut f64| std::slice::from_raw_parts(s, alen);
            let x = stream(if P::GRAM { i.a } else { i.u });
            let [[_, pq, _]] = dots::<2, 1, true, Dot>(K::TIER, [x, stream(j.a)]);
            [*i.d, pq, *j.d]
        };
        self.hand[0] = Hand { i, j, block };
        self.held = true;
    }

    #[inline(always)]
    fn step<const R: usize, const N: usize, T: Transition<N>>(&mut self, fresh: [Column; 2]) {
        const {
            assert!(R == 1 || R == 2, "a step rotates one or two pairings");
            let absent = if R == 1 { 0xf0 } else { 0 };
            assert!(
                Reads::<Step<T, P>, N, true>::MASK & absent == 0,
                "a table reads a pairing not there"
            );
        }
        let now = self.hand;
        let block = |r: usize| {
            let [app, apq, aqq] = now[r].block;
            (app, apq, aqq)
        };
        let mut turns = [None; R];
        if R == 2 {
            [turns[0], turns[R - 1]] = self.pairing.angles([block(0), block(R - 1)]);
        } else {
            turns[0] = self.pairing.angle(block(0));
        }
        let mut rows = [[std::ptr::null_mut(); 4]; R];
        for r in 0..R {
            let Hand { i, j, .. } = now[r];
            rows[r] = [i.a, j.a, i.u, j.u];
        }
        let read = [fresh[0].a, fresh[0].u, fresh[1].a, fresh[1].u];
        // SAFETY: the walk's schedule hands a step distinct columns, each
        // in a block the walk has borrowed and of `self.rows`: the ones it
        // rotates and the ones its table reads besides.
        let offs = unsafe { pass::<K, R, N, Step<T, P>>(rows, turns, read, self.rows) };
        if let (2, Some(r0), Some(r1)) = (R, turns[0], turns[R - 1]) {
            let [[pp0, qq0], [pp1, qq1]] = kept_pair([now[0].block, now[R - 1].block], [r0, r1]);
            // SAFETY: each slot is its column's own.
            unsafe {
                ((*now[0].i.d, *now[0].j.d), (*now[R - 1].i.d, *now[R - 1].j.d)) =
                    ((pp0, qq0), (pp1, qq1))
            };
        } else {
            for r in 0..R {
                if let Some(rot) = turns[r] {
                    // SAFETY: each slot is its column's own.
                    unsafe { keep_slots(now[r], rot) };
                }
            }
        }
        let pick = |c: Col| match c {
            Col::I0 => now[0].i,
            Col::J0 => now[0].j,
            Col::I1 => now[R - 1].i,
            Col::J1 => now[R - 1].j,
            Col::F0 => fresh[0],
            Col::F1 => fresh[1],
        };
        for n in 0..N {
            let [i, j] = T::NEXT[n].map(pick);
            // SAFETY: every column of the walk has its slot, which this
            // step's rotations have kept current.
            let block = unsafe { [*i.d, offs[n], *j.d] };
            self.hand[n] = Hand { i, j, block };
        }
        self.held = true;
    }

    #[inline(always)]
    fn close(&mut self) {
        // SAFETY: the pairing in hand is two distinct columns of the walk's
        // blocks, of `self.rows`.
        unsafe { rotate_alone(K::TIER, self.pairing, self.hand[0], self.rows) };
        self.held = false;
    }
}

/// Rotates `hand` on its own, as `pairing` decides, on `tier`.
///
/// # Safety
/// `hand`'s columns must be distinct, their streams of `rows` and their
/// slots their own.
#[inline(always)]
unsafe fn rotate_alone<P: Pairing>(tier: LaneTier, pairing: &mut P, hand: Hand, rows: [usize; 2]) {
    let [app, apq, aqq] = hand.block;
    if let Some(rot) = pairing.angle((app, apq, aqq)) {
        let [alen, ulen] = rows;
        let (i, j) = (hand.i, hand.j);
        let stream = |s: *mut f64, len| std::slice::from_raw_parts_mut(s, len);
        let (ai, aj) = (stream(i.a, alen), stream(j.a, alen));
        let (ui, uj) = (stream(i.u, ulen), stream(j.u, ulen));
        pair_rotate_on(tier, ai, aj, ui, uj, rot.c, rot.s);
        keep_slots(hand, rot);
    }
}

/// Keeps a rotated pairing's cache slots current: the rotation annihilates
/// the off-diagonal, and the new diagonal is the exact 2×2 similarity
/// image of the old block.
///
/// # Safety
/// Each slot must be its column's own.
#[inline(always)]
unsafe fn keep_slots(Hand { i, j, block: [app, apq, aqq] }: Hand, rot: JacobiRotation) {
    let (pp, _, qq) = apply_to_block(rot, app, apq, aqq);
    (*i.d, *j.d) = (pp, qq);
}

/// A step's pass on tier `K`: rotates pairing `r`'s streams `rows[r] =
/// [ai, aj, ui, uj]` by `turns[r]` (a skipped pairing is left as it is),
/// bitwise [`pair_rotate`], and returns the off-diagonals of `O`'s blocks
/// over the step's streams ([`STEP_STREAMS`]) after the rotation, each
/// bitwise [`dot`]. On AVX-512 with every pairing turning that is one
/// pass; otherwise a rotation pass, then one reduction pass a block.
///
/// # Safety
/// `K`'s features must have been reported by cpuid. The rotated streams
/// and the fresh ones `read` = `[a0, u0, a1, u1]` the table reads must be
/// distinct columns' streams: `A` streams of `alen` values, `U` streams
/// of `ulen`. Under the implicit rule (`O` reading `U` streams) both are
/// one length.
#[inline(always)]
unsafe fn pass<K: OnTier, const R: usize, const N: usize, O: Operands<N>>(
    rows: [[*mut f64; 4]; R],
    turns: [Option<JacobiRotation>; R],
    read: [*mut f64; 4],
    [alen, ulen]: [usize; 2],
) -> [f64; N] {
    #[cfg(target_arch = "x86_64")]
    if matches!(K::TIER, LaneTier::Avx512) && turns.iter().all(Option::is_some) {
        let mut cs = [(0.0, 0.0); R];
        for r in 0..R {
            if let Some(rot) = turns[r] {
                cs[r] = (rot.c, rot.s);
            }
        }
        return x86::step_avx512::<R, N, O>(rows, cs, read, [alen, ulen]);
    }
    for r in 0..R {
        if let Some(rot) = turns[r] {
            let [ai, aj, ui, uj] = rows[r];
            let stream = |s: *mut f64, len| std::slice::from_raw_parts_mut(s, len);
            let (ai, aj, ui, uj) =
                (stream(ai, alen), stream(aj, alen), stream(ui, ulen), stream(uj, ulen));
            pair_rotate_on(K::TIER, ai, aj, ui, uj, rot.c, rot.s);
        }
    }
    let streams = step_streams(rows, read, [alen, ulen]);
    let mut offs = [0.0f64; N];
    for (off, [x, _, _, b]) in offs.iter_mut().zip(O::TABLE) {
        [[_, *off, _]] = dots::<2, 1, true, Dot>(K::TIER, [streams[x], streams[b]]);
    }
    offs
}

/// The streams of a step as slices, numbered as in [`STEP_STREAMS`]; a
/// pairing the step does not have is empty.
///
/// # Safety
/// Every pointer must address a stream of its length, `A` streams of
/// `alen` and `U` streams of `ulen`, with no mutable view of it alive
/// while the slices are.
#[inline(always)]
unsafe fn step_streams<'s, const R: usize>(
    rows: [[*mut f64; 4]; R],
    [a0, u0, a1, u1]: [*mut f64; 4],
    [alen, ulen]: [usize; 2],
) -> [&'s [f64]; STEP_STREAMS] {
    let stream = |s: *mut f64, len| std::slice::from_raw_parts(s, len);
    let mut streams: [&[f64]; STEP_STREAMS] = [&[]; STEP_STREAMS];
    for (r, [ai, aj, ui, uj]) in rows.into_iter().enumerate() {
        streams[4 * r..4 * r + 4].copy_from_slice(&[
            stream(ai, alen),
            stream(aj, alen),
            stream(ui, ulen),
            stream(uj, ulen),
        ]);
    }
    streams[8..].copy_from_slice(&[
        stream(a0, alen),
        stream(u0, ulen),
        stream(a1, alen),
        stream(u1, ulen),
    ]);
    streams
}

/// The one plane rotation, of one entry pair: `(x, y) ← (c·x − s·y,
/// s·x + c·y)` as `x' = fma(c, x, −(s·y))` and `y' = fma(s, x, c·y)` — one
/// product rounded, then one fused multiply-add, so each entry is rounded
/// twice. Every rotator of every tier computes these bits.
///
/// Always inlined, so that a caller compiled with FMA fuses in one
/// instruction; elsewhere `f64::mul_add` is a library call.
#[inline(always)]
fn turn(x: f64, y: f64, c: f64, s: f64) -> (f64, f64) {
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

/// The fused four-stream scalar rotation over equal-length slices: the body
/// of [`pair_rotate`]'s loop, and the rows past the last chunk of each lane
/// form.
#[inline(always)]
fn rotate4(ai: &mut [f64], aj: &mut [f64], ui: &mut [f64], uj: &mut [f64], c: f64, s: f64) {
    debug_assert_eq!(ai.len(), aj.len());
    debug_assert_eq!(ai.len(), ui.len());
    debug_assert_eq!(ai.len(), uj.len());
    for k in 0..ai.len() {
        (ai[k], aj[k]) = turn(ai[k], aj[k], c, s);
        (ui[k], uj[k]) = turn(ui[k], uj[k], c, s);
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
    match lane_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: each of these tiers implies cpuid reported fma (rustc's
        // `avx512f` includes it); the stream pairs' lengths were asserted
        // above.
        LaneTier::Avx512 | LaneTier::Avx2Fma => unsafe {
            x86::pair_rotate_fma(ai, aj, ui, uj, c, s)
        },
        LaneTier::Portable => pair_rotate_portable(ai, aj, ui, uj, c, s),
    }
}

/// [`pair_rotate`] on the portable tier: its loops, each `f64::mul_add` a
/// library call — a function of its own, so no caller inlines one.
#[inline(never)]
fn pair_rotate_portable(
    ai: &mut [f64],
    aj: &mut [f64],
    ui: &mut [f64],
    uj: &mut [f64],
    c: f64,
    s: f64,
) {
    pair_rotate_loop(ai, aj, ui, uj, c, s);
}

/// [`pair_rotate`]'s loops, inlined into their caller's target features:
/// the common prefix of the four streams, then the excess of the longer
/// pair.
#[inline(always)]
fn pair_rotate_loop(
    ai: &mut [f64],
    aj: &mut [f64],
    ui: &mut [f64],
    uj: &mut [f64],
    c: f64,
    s: f64,
) {
    let (head, a_tail, u_tail) = split_pair_streams(ai, aj, ui, uj);
    rotate4(head.0, head.1, head.2, head.3, c, s);
    for (x, y) in [a_tail, u_tail] {
        for (x, y) in x.iter_mut().zip(y) {
            (*x, *y) = turn(*x, *y, c, s);
        }
    }
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
fn pair_rotate_on(
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
    let (head, a_tail, u_tail) = split_pair_streams(ai, aj, ui, uj);
    match tier {
        #[cfg(target_arch = "x86_64")]
        // Safety: tier implies the feature was detected (see `LaneTier`).
        LaneTier::Avx512 if head.0.len() >= AVX512_MIN_ROTATE => unsafe {
            x86::pair_rotate_avx512(head.0, head.1, head.2, head.3, c, s)
        },
        #[cfg(target_arch = "x86_64")]
        // Safety: each of these tiers implies avx2 and fma (rustc's
        // `avx512f` includes both).
        LaneTier::Avx512 | LaneTier::Avx2Fma => unsafe {
            x86::pair_rotate_avx2(head.0, head.1, head.2, head.3, c, s)
        },
        LaneTier::Portable => pair_rotate_portable(head.0, head.1, head.2, head.3, c, s),
    }
    if !a_tail.0.is_empty() || !u_tail.0.is_empty() {
        pair_rotate(a_tail.0, a_tail.1, u_tail.0, u_tail.1, c, s);
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
/// Every result is `to_bits`-equal to the scalar loop on every tier. The
/// AVX2 form holds four columns in one register, lane `l` column `l`: a
/// run of four consecutive pivot rows is one 4×4 tile (four loads, a
/// transpose, four turns, the transpose back, four stores), any other turn
/// loads its four entries lane by lane, and every turn is a multiply and a
/// fused multiply-add per entry, so each entry sees the scalar operations
/// in the scalar order. It runs two four-column groups abreast, so their
/// `x` chains overlap; leftover columns, and the portable tier, take the
/// scalar loop a few columns abreast.
///
/// # Panics
/// Panics unless `p < m`, `cols` is whole columns and every `q < m`.
#[inline]
pub fn rotate_top_pivot(cols: &mut [f64], m: usize, p: usize, chain: &[(usize, f64, f64)]) {
    assert!(p < m, "pivot row {p} outside a column of {m}");
    // One column fills no lanes. It is the call a pivot's catch-up and the
    // two-sided oracle's 2×2 block make once per pivot, so it takes the
    // shortest road: no division, no grouping.
    if cols.len() == m {
        match lane_tier() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: each of these tiers implies cpuid reported fma
            // (rustc's `avx512f` includes it).
            LaneTier::Avx512 | LaneTier::Avx2Fma => unsafe {
                x86::top_pivot_column_fma(cols, p, chain)
            },
            LaneTier::Portable => rotate_top_pivot_portable(cols, 1, m, p, chain),
        }
        return;
    }
    let n = cols.len() / m;
    assert_eq!(n * m, cols.len(), "not whole columns of {m}");
    if chain.is_empty() {
        return;
    }
    match lane_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: each of these tiers implies avx2 and fma (rustc's
        // `avx512f` includes both); `p < m` and `cols` being `n` columns
        // were asserted above.
        LaneTier::Avx512 | LaneTier::Avx2Fma if n >= 4 => unsafe {
            x86::rotate_top_pivot_avx2(cols, n, m, p, chain)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; the scalar loop needs fma only.
        LaneTier::Avx512 | LaneTier::Avx2Fma => unsafe {
            x86::rotate_top_pivot_fma(cols, n, m, p, chain)
        },
        LaneTier::Portable => rotate_top_pivot_portable(cols, n, m, p, chain),
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
    match lane_tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: each of these tiers implies cpuid reported fma (rustc's
        // `avx512f` includes it).
        LaneTier::Avx512 | LaneTier::Avx2Fma => unsafe { x86::pivot_rows_fma(x, y, (p, q), c, s) },
        LaneTier::Portable => pivot_rows_portable(x, y, (p, q), c, s),
    }
}

/// [`rotate_pivot_rows`] on the portable tier, each `f64::mul_add` a
/// library call — a function of its own, so no caller inlines one.
#[inline(never)]
fn pivot_rows_portable(x: &mut [f64], y: &mut [f64], rows: (usize, usize), c: f64, s: f64) {
    pivot_rows(x, y, rows, c, s);
}

/// [`rotate_pivot_rows`]' turns, inlined into their caller's target
/// features.
#[inline(always)]
fn pivot_rows(x: &mut [f64], y: &mut [f64], (p, q): (usize, usize), c: f64, s: f64) {
    for col in [x, y] {
        (col[p], col[q]) = turn(col[p], col[q], c, s);
    }
}

/// [`rotate_top_pivot`] on the portable tier: its scalar loop, each
/// `f64::mul_add` a library call — a function of its own, so no caller
/// inlines one.
#[inline(never)]
fn rotate_top_pivot_portable(
    cols: &mut [f64],
    n: usize,
    m: usize,
    p: usize,
    chain: &[(usize, f64, f64)],
) {
    rotate_top_pivot_loop(cols, n, m, p, chain);
}

/// The scalar loop of [`rotate_top_pivot`] on the `n` columns of `cols`,
/// four abreast, then the one to three left over abreast — inlined into
/// its caller's target features.
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

/// [`rotate_top_pivot`] on one column, inlined into its caller's target
/// features.
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

/// Explicit x86-64 lane kernels. Every function here carries a
/// `#[target_feature]` attribute and is only reachable through
/// [`lane_tier`]'s cpuid dispatch, which is the safety condition for each
/// of the `unsafe fn`s below.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Columns, Held, JacobiRotation, Operands, Pairing, Rect};
    use std::arch::x86_64::*;

    /// [`super::symmetric_schur_pair`] in the two lanes of one SSE2
    /// register, every operation the scalar form's.
    #[inline(always)]
    pub(super) fn schur_pair([b0, b1]: [(f64, f64, f64); 2]) -> [JacobiRotation; 2] {
        // SAFETY: SSE2 is part of every x86-64 target.
        unsafe {
            let (app, apq, aqq) =
                (_mm_set_pd(b1.0, b0.0), _mm_set_pd(b1.1, b0.1), _mm_set_pd(b1.2, b0.2));
            let (one, sign) = (_mm_set1_pd(1.0), _mm_set1_pd(-0.0));
            let tau = _mm_div_pd(_mm_sub_pd(aqq, app), _mm_mul_pd(_mm_set1_pd(2.0), apq));
            let root = _mm_sqrt_pd(_mm_add_pd(one, _mm_mul_pd(tau, tau)));
            let t = _mm_div_pd(one, _mm_add_pd(_mm_andnot_pd(sign, tau), root));
            // `−1/x` is `1/x` with its sign flipped: negate where τ < 0 or
            // τ is NaN, as the scalar form's `τ ≥ 0` test does.
            let below = _mm_andnot_pd(_mm_cmpge_pd(tau, _mm_setzero_pd()), sign);
            let t = _mm_xor_pd(t, below);
            let c = _mm_div_pd(one, _mm_sqrt_pd(_mm_add_pd(one, _mm_mul_pd(t, t))));
            let s = _mm_mul_pd(t, c);
            let lane = |v: __m128d| [_mm_cvtsd_f64(v), _mm_cvtsd_f64(_mm_unpackhi_pd(v, v))];
            let ([c0, c1], [s0, s1]) = (lane(c), lane(s));
            [JacobiRotation { c: c0, s: s0 }, JacobiRotation { c: c1, s: s1 }]
        }
    }

    /// [`super::kept_pair`] in the two lanes of one SSE2 register, every
    /// operation [`crate::rotation::apply_to_block`]'s: `pp = c·c·app −
    /// 2·s·c·apq + s·s·aqq` and `qq = s·s·app + 2·s·c·apq + c·c·aqq`,
    /// left to right.
    #[inline(always)]
    pub(super) fn kept_pair(blocks: [[f64; 3]; 2], [r0, r1]: [JacobiRotation; 2]) -> [[f64; 2]; 2] {
        // SAFETY: SSE2 is part of every x86-64 target.
        unsafe {
            let lanes = |k: usize| _mm_set_pd(blocks[1][k], blocks[0][k]);
            let (app, apq, aqq) = (lanes(0), lanes(1), lanes(2));
            let (c, s) = (_mm_set_pd(r1.c, r0.c), _mm_set_pd(r1.s, r0.s));
            let (cc, ss) = (_mm_mul_pd(c, c), _mm_mul_pd(s, s));
            let sc2 = _mm_mul_pd(_mm_mul_pd(_mm_set1_pd(2.0), s), c);
            let cross = _mm_mul_pd(sc2, apq);
            let pp = _mm_add_pd(_mm_sub_pd(_mm_mul_pd(cc, app), cross), _mm_mul_pd(ss, aqq));
            let qq = _mm_add_pd(_mm_add_pd(_mm_mul_pd(ss, app), cross), _mm_mul_pd(cc, aqq));
            let lane = |v: __m128d| [_mm_cvtsd_f64(v), _mm_cvtsd_f64(_mm_unpackhi_pd(v, v))];
            let ([pp0, pp1], [qq0, qq1]) = (lane(pp), lane(qq));
            [[pp0, qq0], [pp1, qq1]]
        }
    }

    /// [`super::dots`] on AVX-512F: each product's eight partial sums in
    /// one register, lane `l` the sum of index `l` mod 8, one fused
    /// multiply-add per eight elements — then [`super::finish`]'s tree and
    /// tail.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` via cpuid (rustc's `avx512f`
    /// includes `fma`); every stream the products read must hold `len`
    /// elements (checked by [`super::dots`]).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dots_avx512<const S: usize, const N: usize, const OFF: bool, T: Operands<N>>(
        streams: [&[f64]; S],
        len: usize,
    ) -> [[f64; 3]; N] {
        let body = len / 8 * 8;
        let mut acc = [[_mm512_setzero_pd(); 3]; N];
        reduce_avx512::<S, N, OFF, T>(&mut acc, streams, 0..body);
        super::finish(spill_avx512(acc), streams, (T::TABLE, OFF), body, len)
    }

    /// The products' fused multiply-adds over the eight-element chunks
    /// starting in `chunks`, read from memory.
    ///
    /// # Safety
    /// Requires AVX-512F; every stream the products read must hold the
    /// chunks.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn reduce_avx512<const S: usize, const N: usize, const OFF: bool, T: Operands<N>>(
        acc: &mut [[__m512d; 3]; N],
        streams: [&[f64]; S],
        chunks: std::ops::Range<usize>,
    ) {
        let mut v = [_mm512_setzero_pd(); S];
        for i in chunks.step_by(8) {
            for (s, reg) in v.iter_mut().enumerate() {
                if super::reads::<N, OFF, T>(s) {
                    *reg = _mm512_loadu_pd(streams[s].as_ptr().add(i));
                }
            }
            fma_avx512::<S, N, OFF, T>(acc, &v);
        }
    }

    /// One chunk of every product: `acc ← v[x]·v[y] + acc`, fused.
    /// Always inlined, into an AVX-512 function.
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[inline(always)]
    unsafe fn fma_avx512<const S: usize, const N: usize, const OFF: bool, T: Operands<N>>(
        acc: &mut [[__m512d; 3]; N],
        v: &[__m512d; S],
    ) {
        for (acc, row) in acc.iter_mut().zip(T::TABLE) {
            for (p, acc) in acc.iter_mut().enumerate() {
                if super::takes(OFF, p) {
                    let [x, y] = super::product(row, p);
                    *acc = _mm512_fmadd_pd(v[x], v[y], *acc);
                }
            }
        }
    }

    /// The accumulators' lanes, as [`super::finish`] takes them. Always
    /// inlined, into an AVX-512 function.
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[inline(always)]
    unsafe fn spill_avx512<const N: usize>(acc: [[__m512d; 3]; N]) -> [[[f64; 8]; 3]; N] {
        let mut sums = [[[0.0f64; 8]; 3]; N];
        for (sums, acc) in sums.iter_mut().zip(acc) {
            for (sums, acc) in sums.iter_mut().zip(acc) {
                _mm512_storeu_pd(sums.as_mut_ptr(), acc);
            }
        }
        sums
    }

    /// [`super::walk_on`] compiled for AVX-512 (F and VL): every step of
    /// a call's rectangles in this one function, each pass
    /// [`step_avx512`] where every pairing of the step turns.
    ///
    /// # Safety
    /// As [`super::walk_on`], on a host whose cpuid reported avx512f and
    /// avx512vl.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn walk_avx512<P: Pairing, I: Iterator<Item = Rect>>(
        pairing: &mut P,
        last: Option<Held>,
        cols: [Columns; 2],
        one_block: bool,
        rects: I,
    ) -> Option<Held> {
        super::walk_on::<super::OnAvx512, P, I>(pairing, last, cols, one_block, rects)
    }

    /// [`super::walk_on`] compiled for AVX2 with FMA: every step a
    /// rotation pass, then a reduction pass a block.
    ///
    /// # Safety
    /// As [`super::walk_on`], on a host whose cpuid reported avx2 and fma.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn walk_avx2<P: Pairing, I: Iterator<Item = Rect>>(
        pairing: &mut P,
        last: Option<Held>,
        cols: [Columns; 2],
        one_block: bool,
        rects: I,
    ) -> Option<Held> {
        super::walk_on::<super::OnAvx2, P, I>(pairing, last, cols, one_block, rects)
    }

    /// A step's pass on AVX-512 (F and VL), every pairing turning: per
    /// chunk of eight rows, each pairing's four streams are loaded,
    /// rotated ([`turn8`]) and stored, and the next step's products take
    /// the rotated values from the same registers, beside the fresh
    /// columns' loads; the products' lanes then go through the tree in
    /// registers ([`tree_avx512`]). What the chunks leave — the rows past
    /// the last common chunk of every stream — is rotated by the scalar
    /// loop, then reduced from memory by [`step_rest`], each lane's chain
    /// continued. Inlined into [`walk_avx512`], whose instructions it
    /// takes.
    ///
    /// # Safety
    /// As [`super::pass`], on a host with AVX-512F and VL.
    #[inline(always)]
    pub unsafe fn step_avx512<const R: usize, const N: usize, T: Operands<N>>(
        rows: [[*mut f64; 4]; R],
        turns: [(f64, f64); R],
        read: [*mut f64; 4],
        [alen, ulen]: [usize; 2],
    ) -> [f64; N] {
        let fused = alen.min(ulen) / 8 * 8;
        let mut vt = [(_mm512_setzero_pd(), _mm512_setzero_pd()); R];
        for r in 0..R {
            vt[r] = (_mm512_set1_pd(turns[r].0), _mm512_set1_pd(turns[r].1));
        }
        let mut acc = [[_mm512_setzero_pd(); 3]; N];
        for i in (0..fused).step_by(8) {
            let mut v = [_mm512_setzero_pd(); super::STEP_STREAMS];
            // Every load of the chunk before any of its stores: a load
            // after a store whose address matches it in the low twelve bits
            // waits on the store, and the columns of a 256-row block start
            // 4 KiB apart.
            for f in 0..4 {
                if super::reads::<N, true, T>(8 + f) {
                    v[8 + f] = _mm512_loadu_pd(read[f].add(i));
                }
            }
            for r in 0..R {
                let [ai, aj, ui, uj] = rows[r];
                let (vc, vs) = vt[r];
                let (a0, a1) = (_mm512_loadu_pd(ai.add(i)), _mm512_loadu_pd(aj.add(i)));
                let (u0, u1) = (_mm512_loadu_pd(ui.add(i)), _mm512_loadu_pd(uj.add(i)));
                (v[4 * r], v[4 * r + 1]) = turn8(a0, a1, vc, vs);
                (v[4 * r + 2], v[4 * r + 3]) = turn8(u0, u1, vc, vs);
            }
            fma_avx512::<{ super::STEP_STREAMS }, N, true, T>(&mut acc, &v);
            for r in 0..R {
                for k in 0..4 {
                    _mm512_storeu_pd(rows[r][k].add(i), v[4 * r + k]);
                }
            }
        }
        for r in 0..R {
            let [ai, aj, ui, uj] = rows[r];
            let (c, s) = turns[r];
            for (x, y, len) in [(ai, aj, alen), (ui, uj, ulen)] {
                for k in fused..len {
                    (*x.add(k), *y.add(k)) = super::turn(*x.add(k), *y.add(k), c, s);
                }
            }
        }
        if fused == alen {
            return tree_avx512::<N, true>(acc).map(|[_, pq, _]| pq);
        }
        let streams = super::step_streams(rows, read, [alen, ulen]);
        step_rest(spill_avx512(acc), streams, (T::TABLE, true), fused, alen).map(|[_, pq, _]| pq)
    }

    /// Each product's eight partial sums through [`super::tree`]'s fixed
    /// tree without leaving the registers: the high half added to the low
    /// one gives `s_l + s_(l+4)`, its high half added to its low one
    /// `(s0 + s4) + (s2 + s6)` and `(s1 + s5) + (s3 + s7)`, and those two
    /// the sum — the tree's operations, in its order. A product `OFF`
    /// leaves out reads 0.0.
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[inline(always)]
    unsafe fn tree_avx512<const N: usize, const OFF: bool>(
        acc: [[__m512d; 3]; N],
    ) -> [[f64; 3]; N] {
        let mut out = [[0.0f64; 3]; N];
        for n in 0..N {
            for p in 0..3 {
                if super::takes(OFF, p) {
                    let s = acc[n][p];
                    let h =
                        _mm256_add_pd(_mm512_castpd512_pd256(s), _mm512_extractf64x4_pd::<1>(s));
                    let q = _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd::<1>(h));
                    out[n][p] = _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)));
                }
            }
        }
        out
    }

    /// The end of a one-pass step whose streams outrun its last common
    /// chunk: the chunks from `fused` on, then the tree and the tail — each
    /// lane the chain the pass left in `sums`, continued.
    ///
    /// # Safety
    /// Requires AVX-512F; every stream `table` reads must hold `len`
    /// elements.
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    unsafe fn step_rest<const N: usize>(
        mut sums: [[[f64; 8]; 3]; N],
        streams: [&[f64]; super::STEP_STREAMS],
        table: super::Table<N>,
        fused: usize,
        len: usize,
    ) -> [[f64; 3]; N] {
        let body = len / 8 * 8;
        super::reduce_portable(&mut sums, streams, table, fused..body);
        super::finish(sums, streams, table, body, len)
    }

    /// [`super::dots`] on AVX2 with FMA: each product's eight partial sums
    /// in two registers, lanes 0–3 and 4–7, one fused multiply-add each per
    /// eight elements — then [`super::finish`]'s tree and tail. The blocks
    /// are taken one pass each: two blocks' twelve accumulators would not
    /// fit sixteen registers beside the loads.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` via cpuid; every stream
    /// the products read must hold `len` elements (checked by
    /// [`super::dots`]).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dots_avx2<const S: usize, const N: usize, const OFF: bool, T: Operands<N>>(
        streams: [&[f64]; S],
        len: usize,
    ) -> [[f64; 3]; N] {
        let body = len / 8 * 8;
        let mut sums = [[[0.0f64; 8]; 3]; N];
        for (sums, row) in sums.iter_mut().zip(T::TABLE) {
            let (mut lo, mut hi) = ([_mm256_setzero_pd(); 3], [_mm256_setzero_pd(); 3]);
            for i in (0..body).step_by(8) {
                for (p, (lo, hi)) in lo.iter_mut().zip(&mut hi).enumerate() {
                    if super::takes(OFF, p) {
                        let [x, y] = super::product(row, p).map(|s| streams[s].as_ptr().add(i));
                        *lo = _mm256_fmadd_pd(_mm256_loadu_pd(x), _mm256_loadu_pd(y), *lo);
                        let (x, y) = (x.add(4), y.add(4));
                        *hi = _mm256_fmadd_pd(_mm256_loadu_pd(x), _mm256_loadu_pd(y), *hi);
                    }
                }
            }
            for ((sums, lo), hi) in sums.iter_mut().zip(lo).zip(hi) {
                _mm256_storeu_pd(sums.as_mut_ptr(), lo);
                _mm256_storeu_pd(sums.as_mut_ptr().add(4), hi);
            }
        }
        super::finish(sums, streams, (T::TABLE, OFF), body, len)
    }

    /// [`super::turn`] on eight entry pairs: `(fma(c, x, −(s·y)),
    /// fma(s, x, c·y))`, lane by lane. Always inlined, into an AVX-512
    /// function.
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[inline(always)]
    unsafe fn turn8(x: __m512d, y: __m512d, vc: __m512d, vs: __m512d) -> (__m512d, __m512d) {
        (_mm512_fmsub_pd(vc, x, _mm512_mul_pd(vs, y)), _mm512_fmadd_pd(vs, x, _mm512_mul_pd(vc, y)))
    }

    /// Four-stream rotate, 8 lanes at a time ([`turn8`]), then the rows
    /// past the last chunk by the scalar loop — every entry [`super::turn`]'s
    /// bits.
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
        let body = n / 8 * 8;
        for i in (0..body).step_by(8) {
            let a0 = _mm512_loadu_pd(ai.as_ptr().add(i));
            let a1 = _mm512_loadu_pd(aj.as_ptr().add(i));
            let u0 = _mm512_loadu_pd(ui.as_ptr().add(i));
            let u1 = _mm512_loadu_pd(uj.as_ptr().add(i));
            let (na0, na1) = turn8(a0, a1, vc, vs);
            let (nu0, nu1) = turn8(u0, u1, vc, vs);
            _mm512_storeu_pd(ai.as_mut_ptr().add(i), na0);
            _mm512_storeu_pd(aj.as_mut_ptr().add(i), na1);
            _mm512_storeu_pd(ui.as_mut_ptr().add(i), nu0);
            _mm512_storeu_pd(uj.as_mut_ptr().add(i), nu1);
        }
        super::rotate4(&mut ai[body..], &mut aj[body..], &mut ui[body..], &mut uj[body..], c, s);
    }

    /// Four-stream rotate, 4 lanes at a time ([`turn4`]), then the rows
    /// past the last chunk by the scalar loop — every entry
    /// [`super::turn`]'s bits.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` via cpuid; all four
    /// slices must share one length (checked by the safe wrapper).
    #[target_feature(enable = "avx2,fma")]
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
        let body = n / 4 * 4;
        for i in (0..body).step_by(4) {
            let mut a0 = _mm256_loadu_pd(ai.as_ptr().add(i));
            let mut a1 = _mm256_loadu_pd(aj.as_ptr().add(i));
            let mut u0 = _mm256_loadu_pd(ui.as_ptr().add(i));
            let mut u1 = _mm256_loadu_pd(uj.as_ptr().add(i));
            turn4(&mut a0, &mut a1, vc, vs);
            turn4(&mut u0, &mut u1, vc, vs);
            _mm256_storeu_pd(ai.as_mut_ptr().add(i), a0);
            _mm256_storeu_pd(aj.as_mut_ptr().add(i), a1);
            _mm256_storeu_pd(ui.as_mut_ptr().add(i), u0);
            _mm256_storeu_pd(uj.as_mut_ptr().add(i), u1);
        }
        super::rotate4(&mut ai[body..], &mut aj[body..], &mut ui[body..], &mut uj[body..], c, s);
    }

    /// [`super::pair_rotate`] compiled with FMA, so that each
    /// `f64::mul_add` of its loops is the instruction.
    ///
    /// # Safety
    /// Caller must have verified `fma` via cpuid; `ai`/`aj` and `ui`/`uj`
    /// must each share one length (checked by the safe wrapper).
    #[target_feature(enable = "fma")]
    pub unsafe fn pair_rotate_fma(
        ai: &mut [f64],
        aj: &mut [f64],
        ui: &mut [f64],
        uj: &mut [f64],
        c: f64,
        s: f64,
    ) {
        super::pair_rotate_loop(ai, aj, ui, uj, c, s);
    }

    /// [`super::rotate_pivot_rows`] compiled with FMA.
    ///
    /// # Safety
    /// Caller must have verified `fma` via cpuid.
    #[target_feature(enable = "fma")]
    pub unsafe fn pivot_rows_fma(
        x: &mut [f64],
        y: &mut [f64],
        rows: (usize, usize),
        c: f64,
        s: f64,
    ) {
        super::pivot_rows(x, y, rows, c, s);
    }

    /// [`super::rotate_top_pivot`]'s scalar loop on one column, compiled
    /// with FMA: every pivot's own catch-up and the oracle's 2×2 block.
    ///
    /// # Safety
    /// Caller must have verified `fma` via cpuid.
    #[target_feature(enable = "fma")]
    pub unsafe fn top_pivot_column_fma(col: &mut [f64], p: usize, chain: &[(usize, f64, f64)]) {
        super::top_pivot_column(col, p, chain);
    }

    /// [`super::rotate_top_pivot`]'s scalar loop compiled with FMA: two or
    /// three columns, fewer than fill a register.
    ///
    /// # Safety
    /// Caller must have verified `fma` via cpuid, and that `p < m` and
    /// `cols` is `n` columns of `m` (checked by the safe wrapper).
    #[target_feature(enable = "fma")]
    pub unsafe fn rotate_top_pivot_fma(
        cols: &mut [f64],
        n: usize,
        m: usize,
        p: usize,
        chain: &[(usize, f64, f64)],
    ) {
        super::rotate_top_pivot_loop(cols, n, m, p, chain);
    }

    /// [`super::rotate_top_pivot`] with four columns to a register: eight
    /// columns at a time as two groups abreast, then a group of four, then
    /// the one to three left over on the scalar loop. Every turn is
    /// [`turn4`], so every entry's bits match the scalar chain.
    ///
    /// # Safety
    /// Caller must have verified `avx2` and `fma` via cpuid, and that
    /// `p < m` and `cols` is `n` columns of `m` (checked by the safe
    /// wrapper).
    #[target_feature(enable = "avx2,fma")]
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
        super::rotate_top_pivot_loop(&mut cols[j * m..], n - j, m, p, chain);
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

    /// [`super::turn`] on four entry pairs: `(x, y) ← (fma(c, x, −(s·y)),
    /// fma(s, x, c·y))`, lane by lane.
    ///
    /// # Safety
    /// Requires AVX and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
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
    #[inline]
    #[target_feature(enable = "avx2,fma")]
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
            let want_x: Vec<f64> =
                x.iter().zip(&y).map(|(&xi, &yi)| c.mul_add(xi, -(s * yi))).collect();
            let want_y: Vec<f64> =
                x.iter().zip(&y).map(|(&xi, &yi)| s.mul_add(xi, c * yi)).collect();
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
        // The lane rotate's core contract: each lane is the scalar loop's
        // multiply and fused multiply-add, so identical bits at every
        // vector width and tail length.
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
    // reductions and the step pass take the tier as an argument, and
    // `lane_tiers` lists every tier cpuid reports — the safety condition of
    // the `unsafe` forms each tier reaches. The rotators' forms are named
    // below, each x86 one only once cpuid reports its features.

    type RotateFn = fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64], f64, f64);

    /// Every tier of the rotator this host can run: the portable loop, and
    /// each x86 form once cpuid reports its features — the scalar loop
    /// compiled with FMA among them.
    fn rotate_tiers() -> Vec<(&'static str, RotateFn)> {
        let mut tiers: Vec<(&'static str, RotateFn)> = vec![("portable", rotate4)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            if is_x86_feature_detected!("fma") {
                // SAFETY: fma was just detected; the tests pass
                // equal-length slices.
                tiers.push(("fma loop", |ai, aj, ui, uj, c, s| unsafe {
                    x86::pair_rotate_fma(ai, aj, ui, uj, c, s)
                }));
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: avx2 and fma were just detected; the tests pass
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
    fn triple_by_definition([x, a, y, b]: [&[f64]; 4]) -> [f64; 3] {
        [by_definition(x, a), by_definition(x, b), by_definition(y, b)]
    }

    /// Every length 0–40, and one each side of 64 and 256.
    fn reduction_lengths() -> impl Iterator<Item = usize> {
        (0..=40usize).chain(63..=65).chain(255..=257)
    }

    /// Two pairings' blocks over eight streams: the reduction of a step
    /// whose next step has two pairings, over plain streams.
    struct Pairs;

    impl Operands<2> for Pairs {
        const TABLE: [[usize; 4]; 2] = [[0, 1, 2, 3], [4, 5, 6, 7]];
    }

    /// Checks every reduction of every tier on the eight streams `c`
    /// against the definition, product by product, with `same`: `dot`, one
    /// pairing's block, and two pairings' blocks whole and off-diagonals
    /// only — the blocks also in the Gram rule's aliasing, one column in
    /// both roles — and the public `dot` and `fused_triple`.
    fn check_reductions(c: [&[f64]; 8], same: impl Fn(f64, f64) -> bool, what: &str) {
        let n = c[0].len();
        let (p, q) = ([c[0], c[1], c[2], c[3]], [c[4], c[5], c[6], c[7]]);
        let gram = ([c[0], c[0], c[2], c[2]], [c[4], c[4], c[6], c[6]]);
        let check = |got: &[f64], want: &[f64], which: &str| {
            for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
                assert!(same(g, w), "{which} product {k}, {what}, n={n}: {g:e} vs {w:e}");
            }
        };
        check(&[dot(c[0], c[1])], &[by_definition(c[0], c[1])], "dispatch dot");
        let (pp, pq, qq) = fused_triple(p[0], p[1], p[2], p[3]);
        check(&[pp, pq, qq], &triple_by_definition(p), "dispatch fused_triple");
        for &tier in lane_tiers() {
            let [[_, d, _]] = dots::<2, 1, true, Dot>(tier, [c[0], c[1]]);
            check(&[d], &[by_definition(c[0], c[1])], &format!("{tier:?} dot"));
            for (p, q) in [(p, q), gram] {
                let [block] = dots::<4, 1, false, Triple>(tier, p);
                check(&block, &triple_by_definition(p), &format!("{tier:?} triple"));
                let streams = [p[0], p[1], p[2], p[3], q[0], q[1], q[2], q[3]];
                let want = [triple_by_definition(p), triple_by_definition(q)];
                let whole = dots::<8, 2, false, Pairs>(tier, streams);
                let off = dots::<8, 2, true, Pairs>(tier, streams);
                for ((whole, off), want) in whole.iter().zip(&off).zip(want) {
                    check(whole, &want, &format!("{tier:?} x2"));
                    check(off, &[0.0, want[1], 0.0], &format!("{tier:?} x2 off-diagonal"));
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

    /// NaN payloads are not pinned by IEEE 754, so NaN-ness is compared, and
    /// every other value to the bit.
    fn agree(got: f64, want: f64) -> bool {
        if want.is_nan() {
            got.is_nan()
        } else {
            bitwise(got, want)
        }
    }

    /// ±0, subnormals and 1e±150 beside ±1: where a fused multiply-add, a
    /// reordered sum or a rotation by the identity would show.
    const EXTREMES: [f64; 12] =
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-150, -1e-150, 1e150, -1e150, 1.0, -1.0];

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
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for n in reduction_lengths() {
            let cols = eight_columns(n, || match rng.gen_range(0..3) {
                0 => rng.gen_range(-1.0..=1.0),
                _ => EXTREMES[rng.gen_range(0..EXTREMES.len())],
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
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
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
        // every tier's two-pairing reduction — whole and off-diagonals
        // only, the Gram aliasing included — to the definition per product.
        for n in reduction_lengths() {
            for off in [0usize, 2] {
                let cols: Vec<_> = (0..8).map(|k| placed(&stream(k, n), off)).collect();
                let c: [&[f64]; 8] = std::array::from_fn(|k| &cols[k].0[cols[k].1.clone()]);
                check_reductions(c, bitwise, &format!("offset {off}"));
            }
        }
    }

    #[test]
    fn the_two_lane_angles_and_updates_are_the_scalar_ones() {
        // Every lane of `symmetric_schur_pair` and of `kept_pair` is the
        // scalar `symmetric_schur` and `apply_to_block` to the bit — NaN
        // payloads aside — on blocks whose τ is ±0, subnormal, tiny, huge,
        // ±∞ or NaN, each block in either lane beside another.
        use crate::rotation::symmetric_schur;
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -3.25,
            5e-324,
            -1e-310,
            7e-170,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let blocks: Vec<[f64; 3]> = values
            .iter()
            .flat_map(|&p| values.iter().flat_map(move |&q| values.map(|r| [p, q, r])))
            .filter(|&[_, apq, _]| apq != 0.0)
            .collect();
        let same = |g: f64, w: f64| g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan();
        for (k, &first) in blocks.iter().enumerate() {
            let second = blocks[(k * 7 + 3) % blocks.len()];
            let pair = [first, second];
            let want = pair.map(|[p, q, r]| symmetric_schur(p, q, r));
            let got = symmetric_schur_pair(pair.map(|[p, q, r]| (p, q, r)));
            for l in 0..2 {
                let what = format!("{:?} in lane {l}", pair[l]);
                assert!(same(got[l].c, want[l].c) && same(got[l].s, want[l].s), "{what}");
                let [app, apq, aqq] = pair[l];
                let (pp, _, qq) = apply_to_block(want[l], app, apq, aqq);
                let kept = kept_pair(pair, want)[l];
                assert!(same(kept[0], pp) && same(kept[1], qq), "{what}: kept");
            }
        }
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn x2_rejects_a_pairing_of_mismatched_streams_with_dots_message() {
        let (short, long) = (stream(0, 8), stream(1, 9));
        let streams = [&short[..], &short, &short, &short, &short, &short, &long, &long];
        dots::<8, 2, false, Pairs>(lane_tier(), streams);
    }

    #[test]
    fn the_exact_tier_name_is_one_of_the_tiers() {
        // `lane_tiers` lists what the tier tests run; the tier every public
        // kernel dispatches to is its widest.
        assert_eq!(Some(&lane_tier()), lane_tiers().last());
    }

    #[cfg(feature = "tier-override")]
    #[test]
    fn with_tier_dispatches_every_kernel_to_the_tier_until_it_returns() {
        let widest = lane_tier();
        for tier in host_tiers() {
            assert_eq!(with_tier(tier, lane_tier), tier.0);
            assert_eq!(lane_tier(), widest);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_reduction_tier_asks_for_fma() {
        // Every multiply-add of a reduction and of a rotation is fused, so a
        // vector tier runs only where cpuid reports FMA (AVX-512F includes
        // it); an AVX2 host without it runs every kernel portable.
        use std::arch::is_x86_feature_detected;
        let avx512 = is_x86_feature_detected!("avx512f");
        let avx2 = is_x86_feature_detected!("avx2");
        let fma = is_x86_feature_detected!("fma");
        assert_eq!(lane_tier() != LaneTier::Portable, avx512 || (avx2 && fma));
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn fused_triple_rejects_mismatched_lengths_with_dots_message() {
        // A pairing of columns of different heights fails with `dot`'s own
        // message, whichever kernel computes it.
        let (short, long) = (stream(0, 8), stream(1, 9));
        fused_triple(&short, &short, &long, &long);
    }

    // --- The walk: its schedule, and each tier's pass against the definition

    /// A column of [`Record`]: its side (0 for a walk's one block or its
    /// left one, 1 for the right one) and its index there.
    type At = (usize, usize);

    /// What a walk's schedule does, step by step, with the transition each
    /// step names: the pairings it rotates (`rotated`, a step's one or two;
    /// a close's one) and the blocks it reduces (`reduced`), in order.
    #[derive(Debug, Default)]
    struct Record {
        hand: Vec<[At; 2]>,
        rotated: Vec<Vec<[At; 2]>>,
        reduced: Vec<[At; 2]>,
        opens: usize,
        closes: usize,
        transitions: std::collections::BTreeSet<&'static str>,
    }

    impl Steps for Record {
        type Col = At;
        type Side = At;

        fn col((side, first): At, k: usize) -> At {
            (side, first + k)
        }

        fn last(&self) -> Option<[At; 2]> {
            assert!(self.hand.len() <= 1, "a rectangle ends on two pairings in hand");
            self.hand.first().copied()
        }

        fn open(&mut self, first: [At; 2]) {
            assert!(self.hand.is_empty(), "an open with a pairing in hand");
            (self.opens, self.hand) = (self.opens + 1, vec![first]);
            self.reduced.push(first);
        }

        fn step<const R: usize, const N: usize, T: Transition<N>>(&mut self, fresh: [At; 2]) {
            let name = std::any::type_name::<T>().rsplit("::").next().expect("a name");
            assert_eq!(self.hand.len(), R, "{name} rotates {R} pairings");
            let now = std::mem::take(&mut self.hand);
            let pick = |c: Col| match c {
                Col::I0 => now[0][0],
                Col::J0 => now[0][1],
                Col::I1 => now[R - 1][0],
                Col::J1 => now[R - 1][1],
                Col::F0 => fresh[0],
                Col::F1 => fresh[1],
            };
            for [i, j] in T::NEXT {
                for c in [i, j].into_iter().filter(|c| matches!(c, Col::F0 | Col::F1)) {
                    // The safety of the pass: a column it reads as it is is
                    // none of those it rotates.
                    assert!(!now.iter().flatten().any(|&r| r == pick(c)), "{name} reads {c:?}");
                }
                self.hand.push([pick(i), pick(j)]);
            }
            self.reduced.extend(&self.hand);
            self.rotated.push(now);
            self.transitions.insert(name);
        }

        fn close(&mut self) {
            assert_eq!(self.hand.len(), 1, "a close with other than one pairing in hand");
            self.closes += 1;
            self.rotated.push(std::mem::take(&mut self.hand));
        }
    }

    /// The record of one walk over `rects` — of one block's own columns,
    /// or of a left block's with a right one's — as [`walk_on`] takes
    /// them, finished as [`Walk::finish`] finishes it.
    fn record(one_block: bool, rects: &[Rect]) -> Record {
        let mut rec = Record::default();
        for (l, r) in rects.iter().filter(|(l, r)| !l.is_empty() && !r.is_empty()) {
            let right = (usize::from(!one_block), r.start);
            walk_rect(&mut rec, ((0, l.start), l.len()), (right, r.len()));
        }
        if !rec.hand.is_empty() {
            rec.close();
        }
        rec
    }

    /// The rectangles of a sweep's pairings of one block of `b` columns, in
    /// eight-column tiles: for each tile, its rectangles against the tiles
    /// before it, then its triangle two rows at a time — the pairing of the
    /// two, then their two-row rectangle with the columns after them.
    fn within_tiles(b: usize) -> Vec<Rect> {
        let mut rects = Vec::new();
        for t0 in (0..b).step_by(8) {
            let end = (t0 + 8).min(b);
            rects.extend((0..t0).step_by(8).map(|s0| (s0..s0 + 8, t0..end)));
            for i in (t0..end).step_by(2) {
                let below = (i + 2).min(end);
                rects.extend([(i..i + 1, i + 1..below), (i..below, below..end)]);
            }
        }
        rects
    }

    /// The rectangles of `nl` left columns with `nr` right ones in
    /// eight-column tiles: for each right tile, the left tiles in order.
    fn across_tiles(nl: usize, nr: usize) -> Vec<Rect> {
        let tile = |t0: usize, n: usize| t0..(t0 + 8).min(n);
        (0..nr)
            .step_by(8)
            .flat_map(|t0| (0..nl).step_by(8).map(move |s0| (tile(s0, nl), tile(t0, nr))))
            .collect()
    }

    /// Holds a record to the walk's laws over the pairings `want`, listed
    /// in row-major order: every pairing rotated exactly once, each after
    /// its block was reduced; each column's pairings in `want`'s order; a
    /// step's pairings on four different columns; and one open and one
    /// close for the whole walk.
    fn check_laws(rec: &Record, want: &[[At; 2]], what: &str) {
        let order: Vec<[At; 2]> = rec.rotated.iter().flatten().copied().collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let mut all = want.to_vec();
        all.sort_unstable();
        assert_eq!(sorted, all, "{what}: not every pairing exactly once");
        assert_eq!(rec.reduced, order, "{what}: a pairing rotated other than as reduced");
        let columns: std::collections::BTreeSet<At> = want.iter().flatten().copied().collect();
        for c in columns {
            let meets = |pairs: &[[At; 2]]| {
                pairs.iter().filter(|p| p.contains(&c)).copied().collect::<Vec<_>>()
            };
            assert_eq!(meets(&order), meets(want), "{what}: column {c:?} out of row-major order");
        }
        for step in &rec.rotated {
            if let [[i0, j0], [i1, j1]] = step[..] {
                assert!(i0 != i1 && j0 != j1 && i0 != j1 && j0 != i1, "{what}: {step:?}");
            }
        }
        let one = usize::from(!want.is_empty());
        assert_eq!((rec.opens, rec.closes), (one, one), "{what}: opens and closes");
    }

    #[test]
    fn the_walk_keeps_every_columns_pairings_in_row_major_order() {
        // The law that makes the walk bitwise the row-major sweep, checked
        // on the schedule itself: every rectangle of 1..=8 × 1..=8 columns,
        // the tiled triangle of every block of 1..=17 columns, two rows at a
        // time, and tiled rectangles up to 17 × 17, where the walk carries
        // on from one rectangle into the next (`Fresh`, `Down`, `Along`) —
        // each as one walk that opens and closes once.
        let abreast = |rec: &Record| rec.rotated.iter().filter(|s| s.len() == 2).count();
        // The odd rows' pairings go one step behind the even rows';
        // wherever both have one, the two go abreast.
        let wavefront = |(l, r): &Rect| {
            let (nl, nr) = (l.len(), r.len());
            let (even, odd) = (nl.div_ceil(2) * nr, nl / 2 * nr);
            if nr >= 2 {
                odd.min(even.saturating_sub(1))
            } else {
                0
            }
        };
        for (nl, nr) in (1..=8usize).flat_map(|nl| (1..=8usize).map(move |nr| (nl, nr))) {
            let want: Vec<[At; 2]> =
                (0..nl).flat_map(|i| (0..nr).map(move |j| [(0, i), (1, j)])).collect();
            let rec = record(false, &[(0..nl, 0..nr)]);
            check_laws(&rec, &want, &format!("{nl}x{nr}"));
            assert_eq!(abreast(&rec), wavefront(&(0..nl, 0..nr)), "{nl}x{nr}");
        }
        for b in 1..=17usize {
            let want: Vec<[At; 2]> =
                (0..b).flat_map(|i| (i + 1..b).map(move |j| [(0, i), (0, j)])).collect();
            let rects = within_tiles(b);
            let rec = record(true, &rects);
            check_laws(&rec, &want, &format!("triangle {b}"));
            // Rows `i` and `i + 1` of a tile's triangle go as a wavefront
            // too, `(i, j)` abreast of `(i + 1, j − 1)`.
            let wanted: usize = rects.iter().map(wavefront).sum();
            assert_eq!(abreast(&rec), wanted, "triangle {b}");
        }
        // An eight-column tile's 28 pairings take 10 one-pairing steps —
        // 28 when the walk took the triangle a row at a time.
        let singles =
            record(true, &within_tiles(8)).rotated.iter().filter(|s| s.len() == 1).count();
        assert_eq!(singles, 10);
        for (nl, nr) in
            [1usize, 7, 9, 16, 17].iter().flat_map(|&nl| [1usize, 2, 9, 17].map(|nr| (nl, nr)))
        {
            let want: Vec<[At; 2]> =
                (0..nl).flat_map(|i| (0..nr).map(move |j| [(0, i), (1, j)])).collect();
            check_laws(&record(false, &across_tiles(nl, nr)), &want, &format!("tiled {nl}x{nr}"));
        }
    }

    /// The rectangles of [`check_walks`]'s two walks: of a block of six
    /// columns alone, and of it with a block of four. Between them they
    /// take every transition and a break, where the next rectangle's first
    /// pairing shares the last one's columns crosswise or is it.
    fn tier_walks() -> [(bool, Vec<Rect>); 2] {
        let within = vec![
            (0..1, 1..6),
            (1..2, 2..6),
            (2..4, 4..6),
            (0..3, 3..6),
            (4..5, 5..6),
            (0..1, 1..2),
            (1..2, 2..3),
            (3..5, 0..1),
        ];
        let across = vec![
            (0..6, 0..4),
            (0..5, 0..2),
            (4..5, 1..4),
            (0..3, 3..4),
            (2..6, 0..1),
            (5..6, 0..3),
            (0..4, 1..3),
        ];
        [(true, within), (false, across)]
    }

    #[test]
    fn the_tier_walks_take_every_transition() {
        let mut seen = std::collections::BTreeSet::new();
        let mut breaks = 0;
        for (one_block, rects) in tier_walks() {
            let rec = record(one_block, &rects);
            seen.extend(rec.transitions);
            breaks += rec.opens - 1;
        }
        let every = [
            "Fresh", "Down", "Along", "AlongTwo", "Open", "OpenTwo", "InRow", "Wrap", "WrapTwo",
            "Last",
        ];
        assert_eq!(seen, every.into_iter().collect(), "transitions");
        assert!(breaks >= 2, "breaks {breaks}");
    }

    /// The pairing rule the walk tests pair by: a rotation from the block by
    /// [`symmetric_schur`], skipped where `apq` is 0.0 or — for about one
    /// pairing in five — where its bits say so, and every block it is shown
    /// booked, with its choice.
    ///
    /// [`symmetric_schur`]: crate::rotation::symmetric_schur
    #[derive(Default)]
    struct Shown<const GRAM: bool>(Vec<[u64; 4]>);

    impl<const GRAM: bool> Pairing for Shown<GRAM> {
        const GRAM: bool = GRAM;

        fn angle(&mut self, (app, apq, aqq): (f64, f64, f64)) -> Option<JacobiRotation> {
            let skip = apq == 0.0 || apq.is_finite() && apq.to_bits() % 5 == 0;
            let rot = (!skip).then(|| crate::rotation::symmetric_schur(app, apq, aqq));
            // NaN payloads are not pinned: every NaN books as one.
            let bits = |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
            self.0.push([bits(app), bits(apq), bits(aqq), u64::from(skip)]);
            rot
        }
    }

    /// A column of a block, `(a, u)`.
    type Written = (Vec<f64>, Vec<f64>);

    /// Column `k` of `block`, as the definition pairs it.
    fn written(block: &ColumnBlock, k: usize) -> Written {
        (block.a_col(k).to_vec(), block.u_col(k).to_vec())
    }

    /// The walk over `rects` written plainly: every column's diagonal by
    /// [`by_definition`] first, then each rectangle's pairings in row-major
    /// order, each off-diagonal by [`by_definition`] beside the two
    /// diagonals, turned by [`pair_rotate`] as `pairing` decides, the
    /// diagonals kept by the 2×2 similarity update.
    fn walk_by_definition<P: Pairing>(
        pairing: &mut P,
        cols: &mut [Vec<Written>; 2],
        one_block: bool,
        rects: &[Rect],
    ) {
        let right = usize::from(!one_block);
        let diagonal = |(a, u): &Written| by_definition(if P::GRAM { a } else { u }, a);
        let mut diag = cols.clone().map(|cols| cols.iter().map(diagonal).collect::<Vec<_>>());
        for (l, r) in rects {
            for (i, j) in l.clone().flat_map(|i| r.clone().map(move |j| (i, j))) {
                let (mut ci, mut cj) = (cols[0][i].clone(), cols[right][j].clone());
                let x = if P::GRAM { &ci.0 } else { &ci.1 };
                let block = (diag[0][i], by_definition(x, &cj.0), diag[right][j]);
                if let Some(rot) = pairing.angle(block) {
                    pair_rotate(&mut ci.0, &mut cj.0, &mut ci.1, &mut cj.1, rot.c, rot.s);
                    let (pp, _, qq) = apply_to_block(rot, block.0, block.1, block.2);
                    (diag[0][i], diag[right][j]) = (pp, qq);
                }
                (cols[0][i], cols[right][j]) = (ci, cj);
            }
        }
    }

    /// Holds both [`tier_walks`] on every tier to [`walk_by_definition`] —
    /// columns and the blocks the rule is shown, the cache's diagonals in
    /// them, with `same` — under both rules, on the columns `draw(rows)`
    /// makes at each length `ns` gives: square, and for the Gram rule also
    /// with `A` columns longer than `U` ones.
    fn check_walks(
        ns: &[usize],
        mut draw: impl FnMut(usize) -> Vec<f64>,
        same: impl Fn(f64, f64) -> bool,
    ) {
        for &n in ns {
            for (gram, na, nu) in [(false, n, n), (true, n, n), (true, n + 9, n), (true, n + 1, n)]
            {
                let mut column = || (draw(na), draw(nu));
                let six: Vec<_> = (0..6).map(|_| column()).collect();
                let four: Vec<_> = (0..4).map(|_| column()).collect();
                for (one_block, rects) in tier_walks() {
                    for &tier in lane_tiers() {
                        let case = format!("{tier:?} gram={gram} {na}x{nu} one_block={one_block}");
                        let [mut left, mut right] =
                            [&six, &four].map(|c| ColumnBlock::from_columns(c, (na, nu)));
                        let mut want = [&left, &right]
                            .map(|b| (0..b.len()).map(|k| written(b, k)).collect::<Vec<_>>());
                        let (got_shown, want_shown) = if gram {
                            walk_both::<true>(
                                tier,
                                [&mut left, &mut right],
                                &mut want,
                                one_block,
                                &rects,
                            )
                        } else {
                            walk_both::<false>(
                                tier,
                                [&mut left, &mut right],
                                &mut want,
                                one_block,
                                &rects,
                            )
                        };
                        let flat = |cols: &[Written]| {
                            cols.iter()
                                .flat_map(|(a, u)| a.iter().chain(u).copied())
                                .collect::<Vec<_>>()
                        };
                        for (block, want) in [&left, &right].into_iter().zip(&want) {
                            let got: Vec<Written> =
                                (0..block.len()).map(|k| written(block, k)).collect();
                            let (g, w) = (flat(&got), flat(want));
                            assert!(
                                g.len() == w.len() && g.iter().zip(&w).all(|(&g, &w)| same(g, w)),
                                "{case}: columns"
                            );
                        }
                        // The blocks shown, as multisets: the walk shows
                        // them in its order, the definition row-major.
                        let sorted = |mut shown: Vec<[u64; 4]>| {
                            shown.sort_unstable();
                            shown
                        };
                        let (g, w) = (sorted(got_shown), sorted(want_shown));
                        assert_eq!(g.len(), w.len(), "{case}: pairings");
                        for (g, w) in g.iter().zip(&w) {
                            let ok =
                                (0..3).all(|p| same(f64::from_bits(g[p]), f64::from_bits(w[p])));
                            assert!(ok && g[3] == w[3], "{case}: blocks {g:?} vs {w:?}");
                        }
                    }
                }
            }
        }
    }

    /// One walk over `rects` on `tier` — of `blocks[0]` alone, or of it
    /// with `blocks[1]` — and the same by the definition on `want`: the
    /// blocks each showed the rule.
    fn walk_both<const GRAM: bool>(
        tier: LaneTier,
        [left, right]: [&mut ColumnBlock; 2],
        want: &mut [Vec<Written>; 2],
        one_block: bool,
        rects: &[Rect],
    ) -> (Vec<[u64; 4]>, Vec<[u64; 4]>) {
        let mut walk = Walk::new(Shown::<GRAM>::default());
        let cols = if one_block {
            let [cols] = walk.cached(tier, [Columns::of(left)]);
            [cols, cols]
        } else {
            walk.cached(tier, [Columns::of(left), Columns::of(right)])
        };
        walk.walk(tier, cols, one_block, rects.iter().cloned());
        walk.close(tier);
        let mut shown = Shown::<GRAM>::default();
        walk_by_definition(&mut shown, want, one_block, rects);
        (walk.pairing.0, shown.0)
    }

    #[test]
    fn every_tier_of_the_step_pass_is_pair_rotate_then_the_definition() {
        // Lengths 0–40, 63–65 and 255–257: every tail of the rotation's
        // and the reduction's chunks, and a Gram excess of 1 and 9 past
        // them.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(46);
        let draw = |n: usize| (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        check_walks(&reduction_lengths().collect::<Vec<_>>(), draw, bitwise);
    }

    #[test]
    fn every_tier_of_the_step_pass_keeps_signed_zeros_subnormals_and_extremes() {
        // A skipped pairing feeds its columns as they are: rotated by the
        // identity, `0·x + 1·(−0)` would read +0.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let draw = |n: usize| {
            (0..n)
                .map(|_| match rng.gen_range(0..3) {
                    0 => rng.gen_range(-1.0..=1.0),
                    _ => EXTREMES[rng.gen_range(0..EXTREMES.len())],
                })
                .collect()
        };
        check_walks(&(0..=17).chain([63, 64, 65]).collect::<Vec<_>>(), draw, bitwise);
    }

    #[test]
    fn every_tier_of_the_step_pass_agrees_on_non_finite_input() {
        // ±∞ and NaN in the body and the tail of every column: a skipped
        // pairing rotated by the identity would turn `0·∞` into NaN.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(48);
        let draw = |n: usize| {
            let mut col: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            for at in [0, n / 2, n.saturating_sub(1)].into_iter().filter(|_| n > 0) {
                col[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
            }
            col
        };
        check_walks(&[1, 8, 9, 33, 256, 259], draw, agree);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn a_step_rejects_a_next_pairing_of_mismatched_streams_with_dots_message() {
        // A walk across blocks of different heights would pair columns of
        // two lengths: it fails with `dot`'s own message before a step.
        let block = |n: usize| ColumnBlock::from_columns(&[(stream(0, n), stream(1, n))], (n, n));
        let (mut short, mut long) = (block(15), block(16));
        let mut walk = Walk::new(Shown::<false>::default());
        walk.across(&mut short, &mut long, [(0..1, 0..1)]);
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
                for &tier in lane_tiers() {
                    let [[_, d, _]] = dots::<2, 1, true, Dot>(tier, [col[0], col[1]]);
                    let [[pp, pq, qq]] = dots::<4, 1, false, Triple>(tier, col);
                    got.push(bits(&[d, pp, pq, qq]));
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
    /// portable one: the public dispatch, and the FMA-compiled scalar loop
    /// and the AVX2 form called directly once cpuid reports them.
    fn top_pivot_tiers() -> Vec<(&'static str, TopPivotFn)> {
        let mut tiers: Vec<(&'static str, TopPivotFn)> = vec![("dispatch", rotate_top_pivot)];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            if is_x86_feature_detected!("fma") {
                // SAFETY: fma was just detected; the test passes whole
                // columns and `p < m`.
                tiers.push(("fma loop", |cols, m, p, chain| unsafe {
                    x86::rotate_top_pivot_fma(cols, cols.len() / m, m, p, chain)
                }));
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: avx2 and fma were just detected; the test passes
                // whole columns and `p < m`.
                tiers.push(("avx2", |cols, m, p, chain| unsafe {
                    x86::rotate_top_pivot_avx2(cols, cols.len() / m, m, p, chain)
                }));
            }
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
                    col[q] = s.mul_add(x, c * y);
                    x = c.mul_add(x, -(s * y));
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

    /// The rotation as the module defines it, written out: a multiply, then
    /// a fused multiply-add, per entry.
    fn turn_by_definition(x: f64, y: f64, c: f64, s: f64) -> (f64, f64) {
        (c.mul_add(x, -(s * y)), s.mul_add(x, c * y))
    }

    #[test]
    fn every_rotator_tier_and_the_top_pivot_sequence_are_the_written_out_rotation() {
        // Lengths 0–40, 63–65 and 255–257 — every tail of every lane width —
        // with ±0, subnormals, 1e±150, ±∞ and NaN beside ordinary entries,
        // where an unfused turn, a swapped operand or a rotation by the
        // identity would show. Every rotator tier, each public rotator, and
        // every form of the top-pivot sequence, against the definition.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(49);
        let mut draw = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| match rng.gen_range(0..8) {
                    0..=2 => rng.gen_range(-1.0..=1.0),
                    3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)],
                    _ => EXTREMES[rng.gen_range(0..EXTREMES.len())],
                })
                .collect()
        };
        let same = |got: &[f64], want: &[f64]| {
            got.len() == want.len() && got.iter().zip(want).all(|(&g, &w)| agree(g, w))
        };
        let turns = [(0.6f64.cos(), 0.6f64.sin()), (0.0, 1.0), (-0.8, -0.6), (1.0, 0.0)];
        for n in reduction_lengths() {
            let cols: [Vec<f64>; 4] = std::array::from_fn(|_| draw(n));
            for (c, s) in turns {
                let mut want = cols.clone();
                for pair in want.chunks_exact_mut(2) {
                    let [x, y] = pair else { unreachable!() };
                    for (x, y) in x.iter_mut().zip(y) {
                        (*x, *y) = turn_by_definition(*x, *y, c, s);
                    }
                }
                let mut rotators = rotate_tiers();
                rotators.push(("pair_rotate", pair_rotate));
                rotators.push(("pair_rotate_lanes", pair_rotate_lanes));
                rotators.push(("rotate_pair twice", |ai, aj, ui, uj, c, s| {
                    rotate_pair(ai, aj, c, s);
                    rotate_pair(ui, uj, c, s);
                }));
                for (name, rotate) in rotators {
                    let mut got = cols.clone();
                    let [ai, aj, ui, uj] = &mut got;
                    rotate(ai, aj, ui, uj, c, s);
                    let ok = got.iter().zip(&want).all(|(g, w)| same(g, w));
                    assert!(ok, "{name} n={n} c={c} s={s}");
                }
                for &tier in lane_tiers() {
                    let mut got = cols.clone();
                    let [ai, aj, ui, uj] = &mut got;
                    pair_rotate_on(tier, ai, aj, ui, uj, c, s);
                    let ok = got.iter().zip(&want).all(|(g, w)| same(g, w));
                    assert!(ok, "pair_rotate_on {tier:?} n={n} c={c} s={s}");
                }
            }
            // The top-pivot sequence on `m = n`: a chain over every row but
            // the pivot, each turn its own angle, on one to nine columns.
            if n == 0 {
                continue;
            }
            let p = n / 2;
            let chain: Vec<(usize, f64, f64)> = (0..n)
                .filter(|&q| q != p)
                .map(|q| {
                    let theta = (q as f64 * 0.71).sin() * 3.0;
                    (q, theta.cos(), theta.sin())
                })
                .chain([(n - 1, 0.0, 1.0), (0, 1.0, 0.0)].into_iter().filter(|t| t.0 != p))
                .collect();
            for ncols in [1usize, 2, 3, 4, 5, 8, 9] {
                let block: Vec<f64> = (0..ncols).flat_map(|_| draw(n)).collect();
                let mut want = block.clone();
                for col in want.chunks_exact_mut(n) {
                    let mut x = col[p];
                    for &(q, c, s) in &chain {
                        (x, col[q]) = turn_by_definition(x, col[q], c, s);
                    }
                    col[p] = x;
                }
                let mut portable = block.clone();
                rotate_top_pivot_portable(&mut portable, ncols, n, p, &chain);
                assert!(same(&portable, &want), "top pivot portable m={n} columns={ncols}");
                for (name, tier) in top_pivot_tiers() {
                    let mut got = block.clone();
                    tier(&mut got, n, p, &chain);
                    assert!(same(&got, &want), "top pivot {name} m={n} columns={ncols}");
                }
            }
        }
    }

    #[test]
    fn the_pivot_rows_are_one_top_pivot_turn_of_each_column() {
        // Rows `p` and `q` of two columns, every other row untouched: the
        // public call, the portable form and the FMA-compiled one where
        // cpuid reports it, against the written-out rotation and against
        // one `rotate_top_pivot` turn per column — ±0, subnormals, 1e±150
        // and non-finite entries among them.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        type PivotRowsFn = fn(&mut [f64], &mut [f64], (usize, usize), f64, f64);
        let mut forms: Vec<(&str, PivotRowsFn)> =
            vec![("dispatch", rotate_pivot_rows), ("portable", pivot_rows_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: fma was just detected; the rows are in both columns.
            forms
                .push(("fma", |x, y, rows, c, s| unsafe { x86::pivot_rows_fma(x, y, rows, c, s) }));
        }
        for m in [2usize, 5, 33] {
            for (p, q) in
                [(0, 1), (1, 0), (0, m - 1), (m / 2, m - 1)].into_iter().filter(|(p, q)| p != q)
            {
                let mut draw = || -> Vec<f64> {
                    (0..m)
                        .map(|_| match rng.gen_range(0..6) {
                            0..=2 => rng.gen_range(-1.0..=1.0),
                            3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                                [rng.gen_range(0..3usize)],
                            _ => EXTREMES[rng.gen_range(0..EXTREMES.len())],
                        })
                        .collect()
                };
                let (x, y) = (draw(), draw());
                let (c, s) = (0.7f64.cos(), 0.7f64.sin());
                let mut want = [x.clone(), y.clone()];
                for col in &mut want {
                    (col[p], col[q]) = turn_by_definition(col[p], col[q], c, s);
                }
                let mut chained = [x.clone(), y.clone()];
                for col in &mut chained {
                    rotate_top_pivot(col, m, p, &[(q, c, s)]);
                }
                let bits = |cols: &[Vec<f64>; 2]| {
                    cols.iter()
                        .flatten()
                        .map(|v| if v.is_nan() { 1 } else { v.to_bits() })
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&chained), bits(&want), "top pivot m={m} p={p} q={q}");
                for (name, form) in &forms {
                    let mut got = [x.clone(), y.clone()];
                    let [gx, gy] = &mut got;
                    form(gx, gy, (p, q), c, s);
                    assert_eq!(bits(&got), bits(&want), "{name} m={m} p={p} q={q}");
                }
            }
        }
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
