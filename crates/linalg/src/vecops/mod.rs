//! BLAS-1 style kernels used by the one-sided Jacobi inner loop.
//!
//! These are the only operations on the solver's hot path: the inner
//! product and the plane rotation, each with one definition, and kernels
//! dispatched at runtime to the widest vector unit the CPU offers (AVX-512F
//! with VL, then AVX2 with FMA, then a portable loop). Every tier of a
//! kernel computes its definition's bits.
//!
//! * Each vector kernel is written once, over a group of eight `f64` lanes
//!   (`Lanes`): one `__m512d` on AVX-512, two `__m256d` on AVX2 with FMA,
//!   and `[f64; 8]` on the portable tier, which is also what an AVX2 host
//!   without FMA runs. A tier is one function, compiled with the tier's
//!   target features, that runs a kernel on its group (`Kernel`), so every
//!   operation inlines into the tier's instructions; each is the lane-wise
//!   IEEE operation, so every tier computes the kernel's bits.
//! * [`dot`] is the one inner product: eight partial sums by index mod 8,
//!   each a fused multiply-add chain that starts at 0.0 — one lane group —
//!   then the fixed tree `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, then the
//!   `n mod 8` tail folded in index order with a fused multiply-add. FMA is
//!   a correctly rounded IEEE operation, so the bits do not depend on the
//!   host. One pass may take several products, each bitwise [`dot`]: a
//!   step's off-diagonals, a walk's diagonals four columns abreast,
//!   [`fused_triple`]'s pairing block.
//! * The one plane rotation is a multiply and a fused multiply-add per
//!   entry, `x' = fma(c, x, −(s·y))` and `y' = fma(s, x, c·y)` (`turn`),
//!   the same bits on every host. [`pair_rotate`] is its loop and
//!   [`pair_rotate_lanes`] its vector form, bitwise the loop at every
//!   width. Every rotator is a kernel too, its scalar loop included, so it
//!   runs inside its tier's function: each `mul_add` is the instruction on
//!   both x86 tiers, never a library call; only the portable tier, for
//!   hosts without FMA, calls `fma`.
//! * [`Walk`] is a sweep's walk: each step rotates its one or two pairings,
//!   bitwise [`pair_rotate`], and reduces the off-diagonals of the walk's
//!   next step from the rotated columns, each product bitwise [`dot`] — a
//!   rectangle of pairings at a time, from rectangle to rectangle. The
//!   diagonals are the walk's own cache: each column's reduced exactly,
//!   bitwise `dot`, when a walk call takes its block, kept by the exact 2×2
//!   similarity update under rotation, and dropped when the walk ends. Each
//!   tier walks a call's rectangles inside its one function, the rule's
//!   angles included, and on every tier a step is one pass: each chunk of
//!   eight rows loaded, rotated and stored, the next step's multiply-adds
//!   taking the rotated lanes from the registers that stored them. Which
//!   columns the next step pairs is a `Transition`, one constant operand
//!   table per way one step of the walk follows another, named where the
//!   walk takes the step. Only a step that skips a pairing rotates, then
//!   reduces.

mod lanes;
mod rotate;
mod walk;

pub use rotate::{
    pair_rotate, pair_rotate_lanes, rotate_pair, rotate_pivot_rows, rotate_top_pivot,
};
pub use walk::{symmetric_schur_pair, Pairing, Rect, Walk};

use lanes::{on, Reduce};

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
/// with the `tier-override` feature, the one `with_tier` names.
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
    let reduce = Reduce::<T, S, N, OFF>::new(streams.map(<[f64]>::as_ptr), len);
    // SAFETY: every stream the products read holds `len` elements.
    unsafe { on(tier, reduce) }
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

#[cfg(test)]
mod tests {
    use super::lanes::*;
    use super::rotate::*;
    use super::walk::*;
    use super::*;
    use crate::block::ColumnBlock;
    use crate::rotation::{apply_to_block, JacobiRotation};

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
    // the `unsafe` forms each tier reaches. The rotators' kernels are run
    // by each tier's function by name (`tier_forms!`).

    /// Every tier this host can run — the portable one, then AVX2 and
    /// AVX-512 once cpuid reports their features (`lane_tiers`) — each a
    /// `$form` named `"<tier> $what"` that runs the kernel `$kernel` makes
    /// of its arguments in the tier's function (`on`).
    macro_rules! tier_forms {
        ($what:literal, $form:ty, |$($arg:ident),*| $kernel:expr) => {
            lane_tiers()
                .iter()
                .map(|&tier| -> (String, $form) {
                    // SAFETY: cpuid reported the tier's features; the tests
                    // pass each kernel operands it takes.
                    let form: $form = match tier {
                        #[cfg(target_arch = "x86_64")]
                        LaneTier::Avx512 => |$($arg),*| unsafe { on(LaneTier::Avx512, $kernel) },
                        #[cfg(target_arch = "x86_64")]
                        LaneTier::Avx2Fma => |$($arg),*| unsafe { on(LaneTier::Avx2Fma, $kernel) },
                        LaneTier::Portable => |$($arg),*| unsafe { on(LaneTier::Portable, $kernel) },
                    };
                    (format!("{tier:?} {}", $what), form)
                })
                .collect::<Vec<_>>()
        };
    }

    type RotateFn = fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64], f64, f64);

    /// Every tier of the rotator this host can run: each tier function on
    /// the lane rotator and on `pair_rotate`'s loops. The tests pass
    /// equal-length slices.
    fn rotate_tiers() -> Vec<(String, RotateFn)> {
        let lanes = tier_forms!("lanes", RotateFn, |ai, aj, ui, uj, c, s| {
            Rotate::new([ai, aj, ui, uj], c, s)
        });
        let loops = tier_forms!("loop", RotateFn, |ai, aj, ui, uj, c, s| {
            PairLoop([ai, aj, ui, uj], c, s)
        });
        lanes.into_iter().chain(loops).collect()
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
    /// or of a left block's with a right one's — as [`Walking`] takes
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
    /// them, with `same` — under both rules, on the columns `draw(k, rows)`
    /// makes at each length `ns` gives, `k` the column's place among the
    /// ten (the six-column block's 0–5, then the four's): square, and for
    /// the Gram rule also with `A` columns longer than `U` ones.
    fn check_walks(
        ns: &[usize],
        mut draw: impl FnMut(usize, usize) -> Vec<f64>,
        same: impl Fn(f64, f64) -> bool,
    ) {
        for &n in ns {
            for (gram, na, nu) in [(false, n, n), (true, n, n), (true, n + 9, n), (true, n + 1, n)]
            {
                let mut column = |k| (draw(k, na), draw(k, nu));
                let six: Vec<_> = (0..6).map(&mut column).collect();
                let four: Vec<_> = (6..10).map(&mut column).collect();
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
        let draw = |_, n: usize| (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        check_walks(&reduction_lengths().collect::<Vec<_>>(), draw, bitwise);
    }

    #[test]
    fn every_tier_of_the_step_pass_keeps_signed_zeros_subnormals_and_extremes() {
        // A skipped pairing feeds its columns as they are: rotated by the
        // identity, `0·x + 1·(−0)` would read +0.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let draw = |_, n: usize| {
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
        // ±∞ and NaN in the body and the tail of every column but the six
        // block's first three and the four block's first two: a skipped
        // pairing rotated by the identity would turn `0·∞` into NaN. Each
        // walk's first pairings, among the finite columns, keep finite
        // values, so a step whose products read a carried column before
        // its turn shows in their bits, not only in NaN-ness.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(48);
        let draw = |k: usize, n: usize| {
            let mut col: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let finite = [0, 1, 2, 6, 7].contains(&k);
            for at in [0, n / 2, n.saturating_sub(1)].into_iter().filter(|_| n > 0 && !finite) {
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

    /// Splits the four streams of a column-pair rotation into an equal-length
    /// common prefix (rotated fused, four streams in one loop) and at most one
    /// pair of excess tails (rotated as a plain pair). Each element's update is
    /// independent, so the split cannot change any bit relative to rotating the
    /// `A`- and `U`-pairs back to back.
    type QuadStreams<'a> = (&'a mut [f64], &'a mut [f64], &'a mut [f64], &'a mut [f64]);

    type PairStreams<'a> = (&'a mut [f64], &'a mut [f64]);

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

    /// Every form of [`rotate_top_pivot`] this host can run: the public
    /// dispatch, and each tier function on its kernel. The tests pass
    /// whole columns and `p < m`.
    fn top_pivot_tiers() -> Vec<(String, TopPivotFn)> {
        let mut tiers = vec![("dispatch".to_string(), rotate_top_pivot as TopPivotFn)];
        tiers.extend(tier_forms!("kernel", TopPivotFn, |cols, m, p, chain| {
            TopPivot { n: cols.len() / m, cols, m, p, chain }
        }));
        tiers
    }

    /// [`rotate_top_pivot`] on the portable tier: the forms' reference.
    fn top_pivot_portable(
        cols: &mut [f64],
        n: usize,
        m: usize,
        p: usize,
        chain: &[(usize, f64, f64)],
    ) {
        // SAFETY: the portable group needs no feature; the tests pass `n`
        // whole columns and `p < m`.
        unsafe { on(LaneTier::Portable, TopPivot { cols, n, m, p, chain }) }
    }

    #[test]
    fn every_tier_of_the_top_pivot_sequence_is_bitwise_the_portable_form() {
        // Chains of 0–9 and 60 turns whose pivot rows count up through the
        // rows other than `p`, from the first row and from four before the
        // last (whose first run ends at row m − 1). At turn `gap` the count
        // either skips a row for good, or takes the row two further for that
        // one turn, so that a run of consecutive pivots — the lane form's
        // tile of four rows — is broken at every offset, also where its
        // first, second and fourth rows still fit one. One to 17 columns:
        // one column, every part of a lane group of eight, one group, two,
        // and each with a part group after it. Entries ±0, subnormal and
        // 1e±150 mixed with ordinary ones, where a fused multiply-add would
        // round differently.
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
                        for ncols in 1..=17 {
                            let cols: Vec<f64> = (0..ncols * m)
                                .map(|_| match rng.gen_range(0..3) {
                                    0 => POOL[rng.gen_range(0..POOL.len())],
                                    _ => rng.gen_range(-1.0..=1.0),
                                })
                                .collect();
                            let mut want = cols.clone();
                            top_pivot_portable(&mut want, ncols, m, p, &chain);
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

    /// The top-pivot sequence's lane moves on the eight columns of `m` in
    /// `cols`, at `rows = [r, r2, r3]`: returns row `r` gathered, then the
    /// tile at `r` gathered, group by group; scatters that tile back to
    /// `r`, then `vals[..8]` to row `r2` and `vals[8..]`, group by group, as
    /// the tile at `r3`.
    struct Moves<'a> {
        cols: &'a mut [f64],
        m: usize,
        rows: [usize; 3],
        vals: [f64; 40],
    }

    impl Kernel for Moves<'_> {
        type Out = [f64; 40];

        #[inline(always)]
        unsafe fn run<G: Lanes>(self) -> [f64; 40] {
            let Moves { cols, m, rows: [r, r2, r3], vals } = self;
            let base = cols.as_mut_ptr();
            let cols: [*mut f64; 8] = std::array::from_fn(|l| base.add(l * m));
            let mut out = [0.0; 40];
            G::gather(cols, r).store(out.as_mut_ptr());
            let tile = G::gather_tile(cols, r);
            for (k, group) in tile.into_iter().enumerate() {
                group.store(out.as_mut_ptr().add(8 + 8 * k));
            }
            G::scatter_tile(tile, cols, r);
            G::load(vals.as_ptr()).scatter(cols, r2);
            let tile = std::array::from_fn(|k| G::load(vals.as_ptr().add(8 + 8 * k)));
            G::scatter_tile(tile, cols, r3);
            out
        }
    }

    #[test]
    fn every_tier_moves_the_lanes_where_the_definition_says() {
        // Eight columns of 11 rows, `m` apart: a gather is row `r` across
        // them, lane `l` column `l`; a tile is four such rows, group `k` row
        // `r + k`; a scatter and a tile's scatter put each lane back where
        // its gather took it, so a tile gathered and scattered (transposed
        // there and back) leaves the columns as they were. Every value is
        // its own bits, so a lane or a row out of place shows by name.
        type MovesFn = fn(&mut [f64], usize, [usize; 3], [f64; 40]) -> [f64; 40];
        let m = 11;
        let vals: [f64; 40] = std::array::from_fn(|i| -(i as f64) - 0.5);
        let forms =
            tier_forms!("moves", MovesFn, |cols, m, rows, vals| Moves { cols, m, rows, vals });
        for rows in [[0usize, 5, 7], [1, 0, 6], [7, 6, 0]] {
            let [r, r2, r3] = rows;
            let cols: Vec<f64> = (0..8 * m).map(|i| i as f64 + 0.25).collect();
            let mut want_out = [0.0; 40];
            let mut want = cols.clone();
            for l in 0..8 {
                want_out[l] = cols[l * m + r];
                want[l * m + r2] = vals[l];
                for k in 0..4 {
                    want_out[8 + 8 * k + l] = cols[l * m + r + k];
                    want[l * m + r3 + k] = vals[8 + 8 * k + l];
                }
            }
            for (name, form) in &forms {
                let mut got = cols.clone();
                let out = form(&mut got, m, rows, vals);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want_out), "{name} gathers at {rows:?}");
                assert_eq!(bits(&got), bits(&want), "{name} scatters at {rows:?}");
            }
        }
    }

    #[test]
    fn the_top_pivot_sequence_is_the_scalar_chain_per_column() {
        // The definition, written out on one column at a time: one column,
        // part of a lane group of eight, one group, and one or two groups
        // with a part after them. The second chain has a tile-length run of
        // pivots in the middle of the column, and a run the column's last
        // row cuts short of a tile, then carries on from row 0.
        let (m, p) = (7usize, 2usize);
        let chain = [(3usize, 0.6f64, 0.8f64), (4, 0.28, -0.96), (5, -0.8, 0.6), (6, 1.0, 0.0)];
        let chain = [&chain[..], &chain[..], &[(0, 0.352, -0.936), (1, 0.0, 1.0)]].concat();
        let turn = |q: usize| (q, (q as f64 * 0.9).cos(), (q as f64 * 0.9).sin());
        let cut: Vec<_> = [3, 4, 5, 6, 0, 6, 7, 8, 0, 1, 3].map(turn).into();
        for (m, p, chain) in [(m, p, chain), (9, 2, cut)] {
            for ncols in [1usize, 4, 5, 7, 8, 9, 16, 17] {
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
                assert_eq!(got, want, "m={m} columns={ncols}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn the_top_pivot_sequence_rejects_a_pivot_row_past_the_column() {
        // The lane group's loads are unchecked, so it asserts every pivot
        // row itself; the one-column loop's indexing panics.
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
                rotators.push(("pair_rotate".into(), pair_rotate));
                rotators.push(("pair_rotate_lanes".into(), pair_rotate_lanes));
                rotators.push(("rotate_pair twice".into(), |ai, aj, ui, uj, c, s| {
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
                top_pivot_portable(&mut portable, ncols, n, p, &chain);
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
        // public call and each tier function on its kernel, against the
        // written-out rotation and against one `rotate_top_pivot` turn per
        // column — ±0, subnormals, 1e±150 and non-finite entries among them.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        type PivotRowsFn = fn(&mut [f64], &mut [f64], (usize, usize), f64, f64);
        let mut forms = vec![("dispatch".to_string(), rotate_pivot_rows as PivotRowsFn)];
        // The rows are in both columns.
        forms.extend(tier_forms!("kernel", PivotRowsFn, |x, y, rows, c, s| {
            PivotRows([x, y], rows, c, s)
        }));
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
