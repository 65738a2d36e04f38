//! The group of eight `f64` lanes every vector kernel is written over, its
//! three implementations, each tier's one function, and the reduction
//! written once over the group.

use super::{product, reads, takes, LaneTier, Operands};

/// Eight `f64` lanes of one tier: lane `l` holds row `l` of a chunk of
/// eight, so one group holds a product's eight chains —
/// [`dot`](super::dot)'s definition — on every tier; in the top-pivot
/// sequence it holds column `l` of eight. One `__m512d` on
/// AVX-512, two `__m256d` on AVX2 with FMA, `[f64; 8]` on the portable
/// tier. Every operation is the lane-wise IEEE one, so a kernel written
/// once over the group has the same bits on each; each is always inlined,
/// into the function of the group's tier ([`Kernel`]).
///
/// # Safety
/// Every operation needs the features of `TIER`, which cpuid must have
/// reported (`LaneTier`); `load` and `store` need eight values at `p`, a
/// gather or scatter row `r` of each column, a tile rows `r..r + 4`.
pub(super) trait Lanes: Copy {
    /// The tier whose instructions the operations are.
    const TIER: LaneTier;
    /// Whether a step stores each pairing's streams as soon as it has
    /// turned them, not every stream of a chunk after all of its loads.
    /// Loading first reads faster where the registers hold a chunk's every
    /// stream: a load after a store whose address matches it in the low
    /// twelve bits waits on the store, and the columns of a 256-row block
    /// start 4 KiB apart. A two-pairing step's eight turned streams fill
    /// all 16 of AVX2's registers, so there storing early frees the ones
    /// the next step's products do not read.
    const STORE_EACH_PAIRING: bool;
    /// Every lane `x`.
    unsafe fn splat(x: f64) -> Self;
    /// The eight values from `p`.
    unsafe fn load(p: *const f64) -> Self;
    /// The eight lanes to `p`.
    unsafe fn store(self, p: *mut f64);
    /// Row `r` of eight columns, lane `l` from `cols[l]`.
    unsafe fn gather(cols: [*mut f64; 8], r: usize) -> Self;
    /// Lane `l` to row `r` of `cols[l]`.
    unsafe fn scatter(self, cols: [*mut f64; 8], r: usize);
    /// Rows `r..r + 4` of eight columns, group `k` row `r + k`: each
    /// column's four values loaded, then transposed in registers.
    unsafe fn gather_tile(cols: [*mut f64; 8], r: usize) -> [Self; 4];
    /// Group `k` to row `r + k` of the columns: the transpose back, then
    /// each column's four values stored.
    unsafe fn scatter_tile(tile: [Self; 4], cols: [*mut f64; 8], r: usize);
    /// `self · y`.
    unsafe fn mul(self, y: Self) -> Self;
    /// `self · y + z`, rounded once.
    unsafe fn fma(self, y: Self, z: Self) -> Self;
    /// `self · y − z`, rounded once.
    unsafe fn fmsub(self, y: Self, z: Self) -> Self;
    /// The lanes through the fixed tree, `((s0+s4)+(s2+s6)) +
    /// ((s1+s5)+(s3+s7))`: its adds, in its order.
    unsafe fn tree(self) -> f64;
}

/// The portable group, each fused multiply-add `f64::mul_add` — on an x86
/// host without FMA a call to the library's `fma` — in [`on_portable`],
/// the one function it runs in.
impl Lanes for [f64; 8] {
    const TIER: LaneTier = LaneTier::Portable;
    const STORE_EACH_PAIRING: bool = false;

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        [x; 8]
    }

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        p.cast::<[f64; 8]>().read_unaligned()
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        p.cast::<[f64; 8]>().write_unaligned(self);
    }

    #[inline(always)]
    unsafe fn gather(cols: [*mut f64; 8], r: usize) -> Self {
        cols.map(|col| *col.add(r))
    }

    #[inline(always)]
    unsafe fn scatter(self, cols: [*mut f64; 8], r: usize) {
        for (col, v) in cols.into_iter().zip(self) {
            *col.add(r) = v;
        }
    }

    #[inline(always)]
    unsafe fn gather_tile(cols: [*mut f64; 8], r: usize) -> [Self; 4] {
        std::array::from_fn(|k| Self::gather(cols, r + k))
    }

    #[inline(always)]
    unsafe fn scatter_tile(tile: [Self; 4], cols: [*mut f64; 8], r: usize) {
        for (k, row) in tile.into_iter().enumerate() {
            row.scatter(cols, r + k);
        }
    }

    #[inline(always)]
    unsafe fn mul(self, y: Self) -> Self {
        std::array::from_fn(|l| self[l] * y[l])
    }

    #[inline(always)]
    unsafe fn fma(self, y: Self, z: Self) -> Self {
        std::array::from_fn(|l| self[l].mul_add(y[l], z[l]))
    }

    #[inline(always)]
    unsafe fn fmsub(self, y: Self, z: Self) -> Self {
        std::array::from_fn(|l| self[l].mul_add(y[l], -z[l]))
    }

    #[inline(always)]
    unsafe fn tree(self) -> f64 {
        let [s0, s1, s2, s3, s4, s5, s6, s7] = self;
        ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7))
    }
}

/// A kernel written once over the lane group, which each tier's one
/// function runs on its own group ([`on`]).
pub(super) trait Kernel {
    type Out;

    /// Runs the kernel on `G`. Always inlined, into the tier's function.
    ///
    /// # Safety
    /// `G`'s (see [`Lanes`]), and the kernel's own.
    unsafe fn run<G: Lanes>(self) -> Self::Out;
}

/// Runs `k` on `tier`, inside the tier's function.
///
/// # Safety
/// The kernel's own: the tier's features are cpuid's (`LaneTier`).
#[inline]
pub(super) unsafe fn on<K: Kernel>(tier: LaneTier, k: K) -> K::Out {
    match tier {
        #[cfg(target_arch = "x86_64")]
        LaneTier::Avx512 => x86::on_avx512(k),
        #[cfg(target_arch = "x86_64")]
        LaneTier::Avx2Fma => x86::on_avx2(k),
        LaneTier::Portable => on_portable(k),
    }
}

/// The portable tier's function: `k` on `[f64; 8]`, a function of its own,
/// so no caller inlines its library calls.
///
/// # Safety
/// As [`Kernel::run`].
#[inline(never)]
unsafe fn on_portable<K: Kernel>(k: K) -> K::Out {
    k.run::<[f64; 8]>()
}

/// A reduction: `T`'s blocks over `S` streams, each stream a product reads
/// `len` long, every product bitwise [`dot`](super::dot) — or, where
/// `OFF`, the off-diagonals alone, the others reading 0.0. Each product's
/// chains are one group, continued a chunk of eight rows at a time, then
/// the tree and the tail. [`dots`](super::dots) runs it as a kernel; a
/// walk's steps call its parts inside their tier's function.
pub(super) struct Reduce<T, const S: usize, const N: usize, const OFF: bool> {
    streams: [*const f64; S],
    len: usize,
    table: std::marker::PhantomData<T>,
}

impl<T: Operands<N>, const S: usize, const N: usize, const OFF: bool> Kernel
    for Reduce<T, S, N, OFF>
{
    type Out = [[f64; 3]; N];

    #[inline(always)]
    unsafe fn run<G: Lanes>(self) -> [[f64; 3]; N] {
        let body = self.len / 8 * 8;
        let mut acc = [[G::splat(0.0); 3]; N];
        Self::chunks::<G>(&mut acc, self.streams, 0..body);
        Self::sums::<G>(acc, self.streams, body, self.len)
    }
}

impl<T: Operands<N>, const S: usize, const N: usize, const OFF: bool> Reduce<T, S, N, OFF> {
    /// The reduction over `streams`, each stream a product reads `len` long.
    #[inline(always)]
    pub(super) fn new(streams: [*const f64; S], len: usize) -> Self {
        Reduce { streams, len, table: std::marker::PhantomData }
    }

    /// The products' chains in `acc`, continued over the chunks starting in
    /// `rows`, read from memory.
    ///
    /// # Safety
    /// `G`'s; every stream a product reads holds the chunks.
    #[inline(always)]
    pub(super) unsafe fn chunks<G: Lanes>(
        acc: &mut [[G; 3]; N],
        streams: [*const f64; S],
        rows: std::ops::Range<usize>,
    ) {
        for i in rows.step_by(8) {
            let mut v = [G::splat(0.0); S];
            for s in 0..S {
                if reads::<N, OFF, T>(s) {
                    v[s] = G::load(streams[s].add(i));
                }
            }
            Self::products(acc, &v);
        }
    }

    /// One chunk of every product: `acc ← v[x]·v[y] + acc`, fused.
    ///
    /// # Safety
    /// `G`'s.
    #[inline(always)]
    pub(super) unsafe fn products<G: Lanes>(acc: &mut [[G; 3]; N], v: &[G; S]) {
        for n in 0..N {
            for p in 0..3 {
                if takes(OFF, p) {
                    let [x, y] = product(T::TABLE[n], p);
                    acc[n][p] = v[x].fma(v[y], acc[n][p]);
                }
            }
        }
    }

    /// The end of every reduction: each product's chains through the tree,
    /// then its tail from `body` to `len`, folded in index order with a
    /// fused multiply-add.
    ///
    /// # Safety
    /// `G`'s; every stream a product reads holds `len` values.
    #[inline(always)]
    pub(super) unsafe fn sums<G: Lanes>(
        acc: [[G; 3]; N],
        streams: [*const f64; S],
        body: usize,
        len: usize,
    ) -> [[f64; 3]; N] {
        let mut out = [[0.0f64; 3]; N];
        for n in 0..N {
            for p in 0..3 {
                if takes(OFF, p) {
                    let [x, y] = product(T::TABLE[n], p);
                    let mut sum = acc[n][p].tree();
                    for i in body..len {
                        sum = (*streams[x].add(i)).mul_add(*streams[y].add(i), sum);
                    }
                    out[n][p] = sum;
                }
            }
        }
        out
    }
}

/// [`turn`](super::rotate::turn) on eight entry pairs: `(fma(c, x,
/// −(s·y)), fma(s, x, c·y))`, lane by lane.
///
/// # Safety
/// `G`'s.
#[inline(always)]
pub(super) unsafe fn turn_lanes<G: Lanes>(x: G, y: G, c: G, s: G) -> (G, G) {
    (c.fmsub(x, s.mul(y)), s.fma(x, c.mul(y)))
}

/// The x86-64 lane groups and each x86 tier's one function, reached only
/// through [`lane_tier`](crate::vecops)'s cpuid dispatch, which is the
/// safety condition for each `unsafe fn` here.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Kernel, Lanes};
    use crate::vecops::LaneTier;
    use std::arch::x86_64::*;

    /// The AVX-512 tier's function (F and VL): `k` on one `__m512d` a
    /// group. VL lets a walk keep its accumulators in zmm16–31
    /// (`LaneTier::Avx512`). Never inlined, so a walk's reductions of its
    /// opens, refreshes and skipping steps, and its lone rotations, are
    /// calls of their own kernels, not copies in the walk's code.
    ///
    /// # Safety
    /// As [`Kernel::run`], on a host whose cpuid reported avx512f and
    /// avx512vl.
    #[inline(never)]
    #[target_feature(enable = "avx512f,avx512vl")]
    pub(super) unsafe fn on_avx512<K: Kernel>(k: K) -> K::Out {
        k.run::<__m512d>()
    }

    /// The AVX2 tier's function: `k` on two `__m256d` a group, never
    /// inlined, as [`on_avx512`].
    ///
    /// # Safety
    /// As [`Kernel::run`], on a host whose cpuid reported avx2 and fma.
    #[inline(never)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn on_avx2<K: Kernel>(k: K) -> K::Out {
        k.run::<[__m256d; 2]>()
    }

    /// The AVX-512 group: one register.
    impl Lanes for __m512d {
        const TIER: LaneTier = LaneTier::Avx512;
        const STORE_EACH_PAIRING: bool = false;

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm512_set1_pd(x)
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm512_loadu_pd(p)
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self);
        }

        #[inline(always)]
        unsafe fn gather(cols: [*mut f64; 8], r: usize) -> Self {
            let lo = _mm512_castpd256_pd512(gather_half(&cols[..4], r));
            _mm512_insertf64x4::<1>(lo, gather_half(&cols[4..], r))
        }

        #[inline(always)]
        unsafe fn scatter(self, cols: [*mut f64; 8], r: usize) {
            scatter_half(_mm512_castpd512_pd256(self), &cols[..4], r);
            scatter_half(_mm512_extractf64x4_pd::<1>(self), &cols[4..], r);
        }

        /// Column `k`'s four values in the low half of register `k`, column
        /// `k + 4`'s in its high half, then [`transpose_halves`].
        #[inline(always)]
        unsafe fn gather_tile(cols: [*mut f64; 8], r: usize) -> [Self; 4] {
            let mut v = [_mm512_setzero_pd(); 4];
            for (k, v) in v.iter_mut().enumerate() {
                let lo = _mm512_castpd256_pd512(_mm256_loadu_pd(cols[k].add(r)));
                *v = _mm512_insertf64x4::<1>(lo, _mm256_loadu_pd(cols[k + 4].add(r)));
            }
            transpose_halves(v)
        }

        #[inline(always)]
        unsafe fn scatter_tile(tile: [Self; 4], cols: [*mut f64; 8], r: usize) {
            for (k, v) in transpose_halves(tile).into_iter().enumerate() {
                _mm256_storeu_pd(cols[k].add(r), _mm512_castpd512_pd256(v));
                _mm256_storeu_pd(cols[k + 4].add(r), _mm512_extractf64x4_pd::<1>(v));
            }
        }

        #[inline(always)]
        unsafe fn mul(self, y: Self) -> Self {
            _mm512_mul_pd(self, y)
        }

        #[inline(always)]
        unsafe fn fma(self, y: Self, z: Self) -> Self {
            _mm512_fmadd_pd(self, y, z)
        }

        #[inline(always)]
        unsafe fn fmsub(self, y: Self, z: Self) -> Self {
            _mm512_fmsub_pd(self, y, z)
        }

        /// In registers: the high half added to the low one gives `s_l +
        /// s_(l+4)`, then [`tree4`].
        #[inline(always)]
        unsafe fn tree(self) -> f64 {
            tree4(_mm256_add_pd(_mm512_castpd512_pd256(self), _mm512_extractf64x4_pd::<1>(self)))
        }
    }

    /// The AVX2 group: lanes 0–3 in the first register, 4–7 in the second.
    impl Lanes for [__m256d; 2] {
        const TIER: LaneTier = LaneTier::Avx2Fma;
        const STORE_EACH_PAIRING: bool = true;

        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            [_mm256_set1_pd(x); 2]
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            [_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4))]
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self[0]);
            _mm256_storeu_pd(p.add(4), self[1]);
        }

        #[inline(always)]
        unsafe fn gather(cols: [*mut f64; 8], r: usize) -> Self {
            [gather_half(&cols[..4], r), gather_half(&cols[4..], r)]
        }

        #[inline(always)]
        unsafe fn scatter(self, cols: [*mut f64; 8], r: usize) {
            scatter_half(self[0], &cols[..4], r);
            scatter_half(self[1], &cols[4..], r);
        }

        /// Each half's four columns, through [`transpose4`].
        #[inline(always)]
        unsafe fn gather_tile(cols: [*mut f64; 8], r: usize) -> [Self; 4] {
            let mut tile = [[_mm256_setzero_pd(); 2]; 4];
            for h in 0..2 {
                let mut v = [_mm256_setzero_pd(); 4];
                for (k, v) in v.iter_mut().enumerate() {
                    *v = _mm256_loadu_pd(cols[4 * h + k].add(r));
                }
                for (row, v) in tile.iter_mut().zip(transpose4(v)) {
                    row[h] = v;
                }
            }
            tile
        }

        #[inline(always)]
        unsafe fn scatter_tile(tile: [Self; 4], cols: [*mut f64; 8], r: usize) {
            for h in 0..2 {
                for (k, v) in transpose4(tile.map(|row| row[h])).into_iter().enumerate() {
                    _mm256_storeu_pd(cols[4 * h + k].add(r), v);
                }
            }
        }

        #[inline(always)]
        unsafe fn mul(self, y: Self) -> Self {
            [_mm256_mul_pd(self[0], y[0]), _mm256_mul_pd(self[1], y[1])]
        }

        #[inline(always)]
        unsafe fn fma(self, y: Self, z: Self) -> Self {
            [_mm256_fmadd_pd(self[0], y[0], z[0]), _mm256_fmadd_pd(self[1], y[1], z[1])]
        }

        #[inline(always)]
        unsafe fn fmsub(self, y: Self, z: Self) -> Self {
            [_mm256_fmsub_pd(self[0], y[0], z[0]), _mm256_fmsub_pd(self[1], y[1], z[1])]
        }

        /// In registers: the two added give `s_l + s_(l+4)`, then
        /// [`tree4`].
        #[inline(always)]
        unsafe fn tree(self) -> f64 {
            tree4(_mm256_add_pd(self[0], self[1]))
        }
    }

    /// Row `r` of four columns, lane `l` from `c[l]`.
    ///
    /// # Safety
    /// Requires AVX.
    #[inline(always)]
    unsafe fn gather_half(c: &[*mut f64], r: usize) -> __m256d {
        _mm256_setr_pd(*c[0].add(r), *c[1].add(r), *c[2].add(r), *c[3].add(r))
    }

    /// Lane `l` of `v` to row `r` of `c[l]`.
    ///
    /// # Safety
    /// Requires AVX.
    #[inline(always)]
    unsafe fn scatter_half(v: __m256d, c: &[*mut f64], r: usize) {
        let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
        _mm_storel_pd(c[0].add(r), lo);
        _mm_storeh_pd(c[1].add(r), lo);
        _mm_storel_pd(c[2].add(r), hi);
        _mm_storeh_pd(c[3].add(r), hi);
    }

    /// The 4×4 transpose, `out[r][k] = v[k][r]`: its own inverse.
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
            _mm256_permute2f128_pd::<0x20>(t0, t2),
            _mm256_permute2f128_pd::<0x20>(t1, t3),
            _mm256_permute2f128_pd::<0x31>(t0, t2),
            _mm256_permute2f128_pd::<0x31>(t1, t3),
        ]
    }

    /// [`transpose4`] in each half of four registers at once, `out[r][4h +
    /// k] = v[k][4h + r]`: its own inverse.
    ///
    /// # Safety
    /// Requires AVX-512F.
    #[inline(always)]
    unsafe fn transpose_halves(v: [__m512d; 4]) -> [__m512d; 4] {
        let t0 = _mm512_unpacklo_pd(v[0], v[1]);
        let t1 = _mm512_unpackhi_pd(v[0], v[1]);
        let t2 = _mm512_unpacklo_pd(v[2], v[3]);
        let t3 = _mm512_unpackhi_pd(v[2], v[3]);
        let even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
        let odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
        [
            _mm512_permutex2var_pd(t0, even, t2),
            _mm512_permutex2var_pd(t1, even, t3),
            _mm512_permutex2var_pd(t0, odd, t2),
            _mm512_permutex2var_pd(t1, odd, t3),
        ]
    }

    /// The rest of the fixed tree from `h = [s0+s4, s1+s5, s2+s6, s3+s7]`:
    /// its high half added to its low one gives `(s0 + s4) + (s2 + s6)`
    /// and `(s1 + s5) + (s3 + s7)`, and those two the sum.
    ///
    /// # Safety
    /// Requires AVX.
    #[inline(always)]
    unsafe fn tree4(h: __m256d) -> f64 {
        let q = _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd::<1>(h));
        _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)))
    }
}
