//! Contiguous block storage for one-sided Jacobi column blocks.
//!
//! Every parallel driver in this workspace moves *blocks* of columns
//! around: a block owns the `A`-columns and `U`-columns of a contiguous
//! range of global column indices, pairs them against each other, and is
//! shipped whole across a hypercube link on every transition. The seed
//! implementation stored a block as `Vec<Vec<f64>>` — one heap allocation
//! per column, scattered across the heap, and `2b` separate buffers per
//! message. [`ColumnBlock`] replaces that with a single flat store:
//!
//! * **unit-interleaved layout** — column `k` occupies one contiguous
//!   *unit* `[A_k | U_k]`, so the four slices a pairing touches live in two
//!   contiguous chunks;
//! * **cache-line-aligned columns** — the store starts on a 64-byte
//!   boundary ([`COLUMN_ALIGN_BYTES`]) and each half of a unit is
//!   zero-padded to a multiple of 8 values, so *every* `A`- and `U`-column
//!   slice starts a cache line, whatever the shape: no vector load or
//!   store of the pairing kernels straddles two lines. The pads are
//!   storage only — never viewed, never counted by
//!   [`ColumnBlock::payload_elems`], never priced;
//! * **zero-copy column views** — [`ColumnBlock::a_col`]/[`u_col`] are
//!   subslices of the backing buffer, never copies;
//! * **split-borrow pair access** — [`ColumnBlock::pair_mut`] and
//!   [`cross_pair_mut`] hand out the four `&mut` column slices of a pair
//!   safely and without `unsafe`;
//! * **message hand-off** — [`ColumnBlock::take`] moves the block out of a
//!   slot in O(1), leaving an empty block behind, and the flat buffer means
//!   a block crosses a link as *one* contiguous allocation — its columns
//!   and nothing else: the diagonals a pairing reads (`M_kk`, `‖w_k‖²`)
//!   are a sweep call's own cache (`vecops::Walk`), never stored or
//!   shipped with the block.
//!
//! [`u_col`]: ColumnBlock::u_col

use crate::matrix::Matrix;

/// Alignment, in bytes, of every `A`- and `U`-column slice a
/// [`ColumnBlock`] hands out: one cache line, the widest vector access of
/// the lane kernels.
pub const COLUMN_ALIGN_BYTES: usize = 64;

/// `f64`s per cache line: the granule every column half is padded to.
const LINE: usize = COLUMN_ALIGN_BYTES / std::mem::size_of::<f64>();

fn is_aligned(col: &[f64]) -> bool {
    elems_to_line(col) == 0
}

/// How many elements past `run[0]` the next cache line starts (0..[`LINE`]).
pub(crate) fn elems_to_line(run: &[f64]) -> usize {
    (run.as_ptr() as usize).wrapping_neg() % COLUMN_ALIGN_BYTES / std::mem::size_of::<f64>()
}

/// A fixed-capacity run of `f64`s whose first element starts a cache line.
///
/// The allocation is `LINE − 1` elements larger than the capacity asked
/// for, and the first `head` of them are skipped so that `raw[head]` is
/// 64-byte aligned wherever `malloc` put `raw[0]`. `raw` never grows past
/// the capacity it was created with, so the buffer never moves and `head`
/// stays right for the store's whole life. Dereferences to the logical
/// contents `raw[head..]`.
#[derive(Default)]
struct AlignedStore {
    raw: Vec<f64>,
    head: usize,
}

impl AlignedStore {
    /// An empty store that can hold `capacity` values; no allocation for 0.
    fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return AlignedStore::default();
        }
        let mut raw: Vec<f64> = Vec::with_capacity(capacity + LINE - 1);
        let head = elems_to_line(&raw);
        raw.resize(head, 0.0);
        AlignedStore { raw, head }
    }

    /// `len` zeros.
    fn zeros(len: usize) -> Self {
        let mut store = AlignedStore::with_capacity(len);
        store.raw.resize(store.head + len, 0.0);
        store
    }

    fn capacity(&self) -> usize {
        self.raw.capacity() - self.head
    }

    /// Appends `values`.
    ///
    /// # Panics
    /// Panics rather than reallocate (and lose the alignment) when they do
    /// not fit.
    fn extend_from_slice(&mut self, values: &[f64]) {
        assert!(self.len() + values.len() <= self.capacity(), "aligned store overflow");
        self.raw.extend_from_slice(values);
    }
}

impl std::ops::Deref for AlignedStore {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.raw[self.head..]
    }
}

impl std::ops::DerefMut for AlignedStore {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.raw[self.head..]
    }
}

/// A copy lives in a new allocation, whose offset from a line boundary is
/// its own: `head` is derived again, never copied.
impl Clone for AlignedStore {
    fn clone(&self) -> Self {
        let mut store = AlignedStore::with_capacity(self.len());
        store.extend_from_slice(self);
        store
    }
}

/// Stores are equal when their logical contents are, wherever they start.
impl PartialEq for AlignedStore {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for AlignedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A block of columns in flat, contiguous, column-major storage.
///
/// Column `k` of the block carries global column index `start + k` and two
/// vectors: an `A`-column of length `arows` and a `U`-column of length
/// `urows` (equal for the symmetric eigenproblem; different for the
/// rectangular SVD, where `A` holds `W = A·V` columns and `U` holds
/// `V`-columns).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBlock {
    /// Global index of the block's first column.
    start: usize,
    /// Number of columns `b`.
    ncols: usize,
    /// Rows per `A`-column.
    arows: usize,
    /// Rows per `U`-column.
    urows: usize,
    /// `ncols` units `[A_k | pad | U_k | pad]`, each half zero-padded to a
    /// whole number of cache lines, in a store that starts on one.
    data: AlignedStore,
}

/// The four mutable column slices of one column pair — the exact shape consumed by the shared pairing kernel.
///
/// Produced by [`ColumnBlock::pair_mut`] (both columns in one block) or
/// [`cross_pair_mut`] (one column from each of two blocks).
#[derive(Debug)]
pub struct PairViewMut<'a> {
    pub ai: &'a mut [f64],
    pub ui: &'a mut [f64],
    pub aj: &'a mut [f64],
    pub uj: &'a mut [f64],
}

impl<'a> PairViewMut<'a> {
    /// Applies the plane rotation `(c, s)` to the pair's `A`- and
    /// `U`-columns in one fused pass ([`crate::vecops::pair_rotate`]: a
    /// multiply and a fused multiply-add per entry, on the widest vector
    /// unit the host offers) — what every pairing runs.
    #[inline]
    pub fn rotate(&mut self, c: f64, s: f64) {
        crate::vecops::pair_rotate(self.ai, self.aj, self.ui, self.uj, c, s);
    }
}

/// A block's store as a sweep's walk (`vecops::Walk`) addresses it:
/// `ncols` units of `unit` values, column `k`'s `A`-half of `rows[0]` values
/// at `k · unit` and its `U`-half of `rows[1]` at `k · unit + ustart`.
pub(crate) struct Units<'a> {
    pub(crate) data: &'a mut [f64],
    pub(crate) unit: usize,
    pub(crate) ustart: usize,
    pub(crate) ncols: usize,
    pub(crate) rows: [usize; 2],
}

impl ColumnBlock {
    /// Builds the block holding global columns `range` of `a0`, with the
    /// matching `U`-columns initialized to unit vectors `e_c` of length
    /// `urows` — the canonical starting state of every one-sided driver
    /// (`A = A₀`, `U = I`).
    ///
    /// For the symmetric eigenproblem pass `urows = a0.rows()`; for the SVD
    /// pass `urows = a0.cols()` (the `V` factor is square even when `A` is
    /// rectangular).
    ///
    /// # Panics
    /// Panics if `range` exceeds the columns of `a0` or `urows`.
    pub fn from_matrix_with_identity(
        a0: &Matrix,
        range: std::ops::Range<usize>,
        urows: usize,
    ) -> Self {
        assert!(range.end <= a0.cols(), "column range out of bounds");
        assert!(range.end <= urows || range.is_empty(), "unit index out of bounds");
        let arows = a0.rows();
        let (start, ncols) = (range.start, range.len());
        let ustart = padded(arows);
        let unit = ustart + padded(urows);
        let mut data = AlignedStore::zeros(ncols * unit);
        for k in 0..ncols {
            let c = start + k;
            data[k * unit..k * unit + arows].copy_from_slice(a0.col(c));
            data[k * unit + ustart + c] = 1.0;
        }
        ColumnBlock { start, ncols, arows, urows, data }
    }

    /// Number of columns in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.ncols
    }

    /// True when the block holds no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ncols == 0
    }

    /// Global column index of block column `k`.
    #[inline]
    pub fn global_col(&self, k: usize) -> usize {
        debug_assert!(k < self.ncols);
        self.start + k
    }

    /// Total `f64` payload (A-columns + U-columns) —
    /// what one message carrying this block puts on a link. The logical
    /// count: alignment pads are storage, not payload.
    #[inline]
    pub fn payload_elems(&self) -> usize {
        self.ncols * (self.arows + self.urows)
    }

    /// Columns whose `A`- or `U`-slice does not start on a
    /// [`COLUMN_ALIGN_BYTES`] boundary — 0 for every block this module
    /// builds; what consumers `debug_assert!`.
    pub fn misaligned_columns(&self) -> usize {
        (0..self.ncols)
            .filter(|&k| !(is_aligned(self.a_col(k)) && is_aligned(self.u_col(k))))
            .count()
    }

    /// Offset of the `U`-half within a unit.
    #[inline]
    fn ustart(&self) -> usize {
        padded(self.arows)
    }

    /// Stored length of one column unit, pads included.
    #[inline]
    fn unit(&self) -> usize {
        self.ustart() + padded(self.urows)
    }

    /// The store starts a cache line and every half-unit is whole lines, so
    /// one check covers every column view built from it.
    #[inline]
    fn debug_assert_aligned(&self) {
        debug_assert!(self.data.is_empty() || is_aligned(&self.data), "column store misaligned");
    }

    /// Zero-copy view of the `A`-column of block column `k`.
    #[inline]
    pub fn a_col(&self, k: usize) -> &[f64] {
        let off = k * self.unit();
        &self.data[off..off + self.arows]
    }

    /// Zero-copy view of the `U`-column of block column `k`.
    #[inline]
    pub fn u_col(&self, k: usize) -> &[f64] {
        let off = k * self.unit() + self.ustart();
        &self.data[off..off + self.urows]
    }

    /// Split-borrow access to the pair `(i, j)` within this block: the four
    /// column slices.
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of range.
    pub fn pair_mut(&mut self, i: usize, j: usize) -> PairViewMut<'_> {
        assert!(i != j, "pair_mut requires distinct columns");
        assert!(i < self.ncols && j < self.ncols);
        self.debug_assert_aligned();
        let (unit, shape) = (self.unit(), (self.arows, self.urows));
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (head, tail) = self.data.split_at_mut(hi * unit);
        let (a_lo, u_lo) = split_unit(&mut head[lo * unit..(lo + 1) * unit], shape);
        let (a_hi, u_hi) = split_unit(&mut tail[..unit], shape);
        if i < j {
            PairViewMut { ai: a_lo, ui: u_lo, aj: a_hi, uj: u_hi }
        } else {
            PairViewMut { ai: a_hi, ui: u_hi, aj: a_lo, uj: u_lo }
        }
    }

    /// The block's store, as a sweep's walk addresses its columns.
    pub(crate) fn units_mut(&mut self) -> Units<'_> {
        self.debug_assert_aligned();
        let (unit, ustart, ncols, rows) =
            (self.unit(), self.ustart(), self.ncols, [self.arows, self.urows]);
        Units { data: &mut self.data, unit, ustart, ncols, rows }
    }

    /// Moves the block out of `self` in O(1), leaving an empty block — the
    /// hand-off primitive for sending a block slot across a link.
    #[inline]
    pub fn take(&mut self) -> ColumnBlock {
        std::mem::take(self)
    }

    /// Copies the block's `U`-columns into the column-major matrix `u` at
    /// the block's global column indices — the output-assembly step every
    /// driver performs when reconstructing the global `U` (or `V`) factor
    /// from distributed blocks.
    pub fn store_u_into(&self, u: &mut Matrix) {
        for k in 0..self.ncols {
            u.col_mut(self.global_col(k)).copy_from_slice(self.u_col(k));
        }
    }

    /// The block of the columns `cols`, each `(a, u)` of `rows` — a fixture
    /// for kernels over any column height, which no matrix with an identity
    /// `U` gives a block of.
    #[cfg(test)]
    pub(crate) fn from_columns(cols: &[(Vec<f64>, Vec<f64>)], rows: (usize, usize)) -> ColumnBlock {
        let (arows, urows) = rows;
        let (ustart, ncols) = (padded(arows), cols.len());
        let unit = ustart + padded(urows);
        let mut data = AlignedStore::zeros(ncols * unit);
        for (k, (a, u)) in cols.iter().enumerate() {
            data[k * unit..k * unit + arows].copy_from_slice(a);
            data[k * unit + ustart..k * unit + ustart + urows].copy_from_slice(u);
        }
        ColumnBlock { start: 0, ncols, arows, urows, data }
    }

    /// Splits the block into `q` packets of consecutive columns — the
    /// communication-pipelining packetization. Packet sizes are balanced
    /// (they differ by at most one column, larger packets first, exactly
    /// like the paper's block partition); column order and global column
    /// indices are preserved, so
    /// [`ColumnBlock::from_packets`] is an exact inverse. When `q` exceeds
    /// the column count the tail packets are empty (they still frame valid
    /// zero-payload messages, keeping packetized protocols symmetric).
    ///
    /// # Panics
    /// Panics if `q == 0`.
    pub fn split_columns(self, q: usize) -> Vec<ColumnBlock> {
        assert!(q >= 1, "cannot split into zero packets");
        // A packet is a run of whole units, pads and all, so its columns
        // are as aligned as the block's.
        let unit = self.unit();
        let base = self.ncols / q;
        let extra = self.ncols % q;
        let mut packets = Vec::with_capacity(q);
        let mut col = 0usize;
        for p in 0..q {
            let ncols = base + usize::from(p < extra);
            let mut data = AlignedStore::with_capacity(ncols * unit);
            data.extend_from_slice(&self.data[col * unit..(col + ncols) * unit]);
            packets.push(ColumnBlock {
                start: self.start + col,
                ncols,
                arows: self.arows,
                urows: self.urows,
                data,
            });
            col += ncols;
        }
        packets
    }

    /// Rebuilds a block from consecutive packets — the inverse of
    /// [`ColumnBlock::split_columns`]. Empty packets are tolerated (they
    /// carry no columns); non-empty packets must agree on row counts and
    /// cover a contiguous global column range in order.
    ///
    /// # Panics
    /// Panics on an empty packet list, mismatched row counts or a
    /// non-contiguous column range.
    pub fn from_packets(packets: Vec<ColumnBlock>) -> ColumnBlock {
        assert!(!packets.is_empty(), "cannot reassemble zero packets");
        // All packets empty: an empty block, shape from packet 0.
        let first = packets.iter().find(|p| !p.is_empty()).unwrap_or(&packets[0]);
        let (start, arows, urows) = (first.start, first.arows, first.urows);
        let total: usize = packets.iter().map(|p| p.ncols).sum();
        // Sized once for the whole block, never grown.
        let mut data = AlignedStore::with_capacity(total * first.unit());
        let mut ncols = 0usize;
        for p in packets.iter().filter(|p| !p.is_empty()) {
            assert_eq!((p.arows, p.urows), (arows, urows), "packet row counts differ");
            assert_eq!(p.start, start + ncols, "packets are not contiguous");
            data.extend_from_slice(&p.data);
            ncols += p.ncols;
        }
        ColumnBlock { start, ncols, arows, urows, data }
    }
}

/// `n` rounded up to whole cache lines of `f64`s.
#[inline]
fn padded(n: usize) -> usize {
    n.next_multiple_of(LINE)
}

/// The logical `(A, U)` slices of one stored unit `[A | pad | U | pad]`.
#[inline]
fn split_unit(unit: &mut [f64], (arows, urows): (usize, usize)) -> (&mut [f64], &mut [f64]) {
    let (a, u) = unit.split_at_mut(padded(arows));
    (&mut a[..arows], &mut u[..urows])
}

/// Mutable access to two *distinct* blocks of a slice — the split borrow a
/// cross-block pairing over a `Vec<ColumnBlock>` needs before calling
/// [`cross_pair_mut`]. Order of the returned pair follows `(b0, b1)`.
///
/// # Panics
/// Panics if `b0 == b1` or either index is out of range.
pub fn two_blocks_mut(
    blocks: &mut [ColumnBlock],
    b0: usize,
    b1: usize,
) -> (&mut ColumnBlock, &mut ColumnBlock) {
    assert!(b0 != b1, "two_blocks_mut requires distinct blocks");
    let (lo, hi) = if b0 < b1 { (b0, b1) } else { (b1, b0) };
    let (head, tail) = blocks.split_at_mut(hi);
    if b0 < b1 {
        (&mut head[lo], &mut tail[0])
    } else {
        (&mut tail[0], &mut head[lo])
    }
}

/// Split-borrow access to a *cross-block* pair: column `i` of `left` and
/// column `j` of `right`. Mirrors [`ColumnBlock::pair_mut`] for the case
/// where the two columns live in different blocks (the inter-block pairing
/// of the paper's step 2).
pub fn cross_pair_mut<'a>(
    left: &'a mut ColumnBlock,
    i: usize,
    right: &'a mut ColumnBlock,
    j: usize,
) -> PairViewMut<'a> {
    assert!(i < left.ncols && j < right.ncols);
    left.debug_assert_aligned();
    right.debug_assert_aligned();
    let (l_unit, l_off) = (left.unit(), i * left.unit());
    let (r_unit, r_off) = (right.unit(), j * right.unit());
    let (ai, ui) = split_unit(&mut left.data[l_off..l_off + l_unit], (left.arows, left.urows));
    let (aj, uj) = split_unit(&mut right.data[r_off..r_off + r_unit], (right.arows, right.urows));
    PairViewMut { ai, ui, aj, uj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetric::random_symmetric;
    use crate::vecops::rotate_pair;

    #[test]
    fn from_matrix_copies_a_and_builds_identity_u() {
        let a0 = random_symmetric(6, 1);
        let b = ColumnBlock::from_matrix_with_identity(&a0, 2..5, 6);
        assert_eq!(b.len(), 3);
        assert_eq!((b.arows, b.urows), (6, 6));
        for k in 0..3 {
            assert_eq!(b.global_col(k), 2 + k);
            assert_eq!(b.a_col(k), a0.col(2 + k));
            for r in 0..6 {
                assert_eq!(b.u_col(k)[r], if r == 2 + k { 1.0 } else { 0.0 });
            }
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.payload_elems(), 3 * 12);
    }

    #[test]
    fn rectangular_blocks_carry_different_row_counts() {
        let a0 = Matrix::from_fn(7, 4, |r, c| (r * 4 + c) as f64);
        let b = ColumnBlock::from_matrix_with_identity(&a0, 1..3, 4);
        assert_eq!((b.arows, b.urows), (7, 4));
        assert_eq!(b.a_col(0), a0.col(1));
        assert_eq!(b.u_col(0), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn pair_mut_returns_disjoint_views_in_both_orders() {
        let a0 = random_symmetric(4, 9);
        let mut b = ColumnBlock::from_matrix_with_identity(&a0, 0..4, 4);
        {
            let v = b.pair_mut(1, 3);
            assert_eq!(v.ai, a0.col(1));
            assert_eq!(v.aj, a0.col(3));
            assert_eq!(v.ui[1], 1.0);
            assert_eq!(v.uj[3], 1.0);
        }
        {
            let v = b.pair_mut(3, 1);
            assert_eq!(v.ai, a0.col(3));
            assert_eq!(v.aj, a0.col(1));
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_mut_rejects_equal_indices() {
        let a0 = random_symmetric(3, 2);
        let mut b = ColumnBlock::from_matrix_with_identity(&a0, 0..3, 3);
        let _ = b.pair_mut(1, 1);
    }

    #[test]
    fn rotation_through_views_matches_matrix_rotation() {
        let a0 = random_symmetric(5, 4);
        let mut b = ColumnBlock::from_matrix_with_identity(&a0, 0..5, 5);
        let (mut a, mut u) = (a0.clone(), Matrix::identity(5));
        let (c, s) = (0.6, 0.8);
        b.pair_mut(0, 3).rotate(c, s);
        for m in [&mut a, &mut u] {
            let (x, y) = m.col_pair_mut(0, 3);
            rotate_pair(x, y, c, s);
        }
        for k in 0..5 {
            assert_eq!(b.a_col(k), a.col(k), "A col {k}");
            assert_eq!(b.u_col(k), u.col(k), "U col {k}");
        }
    }

    #[test]
    fn cross_pair_spans_two_blocks() {
        let a0 = random_symmetric(6, 5);
        let mut left = ColumnBlock::from_matrix_with_identity(&a0, 0..3, 6);
        let mut right = ColumnBlock::from_matrix_with_identity(&a0, 3..6, 6);
        let (c, s) = (0.8, -0.6);
        {
            let mut v = cross_pair_mut(&mut left, 2, &mut right, 0);
            assert_eq!(v.ai, a0.col(2));
            assert_eq!(v.aj, a0.col(3));
            v.rotate(c, s);
        }
        let (mut a, mut u) = (a0.clone(), Matrix::identity(6));
        for m in [&mut a, &mut u] {
            let (x, y) = m.col_pair_mut(2, 3);
            rotate_pair(x, y, c, s);
        }
        assert_eq!(left.a_col(2), a.col(2));
        assert_eq!(right.a_col(0), a.col(3));
        assert_eq!(left.u_col(2), u.col(2));
        assert_eq!(right.u_col(0), u.col(3));
    }

    #[test]
    fn take_leaves_an_empty_default_block() {
        let a0 = random_symmetric(4, 7);
        let mut slot = ColumnBlock::from_matrix_with_identity(&a0, 0..2, 4);
        let moved = slot.take();
        assert_eq!(moved.len(), 2);
        assert!(slot.is_empty());
        assert_eq!(slot, ColumnBlock::default());
    }

    #[test]
    fn split_columns_round_trips_exactly() {
        let a0 = random_symmetric(6, 13);
        for q in [1usize, 2, 3, 5, 9] {
            let b = ColumnBlock::from_matrix_with_identity(&a0, 1..6, 6);
            let packets = b.clone().split_columns(q);
            assert_eq!(packets.len(), q);
            // Balanced sizes, larger first; payload conserved.
            let sizes: Vec<usize> = packets.iter().map(|p| p.len()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), 5, "q={q}");
            assert!(sizes.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1), "{sizes:?}");
            let payload: usize = packets.iter().map(|p| p.payload_elems()).sum();
            assert_eq!(payload, b.payload_elems(), "q={q}");
            // Packets view the same columns under the same global ids.
            let mut col = 0usize;
            for p in &packets {
                for k in 0..p.len() {
                    assert_eq!(p.global_col(k), b.global_col(col));
                    assert_eq!(p.a_col(k), b.a_col(col));
                    assert_eq!(p.u_col(k), b.u_col(col));
                    col += 1;
                }
            }
            // Exact inverse.
            assert_eq!(ColumnBlock::from_packets(packets), b, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "aligned store overflow")]
    fn an_aligned_store_panics_rather_than_reallocate() {
        let mut store = AlignedStore::with_capacity(8);
        let capacity = store.capacity();
        store.extend_from_slice(&vec![1.0; capacity]);
        store.extend_from_slice(&[2.0]);
    }

    #[test]
    fn padded_units_keep_odd_and_rectangular_columns_on_cache_lines() {
        // 7 × 5 with a 5-row V factor: units are [7 | 1 pad | 5 | 3 pads].
        let a0 = Matrix::from_fn(7, 5, |r, c| (r * 5 + c) as f64 + 1.0);
        let mut b = ColumnBlock::from_matrix_with_identity(&a0, 1..4, 5);
        assert_eq!(b.misaligned_columns(), 0);
        assert_eq!(b.payload_elems(), 3 * 12);
        b.pair_mut(0, 2).rotate(0.6, 0.8);
        cross_pair_mut(&mut b.clone(), 1, &mut b, 0).rotate(0.8, 0.6);
        for k in 0..3 {
            assert_eq!((b.a_col(k).len(), b.u_col(k).len()), (7, 5));
            assert!(is_aligned(b.a_col(k)) && is_aligned(b.u_col(k)));
        }
        // The pads took no part in any of it.
        let unit = b.unit();
        for k in 0..3 {
            assert_eq!(b.data[k * unit + 7..k * unit + 8], [0.0]);
            assert_eq!(b.data[k * unit + 13..(k + 1) * unit], [0.0; 3]);
        }
    }

    #[test]
    fn oversplit_produces_empty_tail_packets() {
        let a0 = random_symmetric(4, 3);
        let b = ColumnBlock::from_matrix_with_identity(&a0, 0..2, 4);
        let packets = b.clone().split_columns(5);
        assert_eq!(packets.len(), 5);
        assert_eq!(packets.iter().filter(|p| p.is_empty()).count(), 3);
        assert_eq!(packets[0].len(), 1);
        assert_eq!(packets[1].len(), 1);
        assert_eq!(ColumnBlock::from_packets(packets), b);
    }

    #[test]
    fn reassembling_all_empty_packets_gives_an_empty_block() {
        let a0 = random_symmetric(3, 8);
        let b = ColumnBlock::from_matrix_with_identity(&a0, 1..1, 3);
        let packets = b.split_columns(3);
        let back = ColumnBlock::from_packets(packets);
        assert!(back.is_empty());
        assert_eq!((back.arows, back.urows), (3, 3));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn from_packets_rejects_out_of_order_packets() {
        let a0 = random_symmetric(4, 5);
        let b = ColumnBlock::from_matrix_with_identity(&a0, 0..4, 4);
        let mut packets = b.split_columns(2);
        packets.swap(0, 1);
        let _ = ColumnBlock::from_packets(packets);
    }

    #[test]
    fn empty_range_yields_empty_block() {
        let a0 = random_symmetric(3, 1);
        let b = ColumnBlock::from_matrix_with_identity(&a0, 2..2, 3);
        assert!(b.is_empty());
        assert_eq!(b.payload_elems(), 0);
    }

    #[test]
    fn two_blocks_mut_returns_the_pair_in_argument_order() {
        let a0 = random_symmetric(6, 21);
        let mut blocks: Vec<ColumnBlock> = [(0..2), (2..4), (4..6)]
            .into_iter()
            .map(|r| ColumnBlock::from_matrix_with_identity(&a0, r, 6))
            .collect();
        {
            let (x, y) = two_blocks_mut(&mut blocks, 0, 2);
            assert_eq!((x.global_col(0), y.global_col(0)), (0, 4));
        }
        {
            let (x, y) = two_blocks_mut(&mut blocks, 2, 0);
            assert_eq!((x.global_col(0), y.global_col(0)), (4, 0));
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn two_blocks_mut_rejects_equal_indices() {
        let a0 = random_symmetric(4, 2);
        let mut blocks = vec![ColumnBlock::from_matrix_with_identity(&a0, 0..4, 4)];
        let _ = two_blocks_mut(&mut blocks, 0, 0);
    }
}
