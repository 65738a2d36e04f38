//! A sweep call's walk over its blocks' column pairings: the schedule, the
//! per-call diagonal cache, and the step pass written once over the lane
//! group.

use super::lanes::{on, turn_lanes, Kernel, Lanes, Reduce};
use super::rotate::{turn, Rotate};
use super::{lane_tier, reads, Dot, LaneTier, Operands, Reads};
use crate::block::ColumnBlock;
use crate::rotation::{apply_to_block, JacobiRotation};

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

/// Where a column of a walk's next step is in the step before it: a column
/// of one of the two pairings the step rotates, or a column the step does
/// not touch, which it reads as it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Col {
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
pub(super) trait Transition<const N: usize> {
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
pub(super) const STEP_STREAMS: usize = 12;

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
pub(super) fn kept_pair(blocks: [[f64; 3]; 2], rots: [JacobiRotation; 2]) -> [[f64; 2]; 2] {
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
/// bitwise [`pair_rotate`](super::pair_rotate), and in the same pass over
/// the columns reduces the off-diagonals of the step after it from the
/// rotated values, each product bitwise [`dot`](super::dot) — from
/// rectangle to rectangle, triangle row and block too. So a walk reduces an
/// off-diagonal on its own once, its first, and rotates a pairing on its
/// own once, its last, in [`Walk::finish`].
///
/// The diagonals a pairing's 2×2 block needs come from the walk's cache, a
/// slot per column of each block handed: when [`Walk::within`] or
/// [`Walk::across`] takes a block, each of its columns' diagonal is reduced
/// exactly (`u_k · a_k`, or `a_k · a_k` under the Gram rule, bitwise
/// [`dot`](super::dot)); a rotation keeps its pairing's two slots by the
/// exact 2×2 similarity update; and the cache is dropped with the walk. A
/// column's slot is read before its column is first rotated, so the walk's
/// bits are those of a refresh at the call's start. The slots' store is the
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
/// A call's rectangles are walked inside the one function of its tier,
/// compiled for its instructions with the rule's angles, the cache slots'
/// update and the rule's books. On every tier a step is one pass, each
/// chunk of eight rows loaded, rotated and stored, the next step's
/// multiply-adds taking the rotated lanes from the registers that stored
/// them; only a step that skips a pairing rotates, then reduces. A walk
/// dropped before [`Walk::finish`] leaves its last pairing unrotated.
#[must_use = "a walk rotates its last pairing in `finish`"]
pub struct Walk<'b, P> {
    pub(super) pairing: P,
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
    /// which [`Walking`] fills before it walks them. Where the store must
    /// grow, the held pairing is rotated first: its slots move with the
    /// store.
    pub(super) fn cached<const N: usize>(
        &mut self,
        tier: LaneTier,
        mut cols: [Columns; N],
    ) -> [Columns; N] {
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
    pub(super) fn walk<I: Iterator<Item = Rect>>(
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
        let walking = Walking { pairing: &mut self.pairing, last, cols, one_block, rects };
        // SAFETY: `cols` and the held pairing address blocks this walk
        // borrows for as long as it lives (`Columns::of`) and slots of its
        // cache, and every column of them holds `cols[0].rows`.
        self.last = unsafe { on(tier, walking) };
    }

    /// Rotates the held pairing on its own, if there is one.
    pub(super) fn close(&mut self, tier: LaneTier) {
        if let Some(last) = self.last.take() {
            // SAFETY: the held pairing's columns are in blocks this walk
            // borrows, two distinct columns of `last.rows`, and its slots
            // are in the walk's cache.
            unsafe { rotate_alone(tier, &mut self.pairing, last.hand, last.rows) };
        }
    }
}

/// Reduces the diagonal of every column of `cols` into its slot, on `G`'s
/// tier: four columns abreast, then the one to three left over abreast,
/// each `u_k · a_k` — or `a_k · a_k` where `GRAM` — bitwise
/// [`dot`](super::dot), one reduction each.
///
/// # Safety
/// `G`'s; `cols` must address a block's columns, none with a mutable view
/// alive, and `ncols` writable slots at `cols.diag`; under the implicit
/// rule its `A` and `U` streams share one length.
#[inline(always)]
unsafe fn refresh<G: Lanes, const GRAM: bool>(cols: Columns) {
    let mut k = 0;
    while k + 4 <= cols.ncols {
        abreast::<G, GRAM, 8, 4>(cols, k);
        k += 4;
    }
    match cols.ncols - k {
        0 => {}
        1 => abreast::<G, GRAM, 2, 1>(cols, k),
        2 => abreast::<G, GRAM, 4, 2>(cols, k),
        _ => abreast::<G, GRAM, 6, 3>(cols, k),
    }
}

/// [`refresh`] of the `N` columns of `cols` from `k`, over their `S = 2N`
/// streams in one reduction.
///
/// # Safety
/// As [`refresh`], the columns in the block.
#[inline(always)]
unsafe fn abreast<G: Lanes, const GRAM: bool, const S: usize, const N: usize>(
    cols: Columns,
    k: usize,
) {
    let mut streams = [std::ptr::null(); S];
    for s in 0..S {
        let col = cols.at(k + s / 2);
        streams[s] = if s % 2 == 0 { col.a } else { col.u };
    }
    let blocks = on(G::TIER, Reduce::<Diagonals<GRAM, N>, S, N, true>::new(streams, cols.rows[0]));
    for n in 0..N {
        *cols.at(k + n).d = blocks[n][1];
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
pub(super) struct Columns {
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
    pub(super) fn of(block: &mut ColumnBlock) -> Columns {
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
pub(super) trait Steps {
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
pub(super) fn walk_rect<S: Steps>(
    s: &mut S,
    (left, nl): (S::Side, usize),
    (right, nr): (S::Side, usize),
) {
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

/// A walk call's kernel: walks `rects` over `cols` — left, right; the
/// same block twice where `one_block` — after the held pairing `last`, and
/// returns the pairing it then holds, the blocks' slots [`refresh`]ed
/// first. Each tier runs it inside its one function, so every step
/// compiles in the tier's instructions.
///
/// Safety of [`Kernel::run`]: `cols` must address blocks the caller has
/// borrowed for as long as the returned pairing is held, every column of
/// both holding `cols[0].rows` (`A` and `U` of one length under the
/// implicit rule), and each block's slots, one per column, the walk's own
/// for as long; `last` must be a pairing of distinct columns of such
/// blocks, of `last.rows`.
///
/// Running it panics if a rectangle reaches past its block, or pairs a
/// column with itself where both sides are one block.
struct Walking<'p, P, I> {
    pairing: &'p mut P,
    last: Option<Held>,
    cols: [Columns; 2],
    one_block: bool,
    rects: I,
}

impl<P: Pairing, I: Iterator<Item = Rect>> Kernel for Walking<'_, P, I> {
    type Out = Option<Held>;

    #[inline(always)]
    unsafe fn run<G: Lanes>(self) -> Option<Held> {
        let Walking { pairing, last, cols, one_block, rects } = self;
        for c in &cols[..2 - usize::from(one_block)] {
            if P::GRAM {
                refresh::<G, true>(*c);
            } else {
                refresh::<G, false>(*c);
            }
        }
        let rows = cols[0].rows;
        let mut walker = Walker::<G, P> {
            pairing,
            hand: [last.map_or(NO_HAND, |last| last.hand); 2],
            held: last.is_some(),
            rows,
            _lanes: std::marker::PhantomData,
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
}

/// The hand of a walk that holds no pairing.
const NO_HAND: Hand = {
    let none = Column { a: std::ptr::null_mut(), u: std::ptr::null_mut(), d: std::ptr::null_mut() };
    Hand { i: none, j: none, block: [0.0; 3] }
};

/// The walk's steps on the group `G`, made only inside its tier's
/// function ([`Walking`]): the pairings in hand, `R` of them from the
/// first, and the rule's books.
struct Walker<'p, G, P> {
    pairing: &'p mut P,
    hand: [Hand; 2],
    /// Whether `hand[0]` is a pairing — between two rectangles, the one in
    /// hand.
    held: bool,
    rows: [usize; 2],
    _lanes: std::marker::PhantomData<G>,
}

impl<G: Lanes, P: Pairing> Steps for Walker<'_, G, P> {
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
        // SAFETY: inside `G`'s tier function; the walk checked both columns
        // are in their blocks, every stream of `alen` (the implicit rule's
        // `U` streams too), with a slot each; no mutable view of them is
        // alive.
        let block = unsafe {
            let x = if P::GRAM { i.a } else { i.u };
            let [[_, pq, _]] = on(G::TIER, Reduce::<Dot, 2, 1, true>::new([x, j.a], alen));
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
        let mut streams = [std::ptr::null_mut(); STEP_STREAMS];
        for r in 0..R {
            let Hand { i, j, .. } = now[r];
            streams[4 * r..4 * r + 4].copy_from_slice(&[i.a, j.a, i.u, j.u]);
        }
        streams[8..].copy_from_slice(&[fresh[0].a, fresh[0].u, fresh[1].a, fresh[1].u]);
        // SAFETY: the walk's schedule hands a step distinct columns, each
        // in a block the walk has borrowed and of `self.rows`: the ones it
        // rotates and the ones its table reads besides.
        let offs = unsafe { pass::<G, R, N, Step<T, P>>(streams, turns, self.rows) };
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
        unsafe { rotate_alone(G::TIER, self.pairing, self.hand[0], self.rows) };
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
        let (i, j) = (hand.i, hand.j);
        on(tier, Rotate { rows: [i.a, j.a, i.u, j.u], lens: rows, c: rot.c, s: rot.s });
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

/// A step's pass on `G` over its streams ([`STEP_STREAMS`]): rotates
/// pairing `r`'s `[ai, aj, ui, uj]` by `turns[r]` (a skipped pairing is
/// left as it is), bitwise [`pair_rotate`](super::pair_rotate), and returns
/// the off-diagonals of `O`'s blocks after the rotation, each bitwise
/// [`dot`](super::dot). With every pairing turning that is one pass
/// ([`step`]); a step that skips one rotates the others, then reduces,
/// since a turn by the identity would not keep −0.0 or ∞.
///
/// # Safety
/// `G`'s. The rotated streams and the fresh ones the table reads must be
/// distinct columns' streams: `A` streams of `lens[0]` values, `U` streams
/// of `lens[1]`. Under the implicit rule (`O` reading `U` streams) both are
/// one length.
#[inline(always)]
unsafe fn pass<G: Lanes, const R: usize, const N: usize, O: Operands<N>>(
    streams: [*mut f64; STEP_STREAMS],
    turns: [Option<JacobiRotation>; R],
    lens: [usize; 2],
) -> [f64; N] {
    if turns.iter().all(Option::is_some) {
        let mut cs = [(0.0, 0.0); R];
        for r in 0..R {
            if let Some(rot) = turns[r] {
                cs[r] = (rot.c, rot.s);
            }
        }
        return step::<G, R, N, O>(streams, cs, lens);
    }
    for r in 0..R {
        if let Some(rot) = turns[r] {
            let rows = [streams[4 * r], streams[4 * r + 1], streams[4 * r + 2], streams[4 * r + 3]];
            on(G::TIER, Rotate { rows, lens, c: rot.c, s: rot.s });
        }
    }
    let streams = streams.map(<*mut f64>::cast_const);
    on(G::TIER, Reduce::<O, STEP_STREAMS, N, true>::new(streams, lens[0])).map(|[_, pq, _]| pq)
}

/// A step's one pass on `G`, every pairing `r` turning by `turns[r]`: per
/// chunk of eight rows, each pairing's four streams are loaded, turned
/// ([`turn_lanes`]) and stored ([`Lanes::STORE_EACH_PAIRING`] says when),
/// and the next step's products take the turned values from the same
/// registers, beside the fresh columns' loads. What the chunks leave — the rows past the last common chunk of
/// every stream — is turned by the scalar loop, then reduced from memory,
/// each product's chains continued ([`Reduce::chunks`], [`Reduce::sums`]).
///
/// # Safety
/// As [`pass`].
#[inline(always)]
pub(super) unsafe fn step<G: Lanes, const R: usize, const N: usize, T: Operands<N>>(
    streams: [*mut f64; STEP_STREAMS],
    turns: [(f64, f64); R],
    [alen, ulen]: [usize; 2],
) -> [f64; N] {
    let fused = alen.min(ulen) / 8 * 8;
    let mut vt = [(G::splat(0.0), G::splat(0.0)); R];
    for r in 0..R {
        vt[r] = (G::splat(turns[r].0), G::splat(turns[r].1));
    }
    let mut acc = [[G::splat(0.0); 3]; N];
    for i in (0..fused).step_by(8) {
        let mut v = [G::splat(0.0); STEP_STREAMS];
        for f in 8..STEP_STREAMS {
            if reads::<N, true, T>(f) {
                v[f] = G::load(streams[f].add(i));
            }
        }
        for r in 0..R {
            let (c, s) = vt[r];
            let [ai, aj, ui, uj] =
                [streams[4 * r], streams[4 * r + 1], streams[4 * r + 2], streams[4 * r + 3]];
            let (a0, a1) = (G::load(ai.add(i)), G::load(aj.add(i)));
            let (u0, u1) = (G::load(ui.add(i)), G::load(uj.add(i)));
            (v[4 * r], v[4 * r + 1]) = turn_lanes(a0, a1, c, s);
            (v[4 * r + 2], v[4 * r + 3]) = turn_lanes(u0, u1, c, s);
            if G::STORE_EACH_PAIRING {
                for k in 4 * r..4 * r + 4 {
                    v[k].store(streams[k].add(i));
                }
            }
        }
        Reduce::<T, STEP_STREAMS, N, true>::products(&mut acc, &v);
        if !G::STORE_EACH_PAIRING {
            for k in 0..4 * R {
                v[k].store(streams[k].add(i));
            }
        }
    }
    for r in 0..R {
        let (c, s) = turns[r];
        for (x, len) in [(4 * r, alen), (4 * r + 2, ulen)] {
            let (x, y) = (streams[x], streams[x + 1]);
            for k in fused..len {
                (*x.add(k), *y.add(k)) = turn(*x.add(k), *y.add(k), c, s);
            }
        }
    }
    let streams = streams.map(<*mut f64>::cast_const);
    Reduce::<T, STEP_STREAMS, N, true>::chunks(&mut acc, streams, fused..alen / 8 * 8);
    Reduce::<T, STEP_STREAMS, N, true>::sums(acc, streams, alen / 8 * 8, alen).map(|[_, pq, _]| pq)
}

/// The two-lane SSE2 forms of a step's angles and kept diagonals: the one
/// place outside `lanes.rs` that names intrinsics. Each replacement with
/// the same bits measured slower on `logical_solve` (ten alternating pinned
/// pairs): the scalar `symmetric_schur` on each block +3.8 % (2 of 10 won),
/// a branch-free `[f64; 2]` form +1.3 % (2 of 10, just past the parent's
/// interquartile spread).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::rotation::JacobiRotation;
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
}
