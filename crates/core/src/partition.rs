//! Column-block partition: `m` columns into `2^{d+1}` blocks.
//!
//! The paper groups the `m` columns of `A` and `U` into `2^{d+1}` blocks of
//! `m/2^{d+1}` columns each, two blocks per node; "if m is not a power of
//! 2, the number of columns per block will differ in one unit at most"
//! (footnote 1). This module implements exactly that balanced partition.
//!
//! The partition lives in `mph-core` (rather than the eigensolver crate)
//! because it is one of the two inputs of the [`crate::commplan`] lowering:
//! block sizes are what turn a sweep schedule's transitions into concrete
//! message sizes.

/// Balanced contiguous partition of `0..m` into `nblocks` ranges whose
/// sizes differ by at most one (larger blocks first): the first `extra`
/// blocks hold `base + 1` columns, the rest `base`, so a block's range is
/// arithmetic and the partition stores no table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPartition {
    nblocks: usize,
    base: usize,
    extra: usize,
}

impl BlockPartition {
    pub fn new(m: usize, nblocks: usize) -> Self {
        assert!(nblocks >= 1);
        BlockPartition { nblocks, base: m / nblocks, extra: m % nblocks }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.nblocks
    }

    /// True when there are no blocks (never: `nblocks ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First column of block `b`.
    fn start(&self, b: usize) -> usize {
        b * self.base + b.min(self.extra)
    }

    /// Column range of block `b`.
    pub fn cols(&self, b: usize) -> std::ops::Range<usize> {
        self.start(b)..self.start(b) + self.size(b)
    }

    /// Size of block `b`.
    ///
    /// # Panics
    /// Panics if `b` is not a block of the partition.
    pub fn size(&self, b: usize) -> usize {
        assert!(b < self.nblocks, "block {b} out of range for {} blocks", self.nblocks);
        self.base + usize::from(b < self.extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let p = BlockPartition::new(16, 4);
        assert_eq!(p.len(), 4);
        for b in 0..4 {
            assert_eq!(p.size(b), 4);
        }
        assert_eq!(p.cols(2), 8..12);
    }

    #[test]
    fn uneven_division_differs_by_at_most_one() {
        let p = BlockPartition::new(10, 4);
        let sizes: Vec<usize> = (0..4).map(|b| p.size(b)).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn blocks_tile_the_range() {
        for m in [0usize, 1, 7, 8, 20] {
            for nb in [1usize, 2, 4, 8] {
                let p = BlockPartition::new(m, nb);
                let mut covered = Vec::new();
                for b in 0..p.len() {
                    covered.extend(p.cols(b));
                }
                assert_eq!(covered, (0..m).collect::<Vec<_>>(), "m={m} nb={nb}");
            }
        }
    }

    #[test]
    fn more_blocks_than_columns_gives_empty_blocks() {
        let p = BlockPartition::new(3, 8);
        let total: usize = (0..8).map(|b| p.size(b)).sum();
        assert_eq!(total, 3);
        assert!(p.size(7) == 0);
    }
}
