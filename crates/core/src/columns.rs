//! Column-level parallel Jacobi orderings (paper §2.2).
//!
//! A *parallel Jacobi ordering* organizes the `m(m−1)/2` similarity
//! transformations of a sweep into (at most) `m−1` *steps* of `m/2`
//! independent transformations — pairings of disjoint column pairs. The
//! block algorithms of this crate operate at block granularity; this
//! module expands a block-level [`SweepSchedule`] into the column-level
//! ordering it induces, and proves the count identity the paper relies on:
//!
//! * each block holds `c = m/2^{d+1}` columns;
//! * the intra-block pairings of step (1) form `c−1` column-steps (the
//!   classical round-robin tournament inside every block, all blocks in
//!   parallel);
//! * each of the `2^{d+1}−1` block-steps expands to `c` column-steps (the
//!   `c×c` bipartite pairing as `c` rotations of a cyclic offset);
//! * total: `(c−1) + (2^{d+1}−1)·c = m−1` steps of `m/2` pairs. ∎
//!
//! The expansion is validated like the block schedule: every column pair
//! exactly once per sweep, every column in at most one pair per step.

use crate::coverage::{trace_sweep, BlockLayout};
use crate::partition::BlockPartition;
use crate::sweep::SweepSchedule;

/// A column-level parallel Jacobi ordering: `steps[s]` lists the disjoint
/// column pairs rotated at step `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnOrdering {
    pub m: usize,
    pub steps: Vec<Vec<(usize, usize)>>,
}

/// Round-robin (circle method) rounds pairing all columns of one range:
/// `size−1` rounds for even sizes, `size` rounds with a bye for odd.
fn round_robin_rounds(range: std::ops::Range<usize>) -> Vec<Vec<(usize, usize)>> {
    let cols: Vec<usize> = range.collect();
    let n = cols.len();
    if n < 2 {
        return Vec::new();
    }
    let even = n.is_multiple_of(2);
    let slots = if even { n } else { n + 1 }; // virtual bye at the end
    let rounds = slots - 1;
    let mut out = Vec::with_capacity(rounds);
    // Circle method: fix slot 0, rotate the rest.
    let mut circle: Vec<usize> = (0..slots).collect();
    for _ in 0..rounds {
        let mut pairs = Vec::with_capacity(n / 2);
        for k in 0..slots / 2 {
            let (a, b) = (circle[k], circle[slots - 1 - k]);
            if a < n && b < n {
                let (x, y) = (cols[a], cols[b]);
                pairs.push((x.min(y), x.max(y)));
            }
        }
        out.push(pairs);
        circle[1..].rotate_right(1);
    }
    out
}

/// Bipartite rounds pairing every column of `left` with every column of
/// `right`: `max(|left|, |right|)` rounds of cyclic offsets.
fn bipartite_rounds(
    left: std::ops::Range<usize>,
    right: std::ops::Range<usize>,
) -> Vec<Vec<(usize, usize)>> {
    let l: Vec<usize> = left.collect();
    let r: Vec<usize> = right.collect();
    if l.is_empty() || r.is_empty() {
        return Vec::new();
    }
    let rounds = l.len().max(r.len());
    (0..rounds)
        .map(|off| {
            // Pair l[i] with r[(i+off) mod rounds] when that slot is real.
            (0..rounds)
                .filter_map(|i| {
                    let a = *l.get(i)?;
                    let b = *r.get((i + off) % rounds)?;
                    Some((a.min(b), a.max(b)))
                })
                .collect()
        })
        .collect()
}

/// Expands one sweep of `schedule` (from `layout`) into the column-level
/// parallel ordering for an `m`-column problem.
pub fn column_ordering(schedule: &SweepSchedule, layout: &BlockLayout, m: usize) -> ColumnOrdering {
    let part = BlockPartition::new(m, 2 << schedule.dim());
    let trace = trace_sweep(schedule, layout);
    let mut steps: Vec<Vec<(usize, usize)>> = Vec::new();

    // Step (1): intra-block round-robin, all blocks in parallel.
    let per_block: Vec<Vec<Vec<(usize, usize)>>> =
        (0..part.len()).map(|b| round_robin_rounds(part.cols(b))).collect();
    let intra_rounds = per_block.iter().map(|r| r.len()).max().unwrap_or(0);
    for round in 0..intra_rounds {
        let mut step = Vec::new();
        for rounds in &per_block {
            if let Some(pairs) = rounds.get(round) {
                step.extend_from_slice(pairs);
            }
        }
        if !step.is_empty() {
            steps.push(step);
        }
    }

    // Steps (2)…: every block-step expands to bipartite rounds, all nodes
    // in parallel.
    for block_step in &trace.steps {
        let per_node: Vec<Vec<Vec<(usize, usize)>>> = block_step
            .iter()
            .map(|&(b0, b1)| bipartite_rounds(part.cols(b0), part.cols(b1)))
            .collect();
        let rounds = per_node.iter().map(|r| r.len()).max().unwrap_or(0);
        for round in 0..rounds {
            let mut step = Vec::new();
            for node_rounds in &per_node {
                if let Some(pairs) = node_rounds.get(round) {
                    step.extend_from_slice(pairs);
                }
            }
            if !step.is_empty() {
                steps.push(step);
            }
        }
    }

    ColumnOrdering { m, steps }
}

/// Errors a column ordering can exhibit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnOrderingError {
    /// A column appears twice within one step (pairs not disjoint).
    ColumnReused { step: usize, column: usize },
    /// A pair appears `count` times over the sweep (≠ 1).
    BadPairCount { i: usize, j: usize, count: usize },
}

impl std::fmt::Display for ColumnOrderingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnOrderingError::ColumnReused { step, column } => {
                write!(f, "column {column} used twice in step {step}")
            }
            ColumnOrderingError::BadPairCount { i, j, count } => {
                write!(f, "pair ({i},{j}) appears {count} times, expected 1")
            }
        }
    }
}

impl std::error::Error for ColumnOrderingError {}

/// Validates that `ordering` is a correct parallel Jacobi ordering:
/// disjoint pairs within each step, every pair exactly once overall.
pub fn validate_column_ordering(ordering: &ColumnOrdering) -> Result<(), ColumnOrderingError> {
    let m = ordering.m;
    let mut counts = vec![0usize; m * m];
    for (s, step) in ordering.steps.iter().enumerate() {
        let mut used = vec![false; m];
        for &(i, j) in step {
            assert!(i < j && j < m, "malformed pair ({i},{j})");
            for col in [i, j] {
                if used[col] {
                    return Err(ColumnOrderingError::ColumnReused { step: s, column: col });
                }
                used[col] = true;
            }
            counts[i * m + j] += 1;
        }
    }
    for i in 0..m {
        for j in (i + 1)..m {
            let c = counts[i * m + j];
            if c != 1 {
                return Err(ColumnOrderingError::BadPairCount { i, j, count: c });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::OrderingFamily;

    fn ordering_for(d: usize, m: usize, family: OrderingFamily) -> ColumnOrdering {
        let schedule = SweepSchedule::first_sweep(d, family);
        let layout = BlockLayout::canonical(d);
        column_ordering(&schedule, &layout, m)
    }

    #[test]
    fn round_robin_covers_all_pairs() {
        for n in 2..10 {
            let rounds = round_robin_rounds(0..n);
            assert_eq!(rounds.len(), if n % 2 == 0 { n - 1 } else { n });
            let mut seen = std::collections::HashSet::new();
            for round in &rounds {
                let mut used = std::collections::HashSet::new();
                for &(a, b) in round {
                    assert!(used.insert(a) && used.insert(b), "n={n}: reuse in round");
                    assert!(seen.insert((a, b)), "n={n}: pair repeated");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn bipartite_covers_the_product() {
        for (l, r) in [(3usize, 3usize), (2, 4), (4, 2), (1, 5)] {
            let rounds = bipartite_rounds(0..l, l..l + r);
            let mut seen = std::collections::HashSet::new();
            for round in &rounds {
                let mut used = std::collections::HashSet::new();
                for &(a, b) in round {
                    assert!(used.insert(a) && used.insert(b));
                    assert!(seen.insert((a, b)));
                }
            }
            assert_eq!(seen.len(), l * r, "l={l} r={r}");
        }
    }

    #[test]
    fn paper_step_count_identity() {
        // m divisible by 2^{d+2} (so c is even): exactly m−1 steps of m/2.
        for (d, m) in [(1usize, 8usize), (1, 16), (2, 16), (2, 32), (3, 32), (3, 64)] {
            for family in OrderingFamily::ALL {
                let o = ordering_for(d, m, family);
                assert_eq!(o.steps.len(), m - 1, "{family} d={d} m={m}");
                for (s, step) in o.steps.iter().enumerate() {
                    assert_eq!(step.len(), m / 2, "{family} d={d} m={m} step {s}");
                }
                validate_column_ordering(&o).unwrap();
            }
        }
    }

    #[test]
    fn odd_block_sizes_still_cover() {
        // c odd (or uneven blocks): byes appear, step count exceeds m−1,
        // but coverage and disjointness must still hold.
        for (d, m) in [(1usize, 12usize), (2, 24), (1, 10), (2, 18)] {
            let o = ordering_for(d, m, OrderingFamily::Br);
            validate_column_ordering(&o).unwrap_or_else(|e| panic!("d={d} m={m}: {e}"));
        }
    }

    #[test]
    fn rotated_sweeps_also_expand_correctly() {
        let d = 2;
        let m = 16;
        for s in 0..d {
            let schedule = SweepSchedule::sweep(d, OrderingFamily::Degree4, s);
            let o = column_ordering(&schedule, &BlockLayout::canonical(d), m);
            validate_column_ordering(&o).unwrap();
            assert_eq!(o.steps.len(), m - 1);
        }
    }

    #[test]
    fn validator_rejects_duplicate_pair() {
        let o = ColumnOrdering {
            m: 4,
            steps: vec![
                vec![(0, 1), (2, 3)],
                vec![(0, 2), (1, 3)],
                vec![(0, 3), (1, 2)],
                vec![(0, 1)],
            ],
        };
        assert!(matches!(
            validate_column_ordering(&o),
            Err(ColumnOrderingError::BadPairCount { i: 0, j: 1, count: 2 })
        ));
    }

    #[test]
    fn validator_rejects_column_reuse() {
        let o = ColumnOrdering { m: 4, steps: vec![vec![(0, 1), (1, 3)]] };
        assert!(matches!(
            validate_column_ordering(&o),
            Err(ColumnOrderingError::ColumnReused { step: 0, column: 1 })
        ));
    }
}
