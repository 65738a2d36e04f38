//! Convergence-measurement harness — the machinery behind Table 2.
//!
//! The paper measures "the number of sweeps required by BR, permuted-BR
//! and degree-4 orderings, for different matrix sizes (m) and different
//! number of nodes (P). The test matrices have been generated with random
//! numbers on the interval [-1,1] having a uniform distribution. Since 30
//! different matrices have been tested for every value of m and P, the
//! average number of sweeps is shown."

use crate::blockjacobi::block_jacobi;
use crate::options::JacobiOptions;
use mph_core::OrderingFamily;
use mph_linalg::symmetric::random_symmetric;

/// Aggregate convergence statistics over a batch of random matrices.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceStats {
    pub family: OrderingFamily,
    pub m: usize,
    /// Nodes `P = 2^d`.
    pub p: usize,
    pub trials: usize,
    pub mean_sweeps: f64,
    pub min_sweeps: usize,
    pub max_sweeps: usize,
    /// Trials that failed to converge within the sweep budget (should be 0).
    pub failures: usize,
}

/// Runs `trials` seeded random `m × m` problems on a `log2(p)`-cube and
/// averages the integer sweep counts.
///
/// # Panics
/// Panics unless `p` is a power of two and `p ≥ 1`.
pub fn convergence_stats(
    family: OrderingFamily,
    m: usize,
    p: usize,
    trials: usize,
    opts: &JacobiOptions,
    seed0: u64,
) -> ConvergenceStats {
    assert!(p.is_power_of_two(), "P must be a power of two");
    let d = p.trailing_zeros() as usize;
    let mut total = 0usize;
    let mut min_sweeps = usize::MAX;
    let mut max_sweeps = 0usize;
    let mut failures = 0usize;
    for t in 0..trials {
        let a = random_symmetric(m, seed0 + t as u64);
        let r = block_jacobi(&a, d, family, opts);
        if !r.converged {
            failures += 1;
        }
        total += r.sweeps;
        min_sweeps = min_sweeps.min(r.sweeps);
        max_sweeps = max_sweeps.max(r.sweeps);
    }
    ConvergenceStats {
        family,
        m,
        p,
        trials,
        mean_sweeps: total as f64 / trials as f64,
        min_sweeps,
        max_sweeps,
        failures,
    }
}

/// The `(m, P)` grid of Table 2: every `m ∈ {8,16,32,64}` with every power
/// of two `P` satisfying `2 ≤ P ≤ m/2` (14 rows, pinned by
/// `tests::grid_matches_paper_row_count`).
pub fn table2_grid() -> Vec<(usize, usize)> {
    let mut rows = Vec::new();
    for m in [8usize, 16, 32, 64] {
        let mut p = 2usize;
        while p <= m / 2 {
            rows.push((m, p));
            p *= 2;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_paper_row_count() {
        let g = table2_grid();
        assert_eq!(g.len(), 14);
        assert_eq!(g[0], (8, 2));
        assert_eq!(g[1], (8, 4));
        assert!(g.contains(&(64, 32)));
        assert!(!g.contains(&(8, 8))); // blocks would be empty... P ≤ m/2
    }

    #[test]
    fn stats_are_deterministic_given_seed() {
        let opts = JacobiOptions::default();
        let a = convergence_stats(OrderingFamily::Br, 8, 2, 3, &opts, 7);
        let b = convergence_stats(OrderingFamily::Br, 8, 2, 3, &opts, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_counts_land_in_the_papers_band() {
        // Paper's Table 2 reports 3.2–6.1 sweeps across the grid. A small
        // sample must land in a compatible band.
        let opts = JacobiOptions::default();
        let s = convergence_stats(OrderingFamily::Br, 16, 4, 5, &opts, 1000);
        assert_eq!(s.failures, 0);
        assert!(s.mean_sweeps >= 3.0 && s.mean_sweeps <= 8.0, "mean sweeps {}", s.mean_sweeps);
    }

    #[test]
    fn orderings_converge_alike() {
        // The Table-2 conclusion: convergence rates are practically equal.
        let opts = JacobiOptions::default();
        let br = convergence_stats(OrderingFamily::Br, 16, 4, 5, &opts, 50);
        let pbr = convergence_stats(OrderingFamily::PermutedBr, 16, 4, 5, &opts, 50);
        let d4 = convergence_stats(OrderingFamily::Degree4, 16, 4, 5, &opts, 50);
        assert!((br.mean_sweeps - pbr.mean_sweeps).abs() <= 1.0);
        assert!((br.mean_sweeps - d4.mean_sweeps).abs() <= 1.0);
    }
}
