//! Shared helpers for the experiment regenerators (`src/bin/*`) and the
//! criterion benches.

pub mod seedpath;

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// The results directory (`./results`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("cannot create results/");
    dir
}

/// Writes a CSV file into `results/` and reports the path on stdout.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = fs::File::create(&path).expect("cannot create CSV");
    writeln!(f, "{header}").unwrap();
    for row in rows {
        writeln!(f, "{row}").unwrap();
    }
    println!("  -> wrote {}", path.display());
    path
}

/// Pretty separator for experiment banners.
pub fn banner(title: &str) {
    println!("\n==== {title} {}", "=".repeat(66usize.saturating_sub(title.len())));
}

/// The [`seedpath::full_sweep`] workload on contiguous [`ColumnBlock`]
/// storage through the shared kernel: every column pair exactly once (all
/// intra-block pairs, then every block pair). With `cache_diagonals` the
/// per-sweep exact refresh is included, as in the real drivers. Returns
/// total rotations.
///
/// [`ColumnBlock`]: mph_eigen::ColumnBlock
pub fn column_block_full_sweep(
    blocks: &mut [mph_eigen::ColumnBlock],
    threshold: f64,
    cache_diagonals: bool,
) -> u64 {
    use mph_eigen::{pair_across_blocks, pair_within_block, refresh_block_diag, PairingRule};
    use mph_linalg::block::two_blocks_mut;
    let mut rotations = 0;
    for b in blocks.iter_mut() {
        if cache_diagonals {
            refresh_block_diag(b, PairingRule::Implicit);
        }
        rotations += pair_within_block(b, PairingRule::Implicit, threshold).rotations;
    }
    for bi in 0..blocks.len() {
        for bj in (bi + 1)..blocks.len() {
            let (left, right) = two_blocks_mut(blocks, bi, bj);
            rotations +=
                pair_across_blocks(left, right, PairingRule::Implicit, threshold).rotations;
        }
    }
    rotations
}

/// [`column_block_full_sweep`] the way the reference bits were executed
/// before the exact vector kernels: three separate `dot`s and the portable
/// scalar rotation per pairing, no cache. `perf_snapshot` races it against
/// the kernel's `Scalar` path (`kernel.reference_ms`) and requires the same
/// bits of both; like [`seedpath`] it exists only to be compared against.
pub fn column_block_full_sweep_reference(
    blocks: &mut [mph_eigen::ColumnBlock],
    threshold: f64,
) -> u64 {
    use mph_linalg::block::{cross_pair_mut, two_blocks_mut, PairViewMut};
    use mph_linalg::vecops::{dot, pair_rotate};
    fn pair(v: PairViewMut<'_>, threshold: f64) -> u64 {
        let (app, aqq, apq) = (dot(v.ui, v.ai), dot(v.uj, v.aj), dot(v.ui, v.aj));
        if apq.abs() <= threshold || apq == 0.0 {
            return 0;
        }
        let rot = mph_linalg::symmetric_schur(app, apq, aqq);
        pair_rotate(v.ai, v.aj, v.ui, v.uj, rot.c, rot.s);
        1
    }
    let mut rotations = 0;
    for b in blocks.iter_mut() {
        for i in 0..b.len() {
            for j in (i + 1)..b.len() {
                rotations += pair(b.pair_mut(i, j), threshold);
            }
        }
    }
    for bi in 0..blocks.len() {
        for bj in (bi + 1)..blocks.len() {
            let (left, right) = two_blocks_mut(blocks, bi, bj);
            for i in 0..left.len() {
                for j in 0..right.len() {
                    rotations += pair(cross_pair_mut(left, i, right, j), threshold);
                }
            }
        }
    }
    rotations
}

/// [`column_block_full_sweep`] routed through a configured [`SweepKernel`]
/// instead of the untiled reference free functions: the tiled sweeps, lane
/// kernels, and parked helper pool of the real drivers. `tour` is built by
/// the caller (`kern.tournament(..)`) and reused across sweeps, as a solve
/// holds one for all of its sweeps. This is the workload behind
/// `perf_snapshot`'s `"kernel"` block.
///
/// [`SweepKernel`]: mph_eigen::SweepKernel
pub fn column_block_full_sweep_kernel(
    blocks: &mut [mph_eigen::ColumnBlock],
    cache_diagonals: bool,
    kern: &mph_eigen::SweepKernel,
    tour: &mut mph_eigen::Tournament,
) -> u64 {
    use mph_linalg::block::two_blocks_mut;
    if cache_diagonals {
        for b in blocks.iter_mut() {
            mph_eigen::refresh_block_diag(b, kern.rule);
        }
    }
    let mut rotations = kern.within(tour, blocks.iter_mut()).rotations;
    // All block pairs, not a schedule's node-disjoint steps: one call each.
    for bi in 0..blocks.len() {
        for bj in (bi + 1)..blocks.len() {
            let (left, right) = two_blocks_mut(blocks, bi, bj);
            rotations += kern.across(tour, left, right).rotations;
        }
    }
    rotations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_sweep_and_the_kernel_sweep_produce_identical_blocks() {
        use mph_eigen::ColumnBlock;
        let m = 19;
        let a0 = mph_linalg::symmetric::random_symmetric(m, 6);
        let mut reference: Vec<ColumnBlock> = [0..5, 5..12, 12..19]
            .into_iter()
            .map(|cols| ColumnBlock::from_matrix_with_identity(&a0, cols, m))
            .collect();
        let mut kernel = reference.clone();
        for _ in 0..2 {
            let want = column_block_full_sweep_reference(&mut reference, 0.0);
            assert_eq!(column_block_full_sweep(&mut kernel, 0.0, false), want);
            assert_eq!(kernel, reference);
        }
    }

    #[test]
    fn results_dir_is_created() {
        let d = results_dir();
        assert!(d.exists());
    }
}
