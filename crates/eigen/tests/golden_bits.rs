//! The 24 golden solves on the vector unit the host dispatches to, held to
//! both tables of `golden/mod.rs`, which tells their history.

mod golden;

use golden::{assert_golden, solve, GOLDEN, GOLDEN_SOLUTION};

#[test]
fn scalar_solves_reproduce_the_bits_of_the_commit_before_the_exact_kernels() {
    let rows = (0..GOLDEN.len()).map(solve);
    assert_golden(rows.map(|(row, full, _)| (row, full)).collect(), &GOLDEN);
}

#[test]
fn eigen_solves_reproduce_the_solution_bits_whatever_measures_their_convergence() {
    let rows = (0..GOLDEN.len()).map(solve);
    assert_golden(rows.filter_map(|(row, _, sol)| Some((row, sol?))).collect(), &GOLDEN_SOLUTION);
}
