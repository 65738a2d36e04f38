//! The 24 golden solves once per vector unit the host reports, held to both
//! tables of `golden/mod.rs`. A test binary of its own: the tier override
//! is process-wide, and `golden_bits`' solves must meet only the tier the
//! host dispatches to.

mod golden;

use golden::{assert_golden, solve, GOLDEN, GOLDEN_SOLUTION};

#[test]
fn every_tier_the_host_reports_reproduces_both_tables() {
    // `golden_bits` runs on the widest vector unit the host has; the bits
    // are every tier's, so the 24 solves run once per tier it reports —
    // portable, AVX2 with FMA, AVX-512 — each whole solve, its worker
    // threads included, dispatched to that tier.
    for tier in mph_linalg::vecops::host_tiers() {
        let rows: Vec<_> =
            mph_linalg::vecops::with_tier(tier, || (0..GOLDEN.len()).map(solve).collect());
        let full = rows.iter().map(|(row, full, _)| (format!("{tier:?} {row}"), *full)).collect();
        assert_golden(full, &GOLDEN);
        let solution =
            rows.iter().filter_map(|(row, _, sol)| Some((format!("{tier:?} {row}"), (*sol)?)));
        assert_golden(solution.collect(), &GOLDEN_SOLUTION);
    }
}
