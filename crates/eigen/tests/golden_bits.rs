//! The committed witness of "`KernelPath::Scalar` is bitwise-stable across
//! releases": a checksum over every output bit of 24 small solves, pinned to
//! constants captured at the commit *before* the reference bits were first
//! executed by vector kernels (PR 15). A kernel change that moves one bit of
//! one eigenvalue, vector entry, `off_history` value, sweep or rotation
//! count fails here, in this repository, without a scratch copy of the
//! parent to compare against.
//!
//! Two tables. `GOLDEN_SOLUTION` hashes what a solve *computed* (values,
//! vectors, sweeps, rotations); `GOLDEN` adds how its convergence was
//! *measured* (`off_history`). PR 21 replaced the measure — the Gram
//! off-norm and the threaded look-behind vote became one eigen-residual,
//! `mph_eigen::offnorm` — with `GOLDEN_SOLUTION` captured at its parent
//! first: every logical and forced row reproduced it unedited. Re-captured
//! after, because their *definition* moved: in `GOLDEN` the 12 logical
//! eigen rows (`off_history` bits) and the 3 unforced threaded rows
//! (`off_history` was empty); in both tables the two of those three that
//! now stop a sweep earlier, where their logical solves always stopped.
//!
//! The inputs come from the vendored seeded RNG and the solvers use only
//! `+ − × ÷ √`, all correctly rounded by IEEE 754, so the constants do not
//! depend on the host, the vector tier it offers, or the build profile —
//! CI runs this file in both.

use mph_core::OrderingFamily;
use mph_eigen::{
    block_jacobi, block_jacobi_threaded, one_sided_cyclic, svd_block, EigenResult, JacobiOptions,
    SvdResult,
};
use mph_linalg::symmetric::random_symmetric;
use mph_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words, fed byte by byte (little-endian).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn values(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }
}

/// Every output bit of an eigensolve — or, without `off_history`, what the
/// solve computed apart from how its convergence was measured.
fn eigen_checksum(r: &EigenResult, with_history: bool) -> u64 {
    let mut h = Fnv::new();
    h.values(&r.eigenvalues);
    h.values(r.eigenvectors.as_slice());
    if with_history {
        h.values(&r.off_history);
    }
    h.word(r.sweeps as u64);
    h.word(r.rotations);
    h.0
}

fn svd_checksum(r: &SvdResult) -> u64 {
    let mut h = Fnv::new();
    h.values(&r.singular_values);
    h.values(r.u.as_slice());
    h.values(r.v.as_slice());
    h.word(r.sweeps as u64);
    h.word(r.rotations);
    h.0
}

#[derive(Debug, Clone, Copy)]
enum Solver {
    BlockJacobi,
    OneSidedCyclic,
    SvdBlock,
    BlockJacobiThreaded,
}

/// `(m, d, cache_diagonals, workers, forced)` — six shapes per solver, every
/// value of every axis met at least twice, both parities of `m` against
/// both `d` (17 columns on 8 blocks leaves blocks of 2 and 3 columns).
const SHAPES: [(usize, usize, bool, usize, bool); 6] = [
    (17, 1, false, 0, false),
    (40, 2, false, 0, true),
    (17, 2, true, 0, true),
    (40, 1, true, 2, false),
    (40, 2, false, 2, false),
    (17, 1, true, 2, true),
];

const SOLVERS: [Solver; 4] =
    [Solver::BlockJacobi, Solver::OneSidedCyclic, Solver::SvdBlock, Solver::BlockJacobiThreaded];

/// Checksums at commit a70488e (PR 14), `SOLVERS` outer, `SHAPES` inner;
/// rows 0–11, 18, 21 and 22 re-captured at PR 21 (file docs).
const GOLDEN: [u64; 24] = [
    0xb8216f2218ce0c8e,
    0xc69dafe9eef004d5,
    0xad67b4eebcdc4c95,
    0xb11aa4d0b7e006f1,
    0x5f50435d71dc203b,
    0x8f52f24576e4518a,
    0x312f76167fe454cd,
    0xdbd7de14559a195c,
    0xbd8e2db4277c4430,
    0xa50f7e430e8ee38c,
    0x1f90af400df6637b,
    0x785317a29b6f19a5,
    0x675502d76547aae7,
    0xc724576f4683819a,
    0x5d63ad55482535e3,
    0xd787dd69f395176f,
    0x7f68bcb4c8aee24b,
    0x62e211b72f3cf5dd,
    0xf3c38aee8c07427c,
    0x1e518701509fe47a,
    0x3e467a30d02c409c,
    0xf6e7d66be04f3a9f,
    0x0027a5b4052d4f72,
    0xe344400a4c358ab1,
];

/// History-less [`eigen_checksum`]s of the 18 eigen rows of `GOLDEN` (the SVD rows
/// skipped), captured at commit 9f34a1f (PR 20); rows 12 and 16 — the
/// threaded `(17, 1, false, 0, false)` and `(40, 2, false, 2, false)`, 7 → 6
/// and 8 → 7 sweeps — re-captured at PR 21.
const GOLDEN_SOLUTION: [u64; 18] = [
    0x7240d43cf7e95a83,
    0xd9252dbd62b1d2fa,
    0x4f70ee97fb2e016e,
    0x3846e5601ad75c62,
    0x09193a9c4a96f914,
    0x0874bf500a0632a9,
    0x43c8869a994327b6,
    0x052739b6f0888320,
    0x72cce5f96ac7a9da,
    0x0f2ca477046b0edd,
    0xb01ecbea941b5d72,
    0x4b2fdd17f0762090,
    0xfad526832b50c4de,
    0x2a76cc8b54c2c03a,
    0x453be730ac4085fc,
    0xc04bb2cf9887e161,
    0xf7f2531a80f81192,
    0x3bd70738a9644a31,
];

/// A tall `rows × cols` matrix on `[-1, 1]`: the rectangular SVD case, where
/// the `W`- and `V`-columns of a pair differ in length.
fn random_rect(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..=1.0))
}

/// Solve `case`: its row's name, its checksum and, for an eigen row, its
/// checksum without `off_history`.
fn solve(case: usize) -> (String, u64, Option<u64>) {
    let solver = SOLVERS[case / SHAPES.len()];
    let shape @ (m, d, cache_diagonals, workers, forced) = SHAPES[case % SHAPES.len()];
    let family = OrderingFamily::ALL[case % 4];
    let seed = 1000 + case as u64;
    let opts = JacobiOptions {
        cache_diagonals,
        workers,
        force_sweeps: forced.then_some(2),
        ..JacobiOptions::default()
    };
    let eigen = |r: EigenResult| (eigen_checksum(&r, true), Some(eigen_checksum(&r, false)));
    let (full, solution) = match solver {
        Solver::BlockJacobi => eigen(block_jacobi(&random_symmetric(m, seed), d, family, &opts)),
        Solver::OneSidedCyclic => eigen(one_sided_cyclic(&random_symmetric(m, seed), &opts)),
        Solver::SvdBlock => {
            (svd_checksum(&svd_block(&random_rect(m + 7, m, seed), d, family, &opts)), None)
        }
        Solver::BlockJacobiThreaded => {
            eigen(block_jacobi_threaded(&random_symmetric(m, seed), d, family, &opts).result)
        }
    };
    (format!("{solver:?} {shape:?}"), full, solution)
}

/// Panics with the rows of `got` that differ from `golden` and the table
/// this build computes.
fn assert_golden(got: Vec<(String, u64)>, golden: &[u64]) {
    assert_eq!(got.len(), golden.len());
    let moved: Vec<&str> = got
        .iter()
        .zip(golden)
        .filter(|((_, g), want)| g != *want)
        .map(|((row, _), _)| &row[..])
        .collect();
    if !moved.is_empty() {
        let table: Vec<String> = got.iter().map(|(_, x)| format!("    {x:#018x},")).collect();
        panic!(
            "{} of {} solves moved a bit: {}\nthis build computes\n{}",
            moved.len(),
            golden.len(),
            moved.join("; "),
            table.join("\n")
        );
    }
}

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
