//! The committed witness of "the solvers' bits are stable across releases":
//! a checksum over every output bit of 24 small solves, first pinned to
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
//! Both tables were re-captured, all 42 rows, when the inner product's
//! *definition* moved after commit 850d412: `mph_linalg::vecops::dot` went
//! from four multiply-then-add partial sums, `(s0+s1)+(s2+s3)`, to eight
//! fused multiply-add chains, `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, with
//! a fused tail. The rotations kept their bits. The constants of commit
//! 850d412 are in CHANGES.md.
//!
//! The inputs come from the vendored seeded RNG and the solvers use only
//! `+ − × ÷ √` and fused multiply-add, all correctly rounded by IEEE 754,
//! so the constants do not depend on the host, the vector tier it offers,
//! or the build profile — CI runs this file in both.

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

/// `(m, d, cache_diagonals, forced)` — six shapes per solver, every value of
/// every axis met at least twice, both parities of `m` against both `d` (17
/// columns on 8 blocks leaves blocks of 2 and 3 columns).
const SHAPES: [(usize, usize, bool, bool); 6] = [
    (17, 1, false, false),
    (40, 2, false, true),
    (17, 2, true, true),
    (40, 1, true, false),
    (40, 2, false, false),
    (17, 1, true, true),
];

const SOLVERS: [Solver; 4] =
    [Solver::BlockJacobi, Solver::OneSidedCyclic, Solver::SvdBlock, Solver::BlockJacobiThreaded];

/// Checksums, `SOLVERS` outer, `SHAPES` inner, re-captured when the inner
/// product's definition moved (file docs). Before that: first captured at
/// commit a70488e, rows 0–11, 18, 21 and 22 re-captured when the
/// convergence measure moved, and the last three shapes of every solver
/// (rows 3–5, 9–11, 15–17, 21–23) computed in the serial order at commit
/// 967c5f6, when the tile tournament's pairing order was deleted.
const GOLDEN: [u64; 24] = [
    0x872d2743f29d57d9,
    0x4b00c9c14bedfe17,
    0xd8ffc4adb56af692,
    0x52758c21dca206bb,
    0xcd17ed8ea0f5ea47,
    0xd2f4fd70b0579fac,
    0x7dc5b1f852a20008,
    0x9b4af058c27a6974,
    0xf766d6af54e6934a,
    0xb14b805e42cdb558,
    0xa8eba75eb98f3859,
    0x6cf24c474d718bfe,
    0x24d05c11874dea86,
    0xf00585577f36f871,
    0xac6ee2fe34a54070,
    0xa45c7869f20f7e76,
    0xc631949d0c5cbac8,
    0x7173ad59856a4e09,
    0xa1ec92e0cbc5ce9e,
    0x42e894806af632f8,
    0x784b15017e5694d1,
    0xe8e09f6c6abf9290,
    0x75e6d2ead8ff6d3b,
    0xd8843ddf5f880c7d,
];

/// History-less [`eigen_checksum`]s of the 18 eigen rows of `GOLDEN` (the
/// SVD rows skipped), re-captured with `GOLDEN`. Before that: first
/// captured at commit 9f34a1f; rows 12 and 16 — the threaded
/// `(17, 1, false, false)` and `(40, 2, false, false)`, 7 → 6 and 8 → 7
/// sweeps — re-captured when the convergence measure moved; rows 3–5, 9–11
/// and 15–17 from commit 967c5f6 (see `GOLDEN`).
const GOLDEN_SOLUTION: [u64; 18] = [
    0x2abe735ce2e8b360,
    0x748729a3b760fe53,
    0x30931764b5eec954,
    0xf0ef000c740b49db,
    0xb0ae461887f4ae0a,
    0x32e61363c3739af9,
    0x104c46906ec2d50a,
    0x448cf3cae67354cf,
    0xf963d056dc7ba655,
    0xcb21406845824be6,
    0x14ce17704ea45b93,
    0x6946c00c08f18220,
    0xf4c2c4c64d21887d,
    0x9b859669f7d322f8,
    0x18802579307f5051,
    0xd3d2df7555fd0199,
    0x2954b2f5bb331b1f,
    0xe6b5fede43b3867d,
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
    let shape @ (m, d, cache_diagonals, forced) = SHAPES[case % SHAPES.len()];
    let family = OrderingFamily::ALL[case % 4];
    let seed = 1000 + case as u64;
    let opts = JacobiOptions {
        cache_diagonals,
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
