//! The tables and solves of the committed witness of "the solvers' bits are
//! stable across releases": a checksum over every output bit of 24 small
//! solves, first pinned to constants captured at the commit *before* the
//! reference bits were first executed by vector kernels. A kernel change
//! that moves one bit of one eigenvalue, vector entry, `off_history` value,
//! sweep or rotation count fails here, in this repository, without a
//! scratch copy of the parent to compare against.
//!
//! Two tables. `GOLDEN_SOLUTION` hashes what a solve *computed* (values,
//! vectors, sweeps, rotations); `GOLDEN` adds how its convergence was
//! *measured* (`off_history`). A later change replaced the measure — the
//! Gram off-norm and the threaded look-behind vote became one
//! eigen-residual, `mph_eigen::offnorm` — with `GOLDEN_SOLUTION` captured
//! at its parent first: every logical and forced row reproduced it
//! unedited. Re-captured after, because their *definition* moved: in
//! `GOLDEN` the 12 logical eigen rows (`off_history` bits) and the 3
//! unforced threaded rows (`off_history` was empty); in both tables the two
//! of those three that now stop a sweep earlier, where their logical solves
//! always stopped.
//!
//! Both tables were re-captured, all 42 rows, when the inner product's
//! *definition* moved after commit 850d412: `mph_linalg::vecops::dot` went
//! from four multiply-then-add partial sums, `(s0+s1)+(s2+s3)`, to eight
//! fused multiply-add chains, `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, with
//! a fused tail. The rotations kept their bits. The constants of commit
//! 850d412 are in CHANGES.md.
//!
//! Both tables were re-captured once more, all 42 rows, when the plane
//! rotation's *definition* moved after commit b2387c3: from `c·x − s·y`,
//! `s·x + c·y` (two products and an add, three roundings an entry) to
//! `fma(c, x, −(s·y))`, `fma(s, x, c·y)` (a product and a fused
//! multiply-add, two), in every rotator tier and the two-sided oracle. The
//! inner products kept their definition. The constants of commit b2387c3
//! are in CHANGES.md.
//!
//! Both tables were re-captured a third time, when the pairing's
//! *diagonals* moved after commit 2ac0a7a: every pairing reads `M_ii` and
//! `M_jj` (or `‖w_i‖²`, `‖w_j‖²`) from a cache that lives for one
//! sweep-kernel call — each reduced exactly when the call takes its block,
//! kept by the 2×2 similarity update under rotation — where an uncached
//! pairing had reduced them afresh and a cached one had read a cache kept
//! for a whole sweep. `cache_diagonals` became inert. Only the rows whose
//! sweep was already one call per sweep kept their bits: the one-sided
//! cyclic solves with the cache on (rows 8, 9 and 11 of `GOLDEN`, 8, 9 and
//! 11 of `GOLDEN_SOLUTION`). The constants of commit 2ac0a7a are in
//! CHANGES.md.
//!
//! The inputs come from the vendored seeded RNG and the solvers use only
//! `+ − × ÷ √` and fused multiply-add, all correctly rounded by IEEE 754,
//! so the constants do not depend on the host, the vector tier it offers,
//! or the build profile — CI runs both test files in both.
//!
//! Two test binaries share this module: `golden_bits` solves on the tier
//! the host dispatches to, and `golden_bits_tiers` once per tier the host
//! reports. The tier override is process-wide, so the per-tier solves run
//! in a process of their own, where no dispatch-tier solve can meet it.

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
/// columns on 8 blocks leaves blocks of 2 and 3 columns). `cache_diagonals`
/// is inert since the per-call cache; the rows keep it, so that the tables
/// stay comparable with their history.
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
/// product's definition moved, again when the rotation's did and again when
/// the diagonals' cache became one per kernel call (file docs). Before
/// that: first captured at
/// commit a70488e, rows 0–11, 18, 21 and 22 re-captured when the
/// convergence measure moved, and the last three shapes of every solver
/// (rows 3–5, 9–11, 15–17, 21–23) computed in the serial order at commit
/// 967c5f6, when the tile tournament's pairing order was deleted.
pub const GOLDEN: [u64; 24] = [
    0x0d96134eb0218dbe,
    0x195d469627e8e0b9,
    0x9786e46f25f85cd2,
    0xdbc4d3f2b6a03c6a,
    0x2acff2c8ceb1d6e8,
    0x0118f2bcd4e9ecd6,
    0xc3fc4606503fac28,
    0xb629e0d4bd40dea0,
    0x9707bdab1a3087fa,
    0xed2df65cfc622610,
    0x1906a777d691dc4d,
    0x55a2a4a2a4786d5e,
    0x559a19d2d5c75b0e,
    0x6c024ff2843bce42,
    0x286b533e0e86aa6e,
    0xdf6c9e47dd833557,
    0x5953a03b6cf74f70,
    0xcb50a8c378d2edd5,
    0x883f84c18d55db9d,
    0xc22508895a56a1ea,
    0x15d4af809aea60b0,
    0x41bac22bcb70d1aa,
    0x26d6f21e16cc20c8,
    0x362c17096d14e24f,
];

/// History-less [`eigen_checksum`]s of the 18 eigen rows of `GOLDEN` (the
/// SVD rows skipped), re-captured with `GOLDEN`. Before that: first
/// captured at commit 9f34a1f; rows 12 and 16 — the threaded
/// `(17, 1, false, false)` and `(40, 2, false, false)`, 7 → 6 and 8 → 7
/// sweeps — re-captured when the convergence measure moved; rows 3–5, 9–11
/// and 15–17 from commit 967c5f6 (see `GOLDEN`).
pub const GOLDEN_SOLUTION: [u64; 18] = [
    0x3f28d01bb73b57c6,
    0x757acde13bfa8dd4,
    0x0fcc743c9dfd2c01,
    0x1dc198256308e98a,
    0x93465a0bb3481a86,
    0xae660c4e5e6c97b2,
    0x9412743cc66b4f7d,
    0x4e89c1269d6fb038,
    0x0b447e5a8702fe11,
    0xba7a39969c28cc85,
    0x487d7c1df3657e41,
    0x47bcd5fa8c9ba385,
    0x74e518f5880e33d3,
    0xa31a2475ae7bebaa,
    0x13ad0c7717f7e790,
    0x40d57b587717a291,
    0xf09baaa3539c8683,
    0x3e90fc51a16e418f,
];

/// A tall `rows × cols` matrix on `[-1, 1]`: the rectangular SVD case, where
/// the `W`- and `V`-columns of a pair differ in length.
fn random_rect(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..=1.0))
}

/// Solve `case`: its row's name, its checksum and, for an eigen row, its
/// checksum without `off_history`.
pub fn solve(case: usize) -> (String, u64, Option<u64>) {
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
pub fn assert_golden(got: Vec<(String, u64)>, golden: &[u64]) {
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
