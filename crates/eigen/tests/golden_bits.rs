//! The committed witness of "`KernelPath::Scalar` is bitwise-stable across
//! releases": a checksum over every output bit of 24 small solves, pinned to
//! constants captured at the commit *before* the reference bits were first
//! executed by vector kernels (PR 15). A kernel change that moves one bit of
//! one eigenvalue, vector entry, `off_history` value, sweep or rotation
//! count fails here, in this repository, without a scratch copy of the
//! parent to compare against.
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

fn eigen_checksum(r: &EigenResult) -> u64 {
    let mut h = Fnv::new();
    h.values(&r.eigenvalues);
    h.values(r.eigenvectors.as_slice());
    h.values(&r.off_history);
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

/// Checksums at commit a70488e (PR 14), `SOLVERS` outer, `SHAPES` inner.
const GOLDEN: [u64; 24] = [
    0xbdf0a0301a041f90,
    0xd0ba505952ef892c,
    0xf0b67e4e630ca4dc,
    0x90f723ddca51eea1,
    0x1fbf26310b64284b,
    0x04fc3b86f62d69ff,
    0x6f31cd570fcdbd6c,
    0xc5ca1bb68e28028d,
    0x3b3a7f2f1a426747,
    0xff95f5bf13d65377,
    0xeb480d09902406fc,
    0x9e9212050f00a1a2,
    0x675502d76547aae7,
    0xc724576f4683819a,
    0x5d63ad55482535e3,
    0xd787dd69f395176f,
    0x7f68bcb4c8aee24b,
    0x62e211b72f3cf5dd,
    0x5ed923639e1ad39d,
    0x1e518701509fe47a,
    0x3e467a30d02c409c,
    0x3dde200e62cc9341,
    0xe6cd9e7dede3f0f1,
    0xe344400a4c358ab1,
];

/// A tall `rows × cols` matrix on `[-1, 1]`: the rectangular SVD case, where
/// the `W`- and `V`-columns of a pair differ in length.
fn random_rect(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..=1.0))
}

fn solve(solver: Solver, case: usize) -> u64 {
    let (m, d, cache_diagonals, workers, forced) = SHAPES[case % SHAPES.len()];
    let family = OrderingFamily::ALL[case % 4];
    let seed = 1000 + case as u64;
    let opts = JacobiOptions {
        cache_diagonals,
        workers,
        force_sweeps: forced.then_some(2),
        ..JacobiOptions::default()
    };
    match solver {
        Solver::BlockJacobi => {
            eigen_checksum(&block_jacobi(&random_symmetric(m, seed), d, family, &opts))
        }
        Solver::OneSidedCyclic => {
            eigen_checksum(&one_sided_cyclic(&random_symmetric(m, seed), &opts))
        }
        Solver::SvdBlock => {
            svd_checksum(&svd_block(&random_rect(m + 7, m, seed), d, family, &opts))
        }
        Solver::BlockJacobiThreaded => eigen_checksum(
            &block_jacobi_threaded(&random_symmetric(m, seed), d, family, &opts).result,
        ),
    }
}

#[test]
fn scalar_solves_reproduce_the_bits_of_the_commit_before_the_exact_kernels() {
    let got: Vec<u64> =
        (0..GOLDEN.len()).map(|case| solve(SOLVERS[case / SHAPES.len()], case)).collect();
    if got != GOLDEN {
        let moved: Vec<String> = (0..GOLDEN.len())
            .filter(|&c| got[c] != GOLDEN[c])
            .map(|c| format!("{:?} {:?}", SOLVERS[c / SHAPES.len()], SHAPES[c % SHAPES.len()]))
            .collect();
        let table: Vec<String> = got.iter().map(|x| format!("    {x:#018x},")).collect();
        panic!(
            "{} of {} solves moved a bit: {}\nthis build computes\n{}",
            moved.len(),
            GOLDEN.len(),
            moved.join("; "),
            table.join("\n")
        );
    }
}
