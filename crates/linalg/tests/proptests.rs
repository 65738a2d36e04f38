//! Property-based tests for the linear-algebra kernels: the invariants the
//! eigensolver's correctness rests on.

use mph_linalg::block::{ColumnBlock, COLUMN_ALIGN_BYTES};
use mph_linalg::rotation::{apply_to_block, symmetric_schur, JacobiRotation};
use mph_linalg::vecops::{
    dot, fused_triple, pair_rotate, pair_rotate_lanes, rotate_pair, Pairing, Walk,
};
use mph_linalg::Matrix;
use proptest::prelude::*;

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, n..=n)
}

/// Four equal-length vectors of arbitrary length 0..=24 — the shape of a
/// column pair's `(A_i, A_j, U_i, U_j)` slices.
fn quad_vecs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>)> {
    (0usize..=24).prop_flat_map(|n| (finite_vec(n), finite_vec(n), finite_vec(n), finite_vec(n)))
}

/// Like [`quad_vecs`] but long enough that the widest SIMD body (8 lanes)
/// runs at least full iterations with every scalar-tail length 0..=16.
fn quad_vecs_laned() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>)> {
    (0usize..=16).prop_flat_map(|tail| {
        let n = 24 + tail; // 3 full 8-lane iterations + the drawn tail
        (finite_vec(n), finite_vec(n), finite_vec(n), finite_vec(n))
    })
}

/// The rule of a walk that turns its first pairing by `turn`, skips every
/// other, and keeps every block it is shown.
struct FirstTurns {
    turn: Option<(f64, f64)>,
    blocks: Vec<(f64, f64, f64)>,
}

impl Pairing for FirstTurns {
    const GRAM: bool = false;

    fn angle(&mut self, block: (f64, f64, f64)) -> Option<JacobiRotation> {
        self.blocks.push(block);
        let first = self.blocks.len() == 1;
        self.turn.filter(|_| first).map(|(c, s)| JacobiRotation { c, s })
    }
}

/// The plane rotation as `vecops` defines it, written out on a column pair:
/// `x' = fma(c, x, −(s·y))`, `y' = fma(s, x, c·y)` per entry.
fn rotated_by_definition(x: &[f64], y: &[f64], c: f64, s: f64) -> (Vec<f64>, Vec<f64>) {
    x.iter().zip(y).map(|(&x, &y)| (c.mul_add(x, -(s * y)), s.mul_add(x, c * y))).unzip()
}

/// The storage invariant on one block of `arows`-row `A`-columns and
/// `urows`-row `U`-columns: every column slice has its logical length and
/// starts on a cache line, and the payload is the logical count — the
/// alignment pads are in neither.
fn check_storage(
    b: &ColumnBlock,
    (arows, urows): (usize, usize),
    what: &str,
) -> Result<(), TestCaseError> {
    for k in 0..b.len() {
        for (col, rows) in [(b.a_col(k), arows), (b.u_col(k), urows)] {
            prop_assert_eq!(col.len(), rows, "{}: column {} length", what, k);
            prop_assert_eq!(
                col.as_ptr() as usize % COLUMN_ALIGN_BYTES,
                0,
                "{}: column {} of a {}x{} block is misaligned",
                what,
                k,
                arows,
                urows
            );
        }
    }
    prop_assert_eq!(b.misaligned_columns(), 0, "{}", what);
    let logical = b.len() * (arows + urows);
    prop_assert_eq!(b.payload_elems(), logical, "{}: payload counts pads", what);
    Ok(())
}

proptest! {
    #[test]
    fn every_column_of_every_block_starts_a_cache_line(
        arows in 1usize..=41,
        total in 1usize..=19,
        extra_urows in 0usize..=9,
        cut in (0usize..=19, 0usize..=19),
        q in 1usize..=7,
    ) {
        // A cache line, and the widest access of any kernel (one AVX-512
        // load or store).
        prop_assert_eq!(COLUMN_ALIGN_BYTES, 64);
        // Odd sizes, m ∤ 8 and rectangular (`arows ≠ urows`) blocks
        // included: the invariant is the padding rule's, not the shape's.
        let a0 = Matrix::from_fn(arows, total, |r, c| (r * total + c) as f64 * 0.25 - 3.0);
        let (lo, hi) = (cut.0.min(cut.1).min(total), cut.0.max(cut.1).min(total));
        let urows = total + extra_urows;
        let shape = (arows, urows);
        let block = ColumnBlock::from_matrix_with_identity(&a0, lo..hi, urows);
        check_storage(&block, shape, "from_matrix_with_identity")?;
        for k in 0..block.len() {
            prop_assert_eq!(block.a_col(k), a0.col(lo + k));
            let unit: Vec<f64> = (0..urows).map(|r| f64::from(r == lo + k)).collect();
            prop_assert_eq!(block.u_col(k), &unit[..]);
        }
        let copy = block.clone();
        check_storage(&copy, shape, "clone")?;
        prop_assert_eq!(&copy, &block);

        // Plain packet round trip.
        let packets = copy.split_columns(q);
        for p in &packets {
            check_storage(p, shape, "split_columns")?;
        }
        let payload: usize = packets.iter().map(ColumnBlock::payload_elems).sum();
        prop_assert_eq!(payload, block.payload_elems());
        let back = ColumnBlock::from_packets(packets);
        check_storage(&back, shape, "from_packets")?;
        prop_assert_eq!(&back, &block);

        // Out of a slot and back: `take` moves the store, it copies nothing.
        let mut slot = back;
        let moved = slot.take();
        prop_assert_eq!(&slot, &ColumnBlock::default());
        check_storage(&moved, shape, "take")?;
        slot = moved;
        prop_assert_eq!(&slot, &block);
    }

    #[test]
    fn dot_is_commutative_and_linear(x in finite_vec(13), y in finite_vec(13), a in -100f64..100.0) {
        let xy = dot(&x, &y);
        let yx = dot(&y, &x);
        prop_assert!((xy - yx).abs() <= 1e-9 * xy.abs().max(1.0));
        let ax: Vec<f64> = x.iter().map(|v| a * v).collect();
        prop_assert!((dot(&ax, &y) - a * xy).abs() <= 1e-6 * (a * xy).abs().max(1.0));
    }

    #[test]
    fn rotation_preserves_pair_energy(x in finite_vec(17), y in finite_vec(17), theta in -3.2f64..3.2) {
        let before = dot(&x, &x) + dot(&y, &y);
        let (mut x, mut y) = (x, y);
        rotate_pair(&mut x, &mut y, theta.cos(), theta.sin());
        let after = dot(&x, &x) + dot(&y, &y);
        prop_assert!((before - after).abs() <= 1e-9 * before.max(1.0));
    }

    #[test]
    fn rotation_by_zero_is_identity(x in finite_vec(5), y in finite_vec(5)) {
        let (x0, y0) = (x.clone(), y.clone());
        let (mut x, mut y) = (x, y);
        rotate_pair(&mut x, &mut y, 1.0, 0.0);
        prop_assert_eq!(x, x0);
        prop_assert_eq!(y, y0);
    }

    #[test]
    fn fused_pair_rotate_equals_two_sequential_rotate_pairs(
        quads in quad_vecs(),
        theta in -3.2f64..3.2,
    ) {
        // The fused kernel must be ELEMENT-WISE EQUAL (same bits) to the
        // two-call sequence it replaces — that is what lets the drivers
        // adopt it without perturbing any bitwise-equality guarantee.
        // Both are the rotation's definition, written out below.
        let (ai, aj, ui, uj) = quads;
        let (c, s) = (theta.cos(), theta.sin());
        let (da, db) = rotated_by_definition(&ai, &aj, c, s);
        let (du, dv) = rotated_by_definition(&ui, &uj, c, s);
        let (mut fa_i, mut fa_j, mut fu_i, mut fu_j) =
            (ai.clone(), aj.clone(), ui.clone(), uj.clone());
        pair_rotate(&mut fa_i, &mut fa_j, &mut fu_i, &mut fu_j, c, s);
        let (mut ra_i, mut ra_j, mut ru_i, mut ru_j) = (ai, aj, ui, uj);
        rotate_pair(&mut ra_i, &mut ra_j, c, s);
        rotate_pair(&mut ru_i, &mut ru_j, c, s);
        prop_assert_eq!(&fa_i, &ra_i);
        prop_assert_eq!(&fa_j, &ra_j);
        prop_assert_eq!(&fu_i, &ru_i);
        prop_assert_eq!(&fu_j, &ru_j);
        prop_assert_eq!((fa_i, fa_j, fu_i, fu_j), (da, db, du, dv));
    }

    #[test]
    fn lanes_rotate_is_bitwise_the_scalar_rotate(
        quads in quad_vecs_laned(),
        theta in -3.2f64..3.2,
    ) {
        // The lane path's contract is BITWISE equality for the rotation:
        // each lane takes the definition's multiply and fused multiply-add
        // in its operand order, so every element sees the scalar arithmetic,
        // at every tail length.
        let (ai, aj, ui, uj) = quads;
        let (c, s) = (theta.cos(), theta.sin());
        let (da, db) = rotated_by_definition(&ai, &aj, c, s);
        let (du, dv) = rotated_by_definition(&ui, &uj, c, s);
        let (mut la_i, mut la_j, mut lu_i, mut lu_j) =
            (ai.clone(), aj.clone(), ui.clone(), uj.clone());
        pair_rotate_lanes(&mut la_i, &mut la_j, &mut lu_i, &mut lu_j, c, s);
        let (mut sa_i, mut sa_j, mut su_i, mut su_j) = (ai, aj, ui, uj);
        pair_rotate(&mut sa_i, &mut sa_j, &mut su_i, &mut su_j, c, s);
        prop_assert_eq!(&la_i, &sa_i);
        prop_assert_eq!(&la_j, &sa_j);
        prop_assert_eq!(&lu_i, &su_i);
        prop_assert_eq!(&lu_j, &su_j);
        prop_assert_eq!((la_i, la_j, lu_i, lu_j), (da, db, du, dv));
    }

    #[test]
    fn lanes_rotate_is_bitwise_on_mismatched_lengths(
        quads in quad_vecs_laned(),
        cut in 0usize..=16,
        theta in -3.2f64..3.2,
    ) {
        // Same bitwise contract on the fused-prefix mismatched path
        // (A-columns longer than U-columns, as in rectangular SVD jobs).
        let (ai, aj, mut ui, mut uj) = quads;
        let nu = ui.len() - cut.min(ui.len());
        ui.truncate(nu);
        uj.truncate(nu);
        let (c, s) = (theta.cos(), theta.sin());
        let (mut la_i, mut la_j, mut lu_i, mut lu_j) =
            (ai.clone(), aj.clone(), ui.clone(), uj.clone());
        pair_rotate_lanes(&mut la_i, &mut la_j, &mut lu_i, &mut lu_j, c, s);
        let (mut sa_i, mut sa_j, mut su_i, mut su_j) = (ai, aj, ui, uj);
        pair_rotate(&mut sa_i, &mut sa_j, &mut su_i, &mut su_j, c, s);
        prop_assert_eq!(la_i, sa_i);
        prop_assert_eq!(la_j, sa_j);
        prop_assert_eq!(lu_i, su_i);
        prop_assert_eq!(lu_j, su_j);
    }

    #[test]
    fn fused_triple_and_the_x2_reductions_are_bitwise_dots(
        p in quad_vecs_laned(),
        q in quad_vecs_laned(),
    ) {
        // Every pairing reduction is, product by product, `dot` itself — at
        // every tail length the dispatcher can see, on whichever vector
        // tier the host dispatches to: a pairing's three, and the two
        // off-diagonals a step reduces for a next step of two pairings,
        // after rotating — or skipping — its own pairing `p`, beside the
        // walk's cached diagonals: `dot`s where a column is as the walk
        // found it, the 2×2 similarity update of the first block where `p`
        // turned. The next step's other two columns are `q`'s where it has
        // `p`'s length, else `p`'s streams reversed.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = |[x, a, y, b]: [&[f64]; 4]| bits(&[dot(x, a), dot(x, b), dot(y, b)]);
        let quad: [&[f64]; 4] = [&p.0, &p.1, &p.2, &p.3];
        let (pp, pq, qq) = fused_triple(quad[0], quad[1], quad[2], quad[3]);
        prop_assert_eq!(bits(&[pp, pq, qq]), want(quad));
        let fresh = if q.0.len() == p.0.len() {
            [[q.0.clone(), q.1.clone()], [q.2.clone(), q.3.clone()]]
        } else {
            [[p.3.clone(), p.2.clone()], [p.1.clone(), p.0.clone()]]
        };
        for turn in [None, Some((0.6, -0.8))] {
            let (mut ri, mut rj, mut vi, mut vj) = p.clone();
            if let Some((c, s)) = turn {
                pair_rotate(&mut ri, &mut rj, &mut vi, &mut vj, c, s);
            }
            // A walk of the 2 × 2 rectangle whose first pairing is `p` and
            // whose second and third — one step, reduced as the first is
            // rotated — each take one of `fresh`'s columns; every pairing
            // after the first is skipped.
            let [[af, uf], [ag, ug]] = &fresh;
            let n = p.0.len();
            let block = |cols: [(&[f64], &[f64]); 2]| {
                let mut block = ColumnBlock::from_matrix_with_identity(&Matrix::zeros(n, 2), 0..2, n);
                for (k, (a, u)) in cols.into_iter().enumerate() {
                    let view = block.pair_mut(k, 1 - k);
                    view.ai.copy_from_slice(a);
                    view.ui.copy_from_slice(u);
                }
                block
            };
            let mut left = block([(&p.0, &p.2), (ag, ug)]);
            let mut right = block([(&p.1, &p.3), (af, uf)]);
            let mut walk = Walk::new(FirstTurns { turn, blocks: Vec::new() });
            walk.across(&mut left, &mut right, [(0..2, 0..2)]);
            let got = walk.finish().blocks;
            prop_assert_eq!(bits(&[left.a_col(0), right.a_col(0), left.u_col(0), right.u_col(0)].concat()),
                bits(&[ri.clone(), rj.clone(), vi.clone(), vj.clone()].concat()));
            let (app, apq, aqq) = got[0];
            prop_assert_eq!(bits(&[app, apq, aqq]), want([&p.2, &p.0, &p.3, &p.1]));
            let (di, dj) = match turn {
                None => (app, aqq),
                Some((c, s)) => {
                    let (pp, _, qq) = apply_to_block(JacobiRotation { c, s }, app, apq, aqq);
                    (pp, qq)
                }
            };
            prop_assert_eq!(bits(&[got[1].0, got[1].1, got[1].2]), bits(&[di, dot(&vi, af), dot(uf, af)]));
            prop_assert_eq!(bits(&[got[2].0, got[2].1, got[2].2]), bits(&[dot(ug, ag), dot(ug, &rj), dj]));
        }
    }

    #[test]
    fn schur_annihilates_any_block(app in -1e8f64..1e8, apq in -1e8f64..1e8, aqq in -1e8f64..1e8) {
        let rot = symmetric_schur(app, apq, aqq);
        prop_assert!((rot.c * rot.c + rot.s * rot.s - 1.0).abs() < 1e-12);
        let (pp, pq, qq) = apply_to_block(rot, app, apq, aqq);
        let scale = app.abs().max(apq.abs()).max(aqq.abs()).max(1.0);
        prop_assert!(pq.abs() <= 1e-9 * scale, "residual off-diag {pq}");
        prop_assert!((pp + qq - (app + aqq)).abs() <= 1e-9 * scale, "trace drift");
    }

    #[test]
    fn schur_small_angle_convention(app in -1e6f64..1e6, apq in -1e6f64..1e6, aqq in -1e6f64..1e6) {
        let rot = symmetric_schur(app, apq, aqq);
        prop_assert!(rot.s.abs() <= rot.c.abs() + 1e-15, "|θ| > π/4");
    }

    #[test]
    fn matrix_rotate_columns_preserves_frobenius(
        vals in proptest::collection::vec(-1e3f64..1e3, 36),
        i in 0usize..6, j in 0usize..6, theta in -3.2f64..3.2,
    ) {
        prop_assume!(i != j);
        let mut m = Matrix::from_fn(6, 6, |r, c| vals[c * 6 + r]);
        let before = m.frobenius_norm();
        let (x, y) = m.col_pair_mut(i, j);
        rotate_pair(x, y, theta.cos(), theta.sin());
        prop_assert!((m.frobenius_norm() - before).abs() <= 1e-9 * before.max(1.0));
    }
}
