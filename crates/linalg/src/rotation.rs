//! Symmetric 2×2 Schur decomposition — the rotation that annihilates one
//! off-diagonal element and its symmetric (paper §2.2).
//!
//! Given the 2×2 symmetric block `[[app, apq], [apq, aqq]]` of the implicit
//! matrix `UᵀAU`, the Jacobi rotation `(c, s)` satisfies
//! `Rᵀ · [[app, apq], [apq, aqq]] · R` diagonal for
//! `R = [[c, s], [−s, c]]`. The classical stable formulas (Rutishauser; see
//! Wilkinson \[15\]) pick the rotation angle `|θ| ≤ π/4`, which is what makes
//! cyclic Jacobi provably convergent.

/// A plane (Givens/Jacobi) rotation `R = [[c, s], [−s, c]]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobiRotation {
    /// Cosine of the rotation angle.
    pub c: f64,
    /// Sine of the rotation angle.
    pub s: f64,
}

impl JacobiRotation {
    /// The identity rotation (used when the off-diagonal is already zero).
    pub const IDENTITY: JacobiRotation = JacobiRotation { c: 1.0, s: 0.0 };
}

/// Computes the Jacobi rotation diagonalizing `[[app, apq], [apq, aqq]]`.
///
/// Returns [`JacobiRotation::IDENTITY`] when `apq == 0` (nothing to do).
/// The implementation uses the numerically stable small-angle formulas:
/// `τ = (aqq − app) / (2·apq)`, `t = sign(τ) / (|τ| + sqrt(1 + τ²))`,
/// `c = 1/sqrt(1+t²)`, `s = t·c`.
///
/// Inlined into the sweep walk's vector tiers, which take it once per
/// pairing.
#[inline]
pub fn symmetric_schur(app: f64, apq: f64, aqq: f64) -> JacobiRotation {
    if apq == 0.0 {
        return JacobiRotation::IDENTITY;
    }
    let tau = (aqq - app) / (2.0 * apq);
    // t is the smaller-magnitude root of t² + 2τt − 1 = 0.
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    JacobiRotation { c, s }
}

/// Applies the similarity transform to the 2×2 block and returns the new
/// `(app', apq', aqq')`. Used by the sweep kernel's diagonal cache
/// (`mph-eigen`'s `kernel.rs`) and by tests; the one-sided solver otherwise
/// never materializes the block.
#[inline]
pub fn apply_to_block(rot: JacobiRotation, app: f64, apq: f64, aqq: f64) -> (f64, f64, f64) {
    let (c, s) = (rot.c, rot.s);
    let new_pp = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    let new_qq = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    let new_pq = (c * c - s * s) * apq + s * c * (app - aqq);
    (new_pp, new_pq, new_qq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_annihilates(app: f64, apq: f64, aqq: f64) {
        let rot = symmetric_schur(app, apq, aqq);
        let (pp, pq, qq) = apply_to_block(rot, app, apq, aqq);
        let scale = app.abs().max(aqq.abs()).max(apq.abs()).max(1.0);
        assert!(
            pq.abs() <= 1e-14 * scale,
            "off-diagonal not annihilated: {pq} for ({app},{apq},{aqq})"
        );
        // Trace is preserved by similarity.
        assert!((pp + qq - (app + aqq)).abs() <= 1e-12 * scale);
        // Determinant is preserved too.
        let det0 = app * aqq - apq * apq;
        let det1 = pp * qq - pq * pq;
        assert!((det0 - det1).abs() <= 1e-10 * scale * scale);
    }

    #[test]
    fn annihilates_generic_blocks() {
        assert_annihilates(2.0, 1.0, 3.0);
        assert_annihilates(-1.0, 0.5, -1.0);
        assert_annihilates(0.0, 1.0, 0.0);
        assert_annihilates(1e8, 1.0, -1e8);
        assert_annihilates(1.0, 1e-12, 2.0);
        assert_annihilates(5.0, -3.0, 5.0);
    }

    #[test]
    fn zero_off_diagonal_gives_identity() {
        assert_eq!(symmetric_schur(4.0, 0.0, -2.0), JacobiRotation::IDENTITY);
    }

    #[test]
    fn rotation_is_orthonormal() {
        for &(a, b, c) in &[(2.0, 1.0, 3.0), (0.0, -5.0, 1.0), (1e6, 2.0, -1e6)] {
            let r = symmetric_schur(a, b, c);
            assert!((r.c * r.c + r.s * r.s - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn small_angle_convention() {
        // |t| ≤ 1 ⟺ |θ| ≤ π/4: required for Jacobi convergence proofs.
        for &(a, b, c) in &[(2.0, 1.0, 3.0), (3.0, 1.0, 2.0), (-1.0, 4.0, 2.0), (0.0, 1.0, 0.0)] {
            let r = symmetric_schur(a, b, c);
            let t = r.s / r.c;
            assert!(t.abs() <= 1.0 + 1e-15, "tan θ = {t} too large");
        }
    }

    #[test]
    fn eigenvalues_of_known_block() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let rot = symmetric_schur(2.0, 1.0, 2.0);
        let (pp, _, qq) = apply_to_block(rot, 2.0, 1.0, 2.0);
        let mut eig = [pp, qq];
        eig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((eig[0] - 1.0).abs() < 1e-14);
        assert!((eig[1] - 3.0).abs() < 1e-14);
    }
}
