//! CC-cube algorithms (paper §2.4, after Díaz de Cerio et al. \[9\]).
//!
//! A *CC-cube algorithm* is an SPMD loop of `K` iterations; iteration `k`
//! performs some computation and then exchanges a fixed-size message with
//! the neighbor across dimension `link_seq[k]` — the *same* dimension on
//! every node. Each exchange phase of a Jacobi sweep is a CC-cube algorithm
//! whose link sequence is the ordering's `D_e`; that is the property that
//! lets communication pipelining be applied to it.

use mph_core::OrderingFamily;

/// A CC-cube algorithm: `K = link_seq.len()` iterations, each ending with
/// an exchange of `message_elems` data elements through `link_seq[k]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CcCube {
    /// The dimension used by each iteration's exchange.
    pub link_seq: Vec<usize>,
    /// Elements exchanged per iteration (real-valued: the analytic models
    /// follow the paper in treating sizes continuously).
    pub message_elems: f64,
}

impl CcCube {
    /// Builds the CC-cube of one exchange phase: phase `e` of `family`,
    /// moving `message_elems` elements per transition.
    pub fn exchange_phase(family: OrderingFamily, e: usize, message_elems: f64) -> Self {
        CcCube { link_seq: family.sequence(e), message_elems }
    }

    /// Number of iterations `K`.
    pub fn k(&self) -> usize {
        self.link_seq.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::alpha;

    #[test]
    fn exchange_phase_wraps_the_family_sequence() {
        let cc = CcCube::exchange_phase(OrderingFamily::Br, 4, 128.0);
        assert_eq!(cc.k(), 15);
        assert_eq!(alpha(&cc.link_seq, 4), 8);
        assert_eq!(cc.message_elems, 128.0);
    }

    #[test]
    fn paper_example_k7() {
        // §2.4 example: K = 7, links 0,1,0,2,0,1,0.
        let cc = CcCube { link_seq: vec![0, 1, 0, 2, 0, 1, 0], message_elems: 1.0 };
        assert_eq!(cc.k(), 7);
        assert_eq!(alpha(&cc.link_seq, 3), 4);
    }
}
