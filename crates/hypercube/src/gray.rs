//! The binary-reflected Gray code's link sequence.
//!
//! The binary-reflected Gray code enumerates all `2^d` node labels of a
//! `d`-cube so that consecutive labels differ in one bit — i.e. it is a
//! Hamiltonian path (and, closing the loop, a Hamiltonian cycle). Its link
//! sequence is exactly the BR sequence `D_d^BR` of the paper, which is why
//! it lives here in the topology crate: `mph-core` re-derives the same
//! sequence from the Jacobi-ordering recursion and the two constructions are
//! cross-checked in tests.

/// The link sequence of the `d`-bit Gray code path: element `i` is the
/// dimension flipped between codewords `i` and `i+1`. Length `2^d - 1`.
///
/// The flipped bit between ranks `i` and `i+1` is the number of trailing
/// ones of `i`, equivalently `trailing_zeros(i+1)`.
pub fn gray_link_sequence(d: usize) -> Vec<usize> {
    assert!((1..=30).contains(&d));
    let n = 1usize << d;
    (1..n).map(|i| i.trailing_zeros() as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_sequence_matches_codeword_deltas() {
        // Codeword `i` of the binary-reflected Gray code is `i ^ (i >> 1)`.
        let gray_code = |i: usize| i ^ (i >> 1);
        for d in 1..=10 {
            let seq = gray_link_sequence(d);
            assert_eq!(seq.len(), (1 << d) - 1);
            for (i, &l) in seq.iter().enumerate() {
                assert_eq!(gray_code(i) ^ gray_code(i + 1), 1 << l);
            }
        }
    }

    #[test]
    fn link_sequence_d3_is_br_shape() {
        // <0 1 0 2 0 1 0>: the D_3^BR sequence of the paper.
        assert_eq!(gray_link_sequence(3), vec![0, 1, 0, 2, 0, 1, 0]);
    }
}
