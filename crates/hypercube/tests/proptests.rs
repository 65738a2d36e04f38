//! Property-based tests for the hypercube substrate.

use mph_hypercube::{gray_link_sequence, is_link_sequence_hamiltonian};
use proptest::prelude::*;

proptest! {
    #[test]
    fn random_sequences_rarely_hamiltonian_but_validation_never_panics(
        e in 2usize..=6,
        seed in proptest::collection::vec(0usize..6, 1..70),
    ) {
        // Whatever the input, validation must terminate with a verdict.
        let seq: Vec<usize> = seed.iter().map(|&l| l % e).collect();
        let _ = is_link_sequence_hamiltonian(&seq, e);
    }

    #[test]
    fn gray_sequence_is_always_hamiltonian(e in 1usize..=14) {
        prop_assert!(is_link_sequence_hamiltonian(&gray_link_sequence(e), e));
    }
}
