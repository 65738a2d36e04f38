//! Finite permutations of link identifiers.
//!
//! The permuted-BR construction (paper §3.2) repeatedly applies *link
//! permutations* to subsequences of the BR sequence, compounding the
//! permutation applied to an inner subsequence with those applied to every
//! enclosing subsequence. This module provides the small permutation algebra
//! that machinery needs: composition, inversion, conjugation and the mirror
//! transpositions of the paper's transformations.

/// A permutation of `0..n` stored as an image table: `map[i]` is the image
/// of `i`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// The identity on `0..n`.
    pub fn identity(n: usize) -> Self {
        Permutation { map: (0..n).collect() }
    }

    /// Builds from an image table.
    ///
    /// # Panics
    /// Panics unless `map` is a bijection of `0..map.len()`.
    pub fn from_map(map: Vec<usize>) -> Self {
        let n = map.len();
        let mut seen = vec![false; n];
        for &v in &map {
            assert!(v < n, "image {v} out of range");
            assert!(!seen[v], "image {v} repeated — not a bijection");
            seen[v] = true;
        }
        Permutation { map }
    }

    /// The *mirror* transposition set of the paper's transformation `k`:
    /// `i ↔ span − 1 − i` for `i < span/2`, identity elsewhere on `0..n`.
    ///
    /// For transformation `k` of the permuted-BR construction the span is
    /// `B_k` (see `pbr` module); elements `≥ span` are untouched.
    pub fn mirror(n: usize, span: usize) -> Self {
        assert!(span <= n);
        let mut map: Vec<usize> = (0..n).collect();
        for i in 0..span / 2 {
            map.swap(i, span - 1 - i);
        }
        Permutation { map }
    }

    /// Degree (size of the underlying set).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the underlying set is empty (degree 0).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Applies the permutation to one element.
    #[inline]
    pub fn apply(&self, i: usize) -> usize {
        self.map[i]
    }

    /// Applies the permutation elementwise to a slice of link ids in place.
    pub fn apply_in_place(&self, seq: &mut [usize]) {
        for x in seq.iter_mut() {
            *x = self.map[*x];
        }
    }

    /// Composition `self ∘ other`: first apply `other`, then `self`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        Permutation { map: other.map.iter().map(|&i| self.map[i]).collect() }
    }

    /// The inverse permutation.
    fn inverse(&self) -> Permutation {
        let mut inv = vec![0; self.map.len()];
        for (i, &v) in self.map.iter().enumerate() {
            inv[v] = i;
        }
        Permutation { map: inv }
    }

    /// Conjugation `c ∘ self ∘ c⁻¹` — "the same transpositions, relabelled
    /// through `c`". This is exactly how the paper compounds the permutation
    /// applied to the 4th, 6th, … subsequences from the base permutation of
    /// the 2nd one.
    pub fn conjugate_by(&self, c: &Permutation) -> Permutation {
        c.compose(self).compose(&c.inverse())
    }

    /// The transpositions `(a, b)` with `a < b` moved by this permutation,
    /// when the permutation is an involution; `None` otherwise. Used to
    /// render Figure 3.
    pub(crate) fn as_transpositions(&self) -> Option<Vec<(usize, usize)>> {
        let mut out = Vec::new();
        for (i, &v) in self.map.iter().enumerate() {
            if self.map[v] != i {
                return None; // not an involution
            }
            if i < v {
                out.push((i, v));
            }
        }
        Some(out)
    }
}

impl std::fmt::Display for Permutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.as_transpositions() {
            Some(ts) if !ts.is_empty() => {
                let parts: Vec<String> = ts.iter().map(|(a, b)| format!("({a},{b})")).collect();
                write!(f, "{}", parts.join(" "))
            }
            Some(_) => write!(f, "id"),
            None => write!(f, "{:?}", self.map),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_laws() {
        let id = Permutation::identity(5);
        let p = Permutation::from_map(vec![2, 0, 1, 4, 3]);
        assert_eq!(id.compose(&p), p);
        assert_eq!(p.compose(&id), p);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_map(vec![2, 0, 1, 4, 3]);
        assert_eq!(p.compose(&p.inverse()), Permutation::identity(5));
        assert_eq!(p.inverse().compose(&p), Permutation::identity(5));
    }

    #[test]
    fn compose_order_is_right_to_left() {
        // other = (0 1), self = (1 2): self∘other maps 0 → other 1 → self 2.
        let other = Permutation::from_map(vec![1, 0, 2]);
        let selfp = Permutation::from_map(vec![0, 2, 1]);
        let c = selfp.compose(&other);
        assert_eq!(c.apply(0), 2);
        assert_eq!(c.apply(1), 0);
        assert_eq!(c.apply(2), 1);
    }

    #[test]
    fn mirror_full_and_partial() {
        // Full mirror on 0..4 of span 4: (0,3)(1,2).
        let m = Permutation::mirror(5, 4);
        assert_eq!(m.map, [3, 2, 1, 0, 4]);
        // Odd span fixes the middle.
        let m3 = Permutation::mirror(5, 3);
        assert_eq!(m3.map, [2, 1, 0, 3, 4]);
    }

    #[test]
    fn mirror_is_involution() {
        for span in 0..=6 {
            let m = Permutation::mirror(6, span);
            assert_eq!(m.compose(&m), Permutation::identity(6));
        }
    }

    #[test]
    fn conjugation_relabels_transpositions() {
        // Paper Figure 3 sanity: base (0,7)(1,6)(2,5)(3,4) conjugated by the
        // full mirror i↔15−i yields (8,15)(9,14)(10,13)(11,12).
        let base = Permutation::mirror(16, 8);
        let outer = Permutation::mirror(16, 16);
        let conj = base.conjugate_by(&outer);
        assert_eq!(conj.as_transpositions().unwrap(), vec![(8, 15), (9, 14), (10, 13), (11, 12)]);
    }

    #[test]
    fn transpositions_of_non_involution_is_none() {
        let cycle = Permutation::from_map(vec![1, 2, 0]);
        assert_eq!(cycle.as_transpositions(), None);
    }

    #[test]
    fn apply_in_place_matches_apply() {
        let p = Permutation::from_map(vec![3, 2, 1, 0]);
        let mut seq = vec![0, 1, 2, 3, 3, 1];
        p.apply_in_place(&mut seq);
        assert_eq!(seq, vec![3, 2, 1, 0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn from_map_rejects_repeats() {
        let _ = Permutation::from_map(vec![0, 0, 1]);
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn permutation_inverse_law(seed in proptest::collection::vec(0u64..u64::MAX, 8)) {
            // Build a permutation of 0..8 by sorting indices by random keys.
            let mut idx: Vec<usize> = (0..8).collect();
            idx.sort_by_key(|&i| seed[i]);
            let p = Permutation::from_map(idx);
            prop_assert_eq!(p.compose(&p.inverse()), Permutation::identity(8));
            prop_assert_eq!(p.inverse().compose(&p), Permutation::identity(8));
        }
    }
}
