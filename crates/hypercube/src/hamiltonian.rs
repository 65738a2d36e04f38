//! Hamiltonian paths of a hypercube expressed as *link sequences*.
//!
//! A link sequence `s = <l_0, l_1, …>` describes a walk: from node `n` the
//! walk visits `n`, `n ^ (1<<l_0)`, `n ^ (1<<l_0) ^ (1<<l_1)`, … Because the
//! step is XOR, whether the walk is a Hamiltonian path of the `e`-cube is a
//! property of the sequence alone (paper §3.1): the sequence is an
//! *`e`-sequence* iff its prefix XORs `0, 2^{l_0}, 2^{l_0}⊕2^{l_1}, …` are
//! all distinct and number `2^e`.
//!
//! The paper's minimum-α ordering searches Hamiltonian paths whose maximum
//! per-link usage (α) is minimal; [`search_hamiltonian_with_budget`]
//! implements that search as a depth-first branch-and-bound with a per-link
//! budget, enough to re-derive the published sequences for `e ≤ 6`.

use crate::NodeId;

/// Why a candidate sequence failed `e`-sequence validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HamiltonianError {
    /// Sequence length is not `2^e - 1`.
    WrongLength { expected: usize, got: usize },
    /// A link id ≥ e appears in the sequence.
    LinkOutOfRange { index: usize, link: usize },
    /// The walk revisits a node (prefix XOR repeats).
    NodeRevisited { step: usize, node: NodeId },
}

impl std::fmt::Display for HamiltonianError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HamiltonianError::WrongLength { expected, got } => {
                write!(f, "link sequence has length {got}, expected {expected}")
            }
            HamiltonianError::LinkOutOfRange { index, link } => {
                write!(f, "link {link} at position {index} is outside the cube")
            }
            HamiltonianError::NodeRevisited { step, node } => {
                write!(f, "walk revisits node {node} at step {step}")
            }
        }
    }
}

impl std::error::Error for HamiltonianError {}

/// Expands a link sequence into the node path it traces from `start`.
/// The result has `seq.len() + 1` nodes.
pub fn link_sequence_to_path(seq: &[usize], start: NodeId) -> Vec<NodeId> {
    let mut path = Vec::with_capacity(seq.len() + 1);
    let mut cur = start;
    path.push(cur);
    for &l in seq {
        cur ^= 1 << l;
        path.push(cur);
    }
    path
}

/// Checks that `seq` is an `e`-sequence: a Hamiltonian-path link sequence of
/// the `e`-cube. Returns a precise error on failure.
pub fn validate_e_sequence(seq: &[usize], e: usize) -> Result<(), HamiltonianError> {
    let expected = (1usize << e) - 1;
    if seq.len() != expected {
        return Err(HamiltonianError::WrongLength { expected, got: seq.len() });
    }
    for (i, &l) in seq.iter().enumerate() {
        if l >= e {
            return Err(HamiltonianError::LinkOutOfRange { index: i, link: l });
        }
    }
    let mut seen = vec![false; 1 << e];
    let mut cur: NodeId = 0;
    seen[0] = true;
    for (i, &l) in seq.iter().enumerate() {
        cur ^= 1 << l;
        if seen[cur] {
            return Err(HamiltonianError::NodeRevisited { step: i + 1, node: cur });
        }
        seen[cur] = true;
    }
    Ok(())
}

/// Convenience boolean form of [`validate_e_sequence`].
pub fn is_link_sequence_hamiltonian(seq: &[usize], e: usize) -> bool {
    validate_e_sequence(seq, e).is_ok()
}

/// Depth-first search for a Hamiltonian path of the `e`-cube whose link
/// sequence uses every link at most `budget` times. Returns the first link
/// sequence found, or `None` when no such path exists (or `max_steps` search
/// nodes were expanded — `None` is then inconclusive and the caller should
/// retry with a larger budget or step limit).
///
/// Since the lower bound `α ≥ ⌈(2^e - 1)/e⌉` (paper §3.1) is attainable for
/// every `e ≤ 6`, calling this with `budget = ⌈(2^e-1)/e⌉` re-derives
/// minimum-α sequences for the sizes the paper reports.
pub fn search_hamiltonian_with_budget(
    e: usize,
    budget: usize,
    max_steps: u64,
) -> Option<Vec<usize>> {
    assert!((1..=20).contains(&e));
    let n = 1usize << e;
    if budget * e < n - 1 {
        return None; // cannot even cover 2^e - 1 steps
    }
    let mut visited = vec![false; n];
    visited[0] = true;
    let mut remaining = vec![budget; e];
    let mut seq = Vec::with_capacity(n - 1);
    let mut steps = 0u64;
    if dfs(0, n - 1, &mut visited, &mut remaining, &mut seq, &mut steps, max_steps) {
        Some(seq)
    } else {
        None
    }
}

fn dfs(
    cur: NodeId,
    left: usize,
    visited: &mut [bool],
    remaining: &mut [usize],
    seq: &mut Vec<usize>,
    steps: &mut u64,
    max_steps: u64,
) -> bool {
    if left == 0 {
        return true;
    }
    *steps += 1;
    if *steps > max_steps {
        return false;
    }
    // Feasibility prune: the remaining link budget must cover `left` steps.
    let total: usize = remaining.iter().sum();
    if total < left {
        return false;
    }
    let e = remaining.len();
    // Order moves by scarcest-link-first; spending scarce budget early keeps
    // the end of the path feasible and finds budget-tight paths much faster.
    let mut dims: Vec<usize> = (0..e).collect();
    dims.sort_by_key(|&i| std::cmp::Reverse(remaining[i]));
    for &dim in &dims {
        if remaining[dim] == 0 {
            continue;
        }
        let next = cur ^ (1 << dim);
        if visited[next] {
            continue;
        }
        visited[next] = true;
        remaining[dim] -= 1;
        seq.push(dim);
        if dfs(next, left - 1, visited, remaining, seq, steps, max_steps) {
            return true;
        }
        seq.pop();
        remaining[dim] += 1;
        visited[next] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gray::gray_link_sequence;

    #[test]
    fn gray_sequences_are_hamiltonian() {
        for e in 1..=12 {
            assert!(is_link_sequence_hamiltonian(&gray_link_sequence(e), e));
        }
    }

    #[test]
    fn validation_rejects_wrong_length() {
        assert_eq!(
            validate_e_sequence(&[0, 1], 2),
            Err(HamiltonianError::WrongLength { expected: 3, got: 2 })
        );
    }

    #[test]
    fn validation_rejects_out_of_range_link() {
        assert_eq!(
            validate_e_sequence(&[0, 2, 0], 2),
            Err(HamiltonianError::LinkOutOfRange { index: 1, link: 2 })
        );
    }

    #[test]
    fn validation_rejects_revisit() {
        // <0 0 1> returns to the start after two steps.
        assert_eq!(
            validate_e_sequence(&[0, 0, 1], 2),
            Err(HamiltonianError::NodeRevisited { step: 2, node: 0 })
        );
    }

    #[test]
    fn alpha_counts_max_repetitions() {
        // The budget the search enforces is α: the largest number of
        // repetitions of any single link in the sequence.
        let max_reps = |seq: &[usize], e: usize| {
            (0..e).map(|l| seq.iter().filter(|&&x| x == l).count()).max().unwrap_or(0)
        };
        assert_eq!(max_reps(&gray_link_sequence(3), 3), 4); // BR e=3
        let seq = search_hamiltonian_with_budget(3, 3, 1_000_000).expect("e=3 has an α=3 path");
        assert_eq!(max_reps(&seq, 3), 3); // min-α e=3: 7 steps over 3 links
        assert_eq!(max_reps(&[], 3), 0);
    }

    #[test]
    fn budget_search_reaches_lower_bound_small() {
        // Paper: minimum α equals ⌈(2^e - 1)/e⌉ for e ≤ 6 (α = 2, 3, 4, 7).
        for (e, want_alpha) in [(2usize, 2usize), (3, 3), (4, 4), (5, 7)] {
            let seq = search_hamiltonian_with_budget(e, want_alpha, 50_000_000)
                .unwrap_or_else(|| panic!("no α≤{want_alpha} path found for e={e}"));
            assert!(is_link_sequence_hamiltonian(&seq, e));
            assert!((0..e).all(|l| seq.iter().filter(|&&x| x == l).count() <= want_alpha));
        }
    }

    #[test]
    fn budget_search_detects_impossible_budget() {
        // e=3 needs 7 steps; budget 2 gives at most 6.
        assert_eq!(search_hamiltonian_with_budget(3, 2, 1_000_000), None);
    }

    #[test]
    fn start_node_does_not_matter() {
        let seq = gray_link_sequence(4);
        for start in 0..16 {
            let path = link_sequence_to_path(&seq, start);
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 16, "walk from {start} must cover the cube");
        }
    }
}
