//! Routes between hypercube nodes, around dead links.
//!
//! The Jacobi algorithms in this repository only ever talk to direct
//! neighbors; a route of more than one hop exists for the relay the engine
//! scripts around a dead link ([`surviving_route`]). On a clean cube that
//! route is the e-cube route of wormhole-routed hypercubes of the paper's
//! era (\[14\] Ni & McKinley): address bits corrected in increasing
//! dimension order, which is deadlock-free.

use crate::NodeId;

/// The shortest route from `src` to `dst` avoiding `dead_edges`
/// (undirected, `(either endpoint, dim)` pairs), as the dimension sequence
/// to cross. `None` when the dead edges disconnect the pair.
///
/// BFS with lowest-dimension-first expansion, so the result is unique and
/// deterministic: among equal-length routes the lexicographically smallest
/// dimension sequence wins — every node planning a relay around the same
/// dead set computes the *same* route, which is what lets a distributed
/// relay script run without negotiation. With no dead edges on the route's
/// span this degenerates to the e-cube route: the bits of `src ^ dst` in
/// increasing dimension order.
pub fn surviving_route(
    d: usize,
    src: NodeId,
    dst: NodeId,
    dead_edges: &[(NodeId, usize)],
) -> Option<Vec<usize>> {
    let p = 1usize << d;
    debug_assert!(src < p && dst < p);
    let is_dead = |node: NodeId, dim: usize| {
        let u = node.min(node ^ (1 << dim));
        dead_edges.iter().any(|&(a, dm)| dm == dim && a.min(a ^ (1 << dim)) == u)
    };
    if src == dst {
        return Some(Vec::new());
    }
    // prev[n] = (parent, dim crossed to reach n); BFS layer order plus
    // ascending-dim neighbor expansion fixes the tie-break.
    let mut prev: Vec<Option<(NodeId, usize)>> = vec![None; p];
    let mut queue = std::collections::VecDeque::from([src]);
    prev[src] = Some((src, usize::MAX));
    while let Some(n) = queue.pop_front() {
        for dim in 0..d {
            if is_dead(n, dim) {
                continue;
            }
            let peer = n ^ (1 << dim);
            if prev[peer].is_none() {
                prev[peer] = Some((n, dim));
                if peer == dst {
                    let mut dims = Vec::new();
                    let mut cur = dst;
                    while cur != src {
                        let (parent, dm) = prev[cur].expect("walked back along BFS parents");
                        dims.push(dm);
                        cur = parent;
                    }
                    dims.reverse();
                    return Some(dims);
                }
                queue.push_back(peer);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surviving_route_without_deaths_is_the_ecube_route() {
        for src in 0..32usize {
            for dst in 0..32usize {
                let ecube: Vec<usize> = (0..5).filter(|dim| (src ^ dst) >> dim & 1 == 1).collect();
                assert_eq!(surviving_route(5, src, dst, &[]), Some(ecube), "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn surviving_route_detours_around_a_dead_edge() {
        // d = 2, edge (0,1) across dim 0 dead: 0 -> 1 must take the other
        // three sides of the square, [1, 0, 1] (up, across, down).
        let dead = [(0usize, 0usize)];
        assert_eq!(surviving_route(2, 0, 1, &dead), Some(vec![1, 0, 1]));
        // The dead edge is undirected and keyed from either endpoint.
        assert_eq!(surviving_route(2, 1, 0, &[(1, 0)]), Some(vec![1, 0, 1]));
        // Unaffected pairs still route minimally.
        assert_eq!(surviving_route(2, 2, 3, &dead), Some(vec![0]));
    }

    #[test]
    fn surviving_route_prefers_low_dimensions_among_equals() {
        // 0 -> 3 on a 2-cube has two shortest routes, [0, 1] and [1, 0];
        // the deterministic tie-break picks [0, 1].
        assert_eq!(surviving_route(2, 0, 3, &[]), Some(vec![0, 1]));
    }

    #[test]
    fn surviving_route_reports_disconnection() {
        // d = 1: the only edge dead leaves no route.
        assert_eq!(surviving_route(1, 0, 1, &[(0, 0)]), None);
        // Isolating node 0 on a 2-cube.
        assert_eq!(surviving_route(2, 0, 3, &[(0, 0), (0, 1)]), None);
        // Same-node routes survive anything.
        assert_eq!(surviving_route(2, 2, 2, &[(0, 0), (0, 1)]), Some(vec![]));
    }

    #[test]
    fn surviving_routes_are_valid_paths_avoiding_every_dead_edge() {
        // d = 3 with two dead edges: every pair still routes, the route
        // crosses only alive edges, and it ends at the destination.
        let dead = [(0usize, 0usize), (5usize, 2usize)];
        for src in 0..8usize {
            for dst in 0..8usize {
                let dims = surviving_route(3, src, dst, &dead)
                    .expect("two dead edges keep a 3-cube connected");
                let mut cur = src;
                for &dim in &dims {
                    let u = cur.min(cur ^ (1 << dim));
                    assert!(
                        !dead.iter().any(|&(a, dm)| dm == dim && a.min(a ^ (1 << dim)) == u),
                        "route {src}->{dst} crosses dead edge ({u}, {dim})"
                    );
                    cur ^= 1 << dim;
                }
                assert_eq!(cur, dst);
                assert!(dims.len() >= (src ^ dst).count_ones() as usize);
            }
        }
    }
}
