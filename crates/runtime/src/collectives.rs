//! Hypercube collectives on the threaded multicomputer.
//!
//! Classical recursive-doubling algorithms, all in `d` neighbor exchanges
//! (or `d` one-way hops for rooted operations): broadcast and gather along
//! spanning binomial trees, all-gather by dimension exchange, and a
//! generic all-reduce. They are not on the Jacobi algorithms' critical
//! path — transitions are pure neighbor exchanges — but the solver uses
//! them for convergence votes and result collection, and they double as a
//! stress test of the runtime's channel fabric.

use crate::spmd::{Meterable, NodeCtx};

/// One-to-all broadcast from `root` over the binomial spanning tree:
/// `d` rounds; in round `k` (descending dimension), every node that
/// already holds the value forwards it across dimension `k`.
///
/// Every node must call this; returns the broadcast value.
pub fn broadcast<M: Send + Meterable + Clone>(
    ctx: &NodeCtx<'_, M>,
    root: usize,
    value: Option<M>,
) -> M {
    let d = ctx.dim();
    let rel = ctx.id() ^ root; // relative address: root at 0
    let mut have = if rel == 0 {
        Some(value.expect("root must supply the broadcast value"))
    } else {
        debug_assert!(value.is_none(), "non-root nodes supply None");
        None
    };
    // Invariant: before round k the holders are exactly the nodes with
    // rel ≡ 0 (mod 2^{k+1}); each sends across dimension k to the node
    // with rel ≡ 2^k (mod 2^{k+1}), doubling the holder set.
    for k in (0..d).rev() {
        let low = (1usize << (k + 1)) - 1;
        if rel & low == 0 {
            let v = have.clone().expect("sender must hold the value");
            ctx.send(k, v);
        } else if rel & low == 1 << k {
            have = Some(ctx.recv(k));
        }
    }
    have.expect("broadcast did not reach this node")
}

/// All-gather by dimension exchange: every node contributes one value and
/// receives the vector of all `2^d` contributions, indexed by node id.
pub fn all_gather<M: Send + Meterable + Clone>(ctx: &NodeCtx<'_, M>, value: M) -> Vec<Option<M>> {
    let d = ctx.dim();
    let p = 1usize << d;
    let mut have: Vec<Option<M>> = vec![None; p];
    have[ctx.id()] = Some(value);
    for k in 0..d {
        // Exchange everything gathered so far with the dim-k neighbor.
        // The pieces this node holds so far are exactly the ids agreeing
        // with it on bits ≥ k... send them one by one (count doubles).
        let mine: Vec<(usize, M)> =
            have.iter().enumerate().filter_map(|(i, v)| v.clone().map(|v| (i, v))).collect();
        for (i, v) in &mine {
            ctx.send(k, v.clone());
            // Receive the partner's piece; its index is ours with bit k
            // flipped (the partner enumerates in the same order).
            let received = ctx.recv(k);
            have[i ^ (1 << k)] = Some(received);
        }
    }
    have
}

/// All-reduce with an arbitrary associative-commutative fold.
pub fn all_reduce<M, F>(ctx: &NodeCtx<'_, M>, mut value: M, fold: F) -> M
where
    M: Send + Meterable + Clone,
    F: Fn(M, M) -> M,
{
    for k in 0..ctx.dim() {
        let other = ctx.exchange(k, value.clone());
        value = fold(value, other);
    }
    value
}

/// Gather to `root` along the binomial tree: the inverse schedule of
/// [`broadcast`]. Returns `Some(vec indexed by node)` at the root, `None`
/// elsewhere.
pub fn gather<M: Send + Meterable + Clone>(
    ctx: &NodeCtx<'_, M>,
    root: usize,
    value: M,
) -> Option<Vec<Option<M>>> {
    let d = ctx.dim();
    let p = 1usize << d;
    let rel = ctx.id() ^ root;
    let mut have: Vec<Option<M>> = vec![None; p];
    have[ctx.id()] = Some(value);
    // Ascend: in round k (ascending), nodes with rel's low k bits clear and
    // bit k set send their accumulated subtree to the dim-k neighbor.
    for k in 0..d {
        if rel & ((1 << (k + 1)) - 1) == 1 << k {
            // Sender: ship every piece collected so far.
            let mine: Vec<M> = have.iter().filter_map(|v| v.clone()).collect();
            for v in mine {
                ctx.send(k, v);
            }
        } else if rel & ((1 << (k + 1)) - 1) == 0 {
            // Receiver: the partner's subtree holds 2^k pieces.
            let count = 1usize << k;
            let partner_base = ctx.id() ^ (1 << k);
            // Partner sends its pieces in ascending id order; reconstruct
            // the same order here.
            let mut ids: Vec<usize> = (0..p)
                .filter(|&i| {
                    // ids in the partner's subtree: agree with partner on
                    // bits ≥ k+1 (relative to root ordering), bit k set
                    // like the partner.
                    (i ^ partner_base) & !((1 << k) - 1) == 0
                })
                .collect();
            ids.sort_unstable();
            debug_assert_eq!(ids.len(), count);
            for i in ids {
                have[i] = Some(ctx.recv(k));
            }
        }
    }
    if rel == 0 {
        Some(have)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::{run_spmd, Spmd};

    /// `body` on a default (free, untraced) `d`-cube; the per-node results.
    fn on_cube<M: Send + Meterable, R: Send>(
        d: usize,
        body: impl Fn(&NodeCtx<'_, M>) -> R + Sync,
    ) -> Vec<R> {
        run_spmd(d, Spmd::default(), body).results
    }

    #[test]
    fn broadcast_reaches_all_nodes() {
        for d in 0..=4 {
            for root in [0usize, (1 << d) - 1] {
                let results = on_cube::<u64, u64>(d, move |ctx| {
                    let value = if ctx.id() == root { Some(42u64) } else { None };
                    broadcast(ctx, root, value)
                });
                assert!(results.iter().all(|&v| v == 42), "d={d} root={root}");
            }
        }
    }

    #[test]
    fn broadcast_from_interior_root() {
        let d = 3;
        let root = 5;
        let results = on_cube::<u64, u64>(d, move |ctx| {
            let value = if ctx.id() == root { Some(7u64) } else { None };
            broadcast(ctx, root, value)
        });
        assert_eq!(results, vec![7; 8]);
    }

    #[test]
    fn all_gather_collects_everything_in_order() {
        for d in 0..=4 {
            let results =
                on_cube::<u64, Vec<Option<u64>>>(d, |ctx| all_gather(ctx, (ctx.id() * 10) as u64));
            for got in results {
                let flat: Vec<u64> = got.into_iter().map(|v| v.unwrap()).collect();
                let want: Vec<u64> = (0..(1u64 << d)).map(|i| i * 10).collect();
                assert_eq!(flat, want, "d={d}");
            }
        }
    }

    #[test]
    fn all_reduce_product() {
        let results =
            on_cube::<f64, f64>(3, |ctx| all_reduce(ctx, (ctx.id() + 1) as f64, |a, b| a * b));
        let want = (1..=8).product::<usize>() as f64;
        for r in results {
            assert_eq!(r, want);
        }
    }

    #[test]
    fn gather_assembles_at_root_only() {
        for d in 1..=4 {
            let root = (1usize << d) - 1;
            let results = on_cube::<u64, Option<Vec<Option<u64>>>>(d, move |ctx| {
                gather(ctx, root, ctx.id() as u64 + 100)
            });
            for (n, r) in results.into_iter().enumerate() {
                if n == root {
                    let flat: Vec<u64> = r.unwrap().into_iter().map(|v| v.unwrap()).collect();
                    let want: Vec<u64> = (0..(1u64 << d)).map(|i| i + 100).collect();
                    assert_eq!(flat, want, "d={d}");
                } else {
                    assert!(r.is_none(), "non-root {n} got a gather result");
                }
            }
        }
    }
}
