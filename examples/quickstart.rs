//! Quickstart: the three orderings of the paper in five minutes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the BR, permuted-BR and degree-4 link sequences for an 8-cube,
//! shows why BR cannot exploit a multi-port machine (α, degree, link
//! histogram), prices one sweep with communication pipelining, and solves a
//! small symmetric eigenproblem with each ordering.

use mph::ccpipe::{packetization_cap, plan_sweep_cost, plan_unpipelined_cost, Machine};
use mph::core::{
    alpha, alpha_lower_bound, link_histogram, sequence_degree, CommPlan, OrderingFamily,
};
use mph::eigen::{block_jacobi, JacobiOptions};
use mph::linalg::symmetric::random_symmetric;

fn main() {
    let e = 8usize;
    println!("== link sequences for exchange phase e = {e} (one per family)\n");
    for family in [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4] {
        let seq = family.sequence(e);
        println!(
            "{:>12}: α = {:>3} (lower bound {:>2}), degree = {}, histogram = {:?}",
            family.name(),
            alpha(&seq, e),
            alpha_lower_bound(e),
            sequence_degree(&seq, e),
            link_histogram(&seq, e),
        );
    }

    println!("\n== one-sweep communication cost on an all-port 8-cube (m = 2^23)\n");
    let machine = Machine::paper_figure2();
    let (m, d) = (1usize << 23, 8);
    let sweep = |family| CommPlan::chain(m, d, family, 2 * m, 1).remove(0);
    let base = plan_unpipelined_cost(&sweep(OrderingFamily::Br), &machine);
    println!("{:>12}: 1.000 (baseline, no pipelining)", "BR");
    for family in [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4] {
        let sc = plan_sweep_cost(&sweep(family), &machine, packetization_cap(m, d) as f64);
        println!(
            "{:>12}: {:.3} with per-phase optimal pipelining degree",
            family.name(),
            sc.total / base
        );
    }

    println!("\n== eigensolve: m = 32 random symmetric matrix on a 2-cube (P = 4)\n");
    let a = random_symmetric(32, 2024);
    for family in [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4] {
        let r = block_jacobi(&a, 2, family, &JacobiOptions::default());
        let ev = r.sorted_eigenvalues();
        println!(
            "{:>12}: {} sweeps, {} rotations, λ_min = {:+.4}, λ_max = {:+.4}",
            family.name(),
            r.sweeps,
            r.rotations,
            ev[0],
            ev[31]
        );
    }
    println!("\nAll three orderings compute the same spectrum in the same number of");
    println!("sweeps — they differ only in which hypercube links carry the blocks,");
    println!("which is exactly what the communication costs above measure.");
}
