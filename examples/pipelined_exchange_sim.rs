//! Watch one pipelined exchange phase execute on the simulated multi-port
//! hypercube: stage-by-stage windows, their costs, and the total makespan
//! versus the analytic model and the unpipelined baseline.
//!
//! ```sh
//! cargo run --release --example pipelined_exchange_sim -- [e] [q]
//! ```

use mph::ccpipe::{pipelined_schedule, CcCube, Machine, PhaseCostModel};
use mph::core::OrderingFamily;
use mph::simnet::{pipelined_phase_schedule, simulate_synchronized, StartupModel};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let e: usize = args.get(1).map(|s| s.parse().expect("e")).unwrap_or(4);
    let q: usize = args.get(2).map(|s| s.parse().expect("q")).unwrap_or(4);
    let elems = 1200.0;
    let machine = Machine::paper_figure2();

    for family in [OrderingFamily::Br, OrderingFamily::Degree4] {
        let cc = CcCube::exchange_phase(family, e, elems);
        let stages = pipelined_schedule(cc.k(), q);
        println!("\n== {} exchange phase e = {e}, K = {}, Q = {q}", family.name(), cc.k());
        if stages.stages.len() <= 40 {
            for (s, st) in stages.stages.iter().enumerate() {
                println!(
                    "  stage {s:>2} [{:?}]: links {}",
                    st.phase,
                    stages.stage_notation(&cc, s)
                );
            }
        } else {
            println!("  ({} stages — listing suppressed)", stages.stages.len());
        }
        let sched = pipelined_phase_schedule(e, &cc, q);
        let sim = simulate_synchronized(&sched, &machine, StartupModel::SerializedThenParallel);
        let model = PhaseCostModel::new(&cc, machine);
        println!("  simulated makespan : {:>12.1}", sim.makespan);
        println!("  analytic cost      : {:>12.1}", model.cost(q));
        println!("  unpipelined (Q = 1): {:>12.1}", model.unpipelined_cost());
        println!("  gain over Q = 1    : {:>11.2}×", model.unpipelined_cost() / sim.makespan);
        println!("  per-dim busy time  : {:?}", sim.dim_busy);
    }
    println!(
        "\nNote how degree-4's windows keep all links busy (gain → 4×) while BR's\n\
         zero-heavy windows cap the gain at 2× no matter how large Q grows."
    );
}
