//! The paper's communication-cost model: Figure 2, the model against the
//! simulator, and how the verdict moves with the port count, the
//! pipelining degree and the computation rate.

use crate::Report;
use mph_ccpipe::{
    efficiency, figure2_point, optimize_q, packetization_cap, plan_sweep_cost,
    plan_unpipelined_cost, speedup, unpipelined_sweep_time, CcCube, ComputeModel, Machine,
    PhaseCostModel, PortModel,
};
use mph_core::{CommPlan, OrderingFamily};
use mph_simnet::{pipelined_phase_schedule, simulate_synchronized, StartupModel};

const FAMILIES: [OrderingFamily; 3] =
    [OrderingFamily::Br, OrderingFamily::PermutedBr, OrderingFamily::Degree4];

/// One sweep of an `m × m` problem on a `d`-cube, lowered for each of
/// [`FAMILIES`].
fn one_sweep_plans(m: usize, d: usize) -> [CommPlan; 3] {
    FAMILIES.map(|f| CommPlan::chain(m, d, f, 2 * m, 1).remove(0))
}

/// **Figure 2** (panels a, b, c): communication cost of the pipelined BR /
/// degree-4 / permuted-BR algorithms and the lower bound, relative to the
/// unpipelined CC-cube BR algorithm, for `d ∈ [2, 15]` and
/// `m ∈ {2^18, 2^23, 2^32}`, with `Ts = 1000`, `Tw = 100` and the optimal
/// pipelining degree per phase.
pub fn figure2(_: &[String]) -> Report {
    let machine = Machine::paper_figure2();
    let mut r = Report::default();
    for (panel, mexp) in [('a', 18u32), ('b', 23), ('c', 32)] {
        let m = 2f64.powi(mexp as i32);
        r.banner(&format!(
            "Figure 2({panel}) — m = 2^{mexp}, Ts = {}, Tw = {}, all-port",
            machine.ts, machine.tw
        ));
        say!(r, "  d     BR   pipelined-BR   degree-4    permuted-BR  lower-bound   mode");
        let mut rows = Vec::new();
        for d in 2..=15 {
            let p = figure2_point(d, m, &machine);
            let mode = if p.permuted_br_deep { "deep" } else { "shallow" };
            say!(
                r,
                "{d:>3} {:>6.3} {:>14.3} {:>10.3} {:>14.3} {:>12.3} {:>6}",
                1.0,
                p.pipelined_br,
                p.degree4,
                p.permuted_br,
                p.lower_bound,
                &mode[..4]
            );
            rows.push(format!(
                "{d},1,{:.5},{:.5},{:.5},{:.5},{mode}",
                p.pipelined_br, p.degree4, p.permuted_br, p.lower_bound,
            ));
        }
        r.csv(
            &format!("figure2{panel}.csv"),
            "d,br,pipelined_br,degree4,permuted_br,lower_bound,pbr_mode",
            &rows,
        );
    }
    say!(
        r,
        "\nShape targets (paper §4): pipelined BR ≈ 0.5; degree-4 ≈ 0.25 everywhere;\n\
         permuted-BR near the lower bound while deep pipelining is possible (filled\n\
         symbols), degrading towards pipelined BR when the block size forces shallow\n\
         mode; lower bound ≈ 0.8 × permuted-BR in deep mode (Theorem 3's 1.25×)."
    );
    r
}

/// End-to-end speedup: the orderings' communication savings composed with
/// the rotation flop model of `mph_ccpipe::execution`, per ordering as the
/// machine scales, at three computation-to-communication ratios. A model
/// result: it reads no clock.
pub fn exec_speedup(_: &[String]) -> Report {
    let machine = Machine::paper_figure2();
    let m = 1usize << 13;
    let mut r = Report::default();
    let mut rows = Vec::new();
    for tc in [100.0f64, 10.0, 1.0] {
        let compute = ComputeModel { tc };
        r.banner(&format!("speedup, m = 2^13, Ts = 1000, Tw = 100, tc = {tc} (per flop)"));
        say!(
            r,
            "  d      P          BR    permuted-BR    degree-4 |   eff(BR)  eff(pBR)   eff(D4)"
        );
        for d in [2usize, 4, 6, 8, 10] {
            let plans = one_sweep_plans(m, d);
            let [s_br, s_pbr, s_d4] = plans.each_ref().map(|p| speedup(p, m, &machine, &compute));
            let [e_br, e_pbr, e_d4] =
                plans.each_ref().map(|p| efficiency(p, m, &machine, &compute));
            let frac = unpipelined_sweep_time(&plans[0], m, &machine, &compute).comm_fraction();
            say!(
                r,
                "{d:>3} {:>6} {s_br:>11.1} {s_pbr:>14.1} {s_d4:>11.1} | {e_br:>9.3} {e_pbr:>9.3} \
                 {e_d4:>9.3}   comm-frac(unpip BR) {frac:.2}",
                1 << d
            );
            rows.push(format!(
                "{tc},{d},{s_br:.3},{s_pbr:.3},{s_d4:.3},{e_br:.4},{e_pbr:.4},{e_d4:.4}"
            ));
        }
    }
    r.csv(
        "exec_speedup.csv",
        "tc,d,speedup_br,speedup_pbr,speedup_d4,eff_br,eff_pbr,eff_d4",
        &rows,
    );
    say!(
        r,
        "\nReading: at high tc (computation-bound) all orderings scale alike; as tc\n\
         falls the communication fraction grows and the balanced orderings keep\n\
         scaling where BR flattens — the regime the paper targets."
    );
    r
}

/// The analytic phase-cost model against the network simulator: for every
/// family over a grid of phase sizes and pipelining degrees, the simulated
/// makespan under the paper's strict start-up semantics must equal the
/// closed form to machine precision; overlapped start-ups show how
/// conservative the model is.
pub fn validate_simnet(_: &[String]) -> Report {
    let machine = Machine::paper_figure2();
    let mut r = Report::default();
    r.banner("simulator vs analytic model (Ts = 1000, Tw = 100, all-port)");
    say!(
        r,
        "        family   e      Q         analytic        simulated         gap overlap-saving"
    );
    let mut rows = Vec::new();
    let mut max_gap = 0.0f64;
    for family in OrderingFamily::ALL {
        for e in [4usize, 6, 8, 10] {
            let k = (1usize << e) - 1;
            for q in [1usize, 2, 4, e, k / 2, k, 2 * k] {
                let q = q.max(1);
                let cc = CcCube::exchange_phase(family, e, 4096.0);
                let sched = pipelined_phase_schedule(e, &cc, q);
                let sim = |startup| simulate_synchronized(&sched, &machine, startup).makespan;
                let strict = sim(StartupModel::SerializedThenParallel);
                let overlapped = sim(StartupModel::Overlapped);
                let analytic = PhaseCostModel::new(&cc, machine).cost(q);
                let gap = (strict - analytic).abs() / analytic;
                max_gap = max_gap.max(gap);
                // Overlap saves at most (n−1)·Ts per stage.
                let saving = (analytic - overlapped) / analytic;
                assert!((0.0..0.5).contains(&saving), "{family} e={e} q={q}: saving {saving}");
                let (name, saving) = (family.name(), 100.0 * saving);
                say!(
                    r,
                    "{name:>14} {e:>3} {q:>6} {analytic:>16.1} {strict:>16.1} {gap:>11.2e} \
                     {saving:>13.2}%"
                );
                rows.push(format!("{name},{e},{q},{analytic},{strict},{overlapped},{gap}"));
            }
        }
    }
    r.csv(
        "validate_simnet.csv",
        "family,e,q,analytic,simulated_strict,simulated_overlapped,strict_gap",
        &rows,
    );
    say!(r, "\nmax relative gap (strict semantics): {max_gap:.3e}");
    assert!(max_gap < 1e-9, "simulator disagrees with the analytic model");
    say!(r, "PASS: simulator reproduces the closed-form model exactly.");
    r
}

/// How the port count changes the verdict. The paper's claim is about
/// *multi-port* hypercubes: on a one-port machine pipelining cannot help
/// and every ordering costs the same; the balanced orderings' advantage
/// grows with the ports until it saturates at all-port.
pub fn ablation_ports(_: &[String]) -> Report {
    let (m, d) = (1usize << 23, 8usize);
    let plans = one_sweep_plans(m, d);
    let q_max = packetization_cap(m, d) as f64;
    let mut r = Report::default();
    r.banner(&format!("port-count ablation (d = {d}, m = 2^23, Ts = 1000, Tw = 100)"));
    say!(r, "    ports   BR (unpip)   pipelined-BR   degree-4    permuted-BR");
    let mut rows = Vec::new();
    let configs = [
        ("1", PortModel::OnePort),
        ("2", PortModel::KPort(2)),
        ("4", PortModel::KPort(4)),
        ("8", PortModel::KPort(8)),
        ("all", PortModel::AllPort),
    ];
    for (label, ports) in configs {
        let machine = Machine { ts: 1000.0, tw: 100.0, ports };
        let base = plan_unpipelined_cost(&plans[0], &machine);
        let [br, pbr, d4] =
            plans.each_ref().map(|p| plan_sweep_cost(p, &machine, q_max).total / base);
        say!(r, "{label:>9} {:>12.3} {br:>14.3} {d4:>10.3} {pbr:>14.3}", 1.0);
        rows.push(format!("{label},1.0,{br:.5},{d4:.5},{pbr:.5}"));
    }
    r.csv("ablation_ports.csv", "ports,br,pipelined_br,degree4,permuted_br", &rows);
    say!(
        r,
        "\nExpected shape: with 1 port every column ≈ 1.0 (pipelining can't help);\n\
         the balanced orderings pull ahead as ports are added, saturating at the\n\
         all-port figures of Figure 2."
    );
    r
}

/// Communication cost against the pipelining degree `Q` for one exchange
/// phase — the shallow/deep trade-off the optimizer navigates, and the
/// reason the paper needs *two* novel orderings, one per regime.
pub fn ablation_q(_: &[String]) -> Report {
    let e = 8usize;
    let elems = 2f64.powi(23); // large block: both regimes visible
    let machine = Machine::paper_figure2();
    let k = (1usize << e) - 1;
    let mut r = Report::default();
    r.banner(&format!("cost vs pipelining degree (exchange phase e = {e}, K = {k}, elems = 2^23)"));
    let models =
        FAMILIES.map(|f| PhaseCostModel::new(&CcCube::exchange_phase(f, e, elems), machine));
    let mut qs = vec![1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, k, 2 * k, 4 * k];
    let mut g = 8.0 * k as f64;
    while g < elems {
        qs.push(g as usize);
        g *= 4.0;
    }
    qs.sort_unstable();
    qs.dedup();
    say!(r, "{:>10} {:>12} {:>14} {:>12}", "Q", "BR", "permuted-BR", "degree-4");
    let mut rows = Vec::new();
    let base = models[0].unpipelined_cost();
    for &q in &qs {
        let c = models.each_ref().map(|mo| mo.cost(q) / base);
        let marker = if q == k { "   <- K (shallow/deep boundary)" } else { "" };
        say!(r, "{q:>10} {:>12.4} {:>14.4} {:>12.4}{marker}", c[0], c[1], c[2]);
        rows.push(format!("{q},{:.6},{:.6},{:.6}", c[0], c[1], c[2]));
    }
    r.csv("ablation_q.csv", "q,br,permuted_br,degree4", &rows);

    say!(r, "\nper-family optimum:");
    for (f, mo) in FAMILIES.iter().zip(&models) {
        let opt = optimize_q(mo, elems);
        say!(
            r,
            "  {:>12}: Q* = {:>8}  cost/base = {:.4}  mode = {:?}",
            f.name(),
            opt.q,
            opt.cost / base,
            opt.mode
        );
    }
    say!(
        r,
        "\nExpected shape: BR flattens at ~0.5 regardless of Q (zero-heavy windows);\n\
         degree-4 drops fast and bottoms near Q ≈ 4–e (degree-4 windows); permuted-BR\n\
         needs Q ≫ K (deep mode) to reach its near-optimal plateau."
    );
    r
}
