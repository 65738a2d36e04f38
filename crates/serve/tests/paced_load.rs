//! The service at its calibration load point: eight seeded jobs (2:1
//! eigen/SVD mix, one forced sweep) paced at 1.5× their mean one-port solo
//! price — sustained traffic under capacity, into a queue of two. A
//! rejection here means admission or pacing regressed, not that the
//! scenario was hard (the same jobs in one burst shed two); and the
//! same arrival sequence must drain at least as fast on the all-port
//! fabric as on the one-port one. Virtual-clock quantities, so exact bars.
//! (The load test that does fill the queue is the repository benchmark's
//! `serve_load` workload.)

use mph_batch::{AdmissionConfig, Policy};
use mph_ccpipe::{solo_plan_costs, Machine};
use mph_core::OrderingFamily;
use mph_eigen::{lower_job, planned_jobs, JacobiOptions, JobSpec};
use mph_runtime::FabricModel;
use mph_serve::{serve, JobClass, ScenarioGen, ServeOptions};

#[test]
fn arrivals_paced_under_one_port_capacity_shed_nothing_and_all_port_drains_no_slower() {
    let (d, n_jobs) = (2usize, 8usize);
    // At m = 32 the paced load rarely overlaps two jobs and the port model
    // is invisible; at m = 128 overlap is routine and all-port is ahead.
    for m in [32usize, 128] {
        let mut gen = ScenarioGen::new(
            424242 + m as u64,
            n_jobs,
            1.0,
            vec![
                JobClass { m, svd: false, family: OrderingFamily::Br, weight: 2.0 },
                JobClass { m, svd: true, family: OrderingFamily::Degree4, weight: 1.0 },
            ],
        );
        gen.opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        // Price the drawn jobs solo on the one-port machine, then
        // regenerate with the paced gap — same seed, same jobs, same
        // uniform draws, arrivals scaled to the sustained rate.
        let drawn = gen.generate();
        let specs: Vec<JobSpec> = drawn.jobs.iter().map(|j| j.to_spec()).collect();
        let lowered: Vec<_> = specs.iter().map(|s| lower_job(s, d)).collect();
        let costs =
            solo_plan_costs(&planned_jobs(&specs, &lowered, d), &Machine::one_port(1000.0, 100.0));
        gen.mean_interarrival = 1.5 * costs.iter().sum::<f64>() / costs.len() as f64;
        let scenario = gen.generate();

        let jobs_per_time = |machine: Machine| {
            let opts = ServeOptions {
                fabric: FabricModel::Throttled(machine),
                policy: Policy::ShortestPlanFirst,
                admission: AdmissionConfig { queue_cap: 2, max_active: 4, stagger_slots: 2 },
                ..Default::default()
            };
            let report = serve(d, &scenario, &opts);
            assert_eq!(
                (report.served(), report.rejected()),
                (n_jobs, 0),
                "m={m} {:?}: the calibration load shed jobs",
                machine.ports
            );
            let lat = report.latency.expect("a throttled service reports latencies");
            assert!(lat.p50 <= lat.p99, "m={m}: p50 {} above p99 {}", lat.p50, lat.p99);
            report.throughput.expect("a throttled service has throughput").jobs_per_time
        };
        let one = jobs_per_time(Machine::one_port(1000.0, 100.0));
        let all = jobs_per_time(Machine::all_port(1000.0, 100.0));
        assert!(all >= one, "m={m}: all-port {all:e} jobs/vtime below one-port {one:e}");
    }
}
