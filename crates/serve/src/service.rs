//! The serving front end: lower, plan admission, run, measure.

use crate::scenario::Scenario;
use mph_batch::{service_plan, AdmissionConfig, Policy, Throughput};
use mph_ccpipe::Machine;
use mph_core::CommPlan;
use mph_eigen::{lower_job, planned_jobs, run_job_service, JobSpec, ServiceRun};
use mph_runtime::{FabricModel, SinkHandle};
use mph_trace::{summarize, Summary};

/// Service-level options: the shared fabric and the admission discipline.
/// Jobs are priced on the fabric's enforced machine, the paper's Figure-2
/// machine on a free fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// The one fabric all served jobs share.
    pub fabric: FabricModel,
    /// Admission discipline ([`Policy::ShortestPlanFirst`] prices queued
    /// jobs and admits the cheapest; the others admit in arrival order)
    /// and the service round's interleaving stride.
    pub policy: Policy,
    /// Queue bound, interleaving width, and de-phasing stagger.
    pub admission: AdmissionConfig,
    /// Trace sink the service records into (default: the zero-cost nop
    /// sink). When enabled, the fabric stamps link/barrier events and
    /// the admission loop adds admit/reject/stagger decisions (node 0's
    /// lane), all on the shared virtual clock. Strictly observational:
    /// results are bitwise identical to the untraced run.
    pub trace: SinkHandle,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            fabric: FabricModel::Free,
            policy: Policy::Fifo,
            admission: AdmissionConfig::default(),
            trace: SinkHandle::nop(),
        }
    }
}

/// One point of the service's backlog time series, sampled at a sweep
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacklogPoint {
    /// The boundary's virtual time.
    pub time: f64,
    /// Jobs waiting in the admission queue.
    pub queue_depth: usize,
    /// Jobs interleaving mid-flight.
    pub active: usize,
    /// Priced time to drain everything in the system serially from here:
    /// queued jobs at full cost, active jobs at the cost of their
    /// remaining sweeps (their [`mph_ccpipe::PlannedJob::sweep_prices`],
    /// the price that admits them).
    pub remaining_cost: f64,
}

/// Everything one serving run produces.
#[derive(Debug)]
pub struct ServeReport {
    /// The driver's raw run: per-job results (bitwise solo), outcomes,
    /// boundary samples, traffic, fabric report.
    pub run: ServiceRun,
    /// Arrival→finish latency distribution over served jobs; `None` if
    /// nothing was served.
    pub latency: Option<Summary>,
    /// Arrival→admission queue-wait distribution over served jobs.
    pub queue_wait: Option<Summary>,
    /// Served jobs/s and moved elements/s on the virtual clock; `None`
    /// on a free fabric.
    pub throughput: Option<Throughput>,
    /// Backlog time series, one point per sweep boundary.
    pub backlog: Vec<BacklogPoint>,
    /// When the service drained (virtual clock).
    pub makespan: f64,
}

impl ServeReport {
    /// Jobs solved to completion.
    pub fn served(&self) -> usize {
        self.run.served()
    }

    /// Jobs shed by backpressure.
    pub fn rejected(&self) -> usize {
        self.run.rejected()
    }

    /// Peak admission-queue depth over the run.
    pub fn peak_queue_depth(&self) -> usize {
        self.backlog.iter().map(|p| p.queue_depth).max().unwrap_or(0)
    }
}

/// Serves `scenario` on a `d`-cube of threads sharing one fabric: lowers
/// every job once, prices admission with the same plans the driver
/// executes, runs the online service, and assembles the SLO report.
///
/// On a degraded fabric the service runs one scenario epoch per round:
/// each round's sweeps relay around the links dead at its epoch, so a
/// death scheduled mid-service takes effect at the round it lands in.
pub fn serve(d: usize, scenario: &Scenario, opts: &ServeOptions) -> ServeReport {
    assert_eq!(scenario.jobs.len(), scenario.arrivals.len(), "one arrival per job");
    let specs: Vec<JobSpec> = scenario.jobs.iter().map(|j| j.to_spec()).collect();
    let lowered: Vec<(Vec<CommPlan>, Vec<Vec<usize>>)> =
        specs.iter().map(|s| lower_job(s, d)).collect();
    let planned = planned_jobs(&specs, &lowered, d);
    let machine = opts.fabric.machine().unwrap_or(Machine::paper_figure2());
    let plan = service_plan(
        &scenario.jobs,
        &planned,
        scenario.arrivals.clone(),
        &opts.policy,
        &machine,
        &opts.admission,
    );
    let run = run_job_service(d, &specs, &planned, opts.fabric.clone(), &plan, opts.trace.clone());

    let latencies: Vec<f64> = run.outcomes.iter().filter_map(|o| o.latency()).collect();
    let waits: Vec<f64> = run.outcomes.iter().filter_map(|o| o.queue_wait()).collect();
    // Every sweep priced once; a boundary looks its backlog up.
    let sweep_costs: Vec<Vec<f64>> = planned
        .iter()
        .map(|job| job.sweep_prices(&machine).iter().map(|c| c.total).collect())
        .collect();
    let backlog: Vec<BacklogPoint> = run
        .boundaries
        .iter()
        .map(|b| {
            // In the system: a queued job owes its whole chain, an active
            // one the sweeps it has left. Summed in job order.
            let mut owing: Vec<(usize, usize)> =
                b.queued.iter().map(|&j| (j, 0)).chain(b.active.iter().copied()).collect();
            owing.sort_unstable();
            let left = |&(j, done): &(usize, usize)| sweep_costs[j].iter().skip(done).sum::<f64>();
            BacklogPoint {
                time: b.time,
                queue_depth: b.queue_depth(),
                active: b.active.len(),
                remaining_cost: owing.iter().map(left).sum(),
            }
        })
        .collect();
    let makespan = run.fabric.makespan;
    let throughput = Throughput::measure(run.served(), run.meter.total_volume(), makespan);
    ServeReport {
        latency: summarize(&latencies),
        queue_wait: summarize(&waits),
        throughput,
        backlog,
        makespan,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{JobClass, ScenarioGen};
    use mph_core::OrderingFamily;
    use mph_eigen::{JacobiOptions, JobResult};

    fn small_scenario(seed: u64, n: usize, gap: f64) -> Scenario {
        let mut gen = ScenarioGen::new(
            seed,
            n,
            gap,
            vec![
                JobClass { m: 8, svd: false, family: OrderingFamily::Br, weight: 2.0 },
                JobClass { m: 16, svd: true, family: OrderingFamily::Br, weight: 1.0 },
            ],
        );
        gen.opts = JacobiOptions { force_sweeps: Some(1), ..Default::default() };
        gen.generate()
    }

    #[test]
    fn a_throttled_service_reports_latencies_throughput_and_backlog() {
        let scenario = small_scenario(5, 4, 2.0e6);
        let opts = ServeOptions {
            fabric: FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            ..Default::default()
        };
        let report = serve(1, &scenario, &opts);
        assert_eq!(report.served(), 4);
        assert_eq!(report.rejected(), 0);
        let lat = report.latency.expect("jobs were served");
        assert!(lat.p50 > 0.0 && lat.p50 <= lat.p99 && lat.p99 <= lat.max);
        assert_eq!(lat.count, 4);
        let t = report.throughput.expect("throttled fabric ticks a clock");
        assert!(t.jobs_per_time > 0.0 && t.elems_per_time > 0.0);
        // The backlog series drains: the last boundary holds the final
        // admission, and pricing is non-negative everywhere.
        assert!(!report.backlog.is_empty());
        assert!(report.backlog.iter().all(|p| p.remaining_cost >= 0.0));
        assert!(report.backlog.iter().any(|p| p.remaining_cost > 0.0));
        let makespan = report.makespan;
        assert!(report.backlog.iter().all(|p| p.time <= makespan));
    }

    #[test]
    fn tracing_defaults_to_the_nop_sink() {
        let opts = ServeOptions::default();
        assert!(!opts.trace.is_enabled());
        assert_eq!(opts, ServeOptions::default());
    }

    #[test]
    fn queue_waits_vanish_under_light_load_and_grow_under_a_burst() {
        let opts = ServeOptions {
            fabric: FabricModel::Throttled(Machine::all_port(1000.0, 100.0)),
            admission: AdmissionConfig { max_active: 1, ..Default::default() },
            ..Default::default()
        };
        // Light load: huge gaps, every job admits on arrival.
        let light = serve(1, &small_scenario(5, 3, 1.0e9), &opts);
        let light_wait = light.queue_wait.expect("served").max;
        assert_eq!(light_wait, 0.0, "light load never queues");
        // Burst: all at once through a width-1 service — someone waits.
        let burst = serve(1, &small_scenario(5, 3, 0.0), &opts);
        assert!(burst.queue_wait.expect("served").max > 0.0);
        assert!(burst.peak_queue_depth() > 0);
    }

    #[test]
    fn a_scheduled_link_death_is_relayed_and_a_death_free_scenario_serves() {
        use mph_runtime::{LinkDeath, Scenario as Impairments, ScenarioSpec};
        use std::sync::Arc;
        let degraded = |deaths: Vec<LinkDeath>| {
            let spec = ScenarioSpec {
                epochs: 3,
                hetero_spread: 1.0,
                deaths,
                ..ScenarioSpec::clean(4, Machine::all_port(1000.0, 100.0))
            };
            let sc = Impairments::new(2, spec).expect("one death keeps the 2-cube connected");
            ServeOptions { fabric: FabricModel::Degraded(Arc::new(sc)), ..Default::default() }
        };
        let scenario = small_scenario(5, 3, 0.0);
        // The service's round barrier advances the epoch, so the death at
        // epoch 1 lands in its first round: every round relays around it,
        // and every job keeps the bits heterogeneity alone leaves it.
        let deadly = serve(2, &scenario, &degraded(vec![LinkDeath { node: 0, dim: 0, epoch: 1 }]));
        let report = serve(2, &scenario, &degraded(Vec::new()));
        for r in [&deadly, &report] {
            assert_eq!((r.served(), r.rejected()), (3, 0));
            assert!(r.makespan > 0.0, "a degraded fabric ticks the clock");
        }
        assert!(deadly.run.adaptive.reroutes > 0 && report.run.adaptive.reroutes == 0);
        let values = |r: &ServeReport| -> Vec<Vec<f64>> {
            let values = |r: &JobResult| match r {
                JobResult::Eigen(e) => e.eigenvalues.clone(),
                JobResult::Svd(s) => s.singular_values.clone(),
            };
            r.run.results.iter().flatten().map(values).collect()
        };
        assert_eq!(values(&deadly), values(&report), "a relay moves blocks, never bits");
    }

    #[test]
    fn free_fabric_serves_everything_with_no_clock() {
        let report = serve(1, &small_scenario(9, 3, 100.0), &ServeOptions::default());
        assert_eq!(report.served(), 3);
        assert_eq!(report.makespan, 0.0);
        assert!(report.throughput.is_none());
        assert_eq!(report.latency.expect("served").max, 0.0);
    }
}
