//! The allocation budget of the paper-model stack: a lowered plan's
//! schedule, its replay and its price cost a fixed number of heap
//! allocations per phase, never one per stage or per candidate degree.
//!
//! A test binary of its own: its counting `#[global_allocator]` serves
//! these tests only. Each thread counts its own allocations, so the tests
//! may run side by side.

use mph_ccpipe::{packetization_cap, plan_sweep_cost, Machine};
use mph_core::{CommPlan, OrderingFamily};
use mph_simnet::{plan_pipelined_schedule, simulate_synchronized, StartupModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting each thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; its allocations count
    // for no test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed to `System` unchanged, so `Counting` keeps
// the system allocator's contract; counting touches a const-initialized
// thread-local `Cell`, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` hold for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees it came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as in `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The benchmark grid's permuted-BR cell at `d`: `m = 32·2^d`, an even
/// partition, so every phase lowers to shared SPMD stages.
fn pbr_plan(d: usize) -> CommPlan {
    CommPlan::chain(32 << d, d, OrderingFamily::PermutedBr, 64 << d, 1).remove(0)
}

/// The degrees the cost model picks for `plan`'s exchange phases.
fn priced_qs(plan: &CommPlan, m: usize) -> Vec<usize> {
    let cap = packetization_cap(m, plan.d()) as f64;
    plan_sweep_cost(plan, &Machine::paper_figure2(), cap).phases.iter().map(|p| p.q).collect()
}

/// What building and replaying a schedule may allocate: the framing, the
/// store's three arrays, the two window buffers and the packet-size table;
/// the replay's busy times, stage spans, clock list and its one clock's
/// links — and one array per phase, its §2.4 windows.
const SCHEDULE_FIXED: u64 = 11;
const SCHEDULE_PER_PHASE: u64 = 1;

#[test]
fn a_schedule_and_its_replay_allocate_per_phase_never_per_stage() {
    let machine = Machine::paper_figure2();
    let mut seen = Vec::new();
    for d in [5, 7] {
        let plan = pbr_plan(d);
        let qs = priced_qs(&plan, 32 << d);
        let phases = plan.phases().len() as u64;
        let (report, count) = allocations(|| {
            let schedule = plan_pipelined_schedule(&plan, &qs);
            simulate_synchronized(&schedule, &machine, StartupModel::SerializedThenParallel)
        });
        let stages = report.stage_spans.len() as u64;
        assert!(stages > 4 * phases, "d={d}: {stages} stages, {phases} phases");
        let budget = SCHEDULE_FIXED + SCHEDULE_PER_PHASE * phases;
        assert!(count <= budget, "d={d}: {count} allocations, budget {budget} ({stages} stages)");
        seen.push((phases, count));
    }
    // The same count per phase at both sizes: the d = 7 plan's extra
    // phases, and their hundreds of extra stages, cost one array each.
    let [(p5, c5), (p7, c7)] = seen[..] else { unreachable!() };
    assert_eq!(c7 - c5, SCHEDULE_PER_PHASE * (p7 - p5), "d=5: {c5} in {p5}; d=7: {c7} in {p7}");
}

/// What pricing may allocate per exchange phase: its CC-cube's links and
/// the degree search's candidate list — the walk that prices the small
/// degrees, and the deep statistics, live on the stack; and per plan, the
/// list of priced phases as it grows.
const PRICE_PER_EXCHANGE_PHASE: u64 = 2;
const PRICE_FIXED: u64 = 2;

#[test]
fn pricing_a_plan_allocates_a_constant_per_exchange_phase() {
    let machine = Machine::paper_figure2();
    for d in [5, 7] {
        let plan = pbr_plan(d);
        let cap = packetization_cap(32 << d, d) as f64;
        let exchange = plan.exchange_phases().count() as u64;
        let (cost, count) = allocations(|| plan_sweep_cost(&plan, &machine, cap));
        // Every phase searched at least its 16 candidate degrees.
        assert!(cost.phases.iter().all(|p| p.q >= 1) && cap >= 16.0);
        let budget = PRICE_FIXED + PRICE_PER_EXCHANGE_PHASE * exchange;
        assert!(count <= budget, "d={d}: {count} allocations, budget {budget}");
    }
    // Four times the walk's widths cost not one allocation more: at d = 7
    // the longest phase walks 64 widths at cap 64, 16 at cap 16.
    let plan = pbr_plan(7);
    let (_, at_16) = allocations(|| plan_sweep_cost(&plan, &machine, 16.0));
    let (_, at_64) = allocations(|| plan_sweep_cost(&plan, &machine, 64.0));
    assert_eq!(at_16, at_64, "d=7: {at_16} allocations at cap 16, {at_64} at cap 64");
}
