//! What the run was measured on: the fingerprint written into every result
//! file, the process CPU clock, and the confinement of the timed runs to one
//! CPU.

use crate::json::Value;

/// Logical cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A thread's CPU set as the kernel keeps it: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    // Both are in the C library `std` links on Linux.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on. `None` where the host has no
/// such call.
fn allowed_cpus() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the
        // `size_of::<CpuSet>()` bytes passed as its size, and pid 0 names
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Restricts the calling thread, and every thread it spawns from now on, to
/// `set`. False if the kernel refused.
fn allow_cpus(set: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `set` is a live buffer of exactly the `size_of::<CpuSet>()`
        // bytes passed as its size, which the call only reads, and pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        false
    }
}

/// The timed runs' confinement to one CPU.
///
/// The hosts this runs on are small virtual machines. Waking a thread on
/// another virtual CPU there costs five times what a context switch on the
/// same one does, and how long the host takes to schedule that CPU in again
/// depends on the host's load: timed on two CPUs, ten runs of the workloads
/// that spawn or wake threads all the time (`logical_pool`, `serve_load`)
/// spread over 0.93 and 0.76 of their median, where the bound is a quarter
/// (the README's noise section has the measurements). On one CPU a wake-up
/// is a context switch, the reference loop shares the job's CPU by
/// construction, and ten runs of every workload agree within a few percent.
/// The price is that the timed runs see no parallel speed-up; the traced
/// pass, whose numbers are not bounded, runs on every CPU the process has.
pub struct Confined {
    pub cpu: usize,
    allowed: CpuSet,
}

impl Confined {
    /// Confines the calling thread and the threads it will spawn to the last
    /// CPU it may use (the first one takes the machine's interrupts). Call it
    /// from the main thread before anything is spawned. `None`, and nothing
    /// changed, where the host cannot do it.
    pub fn to_one_cpu() -> Option<Confined> {
        let allowed = allowed_cpus()?;
        let cpu =
            (0..allowed.len() * 64).rev().find(|&c| (allowed[c / 64] >> (c % 64)) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        allow_cpus(&one).then_some(Confined { cpu, allowed })
    }

    /// Gives the calling thread back every CPU it had.
    pub fn release(self) {
        allow_cpus(&self.allowed);
    }
}

/// SIMD features the lane kernels look for, as detected on this CPU.
pub fn simd_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            found.push("avx512f");
        }
    }
    found
}

/// The vector unit `KernelPath::Lanes` is expected to dispatch to on this
/// CPU: AVX-512F, else AVX2 with FMA, else the portable unrolled loop. The
/// repository keeps its dispatch tier private, so this repeats the rule of
/// `mph_linalg::vecops` on the detected features rather than reading the
/// tier; if that rule changes, this one is stale until it is re-pointed.
pub fn expected_lanes_dispatch() -> &'static str {
    let features = simd_features();
    if features.contains(&"avx512f") {
        "avx512"
    } else if features.contains(&"avx2") && features.contains(&"fma") {
        "avx2"
    } else {
        "portable"
    }
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (10 ms ticks). 0 where that file does not exist.
pub fn cpu_seconds() -> f64 {
    // Field 2 is the command in parentheses and may hold spaces; fields
    // 14 and 15 (utime, stime) are the 12th and 13th after it.
    let ticks = std::fs::read_to_string("/proc/self/stat").ok().and_then(|stat| {
        let rest = stat.rsplit_once(')')?.1.to_owned();
        let mut fields = rest.split_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some(utime + stime)
    });
    // USER_HZ is 100 on every Linux ABI.
    ticks.unwrap_or(0.0) / 100.0
}

/// The host fingerprint: what a later run must match before its wall
/// numbers are compared with this one's.
///
/// `cores` is what the process had before `timed_on_cpu`, the one CPU its
/// timed rounds were confined to (`None` if they were not).
pub fn fingerprint(
    seed: u64,
    rounds: usize,
    nodes: usize,
    cores: usize,
    timed_on_cpu: Option<usize>,
) -> Value {
    Value::obj([
        ("cores", Value::Num(cores as f64)),
        ("timed_on_cpu", timed_on_cpu.map_or(Value::Null, |cpu| Value::Num(cpu as f64))),
        ("nodes", Value::Num(nodes as f64)),
        ("oversubscribed", Value::Bool(nodes > cores)),
        ("simd_features", Value::Arr(simd_features().into_iter().map(Value::str).collect())),
        ("expected_lanes_dispatch", Value::str(expected_lanes_dispatch())),
        ("rustc", Value::str(env!("BENCH_RUSTC_VERSION"))),
        ("arch", Value::str(std::env::consts::ARCH)),
        ("os", Value::str(std::env::consts::OS)),
        ("seed", Value::Num(seed as f64)),
        ("rounds", Value::Num(rounds as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confinement_leaves_the_thread_and_its_children_one_cpu_and_release_restores_them() {
        let before = cores();
        let Some(confined) = Confined::to_one_cpu() else {
            return; // not a host that can
        };
        assert_eq!(cores(), 1);
        assert_eq!(std::thread::spawn(cores).join().unwrap(), 1, "a spawned thread inherits it");
        confined.release();
        assert_eq!(cores(), before);
    }
}
