//! The counting allocator, in a process of its own: its counters are global.

use mph_benchmark::alloc::{self, Counting};
use std::hint::black_box;

#[global_allocator]
static ALLOC: Counting = Counting;

const MB: usize = 1 << 20;

#[test]
fn counts_only_while_switched_on_and_tracks_the_peak_across_pauses() {
    let before = black_box(vec![0u8; 4096]);
    alloc::start();
    let a = black_box(vec![0u8; 4 * MB]);
    drop(a);
    let b = black_box(vec![0u8; MB]);
    alloc::pause();
    // Unseen: neither this allocation nor the free of `b`.
    let unseen = black_box(vec![0u8; 16 * MB]);
    drop((b, unseen));
    alloc::resume();
    let c = black_box(vec![0u8; 2 * MB]);
    let stats = alloc::stop();
    let after = black_box(vec![0u8; 32 * MB]);
    drop((before, c, after));

    // The test harness may allocate a little on its own threads meanwhile.
    let slack = 64 * 1024;
    assert!((3..50).contains(&stats.allocs), "{stats:?}");
    assert!((7 * MB as u64..7 * MB as u64 + slack).contains(&stats.bytes), "{stats:?}");
    // The peak is the largest live level, not the sum: `a` was freed before
    // `b` was allocated, and the level restarted at 0 on `resume`.
    assert!((4 * MB as u64..4 * MB as u64 + slack).contains(&stats.peak_bytes), "{stats:?}");
}
