//! The reference loop: a frozen piece of the benchmark's own code that reads
//! the host's current speed.
//!
//! The hosts this runs on share their cores: the same single-threaded solve
//! takes 150, 200 or 250 ms depending on what a neighbour does on the
//! sibling hyperthread, for seconds to minutes at a time. No statistic of
//! raw wall times taken in a 10-second run is steady across runs under that
//! (see the README's noise section). A job's wall time divided by the wall
//! time of this loop, read immediately before and after the job, is: both
//! slow down together.
//!
//! The loop is a one-sided Jacobi sweep — inner products and plane rotations
//! over a cache-resident matrix, the instruction mix of the solver's hot
//! path — written out here so that no change to the repository can move it.
//! It must never change: every recorded `job_wall_x_ref` is in its units.
//!
//! `serve_load`, whose time goes into threads waking each other, is measured
//! against this loop plus a second frozen one, [`read_exchange`].

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

const N: usize = 128;
const SWEEPS: usize = 12;

/// The exchange loop's cube: 8 threads, each with one neighbour per dimension.
const CUBE_D: usize = 3;
/// Exchanges each thread makes in one reading.
const EXCHANGES: usize = 1500;
/// Elements of one exchanged block.
const BLOCK: usize = 256;

pub struct Speedometer {
    pristine: Vec<f64>,
    work: Vec<f64>,
}

impl Default for Speedometer {
    fn default() -> Self {
        Self::new()
    }
}

impl Speedometer {
    pub fn new() -> Self {
        // A fixed symmetric matrix with no structure a rotation could
        // exploit: entry (i, j) from a small multiplicative hash.
        let entry = |i: usize, j: usize| {
            let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
            let h = (lo * 0x9e37 + hi * 0x85eb + 0x1234_5678).wrapping_mul(0x2545_f491_4f6c_dd1d);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let pristine: Vec<f64> = (0..N * N).map(|k| entry(k / N, k % N)).collect();
        Speedometer { work: pristine.clone(), pristine }
    }

    /// Runs the loop once, from the same matrix every time, and returns its
    /// wall seconds: about 20 ms on an otherwise idle 2.1 GHz core.
    pub fn read(&mut self) -> f64 {
        let t0 = Instant::now();
        self.work.copy_from_slice(&self.pristine);
        for _ in 0..SWEEPS {
            for i in 0..N {
                for j in i + 1..N {
                    let (head, tail) = self.work.split_at_mut(j * N);
                    rotate_pair(&mut head[i * N..(i + 1) * N], &mut tail[..N]);
                }
            }
        }
        black_box(&self.work);
        t0.elapsed().as_secs_f64()
    }
}

/// The exchange loop: the second half of the reference for a workload whose
/// time goes into threads waking each other rather than into arithmetic.
///
/// `serve_load` spends a millisecond per request, 240 messages of it, on 8
/// node threads that mostly wait for one another. When the host shifts speed
/// that moves differently from the Jacobi loop above (a request slowed by
/// 17 % where the loop slowed by 8 %), so a replay is measured against the
/// Jacobi loop *plus* this one: 8 threads that swap small blocks along the
/// three dimensions of a cube and rotate what they hold against what they
/// got. Over four minutes on one CPU the medians of nine consecutive replays
/// ranged over 12 % of their median measured against the Jacobi loop alone,
/// 9 % against this loop alone, and 5 % against their sum.
///
/// Frozen like the Jacobi loop, and for the same reason. Returns the wall
/// seconds of one reading (about 12 ms on one 2.1 GHz CPU) and a checksum of
/// what the threads hold at the end.
pub fn read_exchange() -> (f64, f64) {
    const NODES: usize = 1 << CUBE_D;
    // One channel per node and dimension: what the neighbour across that
    // dimension sends.
    let (mut senders, mut receivers) = (Vec::new(), Vec::new());
    for _ in 0..NODES * CUBE_D {
        let (tx, rx) = mpsc::channel::<Vec<f64>>();
        senders.push(tx);
        receivers.push(Some(rx));
    }
    let t0 = Instant::now();
    let checksum = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..NODES)
            .map(|node| {
                let from: Vec<mpsc::Receiver<Vec<f64>>> = (0..CUBE_D)
                    .map(|d| receivers[node * CUBE_D + d].take().expect("taken once"))
                    .collect();
                let to: Vec<mpsc::Sender<Vec<f64>>> =
                    (0..CUBE_D).map(|d| senders[(node ^ (1 << d)) * CUBE_D + d].clone()).collect();
                scope.spawn(move || {
                    let mut held: Vec<f64> =
                        (0..BLOCK).map(|i| ((i * 7 + node) % 13) as f64 - 6.0).collect();
                    let mut outgoing = held.clone();
                    for round in 0..EXCHANGES {
                        let d = round % CUBE_D;
                        to[d].send(outgoing).expect("the neighbour outlives the exchange");
                        let mut got = from[d].recv().expect("the neighbour sends every round");
                        for (a, b) in held.iter_mut().zip(got.iter_mut()) {
                            let (p, q) = (*a, *b);
                            *a = 0.8 * p - 0.6 * q;
                            *b = 0.6 * p + 0.8 * q;
                        }
                        outgoing = got;
                    }
                    held.iter().sum::<f64>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("an exchange thread panicked")).sum::<f64>()
    });
    (t0.elapsed().as_secs_f64(), checksum)
}

/// Orthogonalizes two columns against each other (Hestenes).
fn rotate_pair(x: &mut [f64], y: &mut [f64]) {
    let (mut alpha, mut beta, mut gamma) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y.iter()) {
        alpha += a * a;
        beta += b * b;
        gamma += a * b;
    }
    if gamma == 0.0 {
        return;
    }
    let zeta = (beta - alpha) / (2.0 * gamma);
    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = c * t;
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        let (p, q) = (*a, *b);
        *a = c * p - s * q;
        *b = s * p + c * q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_exchange_reading_ends_with_the_same_blocks() {
        let (seconds, checksum) = read_exchange();
        assert!(seconds > 0.0 && checksum.is_finite() && checksum != 0.0);
        assert_eq!(read_exchange().1.to_bits(), checksum.to_bits());
    }

    #[test]
    fn every_reading_does_the_same_work() {
        let mut meter = Speedometer::new();
        assert!(meter.read() > 0.0);
        let first = meter.work.clone();
        assert!(meter.read() > 0.0);
        assert_eq!(first, meter.work, "a reading restarts from the pristine matrix");
        assert_ne!(first, meter.pristine, "and it does rotate");
        // Twelve sweeps of Jacobi leave the columns orthogonal.
        let dot = |i: usize, j: usize| -> f64 {
            (0..N).map(|k| first[i * N + k] * first[j * N + k]).sum()
        };
        assert!(
            dot(0, 1).abs() < 1e-3 * dot(0, 0).max(dot(1, 1)),
            "{} vs {}",
            dot(0, 1),
            dot(0, 0)
        );
    }
}
