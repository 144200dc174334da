//! Host speed, read from a fixed reference kernel run between the
//! measured operations.
//!
//! On a shared host a core's speed swings by up to 2–3× within seconds
//! as other tenants load the physical core it shares: on a 2-core VM, one
//! busy process on the other core slowed this one up to 2.5×. Raw wall times then
//! spread from run to run by more than any regression bound. The
//! reference kernel is the benchmark's own code, not the program's: a
//! heap-ordered event loop whose events update a 192 KiB and a 4 MiB
//! table, as the engine's calendar pops update per-node and per-arc
//! state. It does the same work on every call, so its time measures the
//! host alone.
//!
//! Each measured time is kept with the factor [`NOMINAL_S`] ÷ (the
//! kernel's time next to it); the scaled time reads as on a host where
//! the kernel takes [`NOMINAL_S`]. A change to the program moves the
//! scaled time in proportion to its own work and cannot move the kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel time that defines the nominal host, in seconds: a round
/// figure near its time on one core of a 2.1 GHz Xeon VM.
pub const NOMINAL_S: f64 = 0.0015;

/// Events per kernel call.
const EVENTS: u32 = 12_000;
/// Pending events in the kernel's heap.
const PENDING: u32 = 2_048;
/// Entries of the two tables: 192 KiB of `u32`, 4 MiB of `u64`.
const SMALL: usize = 48 * 1024;
const LARGE: usize = 512 * 1024;

/// A time measured by the benchmark and the host-speed factor that
/// scales it to the nominal host.
#[derive(Clone, Copy)]
pub struct Sample {
    pub raw: f64,
    pub scale: f64,
}

impl Sample {
    pub fn scaled(&self) -> f64 {
        self.raw * self.scale
    }
}

/// The reference kernel's state.
pub struct Gauge {
    small: Vec<u32>,
    large: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Gauge {
    /// A gauge whose tables are already paged in.
    pub fn new() -> Gauge {
        let mut gauge = Gauge {
            small: vec![0; SMALL],
            large: vec![0; LARGE],
            heap: BinaryHeap::with_capacity(PENDING as usize + 1),
        };
        gauge.sample();
        gauge
    }

    /// Run the kernel twice and time the second call, in seconds. Right
    /// after a simulation a call runs about a third slower than right
    /// after another call (a sequential read of the tables does not undo
    /// that), so the untimed first call makes the reading independent of
    /// what the program ran before it.
    pub fn sample(&mut self) -> f64 {
        self.run();
        let t0 = Instant::now();
        self.run();
        t0.elapsed().as_secs_f64()
    }

    fn run(&mut self) {
        let mut rng = 0x5EED;
        self.heap.clear();
        for k in 0..PENDING {
            self.heap.push(Reverse((splitmix(&mut rng) >> 40, k)));
        }
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((at, key)) = self.heap.pop().expect("the heap is never empty");
            let node = &mut self.small[key as usize % SMALL];
            *node = node.wrapping_add(1);
            let r = splitmix(&mut rng);
            let arc = &mut self.large[(r >> 8) as usize % LARGE];
            *arc = arc.wrapping_add(at);
            acc ^= *arc ^ u64::from(*node);
            self.heap
                .push(Reverse((at + (r >> 48), (r as u32) % SMALL as u32)));
        }
        black_box(acc);
    }
}

/// The factor for a time measured among the kernel `readings` (those
/// just before and after it, or all of a block's). An interrupt, a
/// preemption or the program's own lingering work only ever lengthens a
/// kernel call, so the shortest reading is the host's speed.
pub fn scale(readings: &[f64]) -> f64 {
    NOMINAL_S / readings.iter().copied().fold(f64::INFINITY, f64::min)
}
