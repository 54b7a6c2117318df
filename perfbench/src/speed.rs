//! The machine-speed reference the end-to-end times are scaled by.
//!
//! The shared box the benchmark is run on changes speed by itself:
//! other guests' load on the shared caches and memory slows every
//! program on it for minutes at a time. On the 2-core box the benchmark
//! was tuned on, one broadcast seed run over and over took between 1.15
//! and 1.50 on-CPU seconds (medians of 20-second windows) within five
//! minutes. A fixed memory-bound loop timed between the units slowed
//! with it: the units' time divided by the loop's varied between windows
//! a third as much as the units' time alone. A pure arithmetic loop
//! tracked the drift less well, so the load slows memory access more
//! than it slows the clock.

use crate::trace::cpu_now;

/// On-CPU seconds of one pass of the reference loop on the box the
/// benchmark was tuned on, when that box was quiet. Scaled times read
/// as seconds on a box on which the loop takes this long.
pub const NOMINAL_S: f64 = 0.06;

/// Entries of the loop's table, a power of two: 1 MiB of `u32`.
const TABLE_LEN: usize = 1 << 18;

/// Table updates per pass.
const PASS_ITERS: u64 = 10_000_000;

/// The reference loop: dependent random reads and updates of a table.
#[derive(Debug)]
pub struct Reference {
    table: Vec<u32>,
    sink: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        Self {
            table: vec![1; TABLE_LEN],
            sink: 0,
        }
    }

    /// Runs one pass and returns its on-CPU seconds.
    pub fn pass_s(&mut self) -> f64 {
        let table = &mut self.table[..TABLE_LEN];
        let mask = TABLE_LEN - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        let c0 = cpu_now();
        for _ in 0..PASS_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            table[i] = table[i].wrapping_add(x as u32);
            acc = acc.wrapping_add(u64::from(table[acc as usize & mask]));
        }
        let elapsed = cpu_now() - c0;
        self.sink ^= std::hint::black_box(acc);
        elapsed
    }
}
