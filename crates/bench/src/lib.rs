//! Shared plumbing for the experiment binaries that regenerate every
//! claim of Pettarin et al. (PODC 2011).
//!
//! Each binary (`exp_*`) prints a header, a result table, and — where a
//! scaling exponent or threshold is claimed — a fit with the paper's
//! expected value. See `EXPERIMENTS.md` at the workspace root for the
//! full index and recorded results.
//!
//! # Scale control
//!
//! Binaries honor the `SG_SCALE` environment variable:
//!
//! * `quick` (default) — minute-scale total runtime, sizes large
//!   enough for the shapes to be visible;
//! * `full` — larger grids / more replicates for tighter exponents.
//!
//! `SG_SEED` overrides the master seed (default 2011, the venue year).
//! `SG_THREADS` overrides the worker-thread count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_core::{Mobility, SimConfig, Simulation};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A global allocator that counts each thread's heap allocations, so a
/// steady-state gate can assert that a warmed-up step never touches the
/// heap (per thread, so parallel test harnesses do not pollute the
/// counts). Install it in a binary or test crate with
/// `#[global_allocator] static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;`
/// and read the count with [`thread_allocs`].
pub struct ThreadCountingAlloc;

// `try_with`, so allocations during thread teardown (after the
// thread-local is destroyed) stay safe.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The calling thread's heap allocations so far (allocations and
/// reallocations), as counted by [`ThreadCountingAlloc`]; always 0
/// unless that allocator is installed.
#[must_use]
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Experiment scale selected via `SG_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minute-scale defaults.
    Quick,
    /// Publication-scale runs.
    Full,
}

/// Runtime context shared by all experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct ExpCtx {
    /// Selected scale.
    pub scale: Scale,
    /// Master seed for the sweep harness.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl ExpCtx {
    /// Reads `SG_SCALE`, `SG_SEED` and `SG_THREADS` from the
    /// environment, prints the standard experiment header, and returns
    /// the context.
    #[must_use]
    pub fn init(id: &str, title: &str, claim: &str) -> Self {
        let scale = match std::env::var("SG_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        };
        let seed = std::env::var("SG_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(2011);
        let threads = std::env::var("SG_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, usize::from));
        println!("=== {id}: {title} ===");
        println!("paper claim: {claim}");
        println!("scale: {scale:?}, seed: {seed}, threads: {threads}");
        println!();
        Self {
            scale,
            seed,
            threads,
        }
    }

    /// Picks `quick` or `full` depending on the scale.
    #[must_use]
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self.scale {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Runs one broadcast and returns `T_B` as `f64` (the step cap if the
/// run did not finish — callers should size caps so this is rare).
#[must_use]
pub fn measure_broadcast(side: u32, k: usize, r: u32, seed: u64) -> f64 {
    let config = SimConfig::builder(side, k)
        .radius(r)
        .build()
        .expect("valid experiment config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::broadcast(&config, &mut rng).expect("constructible sim");
    let out = sim.run(&mut rng);
    out.broadcast_time.unwrap_or(config.max_steps()) as f64
}

/// Runs one Frog-model broadcast and returns `T_B` as `f64`.
#[must_use]
pub fn measure_frog(side: u32, k: usize, r: u32, seed: u64) -> f64 {
    let config = SimConfig::builder(side, k)
        .radius(r)
        .mobility(Mobility::InformedOnly)
        .build()
        .expect("valid experiment config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::frog(&config, &mut rng).expect("constructible sim");
    let out = sim.run(&mut rng);
    out.broadcast_time.unwrap_or(config.max_steps()) as f64
}

/// Runs one gossip and returns `T_G` as `f64`.
#[must_use]
pub fn measure_gossip(side: u32, k: usize, r: u32, seed: u64) -> f64 {
    let config = SimConfig::builder(side, k)
        .radius(r)
        .build()
        .expect("valid experiment config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::gossip(&config, &mut rng).expect("constructible sim");
    let out = sim.run(&mut rng);
    out.gossip_time.unwrap_or(config.max_steps()) as f64
}

/// Formats a fitted exponent with its standard error.
#[must_use]
pub fn fmt_exponent(fit: &sparsegossip_analysis::Fit) -> String {
    format!(
        "{:.3} ± {:.3} (R² = {:.4})",
        fit.exponent, fit.slope_std_err, fit.r_squared
    )
}

/// Prints the standard closing verdict line.
pub fn verdict(ok: bool, detail: &str) {
    if ok {
        println!("VERDICT: shape reproduced — {detail}");
    } else {
        println!("VERDICT: MISMATCH — {detail}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_respects_scale() {
        let ctx = ExpCtx {
            scale: Scale::Quick,
            seed: 1,
            threads: 1,
        };
        assert_eq!(ctx.pick(1, 2), 1);
        let ctx = ExpCtx {
            scale: Scale::Full,
            seed: 1,
            threads: 1,
        };
        assert_eq!(ctx.pick(1, 2), 2);
    }

    #[test]
    fn measures_return_finite_positive_times() {
        assert!(measure_broadcast(16, 8, 0, 1) > 0.0);
        assert!(measure_frog(12, 8, 0, 2) > 0.0);
        assert!(measure_gossip(12, 6, 0, 3) > 0.0);
    }

    #[test]
    fn identical_seeds_reproduce() {
        let a = measure_broadcast(16, 8, 1, 42);
        let b = measure_broadcast(16, 8, 1, 42);
        assert_eq!(a, b);
    }
}
