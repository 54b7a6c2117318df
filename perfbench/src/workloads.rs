//! The four workloads, their generated inputs, and their untraced runs
//! through the library's public entry points.

use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{derive_seed, ResultStore, ScenarioSweep, ScenarioSweepReport};
use sparsegossip_core::{
    BroadcastOutcome, FaultConfig, GossipOutcome, NetworkConfig, ProtocolOutcome, SimConfig,
    SimScratch, Simulation,
};

use crate::metrics::median;
use crate::trace::{cpu_now, now, secs};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Plain broadcast run to `T_B` (frontier-sparse path).
    BroadcastTb,
    /// All-to-all gossip run to `T_G` (full labelling every step).
    GossipFull,
    /// Protocol twin under loss, crashes, a partition and recovery.
    TwinFaulty,
    /// Adaptive, store-backed broadcast sweep locating the knees.
    SweepKnee,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BroadcastTb,
        Workload::GossipFull,
        Workload::TwinFaulty,
        Workload::SweepKnee,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BroadcastTb => "broadcast_tb",
            Workload::GossipFull => "gossip_full",
            Workload::TwinFaulty => "twin_faulty",
            Workload::SweepKnee => "sweep_knee",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Grid side, agent count and radius of a single-run workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub side: u32,
    pub k: usize,
    pub radius: u32,
}

impl Shape {
    pub fn config(self) -> SimConfig {
        SimConfig::builder(self.side, self.k)
            .radius(self.radius)
            .build()
            .expect("workload shapes are valid configurations")
    }
}

/// The sweep workload's axes.
#[derive(Clone, Debug)]
pub struct SweepShape {
    pub sides: Vec<u32>,
    pub ks: Vec<usize>,
    pub r_factors: Vec<f64>,
    pub replicates: u32,
    pub threads: usize,
}

/// Every size the workloads run at.
#[derive(Clone, Debug)]
pub struct Params {
    pub broadcast: Shape,
    pub gossip: Shape,
    pub twin: Shape,
    pub twin_net: NetworkConfig,
    pub twin_faults: FaultConfig,
    pub sweep: SweepShape,
}

impl Params {
    /// The benchmark's sizes.
    pub fn bench() -> Self {
        let grid256 = Shape {
            side: 256,
            k: 512,
            radius: 3,
        };
        Self {
            // r = 5 is about 0.44 r_c = 0.44 * sqrt(512^2 / 2048).
            broadcast: Shape {
                side: 512,
                k: 2048,
                radius: 5,
            },
            gossip: grid256,
            twin: grid256,
            twin_net: NetworkConfig::new(0.3, 0, 0, 1).expect("valid lossy network"),
            twin_faults: FaultConfig {
                crash_prob: 2e-5,
                restart_delay: 2,
                partition_start: 0,
                partition_len: 1000,
                retransmit: true,
                anti_entropy_interval: 16,
            },
            sweep: SweepShape {
                sides: vec![96, 128, 192],
                ks: vec![32, 64, 128],
                r_factors: vec![0.25, 0.5, 1.0, 2.0],
                replicates: 8,
                threads: 2,
            },
        }
    }

    /// The sweep workload as the TOML text a user would write.
    pub fn sweep_toml(&self, master: u64) -> String {
        let s = &self.sweep;
        let list = |v: Vec<String>| v.join(", ");
        format!(
            "[scenario]\nprocess = \"broadcast\"\nside = {}\nk = {}\n\n[sweep]\n\
             sides = [{}]\nks = [{}]\nr_factors = [{}]\nreplicates = {}\nseed = {}\n\
             threads = {}\nadaptive = true\n",
            s.sides[0],
            s.ks[0],
            list(s.sides.iter().map(u32::to_string).collect()),
            list(s.ks.iter().map(usize::to_string).collect()),
            list(s.r_factors.iter().map(|f| format!("{f:?}")).collect()),
            s.replicates,
            master,
            s.threads,
        )
    }
}

/// The seed of unit `i` of a benchmark run seeded `seed`. Kept to 63
/// bits so the sweep's master seed fits a TOML integer.
pub fn unit_seed(seed: u64, i: u64) -> u64 {
    derive_seed(seed, i) >> 1
}

/// What one sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    pub master: u64,
    pub threads: usize,
    pub sweep: ScenarioSweep,
    pub report: ScenarioSweepReport,
    pub store_path: PathBuf,
    pub store_records: u64,
    pub store_bytes: u64,
}

/// The result of one unit of work.
#[derive(Debug)]
pub enum Outcome {
    Broadcast(BroadcastOutcome),
    Gossip(GossipOutcome),
    Twin(ProtocolOutcome),
    Sweep(Box<SweepOutcome>),
    /// The library refused the generated input.
    Error(String),
}

/// One timed unit of work: a run to completion, or a whole sweep.
///
/// `setup_s`, `step_s` and `run_s` are on-CPU seconds ([`cpu_now`]);
/// for the sweep, whose runs go to `threads` workers, `step_s` is the
/// workers' on-CPU seconds divided by `threads`.
#[derive(Debug)]
pub struct Timed {
    /// Everything before the first step: configuration, construction,
    /// placement and the step-0 exchange (for the sweep: TOML parse,
    /// cell enumeration and store creation).
    pub setup_s: f64,
    /// Stepping time to completion.
    pub step_s: f64,
    /// Time of one run: setup plus stepping for a single run; for the
    /// sweep, whose runs are not timed one by one, the workers' on-CPU
    /// seconds per (cell, replicate) run.
    pub run_s: f64,
    /// Wall seconds from the start of setup to completion.
    pub wall_s: f64,
    /// Simulator steps or twin ticks taken (for the sweep: the sum of
    /// its `T_B` samples).
    pub steps: u64,
    /// Runs completed: 1, or the sweep's (cell, replicate) runs.
    pub runs: u64,
    pub outcome: Outcome,
}

impl Timed {
    fn failed(setup_s: f64, wall_s: f64, error: String) -> Self {
        Self {
            setup_s,
            step_s: 0.0,
            run_s: 0.0,
            wall_s,
            steps: 0,
            runs: 0,
            outcome: Outcome::Error(error),
        }
    }
}

/// Times one simulation run on `seed`: `build` is the setup, `run`
/// steps it to completion and returns the outcome and the steps taken.
fn single_run<S, E: ToString>(
    seed: u64,
    build: impl FnOnce(&mut SmallRng) -> Result<S, E>,
    run: impl FnOnce(&mut S, &mut SmallRng) -> (Outcome, u64),
) -> Timed {
    let (w0, c0) = (now(), cpu_now());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = match build(&mut rng) {
        Ok(sim) => sim,
        Err(e) => return Timed::failed(cpu_now() - c0, secs(w0, now()), e.to_string()),
    };
    let c1 = cpu_now();
    let (outcome, steps) = run(&mut sim, &mut rng);
    let c2 = cpu_now();
    Timed {
        setup_s: c1 - c0,
        step_s: c2 - c1,
        run_s: c2 - c0,
        wall_s: secs(w0, now()),
        steps,
        runs: 1,
        outcome,
    }
}

/// Runs one unit of `workload` on `seed` through the public entry
/// points, untraced. The sweep's store lives in `out_dir`.
pub fn run_untraced(workload: Workload, p: &Params, seed: u64, out_dir: &Path) -> Timed {
    match workload {
        Workload::BroadcastTb => single_run(
            seed,
            |rng| Simulation::broadcast(&p.broadcast.config(), rng),
            |sim, rng| (Outcome::Broadcast(sim.run(rng)), sim.time()),
        ),
        Workload::GossipFull => single_run(
            seed,
            |rng| Simulation::gossip(&p.gossip.config(), rng),
            |sim, rng| (Outcome::Gossip(sim.run(rng)), sim.time()),
        ),
        Workload::TwinFaulty => single_run(
            seed,
            |rng| {
                Simulation::protocol_broadcast_with_faults_with_scratch(
                    &p.twin.config(),
                    p.twin_net,
                    &p.twin_faults,
                    seed,
                    rng,
                    SimScratch::new(),
                )
            },
            |sim, rng| (Outcome::Twin(sim.run(rng)), sim.time()),
        ),
        Workload::SweepKnee => run_sweep(p, seed, out_dir),
    }
}

/// Times a sweep's setup this many times per unit and keeps the
/// median: a unit holds one sweep, so one sample per unit would leave
/// `setup_s` to a handful of file creations, whose latency is
/// heavy-tailed.
const SWEEP_SETUPS: usize = 25;

/// The sweep's setup: TOML parse, cell enumeration, store creation.
fn sweep_setup(
    p: &Params,
    master: u64,
    store_path: &Path,
) -> Result<(ScenarioSweep, ResultStore), String> {
    let sweep = ScenarioSweep::from_toml_str(&p.sweep_toml(master)).map_err(|e| e.to_string())?;
    sweep.cells().map_err(|e| e.to_string())?;
    let store = ResultStore::create(store_path).map_err(|e| e.to_string())?;
    Ok((sweep, store))
}

fn run_sweep(p: &Params, master: u64, out_dir: &Path) -> Timed {
    let store_path = out_dir.join("sweep-store.bin");
    let mut setups = Vec::with_capacity(SWEEP_SETUPS);
    let mut built = None;
    let mut w0 = now();
    for _ in 0..SWEEP_SETUPS {
        // Each setup creates a fresh store file, as a new sweep would.
        drop(built.take());
        let _ = std::fs::remove_file(&store_path);
        w0 = now();
        let c0 = cpu_now();
        built = Some(sweep_setup(p, master, &store_path));
        setups.push(cpu_now() - c0);
    }
    let setup_s = median(&setups);
    let (sweep, mut store) = match built {
        Some(Ok(built)) => built,
        Some(Err(e)) => return Timed::failed(setup_s, secs(w0, now()), e),
        None => return Timed::failed(setup_s, 0.0, "no sweep setup ran".to_string()),
    };
    let c1 = cpu_now();
    let report = sweep.run_with_store(Some(&mut store));
    let c2 = cpu_now();
    let wall_s = secs(w0, now());
    let report = match report {
        Ok(report) => report,
        Err(e) => return Timed::failed(setup_s, wall_s, e.to_string()),
    };
    let store_records = store.len();
    drop(store);
    let store_bytes = std::fs::metadata(&store_path).map_or(0, |m| m.len());
    let steps = report
        .cells
        .iter()
        .flat_map(|c| &c.samples)
        .map(|&v| v as u64)
        .sum();
    let runs: u64 = report.cells.iter().map(|c| c.samples.len() as u64).sum();
    Timed {
        setup_s,
        step_s: (c2 - c1) / p.sweep.threads as f64,
        run_s: (c2 - c1) / runs.max(1) as f64,
        wall_s,
        steps,
        runs,
        outcome: Outcome::Sweep(Box::new(SweepOutcome {
            master,
            threads: p.sweep.threads,
            sweep,
            report,
            store_path,
            store_records,
            store_bytes,
        })),
    }
}
