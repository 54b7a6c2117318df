//! The traced replica: every workload rebuilt from the layers' public
//! functions, with a span around each call into a layer.
//!
//! The replica makes the same calls with the same random draws as the
//! library's own loops (`Simulation::step`, `ScenarioSweep`), so its
//! outcome must equal the program's on every seed; [`traced_unit`]
//! checks that. Work counts are taken outside the layer spans.

use std::path::Path;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{parallel_map_with, ResultStore};
use sparsegossip_conngraph::{
    components_from_seeds_on, components_into, Components, ComponentsScratch, SeededScratch,
    SpatialHash,
};
use sparsegossip_core::{
    cell_seed, Broadcast, ExchangeCtx, FaultConfig, Gossip, NetworkConfig, Process,
    ProtocolOutcome, SimConfig, SimScratch,
};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_protocol::{NodeRuntime, RuntimeStats};
use sparsegossip_walks::{BitSet, WalkEngine};

use crate::checks::same_outcome;
use crate::trace::{now, secs, SpanId, Tracer, ROOT};
use crate::workloads::{run_untraced, Outcome, Params, SweepOutcome, Timed, Workload};

/// Deterministic work counts of the replica's runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Replica runs with per-step spans.
    pub runs: u64,
    /// Simulator steps or twin ticks after placement.
    pub steps: u64,
    /// Agents whose position changed.
    pub moved: u64,
    /// Moves that changed spatial-hash bucket.
    pub crossings: u64,
    /// Agents labelled by seeded labelling.
    pub labelled: u64,
    /// Labelled agents in a component that still held an uninformed
    /// agent before the exchange.
    pub useful: u64,
    /// Components found by full labelling.
    pub components: u64,
    /// Newly informed agents (broadcast) or non-singleton components
    /// merged (gossip).
    pub merges: u64,
    /// Twin message counters summed over runs.
    pub protocol: RuntimeStats,
    /// Twin nodes newly informed by a tick.
    pub protocol_informed: u64,
    /// Sweep (cell, replicate) runs replayed.
    pub sweep_runs: u64,
    /// Sweep store records appended by the replica.
    pub store_records: u64,
}

/// One unit of a traced benchmark run.
#[derive(Debug)]
pub struct TracedUnit {
    /// The untraced run through the public entry points.
    pub program: Timed,
    /// Wall seconds of the traced replica runs.
    pub replica_s: f64,
    /// Wall seconds the program took for the same runs untraced; the
    /// tracing overhead is `replica_s / baseline_s - 1`.
    pub baseline_s: f64,
    /// Every way the replica's outcome differed from the program's.
    pub mismatches: Vec<String>,
}

/// Runs one unit untraced, then its replica under `tr`, and compares
/// the outcomes.
pub fn traced_unit(
    workload: Workload,
    p: &Params,
    seed: u64,
    out_dir: &Path,
    tr: &mut Tracer,
    c: &mut Counters,
) -> TracedUnit {
    let program = run_untraced(workload, p, seed, out_dir);
    let t0 = now();
    let replica = match workload {
        Workload::BroadcastTb => broadcast(tr, ROOT, &p.broadcast.config(), seed, c),
        Workload::GossipFull => gossip(tr, &p.gossip.config(), seed, c),
        Workload::TwinFaulty => twin(tr, &p.twin.config(), p.twin_net, &p.twin_faults, seed, c),
        Workload::SweepKnee => {
            let replay = match &program.outcome {
                Outcome::Sweep(s) => sweep(tr, s, out_dir, c),
                other => SweepReplay {
                    mismatches: vec![format!("sweep failed: {other:?}")],
                    ..SweepReplay::default()
                },
            };
            return TracedUnit {
                program,
                replica_s: replay.replica_s,
                baseline_s: replay.baseline_s,
                mismatches: replay.mismatches,
            };
        }
    };
    let replica_s = secs(t0, now());
    let mismatches = same_outcome(&program.outcome, &replica)
        .err()
        .map(|e| format!("seed {seed}: {e}"))
        .into_iter()
        .collect();
    TracedUnit {
        baseline_s: program.wall_s,
        program,
        replica_s,
        mismatches,
    }
}

fn ctx<'a>(
    time: u64,
    config: &SimConfig,
    positions: &'a [Point],
    comps: &'a Components,
) -> ExchangeCtx<'a> {
    ExchangeCtx {
        time,
        side: config.side(),
        radius: config.radius(),
        positions,
        components: comps,
    }
}

fn placed(config: &SimConfig, rng: &mut SmallRng) -> Result<WalkEngine<Grid>, String> {
    let grid = Grid::new(config.side()).map_err(|e| e.to_string())?;
    WalkEngine::uniform(grid, config.k(), rng).map_err(|e| e.to_string())
}

/// Labelled agents and those in a component with an uninformed member.
fn usefulness(comps: &Components, informed: &BitSet) -> (u64, u64) {
    let (mut labelled, mut useful) = (0, 0);
    for members in comps.iter() {
        let n = members.len() as u64;
        labelled += n;
        if members.iter().any(|&m| !informed.contains(m as usize)) {
            useful += n;
        }
    }
    (labelled, useful)
}

/// Broadcast on the frontier-sparse path, as `Simulation::step` runs
/// it: logged walk, incremental hash, seeded labelling, exchange.
pub fn broadcast(
    tr: &mut Tracer,
    parent: SpanId,
    config: &SimConfig,
    seed: u64,
    c: &mut Counters,
) -> Outcome {
    let (side, r) = (config.side(), config.radius());
    let run = tr.begin("run", parent);
    let setup = tr.begin("core.setup", run);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut process = match Broadcast::from_config(config) {
        Ok(process) => process,
        Err(e) => return Outcome::Error(e.to_string()),
    };
    let mut engine = match placed(config, &mut rng) {
        Ok(engine) => engine,
        Err(e) => return Outcome::Error(e),
    };
    let mut hash = SpatialHash::default();
    let mut seeded = SeededScratch::new();
    let mut moves = Vec::new();
    hash.rebuild(engine.positions(), r, side);
    let comps = components_from_seeds_on(
        &hash,
        &mut seeded,
        engine.positions(),
        process.informed_set(),
        r,
    );
    let mut done = process
        .on_placement(ctx(0, config, engine.positions(), comps))
        .is_break();
    tr.end(setup);
    c.runs += 1;
    while !done && engine.time() < config.max_steps() {
        let step = tr.begin("step", run);
        let s = tr.begin("walks.step", step);
        engine.step_all_into(&mut rng, &mut moves);
        tr.end(s);
        let s = tr.begin("spatial.apply", step);
        hash.apply_moves(&moves);
        tr.end(s);
        let s = tr.begin("seeded.label", step);
        let comps = components_from_seeds_on(
            &hash,
            &mut seeded,
            engine.positions(),
            process.informed_set(),
            r,
        );
        tr.end(s);
        let s = tr.begin("trace.count", step);
        let (labelled, useful) = usefulness(comps, process.informed_set());
        let before = process.informed_count();
        tr.end(s);
        let s = tr.begin("core.exchange", step);
        done = process
            .exchange(ctx(engine.time(), config, engine.positions(), comps))
            .is_break();
        tr.end(s);
        tr.end(step);
        c.steps += 1;
        c.moved += moves.len() as u64;
        c.crossings += moves
            .iter()
            .filter(|(_, from, to)| hash.bucket_of(*from) != hash.bucket_of(*to))
            .count() as u64;
        c.labelled += labelled;
        c.useful += useful;
        c.merges += (process.informed_count() - before) as u64;
    }
    tr.end(run);
    Outcome::Broadcast(process.outcome(engine.time()))
}

/// Gossip on the full-labelling path: plain walk, full labelling,
/// rumor-set unions.
pub fn gossip(tr: &mut Tracer, config: &SimConfig, seed: u64, c: &mut Counters) -> Outcome {
    let (side, r) = (config.side(), config.radius());
    let run = tr.begin("run", ROOT);
    let setup = tr.begin("core.setup", run);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut process = match Gossip::distinct(config.k()) {
        Ok(process) => process,
        Err(e) => return Outcome::Error(e.to_string()),
    };
    let mut engine = match placed(config, &mut rng) {
        Ok(engine) => engine,
        Err(e) => return Outcome::Error(e),
    };
    let mut scratch = ComponentsScratch::new();
    let comps = components_into(&mut scratch, engine.positions(), r, side);
    let mut done = process
        .on_placement(ctx(0, config, engine.positions(), comps))
        .is_break();
    tr.end(setup);
    c.runs += 1;
    let mut before: Vec<Point> = Vec::with_capacity(config.k());
    while !done && engine.time() < config.max_steps() {
        before.clear();
        before.extend_from_slice(engine.positions());
        let step = tr.begin("step", run);
        let s = tr.begin("walks.step", step);
        engine.step_all(&mut rng);
        tr.end(s);
        let s = tr.begin("visibility.label", step);
        let comps = components_into(&mut scratch, engine.positions(), r, side);
        tr.end(s);
        let s = tr.begin("core.exchange", step);
        done = process
            .exchange(ctx(engine.time(), config, engine.positions(), comps))
            .is_break();
        tr.end(s);
        tr.end(step);
        c.steps += 1;
        c.moved += moved(&before, engine.positions());
        c.components += comps.count() as u64;
        c.merges += comps.iter().filter(|m| m.len() > 1).count() as u64;
    }
    tr.end(run);
    Outcome::Gossip(process.outcome(engine.time()))
}

fn moved(before: &[Point], after: &[Point]) -> u64 {
    before.iter().zip(after).filter(|(a, b)| a != b).count() as u64
}

fn add_stats(sum: &mut RuntimeStats, now: &RuntimeStats, then: &RuntimeStats) {
    sum.sent += now.sent - then.sent;
    sum.delivered += now.delivered - then.delivered;
    sum.dropped += now.dropped - then.dropped;
    sum.timers += now.timers - then.timers;
    sum.crashes += now.crashes - then.crashes;
    sum.restarts += now.restarts - then.restarts;
    sum.retransmits += now.retransmits - then.retransmits;
    sum.digests += now.digests - then.digests;
}

/// The protocol twin with one worker: plain walk, then one runtime
/// tick (timers, sends, deliveries, faults and recovery) per step.
pub fn twin(
    tr: &mut Tracer,
    config: &SimConfig,
    net: NetworkConfig,
    faults: &FaultConfig,
    seed: u64,
    c: &mut Counters,
) -> Outcome {
    let (side, r) = (config.side(), config.radius());
    let run = tr.begin("run", ROOT);
    let setup = tr.begin("core.setup", run);
    let mut rng = SmallRng::seed_from_u64(seed);
    if let Err(e) = faults.validate() {
        return Outcome::Error(e.to_string());
    }
    let mut engine = match placed(config, &mut rng) {
        Ok(engine) => engine,
        Err(e) => return Outcome::Error(e),
    };
    let mut runtime = NodeRuntime::new(config.k(), config.source(), net, seed, 1);
    runtime.set_fault_plan(faults.to_plan());
    runtime.set_recovery(faults.to_recovery());
    let s = tr.begin("protocol.tick", setup);
    let mut result = runtime.tick(0, engine.positions(), r, side);
    tr.end(s);
    tr.end(setup);
    c.runs += 1;
    let mut before: Vec<Point> = Vec::with_capacity(config.k());
    while result == Ok(false) && engine.time() < config.max_steps() {
        before.clear();
        before.extend_from_slice(engine.positions());
        let (stats, informed) = (*runtime.stats(), runtime.informed_count());
        let step = tr.begin("step", run);
        let s = tr.begin("walks.step", step);
        engine.step_all(&mut rng);
        tr.end(s);
        let s = tr.begin("protocol.tick", step);
        result = runtime.tick(engine.time(), engine.positions(), r, side);
        tr.end(s);
        tr.end(step);
        c.steps += 1;
        c.moved += moved(&before, engine.positions());
        add_stats(&mut c.protocol, runtime.stats(), &stats);
        c.protocol_informed += (runtime.informed_count() - informed) as u64;
    }
    tr.end(run);
    Outcome::Twin(ProtocolOutcome {
        completion_time: runtime.completed_at(),
        informed: runtime.informed_count(),
        k: config.k(),
        stats: *runtime.stats(),
        log_hash: runtime.log().hash(),
        error: result.err(),
    })
}

/// What replaying a sweep found.
#[derive(Debug, Default)]
pub struct SweepReplay {
    /// Every mismatch with the report or the store.
    pub mismatches: Vec<String>,
    /// Seconds of the replicate-0 runs through `run_seed_with_scratch`.
    pub baseline_s: f64,
    /// Seconds of the same runs through the per-step replica.
    pub replica_s: f64,
}

/// Replays a finished sweep from its report: the knee detection, every
/// (cell, replicate) run through `ScenarioSpec::run_seed_with_scratch`
/// at `cell_seed` on the sweep's own thread count, a resume of the
/// sweep's store with a lookup of every record, appends of every
/// record to a fresh store, and replicate 0 of every cell through the
/// per-step broadcast replica.
pub fn sweep(tr: &mut Tracer, s: &SweepOutcome, out_dir: &Path, c: &mut Counters) -> SweepReplay {
    let mut bad = Vec::new();
    let report = &s.report;
    let span = tr.begin("sweep.knee", ROOT);
    let knees = report.transitions();
    tr.end(span);
    if knees.is_empty() {
        bad.push("the replayed knee detection found no knee".to_string());
    }

    // (spec, seed, replicate, reported value) of every sample.
    let mut jobs = Vec::new();
    for cell in &report.cells {
        let spec = match s.sweep.base().with_axes(cell.side, cell.k, cell.radius) {
            Ok(spec) => spec,
            Err(e) => {
                bad.push(format!(
                    "cell side {} k {} r {}: {e}",
                    cell.side, cell.k, cell.radius
                ));
                continue;
            }
        };
        for (j, &v) in cell.samples.iter().enumerate() {
            let seed = cell_seed(s.master, cell.side, cell.k, cell.radius, j as u32);
            jobs.push((spec, seed, j as u32, v));
        }
    }

    let replay = tr.begin("sweep.replay", ROOT);
    let runs = parallel_map_with(
        &jobs,
        s.threads,
        SimScratch::new,
        |scratch, (spec, seed, _, _)| {
            let t0 = now();
            let v = spec.run_seed_with_scratch(scratch, *seed);
            (v, t0, now())
        },
    );
    tr.end(replay);
    let mut baseline_s = 0.0;
    for ((spec, seed, j, want), &(got, t0, t1)) in jobs.iter().zip(&runs) {
        tr.record("sweep.run", replay, t0, t1);
        if *j == 0 {
            baseline_s += secs(t0, t1);
        }
        if got.to_bits() != want.to_bits() {
            let cfg = spec.config();
            bad.push(format!(
                "sweep side {} k {} r {} replicate {j} (seed {seed}): report {want}, replay {got}",
                cfg.side(),
                cfg.k(),
                cfg.radius()
            ));
        }
    }
    c.sweep_runs += jobs.len() as u64;

    let span = tr.begin("store.resume", ROOT);
    let resumed = ResultStore::open_resume(&s.store_path);
    tr.end(span);
    match resumed {
        Ok(store) => {
            for (spec, seed, j, want) in &jobs {
                let span = tr.begin("store.get", ROOT);
                let got = store.get(spec.content_hash(), *seed);
                tr.end(span);
                if got.map(f64::to_bits) != Some(want.to_bits()) {
                    bad.push(format!(
                        "store record of replicate {j} (seed {seed}): {got:?}"
                    ));
                }
            }
        }
        Err(e) => bad.push(format!("store resume: {e}")),
    }

    match ResultStore::create(&out_dir.join("replica-store.bin")) {
        Ok(mut store) => {
            for (spec, seed, j, v) in &jobs {
                let span = tr.begin("store.append", ROOT);
                let appended = store.append(spec.content_hash(), *seed, *j, *v);
                tr.end(span);
                if let Err(e) = appended {
                    bad.push(format!("store append: {e}"));
                    break;
                }
            }
            if let Err(e) = store.finish() {
                bad.push(format!("store finish: {e}"));
            }
            c.store_records += store.len();
        }
        Err(e) => bad.push(format!("store create: {e}")),
    }

    let t0 = now();
    let layered = tr.begin("sweep.layered", ROOT);
    for (spec, seed, j, want) in jobs.iter().filter(|job| job.2 == 0) {
        let cfg = spec.config();
        let got = match broadcast(tr, layered, cfg, *seed, c) {
            Outcome::Broadcast(o) => o.broadcast_time.unwrap_or(cfg.max_steps()) as f64,
            other => {
                bad.push(format!("layered replay failed: {other:?}"));
                continue;
            }
        };
        if got.to_bits() != want.to_bits() {
            bad.push(format!(
                "layered replay side {} k {} r {} replicate {j}: report {want}, replay {got}",
                cfg.side(),
                cfg.k(),
                cfg.radius()
            ));
        }
    }
    tr.end(layered);
    SweepReplay {
        mismatches: bad,
        baseline_s,
        replica_s: secs(t0, now()),
    }
}
