//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload broadcast_tb [--seed 1] [--seconds 30] [--trace 0|1]
//! ```
//!
//! Runs units of the workload (one simulation seed each, or one whole
//! sweep) back to back until `--seconds` have passed, checks every
//! outcome, and prints as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced replica (`--trace 1`). Work files go to `.bench_out/` under
//! the current directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::checks::{check, Verdict};
use perfbench::counts::Ledger;
use perfbench::metrics::{end_to_end, median, per_layer, END_TO_END, PER_LAYER};
use perfbench::replica::{traced_unit, Counters};
use perfbench::speed::{Reference, NOMINAL_S};
use perfbench::trace::{now, secs, Tracer};
use perfbench::workloads::{run_untraced, unit_seed, Outcome, Params, Timed, Workload};
use sparsegossip_core::fnv1a;

/// The workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Hash of this executable: work counts are compared across runs of
/// the same build only.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(fnv1a(&bytes))
}

/// The deterministic counts of one untraced unit.
fn program_counts(u: &Timed) -> Vec<(&'static str, u64)> {
    let mut out = vec![("steps", u.steps), ("runs", u.runs)];
    match &u.outcome {
        Outcome::Broadcast(o) => out.push(("informed", o.informed as u64)),
        Outcome::Gossip(o) => out.push(("min_rumors", o.min_rumors as u64)),
        Outcome::Twin(o) => out.extend([
            ("informed", o.informed as u64),
            ("msg.sent", o.stats.sent),
            ("msg.delivered", o.stats.delivered),
            ("msg.dropped", o.stats.dropped),
            ("msg.timers", o.stats.timers),
            ("msg.crashes", o.stats.crashes),
            ("msg.restarts", o.stats.restarts),
            ("msg.retransmits", o.stats.retransmits),
            ("msg.digests", o.stats.digests),
            ("log_hash", o.log_hash),
        ]),
        Outcome::Sweep(s) => {
            let (coarse, refined) = s
                .report
                .adaptive
                .map_or((0, 0), |a| (a.coarse_cells, a.refined_cells));
            out.extend([
                ("cells.coarse", coarse as u64),
                ("cells.refined", refined as u64),
                ("knees", s.report.transitions().len() as u64),
                ("store.records", s.store_records),
                ("store.bytes", s.store_bytes),
                ("report_hash", fnv1a(s.report.to_json().as_bytes())),
            ]);
        }
        Outcome::Error(_) => {}
    }
    out
}

/// The replica's deterministic counts, accumulated since `before`.
fn replica_counts(now: &Counters, before: &Counters) -> Vec<(&'static str, u64)> {
    let pairs = |c: &Counters| {
        [
            ("replica.steps", c.steps),
            ("replica.moves", c.moved),
            ("replica.crossings", c.crossings),
            ("replica.labelled", c.labelled),
            ("replica.useful", c.useful),
            ("replica.components", c.components),
            ("replica.merges", c.merges),
            ("replica.msg.sent", c.protocol.sent),
            ("replica.msg.delivered", c.protocol.delivered),
            ("replica.msg.dropped", c.protocol.dropped),
            ("replica.msg.timers", c.protocol.timers),
            ("replica.msg.retransmits", c.protocol.retransmits),
            ("replica.msg.digests", c.protocol.digests),
            ("replica.msg.crashes", c.protocol.crashes),
            ("replica.sweep_runs", c.sweep_runs),
            ("replica.store.records", c.store_records),
        ]
    };
    pairs(now)
        .into_iter()
        .zip(pairs(before))
        .map(|((name, a), (_, b))| (name, a - b))
        .collect()
}

fn json(
    verdict: &Verdict,
    correct: bool,
    metrics: &BTreeMap<&str, f64>,
    units: &[(&str, &str)],
) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    )
}

fn run(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let params = Params::bench();
    let name = args.workload.name();
    let mut counted: Vec<(u64, &'static str, u64)> = Vec::new();
    let mut verdict = Verdict::default();
    let mut problems: Vec<String> = Vec::new();
    let mut units: Vec<Timed> = Vec::new();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut reference = Reference::new();
    let mut reference_s: Vec<f64> = Vec::new();
    let (mut replica_s, mut baseline_s) = (0.0, 0.0);

    let start = now();
    let mut i = 0u64;
    while i == 0 || secs(start, now()) < args.seconds {
        let seed = unit_seed(args.seed, i);
        let mut counts = Vec::new();
        let unit = if args.trace {
            tracer.set_run(i as u32);
            let before = counters;
            let t = traced_unit(
                args.workload,
                &params,
                seed,
                out_dir,
                &mut tracer,
                &mut counters,
            );
            counts = replica_counts(&counters, &before);
            replica_s += t.replica_s;
            baseline_s += t.baseline_s;
            problems.extend(t.mismatches.into_iter().map(|m| format!("replica: {m}")));
            t.program
        } else {
            reference_s.push(reference.pass_s());
            run_untraced(args.workload, &params, seed, out_dir)
        };
        counts.splice(0..0, program_counts(&unit));
        counted.extend(counts.iter().map(|&(count, value)| (seed, count, value)));
        let v = check(&unit.outcome);
        problems.extend(
            v.messages
                .iter()
                .map(|m| format!("check: seed {seed}: {m}")),
        );
        verdict.merge(v);
        let shown: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "unit {i} seed {seed}: setup {:.6} s, run {:.6} s (on-CPU), wall {:.6} s, {}",
            unit.setup_s,
            unit.setup_s + unit.step_s,
            unit.wall_s,
            shown.join(" ")
        );
        units.push(unit);
        i += 1;
    }

    let (metrics, table) = if args.trace {
        let spans = out_dir.join(format!("spans-{name}.tsv"));
        tracer
            .write_tsv(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!(
            "{} spans written to {}",
            tracer.spans().len(),
            spans.display()
        );
        (
            per_layer(&tracer, &counters, &units, replica_s, baseline_s),
            &PER_LAYER[..],
        )
    } else {
        let loop_s = median(&reference_s);
        let scale = NOMINAL_S / loop_s;
        println!(
            "reference loop: median {loop_s:.6} s over {} passes, times scaled by {scale:.6}",
            reference_s.len()
        );
        (end_to_end(&units, scale), &END_TO_END[..])
    };

    // The ledger grows with every run of the build, so it is loaded
    // only after `peak_rss_mb` has been read.
    let ledger_path = out_dir
        .join("counts")
        .join(format!("{:016x}", build_id()?))
        .join(format!("{name}.tsv"));
    let mut ledger = Ledger::open(&ledger_path).map_err(|e| e.to_string())?;
    for &(seed, count, value) in &counted {
        ledger.record(seed, count, value);
    }
    problems.extend(
        ledger
            .mismatches()
            .iter()
            .map(|m| format!("work count: {m}")),
    );
    ledger
        .save()
        .map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    for p in &problems {
        eprintln!("FAIL {p}");
    }
    let correct = problems.is_empty();
    println!("{}", json(&verdict, correct, &metrics, table));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    match run(&args, &out_dir) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
