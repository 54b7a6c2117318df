//! Metric names, units and their computation from timed units and
//! spans.

use std::collections::BTreeMap;

use crate::replica::Counters;
use crate::trace::{LayerTime, Tracer};
use crate::workloads::{Outcome, Timed};

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s_p50", "s"),
    ("steps_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced replica): name and unit. A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("step.ns", "ns"),
    ("step.self_ns", "ns"),
    ("walks.step_ns", "ns"),
    ("walks.moved", "count/step"),
    ("walks.ns_per_moved", "ns"),
    ("walks.share", "frac"),
    ("spatial.apply_ns", "ns"),
    ("spatial.crossings", "count/step"),
    ("spatial.share", "frac"),
    ("seeded.label_ns", "ns"),
    ("seeded.labelled", "count/step"),
    ("seeded.ns_per_labelled", "ns"),
    ("seeded.useful_frac", "frac"),
    ("seeded.share", "frac"),
    ("visibility.label_ns", "ns"),
    ("visibility.components", "count/step"),
    ("visibility.share", "frac"),
    ("core.exchange_ns", "ns"),
    ("core.exchange_merges", "count/step"),
    ("core.exchange_share", "frac"),
    ("core.setup_ns", "ns"),
    ("protocol.tick_ns", "ns"),
    ("protocol.share", "frac"),
    ("protocol.sent", "count/tick"),
    ("protocol.delivered", "count/tick"),
    ("protocol.dropped", "count/tick"),
    ("protocol.timers", "count/tick"),
    ("protocol.retransmits", "count/tick"),
    ("protocol.digests", "count/tick"),
    ("protocol.crashes", "count/tick"),
    ("protocol.useful_frac", "frac"),
    ("sweep.runs", "count"),
    ("sweep.run_ns_p50", "ns"),
    ("sweep.run_ns_p90", "ns"),
    ("sweep.knee_ns", "ns"),
    ("store.append_ns", "ns"),
    ("store.bytes", "bytes"),
    ("store.resume_ns", "ns"),
    ("parallel.efficiency", "frac"),
    ("trace.count_share", "frac"),
    ("trace.overhead_frac", "frac"),
    ("work.steps", "count"),
    ("work.runs", "count"),
];

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of `values`.
pub fn quantile(values: &[u64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics over the untraced units of one benchmark run,
/// with every time multiplied by `scale` (see [`crate::speed`]).
pub fn end_to_end(units: &[Timed], scale: f64) -> BTreeMap<&'static str, f64> {
    let median_of = |f: fn(&Timed) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let steps: u64 = units.iter().map(|u| u.steps).sum();
    let runs: u64 = units.iter().map(|u| u.runs).sum();
    let step_s: f64 = units.iter().map(|u| u.step_s).sum();
    let unit_s: f64 = units.iter().map(|u| u.setup_s + u.step_s).sum();
    BTreeMap::from([
        ("setup_s", median_of(|u| u.setup_s) * scale),
        ("run_s_p50", median_of(|u| u.run_s) * scale),
        ("steps_per_s", ratio(steps as f64, step_s * scale)),
        ("cells_per_s", ratio(runs as f64, unit_s * scale)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// Per-layer metrics from the replica's spans and counts, with the
/// untraced units (`program`); `replica_s` and `baseline_s` are the
/// traced and untraced wall times of the same runs.
pub fn per_layer(
    tr: &Tracer,
    c: &Counters,
    program: &[Timed],
    replica_s: f64,
    baseline_s: f64,
) -> BTreeMap<&'static str, f64> {
    let lt = tr.layer_times();
    let get = |name: &str| lt.get(name).copied().unwrap_or_default();
    let self_ns = |name: &str| get(name).self_ns as f64;
    let mean_total = |name: &str| {
        let t: LayerTime = get(name);
        ratio(t.total_ns as f64, t.calls as f64)
    };
    let steps = c.steps as f64;
    let step_total = get("step").total_ns as f64;
    let share = |name: &str| ratio(self_ns(name), step_total);
    let per_step = |x: f64| ratio(x, steps);
    let p = &c.protocol;

    let run_ns = tr.durations("sweep.run");
    let sweep_busy: f64 = run_ns.iter().map(|&d| d as f64).sum();
    let (mut sweep_wall, mut threads, mut store_bytes, mut sweeps) = (0.0, 0usize, 0u64, 0u64);
    for u in program {
        if let Outcome::Sweep(s) = &u.outcome {
            sweep_wall += u.wall_s * 1e9;
            threads = s.threads;
            store_bytes += s.store_bytes;
            sweeps += 1;
        }
    }

    BTreeMap::from([
        ("step.ns", per_step(step_total)),
        ("step.self_ns", per_step(self_ns("step"))),
        ("walks.step_ns", per_step(self_ns("walks.step"))),
        ("walks.moved", per_step(c.moved as f64)),
        (
            "walks.ns_per_moved",
            ratio(self_ns("walks.step"), c.moved as f64),
        ),
        ("walks.share", share("walks.step")),
        ("spatial.apply_ns", per_step(self_ns("spatial.apply"))),
        ("spatial.crossings", per_step(c.crossings as f64)),
        ("spatial.share", share("spatial.apply")),
        ("seeded.label_ns", per_step(self_ns("seeded.label"))),
        ("seeded.labelled", per_step(c.labelled as f64)),
        (
            "seeded.ns_per_labelled",
            ratio(self_ns("seeded.label"), c.labelled as f64),
        ),
        (
            "seeded.useful_frac",
            ratio(c.useful as f64, c.labelled as f64),
        ),
        ("seeded.share", share("seeded.label")),
        ("visibility.label_ns", per_step(self_ns("visibility.label"))),
        ("visibility.components", per_step(c.components as f64)),
        ("visibility.share", share("visibility.label")),
        ("core.exchange_ns", per_step(self_ns("core.exchange"))),
        ("core.exchange_merges", per_step(c.merges as f64)),
        ("core.exchange_share", share("core.exchange")),
        ("core.setup_ns", mean_total("core.setup")),
        ("protocol.tick_ns", mean_total("protocol.tick")),
        ("protocol.share", share("protocol.tick")),
        ("protocol.sent", per_step(p.sent as f64)),
        ("protocol.delivered", per_step(p.delivered as f64)),
        ("protocol.dropped", per_step(p.dropped as f64)),
        ("protocol.timers", per_step(p.timers as f64)),
        ("protocol.retransmits", per_step(p.retransmits as f64)),
        ("protocol.digests", per_step(p.digests as f64)),
        ("protocol.crashes", per_step(p.crashes as f64)),
        (
            "protocol.useful_frac",
            ratio(c.protocol_informed as f64, p.delivered as f64),
        ),
        ("sweep.runs", run_ns.len() as f64),
        ("sweep.run_ns_p50", quantile(&run_ns, 0.5)),
        ("sweep.run_ns_p90", quantile(&run_ns, 0.9)),
        ("sweep.knee_ns", mean_total("sweep.knee")),
        ("store.append_ns", mean_total("store.append")),
        ("store.bytes", ratio(store_bytes as f64, sweeps as f64)),
        ("store.resume_ns", mean_total("store.resume")),
        (
            "parallel.efficiency",
            ratio(sweep_busy, threads as f64 * sweep_wall),
        ),
        ("trace.count_share", share("trace.count")),
        ("trace.overhead_frac", ratio(replica_s, baseline_s) - 1.0),
        ("work.steps", steps),
        ("work.runs", c.runs as f64),
    ])
}
