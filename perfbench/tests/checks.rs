//! The benchmark's own checks, on small configurations: the traced
//! replica reproduces the program, and the output checks reject
//! corrupted outcomes.

use std::path::PathBuf;

use perfbench::checks::{check, same_outcome};
use perfbench::counts::Ledger;
use perfbench::replica::{sweep, traced_unit, Counters};
use perfbench::trace::Tracer;
use perfbench::workloads::{run_untraced, unit_seed, Outcome, Params, Shape, SweepShape, Workload};
use sparsegossip_core::{FaultConfig, NetworkConfig, RuntimeError};

/// The workloads' structure at sizes small enough for a test.
fn small() -> Params {
    let small = Shape {
        side: 32,
        k: 24,
        radius: 2,
    };
    Params {
        broadcast: small,
        gossip: small,
        twin: small,
        twin_net: NetworkConfig::new(0.3, 0, 0, 1).expect("valid lossy network"),
        twin_faults: FaultConfig {
            crash_prob: 1e-3,
            restart_delay: 2,
            partition_start: 0,
            partition_len: 50,
            retransmit: true,
            anti_entropy_interval: 16,
        },
        sweep: SweepShape {
            sides: vec![24, 32],
            ks: vec![8, 16],
            r_factors: vec![0.25, 0.5, 1.0, 2.0],
            replicates: 3,
            threads: 2,
        },
    }
}

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn replica_reproduces_every_workload_on_small_configs() {
    let dir = out_dir("fidelity");
    let params = small();
    for workload in Workload::ALL {
        let mut tr = Tracer::new();
        let mut counters = Counters::default();
        for i in 0..3 {
            let seed = unit_seed(5, i);
            let unit = traced_unit(workload, &params, seed, &dir, &mut tr, &mut counters);
            assert!(
                unit.mismatches.is_empty(),
                "{}: {:?}",
                workload.name(),
                unit.mismatches
            );
            let verdict = check(&unit.program.outcome);
            assert_eq!(
                verdict.failed,
                0,
                "{}: {:?}",
                workload.name(),
                verdict.messages
            );
            assert!(unit.replica_s > 0.0 && unit.baseline_s > 0.0);
        }
        assert!(counters.steps > 0, "{} replayed no steps", workload.name());
        assert!(!tr.spans().is_empty());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn work_counts_repeat_exactly() {
    let dir = out_dir("counts");
    let params = small();
    let run = || {
        let mut tr = Tracer::new();
        let mut counters = Counters::default();
        for workload in Workload::ALL {
            traced_unit(workload, &params, 9, &dir, &mut tr, &mut counters);
        }
        counters
    };
    assert_eq!(run(), run());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_outcomes_fail_the_checks() {
    let dir = out_dir("negative");
    let params = small();
    let seed = unit_seed(3, 0);

    let Outcome::Broadcast(mut b) =
        run_untraced(Workload::BroadcastTb, &params, seed, &dir).outcome
    else {
        panic!("broadcast workload returned another outcome");
    };
    assert_eq!(check(&Outcome::Broadcast(b)).failed, 0);
    let good = Outcome::Broadcast(b);
    b.informed -= 1;
    assert_eq!(check(&Outcome::Broadcast(b)).failed, 1);
    b.informed += 1;
    b.broadcast_time = b.broadcast_time.map(|t| t + 1);
    assert!(same_outcome(&good, &Outcome::Broadcast(b)).is_err());

    let Outcome::Gossip(mut g) = run_untraced(Workload::GossipFull, &params, seed, &dir).outcome
    else {
        panic!("gossip workload returned another outcome");
    };
    assert_eq!(check(&Outcome::Gossip(g)).failed, 0);
    g.min_rumors -= 1;
    assert_eq!(check(&Outcome::Gossip(g)).failed, 1);

    let Outcome::Twin(mut t) = run_untraced(Workload::TwinFaulty, &params, seed, &dir).outcome
    else {
        panic!("twin workload returned another outcome");
    };
    assert_eq!(check(&Outcome::Twin(t)).failed, 0);
    let good = Outcome::Twin(t);
    t.log_hash ^= 1;
    assert!(same_outcome(&good, &Outcome::Twin(t)).is_err());
    t.error = Some(RuntimeError::SendWorkerPanicked);
    assert_eq!(check(&Outcome::Twin(t)).failed, 1);

    assert_eq!(check(&Outcome::Error("refused".into())).failed, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupted_sweep_sample_fails_the_replay() {
    let dir = out_dir("sweep");
    let params = small();
    let Outcome::Sweep(mut s) = run_untraced(Workload::SweepKnee, &params, 4, &dir).outcome else {
        panic!("sweep workload returned another outcome");
    };
    let mut counters = Counters::default();
    assert!(sweep(&mut Tracer::new(), &s, &dir, &mut counters)
        .mismatches
        .is_empty());
    s.report.cells[0].samples[0] += 1.0;
    let replay = sweep(&mut Tracer::new(), &s, &dir, &mut counters);
    // The run replay, the store lookup and the layered replay all see it.
    assert_eq!(replay.mismatches.len(), 3, "{:?}", replay.mismatches);
    // A step-capped sample breaks the checks.
    let cap =
        sparsegossip_core::SimConfig::default_step_cap(s.report.cells[0].side, s.report.cells[0].k);
    s.report.cells[0].samples[0] = cap as f64;
    assert!(check(&Outcome::Sweep(s)).failed >= 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_changed_work_count_is_a_mismatch_across_runs() {
    let dir = out_dir("ledger");
    let path = dir.join("w.tsv");
    let mut first = Ledger::open(&path).unwrap();
    first.record(7, "steps", 100);
    first.record(7, "moves", 40);
    first.save().unwrap();

    let mut same = Ledger::open(&path).unwrap();
    same.record(7, "steps", 100);
    same.record(8, "steps", 90);
    assert!(same.mismatches().is_empty());

    let mut other = Ledger::open(&path).unwrap();
    other.record(7, "moves", 41);
    assert_eq!(other.mismatches().len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
