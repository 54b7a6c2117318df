//! Output checks: invariants every correct run satisfies (no pinned
//! values, so an intended change of the random stream still passes),
//! and the replica-versus-program fidelity comparison.

use sparsegossip_core::SimConfig;

use crate::workloads::{Outcome, SweepOutcome};

/// How many outcomes a unit produced and how many broke an invariant,
/// with one message per violation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.messages.push(what());
        }
    }

    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
    }
}

/// Checks one unit's outcome:
///
/// * broadcast completes with `informed == k`;
/// * gossip completes with `min_rumors == num_rumors`;
/// * the twin completes with `informed == k` and no runtime error;
/// * the sweep returns no error, no run hits its step cap, and every
///   knee it reports lies inside the theory band.
pub fn check(outcome: &Outcome) -> Verdict {
    let mut v = Verdict::default();
    match outcome {
        Outcome::Broadcast(o) => v.check(o.completed() && o.informed == o.k, || {
            format!("broadcast ended with {}/{} informed", o.informed, o.k)
        }),
        Outcome::Gossip(o) => v.check(o.completed() && o.min_rumors == o.num_rumors, || {
            format!(
                "gossip ended with min {}/{} rumors",
                o.min_rumors, o.num_rumors
            )
        }),
        Outcome::Twin(o) => v.check(
            o.completed() && o.informed == o.k && o.error.is_none(),
            || {
                format!(
                    "twin ended with {}/{} informed, error {:?}",
                    o.informed, o.k, o.error
                )
            },
        ),
        Outcome::Sweep(s) => check_sweep(s, &mut v),
        Outcome::Error(e) => v.check(false, || format!("library error: {e}")),
    }
    v
}

fn check_sweep(s: &SweepOutcome, v: &mut Verdict) {
    for cell in &s.report.cells {
        let cap = SimConfig::default_step_cap(cell.side, cell.k) as f64;
        for (j, &sample) in cell.samples.iter().enumerate() {
            v.check(sample < cap, || {
                format!(
                    "sweep run side {} k {} r {} replicate {j} hit the step cap",
                    cell.side, cell.k, cell.radius
                )
            });
        }
    }
    for t in &s.report.transitions() {
        v.check(t.within_band(), || {
            format!(
                "knee of side {} k {} at r {} outside [{}, {}]",
                t.side,
                t.k,
                t.r_knee,
                t.band().0,
                t.band().1
            )
        });
    }
}

/// Compares the replica's outcome with the program's on the same seed;
/// `Err` names the first difference.
pub fn same_outcome(program: &Outcome, replica: &Outcome) -> Result<(), String> {
    match (program, replica) {
        (Outcome::Broadcast(a), Outcome::Broadcast(b)) if a == b => Ok(()),
        (Outcome::Gossip(a), Outcome::Gossip(b)) if a == b => Ok(()),
        (Outcome::Twin(a), Outcome::Twin(b)) if a == b => Ok(()),
        (a, b) => Err(format!("program {a:?} vs replica {b:?}")),
    }
}
