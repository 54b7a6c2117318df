//! In-memory span recording for the traced replica.
//!
//! A span is one timed call into a layer: name, start, end, its own id,
//! the id of the span that caused it, and the run (one per workload
//! seed) it belongs to. Spans stay in a `Vec` while the benchmark runs
//! and are written out once it ends; a layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The one wall-clock read of the benchmark.
#[inline]
pub fn now() -> Instant {
    Instant::now() // detlint: allow(wall-clock, the benchmark times the library from outside it)
}

/// Seconds elapsed between two instants.
#[inline]
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// On-CPU seconds of this process, all threads together, from an
/// arbitrary origin. The end-to-end metrics are timed with this clock:
/// unlike the wall clock it stands still while the hypervisor runs
/// another guest on this machine's virtual CPUs (steal time), which on
/// a shared host is the largest source of run-to-run noise. On an
/// unshared machine a single-threaded unit's on-CPU time is its wall
/// time.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// The parent of a root span.
pub const ROOT: SpanId = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: SpanId,
    pub parent: SpanId,
    pub run: u32,
}

impl Span {
    /// The span's wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer totals over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    /// Tags every later span with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span named `name` under `parent`.
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.ns(now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            id,
            parent,
            run: self.run,
        });
        id
    }

    /// Closes span `id`.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.ns(now());
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a span timed elsewhere (on a worker thread).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            id,
            parent,
            run: self.run,
        };
        self.spans.push(span);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &child) in self.spans.iter().zip(&covered) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child);
        }
        out
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes every span as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.run, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        let base = now();
        let at = |ns: u64| base + std::time::Duration::from_nanos(ns);
        let parent = tr.record("step", ROOT, at(0), at(100));
        tr.record("walk", parent, at(10), at(40));
        tr.record("label", parent, at(40), at(90));
        let t = tr.layer_times();
        assert_eq!(t["step"].total_ns, 100);
        assert_eq!(t["step"].self_ns, 20);
        assert_eq!(t["walk"].self_ns, 30);
        assert_eq!(t["label"].calls, 1);
    }
}
