//! The benchmark-side trace sink and what the traced pass reads from it.
//!
//! [`StampSink`] stamps every event the library emits with a monotonic
//! clock and keeps the stream in memory. The library's own events carry
//! no wall-clock data, so everything here is reconstructed from the
//! stamps:
//!
//! * an **admission burst** is a run of `PeekRouted` events whose
//!   stamps lie less than [`BURST_GAP_NS`] apart — the engine charges a
//!   scanned batch in one tight loop, so the gap between two bursts is
//!   the scan (and everything else) that produced the second one;
//! * a burst is **attributed** the wall time from the end of the
//!   previous burst (or the job start) to its own end, and is bucketed
//!   by the route class holding at least 90% of its billed units;
//! * portfolio **rounds** end at the first `LaneRound` event of the
//!   next round's reduction.

use phonocmap::core::{Objective, PeekRoute, TraceEvent, TraceSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stamps further apart than this start a new admission burst.
pub const BURST_GAP_NS: u64 = 3_000;

/// Share of a burst's units one route class must hold to own it.
const DOMINANT_SHARE: f64 = 0.9;

/// Route classes the per-route ns-per-unit figures are bucketed by.
pub const CLASSES: [&str; 4] = ["full", "bounded_snr", "loss", "bounded_loss"];

/// Records `(ns since the sink's epoch, event)` pairs. Clones share one
/// log, so a boxed clone can be handed to an engine context while the
/// benchmark keeps reading the original.
#[derive(Clone)]
pub struct StampSink {
    epoch: Instant,
    log: Arc<Mutex<Vec<(u64, TraceEvent)>>>,
}

impl StampSink {
    pub fn new() -> StampSink {
        StampSink {
            epoch: Instant::now(),
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Nanoseconds since the sink's epoch, on the clock events use.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.log.lock().expect("stamp log poisoned").len()
    }

    /// A copy of the events recorded since position `from`.
    pub fn since(&self, from: usize) -> Vec<(u64, TraceEvent)> {
        self.log.lock().expect("stamp log poisoned")[from..].to_vec()
    }
}

impl TraceSink for StampSink {
    fn record(&mut self, event: TraceEvent) {
        let t = self.now();
        self.log
            .lock()
            .expect("stamp log poisoned")
            .push((t, event));
    }
}

/// One admission burst.
#[derive(Debug, Clone, Default)]
pub struct Burst {
    pub start: u64,
    pub end: u64,
    /// Peeks billed in the burst.
    pub count: usize,
    /// Edge units billed, total and per [`CLASSES`] entry.
    pub units: u64,
    pub class_units: [u64; 4],
}

impl Burst {
    /// The owning class index, if one class holds ≥90% of the units.
    pub fn class(&self) -> Option<usize> {
        (0..CLASSES.len())
            .find(|&c| self.class_units[c] as f64 >= DOMINANT_SHARE * self.units.max(1) as f64)
    }
}

fn class_of(route: PeekRoute, objective: Objective) -> Option<usize> {
    match route {
        PeekRoute::Full => Some(0),
        PeekRoute::BoundedRejected | PeekRoute::BoundedVerified => {
            Some(if objective.uses_snr() { 1 } else { 3 })
        }
        PeekRoute::Loss => Some(2),
        PeekRoute::Delta => None,
    }
}

/// Splits a job's events into admission bursts.
pub fn bursts(events: &[(u64, TraceEvent)], objective: Objective) -> Vec<Burst> {
    let mut out: Vec<Burst> = Vec::new();
    for (t, ev) in events {
        let TraceEvent::PeekRouted { route, cost } = ev else {
            continue;
        };
        let open = out.last().is_some_and(|b| t - b.end < BURST_GAP_NS);
        if !open {
            out.push(Burst {
                start: *t,
                end: *t,
                ..Burst::default()
            });
        }
        let b = out.last_mut().expect("a burst is open");
        b.end = *t;
        b.count += 1;
        b.units += *cost as u64;
        if let Some(c) = class_of(*route, objective) {
            b.class_units[c] += *cost as u64;
        }
    }
    out
}

/// Wall time of each portfolio round: from the previous round's
/// reduction (or `start`) to this round's first `LaneRound` event.
pub fn round_ns(events: &[(u64, TraceEvent)], start: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut last_round = None;
    let mut prev = start;
    for (t, ev) in events {
        if let TraceEvent::LaneRound { round, .. } = ev {
            if last_round != Some(*round) {
                out.push(t - prev);
                prev = *t;
                last_round = Some(*round);
            }
        }
    }
    out
}

/// Stamp-derived totals over the traced pass.
#[derive(Debug, Default)]
pub struct StampTotals {
    /// Wall time attributed to bursts, and the units they billed —
    /// overall and per class.
    pub attributed_ns: u64,
    pub units: u64,
    pub class_ns: [u64; 4],
    pub class_units: [u64; 4],
    /// Time inside bursts, and the search wall time of the jobs that
    /// had any.
    pub admit_ns: u64,
    pub search_ns: u64,
    /// Moves handed to scans, and those never billed.
    pub handed: u64,
    pub unbilled: u64,
    pub round_ms: Vec<f64>,
    pub units_per_job: Vec<f64>,
}

impl StampTotals {
    /// Folds one single-lane job's bursts in. `job_start` anchors the
    /// first burst's attributed time; `tail` is the job's (moves handed
    /// to scans, moves never billed), where known.
    pub fn add_job(
        &mut self,
        bursts: &[Burst],
        job_start: u64,
        search_ns: u64,
        tail: Option<(u64, u64)>,
    ) {
        let mut prev = job_start;
        let mut job_units = 0;
        for b in bursts {
            let ns = b.end - prev;
            prev = b.end;
            self.attributed_ns += ns;
            self.units += b.units;
            job_units += b.units;
            self.admit_ns += b.end - b.start;
            if let Some(c) = b.class() {
                self.class_ns[c] += ns;
                self.class_units[c] += b.units;
            }
        }
        if !bursts.is_empty() {
            self.search_ns += search_ns;
            self.units_per_job.push(job_units as f64);
        }
        if let Some((handed, unbilled)) = tail {
            self.handed += handed;
            self.unbilled += unbilled;
        }
    }

    pub fn ns_per_unit(&self) -> f64 {
        crate::stats::ratio(self.attributed_ns as f64, self.units as f64)
    }

    pub fn class_ns_per_unit(&self, c: usize) -> f64 {
        crate::stats::ratio(self.class_ns[c] as f64, self.class_units[c] as f64)
    }
}
