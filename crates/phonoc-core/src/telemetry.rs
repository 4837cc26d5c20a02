//! Structured search telemetry: typed trace events, aggregated run
//! statistics, and the `phonocmap-trace/1` JSONL format.
//!
//! The engine makes hundreds of hidden decisions per run — hybrid peek
//! routing, neighbourhood widen/narrow, portfolio budget reweighting
//! and collapse, warm-cache donor selection, bound-based pruning. This
//! module makes them observable without changing them:
//!
//! * [`RunStats`] — integer decision counters every [`OptContext`]
//!   keeps unconditionally (an increment per decision, the same cost
//!   class as the existing evaluation counters), snapshotted into
//!   [`DseResult::stats`] and aggregated across portfolio lanes.
//! * [`TraceEvent`] — the typed event stream, emitted only when a
//!   recording [`TraceSink`] is installed. The default [`NullSink`]
//!   reports itself disabled, so every emission site skips even the
//!   event construction; results are bit-identical with and without a
//!   recorder (property-pinned in `tests/telemetry_properties.rs`).
//! * The JSONL trace format, schema [`TRACE_SCHEMA`]: one header line,
//!   then one flat JSON object per event — written by [`render_trace`],
//!   parsed back by [`parse_trace`], analyzed by [`summarize_trace`]
//!   (the `phonocmap trace` subcommand).
//!
//! # Event taxonomy
//!
//! | event | layer | payload |
//! |---|---|---|
//! | `peek` | engine | route chosen ([`PeekRoute`]) + honest unit cost |
//! | `improved` | engine | budget spent at the improvement + score bits |
//! | `widen` / `dry_scan` / `narrow` | neighbourhood streams | radius trajectory |
//! | `lane_round` | portfolio | per-(round, lane) allotment, spend, score, seeding |
//! | `collapse` | portfolio | round the collapse fired and the surviving lane |
//! | `warm_lookup` | warm cache | exact / near / cold + donor overlap |
//! | `exact_summary` / `exact_cuts` | exact lane | nodes, leaves, bound-cut depth histogram |
//! | `session_end` | engine / portfolio | the full [`RunStats`] + ledger totals |
//!
//! # Determinism contract
//!
//! Every payload field is a deterministic integer (scores travel as
//! [`f64::to_bits`] — the adjacent readable `score` field is derived at
//! render time and ignored by the parser). Events deliberately carry
//! **no wall-clock fields**: counters and event streams are
//! byte-reproducible per `(problem, config, seed)` at any worker count,
//! while timings stay advisory and live outside the trace (bench
//! harness JSON). Counter updates and event emissions happen only in
//! sequential engine code — batch scans compute in parallel but are
//! admitted and counted in input order — which is what makes the
//! stream, not just the totals, reproducible.
//!
//! # Reconciliation
//!
//! The counters partition the engine's integer evaluation ledger
//! exactly ([`RunStats::reconciles`]):
//!
//! ```text
//! full_evaluations  == full_peeks + full_direct
//! delta_evaluations == delta_exact + loss_fast_path
//!                      + bound_rejected + bound_verified + bound_charges
//! ```
//!
//! `phonocmap trace` and `bench_gate.py --trace` verify these identities
//! on every `session_end` event, and — when per-peek events are present
//! (single-session traces) — that the event stream's route counts match
//! the counters one for one.
//!
//! [`OptContext`]: crate::OptContext
//! [`DseResult::stats`]: crate::DseResult::stats

use std::fmt::Write as _;

/// Schema identifier written in the header line of every JSONL trace.
pub const TRACE_SCHEMA: &str = "phonocmap-trace/1";

/// Which backend an admitted peek was routed to — the cursor's peek
/// route plus the bound-then-verify split of improving scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeekRoute {
    /// Routed to a full scratch re-evaluation (the cursor's route).
    Full,
    /// Exact incremental SNR delta.
    Delta,
    /// Crosstalk-free loss fast path (loss-family objectives).
    Loss,
    /// Bound-then-verify peek rejected the move on its admissible
    /// bound — no exact score was computed.
    BoundedRejected,
    /// Bound-then-verify peek fell through to the exact verification
    /// (the move could improve on the cursor).
    BoundedVerified,
}

impl PeekRoute {
    /// Every route, in the canonical order.
    pub const ALL: [PeekRoute; 5] = [
        PeekRoute::Full,
        PeekRoute::Delta,
        PeekRoute::Loss,
        PeekRoute::BoundedRejected,
        PeekRoute::BoundedVerified,
    ];

    /// Stable lowercase identifier (JSONL `route` field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PeekRoute::Full => "full",
            PeekRoute::Delta => "delta",
            PeekRoute::Loss => "loss",
            PeekRoute::BoundedRejected => "bound_rejected",
            PeekRoute::BoundedVerified => "bound_verified",
        }
    }

    /// Looks a route up by its [`PeekRoute::name`].
    #[must_use]
    pub fn by_name(name: &str) -> Option<PeekRoute> {
        PeekRoute::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// How a warm-cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarmOutcome {
    /// Canonical key match: cached result, zero evaluations.
    ExactHit,
    /// Same-family donor seeded round 0.
    NearHit,
    /// No applicable entry; plain cold run.
    Cold,
}

impl WarmOutcome {
    /// Every outcome, in the canonical order.
    pub const ALL: [WarmOutcome; 3] = [
        WarmOutcome::ExactHit,
        WarmOutcome::NearHit,
        WarmOutcome::Cold,
    ];

    /// Stable lowercase identifier (JSONL `outcome` field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WarmOutcome::ExactHit => "exact",
            WarmOutcome::NearHit => "near",
            WarmOutcome::Cold => "cold",
        }
    }

    /// Looks an outcome up by its [`WarmOutcome::name`].
    #[must_use]
    pub fn by_name(name: &str) -> Option<WarmOutcome> {
        WarmOutcome::ALL.into_iter().find(|o| o.name() == name)
    }
}

/// Aggregated decision counters for one search session (or one
/// portfolio run, where per-lane stats are summed). All fields are
/// plain integers maintained in sequential engine code, so they are
/// deterministic per `(problem, config, seed)` at any worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Full evaluations performed (ledger total; `== full_peeks +
    /// full_direct`).
    pub full_evaluations: usize,
    /// Incremental evaluations performed (ledger total; the sum of
    /// `delta_exact`, `loss_fast_path`, `bound_rejected`,
    /// `bound_verified` and `bound_charges`).
    pub delta_evaluations: usize,
    /// Peeks the strategy routed to a full scratch re-evaluation.
    pub full_peeks: usize,
    /// Non-peek full evaluations (`evaluate`, `evaluate_batch`,
    /// `set_current`).
    pub full_direct: usize,
    /// Exact SNR delta peeks (non-improving scans).
    pub delta_exact: usize,
    /// Crosstalk-free loss fast-path peeks.
    pub loss_fast_path: usize,
    /// Bound-then-verify peeks rejected on their admissible bound.
    pub bound_rejected: usize,
    /// Bound-then-verify peeks that fell through to exact verification.
    pub bound_verified: usize,
    /// Admissible-bound charges from certificate searches
    /// (`charge_bound`).
    pub bound_charges: usize,
    /// Incumbent improvements (one per `history` entry).
    pub improvements: usize,
    /// Neighbourhood stream widenings.
    pub widenings: usize,
    /// Scans that came back empty or improvement-free (the widen
    /// trigger).
    pub dry_scans: usize,
    /// Neighbourhood stream narrowings (radius reset on improvement).
    pub narrowings: usize,
    /// Warm-cache exact hits observed by this session's driver.
    pub warm_exact_hits: usize,
    /// Warm-cache near hits (donor-seeded runs).
    pub warm_near_hits: usize,
    /// Warm-cache cold runs.
    pub warm_cold: usize,
    /// Branch-and-bound nodes expanded by the exact lane.
    pub exact_nodes: usize,
    /// Exact-lane leaves evaluated.
    pub exact_leaves: usize,
    /// Portfolio rounds executed.
    pub rounds: usize,
    /// Portfolio collapses fired.
    pub collapses: usize,
}

/// The `(JSON key, value)` pairs of a [`RunStats`], in canonical order.
/// One definition shared by the writer, the parser and the summary
/// renderer, so the three can never drift.
macro_rules! for_each_stat {
    ($stats:expr, $f:expr) => {{
        let s = $stats;
        let mut f = $f;
        f("full_evaluations", &mut s.full_evaluations);
        f("delta_evaluations", &mut s.delta_evaluations);
        f("full_peeks", &mut s.full_peeks);
        f("full_direct", &mut s.full_direct);
        f("delta_exact", &mut s.delta_exact);
        f("loss_fast_path", &mut s.loss_fast_path);
        f("bound_rejected", &mut s.bound_rejected);
        f("bound_verified", &mut s.bound_verified);
        f("bound_charges", &mut s.bound_charges);
        f("improvements", &mut s.improvements);
        f("widenings", &mut s.widenings);
        f("dry_scans", &mut s.dry_scans);
        f("narrowings", &mut s.narrowings);
        f("warm_exact_hits", &mut s.warm_exact_hits);
        f("warm_near_hits", &mut s.warm_near_hits);
        f("warm_cold", &mut s.warm_cold);
        f("exact_nodes", &mut s.exact_nodes);
        f("exact_leaves", &mut s.exact_leaves);
        f("rounds", &mut s.rounds);
        f("collapses", &mut s.collapses);
    }};
}

impl RunStats {
    /// Adds every counter of `other` into `self` — how a portfolio run
    /// folds its lanes' per-session stats into one aggregate.
    pub fn absorb(&mut self, other: &RunStats) {
        let mut o = *other;
        let mut theirs: Vec<usize> = Vec::with_capacity(20);
        for_each_stat!(&mut o, |_k: &str, v: &mut usize| theirs.push(*v));
        let mut i = 0;
        for_each_stat!(self, |_k: &str, v: &mut usize| {
            *v += theirs[i];
            i += 1;
        });
    }

    /// Whether the route counters partition the evaluation ledger
    /// exactly (see the [module docs](self)).
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.full_evaluations == self.full_peeks + self.full_direct
            && self.delta_evaluations
                == self.delta_exact
                    + self.loss_fast_path
                    + self.bound_rejected
                    + self.bound_verified
                    + self.bound_charges
    }

    /// Peeks admitted through any route (full-routed, exact delta,
    /// loss fast path, or the bound-then-verify pair).
    #[must_use]
    pub fn peeks_total(&self) -> usize {
        self.full_peeks
            + self.delta_exact
            + self.loss_fast_path
            + self.bound_rejected
            + self.bound_verified
    }

    /// Fraction of bound-then-verify peeks rejected on their bound
    /// (`0.0` when no bounded peek ran).
    #[must_use]
    pub fn bound_rejection_rate(&self) -> f64 {
        let bounded = self.bound_rejected + self.bound_verified;
        if bounded == 0 {
            0.0
        } else {
            self.bound_rejected as f64 / bounded as f64
        }
    }

    /// The per-route peek counter.
    #[must_use]
    pub fn route_count(&self, route: PeekRoute) -> usize {
        match route {
            PeekRoute::Full => self.full_peeks,
            PeekRoute::Delta => self.delta_exact,
            PeekRoute::Loss => self.loss_fast_path,
            PeekRoute::BoundedRejected => self.bound_rejected,
            PeekRoute::BoundedVerified => self.bound_verified,
        }
    }

    /// Renders the hybrid route mix as an aligned text table — the
    /// block `phonocmap` reports print next to the laser-budget table.
    #[must_use]
    pub fn route_mix_table(&self) -> String {
        let total = self.peeks_total().max(1);
        let pct = |n: usize| 100.0 * n as f64 / total as f64;
        let mut out = String::new();
        out.push_str("Peek route mix\n");
        let _ = writeln!(
            out,
            "  full-routed peeks   {:>8}  ({:5.1}%)",
            self.full_peeks,
            pct(self.full_peeks)
        );
        let _ = writeln!(
            out,
            "  exact delta peeks   {:>8}  ({:5.1}%)",
            self.delta_exact,
            pct(self.delta_exact)
        );
        let _ = writeln!(
            out,
            "  loss fast path      {:>8}  ({:5.1}%)",
            self.loss_fast_path,
            pct(self.loss_fast_path)
        );
        let _ = writeln!(
            out,
            "  bound rejected      {:>8}  ({:5.1}%)",
            self.bound_rejected,
            pct(self.bound_rejected)
        );
        let _ = writeln!(
            out,
            "  bound verified      {:>8}  ({:5.1}%)",
            self.bound_verified,
            pct(self.bound_verified)
        );
        let _ = writeln!(
            out,
            "  bound rejection rate {:6.1}%",
            100.0 * self.bound_rejection_rate()
        );
        let _ = writeln!(
            out,
            "  ledger: {} full ({} peek + {} direct), {} delta (+{} bound charges)",
            self.full_evaluations,
            self.full_peeks,
            self.full_direct,
            self.delta_evaluations,
            self.bound_charges
        );
        out
    }
}

/// One structured telemetry event. Payloads are deterministic scalars
/// only — see the [module docs](self) for the taxonomy and the
/// determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An admitted peek and the backend it was routed to.
    PeekRouted {
        /// Route chosen for the move.
        route: PeekRoute,
        /// Honest budget charge, in edge units.
        cost: usize,
    },
    /// The incumbent improved.
    Improved {
        /// Budget spent (full-evaluation-equivalents) at the
        /// improvement — the same index the convergence history
        /// records.
        spent: usize,
        /// New incumbent score, as [`f64::to_bits`].
        score_bits: u64,
    },
    /// A neighbourhood stream widened its radius after a dry scan.
    Widened {
        /// Radius after widening.
        radius: usize,
    },
    /// A scan pass produced no improving (or no admissible) move.
    DryScan {
        /// Radius the dry scan ran at.
        radius: usize,
    },
    /// A neighbourhood stream narrowed back on improvement.
    Narrowed {
        /// Radius after narrowing.
        radius: usize,
    },
    /// One portfolio lane finished one bulk-synchronous round.
    LaneRound {
        /// Round index (0-based).
        round: usize,
        /// Lane index within the portfolio.
        lane: usize,
        /// Budget allotted to the lane this round.
        allotted: usize,
        /// Budget the lane actually consumed.
        used: usize,
        /// Lane-best score after the round, as [`f64::to_bits`].
        score_bits: u64,
        /// Whether the lane was seeded with an exchanged elite (or a
        /// warm start) this round.
        seeded: bool,
    },
    /// The portfolio collapsed to its dominant lane.
    CollapseFired {
        /// Round the collapse fired after.
        round: usize,
        /// Index of the surviving lane.
        survivor: usize,
    },
    /// A warm-cache request was classified.
    WarmLookup {
        /// Exact hit, near hit, or cold.
        outcome: WarmOutcome,
        /// Shared directed endpoints with the donor (near hits; `0`
        /// otherwise).
        shared_edges: usize,
    },
    /// Exact-lane search summary.
    ExactSummary {
        /// Branch-and-bound nodes expanded.
        nodes: usize,
        /// Leaves evaluated.
        leaves: usize,
    },
    /// One bucket of the exact lane's bound-cut depth histogram.
    ExactCuts {
        /// Assignment depth the cuts fired at.
        depth: usize,
        /// Number of subtrees cut at this depth.
        cuts: usize,
    },
    /// End-of-session summary: the full counter set plus ledger totals.
    SessionEnd {
        /// Aggregated decision counters.
        stats: RunStats,
        /// Budget consumed, in full-evaluation-equivalents.
        spent: usize,
        /// Budget configured, in full-evaluation-equivalents.
        budget: usize,
        /// Best score, as [`f64::to_bits`].
        score_bits: u64,
    },
}

/// Where an [`OptContext`](crate::OptContext) sends its events. The
/// engine consults [`TraceSink::enabled`] before constructing an event,
/// so a disabled sink costs one virtual call per emission site and
/// nothing else.
pub trait TraceSink: Send {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. Only called when [`TraceSink::enabled`] is
    /// `true`.
    fn record(&mut self, event: TraceEvent);

    /// Takes the recorded events out of the sink (recording sinks
    /// only; the default returns nothing).
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// The default sink: permanently disabled, records nothing. Installing
/// it is free (`Box<NullSink>` allocates nothing for a zero-sized
/// type), and every emission site short-circuits on
/// [`TraceSink::enabled`] before building its event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// The in-memory recorder: appends every event to a vector, in
/// emission order. Install with
/// [`OptContext::set_trace_sink`](crate::OptContext::set_trace_sink)
/// (or run through [`run_dse_traced`](crate::run_dse_traced)), drain
/// when the session ends.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    events: Vec<TraceEvent>,
}

impl RunTrace {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> RunTrace {
        RunTrace::default()
    }

    /// The events recorded so far.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl TraceSink for RunTrace {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The parsed header line of a JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Schema identifier (must be [`TRACE_SCHEMA`]).
    pub schema: String,
    /// What produced the trace (`"optimize"`, `"portfolio"`,
    /// `"replay"`, …).
    pub source: String,
    /// Number of event lines that follow. `0` is a valid trace — a run
    /// with the sink off records nothing.
    pub events: usize,
}

/// Appends `s` to `out` as a quoted JSON string literal, escaping
/// quotes, backslashes and every control character (`\n`, `\t`, `\r`
/// by name, the rest as `\u00XX`) — the one JSON string escaper the
/// hand-rolled writers here and in the bench harnesses share (the
/// workspace builds offline, without `serde_json`).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The derived human-readable score adjacent to a `score_bits` field.
/// Ignored by the parser (bits are authoritative); `null` when the
/// bits decode to a non-finite value, so every line stays strict JSON.
fn push_score(out: &mut String, bits: u64) {
    let score = f64::from_bits(bits);
    if score.is_finite() {
        let _ = write!(out, ",\"score\":{score}");
    } else {
        out.push_str(",\"score\":null");
    }
}

fn render_event(out: &mut String, event: &TraceEvent) {
    match event {
        TraceEvent::PeekRouted { route, cost } => {
            let _ = write!(
                out,
                "{{\"ev\":\"peek\",\"route\":\"{}\",\"cost\":{cost}}}",
                route.name()
            );
        }
        TraceEvent::Improved { spent, score_bits } => {
            let _ = write!(
                out,
                "{{\"ev\":\"improved\",\"spent\":{spent},\"score_bits\":{score_bits}"
            );
            push_score(out, *score_bits);
            out.push('}');
        }
        TraceEvent::Widened { radius } => {
            let _ = write!(out, "{{\"ev\":\"widen\",\"radius\":{radius}}}");
        }
        TraceEvent::DryScan { radius } => {
            let _ = write!(out, "{{\"ev\":\"dry_scan\",\"radius\":{radius}}}");
        }
        TraceEvent::Narrowed { radius } => {
            let _ = write!(out, "{{\"ev\":\"narrow\",\"radius\":{radius}}}");
        }
        TraceEvent::LaneRound {
            round,
            lane,
            allotted,
            used,
            score_bits,
            seeded,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"lane_round\",\"round\":{round},\"lane\":{lane},\
                 \"allotted\":{allotted},\"used\":{used},\"score_bits\":{score_bits}"
            );
            push_score(out, *score_bits);
            let _ = write!(out, ",\"seeded\":{}}}", usize::from(*seeded));
        }
        TraceEvent::CollapseFired { round, survivor } => {
            let _ = write!(
                out,
                "{{\"ev\":\"collapse\",\"round\":{round},\"survivor\":{survivor}}}"
            );
        }
        TraceEvent::WarmLookup {
            outcome,
            shared_edges,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"warm_lookup\",\"outcome\":\"{}\",\"shared_edges\":{shared_edges}}}",
                outcome.name()
            );
        }
        TraceEvent::ExactSummary { nodes, leaves } => {
            let _ = write!(
                out,
                "{{\"ev\":\"exact_summary\",\"nodes\":{nodes},\"leaves\":{leaves}}}"
            );
        }
        TraceEvent::ExactCuts { depth, cuts } => {
            let _ = write!(
                out,
                "{{\"ev\":\"exact_cuts\",\"depth\":{depth},\"cuts\":{cuts}}}"
            );
        }
        TraceEvent::SessionEnd {
            stats,
            spent,
            budget,
            score_bits,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"session_end\",\"spent\":{spent},\"budget\":{budget},\
                 \"score_bits\":{score_bits}"
            );
            push_score(out, *score_bits);
            let mut s = *stats;
            for_each_stat!(&mut s, |k: &str, v: &mut usize| {
                let _ = write!(out, ",\"{k}\":{v}");
            });
            out.push('}');
        }
    }
}

/// Renders a complete JSONL trace: the [`TRACE_SCHEMA`] header line,
/// then one flat JSON object per event. Deterministic: the output is a
/// pure function of `(source, events)`.
#[must_use]
pub fn render_trace(source: &str, events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":");
    push_json_str(&mut out, TRACE_SCHEMA);
    out.push_str(",\"source\":");
    push_json_str(&mut out, source);
    let _ = writeln!(out, ",\"events\":{}}}", events.len());
    for event in events {
        render_event(&mut out, event);
        out.push('\n');
    }
    out
}

/// A parsed flat JSON object: string, integer and `null`/bool values
/// only (all any trace line contains).
struct FlatObject {
    fields: Vec<(String, FlatValue)>,
}

enum FlatValue {
    Str(String),
    /// Numbers keep their raw token so `u64` payloads (score bits)
    /// round-trip without a float detour.
    Raw(String),
}

impl FlatObject {
    fn get(&self, key: &str) -> Option<&FlatValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(FlatValue::Str(s)) => Ok(s),
            Some(FlatValue::Raw(_)) => Err(format!("field '{key}' is not a string")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    fn u64_field(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(FlatValue::Raw(raw)) => raw
                .parse::<u64>()
                .map_err(|_| format!("field '{key}' is not an unsigned integer: {raw}")),
            Some(FlatValue::Str(_)) => Err(format!("field '{key}' is not a number")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    fn usize_field(&self, key: &str) -> Result<usize, String> {
        Ok(self.u64_field(key)? as usize)
    }
}

/// Parses one flat JSON object (`{"key":value,...}`, no nesting). The
/// trace format only ever writes flat objects, so this is the whole
/// grammar.
fn parse_flat_object(line: &str) -> Result<FlatObject, String> {
    let mut chars = line.trim().char_indices().peekable();
    let text = line.trim();
    let mut fields = Vec::new();
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("expected '{'".to_string()),
    }
    loop {
        // Skip whitespace.
        while matches!(chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
            chars.next();
        }
        match chars.peek() {
            Some(&(_, '}')) => {
                chars.next();
                break;
            }
            Some(&(_, '"')) => {}
            _ => return Err("expected '\"' or '}'".to_string()),
        }
        let key = parse_string(&mut chars)?;
        while matches!(chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
            chars.next();
        }
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(format!("expected ':' after key '{key}'")),
        }
        while matches!(chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
            chars.next();
        }
        let value = match chars.peek() {
            Some(&(_, '"')) => FlatValue::Str(parse_string(&mut chars)?),
            Some(&(start, _)) => {
                let mut end = text.len();
                while let Some(&(i, c)) = chars.peek() {
                    if c == ',' || c == '}' {
                        end = i;
                        break;
                    }
                    chars.next();
                }
                FlatValue::Raw(text[start..end].trim().to_string())
            }
            None => return Err(format!("unterminated value for key '{key}'")),
        };
        fields.push((key, value));
        while matches!(chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
            chars.next();
        }
        match chars.next() {
            Some((_, ',')) => {}
            Some((_, '}')) => break,
            _ => return Err("expected ',' or '}'".to_string()),
        }
    }
    Ok(FlatObject { fields })
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err("expected '\"'".to_string()),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((_, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, other)) => return Err(format!("unsupported escape '\\{other}'")),
                None => return Err("unterminated escape".to_string()),
            },
            Some((_, c)) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_event(obj: &FlatObject) -> Result<TraceEvent, String> {
    let ev = obj.str_field("ev")?;
    match ev {
        "peek" => Ok(TraceEvent::PeekRouted {
            route: PeekRoute::by_name(obj.str_field("route")?).ok_or_else(|| {
                format!("unknown peek route '{}'", obj.str_field("route").unwrap())
            })?,
            cost: obj.usize_field("cost")?,
        }),
        "improved" => Ok(TraceEvent::Improved {
            spent: obj.usize_field("spent")?,
            score_bits: obj.u64_field("score_bits")?,
        }),
        "widen" => Ok(TraceEvent::Widened {
            radius: obj.usize_field("radius")?,
        }),
        "dry_scan" => Ok(TraceEvent::DryScan {
            radius: obj.usize_field("radius")?,
        }),
        "narrow" => Ok(TraceEvent::Narrowed {
            radius: obj.usize_field("radius")?,
        }),
        "lane_round" => Ok(TraceEvent::LaneRound {
            round: obj.usize_field("round")?,
            lane: obj.usize_field("lane")?,
            allotted: obj.usize_field("allotted")?,
            used: obj.usize_field("used")?,
            score_bits: obj.u64_field("score_bits")?,
            seeded: obj.u64_field("seeded")? != 0,
        }),
        "collapse" => Ok(TraceEvent::CollapseFired {
            round: obj.usize_field("round")?,
            survivor: obj.usize_field("survivor")?,
        }),
        "warm_lookup" => Ok(TraceEvent::WarmLookup {
            outcome: WarmOutcome::by_name(obj.str_field("outcome")?).ok_or_else(|| {
                format!(
                    "unknown warm outcome '{}'",
                    obj.str_field("outcome").unwrap()
                )
            })?,
            shared_edges: obj.usize_field("shared_edges")?,
        }),
        "exact_summary" => Ok(TraceEvent::ExactSummary {
            nodes: obj.usize_field("nodes")?,
            leaves: obj.usize_field("leaves")?,
        }),
        "exact_cuts" => Ok(TraceEvent::ExactCuts {
            depth: obj.usize_field("depth")?,
            cuts: obj.usize_field("cuts")?,
        }),
        "session_end" => {
            let mut stats = RunStats::default();
            let mut err = None;
            for_each_stat!(&mut stats, |k: &str, v: &mut usize| {
                match obj.usize_field(k) {
                    Ok(n) => *v = n,
                    Err(e) => err = Some(e),
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            Ok(TraceEvent::SessionEnd {
                stats,
                spent: obj.usize_field("spent")?,
                budget: obj.usize_field("budget")?,
                score_bits: obj.u64_field("score_bits")?,
            })
        }
        other => Err(format!("unknown event type '{other}'")),
    }
}

/// Parses a JSONL trace back into its header and events.
///
/// # Errors
///
/// Returns a message naming the offending line when the header is
/// missing or declares a different schema, a line is not a flat JSON
/// object, an event is unknown or incomplete, or the header's event
/// count disagrees with the number of event lines.
pub fn parse_trace(text: &str) -> Result<(TraceHeader, Vec<TraceEvent>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty trace (no header line)")?;
    let header_obj = parse_flat_object(header_line).map_err(|e| format!("header line: {e}"))?;
    let schema = header_obj
        .str_field("schema")
        .map_err(|e| format!("header line: {e}"))?;
    if schema != TRACE_SCHEMA {
        return Err(format!(
            "unsupported trace schema '{schema}' (expected '{TRACE_SCHEMA}')"
        ));
    }
    let header = TraceHeader {
        schema: schema.to_string(),
        source: header_obj
            .str_field("source")
            .map_err(|e| format!("header line: {e}"))?
            .to_string(),
        events: header_obj
            .usize_field("events")
            .map_err(|e| format!("header line: {e}"))?,
    };
    let mut events = Vec::new();
    for (index, line) in lines.enumerate() {
        let obj = parse_flat_object(line).map_err(|e| format!("event line {}: {e}", index + 1))?;
        events.push(parse_event(&obj).map_err(|e| format!("event line {}: {e}", index + 1))?);
    }
    if events.len() != header.events {
        return Err(format!(
            "header declares {} events but {} event lines follow",
            header.events,
            events.len()
        ));
    }
    Ok((header, events))
}

/// Analyzes a parsed trace — the `phonocmap trace` subcommand's body.
/// Renders the route-mix table, per-round lane budget flow, cache-hit
/// breakdown and exact-lane cut histogram, and **verifies** the
/// reconciliation identities: every `session_end`'s route counters must
/// partition its evaluation ledger, and when per-peek events are
/// present their counts must match the counters one for one.
///
/// # Errors
///
/// Returns a description of the first reconciliation failure.
pub fn summarize_trace(header: &TraceHeader, events: &[TraceEvent]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: schema {} · source {} · {} events",
        header.schema,
        header.source,
        events.len()
    );
    if events.is_empty() {
        out.push_str("(empty trace: sink was off — counters live in the run's report)\n");
        return Ok(out);
    }

    // Per-peek route counts from the event stream (single-session
    // traces; portfolio lanes report through their session_end totals).
    let mut peek_counts = [0usize; PeekRoute::ALL.len()];
    let mut peek_units = 0usize;
    let mut improvements = 0usize;
    let mut widen = 0usize;
    let mut dry = 0usize;
    let mut narrow = 0usize;
    let mut lane_rounds: Vec<(usize, usize, usize, usize, u64, bool)> = Vec::new();
    let mut collapses: Vec<(usize, usize)> = Vec::new();
    let mut warm = [0usize; WarmOutcome::ALL.len()];
    let mut warm_shared = 0usize;
    let mut exact_nodes = 0usize;
    let mut exact_leaves = 0usize;
    let mut cuts: Vec<(usize, usize)> = Vec::new();
    let mut sessions: Vec<(RunStats, usize, usize, u64)> = Vec::new();
    for event in events {
        match event {
            TraceEvent::PeekRouted { route, cost } => {
                let i = PeekRoute::ALL.iter().position(|r| r == route).unwrap();
                peek_counts[i] += 1;
                peek_units += cost;
            }
            TraceEvent::Improved { .. } => improvements += 1,
            TraceEvent::Widened { .. } => widen += 1,
            TraceEvent::DryScan { .. } => dry += 1,
            TraceEvent::Narrowed { .. } => narrow += 1,
            TraceEvent::LaneRound {
                round,
                lane,
                allotted,
                used,
                score_bits,
                seeded,
            } => lane_rounds.push((*round, *lane, *allotted, *used, *score_bits, *seeded)),
            TraceEvent::CollapseFired { round, survivor } => collapses.push((*round, *survivor)),
            TraceEvent::WarmLookup {
                outcome,
                shared_edges,
            } => {
                let i = WarmOutcome::ALL.iter().position(|o| o == outcome).unwrap();
                warm[i] += 1;
                warm_shared += shared_edges;
            }
            TraceEvent::ExactSummary { nodes, leaves } => {
                exact_nodes += nodes;
                exact_leaves += leaves;
            }
            TraceEvent::ExactCuts { depth, cuts: n } => cuts.push((*depth, *n)),
            TraceEvent::SessionEnd {
                stats,
                spent,
                budget,
                score_bits,
            } => sessions.push((*stats, *spent, *budget, *score_bits)),
        }
    }

    if sessions.is_empty() {
        return Err("trace has events but no session_end summary".to_string());
    }

    // Reconciliation: each session's counters must partition its
    // ledger; peek events (when present) must match the summed
    // counters route for route.
    let mut total = RunStats::default();
    for (stats, _, _, _) in &sessions {
        if !stats.reconciles() {
            return Err(format!(
                "session_end counters do not partition the ledger: \
                 full {} != {} + {} or delta {} != {}+{}+{}+{}+{}",
                stats.full_evaluations,
                stats.full_peeks,
                stats.full_direct,
                stats.delta_evaluations,
                stats.delta_exact,
                stats.loss_fast_path,
                stats.bound_rejected,
                stats.bound_verified,
                stats.bound_charges
            ));
        }
        total.absorb(stats);
    }
    if peek_counts.iter().sum::<usize>() > 0 {
        for (i, route) in PeekRoute::ALL.into_iter().enumerate() {
            if peek_counts[i] != total.route_count(route) {
                return Err(format!(
                    "peek events disagree with session counters on route '{}': \
                     {} events vs counter {}",
                    route.name(),
                    peek_counts[i],
                    total.route_count(route)
                ));
            }
        }
    }

    let _ = writeln!(
        out,
        "sessions: {} · improvements (events): {improvements}",
        sessions.len()
    );
    for (i, (stats, spent, budget, score_bits)) in sessions.iter().enumerate() {
        let score = f64::from_bits(*score_bits);
        let _ = writeln!(
            out,
            "  session {i}: spent {spent}/{budget} evals · best {score:.4} dB · \
             {} improvements",
            stats.improvements
        );
    }
    out.push('\n');
    out.push_str(&total.route_mix_table());
    if peek_units > 0 {
        let _ = writeln!(
            out,
            "  peek events: {} ({} edge units)",
            peek_counts.iter().sum::<usize>(),
            peek_units
        );
    }

    if widen + dry + narrow > 0 {
        out.push_str("\nNeighborhood stream\n");
        let _ = writeln!(out, "  dry scans  {dry:>8}");
        let _ = writeln!(out, "  widenings  {widen:>8}");
        let _ = writeln!(out, "  narrowings {narrow:>8}");
    }

    if !lane_rounds.is_empty() {
        out.push_str("\nLane budget flow (round · lane · allotted · used · best · seeded)\n");
        for (round, lane, allotted, used, score_bits, seeded) in &lane_rounds {
            let score = f64::from_bits(*score_bits);
            let _ = writeln!(
                out,
                "  r{round:<3} lane {lane:<2} {allotted:>8} {used:>8}  {score:>10.4} dB  {}",
                if *seeded { "seeded" } else { "-" }
            );
        }
        for (round, survivor) in &collapses {
            let _ = writeln!(
                out,
                "  collapse after round {round}: lane {survivor} survives"
            );
        }
    }

    if warm.iter().sum::<usize>() > 0 {
        out.push_str("\nWarm-cache lookups\n");
        for (i, outcome) in WarmOutcome::ALL.into_iter().enumerate() {
            let _ = writeln!(out, "  {:<6} {:>6}", outcome.name(), warm[i]);
        }
        let _ = writeln!(
            out,
            "  donor overlap (shared edges, near hits): {warm_shared}"
        );
    }

    if exact_nodes + exact_leaves > 0 || !cuts.is_empty() {
        out.push_str("\nExact lane\n");
        let _ = writeln!(out, "  nodes {exact_nodes} · leaves {exact_leaves}");
        for (depth, n) in &cuts {
            let _ = writeln!(out, "  cuts at depth {depth:<3} {n:>8}");
        }
    }

    out.push_str("\nreconciliation: OK (route counters partition the evaluation ledger)\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> RunStats {
        RunStats {
            full_evaluations: 7,
            delta_evaluations: 25,
            full_peeks: 4,
            full_direct: 3,
            delta_exact: 10,
            loss_fast_path: 2,
            bound_rejected: 8,
            bound_verified: 4,
            bound_charges: 1,
            improvements: 5,
            widenings: 2,
            dry_scans: 3,
            narrowings: 1,
            warm_exact_hits: 1,
            warm_near_hits: 1,
            warm_cold: 1,
            exact_nodes: 12,
            exact_leaves: 4,
            rounds: 2,
            collapses: 1,
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PeekRouted {
                route: PeekRoute::Delta,
                cost: 3,
            },
            TraceEvent::Improved {
                spent: 2,
                score_bits: (21.5f64).to_bits(),
            },
            TraceEvent::Widened { radius: 3 },
            TraceEvent::DryScan { radius: 3 },
            TraceEvent::Narrowed { radius: 2 },
            TraceEvent::LaneRound {
                round: 0,
                lane: 1,
                allotted: 50,
                used: 48,
                score_bits: (19.25f64).to_bits(),
                seeded: true,
            },
            TraceEvent::CollapseFired {
                round: 1,
                survivor: 1,
            },
            TraceEvent::WarmLookup {
                outcome: WarmOutcome::NearHit,
                shared_edges: 6,
            },
            TraceEvent::ExactSummary {
                nodes: 12,
                leaves: 4,
            },
            TraceEvent::ExactCuts { depth: 2, cuts: 5 },
            TraceEvent::SessionEnd {
                stats: sample_stats(),
                spent: 60,
                budget: 64,
                score_bits: (21.5f64).to_bits(),
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let events = sample_events();
        let text = render_trace("unit-test", &events);
        let (header, parsed) = parse_trace(&text).unwrap();
        assert_eq!(header.schema, TRACE_SCHEMA);
        assert_eq!(header.source, "unit-test");
        assert_eq!(header.events, events.len());
        assert_eq!(parsed, events);
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}e");
        assert_eq!(out, r#""a\"b\\c\nd\u0001e""#);
    }

    #[test]
    fn rendering_is_deterministic() {
        let events = sample_events();
        assert_eq!(render_trace("x", &events), render_trace("x", &events));
    }

    #[test]
    fn empty_trace_is_valid_and_summarizable() {
        let text = render_trace("optimize", &[]);
        let (header, events) = parse_trace(&text).unwrap();
        assert_eq!(header.events, 0);
        assert!(events.is_empty());
        let summary = summarize_trace(&header, &events).unwrap();
        assert!(summary.contains("sink was off"));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = "{\"schema\":\"phonocmap-trace/0\",\"source\":\"x\",\"events\":0}\n";
        let err = parse_trace(text).unwrap_err();
        assert!(err.contains("unsupported trace schema"), "{err}");
    }

    #[test]
    fn event_count_mismatch_is_rejected() {
        let mut text = render_trace("x", &[TraceEvent::Widened { radius: 2 }]);
        text.push_str("{\"ev\":\"widen\",\"radius\":3}\n");
        let err = parse_trace(&text).unwrap_err();
        assert!(err.contains("header declares"), "{err}");
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let mut text = render_trace("x", &[]);
        text = text.replace(",\"events\":0", ",\"events\":1");
        text.push_str("{\"ev\":\"peek\",\"route\":\"sideways\",\"cost\":1}\n");
        let err = parse_trace(&text).unwrap_err();
        assert!(err.contains("event line 1"), "{err}");
        assert!(err.contains("sideways"), "{err}");
    }

    #[test]
    fn stats_reconcile_and_absorb() {
        let stats = sample_stats();
        assert!(stats.reconciles());
        assert_eq!(stats.peeks_total(), 4 + 10 + 2 + 8 + 4);
        assert!((stats.bound_rejection_rate() - 8.0 / 12.0).abs() < 1e-12);
        let mut doubled = stats;
        doubled.absorb(&stats);
        assert_eq!(doubled.full_evaluations, 14);
        assert_eq!(doubled.delta_evaluations, 50);
        assert_eq!(doubled.collapses, 2);
        assert!(doubled.reconciles());
        let mut broken = stats;
        broken.full_peeks += 1;
        assert!(!broken.reconciles());
    }

    #[test]
    fn route_mix_table_prints_every_route() {
        let table = sample_stats().route_mix_table();
        assert!(table.contains("full-routed peeks"));
        assert!(table.contains("exact delta peeks"));
        assert!(table.contains("loss fast path"));
        assert!(table.contains("bound rejected"));
        assert!(table.contains("bound verified"));
        assert!(table.contains("rejection rate"));
    }

    #[test]
    fn summarize_verifies_reconciliation() {
        // Counter-only trace (no per-peek events), as a portfolio or
        // replay run produces: reconciliation rides the session_end
        // identities alone.
        let events: Vec<TraceEvent> = sample_events()
            .into_iter()
            .filter(|e| !matches!(e, TraceEvent::PeekRouted { .. }))
            .collect();
        let text = render_trace("unit-test", &events);
        let (header, parsed) = parse_trace(&text).unwrap();
        let summary = summarize_trace(&header, &parsed).unwrap();
        assert!(summary.contains("reconciliation: OK"));
        assert!(summary.contains("Lane budget flow"));
        assert!(summary.contains("Warm-cache lookups"));
        // Break the ledger: summarize must fail.
        let mut broken = parsed.clone();
        if let Some(TraceEvent::SessionEnd { stats, .. }) = broken.last_mut() {
            stats.full_direct += 1;
        }
        let err = summarize_trace(&header, &broken).unwrap_err();
        assert!(err.contains("do not partition"), "{err}");
    }

    #[test]
    fn summarize_cross_checks_peek_events_against_counters() {
        let mut events = sample_events();
        events.push(TraceEvent::PeekRouted {
            route: PeekRoute::Delta,
            cost: 1,
        });
        let header = TraceHeader {
            schema: TRACE_SCHEMA.to_string(),
            source: "x".to_string(),
            events: events.len(),
        };
        // 2 delta peek events vs a counter of 10: mismatch.
        let err = summarize_trace(&header, &events).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn null_sink_is_disabled_and_drains_nothing() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.record(TraceEvent::Widened { radius: 1 });
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn run_trace_records_in_order_and_drains_once() {
        let mut sink = RunTrace::new();
        assert!(sink.enabled());
        sink.record(TraceEvent::Widened { radius: 1 });
        sink.record(TraceEvent::Narrowed { radius: 2 });
        assert_eq!(sink.events().len(), 2);
        let drained = sink.drain();
        assert_eq!(
            drained,
            vec![
                TraceEvent::Widened { radius: 1 },
                TraceEvent::Narrowed { radius: 2 }
            ]
        );
        assert!(sink.drain().is_empty());
    }
}
