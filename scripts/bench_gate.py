#!/usr/bin/env python3
"""Advisory bench gate: sanity-checks a freshly generated sweep report
against the committed baselines.

Usage:
    python3 scripts/bench_gate.py [BENCH_sweep_smoke.json] [BENCH_evaluator.json]
        [--baseline BENCH_sweep.json] [--warmstart BENCH_warmstart.json]
        [--parallel BENCH_parallel.json]
        [--trace run.trace.jsonl]... [--gaps] [--strict] [--strict-quality]

Checks (all *advisory* — the script always exits 0 — unless --strict
makes any finding fatal, --strict-quality makes the quality findings
(checks 3, 5, 6 and 7 — deterministic data, not timing) fatal, or an
input file is malformed):

1. Hybrid regression: per scenario, the hybrid's per-cursor route must
   stay within GENEROUS_HYBRID_FACTOR of the best single route. The
   committed full-matrix headline is 1.20 on improving scans; CI smoke
   runs on shared runners, so the advisory threshold is looser.
2. Anchor drift: scenarios whose shape matches a committed
   BENCH_evaluator.json anchor (mesh 4/6/8 full evaluation) must land
   within GENEROUS_ANCHOR_FACTOR of the recorded median in either
   direction — catching order-of-magnitude evaluator regressions
   without flaking on machine differences.
3. Neighborhood quality: within the report itself, on every 12x12+
   cell (where the admitted list outgrows the budget), the budget-aware
   R-PBLA streams (r-pbla@sampled / r-pbla@locality) must not lose to
   the exhaustive truncated-scan baseline — the tentpole claim of the
   neighborhood subsystem. Below that mesh floor the default `auto`
   policy resolves to exhaustive anyway, and a pinned stream may
   legitimately trail on plateau-heavy tiny workloads (the committed
   sweep records pipeline-4x4 doing exactly that), so small-mesh rows
   are covered by the baseline drift check instead.
4. Score drift: per (cell, algo) with an --baseline sweep report and a
   matching evaluation budget, optimizer scores are deterministic per
   seed, so a fresh score diverging from the committed one (in either
   direction) by more than SCORE_DRIFT_DB flags a behavioral change in
   the search stack.
5. Portfolio quality: on every 12x12+ cell carrying a portfolio row
   (neighborhood == "portfolio"), the exchanged portfolio runs at the
   same *total* budget as each single lane. The pinned claim — fatal
   under --strict-quality, like check 3 deterministic data rather than
   timing — is that the portfolio meets or beats the best single
   r-pbla lane outright on at least PORTFOLIO_WIN_SHARE of those
   cells. Cells where it trails by more than PORTFOLIO_TOLERANCE_DB
   are additionally listed as plain advisories (a portfolio can pay a
   bounded exploration tax on cells one stream dominates end to end;
   the committed sweep records which).
6. Warm-start (--warmstart BENCH_warmstart.json): the warm-start
   engine's deterministic claims, fatal under --strict-quality. Every
   exact-hit repeat request must have performed ZERO optimizer
   evaluations and reproduced the cold score bit-for-bit; every
   phase-reverted request must be an exact hit again (canonical keys);
   and on the 12x12+ cells the median evaluations-to-parity ratio of
   the <=10%-perturbed warm runs must be <= WARMSTART_PARITY_RATIO of
   the cold budget. Smoke replays have no 12x12+ cells, so the parity
   gate is skipped there (the hit checks still apply); warm/cold
   wall-clock comparisons are never gated — timings on shared runners
   are advisory by nature.
7. Power columns (schema phonocmap-bench-sweep/6+): every scenario must
   carry the objective-suffixed power-family rows (`!power`,
   `!margin-pam4` on the full matrix, `!power` on smoke) with a finite
   score and a non-zero evaluation count — the cross-layer laser-power
   objectives ride the same cells as the SNR rows. Missing or degenerate
   rows are quality findings (deterministic data, fatal under
   --strict-quality). Per-cell score drift for these rows is covered by
   check 4, which compares every (cell, algo) pair including the
   suffixed specs; their scores live on a different scale from the snr
   rows, so checks 3 and 5 compare only rows sharing an objective.
8. Parallel dispatch (--parallel BENCH_parallel.json): the persistent
   worker pool must not cost more than the retained scope-spawn
   reference it replaced. Per measured cell, pool_ns above
   spawn_ns * PARALLEL_CELL_SLACK is an advisory (individual cells on
   shared runners are noisy); the *median* pool/spawn ratio exceeding
   1.0, or any (cost, workers) series whose pool path reaches
   sequential parity at a larger batch than the spawn path, is a
   quality finding — fatal under --strict-quality, since the whole
   point of the pool is cheaper dispatch at every batch size.
9. Optimality gaps (--gaps, schema phonocmap-bench-sweep/7+): the exact
   lane's certificate columns. Structurally, every optimizer row must
   carry a finite `lower_bound` (score-space upper bound: no mapping of
   the instance scores above it) and a `gap_db = lower_bound -
   best_score` that is non-negative (within GAP_EPSILON_DB of float
   noise), and any row claiming `proved_optimal` must have gap exactly
   0.0 — a proved cell's bound IS the optimum. Certificates are
   deterministic data, so every structural violation is a quality
   finding (fatal under --strict-quality). Against --baseline (when
   the baseline also carries schema /7 columns), two regressions are
   quality findings: a (cell, algo) pair that was `proved_optimal` in
   the baseline losing its proof, and the per-objective *median* gap
   widening by more than GAP_WIDEN_DB — a bound that got looser, or a
   search that stopped reaching it.
10. Run traces (--trace FILE, repeatable): a `phonocmap-trace/1` JSONL
   file written by `--trace-out` (phonocmap optimize/portfolio/replay).
   The header must carry the schema tag and an `events` count equal to
   the number of event lines that follow; every event line must be
   strict JSON with a known `ev` tag; every `session_end`'s route
   counters must partition its evaluation ledger exactly
   (full_evaluations == full_peeks + full_direct, delta_evaluations ==
   delta_exact + loss_fast_path + bound_rejected + bound_verified +
   bound_charges); and when per-peek events are present their per-route
   counts must match the summed session counters one for one. A
   zero-event trace (header only) is valid — it is what the sink-off
   path (PHONOC_TRACE_NULL) must produce. Traces are deterministic
   data, so every violation is a quality finding (fatal under
   --strict-quality).

Everything is stdlib-only (CI runners have bare python3).
"""

import json
import sys

GENEROUS_HYBRID_FACTOR = 1.5
GENEROUS_ANCHOR_FACTOR = 10.0
SCORE_DRIFT_DB = 0.05
NEIGHBORHOOD_MESH_FLOOR = 12
PORTFOLIO_TOLERANCE_DB = 0.05
PORTFOLIO_WIN_SHARE = 0.80
WARMSTART_PARITY_RATIO = 0.50
WARMSTART_MESH_FLOOR = 12
PARALLEL_CELL_SLACK = 1.05
GAP_EPSILON_DB = 1e-9
GAP_WIDEN_DB = 0.05

# BENCH_evaluator.json anchors comparable to sweep cells: the committed
# reused-scratch full-evaluation medians per mesh size.
ANCHORS = {
    4: ("full_alloc_vs_scratch_vopd_4x4", "evaluate_into_scratch"),
    6: ("full_alloc_vs_scratch_dvopd_6x6", "evaluate_into_scratch"),
    8: ("full_alloc_vs_scratch_synthetic_8x8", "evaluate_into_scratch"),
}


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_gate: cannot load {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def check_hybrid(sweep):
    advisories = []
    for sc in sweep.get("scenarios", []):
        peek = sc["peek_ns"]
        best_exact = min(peek["full"], peek["delta"])
        best_improving = min(peek["full"], peek["bounded"])
        for label, ns, best in [
            ("exact", peek["hybrid_exact"], best_exact),
            ("improving", peek["hybrid_improving"], best_improving),
        ]:
            ratio = ns / max(best, 1)
            if ratio > GENEROUS_HYBRID_FACTOR:
                advisories.append(
                    f"{sc['id']}: hybrid_{label} {ns} ns is {ratio:.2f}x the best "
                    f"single strategy ({best} ns; advisory threshold "
                    f"{GENEROUS_HYBRID_FACTOR}x)"
                )
    return advisories


def check_anchors(sweep, evaluator):
    advisories = []
    results = evaluator.get("results_ns", {})
    for sc in sweep.get("scenarios", []):
        anchor = ANCHORS.get(sc["mesh"])
        if anchor is None:
            continue
        group, key = anchor
        baseline = results.get(group, {}).get(key)
        if not baseline:
            continue
        # The anchor evaluates a whole mapping; the sweep's `full` peek
        # is the same work (scratch re-evaluation of a moved mapping) on
        # a *different* CG, so only order-of-magnitude drift is flagged.
        measured = sc["peek_ns"]["full"]
        ratio = measured / baseline
        if ratio > GENEROUS_ANCHOR_FACTOR or ratio < 1.0 / GENEROUS_ANCHOR_FACTOR:
            advisories.append(
                f"{sc['id']}: full-eval peek {measured} ns vs committed "
                f"{group}.{key} = {baseline} ns ({ratio:.1f}x; advisory "
                f"threshold {GENEROUS_ANCHOR_FACTOR}x either way)"
            )
    return advisories


def opt_scores(scenario):
    """Map of algo spec -> (best_score, evaluations) for one cell."""
    return {
        o["algo"]: (o["best_score"], o.get("evaluations"))
        for o in scenario.get("optimizers", [])
    }


def row_objective(row):
    """Objective a row scored under; files before schema /6 carry no
    field, and everything they recorded was the snr default."""
    return row.get("objective", "snr")


def check_neighborhood_quality(sweep):
    advisories = []
    for sc in sweep.get("scenarios", []):
        scores = opt_scores(sc)
        exhaustive = scores.get("r-pbla@exhaustive")
        streams = [
            (name, scores[name][0])
            for name in ("r-pbla@sampled", "r-pbla@locality")
            if name in scores
        ]
        if exhaustive is None or not streams:
            continue
        if sc["mesh"] < NEIGHBORHOOD_MESH_FLOOR:
            continue
        best_name, best = max(streams, key=lambda kv: kv[1])
        if best < exhaustive[0]:
            advisories.append(
                f"{sc['id']}: best budget-aware stream {best_name} = "
                f"{best:.3f} dB loses to r-pbla@exhaustive = "
                f"{exhaustive[0]:.3f} dB on a {sc['mesh']}x{sc['mesh']} "
                f"mesh (tentpole claim: sampled/locality win at 12x12+)"
            )
    return advisories


def portfolio_rows(scenario):
    """Portfolio optimizer rows of one cell (neighborhood tag)."""
    return [
        o
        for o in scenario.get("optimizers", [])
        if o.get("neighborhood") == "portfolio"
    ]


def check_portfolio_quality(sweep):
    """Returns (strict_findings, advisory_findings)."""
    strict = []
    advisories = []
    compared = wins = 0
    for sc in sweep.get("scenarios", []):
        if sc["mesh"] < NEIGHBORHOOD_MESH_FLOOR:
            continue
        rows = portfolio_rows(sc)
        if not rows:
            continue
        for row in rows:
            # Compare only against single lanes scoring under the same
            # objective — the !power/!margin rows live on a different
            # scale and would poison the max().
            lanes = [
                (o["algo"], o["best_score"])
                for o in sc.get("optimizers", [])
                if o["algo"].startswith("r-pbla@")
                and o.get("neighborhood") != "portfolio"
                and row_objective(o) == row_objective(row)
            ]
            if not lanes:
                continue
            best_lane_name, best_lane = max(lanes, key=lambda kv: kv[1])
            compared += 1
            margin = row["best_score"] - best_lane
            if margin >= 0:
                wins += 1
            if margin < -PORTFOLIO_TOLERANCE_DB:
                advisories.append(
                    f"{sc['id']}: portfolio {row['best_score']:.3f} dB trails the "
                    f"best single lane {best_lane_name} = {best_lane:.3f} dB by "
                    f"{-margin:.3f} dB at equal total budget (tolerance "
                    f"{PORTFOLIO_TOLERANCE_DB} dB)"
                )
    if compared:
        share = wins / compared
        print(
            f"bench_gate: portfolio meets/beats the best single lane on "
            f"{wins}/{compared} large cells ({share:.0%}; required "
            f">= {PORTFOLIO_WIN_SHARE:.0%})"
        )
        if share < PORTFOLIO_WIN_SHARE:
            strict.append(
                f"portfolio win share {share:.0%} over {compared} 12x12+ cells is "
                f"below the required {PORTFOLIO_WIN_SHARE:.0%}"
            )
    return strict, advisories


def sweep_schema_version(sweep):
    """Numeric suffix of the schema tag, 0 when missing/unparseable."""
    tag = sweep.get("schema", "")
    try:
        return int(tag.rsplit("/", 1)[1])
    except (IndexError, ValueError):
        return 0


def check_power_columns(sweep):
    """Returns quality findings for the power-objective columns.

    Schema /6 sweeps run the objective-suffixed specs on every cell;
    a cell without them (or with a degenerate row) means the column
    silently fell out of the matrix. Pre-/6 files are skipped — they
    predate the power objectives.
    """
    findings = []
    if sweep_schema_version(sweep) < 6:
        return findings
    cells = power_cells = power_rows = 0
    for sc in sweep.get("scenarios", []):
        cells += 1
        rows = [
            o
            for o in sc.get("optimizers", [])
            if row_objective(o) not in ("snr", "loss")
        ]
        if not rows:
            findings.append(
                f"{sc['id']}: no power-objective optimizer row (schema /6 "
                f"sweeps run the !power columns on every cell)"
            )
            continue
        power_cells += 1
        for o in rows:
            power_rows += 1
            score = o.get("best_score")
            if not isinstance(score, (int, float)) or score != score:
                findings.append(
                    f"{sc['id']}/{o['algo']}: power-objective score {score!r} "
                    f"is not a finite number"
                )
            if not o.get("evaluations"):
                findings.append(
                    f"{sc['id']}/{o['algo']}: power-objective row consumed no "
                    f"optimizer budget (evaluations = "
                    f"{o.get('evaluations')!r})"
                )
    if cells:
        print(
            f"bench_gate: power-objective columns present on "
            f"{power_cells}/{cells} cells ({power_rows} rows)"
        )
    return findings


def check_score_drift(sweep, baseline):
    advisories = []
    committed = {sc["id"]: opt_scores(sc) for sc in baseline.get("scenarios", [])}
    compared = 0
    for sc in sweep.get("scenarios", []):
        base = committed.get(sc["id"])
        if base is None:
            continue
        for algo, (score, evals) in opt_scores(sc).items():
            if algo not in base:
                continue
            base_score, base_evals = base[algo]
            if evals != base_evals:
                # Different budgets legitimately score differently.
                continue
            compared += 1
            # Two-sided: determinism means *any* equal-budget difference
            # (better or worse) is a behavioral change worth knowing.
            if abs(score - base_score) > SCORE_DRIFT_DB:
                advisories.append(
                    f"{sc['id']}/{algo}: score {score:.3f} dB diverges from "
                    f"committed {base_score:.3f} dB at the same budget "
                    f"({evals} evals) — optimizer runs are deterministic per "
                    f"seed, so this is a behavioral change"
                )
    print(f"bench_gate: {compared} (cell, algo) score pairs compared to baseline")
    return advisories


def check_warmstart(report):
    """Returns (quality_findings, advisory_findings) for a replay report.

    The hit checks are deterministic data (a cache either returned the
    stored result or it did not), so they land in the quality bucket —
    fatal under --strict-quality like checks 3 and 5.
    """
    findings = []
    advisories = []
    cells = report.get("cells", [])
    ratios = []
    for c in cells:
        hit = c.get("exact_hit", {})
        if hit.get("evaluations", 1) != 0:
            findings.append(
                f"{c['id']}: exact-hit repeat performed "
                f"{hit.get('evaluations')} optimizer evaluations (must be 0)"
            )
        if not hit.get("score_matches", False):
            findings.append(
                f"{c['id']}: exact-hit result does not reproduce the cold "
                f"run bit-for-bit (results are deterministic per key)"
            )
        phase = c.get("phase", {})
        if not phase.get("return_exact_hit", False):
            findings.append(
                f"{c['id']}: replaying the original request after reverting "
                f"the phase mutation missed the cache — keys are not "
                f"canonicalizing edge order"
            )
        perturbed = c.get("perturbed", {})
        if c.get("mesh", 0) >= WARMSTART_MESH_FLOOR:
            ratio = perturbed.get("parity_ratio")
            if ratio is None:
                findings.append(
                    f"{c['id']}: perturbed warm run never reached the cold "
                    f"run's final score within the budget"
                )
            else:
                ratios.append((c["id"], ratio))
        warm = perturbed.get("warm_score")
        cold = perturbed.get("cold_score")
        if warm is not None and cold is not None and warm < cold - PORTFOLIO_TOLERANCE_DB:
            advisories.append(
                f"{c['id']}: warm-started score {warm:.3f} dB trails the cold "
                f"run {cold:.3f} dB (warm starts should never lose)"
            )
    if ratios:
        values = sorted(r for _, r in ratios)
        mid = len(values) // 2
        median = (
            values[mid]
            if len(values) % 2 == 1
            else (values[mid - 1] + values[mid]) / 2.0
        )
        print(
            f"bench_gate: warm-start parity on {len(ratios)} 12x12+ cells — "
            f"median ratio {median:.3f} of the cold budget (required "
            f"<= {WARMSTART_PARITY_RATIO})"
        )
        if median > WARMSTART_PARITY_RATIO:
            findings.append(
                f"median evaluations-to-parity ratio {median:.3f} over "
                f"{len(ratios)} 12x12+ cells exceeds {WARMSTART_PARITY_RATIO} "
                f"of the cold budget"
            )
    else:
        print(
            "bench_gate: warm-start report has no 12x12+ cells; parity gate "
            "skipped (hit checks still apply)"
        )
    return findings, advisories


def check_parallel(report):
    """Returns (quality_findings, advisory_findings) for a parallel
    dispatch report.

    Per-cell overruns are advisories (timing noise); the median ratio
    and the crossover ordering are the pool's core claim — quality
    findings, fatal under --strict-quality.
    """
    findings = []
    advisories = []
    cells = report.get("cells", [])
    ratios = []
    for c in cells:
        ratio = c["pool_ns"] / max(c["spawn_ns"], 1)
        ratios.append(ratio)
        if ratio > PARALLEL_CELL_SLACK:
            advisories.append(
                f"{c['cost']}@{c['workers']}w/{c['batch']}: pool {c['pool_ns']:.0f} ns "
                f"is {ratio:.2f}x the scope-spawn reference "
                f"{c['spawn_ns']:.0f} ns (slack {PARALLEL_CELL_SLACK}x)"
            )
    if ratios:
        values = sorted(ratios)
        mid = len(values) // 2
        median = (
            values[mid]
            if len(values) % 2 == 1
            else (values[mid - 1] + values[mid]) / 2.0
        )
        print(
            f"bench_gate: parallel dispatch — median pool/spawn ratio "
            f"{median:.3f} over {len(ratios)} cells (required <= 1.0)"
        )
        if median > 1.0:
            findings.append(
                f"median pool/spawn dispatch ratio {median:.3f} over "
                f"{len(ratios)} cells exceeds 1.0 — the persistent pool "
                f"costs more than spawning fresh threads"
            )
    else:
        findings.append("parallel report has no cells")
    for x in report.get("crossovers", []):
        spawn_batch = x.get("spawn_batch")
        pool_batch = x.get("pool_batch")
        if spawn_batch is not None and (pool_batch is None or pool_batch > spawn_batch):
            findings.append(
                f"{x['cost']}@{x['workers']}w: pool reaches sequential parity at "
                f"batch {pool_batch} but the spawn path already did at "
                f"{spawn_batch} — pool crossover must come first"
            )
    return findings, advisories


def median(values):
    values = sorted(values)
    mid = len(values) // 2
    if len(values) % 2 == 1:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0


def finite(value):
    return isinstance(value, (int, float)) and value == value and value not in (
        float("inf"),
        float("-inf"),
    )


def check_gaps(sweep, baseline):
    """Returns quality findings for the optimality-gap columns.

    Everything here is deterministic data — the bound computation and
    the branch-and-bound proof reproduce byte-for-byte per (cell, seed,
    budget) — so every finding is fatal under --strict-quality.
    """
    findings = []
    if sweep_schema_version(sweep) < 7:
        findings.append(
            f"--gaps requires schema phonocmap-bench-sweep/7+ (got "
            f"{sweep.get('schema')!r}) — regenerate the sweep"
        )
        return findings
    rows = 0
    proved = {}
    gaps_by_objective = {}
    for sc in sweep.get("scenarios", []):
        for o in sc.get("optimizers", []):
            rows += 1
            label = f"{sc['id']}/{o['algo']}"
            lower = o.get("lower_bound")
            gap = o.get("gap_db")
            if not finite(lower) or not finite(gap):
                findings.append(
                    f"{label}: lower_bound {lower!r} / gap_db {gap!r} must "
                    f"be finite numbers on every row"
                )
                continue
            if gap < -GAP_EPSILON_DB:
                findings.append(
                    f"{label}: gap_db {gap} is negative — the bound "
                    f"{lower} does not dominate the achieved score "
                    f"{o.get('best_score')} (inadmissible bound)"
                )
            if o.get("proved_optimal") and gap != 0.0:
                findings.append(
                    f"{label}: proved_optimal with gap_db {gap} — a proved "
                    f"cell's bound must equal its optimum exactly"
                )
            proved[label] = bool(o.get("proved_optimal"))
            gaps_by_objective.setdefault(row_objective(o), []).append(gap)
    proved_count = sum(proved.values())
    print(
        f"bench_gate: gap columns on {rows} rows — {proved_count} proved "
        f"optimal; median gap per objective: "
        + ", ".join(
            f"{obj}={median(gaps):.3f}"
            for obj, gaps in sorted(gaps_by_objective.items())
        )
    )
    if baseline is None or sweep_schema_version(baseline) < 7:
        return findings
    base_proved = set()
    base_gaps = {}
    for sc in baseline.get("scenarios", []):
        for o in sc.get("optimizers", []):
            if o.get("proved_optimal"):
                base_proved.add(f"{sc['id']}/{o['algo']}")
            gap = o.get("gap_db")
            if finite(gap):
                base_gaps.setdefault(row_objective(o), []).append(gap)
    for label in sorted(base_proved):
        if label in proved and not proved[label]:
            findings.append(
                f"{label}: was proved_optimal in the baseline but is not "
                f"anymore — the proved set must never shrink"
            )
    for obj, gaps in sorted(gaps_by_objective.items()):
        if obj not in base_gaps:
            continue
        fresh, committed = median(gaps), median(base_gaps[obj])
        if fresh > committed + GAP_WIDEN_DB:
            findings.append(
                f"!{obj}: median gap widened from {committed:.3f} dB to "
                f"{fresh:.3f} dB (tolerance {GAP_WIDEN_DB} dB) — the bound "
                f"got looser or the search stopped reaching it"
            )
    return findings


TRACE_SCHEMA = "phonocmap-trace/1"
# JSONL `ev` tags, mirroring phonoc_core::telemetry::render_trace.
TRACE_EVENT_TAGS = {
    "peek",
    "improved",
    "widen",
    "dry_scan",
    "narrow",
    "lane_round",
    "collapse",
    "warm_lookup",
    "exact_summary",
    "exact_cuts",
    "session_end",
}
# peek `route` field -> the session_end counter it must sum to.
TRACE_ROUTE_COUNTERS = {
    "full": "full_peeks",
    "delta": "delta_exact",
    "loss": "loss_fast_path",
    "bound_rejected": "bound_rejected",
    "bound_verified": "bound_verified",
}


def check_trace(path):
    """Returns quality findings for one phonocmap-trace/1 JSONL file.

    Traces are deterministic data (integer payloads, no wall-clock), so
    every violation is a quality finding, fatal under --strict-quality.
    """
    findings = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line]
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    if not lines:
        return [f"{path}: empty file — even a sink-off trace has a header line"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"{path}: header line is not valid JSON ({exc})"]
    if header.get("schema") != TRACE_SCHEMA:
        findings.append(
            f"{path}: header schema {header.get('schema')!r} is not "
            f"{TRACE_SCHEMA!r}"
        )
    declared = header.get("events")
    event_lines = lines[1:]
    if declared != len(event_lines):
        findings.append(
            f"{path}: header declares {declared!r} events but "
            f"{len(event_lines)} event lines follow"
        )
    events = []
    for lineno, line in enumerate(event_lines, 2):
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as exc:
            findings.append(f"{path}:{lineno}: not valid JSON ({exc})")
            continue
        tag = ev.get("ev")
        if tag not in TRACE_EVENT_TAGS:
            findings.append(f"{path}:{lineno}: unknown event tag {tag!r}")
            continue
        events.append(ev)
    sessions = [ev for ev in events if ev["ev"] == "session_end"]
    if events and not sessions:
        findings.append(
            f"{path}: trace has events but no session_end summary"
        )
    totals = {counter: 0 for counter in TRACE_ROUTE_COUNTERS.values()}
    for ev in sessions:
        full = ev.get("full_peeks", 0) + ev.get("full_direct", 0)
        if ev.get("full_evaluations") != full:
            findings.append(
                f"{path}: session_end full_evaluations "
                f"{ev.get('full_evaluations')} != full_peeks + full_direct "
                f"= {full} — route counters must partition the ledger"
            )
        delta = (
            ev.get("delta_exact", 0)
            + ev.get("loss_fast_path", 0)
            + ev.get("bound_rejected", 0)
            + ev.get("bound_verified", 0)
            + ev.get("bound_charges", 0)
        )
        if ev.get("delta_evaluations") != delta:
            findings.append(
                f"{path}: session_end delta_evaluations "
                f"{ev.get('delta_evaluations')} != sum of delta route "
                f"counters = {delta} — route counters must partition the "
                f"ledger"
            )
        for counter in totals:
            totals[counter] += ev.get(counter, 0)
    peek_counts = {route: 0 for route in TRACE_ROUTE_COUNTERS}
    for ev in events:
        if ev["ev"] != "peek":
            continue
        route = ev.get("route")
        if route not in peek_counts:
            findings.append(f"{path}: peek event has unknown route {route!r}")
            continue
        peek_counts[route] += 1
    if any(peek_counts.values()):
        # Per-peek events are only recorded by single-session traces
        # (portfolio lanes report through session_end totals); when they
        # are present they must match the counters exactly.
        for route, counter in TRACE_ROUTE_COUNTERS.items():
            if peek_counts[route] != totals[counter]:
                findings.append(
                    f"{path}: {peek_counts[route]} peek events on route "
                    f"'{route}' but session counters sum to "
                    f"{totals[counter]}"
                )
    print(
        f"bench_gate: trace {path} — {len(event_lines)} events, "
        f"{len(sessions)} session(s)"
        + (" (header-only: sink off)" if not event_lines else "")
    )
    return findings


def main(argv):
    args = []
    strict = False
    strict_quality = False
    gaps = False
    baseline_path = None
    warmstart_path = None
    parallel_path = None
    trace_paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--strict":
            strict = True
        elif arg == "--strict-quality":
            strict_quality = True
        elif arg == "--gaps":
            gaps = True
        elif arg == "--baseline":
            if i + 1 >= len(argv):
                print("bench_gate: --baseline needs a path", file=sys.stderr)
                return 2
            baseline_path = argv[i + 1]
            i += 1
        elif arg == "--warmstart":
            if i + 1 >= len(argv):
                print("bench_gate: --warmstart needs a path", file=sys.stderr)
                return 2
            warmstart_path = argv[i + 1]
            i += 1
        elif arg == "--parallel":
            if i + 1 >= len(argv):
                print("bench_gate: --parallel needs a path", file=sys.stderr)
                return 2
            parallel_path = argv[i + 1]
            i += 1
        elif arg == "--trace":
            if i + 1 >= len(argv):
                print("bench_gate: --trace needs a path", file=sys.stderr)
                return 2
            trace_paths.append(argv[i + 1])
            i += 1
        elif arg.startswith("--"):
            print(f"bench_gate: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            args.append(arg)
        i += 1
    if (
        not args
        and not warmstart_path
        and not parallel_path
        and not trace_paths
    ):
        print(__doc__)
        return 2
    advisories = []
    quality_advisories = []
    baseline = load(baseline_path) if baseline_path else None
    if args:
        sweep = load(args[0])
        advisories += check_hybrid(sweep)
        if len(args) > 1:
            advisories += check_anchors(sweep, load(args[1]))
        quality_advisories += check_neighborhood_quality(sweep)
        portfolio_strict, portfolio_advisories = check_portfolio_quality(sweep)
        quality_advisories += portfolio_strict
        quality_advisories += check_power_columns(sweep)
        if gaps:
            gap_findings = check_gaps(sweep, baseline)
            quality_advisories += gap_findings
        advisories += quality_advisories + portfolio_advisories
        if baseline is not None:
            advisories += check_score_drift(sweep, baseline)
        n = len(sweep.get("scenarios", []))
        summary = sweep.get("summary", {})
        print(
            f"bench_gate: {n} scenarios, "
            f"max_hybrid_over_best={summary.get('max_hybrid_over_best', 'n/a')}"
        )
    if warmstart_path:
        warm_quality, warm_advisories = check_warmstart(load(warmstart_path))
        quality_advisories += warm_quality
        advisories += warm_quality + warm_advisories
    if parallel_path:
        par_quality, par_advisories = check_parallel(load(parallel_path))
        quality_advisories += par_quality
        advisories += par_quality + par_advisories
    for trace_path in trace_paths:
        trace_findings = check_trace(trace_path)
        quality_advisories += trace_findings
        advisories += trace_findings
    if advisories:
        print(f"bench_gate: {len(advisories)} advisory finding(s):")
        for a in advisories:
            print(f"  - {a}")
        if strict:
            return 1
        if strict_quality and quality_advisories:
            print(
                "bench_gate: quality claim (neighborhood/portfolio/power/"
                "gaps/warm-start/parallel/trace) violated — fatal"
            )
            return 1
        print("bench_gate: advisory mode — not failing the build")
    else:
        print("bench_gate: all checks within generous thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
