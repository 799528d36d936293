"""Traced run: per-layer metrics, per-cell checks and the tracing overhead.

Each item of the pool runs twice in a row, untraced and then with every layer
function wrapped, until `--seconds` have passed.  Both runs do the same work, so the
difference of their op times is the tracing overhead (wrappers plus the
per-cell checks), measured close in time so that drift in machine speed
cancels.
"""

import json
import time

import numpy as np

import checks
from spans import CHECK_SPAN, Tracer

LAYERS = ("cli", "model", "pipeline", "elicit_discrete", "elicit_continuous",
          "solver", "metrics", "sensitivity", "lpcheck")
REPORT_COMMANDS = ("solve", "opa")
CELL_CLASSES = ("empty", "equality", "bounds")


def tail_percentile(count):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, else 50."""
    for q in (99, 95, 90, 75, 50):
        if count * (100 - q) / 100 >= 10:
            return q
    return 50


class CellChecker:
    """Checks every elicited cell while the tracer is installed."""

    def __init__(self):
        self.worst = {"elicit_discrete": 0.0, "elicit_continuous": 0.0}
        self.problems = []

    def __call__(self, span_name, args, kwargs, result):
        layer = span_name.split(".")[0]
        if layer == "elicit_discrete":
            residual = checks.discrete_cell_residual(args, result)
        else:
            residual = checks.continuous_cell_residual(args, kwargs, result)
        self.worst[layer] = max(self.worst[layer], residual)
        if not residual <= checks.TOL:
            self.problems.append(f"{layer} cell of size {args[2]} misses its "
                                 f"constraints by {residual:.3g}")


class SpanTable:
    """Queries over the spans of one traced pass."""

    def __init__(self, tracer):
        self.spans = tracer.spans
        self.commands = tracer.op_commands
        self.own = tracer.self_times()

    def durations(self, name, commands=None, cell_class=None):
        return np.array([s.end - s.start for s in self.spans
                         if s.name == name
                         and (commands is None or self.commands[s.op] in commands)
                         and (cell_class is None or s.cell_class == cell_class)])

    def layer_rows(self, layer):
        prefix = layer + "."
        rows = [k for k, s in enumerate(self.spans) if s.name.startswith(prefix)]
        errors = {}
        for k in rows:
            if self.spans[k].error:
                errors[self.spans[k].error] = errors.get(self.spans[k].error, 0) + 1
        return len(rows), float(self.own[rows].sum()), errors

    def children_of(self, name, child_prefix):
        parents = {k for k, s in enumerate(self.spans) if s.name == name}
        return sum(1 for s in self.spans
                   if s.parent in parents and s.name.startswith(child_prefix))


def percentile_ms(seconds, q):
    """Percentile `q` of samples in seconds, in ms; NaN when there are none."""
    seconds = np.asarray(seconds, dtype=float)
    return float(np.percentile(seconds, q) * 1000.0) if seconds.size else float("nan")


def layer_metrics(table, report_bytes):
    """Per-layer metrics plus printable lines, including the ones no workload shares."""
    metrics = {}
    lines = []

    def timing(name, samples, q=50, note=""):
        value = percentile_ms(samples, q)
        metrics[name] = value
        lines.append(f"{name:44s} {value:12.4f} ms  n={samples.size}{note}")

    timing("model.load_document_ms_p50",
           table.durations("model.load_document", REPORT_COMMANDS))
    for layer, fn in (("elicit_discrete", "elicit_discrete"),
                      ("elicit_continuous", "elicit_continuous")):
        cells = table.durations(f"{layer}.{fn}")
        metrics[f"{layer}.cells"] = cells.size
        lines.append(f"{layer + '.cells':44s} {cells.size:12d} count")
        timing(f"{layer}.cell_ms_p50", cells)
        q = tail_percentile(cells.size)
        timing(f"{layer}.cell_ms_tail", cells, q, f"  (p{q})")
        for cls in CELL_CLASSES:
            timing(f"{layer}.cell_ms_p50.{cls}",
                   table.durations(f"{layer}.{fn}", cell_class=cls))
    timing("pipeline.elicit_utilities_ms_p50",
           table.durations("pipeline.elicit_utilities", ("solve",)))
    timing("solver.solve_gopa_ms_p50", table.durations("solver.solve_gopa"))
    timing("solver.solve_opa_ms_p50", table.durations("solver.solve_opa", ("opa",)))
    timing("pipeline.solution_report_ms_p50",
           table.durations("pipeline.solution_report", REPORT_COMMANDS))

    main_rows = [k for k, s in enumerate(table.spans)
                 if s.name == "cli.main" and table.commands[s.op] in REPORT_COMMANDS]
    timing("cli.self_ms_p50", table.own[main_rows])
    metrics["cli.report_bytes"] = float(np.median(report_bytes))
    lines.append(f"{'cli.report_bytes':44s} {metrics['cli.report_bytes']:12.1f} bytes"
                 f"  n={len(report_bytes)} (median solve report)")

    timing("metrics.consensus_report_ms_p50", table.durations("metrics.consensus_report"))
    sweeps = table.durations("sensitivity.permutation_stats")
    timing("sensitivity.permutation_stats_ms_p50", sweeps)
    scenarios = table.children_of("sensitivity.permutation_stats", "solver.")
    metrics["sensitivity.scenarios_per_s"] = scenarios / sweeps.sum()
    lines.append(f"{'sensitivity.scenarios_per_s':44s} "
                 f"{metrics['sensitivity.scenarios_per_s']:12.2f} 1/s  n={scenarios}")

    timing("lpcheck.solve_lp_ms_p50", table.durations("lpcheck.solve_lp", ("verify",)))
    stage1 = table.durations("lpcheck.solve_lp", ("solve",)).size
    lines.append(f"{'lpcheck.solve_lp.calls.stage1':44s} {stage1:12d} count"
                 "  (inside solve ops)")

    for layer in LAYERS:
        calls, busy, errors = table.layer_rows(layer)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.busy_s"] = busy
        metrics[f"{layer}.failed"] = sum(errors.values())
        lines.append(f"{layer:20s} calls {calls:8d}  busy {busy:10.4f} s  "
                     f"failed {metrics[f'{layer}.failed']} {errors or ''}")
    metrics["lpcheck.solve_lp.calls"] = table.durations("lpcheck.solve_lp").size
    metrics["lpcheck.solve_lp.failed"] = sum(1 for s in table.spans
                                             if s.name == "lpcheck.solve_lp" and s.error)
    lines.append(f"{'lpcheck.solve_lp.calls':44s} {metrics['lpcheck.solve_lp.calls']:12d}"
                 f" count  failed {metrics['lpcheck.solve_lp.failed']}")
    return metrics, lines


def traced_run(runner, seconds, out_path, env):
    """Items untraced and traced in turn; returns (results, metrics, lines)."""
    checker = CellChecker()
    tracer = Tracer(cell_check=checker)
    untraced, traced = [], []
    start = time.perf_counter()
    count = 0
    while time.perf_counter() - start < seconds:
        item = runner.items[count % len(runner.items)]
        untraced += runner.run_item(item)
        runner.tracer = tracer
        tracer.install()
        try:
            traced += runner.run_item(item)
        finally:
            tracer.uninstall()
            runner.tracer = None
        count += 1
    runner.wrong.extend(checker.problems)

    table = SpanTable(tracer)
    metrics, lines = layer_metrics(table, runner.report_bytes)
    plain = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    checked = float(sum(s.end - s.start for s in tracer.spans if s.name == CHECK_SPAN))
    layer_self = sum(metrics[f"{layer}.busy_s"] for layer in LAYERS)
    metrics["trace.overhead_s"] = traced_s - plain
    lines.insert(0, f"{count} items run twice, {len(traced)} ops traced, "
                    f"{len(tracer.spans)} spans")
    lines += [
        f"untraced op time {plain:.4f} s; traced op time {traced_s:.4f} s",
        f"trace.overhead_s {metrics['trace.overhead_s']:.4f} s "
        f"(of which per-cell checks {checked:.4f} s)",
        f"layers' self time {layer_self:.4f} s - overhead "
        f"{metrics['trace.overhead_s'] - checked:.4f} s (wrappers) = "
        f"{layer_self - (metrics['trace.overhead_s'] - checked):.4f} s "
        f"vs untraced {plain:.4f} s",
        "worst cell residuals: " + ", ".join(f"{k} {v:.3g}" for k, v in checker.worst.items()),
    ]
    with open(out_path, "w") as fh:
        fh.write(json.dumps({"environment": env, "op_commands": tracer.op_commands}) + "\n")
        for row in tracer.records():
            fh.write(json.dumps(row) + "\n")
    lines.append(f"spans written to {out_path.name}")
    return untraced + traced, metrics, lines
