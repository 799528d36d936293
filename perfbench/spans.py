"""In-memory span tracer that wraps the package's public layer functions.

The package itself is not instrumented: `Tracer.install` swaps each listed
function for a timing wrapper in every loaded ``gopa`` module that holds it,
and `Tracer.uninstall` puts the originals back.  A span records its name,
start, end, parent span and the id of the CLI op it belongs to.
"""

import sys
import time
from dataclasses import dataclass

import numpy as np

# (layer, defining module, function).  The layers are the modules the roadmap
# names; `cli.main` is the root span of every op.
LAYER_FUNCTIONS = (
    ("cli", "gopa.cli", "main"),
    ("model", "gopa.model", "load_document"),
    ("pipeline", "gopa.pipeline", "solve_document"),
    ("pipeline", "gopa.pipeline", "elicit_utilities"),
    ("pipeline", "gopa.pipeline", "solution_report"),
    ("pipeline", "gopa.pipeline", "report_to_solution"),
    ("elicit_discrete", "gopa.elicit_discrete", "elicit_discrete"),
    ("elicit_continuous", "gopa.elicit_continuous", "elicit_continuous"),
    ("elicit_continuous", "gopa.elicit_continuous", "cumulative_utilities"),
    ("solver", "gopa.solver", "solve_gopa"),
    ("solver", "gopa.solver", "solve_opa"),
    ("metrics", "gopa.metrics", "consensus_report"),
    ("sensitivity", "gopa.sensitivity", "permutation_stats"),
    ("lpcheck", "gopa.lpcheck", "solve_lp"),
    ("lpcheck", "gopa.lpcheck", "build_opa_lp"),
    ("lpcheck", "gopa.lpcheck", "build_gopa_lp"),
    ("lpcheck", "gopa.lpcheck", "verify_efficiency"),
)

CHECK_SPAN = "bench.check"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the parent span, -1 for a root
    op: int
    error: str = None    # exception class name when the call raised
    cell_class: str = None


def cell_class(ctx):
    """Input class of a cell context: empty, equality (ratio/absdiff only) or bounds."""
    if ctx.is_empty:
        return "empty"
    return "bounds" if ctx.lowerbound else "equality"


class Tracer:
    """Collects spans while installed.

    ``cell_check(span_name, args, kwargs, result)`` is called after every
    successful elicitation call; its time is recorded as a `CHECK_SPAN` sibling of the
    cell span so it counts as tracing overhead, not as layer time.
    """

    def __init__(self, cell_check=None):
        self.spans = []
        self.op = -1
        self.op_commands = []
        self._stack = []
        self._saved = []
        self._cell_check = cell_check

    def begin_op(self, command):
        """Attribute the spans that follow to a new op running `command`."""
        self.op = len(self.op_commands)
        self.op_commands.append(command)

    def install(self):
        originals = {}
        for layer, module, name in LAYER_FUNCTIONS:
            fn = getattr(sys.modules[module], name)
            originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gopa" or mod_name.startswith("gopa.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved = []

    def _wrap(self, span_name, fn):
        spans = self.spans
        stack = self._stack
        is_cell = span_name in ("elicit_discrete.elicit_discrete",
                                "elicit_continuous.elicit_continuous")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            if is_cell:
                span.cell_class = cell_class(args[1])
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                raise
            else:
                span.end = clock()
            finally:
                stack.pop()
            if is_cell and self._cell_check is not None:
                check = Span(CHECK_SPAN, clock(), 0.0, span.parent, self.op)
                spans.append(check)
                self._cell_check(span_name, args, kwargs, result)
                check.end = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Per-span self time: duration minus the time its direct children cover."""
        own = np.array([s.end - s.start for s in self.spans])
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own

    def records(self):
        """Spans as plain rows for writing out."""
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "error": s.error, "class": s.cell_class}
                for s in self.spans]
