"""Benchmark of the `gopa` command line on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload case_mix --seed 1 --seconds 45 --trace 0

Every op is one call of `gopa.cli.main` in this process, closed loop: the next
op starts when the previous one returns.  The seed gives a fixed pool of
documents, written to files before anything is timed.  After a warm-up that
runs each command once, the run loops over the pool until `--seconds` have
passed, so every item of the pool is measured several times.  Garbage is
collected between ops and only the call itself is timed.  Every output is
checked; a nonzero exit code or a failed check counts as a failed op and its
time stays in the latency samples.

`--trace 0` prints the end-to-end metrics: per command, the mean over the
pool's items of each item's median latency.  `--trace 1` runs each item
untraced and then again with every layer function wrapped by the tracer, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# one BLAS thread: the benchmark is single-threaded and measures one op at a time
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

COMMANDS = ("solve", "opa", "metrics", "sensitivity", "verify")
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gopa.cli; "
                "print(time.perf_counter() - t)")
OUTPUT_SUFFIX = {"sensitivity": ".csv"}


def load_gopa():
    """Import the package from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gopa.cli
    if not Path(gopa.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gopa imported from {gopa.cli.__file__}, not from {SRC}")
    return gopa.cli


def environment(seed):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": int(BLAS_THREADS), "seed": seed}


def measure_setup():
    """Seconds to import gopa.cli in a fresh interpreter, one per sample."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip()))
    return samples


class OpResult:
    __slots__ = ("item", "index", "command", "seconds", "code", "problem")

    def __init__(self, item, index, command):
        self.item, self.index, self.command = item, index, command
        self.seconds = 0.0
        self.code = None
        self.problem = None     # failed check or crash, None when the op is right

    @property
    def failed(self):
        return self.code != 0 or self.problem is not None


class Runner:
    """Runs the pool's items through the CLI entry point and checks their outputs.

    The documents are written to files once; only what the checks need is
    kept in memory, so the benchmark's own heap stays small next to the op's.
    """

    def __init__(self, cli, workload, seed, workdir):
        self.cli = cli
        self.workdir = workdir
        docs, self.items = workloads.pool(workload, seed)
        self.paths = {}
        self.sections = {}
        for name, doc in docs.items():
            self.paths[name] = workdir / f"in-{name}.json"
            self.paths[name].write_text(json.dumps(doc))
            self.sections[name] = checks.independence_sections(doc)
        self.digests = {}   # (item, op index) -> output digest of its first run
        self.report_bytes = []
        self.tracer = None
        self.wrong = []     # failed checks that belong to no single op

    def run_item(self, item):
        outputs = {}
        results = []
        for index, op in enumerate(item.ops):
            if op.source.startswith("out:"):
                source = outputs.get(op.source[4:])
                if source is None:  # the op that makes its input failed
                    continue
            else:
                source = self.paths[op.source]
            result = OpResult(item.name, index, op.command)
            results.append(result)
            out = self.workdir / f"out-{op.command}{OUTPUT_SUFFIX.get(op.command, '.json')}"
            out.unlink(missing_ok=True)
            argv = [op.command, str(source), *op.args, "-o", str(out)]
            self._call(argv, result)
            if result.code != 0:
                continue
            data = out.read_bytes()
            outputs[op.command] = out
            result.problem = self._check(op, data, outputs)
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault((item.name, index), digest) != digest:
                self.wrong.append(f"{item.name} {op.command} output changed between runs")
        return results

    def _call(self, argv, result):
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin_op(argv[0])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                result.code = self.cli.main(argv)
            except Exception:  # a crash is a failed op, not the end of the run
                result.code = "crash"
                result.problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
            finally:
                result.seconds = time.perf_counter() - start
        if result.code != 0 and result.problem is None:
            message = err.getvalue().strip().splitlines()
            result.problem = message[-1] if message else "no message"

    def _check(self, op, data, outputs):
        if op.command in ("solve", "opa"):
            if op.command == "solve":
                self.report_bytes.append(len(data))
            problem = checks.check_weights(data)
            if problem is None and op.command == "opa" and "solve" in outputs:
                problem = checks.check_independence(outputs["solve"].read_bytes(), data,
                                                    self.sections[op.source])
            return problem
        if op.command == "metrics":
            return checks.check_consensus(data)
        if op.command == "sensitivity":
            return checks.check_sensitivity(data)
        return checks.check_verify(data)

    def warm_up(self):
        """Run items from the start of the pool until every command has run once."""
        results = []
        for item in self.items:
            if {r.command for r in results} >= set(COMMANDS):
                break
            results += self.run_item(item)
        return results

    def timed_loop(self, seconds):
        """Loop over the pool until `seconds` have passed; returns (results, wall, items run)."""
        results = []
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            results += self.run_item(self.items[k % len(self.items)])
            k += 1
        return results, time.perf_counter() - start, k


def command_latency(results, command):
    """Mean over items of each item's median `command` latency, in ms.

    The median drops an item's odd slow run; the mean over the pool keeps
    every document's weight fixed whatever the mix of sizes.  Returns
    (value, items, samples).
    """
    per_item = {}
    for r in results:
        if r.command == command:
            per_item.setdefault(r.item, []).append(r.seconds)
    if not per_item:
        return float("nan"), 0, 0
    medians = [np.median(times) for times in per_item.values()]
    return (float(np.mean(medians) * 1000.0), len(per_item),
            sum(len(times) for times in per_item.values()))


def summarize_ops(results, wall):
    lines = []
    metrics = {}
    for command in COMMANDS:
        rows = [r for r in results if r.command == command]
        value, items, samples = command_latency(results, command)
        if not samples:
            lines.append(f"{command:12s} no samples")
            continue
        metrics[f"{command}_ms"] = value
        times = [r.seconds for r in rows]
        q = layers.tail_percentile(len(times))
        tail = f"  p{q} {layers.percentile_ms(times, q):10.3f} ms" if q > 50 else ""
        lines.append(f"{command + '_ms':14s} {value:10.3f} ms  items={items} n={samples}"
                     f"  p50 {layers.percentile_ms(times, 50):10.3f} ms{tail}"
                     f"  failed={sum(r.failed for r in rows)}")
    done = sum(not r.failed for r in results)
    lines.append(f"{'ops_per_s':14s} {done / wall:.4f} 1/s ({done} completed ops in {wall:.2f} s)")
    failed = [r for r in results if r.failed]
    codes = {}
    for r in failed:
        codes[str(r.code)] = codes.get(str(r.code), 0) + 1
    lines.append(f"{'fail_rate':14s} {len(failed) / max(len(results), 1):.6f} ratio "
                 f"({len(failed)} of {len(results)}; by exit code {codes or '{}'})")
    for r in failed[:10]:
        lines.append(f"  failed: {r.item} {r.command} code {r.code}: {r.problem}")
    return metrics, lines


def end_to_end(runner, seconds, setup):
    results, wall, count = runner.timed_loop(seconds)
    metrics, lines = summarize_ops(results, wall)
    metrics["setup_s"] = float(np.median(setup))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.insert(0, f"{count} items run ({count / len(runner.items):.2f} passes over a "
                    f"pool of {len(runner.items)}), {len(results)} ops, timed wall {wall:.2f} s")
    lines.append(f"{'setup_s':14s} " + " ".join(f"{s:.4f}" for s in setup)
                 + f" (median {metrics['setup_s']:.4f} s of {len(setup)} fresh imports)")
    lines.append(f"{'peak_rss_mb':14s} {metrics['peak_rss_mb']:.2f} MB")
    return results, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    cli = load_gopa()
    env = environment(args.seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli, args.workload, args.seed, workdir)
        setup = None if args.trace else measure_setup()
        warm = runner.warm_up()
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            results, metrics, lines = layers.traced_run(runner, args.seconds, spans_path, env)
        else:
            results, metrics, lines = end_to_end(runner, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared
               if not np.isfinite(metrics.get(m["name"], float("nan")))]
    if missing:
        raise RuntimeError(f"declared metrics without a measured value: {missing}")
    results = warm + results
    wrong = [f"{r.item} {r.command}: {r.problem}" for r in results
             if r.code == 0 and r.problem is not None] + runner.wrong
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for problem in wrong[:10]:
        print(f"WRONG OUTPUT: {problem}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
