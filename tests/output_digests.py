"""SHA-256 digests of every output of the benchmark pools of seeds 1-3.

`collect` runs one pass of each `case_mix` and `wide_ordinal` pool of seeds
1-3 through `Runner.run_item` of ``perfbench/run.py``, imported as it is, and
digests each op's output as the benchmark does.  It also runs ``solve --csv``
on the pool's first ``solve`` document and ``sensitivity --raw`` on its first
``sensitivity`` document, and digests each file they write.

Run from the root of a checkout to rewrite `DIGEST_FILE`, with the numpy
version it was made with:

    PYTHONPATH=src python tests/output_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

import gopa.cli  # noqa: E402

DIGEST_FILE = HERE / "output_digests.json"
SEEDS = (1, 2, 3)


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pool_digests(runner, key):
    """``{op key: digest}`` of one pass of ``runner``'s pool; a failed op maps
    to its exit code and problem instead of a digest."""
    digests = {}
    for item in runner.items:
        for result in runner.run_item(item):
            op = f"{key}/{item.name}/{result.index}:{result.command}"
            if result.failed:
                digests[op] = f"failed: exit {result.code}: {result.problem}"
            else:
                digests[op] = runner.digests[item.name, result.index]
    return digests


def _extra_digests(runner, key, workdir):
    """Digests of ``solve --csv`` and ``sensitivity --raw`` on one document each."""
    ops = [op for item in runner.items for op in item.ops]
    solve = next(op for op in ops if op.command == "solve")
    sensitivity = next(op for op in ops if op.command == "sensitivity")
    csv_dir, raw = workdir / "csv", workdir / "raw.csv"
    digests = {}
    for op, args, files in (
            (solve, ["-o", str(workdir / "report.json"), "--csv", str(csv_dir)],
             [csv_dir / "weights.csv", csv_dir / "utilities.csv"]),
            (sensitivity, [*sensitivity.args, "-o", str(workdir / "stats.csv"),
                           "--raw", str(raw)], [raw])):
        code = gopa.cli.main([op.command, str(runner.paths[op.source]), *args])
        for path in files:
            name = f"{key}/{op.source}/{op.command} {args[-2]}/{path.name}"
            digests[name] = _sha(path) if code == 0 and path.exists() else f"failed: exit {code}"
            path.unlink(missing_ok=True)
    return digests


def collect(workdir):
    """``{op key: digest}`` of every output of the pools, keyed
    ``workload/seed/item/op index:command``."""
    digests = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            key = f"{workload}/seed{seed}"
            pool_dir = Path(workdir) / key
            pool_dir.mkdir(parents=True)
            runner = run.Runner(gopa.cli, workload, seed, pool_dir)
            digests.update(_pool_digests(runner, key))
            digests.update(_extra_digests(runner, key, pool_dir))
    return digests


def main():
    with tempfile.TemporaryDirectory() as workdir:
        digests = collect(workdir)
    DIGEST_FILE.write_text(json.dumps({"numpy": np.__version__, "digests": digests},
                                      indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")


if __name__ == "__main__":
    main()
