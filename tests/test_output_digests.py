"""Every output of the benchmark pools of seeds 1-3 is pinned by its digest.

`output_digests.collect` runs one pass of each `case_mix` and `wide_ordinal`
pool of seeds 1-3 through the benchmark's own `Runner.run_item`, plus
``solve --csv`` and ``sensitivity --raw`` on one document of each pool, and
digests each output with SHA-256.  The test compares them with
``tests/output_digests.json`` and names each op whose output changed.

A change that means to change an output rewrites the file and commits it:

    PYTHONPATH=src python tests/output_digests.py

The file records the numpy version it was made with, since a numpy whose
float results differ in the 12th digit changes the texts.
"""

import json

import numpy as np

from output_digests import DIGEST_FILE, collect


def test_every_output_matches_its_digest(tmp_path):
    pinned = json.loads(DIGEST_FILE.read_text())
    digests = collect(tmp_path)
    changed = sorted(op for op in pinned["digests"].keys() | digests.keys()
                     if pinned["digests"].get(op) != digests.get(op))
    assert not changed, (
        f"{len(changed)} of {len(pinned['digests'])} outputs differ from "
        f"{DIGEST_FILE.name} (made with numpy {pinned['numpy']}, running "
        f"{np.__version__}): " + ", ".join(changed[:20]))
