"""Golden digests of the benchmark's simulated outputs.

``golden.json`` holds, for every item of every workload at the default
seed, the sha256 of its canonical simulated output (see
``workloads.Checked.payload``), at full and at tiny sizes. A speed-up
must leave every digest unchanged. Regenerate after a deliberate change
to simulated results::

    python bench/golden.py            # rewrites bench/golden.json

Workloads whose inputs do not depend on the seed (the paper sweeps and
the observed CLI) are digest-checked at every seed; the serve and fuzz
workloads only at the default seed, and elsewhere get the structural
checks alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, OUT_DIR, SRC, WORKLOADS

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
SCHEMA = "bench.golden/v1"


def digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def load() -> dict:
    with open(GOLDEN_PATH) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{GOLDEN_PATH}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc


def digest_checked(workload, seed: int, golden: dict) -> bool:
    """Whether this workload's digests apply at ``seed``."""
    return not workload.seeded or seed == golden["seed"]


def expected(golden: dict, workload: str, tiny: bool) -> dict:
    """``{item id: digest}`` for one workload and size."""
    return golden["tiny" if tiny else "full"].get(workload, {})


def regenerate(names=None) -> dict:
    """Run every item once in this process and digest its output."""
    from child import run_item

    sys.path.insert(0, str(SRC))
    doc = {"schema": SCHEMA, "seed": DEFAULT_SEED, "full": {}, "tiny": {}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(os.devnull, "w") as quiet, tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        for name in names or WORKLOADS:
            for size, tiny in (("full", False), ("tiny", True)):
                digests = {}
                for item in WORKLOADS[name].build(DEFAULT_SEED, tiny, scratch):
                    _, record = run_item(item, quiet)
                    if record["errors"]:
                        raise RuntimeError(f"{name} {item.id}: {record['errors']}")
                    digests[item.id] = record["digest"]
                doc[size][name] = digests
                print(f"{name} {size}: {len(digests)} item(s)", file=sys.stderr)
    return doc


if __name__ == "__main__":
    document = regenerate()
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
