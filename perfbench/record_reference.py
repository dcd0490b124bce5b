"""Record the reference observables hash of every workload and variant.

Run from the repository root after a change that is meant to alter the
simulated results, and say in the commit why the results moved::

    PYTHONPATH=src python3 perfbench/record_reference.py

Each hash comes from the scalar lane; the fast lane must produce the
same hash and every ledger must balance, or nothing is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import scenarios

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def record() -> dict:
    hashes = {}
    for workload in scenarios.WORKLOADS:
        hashes[workload] = []
        for variant in range(scenarios.VARIANTS):
            found = []
            for fast in (False, True):
                lane = scenarios.build(workload, variant, fast)
                lane.run()
                problem = scenarios.ledger_problem(lane)
                if problem:
                    raise SystemExit(f"{workload} variant {variant}: {problem}")
                found.append(scenarios.observables_hash(lane.observables()))
            if found[0] != found[1]:
                raise SystemExit(
                    f"{workload} variant {variant}: lanes disagree")
            hashes[workload].append(found[0])
            print(f"{workload} {variant:2d} {found[0]}", flush=True)
    return {"variants": scenarios.VARIANTS, "hashes": hashes}


if __name__ == "__main__":
    reference = record()
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    sys.exit(0)
