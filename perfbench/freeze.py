"""Freeze the expected output digests of every workload into expected.json.

    python3 perfbench/freeze.py

Meant to be run once, on the commit whose outputs are the reference: it
refuses to freeze a workload in which an item raised or broke its
invariant, and two seeds must give the same digests.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads

SEEDS = (run.DEFAULT_SEED, run.HELD_OUT_SEED)


def main() -> int:
    frozen = {}
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        for name in workloads.WORKLOADS:
            results = [run.run_child(name, seed, False, tmp, i) for i, seed in enumerate(SEEDS)]
            if any(r is None or r["broken"] for r in results):
                print(f"error: {name}: an item raised or broke its invariant", file=sys.stderr)
                return 1
            if len({r["digest"] for r in results}) != 1:
                print(f"error: {name} digests differ between seeds {SEEDS}", file=sys.stderr)
                return 1
            frozen[name] = {"digest": results[0]["digest"], "items": results[0]["item_digests"]}
            print(f"{name}: {len(frozen[name]['items'])} items, digest {frozen[name]['digest']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(run.HERE, "expected.json"), "w", encoding="ascii") as fh:
        json.dump(frozen, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
