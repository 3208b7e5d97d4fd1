"""One pass of a workload in a fresh interpreter, so that every
process-lifetime memo of hooklie starts cold, as it does for a user of the
`hooklie` command.

    python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR RESULT SPAWNED

SPAWNED is the parent's reading of the system-wide monotonic clock just
before it started this process; set-up time runs from there until
`import hooklie` returns, which is why hooklie is imported first.  The
pass then runs the workload's items in the order the seed gives, checks
every output against its frozen digest and its invariant, and writes one
JSON result to RESULT.

Times are reported twice: as measured, and in reference seconds.  Other
tenants of a shared machine slow its CPU by up to 1.5x in episodes of
seconds to minutes, which would swamp any change to hooklie.  So a fixed
piece of pure-Python work, the probe, runs between items every
PROBE_EVERY_S, and each stretch of the pass is scaled by the probe times
on both sides of it to the speed at which the probe takes PROBE_REF_S.
Probe time is left out of every reported time.
"""

import time

import hooklie
import hooklie.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

PROBE_REF_S = 0.001
PROBE_EVERY_S = 0.25
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
MAX_REPORTED_FAILURES = 20


def probe() -> float:
    """Best of three timings of a fixed piece of pure-Python work: how fast
    the CPU runs this process just now."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        d = {}
        for i in range(5000):
            k = (i & 63, i >> 6)
            d[k] = d.get(k, 0) + i * i % 7
        best = min(best, time.perf_counter() - t)
    return best


def timed_items(items) -> tuple:
    """Run every item; outputs, errors, wall and cpu seconds as measured,
    wall in reference seconds, and the probe times."""
    outputs, errors = {}, {}
    probes = [probe()]
    stretches = []  # wall seconds between consecutive probes
    cpu = 0.0
    t, c = time.perf_counter(), time.process_time()
    for item in items:
        try:
            outputs[item.key] = item.call()
        except Exception as exc:  # an item that raises counts as failed
            errors[item.key] = repr(exc)
        now = time.perf_counter()
        if now - t >= PROBE_EVERY_S:
            stretches.append(now - t)
            cpu += time.process_time() - c
            probes.append(probe())
            t, c = time.perf_counter(), time.process_time()
    stretches.append(time.perf_counter() - t)
    cpu += time.process_time() - c
    probes.append(probe())
    wall_ref = sum(
        d * 2 * PROBE_REF_S / (probes[i] + probes[i + 1]) for i, d in enumerate(stretches)
    )
    return outputs, errors, sum(stretches), cpu, wall_ref, probes


def run(name: str, seed: int, traced: bool, workdir: str, spawned: float) -> dict:
    tr = tracer.Tracer(hooklie) if traced else None
    if tr is not None:
        tr.install()
    items = workloads.build(name, hooklie, workdir)
    random.Random(seed).shuffle(items)
    if tr is not None:
        tr.enabled = True
    outputs, errors, wall, cpu, wall_ref, probes = timed_items(items)
    layers = None
    if tr is not None:
        tr.enabled = False
        # self times in reference seconds too, so that they sum to wall_ref_s
        scale = wall_ref / wall
        layers = {
            k: v * scale if k.endswith(".self_s") else v
            for k, v in tr.layer_metrics(wall).items()
        }
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    try:
        with open(EXPECTED, encoding="ascii") as fh:
            expected = json.load(fh).get(name, {})
    except FileNotFoundError:
        expected = {}
    frozen = expected.get("items", {})
    refs = workloads.Refs(hooklie)
    failures = []
    broken = 0  # items that raised or violated their invariant
    item_digests = {}
    for item in sorted(items, key=lambda it: it.key):
        key = item.key
        if key in errors:
            failures.append(f"{key}: raised {errors[key]}")
            broken += 1
            continue
        out = outputs[key]
        problems = []
        try:
            d = item_digests[key] = workloads.digest(item.canon(out))
            if d != frozen.get(key):
                problems.append(f"digest {d} != frozen {frozen.get(key)}")
            if not item.check(out, refs):
                problems.append("invariant violated")
                broken += 1
        except Exception as exc:
            problems.append(f"check raised {exc!r}")
            broken += 1
        if problems:
            failures.append(f"{key}: {'; '.join(problems)}")
    digest = workloads.workload_digest(item_digests)
    if digest != expected.get("digest"):
        failures.append(f"workload digest {digest} != frozen {expected.get('digest')}")
    setup = IMPORTED - spawned
    return {
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "cpu_s": cpu,
        "cpu_ref_s": cpu * wall_ref / wall,
        "setup_s": setup,
        # the first probe runs right after set-up, so it scales set-up
        "setup_ref_s": setup * PROBE_REF_S / probes[0],
        "probe_s": sorted(probes)[len(probes) // 2],
        "peak_rss_mib": rss_mib,
        "attempted": len(items) + 1,  # every item, plus the workload digest
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "broken": broken,
        "digest": digest,
        "item_digests": item_digests,
        "layers": layers,
    }


def main(argv) -> int:
    name, seed, trace, workdir, result_path, spawned = argv
    result = run(name, int(seed), trace == "1", workdir, float(spawned))
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
