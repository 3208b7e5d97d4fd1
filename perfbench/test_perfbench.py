"""Tests of the benchmark itself (under a minute).

    python3 -m pytest -q perfbench/test_perfbench.py

Each test runs the benchmark in a copy of the checkout under a temporary
directory, so that the copy's expected digests can be corrupted.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _copy_checkout(dest, with_sources=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(
            os.path.join(ROOT, "src"), dest / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
    return dest


def _bench(root, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


def test_corrupted_expected_digest_raises_fail_ratio(tmp_path):
    root = _copy_checkout(tmp_path)
    code, clean, _ = _bench(root, "--workload", "hooks-sweep")
    assert code == 0 and clean["correct"] and clean["failed"] == 0

    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    key = "hooks|4,2"
    expected["hooks-sweep"]["items"][key] = "0" * 16
    expected["hooks-sweep"]["digest"] = "0" * 64
    path.write_text(json.dumps(expected))
    code, dirty, out = _bench(root, "--workload", "hooks-sweep")
    assert code != 0 and not dirty["correct"]
    # the corrupted item and the workload digest fail, nothing else
    assert dirty["failed"] == 2 and dirty["attempted"] == clean["attempted"]
    assert f"FAIL {key}: digest" in out and "FAIL workload digest" in out


def test_refuses_to_run_without_sources(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=False)
    code, result, _ = _bench(root, "--workload", "descent-scan")
    assert code != 0 and result is None
    assert sorted(os.listdir(root)) == ["BENCHMARK.json", "perfbench"]


def test_work_counts_repeat_across_seeds(tmp_path):
    root = _copy_checkout(tmp_path)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    runs = [
        _bench(root, "--workload", "descent-scan", "--trace", "1", "--seed", seed)
        for seed in ("1", "2")
    ]
    for code, result, _ in runs:
        assert code == 0 and result["correct"]
    first, second = (r[1]["metrics"] for r in runs)
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["combinat.perms_scanned"]["value"] > 0
    assert sorted(os.listdir(root)) == ["BENCHMARK.json", "perfbench", "src"]
