"""Tests for the command line front end: exit codes, deterministic reports,
construct dumps, and module runs that no outside file can influence."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from hooklie import cdes
from hooklie.characters import character_value
from hooklie.cli import build_parser, main, parse_partition, UsageError
from hooklie.combinat import partition_list


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    return code, json.loads(out), err


# -- basic plumbing ----------------------------------------------------------


def test_parse_partition():
    assert parse_partition("2,2,1") == (2, 2, 1)
    assert parse_partition("1, 2 ,3") == (3, 2, 1)
    with pytest.raises(UsageError):
        parse_partition("2,x")
    with pytest.raises(UsageError):
        parse_partition("0,1")
    with pytest.raises(UsageError):
        parse_partition("")


def test_timing_goes_to_stderr_only(capsys):
    code, out, err = run(["witt", "3"], capsys)
    assert code == 0
    assert "elapsed-seconds" in err
    assert "elapsed-seconds" not in out


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_bad_partition_exits_2(capsys):
    code, out, err = run(["construct", "2,x"], capsys)
    assert code == 2
    assert "error:" in err


def test_oversized_class_exits_2(tmp_path, capsys):
    # one element, but solving it would walk the 2^19 subsets of [19]
    out_file = tmp_path / "ext.json"
    code, out, err = run(["construct", ",".join("1" * 19), "--output", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    assert "walk limit" in err
    assert not out_file.exists()
    # (1^11) is under the limit: an infeasible report with exit 0
    code, doc, _ = run_json(["construct", ",".join("1" * 11), "--output", str(out_file)], capsys)
    assert code == 0
    assert doc["payload"]["feasible"] is False


def test_class_over_size_limit_exits_2(tmp_path, capsys):
    # 11! elements are over the walk limit, so nothing is walked
    out_file = tmp_path / "ext.json"
    code, out, err = run(["construct", "12", "--output", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err and "walk limit" in err
    assert not out_file.exists()
    # (2^6) has 10,395 elements and 2^12 subsets: under the limit, so it runs
    code, doc, _ = run_json(
        ["construct", "2,2,2,2,2,2", "--output", str(out_file)], capsys
    )
    assert code == 0
    assert doc["payload"]["feasible"] is False


@pytest.mark.parametrize(
    "suite, n_max, route",
    [
        ("main-theorem", "19", "descent_distribution"),
        ("cellini", "11", "cellini_closed"),
        # 2^12 masks times p(13) = 101 shapes, and 3^12 (mask, submask) pairs
        ("gr-fibers", "13", "descent_distribution"),
        ("affine-fibers", "12", "descent_distribution"),
    ],
)
def test_verify_scan_over_walk_limit_exits_2_before_scanning(
    suite, n_max, route, monkeypatch, capsys
):
    def no_work(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(cdes, route, no_work)
    code, out, err = run(["verify", suite, "--n-max", n_max], capsys)
    assert code == 2
    assert out == ""
    assert "walk limit" in err


class ScanStarted(Exception):
    pass


@pytest.mark.parametrize("suite, n_max", [("gr-fibers", "12"), ("affine-fibers", "11")])
def test_ribbon_suites_admit_their_largest_n(suite, n_max, monkeypatch):
    # 2^11 * p(12) = 157,696 and 3^11 = 177,147 are under the walk limit,
    # so the scan starts (and is stopped at its first class)
    def first_class(*args):
        raise ScanStarted

    monkeypatch.setattr(cdes, "descent_distribution", first_class)
    with pytest.raises(ScanStarted):
        main(["verify", suite, "--n-max", n_max])


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {flag for action in sp._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert flags == {
        "hooks": {"--format"},
        "series": {"--s-max", "--format"},
        "witt": {"--format", "--coeffs", "--reflect"},
        "construct": {"--output", "--format"},
        "cellini": {"--format"},
        "verify": {"--n-max", "--r-max", "--s-max", "--format"},
    }
    with pytest.raises(SystemExit) as exc:
        main(["hooks", "4", "2", "--n-max", "3"])
    assert exc.value.code == 2


def test_bad_flag_value_exits_2(capsys):
    code, out, err = run(["verify", "cellini", "--n-max", "0"], capsys)
    assert code == 2


# -- hooks and series reports ------------------------------------------------


def test_hooks_json_payload(capsys):
    code, doc, _ = run_json(["hooks", "4", "2"], capsys)
    assert code == 0
    assert doc["passed"] is True
    payload = doc["payload"]
    hooks = {row["k"]: row["value"] for row in payload["hooks"]}
    assert hooks == {0: "0", 1: "0", 2: "0", 3: "2", 4: "2", 5: "0", 6: "0", 7: "0"}
    assert payload["hook_poly_factored"]["factor"] == "1+x"
    cert = {row["k"]: row["value"] for row in payload["certificate"]}
    assert cert[3] == "2"


def test_hooks_infeasible_class_payload(capsys):
    code, doc, _ = run_json(["hooks", "2", "2"], capsys)
    assert code == 0
    assert doc["payload"]["certificate"] is None
    assert doc["payload"]["no_extension"]["reason"] == "alternating-sum-nonzero"


def test_series_json_payload(capsys):
    code, doc, _ = run_json(["series", "4", "--s-max", "3"], capsys)
    assert code == 0
    payload = doc["payload"]
    assert payload["squarefree"] is False
    assert payload["moment"] == 0
    assert all(row["divisible"] for row in payload["divisible_by_square"])
    assert payload["square_quotient"] is not None
    names = [a["name"] for a in doc["assertions"]]
    assert "moment-equals-moebius" in names
    assert doc["passed"] is True


def test_series_squarefree_has_no_quotient(capsys):
    code, doc, _ = run_json(["series", "6", "--s-max", "2"], capsys)
    assert code == 0
    assert doc["payload"]["square_quotient"] is None


def test_witt_reflect(capsys):
    code, doc, _ = run_json(["witt", "6", "--reflect"], capsys)
    assert code == 0
    reflected = {row["k"]: row["value"] for row in doc["payload"]["reflected"]}
    assert reflected == {0: "0", 1: "1", 2: "3", 3: "3", 4: "2", 5: "1"}


def test_json_reports_are_deterministic(capsys):
    _, doc1, _ = run_json(["verify", "cellini"], capsys)
    _, doc2, _ = run_json(["verify", "cellini"], capsys)
    assert doc1 == doc2


def test_csv_and_text_formats_render(capsys):
    code, out, _ = run(["hooks", "2", "1", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "field,value"
    code, out, _ = run(["hooks", "2", "1", "--format", "text"], capsys)
    assert code == 0
    assert out.startswith("command: hooks")


# -- verify suites through the CLI -------------------------------------------


def test_verify_kw_identity_passes(capsys):
    code, doc, _ = run_json(["verify", "kw-identity", "--n-max", "8"], capsys)
    assert code == 0
    assert doc["passed"] is True


def test_verify_main_theorem_small(capsys):
    code, doc, _ = run_json(["verify", "main-theorem", "--n-max", "6"], capsys)
    assert code == 0
    assert all(a["passed"] for a in doc["assertions"])


def test_verify_main_theorem_past_default_n_limit(capsys):
    code, doc, _ = run_json(["verify", "main-theorem", "--n-max", "11"], capsys)
    assert code == 0
    assert doc["passed"] is True
    assert doc["payload"]["classes_scanned"] == 1 + 2 + 3 + 5 + 7 + 11 + 15 + 22 + 30 + 42 + 56


def test_failed_exactness_check_exits_1_without_traceback(monkeypatch, capsys):
    def broken(mu):
        raise ArithmeticError(f"negative Des fiber for {mu}")

    monkeypatch.setattr(cdes, "descent_distribution", broken)
    code, out, err = run(["verify", "main-theorem", "--n-max", "3"], capsys)
    assert code == 1
    assert out == ""
    assert "error: negative Des fiber" in err
    assert "Traceback" not in err


def test_verify_cellini_reports_exactly_two(capsys):
    code, doc, _ = run_json(["verify", "cellini"], capsys)
    assert code == 0
    assert doc["payload"]["closed_classes"] == [[2, 1], [3, 1]]


# -- construct ---------------------------------------------------------------


def test_construct_writes_dump(tmp_path, capsys):
    out_file = tmp_path / "ext.json"
    code, doc, _ = run_json(
        ["construct", "4", "--output", str(out_file)], capsys
    )
    assert code == 0
    assert doc["payload"]["feasible"] is True
    assert doc["payload"]["class_size"] == 6
    dumped = json.loads(out_file.read_text())
    assert dumped["n"] == 4
    assert len(dumped["elements"]) == 6
    assert doc["payload"]["fibers"] == dumped["fibers"]
    assert doc["assertions"] == [
        {"name": f"axiom-{name}", "passed": True}
        for name in ("equivariance", "extension", "fiber-counts", "non-escher")
    ]


# SHA-256 and size of the dumps as json.dump(..., sort_keys=True, indent=1)
# plus a newline wrote them; the streaming writer must keep every byte.
DUMP_DIGESTS = {
    "4": ("d7d5499f8a5d6e72f22ff77223822985bbe3ab1f969156f29b56fda647f3fb8d", 1_404),
    "5,3": ("f3800f507ff126d7827d3f8ebe95ab34195e2fa4fd55258abb41b49f9dc63a7c", 689_284),
    "3,2,1,1,1": (
        "f6349575b10b5880b57ff8a20318a31eac956b8ededee8fc934d9d6ab3eac986",
        289_923,
    ),
}


@pytest.mark.parametrize("mu", sorted(DUMP_DIGESTS))
def test_construct_dump_bytes_are_pinned(mu, tmp_path, capsys):
    out_file = tmp_path / "ext.json"
    code, _, _ = run(["construct", mu, "--output", str(out_file)], capsys)
    assert code == 0
    data = out_file.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == DUMP_DIGESTS[mu]


def test_construct_infeasible_reports_reason(tmp_path, capsys):
    code, doc, _ = run_json(["construct", "3"], capsys)
    assert code == 0
    assert doc["payload"]["feasible"] is False
    assert doc["payload"]["reason"] == "nonzero-full-set"
    assert doc["payload"]["certificate_violation"]["reason"] == (
        "alternating-sum-nonzero"
    )


def test_construct_escher_note(capsys):
    code, doc, _ = run_json(["construct", "2,2"], capsys)
    assert code == 0
    assert "Escher" in doc["payload"]["note"]


# -- module runs -------------------------------------------------------------


def _module_run(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "hooklie", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    return proc


def _write_tampered_s4_table(path):
    """A well-formed S_4 character table in the versioned, checksummed
    format of the former table cache, with chi^(3,1)(2,1,1) set to 5
    (the true value is 1) and the checksum recomputed to match."""
    shapes = sorted(partition_list(4))
    records = [
        [list(lam), list(mu), str(character_value(lam, mu))]
        for lam in shapes
        for mu in shapes
    ]
    for row in records:
        if row[:2] == [[3, 1], [2, 1, 1]]:
            row[2] = "5"
    canonical = json.dumps(records, separators=(",", ":"), sort_keys=True)
    doc = {
        "format": "sn-character-table",
        "version": 1,
        "n": 4,
        "sha256": hashlib.sha256(canonical.encode("ascii")).hexdigest(),
        "records": records,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def test_table_file_cannot_change_results(tmp_path, capsys):
    # no file from outside the program may change a computed number
    table = tmp_path / "sn-04.json"
    _write_tampered_s4_table(table)
    args = ["verify", "gr-fibers", "--n-max", "4", "--format", "json"]
    plain = _module_run(args)
    seeded = _module_run(args, env_extra={"HOOKLIE_CACHE_DIR": str(tmp_path)})
    assert plain.returncode == 0, plain.stderr
    assert (seeded.returncode, seeded.stdout) == (plain.returncode, plain.stdout)
    for argv in (
        ["cache", "load", str(table)],
        ["verify", "gr-fibers", "--cache-dir", str(tmp_path)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_console_entry_matches_module_run(tmp_path):
    a = _module_run(["witt", "5", "--format", "json"])
    assert a.returncode == 0
    doc = json.loads(a.stdout)
    transform = {row["k"]: row["value"] for row in doc["payload"]["transform"]}
    # (1/5)((1-x)^5 - (1-x^5)) = -x + 2x^2 - 2x^3 + x^4
    assert transform == {0: "0", 1: "-1", 2: "2", 3: "-2", 4: "1"}
