"""Tests for the command line front end: exit codes, deterministic reports,
construct dumps, and module runs that no outside file can influence."""

import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys

import pytest

import hooklie
from hooklie import cdes, cli, lie, suites
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
    assert parse_partition(" 3 ") == (3,)
    assert parse_partition("2,,1") == (2, 1)
    for text in ("2,x", "2 1", "1 0"):  # a space inside a part joins no parts
        with pytest.raises(UsageError):
            parse_partition(text)
    # a part is ASCII digits: int() would read these as 10, 3 and 3
    for text in ("1_0", "\u0663", "+3"):
        with pytest.raises(UsageError):
            parse_partition(text)
    with pytest.raises(UsageError):
        parse_partition("0,1")
    with pytest.raises(UsageError):
        parse_partition("")


def test_timing_goes_to_stderr_only(capsys):
    code, out, err = run(["hooks", "2", "1"], capsys)
    assert code == 0
    assert "elapsed-seconds" in err
    assert "elapsed-seconds" not in out


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_bad_partition_exits_2(capsys):
    for argv in (["construct", "2,x"], ["cellini", "2 1"], ["construct", "1_0"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
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
        ("main-theorem", "19", "cdes.descent_distribution"),
        ("cellini", "11", "cdes.cellini_closed"),
        # 2^12 masks times p(13) = 101 shapes, and 3^12 (mask, submask) pairs
        ("gr-fibers", "13", "cdes.descent_distribution"),
        ("affine-fibers", "12", "cdes.descent_distribution"),
        ("kw-identity", "19", "lie.subset_sum_count"),
    ],
    ids=lambda value: value.rpartition(".")[2],  # a route by its bare name
)
def test_verify_scan_over_walk_limit_exits_2_before_scanning(
    suite, n_max, route, monkeypatch, capsys
):
    # the refusal comes before the scan: the route's first call would raise
    def no_work(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(f"hooklie.{route}", no_work)
    code, out, err = run(["verify", suite, "--n-max", n_max], capsys)
    assert code == 2
    assert out == ""
    assert "walk limit" in err


OVER_LIMIT = [
    ("main-theorem", "19"),
    ("cellini", "11"),
    ("gr-fibers", "13"),
    ("affine-fibers", "12"),
    ("kw-identity", "19"),
]


# each cost saturates, so a huge bound is refused without building 2^n or 3^n
@pytest.mark.parametrize(
    "suite, n_max", OVER_LIMIT + [(suite, "100000000") for suite, _ in OVER_LIMIT]
)
def test_verify_refuses_from_the_declared_cost_before_any_suite_code(
    suite, n_max, monkeypatch, capsys
):
    def run_suite(payload, **bounds):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(
        suites.SUITES, suite, suites.SUITES[suite]._replace(run=run_suite)
    )
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
        "construct": {"--output", "--format"},
        "cellini": {"--format"},
        "verify": {"--n-max", "--r-max", "--s-max", "--format"},
    }
    with pytest.raises(SystemExit) as exc:
        main(["hooks", "4", "2", "--n-max", "3"])
    assert exc.value.code == 2
    # each verify suite reads its own bounds, with these defaults
    bounds = {name: suite.bounds for name, suite in suites.SUITES.items()}
    assert bounds == {
        "main-theorem": {"n_max": 8},
        "squarefree": {"r_max": 30, "s_max": 5},
        "unimodality": {"r_max": 40, "s_max": 8},
        "gr-fibers": {"n_max": 6},
        "kw-identity": {"n_max": 12},
        "cellini": {"n_max": 6},
        "affine-fibers": {"n_max": 7},
    }
    # and refuses the others before any work
    for suite, defaults in bounds.items():
        for name in {"n_max", "r_max", "s_max"} - set(defaults):
            flag = "--" + name.replace("_", "-")
            code, out, err = run(["verify", suite, flag, "3"], capsys)
            assert (code, out) == (2, "")
            assert f"does not read {flag}" in err


def test_bad_flag_value_exits_2(capsys):
    code, out, err = run(["verify", "cellini", "--n-max", "0"], capsys)
    assert code == 2
    # the library refuses these with ValueError
    for argv in (["hooks", "0", "2"], ["series", "3", "--s-max", "0"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_removed_witt_command_exits_2(capsys):
    # the Witt coefficients are the witt row of hooks; no command takes the
    # Witt transform of an arbitrary polynomial
    with pytest.raises(SystemExit) as exc:
        main(["witt", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'witt'" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "5000"],
        ["cellini", "4999,1"],
        ["verify", "kw-identity", "--n-max", "100000"],
    ],
)
def test_huge_inputs_are_refused_in_one_short_line(argv, capsys):
    # the message names n, not a count with thousands of digits
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert "walk limit" in err
    assert len(err.splitlines()) == 1 and len(err) < 100


def test_unwritable_dump_path_exits_2(tmp_path, capsys, monkeypatch):
    # refused before the class is walked
    def construct(mu):
        raise AssertionError("the class was walked")

    monkeypatch.setattr(cdes, "construct_extension", construct)
    out_file = tmp_path / "missing" / "x.json"
    code, out, err = run(["construct", "3,1", "--output", str(out_file)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
    # without --output the dump goes to the working directory, checked too
    folders = []

    def access(path, mode):
        folders.append(path)
        return False

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.os, "access", access)
    code, out, err = run(["construct", "3,1"], capsys)
    assert (code, out, folders) == (2, "", ["."])
    assert err.startswith("error: cannot write extension-3-1.json")


def test_dump_path_that_cannot_be_opened_exits_2_before_the_walk(
    tmp_path, capsys, monkeypatch
):
    # an existing directory, or an existing file without write access, is
    # refused before the class is walked
    def construct(mu):
        raise AssertionError("the class was walked")

    monkeypatch.setattr(cdes, "construct_extension", construct)
    folder = tmp_path / "dump"
    folder.mkdir()
    locked = tmp_path / "locked.json"
    locked.write_text("an earlier dump\n")
    real_access = os.access

    def access(path, mode):  # the tests may run as root, who may write anything
        return False if os.fspath(path) == str(locked) else real_access(path, mode)

    monkeypatch.setattr(cli.os, "access", access)
    for path in (folder, locked):
        code, out, err = run(["construct", "4,3,1", "--output", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}") and len(err.splitlines()) == 1
    assert locked.read_text() == "an earlier dump\n"



def test_empty_dump_path_exits_2_before_the_walk(tmp_path, capsys, monkeypatch):
    # an empty --output is refused, not read as "no flag"
    def construct(mu):
        raise AssertionError("the class was walked")

    monkeypatch.setattr(cdes, "construct_extension", construct)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["construct", "3,1", "--output", ""], capsys)
    assert (code, out) == (2, "")
    assert err == "error: cannot write to an empty --output path\n"
    assert os.listdir(tmp_path) == []

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


@pytest.mark.parametrize(
    "argv, digest",
    [
        # the README example
        (
            ["series", "12", "--s-max", "3"],
            "5088bf4ba26728cfbf5277743e8c945e6a034c39c884d751512e92328b48c08f",
        ),
        (
            ["series", "100", "--s-max", "10"],
            "debae744354c9711d72154cd527c6473e02bfa73967db553ed66617017ce1de1",
        ),
    ],
)
def test_series_json_bytes_are_pinned(argv, digest, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


# SHA-256 of the stdout of `hooklie hooks <r> <s> --format json` as the
# power-sum projection of the hook oracle wrote it; the specialization of
# Thrall's product must keep every byte.
HOOKS_DIGESTS = {
    "1 40": "a5c6cc235b028297760280a0780e754883324575f0539cd7ddc3c88eaa7c7c7c",
    "40 8": "02d0145e92867eed0707e42e568763a1d55b90d87d69fdc8b828f5d18786708c",
    "2 20": "187f4c4dbcc863b8257ac660cea5724d33b420ef911b5e7e53eb1aca9daa7cef",
}


@pytest.mark.parametrize("args", sorted(HOOKS_DIGESTS))
def test_hooks_json_bytes_are_pinned(args, capsys):
    code, out, _ = run(["hooks", *args.split(), "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HOOKS_DIGESTS[args]


# SHA-256 of the stdout of `hooklie verify <args> --format json` as each
# suite read and recorded its own bounds, and of every suite at its default
# bounds as each recorded its own checks; the table of suite bounds and the
# one runner of suite checks must keep every byte.
VERIFY_DIGESTS = {
    "main-theorem --n-max 5": (
        "f3b24a0b00c9fd7261a828b1f3f2a340c59bd0b33d790fe532e7e2706f1a0a54"
    ),
    "squarefree --r-max 6 --s-max 3": (
        "beaf6237717c867c09c88cc8e89c8fb01c6e911691cd5680a8bbafb617041a0d"
    ),
    "main-theorem": "c4a50cf0232d551e135e9c8bf9fe52532fcd5f82b4437834ddef945037bda9d4",
    "squarefree": "89383b7df1ef39f14765d66d77890794a94106550b855b620f3c5f81dd05eb52",
    "unimodality": "c5a4afd8206f94fe38c324f6fb13a6f382faecadbf3654802f29c0e9ff6512b6",
    "gr-fibers": "41ecbdb17f694778dd71154d07de825db2f79f4f05ba1cfc733e291af59fcce4",
    "kw-identity": "a07776da961aae3dd04c73dad86e1b90deec6ea6832c5a73bd527da3aee0e6c0",
    "cellini": "bf5c3ed8f4959ddf5692fbf147007ca6e6b249a013c0c95c95148eabe8a1d1fd",
    "affine-fibers": "3c2e18af8d103eacc7f22c0c17b5da94452bad83322cf58013501b4ea5c72d83",
}


@pytest.mark.parametrize("args", sorted(VERIFY_DIGESTS))
def test_verify_json_bytes_are_pinned(args, capsys):
    code, out, _ = run(["verify", *args.split(), "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[args]


def test_parser_is_built_once(tmp_path, capsys):
    assert build_parser() is build_parser()
    # parsing leaves the shared parser as it was: a second run prints the
    # same bytes
    argv = ["construct", "4", "--output", str(tmp_path / "ext.json"), "--format", "json"]
    first = run(argv, capsys)
    assert first[0] == 0
    assert run(argv, capsys)[:2] == first[:2]


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


def test_csv_and_text_show_empty_lists_and_dicts(capsys):
    # csv and text walk the report as json lays it out, so an empty list or
    # dict is a field of its own, not a missing one
    code, out, _ = run(["verify", "cellini", "--n-max", "1", "--format", "csv"], capsys)
    assert code == 0
    assert "payload.closed_classes,[]" in out.splitlines()
    code, out, _ = run(["hooks", "2", "1", "--format", "csv"], capsys)
    assert code == 0
    assert "assertions,[]" in out.splitlines()
    code, out, _ = run(["verify", "gr-fibers", "--n-max", "2", "--format", "csv"], capsys)
    assert code == 0
    assert "payload,{}" in out.splitlines()
    code, out, _ = run(
        ["verify", "unimodality", "--r-max", "2", "--s-max", "2", "--format", "text"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[4:6] == ["counterexamples = []", "pairs_scanned = 4"]


# -- verify suites through the CLI -------------------------------------------


def test_verify_kw_identity_passes(capsys):
    code, doc, _ = run_json(["verify", "kw-identity", "--n-max", "8"], capsys)
    assert code == 0
    assert doc["passed"] is True


def test_verify_kw_identity_admits_n_max_18(capsys):
    # 2^18 = 262,144 subsets of [18] are under the walk limit
    code, doc, _ = run_json(["verify", "kw-identity", "--n-max", "18"], capsys)
    assert code == 0
    assert doc["passed"] is True


def test_verify_kw_identity_over_walk_limit_exits_2_before_walking(
    monkeypatch, capsys
):
    # 2^19 = 524,288 subsets of [19] are over it
    def no_work(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(lie, "hook_mults", no_work)
    monkeypatch.setattr(lie, "subset_sum_count", no_work)
    code, out, err = run(["verify", "kw-identity", "--n-max", "19"], capsys)
    assert code == 2
    assert out == ""
    assert "walk limit" in err


def test_verify_unimodality_builds_each_table_once(monkeypatch, capsys):
    builds = []
    table = lie._column_row_table

    def counted(r, s_max):
        builds.append((r, s_max))
        return table(r, s_max)

    monkeypatch.setattr(lie, "_column_row_table", counted)
    hooklie.clear_memos()
    code, _, _ = run(["verify", "unimodality", "--r-max", "10", "--s-max", "6"], capsys)
    assert code == 0
    assert builds == [(r, 6) for r in range(1, 11)]


def test_verify_unimodality_lists_counterexamples_in_ascending_order(
    monkeypatch, capsys
):
    monkeypatch.setattr(suites, "is_unimodal", lambda seq: False)
    code, doc, _ = run_json(
        ["verify", "unimodality", "--r-max", "3", "--s-max", "3"], capsys
    )
    assert code == 1
    found = [(c["r"], c["s"]) for c in doc["payload"]["counterexamples"]]
    assert found == [(r, s) for r in range(1, 4) for s in range(1, 4)]


def test_verify_main_theorem_small(capsys):
    code, doc, _ = run_json(["verify", "main-theorem", "--n-max", "6"], capsys)
    assert code == 0
    assert all(a["passed"] for a in doc["assertions"])


def test_verify_main_theorem_past_default_n_limit(capsys):
    code, doc, _ = run_json(["verify", "main-theorem", "--n-max", "14"], capsys)
    assert code == 0
    assert doc["passed"] is True
    assert doc["payload"]["classes_scanned"] == sum(
        len(partition_list(n)) for n in range(1, 15)
    ) == 507


def test_failed_exactness_check_exits_1_without_traceback(monkeypatch, capsys):
    def broken(mu):
        raise ArithmeticError(f"negative Des fiber for {mu}")

    monkeypatch.setattr(cdes, "descent_distribution", broken)
    code, out, err = run(["verify", "main-theorem", "--n-max", "3"], capsys)
    assert code == 1
    assert out == ""
    assert "error: negative Des fiber" in err
    assert "Traceback" not in err


def test_gr_fibers_mismatch_names_the_moved_masks(monkeypatch, capsys):
    # one unit of the class (2,1,1)'s Des table moved from one mask to another
    true_distribution = cdes.descent_distribution
    mu = (2, 1, 1)
    fibers = list(true_distribution(mu).table)
    src = min(mask for mask, c in enumerate(fibers) if c)
    dst = next(mask for mask in range(7, -1, -1) if mask != src)
    fibers[src] -= 1
    fibers[dst] += 1
    tampered = tuple(fibers)

    def moved(nu):
        dist = true_distribution(nu)
        return dist._replace(table=tampered) if nu == mu else dist

    monkeypatch.setattr(cdes, "descent_distribution", moved)
    code, doc, _ = run_json(["verify", "gr-fibers", "--n-max", "4"], capsys)
    assert code == 1
    failed = [a for a in doc["assertions"] if not a["passed"]]
    assert [a["name"] for a in failed] == ["descent-fibers-match-schur-expansion-n=4"]
    named = [{"mu": list(mu), "J": suites.subset_list(mask)} for mask in sorted((src, dst))]
    assert failed[0]["detail"] == f"{named}"



def failed_assertions(argv, capsys) -> dict:
    """{name: detail} of the failed assertions of a verify run that exits 1."""
    code, doc, _ = run_json(argv, capsys)
    assert code == 1
    return {a["name"]: a["detail"] for a in doc["assertions"] if not a["passed"]}


def test_main_theorem_mismatch_names_the_class(monkeypatch, capsys):
    true_solve = cdes.solve_extension
    target = cdes.descent_distribution((3, 1))

    def wrong(dist):
        return cdes.Infeasible("negative-count") if dist == target else true_solve(dist)

    monkeypatch.setattr(cdes, "solve_extension", wrong)
    failed = failed_assertions(["verify", "main-theorem", "--n-max", "5"], capsys)
    assert failed == {
        "feasibility-matches-squarefree-rectangle-characterization-n=4": "[[3, 1]]"
    }


def test_squarefree_suite_reports_each_failure(monkeypatch, capsys):
    argv = ["verify", "squarefree", "--r-max", "8", "--s-max", "3"]
    true_criterion = lie.squarefree_criterion
    true_quotient = lie.quotient_series

    def raising_at_4(route):
        def doctored(r, s_max):
            if r == 4:
                raise ArithmeticError("doctored")
            return route(r, s_max)

        return doctored

    monkeypatch.setattr(lie, "squarefree_criterion", raising_at_4(true_criterion))
    failed = failed_assertions(argv, capsys)
    assert failed == {"moment-equals-moebius": "[{'r': 4, 'error': 'doctored'}]"}

    def flipped_at_6(r, s_max):
        crit = true_criterion(r, s_max)
        if r == 6:
            crit = crit._replace(divisible=tuple(not d for d in crit.divisible))
        return crit

    monkeypatch.setattr(lie, "squarefree_criterion", flipped_at_6)
    failed = failed_assertions(argv, capsys)
    detail = "[{'r': 6, 'divisible': [True, True, True]}]"
    assert failed == {"divisible-by-(1+x)^2-iff-square-factor": detail}

    monkeypatch.setattr(lie, "squarefree_criterion", true_criterion)
    monkeypatch.setattr(lie, "quotient_series", raising_at_4(true_quotient))
    failed = failed_assertions(argv, capsys)
    assert failed == {"square-quotients-nonnegative": "[{'r': 4, 'error': 'doctored'}]"}


def test_kw_identity_mismatch_names_n_and_k(monkeypatch, capsys):
    true_count = lie.subset_sum_count

    def off_by_one(n, k, include_n=False):
        return true_count(n, k, include_n) + ((n, k) == (5, 2))

    monkeypatch.setattr(lie, "subset_sum_count", off_by_one)
    failed = failed_assertions(["verify", "kw-identity", "--n-max", "6"], capsys)
    assert failed == {
        "full-cycle-hooks-count-subset-sums": "[{'n': 5, 'k': 2}]",
        "witt-coefficients-count-subset-sums": "[{'n': 5, 'k': 2}]",
    }


def test_affine_fibers_mismatch_names_the_class_and_subset(monkeypatch, capsys):
    true_fiber = cdes.affine_ribbon_fiber

    def off_by_one(mu, mask, mults):
        return true_fiber(mu, mask, mults) + ((mu, mask) == ((3, 1), 0b101))

    monkeypatch.setattr(cdes, "affine_ribbon_fiber", off_by_one)
    failed = failed_assertions(["verify", "affine-fibers", "--n-max", "5"], capsys)
    assert failed == {
        "cdes-fibers-match-cyclic-ribbon-expansion-n=4": "[{'mu': [3, 1], 'J': [1, 3]}]"
    }


def test_cellini_reports_rotation_closure(capsys):
    # (5000) is over the walk limit but has no fixed point: answered, not refused
    for mu, closed in (("2,1", True), ("3,1", True), ("2,2", False), ("5000", False)):
        code, doc, _ = run_json(["cellini", mu], capsys)
        assert (code, doc["payload"], doc["passed"]) == (0, {"closed": closed}, True)
        code, out, _ = run(["cellini", mu, "--format", "text"], capsys)
        assert code == 0
        assert f"closed = {closed}" in out.splitlines()

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


# SHA-256 and length of the stdout of `construct <mu> --format json`, run
# with --output ext.json in an empty working directory
REPORT_DIGESTS = {
    "4": ("6d2191f28dfcc2a509595a2fc8434f78e3e485a03010d7648cc9f2d856da49d5", 1_053),
    "5,3": ("67101f0208d40a4769215bcdd52c6cb1f6c2df0e0b85ba5a68a9b7a66a673a95", 26_819),
}


@pytest.mark.parametrize("mu", sorted(REPORT_DIGESTS))
def test_construct_report_bytes_are_pinned(mu, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["construct", mu, "--output", "ext.json", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    data = out.encode("ascii")
    assert (hashlib.sha256(data).hexdigest(), len(data)) == REPORT_DIGESTS[mu]


@pytest.mark.parametrize("mu", sorted(DUMP_DIGESTS))
def test_construct_dump_bytes_are_pinned(mu, tmp_path, capsys):
    out_file = tmp_path / "ext.json"
    code, _, _ = run(["construct", mu, "--output", str(out_file)], capsys)
    assert code == 0
    data = out_file.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == DUMP_DIGESTS[mu]


def test_construct_reports_render_as_json_dumps(tmp_path):
    # render_json templates the fiber table; every byte must still be json's,
    # also when the dump path holds the text of the spliced key, a backslash,
    # a quote and a newline
    tricky = tmp_path / 'a "fibers": [] \\ "b"\n    "fibers": []'
    tricky.mkdir()
    paths = [str(tmp_path / "ext.json"), str(tricky / "ext.json")]
    reports = []
    for n in range(1, 9):
        for mu in partition_list(n):
            argv = ["construct", ",".join(map(str, mu)), "--output", paths[0]]
            reports.append(cli.cmd_construct(build_parser().parse_args(argv)))
    argv = ["construct", "3,1", "--output", paths[1]]
    reports.append(cli.cmd_construct(build_parser().parse_args(argv)))
    # n = 10: subsets that hold the two-digit entry 10
    argv = ["construct", "2" + ",1" * 8, "--output", paths[0]]
    reports.append(cli.cmd_construct(build_parser().parse_args(argv)))
    assert len(reports) == 68
    # the 49 feasible classes of n <= 8, not rectangles with a square-free
    # part, (3,1) again and (2,1^8)
    assert sum("fibers" in r.payload for r in reports) == 51
    assert reports[-2].payload["dump"] == paths[1]
    assert reports[-1].payload["class_size"] == 45
    assert any(10 in row["subset"] for row in reports[-1].payload["fibers"])
    for report in reports:
        doc = {
            "command": report.command,
            "parameters": report.parameters,
            "payload": report.payload,
            "assertions": report.assertions,
            "passed": report.passed,
        }
        assert cli.render_json(report) == json.dumps(doc, sort_keys=True, indent=2)


def test_failed_dump_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    # a write that fails partway (here: disk full) removes the partial dump,
    # which may have truncated an earlier one
    def write_extension(sol, fh):
        fh.write('{\n "elements": [')
        fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_extension", write_extension)
    out_file = tmp_path / "ext.json"
    out_file.write_text("an earlier dump\n")
    code, out, err = run(["construct", "3,1", "--output", str(out_file)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
    assert os.strerror(errno.ENOSPC) in err
    assert not out_file.exists()


def test_failed_dump_write_keeps_a_link_to_a_device(tmp_path, capsys, monkeypatch):
    # a broken pipe behind --output (say /dev/stdout into head) must not
    # unlink the path: only a regular file is ever removed
    def write_extension(sol, fh):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(cli, "write_extension", write_extension)
    link = tmp_path / "out"
    link.symlink_to(os.devnull)
    code, out, err = run(["construct", "3,1", "--output", str(link)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
    assert link.is_symlink()


def test_construct_infeasible_reports_reason(tmp_path, capsys):
    out_file = tmp_path / "x.json"
    code, doc, _ = run_json(["construct", "3", "--output", str(out_file)], capsys)
    assert code == 0
    assert not out_file.exists()  # the dump is opened only for a feasible class
    assert doc["payload"]["feasible"] is False
    assert doc["payload"]["reason"] == "nonzero-full-set"
    assert doc["payload"]["certificate_violation"]["reason"] == (
        "alternating-sum-nonzero"
    )


def test_construct_escher_note(capsys):
    # (1^n) with n >= 2 and (2^k) get the note; another infeasible class not
    for mu in ("2,2", "1,1,1"):
        code, doc, _ = run_json(["construct", mu], capsys)
        assert code == 0
        assert doc["payload"]["feasible"] is False
        assert "Escher" in doc["payload"]["note"]
    code, doc, _ = run_json(["construct", "3"], capsys)
    assert code == 0
    assert doc["payload"]["feasible"] is False
    assert "note" not in doc["payload"]


# -- module runs -------------------------------------------------------------


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env(env_extra=None) -> dict:
    """The environment of a child interpreter that imports hooklie from src."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _module_run(args, env_extra=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hooklie", *args],
        capture_output=True,
        text=True,
        env=_child_env(env_extra),
        timeout=600,
    )
    return proc


def test_cold_start_loads_no_heavy_stdlib_module():
    # every hooklie command starts a fresh interpreter, which pays for each
    # module the package imports; none of these is needed to start
    heavy = ("dataclasses", "fractions", "decimal", "inspect", "csv")
    probe = "import sys, hooklie, hooklie.cli; print(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hooklie.cli" in loaded
    assert [name for name in heavy if name in loaded] == []


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
    a = _module_run(["hooks", "5", "1", "--format", "json"])
    assert a.returncode == 0
    doc = json.loads(a.stdout)
    witt = {row["k"]: row["value"] for row in doc["payload"]["witt"]}
    # f(-x) = (1/5)((1-x)^5 - (1-x^5)) = -x + 2x^2 - 2x^3 + x^4
    assert witt == {0: "0", 1: "1", 2: "2", 3: "2", 4: "1", 5: "0"}


def test_entrypoint_exits_with_the_main_status(monkeypatch, capsys):
    for argv, status in ((["hooks", "1", "1"], 0), (["hooks", "0", "1"], 2)):
        monkeypatch.setattr(sys, "argv", ["hooklie", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == status
    assert capsys.readouterr().err.splitlines()[-1] == "error: r must be >= 1"
