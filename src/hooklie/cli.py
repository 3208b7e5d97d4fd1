"""Command line front end.

Subcommands: hooks, series, verify <suite>, construct, cellini;
each takes only the flags it reads.  Reports render as json (deterministic
given the command line; no file is read), csv, or text; timing always goes
to stderr.
SUITES is the one table of verify suites and the bounds each reads, with
their defaults; verify refuses a bound flag its suite does not read.  A
suite is a generator suite(payload, **bounds).  It passes check_walk
the largest walk of its scan before its first yield, writes its counters
into payload, and yields (name, failures) or (name, failures, note) per
assertion; verify records each, failed iff failures is non-empty, with
str(failures) or else note as the detail.
Exit codes: 0 all assertions passed, 1 an assertion failed (including an
exactness check that raised ArithmeticError), 2 usage errors, including
every ValueError the library raises on a bad input and any input that
would walk more than combinat.WALK_LIMIT items.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Tuple

from . import cdes, characters, lie
from .combinat import (
    check_walk,
    class_walk,
    full_mask,
    is_squarefree,
    moebius,
    partition_list,
    ribbon_walk,
    subset_elements,
    subset_walk,
)
from .series import IntPolynomial, is_unimodal

DEFAULT_S_MAX = 5


class Report:
    def __init__(self, command: str, parameters: dict, payload: dict):
        self.command = command
        self.parameters = parameters
        self.payload = payload
        self.assertions: List[dict] = []

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        entry = {"name": name, "passed": bool(passed)}
        if detail:
            entry["detail"] = detail
        self.assertions.append(entry)


class UsageError(Exception):
    pass


# -- serialization helpers ---------------------------------------------------


def coeff_table(seq) -> list:
    """Sequence as [{"k": index, "value": decimal string}], exact."""
    return [{"k": k, "value": str(v)} for k, v in enumerate(seq)]


def poly_table(p: IntPolynomial) -> list:
    return coeff_table(p.coeffs)


def subset_list(mask: int) -> list:
    return list(subset_elements(mask))


# The construct report's fiber table as json.dumps(doc, sort_keys=True,
# indent=2) lays it out: the "fibers" key at depth 2, its records at depth 3,
# their keys at depth 4 and the subset entries at depth 5.  A json string
# never holds a raw newline, so _FIBERS_KEY can only be a key of a depth-1
# dict, and of those only the payload has a "fibers" key.
_FIBERS_KEY = '\n    "fibers": '
_FIBER_ROW = '      {\n        "count": %d,\n        "subset": %s\n      }'


def render_json(report: Report) -> str:
    """The report as json.dumps(doc, sort_keys=True, indent=2), byte for byte.

    json's indent encoder is pure Python, so the construct report's fiber
    table (up to 2^n records) is filled into a template instead and spliced
    in where json wrote an empty one.
    """
    doc = {
        "command": report.command,
        "parameters": report.parameters,
        "payload": report.payload,
        "assertions": report.assertions,
        "passed": report.passed,
    }
    fibers = report.payload.get("fibers") if report.command == "construct" else None
    if not fibers:
        return json.dumps(doc, sort_keys=True, indent=2)
    doc["payload"] = dict(report.payload, fibers=[])
    text = json.dumps(doc, sort_keys=True, indent=2)
    head, _, rest = text.partition(_FIBERS_KEY + "[]")
    rows = ",\n".join(
        _FIBER_ROW % (row["count"], cdes._int_list(row["subset"], 4, 2))
        for row in fibers
    )
    return "".join((head, _FIBERS_KEY, "[\n", rows, "\n    ]", rest))


def _leaves(value, path: tuple = ()) -> Iterator[tuple]:
    """(path, scalar) for each scalar inside value, dict keys sorted (as
    str) and list indices (as int) in order; an empty list or dict is a
    leaf of its own, so csv and text show it as [] or {}."""
    if isinstance(value, dict) and value:
        for key in sorted(value):
            yield from _leaves(value[key], path + (str(key),))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def render_csv(report: Report) -> str:
    import csv  # only this renderer needs it; kept off the start-up path

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    for field, value in (
        ("command", report.command),
        ("parameters", report.parameters),
        ("payload", report.payload),
        ("assertions", report.assertions),
        ("passed", report.passed),
    ):
        for path, leaf in _leaves(value):
            name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
            writer.writerow((field + name, leaf))
    return buf.getvalue().rstrip("\n")


def render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for key in sorted(report.parameters):
        lines.append(f"  {key} = {report.parameters[key]}")
    lines.extend(
        f"{'.'.join(map(str, path))} = {value}"
        for path, value in _leaves(report.payload)
        if path  # an empty payload adds no line
    )
    for a in report.assertions:
        mark = "PASS" if a["passed"] else "FAIL"
        detail = f"  ({a['detail']})" if a.get("detail") else ""
        lines.append(f"[{mark}] {a['name']}{detail}")
    lines.append(f"result: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


RENDERERS: Dict[str, Callable[[Report], str]] = {
    "json": render_json,
    "csv": render_csv,
    "text": render_text,
}


# -- shared helpers ----------------------------------------------------------


def parse_partition(text: str) -> Tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.replace(" ", "").split(",") if p != "")
    except ValueError:
        raise UsageError(f"cannot parse partition {text!r}")
    if not parts or any(p < 1 for p in parts):
        raise UsageError(f"partition parts must be positive: {text!r}")
    return tuple(sorted(parts, reverse=True))


def no_extension_payload(cert) -> dict:
    out = {"reason": cert.reason}
    if cert.index is not None:
        out["index"] = cert.index
    return out


# -- subcommands -------------------------------------------------------------


def cmd_hooks(args) -> Report:
    r, s = args.r, args.s
    witt = lie.witt_coeffs(r)
    column_row = lie.column_row_mults(r, s)
    hooks = lie.hook_mults(r, s)
    cert = lie.extension_certificate((r,) * s)
    payload = {
        "n": r * s,
        "witt": coeff_table(witt),
        "column_row": coeff_table(column_row),
        "hooks": coeff_table(hooks),
        "hook_poly": IntPolynomial(hooks).pretty(),
    }
    # cert is N_(r,s)/(1+x), or a NoExtension when 1 + x does not divide it
    if isinstance(cert, lie.NoExtension):
        payload["certificate"] = None
        payload["no_extension"] = no_extension_payload(cert)
        payload["hook_poly_factored"] = None
    else:
        payload["certificate"] = coeff_table(cert)
        quotient = IntPolynomial(cert).pretty()
        payload["hook_poly_factored"] = {"factor": "1+x", "quotient": quotient}
    return Report("hooks", {"r": r, "s": s}, payload)


def cmd_series(args) -> Report:
    r, s_max = args.r, args.s_max
    report = Report("series", {"r": r, "s_max": s_max}, {})
    series = lie.column_row_series(r, s_max)
    crit = lie.squarefree_criterion(r, s_max)
    payload = {
        "squarefree": crit.squarefree,
        "moment": crit.moment,
        "coefficients": [
            {"s": s, "poly": poly_table(series.coeff(s))} for s in range(s_max + 1)
        ],
        "divisible_by_square": [
            {"s": s + 1, "divisible": div} for s, div in enumerate(crit.divisible)
        ],
    }
    quotient = lie.quotient_series(r, s_max)
    payload["square_quotient"] = (
        {
            "witt_quotient": poly_table(quotient.poly),
            "series_quotient": [
                {"s": s, "poly": poly_table(quotient.series.coeff(s))}
                for s in range(s_max + 1)
            ],
        }
        if quotient is not None
        else None
    )
    report.payload = payload
    report.check(
        "moment-equals-moebius", crit.moment == moebius(r), f"moment={crit.moment}"
    )
    report.check(
        "divisible-by-(1+x)^2-iff-square-factor",
        crit.dichotomy_holds,
        f"squarefree={crit.squarefree}",
    )
    return report


def cmd_cellini(args) -> Report:
    mu = parse_partition(args.mu)
    report = Report("cellini", {"mu": list(mu)}, {})
    report.payload = {"closed": cdes.cellini_closed(mu)}
    return report


def cmd_construct(args) -> Report:
    mu = parse_partition(args.mu)
    report = Report("construct", {"mu": list(mu)}, {})
    if args.output == "":
        raise UsageError("cannot write to an empty --output path")
    out_path = args.output or f"extension-{'-'.join(map(str, mu))}.json"
    folder = os.path.dirname(out_path) or "."  # checked before the class walk
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise UsageError(f"cannot write {out_path}: no writable directory {folder}")
    if os.path.isdir(out_path):
        raise UsageError(f"cannot write {out_path}: it is a directory")
    if os.path.exists(out_path) and not os.access(out_path, os.W_OK):
        raise UsageError(f"cannot write {out_path}: the file is not writable")
    sol = cdes.construct_extension(mu)
    if isinstance(sol, cdes.Infeasible):
        payload = {
            "feasible": False,
            "reason": sol.reason,
            "subset": list(sol.subset) if sol.subset else None,
        }
        if sol.note:
            payload["note"] = sol.note
        cert = lie.extension_certificate(mu)
        if isinstance(cert, lie.NoExtension):
            payload["certificate_violation"] = no_extension_payload(cert)
        report.payload.update(payload)
        return report
    try:  # opened only now, so an infeasible class leaves no file
        fh = open(out_path, "w", encoding="ascii")
        try:
            with fh:
                fibers = cdes.write_extension(sol, fh)
                fh.write("\n")
        except OSError:
            # no truncated dump is left behind; a link or a device such as
            # /dev/stdout is never removed
            if os.path.isfile(out_path) and not os.path.islink(out_path):
                os.remove(out_path)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}")
    report.payload.update(
        {
            "feasible": True,
            "class_size": len(sol.elements),
            "fibers": fibers,
            "dump": out_path,
        }
    )
    for name, ok in sorted(sol.axioms.items()):
        report.check(f"axiom-{name}", ok)
    return report


# -- verification suites -----------------------------------------------------


def suite_main_theorem(payload: dict, n_max: int) -> Iterator[tuple]:
    """Extension exists iff the class is not a rectangle with square-free
    part size; exhaustive over n <= n_max."""
    check_walk(subset_walk(n_max), f"the subsets of [{n_max}]")
    scanned = 0
    for n in range(1, n_max + 1):
        bad = []
        for mu in partition_list(n):
            scanned += 1
            infeasible = isinstance(
                cdes.solve_extension(cdes.descent_distribution(mu)), cdes.Infeasible
            )
            rect = lie._rectangle(mu)
            if infeasible != (rect is not None and is_squarefree(rect[0])):
                bad.append(list(mu))
        yield f"feasibility-matches-squarefree-rectangle-characterization-n={n}", bad
    payload["classes_scanned"] = scanned


def suite_squarefree(payload: dict, r_max: int, s_max: int) -> Iterator[tuple]:
    """(1+x)^2 divides every [y^s] iff r has a square factor; the moment
    identity; non-negativity of the square quotients."""
    bad_dichotomy = []
    bad_moment = []
    bad_quotient = []
    for r in range(1, r_max + 1):
        try:
            crit = lie.squarefree_criterion(r, s_max)
        except ArithmeticError as exc:
            bad_moment.append({"r": r, "error": str(exc)})
            continue
        if not crit.dichotomy_holds:
            bad_dichotomy.append({"r": r, "divisible": list(crit.divisible)})
        if not crit.squarefree:
            try:
                lie.quotient_series(r, s_max)
            except ArithmeticError as exc:
                bad_quotient.append({"r": r, "error": str(exc)})
    payload["r_scanned"] = r_max
    yield "moment-equals-moebius", bad_moment
    yield "divisible-by-(1+x)^2-iff-square-factor", bad_dichotomy
    yield "square-quotients-nonnegative", bad_quotient


def suite_unimodality(payload: dict, r_max: int, s_max: int) -> Iterator[tuple]:
    """Hook multiplicity sequences are unimodal in the scanned range;
    counterexamples are reported, never assumed absent."""
    violations = []
    for r in range(1, r_max + 1):
        # largest s first, so the column-row table of r is built once
        found = []
        for s in range(s_max, 0, -1):
            m = lie.hook_mults(r, s)
            if not is_unimodal(m):
                found.append({"r": r, "s": s, "hooks": [str(v) for v in m]})
        violations.extend(reversed(found))
    payload["pairs_scanned"] = r_max * s_max
    payload["counterexamples"] = violations
    yield "hook-multiplicities-unimodal", violations


def suite_gr_fibers(payload: dict, n_max: int) -> Iterator[tuple]:
    """Schur-expansion descent fibers (multiplicities times standard
    tableaux by descent set) match the Gessel-Reutenauer fibers of
    descent_distribution for every class and every descent set, n <= n_max."""
    check_walk(subset_walk(n_max), f"the subsets of [{n_max}]")
    # no tableau is walked: a class's table merges at most 2^(n-1) p(n) (mask,
    # shape) counts, and the (row, mask) table of a shape lam has at most
    # min(f^lam, l(lam) 2^(n-1)) entries, so all of S_n's at most t(n) = sum
    # of f^lam <= 2^(n-1) p(n) for n <= 12 (140,152 <= 157,696); both pass at 13
    check_walk(
        ribbon_walk(n_max), f"the (mask, shape) pairs of a class of S_{n_max}"
    )
    for n in range(1, n_max + 1):
        bad = []
        for mu in partition_list(n):
            fibers = cdes.descent_distribution(mu).table
            table = cdes._straight_fibers(mu)
            bad.extend(
                {"mu": list(mu), "J": subset_list(mask)}
                for mask, count in enumerate(fibers)
                if table.get(mask, 0) != count
            )
        yield f"descent-fibers-match-schur-expansion-n={n}", bad


def suite_kw_identity(payload: dict, n_max: int) -> Iterator[tuple]:
    """Hook multiplicities of the full cycle count k-subsets of [n-1]
    with sum 1 mod n; Witt coefficients count them inside [n]."""
    # subset_sum_count walks every subset of [n]
    check_walk(subset_walk(n_max), f"the subsets of [{n_max}]")
    bad_hooks = []
    bad_witt = []
    for n in range(1, n_max + 1):
        m = lie.hook_mults(n, 1)
        for k in range(n):
            if m[k] != lie.subset_sum_count(n, k, include_n=False):
                bad_hooks.append({"n": n, "k": k})
        f = lie.witt_coeffs(n)
        for k in range(n + 1):
            if f[k] != lie.subset_sum_count(n, k, include_n=True):
                bad_witt.append({"n": n, "k": k})
    payload["n_scanned"] = n_max
    yield "full-cycle-hooks-count-subset-sums", bad_hooks
    yield "witt-coefficients-count-subset-sums", bad_witt


def suite_cellini(payload: dict, n_max: int) -> Iterator[tuple]:
    """Scan 2 <= n <= n_max for classes whose Cellini cyclic descent
    multiset is rotation closed (n = 1 is degenerate: rotation is the
    identity map on subsets of [1])."""
    # cellini_closed walks only the classes with one fixed point, but
    # (n-1, 1) is one of them and a largest class of S_n, n >= 2, as no
    # centralizer order is below its own, so the bound is unchanged
    if n_max > 1:
        check_walk(
            class_walk((n_max - 1, 1)), f"the elements of a class of S_{n_max}"
        )
    closed = []
    for n in range(2, n_max + 1):
        for mu in partition_list(n):
            if cdes.cellini_closed(mu):
                closed.append(list(mu))
    expected = [mu for mu in ([2, 1], [3, 1]) if sum(mu) <= n_max]
    payload["closed_classes"] = closed
    yield (
        "cellini-closed-exactly-two-small-classes",
        [mu for mu in closed + expected if (mu in closed) != (mu in expected)],
        f"found={closed}",
    )


def suite_affine_fibers(payload: dict, n_max: int) -> Iterator[tuple]:
    """For every feasible class, the inclusion-exclusion of cyclic ribbon
    characters reproduces every solved cDes fiber size, n <= n_max."""
    check_walk(subset_walk(n_max), f"the subsets of [{n_max}]")
    # affine_ribbon_fiber walks every submask of every mask: 3^n pairs
    check_walk(3**n_max, f"the (mask, submask) pairs of a class of S_{n_max}")
    for n in range(1, n_max + 1):
        bad = []
        feasible = 0
        for mu in partition_list(n):
            sol = cdes.solve_extension(cdes.descent_distribution(mu))
            if isinstance(sol, cdes.Infeasible):
                continue
            feasible += 1
            mults = characters.schur_multiplicities(mu)
            for mask in range(1, full_mask(n)):
                if cdes.affine_ribbon_fiber(mu, mask, mults) != sol.count(mask):
                    bad.append({"mu": list(mu), "J": subset_list(mask)})
        yield (
            f"cdes-fibers-match-cyclic-ribbon-expansion-n={n}",
            bad,
            f"feasible_classes={feasible}",
        )


# name: (suite, {bound it reads: default}); the bounds are the report's parameters
SUITES: Dict[str, Tuple[Callable[..., Iterator[tuple]], Dict[str, int]]] = {
    "main-theorem": (suite_main_theorem, {"n_max": 8}),
    "squarefree": (suite_squarefree, {"r_max": 30, "s_max": DEFAULT_S_MAX}),
    "unimodality": (suite_unimodality, {"r_max": 40, "s_max": 8}),
    "gr-fibers": (suite_gr_fibers, {"n_max": 6}),
    "kw-identity": (suite_kw_identity, {"n_max": 12}),
    "cellini": (suite_cellini, {"n_max": 6}),
    "affine-fibers": (suite_affine_fibers, {"n_max": 7}),
}
BOUNDS = sorted({name for _, bounds in SUITES.values() for name in bounds})


def cmd_verify(args) -> Report:
    suite, defaults = SUITES[args.suite]
    bounds = dict(defaults)
    for name in BOUNDS:
        value = getattr(args, name)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name not in defaults:
            raise UsageError(f"verify {args.suite} does not read {flag}")
        if value < 1:
            raise UsageError(f"{flag} must be >= 1")
        bounds[name] = value
    report = Report("verify", {"suite": args.suite, **bounds}, {})
    for name, failures, *note in suite(report.payload, **bounds):
        report.check(name, not failures, f"{failures}" if failures else "".join(note))
    return report


# -- argument parsing and dispatch -------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="hooklie",
        description="Hook constituents of higher Lie characters and cyclic "
        "descent extensions on conjugacy classes, exactly.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("hooks", help="coefficient profile of a rectangular class")
    sp.add_argument("r", type=int)
    sp.add_argument("s", type=int)

    sp = sub.add_parser("series", help="generating series and square divisibility")
    sp.add_argument("r", type=int)
    sp.add_argument("--s-max", type=int, default=DEFAULT_S_MAX,
                    help="truncation order in y")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    for name in BOUNDS:
        sp.add_argument("--" + name.replace("_", "-"), type=int,
                        help=f"scan bound on {name[0]}")

    sp = sub.add_parser("construct", help="build an explicit cyclic extension")
    sp.add_argument("mu", help="partition, e.g. 2,2,1")
    sp.add_argument("--output", default=None, help="dump file path")

    sp = sub.add_parser("cellini", help="rotation closure of Cellini descents")
    sp.add_argument("mu", help="partition, e.g. 2,1")

    for sp in sub.choices.values():
        sp.add_argument("--format", choices=sorted(RENDERERS), default="text",
                        help="report format on stdout")
    return parser


COMMANDS = {
    "hooks": cmd_hooks,
    "series": cmd_series,
    "verify": cmd_verify,
    "construct": cmd_construct,
    "cellini": cmd_cellini,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = COMMANDS[args.cmd](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an exactness check failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    print(RENDERERS[args.format](report))
    print(f"elapsed-seconds: {elapsed:.3f}", file=sys.stderr)
    return 0 if report.passed else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
