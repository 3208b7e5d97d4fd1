"""Command line front end.

Subcommands: hooks, series, verify <suite>, construct, cellini, witt;
each takes only the flags it reads.  Reports render as json (deterministic
given the command line; no file is read), csv, or text; timing always goes
to stderr.
Exit codes: 0 all assertions passed, 1 an assertion failed (including an
exactness check that raised ArithmeticError), 2 usage errors (including an
input that would walk more than cdes.WALK_LIMIT subsets, class elements
or, in the ribbon suites, (mask, shape) or (mask, submask) pairs; a verify
suite checks every class it will scan before it scans any).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from . import cdes, characters, lie
from .combinat import (
    full_mask,
    is_squarefree,
    moebius,
    partition_list,
    subset_elements,
)
from .series import IntPolynomial, is_unimodal, witt_transform

DEFAULT_N_MAX = 8
DEFAULT_R_MAX = 40
DEFAULT_S_MAX = 5
UNIMODALITY_S_MAX = 8


@dataclass
class Report:
    command: str
    parameters: dict
    payload: dict
    assertions: List[dict] = field(default_factory=list)

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


def render_json(report: Report) -> str:
    doc = {
        "command": report.command,
        "parameters": report.parameters,
        "payload": report.payload,
        "assertions": report.assertions,
        "passed": report.passed,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, value))


def render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    rows: list = []
    _flatten("command", report.command, rows)
    _flatten("parameters", report.parameters, rows)
    _flatten("payload", report.payload, rows)
    _flatten("assertions", report.assertions, rows)
    _flatten("passed", report.passed, rows)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _text_lines(prefix: str, value, out: list) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _text_lines(f"{prefix}{key}." if prefix else f"{key}.", value[key], out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _text_lines(f"{prefix}{i}.", item, out)
    else:
        out.append(f"{prefix.rstrip('.')} = {value}")


def render_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for key in sorted(report.parameters):
        lines.append(f"  {key} = {report.parameters[key]}")
    body: list = []
    _text_lines("", report.payload, body)
    lines.extend(body)
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
    if r < 1 or s < 1:
        raise UsageError("hooks needs r >= 1 and s >= 1")
    report = Report("hooks", {"r": r, "s": s}, {})
    profile = lie.hook_profile(r, s)
    npoly = lie.hook_poly(r, s)
    payload = {
        "n": profile.n,
        "witt": coeff_table(profile.witt),
        "column_row": coeff_table(profile.column_row),
        "hooks": coeff_table(profile.hooks),
        "hook_poly": npoly.pretty(),
    }
    if isinstance(profile.certificate, lie.NoExtension):
        payload["certificate"] = None
        payload["no_extension"] = no_extension_payload(profile.certificate)
    else:
        payload["certificate"] = coeff_table(profile.certificate)
    quotient = npoly.divide_exact(IntPolynomial((1, 1)))
    payload["hook_poly_factored"] = (
        {"factor": "1+x", "quotient": quotient.pretty()} if quotient is not None else None
    )
    report.payload = payload
    return report


def cmd_series(args) -> Report:
    r, s_max = args.r, args.s_max
    if r < 1 or s_max < 1:
        raise UsageError("series needs r >= 1 and s_max >= 1")
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


def cmd_witt(args) -> Report:
    r = args.r
    if r < 1:
        raise UsageError("witt needs r >= 1")
    try:
        coeffs = [int(c) for c in args.coeffs.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse coefficients {args.coeffs!r}")
    p = IntPolynomial(coeffs)
    report = Report("witt", {"r": r, "coeffs": coeffs}, {})
    w = witt_transform(p, r)
    payload = {"transform": poly_table(w)}
    if args.reflect:
        payload["reflected"] = poly_table(w.reflect())
    report.payload = payload
    return report


def cmd_cellini(args) -> Report:
    mu = parse_partition(args.mu)
    report = Report("cellini", {"mu": list(mu)}, {})
    report.payload = {"closed": cdes.cellini_closed(mu)}
    return report


def cmd_construct(args) -> Report:
    mu = parse_partition(args.mu)
    report = Report("construct", {"mu": list(mu)}, {})
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
    out_path = args.output or f"extension-{'-'.join(map(str, mu))}.json"
    with open(out_path, "w", encoding="ascii") as fh:
        fibers = cdes.write_extension(sol, fh)
        fh.write("\n")
    report.payload.update(
        {
            "feasible": True,
            "class_size": len(sol.cdes),
            "fibers": fibers,
            "dump": out_path,
        }
    )
    for name, ok in sorted(sol.axioms.items()):
        report.check(f"axiom-{name}", ok)
    return report


# -- verification suites -----------------------------------------------------


def _check_scan(n_min: int, n_max: int, elements: bool = False) -> None:
    """Refuse a scan before it starts: cdes.check_walk on every class with
    n_min <= n <= n_max, in order of n, so the first n over the limit stops
    the check."""
    for n in range(n_min, n_max + 1):
        for mu in partition_list(n):
            cdes.check_walk(mu, elements)


def _check_ribbon_walk(n_max: int, items: int, what: str) -> None:
    """Refuse a ribbon suite whose formula would walk more than
    cdes.WALK_LIMIT items on one class of S_(n_max), its largest n."""
    if items > cdes.WALK_LIMIT:
        raise ValueError(
            f"a class of S_{n_max} walks {items} {what}, over the walk limit of "
            f"{cdes.WALK_LIMIT}"
        )


def _feasible(mu) -> bool:
    return not isinstance(
        cdes.solve_extension(cdes.descent_distribution(mu)), cdes.Infeasible
    )


def _expected_feasible(mu) -> bool:
    rect = lie._rectangle(tuple(mu))
    return not (rect is not None and is_squarefree(rect[0]))


def suite_main_theorem(args, report: Report) -> None:
    """Extension exists iff the class is not a rectangle with square-free
    part size; exhaustive over n <= n_max."""
    n_max = args.n_max or DEFAULT_N_MAX
    _check_scan(1, n_max)
    report.parameters["n_max"] = n_max
    scanned = 0
    for n in range(1, n_max + 1):
        bad = []
        for mu in partition_list(n):
            scanned += 1
            if _feasible(mu) != _expected_feasible(mu):
                bad.append(list(mu))
        report.check(
            f"feasibility-matches-squarefree-rectangle-characterization-n={n}",
            not bad,
            f"mismatches={bad}" if bad else "",
        )
    report.payload["classes_scanned"] = scanned


def suite_squarefree(args, report: Report) -> None:
    """(1+x)^2 divides every [y^s] iff r has a square factor; the moment
    identity; non-negativity of the square quotients."""
    r_max = args.r_max or 30
    s_max = args.s_max or DEFAULT_S_MAX
    report.parameters.update({"r_max": r_max, "s_max": s_max})
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
    report.payload["r_scanned"] = r_max
    report.check("moment-equals-moebius", not bad_moment, f"{bad_moment}" if bad_moment else "")
    report.check(
        "divisible-by-(1+x)^2-iff-square-factor",
        not bad_dichotomy,
        f"{bad_dichotomy}" if bad_dichotomy else "",
    )
    report.check(
        "square-quotients-nonnegative",
        not bad_quotient,
        f"{bad_quotient}" if bad_quotient else "",
    )


def suite_unimodality(args, report: Report) -> None:
    """Hook multiplicity sequences are unimodal in the scanned range;
    counterexamples are reported, never assumed absent."""
    r_max = args.r_max or DEFAULT_R_MAX
    s_max = args.s_max or UNIMODALITY_S_MAX
    report.parameters.update({"r_max": r_max, "s_max": s_max})
    violations = []
    for r in range(1, r_max + 1):
        for s in range(1, s_max + 1):
            m = lie.hook_mults(r, s)
            if not is_unimodal(m):
                violations.append({"r": r, "s": s, "hooks": [str(v) for v in m]})
    report.payload["pairs_scanned"] = r_max * s_max
    report.payload["counterexamples"] = violations
    report.check("hook-multiplicities-unimodal", not violations)


def suite_gr_fibers(args, report: Report) -> None:
    """Schur-expansion descent fibers (multiplicities times standard
    tableaux by descent set) match the Gessel-Reutenauer fibers of
    descent_distribution for every class and every descent set, n <= n_max."""
    n_max = args.n_max or 6
    _check_scan(1, n_max)
    # straight_ribbon_fiber sums over every shape for each of 2^(n-1) masks
    _check_ribbon_walk(
        n_max, 2 ** (n_max - 1) * len(partition_list(n_max)), "(mask, shape) pairs"
    )
    report.parameters["n_max"] = n_max
    for n in range(1, n_max + 1):
        bad = []
        for mu in partition_list(n):
            dist = cdes.descent_distribution(mu)
            for mask in range(1 << (n - 1)):
                predicted = cdes.straight_ribbon_fiber(mu, mask)
                if predicted != dist.count(mask):
                    bad.append({"mu": list(mu), "J": subset_list(mask)})
        report.check(
            f"descent-fibers-match-schur-expansion-n={n}",
            not bad,
            f"{bad}" if bad else "",
        )


def suite_kw_identity(args, report: Report) -> None:
    """Hook multiplicities of the full cycle count k-subsets of [n-1]
    with sum 1 mod n; Witt coefficients count them inside [n]."""
    n_max = args.n_max or 12
    report.parameters["n_max"] = n_max
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
    report.payload["n_scanned"] = n_max
    report.check(
        "full-cycle-hooks-count-subset-sums", not bad_hooks, f"{bad_hooks}" if bad_hooks else ""
    )
    report.check(
        "witt-coefficients-count-subset-sums", not bad_witt, f"{bad_witt}" if bad_witt else ""
    )


def suite_cellini(args, report: Report) -> None:
    """Scan 2 <= n <= n_max for classes whose Cellini cyclic descent
    multiset is rotation closed (n = 1 is degenerate: rotation is the
    identity map on subsets of [1])."""
    n_max = args.n_max or 6
    _check_scan(2, n_max, elements=True)
    report.parameters["n_max"] = n_max
    closed = []
    for n in range(2, n_max + 1):
        for mu in partition_list(n):
            if cdes.cellini_closed(mu):
                closed.append(list(mu))
    expected = [[2, 1]] if n_max >= 3 else []
    if n_max >= 4:
        expected.append([3, 1])
    report.payload["closed_classes"] = closed
    report.check(
        "cellini-closed-exactly-two-small-classes",
        closed == expected,
        f"found={closed}",
    )


def suite_affine_fibers(args, report: Report) -> None:
    """For every feasible class, the inclusion-exclusion of cyclic ribbon
    characters reproduces every solved cDes fiber size, n <= n_max."""
    n_max = args.n_max or 7
    _check_scan(1, n_max)
    # affine_ribbon_fiber walks every submask of every mask: 3^n pairs
    _check_ribbon_walk(n_max, 3**n_max, "(mask, submask) pairs")
    report.parameters["n_max"] = n_max
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
        report.check(
            f"cdes-fibers-match-cyclic-ribbon-expansion-n={n}",
            not bad,
            f"{bad}" if bad else f"feasible_classes={feasible}",
        )


SUITES: Dict[str, Callable[[argparse.Namespace, Report], None]] = {
    "main-theorem": suite_main_theorem,
    "squarefree": suite_squarefree,
    "unimodality": suite_unimodality,
    "gr-fibers": suite_gr_fibers,
    "kw-identity": suite_kw_identity,
    "cellini": suite_cellini,
    "affine-fibers": suite_affine_fibers,
}


def cmd_verify(args) -> Report:
    for name in ("n_max", "r_max", "s_max"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1")
    report = Report("verify", {"suite": args.suite}, {})
    SUITES[args.suite](args, report)
    return report


# -- argument parsing and dispatch -------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--n-max", type=int, default=None, help="scan bound on n")
    sp.add_argument("--r-max", type=int, default=None, help="scan bound on r")
    sp.add_argument("--s-max", type=int, default=None, help="scan bound on s")

    sp = sub.add_parser("construct", help="build an explicit cyclic extension")
    sp.add_argument("mu", help="partition, e.g. 2,2,1")
    sp.add_argument("--output", default=None, help="dump file path")

    sp = sub.add_parser("cellini", help="rotation closure of Cellini descents")
    sp.add_argument("mu", help="partition, e.g. 2,1")

    sp = sub.add_parser("witt", help="Witt transform of an integer polynomial")
    sp.add_argument("r", type=int)
    sp.add_argument("--coeffs", default="1,-1",
                    help="comma separated, constant term first")
    sp.add_argument("--reflect", action="store_true", help="also print at -x")

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
    "witt": cmd_witt,
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
