"""Command line front end.

Subcommands: hooks, series, verify <suite>, construct, cellini;
each takes only the flags it reads.  Reports render as json (deterministic
given the command line; no file is read), csv, or text; timing always goes
to stderr.
Exit codes: 0 all assertions passed, 1 an assertion failed (including an
exactness check that raised ArithmeticError), 2 usage errors, including
every ValueError the library raises on a bad input and any input that
would walk more than combinat.WALK_LIMIT items.

Every byte of the construct dump is written here: write_extension lays it
out, cmd_construct opens it, adds its last newline and removes a partial
write, and _fiber_table lays out the fiber rows of the dump and the report.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, Dict, Iterator, List, TextIO, Tuple

from . import cdes, lie, suites
from .combinat import check_walk, moebius, subset_elements
from .series import IntPolynomial


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


def _int_list(values, depth: int, indent: int) -> str:
    """An int list as json.dump(..., indent=indent) lays it out as the value
    of a key at depth `depth`."""
    if not values:
        return "[]"
    pad = "\n" + " " * (depth * indent)
    item = pad + " " * indent
    return "[" + item + ("," + item).join(map(str, values)) + pad + "]"


def _fiber_table(rows, depth: int, indent: int) -> str:
    """(count, _int_list(subset, depth + 1, indent)) pairs as json.dump(...,
    sort_keys=True, indent=indent) lays out records {"count", "subset"} in a
    list at depth `depth`: the dump's fiber table at depth 2, indent 1, and
    the construct report's at depth 3, indent 2."""
    pad = "\n" + " " * (depth * indent)
    key = pad + " " * indent
    row = pad + "{" + key + '"count": %d,' + key + '"subset": %s' + pad + "}"
    text = ",".join(map(row.__mod__, rows))
    return "[" + text + pad[:-indent] + "]" if text else "[]"


# An element record of the dump as json.dump(..., sort_keys=True, indent=1)
# lays it out inside a top-level list, keys at depth 3 and list items at
# depth 4, cut into tokens: the head up to the first entry of "one_line",
# one token per entry (the first without a separator), _MID from the last
# entry of "one_line" to the first of "p_image", and _END.  Every head
# starts with the ",\n" that separates it from the record before it.
_HEAD = ',\n  {\n   "cdes": %s,\n   "des": %s,\n   "one_line": [\n    '
_SEP = ",\n    "
_MID = '\n   ],\n   "p_image": [\n    '
_END = "\n   ]\n  }"
# Element records joined per write: a block is at most 81 KB on (9, 1), the
# largest class admitted, and a record at most 612 characters at n = 18.
_BLOCK = 256


def write_extension(sol: cdes.CyclicExtensionSolution, fh: TextIO) -> None:
    """Write the dump of a constructed extension to the text stream fh.

    The bytes written are exactly those of
    json.dump(doc, fh, sort_keys=True, indent=1) with doc = {"elements",
    "fibers", "mu", "n"}: "elements" holds one record {"cdes", "des",
    "one_line", "p_image"} (int lists) per class element in the order of
    sol.elements, which construct_extension makes lexicographic, and
    "fibers" the nonzero fiber sizes {"count", "subset"} in mask order.  So
    the format is byte-stable: the same class always gives the same bytes.
    des is cDes without n, which the "extension" axiom checked against the
    Des mask of every element.

    The records are a token stream.  Built once per call: one head string
    per cDes mask that occurs (its "cdes" and "des" lists), and two tables
    from an entry 1..n to its token, one for the first entry of a list and
    one, with the separator, for the others.  Each block of _BLOCK elements
    is cut into columns by zip(*block), and the images under p likewise;
    map(table.__getitem__, column) turns a column into tokens, and
    zip(heads, *columns, repeat(_MID), *image_columns, repeat(_END))
    interleaves them record by record for one join.  So no Python code runs
    per element or per entry, and only one block of text is alive at a
    time: the dump never sits in memory whole.  Formatting each distinct
    record once per class would not save that: the lines of (9, 1) alone
    held a 153.8 MiB peak.  The entries must be in [n], as in every
    solution construct_extension returns.
    """
    n = sol.n
    top = 1 << (n - 1)
    counts = sol.fibers.counts
    # the lists of the cDes masks, their Des masks and the fiber masks, for
    # the heads and the fiber rows: at most 2^n masks against n!/z elements
    masks = set(sol.cdes)
    subsets = masks | {j & ~top for j in masks} | counts.keys()
    lists = {j: _int_list(subset_elements(j), 3, 1) for j in subsets}
    heads = {j: _HEAD % (lists[j], lists[j & ~top]) for j in masks}
    first = list(map(str, range(n + 1)))  # entry v at index v; 0 is unused
    later = [_SEP + token for token in first]
    tables = [first.__getitem__] + [later.__getitem__] * (n - 1)
    elements, p = sol.elements, sol.p
    fh.write('{\n "elements": [')
    for start in range(0, len(elements), _BLOCK):
        stop = start + _BLOCK
        columns = map(map, tables, zip(*elements[start:stop]))
        images = map(map, tables, zip(*map(elements.__getitem__, p[start:stop])))
        records = zip(
            map(heads.__getitem__, sol.cdes[start:stop]),
            *columns,
            repeat(_MID),
            *images,
            repeat(_END),
        )
        text = "".join(chain.from_iterable(records))
        fh.write(text[1:] if start == 0 else text)  # no "," before the first
    fh.write("\n ]" if elements else "]")  # no element: "elements": []
    rows = ((c, lists[j]) for j, c in counts.items())
    fh.write(
        ',\n "fibers": %s,\n "mu": %s,\n "n": %d\n}'
        % (_fiber_table(rows, 2, 1), _int_list(sol.mu, 1, 1), n)
    )


# The construct report's "fibers" key as json.dumps(doc, sort_keys=True,
# indent=2) lays it out, at depth 2.  A json string never holds a raw
# newline, so _FIBERS_KEY can only be a key of a depth-1 dict, and of those
# only the payload has a "fibers" key.
_FIBERS_KEY = '\n    "fibers": '


def render_json(report: Report) -> str:
    """The report as json.dumps(doc, sort_keys=True, indent=2), byte for byte.

    json's indent encoder is pure Python, so the construct report's fiber
    table (up to 2^n records) is laid out by _fiber_table instead and
    spliced in where json wrote an empty one.
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
    rows = ((row["count"], _int_list(row["subset"], 4, 2)) for row in fibers)
    return "".join((head, _FIBERS_KEY, _fiber_table(rows, 3, 2), rest))


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
    # a part is ASCII digits with spaces around it: not "1_0", "+3", a
    # non-ASCII digit or a space inside, which int() would read as a number
    words = [p.strip() for p in text.split(",") if p.strip()]
    if not all(w.isascii() and w.isdigit() for w in words):
        raise UsageError(f"cannot parse partition {text!r}")
    parts = tuple(map(int, words))
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


_ESCHER_NOTE = ("Escher-type degeneration: this class only supports a cyclic "
                "descent set that is empty or all of [n]")


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
        if len(set(mu)) == 1 and mu[0] <= 2 and sum(mu) > 1:  # (1^n), n >= 2, or (2^k)
            payload["note"] = _ESCHER_NOTE
        cert = lie.extension_certificate(mu)
        if isinstance(cert, lie.NoExtension):
            payload["certificate_violation"] = no_extension_payload(cert)
        report.payload.update(payload)
        return report
    try:  # opened only now, so an infeasible class leaves no file
        fh = open(out_path, "w", encoding="ascii")
        try:
            with fh:
                write_extension(sol, fh)
                fh.write("\n")
        except OSError:
            # no truncated dump is left behind; a link or a device such as
            # /dev/stdout is never removed
            if os.path.isfile(out_path) and not os.path.islink(out_path):
                os.remove(out_path)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}")
    counts = sol.fibers.counts.items()
    report.payload.update(
        {
            "feasible": True,
            "class_size": len(sol.elements),
            "fibers": [{"subset": list(subset_elements(j)), "count": c} for j, c in counts],
            "dump": out_path,
        }
    )
    for name, ok in sorted(sol.axioms.items()):
        report.check(f"axiom-{name}", ok)
    return report


BOUNDS = sorted({name for suite in suites.SUITES.values() for name in suite.bounds})


def cmd_verify(args) -> Report:
    suite = suites.SUITES[args.suite]
    bounds = dict(suite.bounds)
    for name in BOUNDS:
        value = getattr(args, name)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name not in suite.bounds:
            raise UsageError(f"verify {args.suite} does not read {flag}")
        if value < 1:
            raise UsageError(f"{flag} must be >= 1")
        bounds[name] = value
    for items, what in suite.cost(**bounds):
        check_walk(items, what)
    report = Report("verify", {"suite": args.suite, **bounds}, {})
    for name, failures, *note in suite.run(report.payload, **bounds):
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
    sp.add_argument("--s-max", type=int, default=suites.DEFAULT_S_MAX,
                    help="truncation order in y")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(suites.SUITES))
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
