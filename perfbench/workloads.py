"""The four benchmark workloads: the inputs each one visits, the canonical
form of each output, and the invariant checked on it.

An item is one call into hooklie's public API.  Calls look the function
up on its module at call time, so the wrappers the tracer installs are
the ones that run.  The seed only shuffles the order of the items; every
seed does the same work and yields the same outputs.

The small reference helpers below (partitions, centralizer orders,
Moebius, hook lengths) are the benchmark's own, so that the inputs and
the invariants do not depend on the code being measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from typing import Callable, NamedTuple, Optional

WORKLOADS = ("hooks-sweep", "oracle-classes", "descent-scan", "construct-dump")

# -- reference helpers -------------------------------------------------------


def partitions(n: int) -> list:
    """All partitions of n as weakly decreasing tuples."""
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, cap), 0, -1):
            rec(rest - p, p, acc + [p])

    rec(n, n, [])
    return out


def centralizer(mu) -> int:
    z = 1
    for part in set(mu):
        k = mu.count(part)
        z *= part**k * math.factorial(k)
    return z


def class_size(mu) -> int:
    return math.factorial(sum(mu)) // centralizer(mu)


def moebius(r: int) -> int:
    sign, p = 1, 2
    while p * p <= r:
        if r % p == 0:
            r //= p
            if r % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if r > 1 else sign


def squarefree(r: int) -> bool:
    return moebius(r) != 0


def rectangle(mu) -> Optional[tuple]:
    return (mu[0], len(mu)) if len(set(mu)) == 1 else None


def feasible_by_rule(mu) -> bool:
    """Main theorem: a class carries a cyclic descent extension iff it is
    not a rectangle (r^s) with square-free r."""
    rect = rectangle(mu)
    return not (rect is not None and squarefree(rect[0]))


def unimodal(seq) -> bool:
    i, n = 0, len(seq)
    while i + 1 < n and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < n and seq[i] >= seq[i + 1]:
        i += 1
    return i + 1 >= n


def syt_count(lam) -> int:
    """Number of standard tableaux of shape lam (hook length formula)."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(sum(lam)) // hooks


def mu_text(mu) -> str:
    return ",".join(map(str, mu))


# -- items -------------------------------------------------------------------


class Item(NamedTuple):
    key: str
    call: Callable[[], object]
    canon: Callable[[object], object]  # output -> JSON-able exact form
    check: Callable[[object, "Refs"], bool]  # invariant on the output


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def workload_digest(item_digests: dict) -> str:
    """Order-independent digest of a whole workload's outputs."""
    lines = "\n".join(f"{k}\t{v}" for k, v in sorted(item_digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


class Refs:
    """Reference values for the invariants, computed after the timed part
    of a pass through hooklie's enumeration routes and memoized."""

    def __init__(self, hl):
        self.hl = hl
        self._dist = {}
        self._sol = {}

    def des_fibers(self, mu):
        if mu not in self._dist:
            self._dist[mu] = self.hl.cdes.descent_distribution(mu)
        return self._dist[mu]

    def cdes_fibers(self, mu):
        if mu not in self._sol:
            self._sol[mu] = self.hl.cdes.solve_extension(self.des_fibers(mu))
        return self._sol[mu]


def _ints(seq) -> list:
    return [int(v) for v in seq]


# -- hooks-sweep: the closed-formula route -----------------------------------

S_MAX = 5


def _check_witt(r):
    def check(f, refs):
        moment = sum((j if j % 2 else -j) * fj for j, fj in enumerate(f))
        return (
            len(f) == r + 1
            and f[1] == 1
            and f[0] == (1 if r == 1 else 0)
            and moment == moebius(r)
        )

    return check


def _check_hooks(r, s):
    return lambda m, refs: len(m) == r * s and min(m) >= 0 and unimodal(m)


def _canon_squarefree(rep):
    return {
        "squarefree": rep.squarefree,
        "divisible": list(rep.divisible),
        "moment": rep.moment,
    }


def _check_squarefree(r):
    # the (1+x)^2 dichotomy: every [y^s] is divisible iff r has a square factor
    def check(rep, refs):
        return (
            rep.squarefree == squarefree(r)
            and rep.moment == moebius(r)
            and len(rep.divisible) == S_MAX
            and all(d == (not squarefree(r)) for d in rep.divisible)
        )

    return check


def _canon_quotient(q):
    if q is None:
        return None
    return {
        "series": [_ints(q.series.coeff(s).coeffs) for s in range(S_MAX + 1)],
        "poly": _ints(q.poly.coeffs),
    }


def _check_quotient(r):
    def check(q, refs):
        if q is None:
            return squarefree(r)
        coeffs = [c for s in range(S_MAX + 1) for c in q.series.coeff(s).coeffs]
        return not squarefree(r) and min(coeffs + list(q.poly.coeffs)) >= 0

    return check


def hooks_sweep(hl) -> list:
    lie = hl.lie
    items = []
    for r in range(1, 201):
        items.append(Item(f"witt|{r}", lambda r=r: lie.witt_coeffs(r), _ints, _check_witt(r)))
    for r in range(1, 41):
        for s in range(1, S_MAX + 1):
            items.append(
                Item(
                    f"hooks|{r},{s}",
                    lambda r=r, s=s: lie.hook_mults(r, s),
                    _ints,
                    _check_hooks(r, s),
                )
            )
        items.append(
            Item(
                f"squarefree|{r}",
                lambda r=r: lie.squarefree_criterion(r, S_MAX),
                _canon_squarefree,
                _check_squarefree(r),
            )
        )
        items.append(
            Item(
                f"quotient|{r}",
                lambda r=r: lie.quotient_series(r, S_MAX),
                _canon_quotient,
                _check_quotient(r),
            )
        )
    return items


# -- oracle-classes: the character oracle ------------------------------------

ORACLE_Z_MAX = 10**5  # n = 10 classes up to this centralizer; leaves out (1^10)


def _check_oracle(mu):
    def check(m, refs):
        n = sum(mu)
        ok = len(m) == n and min(m) >= 0
        rect = rectangle(mu)
        if ok and rect is not None:
            ok = tuple(m) == tuple(refs.hl.lie.hook_mults(*rect))
        return ok

    return check


def _canon_certificate(cert):
    if isinstance(cert, tuple):
        return _ints(cert)
    return {"reason": cert.reason, "index": cert.index}


def _check_certificate(mu):
    return lambda cert, refs: isinstance(cert, tuple) == feasible_by_rule(mu)


def _canon_schur(mults):
    return sorted([list(lam), m] for lam, m in mults.items() if m)


def _check_schur(mu):
    # the higher Lie character is induced from a linear character of the
    # centralizer, so its degree is the class size
    def check(mults, refs):
        return min(mults.values()) >= 0 and sum(
            m * syt_count(lam) for lam, m in mults.items()
        ) == class_size(mu)

    return check


def _check_straight(mu, mask):
    return lambda v, refs: v == refs.des_fibers(mu).count(mask)


def _check_affine(mu, mask):
    return lambda v, refs: v == refs.cdes_fibers(mu).count(mask)


def oracle_classes(hl) -> list:
    characters, cdes, lie = hl.characters, hl.cdes, hl.lie
    schur_memo = {}

    def schur(mu):
        # one library call per class, whichever item asks first
        if mu not in schur_memo:
            schur_memo[mu] = characters.schur_multiplicities(mu)
        return schur_memo[mu]

    classes = [mu for n in range(1, 10) for mu in partitions(n)]
    classes += [mu for mu in partitions(10) if centralizer(mu) <= ORACLE_Z_MAX]
    items = []
    for mu in classes:
        t = mu_text(mu)
        items.append(
            Item(
                f"oracle|{t}",
                lambda mu=mu: characters.hook_mults_oracle(mu),
                _ints,
                _check_oracle(mu),
            )
        )
        items.append(
            Item(
                f"certificate|{t}",
                lambda mu=mu: lie.extension_certificate(mu),
                _canon_certificate,
                _check_certificate(mu),
            )
        )
        if sum(mu) <= 9:
            items.append(
                Item(f"schur|{t}", lambda mu=mu: schur(mu), _canon_schur, _check_schur(mu))
            )
    for n in range(1, 7):
        for mu in partitions(n):
            for mask in range(1 << (n - 1)):
                items.append(
                    Item(
                        f"straight|{mu_text(mu)}|{mask}",
                        lambda mu=mu, mask=mask: cdes.straight_ribbon_fiber(mu, mask),
                        int,
                        _check_straight(mu, mask),
                    )
                )
    for n in range(1, 8):
        for mu in partitions(n):
            if not feasible_by_rule(mu):
                continue
            for mask in range(1, (1 << n) - 1):
                items.append(
                    Item(
                        f"affine|{mu_text(mu)}|{mask}",
                        lambda mu=mu, mask=mask: cdes.affine_ribbon_fiber(mu, mask, schur(mu)),
                        int,
                        _check_affine(mu, mask),
                    )
                )
    return items


# -- descent-scan: class enumeration that counts fibers ----------------------

CELLINI_CLOSED = {(2, 1), (3, 1)}


def _canon_descents(out):
    dist, sol = out
    fibers = sorted([m, c] for m, c in dist.fibers.items() if c)
    if hasattr(sol, "reason"):  # Infeasible
        return {"fibers": fibers, "feasible": False}
    cdes = sorted([m, c] for m, c in sol.counts.items() if c)
    return {"fibers": fibers, "feasible": True, "cdes": cdes}


def _check_descents(mu):
    def check(out, refs):
        dist, sol = out
        size = class_size(mu)
        feasible = not hasattr(sol, "reason")
        ok = sum(dist.fibers.values()) == size and feasible == feasible_by_rule(mu)
        if ok and feasible:
            ok = sum(sol.counts.values()) == size and min(sol.counts.values()) > 0
        return ok

    return check


def descent_scan(hl) -> list:
    cdes = hl.cdes

    def descents(mu):
        dist = cdes.descent_distribution(mu)
        return dist, cdes.solve_extension(dist)

    classes = [mu for n in range(1, 9) for mu in partitions(n)]
    classes += [(9,), (3, 3, 3), (1,) * 9]
    items = [
        Item(
            f"descents|{mu_text(mu)}",
            lambda mu=mu: descents(mu),
            _canon_descents,
            _check_descents(mu),
        )
        for mu in classes
    ]
    for n in range(2, 8):
        for mu in partitions(n):
            items.append(
                Item(
                    f"cellini|{mu_text(mu)}",
                    lambda mu=mu: cdes.cellini_closed(mu),
                    bool,
                    lambda v, refs, mu=mu: v == (mu in CELLINI_CLOSED),
                )
            )
    return items


# -- construct-dump: materialise every element and write it out --------------


def _canon_construct(out):
    code, report, dump = out
    payload = dict(report["payload"])
    payload.pop("dump", None)
    sha = None
    if dump is not None:
        with open(dump, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
    return {"exit": code, "passed": report["passed"], "payload": payload, "dump_sha256": sha}


def _check_construct(mu):
    def check(out, refs):
        code, report, dump = out
        payload = report["payload"]
        if code != 0 or not report["passed"] or payload["feasible"] != feasible_by_rule(mu):
            return False
        if dump is None:
            return not payload["feasible"]
        with open(dump, encoding="ascii") as fh:
            records = json.load(fh)
        size = class_size(mu)
        return (
            payload["class_size"] == size
            and len(records["elements"]) == size
            and sum(f["count"] for f in records["fibers"]) == size
        )

    return check


def construct_dump(hl, workdir: str) -> list:
    cli = hl.cli

    def construct(mu):
        path = os.path.join(workdir, f"extension-{'-'.join(map(str, mu))}.json")
        argv = ["construct", mu_text(mu), "--output", path, "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, json.loads(out.getvalue()), path if os.path.exists(path) else None

    classes = partitions(8) + [(4,), (3, 1), (2, 2)]
    return [
        Item(
            f"construct|{mu_text(mu)}",
            lambda mu=mu: construct(mu),
            _canon_construct,
            _check_construct(mu),
        )
        for mu in classes
    ]


def build(name: str, hl, workdir: str) -> list:
    if name == "hooks-sweep":
        return hooks_sweep(hl)
    if name == "oracle-classes":
        return oracle_classes(hl)
    if name == "descent-scan":
        return descent_scan(hl)
    if name == "construct-dump":
        return construct_dump(hl, workdir)
    raise ValueError(f"unknown workload {name!r}")
