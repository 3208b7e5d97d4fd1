"""Tracing from outside the program.

The tracer wraps hooklie's public functions with spans, on every module
that binds them (cdes imports conjugacy_class by name, so patching combinat
alone would miss those calls), and counts BiSeries.__mul__ on the class.
conjugacy_class is a generator: each resume is its own span, so its time
is the time spent inside the generator.  Spans (name, start, end, parent)
stay in memory until the pass ends; a span's self time is its duration
minus the time its children cover.

Work counts are computed from the call arguments with hooklie's public
helpers (centralizer_order, class_size), not measured inside the program.
A function or size gate missing from the traced version is skipped; its
metrics then read 0.
"""

from __future__ import annotations

import functools
import math
import os
import time

SPANS = {
    "combinat": ("kostka_number",),
    "series": ("binomial_power", "reciprocal_power", "witt_transform"),
    "characters": (
        "higher_lie_character",
        "inner_product",
        "irreducible_character",
        "schur_multiplicities",
        "hook_mults_oracle",
    ),
    "lie": (
        "witt_coeffs",
        "column_row_mults",
        "column_row_series",
        "hook_mults",
        "extension_certificate",
        "squarefree_criterion",
        "quotient_series",
    ),
    "cdes": (
        "descent_distribution",
        "solve_extension",
        "construct_extension",
        "check_axioms",
        "extension_records",
        "cellini_closed",
        "straight_ribbon_fiber",
        "affine_ribbon_fiber",
    ),
    "cli": ("main", "render_json"),
}
GENERATORS = {"combinat": ("conjugacy_class",)}

COUNTS = (
    "series.bimul.calls",
    "lie.witt_poly_checks_skipped",
    "lie.oracle_checks_run",
    "lie.oracle_checks_skipped",
    "characters.centralizer_elements",
    "characters.hl_lookups",
    "characters.hl_misses",
    "combinat.perms_scanned",
    "combinat.class_elements",
    "cli.dump_bytes",
)

_DONE = object()


class Tracer:
    def __init__(self, hl):
        self.hl = hl
        self.enabled = False
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._witt_seen: set = set()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hl = self.hl
        hooks = {
            "lie.witt_coeffs": (self._on_witt, None),
            "lie.extension_certificate": (self._on_certificate, None),
            "characters.higher_lie_character": (self._on_higher_lie, None),
            "characters.schur_multiplicities": (self._on_hl_lookup, None),
            "characters.hook_mults_oracle": (self._on_hl_lookup, None),
            "combinat.conjugacy_class": (self._on_class, None),
            "cli.main": (None, self._after_cli_main),
        }
        replace = {}
        for table, generator in ((SPANS, False), (GENERATORS, True)):
            for modname, fnames in table.items():
                mod = getattr(hl, modname)
                for fname in fnames:
                    fn = getattr(mod, fname, None)
                    if fn is None:
                        continue
                    name = f"{modname}.{fname}"
                    before, after = hooks.get(name, (None, None))
                    replace[id(fn)] = (fn, self._wrap(name, fn, before, after, generator))
        for mod in (hl, hl.combinat, hl.series, hl.characters, hl.lie, hl.cdes, hl.cli):
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                elif type(val) is dict:  # dispatch tables such as cli.RENDERERS
                    for key, v in list(val.items()):
                        hit = replace.get(id(v))
                        if hit is not None and hit[0] is v:
                            val[key] = hit[1]
        mul = hl.series.BiSeries.__mul__
        counts = self.counts

        def counted_mul(a, b):
            if self.enabled:
                counts["series.bimul.calls"] += 1
            return mul(a, b)

        hl.series.BiSeries.__mul__ = counted_mul

    def _wrap(self, name, fn, before, after, generator):
        tracer = self
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )
        clock = time.perf_counter

        if generator:

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                if before is not None:
                    before(*args, **kwargs)
                return tracer._timed_iter(name, fn(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                if before is not None:
                    before(*args, **kwargs)
                idx = len(starts)
                names.append(name)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if after is not None:
                    after(result, *args, **kwargs)
                return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _timed_iter(self, name, it):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )
        clock = time.perf_counter
        while True:
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                value = next(it, _DONE)
            finally:
                ends[idx] = clock()
                stack.pop()
            if value is _DONE:
                return
            yield value

    # -- computed work counts ------------------------------------------------

    def _on_witt(self, r, *args, **kwargs):
        # the generic-polynomial cross-check runs once per r (memoized)
        limit = getattr(self.hl.lie, "_POLY_CHECK_MAX", None)
        if limit is not None and r > limit and r not in self._witt_seen:
            self.counts["lie.witt_poly_checks_skipped"] += 1
        self._witt_seen.add(r)

    def _on_certificate(self, mu, guard=None):
        mu = tuple(mu)
        if len(set(mu)) != 1:
            return  # only rectangles take the formula route with a cross-check
        limit = getattr(self.hl.lie, "_ORACLE_CHECK_MAX", None)
        if guard is None:
            guard = getattr(self.hl.characters, "DEFAULT_GUARD", math.inf)
        if limit is None or self.hl.combinat.centralizer_order(mu) <= min(limit, guard):
            self.counts["lie.oracle_checks_run"] += 1
        else:
            self.counts["lie.oracle_checks_skipped"] += 1

    def _on_higher_lie(self, mu, *args, **kwargs):
        self.counts["characters.hl_misses"] += 1
        self.counts["characters.centralizer_elements"] += self.hl.combinat.centralizer_order(mu)

    def _on_hl_lookup(self, mu, *args, **kwargs):
        self.counts["characters.hl_lookups"] += 1

    def _on_class(self, mu):
        self.counts["combinat.perms_scanned"] += math.factorial(sum(mu))
        self.counts["combinat.class_elements"] += self.hl.combinat.class_size(mu)

    def _after_cli_main(self, result, argv=None):
        if argv and "--output" in argv:
            path = argv[argv.index("--output") + 1]
            if os.path.exists(path):
                self.counts["cli.dump_bytes"] += os.path.getsize(path)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-function self time and calls, computed counts, and derived
        ratios; bench.loop.self_s is the pass's time outside any span."""
        starts, ends, parents, names = self.starts, self.ends, self.parents, self.names
        child = [0.0] * len(starts)
        top = 0.0
        for i, p in enumerate(parents):
            d = ends[i] - starts[i]
            if p >= 0:
                child[p] += d
            else:
                top += d
        out = {}
        for table in (SPANS, GENERATORS):
            for modname, fnames in table.items():
                for fname in fnames:
                    out[f"{modname}.{fname}.self_s"] = 0.0
                    out[f"{modname}.{fname}.calls"] = 0
        for i, name in enumerate(names):
            out[f"{name}.self_s"] += ends[i] - starts[i] - child[i]
            out[f"{name}.calls"] += 1
        out["series.power.self_s"] = (
            out["series.binomial_power.self_s"] + out["series.reciprocal_power.self_s"]
        )
        out["bench.loop.self_s"] = wall_s - top
        out.update(self.counts)
        c = self.counts
        lookups = c["characters.hl_lookups"]
        out["characters.hl_cache_hit_ratio"] = (
            (lookups - c["characters.hl_misses"]) / lookups if lookups else 0.0
        )
        scanned = c["combinat.perms_scanned"]
        out["combinat.class_hit_ratio"] = (
            c["combinat.class_elements"] / scanned if scanned else 0.0
        )
        out["characters.mn_memo_entries"] = len(getattr(self.hl.characters, "_MN_MEMO", ()))
        return out
