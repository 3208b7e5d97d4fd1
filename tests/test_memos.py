"""The package's memos have one owner: hooklie.clear_memos() drops every
one of them, no module keeps a hand-rolled memo beside them, and with the
memos cold the closed hook route and its oracle can be seen to share only
the helpers the lie docstring allows."""

import sys
from types import MappingProxyType

import hooklie
from hooklie import cdes, characters, cli, combinat, lie, series, suites
from hooklie.series import IntPolynomial

MODULES = (combinat, series, characters, lie, cdes, suites, cli)

# the module-level mutable containers: the command line's registries, and
# the one memo that is not an lru_cache (one column-row table per r)
CONTAINERS = {
    "suites.SUITES",
    "cli.RENDERERS",
    "cli.BOUNDS",
    "cli.COMMANDS",
    "lie._COLUMN_ROWS",
}


def _caches():
    """{qualified name: function} for every lru_cache on the seven modules."""
    return {
        f"{value.__module__}.{value.__qualname__}": value
        for module in MODULES
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    }


def _public_routes():
    return {
        "character_value": characters.character_value((2, 1), (1, 1, 1)),
        "schur_multiplicities": characters.schur_multiplicities((3, 2, 1)),
        "h_pairings": characters.h_pairings((2, 2, 1)),
        "hook_mults_oracle": characters.hook_mults_oracle((4, 4, 2)),
        "witt_coeffs": lie.witt_coeffs(12),
        "column_row_mults": lie.column_row_mults(4, 3),
        "hook_mults": lie.hook_mults(6, 2),
        "hook_poly": lie.hook_poly(3, 3),
        "column_row_series": lie.column_row_series(5, 4),
        "extension_certificate": lie.extension_certificate((3, 3, 1)),
        "squarefree_criterion": lie.squarefree_criterion(8, 3),
        "quotient_series": lie.quotient_series(8, 3),
        "descent_distribution": cdes.descent_distribution((4, 2, 1)),
        "solve_extension": cdes.solve_extension(cdes.descent_distribution((4, 1))),
        "construct_extension": cdes.construct_extension((3, 1)),
        "cellini_closed": cdes.cellini_closed((3, 1)),
        "straight_ribbon_fiber": cdes.straight_ribbon_fiber((3, 2), 5),
        "affine_ribbon_fiber": cdes.affine_ribbon_fiber(
            (4, 1), 3, characters.schur_multiplicities((4, 1))
        ),
        "syt_descent_counts": combinat.syt_descent_counts((3, 2, 1)),
        "kostka_number": combinat.kostka_number((3, 2), (2, 2, 1)),
        "centralizer_order": combinat.centralizer_order((3, 3, 1)),
        "class_size": combinat.class_size((3, 3, 1)),
        "cli": cli.build_parser().parse_args(["hooks", "4", "2"]).r,
    }


def test_clear_memos_drops_every_memo():
    warm = _public_routes()
    caches = _caches()
    # every memo is filled by some route, so the clear below is tested
    empty = sorted(name for name, fn in caches.items() if not fn.cache_info().currsize)
    assert not empty, f"no route fills {empty}"
    assert lie._COLUMN_ROWS
    hooklie.clear_memos()
    full = sorted(name for name, fn in caches.items() if fn.cache_info().currsize)
    assert not full, f"clear_memos leaves {full}"
    assert not lie._COLUMN_ROWS
    assert _public_routes() == warm


def test_no_module_keeps_a_memo_of_its_own():
    # a hand-rolled memo (a module-level dict, list or set) outside the
    # declared ones would escape clear_memos
    found = {
        f"{module.__name__.rpartition('.')[2]}.{name}"
        for module in MODULES
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }
    assert found == CONTAINERS


def test_clear_memos_clears_only_loaded_modules(monkeypatch):
    # an unloaded module has no memo, so clear_memos does not import one
    monkeypatch.delitem(sys.modules, "hooklie.cli")
    hooklie.clear_memos()
    assert "hooklie.cli" not in sys.modules


# one sample call per lru_cache, by the name _caches() gives it; the parser
# is the one memo whose value is meant to be a live object
SAMPLES = {
    "hooklie.combinat._factor": lambda: combinat._factor(360),
    "hooklie.combinat.divisors": lambda: combinat.divisors(360),
    "hooklie.combinat.partition_list": lambda: combinat.partition_list(6),
    "hooklie.combinat.syt_descent_counts": lambda: combinat.syt_descent_counts((3, 2, 1)),
    "hooklie.combinat._kostka": lambda: combinat._kostka((3, 2), (2, 2, 1)),
    "hooklie.characters._mn": lambda: characters._mn((3, 2, 1), (3, 2, 1)),
    "hooklie.characters._h_plethysm": lambda: characters._h_plethysm(2, 3),
    "hooklie.characters._frobenius": lambda: characters._frobenius((3, 2, 2, 1)),
    "hooklie.characters._adams_factor": lambda: characters._adams_factor(6, 2),
    "hooklie.characters._hook_factor": lambda: characters._hook_factor(2, 3),
    "hooklie.characters._power_products": lambda: characters._power_products(6, 2),
    "hooklie.characters._r_rows": lambda: characters._r_rows(6),
    "hooklie.lie.witt_coeffs": lambda: lie.witt_coeffs(12),
    "hooklie.cdes._composition_shapes": lambda: cdes._composition_shapes(6),
    "hooklie.cdes._chunk_masks": lambda: cdes._chunk_masks(8),
}


def _immutable(value) -> bool:
    """Whether no caller can change value, however deep it reads."""
    if isinstance(value, (int, str, IntPolynomial)):
        return True  # bool is an int; IntPolynomial holds a tuple of ints
    if isinstance(value, (tuple, frozenset)):
        return all(map(_immutable, value))
    if isinstance(value, MappingProxyType):
        return all(map(_immutable, value.keys())) and all(map(_immutable, value.values()))
    return False


def test_every_memo_hands_out_an_immutable_value():
    # a memo's value is shared by every later caller, so a caller that
    # could write into it would change what the others read
    assert set(SAMPLES) == set(_caches()) - {"hooklie.cli.build_parser"}
    mutable = sorted(name for name, call in SAMPLES.items() if not _immutable(call()))
    assert not mutable, f"mutable memo values: {mutable}"


# -- route and oracle independence -------------------------------------------

# What the closed hook route (lie) and its oracle (characters) may both
# enter: divisors and moebius, with the factorization _factor behind them,
# and IntPolynomial's methods.  Taken from a trace of both sides; a shared
# code object outside this list means the oracle no longer checks the route
# independently.
SHARED = {
    "combinat._factor",
    "combinat.divisors",
    "combinat.moebius",
    "series.IntPolynomial.__init__",
}

RECTANGLES = ((1, 4), (2, 3), (3, 3), (4, 2), (6, 2), (12, 1))


def _code_names():
    """{code object: "module.qualname"} for the functions and methods defined
    on the package's modules.  Lambdas, comprehensions and generator
    expressions are left out: each runs inside a function that is listed."""
    names = {}
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if isinstance(value, type) else (value,)
            for fn in members:
                fn = getattr(fn, "fget", fn)  # a property
                fn = getattr(fn, "__wrapped__", fn)  # an lru_cache
                code = getattr(fn, "__code__", None)
                if code is not None:
                    names[code] = f"{short}.{fn.__qualname__}"
    return names


def _entered(run, names):
    """The package functions run enters, from cold memos: a warm memo would
    hide a shared call."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            seen.add(names[frame.f_code])

    hooklie.clear_memos()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return seen, result


def test_hook_route_and_oracle_share_only_the_allowed_helpers():
    names = _code_names()
    route, closed = _entered(
        lambda: [(lie.hook_mults(r, s), lie.hook_poly(r, s)) for r, s in RECTANGLES],
        names,
    )
    oracle, checked = _entered(
        lambda: [characters.hook_mults_oracle((r,) * s) for r, s in RECTANGLES], names
    )
    assert [m for m, _ in closed] == checked
    assert {"lie.hook_mults", "lie.witt_coeffs", "lie._column_row_table"} <= route
    assert {"characters.hook_mults_oracle", "characters._hook_factor"} <= oracle
    assert route & oracle == SHARED
