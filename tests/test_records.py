"""The result records: immutable NamedTuples, except NoExtension, which is
an immutable class that is deliberately not a tuple, since callers tell a
certificate from a NoExtension with isinstance(cert, tuple)."""

import pytest

from hooklie import cdes, lie
from hooklie.combinat import partition_list


def _records():
    feasible = cdes.solve_extension(cdes.descent_distribution((3, 1)))
    return [
        lie.squarefree_criterion(4, 2),
        lie.column_row_series(4, 2),
        lie.quotient_series(4, 2),
        cdes.descent_distribution((3, 1)),
        feasible,
        cdes.Infeasible("negative-count", (1,)),
        cdes.construct_extension((3, 1)),
        cdes.CyclicExtensionSolution((3, 1), 4, feasible, (), (), ()),
        lie.NoExtension("negative-partial-sum", 3),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_attribute_assignment(record):
    names = getattr(record, "_fields", ("reason", "index"))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    if hasattr(record, "axioms"):  # constructed or not, the axioms are read-only
        with pytest.raises(TypeError):
            record.axioms["extension"] = False


def test_records_are_named_tuples_except_no_extension():
    for record in _records():
        is_named_tuple = isinstance(record, tuple) and hasattr(record, "_fields")
        assert is_named_tuple == (type(record) is not lie.NoExtension), record


def test_infeasible_equality_and_repr():
    a = cdes.Infeasible("negative-count", (1, 3))
    assert a == cdes.Infeasible("negative-count", (1, 3))
    assert a != cdes.Infeasible("negative-count", (1,))
    assert a != cdes.Infeasible("conflicting-counts", (1, 3))
    assert repr(a) == "Infeasible(reason='negative-count', subset=(1, 3))"


def test_no_extension_equality_hash_and_repr():
    a = lie.NoExtension("negative-partial-sum", 3)
    b = lie.NoExtension("negative-partial-sum", 3)
    assert a == b and hash(a) == hash(b)
    assert a != lie.NoExtension("negative-partial-sum", 4)
    assert a != lie.NoExtension("alternating-sum-nonzero", 3)
    assert a != ("negative-partial-sum", 3)
    assert lie.NoExtension("alternating-sum-nonzero") == lie.NoExtension(
        "alternating-sum-nonzero", None
    )
    assert repr(a) == "NoExtension(reason='negative-partial-sum', index=3)"
    with pytest.raises(AttributeError):
        del a.reason


def test_certificate_is_a_plain_tuple_exactly_when_feasible():
    # feasibility from the fiber-level solver, which reads no certificate
    for n in range(1, 9):
        for mu in partition_list(n):
            cert = lie.extension_certificate(mu)
            sol = cdes.solve_extension(cdes.descent_distribution(mu))
            if isinstance(sol, cdes.Infeasible):
                assert type(cert) is lie.NoExtension, mu
                assert not isinstance(cert, tuple), mu
            else:
                assert type(cert) is tuple, mu


def test_solutions_built_without_axioms_share_no_mutable_object():
    def build():
        fibers = cdes.FiberSolution(4, (0, 0, 0, 1) + (0,) * 12)
        return cdes.CyclicExtensionSolution((3, 1), 4, fibers, (), (), ())

    a, b = build(), build()
    shared = [x for x, y in zip(a, b) if x is y]
    assert not [x for x in shared if isinstance(x, (dict, list, set))]
    # the fiber records hold tuples only, so nothing in them can be shared
    # and changed
    for record in (a.fibers, cdes.descent_distribution((3, 1))):
        assert not [x for x in record if isinstance(x, (dict, list, set))]
        assert type(record.table) is tuple
    with pytest.raises(TypeError):
        a.fibers.counts[3] = 2
    with pytest.raises(TypeError):
        a.axioms["exhaustive"] = True
    assert a.axioms == b.axioms == {}
