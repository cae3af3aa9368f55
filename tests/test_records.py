"""The package's record classes: value equality, hashing, immutability,
validation messages and printed forms."""

import re

import pytest

from qhv.degenerations import FAMILIES, glued_family, quadric_chart
from qhv.group_actions import QUADRIC_CHART_RING, Derivation, TorusAction
from qhv.polyring import PolyError, SubstitutionMap, VariableContext
from qhv.ruled import (
    BundleState,
    DivisorClass,
    construct_twisted,
    figure1_normalize,
    hirzebruch,
    quadric_blowup,
    replay_reversed,
)
from qhv.singular import CyclicQuotient

XY = VariableContext(("x", "y"), invertible=("y",))


def _identity(ring):
    return SubstitutionMap(ring, ring, {n: ring.var(n) for n in ring.names})


def _derivation(ring):
    return Derivation(ring, {n: ring.var(n) for n in ring.names})


#: One instance of each record class and the name of one of its fields.
RECORDS = {
    "VariableContext": (lambda: VariableContext(("x", "y")), "names"),
    "SubstitutionMap": (lambda: _identity(XY), "assignments"),
    "Derivation": (lambda: _derivation(XY), "images"),
    "TorusAction": (lambda: TorusAction({"x": 1}), "weights"),
    "ChartModel": (lambda: quadric_chart(1), "torus"),
    "GluedFamily": (lambda: glued_family("quadric", 1, 1), "gluing"),
    "ChartFamily": (lambda: FAMILIES["quadric"], "marked"),
    "Lattice": (lambda: hirzebruch(1), "param"),
    "DivisorClass": (lambda: DivisorClass(hirzebruch(1), (1, 0)), "coords"),
    "BundleState": (lambda: BundleState(1, 0, 0), "k0"),
    "CyclicQuotient": (lambda: CyclicQuotient(5, (1, 2, 3)), "n"),
}


@pytest.mark.parametrize("record", RECORDS)
def test_fields_cannot_be_assigned(record):
    make, field = RECORDS[record]
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        obj.extra = 1
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


@pytest.mark.parametrize("record", RECORDS)
def test_records_are_tuples(record):
    make, _ = RECORDS[record]
    assert isinstance(make(), tuple)


@pytest.mark.parametrize("record", RECORDS)
def test_separately_built_records_are_equal(record):
    make, _ = RECORDS[record]
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_variable_contexts_compare_by_value():
    a = VariableContext(["x", "y", "l"], invertible={"l"})
    b = VariableContext(("x", "y", "l"), invertible=("l",))
    assert a == b and hash(a) == hash(b)
    assert a.names == ("x", "y", "l") and a.invertible == frozenset({"l"})
    assert {a: 1}[b] == 1
    assert a != VariableContext(("x", "y", "l"))
    assert a != VariableContext(("y", "x", "l"), invertible={"l"})
    assert QUADRIC_CHART_RING == VariableContext(("x", "y", "z", "w", "l"), invertible={"l"})


def test_dict_records_compare_by_their_data():
    assert _identity(XY) != _identity(VariableContext(("x", "y")))
    assert _derivation(XY) != Derivation(XY, {"x": XY.var("y"), "y": XY.var("y")})
    assert TorusAction({"x": 1, "l": 2}) == TorusAction({"l": 2, "x": 1})
    assert TorusAction({"x": 1}) != TorusAction({"x": 2})
    assert _identity(XY) != _derivation(XY)


def test_dict_records_keep_a_copy_of_their_mapping():
    weights = {"x": 1}
    action = TorusAction(weights)
    weights["x"] = 5
    assert action.weights == {"x": 1}


def test_cyclic_quotient_weights_are_reduced():
    q = CyclicQuotient(5, (6, 2, -2))
    assert q.weights == (1, 2, 3)
    assert q == CyclicQuotient(5, (1, 2, 3)) and hash(q) == hash(CyclicQuotient(5, (1, 7, 8)))
    assert q != CyclicQuotient(7, (1, 2, 3))


def test_divisor_classes_compare_by_lattice_and_coords():
    d = DivisorClass(hirzebruch(1), [1, 0])
    assert d.coords == (1, 0) and d.lattice == hirzebruch(1)
    assert d == DivisorClass(hirzebruch(1), (1, 0))
    assert d != DivisorClass(hirzebruch(2), (1, 0))
    assert d != DivisorClass(hirzebruch(1), (0, 1))


# (constructor, arguments, exception, message)
INVALID = [
    (VariableContext, (("x", "x"),), PolyError, "duplicate variable names in ('x', 'x')"),
    (VariableContext, (("x",), {"y", "z"}), PolyError,
     "invertible variables not in context: ['y', 'z']"),
    (SubstitutionMap, (XY, XY, {"x": XY.var("x")}), PolyError, "unassigned variables: ['y']"),
    (SubstitutionMap, (XY, XY, {"x": XY.var("x"), "y": XY.var("y"), "q": XY.var("x")}),
     PolyError, "assignments for unknown variables: ['q']"),
    (SubstitutionMap, (XY, XY, {"x": XY.var("x"), "y": VariableContext(("y",)).var("y")}),
     PolyError, "image of 'y' lives outside the target context"),
    (SubstitutionMap, (XY, XY, {"x": XY.var("x"), "y": XY.var("x") + XY.var("y")}),
     PolyError, "invertible variable 'y' must map to a unit monomial, got x + y"),
    (Derivation, (XY, {"x": XY.var("x")}), PolyError, "derivation lacks images for ['y']"),
    (Derivation, (XY, {"x": XY.var("x"), "y": XY.var("y"), "q": XY.var("x")}), PolyError,
     "derivation has images for unknown variables ['q']"),
    (Derivation, (XY, {"x": XY.var("x"), "y": VariableContext(("y",)).var("y")}), PolyError,
     "image of 'y' lives in a different context"),
    (CyclicQuotient, (1, (1, 1, 1)), ValueError, "group order must be at least 2, got 1"),
    (CyclicQuotient, (5, (1, 2)), ValueError, "exactly three weights are required"),
    (DivisorClass, (hirzebruch(1), (1, 2, 3)), ValueError, "expected 2 coordinates, got (1, 2, 3)"),
    (DivisorClass, (quadric_blowup(1), [1]), ValueError, "expected 3 coordinates, got (1,)"),
    (BundleState, (1, -1, 0), ValueError, "twist counters must be nonnegative"),
    (BundleState, (1, 0, -2), ValueError, "twist counters must be nonnegative"),
    (BundleState, (0, 0, 0), ValueError, "the construction needs a base index >= 1"),
]


@pytest.mark.parametrize("make, args, error, message", INVALID)
def test_validation_messages(make, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(*args)


def test_printed_forms():
    assert str(CyclicQuotient(5, (1, 7, -2))) == "(1/5)(1, 2, 3)"
    assert str(CyclicQuotient(2, (1, 1, 1))) == "(1/2)(1, 1, 1)"
    blowup = quadric_blowup(2)
    assert str(DivisorClass(blowup, (1, 2, 1, -1))) == "f1 + 2*f2 - e1 + e2"
    assert str(DivisorClass(blowup, (0, 0, 0, 0))) == "0"
    assert str(DivisorClass(blowup, (-1, 0, 0, 3))) == "-f1 - 3*e2"
    assert str(DivisorClass(hirzebruch(3), (1, 1))) == "C0 + F"


def test_bundle_round_trip_replays_the_state():
    for n in (1, 2, 5):
        for k0 in range(4):
            for k_inf in range(4):
                state = construct_twisted(n, k0, k_inf)
                final, steps = figure1_normalize(state)
                replayed = replay_reversed(n, steps)
                assert replayed == state and hash(replayed) == hash(state)
                assert final == BundleState(n, 0, 0, state.transcript + steps)
                assert replayed.fiber_m == k0 + k_inf


def test_substitution_apply_is_a_class_attribute(monkeypatch):
    # the benchmark's tracer wraps the method on the class
    calls = []
    original = SubstitutionMap.apply

    def wrapped(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(SubstitutionMap, "apply", wrapped)
    p = XY.var("x") * XY.var("y")
    assert _identity(XY).apply(p) == p and calls == [p]

