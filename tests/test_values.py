"""The contract of the value types: immutable, with a frozen dataclass's `==`,
`hash` and `repr`, and the package's lazy re-exports."""

import ast
import copy
import dataclasses
import importlib
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tropigon
from tropigon.adelic import (
    FiniteSection,
    GenericFiber,
    ModuleHandle,
    PrimeFiber,
    PrimeIdeal,
    ValuationVector,
)
from tropigon.envelope import Envelope
from tropigon.polygeom import GeneratorDecomposition, StalkElement, SymPolygon
from tropigon.quadfield import HEEGNER_DS, Field, PlanePoint, QuadInt, QuadRat, Value
from tropigon.selftest import random_polygon
from tropigon.tensorlab import FormalTensor, ReducedElement

SRC = Path(__file__).resolve().parent.parent / "src" / "tropigon"

small = st.integers(-50, 50)
points = st.lists(st.tuples(small, small), max_size=4).map(tuple)


def tuples_of(elements):
    return st.lists(elements, max_size=2).map(tuple)


def values(cls):
    # a fresh value per draw, so that equal fields are distinct objects
    return FIELDS[cls].map(lambda fields: cls(*fields))


# each type's fields, in its constructor's order; a type's fields are drawn
# before the types that hold it
FIELDS = {
    Field: st.tuples(st.sampled_from(HEEGNER_DS)),
    PlanePoint: st.tuples(st.fractions(max_denominator=9), st.fractions(max_denominator=9)),
    Envelope: st.tuples(st.integers(1, 6), points),
    GenericFiber: st.tuples(st.tuples(st.text(max_size=3), st.text(max_size=3))),
}
FIELDS[QuadInt] = st.tuples(values(Field), small, small)
FIELDS[QuadRat] = st.tuples(values(QuadInt), st.integers(1, 9))
# a polygon's repr reads its hull, so its chain is a real one
FIELDS[SymPolygon] = st.builds(lambda f, seed: random_polygon(random.Random(seed), f), values(Field),
                               st.integers(0, 999)).map(lambda p: (p.field, p.scale, p.lower))
FIELDS[GeneratorDecomposition] = st.tuples(tuples_of(tuples_of(values(QuadRat))))
FIELDS[StalkElement] = st.tuples(values(SymPolygon), values(QuadRat))
FIELDS[PrimeIdeal] = st.tuples(values(Field), st.integers(2, 97), st.sampled_from(["split", "inert", "ramified"]),
                               values(QuadInt), st.integers(0, 1))
FIELDS[ValuationVector] = st.tuples(values(Field), tuples_of(st.tuples(values(PrimeIdeal), small)),
                                    tuples_of(values(PrimeIdeal)))
FIELDS[ModuleHandle] = st.tuples(values(Field), st.sampled_from(["zero", "principal", "localized"]),
                                 st.none() | values(QuadRat), tuples_of(values(PrimeIdeal)))
FIELDS[FiniteSection] = st.tuples(values(Field), st.integers(2, 200),
                                  tuples_of(st.tuples(values(PrimeIdeal), values(QuadRat))))
FIELDS[PrimeFiber] = st.tuples(values(PrimeIdeal), values(ModuleHandle))
FIELDS[FormalTensor] = st.tuples(tuples_of(st.tuples(values(Envelope), values(Envelope))))
FIELDS[ReducedElement] = st.tuples(values(FormalTensor), values(FormalTensor))
# the types that keep the dataclass repr; every other one writes its own
DATACLASS_REPR = {PlanePoint, GeneratorDecomposition, StalkElement, FiniteSection, GenericFiber, PrimeFiber,
                  ReducedElement}


def test_every_value_type_is_covered():
    assert set(FIELDS) == set(Value.__subclasses__()) and len(FIELDS) == 16


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_a_value_is_its_tuple_of_fields(cls, data):
    values, others = data.draw(FIELDS[cls]), data.draw(FIELDS[cls])
    x, y, z = cls(*values), cls(*values), cls(*others)
    names = cls.__match_args__
    assert tuple(getattr(x, name) for name in names) == values
    assert x == y and not x != y and hash(x) == hash(y) == hash(values)
    assert (x == z) == (values == others)
    # every field takes part in ==: with one field of the other draw, the value is equal iff that field is
    for i in range(len(names)):
        mixed = values[:i] + others[i : i + 1] + values[i + 1 :]
        assert (cls(*mixed) == x) == (mixed == values)
    assert repr(x) == repr(y)
    if cls in DATACLASS_REPR:
        twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
        assert repr(x) == repr(twin(*values))
    # another class never compares equal, even on the same fields
    assert x.__eq__(values) is NotImplemented and x != values
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y and repr(x) == repr(y)
    # copy and pickle rebuild the value, as they did a frozen dataclass
    assert copy.copy(x) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) == x


def test_equality_is_type_strict():
    assert FormalTensor(()) != GeneratorDecomposition(())
    assert GeneratorDecomposition(()) != FormalTensor(())
    assert hash(FormalTensor(())) == hash(GeneratorDecomposition(())) == hash(((),))


def test_the_cached_views_are_no_fields():
    f = Field(7)
    assert f.units and "units" in vars(f)
    assert f == Field(7) and hash(f) == hash((7,))
    e = Envelope(2, ((1, 0), (0, 1)))
    assert e.lines == ((Fraction(1, 2), 0), (0, Fraction(1, 2))) and "lines" in vars(e)
    assert e == Envelope(2, ((1, 0), (0, 1))) and hash(e) == hash((2, ((1, 0), (0, 1))))


def _home(name):
    # the one module whose top level defines the name
    homes = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            if name in defined:
                homes.append(path.stem)
    assert len(homes) == 1, (name, homes)
    return importlib.import_module(f"tropigon.{homes[0]}")


def test_every_exported_name_is_its_home_module_binding():
    assert len(tropigon.__all__) == len(set(tropigon.__all__)) == 90
    assert {cls.__name__ for cls in FIELDS} <= set(tropigon.__all__)
    for name in tropigon.__all__:
        assert getattr(tropigon, name) is getattr(_home(name), name)
    with pytest.raises(AttributeError):
        tropigon.no_such_name
