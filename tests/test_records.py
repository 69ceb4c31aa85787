"""Every record class behaves as the frozen dataclass it replaces.

Each class the package modules register fields for (__dataclass_fields__)
is checked against a frozen dataclass built here with the same name,
fields and defaults: the same hash, repr, signature and refusals, so set
and dict orders and every printed record stay what they were.
"""

import importlib
import inspect
from dataclasses import MISSING, FrozenInstanceError, field, fields, make_dataclass, replace
from pathlib import Path

import pytest

from helpers import fields_only
from msdiagram import catalog
from msdiagram.core import FramingParallel, WallCurve, validate
from msdiagram.tangle import Crossing

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "msdiagram"
RECORDS = sorted(
    (cls for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
     for cls in vars(importlib.import_module(f"msdiagram.{path.stem}")).values()
     if isinstance(cls, type) and cls.__module__ == f"msdiagram.{path.stem}"
     and "__dataclass_fields__" in vars(cls)),
    key=lambda cls: (cls.__module__, cls.__name__))


def reference(cls):
    """The frozen dataclass with cls's name, fields and defaults."""
    return make_dataclass(cls.__name__, [
        (f.name, f.type) if f.default is MISSING else (f.name, f.type, field(default=f.default))
        for f in fields(cls)], frozen=True)


def values(cls, tag: str) -> tuple:
    """Field values for one instance; only Crossing checks what it stores."""
    if cls is Crossing:
        return (f"x{tag}", 1 + len(tag) % 2)
    return tuple(f"{f.name}{tag}" for f in fields(cls))


def test_every_record_is_found():
    assert len(RECORDS) == 24
    assert not any(issubclass(cls, Exception) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_frozen_dataclass(cls):
    ref = reference(cls)
    args, other = values(cls, "a"), values(cls, "bb")
    r, twin, r2 = cls(*args), cls(*args), cls(*other)
    names = [f.name for f in fields(cls)]
    # equality and hash agree with the field tuple, and with the dataclass
    assert r == twin and not r != twin and r != r2 and r is not twin
    assert hash(r) == hash(twin) == hash(args) == hash(ref(*args))
    assert hash(r2) == hash(other)
    assert r != ref(*args) and r.__eq__(ref(*args)) is NotImplemented
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, args))
    assert repr(r) == repr(ref(*args)) == f"{cls.__name__}({shown})"
    # replace and fields round-trip
    assert [f.name for f in fields(r)] == [f.name for f in fields(ref)]
    assert replace(r) == r and replace(r, **dict(zip(names, other))) == r2
    assert tuple(getattr(r, n) for n in names) == args and fields_only(r)
    # frozen: no field can be assigned or deleted, nor can anything else
    for name in (names[0], "_cache"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    assert tuple(getattr(r, n) for n in names) == args
    # the dataclass's parameters and defaults, and its refusals of bad calls
    params = inspect.signature(cls).parameters
    assert [(p.name, p.default, p.kind) for p in params.values()] == \
        [(p.name, p.default, p.kind) for p in inspect.signature(ref).parameters.values()]
    required = [p for p in params.values() if p.default is inspect.Parameter.empty]
    if required:
        with pytest.raises(TypeError, match=required[-1].name):
            cls(*args[:len(required) - 1])
    with pytest.raises(TypeError, match="no_such_field"):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, None)
    # a docstring of its own, not one dataclass computes from a signature
    assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}(")


def test_records_of_different_classes_differ():
    a, b = FramingParallel("c1", 1), WallCurve("c1", 1)
    assert hash(a) == hash(b) and a != b and b != a
    assert len({a, b}) == 2


def test_crossing_checks_its_over_flag():
    with pytest.raises(ValueError, match="crossing x: over must be 1 or 2"):
        Crossing("x", 3)
    assert Crossing("x", 2).over == 2


@pytest.mark.parametrize("name", ["cp2", "swap-diffeo", "n-s1s3(2)"])
def test_catalog_records_hash_their_field_tuples(name):
    d = catalog.standard(name)
    seen = [d, *d.pieces, *d.pairs, *d.circles, *d.surfaces]
    seen += [x for p in d.pieces for x in (p.tangle, *p.tangle.crossings, *p.tangle.strands)]
    for r in seen:
        assert hash(r) == hash(tuple(getattr(r, f.name) for f in fields(r)))
    # a replaced diagram starts cold: nothing its original cached comes along
    validate(d)
    d.piece(d.pieces[0].id)
    assert not fields_only(d) and fields_only(replace(d))
    assert replace(d) == d and hash(replace(d)) == hash(d)
