"""Every record class behaves as the frozen dataclass it replaces.

Each class the package modules register fields for (__dataclass_fields__)
is checked against a frozen dataclass built here with the same name,
fields and defaults: the same hash, repr, signature and refusals, so set
and dict orders and every printed record stay what they were.  A record
registers its fields with dataclasses on their first read, and
tangle.replace copies it as dataclasses.replace would.
"""

import dis
import importlib
import inspect
import json
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    InitVar,
    field,
    fields,
    make_dataclass,
    replace,
)
from pathlib import Path
from typing import ClassVar

import pytest

from helpers import fields_only, fresh
from msdiagram import catalog, tangle
from msdiagram.core import FramingParallel, WallCurve, validate
from msdiagram.tangle import Crossing, record

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
    assert len(RECORDS) == 23
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


def old_init(cls):
    """The __init__ record compiled before its templates: one line per field,
    compiled here on the running Python."""
    env, params = {"_set": object.__setattr__}, []
    for f in fields(cls):
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    body = [f"_set(self, {f.name!r}, {f.name})" for f in fields(cls)]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return env["__init__"]


def refusal(init, cls, *args, **kwargs) -> str:
    """The text of the error init raises on a fresh instance of cls."""
    with pytest.raises((TypeError, ValueError)) as got:
        init(object.__new__(cls), *args, **kwargs)
    return f"{got.type.__name__}: {got.value}"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_template_init_matches_the_compiled_one(cls):
    new, old = cls.__init__, old_init(cls)
    assert inspect.signature(new) == inspect.signature(old)
    assert new.__defaults__ == old.__defaults__
    assert all(a is b for a, b in zip(new.__defaults__ or (), old.__defaults__ or ()))
    assert new.__name__ == old.__name__ and new.__qualname__ == old.__qualname__
    # the same instructions on the same names and constants
    assert [(i.opname, i.argval) for i in dis.get_instructions(new)] == \
        [(i.opname, i.argval) for i in dis.get_instructions(old)]
    args = values(cls, "a")
    made = [object.__new__(cls) for _ in "ab"]
    new(made[0], *args)
    old(made[1], *args)
    assert list(vars(made[0]).items()) == list(vars(made[1]).items())
    assert made[0] == made[1] == cls(*args)
    # a missing argument, an extra positional one and an unknown keyword (a
    # near miss, so Python 3.13 suggests the field name in both)
    names = [f.name for f in fields(cls)]
    for bad_args, bad_kwargs in [((), {}), ((*args, None), {}),
                                 (args, {f"{names[-1]}x": 1})]:
        if bad_args or any(f.default is MISSING for f in fields(cls)):
            assert refusal(new, cls, *bad_args, **bad_kwargs) == \
                refusal(old, cls, *bad_args, **bad_kwargs)
    if cls is Crossing:
        assert refusal(new, cls, "x", 3) == refusal(old, cls, "x", 3) == \
            "ValueError: crossing x: over must be 1 or 2"


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


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_package_replace_matches_dataclasses_replace(cls):
    r = cls(*values(cls, "a"))
    every = dict(zip((f.name for f in fields(cls)), values(cls, "bb")))
    for changes in ({}, every):
        got, want = tangle.replace(r, **changes), replace(r, **changes)
        assert got == want and got is not r and type(got) is cls and repr(got) == repr(want)
    with pytest.raises(TypeError) as got:
        tangle.replace(r, no_such_field=1)
    with pytest.raises(TypeError) as want:
        replace(r, no_such_field=1)
    assert str(got.value) == str(want.value)


# the first read of a record's fields from dataclasses, each in a process of its own
FIRST_READS = {
    "fields-of-class": ("[f.name for f in dataclasses.fields(Strand)]",
                        ["id", "visits", "start", "end"]),
    "fields-of-instance": ("[f.name for f in dataclasses.fields(r)]",
                           ["id", "visits", "start", "end"]),
    "is_dataclass": ("dataclasses.is_dataclass(r)", True),
    "replace": ("repr(dataclasses.replace(r, id='s2'))",
                "Strand(id='s2', visits=(('x', 0),), start=('W', 1), end=None)"),
}


@pytest.mark.parametrize("read,answer", FIRST_READS.values(), ids=list(FIRST_READS))
def test_first_read_registers_the_record(read, answer):
    before, after, got, defaults = json.loads(fresh(
        "import json, sys\n"
        "from msdiagram.tangle import Crossing, Strand\n"
        "def state():\n"
        "    kinds = [type(vars(c)['__dataclass_fields__']).__name__ for c in (Strand, Crossing)]\n"
        "    return [kinds, repr(r), hash(r), Strand.__match_args__]\n"
        "r = Strand('s1', (('x', 0),), ('W', 1))\n"
        "before = [*state(), 'dataclasses' in sys.modules]\n"
        "import dataclasses\n"
        f"got = {read}\n"
        "defaults = [[f.name, None if f.default is dataclasses.MISSING else repr(f.default)]\n"
        "            for f in vars(Strand)['__dataclass_fields__'].values()]\n"
        "print(json.dumps([before, state(), got, defaults]))"))
    # the read registers Strand alone; repr, hash and match args are unchanged by it
    assert before == [["_LazyFields", "_LazyFields"], *after[1:], False]
    assert after[0] == ["dict", "_LazyFields"]
    assert after[3] == ["id", "visits", "start", "end"]
    assert got == answer
    assert defaults == [["id", None], ["visits", "()"], ["start", "None"], ["end", "None"]]


# a field line record cannot read, and the error it raises at class creation
REFUSED = {
    "ClassVar": ("count: ClassVar[int] = 0", TypeError),
    "InitVar": ("scale: InitVar[int] = 1", TypeError),
    "field": ("items: tuple = field(default=())", TypeError),
    "unhashable": ("items: list = []", ValueError),
}


@pytest.mark.parametrize("future", [False, True], ids=["objects", "strings"])
@pytest.mark.parametrize("line,error", REFUSED.values(), ids=list(REFUSED))
def test_record_refuses_what_it_cannot_read(line, error, future):
    # with the future import the annotations are strings, as in the package
    source = ("from __future__ import annotations\n" if future else "") + (
        f"@record\nclass Bad:\n    \"\"\"A record.\"\"\"\n\n    id: str\n    {line}\n")
    with pytest.raises(error, match="Bad.(count|scale|items)"):
        exec(source, {"record": record, "ClassVar": ClassVar, "InitVar": InitVar,
                      "field": field})


# a class body record has no template for, and the error it raises at class creation
NO_TEMPLATE = {
    "default-first": ("a: int = 0\n    b: int", "Bad.b: a field without a default follows"),
    "self": ("self: int", "Bad.self: a record takes no field named self"),
    "no-fields": ("", "Bad: no record template for a field count of 0$"),
    "nine-fields": ("\n    ".join(f"f{i}: int" for i in range(9)),
                    "Bad: no record template for a field count of 9$"),
    "post-init": ("a: int\n    def __post_init__(self):\n        pass",
                  "Bad: no record template for a field count of 1 with __post_init__$"),
}


@pytest.mark.parametrize("body,error", NO_TEMPLATE.values(), ids=list(NO_TEMPLATE))
def test_record_refuses_a_class_with_no_template(body, error):
    with pytest.raises(TypeError, match=error):
        exec(f"@record\nclass Bad:\n    \"\"\"A record.\"\"\"\n\n    {body}\n", {"record": record})
