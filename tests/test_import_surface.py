"""The package root's names, bound on first read, and what a cold process loads."""

import importlib
import json
import sys

import pytest

import msdiagram
from helpers import fresh
from msdiagram import catalog, cli
from msdiagram.format import serialize

# every name the package root bound when it imported all of its modules up front
PINNED = {
    "calculus": ("RefusalError", "apply_move", "blow_down", "blow_up", "handle_slide",
                 "recognize_s3"),
    "core": ("Diagram", "DiagramError", "FramingParallel", "GluedCircle", "InternalMaps",
             "Kind", "KirbyAnnotation", "KirbyMove", "Piece", "SpanningSurface", "SpherePair",
             "SphereWall", "ValidationReport", "Verdict", "WallCurve", "check_admissible",
             "handle_counts", "relabel", "validate"),
    "equivalence": ("Isomorphism", "canonical_key", "conjugate", "isomorphic", "mirror",
                    "verify_isomorphism"),
    "format": ("ParseError", "parse", "parse_moves", "serialize", "serialize_moves"),
    "invariants": ("ChainComplex", "LinkingMatrix", "SurgeryPresentation",
                   "annotated_homology", "chain_complex", "euler_characteristic", "homology",
                   "intersection_form", "linking_matrix", "signature", "smith_normal_form",
                   "surgered_h1", "surgery_presentation"),
    "reduction": ("delete_superfluous", "find_superfluous_surface", "merge_all",
                  "merge_pieces", "reduce_pipeline", "to_kirby"),
    "render": ("render",),
    "tangle": ("Crossing", "MoveError", "Strand", "TangleCode", "braid_closure",
               "linking_number", "writhe"),
}
NAMES = {name for names in PINNED.values() for name in names}
SUBMODULES = ("calculus", "catalog", "cli", "core", "equivalence", "format", "invariants",
              "reduction", "tangle")
LAZY = {"calculus", "catalog", "equivalence", "invariants", "reduction"}


def test_every_pinned_name_is_its_home_modules_object():
    for module, names in PINNED.items():
        home = importlib.import_module(f"msdiagram.{module}")
        for name in names:
            assert getattr(msdiagram, name) is getattr(home, name), f"{module}.{name}"
    assert msdiagram.__version__ == "0.1.0"


def test_render_stays_the_function_once_its_module_is_loaded():
    importlib.import_module("msdiagram.render")
    from msdiagram import render

    assert render is msdiagram.render is sys.modules["msdiagram.render"].render


def test_star_import_gives_the_public_names():
    namespace: dict = {}
    exec("from msdiagram import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    assert set(msdiagram.__all__) == NAMES


def test_submodules_resolve_as_attributes():
    for module in SUBMODULES:
        assert getattr(msdiagram, module) is importlib.import_module(f"msdiagram.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        msdiagram.__getattr__("no_such_name")
    assert not hasattr(msdiagram, "no_such_name")


def test_cold_root_loads_no_module_until_a_name_is_read():
    out = json.loads(fresh(
        "import json, sys, msdiagram\n"
        "before = sorted(m for m in sys.modules if m.startswith('msdiagram.'))\n"
        "core, render = msdiagram.core, msdiagram.render\n"
        "print(json.dumps([before, core.__name__, render.__module__, callable(render)]))"))
    assert out == [[], "msdiagram.core", "msdiagram.render", True]


def test_cold_cli_import_loads_only_the_shared_layers():
    loaded = set(json.loads(fresh(
        "import json, sys, msdiagram.cli\nprint(json.dumps(sorted(sys.modules)))")))
    package = {m for m in loaded if m == "msdiagram" or m.startswith("msdiagram.")}
    assert package == {"msdiagram", "msdiagram.cli", "msdiagram.core", "msdiagram.format",
                       "msdiagram.render", "msdiagram.tangle"}
    assert not {"fractions", "dataclasses", "inspect"} & loaded


def test_cold_cli_import_loads_no_typing():
    # -S: no site hook that may load typing before the package does
    loaded = json.loads(fresh(
        "import json, sys, msdiagram.cli\nprint(json.dumps(sorted(sys.modules)))", "-S"))
    assert "msdiagram.tangle" in loaded and "typing" not in loaded


def test_cold_cli_import_compiles_no_function():
    # exec, eval and compile calls made from the package or from dataclasses
    # while msd's modules load, and the records loaded: each record's __init__
    # is a template's code with its names replaced, and no record registers
    # its fields with dataclasses until they are read
    made, records = json.loads(fresh(
        "import builtins, dataclasses, json, sys\n"
        "made, real = [], {n: getattr(builtins, n) for n in ('exec', 'eval', 'compile')}\n"
        "def counting(name):\n"
        "    def call(*args, **kwargs):\n"
        "        caller = sys._getframe(1).f_globals.get('__name__', '')\n"
        "        if caller.partition('.')[0] in ('dataclasses', 'msdiagram'):\n"
        "            made.append([name, caller])\n"
        "        return real[name](*args, **kwargs)\n"
        "    return call\n"
        "for name in real:\n"
        "    setattr(builtins, name, counting(name))\n"
        "import msdiagram.cli\n"
        "for name, f in real.items():\n"
        "    setattr(builtins, name, f)\n"
        "records = [c for m in list(sys.modules) if m.startswith('msdiagram.')\n"
        "           for c in vars(sys.modules[m]).values() if isinstance(c, type)\n"
        "           and c.__module__ == m and dataclasses.is_dataclass(c)]\n"
        "print(json.dumps([made, len(records)]))"))
    assert records == 19
    assert made == []


@pytest.fixture
def files(tmp_path):
    for name in ("cp2", "s1xs3", "swap-diffeo"):
        (tmp_path / f"{name}.msd").write_text(serialize(catalog.standard(name)))
    return tmp_path


# the lazy layers each subcommand loads in a cold process
SUBCOMMANDS = [
    (["validate", "s1xs3.msd"], set()),
    (["invariants", "s1xs3.msd"], {"invariants"}),
    (["reduce", "s1xs3.msd", "-o", "out.msd"], {"reduction"}),
    (["recognize-s3", "cp2.msd"], LAZY - {"catalog"}),
    (["equiv", "cp2.msd", "s1xs3.msd"], {"equivalence", "invariants"}),
    (["conj", "swap-diffeo.msd", "swap-diffeo.msd"], {"equivalence", "invariants"}),
    (["catalog", "cp2", "-o", "cat.msd"], {"catalog"}),
    (["render", "cp2.msd", "-o", "cp2.svg"], set()),
]


def test_every_subcommand_has_a_cold_import_case():
    assert [argv[0] for argv, _ in SUBCOMMANDS] == list(cli.COMMANDS)


@pytest.mark.parametrize("argv,layers", SUBCOMMANDS, ids=[a[0] for a, _ in SUBCOMMANDS])
def test_cold_subcommand_loads_only_its_layers(files, argv, layers):
    argv = [str(files / a) if a.endswith((".msd", ".svg")) else a for a in argv]
    code = ("import contextlib, io, json, sys\nfrom msdiagram import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))")
    code, loaded = json.loads(fresh(code))
    assert code in (0, 1, 2)
    assert {m for m in LAZY if f"msdiagram.{m}" in loaded} == layers
    assert not {"fractions", "decimal", "dataclasses", "inspect"} & set(loaded)
    # a plain argv is read without argparse, which would load gettext and locale
    assert not {"argparse", "gettext", "locale"} & set(loaded)
