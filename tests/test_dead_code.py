"""Every top-level function and class of the package is used somewhere.

A name counts as used when source, tests or the benchmark refer to it other
than by its own definition: as a name, an attribute, an import, or inside a
string that is not a docstring (the benchmark's tracer names the functions it
wraps in strings).  Conversely, every function the tracer wraps must exist,
or the traced benchmark run would crash where tier-1 passed.  And every
private function (a leading underscore, not a dunder) reads each of its
parameters, its own nested functions included; a method need not read self.
Every field of every record (a class declared with @record or @dataclass)
is read as an attribute somewhere, so no stored fact goes unread.  Imports
run in one direction: the module-level imports between the package's
modules form no cycle, and no module but the command line and the package
root imports a package module inside a function.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "msdiagram"


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _references(tree) -> set[str]:
    docs = {id(node) for node in _docstrings(tree)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            out.update(re.findall(r"\w+", node.value))
    return out


def test_no_unused_top_level_definitions():
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _references(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name not in used:
                unused.append(f"{path.name}: {node.name}")
    assert not unused, unused


def _dataclass_fields(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(dec.func if isinstance(dec, ast.Call) else dec, "id", None)
                in ("dataclass", "record") for dec in node.decorator_list):
            yield from ((node.name, item.target.id) for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))


def test_every_dataclass_field_is_read():
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    scanned = {(path.stem, cls, name) for path in sorted(PACKAGE.glob("*.py"))
               for cls, name in _dataclass_fields(ast.parse(path.read_text()))}
    # the scan sees every field the imported classes register, so it checks something
    modules = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    registered = {(m, cls.__name__, name) for m in modules
                  for cls in vars(importlib.import_module(f"msdiagram.{m}")).values()
                  if isinstance(cls, type) and cls.__module__ == f"msdiagram.{m}"
                  for name in getattr(cls, "__dataclass_fields__", ())}
    assert scanned == registered
    assert (len({cls for _, cls, _ in scanned}), len(scanned)) == (23, 79)
    unread = [f"{module}.py: {cls}.{name}" for module, cls, name in sorted(scanned)
              if name not in read]
    assert not unread, unread


def _unread_parameters(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name.startswith("_") and not node.name.endswith("__"):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a is not None and a.arg != "self"]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from (f"{node.name}({p})" for p in params if p not in read)


def test_private_functions_read_their_parameters():
    unread = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _unread_parameters(ast.parse(path.read_text()))]
    assert not unread, unread


def test_benchmark_hooks_exist():
    # executed from its text, so that no bytecode is written under perfbench/
    path = ROOT / "perfbench" / "spans.py"
    spans = importlib.util.module_from_spec(importlib.util.spec_from_loader("spans", None))
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    missing = [f"{module}.{name}"
               for table in (spans.SPANNED, spans.COUNTED)
               for module, names in table.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"msdiagram.{module}"),
                                       name, None))]
    assert not missing, missing
    # the worker reads the canonical-key cache's size and hit counts
    info = importlib.import_module("msdiagram.equivalence").canonical_key.cache_info()
    assert {"hits", "misses", "currsize"} <= set(info._fields)


def _package_imports(node):
    """(module, line) for each package module an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        names = [node.module] if node.module else [a.name for a in node.names]
        return [(name.split(".")[0], node.lineno) for name in names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return []
    return [(name.split(".")[1], node.lineno) for name in names
            if name.startswith("msdiagram.")]


def test_imports_run_in_one_direction():
    graph, inner = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [n for n in ast.walk(tree)
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        in_function = {id(n) for f in functions for n in ast.walk(f)}
        graph[path.stem] = {m for node in ast.walk(tree) if id(node) not in in_function
                            for m, _ in _package_imports(node)}
        if path.name not in ("cli.py", "__init__.py"):
            inner |= {f"{path.name}:{line} imports {m}" for f in functions
                      for node in ast.walk(f) for m, line in _package_imports(node)}
    assert not inner, sorted(inner)
    # depth first: a module met again while it is still open closes a cycle
    state: dict[str, str] = {}

    def visit(module, trail):
        state[module] = "open"
        for nxt in sorted(graph.get(module, ())):
            assert state.get(nxt) != "open", f"import cycle: {' -> '.join(trail + [nxt])}"
            if nxt not in state:
                visit(nxt, trail + [nxt])
        state[module] = "done"

    for module in sorted(graph):
        if module not in state:
            visit(module, [module])
