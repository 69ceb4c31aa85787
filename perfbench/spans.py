"""Spans around the public functions of each ``msdiagram`` layer.

The tracer wraps functions from the outside: every module namespace of the
loaded package that binds a listed function gets the wrapper, so calls from
inside the library are seen too.  Nothing is changed in the library itself.
Spans stay in memory; ``write`` puts them in a JSON-lines file at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# functions that get a span (calls and self time)
SPANNED = {
    "format": ("parse", "serialize"),
    "core": ("validate", "simplify_diagram", "diagram_linking"),
    "tangle": ("signed_crossing_sum", "faces", "simplify_with_log"),
    "invariants": ("linking_matrix", "smith_normal_form", "chain_complex", "homology",
                   "signature", "surgered_h1", "annotated_homology"),
    "calculus": ("blow_up", "blow_down", "handle_slide", "recognize_s3"),
    "reduction": ("merge_pieces", "delete_superfluous", "to_kirby", "reduce_pipeline"),
    "equivalence": ("canonical_key", "canonical_variants", "separating_invariant",
                    "verify_isomorphism", "isomorphic", "conjugate"),
    "render": ("render",),
}
# hot functions that only get a call counter: a span each would cost more
# than the work they do
COUNTED = {"tangle": ("passages", "crossing_sign"), "calculus": ("apply_move",)}
MOVES = ("blow_up", "blow_down", "handle_slide", "apply_move")
REFUSALS = ("RefusalError", "MoveError", "DiagramError", "other")
VERDICTS = ("recognize_s3", "isomorphic", "conjugate")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start_ns, end_ns, item)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = ""
        self._stack = [0]
        self._ids = itertools.count(1)
        self._originals: dict[str, object] = {}

    # -- wrappers -----------------------------------------------------------

    def _refused(self, exc: BaseException):
        if getattr(exc, "_perfbench_counted", False):
            return  # already counted by the innermost move
        name = type(exc).__name__
        self.counts[f"calculus.moves_refused.{name if name in REFUSALS else 'other'}"] += 1
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass

    def _after(self, name: str, short: str, args, result):
        if short == "simplify_with_log":
            self.counts["tangle.rmoves"] += len(result[1])
        elif short in VERDICTS:
            self.counts[f"{name}.{result.value.lower()}"] += 1
        elif short == "reduce_pipeline" and len(args) > 1 and args[1] is not None:
            self.counts["reduction.log_moves"] += len(args[1])

    def span(self, name: str, fn):
        short = name.split(".")[1]
        stack, spans, calls, ids = self._stack, self.spans, self.calls, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if short in MOVES:
                    self._refused(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.item))
                calls[name] += 1
            self._after(name, short, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        short = name.split(".")[1]
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if short not in MOVES:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._refused(exc)
                raise

        return wrapper

    def install(self):
        """Wrap every listed function in every msdiagram namespace binding it."""
        import msdiagram.cli  # noqa: F401  (loads every layer)

        wrapped = {}
        for table, make in ((SPANNED, self.span), (COUNTED, self.counter)):
            for module, names in table.items():
                mod = sys.modules[f"msdiagram.{module}"]
                for short in names:
                    fn = getattr(mod, short)
                    self._originals[f"{module}.{short}"] = fn
                    wrapped[id(fn)] = make(f"{module}.{short}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "msdiagram" and not modname.startswith("msdiagram."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])

    def original(self, name: str):
        return self._originals[name]

    # -- results ------------------------------------------------------------

    def times(self):
        """Self and total time in ns per (function, item).

        Self time is a span's duration minus the part its direct children
        cover; total time is the whole duration.
        """
        child = defaultdict(int)
        for sid, parent, name, start, end, item in self.spans:
            child[parent] += end - start
        own, total = defaultdict(int), defaultdict(int)
        for sid, parent, name, start, end, item in self.spans:
            own[name, item] += end - start - child[sid]
            total[name, item] += end - start
        return own, total

    def write(self, path: str):
        with open(path, "w") as f:
            for sid, parent, name, start, end, item in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end, "item": item}) + "\n")
