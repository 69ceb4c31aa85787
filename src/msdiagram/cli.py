"""Command-line interface.

Exit codes: 0 for Yes/ok, 1 for No/invalid, 2 for Unknown, 3 for usage and
parse errors, 4 when a command refuses a parsed diagram it cannot use (a
DiagramError or MoveError that no command turns into another answer).

The module loads parsing, validation, the catalog and rendering; each
subcommand imports the further layers it runs (invariants, reduction,
calculus, equivalence) when it runs, so a cold ``msd validate`` loads none
of them.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog
from .core import DiagramError, handle_counts, validate
from .format import ParseError, parse, serialize, serialize_moves
from .render import render  # perfbench/spans.py reaches this layer only through cli
from .tangle import MoveError

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _load(path: str):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    try:
        return parse(text)
    except ParseError as e:
        print(f"{path}: {e}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _write(path: str, text: str):
    with open(path, "w") as f:
        f.write(text)


def cmd_validate(args) -> int:
    d = _load(args.file)
    report = validate(d)
    for f in report.findings:
        print(f"{f.severity}: {f.location}: {f.message}")
    print("ok" if report.ok else "invalid")
    return EXIT_YES if report.ok else EXIT_NO


def cmd_invariants(args) -> int:
    from .invariants import (
        annotated_homology,
        euler_characteristic,
        intersection_form,
        linking_matrix,
        signature,
        surgered_h1,
    )

    d = _load(args.file)
    report = validate(d)
    if not report.ok:
        for f in report.errors():
            print(f"error: {f.location}: {f.message}")
        return EXIT_NO
    n = handle_counts(d)
    print(f"handles: {n}")
    print(f"euler characteristic: {euler_characteristic(d)}")
    hom = annotated_homology(d)
    for k, (b, tor) in enumerate(hom):
        extra = "" if not tor else " + " + " + ".join(f"Z/{t}" for t in tor)
        print(f"H{k} = Z^{b}{extra}")
    lm = linking_matrix(d)
    if lm.circles:
        print(f"linking matrix over {', '.join(lm.circles)}:")
        for row in lm.entries:
            print("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    if not d.pairs and not d.surfaces:
        form = intersection_form(d)
        print(f"intersection form signature: {signature(form)}")
    rank, torsion = surgered_h1(d)
    extra = "" if not torsion else " + " + " + ".join(f"Z/{t}" for t in torsion)
    print(f"H1 of the surgered 3-manifold: Z^{rank}{extra}")
    return EXIT_YES


def cmd_reduce(args) -> int:
    from .reduction import reduce_pipeline

    d = _load(args.file)
    log: list = []
    try:
        out = reduce_pipeline(d, log)
    except (DiagramError, MoveError) as e:
        print(f"reduction failed: {e}", file=sys.stderr)
        return EXIT_NO
    _write(args.output, serialize(out))
    if args.log:
        _write(args.log, serialize_moves(log))
    ann = out.annotation
    print(f"reduced: {len(out.circles)} circles, annotation "
          f"({ann.one_handles}, {ann.three_handles}, {ann.sinks})")
    return EXIT_YES


def cmd_recognize_s3(args) -> int:
    from .calculus import recognize_s3

    verdict = recognize_s3(_load(args.file), args.depth)
    print(f"{verdict.value}: {verdict.detail}")
    if verdict.yes:
        sys.stdout.write(serialize_moves(verdict.witness))
        return EXIT_YES
    if verdict.no:
        print(f"obstruction: {verdict.witness}")
        return EXIT_NO
    return EXIT_UNKNOWN


def _print_witness(iso) -> None:
    sinks = tuple(enumerate(iso.sink_map))
    for name, mapping in (("pieces", iso.piece_map), ("pairs", iso.pair_map),
                          ("circles", iso.circle_map), ("surfaces", iso.surface_map),
                          ("sinks", sinks if any(a != b for a, b in sinks) else ())):
        if mapping:
            print(f"  {name}: " + ", ".join(f"{a}->{b}" for a, b in mapping))


def cmd_equiv(args) -> int:
    from .equivalence import isomorphic

    d1, d2 = _load(args.a), _load(args.b)
    verdict = isomorphic(d1, d2, budget=args.budget, allow_mirror=args.mirror)
    print(f"{verdict.value}: {verdict.detail}")
    if verdict.yes:
        _print_witness(verdict.witness)
        return EXIT_YES
    if verdict.no:
        print(f"separating invariant: {verdict.witness}")
        return EXIT_NO
    return EXIT_UNKNOWN


def cmd_conj(args) -> int:
    from .equivalence import conjugate

    verdict = conjugate(_load(args.a), _load(args.b), budget=args.budget)
    print(f"{verdict.value}: {verdict.detail}")
    if verdict.yes:
        _print_witness(verdict.witness)
        return EXIT_YES
    return EXIT_NO if verdict.no else EXIT_UNKNOWN


def cmd_catalog(args) -> int:
    try:
        d = catalog.standard(args.name)
    except KeyError as e:
        print(e.args[0], file=sys.stderr)
        return EXIT_USAGE
    text = serialize(d)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def cmd_render(args) -> int:
    d = _load(args.file)
    report = validate(d)
    if not report.ok:
        print("invalid diagram", file=sys.stderr)
        return EXIT_NO
    _write(args.output, render(d))
    return EXIT_YES


def main(argv=None) -> int:
    parser = _Parser(prog="msd",
                     description="Diagrams of gradient-like Morse-Smale systems "
                                 "on closed 4-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural invariants")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("invariants", help="homology, Euler characteristic, forms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("reduce", help="merge, cancel, and reach Kirby form")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--log")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("recognize-s3", help="bounded 3-sphere recognition")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=cmd_recognize_s3)

    p = sub.add_parser("equiv", help="diagram equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--mirror", action="store_true",
                   help="allow orientation-reversing piece homeomorphisms")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("conj", help="diffeomorphism conjugacy")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(fn=cmd_conj)

    p = sub.add_parser("catalog", help="write a standard diagram")
    p.add_argument("name")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("render", help="draw the diagram as SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DiagramError, MoveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
