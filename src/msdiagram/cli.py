"""Command-line interface.

Each subcommand is one entry of COMMANDS (help, handler, arguments, in
--help order), from which main builds the parsers.

Exit codes: 0 for Yes/ok, 1 for No/invalid, 2 for Unknown, 3 for usage and
parse errors (an unknown catalog entry, a negative --depth or --budget, an
input file that cannot be read or decoded, an output file that cannot be
written), 4 when a command refuses a parsed diagram it cannot use (a
DiagramError or MoveError that no command turns into another answer).
_verdict prints a semi-decision's answer and holds its Yes/No/Unknown policy.

The module loads parsing, validation, the catalog and rendering; each
subcommand imports the further layers it runs (invariants, reduction,
calculus, equivalence) when it runs, so a cold ``msd validate`` loads none
of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack

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


def _count(text: str) -> int:
    """A --depth or --budget value: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _load(path: str):
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    try:
        return parse(text)
    except ParseError as e:
        print(f"{path}: {e}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _write(*outputs: tuple[str, str]):
    """Write each (path, text) pair, or none of them: every path is opened
    before any text is written, and when one cannot be opened or written,
    the files this call created are removed.  A path given twice gets its
    last text, as if the pairs were written one after another."""
    made = []
    try:
        with ExitStack() as stack:
            files = []
            for path, text in dict(outputs).items():
                new = not os.path.exists(path)
                files.append((path, stack.enter_context(open(path, "w")), text))
                if new:
                    made.append(path)
            for path, f, text in files:
                f.write(text)
    except OSError as e:
        for new_path in made:
            os.remove(new_path)
        print(f"cannot write {path}: {e}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _valid(d) -> bool:
    """Print each finding of validate(d) as an error line; whether d is valid."""
    report = validate(d)
    for f in report.findings:
        print(f"error: {f.location}: {f.message}")
    return report.ok


def _group(rank: int, torsion) -> str:
    return f"Z^{rank}" + "".join(f" + Z/{t}" for t in torsion)


def _verdict(verdict, witness, obstruction: str | None = None) -> int:
    """Print 'Value: detail', then a Yes witness through witness() or the
    obstruction line of a No; exit 0, 1 or 2 for Yes, No or Unknown."""
    print(f"{verdict.value}: {verdict.detail}")
    if verdict.yes:
        witness(verdict.witness)
        return EXIT_YES
    if verdict.no:
        if obstruction:
            print(f"{obstruction}: {verdict.witness}")
        return EXIT_NO
    return EXIT_UNKNOWN


def cmd_validate(args) -> int:
    ok = _valid(_load(args.file))
    print("ok" if ok else "invalid")
    return EXIT_YES if ok else EXIT_NO


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
    if not _valid(d):
        return EXIT_NO
    print(f"handles: {handle_counts(d)}")
    print(f"euler characteristic: {euler_characteristic(d)}")
    for k, (b, tor) in enumerate(annotated_homology(d)):
        print(f"H{k} = {_group(b, tor)}")
    lm = linking_matrix(d)
    if lm.circles:
        print(f"linking matrix over {', '.join(lm.circles)}:")
        for row in lm.entries:
            print("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    if not d.pairs and not d.surfaces:
        print(f"intersection form signature: {signature(intersection_form(d))}")
    print(f"H1 of the surgered 3-manifold: {_group(*surgered_h1(d))}")
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
    outputs = [(args.output, serialize(out))]
    if args.log:
        outputs.append((args.log, serialize_moves(log)))
    _write(*outputs)
    ann = out.annotation
    print(f"reduced: {len(out.circles)} circles, annotation "
          f"({ann.one_handles}, {ann.three_handles}, {ann.sinks})")
    return EXIT_YES


def cmd_recognize_s3(args) -> int:
    from .calculus import recognize_s3

    return _verdict(recognize_s3(_load(args.file), args.depth),
                    lambda moves: sys.stdout.write(serialize_moves(moves)), "obstruction")


def _print_witness(iso) -> None:
    m = iso.maps
    sinks = tuple(enumerate(m.on_sinks))
    for name, mapping in (("pieces", m.on_pieces), ("pairs", m.on_pairs),
                          ("circles", m.on_circles), ("surfaces", m.on_surfaces),
                          ("sinks", sinks if any(a != b for a, b in sinks) else ())):
        if mapping:
            print(f"  {name}: " + ", ".join(f"{a}->{b}" for a, b in mapping))


def cmd_equiv(args) -> int:
    from .equivalence import isomorphic

    d1, d2 = _load(args.a), _load(args.b)
    return _verdict(isomorphic(d1, d2, budget=args.budget, allow_mirror=args.mirror),
                    _print_witness, "separating invariant")


def cmd_conj(args) -> int:
    from .equivalence import conjugate

    return _verdict(conjugate(_load(args.a), _load(args.b), budget=args.budget), _print_witness)


def cmd_catalog(args) -> int:
    try:
        d = catalog.standard(args.name)
    except (KeyError, ValueError) as e:  # no such entry; n-s1s3(0)
        print(e.args[0], file=sys.stderr)
        return EXIT_USAGE
    text = serialize(d)
    if args.output:
        _write((args.output, text))
    else:
        sys.stdout.write(text)
    return EXIT_YES


def cmd_render(args) -> int:
    d = _load(args.file)
    if not validate(d).ok:
        print("invalid diagram", file=sys.stderr)
        return EXIT_NO
    _write((args.output, render(d)))
    return EXIT_YES


def _arg(*names, **options):
    return names, options


_FILE = _arg("file")
_PAIR = [_arg("a"), _arg("b")]
_OUTPUT = _arg("-o", "--output", required=True)
_BUDGET = _arg("--budget", type=_count, default=2000)

# subcommand -> (help, handler, arguments), in --help order
COMMANDS = {
    "validate": ("check structural invariants", cmd_validate, [_FILE]),
    "invariants": ("homology, Euler characteristic, forms", cmd_invariants, [_FILE]),
    "reduce": ("merge, cancel, and reach Kirby form", cmd_reduce,
               [_FILE, _OUTPUT, _arg("--log")]),
    "recognize-s3": ("bounded 3-sphere recognition", cmd_recognize_s3,
                     [_FILE, _arg("--depth", type=_count, default=3)]),
    "equiv": ("diagram equivalence", cmd_equiv,
              _PAIR + [_BUDGET, _arg("--mirror", action="store_true",
                                     help="allow orientation-reversing piece homeomorphisms")]),
    "conj": ("diffeomorphism conjugacy", cmd_conj, _PAIR + [_BUDGET]),
    "catalog": ("write a standard diagram", cmd_catalog, [_arg("name"), _arg("-o", "--output")]),
    "render": ("draw the diagram as SVG", cmd_render, [_FILE, _OUTPUT]),
}


def main(argv=None) -> int:
    parser = _Parser(prog="msd",
                     description="Diagrams of gradient-like Morse-Smale systems "
                                 "on closed 4-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DiagramError, MoveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
