"""Command-line interface.

Each subcommand is one entry of COMMANDS (help, handler, arguments, in
--help order).  main reads a plain argv from that table itself (_read), and
builds argparse's parsers from it only for what _read leaves to them: help,
usage errors and unusual spellings (_parse).

Exit codes: 0 for Yes/ok, 1 for No/invalid, 2 for Unknown, 3 for usage and
parse errors (an option the subcommand does not take, an unknown catalog
entry, a negative --depth, an input file that cannot be read or decoded, an
output file that cannot be written, a closed standard output, as in
``msd invariants d.msd | head -1``), 4 when a command refuses a parsed
diagram it cannot use (a DiagramError or MoveError that no command turns
into another answer).  None of them prints a traceback.
_verdict prints a semi-decision's answer and holds its Yes/No/Unknown policy.

The module loads parsing, validation and rendering; each subcommand imports
the further layers it runs (invariants, reduction, calculus, equivalence,
the catalog) when it runs, so a cold ``msd validate`` loads none of them,
and a cold plain run loads none of argparse, gettext or locale.  The cycle
collector is paused while main runs: records and dart tables make no
reference cycles, and full collections would walk every object of a large
diagram.
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import ExitStack
from types import SimpleNamespace

from .core import DiagramError, handle_counts, validate
from .format import ParseError, parse, serialize, serialize_moves
from .render import render  # perfbench/spans.py reaches this layer only through cli
from .tangle import MoveError

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


def _natural(text: str) -> int | None:
    """text as a non-negative integer, as int() reads it, or None."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if n >= 0 else None


def _count(text: str) -> int:
    """A --depth value: a non-negative integer."""
    n = _natural(text)
    if n is None:
        import argparse  # loaded already: only argparse calls this

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
    return _verdict(isomorphic(d1, d2, allow_mirror=args.mirror),
                    _print_witness, "separating invariant")


def cmd_conj(args) -> int:
    from .equivalence import conjugate

    return _verdict(conjugate(_load(args.a), _load(args.b)), _print_witness)


def cmd_catalog(args) -> int:
    from . import catalog

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

# subcommand -> (help, handler, arguments), in --help order
COMMANDS = {
    "validate": ("check structural invariants", cmd_validate, [_FILE]),
    "invariants": ("homology, Euler characteristic, forms", cmd_invariants, [_FILE]),
    "reduce": ("merge, cancel, and reach Kirby form", cmd_reduce,
               [_FILE, _OUTPUT, _arg("--log")]),
    "recognize-s3": ("bounded 3-sphere recognition", cmd_recognize_s3,
                     [_FILE, _arg("--depth", type=_count, default=3)]),
    "equiv": ("diagram equivalence", cmd_equiv,
              _PAIR + [_arg("--mirror", action="store_true",
                            help="allow orientation-reversing piece homeomorphisms")]),
    "conj": ("diffeomorphism conjugacy", cmd_conj, _PAIR),
    "catalog": ("write a standard diagram", cmd_catalog, [_arg("name"), _arg("-o", "--output")]),
    "render": ("draw the diagram as SVG", cmd_render, [_FILE, _OUTPUT]),
}


def _read(argv: list[str]) -> dict | None:
    """What argparse's namespace holds for a plain argv, or None.

    Plain means: a subcommand of COMMANDS; its positionals, none starting
    with '-', as many as it takes; its options in their exact spellings, each
    at most once, a value option followed by one value not starting with '-'
    (a --depth value a non-negative integer); every required option given.
    Anything else, help and abbreviations among it, is left to _parse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, arguments = COMMANDS[argv[0]]
    found = {"command": argv[0], "fn": fn}
    positionals, options, required = [], {}, set()
    for names, spec in arguments:
        if not names[0].startswith("-"):
            positionals.append(names[0])
            continue
        # argparse's dest: the first long spelling, or else the first one
        dest = next((n for n in names if n.startswith("--")), names[0]).lstrip("-")
        dest = dest.replace("-", "_")
        flag = spec.get("action") == "store_true"
        found[dest] = spec.get("default", False if flag else None)
        options.update((name, (dest, flag, spec.get("type"))) for name in names)
        if spec.get("required"):
            required.add(dest)
    free, given = iter(positionals), set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            dest = next(free, None)
            if dest is None:
                return None
            found[dest] = token
            continue
        dest, flag, kind = options.get(token, (None, False, None))
        if dest is None or dest in given:
            return None
        given.add(dest)
        if flag:
            found[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if kind is _count:
            value = _natural(value)
            if value is None:
                return None
        found[dest] = value
    if next(free, None) is not None or not required <= given:
        return None
    return found


def _parse(argv: list[str]):
    """argv read by argparse, which prints help and usage errors (exit 3)."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            sys.exit(EXIT_USAGE)

    parser = _Parser(prog="msd",
                     description="Diagrams of gradient-like Morse-Smale systems "
                                 "on closed 4-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(fn=fn)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one subcommand on argv (default sys.argv[1:]); return its exit code.

    The caller's cycle collector state is restored on every exit path."""
    argv = sys.argv[1:] if argv is None else list(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        found = _read(argv)
        args = _parse(argv) if found is None else SimpleNamespace(**found)
        code = args.fn(args)
        if sys.stdout is not None:  # None when the process started with no stdout
            sys.stdout.flush()
        return code
    except (DiagramError, MoveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:
            # the process's own stdout: the interpreter's last flush goes nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
