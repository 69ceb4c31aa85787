"""CLI exit-code contract, move logs, and SVG rendering."""

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import child_env
from helpers import run_msd as run_cli
from msdiagram import catalog, cli
from msdiagram.calculus import KirbyMove, apply_move, recognize_s3
from msdiagram.core import DiagramError, _check_circles, _check_pieces, validate
from msdiagram.format import ParseError, parse, parse_moves, serialize, serialize_moves
from msdiagram.invariants import linking_matrix
from msdiagram.reduction import reduce_pipeline
from msdiagram.render import render


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name in ("s4-polar", "cp2", "cp2-mirror", "s2xs2", "s1xs3", "swap-diffeo"):
        p = tmp_path / f"{name}.msd"
        p.write_text(serialize(catalog.standard(name)))
        paths[name] = str(p)
    zero = tmp_path / "zero-unknot.msd"
    zero.write_text(
        "msd 1\npiece P1\nstrand P1.S1 path=- from=- to=-\n"
        "circle c1 strands=P1.S1 framing=0\nsinks 1\n")
    paths["zero"] = str(zero)
    bad = tmp_path / "bad.msd"
    bad.write_text("msd 1\npiece P1\nsinks 0\n")
    paths["bad"] = str(bad)
    garbage = tmp_path / "garbage.msd"
    garbage.write_text("not a diagram\n")
    paths["garbage"] = str(garbage)
    return paths, tmp_path


def test_validate_exit_codes(files):
    paths, _ = files
    assert run_cli("validate", paths["cp2"]).returncode == 0
    assert run_cli("validate", paths["bad"]).returncode == 1
    assert run_cli("validate", paths["garbage"]).returncode == 3


def test_malformed_imap_exit_code(files):
    paths, tmp = files
    bad = tmp / "bad-imap.msd"
    with open(paths["swap-diffeo"]) as f:
        bad.write_text(f.read().replace("sinks=0", "sinks=x"))
    out = run_cli("validate", str(bad))
    assert out.returncode == 3
    assert "Traceback" not in out.stderr


def test_reserved_character_id_exit_code(tmp_path):
    # the repeated strands= field was read as the circle's id
    path = tmp_path / "reserved-id.msd"
    path.write_text("msd 1\npiece P1\nstrand P1.S1 path=- from=- to=-\n"
                    "circle strands=P1.S1 strands=P1.S1 framing=1\nsinks 1\n")
    for args in (("validate",), ("reduce", "-o", str(tmp_path / "out.msd"))):
        out = run_cli(*args[:1], str(path), *args[1:])
        assert out.returncode == 3, (args, out.stderr)
        assert "Traceback" not in out.stderr
        assert "reserved-id.msd: line 4: got 'strands=P1.S1'" in out.stderr


def test_multi_sink_without_incidence_is_invalid(tmp_path):
    # one piece, one empty pair, one surface, two sinks: d4 is not determined
    path = tmp_path / "two-sinks.msd"
    path.write_text(
        "msd 1\npiece P1\nwall P1.W1 points=0\nwall P1.W2 points=0\n"
        "pair Q1 a=P1.W1 b=P1.W2 match=- orient=+\n"
        "surface F1 genus=0 boundary=-\nsinks 2\n")
    out = run_cli("validate", str(path))
    assert out.returncode == 1
    assert "error: sinks: multi-sink diagram with surfaces needs an explicit " \
           "sink incidence block" in out.stdout
    out = run_cli("invariants", str(path))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr and "sink incidence block" in out.stdout
    with pytest.raises(DiagramError, match="sink incidence block"):
        reduce_pipeline(parse(path.read_text()))
    out = run_cli("reduce", str(path), "-o", str(tmp_path / "out.msd"))
    assert out.returncode == 1
    assert not (tmp_path / "out.msd").exists()


def test_boundary_maps_must_compose_to_zero(tmp_path, capsys):
    # the disk's boundary runs once over Q1: d2.d3 != 0, though d1.d2 = 0
    path = tmp_path / "dd.msd"
    path.write_text(
        "msd 1\npiece P1\nwall P1.A points=1\nwall P1.B points=1\n"
        "pair Q1 a=P1.A b=P1.B match=0 orient=+\n"
        "strand P1.S1 path=- from=B:0 to=A:0\n"
        "circle c1 strands=P1.S1 framing=0\n"
        "surface f1 genus=0 boundary=Cc1:+\nsinks 1\n")
    finding = "error: surface f1: boundary runs +1 times over pair Q1: d2.d3 != 0"
    assert cli.main(["validate", str(path)]) == 1
    assert finding in capsys.readouterr().out
    assert cli.main(["invariants", str(path)]) == 1
    assert finding in capsys.readouterr().out
    with pytest.raises(DiagramError, match="d2.d3"):
        reduce_pipeline(parse(path.read_text()))


ODD_CROSSING_SUM = (
    "msd 1\npiece P1\nwall P1.A points=3\nwall P1.B points=3\n"
    "pair Q1 a=P1.A b=P1.B match=0,1,2 orient=+\n"
    "crossing P1.x1 ends=S2.0.i,S1.0.i,S2.0.o,S1.0.o over=1 sign=+\n"
    "strand P1.S1 path=x1:1 from=B:0 to=A:0\n"
    "strand P1.S2 path=x1:0 from=B:1 to=A:1\n"
    "strand P1.S3 path=- from=B:2 to=A:2\n"
    "circle c1 strands=P1.S1 framing=0\n"
    "circle c2 strands=P1.S2 framing=0\n"
    "circle c3 strands=P1.S3 framing=0\nsinks 1\n")


def test_refusal_on_valid_input_exits_4(tmp_path, capsys):
    # valid, but the braided connectors through the internal pair leave an
    # odd crossing sum between circles, which the linking matrix refuses
    path = tmp_path / "odd.msd"
    path.write_text(ODD_CROSSING_SUM)
    assert cli.main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["invariants", str(path)]) == 4
    assert "error: odd crossing sum" in capsys.readouterr().err


def test_duplicate_circle_id_is_invalid(tmp_path):
    # two split unknots under one circle id
    text = ("msd 1\npiece P1\nstrand P1.S1 path=- from=- to=-\n"
            "strand P1.S2 path=- from=- to=-\n"
            "circle c1 strands=P1.S1 framing=1\ncircle c1 strands=P1.S2 framing=-1\n"
            "sinks 1\n")
    path = tmp_path / "twice.msd"
    path.write_text(text)
    out = run_cli("validate", str(path))
    assert out.returncode == 1
    assert out.stdout == "error: circle c1: duplicate circle id\ninvalid\n"
    with pytest.raises(DiagramError, match="duplicate circle id"):
        linking_matrix(parse(text))


def test_endpoint_on_empty_wall_is_invalid(tmp_path):
    # a wall without points has no slot to trace faces through
    path = tmp_path / "empty-wall.msd"
    path.write_text(
        "msd 1\npiece P1\nwall P1.W1 points=0\nwall P1.W2 points=1\n"
        "strand P1.S1 path=- from=W1:0 to=W2:0\nsinks 1\n")
    out = run_cli("validate", str(path))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stdout == "error: piece P1/strand S1: endpoint on missing point W1:0\ninvalid\n"


@pytest.mark.parametrize("old, new, finding", [
    ("one_handles=1", "one_handles=3", "one_handles=3 but 1 dotted"),
    ("dotted=h1", "dotted=zz", "dotted ids must be distinct circles of the diagram"),
    ("sinks=1", "sinks=2", "sinks=2 but the diagram has 1"),
])
def test_edited_kirby_annotation_is_invalid(files, capsys, old, new, finding):
    # these edits of the reduced s1xs3 made msd invariants print H2 = Z^-2,
    # H1 = 0 with H2 = Z^-1, and H2 = Z: the counts must agree with the diagram
    paths, tmp = files
    reduced = tmp / "s1xs3-kirby.msd"
    assert cli.main(["reduce", paths["s1xs3"], "-o", str(reduced)]) == 0
    text = reduced.read_text()
    assert text.endswith("sinks 1\nannotation one_handles=1 three_handles=1 sinks=1 dotted=h1\n")
    path = tmp / "edited.msd"
    path.write_text(text.replace(old, new))
    capsys.readouterr()
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"error: annotation: {finding}\ninvalid\n"
    assert cli.main(["invariants", str(path)]) == 1
    assert capsys.readouterr().out == f"error: annotation: {finding}\n"


def test_usage_error_exit_code(files):
    assert run_cli("frobnicate").returncode == 3
    assert run_cli("validate").returncode == 3


def test_unusable_files_and_values_exit_3_without_a_traceback(files):
    # each a fresh process: an output in a missing directory, an input that
    # does not decode, a catalog entry the catalog refuses, a negative bound,
    # an option the subcommand does not take
    paths, tmp = files
    missing = str(tmp / "no-such-dir" / "x.msd")
    undecodable = tmp / "undecodable.msd"
    undecodable.write_bytes(b"msd 1\n\xff\n")
    for args, stderr in (
            (("catalog", "cp2", "-o", missing), f"cannot write {missing}"),
            (("reduce", paths["s1xs3"], "-o", missing), f"cannot write {missing}"),
            (("reduce", paths["s1xs3"], "-o", str(tmp / "out.msd"), "--log", missing),
             f"cannot write {missing}"),
            (("render", paths["cp2"], "-o", missing), f"cannot write {missing}"),
            (("validate", str(undecodable)), f"cannot read {undecodable}"),
            (("catalog", "n-s1s3(0)"), "n must be at least 1"),
            (("recognize-s3", paths["cp2"], "--depth", "-1"), "got '-1'"),
            (("equiv", paths["cp2"], paths["cp2"], "--budget", "-1"),
             "unrecognized arguments: --budget -1"),
            (("conj", paths["swap-diffeo"], paths["swap-diffeo"], "--budget", "-2"),
             "unrecognized arguments: --budget -2")):
        out = run_cli(*args)
        assert (out.returncode, out.stdout) == (3, ""), (args, out.stderr)
        assert stderr in out.stderr and "Traceback" not in out.stderr, (args, out.stderr)


def test_reduce_leaves_no_output_behind_on_a_usage_error(files):
    # every output path is opened before any is written: a --log in a
    # missing directory leaves no -o file
    paths, tmp = files
    out, log = tmp / "out.msd", str(tmp / "no-such-dir" / "x.log")
    result = run_cli("reduce", paths["cp2"], "-o", str(out), "--log", log)
    assert result.returncode == 3 and f"cannot write {log}" in result.stderr
    assert not out.exists()
    done = run_cli("reduce", paths["cp2"], "-o", str(out), "--log", str(tmp / "x.log"))
    assert done.returncode == 0
    assert out.read_text() == serialize(reduce_pipeline(catalog.standard("cp2")))
    # one path given for both outputs ends with the log, written last
    both = run_cli("reduce", paths["cp2"], "-o", str(out), "--log", str(out))
    assert both.returncode == 0 and out.read_text() == (tmp / "x.log").read_text()


def test_outputs_may_be_devices(files):
    # an output need not be a regular file: writing to the null device works
    paths, _ = files
    for args in (("catalog", "cp2", "-o", os.devnull),
                 ("render", paths["cp2"], "-o", os.devnull),
                 ("reduce", paths["cp2"], "-o", os.devnull, "--log", os.devnull)):
        out = run_cli(*args)
        assert out.returncode == 0 and out.stderr == "", (args, out.stderr)


def test_validate_a_huge_wall_in_bounded_time(tmp_path):
    # a wall reports its first unused point, found from the used ones,
    # and a matching's length is compared before it is sorted
    path = tmp_path / "huge-wall.msd"
    path.write_text("msd 1\npiece P1\nwall P1.W points=99999999999999999999\nsinks 1\n")
    start = time.perf_counter()
    report = validate(parse(path.read_text()))
    assert time.perf_counter() - start < 1.0
    assert [f.message for f in report.findings] == ["wall belongs to no pair",
                                                    "marked point 0 unused"]
    out = run_cli("validate", str(path))
    assert out.returncode == 1
    assert out.stdout.endswith("error: wall P1.W: marked point 0 unused\ninvalid\n")


def test_an_end_off_the_wall_is_reported_once():
    # an end at a point the wall lacks is named where the endpoint is
    # checked; the circle check, which validate runs only once every end is
    # on a point, counts only the points a wall has, so run past the piece
    # check it still finds the point the stray end left unused
    d = parse(serialize(catalog.cp2_two_piece()).replace("to=W1:1", "to=W1:5"))
    assert [(f.location, f.message) for f in validate(d).findings] == [
        ("piece P1/strand S1", "endpoint on missing point W1:5")]
    findings = []
    _, _, strands, uncovered = _check_pieces(d, [])
    _check_circles(d, findings, strands, uncovered)
    assert [(f.location, f.message) for f in findings][-1] == (
        "wall P1.W1", "marked point 1 unused")


def test_invariants_output(files):
    paths, _ = files
    out = run_cli("invariants", paths["s2xs2"])
    assert out.returncode == 0
    assert "euler characteristic: 4" in out.stdout
    assert "H2 = Z^2" in out.stdout
    assert "signature: 0" in out.stdout


def test_recognize_exit_codes(files):
    paths, _ = files
    assert run_cli("recognize-s3", paths["cp2"], "--depth", "1").returncode == 0
    assert run_cli("recognize-s3", paths["zero"], "--depth", "2").returncode == 1
    out = run_cli("recognize-s3", paths["cp2"], "--depth", "0")
    assert out.returncode == 2


def test_equiv_exit_codes(files):
    paths, _ = files
    assert run_cli("equiv", paths["cp2"], paths["cp2"]).returncode == 0
    assert run_cli("equiv", paths["cp2"], paths["cp2-mirror"]).returncode == 1
    assert run_cli("equiv", paths["cp2"], paths["cp2-mirror"],
                   "--mirror").returncode == 0


def test_conj_exit_codes(files):
    paths, _ = files
    assert run_cli("conj", paths["swap-diffeo"], paths["swap-diffeo"]).returncode == 0


def test_conj_prints_witness(files):
    # three sinks cycled 0->1->2 against a copy that cycles 0->2->1: the
    # witness renumbers the sinks, so it gets a sinks line
    paths, tmp = files
    base = catalog.identity_diffeo(catalog.s2xs2())
    for name, on_sinks in (("a", (1, 2, 0)), ("b", (2, 0, 1))):
        (tmp / f"{name}.msd").write_text(serialize(replace(
            base, sink_count=3, internal_maps=replace(base.internal_maps, on_sinks=on_sinks))))
    out = run_cli("conj", str(tmp / "a.msd"), str(tmp / "b.msd"))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("Yes: ")
    assert "  pieces: P1->P1" in lines
    assert "  sinks: 0->0, 1->2, 2->1" in lines
    # the identity on sinks is not printed
    out = run_cli("conj", paths["swap-diffeo"], paths["swap-diffeo"])
    assert "  circles: c1->c1, c2->c2" in out.stdout.splitlines()
    assert "sinks" not in out.stdout


def test_reduce_round_trip(files):
    paths, tmp = files
    out_path = str(tmp / "out.msd")
    log_path = str(tmp / "out.log")
    r = run_cli("reduce", paths["s1xs3"], "-o", out_path, "--log", log_path)
    assert r.returncode == 0
    assert run_cli("validate", out_path).returncode == 0
    text = Path(log_path).read_text()
    assert "replace-pair" in text


def test_catalog_command(files, tmp_path):
    out = str(tmp_path / "cat.msd")
    assert run_cli("catalog", "s2xs2", "-o", out).returncode == 0
    assert run_cli("validate", out).returncode == 0
    assert run_cli("catalog", "nonsense").returncode == 3


def test_render_command(files, tmp_path):
    paths, _ = files
    out = str(tmp_path / "pic.svg")
    assert run_cli("render", paths["s2xs2"], "-o", out).returncode == 0
    svg = Path(out).read_text()
    assert svg.count('class="crossing"') == 2
    assert 'class="framing-label"' in svg


def test_render_contents():
    svg = render(catalog.standard("cp2"))
    assert svg.startswith("<svg")
    assert 'class="strand"' in svg
    assert "+1" in svg
    svg = render(catalog.standard("s1xs3"))
    assert svg.count('class="wall"') == 2
    svg = render(catalog.standard("s2xs2"))
    assert svg.count('class="crossing"') == 2
    assert svg.count('class="under"') == 4  # two broken under-passages


def test_move_log_round_trip():
    moves = [
        KirbyMove("blow-up", ("P1", 0, 1)),
        KirbyMove("blow-down", ("c1",)),
        KirbyMove("handle-slide", ("c1", "c2", ("P1", ("S1", 0), ("S2", 1), -1))),
        KirbyMove("merge-pieces", ("Q1",)),
        KirbyMove("delete-surface", ("F1", "c2")),
        KirbyMove("replace-pair", ("Q1", "h1")),
    ]
    text = serialize_moves(moves)
    assert parse_moves(text) == moves


@pytest.mark.parametrize("record, token", [
    ("move blow-up piece=P1 region=x sign=+", "x"),
    ("move blow-up piece=P1 region=0 sign=x", "x"),
    ("move blow-up piece=P1 region=0", "piece=P1"),
    ("move blow-up piece=P1 region=0 sign=+ extra=1", "extra"),
    ("move blow-up piece=P1 region=0 sign=+ sign=-", "sign"),
    ("move blow-up piece=P.1 region=0 sign=+", "P.1"),
    ("move handle-slide c1=c1 c2=c2 band=junk", "junk"),
    ("move handle-slide c1=c1 c2=c2 band=P1:S1.0:S2:+", "P1:S1.0:S2:+"),
    ("move handle-slide c1=c1 c2=c2 band=P1:S1.0:S2.x:+", "x"),
    ("move handle-slide c1=c1 c2=c2 band=P1:S1.0:S2.1:x", "x"),
    ("move handle-slide c1=c1 c2=c2 band=P1:S1.0:S2.1:-+", "-+"),
    ("move fold c1=c1", "fold"),
    ("blow-up piece=P1", "blow-up"),
])
def test_parse_moves_rejects_malformed_records(record, token):
    with pytest.raises(ParseError) as err:
        parse_moves(f"move blow-down circle=c1\n{record}\n")
    assert (err.value.line, err.value.token) == (2, token)


def test_witness_log_replays_deterministically():
    d = catalog.standard("cp2")
    v = recognize_s3(d, 1)
    text = serialize_moves(v.witness)
    replayed = parse_moves(text)
    cur = d
    for mv in replayed:
        cur = apply_move(cur, mv)
    assert cur.circles == ()


def test_reduce_of_a_reduce_output_is_byte_identical(files):
    paths, tmp = files
    once, twice, log = (tmp / name for name in ("once.msd", "twice.msd", "twice.log"))
    assert run_cli("reduce", paths["s1xs3"], "-o", str(once)).returncode == 0
    r = run_cli("reduce", str(once), "-o", str(twice), "--log", str(log))
    assert r.returncode == 0, r.stderr
    assert twice.read_bytes() == once.read_bytes()
    assert log.read_text() == ""
    out = run_cli("invariants", str(twice))
    assert "H1 = Z^1" in out.stdout and "H2 = Z^0" in out.stdout


def test_recognize_a_diffeomorphism_exits_as_its_framed_link(files):
    # swap-diffeo is the Hopf link of s2xs2 with a circle map; it exited 4
    paths, _ = files
    for name in ("swap-diffeo", "s2xs2"):
        out = run_cli("recognize-s3", paths[name], "--depth", "3")
        assert out.returncode == 2, out.stderr


def test_help_lists_exactly_the_command_table(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert re.search(r"\{([^}]*)\}", out).group(1).split(",") == list(cli.COMMANDS)
    rows = re.findall(r"^    (\S+) +(.+)$", out, re.M)
    assert rows == [(name, help_text) for name, (help_text, _, _) in cli.COMMANDS.items()]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_subcommand_prints_its_help(capsys, name):
    # argparse formats an argument's help only when it prints it
    with pytest.raises(SystemExit) as exit_:
        cli.main([name, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: msd {name} [-h]")


USAGE = ("usage: msd [-h]\n"
         "           {validate,invariants,reduce,recognize-s3,equiv,conj,catalog,render}\n"
         "           ...\n")
# Python 3.13's argparse keeps the ... on the line of the choices
USAGE_3_13 = USAGE.replace("}\n           ...", "} ...")
HELP = USAGE + """
Diagrams of gradient-like Morse-Smale systems on closed 4-manifolds

positional arguments:
  {validate,invariants,reduce,recognize-s3,equiv,conj,catalog,render}
    validate            check structural invariants
    invariants          homology, Euler characteristic, forms
    reduce              merge, cancel, and reach Kirby form
    recognize-s3        bounded 3-sphere recognition
    equiv               diagram equivalence
    conj                diffeomorphism conjugacy
    catalog             write a standard diagram
    render              draw the diagram as SVG

options:
  -h, --help            show this help message and exit
"""
CHOICES = ", ".join(map(repr, cli.COMMANDS))
# (argv, exit code, stdout, stderr) of msd before plain runs bypassed argparse
HELP_AND_USAGE_ERRORS = [
    (["--help"], 0, HELP, ""),
    (["validate", "--help"], 0, "usage: msd validate [-h] file\n\npositional arguments:\n"
     "  file\n\noptions:\n  -h, --help  show this help message and exit\n", ""),
    (["validate"], 3, "", "usage: msd validate [-h] file\nmsd validate: error: the following "
     "arguments are required: file\n"),
    (["recognize-s3", "F", "--depth", "-1"], 3, "", "usage: msd recognize-s3 [-h] [--depth DEPTH] "
     "file\nmsd recognize-s3: error: argument --depth: expected a non-negative integer, got '-1'\n"),
    (["equiv", "A", "B", "--budget", "5"], 3, "",
     USAGE + "msd: error: unrecognized arguments: --budget 5\n"),
    (["nope"], 3, "", USAGE + "msd: error: argument command: invalid choice: 'nope' "
     f"(choose from {CHOICES})\n"),
]


@pytest.mark.parametrize("argv,code,stdout,stderr", HELP_AND_USAGE_ERRORS,
                         ids=[" ".join(a) for a, *_ in HELP_AND_USAGE_ERRORS])
def test_help_and_usage_errors_read_as_before(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    out = run_cli(*argv)
    assert out.returncode == code
    assert out.stdout in (stdout, stdout.replace(USAGE, USAGE_3_13))
    # some Pythons print argparse's choices with str(), not repr()
    assert out.stderr in {text.replace(USAGE, usage) for usage in (USAGE, USAGE_3_13)
                          for text in (stderr, stderr.replace(CHOICES, CHOICES.replace("'", "")))}


def _parsed(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parse(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("argv", [
    ["validate", "f.msd"], ["conj", "a", "b"], ["catalog", "n-s1s3(2)"],
    ["catalog", "-o", "out", "cp2"], ["render", "f", "--output", "o"],
    ["reduce", "f", "-o", "out", "--log", "log"], ["reduce", "--log", "", "--output", "o", "f"],
    ["recognize-s3", "f"], ["recognize-s3", "--depth", "\uff13", "f"],
    ["equiv", "a", "--mirror", "b"], ["invariants", "x"]], ids=" ".join)
def test_plain_argv_is_read_as_argparse_reads_it(argv):
    assert cli._read(argv) is not None
    assert cli._read(argv) == _parsed(argv)


SPELLINGS = sorted({name for _, _, arguments in cli.COMMANDS.values()
                    for names, _ in arguments for name in names if name.startswith("-")})
# plain words, non-ASCII digits among them, and spellings only argparse reads
WORDS = st.sampled_from(["0", "3", "\u00b2", "\uff13", "\u0663", " 4", "+5", " -2", "",
                         "f.msd", "cp2", "validate"])
ODD = st.sampled_from([*SPELLINGS, "-h", "--help", "--", "-", "--out", "--dep", "--mir", "--l",
                       "--output=o", "--depth=2", "-oo", "-1", "-0"])


@st.composite
def near_plain_argv(draw):
    """A subcommand's arguments from COMMANDS in any order, plus at most one odd word."""
    name = draw(st.sampled_from([*cli.COMMANDS, "nope", "valid"]))
    chunks = []
    for names, spec in cli.COMMANDS.get(name, (None, None, []))[2]:
        if not names[0].startswith("-"):
            chunks.append([draw(WORDS)])
        elif spec.get("required") or draw(st.booleans()):
            value = [] if "action" in spec else [draw(WORDS)]
            chunks.append([draw(st.sampled_from(names)), *value])
    chunks += draw(st.lists(st.one_of(WORDS, ODD).map(lambda word: [word]), max_size=1))
    return [name, *(word for chunk in draw(st.permutations(chunks)) for word in chunk)]


ARGV = st.one_of(near_plain_argv(),
                 st.lists(st.one_of(st.sampled_from(list(cli.COMMANDS)), WORDS, ODD), max_size=6))


@settings(max_examples=500, deadline=None)
@given(ARGV)
def test_plain_reader_agrees_with_argparse(argv):
    # the reader answers an argv only as argparse does, and leaves to it
    # every argv argparse refuses or answers with help
    read = cli._read(argv)
    assert read is None or read == _parsed(argv)


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [["invariants", "s2xs2"], ["catalog", "n-s1s3(3)"]])
def test_a_closed_stdout_exits_3_without_a_traceback(files, buffered, argv):
    paths, _ = files
    argv = [paths.get(a, a) for a in argv]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # the pipe has no reader before msd writes
    try:
        out = subprocess.run([sys.executable, "-m", "msdiagram.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    # no traceback, and no "Exception ignored" from the interpreter's last flush
    assert (out.returncode, out.stderr) == (3, "")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_in_process_callers_keep_their_stdout(files, monkeypatch):
    paths, _ = files
    closed, fd_before = _ClosedPipe(), os.fstat(1)
    monkeypatch.setattr(sys, "stdout", closed)
    assert cli.main(["validate", paths["cp2"]]) == 3
    assert sys.stdout is closed
    fd_after = os.fstat(1)
    assert (fd_after.st_dev, fd_after.st_ino) == (fd_before.st_dev, fd_before.st_ino)


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,code,files_read", [
    (["validate", "cp2"], 0, 1), (["catalog", "n-s1s3(0)"], 3, 0), (["invariants", "odd"], 4, 1),
    (["validate"], "exit 3", 0), (["--help"], "exit 0", 0),
    (["validate", "--depth", "1"], "exit 3", 0)])
def test_main_pauses_the_collector_and_restores_it(files, monkeypatch, capsys, collecting,
                                                   argv, code, files_read):
    paths, tmp = files
    (tmp / "odd.msd").write_text(ODD_CROSSING_SUM)
    paths = dict(paths, odd=str(tmp / "odd.msd"))
    argv = [paths.get(a, a) for a in argv]
    loads, load = [], cli._load
    monkeypatch.setattr(cli, "_load", lambda path: loads.append(gc.isenabled()) or load(path))
    (gc.enable if collecting else gc.disable)()
    try:
        if isinstance(code, int):
            assert cli.main(argv) == code
        else:
            with pytest.raises(SystemExit) as exit_:
                cli.main(argv)
            assert f"exit {exit_.value.code}" == code
        assert gc.isenabled() is collecting
    finally:
        gc.enable()
    assert loads == [False] * files_read
