"""CLI exit-code contract, move logs, and SVG rendering."""

from dataclasses import replace
from pathlib import Path

import pytest

from helpers import run_msd as run_cli
from msdiagram import catalog, cli
from msdiagram.calculus import KirbyMove, apply_move, recognize_s3
from msdiagram.core import DiagramError
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


def test_refusal_on_valid_input_exits_4(tmp_path, capsys):
    # valid, but the braided connectors through the internal pair leave an
    # odd crossing sum between circles, which the linking matrix refuses
    path = tmp_path / "odd.msd"
    path.write_text(
        "msd 1\npiece P1\nwall P1.A points=3\nwall P1.B points=3\n"
        "pair Q1 a=P1.A b=P1.B match=0,1,2 orient=+\n"
        "crossing P1.x1 ends=S2.0.i,S1.0.i,S2.0.o,S1.0.o over=1 sign=+\n"
        "strand P1.S1 path=x1:1 from=B:0 to=A:0\n"
        "strand P1.S2 path=x1:0 from=B:1 to=A:1\n"
        "strand P1.S3 path=- from=B:2 to=A:2\n"
        "circle c1 strands=P1.S1 framing=0\n"
        "circle c2 strands=P1.S2 framing=0\n"
        "circle c3 strands=P1.S3 framing=0\nsinks 1\n")
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
