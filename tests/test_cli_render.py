"""CLI exit-code contract, move logs, and SVG rendering."""

import subprocess
import sys
from pathlib import Path

import pytest

from msdiagram import catalog
from msdiagram.calculus import KirbyMove, apply_move, recognize_s3
from msdiagram.core import DiagramError
from msdiagram.format import parse, parse_moves, serialize, serialize_moves
from msdiagram.reduction import reduce_pipeline
from msdiagram.render import render


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "msdiagram.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


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


def test_witness_log_replays_deterministically():
    d = catalog.standard("cp2")
    v = recognize_s3(d, 1)
    text = serialize_moves(v.witness)
    replayed = parse_moves(text)
    cur = d
    for mv in replayed:
        cur = apply_move(cur, mv)
    assert cur.circles == ()
