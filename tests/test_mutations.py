"""Mutation fuzzing of MSD/1 input: malformed text ends in ParseError, and
every command answers a parsed file with an exit code."""

import contextlib
import io
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msdiagram import catalog, cli
from msdiagram.core import relabel, validate
from msdiagram.format import ParseError, parse, serialize

SOURCES = [serialize(catalog.standard(name)) for name in catalog.names() if "(" not in name]
SOURCES.append(serialize(catalog.n_s1xs3(2)))
MUTATIONS = ("delete line", "duplicate line", "swap lines",
             "delete token", "duplicate token", "swap tokens", "rewrite integer")


@st.composite
def mutated_texts(draw):
    """A catalog text and one to three mutations of its lines, tokens and integers."""
    source = draw(st.sampled_from(SOURCES))
    lines = source.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(MUTATIONS))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete line":
            del lines[i]
        elif op == "duplicate line":
            lines.insert(i, lines[i])
        elif op == "swap lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "rewrite integer":
            text = "\n".join(lines)
            spots = list(re.finditer(r"-?\d+", text))
            if spots:
                m = spots[draw(st.integers(0, len(spots) - 1))]
                value = str(draw(st.integers(-3, 12)))
                lines = (text[:m.start()] + value + text[m.end():]).split("\n")
        else:
            tokens = lines[i].split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            if op == "delete token":
                del tokens[k]
            elif op == "duplicate token":
                tokens.insert(k, tokens[k])
            else:
                j = draw(st.integers(0, len(tokens) - 1))
                tokens[k], tokens[j] = tokens[j], tokens[k]
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return source, "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
def test_parse_raises_only_parse_error(case):
    _, text = case
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_texts())
def test_every_command_answers_a_parsed_mutation_with_an_exit_code(case):
    source, text = case
    try:
        parse(text)
    except ParseError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, original = os.path.join(tmp, "mutant.msd"), os.path.join(tmp, "source.msd")
        for name, body in ((path, text), (original, source)):
            with open(name, "w") as f:
                f.write(body)
        for args in (["validate", path], ["invariants", path],
                     ["reduce", path, "-o", os.path.join(tmp, "out.msd")],
                     ["recognize-s3", path, "--depth", "1"],
                     ["render", path, "-o", os.path.join(tmp, "out.svg")],
                     ["equiv", path, original], ["conj", path, path]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(args)
            assert code in (0, 1, 2, 3, 4), (args[0], code, out.getvalue())


@pytest.mark.parametrize("name, kind", [("cp2-two-piece", "pieces"), ("cp2-two-piece", "pairs"),
                                        ("cp2", "circles"), ("s1xs3", "surfaces")])
def test_an_id_named_dash_is_refused(name, kind):
    # MSD/1 spells an empty id list -, so imap circles=- would name no circle:
    # validate reports the id, serialize will not write it, parse will not read it
    d = catalog.identity_diffeo(catalog.standard(name))
    old = getattr(d, kind)[0].id
    dashed = relabel(d, **{kind: {old: "-"}})
    assert [f.location for f in validate(dashed).findings] == [f"{kind[:-1]} -"]
    with pytest.raises(ValueError, match="is - or contains reserved characters"):
        serialize(dashed)
    text = re.sub(rf"(?<![\w+-]){old}(?![\w+-])", "-", serialize(d))
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.token, err.value.expected) == ("-", f"a {kind[:-1]} id of letters, digits, "
                                                          "_, + and -, other than -")


@pytest.mark.parametrize("name, renaming, location", [
    ("cp2", {"circles": {"c1": "a b"}}, "circle a b"),
    ("cp2", {"strands": {("P1", "S1"): "-"}}, "piece P1/strand -"),
    ("cp2-two-piece", {"walls": {("P1", "W1"): "W.1"}}, "wall P1.W.1"),
    ("s2xs2", {"crossings": {("P1", "x1"): ""}}, "piece P1/crossing "),
    ("s1xs3", {"surfaces": {"F1": "F#1"}}, "surface F#1"),
])
def test_validate_reports_every_id_that_serialize_refuses(name, renaming, location):
    # one id rule: an id validate lets through, serialize writes
    d = relabel(catalog.standard(name), **renaming)
    assert [f.location for f in validate(d).findings] == [location]
    with pytest.raises(ValueError, match="is - or contains reserved characters"):
        serialize(d)


def test_validate_reports_an_id_that_is_no_string():
    d = relabel(catalog.cp2(), circles={"c1": 5})
    assert [f.location for f in validate(d).findings] == ["circle 5"]


@pytest.mark.parametrize("name, renaming, refused", [
    ("cp2", {"circles": {"c1": 5}}, "circle id 5"),
    ("cp2-two-piece", {"walls": {("P1", "W1"): ("W", 1)}}, "wall id ('W', 1)"),
    ("s1xs3", {"surfaces": {"F1": None}}, "surface id None"),
])
def test_serialize_refuses_an_id_that_is_no_string(name, renaming, refused):
    # ids are checked before the natural sort, which reads them as strings
    d = relabel(catalog.standard(name), **renaming)
    with pytest.raises(ValueError, match=re.escape(f"{refused} is - or contains reserved characters")):
        serialize(d)
