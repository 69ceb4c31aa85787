"""MSD/1 round-trips: structural identity and canonical byte identity."""

import sys

import pytest

from msdiagram import catalog
from msdiagram.core import validate
from msdiagram.format import ParseError, parse, parse_moves, serialize


CATALOG = ["s4-polar", "cp2", "cp2-mirror", "s2xs2", "s1xs3", "swap-diffeo",
           "s4-with-cancelling-pair", "cp2-two-piece", "n-s1s3(2)", "n-s1s3(4)"]


@pytest.mark.parametrize("name", CATALOG)
def test_round_trip_structural(name):
    d = catalog.standard(name)
    text = serialize(d)
    d2 = parse(text)
    assert d2 == d
    assert validate(d2).ok


@pytest.mark.parametrize("name", CATALOG)
def test_round_trip_bytes(name):
    text = serialize(catalog.standard(name))
    assert serialize(parse(text)) == text


def test_minimal_file():
    d = parse("msd 1\npiece P1\nsinks 1\n")
    assert d == catalog.standard("s4-polar")


def test_comments_and_blank_lines():
    d = parse("# a polar field\nmsd 1\n\npiece P1  # the only piece\nsinks 1\n")
    assert d == catalog.standard("s4-polar")


def test_missing_header():
    with pytest.raises(ParseError) as err:
        parse("piece P1\nsinks 1\n")
    assert err.value.line == 1


def test_parse_error_is_a_plain_exception():
    with pytest.raises(ParseError) as err:
        parse("msd 1\npiece P1\nfrobnicate yes\nsinks 1\n")
    e = err.value
    assert (e.line, e.token, e.expected) == e.args == (3, "frobnicate", "a record kind")
    assert str(e) == "line 3: got 'frobnicate', expected a record kind"
    # hashable, and open to the notes Hypothesis adds to a failing example
    assert hash(e) == hash(e) and e in {e}
    if sys.version_info >= (3, 11):
        e.add_note("while parsing a mutated file")
    else:
        e.__notes__ = ["while parsing a mutated file"]
    assert e.__notes__ == ["while parsing a mutated file"]
    assert str(ParseError(1, "x", "y")) == "line 1: got 'x', expected y"


def test_missing_sinks():
    with pytest.raises(ParseError):
        parse("msd 1\npiece P1\n")


def test_unknown_record():
    with pytest.raises(ParseError) as err:
        parse("msd 1\npiece P1\nfrobnicate yes\nsinks 1\n")
    assert err.value.line == 3
    assert err.value.token == "frobnicate"


def test_bad_field():
    with pytest.raises(ParseError):
        parse("msd 1\npiece P1\nwall P1.W1 pints=3\nsinks 1\n")


def test_sign_mismatch_rejected():
    text = serialize(catalog.standard("s2xs2"))
    flipped = text.replace("sign=+", "sign=-", 1)
    with pytest.raises(ParseError):
        parse(flipped)


@pytest.mark.parametrize("ends", [
    "zz.9.i,zz.9.o,zz.9.i,zz.9.o",   # a strand that does not exist
    "S2.0.o,S1.0.o,S2.0.i,S1.0.i",   # the strands' real ends, at the wrong ports
])
def test_ends_mismatch_rejected(ends):
    text = serialize(catalog.standard("s2xs2"))
    assert "ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i " in text
    with pytest.raises(ParseError, match="ends consistent with strand data"):
        parse(text.replace("ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i ", f"ends={ends} "))


def test_port_out_of_range_is_left_to_validate():
    # x2 gets passages on ports 2 and -1, which split over the port pairs
    # but leave port 3 empty: the ends check skips it as it skips any
    # broken crossing, and validate names the port
    text = serialize(catalog.standard("s2xs2"))
    assert "path=x1:2,x2:3 " in text
    d = parse(text.replace("path=x1:2,x2:3 ", "path=x1:2,x2:-1 "))
    assert "strand S1: bad port -1" in [f.message for f in validate(d).findings]


def test_imap_preserved():
    d = catalog.standard("swap-diffeo")
    text = serialize(d)
    assert "imap" in text
    assert parse(text).internal_maps == d.internal_maps


def test_imap_pairs_are_in_sorted_order():
    # c10 comes before c2 in sorted order but after it in natural id order:
    # parse, relabel and identity_diffeo all build the sorted one
    from msdiagram.core import relabel

    names = {"c1": "c2", "c2": "c10"}
    r = relabel(catalog.swap_diffeo(), circles=names)
    assert parse(serialize(r)) == r
    assert r.internal_maps.on_circles == (("c10", "c2"), ("c2", "c10"))
    ident = catalog.identity_diffeo(relabel(catalog.s2xs2(), circles=names))
    assert ident == relabel(catalog.identity_diffeo(catalog.s2xs2()), circles=names)
    assert parse(serialize(ident)) == ident


def test_annotation_round_trip():
    from dataclasses import replace

    from msdiagram.core import KirbyAnnotation

    d = replace(catalog.standard("cp2"), annotation=KirbyAnnotation(1, 2, 1, ("c1",)))
    assert parse(serialize(d)) == d


def test_sink_incidence_round_trip():
    from dataclasses import replace

    d = replace(catalog.standard("s1xs3"), sink_count=2,
                sink_incidence=((1,), (-1,)))
    assert validate(d).ok
    text = serialize(d)
    assert "incidence=1;-1" in text
    assert parse(text) == d
    assert serialize(parse(text)) == text


@pytest.mark.parametrize("name, old, new", [
    ("s1xs3", "orient=+", "orient="),
    ("s1xs3", "orient=+", "orient=+-"),
    ("s2xs2", "sign=+", "sign="),
    ("s2xs2", "sign=+", "sign=+-"),
    ("s4-with-cancelling-pair", "boundary=Cc1:+", "boundary=Cc1:"),
    ("s4-with-cancelling-pair", "boundary=Cc1:+", "boundary=Cc1:+-"),
])
def test_sign_fields_take_one_sign(name, old, new):
    text = serialize(catalog.standard(name))
    assert old in text
    with pytest.raises(ParseError) as err:
        parse(text.replace(old, new, 1))
    assert err.value.expected == "+ or -"


def test_imap_sinks_must_be_integers():
    text = serialize(catalog.standard("swap-diffeo"))
    bad = text.replace("sinks=0", "sinks=x")
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.token == "x"
    assert bad.splitlines()[err.value.line - 1].startswith("imap ")


@pytest.mark.parametrize("name, old, new", [
    ("cp2", "circle c1 strands", "circle strands=P1.S1 strands"),
    ("cp2", "piece P1\n", "piece P1\npiece P:2\n"),
    ("cp2", "circle c1 strands=P1.S1", "circle c1 strands=P1.S=1"),
    ("cp2", "from=- to=-", "from=- to=W,1:0"),
    ("cp2", "sinks 1\n", "sinks 1\nannotation one_handles=0 three_handles=0 sinks=1 "
                         "dotted=c1,c:2\n"),
    ("s2xs2", "path=x1:", "path=x=1:"),
    ("swap-diffeo", "circles=c2,c1", "circles=c2,c=1"),
    ("s4-with-cancelling-pair", "boundary=Cc1:+", "boundary=Cc.1:+"),
])
def test_reserved_characters_in_ids_rejected(name, old, new):
    text = serialize(catalog.standard(name))
    assert old in text
    with pytest.raises(ParseError) as err:
        parse(text.replace(old, new, 1))
    assert "id of letters, digits" in err.value.expected


# a parse error names its record's line, comments and blank lines counted
PREAMBLE = "# a comment\n\nmsd 1\n  # indented comment\npiece P1\n\n"  # records follow from line 7


def _error(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.line, err.value.token, err.value.expected


@pytest.mark.parametrize("records, error", [
    ("wall P1.W1 points=x\nsinks 1\n", (7, "x", "an integer")),
    ("sinks 1\n\nwall\n", (9, "", "wall <piece>.<id> points=<k>")),
    ("sinks 1\nsinks 1\n", (8, "sinks", "a single sinks record")),
    ("sinks 1\n# sinks 2\nsinks\n", (9, "sinks", "a single sinks record")),
    ("strand Q1.S1 path=- from=- to=-\nsinks 1\n", (7, "Q1", "a declared piece")),
])
def test_record_loop_errors_name_the_records_line(records, error):
    assert _error(PREAMBLE + records) == error


def test_missing_sinks_names_the_last_records_line():
    assert _error(PREAMBLE + "wall P1.W1 points=0\n\n# done\n") == (7, "(end)", "a sinks record")


def test_imap_image_errors_name_the_imap_line():
    text = serialize(catalog.standard("swap-diffeo")).replace("\nimap ", "\n\n# maps\nimap ")
    line = next(i for i, t in enumerate(text.splitlines(), start=1) if t.startswith("imap "))
    assert _error(text.replace("circles=c2,c1", "circles=c2")) == (line, "c2",
                                                                   "2 images for circles")
    assert _error(text.replace("circles=c2,c1", "circles=c2,c.1"))[:2] == (line, "c.1")


@pytest.mark.parametrize("old, new, token", [
    ("sign=+", "sign=-", "-"),
    ("ends=S1.0.o,S2.0.o,S1.0.i,S2.0.i", "ends=S2.0.o,S1.0.o,S2.0.i,S1.0.i",
     "S2.0.o,S1.0.o,S2.0.i,S1.0.i"),
])
def test_crossing_checks_name_the_crossings_line(old, new, token):
    text = serialize(catalog.standard("s2xs2")).replace("\ncrossing P1.x1", "\n\ncrossing P1.x1")
    lines = text.splitlines()
    line = next(i for i, t in enumerate(lines, start=1) if t.startswith("crossing P1.x1"))
    assert old in lines[line - 1]
    assert _error(text.replace(old, new, 1))[:2] == (line, token)


def test_parse_moves_errors_name_the_records_line():
    text = "# a log\nmove blow-down circle=c1\n\nmove blow-up piece=P1 region=x sign=+\n"
    with pytest.raises(ParseError) as err:
        parse_moves(text)
    assert (err.value.line, err.value.token, err.value.expected) == (4, "x", "an integer")


@pytest.mark.parametrize("kind, record", [
    ("annotation", "annotation one_handles=0 three_handles={} sinks=1"),
    ("imap", "imap pieces=P1 pairs=- circles=c1,c2 surfaces=- sinks={}"),
])
def test_a_second_imap_or_annotation_record_is_refused(kind, record):
    # the second record replaced the first: three_handles=0 then 5 parsed as 5
    text = serialize(catalog.standard("s2xs2")) + record.format(0) + "\n"
    parse(text)
    text += record.format(5) + "\n"
    assert _error(text) == (len(text.splitlines()), kind, f"a single {kind} record")


def test_an_empty_incidence_item_is_refused():
    # incidence=1,,2 read as (1, 2)
    assert _error("msd 1\npiece P1\nsinks 1 incidence=1,,2\n") == (3, "", "an integer")
    assert _error("msd 1\npiece P1\nsinks 2 incidence=1;-1,\n") == (3, "", "an integer")


@pytest.mark.parametrize("rows, incidence", [
    (";", ((), ())), ("", ((),)), ("1;;-1", ((1,), (), (-1,))),
])
def test_empty_incidence_rows_round_trip(rows, incidence):
    text = f"msd 1\npiece P1\nsinks {len(incidence)} incidence={rows}\n"
    d = parse(text)
    assert d.sink_incidence == incidence
    assert serialize(d) == text
