import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cghzsim import (
    BeamSplitter,
    Circuit,
    CircuitValidationError,
    Hadamard,
    Prep,
    ProtocolParams,
    SelectVacuum,
    Split,
    build_cghz_circuit,
    parse,
    serialize,
    validate,
)


# ------------------------------------------------------------------- parse

def test_parse_minimal_circuit():
    res = parse("alpha 2.0\nprep a +\n")
    assert res.ok
    assert res.circuit.alpha == 2.0
    assert res.circuit.instructions == (Prep("a", complex(2.0)),)


def test_parse_prep_shorthand_signs():
    res = parse("alpha 1.5\nprep a +\nprep b -\n")
    assert res.ok
    assert res.circuit.instructions[0].amp == complex(1.5)
    assert res.circuit.instructions[1].amp == complex(-1.5)


@pytest.mark.parametrize("literal,value", [
    ("2.5", complex(2.5)),
    ("-0.5", complex(-0.5)),
    ("1e-3", complex(1e-3)),
    ("1.5+2.0i", complex(1.5, 2.0)),
    ("0.25-1i", complex(0.25, -1.0)),
    ("-1.5e2+0.5e-1i", complex(-150.0, 0.05)),
])
def test_parse_complex_literals(literal, value):
    res = parse(f"alpha 2.0\nprep a {literal}\n")
    assert res.ok, res.diagnostics
    assert res.circuit.instructions[0].amp == value


def test_parse_hadamard_ref():
    res = parse("alpha 2.0\nprep a +\nh a\nh a ref 1.5\n")
    assert res.ok
    assert res.circuit.instructions[1] == Hadamard("a", None)
    assert res.circuit.instructions[2] == Hadamard("a", 1.5)


def test_parse_comments_and_blanks():
    text = """# full-line comment
alpha 2.0

prep a +   # trailing comment
# another
h a
"""
    res = parse(text)
    assert res.ok
    assert len(res.circuit.instructions) == 2


def test_parse_missing_header():
    res = parse("prep a +\n")
    assert not res.ok
    assert res.diagnostics[0].span.line == 1
    assert "alpha" in res.diagnostics[0].message


def test_parse_unbound_mode_carries_line_number():
    res = parse("alpha 2.0\nbs a b\n")
    assert not res.ok
    assert all(d.span.line == 2 for d in res.diagnostics)


def test_parse_duplicate_prep():
    res = parse("alpha 2.0\nprep a +\nprep a -\n")
    assert not res.ok
    assert any("already used" in d.message for d in res.diagnostics)


def test_parse_unknown_keyword_and_column():
    res = parse("alpha 2.0\n  frobnicate a\n")
    assert not res.ok
    d = res.diagnostics[0]
    assert d.span.line == 2
    assert d.span.column == 3
    assert "unknown keyword" in d.message
    assert str(d) == "2:3: error: unknown keyword 'frobnicate'"


def test_parse_duplicate_header():
    res = parse("alpha 2.0\nalpha 3.0\n")
    assert not res.ok
    assert any("duplicate" in d.message for d in res.diagnostics)


def test_parse_bad_numbers():
    for bad in ("alpha nan\n", "alpha 2..0\n", "alpha\n",
                "alpha 2.0\nprep a 1+i\n", "alpha 2.0\nh a ref x\n"):
        res = parse(bad)
        assert not res.ok, bad


@pytest.mark.parametrize("line,expected", [
    ("h a 1.5",
     "3:1: error: 'h' takes a mode name and an optional 'ref <value>'"),
    ("h a ref",
     "3:1: error: 'h' takes a mode name and an optional 'ref <value>'"),
    ("h a foo 1.5", "3:5: error: expected 'ref', got 'foo'"),
    ("bs a", "3:1: error: 'bs' takes two mode names"),
    ("select0 a b", "3:1: error: 'select0' takes one mode name"),
    ("split a", "3:1: error: 'split' takes a source mode and a new mode name"),
    ("prep a", "3:1: error: 'prep' takes a mode name and an amplitude"),
    ("prep 1a +", "3:6: error: '1a' is not a valid mode name"),
    ("h a ref x", "3:9: error: 'x' is not a valid reference amplitude"),
])
def test_instruction_diagnostics_are_pinned(line, expected):
    res = parse(f"alpha 2.0\nprep a +\n{line}\n")
    assert res.circuit is None
    assert [str(d) for d in res.diagnostics] == [expected]


def test_every_bad_argument_of_a_line_is_reported():
    res = parse("alpha 2.0\nprep a +\nprep 1a 1+i\nh 2b foo 1.5\n")
    assert [str(d) for d in res.diagnostics] == [
        "3:6: error: '1a' is not a valid mode name",
        "3:9: error: '1+i' is not a valid amplitude (use +, -, RE, RE+IMi "
        "or RE-IMi)",
        "4:3: error: '2b' is not a valid mode name",
        "4:6: error: expected 'ref', got 'foo'"]


def test_parse_negative_alpha_rejected_by_validation():
    res = parse("alpha -2.0\nprep a +\n")
    assert not res.ok
    assert any("positive" in d.message for d in res.diagnostics)


def test_parse_empty_input():
    res = parse("")
    assert not res.ok


# --------------------------------------------------------------- serialize

def test_serialize_empty_circuit_is_header_only():
    assert serialize(Circuit(alpha=2.0)) == "alpha 2.0\n"


def test_serialize_single_prep():
    text = serialize(Circuit(2.0, (Prep("a", complex(2.0)),)))
    assert text == "alpha 2.0\nprep a +\n"
    c = Circuit(2.0, (Prep("a", complex(-2.0)),))
    assert serialize(c) == "alpha 2.0\nprep a -\n"
    assert parse(serialize(c)).circuit == c


def test_serialize_uses_shorthand_only_for_exact_match():
    text = serialize(Circuit(2.0, (Prep("a", complex(2.0000001)),)))
    assert "prep a 2.0000001" in text


def test_serialize_complex_amplitude():
    text = serialize(Circuit(2.0, (Prep("a", complex(0.5, -0.25)),)))
    assert "prep a 0.5-0.25i" in text
    back = parse(text)
    assert back.ok
    assert back.circuit.instructions[0].amp == complex(0.5, -0.25)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 17)
                                 for m in range(1, 16 // n + 1)])
def test_round_trip_builder_circuits(n, m):
    for alpha in (1.0, 2.0, 1.7320508075688772):
        c = build_cghz_circuit(ProtocolParams(n, m, alpha))
        res = parse(serialize(c))
        assert res.ok, res.diagnostics
        assert res.circuit == c


def test_serialize_refuses_a_non_finite_amplitude():
    with pytest.raises(CircuitValidationError, match="not finite"):
        serialize(Circuit(2.0, (Prep("a", complex("nan")),)))


def test_serialize_refuses_an_unbound_mode():
    with pytest.raises(CircuitValidationError, match="'b' is unbound"):
        serialize(Circuit(2.0, (Prep("a", 2.0), SelectVacuum("b"))))


def test_serialize_refuses_a_foreign_instruction_typed():
    with pytest.raises(CircuitValidationError, match="unknown instruction"):
        serialize(Circuit(2.0, (Prep("a", 2.0), "h a")))


def test_round_trip_awkward_numbers():
    c = Circuit(0.1 + 0.2, (  # 0.30000000000000004
        Prep("a", complex(1 / 3, -2 / 7)),
        Hadamard("a", 1e-3),
        Split("a", "b"),
        BeamSplitter("a", "b"),
        SelectVacuum("a"),
    ))
    res = parse(serialize(c))
    assert res.ok
    assert res.circuit == c


def test_round_trip_non_ascii_mode_names():
    c = Circuit(2.0, (
        Prep("é", 2.0),
        Hadamard("é"),
        Split("é", "β_1"),
        BeamSplitter("é", "β_1"),
        SelectVacuum("β_1"),
    ))
    assert validate(c) == []
    res = parse(serialize(c))
    assert res.ok, res.diagnostics
    assert res.circuit == c


def _one_token(name):
    return (name.split() == [name] and "#" not in name
            and len(name.splitlines()) == 1)


@given(st.text(min_size=1, max_size=8).filter(_one_token))
@settings(max_examples=300, deadline=None)
def test_parse_and_validate_accept_the_same_mode_names(name):
    c = Circuit(2.0, (Prep(name, 2.0), Hadamard(name)))
    res = parse(f"alpha 2.0\nprep {name} +\nh {name}\n")
    assert res.ok == (validate(c) == [])
    if res.ok:
        assert res.circuit == c
        assert parse(serialize(c)).circuit == c


@given(st.text(max_size=2000))
@settings(max_examples=300, deadline=None)
def test_parse_total_on_arbitrary_text(text):
    res = parse(text)
    assert res.circuit is None or res.ok
    for d in res.diagnostics:
        assert d.span.line >= 1
        assert d.span.column >= 1
