import json
from fractions import Fraction

import pytest

from qsum.dsl import parse_series
from qsum.equation import (Equation, Term, from_json, parse_equation, to_json,
                           validate)
from qsum.errors import ParseError, SchemaError
from qsum.series import TruncatedSeries


def test_parse_euler_structure():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: S^1(X)*t + S^0(X) = 1")
    assert eq.q == 2.0 and eq.delta == Fraction(1) and eq.m == 1 and eq.d == 0
    tmap = eq.term_map()
    assert set(tmap) == {(0, ()), (1, ())}
    assert tmap[(1, ())].coeff == TruncatedSeries.var_t(0, eq.Kt, eq.Kz)
    assert tmap[(0, ())].coeff.constant_term() == 1
    assert eq.rhs.constant_term() == 1
    # structural round-trip through JSON
    assert from_json(to_json(eq)) == eq


def test_parse_weighted_order_violation():
    with pytest.raises(ParseError, match="weighted order"):
        parse_equation("q=2; delta=1; m=1; d=0; eq: S^2(X) = 1")


def test_parse_three_term_equation_matches_hand_built():
    text = "q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^2(X) + t*S^1 Dz1^1(X) = 1/(1-z1)"
    eq = parse_equation(text, Kt=6, Kz=5)
    Kt, Kz = eq.Kt, eq.Kz
    expect = Equation(
        2.0, Fraction(1), 2, 1,
        (
            Term(1, (0,), TruncatedSeries.const(1, 1, Kt, Kz)),
            Term(1, (1,), TruncatedSeries.var_t(1, Kt, Kz)),
            Term(2, (0,), TruncatedSeries.var_t(1, Kt, Kz)),
        ),
        TruncatedSeries(1, Kt, Kz, {(0, (k,)): 1.0 for k in range(Kz)}),
    )
    assert eq == expect


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="line 1"):
        parse_equation("q=2; delta=1; m=1; d=0; eq: S^1(X) + = 1")
    with pytest.raises(ParseError):
        parse_equation("q=2; delta=1; m=1; d=0; eq: 1 = 1")  # no operator factor


def test_duplicate_terms_merge():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: S^0(X) + 2*S^0(X) = 1")
    assert len(eq.terms) == 1
    assert eq.terms[0].coeff.constant_term() == 3


def test_parse_rational_delta_and_parenthesized_coefficients():
    text = ("q=1.5; delta=1/2; m=2; d=2; eq: (1.0+2.0i)*S^1(X) + (1.0*t^2)*S^2(X)"
            " + (1.0*t*z2)*S^0 Dz1^2(X) = (0-1.0)*t*z1")
    eq = parse_equation(text, Kt=7, Kz=5)
    expect = Equation(
        1.5, Fraction(1, 2), 2, 2,
        (
            Term(0, (2, 0), TruncatedSeries(2, 7, 5, {(1, (0, 1)): 1.0})),
            Term(1, (0, 0), TruncatedSeries(2, 7, 5, {(0, (0, 0)): 1 + 2j})),
            Term(2, (0, 0), TruncatedSeries(2, 7, 5, {(2, (0, 0)): 1.0})),
        ),
        TruncatedSeries(2, 7, 5, {(1, (1, 0)): -1.0}),
    )
    assert eq == expect


def test_complex_literals_and_q_symbol():
    s = parse_series("(1+2i)*t + 3i", 0, 4, 1)
    assert s.get(1) == 1 + 2j and s.get(0) == 3j
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: q*S^1(X)*t + S^0(X) = q^2")
    assert eq.term_map()[(1, ())].coeff.get(1) == 2
    assert eq.rhs.constant_term() == 4


def test_series_literal_forms():
    # complex literals with a negative imaginary part, a negative real as
    # (0-x), a bare imaginary, and products of t and z powers
    s = parse_series("(1.5-2.0i) + 3.0*t^2*z1 + (0-1.0)*t*z2^2 + 3.0i*t^2*z1^2", 2, 5, 4)
    assert s == TruncatedSeries(2, 5, 4, {(0, (0, 0)): 1.5 - 2j, (2, (1, 0)): 3.0,
                                          (1, (0, 2)): -1.0, (2, (2, 0)): 3j})


def test_json_q_must_exceed_one():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: S^0(X) = 1")
    doc = json.loads(to_json(eq))
    doc["q"] = 0.5
    with pytest.raises(SchemaError, match="/q"):
        from_json(json.dumps(doc))


def test_json_missing_rhs():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: S^0(X) = 1")
    doc = json.loads(to_json(eq))
    del doc["rhs"]
    with pytest.raises(SchemaError, match="rhs"):
        from_json(json.dumps(doc))


def test_json_pointer_paths_for_bad_terms():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: S^1(X)*t = 1")
    doc = json.loads(to_json(eq))
    doc["terms"][0]["j"] = -1
    with pytest.raises(SchemaError, match="/terms/0/j"):
        from_json(json.dumps(doc))


def test_zero_denominator_in_the_header_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_equation("q=2; delta=1/0; m=1; d=0; eq: S^0(X) = 1")
    assert str(err.value) == "line 1, col 14: zero denominator"
    assert (err.value.line, err.value.col) == (1, 14)


@pytest.mark.parametrize("path, pointer", [
    (("m",), "/m"), (("delta", "den"), "/delta"), (("q",), "/q"), (("d",), "/d"),
    (("Kt",), "/Kt"), (("Kz",), "/Kz"), (("R",), "/R"), (("terms", 0, "j"), "/terms/0/j"),
    (("terms", 0, "alpha", 0), "/terms/0/alpha"), (("terms", 0, "coeff", 0, 0), "/terms/0/coeff/0/0"),
    (("terms", 0, "coeff", 0, 1, 0), "/terms/0/coeff/0/1"), (("rhs", 0, 2), "/rhs/0/2"),
    (("rhs", 0, 3), "/rhs/0/3")])
def test_json_booleans_are_not_numbers(path, pointer):
    eq = parse_equation("q=2; delta=1; m=2; d=1; eq: S^1(X) + t*S^1 Dz1^1(X) = 1")
    doc = json.loads(to_json(eq))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = True
    with pytest.raises(SchemaError) as err:
        from_json(json.dumps(doc))
    assert err.value.pointer == pointer


@pytest.mark.parametrize("key", ["q", "R"])
def test_json_infinite_q_and_r_are_schema_errors(key):
    doc = json.loads(to_json(parse_equation("q=2; delta=1; m=1; d=0; eq: S^0(X) = 1")))
    doc[key] = 1.0
    text = json.dumps(doc).replace('"%s": 1.0' % key, '"%s": 1e400' % key)  # loads as inf
    with pytest.raises(SchemaError) as err:
        from_json(text)
    assert err.value.pointer == "/" + key


def test_infinite_q_in_the_dsl_is_a_parse_error():
    with pytest.raises(ParseError, match="q must be finite and exceed 1"):
        parse_equation("q=1e400; delta=1; m=1; d=0; eq: S^0(X) = 1")


def test_validate_reports():
    eq = parse_equation("q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1")
    assert validate(eq).ok

    bad = Equation(2.0, Fraction(1, 2), 1, 1,
                   (Term(1, (1,), TruncatedSeries.const(1, 1, 4, 4)),),
                   TruncatedSeries.zero(1, 4, 4))
    rep = validate(bad)
    assert any("weighted order" in v for v in rep.violations)

    degenerate = Equation(2.0, Fraction(1), 1, 0, (), TruncatedSeries.zero(0, 4, 1))
    rep = validate(degenerate)
    assert rep.ok and any("degenerate" in w for w in rep.warnings)


def test_validate_flags_zero_coefficient_window():
    eq = Equation(2.0, Fraction(1), 1, 0,
                  (Term(0, (), TruncatedSeries.zero(0, 4, 1)),),
                  TruncatedSeries.const(1, 0, 4, 1))
    rep = validate(eq)
    assert any("order undetermined" in w for w in rep.warnings)


@pytest.mark.parametrize("text, message, line, col", [
    ("q=2; delta=1; m=2; d=0; eq: S^1(X)*S^0(X) = 1",
     "summand contains two operator factors", 1, 36),
    ("q=2; delta=1; m=1; d=0; eq: t/S^1(X) = 1",
     "cannot divide by an operator factor", 1, 31),
    ("q=2; m=1; delta=1; d=0; eq: S^1(X) = 1",
     "expected header field 'delta'", 1, 6),
    ("q=2; delta=1; m=1; d=0; S^1(X) = 1",
     "expected 'eq:'", 1, 25),
    ("q=2; delta=1; m=2; d=1; eq: S^0 Dz2^1(X) = 1",
     "derivative axis z2 out of range for d=1", 1, 33),
    ("q=2; delta=1; m=1; d=0;\neq: t*S^1(Y) = 1",
     "expected the unknown X", 2, 11),
])
def test_parse_errors_name_the_fault_and_its_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_equation(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == "line %d, col %d: %s" % (line, col, message)
