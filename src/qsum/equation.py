"""Equation model, text-DSL front end and JSON serialization.

An equation is   sum_{j + delta*|alpha| <= m} a_{j,alpha}(t,z) * S^j Dz^alpha X = F(t,z)
where S is the q-shift (S f)(t,z) = f(q t, z) and Dz^alpha the mixed
z-derivative.  delta is kept as an exact rational so the weighted-order
constraint is decidable without floating-point ties.
"""

import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import dsl
from .errors import ParseError, SchemaError
from .series import TruncatedSeries


@dataclass(frozen=True)
class Term:
    j: int
    alpha: tuple
    coeff: TruncatedSeries


@dataclass(frozen=True)
class Equation:
    q: float
    delta: Fraction
    m: int
    d: int
    terms: tuple
    rhs: TruncatedSeries
    R: float = 1.0

    @property
    def Kt(self):
        return self.rhs.Kt

    @property
    def Kz(self):
        return self.rhs.Kz

    def term_map(self):
        return {(t.j, t.alpha): t for t in self.terms}

    def with_rhs(self, rhs):
        return Equation(self.q, self.delta, self.m, self.d, self.terms, rhs, self.R)

    def max_coeff_t_degree(self):
        return max((t.coeff.t_degree() for t in self.terms), default=-1)

    def max_alpha(self):
        return max((sum(t.alpha) for t in self.terms), default=0)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        lines = ["valid" if self.ok else "invalid"]
        lines += ["violation: " + v for v in self.violations]
        lines += ["warning: " + w for w in self.warnings]
        return "\n".join(lines)


def validate(eq):
    """Structural constraint report; empty violations means valid."""
    rep = ValidationReport()
    if not eq.q > 1.0:
        rep.violations.append("q must exceed 1 (got %r)" % eq.q)
    if not eq.delta > 0:
        rep.violations.append("delta must be positive (got %s)" % eq.delta)
    if eq.m < 1:
        rep.violations.append("m must be a positive integer (got %r)" % eq.m)
    if eq.d < 0:
        rep.violations.append("d must be nonnegative (got %r)" % eq.d)
    if not eq.R > 0:
        rep.violations.append("polydisc radius R must be positive")
    seen = set()
    for idx, term in enumerate(eq.terms):
        label = "term %d (j=%d, alpha=%s)" % (idx, term.j, list(term.alpha))
        if term.j < 0:
            rep.violations.append(label + ": shift power j must be nonnegative")
        if len(term.alpha) != eq.d:
            rep.violations.append(label + ": alpha length differs from d")
        if any(a < 0 for a in term.alpha):
            rep.violations.append(label + ": alpha entries must be nonnegative")
        weight = term.j + eq.delta * sum(term.alpha)
        if weight > eq.m:
            rep.violations.append(label + ": weighted order %s exceeds m=%d" % (weight, eq.m))
        if (term.j, term.alpha) in seen:
            rep.violations.append(label + ": duplicate (j, alpha) pair")
        seen.add((term.j, term.alpha))
        if term.coeff.d != eq.d:
            rep.violations.append(label + ": coefficient has wrong z-dimension")
        elif term.coeff.is_zero():
            rep.warnings.append(label + ": coefficient is the zero truncation (order undetermined)")
    if not eq.terms and eq.rhs.is_zero():
        rep.warnings.append("degenerate equation: no terms and zero right-hand side")
    if eq.rhs.d != eq.d:
        rep.violations.append("rhs has wrong z-dimension")
    return rep


# ------------------------------------------------------------------ DSL parsing

def parse_equation(text, Kt=24, Kz=8):
    """Parse the DSL form

        q=<real>; delta=<rational>; m=<int>; d=<int>; eq: <sum> = <expr>

    where each summand is a product of expression factors and exactly one
    operator factor S^j [Dz<k>^<int> ...](X).
    """
    cur = dsl._Cursor(dsl.tokenize(text))
    header = []
    for name, parse in (("q", lambda: dsl.parse_number(cur)),
                        ("delta", lambda: dsl.parse_rational(cur)),
                        ("m", lambda: dsl.parse_int(cur, "for m")),
                        ("d", lambda: dsl.parse_int(cur, "for d"))):
        if cur.peek().text != name:
            cur.error("expected header field %r" % name)
        cur.next()
        cur.expect("=")
        header.append(parse())
        cur.expect(";")
    q, delta, m, d = header
    tok = cur.peek()
    if tok.text != "eq":
        cur.error("expected 'eq:'")
    cur.next()
    cur.expect(":")

    if not 1.0 < q < math.inf:
        raise ParseError("q must be finite and exceed 1 (got %r)" % q, tok.line, tok.col)
    if delta <= 0:
        raise ParseError("delta must be positive (got %s)" % delta, tok.line, tok.col)

    expr = dsl.ExprParser(cur, d, Kt, Kz, q=q)
    merged = {}
    ops = []

    def operator_factor(divisor):
        """S^j Dz<k>^<n> ... (X)  ->  (j, alpha), appended to ops"""
        if not (cur.peek().kind == "name" and cur.peek().text == "S"):
            return False
        if ops:
            cur.error("summand contains two operator factors")
        if divisor:
            cur.error("cannot divide by an operator factor")
        cur.next()
        cur.expect("^")
        j = dsl.parse_int(cur, "shift power")
        alpha = [0] * d
        while cur.peek().kind == "name" and re.fullmatch(r"Dz\d+", cur.peek().text):
            tok = cur.next()
            axis = int(tok.text[2:])
            if not 1 <= axis <= d:
                raise ParseError("derivative axis z%d out of range for d=%d" % (axis, d), tok.line, tok.col)
            cur.expect("^")
            alpha[axis - 1] += dsl.parse_int(cur, "derivative order")
        cur.expect("(")
        if cur.peek().text != "X":
            cur.error("expected the unknown X")
        cur.next()
        cur.expect(")")
        ops.append((j, tuple(alpha)))
        return True

    sign = 1.0
    while True:
        # one summand: factors joined by '*' or '/', exactly one operator factor
        tok0 = cur.peek()
        while cur.peek().text in ("+", "-"):
            if cur.next().text == "-":
                sign = -sign
        ops.clear()
        coeff = expr.parse_term(TruncatedSeries.const(sign, d, Kt, Kz), operator_factor)
        if not ops:
            raise ParseError("summand has no operator factor S^j(...)", tok0.line, tok0.col)
        j, alpha = ops[0]
        weight = j + delta * sum(alpha)
        if weight > m:
            raise ParseError(
                "weighted order %s of term S^%d alpha=%s exceeds m=%d" % (weight, j, list(alpha), m),
                tok0.line, tok0.col)
        key = (j, alpha)
        merged[key] = merged.get(key, TruncatedSeries.zero(d, Kt, Kz)) + coeff
        nxt = cur.peek().text
        if nxt in ("+", "-"):
            cur.next()
            sign = 1.0 if nxt == "+" else -1.0
            continue
        break

    cur.expect("=")
    rhs = expr.parse_expr()
    tok = cur.peek()
    if tok.kind != "eof":
        raise ParseError("trailing input %r" % tok.text, tok.line, tok.col)

    terms = tuple(Term(j, alpha, coeff) for (j, alpha), coeff in sorted(merged.items()) if not coeff.is_zero())
    eq = Equation(q, delta, m, d, terms, rhs)
    report = validate(eq)
    if not report.ok:
        raise ParseError("; ".join(report.violations))
    return eq


def equation_to_dsl(eq):
    """Canonical DSL emission; parse(equation_to_dsl(eq)) is structurally eq."""
    parts = []
    for term in eq.terms:
        ops = "S^%d" % term.j
        for axis, a in enumerate(term.alpha, start=1):
            if a:
                ops += " Dz%d^%d" % (axis, a)
        parts.append("(%s)*%s(X)" % (dsl.format_series(term.coeff), ops))
    lhs = " + ".join(parts) if parts else "(0)*S^0(X)"
    return "q=%r; delta=%s; m=%d; d=%d; eq: %s = %s" % (
        eq.q,
        "%d/%d" % (eq.delta.numerator, eq.delta.denominator),
        eq.m, eq.d, lhs, dsl.format_series(eq.rhs))


# ------------------------------------------------------------------ JSON

def series_rows(s):
    """The JSON coefficient rows [n, beta, re, im] of a series."""
    return [[n, list(beta), c.real, c.imag] for (n, beta), c in s.items()]


def _is_int(x):
    """A JSON integer; Python's bool is an int, JSON's true is not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    return _is_int(x) or isinstance(x, float)


def _series_from_rows(rows, d, Kt, Kz, pointer):
    if not isinstance(rows, list):
        raise SchemaError("expected a coefficient array", pointer)
    coeffs = {}
    for i, row in enumerate(rows):
        p = "%s/%d" % (pointer, i)
        if not (isinstance(row, list) and len(row) == 4):
            raise SchemaError("coefficient row must be [n, beta, re, im]", p)
        n, beta, re_, im = row
        if not _is_int(n) or n < 0:
            raise SchemaError("t-exponent must be a nonnegative integer", p + "/0")
        if not (isinstance(beta, list) and len(beta) == d and all(_is_int(b) and b >= 0 for b in beta)):
            raise SchemaError("beta must be a list of %d nonnegative integers" % d, p + "/1")
        for k, x in ((2, re_), (3, im)):
            if not _is_number(x):
                raise SchemaError("coefficient parts must be numbers", "%s/%d" % (p, k))
        coeffs[(n, tuple(beta))] = complex(re_, im)
    return TruncatedSeries(d, Kt, Kz, coeffs)


def to_json(eq):
    doc = {
        "q": eq.q,
        "delta": {"num": eq.delta.numerator, "den": eq.delta.denominator},
        "m": eq.m,
        "d": eq.d,
        "Kt": eq.Kt,
        "Kz": eq.Kz,
        "R": eq.R,
        "terms": [
            {"j": t.j, "alpha": list(t.alpha), "coeff": series_rows(t.coeff)}
            for t in eq.terms
        ],
        "rhs": series_rows(eq.rhs),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _require(doc, key, pointer=""):
    if key not in doc:
        raise SchemaError("required field %r missing" % key, pointer + "/" + key)
    return doc[key]


def from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("invalid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    q = _require(doc, "q")
    if not _is_number(q) or not 1.0 < q < math.inf:
        raise SchemaError("q must be a finite number greater than 1", "/q")
    delta_doc = _require(doc, "delta")
    if not (isinstance(delta_doc, dict) and _is_int(delta_doc.get("num"))
            and _is_int(delta_doc.get("den")) and delta_doc["den"] != 0):
        raise SchemaError("delta must be {num, den} with integer entries", "/delta")
    delta = Fraction(delta_doc["num"], delta_doc["den"])
    if delta <= 0:
        raise SchemaError("delta must be positive", "/delta")
    m = _require(doc, "m")
    if not _is_int(m) or m < 1:
        raise SchemaError("m must be a positive integer", "/m")
    d = _require(doc, "d")
    if not _is_int(d) or d < 0:
        raise SchemaError("d must be a nonnegative integer", "/d")
    Kt, Kz = _require(doc, "Kt"), _require(doc, "Kz")
    for key, K in (("Kt", Kt), ("Kz", Kz)):
        if not (_is_int(K) and K >= 1):
            raise SchemaError("%s must be a positive integer" % key, "/" + key)
    R = doc.get("R", 1.0)
    if not _is_number(R) or not 0 < R < math.inf:
        raise SchemaError("R must be a positive finite number", "/R")
    terms_doc = _require(doc, "terms")
    if not isinstance(terms_doc, list):
        raise SchemaError("terms must be an array", "/terms")
    terms = []
    seen = set()
    for i, td in enumerate(terms_doc):
        p = "/terms/%d" % i
        if not isinstance(td, dict):
            raise SchemaError("term must be an object", p)
        j = _require(td, "j", p)
        if not _is_int(j) or j < 0:
            raise SchemaError("j must be a nonnegative integer", p + "/j")
        alpha = _require(td, "alpha", p)
        if not (isinstance(alpha, list) and len(alpha) == d
                and all(_is_int(a) and a >= 0 for a in alpha)):
            raise SchemaError("alpha must be a list of %d nonnegative integers" % d, p + "/alpha")
        alpha = tuple(alpha)
        if j + delta * sum(alpha) > m:
            raise SchemaError("weighted order exceeds m", p)
        if (j, alpha) in seen:
            raise SchemaError("duplicate (j, alpha) pair", p)
        seen.add((j, alpha))
        coeff = _series_from_rows(_require(td, "coeff", p), d, Kt, Kz, p + "/coeff")
        terms.append(Term(j, alpha, coeff))
    rhs = _series_from_rows(_require(doc, "rhs"), d, Kt, Kz, "/rhs")
    terms.sort(key=lambda t: (t.j, t.alpha))
    return Equation(float(q), delta, m, d, tuple(terms), rhs, float(R))
