"""Randomized equation generator for property suites.

Equations are built so the polygon shape, the interior condition and the
endpoint nondegeneracy hold by construction, with exact control over m0
and m; the lower-shift terms are kept off the t-constant diagonal so the
coefficient recursion never resonates."""

import cmath
import random
from fractions import Fraction

from .equation import Equation, Term
from .series import TruncatedSeries


def _rand_complex(rng, lo=0.3, hi=1.5):
    mag = rng.uniform(lo, hi)
    ang = rng.uniform(-3.14159, 3.14159)
    return mag * cmath.exp(1j * ang)


def _rand_poly(rng, d, Kt, Kz, n_terms, max_t, max_z, ord_floor=0, mag=1.0):
    coeffs = {}
    for _ in range(n_terms):
        n = rng.randint(ord_floor, max(max_t, ord_floor))
        beta = tuple(rng.randint(0, max_z) for _ in range(d))
        coeffs[(n, beta)] = coeffs.get((n, beta), 0j) + mag * _rand_complex(rng)
    return TruncatedSeries(d, Kt, Kz, coeffs)


def random_equation(rng, Kt=20, Kz=12):
    """One random equation from rng with the shape, interior and nondegeneracy
    conditions guaranteed; q in [1.5, 3], m0 in {0, 1}, m <= m0 + 2."""
    q = rng.uniform(1.5, 3.0)
    d = rng.choice([0, 1, 1])
    m0 = rng.randint(0, 1)
    m = m0 + rng.randint(1, 2)
    zero_alpha = (0,) * d
    terms = {}

    # corner term: nonzero constant coefficient at j = m0
    corner = TruncatedSeries.const(_rand_complex(rng, 0.6, 1.6), d, Kt, Kz)
    if rng.random() < 0.5:
        corner = corner + _rand_poly(rng, d, Kt, Kz, 2, 2, min(2, Kz - 1), ord_floor=1, mag=0.4)
    terms[(m0, zero_alpha)] = corner

    # top term: exactly t^(m-m0) times a unit
    unit = TruncatedSeries.const(_rand_complex(rng, 0.6, 1.6), d, Kt, Kz)
    if rng.random() < 0.5:
        unit = unit + _rand_poly(rng, d, Kt, Kz, 2, 2, min(2, Kz - 1), ord_floor=1, mag=0.4)
    tpow = TruncatedSeries.monomial(1.0, m - m0, zero_alpha, d, Kt, Kz)
    terms[(m, zero_alpha)] = tpow * unit

    # optional intermediate shift, order at least j - m0 (and >= 1 below the
    # corner so the recursion diagonal stays a single exponential)
    if m - m0 >= 2 and rng.random() < 0.6:
        j = m0 + 1
        terms[(j, zero_alpha)] = _rand_poly(rng, d, Kt, Kz, 2, j - m0 + 2, min(2, Kz - 1),
                                            ord_floor=max(1, j - m0), mag=0.7)
    if m0 >= 1 and rng.random() < 0.5:
        terms[(0, zero_alpha)] = _rand_poly(rng, d, Kt, Kz, 2, 3, min(2, Kz - 1),
                                            ord_floor=1, mag=0.7)

    # z-derivative terms: strictly interior support, weighted order <= m
    if d > 0:
        for _ in range(rng.randint(0, 2)):
            a = rng.randint(1, max(1, m - 1))
            j = rng.randint(0, m - a)
            if j >= m:
                continue
            alpha = [0] * d
            alpha[rng.randrange(d)] = a
            alpha = tuple(alpha)
            floor = max(1, j - m0 + 1)
            coeff = _rand_poly(rng, d, Kt, Kz, 2, floor + 2, min(2, Kz - 1),
                               ord_floor=floor, mag=0.5)
            if (j, alpha) in terms:
                coeff = terms[(j, alpha)] + coeff
            terms[(j, alpha)] = coeff

    rhs = _rand_poly(rng, d, Kt, Kz, 3, 3, min(3, Kz - 1))
    if rng.random() < 0.3:
        rhs = TruncatedSeries.zero(d, Kt, Kz)

    eq_terms = tuple(Term(j, alpha, c) for (j, alpha), c in sorted(terms.items()) if not c.is_zero())
    return Equation(q, Fraction(1), m, d, eq_terms, rhs)


def corpus(count, seed, **kwargs):
    """Deterministic list of `count` random equations for a given seed."""
    rng = random.Random(seed)
    return [random_equation(rng, **kwargs) for _ in range(count)]
