import cmath
import math

import pytest

from qsum.qlaplace import theta
from qsum.scaled import QScaled


def test_normalization_invariant():
    """theta builds the record with |mantissa| = q**r, r in [0, 1]
    rounded, and the record keeps it as given; to_complex is the value."""
    for q in (1.05, 2.0, 10.0):
        for k in range(-8, 9):
            x = cmath.rect(q ** (k + 0.37), 0.3 * k)
            v = theta(x, q)
            assert 1.0 <= abs(v.mantissa) <= q * (1.0 + 2.0 ** -52), (q, k, v)
            assert abs(v.to_complex() - x * theta(x / q, q).to_complex()) \
                <= 1e-12 * abs(v.to_complex()), (q, k)
    assert QScaled(2.0, 1.5 + 2j, 4).to_complex() == (1.5 + 2j) * 16.0


def test_exponents_beyond_double_range():
    """log_abs and to_complex at the ends of the exponent range: zero, a
    value above double range and one below it."""
    q = 2.0
    z = QScaled(q, 0j, 0)
    assert z.to_complex() == 0j and z.log_abs() == -math.inf
    big = QScaled(q, -1.5j, 1800.0)
    assert big.log_abs() == pytest.approx(math.log(1.5) + 1800.0 * math.log(q), rel=1e-15)
    with pytest.raises(OverflowError):
        big.to_complex()
    assert QScaled(q, 1.5, -1800.0).to_complex() == 0j
