import math

import pytest

from qsum.scaled import QScaled


def test_normalization_invariant():
    v = QScaled(2.0, 12.5 + 3j, 4.0)
    assert 1.0 <= abs(v.mantissa) < 2.0
    assert abs(v.to_complex() - (12.5 + 3j) * 16.0) <= 1e-9 * abs(v.to_complex())


def test_exponents_beyond_double_range():
    """log_abs and to_complex at the ends of the exponent range: zero, a
    value above double range and one below it."""
    q = 2.0
    z = QScaled.zero(q)
    assert z.is_zero() and z.to_complex() == 0j and z.log_abs() == -math.inf
    big = QScaled(q, -3.0j, 1800.0)
    assert big.log_abs() == pytest.approx(math.log(3.0) + 1800.0 * math.log(q), rel=1e-15)
    with pytest.raises(OverflowError):
        big.to_complex()
    assert QScaled(q, 1.5, -1800.0).to_complex() == 0j
