import math

import pytest

from qsum.growth import fit_envelope, last_third

Q = 2.0


def theta_type_coeffs(n=80, scale=1.0, H=1.0):
    return [scale * H ** k * Q ** (-k * (k - 1) / 2.0) for k in range(n)]


def coeff_logs(coeffs):
    """(logs, quad) of |a_n| <= A H^n Q^{-n(n-1)/2}, as fit_envelope reads them."""
    return ([math.log(abs(a)) if a != 0 else None for a in coeffs],
            [-n * (n - 1) / 2.0 * math.log(Q) for n in range(len(coeffs))])


def fit_coeffs(coeffs):
    """The envelope of Taylor data a_n in the q-Gevrey shape A H^n Q^{-n(n-1)/2}."""
    return fit_envelope(*coeff_logs(coeffs), -math.inf)


def test_fit_coeff_bound_definitional():
    # theta-type data a_n = Q^{-n(n-1)/2} sits on the bound shape: A = H = 1
    fit = fit_coeffs(theta_type_coeffs())
    assert fit.A == pytest.approx(1.0) and fit.H == pytest.approx(1.0)
    assert fit.settled and fit.holds(*coeff_logs(theta_type_coeffs()))


def test_fit_coeff_bound_h3():
    coeffs = [(-1) ** n * 3.0 ** n * Q ** (-n * (n - 1) / 2.0) for n in range(40)]
    fit = fit_coeffs(coeffs)
    assert fit.H == pytest.approx(3.0, rel=1e-9)
    assert fit.settled and fit.holds(*coeff_logs(coeffs))


def test_fit_coeff_bound_divergent_data():
    # alternating units are not Taylor data of a theta-type entire function:
    # the diagnostic climbs, so no finite H settles
    assert not fit_coeffs([(-1.0) ** k for k in range(40)]).settled


def test_fit_coeff_bound_envelope_monotone():
    coeffs = theta_type_coeffs(50, scale=2.0, H=1.7)
    fit = fit_coeffs(coeffs)
    # enlarging H never invalidates the bound
    assert fit.holds(*coeff_logs(coeffs))
    assert fit._replace(logH=fit.logH + math.log(1.5)).holds(*coeff_logs(coeffs))


def test_last_third_starts_at_two_thirds():
    for n in range(1, 500):
        assert last_third(list(range(1, n + 1)), n)[0] == max(1, -(-2 * n // 3))
    assert last_third(list(range(1, 31)), 30) == list(range(20, 31))


def test_coeff_bound_window_at_multiple_of_three():
    # 30 orders: the window is 20..30, so a peak at order 20 sets H
    coeffs = [Q ** (-n * (n - 1) / 2.0) for n in range(31)]
    coeffs[20] *= math.exp(10.0)
    assert fit_coeffs(coeffs).H == pytest.approx(math.exp(0.5))


def test_envelope_edge_cases_shared_by_every_fit():
    flat = [0.0] * 31
    zero = fit_envelope([None] * 31, flat, -math.inf)
    assert zero.A == 0.0 and zero.H == 1.0 and zero.holds([None] * 31, flat)
    assert not zero.holds([None] * 30 + [0.0], flat)
    origin = fit_envelope([math.log(3.0)] + [None] * 30, flat, -math.inf)
    assert origin.H == 1.0 and origin.A == pytest.approx(3.0)
    # log|a_n| = -n: H = 1/e unless the floor clamps it to 1
    decaying = [-float(n) for n in range(31)]
    assert fit_envelope(decaying, flat, 0.0).H == 1.0
    assert fit_envelope(decaying, flat, -math.inf).H == pytest.approx(math.exp(-1.0))
    # 30 orders: the window is 20..30, so a peak at order 20 sets H and not
    # the larger one at order 19
    peaked = [0.0] * 31
    peaked[19], peaked[20] = 19.0, 10.0
    fit = fit_envelope(peaked, flat, -math.inf)
    assert fit.H == pytest.approx(math.exp(0.5)) and fit.holds(peaked, flat)
