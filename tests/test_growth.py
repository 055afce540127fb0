import cmath
import math

import pytest

from qsum.growth import (check_growth_bound, fit_coeff_bound, fit_envelope, fit_growth,
                         last_third, truncated_entire_eval)

Q = 2.0


def theta_type_coeffs(n=80, scale=1.0, H=1.0):
    return [scale * H ** k * Q ** (-k * (k - 1) / 2.0) for k in range(n)]


def coeff_logs(coeffs):
    """(logs, quad) of |a_n| <= A H^n Q^{-n(n-1)/2}, as Envelope.holds reads them."""
    return ([math.log(abs(a)) if a != 0 else None for a in coeffs],
            [-n * (n - 1) / 2.0 * math.log(Q) for n in range(len(coeffs))])


def log_spaced(lo, hi, count):
    return [10.0 ** (math.log10(lo) + (math.log10(hi) - math.log10(lo)) * i / (count - 1))
            for i in range(count)]


def test_fit_coeff_bound_definitional():
    fit = fit_coeff_bound(theta_type_coeffs(), Q)
    assert fit.A == pytest.approx(1.0) and fit.H == pytest.approx(1.0)
    assert fit.settled and fit.holds(*coeff_logs(theta_type_coeffs()))


def test_fit_coeff_bound_h3():
    coeffs = [(-1) ** n * 3.0 ** n * Q ** (-n * (n - 1) / 2.0) for n in range(40)]
    fit = fit_coeff_bound(coeffs, Q)
    assert fit.H == pytest.approx(3.0, rel=1e-9)
    assert fit.settled and fit.holds(*coeff_logs(coeffs))


def test_fit_coeff_bound_divergent_data():
    # alternating units are not coefficients of a theta-type entire function:
    # the envelope sequence climbs without bound
    fit = fit_coeff_bound([(-1.0) ** k for k in range(40)], Q)
    assert not fit.settled


def test_fit_coeff_bound_envelope_monotone():
    coeffs = theta_type_coeffs(50, scale=2.0, H=1.7)
    fit = fit_coeff_bound(coeffs, Q)
    loose_ok = True
    lnq = math.log(Q)
    for n, a in enumerate(coeffs):
        if a == 0:
            continue
        bound = math.log(fit.A) + n * math.log(fit.H * 1.5) - n * (n - 1) / 2.0 * lnq
        loose_ok &= math.log(abs(a)) <= bound + 1e-9
    assert fit.holds(*coeff_logs(coeffs)) and loose_ok  # enlarging H never invalidates


def test_growth_check_theta_type():
    ev = truncated_entire_eval(theta_type_coeffs())
    fit = fit_growth(ev, Q, log_spaced(1.0, 1e3, 16))
    assert fit.alpha == pytest.approx(0.5, abs=0.1)
    rep = check_growth_bound(ev, Q, fit.M, fit.alpha, log_spaced(1e-2, 1e3, 21))
    assert rep.passed


def test_growth_check_constant():
    rep = check_growth_bound(lambda t: 7.0, Q, 7.0, 0.0, log_spaced(1e-2, 1e2, 9))
    assert rep.passed  # the quadratic term only adds slack


def test_growth_check_exponential_fails():
    # exp(t) beats exp(c (log t)^2) at large |t|
    rep = check_growth_bound(lambda t: cmath.exp(t), Q, 10.0, 0.5, [200.0])
    assert not rep.passed


def test_fit_growth_homogeneity():
    ev = truncated_entire_eval(theta_type_coeffs())
    samples = log_spaced(1.0, 1e3, 12)
    base = fit_growth(ev, Q, samples)
    scaled = fit_growth(lambda t: 10.0 * ev(t), Q, samples)
    assert scaled.M == pytest.approx(10.0 * base.M, rel=1e-9)
    assert scaled.alpha == pytest.approx(base.alpha, abs=1e-9)


def test_fit_growth_constant():
    fit = fit_growth(lambda t: 7.0, Q, log_spaced(0.5, 50.0, 9))
    assert fit.M >= 7.0
    assert check_growth_bound(lambda t: 7.0, Q, fit.M, fit.alpha,
                              log_spaced(0.5, 50.0, 9)).passed


def test_fit_growth_degenerate_spread():
    with pytest.raises(ValueError):
        fit_growth(lambda t: 1.0, Q, [2.0, 2.0, 2.0])


def test_round_trip_equivalence_small_corpus():
    # coefficient bound -> growth bound -> coefficient bound, five functions
    corpus = [
        theta_type_coeffs(60),
        theta_type_coeffs(60, scale=3.0, H=0.5),
        theta_type_coeffs(60, scale=0.2, H=2.0),
        [c * (-1) ** k for k, c in enumerate(theta_type_coeffs(60, H=1.2))],
        [c * 1j ** k for k, c in enumerate(theta_type_coeffs(60, H=0.8))],
    ]
    for coeffs in corpus:
        cb = fit_coeff_bound(coeffs, Q)
        assert cb.settled
        ev = truncated_entire_eval(coeffs)
        fit_samples = log_spaced(0.1, 1e3, 20)
        gb = fit_growth(ev, Q, fit_samples)
        # exact envelope property on the fitted samples
        assert check_growth_bound(ev, Q, gb.M, gb.alpha, fit_samples).passed
        # between samples the q-periodic wobble needs a little headroom
        assert check_growth_bound(ev, Q, 1.1 * gb.M, gb.alpha, log_spaced(0.1, 1e3, 41)).passed
        back = fit_coeff_bound(coeffs, Q)
        assert math.isfinite(back.A) and math.isfinite(back.H)


def test_last_third_starts_at_two_thirds():
    for n in range(1, 500):
        assert last_third(list(range(1, n + 1)), n)[0] == max(1, -(-2 * n // 3))
    assert last_third(list(range(1, 31)), 30) == list(range(20, 31))


def test_coeff_bound_window_at_multiple_of_three():
    # 30 orders: the window is 20..30, so a peak at order 20 sets H
    coeffs = [Q ** (-n * (n - 1) / 2.0) for n in range(31)]
    coeffs[20] *= math.exp(10.0)
    assert fit_coeff_bound(coeffs, Q).H == pytest.approx(math.exp(0.5))


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
