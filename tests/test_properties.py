"""Randomized-corpus property suite.

Each property is a function of a seed so the acceptance module can replay
the whole set under fresh seeds; the default run uses the session seed
(QSUM_SEED when set)."""

import cmath
import math
from unittest import mock

import pytest

import qsum.qborel
from qsum.corpus import corpus
from qsum.equation import from_json, to_json
from qsum.formal import gevrey_fit, solve_formal, verify_formal
from qsum.newton import (characteristic_polynomial, check_interior,
                         check_order_floors, check_shape, newton_polygon,
                         reduced_coefficients, singular_directions)
from qsum.pipeline import analyze_conditions
from qsum.qborel import (borel_transform, borel_transformed_equation,
                         continue_spiral, lead_roots)
from qsum.square import substitute_square


def clear_direction(rays, radius=1.0):
    """A direction in the widest angular gap between singular rays."""
    if not rays:
        return complex(radius)
    rays = sorted(rays)
    gaps = [(rays[(i + 1) % len(rays)] - r) % (2 * math.pi) or 2 * math.pi
            for i, r in enumerate(rays)]
    i = max(range(len(rays)), key=lambda k: gaps[k])
    return cmath.rect(radius, rays[i] + gaps[i] / 2.0)


def property_conditions_entail_floors(seed):
    for eq in corpus(20, seed):
        p = newton_polygon(eq)
        shape = check_shape(p)
        assert shape.ok, "corpus must satisfy the polygon shape"
        interior = check_interior(eq, p, shape.m0)
        assert interior.passed
        # entailment: a floor violation here would raise
        assert check_order_floors(eq, p, shape, interior).passed


def property_scaling_identity(seed):
    for eq in corpus(20, seed):
        shape = check_shape(newton_polygon(eq))
        P = characteristic_polynomial(eq, reduced_coefficients(eq, shape.m0), shape.m0)
        taus = singular_directions(P).roots
        assert all(abs(t) > 0 for t in taus)
        xis = lead_roots(borel_transformed_equation(eq, shape.m0))
        scale = eq.q ** (-shape.m0)
        assert len(xis) == len(taus)
        for xi in xis:
            assert min(abs(xi - scale * tau) / abs(scale * tau) for tau in taus) <= 1e-10


def max_orders(eq, cap):
    """Largest order count the z-window supports (one window unit per
    derivative order consumed at each step of the recursion)."""
    a = eq.max_alpha()
    return cap if a == 0 else min(cap, (eq.Kz - 2) // a - 1)


def property_formal_residuals(seed):
    for eq in corpus(12, seed):
        sol = solve_formal(eq, max_orders(eq, 40))
        rep = verify_formal(eq, sol)
        assert rep.passed, "scaled residual %e at seed %s" % (rep.max_relative, seed)
        fit = gevrey_fit(sol)
        assert sol.certified_by(fit)


def property_overlap_consistency(seed):
    checked = 0
    for eq in corpus(10, seed, Kz=24):
        if checked >= 4:
            break
        if eq.max_alpha() > 1:
            continue  # the march budget at this window is for <= 1 unit/step
        shape = check_shape(newton_polygon(eq))
        sol = solve_formal(eq, max_orders(eq, 24))
        u = borel_transform(sol)
        if not (0 < u.radius_est < float("inf")):
            continue
        beq = borel_transformed_equation(eq, shape.m0)
        ds = singular_directions(
            characteristic_polynomial(eq, reduced_coefficients(eq, shape.m0), shape.m0))
        # comparison points stay at |xi| <= radius/4 so the direct sum's own
        # tail is far below the tolerance being asserted
        lam = clear_direction(ds.rays, radius=u.radius_est / 4.0)
        with mock.patch.object(qsum.qborel, "SEED_RADIUS_FRACTION", 0.125):
            grid = continue_spiral(beq, u, lam, 0)
        zz = (0.0,) * eq.d
        # the step arithmetic runs at the scale of the transformed rhs, so
        # that is the floor below which agreement is ulp-level noise
        rhs_scale = max(1.0, max((abs(fz.evaluate(0, zz)) for _, fz in beq.rhs_slices),
                                 default=0.0))
        for m in range(grid.seed_top + 1, 1):
            xi = lam * eq.q ** float(m)
            terms = [u.coeffs[k].evaluate(0, zz) * xi ** k for k in range(len(u.coeffs))]
            direct = sum(terms)
            # only compare where this sum's own observed tail is negligible
            mags = [abs(x) for x in terms]
            ratios = [mags[k] / mags[k - 1] for k in range(len(mags) - 4, len(mags))
                      if mags[k - 1] > 0]
            r = max(ratios) if ratios else 0.0
            if r >= 0.5 or (r and max(mags[-3:]) * r / (1 - r) > 1e-13 * abs(direct)):
                continue
            v = grid.values[m]
            got = v.series.evaluate(0, zz) * eq.q ** v.qexp
            # 1e-10 here: random coefficients condition the step division
            # worse than the named equations, which are held to 1e-11
            assert abs(got - direct) <= max(1e-10 * abs(direct), 5e-14 * rhs_scale)
        checked += 1
    assert checked >= 3


def property_json_round_trip(seed):
    for eq in corpus(20, seed):
        assert from_json(to_json(eq)) == eq
        # byte-determinism of the serialization itself
        assert to_json(eq) == to_json(from_json(to_json(eq)))


def property_series_ring(seed):
    import random
    from qsum.series import TruncatedSeries, invert

    rng = random.Random(seed)

    def rand_series(unit=False):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            key = (rng.randrange(5), (rng.randrange(4),))
            coeffs[key] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = TruncatedSeries(1, 5, 4, coeffs)
        if unit:
            s = s + TruncatedSeries.const(rng.uniform(2.0, 4.0), 1, 5, 4)
        return s

    one = TruncatedSeries.const(1.0, 1, 5, 4)
    for _ in range(20):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a + b).approx_equal(b + a, 1e-12)
        assert ((a + b) + c).approx_equal(a + (b + c), 1e-12)
        assert (a * b).approx_equal(b * a, 1e-12)
        assert ((a * b) * c).approx_equal(a * (b * c), 1e-11)
        assert (a * (b + c)).approx_equal(a * b + a * c, 1e-11)
        unit = rand_series(unit=True)
        assert (unit * invert(unit)).approx_equal(one, 1e-10)


def property_squared_route_has_the_strong_margin(seed):
    # t -> t^2 doubles every t-order, so the squared equation meets every
    # polygon condition and the strong margin, whether or not the original does
    for eq in corpus(40, seed):
        sq = substitute_square(eq)
        cond = analyze_conditions(sq.equation)
        assert cond["shape"].ok and cond["shape"].m0 == sq.m0_doubled
        for key in ("interior", "floors", "nondegeneracy", "strong_margin"):
            assert cond[key].passed, (key, cond[key].messages)


def property_report_determinism(seed):
    import json
    from qsum.pipeline import Options, run_report

    text = "q=2; delta=1; m=1; d=0; eq: t*S^1(X) + S^0(X) = 1"
    docs = []
    for _ in range(2):
        rep = run_report(text, Options(orders=15, mmax=15, n_check=6))
        doc = rep.to_dict()
        del doc["timings"]
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


ALL_PROPERTIES = (
    property_conditions_entail_floors,
    property_scaling_identity,
    property_formal_residuals,
    property_overlap_consistency,
    property_json_round_trip,
    property_series_ring,
    property_squared_route_has_the_strong_margin,
    property_report_determinism,
)


@pytest.mark.parametrize("prop", ALL_PROPERTIES, ids=lambda f: f.__name__)
def test_properties_base_seed(prop, base_seed):
    prop(base_seed)


@pytest.mark.parametrize("offset", [1, 2, 3])
def test_light_properties_fresh_seeds(offset, base_seed):
    seed = base_seed + offset
    property_conditions_entail_floors(seed)
    property_scaling_identity(seed)
    property_json_round_trip(seed)
    property_series_ring(seed)
