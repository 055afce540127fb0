import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from qsum.errors import DimensionMismatchError, NonFiniteError, NotAUnitError
from qsum.series import Columns, TruncatedSeries, divide, invert


def S(d=0, Kt=8, Kz=4, **coeffs):
    parsed = {}
    for key, val in coeffs.items():
        parts = key.split("_")[1:]
        n = int(parts[0])
        beta = tuple(int(x) for x in parts[1:])
        parsed[(n, beta)] = val
    return TruncatedSeries(d, Kt, Kz, parsed)


def test_add_coefficientwise():
    one_plus_t = S(c_0=1, c_1=1)
    t = S(c_1=1)
    out = one_plus_t + t
    assert out.get(0) == 1 and out.get(1) == 2


def test_add_identity_and_cancellation():
    f = S(d=1, c_0_0=1, c_1_2=2.5)
    assert f + TruncatedSeries.zero(1, 8, 4) == f
    a = S(d=1, c_0_0=1, c_0_1=1)
    b = S(d=1, c_0_0=1, c_0_1=-1)
    assert (a + b) == S(d=1, c_0_0=2)


def test_add_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        S() + S(d=1, c_0_0=1)


def test_mul_polynomials():
    one_plus_t = S(c_0=1, c_1=1)
    one_minus_t = S(c_0=1, c_1=-1)
    assert one_plus_t * one_minus_t == S(c_0=1, c_2=-1)
    f = S(d=2, c_1_1_0=3, c_0_0_2=2)
    assert f * TruncatedSeries.const(1, 2, 8, 4) == f


def test_mul_geometric_identity():
    Kt = 12
    geo = TruncatedSeries(0, Kt, 1, {(n, ()): 1.0 for n in range(Kt)})
    one_minus_t = TruncatedSeries(0, Kt, 1, {(0, ()): 1.0, (1, ()): -1.0})
    prod = geo * one_minus_t
    # exact 1 up to order Kt-1 by direct convolution
    assert prod == TruncatedSeries.const(1.0, 0, Kt, 1)


def test_dz_examples():
    z1sq = S(d=1, c_0_2=1, Kz=5)
    assert z1sq.dz(1) == S(d=1, c_0_1=2, Kz=4)
    t3 = S(d=1, c_3_0=1, Kz=5)
    assert t3.dz(1).is_zero()
    z1z2 = S(d=2, c_0_1_1=1, Kz=5)
    assert z1z2.dz(2) == S(d=2, c_0_1_0=1, Kz=4)


def test_invert_geometric():
    one_minus_t = S(c_0=1, c_1=-1, Kt=10)
    inv = invert(one_minus_t)
    assert all(inv.get(n) == 1 for n in range(10))
    assert invert(S(c_0=2)) == S(c_0=0.5)


def test_invert_alternating_and_product():
    a = S(d=1, c_0_0=1, c_0_1=1, Kz=8)
    inv = invert(a)
    for k in range(8):
        assert inv.get(0, (k,)) == pytest.approx((-1.0) ** k)
    assert (a * inv).approx_equal(TruncatedSeries.const(1, 1, 8, 8), 1e-14)


def test_invert_requires_unit():
    with pytest.raises(NotAUnitError):
        invert(S(c_1=1))


def test_divide_matches_mul_invert():
    num = S(c_0=2, c_1=1, Kt=10)
    den = S(c_0=1, c_1=-0.5, c_2=0.25, Kt=10)
    assert divide(num, den).approx_equal(num * invert(den), 1e-13)


def _window_divide(num, den):
    """The reference division: a scan of every key of the common window in
    graded order (n, |beta|, then beta lexicographically)."""
    den0 = den.constant_term()
    Kt, Kz = min(num.Kt, den.Kt), min(num.Kz, den.Kz)
    d = num.d
    den_rest = [(n, beta, c) for (n, beta), c in den.items() if (n, beta) != (0, (0,) * d)]
    betas = sorted(itertools.product(range(Kz), repeat=d), key=lambda b: (sum(b), b))
    out = {}
    for n in range(Kt):
        for beta in betas:
            if sum(beta) >= Kz:
                continue
            acc = num.coeffs.get((n, beta), 0j)
            for dn, dbeta, dc in den_rest:
                rn = n - dn
                rbeta = tuple(b - db for b, db in zip(beta, dbeta))
                if rn < 0 or any(b < 0 for b in rbeta):
                    continue
                prev = out.get((rn, rbeta))
                if prev is not None:
                    acc -= dc * prev
            if acc != 0:
                out[(n, beta)] = acc / den0
    return TruncatedSeries(d, Kt, Kz, out)


def _random_series(rng, d, Kt, Kz, count, const=None, t_terms=True, z_terms=True):
    coeffs = {}
    for _ in range(count):
        n = rng.randrange(Kt) if t_terms else 0
        beta = tuple(rng.randrange(Kz) for _ in range(d)) if z_terms else (0,) * d
        coeffs[(n, beta)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    if const is not None:
        coeffs[(0, (0,) * d)] = const
    return TruncatedSeries(d, Kt, Kz, coeffs)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_divide_matches_the_full_window_scan(d):
    rng = random.Random(20240901 + d)
    windows = [((6, 5), (6, 5)), ((7, 6), (5, 4)), ((4, 3), (8, 7)), ((5, 7), (5, 2))]
    for (nKt, nKz), (dKt, dKz) in windows:
        for num_count in (1, 3, 60):                       # sparse to dense numerators
            for t_terms, z_terms in ((True, False), (False, True), (True, True)):
                if d == 0 and not t_terms:
                    continue
                num = _random_series(rng, d, nKt, nKz, num_count)
                den = _random_series(rng, d, dKt, dKz, 1 + rng.randrange(5), const=0.5 - 1.5j,
                                     t_terms=t_terms, z_terms=z_terms)
                got, want = divide(num, den), _window_divide(num, den)
                assert (got.Kt, got.Kz) == (want.Kt, want.Kz)
                assert got.coeffs == want.coeffs
                assert list(got.coeffs) == list(want.coeffs)
    # a constant divisor, and the inverse of a dense unit
    num = _random_series(rng, d, 6, 5, 4)
    for den in (TruncatedSeries.const(3.0, d, 6, 5), _random_series(rng, d, 6, 5, 40, const=2.0)):
        got, want = divide(num, den), _window_divide(num, den)
        assert got.coeffs == want.coeffs and list(got.coeffs) == list(want.coeffs)
        one = TruncatedSeries.const(1.0, d, 6, 5)
        assert list(invert(den).coeffs.items()) == list(_window_divide(one, den).coeffs.items())


def test_divide_errors():
    with pytest.raises(NotAUnitError):
        divide(S(d=1, c_0_0=1), S(d=1, c_0_1=1, c_1_0=2))
    with pytest.raises(DimensionMismatchError):
        divide(S(d=1, c_0_0=1), S(d=2, c_0_0_0=1))


def _chained(pairs):
    """The linear combination s0 * c0 + s1 * c1 + ... one scalar product
    and one __add__ at a time."""
    acc = None
    for s, c in pairs:
        piece = s * c
        acc = piece if acc is None else acc + piece
    return acc


def _one_pass(pairs):
    """The reference linear combination: the first pair's nonzero products,
    then each later product added where its key first appeared, a zero
    scale skipped, and the sums built by the validating constructor on the
    smallest window."""
    (first, scale), *rest = pairs
    out = {k: v for k, c in first.coeffs.items() if (v := c * complex(scale))}
    Kt, Kz = first.Kt, first.Kz
    for s, scale in rest:
        Kt, Kz = min(Kt, s.Kt), min(Kz, s.Kz)
        if scale != 0:
            for k, c in s.coeffs.items():
                out[k] = out.get(k, 0j) + c * complex(scale)
    return TruncatedSeries(first.d, Kt, Kz, out)


def _assert_same(got, want):
    assert (got.d, got.Kt, got.Kz) == (want.d, want.Kt, want.Kz)
    assert got.coeffs == want.coeffs
    # key order, and every bit of every value
    assert repr(list(got.coeffs.items())) == repr(list(want.coeffs.items()))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_combination_equals_the_one_pass_sum(d):
    rng = random.Random(20240917 + d)
    windows = [(6, 5), (7, 6), (5, 4), (4, 3), (8, 7), (6, 2)]
    for _ in range(40):
        pairs = []
        for _ in range(rng.randint(1, 6)):
            Kt, Kz = rng.choice(windows)
            series = _random_series(rng, d, Kt, Kz, rng.choice((0, 1, 3, 20)))
            scale = rng.choice((complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                                rng.uniform(-3, 3), 2, 0, 0j, 1e-300))
            pairs.append((series, scale))
        got = TruncatedSeries.combination(pairs)
        _assert_same(got, _one_pass(pairs))
        _assert_same(TruncatedSeries.combination(iter(pairs)), _one_pass(pairs))
        # the chained sum's values, in its own key order
        assert got.coeffs == _chained(pairs).coeffs


def test_combination_cancellation_zero_scales_and_single_pairs():
    a = S(d=1, c_0_0=1, c_1_1=2.5, c_2_0=-1)
    b = S(d=1, c_1_1=-2.5, c_0_2=3)
    c = S(d=1, Kt=5, Kz=3, c_3_1=1, c_1_1=4)
    # (1, (1,)) cancels to exactly 0 and turns nonzero again in its first place
    pairs = [(a, 1.0), (b, 1.0), (S(d=1, c_4_0=1), 0.5j), (c, 1.0)]
    got = TruncatedSeries.combination(pairs)
    _assert_same(got, _one_pass(pairs))
    assert list(got.coeffs) == [(0, (0,)), (1, (1,)), (2, (0,)), (0, (2,)), (4, (0,)), (3, (1,))]
    assert got.coeffs[(1, (1,))] == 4
    # a cancelled key that never comes back stays out
    _assert_same(TruncatedSeries.combination(pairs[:3]), _one_pass(pairs[:3]))
    assert (1, (1,)) not in TruncatedSeries.combination(pairs[:3]).coeffs
    # a zero scale contributes nothing but still narrows the window
    for zero in (0, 0.0, 0j):
        pairs = [(a, 2.0), (c, zero), (b, -1.0)]
        got = TruncatedSeries.combination(pairs)
        _assert_same(got, _one_pass(pairs))
        assert (got.Kt, got.Kz) == (5, 3)
        _assert_same(TruncatedSeries.combination([(a, zero)]), _one_pass([(a, zero)]))
    # a single pair is the scalar product
    for scale in (1.0, -0.75 + 2j, 3):
        _assert_same(TruncatedSeries.combination([(a, scale)]), a * scale)


def test_combination_with_underflowed_products():
    first = S(d=1, c_0_0=1e-200, c_1_0=1.0, c_0_1=-1e-200)
    tiny = 1e-200                      # 1e-200 * 1e-200 underflows to 0
    # the scalar product keeps no underflowed 0, as the constructor keeps none
    assert (first * tiny).coeffs == {(1, (0,)): 1e-200 + 0j}
    touching = S(d=1, c_0_0=1.0, c_2_0=1.0)
    apart = S(d=1, c_2_0=1.0, c_1_0=-1e-200)
    for pairs in ([(first, tiny), (touching, tiny)],      # the second piece adds at a dropped key
                  [(first, tiny), (apart, tiny)],         # the second piece does not
                  [(first, tiny), (apart, 1e-300), (first, 1.0)],
                  [(touching, 1.0), (first, tiny)],       # a later piece underflows
                  [(S(d=1, c_0_1=1.0), 1.0), (first, tiny)]):
        got = TruncatedSeries.combination(pairs)
        _assert_same(got, _chained(pairs))
        assert 0j not in got.coeffs.values()
    got = TruncatedSeries.combination([(first, tiny)])
    assert got.coeffs == {(1, (0,)): 1e-200 + 0j}


def test_combination_errors():
    with pytest.raises(ValueError, match="combination of no series"):
        TruncatedSeries.combination([])
    with pytest.raises(DimensionMismatchError):
        TruncatedSeries.combination([(S(d=1, c_0_0=1), 1.0), (S(d=2, c_0_0_0=1), 1.0)])
    big = S(d=1, Kt=3, Kz=3, c_0_0=1e308, c_1_1=1.0)
    for pairs in ([(big, math.inf)], [(big, 1.0), (big, complex(0.0, math.nan))],
                  [(big, 10.0)], [(big, 1.0), (big, 1.0)], [(S(d=1, c_0_1=1), 1.0), (big, -10.0)],
                  # the overflowed key lies outside the window of the result
                  [(S(d=1, Kt=3, Kz=3, c_0_0=1, c_1_1=1e308), 10.0), (S(d=1, Kt=1, Kz=1, c_0_0=1), 1.0)]):
        with pytest.raises(NonFiniteError, match="non-finite coefficient"):
            _chained(pairs)
        with pytest.raises(NonFiniteError, match="non-finite coefficient"):
            TruncatedSeries.combination(pairs)


def _ladder(xi, count):
    """The powers 1, xi, xi^2, ... as a power ladder takes them."""
    powers, power = [], 1.0 + 0j
    for _ in range(count):
        powers.append(power)
        power *= xi
    return powers


def _exact_series(rng, d, Kz, count):
    """A z-series whose coefficients are small powers of two or tiny: sums
    with power-of-two scales cancel exactly, and tiny products underflow."""
    values = (1, -1, 2, -2, 4, -4, 1j, -2j, 1 - 1j, 1e-300, -1e-300j)
    return TruncatedSeries(d, 1, Kz, {(0, tuple(rng.randrange(Kz) for _ in range(d))):
                                      rng.choice(values) for _ in range(count)})


@pytest.mark.parametrize("d", [0, 1, 2])
def test_columns_equal_the_combination(d):
    rng = random.Random(20241019 + d)
    reentered = 0
    for _ in range(60):
        count, top = rng.randint(1, 12), rng.randint(2, 9)
        # windows that shrink with k, as the Borel coefficients' do
        series = [_exact_series(rng, d, max(1, top - k // 2), rng.choice((0, 2, 6, 20)))
                  for k in range(count)]
        columns = Columns(series)
        for xi in (0.5, -2.0, 0.5j, 1.0, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                   1e-200, 1e-120j, 0.0):
            powers = _ladder(xi, count)
            want = TruncatedSeries.combination(zip(series, powers))
            _assert_same(columns.combination(powers), want)
            _assert_same(want, _one_pass(list(zip(series, powers))))
            for key in want.coeffs:
                acc, hit = None, False
                for s, p in zip(series, powers):
                    if p != 0 and key in s.coeffs:
                        acc = s.coeffs[key] * p if acc is None else acc + s.coeffs[key] * p
                        hit = hit or not acc
                reentered += hit
    # keys whose running sum is exactly 0 at some series and nonzero at the end
    assert reentered > 0


def test_columns_keep_a_key_where_it_first_appears():
    a = S(d=1, Kz=5, c_0_0=1, c_0_1=2, c_0_4=7)
    b = S(d=1, Kz=4, c_0_0=-2, c_0_2=1, c_0_1=1e-300)
    c = S(d=1, Kz=4, c_0_0=4, c_0_3=1)
    columns = Columns([a, b, c])
    # at xi = 1/2, (0, (0,)) cancels to exactly 0 at b and turns nonzero at
    # c in its first place; (0, (4,)) lies outside the common window
    got = columns.combination(_ladder(0.5, 3))
    _assert_same(got, TruncatedSeries.combination(zip([a, b, c], _ladder(0.5, 3))))
    _assert_same(got, _one_pass(list(zip([a, b, c], _ladder(0.5, 3)))))
    assert list(got.coeffs) == [(0, (0,)), (0, (1,)), (0, (2,)), (0, (3,))]
    # at xi = 1e-200 the product 1e-300 * xi underflows, and xi^2 to a zero
    # scale, which adds nothing; at xi = 0 only the first series counts
    for xi in (1e-200, 1e-300, 0.0, -1.0):
        _assert_same(columns.combination(_ladder(xi, 3)),
                     TruncatedSeries.combination(zip([a, b, c], _ladder(xi, 3))))
    # signed zeros: the first series' products are not added to 0j, and a
    # sum that is exactly 0 stays, with the signs of its zeros, for the next
    # product to add to
    neg = [TruncatedSeries(0, 1, 1, {(0, ()): c}) for c in (complex(-0.0, 1.0),
                                                             complex(-0.0, -1.0),
                                                             complex(-0.0, -2.0))]
    for series, scales in ((neg[:1], [1 + 0j]),
                           (neg, [1 + 0j, complex(1.0, -0.0), complex(1.0, -0.0)])):
        _assert_same(Columns(series).combination(scales),
                     TruncatedSeries.combination(zip(series, scales)))
    assert repr(Columns(neg).combination([1 + 0j, complex(1.0, -0.0), complex(1.0, -0.0)])
                .coeffs) == "{(0, ()): (-0-2j)}"
    # a zero scale adds nothing, not even +0 to a signed zero
    one = TruncatedSeries.const(1.0, 0, 1, 1)
    got = Columns([neg[0], one]).combination([1 + 0j, 0j])
    _assert_same(got, TruncatedSeries.combination([(neg[0], 1 + 0j), (one, 0j)]))
    assert repr(got.coeffs) == "{(0, ()): (-0+1j)}"
    with pytest.raises(NonFiniteError, match="non-finite coefficient"):
        columns.combination([1.0, math.inf, 1.0])
    with pytest.raises(ValueError, match="zero scale is followed"):
        columns.combination([1.0, 0.0, 1.0])
    # a first scale other than 1 could make a first product an exact zero,
    # which combination drops and a column would keep
    for scales in ([2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1e-200, 1.0, 1.0]):
        with pytest.raises(ValueError, match="first scale is not 1"):
            columns.combination(scales)


@pytest.mark.parametrize("d", [0, 1, 2])
def test_combination_of_products_equals_the_combination_of_the_products(d):
    rng = random.Random(20241020 + d)
    windows = [(6, 5), (7, 6), (5, 4), (6, 2)]
    factors = (0.5, -2.0, 1j, 0, 1e-200, 2.0 ** -600, 3)
    for _ in range(60):
        triples = []
        for _ in range(rng.randint(1, 6)):
            Kt, Kz = rng.choice(windows)
            series = rng.choice((_random_series(rng, d, Kt, Kz, rng.choice((0, 1, 3, 20))),
                                 _exact_series(rng, d, Kz, rng.choice((1, 6)))))
            a, b = (rng.choice(factors + (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),))
                    for _ in range(2))
            triples.append((series, a, b))
        want = TruncatedSeries.combination([(s * a, b) for s, a, b in triples])
        _assert_same(TruncatedSeries.combination_of_products(triples), want)
        _assert_same(TruncatedSeries.combination_of_products(iter(triples)), want)
    # a zero c * a or a zero b adds nothing, not even +0 to a signed zero
    signed, one = (TruncatedSeries.const(c, 0, 1, 1) for c in (complex(-0.0, 1.0), 1.0))
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        triples = [(signed, 1 + 0j, 1 + 0j), (one, a, b)]
        got = TruncatedSeries.combination_of_products(triples)
        _assert_same(got, TruncatedSeries.combination([(s * a, b) for s, a, b in triples]))
        assert repr(got.coeffs) == "{(0, ()): (-0+1j)}"


def test_combination_of_products_errors():
    with pytest.raises(ValueError, match="combination of no series"):
        TruncatedSeries.combination_of_products([])
    with pytest.raises(DimensionMismatchError):
        TruncatedSeries.combination_of_products([(S(d=1, c_0_0=1), 1.0, 1.0),
                                                 (S(d=2, c_0_0_0=1), 1.0, 1.0)])
    big = S(d=1, Kt=3, Kz=3, c_0_0=1e308, c_1_1=1.0)
    # an overflow in series * a raises also where b is 0 and adds nothing
    for triples in ([(big, 10.0, 1.0)], [(big, 1.0, 10.0)], [(big, 10.0, 0.0)],
                    [(big, 1.0, 1.0), (big, 10.0, 0.0)], [(big, math.inf, 1.0)],
                    [(big, 1.0, complex(0.0, math.nan))]):
        with pytest.raises(NonFiniteError, match="non-finite coefficient"):
            TruncatedSeries.combination([(s * a, b) for s, a, b in triples])
        with pytest.raises(NonFiniteError, match="non-finite coefficient"):
            TruncatedSeries.combination_of_products(triples)


def _ref_sum(a, b, negate):
    """The reference a + b (a + (-b) when negate): every key through the
    validating constructor."""
    out = dict(a.coeffs)
    for k, c in b.coeffs.items():
        out[k] = out.get(k, 0j) + (-c if negate else c)
    return TruncatedSeries(a.d, min(a.Kt, b.Kt), min(a.Kz, b.Kz), out)


def _ref_mul(a, b):
    """The reference product: the convolution over the smaller operand,
    every key through the validating constructor."""
    Kt, Kz = min(a.Kt, b.Kt), min(a.Kz, b.Kz)
    x, y = (b.coeffs, a.coeffs) if len(a.coeffs) > len(b.coeffs) else (a.coeffs, b.coeffs)
    out = {}
    for (n1, b1), c1 in x.items():
        for (n2, b2), c2 in y.items():
            key = (n1 + n2, tuple(p + r for p, r in zip(b1, b2)))
            if key[0] < Kt and sum(key[1]) < Kz:
                out[key] = out.get(key, 0j) + c1 * c2
    return TruncatedSeries(a.d, Kt, Kz, out)


def _ref_dz(a, axis, order):
    i = axis - 1
    out = {}
    for (n, beta), c in a.coeffs.items():
        if beta[i] >= order:
            fac = 1.0
            for r in range(order):
                fac *= beta[i] - r
            out[(n, beta[:i] + (beta[i] - order,) + beta[i + 1:])] = c * fac
    return TruncatedSeries(a.d, a.Kt, a.Kz - order, out)


def _int_series(rng, d, Kt, Kz, count):
    """Small Gaussian-integer coefficients, whose sums and products cancel
    to exactly 0 often."""
    coeffs = {}
    for _ in range(count):
        key = (rng.randrange(Kt), tuple(rng.randrange(Kz) for _ in range(d)))
        coeffs[key] = complex(rng.choice((-2, -1, 1, 2)), rng.choice((0, 0, -1, 1)))
    return TruncatedSeries(d, Kt, Kz, coeffs)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_arithmetic_matches_the_validating_constructor(d):
    """Every operation that builds its result without the public
    constructor gives what the constructor gives for the same
    coefficients: values to the bit, key order and window."""
    rng = random.Random(20241019 + d)
    windows = [(6, 5), (7, 6), (5, 4), (4, 3), (8, 7), (6, 3)]
    cancelled = unequal = 0
    for _ in range(60):
        (aKt, aKz), (bKt, bKz) = rng.choice(windows), rng.choice(windows)
        unequal += (aKt, aKz) != (bKt, bKz)
        make = rng.choice((_int_series, _random_series))
        a = make(rng, d, aKt, aKz, rng.choice((0, 1, 4, 12)))
        b = make(rng, d, bKt, bKz, rng.choice((0, 1, 4, 12)))
        # shared keys whose values cancel in the sum or in the difference
        shared = {k: rng.choice((c, -c)) for k, c in a.coeffs.items() if rng.random() < 0.5}
        b = TruncatedSeries(d, bKt, bKz, {**b.coeffs, **shared})
        cancelled += sum(k in b.coeffs and abs(b.coeffs[k]) == abs(c) for k, c in a.coeffs.items())
        _assert_same(a + b, _ref_sum(a, b, False))
        _assert_same(a - b, _ref_sum(a, b, True))
        _assert_same(a * b, _ref_mul(a, b))
        _assert_same(b * a, _ref_mul(b, a))
        for axis in range(1, d + 1):
            for order in (1, 2):
                _assert_same(a.dz(axis, order), _ref_dz(a, axis, order))
        pairs = [(a, rng.choice((1.0, -1.0, 0.5j))), (b, rng.choice((1.0, -1.0, 2))), (a * b, 0.25)]
        _assert_same(TruncatedSeries.combination(pairs), _one_pass(pairs))
        den = _int_series(rng, d, bKt, bKz, 3) + TruncatedSeries.const(5.0, d, bKt, bKz)
        _assert_same(divide(a, den), _window_divide(a, den))
    assert cancelled > 20 and unequal > 20


def test_scalar_product_rejects_overflow():
    big = TruncatedSeries.const(1e308, 0, 2, 1)
    for overflow in (lambda: big * 10.0, lambda: 10.0 * big, lambda: big * 10j,
                     lambda: big / 1e-10, lambda: S(d=1, c_0_0=1, c_1_1=-1e300) * (1e10 + 1e10j)):
        with pytest.raises(NonFiniteError, match="non-finite coefficient"):
            overflow()
    assert (big * 1.5).coeffs == {(0, ()): 1.5e308 + 0j}


def test_constructor_rejects_non_finite_coefficients():
    for bad in (math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 0.0)):
        with pytest.raises(NonFiniteError, match="non-finite coefficient"):
            TruncatedSeries(1, 3, 3, {(0, (1,)): 1.0, (1, (0,)): bad})
    big = TruncatedSeries.const(1e308, 1, 3, 3) + S(d=1, Kt=3, Kz=3, c_1_1=1e308)
    with pytest.raises(NonFiniteError):
        big + big
    assert issubclass(NonFiniteError, ValueError)


def test_constructor_rejects_bad_multi_indices():
    for d, beta in ((0, (1,)), (1, ()), (1, (0, 1)), (2, (1,)), (3, (0, 1))):
        with pytest.raises(DimensionMismatchError):
            TruncatedSeries(d, 3, 3, {(0, beta): 1.0})
    # a negative entry is rejected even where |beta| stays in the window
    for d, n, beta in ((0, -1, ()), (1, 0, (-1,)), (1, -1, (1,)), (2, 0, (2, -1)),
                       (2, 0, (-1, 1)), (3, 0, (1, -1, 0)), (3, 1, (0, 2, -2))):
        with pytest.raises(ValueError, match="negative exponent"):
            TruncatedSeries(d, 3, 3, {(n, beta): 1.0})


class _Rows:
    """A coefficient source with list multi-indices, which a dict cannot key."""

    def __init__(self, rows):
        self.rows = rows

    def items(self):
        return [((n, beta), c) for n, beta, c in self.rows]


def test_constructor_accepts_lists_and_real_coefficients():
    # zeros and keys outside the window are dropped
    f = TruncatedSeries(2, 3, 3, _Rows([(1, [1, 0], 2), (0, [0, 0], 0.5), (2, (0, 1), 1 + 1j),
                                        (0, [1, 1], 0), (0, [2, 1], 7.0), (3, (0, 0), 1.0)]))
    assert f.coeffs == {(1, (1, 0)): 2 + 0j, (0, (0, 0)): 0.5 + 0j, (2, (0, 1)): 1 + 1j}
    assert all(type(k[1]) is tuple and type(c) is complex for k, c in f.coeffs.items())
    assert TruncatedSeries(0, 2, 1, _Rows([(0, [], 3)])).coeffs == {(0, ()): 3 + 0j}
    g = TruncatedSeries(1, 2, 2, {(0, (1,)): 4, (1, (0,)): -2.5, (0, (0,)): True})
    assert list(g.coeffs.items()) == [((0, (1,)), 4 + 0j), ((1, (0,)), -2.5 + 0j),
                                      ((0, (0,)), 1 + 0j)]
    assert all(type(c) is complex for c in g.coeffs.values())


def test_evaluate_examples():
    assert S(c_0=1, c_1=1).evaluate(0.5) == 1.5
    assert S(d=1, c_0_1=1).evaluate(0, (2,)) == 2
    geo = TruncatedSeries(0, 21, 1, {(n, ()): 1.0 for n in range(21)})
    # geometric tail bound: 0.5**21 / (1 - 0.5)
    assert abs(geo.evaluate(0.5) - 2.0) <= 0.5 ** 21 / 0.5


def test_ord_t_examples():
    f = S(d=1, c_2_0=1, c_2_1=1, c_3_0=1)
    assert f.ord_t() == 2
    assert S(d=1, c_1_1=1).ord_t() == 1
    assert TruncatedSeries.zero(0, 8, 1).ord_t() == math.inf


def test_shift_and_square_substitution():
    f = S(c_2=3, c_3=-1)
    g = f.shift_t_down(2)
    assert g.get(0) == 3 and g.get(1) == -1
    sq = S(c_1=2, Kt=4).subs_t_squared()
    assert sq.get(2) == 2 and sq.Kt == 7


def test_window_shrinks_to_min():
    a = TruncatedSeries.const(1, 0, 10, 1)
    b = TruncatedSeries.const(1, 0, 6, 1)
    assert (a * b).Kt == 6 and (a + b).Kt == 6


# ---------------------------------------------------------------- properties

coeff_st = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=0.01, max_magnitude=4,
                       allow_nan=False, allow_infinity=False),
)


def series_st(d, Kt=6, Kz=4):
    key_st = st.tuples(st.integers(0, Kt - 1),
                       st.tuples(*[st.integers(0, Kz - 1)] * d))
    return st.dictionaries(key_st, coeff_st, max_size=6).map(
        lambda c: TruncatedSeries(d, Kt, Kz, c))


@settings(max_examples=60, deadline=None)
@given(series_st(1), series_st(1), series_st(1))
def test_ring_axioms(a, b, c):
    assert (a + b).approx_equal(b + a, 1e-12)
    assert ((a + b) + c).approx_equal(a + (b + c), 1e-12)
    assert (a * b).approx_equal(b * a, 1e-12)
    assert ((a * b) * c).approx_equal(a * (b * c), 1e-11)
    assert (a * (b + c)).approx_equal(a * b + a * c, 1e-11)


@settings(max_examples=40, deadline=None)
@given(series_st(1))
def test_invert_roundtrip(a):
    unit = a + TruncatedSeries.const(5.0, 1, 6, 4)  # force a safe constant term
    prod = unit * invert(unit)
    assert prod.approx_equal(TruncatedSeries.const(1.0, 1, 6, 4), 1e-10)


@settings(max_examples=40, deadline=None)
@given(series_st(0, Kt=10, Kz=1), series_st(0, Kt=10, Kz=1))
def test_ord_additivity(a, b):
    oa, ob = a.ord_t(), b.ord_t()
    assert (oa == math.inf) == a.is_zero() and (ob == math.inf) == b.is_zero()
    if oa + ob < 10:
        assert (a * b).ord_t() == oa + ob


@settings(max_examples=40, deadline=None)
@given(series_st(2, Kt=5, Kz=4), series_st(2, Kt=5, Kz=4))
def test_evaluate_linearity(a, b):
    t0, z0 = 0.37 + 0.11j, (0.2 - 0.1j, -0.3j)
    lhs = (a + b).evaluate(t0, z0)
    rhs = a.evaluate(t0, z0) + b.evaluate(t0, z0)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
