"""Truncated power series in t and z1..zd with complex coefficients.

The universal value type of the toolkit.  A series is a sparse map from
(n, beta) to a complex coefficient, where n is the t-exponent and beta a
z-multi-index, restricted to the window n < Kt and |beta| < Kz.  Every
operation returns a new series whose window is the componentwise minimum
of its inputs' windows: results are never extrapolated beyond what the
inputs determine, so a formal derivative costs one unit of z-window and
that loss propagates through all downstream arithmetic.  No series
stores a coefficient that is exactly 0: a sum keeps each key where it
first appears and drops an exact 0 only when it builds its result.

The public constructor checks every key and value of outside data.
Results of arithmetic on series, whose keys come from in-window keys,
are built by `_result`, which checks only finiteness, zeros and, where
the operands' windows differ, the common window.
"""

import heapq
import math
from bisect import bisect_left
from cmath import isfinite
from operator import add

from .errors import DimensionMismatchError, NonFiniteError, NotAUnitError, TruncationError


class TruncatedSeries:
    """Sparse truncated series over C in t and z1..zd."""

    __slots__ = ("d", "Kt", "Kz", "coeffs")

    def __init__(self, d, Kt, Kz, coeffs=None):
        if d < 0 or Kt < 1 or Kz < 1:
            raise TruncationError("window must satisfy Kt >= 1, Kz >= 1, d >= 0")
        self.d = d
        self.Kt = Kt
        self.Kz = Kz
        # every check runs once per coefficient; a conversion is skipped
        # only where its input already has the converted type
        clean = {}
        if coeffs:
            for key, c in coeffs.items():
                n, beta = key
                if type(beta) is not tuple:
                    beta = tuple(beta)
                    key = (n, beta)
                if len(beta) != d:
                    raise DimensionMismatchError("multi-index length %d, expected %d" % (len(beta), d))
                if d == 1:
                    weight = low = beta[0]
                elif d:
                    weight, low = sum(beta), min(beta)
                else:
                    weight = low = 0
                if n < 0 or low < 0:
                    raise ValueError("negative exponent")
                if n >= Kt or weight >= Kz:
                    continue
                if type(c) is not complex:
                    c = complex(c)
                if not isfinite(c):
                    raise NonFiniteError("non-finite coefficient")
                if c:
                    clean[key] = c
        self.coeffs = clean

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls, d, Kt, Kz):
        return cls(d, Kt, Kz)

    @classmethod
    def const(cls, value, d, Kt, Kz):
        return cls(d, Kt, Kz, {(0, (0,) * d): complex(value)})

    @classmethod
    def var_t(cls, d, Kt, Kz):
        return cls(d, Kt, Kz, {(1, (0,) * d): 1.0})

    @classmethod
    def var_z(cls, axis, d, Kt, Kz):
        if not 1 <= axis <= d:
            raise DimensionMismatchError("z-axis %d out of range 1..%d" % (axis, d))
        beta = tuple(1 if i == axis - 1 else 0 for i in range(d))
        return cls(d, Kt, Kz, {(0, beta): 1.0})

    @classmethod
    def monomial(cls, value, n, beta, d, Kt, Kz):
        return cls(d, Kt, Kz, {(n, tuple(beta)): complex(value)})

    @classmethod
    def combination(cls, pairs):
        """The sum of series * scale over the (series, scale) pairs, built
        as one result on the smallest window with the products and
        additions of the chained s0 * c0 + s1 * c1 + ... in their order:
        the first pair's products as series * scale gives them, and none
        of a later pair whose scale is 0.  Keys keep their first places.

        It sums the aligned parts of each march step (qborel._scaled_sum).
        The continuation's seed sums go through Columns and the kernel
        z-series through combination_of_products, which give its results
        without forming what it forms and trims or walks twice."""
        pairs = iter(pairs)
        first = next(pairs, None)
        if first is None:
            raise ValueError("combination of no series")
        series, scale = first
        d, Kt, Kz = series.d, series.Kt, series.Kz
        scale = _scalar(scale)
        out = {k: v for k, c in series.coeffs.items() if (v := c * scale)}
        trim = False
        for series, scale in pairs:
            if series.d != d:
                raise DimensionMismatchError("series in %d and %d z-variables" % (d, series.d))
            if series.Kt != Kt or series.Kz != Kz:
                trim = True
                Kt, Kz = min(Kt, series.Kt), min(Kz, series.Kz)
            scale = _scalar(scale)
            if scale != 0:
                get = out.get
                for k, c in series.coeffs.items():
                    out[k] = get(k, 0j) + c * scale
        return _result(d, Kt, Kz, out, trim)

    @classmethod
    def combination_of_products(cls, triples):
        """The sum of (series * a) * b over the (series, a, b) triples, with
        the values, window and key order of combination([(series * a, b),
        ...]) but no series * a built: each coefficient's c * a is scaled
        by b in the same loop.  Where c * a is exactly 0, the scalar product
        would drop it, so it adds nothing, not even to the sign of a zero."""
        triples = iter(triples)
        first = next(triples, None)
        if first is None:
            raise ValueError("combination of no series")
        series, a, b = first
        d, Kt, Kz = series.d, series.Kt, series.Kz
        a, b = _scalar(a), _scalar(b)
        out = {k: v for k, c in series.coeffs.items() if (v := c * a * b)}
        trim = False
        for series, a, b in triples:
            if series.d != d:
                raise DimensionMismatchError("series in %d and %d z-variables" % (d, series.d))
            if series.Kt != Kt or series.Kz != Kz:
                trim = True
                Kt, Kz = min(Kt, series.Kt), min(Kz, series.Kz)
            a, b = _scalar(a), _scalar(b)
            if b != 0:
                get = out.get
                for k, c in series.coeffs.items():
                    x = c * a
                    if x:
                        out[k] = get(k, 0j) + x * b
            elif not all(isfinite(c * a) for c in series.coeffs.values()):
                # the product series * a that combination would skip
                raise NonFiniteError("non-finite coefficient")
        return _result(d, Kt, Kz, out, trim)

    # ---------------------------------------------------------------- access

    def items(self):
        """Deterministic (lexicographic) iteration over nonzero coefficients."""
        return sorted(self.coeffs.items())

    def get(self, n, beta=()):
        return self.coeffs.get((n, tuple(beta)), 0j)

    def constant_term(self):
        return self.coeffs.get((0, (0,) * self.d), 0j)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.d, self.Kt, self.Kz) == (other.d, other.Kt, other.Kz) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.d, self.Kt, self.Kz, tuple(self.items())))

    def __repr__(self):
        head = ", ".join("%s: %s" % (k, v) for k, v in self.items()[:4])
        more = "" if len(self.coeffs) <= 4 else ", ..."
        return "TruncatedSeries(d=%d, Kt=%d, Kz=%d, {%s%s})" % (self.d, self.Kt, self.Kz, head, more)

    # ---------------------------------------------------------------- ring ops

    def _common_window(self, other):
        if self.d != other.d:
            raise DimensionMismatchError("series in %d and %d z-variables" % (self.d, other.d))
        return min(self.Kt, other.Kt), min(self.Kz, other.Kz)

    def _lift(self, value):
        return TruncatedSeries.const(value, self.d, self.Kt, self.Kz)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self._lift(other)
        Kt, Kz = self._common_window(other)
        out = dict(self.coeffs)
        get = out.get
        for k, c in other.coeffs.items():
            out[k] = get(k, 0j) + c
        return _result(self.d, Kt, Kz, out, (self.Kt, self.Kz) != (other.Kt, other.Kz))

    __radd__ = __add__

    def __neg__(self):
        return _result(self.d, self.Kt, self.Kz, {k: -c for k, c in self.coeffs.items()}, False)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self._lift(other)
        Kt, Kz = self._common_window(other)
        out = dict(self.coeffs)
        get = out.get
        for k, c in other.coeffs.items():
            out[k] = get(k, 0j) - c
        return _result(self.d, Kt, Kz, out, (self.Kt, self.Kz) != (other.Kt, other.Kz))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = _scalar(other)
            return _result(self.d, self.Kt, self.Kz, {k: c * other for k, c in self.coeffs.items()},
                           False)
        Kt, Kz = self._common_window(other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        one = self.d == 1
        bitems = [(n, beta, sum(beta), c) for (n, beta), c in b.items()]
        for (n1, b1), c1 in a.items():
            rt, rz = Kt - n1, Kz - sum(b1)
            if rt <= 0 or rz <= 0:
                continue
            if one:
                z1 = b1[0]
                for n2, b2, w2, c2 in bitems:
                    if n2 < rt and w2 < rz:
                        key = (n1 + n2, (z1 + w2,))
                        out[key] = get(key, 0j) + c1 * c2
            else:
                for n2, b2, w2, c2 in bitems:
                    if n2 < rt and w2 < rz:
                        key = (n1 + n2, tuple(map(add, b1, b2)))
                        out[key] = get(key, 0j) + c1 * c2
        return _result(self.d, Kt, Kz, out, False)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return divide(self, other)
        return self * (1.0 / complex(other))

    def __rtruediv__(self, other):
        return divide(self._lift(other), self)

    def pow(self, k):
        if k < 0:
            return invert(self).pow(-k)
        acc = TruncatedSeries.const(1.0, self.d, self.Kt, self.Kz)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    # ---------------------------------------------------------------- calculus

    def dz(self, axis, order=1):
        """Formal partial derivative in z_axis; costs `order` units of z-window."""
        if not 1 <= axis <= self.d:
            raise DimensionMismatchError("z-axis %d out of range 1..%d" % (axis, self.d))
        if order < 0:
            raise ValueError("negative derivative order")
        if order == 0:
            return self
        Kz = self.Kz - order
        if Kz < 1:
            raise TruncationError("z-window exhausted by derivative of order %d" % order)
        if self.d == order == 1:
            # c * b is c * (1.0 * b) bit for bit
            out = {(n, (b - 1,)): c * b for (n, (b,)), c in self.coeffs.items() if b}
            return _result(1, self.Kt, Kz, out, False)
        i = axis - 1
        out = {}
        for (n, beta), c in self.coeffs.items():
            b = beta[i]
            if b < order:
                continue
            fac = 1.0
            for r in range(order):
                fac *= b - r
            nb = beta[:i] + (b - order,) + beta[i + 1:]
            out[(n, nb)] = c * fac
        return _result(self.d, self.Kt, Kz, out, False)

    def dz_multi(self, alpha):
        """Apply the mixed derivative given by the multi-index alpha."""
        out = self
        for axis, order in enumerate(alpha, start=1):
            if order:
                out = out.dz(axis, order)
        return out

    # ---------------------------------------------------------------- structure

    def ord_t(self):
        """Least t-exponent with a nonzero coefficient; math.inf for the
        zero truncation."""
        if not self.coeffs:
            return math.inf
        return min(n for (n, _) in self.coeffs)

    def t_degree(self):
        """Largest populated t-exponent, or -1 for the zero truncation."""
        if not self.coeffs:
            return -1
        return max(n for (n, _) in self.coeffs)

    def t_slice(self, n):
        """The z-series coefficient of t**n (Kt collapses to 1)."""
        out = {(0, beta): c for (m, beta), c in self.coeffs.items() if m == n}
        return _result(self.d, 1, self.Kz, out, False)

    def t_slices(self):
        """Sorted list of (n, z-series) over populated t-exponents."""
        ns = sorted({n for (n, _) in self.coeffs})
        return [(n, self.t_slice(n)) for n in ns]

    def shift_t_down(self, k):
        """Exact division by t**k; raises if a lower-order coefficient is present."""
        if k == 0:
            return self
        if any(n < k for (n, _) in self.coeffs):
            raise TruncationError("series not divisible by t^%d" % k)
        out = {(n - k, beta): c for (n, beta), c in self.coeffs.items()}
        return TruncatedSeries(self.d, self.Kt - k, self.Kz, out)

    def subs_t_squared(self):
        """Substitute t -> t**2; the t-window widens to cover the image."""
        out = {(2 * n, beta): c for (n, beta), c in self.coeffs.items()}
        return TruncatedSeries(self.d, 2 * self.Kt - 1, self.Kz, out)

    def with_window(self, Kt, Kz):
        """Reinterpret an exact polynomial inside a different window.

        Only safe for data known exactly (parsed polynomial coefficients);
        raises if stored terms fall outside the new window.
        """
        if any(n >= Kt or sum(beta) >= Kz for (n, beta) in self.coeffs):
            raise TruncationError("stored terms exceed the requested window")
        return TruncatedSeries(self.d, Kt, Kz, self.coeffs)

    # ---------------------------------------------------------------- numerics

    def evaluate(self, t0, z0=()):
        """Finite-sum evaluation of the truncation; callers own tail reasoning."""
        z0 = tuple(complex(z) for z in z0)
        if len(z0) != self.d:
            raise DimensionMismatchError("expected %d z-values, got %d" % (self.d, len(z0)))
        t0 = complex(t0)
        total = 0j
        for (n, beta), c in self.items():
            term = c * t0 ** n
            for z, b in zip(z0, beta):
                if b:
                    term *= z ** b
            total += term
        return total

    def eval_t(self, t0):
        """Collapse the t-variable at t0, leaving a z-series."""
        t0 = complex(t0)
        out = {}
        for (n, beta), c in self.coeffs.items():
            key = (0, beta)
            out[key] = out.get(key, 0j) + c * t0 ** n
        return _result(self.d, 1, self.Kz, out, False)

    def norm_max(self):
        """Largest coefficient magnitude."""
        return max(map(abs, self.coeffs.values()), default=0.0)

    def sup_norm(self, rz):
        """Coefficient-sum upper bound for the sup on |t|<=1, |z_i|<=rz."""
        total = 0.0
        for (n, beta), c in self.coeffs.items():
            total += abs(c) * rz ** sum(beta)
        return total

    def approx_equal(self, other, tol=1e-12):
        diff = self - other
        scale = max(self.norm_max(), other.norm_max(), 1.0)
        return diff.norm_max() <= tol * scale


def _result(d, Kt, Kz, coeffs, trim):
    """The series of an operation on series, whose keys it built from keys
    inside the operands' windows: checks finiteness, then drops exact zeros
    and, when trim (the operands' windows differ), keys outside (Kt, Kz)."""
    if not all(map(isfinite, coeffs.values())):
        raise NonFiniteError("non-finite coefficient")
    if trim:
        coeffs = {k: c for k, c in coeffs.items() if c and k[0] < Kt and sum(k[1]) < Kz}
    elif not all(coeffs.values()):
        coeffs = {k: c for k, c in coeffs.items() if c}
    out = TruncatedSeries.__new__(TruncatedSeries)
    out.d, out.Kt, out.Kz, out.coeffs = d, Kt, Kz, coeffs
    return out


def _scalar(value):
    """A scale factor as the complex it multiplies by; it must be finite."""
    value = complex(value)
    if not isfinite(value):
        raise NonFiniteError("non-finite coefficient")
    return value


class Columns:
    """One list of series, gathered by key for many sums of the series
    times scales: combination(scales) is TruncatedSeries.combination(
    zip(series, scales)), with the same values, window and key order.  It
    sums the continuation's seed values, the series being the Borel
    coefficients and the scales the powers of one point, from 1 up.

    Each key inside the common window keeps its column: the indices of the
    series that hold it, as a range where they run on without a gap, and
    the coefficients there.  Keys outside it are not kept, so their
    products, which combination forms and then trims, are never formed
    and cannot raise NonFiniteError."""

    __slots__ = ("d", "Kt", "Kz", "columns")

    def __init__(self, series):
        series = tuple(series)
        self.d = series[0].d
        self.Kt, self.Kz = Kt, Kz = min(s.Kt for s in series), min(s.Kz for s in series)
        gathered = {}
        for k, s in enumerate(series):
            inside = (s.Kt, s.Kz) == (Kt, Kz)
            for key, c in s.coeffs.items():
                if inside or (key[0] < Kt and sum(key[1]) < Kz):
                    column = gathered.get(key)
                    if column is None:
                        gathered[key] = column = ([], [])
                    column[0].append(k)
                    column[1].append(c)
        # in the order in which the keys first appear, combination's order
        self.columns = [(key, range(ks[0], ks[-1] + 1) if ks[-1] - ks[0] == len(ks) - 1
                         else tuple(ks), tuple(cs)) for key, (ks, cs) in gathered.items()]

    def combination(self, scales):
        """The sum of series[k] * scales[k], given a list of one finite
        scale per series that starts at 1 and in which a zero scale is
        followed only by zero scales, as the powers of one number are.

        Each column is walked in k order with combination's products and
        additions: the first series' products are not added to anything
        and a zero scale adds nothing.  A first scale of 1 leaves no first
        product an exact 0, which combination would drop and a column keep."""
        if not all(map(isfinite, scales)):
            raise NonFiniteError("non-finite coefficient")
        if scales[0] != 1:
            raise ValueError("the first scale is not 1")
        live = scales.index(0) if 0 in scales else len(scales)
        if any(scales[live:]):
            raise ValueError("a zero scale is followed by a nonzero one")
        out = {}
        for key, ks, cs in self.columns:
            if live < len(scales):
                ks = ks[:bisect_left(ks, live)]
            acc = 0j
            for k, c in zip(ks, cs):
                acc = c * scales[k] if k == 0 else acc + c * scales[k]
            if acc:
                out[key] = acc
        return _result(self.d, self.Kt, self.Kz, out, False)


def divide(num, den):
    """Solve r * den = num on the common window (den must be a unit).

    Only the keys the result can fill are visited: the numerator's, and
    those a nonzero result coefficient reaches through a nonconstant
    divisor term.  They are taken in graded order (n, |beta|, then beta
    lexicographically), the order of a scan of the whole window, so each
    coefficient sees the same terms in the same order as in that scan."""
    if num.d != den.d:
        raise DimensionMismatchError("series in %d and %d z-variables" % (num.d, den.d))
    den0 = den.constant_term()
    if den0 == 0:
        raise NotAUnitError("division by a series with vanishing constant term")
    Kt, Kz = min(num.Kt, den.Kt), min(num.Kz, den.Kz)
    d = num.d
    den_rest = [(n, beta, c) for (n, beta), c in den.items() if (n, beta) != (0, (0,) * d)]
    # the divisor terms that move a window key to another window key
    steps = [(dn, sum(dbeta), dbeta) for dn, dbeta, _ in den_rest if dn < Kt and sum(dbeta) < Kz]
    todo = [(n, sum(beta), beta) for n, beta in num.coeffs if n < Kt and sum(beta) < Kz]
    heapq.heapify(todo)
    queued = set(todo)
    out = {}
    while todo:
        n, w, beta = heapq.heappop(todo)
        acc = num.coeffs.get((n, beta), 0j)
        for dn, dbeta, dc in den_rest:
            rn = n - dn
            if rn < 0:
                continue
            rbeta = tuple(b - db for b, db in zip(beta, dbeta))
            if any(b < 0 for b in rbeta):
                continue
            prev = out.get((rn, rbeta))
            if prev is not None:
                acc -= dc * prev
        if acc != 0:
            out[(n, beta)] = acc / den0
            for dn, dw, dbeta in steps:
                key = (n + dn, w + dw, tuple(b + db for b, db in zip(beta, dbeta)))
                if key[0] < Kt and key[1] < Kz and key not in queued:
                    queued.add(key)
                    heapq.heappush(todo, key)
    return _result(d, Kt, Kz, out, False)


def residual_norms(pieces, rhs):
    """(absolute, relative) largest coefficient of sum(pieces) - rhs, the
    pieces added in order and rhs (may be None) subtracted last; relative to
    the largest piece or rhs, or absolute when all are zero."""
    acc, scale = None, 0.0
    for piece in pieces:
        scale = max(scale, piece.norm_max())
        acc = piece if acc is None else acc + piece
    if rhs is not None:
        scale = max(scale, rhs.norm_max())
        acc = -rhs if acc is None else acc - rhs
    res = 0.0 if acc is None else acc.norm_max()
    return res, res / scale if scale > 0 else res


def invert(a):
    """Multiplicative inverse up to the window; requires a(0,0) != 0."""
    return divide(TruncatedSeries.const(1.0, a.d, a.Kt, a.Kz), a)

