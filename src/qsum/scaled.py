"""Magnitude/exponent split arithmetic on a base-q ledger.

Factors like q**(m*m/2) overflow double precision long before the grid
sizes the resummation needs, so spiral values, theta values and kernel
terms are carried as ``mantissa * q**qexp`` with the mantissa magnitude
normalized into [1, q).
"""

import cmath
import math

from .errors import NonFiniteError

# exponent gaps beyond this (in units of log2) cannot influence a double
_ALIGN_BITS = 1100.0


class QScaled:
    """A complex value c * q**e with |c| in [1, q), or exactly zero."""

    __slots__ = ("q", "mantissa", "qexp")

    def __init__(self, q, mantissa, qexp=0.0):
        if not q > 1.0:
            raise ValueError("base q must exceed 1")
        self.q = float(q)
        c = complex(mantissa)
        e = float(qexp)
        if c == 0:
            self.mantissa = 0j
            self.qexp = 0.0
            return
        if not (math.isfinite(c.real) and math.isfinite(c.imag) and math.isfinite(e)):
            raise NonFiniteError("non-finite scaled value")
        lq = math.log(abs(c)) / math.log(self.q)
        shift = math.floor(lq)
        if abs(shift) > 64:
            # renormalize through logs; direct powers would over/underflow
            mag = self.q ** (lq - shift)
            c = cmath.rect(mag, cmath.phase(c))
        elif shift:
            c /= self.q ** shift
        e += shift
        # guard against boundary rounding of the floor above
        if abs(c) < 1.0:
            c *= self.q
            e -= 1.0
        elif abs(c) >= self.q:
            c /= self.q
            e += 1.0
        self.mantissa = c
        self.qexp = e

    @classmethod
    def zero(cls, q):
        return cls(q, 0j, 0.0)

    @classmethod
    def from_polar(cls, q, logq_mag, phase):
        """Value with |.| = q**logq_mag and the given argument."""
        shift = math.floor(logq_mag)
        mag = q ** (logq_mag - shift)
        return cls(q, cmath.rect(mag, phase), float(shift))

    def is_zero(self):
        return self.mantissa == 0

    def logq_abs(self):
        """log base q of |value|; -inf for zero."""
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) / math.log(self.q) + self.qexp

    def log_abs(self):
        """Natural log of |value|; -inf for zero."""
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.qexp * math.log(self.q)

    def phase(self):
        return cmath.phase(self.mantissa)

    def to_complex(self):
        """Collapse to an ordinary complex; raises on exponent overflow."""
        if self.mantissa == 0:
            return 0j
        scale = self.qexp * math.log2(self.q)
        if scale > 1000.0:
            raise OverflowError("scaled value too large for double precision")
        if scale < -1080.0:
            return 0j
        return self.mantissa * self.q ** self.qexp

    def __complex__(self):
        return self.to_complex()

    def _coerce(self, other):
        if isinstance(other, QScaled):
            if other.q != self.q:
                raise ValueError("mismatched scaling bases")
            return other
        return QScaled(self.q, other)

    def __mul__(self, other):
        other = self._coerce(other)
        return QScaled(self.q, self.mantissa * other.mantissa, self.qexp + other.qexp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.mantissa == 0:
            raise ZeroDivisionError("division by zero scaled value")
        return QScaled(self.q, self.mantissa / other.mantissa, self.qexp - other.qexp)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __add__(self, other):
        other = self._coerce(other)
        if self.mantissa == 0:
            return other
        if other.mantissa == 0:
            return self
        hi, lo = (self, other) if self.qexp >= other.qexp else (other, self)
        gap = (hi.qexp - lo.qexp) * math.log2(self.q)
        if gap > _ALIGN_BITS:
            return hi
        return QScaled(self.q, hi.mantissa + lo.mantissa * self.q ** (lo.qexp - hi.qexp), hi.qexp)

    __radd__ = __add__

    def __neg__(self):
        out = QScaled.__new__(QScaled)
        out.q = self.q
        out.mantissa = -self.mantissa
        out.qexp = self.qexp
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __abs__(self):
        if self.mantissa == 0:
            return 0.0
        scale = self.qexp * math.log2(self.q)
        if scale > 1020.0:
            return math.inf
        return abs(self.mantissa) * self.q ** self.qexp

    def __repr__(self):
        return "QScaled(%r, %r, qexp=%r)" % (self.q, self.mantissa, self.qexp)
