"""The value theta returns, split as mantissa * q**qexp.

theta_q(x) grows like q^{k(k+1)/2} at |x| ~ q^k and leaves double
precision long before the grid sizes the resummation needs, so
``qlaplace.theta`` returns it as ``mantissa * q**qexp`` with the mantissa
magnitude normalized into [1, q).  The kernel sums and the continuation
grid carry their own exponents in floats and do not use this class.
"""

import cmath
import math

from .errors import NonFiniteError


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

    def is_zero(self):
        return self.mantissa == 0

    def log_abs(self):
        """Natural log of |value|; -inf for zero."""
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.qexp * math.log(self.q)

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

    def __repr__(self):
        return "QScaled(%r, %r, qexp=%r)" % (self.q, self.mantissa, self.qexp)
