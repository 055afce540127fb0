"""The value theta returns, split as mantissa * q**qexp.

theta_q(x) grows like q^{k(k+1)/2} at |x| ~ q^k and leaves double
precision long before the grid sizes the resummation needs, so
``qlaplace.theta`` returns it as ``mantissa * q**qexp``.  theta builds
the mantissa as q**r e^{i angle} with r in [0, 1), so the record holds
it as given.  The kernel sums and the continuation grid carry their own
exponents in floats and do not use this class.
"""

import math


class QScaled:
    """The complex value mantissa * q**qexp; a zero mantissa is zero.  A
    read-only plain class, not a named tuple: perfbench counts its
    constructions by wrapping __init__."""

    def __init__(self, q, mantissa, qexp):
        self.__dict__.update(q=q, mantissa=mantissa, qexp=qexp)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to QScaled.%s" % name)

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
