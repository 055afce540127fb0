"""The value theta returns, split as mantissa * q**qexp.

theta_q(x) grows like q^{k(k+1)/2} at |x| ~ q^k and leaves double
precision long before the grid sizes the resummation needs, so
``qlaplace.theta`` returns it as ``mantissa * q**qexp``.  theta builds
the mantissa as q**r e^{i angle} with r in [0, 1), so the record holds
it as given.  The kernel sums and the continuation grid carry their own
exponents in floats and do not use this class.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QScaled:
    """The complex value mantissa * q**qexp; a zero mantissa is zero."""
    q: float
    mantissa: complex
    qexp: float

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
