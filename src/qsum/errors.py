"""Exception types shared across the toolkit."""


class QsumError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(QsumError):
    """Operands carry a different number of z-variables."""


class NotAUnitError(QsumError):
    """Series inversion requested but the constant term vanishes."""


class TruncationError(QsumError):
    """The truncation window cannot support the requested operation."""


class ParseError(QsumError):
    """Syntax error in the equation DSL, with source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)


class SchemaError(QsumError):
    """Invalid JSON document, with a JSON-pointer path to the offender."""

    def __init__(self, message, pointer=""):
        self.pointer = pointer
        super().__init__("%s: %s" % (pointer or "/", message))


class UsageError(QsumError, ValueError):
    """An argument, option or configuration value the methods cannot use."""


class ConditionsFailed(QsumError):
    """A polygon-level condition (shape, interior, nondegeneracy) fails."""


class IndeterminatePolygonError(QsumError):
    """A coefficient's t-order is truncation-limited, so the polygon is unknown."""


class OrderFloorViolationError(QsumError):
    """Exact t-power division left a remainder; the order floor is violated."""


class ResonanceError(QsumError):
    """The diagonal factor of the coefficient recursion vanishes at some order."""

    def __init__(self, order):
        self.order = order
        super().__init__("no unique formal coefficient at order %d" % order)


class RootFindingError(QsumError):
    """Simultaneous root iteration failed to converge."""


class SingularDirectionError(QsumError):
    """The requested direction lies on (or too near) a singular ray."""


class EffectivelySingularError(SingularDirectionError):
    """The leading symbol is numerically too small at a continuation grid point."""

    def __init__(self, m):
        self.m = m
        super().__init__("leading symbol effectively singular at grid index %d" % m)


class RadiusTooSmallError(QsumError):
    """No seed window satisfies the direct-summation tail tolerance."""


class GridTooShortError(QsumError):
    """The spiral grid does not cover the index range the kernel sum needs."""

    def __init__(self, message, needed=None):
        self.needed = needed
        super().__init__(message)


class PoleProximityError(QsumError):
    """Evaluation point lies in or too near the excluded spiral disks."""


class FitError(QsumError, ValueError):
    """Too few usable samples to fit an envelope."""


class NonFiniteError(QsumError, ValueError):
    """A coefficient or scaled value overflowed or is not a number."""


class UnsupportedEquationError(QsumError):
    """Equation structure outside what the coefficient recursion can isolate."""
