"""Exception types shared across the package.

Structural problems found by ``validate`` are reported as violation records,
not exceptions; the classes here cover conditions where an operation cannot
produce a meaningful answer at all.
"""


class CurveLabError(Exception):
    """Base class for all domain errors raised by curvelab."""


class ComplexityTooLow(CurveLabError):
    """The requested surface admits no pants decomposition (3g - 3 + b < 1)."""


class NonIntegralGenus(CurveLabError):
    """Euler characteristic and boundary count are inconsistent with any genus."""


class UnknownCurve(CurveLabError):
    """A curve id or curve reference does not resolve in the given graph."""


class DisconnectedGraph(CurveLabError):
    """An operation that needs a connected graph received a disconnected one."""


class DepthMismatch(CurveLabError):
    """Two end trees of different depths cannot be compared."""


class DepthExceedsTruncation(CurveLabError):
    """A ball of the requested radius swallows a frontier mark, so the
    truncation carries too little data to answer at this depth."""


class BijectionFailure(CurveLabError):
    """The induced end correspondence failed to be a level bijection at
    stride 2.

    Valid truncations can raise it: each tree's ball sits around that
    tree's own default base, and where the two bases lie apart one ball
    can split a component that the other keeps whole.  It says that the
    two trees do not match level by level, not that the input is bad.
    """


class ZeroSlope(CurveLabError):
    """(0, 0) is not a slope."""


class NotTorusWindow(CurveLabError):
    """A triple operation was asked about a window that is not a torus window."""


class IntersectionTooSmall(CurveLabError):
    """Triple completion needs i(a, b) >= 2."""


class WrongIntersection(CurveLabError):
    """The common-neighbor count applies only to pairs with intersection 2."""


class NoRoom(CurveLabError):
    """The truncation is too small to contain the requested witness."""


class NotSeparating(CurveLabError):
    """cut_and_glue needs a separating curve."""


class GadgetTooSmall(CurveLabError):
    """The splice gadget cannot change the end structure."""


class UndefinedPair(CurveLabError):
    """A coordinate computation hit a curve pair outside the defined
    intersection table."""


class FormatError(CurveLabError):
    """A JSON document does not match the expected schema."""
