"""Exception types shared across the package."""


class DiskrigError(Exception):
    pass


# geometry kernel
class AngleUndefined(DiskrigError):
    pass


class NotTransverse(DiskrigError):
    pass


class DegenerateTriple(DiskrigError):
    pass


class DegenerateDisk(DiskrigError, ValueError):
    """A radius not above EPS_GEOM, or a centre that is not finite."""


# moebius
class MapsToInfinity(DiskrigError):
    pass


class UnboundedImage(DiskrigError):
    pass


class DegenerateInput(DiskrigError):
    pass


class NoAnchorFound(DiskrigError):
    pass


class ConditionFailed(DiskrigError):
    """Normalization post-conditions do not hold for the given epsilon."""

    def __init__(self, epsilon, failures):
        self.epsilon = epsilon
        self.failures = failures
        super().__init__(f"conditions failed at eps={epsilon}: {failures}")


class InsufficientAnchors(DiskrigError):
    pass


# config
class ContainmentViolation(DiskrigError):
    pass


class HypothesesViolated(DiskrigError):
    pass


# boundary / index
class PointOnCurve(DiskrigError):
    pass


class DegenerateContact(DiskrigError):
    pass


class CombinatoricsMismatch(DiskrigError):
    pass


class CoincidentCorner(DiskrigError):
    pass


class NearFixedPoint(DiskrigError):
    """Map not certifiably fixed-point-free at the current sampling density."""


class NoNonnegativeRoute(DiskrigError):
    pass


# torus
class AlternationViolated(DiskrigError):
    pass


class BasePointOnBoundary(DiskrigError):
    pass


class PathThroughTorusPoint(DiskrigError):
    pass


class NoZeroIndexMap(DiskrigError):
    pass


# subsumption
class ObservationViolated(DiskrigError):
    pass


# lemma suite
class HypothesisUnmet(DiskrigError):
    pass


# solver
class InvalidTriangulation(DiskrigError, ValueError):
    """A degenerate face, an edge in more than two faces, or an interior
    vertex whose link is not a cycle."""


class UnsupportedAngle(DiskrigError):
    pass


class TriangleViolation(DiskrigError):
    def __init__(self, face):
        self.face = face
        super().__init__(f"triangle inequality fails on face {face}")


class Nonconvergence(DiskrigError):
    pass


class InconsistentPlacement(DiskrigError):
    pass


class ExtraneousContact(DiskrigError):
    pass


# cli / io
class ParseError(DiskrigError):
    pass


class SchemaError(DiskrigError):
    pass


class IncidenceMismatch(DiskrigError):
    pass


class IOFailure(DiskrigError):
    pass
