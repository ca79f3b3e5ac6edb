"""Exception types shared across the package."""


class SinhPierceError(Exception):
    """Base class for all package errors."""


# --- geometry ---
class DuplicateCenters(SinhPierceError):
    pass


class OverlappingHoles(SinhPierceError):
    pass


class HoleTouchesBoundary(SinhPierceError):
    pass


class IndexOutOfRange(SinhPierceError):
    pass


class UnresolvableHole(SinhPierceError):
    pass


class StitchFailure(SinhPierceError):
    pass


# --- greens ---
class CoincidentPoints(SinhPierceError):
    pass


class PointOutsideDomain(SinhPierceError):
    pass


# --- coeffs ---
class NonpositivePotentialAtCenter(SinhPierceError):
    pass


class SingularSystem(SinhPierceError):
    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


# --- bubbles ---
class UndefinedAngleAtOrigin(SinhPierceError):
    pass


class RegimeViolation(SinhPierceError):
    pass


class MeshMismatch(SinhPierceError):
    pass


# --- operators ---
class SolverFailure(SinhPierceError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidExponent(SinhPierceError):
    pass


class OverflowGuard(SinhPierceError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NearSingular(SinhPierceError):
    def __init__(self, message, eigenvalue=None, report=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.report = report


# --- corrector ---
class Diverged(SinhPierceError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# --- verify ---
class InsufficientSamples(SinhPierceError):
    pass


class QuadratureNonConvergence(SinhPierceError):
    pass


# --- cli / config ---
class ParseError(SinhPierceError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class NonpositiveSampled(SinhPierceError):
    pass


class SchemaError(SinhPierceError):
    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ConstraintViolation(SinhPierceError, ValueError):
    """A standing assumption of the construction (exponents, sign split, tau)
    does not hold."""
