"""Exception types raised by the library."""


class MonopoleSpectraError(Exception):
    """Base class for all library-specific errors."""


class NegativeRadicand(MonopoleSpectraError, ValueError):
    """An auxiliary-exponent radicand is negative (unphysical sector)."""


class NonNegativeEnergy(MonopoleSpectraError, ValueError):
    """A bound-state operation received E >= 0."""


class PositivityViolation(MonopoleSpectraError):
    """The structure function is not strictly positive on the interior,
    so no unitary representation exists for these parameters."""


class OrderingViolation(MonopoleSpectraError, ValueError):
    """so(6) labels do not satisfy mu1 >= mu2 >= mu3 >= 0."""


class DiagonalPole(MonopoleSpectraError, ValueError):
    """(n + u)^2 = 1/4 for some level, poles the generator diagonal."""


class ParameterPole(MonopoleSpectraError, ValueError):
    """Kummer parameter b hits a pole inside the truncated series."""


class DomainError(MonopoleSpectraError, ValueError):
    """Argument outside the supported parameter domain."""


class ConvergenceFailure(MonopoleSpectraError):
    """Mesh refinement (Richardson) disagreement beyond tolerance."""
