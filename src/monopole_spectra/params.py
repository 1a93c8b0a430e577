"""Model parameters and quantum-number labels.

All containers are frozen dataclasses validated on construction; functions
elsewhere in the package assume the invariants enforced here.  Every label,
coupling and scale in the package goes through `require_positive` or
`require_non_negative`, which reject NaN and +-inf too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OrderingViolation

HALF_INT_TOL = 1e-9


def require_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite and > 0."""
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {v!r}")


def require_non_negative(**values: float) -> None:
    """Raise ValueError naming the first value that is not finite and >= 0."""
    for name, v in values.items():
        if not 0.0 <= v < math.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {v!r}")


def is_half_integer(x: float) -> bool:
    return abs(2.0 * x - round(2.0 * x)) <= HALF_INT_TOL


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the deformed 5D Kepler-monopole Hamiltonian.

    c0 is the Coulomb strength (strictly positive), c1/c2 the non-central
    couplings (non-negative), hbar the Planck constant.
    """

    c0: float
    c1: float = 0.0
    c2: float = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        require_positive(c0=self.c0, hbar=self.hbar)
        require_non_negative(c1=self.c1, c2=self.c2)


@dataclass(frozen=True)
class QuantumNumbers:
    """Sector labels: l4 for so(4), T for su(2).

    The Casimir eigenvalues are hbar^2*l4*(l4+2) and hbar^2*T*(T+1);
    T must be a non-negative half-integer.
    """

    l4: float = 0.0
    T: float = 0.0

    def __post_init__(self) -> None:
        require_non_negative(l4=self.l4, T=self.T)
        if not is_half_integer(self.T):
            raise ValueError(f"T must be a half-integer, got {self.T}")

    def lsq(self, hbar: float = 1.0) -> float:
        return hbar * hbar * self.l4 * (self.l4 + 2.0)

    def tsq(self, hbar: float = 1.0) -> float:
        return hbar * hbar * self.T * (self.T + 1.0)


@dataclass(frozen=True)
class AuxExponents:
    """Non-negative auxiliary exponents entering the factored structure
    function and the spectrum formula."""

    m1: float
    m2: float

    def __post_init__(self) -> None:
        require_non_negative(m1=self.m1, m2=self.m2)


@dataclass(frozen=True)
class So6Labels:
    """so(6) unirrep labels, half-integers with mu1 >= mu2 >= mu3 >= 0."""

    mu1: float
    mu2: float
    mu3: float

    def __post_init__(self) -> None:
        require_non_negative(mu1=self.mu1, mu2=self.mu2, mu3=self.mu3)
        for name in ("mu1", "mu2", "mu3"):
            v = getattr(self, name)
            if not is_half_integer(v):
                raise ValueError(f"{name} must be a half-integer, got {v}")
        if not (self.mu1 >= self.mu2 >= self.mu3):
            raise OrderingViolation(
                f"labels must satisfy mu1 >= mu2 >= mu3, got "
                f"({self.mu1}, {self.mu2}, {self.mu3})"
            )
