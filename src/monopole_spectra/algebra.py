"""Closed-form layer: structure function, unirrep constraints, spectra.

The structure function is carried in two forms: the raw degree-6 polynomial
(whose sign is the physical positivity convention) and the monic product of
six linear factors.  They differ by the overall scale RAW_TO_FACTORED_SCALE*E,
see `structure_function_factored`.

The printed closed forms set hbar = 1 inside the structure function; the
master spectrum `energy_level` is hbar-explicit.  Substituting the rescaled
energy hbar^2*E for the energy scalar reproduces the hbar = 1 forms exactly,
which is what `solve_unirrep` does internally.

numpy is imported only inside the functions that build arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NegativeRadicand, NonNegativeEnergy, PositivityViolation
from .params import (
    AuxExponents, ModelParams, QuantumNumbers, require_non_negative, require_positive,
)
from .specfun import coulomb_energy

if TYPE_CHECKING:
    import numpy as np

# ratio of the leading coefficients of the two structure-function forms:
# 98304 from the raw prefactor times 4*16 from the two bracket factors
RAW_TO_FACTORED_SCALE = 98304.0 * 64.0

# margin factor for strict-positivity checks of the interior values, relative
# to the rounding size of each value's own evaluation
POSITIVITY_MARGIN = 1e-12


def aux_exponents(params: ModelParams, qn: QuantumNumbers) -> AuxExponents:
    """Auxiliary exponents m1, m2 of the sector (params, qn).

    Raises NegativeRadicand when the second radicand turns negative
    (large T at small l4 and c2: no unitary sector of this kind), and
    OverflowError when a radicand leaves the floating-point range.
    """
    lsq = qn.lsq(params.hbar)
    tsq = qn.tsq(params.hbar)
    r1 = 1.0 + 2.0 * params.c1 + lsq + 2.0 * tsq
    r2 = 1.0 + 2.0 * params.c2 + lsq - 2.0 * tsq
    if not (math.isfinite(r1) and math.isfinite(r2)):
        raise OverflowError(f"radicands (m1^2, m2^2) = ({r1}, {r2}) are not finite")
    if r1 < 0 or r2 < 0:
        raise NegativeRadicand(
            f"radicands (m1^2, m2^2) = ({r1}, {r2}) must both be non-negative"
        )
    return AuxExponents(math.sqrt(r1), math.sqrt(r2))


def _structure_factors(x, u: float, E: float, params: ModelParams, qn: QuantumNumbers):
    """The two factors of the raw structure polynomial, each with the sum of
    the magnitudes of its terms, which sets the size of its rounding error."""
    lsq = qn.lsq(params.hbar)
    tsq = qn.tsq(params.hbar)
    c0sq, c1, c2 = params.c0 ** 2, params.c1, params.c2
    s = x + u
    br = (1.0 - 2.0 * s) ** 2
    quad = 4.0 * s * (s - 1.0)
    first = 2.0 * c0sq + E * br
    second = (
        4.0 * c1 ** 2
        + 4.0 * c2 ** 2
        + br * (quad - 4.0 * lsq - 3.0)
        - 4.0 * c1 * (2.0 * c2 + br - 4.0 * tsq)
        + 16.0 * tsq ** 2
        - 4.0 * c2 * (br + 4.0 * tsq)
    )
    # the terms of `second` that do not hold br, and those that do
    ac1, ac2, atsq = abs(c1), abs(c2), abs(tsq)
    flat = 4.0 * (c1 ** 2 + c2 ** 2 + 2.0 * ac1 * ac2 + 4.0 * (ac1 + ac2) * atsq) + 16.0 * tsq ** 2
    first_size = 2.0 * c0sq + abs(E) * br
    second_size = flat + br * (abs(quad) + (4.0 * (abs(lsq) + ac1 + ac2) + 3.0))
    return first, second, first_size, second_size


def structure_function_raw(x, u: float, E: float, params: ModelParams, qn: QuantumNumbers):
    """Raw degree-6 structure polynomial at x (a float or an array), with
    shift u and energy scalar E.

    The central elements are substituted by their eigenvalues
    hbar^2*l4*(l4+2) and hbar^2*T*(T+1).
    """
    first, second, _, _ = _structure_factors(x, u, E, params, qn)
    return 98304.0 * first * second


def factored_roots(E: float, m: AuxExponents, params: ModelParams) -> np.ndarray:
    """The six roots of the factored structure function, in the x+u variable."""
    import numpy as np

    if E >= 0:
        raise NonNegativeEnergy(f"factored form requires E < 0, got {E}")
    r = params.c0 / math.sqrt(-2.0 * E)
    m1, m2 = m.m1, m.m2
    return np.array(
        [
            0.5 - r,
            0.5 + r,
            0.5 * (1.0 + m1 + m2),
            0.5 * (1.0 + m1 - m2),
            0.5 * (1.0 - m1 + m2),
            0.5 * (1.0 - m1 - m2),
        ]
    )


def structure_function_factored(
    x: float, u: float, E: float, m: AuxExponents, params: ModelParams
) -> float:
    """Monic product of the six linear factors; requires E < 0.

    Negative on the interior of a valid representation: the raw form equals
    RAW_TO_FACTORED_SCALE * E times this one.
    """
    import numpy as np

    s = x + u
    return float(np.prod(s - factored_roots(E, m, params)))


def energy_level(p: int, m: AuxExponents, params: ModelParams) -> float:
    """Bound-state energy of the (p+1)-dimensional representation."""
    require_non_negative(p=p)
    return coulomb_energy(p + 1.0 + 0.5 * (m.m1 + m.m2), params)


@dataclass(frozen=True)
class UnirrepSolution:
    """Shift u, energy E and interior structure-function values of a
    (p+1)-dimensional unitary representation."""

    p: int
    u: float
    E: float
    phi_interior: tuple[float, ...]


def solve_unirrep(p: int, params: ModelParams, qn: QuantumNumbers) -> UnirrepSolution:
    """Solve the two boundary constraints for (u, E) and check positivity.

    The root (1+m1+m2)/2 of the structure function sits at x = 0 and the
    upper Coulomb root at x = p+1, which reproduces `energy_level`; with
    u >= 1/2 every other root lies outside (0, p+1).
    """
    import numpy as np

    require_non_negative(p=p)
    m = aux_exponents(params, qn)
    u = 0.5 * (1.0 + m.m1 + m.m2)
    E = energy_level(p, m, params)

    # the printed structure function lives in hbar = 1 units
    e_alg = E * params.hbar ** 2

    # the ladder points x = 1..p, and a sign probe at the half-integers
    # 1/2..p+1/2 that catches a zero between them
    first, second, first_size, second_size = _structure_factors(
        0.5 * np.arange(1.0, 2.0 * p + 2.0), u, e_alg, params, qn)
    # each value is judged against the rounding size of its own evaluation,
    # so the test does not depend on p or on how large the other values are
    if (first * second <= POSITIVITY_MARGIN * first_size * second_size).any():
        raise PositivityViolation(
            f"structure function not strictly positive on (0, {p + 1}) for u={u}, E={E}")
    phi = 98304.0 * first[1::2] * second[1::2]
    return UnirrepSolution(p=p, u=u, E=E, phi_interior=tuple(phi))


def ycm_energy(n: int, params: ModelParams) -> float:
    """Energy of the undeformed monopole system at level n: `coulomb_energy` at N = n/2 + 2."""
    require_non_negative(n=n)
    return coulomb_energy(0.5 * n + 2.0, params)


def degeneracy_count(p: int, J: float, L: float) -> int:
    """Number of (n, lambda) fillings of level p with lambda >= J+L."""
    require_positive(p=p)
    require_non_negative(J=J, L=L)
    return max(0, p - math.ceil(J + L - 1e-12))

