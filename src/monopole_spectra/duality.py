"""Parameter maps between the 5D Kepler-monopole system and the 8D singular
oscillator, and spectrum-identity checks across the four separable pictures.

The level identifications used by `spectrum_identity_check`:

    hyperspherical   p = n + lam + 1
    parabolic        p = n1 + n2 + (J+L)/2 + 1
    euler            p = n + lam + 1            (through the duality map)
    cylindrical      p = n1 + n2 + (T+K)/2 + 1  (through the duality map)

with the picture exponents substituted for the algebraic auxiliary exponents.
The 8D pictures reach the 5D energy through `kepler_from_oscillator` itself,
so the check tests that map as well as the level formulas.  The check is a
formula identity: it does not say which algebraic sector (l4, T) a picture
sector (J, L) belongs to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import energy_level
from .errors import NonNegativeEnergy
from .params import AuxExponents, ModelParams
from .specfun import coulomb_energy, delta_exponents, effective_exponent, oscillator_level


def kepler_from_oscillator(
    epsilon: float, omega: float, lam1: float, lam2: float
) -> tuple[float, float, float, float]:
    """(c0, E, c1, c2) of the 5D system dual to an 8D oscillator level."""
    if not all(map(math.isfinite, (epsilon, omega, lam1, lam2))):
        raise ValueError(f"(epsilon, omega, lam1, lam2) = {epsilon, omega, lam1, lam2} not finite")
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return epsilon / 4.0, -(omega ** 2) / 8.0, lam1 / 2.0, lam2 / 2.0


def oscillator_from_kepler(
    c0: float, E: float, c1: float, c2: float
) -> tuple[float, float, float, float]:
    """(epsilon, omega, lam1, lam2) of the dual 8D oscillator."""
    if not all(map(math.isfinite, (c0, E, c1, c2))):
        raise ValueError(f"(c0, E, c1, c2) = {c0, E, c1, c2} not finite")
    if E >= 0:
        raise NonNegativeEnergy(f"bound-state energy must be negative, got {E}")
    return 4.0 * c0, math.sqrt(-8.0 * E), 2.0 * c1, 2.0 * c2


@dataclass(frozen=True)
class IdentityReport:
    picture: str
    labels: dict
    p: float
    e_picture: float
    e_algebraic: float
    rel_diff: float


# picture -> (sector labels, system, whether its levels count factor degrees n1, n2)
_PICTURES = {
    "hyperspherical": (("J", "L"), "kepler", False),
    "parabolic": (("J", "L"), "kepler", True),
    "euler": (("T", "K"), "oscillator", False),
    "cylindrical": (("T", "K"), "oscillator", True),
}


def spectrum_identity_check(picture: str, labels: dict, params: ModelParams) -> IdentityReport:
    """Compare a picture's closed-form energy against the algebraic master
    formula under the stated level identification.

    labels: hyperspherical/euler need n, lam = m + (J+L)/2 (or m + (T+K)/2,
    m the angular degree) plus (J, L) or (T, K); parabolic/cylindrical need
    n1, n2 plus the pair labels.  An 8D picture (euler, cylindrical) takes its
    level at omega = 1 and the couplings lam_i = 2 c_i, maps it to its 5D
    dual through `kepler_from_oscillator`, and scales that dual to params.c0
    by E ~ c0^2.
    """
    if picture not in _PICTURES:
        raise ValueError(f"unknown picture {picture!r}")
    (a, b), variant, pair = _PICTURES[picture]
    z1, z2 = labels[a], labels[b]
    scale = 1.0 if variant == "kepler" else 2.0  # an 8D dual has lam_i = 2 c_i
    couplings = (scale * params.c1, scale * params.c2)
    d = delta_exponents(variant, couplings, z1, z2, params.hbar)
    if pair:
        n1, n2 = labels["n1"], labels["n2"]
        N = effective_exponent(n1 + n2, z1, z2, d) + 2.0
        p = n1 + n2 + 0.5 * (z1 + z2) + 1.0
    else:
        n, lam = labels["n"], labels["lam"]
        N = n + lam + 2.0 + 0.5 * (d.delta1 + d.delta2)
        p = n + lam + 1.0
    if variant == "kepler":
        e_pic = coulomb_energy(N, params)
    else:
        c0, e_dual, _, _ = kepler_from_oscillator(
            oscillator_level(N, 1.0, params.hbar), 1.0, *couplings)
        e_pic = e_dual * (params.c0 / c0) ** 2
    e_alg = energy_level(p, AuxExponents(d.delta1, d.delta2), params)
    rel = abs(e_pic - e_alg) / max(abs(e_alg), 1e-300)
    return IdentityReport(
        picture=picture, labels=dict(labels), p=p,
        e_picture=e_pic, e_algebraic=e_alg, rel_diff=rel,
    )
