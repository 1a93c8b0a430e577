"""Parameter maps between the 5D Kepler-monopole system and the 8D singular
oscillator, and spectrum-identity checks across the four separable pictures.

The level identifications used by `spectrum_identity_check`:

    hyperspherical   p = n + lam + 1
    parabolic        p = n1 + n2 + (J+L)/2 + 1
    euler            p = n + lam + 1            (through the duality map)
    cylindrical      p = n1 + n2 + (T+K)/2 + 1  (through the duality map)

with the picture exponents substituted for the algebraic auxiliary exponents.
The substitution is exact as a formula identity; whether a picture sector
(J, L) shares its exponents with an algebraic sector (l4, T) is a separate
question answered by `enumerate_delta_m_matches`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import aux_exponents
from .errors import NegativeRadicand, NonNegativeEnergy
from .params import ModelParams, QuantumNumbers
from .specfun import delta_exponents


def kepler_from_oscillator(
    epsilon: float, omega: float, lam1: float, lam2: float
) -> tuple[float, float, float, float]:
    """(c0, E, c1, c2) of the 5D system dual to an 8D oscillator level."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return epsilon / 4.0, -(omega ** 2) / 8.0, lam1 / 2.0, lam2 / 2.0


def oscillator_from_kepler(
    c0: float, E: float, c1: float, c2: float
) -> tuple[float, float, float, float]:
    """(epsilon, omega, lam1, lam2) of the dual 8D oscillator."""
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


def _alg_energy(p: float, d1: float, d2: float, params: ModelParams) -> float:
    denom = p + 1.0 + 0.5 * (d1 + d2)
    return -params.c0 ** 2 / (2.0 * params.hbar ** 2 * denom ** 2)


def spectrum_identity_check(
    picture: str, labels: dict, params: ModelParams, omega: float = 1.0
) -> IdentityReport:
    """Compare a picture's closed-form energy against the algebraic master
    formula under the stated level identification.

    labels: hyperspherical/euler need n, lam plus (J, L) or (T, K);
    parabolic/cylindrical need n1, n2 plus the pair labels.  The euler and
    cylindrical pictures run at the supplied oscillator frequency and map
    back through the duality relations.
    """
    hb = params.hbar
    if picture == "hyperspherical":
        n, lam, J, L = labels["n"], labels["lam"], labels["J"], labels["L"]
        d = delta_exponents("kepler", (params.c1, params.c2), J, L, hb)
        dbar = 0.5 * (d.delta1 + d.delta2)
        e_pic = -params.c0 ** 2 / (2.0 * hb ** 2 * (n + lam + 2.0 + dbar) ** 2)
        p = n + lam + 1.0
        e_alg = _alg_energy(p, d.delta1, d.delta2, params)
    elif picture == "parabolic":
        n1, n2, J, L = labels["n1"], labels["n2"], labels["J"], labels["L"]
        d = delta_exponents("kepler", (params.c1, params.c2), J, L, hb)
        tot = n1 + n2 + 0.5 * (d.delta1 + d.delta2 + J + L) + 2.0
        e_pic = -params.c0 ** 2 / (2.0 * hb ** 2 * tot ** 2)
        p = n1 + n2 + 0.5 * (J + L) + 1.0
        e_alg = _alg_energy(p, d.delta1, d.delta2, params)
    elif picture == "euler":
        n, lam, T, K = labels["n"], labels["lam"], labels["T"], labels["K"]
        lam1, lam2 = 2.0 * params.c1, 2.0 * params.c2
        d = delta_exponents("oscillator", (lam1, lam2), T, K, hb)
        dbar = 0.5 * (d.delta1 + d.delta2)
        eps = 2.0 * hb * omega * (n + lam + dbar + 2.0)
        # dual Kepler system: its Coulomb strength must match params.c0,
        # which fixes omega; the caller's omega only seeds the chain
        omega_star = omega * (4.0 * params.c0) / eps
        e_pic = -(omega_star ** 2) / 8.0
        p = n + lam + 1.0
        e_alg = _alg_energy(p, d.delta1, d.delta2, params)
    elif picture == "cylindrical":
        n1, n2, T, K = labels["n1"], labels["n2"], labels["T"], labels["K"]
        lam1, lam2 = 2.0 * params.c1, 2.0 * params.c2
        d = delta_exponents("oscillator", (lam1, lam2), T, K, hb)
        tot = n1 + n2 + 0.5 * (d.delta1 + d.delta2 + T + K) + 2.0
        eps = 2.0 * hb * omega * tot
        omega_star = omega * (4.0 * params.c0) / eps
        e_pic = -(omega_star ** 2) / 8.0
        p = n1 + n2 + 0.5 * (T + K) + 1.0
        e_alg = _alg_energy(p, d.delta1, d.delta2, params)
    else:
        raise ValueError(f"unknown picture {picture!r}")
    rel = abs(e_pic - e_alg) / max(abs(e_alg), 1e-300)
    return IdentityReport(
        picture=picture, labels=dict(labels), p=p,
        e_picture=e_pic, e_algebraic=e_alg, rel_diff=rel,
    )


@dataclass(frozen=True)
class DeltaMatch:
    J: float
    L: float
    l4: float
    T: float
    delta1: float
    delta2: float
    m1: float
    m2: float
    matches: bool


def delta_m_match(
    params: ModelParams, J: float, L: float, l4: float, T: float, tol: float = 1e-10
) -> DeltaMatch:
    """Does the picture sector (J, L) share its exponents with the algebraic
    sector (l4, T) at these couplings?"""
    d = delta_exponents("kepler", (params.c1, params.c2), J, L, params.hbar)
    try:
        m = aux_exponents(params, QuantumNumbers(l4=l4, T=T))
        m1, m2 = m.m1, m.m2
        ok = abs(d.delta1 - m1) <= tol and abs(d.delta2 - m2) <= tol
    except NegativeRadicand:
        m1 = m2 = float("nan")
        ok = False
    return DeltaMatch(J, L, l4, T, d.delta1, d.delta2, m1, m2, ok)


def enumerate_delta_m_matches(
    params: ModelParams,
    z_max: float = 3.0,
    l4_max: float = 4.0,
    tol: float = 1e-10,
) -> tuple[list[DeltaMatch], list[DeltaMatch]]:
    """Scan half-integer (J, L) x (l4, T) tuples; return (matched, excluded).

    Matches are sparse: the two exponent families coincide only where the
    squared expressions happen to agree, which is exactly what the check is
    for.
    """
    half_steps = [0.5 * i for i in range(int(2 * z_max) + 1)]
    l4_steps = [0.5 * i for i in range(int(2 * l4_max) + 1)]
    matched, excluded = [], []
    for J in half_steps:
        for L in half_steps:
            for l4 in l4_steps:
                for T in half_steps:
                    r = delta_m_match(params, J, L, l4, T, tol)
                    (matched if r.matches else excluded).append(r)
    return matched, excluded
