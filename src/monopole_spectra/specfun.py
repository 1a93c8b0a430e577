"""Jacobi and polynomial Kummer functions, coupling-shifted exponents, and
finite-difference residual checks of the closed-form wavefunctions against
their separated ODEs.

Residuals use a centered 4th-order stencil on uniform grids.  A fraction of
the grid (default 5% per end, at least the stencil width) is excluded from
the max: the closed forms carry fractional powers of the coordinate at the
singular endpoints, where high derivatives grow fast enough that no fixed
point-count margin converges under refinement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterPole
from .params import ModelParams

MARGIN_FRACTION = 0.05
# interior points a residual grid keeps at least: a lone interior point can
# sit at the symmetric midpoint, where the stencil error cancels
MIN_INTERIOR = 3
THETA_EDGE = 1e-3
RADIAL_EDGE = 1e-3
ENVELOPE_CUT = 1e-12


def jacobi_p(n: int, a: float, b: float, x: float) -> float:
    """Jacobi polynomial P_n^(a,b)(x) by the three-term recurrence."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Jacobi parameters must exceed -1, got a={a}, b={b}")
    if n == 0:
        return 1.0
    p_prev = 1.0
    p_cur = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for k in range(2, n + 1):
        s = 2.0 * k + a + b
        a1 = 2.0 * k * (k + a + b) * (s - 2.0)
        a2 = (s - 1.0) * (a * a - b * b)
        a3 = (s - 2.0) * (s - 1.0) * s
        a4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * s
        p_next = ((a2 + a3 * x) * p_cur - a4 * p_prev) / a1
        p_prev, p_cur = p_cur, p_next
    return p_cur


def kummer_poly(n: int, b: float, x: float) -> float:
    """Confluent hypergeometric 1F1(-n, b; x), a degree-n polynomial."""
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    bk = round(b)
    if abs(b - bk) < 1e-12 and -(n - 1) <= bk <= 0:
        raise ParameterPole(f"b={b} poles the series within degree {n}")
    total = 1.0
    term = 1.0
    for k in range(n):
        term *= (-(n - k)) * x / ((b + k) * (k + 1.0))
        total += term
    return total


@dataclass(frozen=True)
class DeltaExponents:
    delta1: float
    delta2: float
    variant: str


def delta_exponents(
    variant: str,
    couplings: tuple[float, float],
    z1: float,
    z2: float,
    hbar: float = 1.0,
) -> DeltaExponents:
    """Coupling-shifted exponents of the angular/radial closed forms.

    kepler: sqrt(4*c_i/hbar^2 + (2z+1)^2) with labels (J, L);
    oscillator: sqrt(2*lam_i/hbar^2 + (2z+1)^2) with labels (T, K).
    """
    c1, c2 = couplings
    if c1 < 0 or c2 < 0:
        raise ValueError("couplings must be non-negative")
    if variant == "kepler":
        f = 4.0
    elif variant == "oscillator":
        f = 2.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    d1 = -1.0 + math.sqrt(f * c1 / hbar ** 2 + (2.0 * z1 + 1.0) ** 2) - z1
    d2 = -1.0 + math.sqrt(f * c2 / hbar ** 2 + (2.0 * z2 + 1.0) ** 2) - z2
    return DeltaExponents(d1, d2, variant)


def separation_constant(lam_eff: float) -> float:
    """Lambda = l(l+3) for effective angular exponent l."""
    return lam_eff * (lam_eff + 3.0)


def effective_exponent(m: int, z1: float, z2: float, deltas: DeltaExponents) -> float:
    """Exponent l with Lambda = l(l+3) for the degree-m angular solution."""
    return m + 0.5 * (z1 + z2 + deltas.delta1 + deltas.delta2)


def _d1_4(f: np.ndarray, h: float) -> np.ndarray:
    return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)


def _d2_4(f: np.ndarray, h: float) -> np.ndarray:
    return (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (
        12.0 * h * h
    )


def _margin(n_points: int, margin_frac: float) -> int:
    """Grid points excluded per end: margin_frac of the grid, at least 5."""
    return max(5, int(round(margin_frac * n_points)))


def _grid(lo: float, hi: float, n_points: int, margin_frac: float) -> tuple[np.ndarray, float]:
    """Uniform residual grid and its spacing; the margin must leave at least
    MIN_INTERIOR points (at the default margin, at least 13 grid points)."""
    m = _margin(n_points, margin_frac)
    if n_points < 2 * m + MIN_INTERIOR:
        raise ValueError(
            f"n_points={n_points} leaves {max(n_points - 2 * m, 0)} interior points after "
            f"the {m}-point margin per end; at least {MIN_INTERIOR} are needed, so use "
            f"at least {2 * m + MIN_INTERIOR} points")
    x = np.linspace(lo, hi, n_points)
    return x, x[1] - x[0]


def _trim(res: np.ndarray, n_points: int, margin_frac: float) -> np.ndarray:
    # res is indexed from grid point 2 .. n-3; cut the margin per end
    m = _margin(n_points, margin_frac)
    return res[m - 2:res.size - (m - 2)]


def exp_cutoff(kappa: float, power: float, cut: float) -> float:
    """x beyond which exp(-kappa*x/2) * x^power is below cut * its peak."""
    x_peak = max(2.0 * power / kappa, 1e-12)
    target = math.log(1.0 / cut)
    x = x_peak + 2.0 * target / kappa
    for _ in range(80):
        x_new = (2.0 / kappa) * (target + power * max(0.0, math.log(x / x_peak))) + x_peak
        if abs(x_new - x) < 1e-10 * x:
            return x_new
        x = x_new
    return x


def angular_residual(
    picture: str,
    lam: float,
    z1: float,
    z2: float,
    deltas: DeltaExponents | None = None,
    *,
    couplings: tuple[float, float] = (0.0, 0.0),
    hbar: float = 1.0,
    n_points: int = 2001,
    margin_frac: float = MARGIN_FRACTION,
) -> float:
    """Max interior residual of the angular ODE on its closed-form solution.

    lam counts z1+z2 plus the Jacobi degree; raises DomainError when the
    implied degree lam - z1 - z2 is not a non-negative integer.
    """
    mf = lam - z1 - z2
    m = round(mf)
    if mf < -1e-9 or abs(mf - m) > 1e-9:
        raise DomainError(
            f"lam={lam} gives the degree lam - z1 - z2 = {mf}, which must be a "
            f"non-negative integer")
    if picture == "kepler_hyperspherical":
        variant = "kepler"
        pot_scale = 1.0
    elif picture == "oscillator_euler":
        variant = "oscillator"
        pot_scale = 0.5
    else:
        raise ValueError(f"unknown picture {picture!r}")
    if deltas is None:
        deltas = delta_exponents(variant, couplings, z1, z2, hbar)
    d1, d2 = deltas.delta1, deltas.delta2
    c1, c2 = couplings

    th, h = _grid(THETA_EDGE, math.pi - THETA_EDGE, n_points, margin_frac)
    x = np.cos(th)
    pj = np.array([jacobi_p(m, d2 + z2 + 1.0, d1 + z1 + 1.0, xi) for xi in x])
    f = (1.0 + x) ** (0.5 * (d1 + z1)) * (1.0 - x) ** (0.5 * (d2 + z2)) * pj

    f1 = _d1_4(f, h)
    f2 = _d2_4(f, h)
    t = th[2:-2]
    xx = x[2:-2]
    fm = f[2:-2]
    lam_eff = effective_exponent(m, z1, z2, deltas)
    # both pictures share the sin^3-measure operator; the oscillator one
    # halves the coupling shift and scales the separation constant by 4
    q1 = z1 * (z1 + 1.0) + pot_scale * c1 / hbar ** 2
    q2 = z2 * (z2 + 1.0) + pot_scale * c2 / hbar ** 2
    sep = separation_constant(lam_eff)
    res = (
        f2
        + 3.0 / np.tan(t) * f1
        - 2.0 * q2 / (1.0 - xx) * fm
        - 2.0 * q1 / (1.0 + xx) * fm
        + sep * fm
    )
    return float(np.max(np.abs(_trim(res, n_points, margin_frac))))


def kepler_radial_residual(
    n: int,
    lam_eff: float,
    params: ModelParams,
    n_points: int = 2001,
    margin_frac: float = MARGIN_FRACTION,
) -> float:
    """Residual of the 5D radial equation on the closed-form bound state.

    lam_eff is the effective angular exponent (the separation constant is
    lam_eff*(lam_eff+3)).
    """
    hb2 = params.hbar ** 2
    kappa = 2.0 * params.c0 / (hb2 * (n + lam_eff + 2.0))
    energy = -(kappa ** 2) * hb2 / 8.0
    r, h = _grid(RADIAL_EDGE, exp_cutoff(kappa, lam_eff + n, ENVELOPE_CUT), n_points, margin_frac)
    f = np.exp(-0.5 * kappa * r) * (kappa * r) ** lam_eff * np.array(
        [kummer_poly(n, 4.0 + 2.0 * lam_eff, kappa * ri) for ri in r]
    )
    f1 = _d1_4(f, h)
    f2 = _d2_4(f, h)
    rm = r[2:-2]
    fm = f[2:-2]
    sep = separation_constant(lam_eff)
    res = (
        f2
        + 4.0 / rm * f1
        + (2.0 / hb2) * (energy + params.c0 / rm) * fm
        - sep / rm ** 2 * fm
    )
    return float(np.max(np.abs(_trim(res, n_points, margin_frac))))


def oscillator_radial_residual(
    n: int,
    lam_eff: float,
    omega: float,
    hbar: float = 1.0,
    n_points: int = 2001,
    margin_frac: float = MARGIN_FRACTION,
) -> float:
    """Residual of the 8D radial equation; Gamma = 4*lam_eff*(lam_eff+3)."""
    kappa = omega / hbar
    eps = 2.0 * hbar * omega * (n + lam_eff + 2.0)
    u_hi = math.sqrt(exp_cutoff(kappa, lam_eff + n, ENVELOPE_CUT))
    u, h = _grid(RADIAL_EDGE, u_hi, n_points, margin_frac)
    xi = kappa * u ** 2
    f = np.exp(-0.5 * xi) * xi ** lam_eff * np.array(
        [kummer_poly(n, 4.0 + 2.0 * lam_eff, x) for x in xi]
    )
    f1 = _d1_4(f, h)
    f2 = _d2_4(f, h)
    um = u[2:-2]
    fm = f[2:-2]
    gamma = 4.0 * lam_eff * (lam_eff + 3.0)
    res = (
        f2
        + 7.0 / um * f1
        - gamma / um ** 2 * fm
        + (2.0 * eps / hbar ** 2) * fm
        - (omega ** 2 / hbar ** 2) * um ** 2 * fm
    )
    return float(np.max(np.abs(_trim(res, n_points, margin_frac))))


def parabolic_pair_parameters(
    n1: int, n2: int, J: float, L: float, params: ModelParams
) -> tuple[float, float, float]:
    """(kappa, lam_tilde, E) of the quantized parabolic state (n1, n2)."""
    d = delta_exponents("kepler", (params.c1, params.c2), J, L, params.hbar)
    hb2 = params.hbar ** 2
    total = n1 + n2 + 0.5 * (d.delta1 + d.delta2 + J + L) + 2.0
    kappa = params.c0 / (hb2 * total)
    a1 = 0.5 * (d.delta1 + J)
    lam_tilde = (2.0 / params.hbar) * (kappa * (n1 + a1 + 1.0) - params.c0 / (2.0 * hb2))
    energy = -hb2 * kappa ** 2 / 2.0
    return kappa, lam_tilde, energy


def parabolic_residual(
    sector: str,
    n: int,
    z: float,
    coupling: float,
    kappa: float,
    lam_tilde: float,
    params: ModelParams,
    n_points: int = 2001,
    margin_frac: float = MARGIN_FRACTION,
) -> float:
    """Residual of one parabolic-coordinate equation ("mu" or "nu")."""
    hb2 = params.hbar ** 2
    if sector == "mu":
        sep = 0.5 * params.hbar * lam_tilde
    elif sector == "nu":
        sep = -0.5 * params.hbar * lam_tilde
    else:
        raise ValueError(f"unknown sector {sector!r}")
    d = -1.0 + math.sqrt(4.0 * coupling / hb2 + (2.0 * z + 1.0) ** 2) - z
    a = 0.5 * (d + z)
    energy = -hb2 * kappa ** 2 / 2.0
    x, h = _grid(RADIAL_EDGE, exp_cutoff(kappa, a + n, ENVELOPE_CUT), n_points, margin_frac)
    f = np.exp(-0.5 * kappa * x) * (kappa * x) ** a * np.array(
        [kummer_poly(n, d + z + 2.0, kappa * xi) for xi in x]
    )
    f1 = _d1_4(f, h)
    f2 = _d2_4(f, h)
    xm = x[2:-2]
    fm = f[2:-2]
    q = z * (z + 1.0) + coupling / hb2
    res = (
        xm * f2
        + 2.0 * f1
        + (energy / (2.0 * hb2)) * xm * fm
        - q / xm * fm
        + (params.c0 / (2.0 * hb2)) * fm
        + sep * fm
    )
    return float(np.max(np.abs(_trim(res, n_points, margin_frac))))


def cylindrical_residual(
    n: int,
    z: float,
    coupling: float,
    hbar: float = 1.0,
    n_points: int = 2001,
    margin_frac: float = MARGIN_FRACTION,
) -> float:
    """Residual of one 4D-factor equation in the dimensionless variable."""
    d = -1.0 + math.sqrt(2.0 * coupling / hbar ** 2 + (2.0 * z + 1.0) ** 2) - z
    a = 0.5 * (d + z)
    e = n + 0.5 * (d + z + 2.0)
    x, h = _grid(RADIAL_EDGE, exp_cutoff(1.0, a + n, ENVELOPE_CUT), n_points, margin_frac)
    f = np.exp(-0.5 * x) * x ** a * np.array(
        [kummer_poly(n, d + z + 2.0, xi) for xi in x]
    )
    f1 = _d1_4(f, h)
    f2 = _d2_4(f, h)
    xm = x[2:-2]
    fm = f[2:-2]
    q = z * (z + 1.0) + 0.5 * coupling / hbar ** 2
    res = xm * f2 + 2.0 * f1 - (q / xm + 0.25 * xm - e) * fm
    return float(np.max(np.abs(_trim(res, n_points, margin_frac))))
