"""Jacobi and polynomial Kummer functions, coupling-shifted exponents, the
level formulas, and finite-difference residual checks of the closed-form
wavefunctions against their separated ODEs.

Each level formula is written once, here: `coulomb_energy` (5D),
`oscillator_level` (8D), `sector_potential` (a sector's inverse-square
coefficient q), `factor_principal_number` (one cylindrical or parabolic
factor) and `parabolic_pair`.  `shifted_exponent` and
`sector_potential` take a coupling with one factor f (`COUPLING_FACTOR`):
4 for a 5D c_i at J or L, 2 for an 8D lam_i at T or K.

Each residual check builds its grid and its closed form (the radial-type ones
share the confluent envelope e^(-x/2) x^a 1F1(-n; b; x)) and hands its printed
equation, a function of (x, f, f', f''), to one evaluator.  The evaluator
takes the derivatives by centered 4th-order stencils on the uniform grid and
excludes a fixed 5% of the grid per end (at least the stencil width) from the
max: the closed forms carry fractional powers of the coordinate at the
singular endpoints, where high derivatives grow fast enough that no fixed
point-count margin converges under refinement.

numpy is imported only inside the functions that build arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, ParameterPole
from .params import ModelParams, require_non_negative, require_positive

if TYPE_CHECKING:
    import numpy as np

MARGIN_FRACTION = 0.05
# interior points a residual grid keeps at least: a lone interior point can
# sit at the symmetric midpoint, where the stencil error cancels
MIN_INTERIOR = 3
THETA_EDGE = 1e-3
RADIAL_EDGE = 1e-3
ENVELOPE_CUT = 1e-12


def jacobi_p(n: int, a: float, b: float, x: float) -> float:
    """Jacobi polynomial P_n^(a,b)(x) by the three-term recurrence."""
    # the rule is called only on failure: this runs once per grid point
    if not 0 <= n < math.inf:
        require_non_negative(n=n)
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
    # the rule is called only on failure, as in `jacobi_p`
    if not 0 <= n < math.inf:
        require_non_negative(n=n)
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


# f of a coupling per variant: its shift is f * coupling / hbar^2 under the root
COUPLING_FACTOR = {"kepler": 4.0, "oscillator": 2.0}


def shifted_exponent(f: float, coupling: float, z: float, hbar: float = 1.0) -> float:
    """delta = sqrt(f*coupling/hbar^2 + (2z+1)^2) - z - 1 (f from COUPLING_FACTOR)."""
    return -1.0 + math.sqrt(f * coupling / hbar ** 2 + (2.0 * z + 1.0) ** 2) - z


def sector_potential(f: float, coupling: float, z: float, hbar: float = 1.0) -> float:
    """q = z(z+1) + f*coupling/(4 hbar^2), the inverse-square coefficient of
    one sector (f as in `shifted_exponent`)."""
    return z * (z + 1.0) + 0.25 * f * coupling / hbar ** 2


def delta_exponents(
    variant: str,
    couplings: tuple[float, float],
    z1: float,
    z2: float,
    hbar: float = 1.0,
) -> DeltaExponents:
    """Coupling-shifted exponents of the angular/radial closed forms:
    "kepler" (f = 4, labels (J, L)) or "oscillator" (f = 2, labels (T, K))."""
    c1, c2 = couplings
    require_non_negative(c1=c1, c2=c2)
    if variant not in COUPLING_FACTOR:
        raise ValueError(f"unknown variant {variant!r}")
    f = COUPLING_FACTOR[variant]
    return DeltaExponents(shifted_exponent(f, c1, z1, hbar), shifted_exponent(f, c2, z2, hbar))


def separation_constant(lam_eff: float) -> float:
    """Lambda = l(l+3) for effective angular exponent l."""
    return lam_eff * (lam_eff + 3.0)


def exponent_from_separation(sep: float) -> float:
    """l with l(l+3) = sep, the non-negative branch."""
    return 0.5 * (-3.0 + math.sqrt(9.0 + 4.0 * sep))


def effective_exponent(m: int, z1: float, z2: float, deltas: DeltaExponents) -> float:
    """Exponent l with Lambda = l(l+3) for the degree-m angular solution."""
    return m + 0.5 * (z1 + z2 + deltas.delta1 + deltas.delta2)


def coulomb_energy(N, params: ModelParams):
    """-c0^2 / (2 hbar^2 N^2), the 5D level at principal number N (a float or an array)."""
    return -params.c0 ** 2 / (2.0 * params.hbar ** 2 * N ** 2)


def oscillator_level(N, omega: float, hbar: float = 1.0):
    """2 hbar omega N, the 8D level at principal number N (a float or an array)."""
    return 2.0 * hbar * omega * N


def factor_principal_number(n, delta: float, z: float):
    """n + (delta + z + 2)/2, one cylindrical or parabolic factor's principal number."""
    return n + 0.5 * (delta + z + 2.0)


def parabolic_pair(N1: float, N2: float, params: ModelParams) -> tuple[float, float, float]:
    """(kappa, lam_tilde, E) of the parabolic pair whose two factors have
    principal numbers N1 and N2: kappa = c0 / (hbar^2 (N1 + N2)), lam_tilde =
    2 (kappa N1 - c0 / (2 hbar^2)) / hbar and E = coulomb_energy(N1 + N2)."""
    hb2 = params.hbar ** 2
    kappa = params.c0 / (hb2 * (N1 + N2))
    lam_tilde = 2.0 * (kappa * N1 - params.c0 / (2.0 * hb2)) / params.hbar
    return kappa, lam_tilde, coulomb_energy(N1 + N2, params)


def _max_residual(
    lo: float, hi: float, n_points: int, closed_form: Callable, ode: Callable
) -> float:
    """Max |ode(x, f, f', f'')| of f = closed_form(x) on n_points uniform grid
    points x over [lo, hi].  The derivatives are centered 4th-order stencils at
    points 2 .. n-3, and MARGIN_FRACTION of the grid per end (at least 5
    points) is left out of the max, which needs at least MIN_INTERIOR points
    (so at least 13 grid points).  Values beyond the float range propagate as
    inf or nan without a warning: a non-finite max is a check without a verdict.
    """
    import numpy as np

    m = max(5, int(round(MARGIN_FRACTION * n_points)))
    if n_points < 2 * m + MIN_INTERIOR:
        raise ValueError(
            f"n_points={n_points} leaves {max(n_points - 2 * m, 0)} interior points after "
            f"the {m}-point margin per end; at least {MIN_INTERIOR} are needed, so use "
            f"at least {2 * m + MIN_INTERIOR} points")
    x = np.linspace(lo, hi, n_points)
    h = x[1] - x[0]
    with np.errstate(all="ignore"):
        f = closed_form(x)
        f1 = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
        f2 = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (
            12.0 * h * h
        )
        res = ode(x[2:-2], f[2:-2], f1, f2)
        return float(np.max(np.abs(res[m - 2:res.size - (m - 2)])))


def _confluent(x: np.ndarray, n: int, a: float, b: float) -> np.ndarray:
    """Confluent envelope e^(-x/2) x^a 1F1(-n; b; x) at each grid point."""
    import numpy as np

    return np.exp(-0.5 * x) * x ** a * np.array([kummer_poly(n, b, xi) for xi in x])


def exp_cutoff(kappa: float, power: float, cut: float) -> float:
    """x beyond which exp(-kappa*x/2) * x^power is below cut * its peak.

    For power > 0 this is the root above the peak x_peak = 2 power / kappa
    (floored at 1e-12) of kappa (x - x_peak)/2 - power ln(x / x_peak) =
    ln(1/cut), solved in u = x / x_peak - 1 by Newton's method.  The function
    is convex and rising for u > 0, so the iterates, started above the root
    at u = 1 + 2 ln(1/cut) / (kappa x_peak / 2), fall monotonically onto it.
    For power <= 0 it is x_peak + 2 ln(1/cut) / kappa, where
    exp(-kappa (x - x_peak)/2) has fallen to cut.
    """
    x_peak = max(2.0 * power / kappa, 1e-12)
    target = math.log(1.0 / cut)
    if power > 0:
        s = 0.5 * kappa * x_peak  # = power unless x_peak is floored
        u = 1.0 + 2.0 * target / s
        for _ in range(100):
            step = (s * u - power * math.log1p(u) - target) / (s - power / (1.0 + u))
            u -= step
            if step <= 1e-13 * u:
                break
        return x_peak * (1.0 + u)
    return (2.0 / kappa) * target + x_peak


def angular_residual(
    picture: str,
    lam: float,
    z1: float,
    z2: float,
    *,
    couplings: tuple[float, float] = (0.0, 0.0),
    hbar: float = 1.0,
    n_points: int = 2001,
) -> float:
    """Max interior residual of the angular ODE on its closed-form solution.

    lam = m + z1 + z2 at Jacobi degree m, as `verify residuals --lam` reads it
    (`duality.spectrum_identity_check`'s lam is m + (z1+z2)/2); raises
    DomainError when the degree lam - z1 - z2 is not a non-negative integer.
    """
    import numpy as np

    require_positive(hbar=hbar)
    mf = lam - z1 - z2
    m = round(mf)
    if mf < -1e-9 or abs(mf - m) > 1e-9:
        raise DomainError(
            f"lam={lam} gives the degree lam - z1 - z2 = {mf}, which must be a "
            f"non-negative integer")
    variant = {"kepler_hyperspherical": "kepler", "oscillator_euler": "oscillator"}.get(picture)
    if variant is None:
        raise ValueError(f"unknown picture {picture!r}")
    deltas = delta_exponents(variant, couplings, z1, z2, hbar)
    d1, d2 = deltas.delta1, deltas.delta2
    # both pictures share the sin^3-measure operator, up to the coupling factor f
    f, (c1, c2) = COUPLING_FACTOR[variant], couplings
    q1, q2 = sector_potential(f, c1, z1, hbar), sector_potential(f, c2, z2, hbar)
    sep = separation_constant(effective_exponent(m, z1, z2, deltas))

    def closed_form(th):
        x = np.cos(th)
        pj = np.array([jacobi_p(m, d2 + z2 + 1.0, d1 + z1 + 1.0, xi) for xi in x])
        return (1.0 + x) ** (0.5 * (d1 + z1)) * (1.0 - x) ** (0.5 * (d2 + z2)) * pj

    def ode(t, f, f1, f2):
        c = np.cos(t)
        return (f2 + 3.0 / np.tan(t) * f1 - 2.0 * q2 / (1.0 - c) * f
                - 2.0 * q1 / (1.0 + c) * f + sep * f)

    return _max_residual(THETA_EDGE, math.pi - THETA_EDGE, n_points, closed_form, ode)


def kepler_radial_residual(
    n: int,
    lam_eff: float,
    params: ModelParams,
    n_points: int = 2001,
) -> float:
    """Residual of the 5D radial equation on the closed-form bound state.

    lam_eff is the effective angular exponent (the separation constant is
    lam_eff*(lam_eff+3)).
    """
    require_non_negative(n=n, lam_eff=lam_eff)
    hb2 = params.hbar ** 2
    kappa = 2.0 * params.c0 / (hb2 * (n + lam_eff + 2.0))
    energy = coulomb_energy(n + lam_eff + 2.0, params)
    sep = separation_constant(lam_eff)
    return _max_residual(
        RADIAL_EDGE, exp_cutoff(kappa, lam_eff + n, ENVELOPE_CUT), n_points,
        lambda r: _confluent(kappa * r, n, lam_eff, 4.0 + 2.0 * lam_eff),
        lambda r, f, f1, f2: (
            f2 + 4.0 / r * f1 + (2.0 / hb2) * (energy + params.c0 / r) * f - sep / r ** 2 * f))


def oscillator_radial_residual(
    n: int,
    lam_eff: float,
    omega: float,
    hbar: float = 1.0,
    n_points: int = 2001,
) -> float:
    """Residual of the 8D radial equation; Gamma = 4*lam_eff*(lam_eff+3)."""
    require_non_negative(n=n, lam_eff=lam_eff)
    require_positive(omega=omega, hbar=hbar)
    kappa = omega / hbar
    eps = oscillator_level(n + lam_eff + 2.0, omega, hbar)
    gamma = 4.0 * separation_constant(lam_eff)
    return _max_residual(
        RADIAL_EDGE, math.sqrt(exp_cutoff(kappa, lam_eff + n, ENVELOPE_CUT)), n_points,
        lambda u: _confluent(kappa * u ** 2, n, lam_eff, 4.0 + 2.0 * lam_eff),
        lambda u, f, f1, f2: (
            f2 + 7.0 / u * f1 - gamma / u ** 2 * f + (2.0 * eps / hbar ** 2) * f
            - (omega ** 2 / hbar ** 2) * u ** 2 * f))


def parabolic_pair_parameters(
    n1: int, n2: int, J: float, L: float, params: ModelParams
) -> tuple[float, float, float]:
    """(kappa, lam_tilde, E) of the quantized parabolic state (n1, n2)."""
    require_non_negative(n1=n1, n2=n2)
    d = delta_exponents("kepler", (params.c1, params.c2), J, L, params.hbar)
    return parabolic_pair(factor_principal_number(n1, d.delta1, J),
                          factor_principal_number(n2, d.delta2, L), params)


def parabolic_residual(
    sector: str,
    n: int,
    z: float,
    coupling: float,
    kappa: float,
    lam_tilde: float,
    params: ModelParams,
    n_points: int = 2001,
) -> float:
    """Residual of one parabolic-coordinate equation ("mu" or "nu")."""
    require_non_negative(n=n)
    hb2 = params.hbar ** 2
    if sector == "mu":
        sep = 0.5 * params.hbar * lam_tilde
    elif sector == "nu":
        sep = -0.5 * params.hbar * lam_tilde
    else:
        raise ValueError(f"unknown sector {sector!r}")
    d = shifted_exponent(4.0, coupling, z, params.hbar)
    a = 0.5 * (d + z)
    energy = -hb2 * kappa ** 2 / 2.0
    q = sector_potential(4.0, coupling, z, params.hbar)
    return _max_residual(
        RADIAL_EDGE, exp_cutoff(kappa, a + n, ENVELOPE_CUT), n_points,
        lambda x: _confluent(kappa * x, n, a, d + z + 2.0),
        lambda x, f, f1, f2: (
            x * f2 + 2.0 * f1 + (energy / (2.0 * hb2)) * x * f - q / x * f
            + (params.c0 / (2.0 * hb2)) * f + sep * f))


def cylindrical_residual(
    n: int,
    z: float,
    coupling: float,
    hbar: float = 1.0,
    n_points: int = 2001,
) -> float:
    """Residual of one 4D-factor equation in the dimensionless variable."""
    require_non_negative(n=n)
    require_positive(hbar=hbar)
    d = shifted_exponent(2.0, coupling, z, hbar)
    a = 0.5 * (d + z)
    e = factor_principal_number(n, d, z)
    q = sector_potential(2.0, coupling, z, hbar)
    return _max_residual(
        RADIAL_EDGE, exp_cutoff(1.0, a + n, ENVELOPE_CUT), n_points,
        lambda x: _confluent(x, n, a, d + z + 2.0),
        lambda x, f, f1, f2: x * f2 + 2.0 * f1 - (q / x + 0.25 * x - e) * f)
