"""Jacobi and polynomial Kummer functions, end exponents, the level
formulas, and finite-difference residual checks of the closed-form
wavefunctions against their separated ODEs.

Each level formula is written once, here: `coulomb_energy` (5D),
`oscillator_level` (8D), `sector_potential` (a sector's inverse-square
coefficient q), `factor_principal_number` (one cylindrical or parabolic
factor) and `parabolic_pair`.  Beside `sector_potential` sits
`end_exponent`, l = sqrt(4 q + 1) of the same sector's singular end, whose
coefficient is a = l^2 - 1/4; both take a coupling with its factor f: 4 for
a 5D c_i at J or L, 2 for an 8D lam_i at T or K.  Every closed form is set by
one exponent per singular end: the angular ones are the envelope
(1 + x)^((l1-1)/2) (1 - x)^((l2-1)/2) times P_m^(l2, l1)(x), and the
radial-type ones share the confluent envelope e^(-x/2) x^a 1F1(-n; b; x),
with a = (l-1)/2 and b = l + 1 in a cylindrical or parabolic factor.

Each residual check builds its grid and its closed form and hands its printed
equation, a function of (x, f, f', f''), to one evaluator.  `jacobi_p` takes a
float or an array, so an angular closed form is one array pass over the grid;
the confluent ones still call `kummer_poly` once per grid point.  The evaluator
takes the derivatives by centered 4th-order stencils on the uniform grid and
excludes a fixed 5% of the grid per end (at least the stencil width) from the
max: the closed forms carry fractional powers of the coordinate at the
singular endpoints, where high derivatives grow fast enough that no fixed
point-count margin converges under refinement.

numpy is imported only inside the functions that build arrays.
"""
from __future__ import annotations

import math
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


def jacobi_p(n: int, a: float, b: float, x):
    """Jacobi polynomial P_n^(a,b)(x) by the three-term recurrence, at a float
    x or elementwise on an array x: the operations are the same in the same
    order, so each array value is bitwise the float call's."""
    require_non_negative(n=n)
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Jacobi parameters must exceed -1, got a={a}, b={b}")
    if n == 0:
        return x ** 0.0  # 1.0, or ones in the shape of x
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
    # the rule is called only on failure: this runs once per grid point
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


def sector_potential(f: float, coupling: float, z: float, hbar: float = 1.0) -> float:
    """q = z(z+1) + f*coupling/(4 hbar^2), the inverse-square coefficient of
    one sector: f = 4 for a 5D c_i at J or L, f = 2 for an 8D lam_i at T or K."""
    return z * (z + 1.0) + 0.25 * f * coupling / hbar ** 2


def end_exponent(f: float, coupling: float, z: float, hbar: float = 1.0) -> float:
    """l = sqrt(f*coupling/hbar^2 + (2z+1)^2) = sqrt(4 q + 1) of one sector's
    singular end, q = `sector_potential` at the same f; the end's coefficient
    is a = l^2 - 1/4."""
    return math.sqrt(f * coupling / hbar ** 2 + (2.0 * z + 1.0) ** 2)


def separation_constant(lam_eff: float) -> float:
    """Lambda = l(l+3) for effective angular exponent l."""
    return lam_eff * (lam_eff + 3.0)


def exponent_from_separation(sep: float) -> float:
    """l with l(l+3) = sep, the non-negative branch."""
    return 0.5 * (-3.0 + math.sqrt(9.0 + 4.0 * sep))


def effective_exponent(m, l1: float, l2: float):
    """m + (l1 + l2)/2 - 1, the exponent l with Lambda = l(l+3) of the
    degree-m angular solution whose ends have exponents l1 and l2."""
    return m + 0.5 * (l1 + l2) - 1.0


def coulomb_energy(N, params: ModelParams):
    """-c0^2 / (2 hbar^2 N^2), the 5D level at principal number N (a float or an array)."""
    return -params.c0 ** 2 / (2.0 * params.hbar ** 2 * N ** 2)


def oscillator_level(N, omega: float, hbar: float = 1.0):
    """2 hbar omega N, the 8D level at principal number N (a float or an array)."""
    return 2.0 * hbar * omega * N


def factor_principal_number(n, l: float):
    """n + (l + 1)/2, one cylindrical or parabolic factor's principal number
    at end exponent l."""
    return n + 0.5 * (l + 1.0)


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


# picture -> (coupling factor f, names of the labels and couplings)
_ANGULAR = {
    "kepler_hyperspherical": (4.0, ("J", "L", "c1", "c2")),
    "oscillator_euler": (2.0, ("T", "K", "lambda1", "lambda2")),
}


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
    The labels and couplings are checked under the picture's names.
    """
    import numpy as np

    if picture not in _ANGULAR:
        raise ValueError(f"unknown picture {picture!r}")
    # both pictures share the sin^3-measure operator, up to the coupling factor f
    f, names = _ANGULAR[picture]
    c1, c2 = couplings
    require_positive(hbar=hbar)
    require_non_negative(**dict(zip(names, (z1, z2, c1, c2))))
    mf = lam - z1 - z2
    m = round(mf)
    if mf < -1e-9 or abs(mf - m) > 1e-9:
        raise DomainError(
            f"lam={lam} gives the degree lam - z1 - z2 = {mf}, which must be a "
            f"non-negative integer")
    q1, q2 = sector_potential(f, c1, z1, hbar), sector_potential(f, c2, z2, hbar)
    l1, l2 = end_exponent(f, c1, z1, hbar), end_exponent(f, c2, z2, hbar)
    sep = separation_constant(effective_exponent(m, l1, l2))

    def closed_form(th):
        x = np.cos(th)
        return ((1.0 + x) ** (0.5 * (l1 - 1.0)) * (1.0 - x) ** (0.5 * (l2 - 1.0))
                * jacobi_p(m, l2, l1, x))

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
    require_non_negative(n1=n1, n2=n2, J=J, L=L)
    return parabolic_pair(
        factor_principal_number(n1, end_exponent(4.0, params.c1, J, params.hbar)),
        factor_principal_number(n2, end_exponent(4.0, params.c2, L, params.hbar)), params)


# sector -> (sign of its separation constant, names of its label and coupling)
_PARABOLIC = {"mu": (1.0, "J", "c1"), "nu": (-1.0, "L", "c2")}


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
    """Residual of one parabolic-coordinate equation: "mu" at label z = J and
    coupling c1, or "nu" at z = L and c2, checked under those names."""
    if sector not in _PARABOLIC:
        raise ValueError(f"unknown sector {sector!r}")
    sign, label, name = _PARABOLIC[sector]
    require_non_negative(n=n, **{label: z, name: coupling})
    hb2 = params.hbar ** 2
    sep = 0.5 * sign * params.hbar * lam_tilde
    l = end_exponent(4.0, coupling, z, params.hbar)
    a = 0.5 * (l - 1.0)
    energy = -hb2 * kappa ** 2 / 2.0
    q = sector_potential(4.0, coupling, z, params.hbar)
    return _max_residual(
        RADIAL_EDGE, exp_cutoff(kappa, a + n, ENVELOPE_CUT), n_points,
        lambda x: _confluent(kappa * x, n, a, l + 1.0),
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
    require_non_negative(n=n, z=z, lam_coupling=coupling)
    require_positive(hbar=hbar)
    l = end_exponent(2.0, coupling, z, hbar)
    a = 0.5 * (l - 1.0)
    e = factor_principal_number(n, l)
    q = sector_potential(2.0, coupling, z, hbar)
    return _max_residual(
        RADIAL_EDGE, exp_cutoff(1.0, a + n, ENVELOPE_CUT), n_points,
        lambda x: _confluent(x, n, a, l + 1.0),
        lambda x, f, f1, f2: x * f2 + 2.0 * f1 - (q / x + 0.25 * x - e) * f)
