"""Finite-difference eigenvalue solvers for the separated ODEs.

Every equation is brought to symmetric Sturm-Liouville form, so the
discretized operator is a real symmetric tridiagonal matrix.  Each spectrum is
computed on meshes (N, 2N) and Richardson-extrapolated.  LAPACK bisection
and inverse iteration (scipy's eigh_tridiagonal, imported on the first solve)
give the lowest k eigenpairs on a coarse mesh of 64 points per level.
Interpolated onto N, each vector is polished there at its coarse value until
the Rayleigh quotient settles; the last solve's residual gives each level an
interval, and disjoint intervals with a Sturm count of exactly k below the top
one certify the lowest k levels on N.  Should the coarse mesh fail or the
certificate not hold, LAPACK solves on N itself.  One solve from each N vector,
interpolated onto 2N and shifted at the N value, gives the one on 2N.  Each
eigenvalue is its vector's Rayleigh quotient in energy form.

Each operator is solved in reduced units, hbar = omega = 1 (the angular ones
see the couplings only as c_i / hbar^2 and lam_i / hbar^2), so the solver
meets one problem for every physical scale.  Six pictures run through two
operators: `_angular_solve` serves both polar equations, and `_radial_solve(a)`
the 2D oscillator -chi'' + [a/t^2 + t^2] chi = 4 N chi, a = l^2 - 1/4, for its
principal numbers N.  Each radial-type picture reads a off its printed equation
(Gamma + 35/4 in 8D, 4 Lambda + 35/4 in 5D under x = y^2, 4 q + 3/4 for a
cylindrical or parabolic sector) and maps N to its levels once, by
`EigenResult.scaled`; in 5D the Coulomb strength scales out, so there is no
root search.  The domain depends on a alone: no solve reads the exponents that
the closed-form oracles use.

The closed-form oracles live next to the solvers (`*_oracle`) so callers can
cross-check without going through the algebraic layer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure
from .params import ModelParams
from .specfun import (
    coulomb_energy, delta_exponents, effective_exponent, exp_cutoff, exponent_from_separation,
    factor_principal_number, oscillator_level, parabolic_pair, parabolic_pair_parameters,
    sector_potential, separation_constant, shifted_exponent,
)

ENVELOPE_CUT = 1e-14
POLISH_RTOL = 1e-13     # settled: |change of Rayleigh quotient| <= this * its magnitude
POLISH_SOLVES = 8
COARSE_POINTS = 64      # points per level of the mesh the levels are first solved on
CONV_TOL = 1e-3         # bound on the relative Richardson delta |richardson - fine|


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """-chi'' + V(x) chi = lambda chi on (x_min, x_max), Dirichlet ends.

    V(x) = inv_x/x + inv_x2/x^2 + csc2/sin^2 x + inv_1m_cos/(1 - cos x)
           + inv_1p_cos/(1 + cos x) + quad*x^2 + const.
    x_min = 0 places the wall exactly at the origin (exact for solutions
    vanishing there); grid nodes are interior, so V is never evaluated at 0.
    The angular terms are singular at x = 0 and pi, the ends of the angular
    domain.
    """

    inv_x: float = 0.0
    inv_x2: float = 0.0
    csc2: float = 0.0
    inv_1m_cos: float = 0.0
    inv_1p_cos: float = 0.0
    quad: float = 0.0
    const: float = 0.0
    domain: tuple[float, float] = (0.0, 1.0)
    mesh_size: int = 2000

    def __post_init__(self) -> None:
        if self.domain[0] < 0 or self.domain[1] <= self.domain[0]:
            raise ValueError(f"domain must satisfy 0 <= x_min < x_max, got {self.domain}")
        if self.mesh_size < 3:
            raise ValueError(f"mesh_size must be at least 3, got {self.mesh_size}")

    def potential(self, x: np.ndarray) -> np.ndarray:
        v = self.inv_x / x + self.inv_x2 / (x * x)
        if self.csc2 or self.inv_1m_cos or self.inv_1p_cos:
            cs = np.cos(x)
            v = (v + self.csc2 / np.sin(x) ** 2 + self.inv_1m_cos / (1.0 - cs)
                 + self.inv_1p_cos / (1.0 + cs))
        return v + self.quad * x * x + self.const


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues on the fine mesh and their Richardson extrapolation."""

    eigenvalues: np.ndarray
    richardson: np.ndarray

    def scaled(self, f: Callable[[np.ndarray], np.ndarray]) -> EigenResult:
        """Both arrays mapped by f, from reduced into physical units."""
        return EigenResult(f(self.eigenvalues), f(self.richardson))


def _tridiagonal(problem: SturmLiouvilleProblem, n: int):
    """Diagonal, off-diagonal, potential V(x) and step h of the n-point mesh."""
    x = np.linspace(problem.domain[0], problem.domain[1], n + 2)[1:-1]
    h = x[1] - x[0]
    v = problem.potential(x)
    return 2.0 / h ** 2 + v, np.full(n - 1, -1.0 / h ** 2), v, h


def _rayleigh(z: np.ndarray, v: np.ndarray, h: float) -> tuple[float, float]:
    """Rayleigh quotient of z in energy form, (sum (dz)^2 + z_0^2 + z_{n-1}^2)/h^2
    + sum V z^2 over sum z^2, and the summed magnitudes of its two parts.

    The energy form has no eps * |T| cancellation between 2/h^2 and -1/h^2.
    """
    dz = np.diff(z)
    kinetic = (dz @ dz + z[0] ** 2 + z[-1] ** 2) / h ** 2
    potential = (v * z) @ z
    norm = z @ z
    return (kinetic + potential) / norm, (kinetic + abs(potential)) / norm


def _eigenpairs(problem: SturmLiouvilleProblem, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenvalues on mesh n and their eigenvectors (one row each):
    LAPACK bisection and inverse iteration (dstebz, dstein), each value then
    taken as its vector's Rayleigh quotient in energy form."""
    from scipy.linalg import eigh_tridiagonal

    if not 1 <= k <= n:
        raise ValueError(f"cannot resolve {k} levels on mesh {n}: need 1 <= levels <= mesh")
    diag, off, v, h = _tridiagonal(problem, n)
    try:
        vectors = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))[1].T
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"lowest {k} levels on mesh {n}: LAPACK failed: {exc}") from exc
    return np.array([_rayleigh(z, v, h)[0] for z in vectors]), vectors


def _interpolate(vectors: np.ndarray, n: int) -> np.ndarray:
    """Each row of vectors linearly interpolated onto the n-point mesh of the
    same domain: one affine map takes both meshes onto [0, 1], and the walls
    hold zeros."""
    nodes = np.linspace(0.0, 1.0, vectors.shape[1] + 2)
    at = np.linspace(0.0, 1.0, n + 2)[1:-1]
    walled = np.zeros(vectors.shape[1] + 2)
    out = np.empty((len(vectors), n))
    for j, z in enumerate(vectors):
        walled[1:-1] = z
        out[j] = np.interp(at, nodes, walled)
    return out


def _lift(
    problem: SturmLiouvilleProblem, coarse: np.ndarray, vectors: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The coarse eigenpairs polished on mesh n, or None unless they are
    certified as the lowest len(coarse) levels of mesh n in order.

    Each level runs inverse iteration at the fixed shift of its coarse value,
    from its interpolated eigenvector, until the Rayleigh quotient settles in
    at most POLISH_SOLVES solves.  The last solve y = (T - shift)^-1 x, x the
    previous unit iterate, bounds ||(T - rho) z|| <= ||(T - shift) z|| =
    ||x|| / ||y||, so each interval rho_j +- radius_j (plus rounding slack
    4 eps ||T||) holds an eigenvalue.  Pairwise disjoint intervals hold
    distinct ones, and a Sturm count of exactly k below the top of the last
    interval (and above min V - 1, under the spectrum) makes them the lowest k.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

    k = len(coarse)
    diag, off, v, h = _tridiagonal(problem, n)
    slack = 4.0 * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2.0 / h ** 2)
    values, radius = np.empty(k), np.empty(k)
    lifted = _interpolate(vectors, n)
    for j, shift in enumerate(coarse):
        factors = dgttrf(off, diag - shift, off, overwrite_d=1)[:5]
        z, rho = lifted[j], math.inf
        for _ in range(POLISH_SOLVES):
            z = dgttrs(*factors, z)[0]
            norm = math.sqrt(z @ z)
            z /= norm
            last, (rho, scale) = rho, _rayleigh(z, v, h)
            if abs(rho - last) <= POLISH_RTOL * scale:
                break
        else:
            return None
        values[j], lifted[j], radius[j] = rho, z, 1.0 / norm + slack
    if not np.all(values[1:] - radius[1:] > values[:-1] + radius[:-1]):
        return None
    lower, upper = float(np.min(v)) - 1.0, values[-1] + radius[-1]
    count = dstebz(diag, off, 1, lower, upper, 0, 0, upper - lower, b"E")[0]
    return (values, lifted) if count == k else None


def _levels(problem: SturmLiouvilleProblem, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs on mesh n.  `_eigenpairs` solves for them on
    COARSE_POINTS * k points, and `_lift` carries them onto mesh n.  If the
    coarse mesh fails or the lift is not certified, `_eigenpairs` runs on
    mesh n itself."""
    m = COARSE_POINTS * k
    if 0 < m < n:
        try:
            lifted = _lift(problem, *_eigenpairs(problem, k, m), n)
        except ConvergenceFailure:
            lifted = None
        if lifted is not None:
            return lifted
    return _eigenpairs(problem, k, n)


def solve_lowest(problem: SturmLiouvilleProblem, k: int, mesh: int | None = None) -> np.ndarray:
    """Lowest k eigenvalues of the discretized problem."""
    return _levels(problem, k, mesh if mesh is not None else problem.mesh_size)[0]


def _relative(a: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|a - ref| relative to ref, floored at 1e-3 of the spectrum's scale."""
    scale = np.maximum(np.abs(ref), 1e-3 * float(np.max(np.abs(ref))) + 1e-300)
    return np.abs(a - ref) / scale


def _refine(
    problem: SturmLiouvilleProblem, coarse: np.ndarray, vectors: np.ndarray, n: int
) -> np.ndarray:
    """Eigenvalues on mesh n from the eigenpairs of a coarser mesh: one inverse
    iteration solve per level, shifted at its coarse value and started from its
    coarse eigenvector interpolated onto mesh n, then the Rayleigh quotient."""
    from scipy.linalg.lapack import dgtsv

    diag, off, v, h = _tridiagonal(problem, n)
    fine = np.empty(len(coarse))
    for j, (shift, z) in enumerate(zip(coarse, _interpolate(vectors, n))):
        z = dgtsv(off, diag - shift, off, z, overwrite_d=1, overwrite_b=1)[3]
        fine[j] = _rayleigh(z, v, h)[0]
    rising = np.diff(fine) > 0
    if not np.all(rising):
        j = int(np.argmin(rising)) + 1
        raise ConvergenceFailure(
            f"level {j}: refined value {fine[j]:.16g} does not exceed level {j - 1}'s "
            f"{fine[j - 1]:.16g}; shifted at coarse value {coarse[j]:.16g} "
            f"on meshes ({vectors.shape[1]}, {n})"
        )
    return fine


def _richardson_solve(problem: SturmLiouvilleProblem, k: int) -> EigenResult:
    n = problem.mesh_size
    coarse, vectors = _levels(problem, k, n)
    fine = _refine(problem, coarse, vectors, 2 * n)
    rich = (4.0 * fine - coarse) / 3.0
    delta = _relative(fine, rich)
    if not np.all(delta <= CONV_TOL):
        worst = int(np.argmax(delta))
        raise ConvergenceFailure(
            f"level {worst}: relative Richardson delta {delta[worst]:.3g} exceeds "
            f"conv_tol={CONV_TOL} on meshes ({n}, {2 * n})"
        )
    return EigenResult(fine, rich)


def _radial_solve(a: float, k: int, mesh: int) -> EigenResult:
    """Principal numbers N of the lowest k levels of
    -chi'' + [a/t^2 + t^2] chi = 4 N chi, a = l^2 - 1/4, on a domain that
    holds level k's envelope x^(l/2 + 1/4) e^(-x/2) in x = t^2."""
    x_max = exp_cutoff(1.0, 0.5 * math.sqrt(a + 0.25) + 0.25 + (k - 1), ENVELOPE_CUT)
    problem = SturmLiouvilleProblem(inv_x2=a, quad=1.0, domain=(0.0, math.sqrt(x_max)),
                                    mesh_size=mesh)
    return _richardson_solve(problem, k).scaled(lambda nu: nu / 4.0)


def _angular_solve(q1: float, q2: float, k: int, mesh: int) -> EigenResult:
    # -chi'' + [3/4 csc^2 + 2 q2/(1-cos) + 2 q1/(1+cos) - 9/4] chi = sep * chi
    problem = SturmLiouvilleProblem(csc2=0.75, inv_1m_cos=2.0 * q2, inv_1p_cos=2.0 * q1,
                                    const=-2.25, domain=(0.0, math.pi), mesh_size=mesh)
    return _richardson_solve(problem, k)


def _check_scale(hbar: float, omega: float = 1.0) -> None:
    """Reject an 8D hbar or omega that is not finite and positive, naming it."""
    for name, value in (("hbar", hbar), ("omega", omega)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


# ----------------------------------------------------------------- 5D Kepler

def kepler_radial_spectrum(
    lam: float, params: ModelParams, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k bound-state energies of the 5D radial equation at separation
    constant lam >= 0: under x = y^2, chi = (2y)^(1/2) phi, the radial-type
    operator at a = 4 lam + 35/4, with E_n = coulomb_energy(N_n)."""
    if lam < 0:
        raise ValueError(f"separation constant must be non-negative, got {lam}")
    return _radial_solve(4.0 * lam + 35.0 / 4.0, k, mesh).scaled(
        lambda N: coulomb_energy(N, params))


def kepler_radial_oracle(lam: float, params: ModelParams, k: int = 5) -> np.ndarray:
    return coulomb_energy(np.arange(k) + exponent_from_separation(lam) + 2.0, params)


def kepler_angular_spectrum(
    J: float, L: float, params: ModelParams, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k separation constants of the polar equation at labels (J, L)."""
    if J < 0 or L < 0:
        raise ValueError("J and L must be non-negative")
    return _angular_solve(sector_potential(4.0, params.c1, J, params.hbar),
                          sector_potential(4.0, params.c2, L, params.hbar), k, mesh)


def kepler_angular_oracle(J: float, L: float, params: ModelParams, k: int = 5) -> np.ndarray:
    d = delta_exponents("kepler", (params.c1, params.c2), J, L, params.hbar)
    return separation_constant(effective_exponent(np.arange(k), J, L, d))


# ------------------------------------------------------------ 8D oscillator

def oscillator_radial_spectrum(
    gamma: float, omega: float, hbar: float = 1.0, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k energies of the 8D radial equation at separation constant
    gamma >= 0: under u = (hbar / omega)^(1/2) t, chi = t^(7/2) R, the
    radial-type operator at a = gamma + 35/4."""
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    _check_scale(hbar, omega)
    return _radial_solve(gamma + 35.0 / 4.0, k, mesh).scaled(
        lambda N: oscillator_level(N, omega, hbar))


def oscillator_radial_oracle(gamma: float, omega: float, hbar: float = 1.0, k: int = 5) -> np.ndarray:
    _check_scale(hbar, omega)
    g = exponent_from_separation(gamma / 4.0)
    return oscillator_level(np.arange(k) + g + 2.0, omega, hbar)


def oscillator_angular_spectrum(
    T: float, K: float, lam1: float, lam2: float, hbar: float = 1.0, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k values of Gamma for the 8D polar equation at labels (T, K)."""
    if T < 0 or K < 0 or lam1 < 0 or lam2 < 0:
        raise ValueError("labels and couplings must be non-negative")
    _check_scale(hbar)
    return _angular_solve(sector_potential(2.0, lam1, T, hbar),
                          sector_potential(2.0, lam2, K, hbar), k, mesh).scaled(lambda g: 4.0 * g)


def oscillator_angular_oracle(
    T: float, K: float, lam1: float, lam2: float, hbar: float = 1.0, k: int = 5
) -> np.ndarray:
    _check_scale(hbar)
    d = delta_exponents("oscillator", (lam1, lam2), T, K, hbar)
    return 4.0 * separation_constant(effective_exponent(np.arange(k), T, K, d))


def cylindrical_spectrum(
    z: float, lam_coupling: float, omega: float, hbar: float = 1.0, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k single-factor energies of one 4D cylindrical sector, the
    radial-type operator at a = 4 q + 3/4 under rho = (hbar / omega)^(1/2) t."""
    if z < 0 or lam_coupling < 0:
        raise ValueError("z and lam_coupling must be non-negative")
    _check_scale(hbar, omega)
    a = 4.0 * sector_potential(2.0, lam_coupling, z, hbar) + 0.75
    return _radial_solve(a, k, mesh).scaled(lambda N: oscillator_level(N, omega, hbar))


def cylindrical_oracle(
    z: float, lam_coupling: float, omega: float, hbar: float = 1.0, k: int = 5
) -> np.ndarray:
    _check_scale(hbar, omega)
    d = shifted_exponent(2.0, lam_coupling, z, hbar)
    return oscillator_level(factor_principal_number(np.arange(k), d, z), omega, hbar)


# ------------------------------------------------------------ parabolic pair

@dataclass(frozen=True)
class ParabolicLevel:
    n1: int
    n2: int
    lam_tilde: float
    energy: float
    kappa: float


def parabolic_quantization(
    J: float, L: float, params: ModelParams, n_max: int = 2, mesh: int = 2000
) -> list[ParabolicLevel]:
    """Quantized parabolic states: for each node pair n1 + n2 <= n_max, the
    kappa at which the sector separation constants satisfy xi1 + xi2 = 0.

    Under x = y^2 sector i is the radial-type operator at a = 4 q_i + 3/4
    (q_i at f = 4) with eigenvalue 4 (xi_i + c0 / (2 hbar^2)) = 4 kappa N_i,
    so the pair is `parabolic_pair(N1, N2)` at the factor principal numbers
    N_i, Richardson-extrapolated over (mesh, 2*mesh).
    """
    if J < 0 or L < 0:
        raise ValueError("J and L must be non-negative")
    if n_max < 0:
        return []
    N1, N2 = (_radial_solve(4.0 * sector_potential(4.0, c, z, params.hbar) + 0.75,
                            n_max + 1, mesh).richardson
              for c, z in ((params.c1, J), (params.c2, L)))
    levels = []
    for n1, n2 in ((i, s - i) for s in range(n_max + 1) for i in range(s + 1)):
        kappa, lam_tilde, energy = parabolic_pair(N1[n1], N2[n2], params)
        levels.append(ParabolicLevel(n1, n2, lam_tilde, energy, kappa))
    return levels


def parabolic_oracle(n1: int, n2: int, J: float, L: float, params: ModelParams) -> float:
    return parabolic_pair_parameters(n1, n2, J, L, params)[2]
