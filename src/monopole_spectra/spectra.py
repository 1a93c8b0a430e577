"""Finite-difference eigenvalue solvers for the separated ODEs.

Every equation is brought to symmetric Sturm-Liouville form, so the
discretized operator is a real symmetric tridiagonal matrix.  Each spectrum is
computed on the nested meshes (N, 2N+1), whose step halves exactly, and
Richardson-extrapolated.  LAPACK bisection and inverse iteration (scipy's
eigh_tridiagonal, imported on the first solve) give the lowest k eigenpairs
on a coarse mesh of 64 points per level.
Interpolated onto N, each vector is polished there at its coarse value until
the Rayleigh quotient settles; the last solve's residual gives each level an
interval, and disjoint intervals with a Sturm count of exactly k below the top
one certify the lowest k levels on N.  Should the coarse mesh fail or the
certificate not hold, LAPACK solves on N itself.  One solve from each N vector,
interpolated onto 2N+1 and shifted at the N value, gives the one on 2N+1.  Each
eigenvalue is its vector's Rayleigh quotient in energy form.

Each operator is solved in reduced units, hbar = omega = 1 (the angular ones
see the couplings only as c_i / hbar^2 and lam_i / hbar^2), so the solver
meets one problem for every physical scale.  Every singular end of every
separated equation is a/x^2 with a = l^2 - 1/4, and six pictures run through
two operators of that form: `_angular_solve(a1, a2)`, the polar equation in
the half angle phi = theta/2, -chi'' + [a2/sin^2 phi + a1/cos^2 phi] chi = nu chi,
and `_radial_solve(a)`, the 2D oscillator -chi'' + [a/t^2 + t^2] chi = 4 N chi.
A polar, cylindrical or parabolic sector has a = 4 q + 3/4; the polar
nu = 4 Lambda + 9 in 5D (Gamma + 9 in 8D) gives the radial a = nu - 1/4
(under x = y^2 in 5D).  Each picture maps nu or N to its levels once, by
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
from .params import ModelParams, require_non_negative, require_positive
from .specfun import (
    coulomb_energy, effective_exponent, end_exponent, exp_cutoff, exponent_from_separation,
    factor_principal_number, oscillator_level, parabolic_pair, parabolic_pair_parameters,
    sector_potential, separation_constant,
)

ENVELOPE_CUT = 1e-14
POLISH_RTOL = 1e-13     # settled: |change of Rayleigh quotient| <= this * its magnitude
POLISH_SOLVES = 8
COARSE_POINTS = 64      # points per level of the mesh the levels are first solved on
CONV_TOL = 1e-3         # bound on the relative Richardson delta |richardson - fine|


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """-chi'' + V(x) chi = lambda chi on (x_min, x_max), Dirichlet ends.

    V(x) = inv_x/x + inv_x2/x^2 + csc2/sin^2 x + sec2/cos^2 x + quad*x^2.
    x_min = 0 places the wall exactly at the origin (exact for solutions
    vanishing there); grid nodes are interior, so V is never evaluated at 0.
    The angular terms are singular at x = 0 and pi/2, the ends of the
    half-angle domain.
    """

    inv_x: float = 0.0
    inv_x2: float = 0.0
    csc2: float = 0.0
    sec2: float = 0.0
    quad: float = 0.0
    domain: tuple[float, float] = (0.0, 1.0)
    mesh_size: int = 2000

    def __post_init__(self) -> None:
        if self.domain[0] < 0 or self.domain[1] <= self.domain[0]:
            raise ValueError(f"domain must satisfy 0 <= x_min < x_max, got {self.domain}")
        if self.mesh_size < 3:
            raise ValueError(f"mesh_size must be at least 3, got {self.mesh_size}")

    def potential(self, x: np.ndarray) -> np.ndarray:
        v = self.inv_x / x + self.inv_x2 / (x * x)
        if self.csc2 or self.sec2:
            v = v + self.csc2 / np.sin(x) ** 2 + self.sec2 / np.cos(x) ** 2
        return v + self.quad * x * x


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

    if k > n:
        raise ValueError(f"cannot resolve {k} levels on mesh {n}: need levels <= mesh")
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
    require_positive(levels=k)
    m = COARSE_POINTS * k
    if m < n:
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
    coarse eigenvector interpolated onto mesh n, then the Rayleigh quotient.
    A level whose coarse or refined value is not finite raises OverflowError,
    before the refined levels are checked to rise."""
    from scipy.linalg.lapack import dgtsv

    diag, off, v, h = _tridiagonal(problem, n)
    fine = np.empty(len(coarse))
    for j, (shift, z) in enumerate(zip(coarse, _interpolate(vectors, n))):
        z = dgtsv(off, diag - shift, off, z, overwrite_d=1, overwrite_b=1)[3]
        fine[j] = _rayleigh(z, v, h)[0]
    finite = np.isfinite(coarse) & np.isfinite(fine)
    if not np.all(finite):
        j = int(np.argmin(finite))
        raise OverflowError(
            f"level {j}: the Richardson pair ({coarse[j]:.16g}, {fine[j]:.16g}) on meshes "
            f"({vectors.shape[1]}, {n}) is not finite")
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
    fine = _refine(problem, coarse, vectors, 2 * n + 1)
    rich = (4.0 * fine - coarse) / 3.0
    delta = _relative(fine, rich)
    if not np.all(delta <= CONV_TOL):
        worst = int(np.argmax(delta))
        raise ConvergenceFailure(
            f"level {worst}: relative Richardson delta {delta[worst]:.3g} exceeds "
            f"conv_tol={CONV_TOL} on meshes ({n}, {2 * n + 1})"
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


def _angular_solve(a1: float, a2: float, k: int, mesh: int) -> EigenResult:
    """Lowest k values nu of -chi'' + [a2/sin^2 phi + a1/cos^2 phi] chi = nu chi
    on (0, pi/2), a_i = 4 q_i + 3/4: four times the printed polar operator in
    phi = theta/2, since 3/4 csc^2 theta = 3/16 (csc^2 phi + sec^2 phi) and its
    sector terms at theta = 0 and pi become q2 csc^2 phi and q1 sec^2 phi."""
    problem = SturmLiouvilleProblem(csc2=a2, sec2=a1, domain=(0.0, 0.5 * math.pi),
                                    mesh_size=mesh)
    return _richardson_solve(problem, k)


def _end_coefficient(f: float, coupling: float, z: float, hbar: float) -> float:
    """a = 4 q + 3/4 = l^2 - 1/4 of one sector's singular end, q = `sector_potential`."""
    return 4.0 * sector_potential(f, coupling, z, hbar) + 0.75


# ----------------------------------------------------------------- 5D Kepler

def kepler_radial_spectrum(
    Lambda: float, params: ModelParams, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k bound-state energies of the 5D radial equation at separation
    constant Lambda >= 0: under x = y^2, chi = (2y)^(1/2) phi, the radial-type
    operator at a = 4 Lambda + 35/4, with E_n = coulomb_energy(N_n)."""
    require_non_negative(Lambda=Lambda)
    return _radial_solve(4.0 * Lambda + 35.0 / 4.0, k, mesh).scaled(
        lambda N: coulomb_energy(N, params))


def kepler_radial_oracle(Lambda: float, params: ModelParams, k: int = 5) -> np.ndarray:
    require_positive(levels=k)
    require_non_negative(Lambda=Lambda)
    return coulomb_energy(np.arange(k) + exponent_from_separation(Lambda) + 2.0, params)


def kepler_angular_spectrum(
    J: float, L: float, params: ModelParams, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k separation constants Lambda = (nu - 9)/4 of the polar equation
    at labels (J, L)."""
    require_non_negative(J=J, L=L)
    return _angular_solve(_end_coefficient(4.0, params.c1, J, params.hbar),
                          _end_coefficient(4.0, params.c2, L, params.hbar),
                          k, mesh).scaled(lambda nu: (nu - 9.0) / 4.0)


def kepler_angular_oracle(J: float, L: float, params: ModelParams, k: int = 5) -> np.ndarray:
    require_positive(levels=k)
    require_non_negative(J=J, L=L)
    return separation_constant(effective_exponent(
        np.arange(k), end_exponent(4.0, params.c1, J, params.hbar),
        end_exponent(4.0, params.c2, L, params.hbar)))


# ------------------------------------------------------------ 8D oscillator

def oscillator_radial_spectrum(
    Gamma: float, omega: float, hbar: float = 1.0, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k energies of the 8D radial equation at separation constant
    Gamma >= 0: under u = (hbar / omega)^(1/2) t, chi = t^(7/2) R, the
    radial-type operator at a = Gamma + 35/4."""
    require_non_negative(Gamma=Gamma)
    require_positive(hbar=hbar, omega=omega)
    return _radial_solve(Gamma + 35.0 / 4.0, k, mesh).scaled(
        lambda N: oscillator_level(N, omega, hbar))


def oscillator_radial_oracle(Gamma: float, omega: float, hbar: float = 1.0, k: int = 5) -> np.ndarray:
    require_positive(hbar=hbar, omega=omega, levels=k)
    require_non_negative(Gamma=Gamma)
    g = exponent_from_separation(Gamma / 4.0)
    return oscillator_level(np.arange(k) + g + 2.0, omega, hbar)


def oscillator_angular_spectrum(
    T: float, K: float, lambda1: float, lambda2: float, hbar: float = 1.0, k: int = 5,
    mesh: int = 2000
) -> EigenResult:
    """Lowest k values Gamma = nu - 9 of the 8D polar equation at labels (T, K)."""
    require_non_negative(T=T, K=K, lambda1=lambda1, lambda2=lambda2)
    require_positive(hbar=hbar)
    return _angular_solve(_end_coefficient(2.0, lambda1, T, hbar),
                          _end_coefficient(2.0, lambda2, K, hbar),
                          k, mesh).scaled(lambda nu: nu - 9.0)


def oscillator_angular_oracle(
    T: float, K: float, lambda1: float, lambda2: float, hbar: float = 1.0, k: int = 5
) -> np.ndarray:
    require_non_negative(T=T, K=K, lambda1=lambda1, lambda2=lambda2)
    require_positive(hbar=hbar, levels=k)
    return 4.0 * separation_constant(effective_exponent(
        np.arange(k), end_exponent(2.0, lambda1, T, hbar), end_exponent(2.0, lambda2, K, hbar)))


def cylindrical_spectrum(
    z: float, lam_coupling: float, omega: float, hbar: float = 1.0, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k single-factor energies of one 4D cylindrical sector, the
    radial-type operator at a = 4 q + 3/4 under rho = (hbar / omega)^(1/2) t."""
    require_non_negative(z=z, lam_coupling=lam_coupling)
    require_positive(hbar=hbar, omega=omega)
    return _radial_solve(_end_coefficient(2.0, lam_coupling, z, hbar), k, mesh).scaled(
        lambda N: oscillator_level(N, omega, hbar))


def cylindrical_oracle(
    z: float, lam_coupling: float, omega: float, hbar: float = 1.0, k: int = 5
) -> np.ndarray:
    require_positive(hbar=hbar, omega=omega, levels=k)
    require_non_negative(z=z, lam_coupling=lam_coupling)
    return oscillator_level(
        factor_principal_number(np.arange(k), end_exponent(2.0, lam_coupling, z, hbar)),
        omega, hbar)


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
    N_i, Richardson-extrapolated over (mesh, 2*mesh + 1).
    """
    require_non_negative(J=J, L=L, n_max=n_max)
    N1, N2 = (_radial_solve(_end_coefficient(4.0, c, z, params.hbar), n_max + 1, mesh).richardson
              for c, z in ((params.c1, J), (params.c2, L)))
    levels = []
    for n1, n2 in ((i, s - i) for s in range(n_max + 1) for i in range(s + 1)):
        kappa, lam_tilde, energy = parabolic_pair(N1[n1], N2[n2], params)
        levels.append(ParabolicLevel(n1, n2, lam_tilde, energy, kappa))
    return levels


def parabolic_oracle(n1: int, n2: int, J: float, L: float, params: ModelParams) -> float:
    return parabolic_pair_parameters(n1, n2, J, L, params)[2]
