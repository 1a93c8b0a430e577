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
meets one problem for every physical scale; `EigenResult.scaled` then maps
both arrays into physical units once, by the model's exact scale law.

The two Coulomb-type 5D pictures are solved through their 8D duals.  The map
x = y^2, chi = (2y)^(1/2) phi turns the 5D radial equation into the 8D radial
one at Gamma = 4 Lambda, and each parabolic sector into a cylindrical sector
at coupling 2 c_i / hbar^2; the Coulomb strength becomes the eigenvalue of
-phi'' + [a/y^2 + kappa^2 y^2] phi = nu phi.  That operator scales exactly,
nu(kappa) = kappa nu(1), so one kappa-free solve per sector gives every level
in closed form.

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
from .specfun import delta_exponents, exp_cutoff, exponent_from_separation, shifted_exponent

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


# ----------------------------------------------------------------- 5D Kepler

def kepler_radial_spectrum(
    lam: float, params: ModelParams, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k bound-state energies of the 5D radial equation at separation
    constant lam >= 0.

    Solved as the 8D radial equation at Gamma = 4 lam, hbar = omega = 1,
    whose levels eps_n give nu_n = 2 eps_n = 8 c0 / (hbar^2 kappa_n) with
    kappa_n^2 = -8 E_n / hbar^2, i.e. E_n = -8 c0^2 / (hbar^2 nu_n^2).
    """
    if lam < 0:
        raise ValueError(f"separation constant must be non-negative, got {lam}")
    return oscillator_radial_spectrum(4.0 * lam, 1.0, 1.0, k, mesh).scaled(
        lambda eps: -8.0 * params.c0 ** 2 / (params.hbar ** 2 * (2.0 * eps) ** 2))


def kepler_radial_oracle(lam: float, params: ModelParams, k: int = 5) -> np.ndarray:
    ell = exponent_from_separation(lam)
    n = np.arange(k)
    return -params.c0 ** 2 / (2.0 * params.hbar ** 2 * (n + ell + 2.0) ** 2)


def _angular_solve(q1: float, q2: float, k: int, mesh: int) -> EigenResult:
    # -chi'' + [3/4 csc^2 + 2 q2/(1-cos) + 2 q1/(1+cos) - 9/4] chi = sep * chi
    problem = SturmLiouvilleProblem(
        csc2=0.75, inv_1m_cos=2.0 * q2, inv_1p_cos=2.0 * q1, const=-2.25,
        domain=(0.0, math.pi), mesh_size=mesh,
    )
    return _richardson_solve(problem, k)


def kepler_angular_spectrum(
    J: float, L: float, params: ModelParams, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k separation constants of the polar equation at labels (J, L)."""
    if J < 0 or L < 0:
        raise ValueError("J and L must be non-negative")
    hb2 = params.hbar ** 2
    q1 = J * (J + 1.0) + params.c1 / hb2
    q2 = L * (L + 1.0) + params.c2 / hb2
    return _angular_solve(q1, q2, k, mesh)


def kepler_angular_oracle(J: float, L: float, params: ModelParams, k: int = 5) -> np.ndarray:
    d = delta_exponents("kepler", (params.c1, params.c2), J, L, params.hbar)
    s = 0.5 * (J + L + d.delta1 + d.delta2)
    m = np.arange(k)
    return (m + s) * (m + s + 3.0)


# ------------------------------------------------------------ 8D oscillator

def oscillator_radial_spectrum(
    gamma: float, omega: float, hbar: float = 1.0, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k energies of the 8D radial equation at separation constant
    gamma >= 0.

    Solved at hbar = omega = 1: u = (hbar / omega)^(1/2) t takes the operator
    to -chi'' + [(gamma + 35/4)/t^2 + t^2] chi = (2 E / (hbar omega)) chi.
    """
    if gamma < 0 or omega <= 0:
        raise ValueError("gamma must be non-negative and omega positive")
    g = exponent_from_separation(gamma / 4.0)  # gamma = 4 g (g + 3)
    # Gaussian envelope exp(-t^2 / 2) = exp(-x / 2) in x = t^2
    x_max = exp_cutoff(1.0, g + (k - 1) + 1.75, ENVELOPE_CUT)
    # chi = t^(7/2) R(t)
    problem = SturmLiouvilleProblem(
        inv_x2=gamma + 35.0 / 4.0,
        quad=1.0,
        domain=(0.0, math.sqrt(x_max)),
        mesh_size=mesh,
    )
    factor = hbar * omega / 2.0
    return _richardson_solve(problem, k).scaled(lambda e: e * factor)


def oscillator_radial_oracle(gamma: float, omega: float, hbar: float = 1.0, k: int = 5) -> np.ndarray:
    g = exponent_from_separation(gamma / 4.0)
    n = np.arange(k)
    return 2.0 * hbar * omega * (n + g + 2.0)


def oscillator_angular_spectrum(
    T: float, K: float, lam1: float, lam2: float, hbar: float = 1.0, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k values of Gamma for the 8D polar equation at labels (T, K)."""
    if T < 0 or K < 0 or lam1 < 0 or lam2 < 0:
        raise ValueError("labels and couplings must be non-negative")
    hb2 = hbar ** 2
    q1 = T * (T + 1.0) + 0.5 * lam1 / hb2
    q2 = K * (K + 1.0) + 0.5 * lam2 / hb2
    return _angular_solve(q1, q2, k, mesh).scaled(lambda g: 4.0 * g)


def oscillator_angular_oracle(
    T: float, K: float, lam1: float, lam2: float, hbar: float = 1.0, k: int = 5
) -> np.ndarray:
    d = delta_exponents("oscillator", (lam1, lam2), T, K, hbar)
    s = 0.5 * (T + K + d.delta1 + d.delta2)
    m = np.arange(k)
    return 4.0 * (m + s) * (m + s + 3.0)


def cylindrical_problem(
    z: float, lam_coupling: float, hbar: float, k: int, mesh: int
) -> SturmLiouvilleProblem:
    """One 4D cylindrical sector at hbar = omega = 1, chi = t^(3/2) f(t) with
    rho = (hbar / omega)^(1/2) t, on a domain that holds the lowest k levels.
    hbar enters only through the coupling ratio lam_coupling / hbar^2."""
    ratio = lam_coupling / hbar ** 2
    d = shifted_exponent(2.0, ratio, z)
    x_max = exp_cutoff(1.0, 0.5 * (d + z) + (k - 1) + 0.75, ENVELOPE_CUT)
    q = z * (z + 1.0) + 0.5 * ratio
    return SturmLiouvilleProblem(
        inv_x2=4.0 * q + 0.75,
        quad=1.0,
        domain=(0.0, math.sqrt(x_max)),
        mesh_size=mesh,
    )


def cylindrical_spectrum(
    z: float, lam_coupling: float, omega: float, hbar: float = 1.0, k: int = 5, mesh: int = 2000
) -> EigenResult:
    """Lowest k single-factor energies of one 4D cylindrical sector."""
    if z < 0 or lam_coupling < 0 or omega <= 0:
        raise ValueError("z, lam_coupling must be non-negative and omega positive")
    problem = cylindrical_problem(z, lam_coupling, hbar, k, mesh)
    factor = hbar * omega / 2.0
    return _richardson_solve(problem, k).scaled(lambda e: e * factor)


def cylindrical_oracle(
    z: float, lam_coupling: float, omega: float, hbar: float = 1.0, k: int = 5
) -> np.ndarray:
    d = shifted_exponent(2.0, lam_coupling, z, hbar)
    n = np.arange(k)
    return 2.0 * hbar * omega * (n + 0.5 * (d + z + 2.0))


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

    Under x = y^2 sector i is the cylindrical sector at coupling
    2 c_i / hbar^2 (hbar = omega = 1) with eigenvalue
    4 (xi_i + c0 / (2 hbar^2)) = kappa nu^i, nu^i = 2 eps^i, so
    kappa* = 4 c0 / (hbar^2 (nu^1_n1 + nu^2_n2)), E = -hbar^2 kappa*^2 / 2
    and lam_tilde = 2 xi1 / hbar, all from the sector spectra Richardson-
    extrapolated over (mesh, 2*mesh).
    """
    if J < 0 or L < 0:
        raise ValueError("J and L must be non-negative")
    hb2 = params.hbar ** 2
    if n_max < 0:
        return []
    sector1 = cylindrical_spectrum(J, 2.0 * params.c1 / hb2, 1.0, 1.0, n_max + 1, mesh)
    sector2 = cylindrical_spectrum(L, 2.0 * params.c2 / hb2, 1.0, 1.0, n_max + 1, mesh)
    levels = []
    for n1, n2 in ((i, s - i) for s in range(n_max + 1) for i in range(s + 1)):
        nu1 = 2.0 * sector1.richardson[n1]
        nu2 = 2.0 * sector2.richardson[n2]
        kappa = 4.0 * params.c0 / (hb2 * (nu1 + nu2))
        xi1 = kappa * nu1 / 4.0 - params.c0 / (2.0 * hb2)
        levels.append(
            ParabolicLevel(
                n1=n1, n2=n2, lam_tilde=2.0 * xi1 / params.hbar,
                energy=-hb2 * kappa ** 2 / 2.0, kappa=kappa,
            )
        )
    return levels


def parabolic_oracle(n1: int, n2: int, J: float, L: float, params: ModelParams) -> float:
    d = delta_exponents("kepler", (params.c1, params.c2), J, L, params.hbar)
    total = n1 + n2 + 0.5 * (d.delta1 + d.delta2 + J + L) + 2.0
    return -params.c0 ** 2 / (2.0 * params.hbar ** 2 * total ** 2)
