"""Matrix realization of the deformed oscillator and the symmetry generators.

The generators close the quadratic algebra

    [A, B] = C
    [A, C] = 2{A, B} + 8 B + g1
    [B, C] = -2 B^2 + 8 H A + g2

with g1 = -2 c0 (c1 - c2) - 4 c0 T2 and
g2 = (16 - 4 c1 - 4 c2 - 4 L2) H + 2 c0^2, where H, L2, T2 are the scalar
values of the central elements on the representation.

Two printed-source conventions do not close the algebra and are kept around
as measurable alternatives (see `build_generators`):

* diagonal part of B: the closing form is c0*(m1^2-m2^2)/4 / ((n+u)^2-1/4);
  the "printed" variant doubles the (c1-c2) contribution,
* off-diagonal weight rho: the closing form satisfies
  rho^2 = 1 / (3*2^20 (n+u)(1+n+u)(1+2(n+u))^2); the "printed" variant reads
  the whole expression as rho with the square on (n+u)^2 inside the brace.

`verify_algebra` measures residuals rather than assuming any convention: it
reports the commutation residuals under both printed sign conventions for the
linear-in-B constant and fits a single scalar rescale of rho (which is 1 up
to rounding for the closing form, and cannot repair the printed one).

A is diagonal and B tridiagonal, so every product in the relations and the
Casimir lies within two diagonals of the main one.  The generators are held
as bands and every measure is computed on the bands, in O(p) time and memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import UnirrepSolution
from .errors import DiagonalPole, PositivityViolation
from .params import ModelParams, QuantumNumbers

RHO_CONSTANT = 3.0 * 2.0 ** 20


@dataclass(frozen=True)
class DeformedOscillatorRep:
    """Diagonal data of a (p+1)-dimensional deformed-oscillator unirrep.

    ladder_sub holds sqrt(Phi(n)) for n = 1..p; energy_scalar, lsq_scalar and
    tsq_scalar are the central values substituted into the algebra relations
    (energy in the hbar = 1 units of the closed forms).
    """

    dim: int
    number_diag: np.ndarray
    ladder_sub: np.ndarray
    u: float
    energy_scalar: float
    lsq_scalar: float
    tsq_scalar: float

    def number_op(self) -> np.ndarray:
        return np.diag(self.number_diag)

    def lowering(self) -> np.ndarray:
        """b with b|n> = sqrt(Phi(n)) |n-1>."""
        b = np.zeros((self.dim, self.dim))
        idx = np.arange(self.dim - 1)
        b[idx, idx + 1] = self.ladder_sub
        return b

    def raising(self) -> np.ndarray:
        return self.lowering().T


@dataclass(frozen=True)
class GeneratorMatrices:
    """The generator triple as bands: A = diag(a); B symmetric tridiagonal
    with diagonal d and off-diagonal o; C = [A, B] antisymmetric with
    C[n, n+1] = c[n] = -C[n+1, n].  A, B and C are dense views."""

    a: np.ndarray
    d: np.ndarray
    o: np.ndarray
    c: np.ndarray
    diag_form: str
    rho_form: str

    @property
    def A(self) -> np.ndarray:
        return np.diag(self.a)

    @property
    def B(self) -> np.ndarray:
        return _dense(self.d, self.o)

    @property
    def C(self) -> np.ndarray:
        return np.diag(self.c, 1) - np.diag(self.c, -1)


def _dense(diag: np.ndarray, *upper: np.ndarray) -> np.ndarray:
    """Symmetric matrix from its diagonal and its bands above it."""
    m = np.diag(diag)
    for k, band in enumerate(upper, 1):
        i = np.arange(diag.size - k)
        m[i, i + k] = m[i + k, i] = band
    return m


def _tridiagonal_product_diag(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Diagonal lower[n-1] + upper[n] of a product of two tridiagonal
    matrices, given the two products of its neighbouring entries."""
    v = np.zeros(lower.size + 1)
    v[1:] = lower
    v[:-1] += upper
    return v


@dataclass(frozen=True)
class AlgebraReport:
    """Relative residuals of the algebra relations and Casimir.

    residual_q2 uses the linear-in-B constant of the commutation relation;
    residual_q2_alt_sign the variant implied by the printed Casimir.
    residual_q3 is evaluated at the fitted rho rescale `rho_calibration`,
    residual_q3_raw at scale 1.
    """

    residual_q1: float
    residual_q2: float
    residual_q2_alt_sign: float
    residual_q3_raw: float
    residual_q3: float
    rho_calibration: float
    casimir_offdiag: float
    casimir_scalar_mismatch: float


def build_rep(
    sol: UnirrepSolution, qn: QuantumNumbers, params: ModelParams
) -> DeformedOscillatorRep:
    """Assemble the diagonal representation data from a unirrep solution."""
    p = sol.p
    # solve_unirrep evaluated the structure function at x = 1..p already
    phi = np.array(sol.phi_interior)
    if (phi <= 0.0).any():
        raise PositivityViolation("structure function non-positive on the interior")
    return DeformedOscillatorRep(
        dim=p + 1,
        number_diag=np.arange(p + 1, dtype=float),
        ladder_sub=np.sqrt(phi),
        u=sol.u,
        energy_scalar=sol.E * params.hbar ** 2,
        lsq_scalar=qn.lsq(params.hbar),
        tsq_scalar=qn.tsq(params.hbar),
    )


def _diag_part(
    t: np.ndarray, params: ModelParams, tsq: float, m1sq_minus_m2sq: float, form: str
) -> np.ndarray:
    denom = t * t - 0.25
    if (np.abs(denom) < 1e-12).any():
        raise DiagonalPole("(n+u)^2 = 1/4 for some level")
    if form == "closure":
        num = params.c0 * m1sq_minus_m2sq / 4.0
    elif form == "printed":
        num = params.c0 * (params.c1 - params.c2) + params.c0 * tsq
    else:
        raise ValueError(f"unknown diag_form {form!r}")
    return num / denom


def _rho(t: np.ndarray, form: str) -> np.ndarray:
    if form == "closure":
        return 1.0 / np.sqrt(RHO_CONSTANT * t * (t + 1.0) * (1.0 + 2.0 * t) ** 2)
    if form == "printed":
        return 1.0 / (RHO_CONSTANT * t * (t + 1.0) * (1.0 + 2.0 * t * t))
    raise ValueError(f"unknown rho_form {form!r}")


def build_generators(
    rep: DeformedOscillatorRep,
    params: ModelParams,
    qn: QuantumNumbers,
    diag_form: str = "closure",
    rho_form: str = "closure",
) -> GeneratorMatrices:
    """Banded A (diagonal), B (symmetric tridiagonal) and C = [A, B]."""
    t = rep.number_diag + rep.u
    a = t * t - 2.25
    m1sq_minus_m2sq = 2.0 * (params.c1 - params.c2) + 4.0 * rep.tsq_scalar
    d = _diag_part(t, params, rep.tsq_scalar, m1sq_minus_m2sq, diag_form)
    o = _rho(t[:-1], rho_form) * rep.ladder_sub
    return GeneratorMatrices(a, d, o, (a[:-1] - a[1:]) * o, diag_form, rho_form)


def _maxabs(*bands: np.ndarray) -> float:
    """Largest magnitude over all entries of the bands (0 if all are empty)."""
    x = bands[0] if len(bands) == 1 else np.concatenate(bands)
    return float(np.maximum.reduce(np.abs(x), initial=0.0))


def _c_magnitude(gen: GeneratorMatrices) -> np.ndarray:
    """(|a_n| + |a_{n+1}|) |o_n|: c_n = (a_n - a_{n+1}) o_n is known only to
    eps times this magnitude, however far a_n - a_{n+1} cancels."""
    return (np.abs(gen.a[:-1]) + np.abs(gen.a[1:])) * np.abs(gen.o)


def _g1_constants(params: ModelParams, tsq: float) -> tuple[float, float]:
    """Linear-in-B constants: (commutation-relation form, Casimir-implied form)."""
    g1 = -2.0 * params.c0 * (params.c1 - params.c2) - 4.0 * params.c0 * tsq
    g1_alt = -4.0 * params.c0 * (params.c1 - params.c2) - 4.0 * params.c0 * tsq
    return g1, g1_alt


def _g2_constant(params: ModelParams, h: float, lsq: float) -> float:
    return (16.0 - 4.0 * params.c1 - 4.0 * params.c2 - 4.0 * lsq) * h + 2.0 * params.c0 ** 2


def _b_square(gen: GeneratorMatrices) -> tuple[np.ndarray, ...]:
    """D^2, {D, O} (band 1) and O^2 (diagonal, band 2), the pieces of
    B_s^2 = D^2 + s {D, O} + s^2 O^2 for B_s = D + s O."""
    d, o = gen.d, gen.o
    o2 = o * o
    return d * d, (d[:-1] + d[1:]) * o, _tridiagonal_product_diag(o2, o2), o[:-1] * o[1:]


def verify_algebra(
    gen: GeneratorMatrices,
    rep: DeformedOscillatorRep,
    params: ModelParams,
    qn: QuantumNumbers,
) -> AlgebraReport:
    """Measure the commutation-relation residuals of the generator triple.

    Diagnostic: large residuals are data, not failure.  The q1 residual is
    the max-norm of the residual matrix over the max-norm of C; q2, q3 and the
    Casimir's off-diagonal are the largest entry of the residual relative to
    the magnitudes of the products that form that entry, so rounding counts
    at each entry's own scale.
    """
    a, d, o, c = gen.a, gen.d, gen.o, gen.c
    h = rep.energy_scalar
    g1, g1_alt = _g1_constants(params, rep.tsq_scalar)
    g2 = _g2_constant(params, h, rep.lsq_scalar)
    # [A, X] and {A, X} on band 1 scale X's band by these
    a_diff, a_sum = a[:-1] - a[1:], a[:-1] + a[1:]

    q1 = _maxabs(c - a_diff * o) / max(_maxabs(c), 1e-300)

    # [A, C] - 2{A, B} - 8B - g1: diagonal -4ad - 8d - g1, band 1 below.
    # Like q3, each entry is measured against the summed magnitudes of the
    # terms that form it, a_n - a_{n+1} counting as |a_n| + |a_{n+1}|
    abs_a, abs_d, abs_o, abs_c = np.abs(a), np.abs(d), np.abs(o), np.abs(c)
    c_2o = abs_c + 2.0 * abs_o
    q2_band = _maxabs((a_diff * c - 2.0 * a_sum * o - 8.0 * o)
                      / np.maximum((abs_a[:-1] + abs_a[1:]) * c_2o + 8.0 * abs_o, 1e-300))
    ad4, d8 = 4.0 * a * d, 8.0 * d
    q2_diag = -ad4 - d8
    q2_diag_mag = np.abs(ad4) + np.abs(d8)

    def q2_at(g: float) -> float:
        return max(_maxabs((q2_diag - g) / np.maximum(q2_diag_mag + abs(g), 1e-300)), q2_band)

    # the q3 residual is r0 + s r1 + s^2 r2 at the rho rescale s, with
    # B_s = D + s O and C_s = s C1: r0 = 2D^2 - 8HA - g2 (diagonal),
    # r1 = [D, C1] + 2{D, O} (band 1), r2 = [O, C1] + 2O^2 (diagonal, band 2)
    dd, do, oo0, oo2 = _b_square(gen)
    dc = (d[:-1] - d[1:]) * c
    oc = o * c
    oc0 = 2.0 * _tridiagonal_product_diag(oc, -oc)
    oc2 = o[:-1] * c[1:] - c[:-1] * o[1:]
    r0 = 2.0 * dd - 8.0 * h * a - g2
    r1 = dc + 2.0 * do
    r2_diag, r2_band = oc0 + 2.0 * oo0, oc2 + 2.0 * oo2
    n1, n2 = float(r1 @ r1), float(r2_band @ r2_band)
    # each entry is measured against the summed magnitudes of the products
    # that form it, before they cancel, so its rounding counts at its own scale;
    # in r2, as in the Casimir's band 2, c counts at its rounding magnitude
    c_mag = _c_magnitude(gen)
    abs_oc = abs_o * c_mag
    m0 = 2.0 * dd + np.abs(8.0 * h * a) + abs(g2)
    m2_diag = 2.0 * _tridiagonal_product_diag(abs_oc, abs_oc) + 2.0 * oo0
    m1 = (abs_d[:-1] + abs_d[1:]) * c_2o
    m2_band = abs_o[:-1] * c_mag[1:] + c_mag[:-1] * abs_o[1:] + 2.0 * np.abs(oo2)
    q3_bands = max(_maxabs(r1 / np.maximum(m1, 1e-300)),
                   _maxabs(r2_band / np.maximum(m2_band, 1e-300)))

    def q3_at(s: float) -> tuple[float, float]:
        """(||residual||_F^2, q3 residual) at rescale s; the bands above the
        diagonal count twice in the Frobenius norm, and vanish at s = 0."""
        s2 = s * s
        res_diag = r0 + s2 * r2_diag
        cost = float(res_diag @ res_diag) + 2.0 * s2 * (n1 + s2 * n2)
        diag = _maxabs(res_diag / np.maximum(m0 + s2 * m2_diag, 1e-300))
        return cost, max(diag, q3_bands) if s else diag

    # r1 shares no entry with r0 or r2, so the cost is even in s and its
    # stationary points are s = 0 and s^2 = -c1/c3.  The sign of the
    # off-diagonal weight is a basis gauge (|n> -> (-1)^n |n>); among
    # near-tied minima prefer the representative closest to +1.
    c1 = 2.0 * (n1 + float(r0 @ r2_diag))
    c3 = 2.0 * (float(r2_diag @ r2_diag) + 2.0 * n2)
    cands = {1.0} if c3 < 1e-300 else {1.0, 0.0, math.sqrt(max(-c1 / c3, 0.0))}
    evals = {s: q3_at(s) for s in cands}
    best = min(cost for cost, _ in evals.values())
    s_fit = min((s for s, (cost, _) in evals.items() if cost <= best * (1.0 + 1e-6) + 1e-300),
                key=lambda s: abs(s - 1.0))

    terms = _casimir_terms(gen, rep, params, s_fit, "closure", (dd, do, oo0, oo2))
    offdiag, scalar_mismatch = _casimir_measures(terms, gen, rep, params, s_fit)
    return AlgebraReport(
        residual_q1=q1,
        residual_q2=q2_at(g1),
        residual_q2_alt_sign=q2_at(g1_alt),
        residual_q3_raw=evals[1.0][1],
        residual_q3=evals[s_fit][1],
        rho_calibration=s_fit,
        casimir_offdiag=offdiag,
        casimir_scalar_mismatch=scalar_mismatch,
    )


def casimir_scalar(params: ModelParams, h: float, lsq: float, tsq: float) -> float:
    """Scalar value of the Casimir on a representation with central values
    (h, lsq, tsq)."""
    c0, c1, c2 = params.c0, params.c1, params.c2
    return (
        -8.0 * h * tsq ** 2
        + 16.0 * lsq * h
        - 8.0 * (c1 - c2) * tsq * h
        - 2.0 * ((c1 - c2) ** 2 + 8.0 * (2.0 - c1 - c2)) * h
        + 4.0 * c0 ** 2 * lsq
        + 4.0 * c0 ** 2 * (c1 + c2 - 1.0)
    )


def _casimir_terms(
    gen: GeneratorMatrices,
    rep: DeformedOscillatorRep,
    params: ModelParams,
    rho_scale: float,
    coefficients: str,
    b_square: tuple[np.ndarray, ...],
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Terms of the Casimir at B_s = D + s O, s = rho_scale, as (diagonal,
    band 1, band 2) lists; C_s = s C1 and B_s^2 comes from `_b_square`."""
    a, d, o, c = gen.a, gen.d, gen.o, gen.c
    h = rep.energy_scalar
    tsq, lsq = rep.tsq_scalar, rep.lsq_scalar
    g1, _ = _g1_constants(params, tsq)
    if coefficients == "closure":
        cb = -2.0 * g1
        ca = 2.0 * _g2_constant(params, h, lsq)
    elif coefficients == "printed":
        cb = -2.0 * (4.0 * params.c0 * (params.c2 - params.c1) - 4.0 * params.c0 * tsq)
        ca = 2.0 * (
            (16.0 - 8.0 * params.c1 - 8.0 * params.c2) * h - 4.0 * lsq * h
            + 2.0 * params.c0 ** 2
        )
    else:
        raise ValueError(f"unknown coefficients {coefficients!r}")
    s, s2 = rho_scale, rho_scale * rho_scale
    dd, do, oo0, oo2 = b_square
    b2_0, b2_1, b2_2 = dd + s2 * oo0, s * do, s2 * oo2
    c2 = c * c
    # C_s^2, -2{A, B_s^2}, -4 B_s^2, cb B_s, 8H A^2, ca A, band by band
    diag = [-s2 * _tridiagonal_product_diag(c2, c2), -4.0 * a * b2_0, -4.0 * b2_0,
            cb * d, 8.0 * h * (a * a), ca * a]
    band1 = [-2.0 * (a[:-1] + a[1:]) * b2_1, -4.0 * b2_1, (cb * s) * o]
    band2 = [s2 * (c[:-1] * c[1:]), -2.0 * (a[:-2] + a[2:]) * b2_2, -4.0 * b2_2]
    return diag, band1, band2


def casimir_matrix(
    gen: GeneratorMatrices,
    rep: DeformedOscillatorRep,
    params: ModelParams,
    rho_scale: float = 1.0,
    coefficients: str = "closure",
) -> np.ndarray:
    """Cubic Casimir combination of the generators, as a dense matrix.

    coefficients="closure" ties the linear coefficients to the commutation
    constants (-2 g1 on B, 2 g2 on A); "printed" uses the doubled coupling
    terms of the printed operator form.
    """
    terms = _casimir_terms(gen, rep, params, rho_scale, coefficients, _b_square(gen))
    return _dense(*(sum(band[1:], band[0]) for band in terms))


def _casimir_measures(
    terms: tuple[list[np.ndarray], ...],
    gen: GeneratorMatrices,
    rep: DeformedOscillatorRep,
    params: ModelParams,
    rho_scale: float,
) -> tuple[float, float]:
    diag, band1, band2 = (sum(band[1:], band[0]) for band in terms)
    k_scalar = casimir_scalar(params, rep.energy_scalar, rep.lsq_scalar, rep.tsq_scalar)
    scale = max(abs(k_scalar), _maxabs(*terms[0], *terms[1], *terms[2]), 1e-300)
    # each off-diagonal entry is measured against the summed magnitudes of
    # its terms; band 2's first term, C_s^2 = s^2 c_n c_{n+1}, counts c's
    # rounding magnitude for each factor in turn
    abs_c = np.abs(gen.c)
    c_mag = _c_magnitude(gen)
    mag1 = sum(np.abs(t) for t in terms[1])
    mag2 = (rho_scale ** 2 * (c_mag[:-1] * abs_c[1:] + abs_c[:-1] * c_mag[1:])
            + sum(np.abs(t) for t in terms[2][1:]))
    offdiag = max(_maxabs(band1 / np.maximum(mag1, 1e-300)),
                  _maxabs(band2 / np.maximum(mag2, 1e-300)))
    return offdiag, _maxabs(diag - k_scalar) / scale


def casimir_check(
    gen: GeneratorMatrices,
    rep: DeformedOscillatorRep,
    params: ModelParams,
    qn: QuantumNumbers,
    rho_scale: float = 1.0,
    coefficients: str = "closure",
) -> tuple[float, float]:
    """(largest off-diagonal entry relative to the magnitudes of its terms,
    max diagonal deviation from the scalar Casimir, relative)."""
    terms = _casimir_terms(gen, rep, params, rho_scale, coefficients, _b_square(gen))
    return _casimir_measures(terms, gen, rep, params, rho_scale)
