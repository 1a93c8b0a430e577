import math

import numpy as np
import pytest

from monopole_spectra import (
    GeneratorMatrices,
    ModelParams,
    QuantumNumbers,
    build_generators,
    build_rep,
    solve_unirrep,
    verify_algebra,
)
from monopole_spectra.errors import DiagonalPole
from monopole_spectra.fock import casimir_scalar

UNIT = ModelParams(c0=1.0)
ZERO = QuantumNumbers()


def make(p, params=UNIT, qn=ZERO):
    sol = solve_unirrep(p, params, qn)
    rep = build_rep(sol, qn, params)
    gen = build_generators(rep, params, qn)
    return sol, rep, gen


def dense(gen):
    """Dense A, B and C, built from the bands as an independent reference."""
    return (np.diag(gen.a), np.diag(gen.d) + np.diag(gen.o, 1) + np.diag(gen.o, -1),
            np.diag(gen.c, 1) - np.diag(gen.c, -1))


def dense_casimir(gen, rep, params, cb=None, ca=None):
    """The Casimir C^2 - 2{A, B^2} - 4B^2 + cb B + 8H A^2 + ca A by dense
    matmuls, and its terms; cb and ca default to the closing -2 g1 and 2 g2."""
    a, b, c = dense(gen)
    c0, c1, c2 = params.c0, params.c1, params.c2
    h, lsq, tsq = rep.energy_scalar, rep.lsq_scalar, rep.tsq_scalar
    if cb is None:
        cb = -2 * (-2 * c0 * (c1 - c2) - 4 * c0 * tsq)
    if ca is None:
        ca = 2 * ((16 - 4 * c1 - 4 * c2 - 4 * lsq) * h + 2 * c0 ** 2)
    b2 = b @ b
    terms = [c @ c, -2 * (a @ b2 + b2 @ a), -4 * b2, cb * b, 8 * h * (a @ a), ca * a]
    return sum(terms), terms


# The paper's printed conventions, which do not close the algebra: the
# diagonal part of B doubles the (c1 - c2) contribution of the closing
# c0 (m1^2 - m2^2) / 4 / ((n+u)^2 - 1/4); the off-diagonal weight reads the
# whole expression as rho with (n+u)^2 inside the brace, where the closing
# rho^2 = 1 / (3 2^20 (n+u)(1+n+u)(1+2(n+u))^2); and the Casimir carries the
# doubled coupling terms of the printed operator form.
def printed_generators(rep, params):
    t = rep.number_diag + rep.u
    a = t * t - 2.25
    d = (params.c0 * (params.c1 - params.c2) + params.c0 * rep.tsq_scalar) / (t * t - 0.25)
    tl = t[:-1]
    o = rep.ladder_sub / (3.0 * 2.0 ** 20 * tl * (tl + 1.0) * (1.0 + 2.0 * tl * tl))
    return GeneratorMatrices(a, d, o, (a[:-1] - a[1:]) * o)


def printed_casimir_coefficients(rep, params):
    """(cb, ca) of the printed operator Casimir."""
    c0, c1, c2 = params.c0, params.c1, params.c2
    h, lsq, tsq = rep.energy_scalar, rep.lsq_scalar, rep.tsq_scalar
    return (-2 * (4 * c0 * (c2 - c1) - 4 * c0 * tsq),
            2 * ((16 - 8 * c1 - 8 * c2) * h - 4 * lsq * h + 2 * c0 ** 2))


# admissible sector grid shared with the acceptance suite
def sector_grid():
    pts = []
    for c0 in (0.5, 1.0, 2.0):
        for c1 in (0.0, 0.5, 1.5):
            for c2 in (0.0, 0.5, 1.5):
                for l4 in (0, 1, 2):
                    for T in (0.0, 0.5, 1.0):
                        if 1.0 + 2.0 * c2 + l4 * (l4 + 2) - 2.0 * T * (T + 1) < 0:
                            continue
                        pts.append((ModelParams(c0, c1, c2), QuantumNumbers(l4, T)))
    return pts


class TestBuildRep:
    def test_p0_is_scalar(self):
        _, rep, gen = make(0)
        assert rep.dim == 1 and rep.ladder_sub.size == 0
        assert gen.a[0] == pytest.approx(0.0)  # u = 3/2: u^2 - 9/4 = 0

    def test_p1_ladder(self):
        _, rep, _ = make(1)
        assert rep.ladder_sub[0] == pytest.approx(math.sqrt(20971520.0), rel=1e-12)

    def test_ladder_closes_rep(self):
        """b kills the lowest state, b+ the highest; bb+ and b+b are the
        structure function shifted by one."""
        _, rep, _ = make(4, ModelParams(1.0, 0.5, 1.5), QuantumNumbers(1, 0.5))
        b = np.diag(rep.ladder_sub, 1)  # b|n> = sqrt(Phi(n)) |n-1>
        bd = b.T
        assert np.allclose(b[:, 0], 0.0)
        assert np.allclose(bd[:, -1], 0.0)
        bbd = b @ bd
        bdb = bd @ b
        phi = rep.ladder_sub ** 2
        assert np.allclose(np.diag(bdb)[1:], phi)
        assert bdb[0, 0] == 0.0
        assert np.allclose(np.diag(bbd)[:-1], phi)
        assert bbd[-1, -1] == 0.0

    def test_number_commutators(self):
        _, rep, _ = make(3)
        nop = np.diag(rep.number_diag)
        b = np.diag(rep.ladder_sub, 1)
        bd = b.T
        assert np.allclose(nop @ bd - bd @ nop, bd)
        assert np.allclose(nop @ b - b @ nop, -b)


class TestGenerators:
    def test_a_diagonal_values(self):
        _, rep, gen = make(2)
        assert np.allclose(gen.a, [0.0, 4.0, 10.0])

    def test_b_pure_offdiag_in_symmetric_sector(self):
        # c1 = c2 and T = 0 makes the diagonal part vanish
        _, _, gen = make(2, ModelParams(1.0, 0.7, 0.7), ZERO)
        assert np.allclose(gen.d, 0.0)

    def test_c_antisymmetric(self):
        _, _, gen = make(3, ModelParams(1.0, 0.5, 1.5), QuantumNumbers(1, 0.5))
        _, _, c = dense(gen)
        assert np.allclose(c, -c.T)

    def test_hermiticity_and_real_spectrum(self):
        _, _, gen = make(4, ModelParams(1.0, 1.5, 0.5), QuantumNumbers(2, 1.0))
        a, b, _ = dense(gen)
        assert np.allclose(a, a.T)
        assert np.allclose(b, b.T)
        eig = np.linalg.eigvals(b)
        assert np.max(np.abs(eig.imag)) < 1e-12

    def test_a_spectrum_structural(self):
        sol, rep, gen = make(5, ModelParams(1.0, 0.5, 0.0), QuantumNumbers(1, 0.5))
        want = (np.arange(6) + sol.u) ** 2 - 2.25
        assert np.array_equal(np.sort(gen.a), np.sort(want))

    def test_bands_match_dense_products(self):
        """C equals [A, B], and the Casimir the scalar `casimir_scalar` times
        the identity, when both are built from dense matmuls of the bands."""
        eps = np.finfo(float).eps
        for params, qn in sector_grid()[::9]:
            for p in range(13):
                _, rep, gen = make(p, params, qn)
                a, b, c = dense(gen)
                comm = a @ b - b @ a
                assert np.abs(c - comm).max() <= 4 * eps * np.abs(a).max() * np.abs(b).max()

                k, terms = dense_casimir(gen, rep, params)
                scale = max(np.abs(t).max() for t in terms)
                k_scalar = casimir_scalar(
                    params, rep.energy_scalar, rep.lsq_scalar, rep.tsq_scalar)
                assert np.abs(k - k_scalar * np.eye(p + 1)).max() <= 64 * eps * scale

    def test_diagonal_pole_guard(self):
        _, rep, _ = make(1)
        bad = type(rep)(
            dim=rep.dim, number_diag=rep.number_diag, ladder_sub=rep.ladder_sub,
            u=0.5, energy_scalar=rep.energy_scalar, lsq_scalar=0.0, tsq_scalar=0.0,
        )
        with pytest.raises(DiagonalPole):
            build_generators(bad, UNIT, ZERO)


class TestVerifyAlgebra:
    def test_q1_by_construction(self):
        _, rep, gen = make(3)
        rpt = verify_algebra(gen, rep, UNIT, ZERO)
        assert rpt.residual_q1 <= 1e-14

    def test_p1_undeformed_closure(self):
        _, rep, gen = make(1)
        rpt = verify_algebra(gen, rep, UNIT, ZERO)
        assert rpt.residual_q2 <= 1e-10
        assert rpt.residual_q3 <= 1e-10

    def test_calibration_constant_across_p(self):
        params, qn = ModelParams(1.0, 0.5, 1.5), QuantumNumbers(1, 0.5)
        scales = []
        for p in range(1, 7):
            _, rep, gen = make(p, params, qn)
            scales.append(verify_algebra(gen, rep, params, qn).rho_calibration)
        assert np.max(np.abs(np.array(scales) - scales[0])) <= 1e-8

    def test_grid_closure_and_calibration(self):
        """Residuals after calibration stay at rounding level across the
        admissible sector grid, p up to 12; the fitted scale never moves."""
        scales = []
        count = 0
        for params, qn in sector_grid()[::7]:
            for p in (0, 3, 12):
                _, rep, gen = make(p, params, qn)
                rpt = verify_algebra(gen, rep, params, qn)
                assert rpt.residual_q2 <= 1e-9
                assert rpt.residual_q3 <= 1e-9
                scales.append(rpt.rho_calibration)
                count += 1
        assert count >= 30
        assert np.max(np.abs(np.array(scales) - 1.0)) <= 1e-8

    def test_alt_sign_residual_measures_discrepancy(self):
        """With c1 != c2 the two printed linear-constant conventions differ
        by 2 c0 (c1 - c2); the report shows exactly one of them closing."""
        params, qn = ModelParams(1.0, 1.5, 0.0), QuantumNumbers(1, 0.5)
        _, rep, gen = make(3, params, qn)
        rpt = verify_algebra(gen, rep, params, qn)
        assert rpt.residual_q2 <= 1e-12
        assert rpt.residual_q2_alt_sign > 1e-3

    def test_printed_forms_do_not_close(self):
        """The printed diagonal/weight variants leave O(1)-ish residuals that
        no constant rescale repairs: measured, not assumed."""
        params, qn = ModelParams(1.0, 0.5, 1.5), QuantumNumbers(1, 0.5)
        _, rep, _ = make(3, params, qn)
        rpt = verify_algebra(printed_generators(rep, params), rep, params, qn)
        assert rpt.residual_q3 > 1e-3

    def test_casimir_commutes_with_generators(self):
        params, qn = ModelParams(2.0, 0.5, 0.5), QuantumNumbers(1, 0.5)
        _, rep, gen = make(6, params, qn)
        k, _ = dense_casimir(gen, rep, params)
        for m in dense(gen)[:2]:
            comm = k @ m - m @ k
            bound = 1e-9 * max(np.abs(k).max(), 1e-300) * max(np.abs(m).max(), 1e-300)
            assert np.abs(comm).max() <= bound


class TestCasimir:
    def test_p0_trivially_central(self):
        _, rep, gen = make(0)
        rpt = verify_algebra(gen, rep, UNIT, ZERO)
        assert rpt.casimir_offdiag == 0.0 and rpt.casimir_scalar_mismatch <= 1e-12

    def test_p1_diagonal_constant(self):
        _, rep, gen = make(1)
        k, _ = dense_casimir(gen, rep, UNIT)
        d = np.diag(k)
        assert abs(d[0] - d[1]) <= 1e-9 * abs(d[0])
        # closed-form value -32 H - 4 c0^2 at this sector
        assert d[0] == pytest.approx(-32.0 * (-1 / 18) - 4.0, rel=1e-12)

    def test_grid_centrality(self):
        for params, qn in sector_grid()[::11]:
            _, rep, gen = make(5, params, qn)
            rpt = verify_algebra(gen, rep, params, qn)
            assert rpt.casimir_offdiag <= 1e-9
            assert rpt.casimir_scalar_mismatch <= 1e-8

    def test_printed_coefficients_measured(self):
        """The printed operator-Casimir coefficients disagree with the
        printed scalar form once couplings are on; the check quantifies it."""
        params, qn = ModelParams(1.0, 1.5, 0.5), QuantumNumbers(1, 0.5)
        _, rep, gen = make(3, params, qn)
        cb, ca = printed_casimir_coefficients(rep, params)
        k, terms = dense_casimir(gen, rep, params, cb, ca)
        k_scalar = casimir_scalar(params, rep.energy_scalar, rep.lsq_scalar, rep.tsq_scalar)
        scale = max(abs(k_scalar), *(np.abs(t).max() for t in terms))
        assert np.abs(np.diag(k) - k_scalar).max() / scale > 1e-3

    def test_scalar_value_formula(self):
        params = ModelParams(1.3, 0.4, 0.9)
        h, lsq, tsq = -0.21, 3.0, 0.75
        want = (
            -8 * h * tsq ** 2 + 16 * lsq * h - 8 * (0.4 - 0.9) * tsq * h
            - 2 * ((0.4 - 0.9) ** 2 + 8 * (2 - 0.4 - 0.9)) * h
            + 4 * 1.3 ** 2 * lsq + 4 * 1.3 ** 2 * (0.4 + 0.9 - 1)
        )
        assert casimir_scalar(params, h, lsq, tsq) == pytest.approx(want, rel=1e-15)
