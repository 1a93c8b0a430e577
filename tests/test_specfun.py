import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_jacobi

from monopole_spectra import ModelParams, end_exponent, jacobi_p, kummer_poly
from monopole_spectra.errors import DomainError, ParameterPole
from monopole_spectra.specfun import (
    angular_residual,
    cylindrical_residual,
    exp_cutoff,
    kepler_radial_residual,
    oscillator_radial_residual,
    parabolic_pair,
    parabolic_pair_parameters,
    parabolic_residual,
    sector_potential,
)
from monopole_spectra.spectra import (
    cylindrical_oracle,
    kepler_angular_oracle,
    oscillator_angular_oracle,
)


class TestJacobi:
    def test_degree_zero(self):
        for a, b, x in [(0.3, -0.5, 0.0), (2, 3, 1.0), (0, 0, -1.0)]:
            assert jacobi_p(0, a, b, x) == 1.0

    def test_degree_one_closed_form(self):
        assert jacobi_p(1, 1, 1, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_against_scipy(self):
        grid = np.linspace(-1, 1, 9)
        for n in range(8):
            for a, b in [(0.0, 0.0), (1.5, 0.7), (2.236, 2.236), (-0.3, 4.0)]:
                for x in grid:
                    assert jacobi_p(n, a, b, x) == pytest.approx(
                        float(eval_jacobi(n, a, b, x)), rel=1e-11, abs=1e-11
                    )
                # on an array x: x's shape, and bitwise the per-point values
                values = jacobi_p(n, a, b, grid)
                assert values.shape == grid.shape
                assert values.tobytes() == np.array([jacobi_p(n, a, b, x) for x in grid]).tobytes()

    def test_orthogonality_by_quadrature(self):
        a, b = 0.5, 1.5
        val, _ = quad(
            lambda x: jacobi_p(2, a, b, x)
            * jacobi_p(3, a, b, x)
            * (1 - x) ** a
            * (1 + x) ** b,
            -1.0,
            1.0,
        )
        assert abs(val) <= 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            jacobi_p(2, -1.0, 0.0, 0.3)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="^n must be finite and non-negative, got -1$"):
            jacobi_p(-1, 0.5, 0.5, 0.3)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        a=st.floats(min_value=-0.9, max_value=5.0),
        b=st.floats(min_value=-0.9, max_value=5.0),
        x=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_three_term_recurrence(self, n, a, b, x):
        s = 2.0 * n + a + b
        lhs = 2.0 * n * (n + a + b) * (s - 2.0) * jacobi_p(n, a, b, x)
        rhs = (s - 1.0) * ((s * (s - 2.0)) * x + a * a - b * b) * jacobi_p(
            n - 1, a, b, x
        ) - 2.0 * (n + a - 1.0) * (n + b - 1.0) * s * jacobi_p(n - 2, a, b, x)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestKummer:
    def test_degree_zero(self):
        assert kummer_poly(0, 2.7, 5.0) == 1.0

    def test_linear(self):
        assert kummer_poly(1, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_quadratic_zero(self):
        assert kummer_poly(2, 3.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_finite_sum_oracle(self):
        # direct Pochhammer sum, independently accumulated
        def oracle(n, b, x):
            total = 0.0
            for k in range(n + 1):
                num, den = 1.0, 1.0
                for j in range(k):
                    num *= -(n - j)
                    den *= (b + j) * (j + 1)
                total += num / den * x ** k
            return total

        for n in (0, 1, 3, 6):
            for b in (0.5, 2.0, 7.3):
                for x in (-2.0, 0.3, 4.0):
                    assert kummer_poly(n, b, x) == pytest.approx(
                        oracle(n, b, x), rel=1e-12, abs=1e-12
                    )

    def test_pole(self):
        with pytest.raises(ParameterPole):
            kummer_poly(3, -1.0, 0.5)
        # pole outside the truncated series is fine
        assert kummer_poly(2, -5.0, 1.0) == pytest.approx(1 + 2 / 5 + 1 / 20)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="^n must be finite and non-negative, got -1$"):
            kummer_poly(-1, 2.0, 0.5)

    def test_kummer_ode_residual(self):
        """x W'' + (b - x) W' + n W = 0 via 4th-order finite differences.

        The stencils are exact for degree <= 4, so a moderate step keeps the
        check at rounding level without truncation error."""
        n, b = 4, 2.7
        x = np.linspace(0.5, 8.0, 301)
        h = x[1] - x[0]
        w = np.array([kummer_poly(n, b, xi) for xi in x])
        w1 = (w[:-4] - 8 * w[1:-3] + 8 * w[3:-1] - w[4:]) / (12 * h)
        w2 = (-w[:-4] + 16 * w[1:-3] - 30 * w[2:-2] + 16 * w[3:-1] - w[4:]) / (
            12 * h * h
        )
        xm, wm = x[2:-2], w[2:-2]
        res = xm * w2 + (b - xm) * w1 + n * wm
        assert np.max(np.abs(res)) <= 1e-9 * max(1.0, np.max(np.abs(wm)))


class TestEndExponent:
    def test_zero_coupling_reduction(self):
        for f in (4.0, 2.0):
            for z in (0.0, 0.5, 1.0, 2.5):
                assert end_exponent(f, 0.0, z) == 2.0 * z + 1.0

    def test_kepler_value(self):
        assert end_exponent(4.0, 2.0, 0.0) == pytest.approx(3.0, rel=1e-15)

    def test_oscillator_value(self):
        assert end_exponent(2.0, 4.0, 0.5) == pytest.approx(math.sqrt(12), rel=1e-14)

    # each reader of end exponents -> its coupling names and the call at couplings (x, y)
    READERS = {
        "kepler-angular-oracle": (("c1", "c2"), lambda x, y: kepler_angular_oracle(
            0.5, 0.5, ModelParams(1.0, x, y), 3)),
        "osc-angular-oracle": (("lambda1", "lambda2"), lambda x, y: oscillator_angular_oracle(
            0.5, 0.5, x, y, 1.0, 3)),
        "cylindrical-oracle": (("lam_coupling",), lambda x, y: cylindrical_oracle(
            0.5, x, 1.0, 1.0, 3)),
        "kepler-angular-residual": (("c1", "c2"), lambda x, y: angular_residual(
            "kepler_hyperspherical", 1, 0.5, 0.5, couplings=(x, y))),
        "osc-angular-residual": (("lambda1", "lambda2"), lambda x, y: angular_residual(
            "oscillator_euler", 1, 0.5, 0.5, couplings=(x, y))),
        "cylindrical-residual": (("lam_coupling",), lambda x, y: cylindrical_residual(
            1, 0.5, x)),
        "parabolic-residual": (("c1",), lambda x, y: parabolic_residual(
            "mu", 0, 0.0, x, 0.5, 0.0, ModelParams(1.0))),
    }

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("reader", list(READERS))
    def test_rejects_coupling(self, reader, value):
        names, call = self.READERS[reader]
        for name, couplings in zip(names, ((value, 0.0), (0.0, value))):
            with pytest.raises(ValueError,
                               match=f"^{name} must be finite and non-negative, got {value!r}$"):
                call(*couplings)

    @settings(max_examples=100, deadline=None)
    @given(
        c=st.floats(min_value=0.0, max_value=50.0),
        dc=st.floats(min_value=1e-6, max_value=10.0),
        z=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    )
    def test_monotone_in_coupling(self, c, dc, z):
        l1 = end_exponent(4.0, c, z)
        l2 = end_exponent(4.0, c + dc, z)
        assert l2 > l1 >= 2.0 * z + 1.0 - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        f=st.sampled_from([4.0, 2.0]),
        c=st.floats(min_value=0.0, max_value=50.0),
        z=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        hbar=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_sector_potential_shares_the_coupling_factor(self, f, c, z, hbar):
        """l^2 = 4 q + 1 when both take the same f."""
        l = end_exponent(f, c, z, hbar)
        q = sector_potential(f, c, z, hbar)
        assert l ** 2 == pytest.approx(4.0 * q + 1.0, rel=1e-12)


class TestParabolicPair:
    @settings(max_examples=100, deadline=None)
    @given(
        N1=st.floats(min_value=1.0, max_value=50.0),
        N2=st.floats(min_value=1.0, max_value=50.0),
        c0=st.floats(min_value=0.01, max_value=100.0),
        hbar=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_parabolic_pair(self, N1, N2, c0, hbar):
        """E = -hbar^2 kappa^2 / 2, and lam_tilde changes sign with the factors."""
        params = ModelParams(c0=c0, hbar=hbar)
        kappa, lam_tilde, energy = parabolic_pair(N1, N2, params)
        assert energy == pytest.approx(-hbar ** 2 * kappa ** 2 / 2.0, rel=1e-14)
        swapped = parabolic_pair(N2, N1, params)[1]
        scale = 2.0 * c0 / hbar ** 3
        assert abs(lam_tilde + swapped) <= 1e-14 * scale


UNIT = ModelParams(c0=1.0)


class TestAngularResidual:
    def test_constant_mode_exact(self):
        assert angular_residual("kepler_hyperspherical", 0, 0.0, 0.0) <= 1e-12

    def test_kepler_coupled(self):
        r = angular_residual("kepler_hyperspherical", 1, 0.0, 0.0, couplings=(1.0, 1.0))
        assert r <= 1e-7

    def test_oscillator_coupled(self):
        r = angular_residual("oscillator_euler", 1, 0.5, 0.5, couplings=(1.0, 1.0))
        assert r <= 1e-7

    def test_half_integer_labels(self):
        r = angular_residual("kepler_hyperspherical", 2, 0.5, 0.5, couplings=(0.3, 0.8))
        assert r <= 1e-7

    def test_degree_must_be_admissible(self):
        with pytest.raises(DomainError):
            angular_residual("kepler_hyperspherical", 0, 0.5, 0.5)

    def test_stencil_order_under_refinement(self):
        coarse = angular_residual(
            "kepler_hyperspherical", 1, 0.0, 0.0, couplings=(1.0, 1.0), n_points=1001
        )
        fine = angular_residual(
            "kepler_hyperspherical", 1, 0.0, 0.0, couplings=(1.0, 1.0), n_points=2001
        )
        order = math.log2(coarse / fine)
        assert 3.0 <= order <= 5.0


class TestRadialResiduals:
    def test_kepler_ground_state(self):
        assert kepler_radial_residual(0, 0.0, UNIT) <= 1e-8

    def test_kepler_excited_coupled(self):
        assert kepler_radial_residual(2, 1.8, ModelParams(1.0, 1.0, 1.0)) <= 1e-7

    def test_oscillator_ground_state(self):
        assert oscillator_radial_residual(0, 0.0, 1.0) <= 1e-8

    def test_oscillator_excited(self):
        assert oscillator_radial_residual(2, 1.7, 1.3) <= 1e-7

    def test_cylindrical(self):
        assert cylindrical_residual(1, 0.0, 0.0) <= 1e-8
        assert cylindrical_residual(2, 0.5, 1.0) <= 1e-7

    def test_parabolic_pair(self):
        k, lt, e = parabolic_pair_parameters(0, 0, 0.0, 0.0, UNIT)
        assert e == pytest.approx(-0.125, rel=1e-14)
        assert parabolic_residual("mu", 0, 0.0, 0.0, k, lt, UNIT) <= 1e-8
        assert parabolic_residual("nu", 0, 0.0, 0.0, k, lt, UNIT) <= 1e-8

    def test_parabolic_coupled(self):
        params = ModelParams(1.0, 0.7, 0.2)
        k, lt, e = parabolic_pair_parameters(1, 2, 0.5, 0.5, params)
        assert parabolic_residual("mu", 1, 0.5, 0.7, k, lt, params) <= 1e-7
        assert parabolic_residual("nu", 2, 0.5, 0.2, k, lt, params) <= 1e-7

    def test_stencil_order_under_refinement(self):
        coarse = kepler_radial_residual(2, 1.8, ModelParams(1.0, 1.0, 1.0), n_points=1001)
        fine = kepler_radial_residual(2, 1.8, ModelParams(1.0, 1.0, 1.0), n_points=2001)
        order = math.log2(coarse / fine)
        assert 3.0 <= order <= 5.0

    @pytest.mark.parametrize("call, name, value", [
        pytest.param(lambda: kepler_radial_residual(-2, 0.0, UNIT), "n", -2, id="kepler-radial"),
        pytest.param(lambda: oscillator_radial_residual(-1, 0.5, 1.0), "n", -1, id="osc-radial"),
        pytest.param(lambda: cylindrical_residual(-1, 0.5, 1.0), "n", -1, id="cylindrical"),
        pytest.param(lambda: parabolic_residual("mu", -1, 0.0, 0.0, 0.5, 0.0, UNIT), "n", -1,
                     id="parabolic"),
        pytest.param(lambda: parabolic_pair_parameters(-1, 0, 0.0, 0.0, UNIT), "n1", -1,
                     id="pair-n1"),
        pytest.param(lambda: parabolic_pair_parameters(0, -1, 0.0, 0.0, UNIT), "n2", -1,
                     id="pair-n2"),
    ])
    def test_rejects_negative_degree(self, call, name, value):
        message = f"{name} must be finite and non-negative, got {value}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestExpCutoff:
    @pytest.mark.parametrize("power", [0.5, 5e3, 5e4, 1e6])
    def test_meets_the_cutoff_equation(self, power):
        # above the peak x_peak = 2 p / kappa, the envelope exp(-kappa x / 2) x^p
        # falls to cut times its peak where p (y - 1 - ln y) = ln(1/cut), y = x / x_peak
        y = exp_cutoff(1.0, power, 1e-14) / (2.0 * power)
        assert y > 1.0
        assert power * (y - 1.0 - math.log(y)) == pytest.approx(math.log(1e14), rel=0, abs=1e-9)


class TestResidualScales:
    # the residuals that take hbar or omega directly, called with (omega, hbar)
    CALLS = {
        "angular": lambda w, h: angular_residual("kepler_hyperspherical", 1, 0.0, 0.0, hbar=h),
        "osc-radial": lambda w, h: oscillator_radial_residual(0, 0.0, w, h),
        "cylindrical": lambda w, h: cylindrical_residual(1, 0.0, 0.0, h),
    }

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_rejects_hbar(self, call, hbar):
        with pytest.raises(ValueError, match=f"^hbar must be finite and positive, got {hbar!r}$"):
            self.CALLS[call](1.3, hbar)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_oscillator_rejects_omega(self, omega):
        with pytest.raises(ValueError, match=f"^omega must be finite and positive, got {omega!r}$"):
            self.CALLS["osc-radial"](omega, 0.8)
