import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopole_spectra import (
    RAW_TO_FACTORED_SCALE,
    AuxExponents,
    ModelParams,
    QuantumNumbers,
    aux_exponents,
    degeneracy_count,
    energy_level,
    factored_roots,
    solve_unirrep,
    structure_function_factored,
    structure_function_raw,
    ycm_energy,
)
from monopole_spectra.errors import NegativeRadicand, NonNegativeEnergy

ZERO = QuantumNumbers()
UNIT = ModelParams(c0=1.0)


class TestAuxExponents:
    def test_undeformed_sector(self):
        m = aux_exponents(UNIT, ZERO)
        assert m.m1 == 1.0 and m.m2 == 1.0

    def test_coupled_sector(self):
        m = aux_exponents(ModelParams(1.0, 1.5, 0.5), QuantumNumbers(l4=1, T=0.5))
        assert m.m1 == pytest.approx(math.sqrt(8.5), rel=1e-15)
        assert m.m2 == pytest.approx(math.sqrt(3.5), rel=1e-15)

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicand):
            aux_exponents(UNIT, QuantumNumbers(l4=0, T=1))

    def test_hbar_enters_squared(self):
        m = aux_exponents(ModelParams(1.0, hbar=2.0), QuantumNumbers(l4=1, T=0))
        assert m.m1 ** 2 == pytest.approx(1.0 + 4.0 * 3.0)


class TestStructureFunction:
    def test_raw_value(self):
        # first bracket 2 - 16/18 = 10/9, second 16*12 = 192, times 98304
        assert structure_function_raw(1.0, 1.5, -1 / 18, UNIT, ZERO) == pytest.approx(
            20971520.0, rel=1e-14
        )

    def test_raw_zero_at_origin_root(self):
        assert structure_function_raw(0.0, 1.5, -1 / 18, UNIT, ZERO) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_factored_value(self):
        m = AuxExponents(1.0, 1.0)
        # factors 5 * (-1) * 1 * 2 * 2 * 3
        assert structure_function_factored(1.0, 1.5, -1 / 18, m, UNIT) == pytest.approx(
            -60.0, rel=1e-14
        )

    def test_factored_zero_at_u_root(self):
        m = AuxExponents(1.0, 1.0)
        assert structure_function_factored(0.0, 1.5, -1 / 18, m, UNIT) == 0.0

    def test_factored_zero_at_coulomb_root(self):
        m = AuxExponents(1.0, 1.0)
        assert structure_function_factored(2.0, 1.5, -1 / 18, m, UNIT) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_factored_rejects_positive_energy(self):
        with pytest.raises(NonNegativeEnergy):
            structure_function_factored(1.0, 1.5, 0.1, AuxExponents(1, 1), UNIT)

    @pytest.mark.parametrize(
        "params,qn",
        [
            (UNIT, ZERO),
            (ModelParams(1.0, 1.5, 0.5), QuantumNumbers(l4=1, T=0.5)),
            (ModelParams(2.0, 0.5, 1.5), QuantumNumbers(l4=2, T=1.0)),
            (ModelParams(0.5, 0.0, 1.5, hbar=0.8), QuantumNumbers(l4=1, T=0.5)),
        ],
    )
    def test_scale_bridge(self, params, qn):
        """raw == RAW_TO_FACTORED_SCALE * E * factored on a sample grid,
        relative to the polynomial scale on the sample set."""
        m = aux_exponents(params, qn)
        u, e = 1.2, -0.37
        xs = np.linspace(-2.0, 5.0, 50)
        raw = np.array([structure_function_raw(x, u, e, params, qn) for x in xs])
        want = RAW_TO_FACTORED_SCALE * e * np.array(
            [structure_function_factored(x, u, e, m, params) for x in xs]
        )
        scale = max(np.max(np.abs(raw)), np.max(np.abs(want)))
        assert np.max(np.abs(raw - want)) <= 1e-9 * scale

    def test_roots_coincide(self):
        """Numerical roots of the raw polynomial match the closed-form ones."""
        params, qn = ModelParams(1.0, 1.5, 0.5), QuantumNumbers(l4=1, T=0.5)
        m = aux_exponents(params, qn)
        u, e = 0.9, -0.21
        # a degree-6 polynomial through 7 nodes is exact up to rounding
        xs = np.linspace(-3.0, 3.0, 7)
        coeffs = np.polynomial.polynomial.polyfit(
            xs, structure_function_raw(xs, u, e, params, qn), 6)
        got = np.sort_complex(np.roots(coeffs[::-1]))
        want = np.sort_complex(factored_roots(e, m, params) - u)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


class TestSolveUnirrep:
    def test_p0(self):
        sol = solve_unirrep(0, UNIT, ZERO)
        assert sol.u == 1.5 and sol.E == pytest.approx(-0.125) and sol.phi_interior == ()

    def test_p1(self):
        sol = solve_unirrep(1, UNIT, ZERO)
        assert sol.E == pytest.approx(-1 / 18, rel=1e-15)
        assert sol.phi_interior[0] == pytest.approx(20971520.0, rel=1e-12)

    def test_p2_energy(self):
        assert solve_unirrep(2, UNIT, ZERO).E == pytest.approx(-1 / 32, rel=1e-15)

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_boundary_zeros(self, p, hbar):
        """|Phi_raw| at x = 0 and x = p+1 vanish relative to the interior."""
        params = ModelParams(1.0, 0.5, 1.5, hbar=hbar)
        qn = QuantumNumbers(l4=1, T=0.5)
        sol = solve_unirrep(p, params, qn)
        e_alg = sol.E * hbar ** 2
        lo = abs(structure_function_raw(0.0, sol.u, e_alg, params, qn))
        hi = abs(structure_function_raw(p + 1.0, sol.u, e_alg, params, qn))
        if sol.phi_interior:
            scale = max(abs(v) for v in sol.phi_interior)
        else:
            scale = abs(structure_function_raw(0.5 * (p + 1), sol.u, e_alg, params, qn))
        assert lo <= 1e-8 * scale and hi <= 1e-8 * scale

    @pytest.mark.parametrize("params, qn", [
        (UNIT, ZERO),
        (ModelParams(1.0, 0.5, 0.5), QuantumNumbers(l4=1, T=0.5)),
        (ModelParams(2.0, 1.5, 0.0), QuantumNumbers(l4=2, T=1.0)),
    ])
    def test_large_p_positivity_is_scale_free(self, params, qn):
        """Phi grows like x^6, so its values next to the x = 0 root fall
        below 1e-12 of the ladder's maximum from p ~ 2000-4000 on; each value
        is judged against its own rounding size instead."""
        sol = solve_unirrep(5000, params, qn)
        assert len(sol.phi_interior) == 5000 and min(sol.phi_interior) > 0.0

    @pytest.mark.parametrize("s1, s2", [(1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("p", [0, 2])
    def test_other_roots_give_no_unirrep(self, s1, s2, p):
        """Taking u from one of the other roots (1 +- m1 +- m2)/2 leaves either
        no E < 0 upper root at x = p+1, or a structure-function value <= 0 at
        a half-integer 1/2..p+1/2."""
        m = aux_exponents(UNIT, ZERO)
        u = 0.5 * (1.0 + s1 * m.m1 + s2 * m.m2)
        n = p + 0.5 + u  # the Coulomb root 1/2 + n sits at x = p+1
        if n > 0:
            e = -UNIT.c0 ** 2 / (2.0 * n ** 2)
            assert (structure_function_raw(np.arange(p + 1) + 0.5, u, e, UNIT, ZERO) <= 0).any()

    def test_negative_radicand_propagates(self):
        with pytest.raises(NegativeRadicand):
            solve_unirrep(1, UNIT, QuantumNumbers(l4=0, T=1))


class TestEnergyLevel:
    def test_values(self):
        m = AuxExponents(1.0, 1.0)
        assert energy_level(0, m, UNIT) == -0.125
        assert energy_level(2, m, UNIT) == -0.03125

    def test_monotone_in_p(self):
        m = AuxExponents(1.3, 0.7)
        levels = [energy_level(p, m, UNIT) for p in range(30)]
        assert all(a < b < 0 for a, b in zip(levels, levels[1:]))

    def test_hbar_scaling(self):
        m = AuxExponents(1.0, 1.0)
        assert energy_level(0, m, ModelParams(1.0, hbar=2.0)) == pytest.approx(-0.125 / 4)

    def test_matches_hyperspherical_formula_under_identification(self):
        """p = n + lam + 1 with the picture exponents as auxiliary exponents."""
        from monopole_spectra.specfun import end_exponent

        params = ModelParams(1.7, 0.5, 1.5, hbar=0.9)
        # at J = L = 0 the picture exponents are delta_i = l_i - 1
        m = AuxExponents(*(end_exponent(4.0, c, 0.0, params.hbar) - 1.0
                           for c in (params.c1, params.c2)))
        dbar = 0.5 * (m.m1 + m.m2)
        for n in range(10):
            for lam in range(10):
                pic = -params.c0 ** 2 / (
                    2.0 * params.hbar ** 2 * (n + lam + 2.0 + dbar) ** 2
                )
                alg = energy_level(n + lam + 1, m, params)
                assert alg == pytest.approx(pic, rel=1e-12)


class TestYcmEnergy:
    def test_values(self):
        assert ycm_energy(0, UNIT) == -0.125
        assert ycm_energy(2, UNIT) == pytest.approx(-1 / 18)

    def test_monotone_to_zero(self):
        vals = [ycm_energy(n, UNIT) for n in range(50)]
        assert all(a < b < 0 for a, b in zip(vals, vals[1:]))

    def test_quadratic_in_c0(self):
        assert ycm_energy(3, ModelParams(2.0)) == pytest.approx(4.0 * ycm_energy(3, UNIT))

    @pytest.mark.parametrize("hbar", [0.7, 1.6])
    @pytest.mark.parametrize("c0", [0.5, 2.0])
    def test_is_the_master_level_at_zero_couplings(self, c0, hbar):
        """Level n = 2p of the undeformed system is the master formula's
        level p in the sector l4 = T = 0."""
        params = ModelParams(c0, hbar=hbar)
        m = aux_exponents(params, ZERO)
        for p in range(10):
            assert ycm_energy(2 * p, params) == energy_level(p, m, params)


class TestDegeneracy:
    def test_examples(self):
        assert degeneracy_count(3, 0, 0) == 3
        assert degeneracy_count(1, 0.5, 0.5) == 0
        assert degeneracy_count(2, 0, 1) == 1

    def test_brute_force(self):
        for p in range(1, 21):
            for twoJ in range(7):
                for twoL in range(7):
                    J, L = twoJ / 2, twoL / 2
                    brute = sum(
                        1
                        for lam in range(p)
                        if lam >= J + L and p - 1 - lam >= 0
                    )
                    assert degeneracy_count(p, J, L) == brute

    def test_preconditions(self):
        with pytest.raises(ValueError):
            degeneracy_count(0, 0, 0)


class TestValidation:
    def test_model_params(self):
        with pytest.raises(ValueError):
            ModelParams(c0=0.0)
        with pytest.raises(ValueError):
            ModelParams(c0=1.0, c1=-0.1)
        with pytest.raises(ValueError):
            ModelParams(c0=1.0, hbar=0.0)
        with pytest.raises(ValueError):
            ModelParams(c0=float("nan"))

    def test_quantum_numbers(self):
        with pytest.raises(ValueError):
            QuantumNumbers(l4=-1)
        with pytest.raises(ValueError):
            QuantumNumbers(T=0.3)

    # name -> (what it must be, the constructor or function with x in its place)
    RULE = {
        "c0": ("positive", lambda x: ModelParams(c0=x)),
        "hbar": ("positive", lambda x: ModelParams(1.0, hbar=x)),
        "c1": ("non-negative", lambda x: ModelParams(1.0, c1=x)),
        "c2": ("non-negative", lambda x: ModelParams(1.0, c2=x)),
        "l4": ("non-negative", lambda x: QuantumNumbers(l4=x)),
        "T": ("non-negative", lambda x: QuantumNumbers(T=x)),
        "m1": ("non-negative", lambda x: AuxExponents(x, 0.0)),
        "m2": ("non-negative", lambda x: AuxExponents(0.0, x)),
        "energy_level p": ("non-negative", lambda x: energy_level(x, AuxExponents(0.0, 0.0), UNIT)),
        "solve_unirrep p": ("non-negative", lambda x: solve_unirrep(x, UNIT, ZERO)),
        "n": ("non-negative", lambda x: ycm_energy(x, UNIT)),
        "degeneracy_count p": ("positive", lambda x: degeneracy_count(x, 0.0, 0.0)),
        "J": ("non-negative", lambda x: degeneracy_count(2, x, 0.0)),
        "L": ("non-negative", lambda x: degeneracy_count(2, 0.0, x)),
    }
    CASES = [(name, value) for name, (kind, _) in RULE.items()
             for value in ([0.0] if kind == "positive" else []) + [-1.0, math.nan, math.inf, -math.inf]]

    @pytest.mark.parametrize("name, value", CASES)
    def test_one_rule_names_the_value(self, name, value):
        kind, call = self.RULE[name]
        message = f"^{name.split()[-1]} must be finite and {kind}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(value)


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(min_value=0, max_value=40),
    m1=st.floats(min_value=0.0, max_value=10.0),
    m2=st.floats(min_value=0.0, max_value=10.0),
    c0=st.floats(min_value=0.01, max_value=100.0),
)
def test_energy_level_negative_and_increasing(p, m1, m2, c0):
    params = ModelParams(c0=c0)
    m = AuxExponents(m1, m2)
    e1 = energy_level(p, m, params)
    e2 = energy_level(p + 1, m, params)
    assert e1 < e2 < 0
