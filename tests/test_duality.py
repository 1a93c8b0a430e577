import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopole_spectra import (
    ModelParams,
    duality,
    kepler_from_oscillator,
    oscillator_from_kepler,
    spectrum_identity_check,
)
from monopole_spectra.cli import IDENTITY_RTOL
from monopole_spectra.errors import NonNegativeEnergy
from monopole_spectra.specfun import coulomb_energy, oscillator_level


def full_grid():
    """(picture, labels, params) of every identity-check point of the label
    and coupling grid that `test_full_grid` covers."""
    for c1 in (0.0, 0.5, 1.5):
        for c2 in (0.0, 0.5, 1.5):
            params = ModelParams(1.0, c1, c2)
            for z in (0.0, 0.5, 1.0):
                for n in range(6):
                    for extra in range(6):
                        lam = int(2 * z) + extra
                        yield "hyperspherical", dict(n=n, lam=lam, J=z, L=z), params
                        yield "euler", dict(n=n, lam=lam, T=z, K=z), params
                        yield "parabolic", dict(n1=n, n2=extra, J=z, L=z), params
                        yield "cylindrical", dict(n1=n, n2=extra, T=z, K=z), params


class TestMaps:
    def test_forward_example(self):
        assert kepler_from_oscillator(4.0, 1.0, 0.0, 0.0) == (1.0, -0.125, 0.0, 0.0)

    def test_free_limit(self):
        c0, e, c1, c2 = kepler_from_oscillator(0.0, 1.0, 0.0, 0.0)
        assert c0 == 0.0 and e == -0.125

    def test_inverse_examples(self):
        assert oscillator_from_kepler(1.0, -0.125, 0.0, 0.0) == (4.0, 1.0, 0.0, 0.0)
        assert oscillator_from_kepler(1.0, -1 / 18, 0.0, 0.0)[1] == pytest.approx(2 / 3)

    def test_rejects_scattering_states(self):
        with pytest.raises(NonNegativeEnergy):
            oscillator_from_kepler(1.0, 0.0, 0.0, 0.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            kepler_from_oscillator(4.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("hbar", [0.7, 1.0, 1.6])
    @pytest.mark.parametrize("omega", [1e-3, 1.0, 1e3])
    def test_oscillator_level_maps_to_coulomb_level(self, omega, hbar):
        """Every frequency maps the 8D level at N to the 5D level at N of
        the dual c0."""
        for N in (1.0, 2.5, 7.0, 40.0):
            c0, e, _, _ = kepler_from_oscillator(oscillator_level(N, omega, hbar), omega, 0.0, 0.0)
            want = coulomb_energy(N, ModelParams(c0, hbar=hbar))
            assert abs(e - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("hbar", [0.7, 1.0, 1.6])
    @pytest.mark.parametrize("c0", [0.5, 2.0])
    def test_coulomb_level_maps_to_oscillator_level(self, c0, hbar):
        """The inverse map sends the 5D level at N to an 8D oscillator whose
        level at N is the dual epsilon."""
        params = ModelParams(c0, hbar=hbar)
        for N in (1.0, 2.5, 7.0, 40.0):
            eps, omega, _, _ = oscillator_from_kepler(c0, coulomb_energy(N, params), 0.0, 0.0)
            assert abs(oscillator_level(N, omega, hbar) - eps) <= 1e-15 * eps

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError, match="positive"):
            kepler_from_oscillator(4.0, -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        for args in ((bad, 1.0, 0.0, 0.0), (4.0, bad, 0.0, 0.0), (4.0, 1.0, 0.0, bad)):
            with pytest.raises(ValueError, match="not finite"):
                kepler_from_oscillator(*args)
        for args in ((1.0, bad, 0.0, 0.0), (bad, -0.125, 0.0, 0.0), (1.0, -0.125, bad, 0.0)):
            with pytest.raises(ValueError, match="not finite"):
                oscillator_from_kepler(*args)

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.floats(min_value=1e-3, max_value=1e3),
        omega=st.floats(min_value=1e-3, max_value=1e3),
        l1=st.floats(min_value=0.0, max_value=1e3),
        l2=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_round_trip_is_identity(self, eps, omega, l1, l2):
        c0, e, c1, c2 = kepler_from_oscillator(eps, omega, l1, l2)
        eps2, omega2, l12, l22 = oscillator_from_kepler(c0, e, c1, c2)
        for got, want in ((eps2, eps), (omega2, omega), (l12, l1), (l22, l2)):
            assert abs(got - want) <= 2.0 * np.spacing(abs(want)) + 1e-300


class TestIdentityCheck:
    def test_hyperspherical_ground(self):
        r = spectrum_identity_check(
            "hyperspherical", dict(n=0, lam=0, J=0.0, L=0.0), ModelParams(1.0)
        )
        assert r.e_picture == pytest.approx(-0.125, rel=1e-15)
        assert r.e_algebraic == pytest.approx(-0.125, rel=1e-15)
        assert r.p == 1.0
        assert r.rel_diff == 0.0

    def test_euler_chain(self):
        r = spectrum_identity_check(
            "euler", dict(n=0, lam=0, T=0.0, K=0.0), ModelParams(1.0)
        )
        assert r.e_picture == pytest.approx(-0.125, rel=1e-14)
        assert r.rel_diff <= 1e-14

    def test_cylindrical_chain(self):
        r = spectrum_identity_check(
            "cylindrical", dict(n1=0, n2=0, T=0.0, K=0.0), ModelParams(1.0)
        )
        assert r.e_picture == pytest.approx(-0.125, rel=1e-14)
        assert r.rel_diff <= 1e-14

    def test_full_grid(self):
        """All four pictures agree with the master formula to 1e-12 over the
        label/coupling grid."""
        worst = max(spectrum_identity_check(*point).rel_diff for point in full_grid())
        assert worst <= 1e-12

    def test_dual_chain_runs_the_duality_map(self, monkeypatch):
        """A map whose c0 is 1e-12 off must show in the 8D pictures."""
        exact = duality.kepler_from_oscillator

        def off_by_1e12(*args):
            c0, e, c1, c2 = exact(*args)
            return c0 * (1.0 + 1e-12), e, c1, c2

        monkeypatch.setattr(duality, "kepler_from_oscillator", off_by_1e12)
        params = ModelParams(1.0, 0.5, 1.5)
        for picture, labels in (("euler", dict(n=1, lam=2, T=0.5, K=0.5)),
                                ("cylindrical", dict(n1=1, n2=2, T=0.5, K=0.5))):
            assert spectrum_identity_check(picture, labels, params).rel_diff > IDENTITY_RTOL

    def test_hbar_invariance_of_dual_chain(self):
        r = spectrum_identity_check(
            "cylindrical", dict(n1=1, n2=2, T=0.5, K=0.5),
            ModelParams(1.3, 0.4, 0.9, hbar=0.7),
        )
        assert r.rel_diff <= 1e-13
