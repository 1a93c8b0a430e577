import math

import numpy as np
import pytest

from monopole_spectra import ModelParams, cli, spectra
from monopole_spectra.cli import ODE_RTOL, relative_errors
from monopole_spectra.errors import ConvergenceFailure
from monopole_spectra.spectra import (
    SturmLiouvilleProblem,
    cylindrical_oracle,
    cylindrical_spectrum,
    kepler_angular_oracle,
    kepler_angular_spectrum,
    kepler_radial_oracle,
    kepler_radial_spectrum,
    oscillator_angular_oracle,
    oscillator_angular_spectrum,
    oscillator_radial_oracle,
    oscillator_radial_spectrum,
    parabolic_oracle,
    parabolic_quantization,
    solve_lowest,
)

UNIT = ModelParams(c0=1.0)


def assert_matches_oracle(result, want, tol=1e-6):
    rel = relative_errors(result.richardson, want)
    assert np.max(rel) <= tol, (result.richardson, want, rel)


class TestKeplerRadial:
    def test_ground_states_vs_oracle(self):
        res = kepler_radial_spectrum(0.0, UNIT, k=3, mesh=2000)
        want = kepler_radial_oracle(0.0, UNIT, 3)
        assert res.richardson[0] == pytest.approx(-0.125, rel=1e-6)
        assert res.richardson[1] == pytest.approx(-1 / 18, rel=1e-6)
        assert_matches_oracle(res, want)

    def test_coupling_separation_constant(self):
        lam = 5.23606797749979  # lowest angular value at c1=c2=1
        p = ModelParams(1.0, 1.0, 1.0)
        res = kepler_radial_spectrum(lam, p, k=4, mesh=2000)
        assert_matches_oracle(res, kepler_radial_oracle(lam, p, 4))

    def test_c0_scaling(self):
        """Doubling c0 scales every eigenvalue by four."""
        e1 = kepler_radial_spectrum(0.0, UNIT, k=3, mesh=1500).richardson
        e2 = kepler_radial_spectrum(0.0, ModelParams(2.0), k=3, mesh=1500).richardson
        assert np.allclose(e2, 4.0 * e1, rtol=1e-6)

    def test_level_count_below_threshold(self):
        res = kepler_radial_spectrum(0.0, UNIT, k=6, mesh=2000)
        want = kepler_radial_oracle(0.0, UNIT, 6)
        threshold = 0.5 * (want[4] + want[5])
        assert np.sum(res.richardson < threshold) == 5

    def test_convergence_order(self):
        errs = {}
        for mesh in (500, 1000, 2000):
            got = kepler_radial_spectrum(0.0, UNIT, k=1, mesh=mesh).eigenvalues[0]
            errs[mesh] = abs(got - (-0.125))
        slope = math.log2(errs[500] / errs[1000])
        slope2 = math.log2(errs[1000] / errs[2000])
        assert 1.6 <= slope <= 2.4 and 1.6 <= slope2 <= 2.4

    def test_strict_convergence_failure(self):
        with pytest.raises(ConvergenceFailure):
            kepler_radial_spectrum(0.0, UNIT, k=3, mesh=10)


class TestKeplerAngular:
    def test_free_labels(self):
        res = kepler_angular_spectrum(0.0, 0.0, UNIT, k=4, mesh=2000)
        assert np.allclose(res.richardson, [0.0, 4.0, 10.0, 18.0], atol=2e-5)

    def test_coupled(self):
        p = ModelParams(1.0, 1.0, 1.0)
        res = kepler_angular_spectrum(0.0, 0.0, p, k=3, mesh=2000)
        want = kepler_angular_oracle(0.0, 0.0, p, 3)
        assert want[0] == pytest.approx(3.0 + math.sqrt(5.0), rel=1e-14)
        assert_matches_oracle(res, want)

    def test_half_integer_lowest(self):
        res = kepler_angular_spectrum(0.5, 0.5, UNIT, k=1, mesh=2000)
        assert res.richardson[0] == pytest.approx(4.0, abs=1e-5)


class TestOscillator:
    def test_radial_free(self):
        res = oscillator_radial_spectrum(0.0, 1.0, k=3, mesh=2000)
        assert res.richardson[0] == pytest.approx(4.0, rel=1e-7)
        assert res.richardson[1] == pytest.approx(6.0, rel=1e-7)
        assert res.richardson[2] == pytest.approx(8.0, rel=1e-7)

    def test_radial_gamma40(self):
        res = oscillator_radial_spectrum(40.0, 1.0, k=1, mesh=2000)
        assert res.richardson[0] == pytest.approx(8.0, rel=1e-7)

    def test_radial_omega_hbar(self):
        res = oscillator_radial_spectrum(12.0, 1.3, 0.8, k=4, mesh=2000)
        assert_matches_oracle(res, oscillator_radial_oracle(12.0, 1.3, 0.8, 4))

    def test_angular_free(self):
        res = oscillator_angular_spectrum(0.0, 0.0, 0.0, 0.0, k=3, mesh=2000)
        assert np.allclose(res.richardson, [0.0, 16.0, 40.0], atol=1e-4)

    def test_angular_half_integer(self):
        res = oscillator_angular_spectrum(0.5, 0.5, 0.0, 0.0, k=1, mesh=2000)
        assert res.richardson[0] == pytest.approx(16.0, rel=1e-6)

    def test_angular_coupled(self):
        res = oscillator_angular_spectrum(0.5, 0.0, 2.0, 1.0, k=4, mesh=2000)
        assert_matches_oracle(res, oscillator_angular_oracle(0.5, 0.0, 2.0, 1.0, 1.0, 4))


class TestCylindrical:
    def test_free_sector(self):
        res = cylindrical_spectrum(0.0, 0.0, 1.0, k=3, mesh=2000)
        assert np.allclose(res.richardson, [2.0, 4.0, 6.0], rtol=1e-6)

    def test_half_integer_sector(self):
        res = cylindrical_spectrum(0.5, 0.0, 1.0, k=1, mesh=2000)
        assert res.richardson[0] == pytest.approx(3.0, rel=1e-6)

    def test_two_sector_ground_sum(self):
        e1 = cylindrical_spectrum(0.0, 0.0, 1.0, k=1, mesh=1500).richardson[0]
        assert 2.0 * e1 == pytest.approx(4.0, rel=1e-6)

    def test_coupled(self):
        res = cylindrical_spectrum(1.0, 2.5, 0.7, 1.1, k=4, mesh=2000)
        assert_matches_oracle(res, cylindrical_oracle(1.0, 2.5, 0.7, 1.1, 4))


class TestParabolic:
    def test_free_pairs(self):
        levels = parabolic_quantization(0.0, 0.0, UNIT, n_max=1, mesh=2000)
        by_pair = {(l.n1, l.n2): l.energy for l in levels}
        assert by_pair[(0, 0)] == pytest.approx(-0.125, rel=1e-6)
        assert by_pair[(1, 0)] == pytest.approx(-1 / 18, rel=1e-6)
        assert by_pair[(0, 1)] == pytest.approx(-1 / 18, rel=1e-6)

    def test_coupled_pairs(self):
        p = ModelParams(1.0, 0.5, 0.5)
        levels = parabolic_quantization(0.5, 0.5, p, n_max=1, mesh=3000)
        for l in levels:
            want = parabolic_oracle(l.n1, l.n2, 0.5, 0.5, p)
            assert l.energy == pytest.approx(want, rel=1e-6)

    def test_matches_hyperspherical_degeneracy(self):
        """Parabolic (n1, n2) and hyperspherical (n, lam) energies coincide
        whenever n + lam = n1 + n2 at J = L = 0."""
        levels = parabolic_quantization(0.0, 0.0, UNIT, n_max=2, mesh=2000)
        radial = kepler_radial_spectrum(0.0, UNIT, k=3, mesh=2000).richardson
        for l in levels:
            s = l.n1 + l.n2
            # hyperspherical (n = s, lam = 0) sits in the lam = 0 radial tower
            assert l.energy == pytest.approx(radial[s], rel=2e-6)

    def test_coupled_free_labels_within_ode_rtol(self):
        p = ModelParams(1.0, 0.75, 0.54)
        levels = parabolic_quantization(0.0, 0.0, p, n_max=2, mesh=4000)
        got = [l.energy for l in levels]
        want = [parabolic_oracle(l.n1, l.n2, 0.0, 0.0, p) for l in levels]
        assert np.max(relative_errors(got, want)) <= ODE_RTOL

    def test_lam_tilde_antisymmetry(self):
        """Swapping the sectors flips the separation constant."""
        def by_pair(params):
            return {(l.n1, l.n2): l
                    for l in parabolic_quantization(0.0, 0.0, params, n_max=1, mesh=2000)}

        a = by_pair(ModelParams(1.0, 0.8, 0.2))[1, 0]
        b = by_pair(ModelParams(1.0, 0.2, 0.8))[0, 1]
        assert a.energy == pytest.approx(b.energy, rel=1e-9)
        assert a.lam_tilde == pytest.approx(-b.lam_tilde, rel=1e-6)


class TestParabolicNodeCounts:
    def test_index_equals_node_count(self, monkeypatch):
        """The n-th eigenfunction of the mapped sector operator (the
        radial-type operator at a = 4 q + 3/4, q at f = 4) has n interior sign
        changes, so indexing the sector spectrum is the node-count labelling."""
        from scipy.linalg import eigh_tridiagonal

        solves = TestRefinement.solves(monkeypatch, lambda: parabolic_quantization(
            0.5, 0.0, ModelParams(1.0, 0.7), n_max=3, mesh=1200))
        prob = solves[0][0]
        assert prob.inv_x2 == 4.0 * (0.5 * 1.5 + 0.7) + 0.75
        diag, off, _, _ = spectra._tridiagonal(prob, prob.mesh_size)
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
        for idx in range(4):
            v = vecs[:, idx]
            significant = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
            nodes = int(np.sum(np.diff(np.sign(significant)) != 0))
            assert nodes == idx


class TestExactScaling:
    """E(s c0) = s^2 E(c0) and E -> E / s^2 under hbar -> s hbar at fixed
    c_i / hbar^2 hold to rounding: both Coulomb-type pictures solve a
    scale-free operator once and apply the physical scale in closed form."""

    P = ModelParams(0.8, 0.3, 0.4)
    S = 1.7

    def scaled_hbar(self):
        s2 = self.S ** 2
        return ModelParams(self.P.c0, self.P.c1 * s2, self.P.c2 * s2, self.S)

    def test_kepler_radial(self):
        base = kepler_radial_spectrum(1.3, self.P, k=5, mesh=2000).richardson
        c0 = kepler_radial_spectrum(1.3, ModelParams(37.0 * 0.8, 0.3, 0.4), k=5,
                                    mesh=2000).richardson
        hb = kepler_radial_spectrum(1.3, self.scaled_hbar(), k=5, mesh=2000).richardson
        np.testing.assert_allclose(c0, 37.0 ** 2 * base, rtol=1e-14, atol=0)
        np.testing.assert_allclose(hb, base / self.S ** 2, rtol=1e-14, atol=0)

    def test_parabolic(self):
        def energies(params):
            return np.array([l.energy for l in
                             parabolic_quantization(0.5, 1.0, params, n_max=2, mesh=2000)])

        base = energies(self.P)
        c0 = energies(ModelParams(37.0 * 0.8, 0.3, 0.4))
        hb = energies(self.scaled_hbar())
        np.testing.assert_allclose(c0, 37.0 ** 2 * base, rtol=1e-14, atol=0)
        np.testing.assert_allclose(hb, base / self.S ** 2, rtol=1e-14, atol=0)


class TestExactScaling8D:
    """The 8D energies are linear in omega at fixed hbar, and the angular
    spectra depend on the couplings only through c_i/hbar^2 and lam_i/hbar^2.
    The radial operators are posed at hbar = omega = 1, so every scale hands
    the solver one and the same problem, and the energies are hbar omega
    times its values to rounding."""

    W = 3.7
    S = 1.7

    @staticmethod
    def assert_linear_in_hbar_omega(monkeypatch, spectrum, scales):
        """spectrum(omega, hbar) at each (omega, hbar) of scales is hbar omega
        times one spectrum, and every call hands the Richardson solver the
        same (problem, k)."""
        values = []
        solves = TestRefinement.solves(
            monkeypatch, lambda: values.extend(spectrum(w, h).richardson for w, h in scales))
        (w0, h0), base = scales[0], values[0]
        for (w, h), got in zip(scales, values):
            np.testing.assert_allclose(got, w * h / (w0 * h0) * base, rtol=1e-13, atol=0)
        problems = {(problem, k) for problem, k, _ in solves}
        assert len(problems) == 1, problems

    @pytest.mark.parametrize("mesh", [2000, 4000, 8000])
    def test_osc_radial_linear_in_omega(self, mesh, monkeypatch):
        self.assert_linear_in_hbar_omega(
            monkeypatch, lambda w, h: oscillator_radial_spectrum(12.0, w, h, 5, mesh),
            [(1.3, 0.8), (self.W * 1.3, 0.8), (0.3, 0.5), (7.0, 2.0), (1.0, 1.0)])

    @pytest.mark.parametrize("mesh", [2000, 4000, 8000])
    def test_cylindrical_linear_in_omega(self, mesh, monkeypatch):
        self.assert_linear_in_hbar_omega(
            monkeypatch, lambda w, h: cylindrical_spectrum(1.0, 2.5, w, h, 5, mesh),
            [(0.7, 1.1), (self.W * 0.7, 1.1), (0.3, 1.1), (7.0, 1.1)])

    def test_angular_spectra_depend_on_couplings_over_hbar2(self):
        s2 = self.S ** 2
        kepler = [kepler_angular_spectrum(0.5, 1.0, p, 5, 2000).richardson
                  for p in (ModelParams(1.0, 0.7, 0.3),
                            ModelParams(1.0, 0.7 * s2, 0.3 * s2, self.S))]
        osc = [oscillator_angular_spectrum(0.5, 0.0, 2.0 * f, 1.0 * f, h, 5, 2000).richardson
               for f, h in ((1.0, 1.0), (s2, self.S))]
        for base, scaled in (kepler, osc):
            np.testing.assert_allclose(scaled, base, rtol=1e-13, atol=0)


class TestScaleValidation:
    """The 8D solvers and their oracles reject an hbar that is not positive
    and an hbar or omega that is not finite, naming the value."""

    CALLS = {
        "osc-radial": lambda w, h: oscillator_radial_spectrum(12.0, w, h, 3, 500),
        "osc-radial-oracle": lambda w, h: oscillator_radial_oracle(12.0, w, h, 3),
        "cylindrical": lambda w, h: cylindrical_spectrum(1.0, 2.5, w, h, 3, 500),
        "cylindrical-oracle": lambda w, h: cylindrical_oracle(1.0, 2.5, w, h, 3),
        "osc-angular": lambda w, h: oscillator_angular_spectrum(0.5, 0.0, 2.0, 1.0, h, 3, 500),
        "osc-angular-oracle": lambda w, h: oscillator_angular_oracle(0.5, 0.0, 2.0, 1.0, h, 3),
    }

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("call", list(CALLS))
    def test_rejects_hbar(self, call, hbar):
        with pytest.raises(ValueError, match=f"^hbar must be finite and positive, got {hbar!r}$"):
            self.CALLS[call](1.3, hbar)

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [c for c in CALLS if "angular" not in c])
    def test_rejects_omega(self, call, omega):
        with pytest.raises(ValueError, match=f"^omega must be finite and positive, got {omega!r}$"):
            self.CALLS[call](omega, 0.8)


class TestIndependentOfClosedForms:
    """The radial-type solves read only the coefficient of the printed
    equation, never the closed-form exponents the oracles use: shifting those
    exponents leaves every solve bitwise as it was, and fails the oracle
    comparison."""

    RUNS = {
        "kepler-radial": lambda: kepler_radial_spectrum(1.3, TestRefinement.P, 5, 2000).richardson,
        "osc-radial": lambda: oscillator_radial_spectrum(12.0, 1.3, 0.8, 5, 2000).richardson,
        "cylindrical": lambda: cylindrical_spectrum(1.0, 2.5, 0.7, 1.1, 5, 2000).richardson,
        "parabolic": lambda: [l.energy for l in parabolic_quantization(
            0.5, 1.0, TestRefinement.P, n_max=2, mesh=2000)],
    }

    @staticmethod
    def shift_exponents(monkeypatch):
        for name in ("shifted_exponent", "exponent_from_separation"):
            real = getattr(spectra, name)
            monkeypatch.setattr(spectra, name,
                                lambda *args, real=real, **kw: real(*args, **kw) + 1e-3)

    @pytest.mark.parametrize("picture", list(RUNS))
    def test_solve_ignores_the_exponents(self, picture, monkeypatch):
        base = self.RUNS[picture]()
        self.shift_exponents(monkeypatch)
        assert np.array_equal(self.RUNS[picture](), base)

    def test_shifted_oracle_fails_the_ode_check(self, monkeypatch, capsys):
        assert cli.main(["verify", "ode", "--picture", "cylindrical"]) == 0
        self.shift_exponents(monkeypatch)
        assert cli.main(["verify", "ode", "--picture", "cylindrical"]) == 4


def bisection(problem, k, n):
    """Lowest k eigenvalues on mesh n by full-precision bisection alone: an
    independent reference for the solve-and-lift path."""
    from scipy.linalg import eigh_tridiagonal

    diag, off, _, _ = spectra._tridiagonal(problem, n)
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                            eigvals_only=True, tol=0)


def reference(problem, k, n):
    """Lowest k eigenvalues on mesh n, each the energy-form Rayleigh quotient
    (sum (dz)^2 + z_0^2 + z_{n-1}^2)/h^2 + sum V z^2 over sum z^2 of its
    LAPACK eigenvector on mesh n itself.  Unlike bisection's values, which
    are exact only to eps * ||T||, these are exact to rounding relative to
    each level: a tight reference for the solve-and-lift path."""
    from scipy.linalg import eigh_tridiagonal

    diag, off, v, h = spectra._tridiagonal(problem, n)
    z = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))[1]
    kinetic = (np.sum(np.diff(z, axis=0) ** 2, axis=0) + z[0] ** 2 + z[-1] ** 2) / h ** 2
    return (kinetic + v @ z ** 2) / np.sum(z ** 2, axis=0)


class TestRefinement:
    """Each Richardson pair takes its coarse eigenpairs from LAPACK; inverse
    iteration plus a Rayleigh quotient gives the values on N and, seeded by
    the N eigenpairs, on 2N.  Both must agree with the Rayleigh quotients of
    LAPACK's eigenvectors on the same mesh to rounding."""

    P = ModelParams(1.0, 0.7, 0.3)
    PICTURES = {
        "kepler-radial": lambda k, m: kepler_radial_spectrum(1.3, TestRefinement.P, k, m),
        "kepler-angular": lambda k, m: kepler_angular_spectrum(0.5, 1.0, TestRefinement.P, k, m),
        "osc-radial": lambda k, m: oscillator_radial_spectrum(12.0, 1.3, 0.8, k, m),
        "osc-angular": lambda k, m: oscillator_angular_spectrum(0.5, 0.0, 2.0, 1.0, 1.0, k, m),
        "cylindrical": lambda k, m: cylindrical_spectrum(1.0, 2.5, 0.7, 1.1, k, m),
        "parabolic": lambda k, m: parabolic_quantization(0.5, 1.0, TestRefinement.P,
                                                         n_max=k - 1, mesh=m),
    }
    GRID = [
        *((p, 5, m) for p in PICTURES for m in (2000, 4000, 8000)),
        ("kepler-radial", 40, 4000),
        ("osc-angular", 60, 3000),
    ]

    @staticmethod
    def solves(monkeypatch, run):
        """(problem, k, EigenResult) of every Richardson pair `run` solves."""
        seen = []
        real = spectra._richardson_solve

        def spy(problem, k):
            seen.append((problem, k, real(problem, k)))
            return seen[-1][2]

        monkeypatch.setattr(spectra, "_richardson_solve", spy)
        run()
        assert seen
        return seen

    @pytest.mark.parametrize("picture, k, mesh", GRID)
    def test_coarse_values_match_bisection(self, picture, k, mesh, monkeypatch):
        solves = self.solves(monkeypatch, lambda: self.PICTURES[picture](k, mesh))
        for problem, levels, _ in solves:
            np.testing.assert_allclose(solve_lowest(problem, levels),
                                       reference(problem, levels, problem.mesh_size),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("picture, k, mesh", GRID)
    def test_fine_values_match_bisection(self, picture, k, mesh, monkeypatch):
        solves = self.solves(monkeypatch, lambda: self.PICTURES[picture](k, mesh))
        for problem, levels, res in solves:
            want = reference(problem, levels, 2 * problem.mesh_size)
            np.testing.assert_allclose(res.eigenvalues, want, rtol=1e-12, atol=0)

    def test_box_end_terms(self):
        """A particle in a box keeps O(1/N) of each level in the z_0^2 and
        z_{n-1}^2 end terms of the energy form; its discrete levels on n points
        are (4/h^2) sin^2(j h/2), h = pi/(n + 1)."""
        def exact(n):
            h = math.pi / (n + 1)
            return 4.0 / h ** 2 * np.sin(np.arange(1, 5) * h / 2) ** 2

        prob = SturmLiouvilleProblem(domain=(0.0, math.pi), mesh_size=500)
        coarse, vectors = spectra._eigenpairs(prob, 4, 500)
        np.testing.assert_allclose(coarse, exact(500), rtol=1e-13, atol=0)
        fine = spectra._refine(prob, coarse, vectors, 1000)
        np.testing.assert_allclose(fine, exact(1000), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("picture", list(PICTURES))
    def test_bitwise_repeatable(self, picture):
        first, second = (self.PICTURES[picture](5, 2000) for _ in range(2))
        if picture == "parabolic":
            assert first == second
        else:
            assert np.array_equal(first.eigenvalues, second.eigenvalues)
            assert np.array_equal(first.richardson, second.richardson)

    @staticmethod
    def misdirect(monkeypatch, level, solve):
        """Make every inverse-iteration solve of `level` return solve(vectors),
        vectors[j] being level j's last unit iterate on the same mesh.  Levels
        are counted by factorizations, one per level, on each mesh apart;
        only the lift onto mesh N factorizes."""
        import scipy.linalg.lapack as lapack

        real_trf, real_trs = lapack.dgttrf, lapack.dgttrs
        meshes = {}

        def trf(*args, **kwargs):
            meshes.setdefault(args[1].size, []).append(None)
            return real_trf(*args, **kwargs)

        def trs(*args, **kwargs):
            vectors = meshes[args[1].size]
            if len(vectors) - 1 == level:
                return solve(vectors), 0
            z = real_trs(*args, **kwargs)[0]
            vectors[-1] = z / np.linalg.norm(z)
            return z, 0

        monkeypatch.setattr(lapack, "dgttrf", trf)
        monkeypatch.setattr(lapack, "dgttrs", trs)
        return meshes

    def test_unsettled_lift_falls_back_to_mesh_n(self, monkeypatch):
        rng = np.random.default_rng(7)
        meshes = self.misdirect(monkeypatch, 1,
                                lambda vectors: rng.standard_normal(vectors[0].size))
        prob = SturmLiouvilleProblem(domain=(0.0, math.pi), mesh_size=500)
        values, vectors = spectra._levels(prob, 3, 500)
        assert list(meshes) == [500] and len(meshes[500]) == 2
        want_values, want_vectors = spectra._eigenpairs(prob, 3, 500)
        assert np.array_equal(values, want_values)
        assert np.array_equal(vectors, want_vectors)

    def test_refinement_onto_a_lower_level_names_it(self, monkeypatch):
        import scipy.linalg.lapack as lapack

        real = lapack.dgtsv
        fine = []

        def collapsed(*args, **kwargs):
            out = real(*args, **kwargs)
            fine.append(out[3])
            return (*out[:3], fine[1], out[4]) if len(fine) == 3 else out

        monkeypatch.setattr(lapack, "dgtsv", collapsed)
        with pytest.raises(ConvergenceFailure,
                           match=r"level 2: refined value [\d.]+ does not exceed level 1's "
                                 r"[\d.]+; shifted at coarse value [\d.]+ "
                                 r"on meshes \(500, 1000\)$"):
            cylindrical_spectrum(0.0, 0.0, 1.0, k=3, mesh=500)


class TestCoarseBracket:
    """LAPACK solves for the levels on COARSE_POINTS points per level; they
    are lifted onto mesh N under a Sturm-count certificate, and LAPACK solves
    on mesh N itself only when the lift is not certified."""

    @pytest.mark.parametrize("picture", [p for p in TestRefinement.PICTURES if p != "parabolic"])
    @pytest.mark.parametrize("mesh", [2000, 4000, 8000])
    def test_bisection_runs_on_the_coarse_mesh_only(self, picture, mesh, monkeypatch):
        import scipy.linalg

        sizes = []
        real = scipy.linalg.eigh_tridiagonal

        def spy(d, e, *args, **kwargs):
            sizes.append(d.size)
            return real(d, e, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        TestRefinement.PICTURES[picture](5, mesh)
        assert sizes == [5 * spectra.COARSE_POINTS] == [320]

    @pytest.mark.parametrize("picture, k, mesh", TestRefinement.GRID)
    def test_lifted_levels_match_bracketing_mesh_n(self, picture, k, mesh, monkeypatch):
        run = TestRefinement.PICTURES[picture]
        solves = TestRefinement.solves(monkeypatch, lambda: run(k, mesh))
        for problem, levels, _ in solves:
            n = problem.mesh_size
            np.testing.assert_allclose(spectra._levels(problem, levels, n)[0],
                                       spectra._eigenpairs(problem, levels, n)[0],
                                       rtol=1e-13, atol=0)

    def test_misnumbered_coarse_levels_fall_back(self, monkeypatch):
        """Coarse levels shifted up by one lift onto disjoint intervals on
        mesh N, but the Sturm count below the last is k + 1, not k."""
        prob = spectra.SturmLiouvilleProblem(csc2=0.75, inv_1m_cos=1.3, inv_1p_cos=0.4,
                                             const=-2.25, domain=(0.0, math.pi))
        real = spectra._eigenpairs
        meshes = []

        def shifted(problem, k, n):
            meshes.append(n)
            if n == 2000:
                return real(problem, k, n)
            values, vectors = real(problem, k + 1, n)
            return values[1:], vectors[1:]

        monkeypatch.setattr(spectra, "_eigenpairs", shifted)
        values, vectors = spectra._levels(prob, 5, 2000)
        assert meshes == [320, 2000]
        want_values, want_vectors = real(prob, 5, 2000)
        assert np.array_equal(values, want_values)
        assert np.array_equal(vectors, want_vectors)
        np.testing.assert_allclose(values, bisection(prob, 5, 2000), rtol=1e-8, atol=0)

    @pytest.mark.parametrize("c1", [1e6, 1e7])
    @pytest.mark.parametrize("mesh", [2000, 4000, 8000])
    def test_strong_coupling_keeps_polished_precision(self, c1, mesh):
        """A lift polished by a single solve is off by 6e-7 at c1 = 1e7,
        mesh 2000; settled inverse iteration is within 3e-9."""
        p = ModelParams(1.0, c1, 3e3)
        res = kepler_angular_spectrum(0.5, 1.0, p, 5, mesh)
        assert_matches_oracle(res, kepler_angular_oracle(0.5, 1.0, p, 5), tol=1e-8)


class TestSturmLiouville:
    def test_validation(self):
        with pytest.raises(ValueError):
            SturmLiouvilleProblem(domain=(1.0, 0.5))
        with pytest.raises(ValueError):
            SturmLiouvilleProblem(domain=(0.0, 1.0), mesh_size=2)

    def test_particle_in_a_box(self):
        prob = SturmLiouvilleProblem(domain=(0.0, math.pi), mesh_size=4000)
        got = solve_lowest(prob, 3)
        assert np.allclose(got, [1.0, 4.0, 9.0], rtol=1e-5)

    def test_more_levels_than_mesh_points(self):
        prob = SturmLiouvilleProblem(domain=(0.0, math.pi), mesh_size=4)
        with pytest.raises(ValueError, match="5 levels on mesh 4"):
            solve_lowest(prob, 5)

    def test_angular_terms(self):
        # -chi'' + [3/4 csc^2 - 9/4] chi: chi = sin^(3/2) C_m, eigenvalues m(m+3)
        prob = SturmLiouvilleProblem(csc2=0.75, const=-2.25, domain=(0.0, math.pi),
                                     mesh_size=2000)
        assert np.allclose(solve_lowest(prob, 3), [0.0, 4.0, 10.0], atol=1e-3)
