"""Seeded inputs and oracle-checked operations for the three workloads.

An operation is one public call (or one CLI invocation) plus its check
against the closed-form oracle, using the tolerances that
`monopole_spectra.cli` itself applies.  `ode_pass`, `closed_form_pass` and
`cli_pass` return the operations of one pass, drawn from a seeded
`random.Random`; the same seed gives the same list.  Every pass of a
workload has the same structure (operation kinds and sizes); the seed only
draws labels, couplings and the CLI command order, so the cost of a pass
barely depends on the seed.

Only the CLI workload is importable without numpy: its oracle imports happen
in `verify_cli_outputs`, after the timed loop.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("cli_readme", "ode_spectra", "closed_form")

# the seven CLI invocations of the README, verbatim
README_COMMANDS = (
    ("spectrum_kepler5d", "spectrum kepler5d --c0 1 --c1 0 --c2 0 --l4 0 --T 0 --p-max 3"),
    ("spectrum_osc8d", "spectrum osc8d --omega 1 --lambda1 0 --lambda2 0 --levels 3"),
    ("verify_algebra", "verify algebra --p 4 --c0 1 --c1 0.5 --c2 0.5 --l4 1 --T 0.5"),
    ("verify_ode_kepler_radial",
     "verify ode --picture kepler-radial --Lambda 0 --levels 3 --mesh 4000"),
    ("verify_ode_parabolic",
     "verify ode --picture parabolic --J 0 --L 0 --n-max 2 --mesh 4000"),
    ("verify_duality", "verify duality --grid small"),
    ("verify_residuals",
     "verify residuals --picture kepler-angular --lam 1 --c1 1 --c2 1"),
)

ODE_MESHES = (2000, 4000, 8000)
ODE_DRAWS = 4          # seeded draws per (picture, mesh)
ODE_LEVELS = 5
PARABOLIC_N_MAX = (2, 3, 4, 5)
PARABOLIC_MESH = 4000
SMALL_P_MAX = 12
SMALL_GRID_POINTS = 10  # acceptance-grid points drawn per pass, each at p = 0..12
LARGE_P = (100, 400, 1000)
IDENTITY_SLICES = 16    # (couplings, z) slices of the four-picture grid
RESIDUAL_POINTS = 2001  # the package default grid


@dataclass(frozen=True)
class Op:
    """One operation: `run()` makes the call, checks it and returns
    (passed, measured); `counts` are the work counts its inputs imply."""

    kind: str
    run: Callable[[], tuple[bool, float]]
    counts: dict


# ------------------------------------------------------------------ cli_readme

def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "monopole_spectra", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def cli_op(name: str, command: str, env: dict, outputs: list) -> Op:
    argv = command.split()

    def run() -> tuple[bool, float]:
        proc = run_cli(argv, env)
        if proc.returncode != 0:
            return False, float(proc.returncode)
        report = json.loads(proc.stdout)
        if name.startswith("spectrum_"):
            outputs.append((name, report))
        failed = [c for c in report["checks"] if not c["passed"]]
        return not failed, float(len(failed))

    return Op(f"cli.{name}", run, {"cli.subprocesses": 1})


def cli_pass(rng: random.Random, env: dict, outputs: list) -> list[Op]:
    order = list(README_COMMANDS)
    rng.shuffle(order)
    return [cli_op(name, cmd, env, outputs) for name, cmd in order]


def verify_cli_outputs(outputs: list) -> list[str]:
    """Check the `spectrum` tables (which carry no checks of their own)
    against the closed-form level structure.  Returns failure messages."""
    from monopole_spectra.cli import IDENTITY_RTOL

    errors = []
    for name, report in outputs:
        rows = report["results"]
        values = [r["value"] for r in rows]
        if name == "spectrum_kepler5d":
            # E_p = -c0^2 / (2 hbar^2 (p + s)^2) with one shift s for all p
            c0, hbar = report["params"]["c0"], report["params"]["hbar"]
            shifts = [c0 / (hbar * math.sqrt(-2.0 * e)) - p for p, e in enumerate(values)]
            bad = max(abs(s - shifts[0]) for s in shifts) > IDENTITY_RTOL * abs(shifts[0])
            # brute-force count of lam in [J + L, p) at J = L = 0
            degs = [sum(1 for lam in range(p) if lam >= 0) for p in range(len(rows))]
            bad = bad or degs != [r["degeneracy"] for r in rows] or len(rows) != 4
        else:
            # eps_s = 2 hbar omega (s + base + 2): equal spacing 2 hbar omega
            step = 2.0 * report["params"]["hbar"] * report["params"]["omega"]
            gaps = [b - a for a, b in zip(values, values[1:])]
            bad = any(abs(g - step) > IDENTITY_RTOL * step for g in gaps) or len(rows) != 3
            bad = bad or [r["degeneracy"] for r in rows] != [1, 2, 3]
        if bad:
            errors.append(f"{name}: table breaks the closed-form level structure")
    return errors


# ----------------------------------------------------------------- ode_spectra

def ode_pass(rng: random.Random) -> list[Op]:
    import functools

    from monopole_spectra import spectra
    from monopole_spectra.cli import ODE_RTOL, relative_errors
    from monopole_spectra.params import ModelParams

    k = ODE_LEVELS
    half = (0.0, 0.5, 1.0)

    def _ode_check(got, want) -> tuple[bool, float]:
        worst = float(max(relative_errors(got, want)))
        return worst <= ODE_RTOL, worst

    def kepler_radial(lam, c0, mesh):
        p = ModelParams(c0)
        return _ode_check(spectra.kepler_radial_spectrum(lam, p, k, mesh).richardson,
                          spectra.kepler_radial_oracle(lam, p, k))

    def kepler_angular(J, L, c1, c2, mesh):
        p = ModelParams(1.0, c1, c2)
        return _ode_check(spectra.kepler_angular_spectrum(J, L, p, k, mesh).richardson,
                          spectra.kepler_angular_oracle(J, L, p, k))

    def osc_radial(gamma, omega, hbar, mesh):
        return _ode_check(
            spectra.oscillator_radial_spectrum(gamma, omega, hbar, k, mesh).richardson,
            spectra.oscillator_radial_oracle(gamma, omega, hbar, k))

    def osc_angular(T, K, lam1, lam2, mesh):
        return _ode_check(
            spectra.oscillator_angular_spectrum(T, K, lam1, lam2, 1.0, k, mesh).richardson,
            spectra.oscillator_angular_oracle(T, K, lam1, lam2, 1.0, k))

    def cylindrical(z, lam_c, omega, hbar, mesh):
        return _ode_check(
            spectra.cylindrical_spectrum(z, lam_c, omega, hbar, k, mesh).richardson,
            spectra.cylindrical_oracle(z, lam_c, omega, hbar, k))

    def parabolic(J, L, c0, c1, c2, n_max):
        p = ModelParams(c0, c1, c2)
        levels = spectra.parabolic_quantization(J, L, p, n_max=n_max, mesh=PARABOLIC_MESH)
        return _ode_check([lv.energy for lv in levels],
                          [spectra.parabolic_oracle(lv.n1, lv.n2, J, L, p) for lv in levels])

    u = rng.uniform
    draws = {
        "kepler_radial": lambda: (kepler_radial, dict(lam=u(0, 6), c0=u(0.5, 2))),
        "kepler_angular": lambda: (kepler_angular, dict(
            J=rng.choice(half), L=rng.choice(half), c1=u(0, 1.5), c2=u(0, 1.5))),
        "oscillator_radial": lambda: (osc_radial, dict(
            gamma=u(0, 20), omega=u(0.5, 2), hbar=u(0.8, 1.2))),
        "oscillator_angular": lambda: (osc_angular, dict(
            T=rng.choice(half), K=rng.choice(half), lam1=u(0, 3), lam2=u(0, 3))),
        "cylindrical": lambda: (cylindrical, dict(
            z=rng.choice(half), lam_c=u(0, 2), omega=u(0.5, 2), hbar=u(0.8, 1.2))),
    }
    ops = []
    for picture, draw in draws.items():
        for mesh in ODE_MESHES:
            for _ in range(ODE_DRAWS):
                fn, kw = draw()
                ops.append(Op(f"spectra.{picture}.N{mesh}",
                              functools.partial(fn, mesh=mesh, **kw),
                              {"spectra.levels_checked": k}))
    for n_max in PARABOLIC_N_MAX:
        kw = dict(J=rng.choice((1.0, 1.5, 2.0)), L=rng.choice((1.0, 1.5, 2.0)),
                  c0=u(0.5, 2), c1=u(0, 1.5), c2=u(0, 1.5))
        ops.append(Op(f"spectra.parabolic.n_max{n_max}",
                      functools.partial(parabolic, n_max=n_max, **kw),
                      {"spectra.levels_checked": (n_max + 1) * (n_max + 2) // 2}))
    return ops


# ----------------------------------------------------------------- closed_form

def acceptance_sector_grid():
    """The admissible (params, labels) grid of the acceptance suite."""
    pts = []
    for c0 in (0.5, 1.0, 2.0):
        for c1 in (0.0, 0.5, 1.5):
            for c2 in (0.0, 0.5, 1.5):
                for l4 in (0, 1, 2):
                    for T in (0.0, 0.5, 1.0):
                        if 1.0 + 2.0 * c2 + l4 * (l4 + 2) - 2.0 * T * (T + 1) >= 0:
                            pts.append((c0, c1, c2, l4, T))
    return pts


def closed_form_pass(rng: random.Random) -> list[Op]:
    import functools

    from monopole_spectra import algebra, duality, fock, specfun
    from monopole_spectra.cli import (
        ALGEBRA_RTOL,
        CASIMIR_SCALAR_RTOL,
        IDENTITY_RTOL,
        RESIDUAL_TOL,
    )
    from monopole_spectra.params import ModelParams, QuantumNumbers

    def chain(p, c0, c1, c2, l4, T):
        params, qn = ModelParams(c0, c1, c2), QuantumNumbers(l4, T)
        sol = algebra.solve_unirrep(p, params, qn)
        rep = fock.build_rep(sol, qn, params)
        gen = fock.build_generators(rep, params, qn)
        r = fock.verify_algebra(gen, rep, params, qn)
        worst = max(r.residual_q2, r.residual_q3, r.casimir_offdiag)
        return (worst <= ALGEBRA_RTOL and r.casimir_scalar_mismatch <= CASIMIR_SCALAR_RTOL,
                max(worst, r.casimir_scalar_mismatch))

    def residual(fn, **kw):
        val = fn(**kw)
        return val <= RESIDUAL_TOL, val

    def parabolic_pair(n1, n2, J, L, c0, c1, c2):
        pp = ModelParams(c0, c1, c2)
        kappa, lam_tilde, _ = specfun.parabolic_pair_parameters(n1, n2, J, L, pp)
        val = max(specfun.parabolic_residual("mu", n1, J, c1, kappa, lam_tilde, pp),
                  specfun.parabolic_residual("nu", n2, L, c2, kappa, lam_tilde, pp))
        return val <= RESIDUAL_TOL, val

    def identity_slice(c0, c1, c2, z):
        params = ModelParams(c0, c1, c2)
        worst = 0.0
        for n in range(6):
            for extra in range(6):
                lam = int(2 * z) + extra
                for picture, labels in (
                    ("hyperspherical", dict(n=n, lam=lam, J=z, L=z)),
                    ("euler", dict(n=n, lam=lam, T=z, K=z)),
                    ("parabolic", dict(n1=n, n2=extra, J=z, L=z)),
                    ("cylindrical", dict(n1=n, n2=extra, T=z, K=z)),
                ):
                    worst = max(worst, duality.spectrum_identity_check(
                        picture, labels, params).rel_diff)
        return worst <= IDENTITY_RTOL, worst

    u = rng.uniform
    half = (0.0, 0.5, 1.0)
    grid = acceptance_sector_grid()
    ops = []
    for pt in rng.sample(grid, SMALL_GRID_POINTS):
        for p in range(SMALL_P_MAX + 1):
            ops.append(Op("fock.chain.small", functools.partial(chain, p, *pt),
                          {"fock.reps_built": 1, "fock.dim3_sum": (p + 1) ** 3}))
    for p in LARGE_P:
        ops.append(Op(f"fock.chain.p{p}", functools.partial(chain, p, *rng.choice(grid)),
                      {"fock.reps_built": 1, "fock.dim3_sum": (p + 1) ** 3}))

    grid_points = {"specfun.grid_points": RESIDUAL_POINTS}
    for m in range(4):
        z1, z2 = rng.choice((0.5, 1.0)), rng.choice((0.5, 1.0))
        ops.append(Op("specfun.angular.kepler_hyperspherical", functools.partial(
            residual, specfun.angular_residual, picture="kepler_hyperspherical",
            lam=m + z1 + z2, z1=z1, z2=z2, couplings=(u(0.5, 1.5), u(0.5, 1.5))),
            grid_points))
        z1, z2 = rng.choice((0.5, 1.0)), rng.choice((0.5, 1.0))
        ops.append(Op("specfun.angular.oscillator_euler", functools.partial(
            residual, specfun.angular_residual, picture="oscillator_euler",
            lam=m + z1 + z2, z1=z1, z2=z2, couplings=(u(1, 3), u(1, 3))),
            grid_points))
    for n in (0, 4, 8, 12, 16, 20):
        c0 = math.exp(u(math.log(0.01), math.log(3.0)))
        ops.append(Op(f"specfun.kepler_radial.n{n}", functools.partial(
            residual, specfun.kepler_radial_residual, n=n, lam_eff=u(0, 2),
            params=ModelParams(c0)), grid_points))
    for n in (0, 2, 4):
        ops.append(Op(f"specfun.oscillator_radial.n{n}", functools.partial(
            residual, specfun.oscillator_radial_residual, n=n, lam_eff=u(0, 1.7),
            omega=u(0.5, 1.3)), grid_points))
    for n in (0, 2, 4, 6, 8):
        ops.append(Op(f"specfun.cylindrical.n{n}", functools.partial(
            residual, specfun.cylindrical_residual, n=n, z=rng.choice(half),
            coupling=u(0, 2)), grid_points))
    # degrees are fixed per operation so that a pass costs the same for every
    # seed; the seed draws labels and couplings
    for n1, n2 in ((0, 0), (3, 1), (6, 2), (9, 0), (12, 1)):
        ops.append(Op(f"specfun.parabolic.n{n1}", functools.partial(
            parabolic_pair, n1, n2, rng.choice(half), rng.choice(half),
            u(0.5, 2), u(0, 1.5), u(0, 1.5)),
            {"specfun.grid_points": 2 * RESIDUAL_POINTS}))

    for _ in range(IDENTITY_SLICES // 2):
        couplings = (math.exp(u(math.log(0.5), math.log(2.0))), u(0, 1.5), u(0, 1.5))
        for z in (0.0, 1.0):
            ops.append(Op("duality.identity.slice",
                          functools.partial(identity_slice, *couplings, z),
                          {"duality.identity_points": 36}))
    return ops


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The untimed warm-up before timing: the first operation of each family
    (a kind without its size suffix), so every code path has run once."""
    seen, out = set(), []
    for op in ops:
        family = op.kind.rsplit(".", 1)[0]
        if family not in seen:
            seen.add(family)
            out.append(op)
    return out
