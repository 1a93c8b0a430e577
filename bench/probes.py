"""Per-layer probes of the traced run.

Each probe times calls into one module's public functions on fixed README
and acceptance-suite inputs, so the numbers compare across commits whatever
the workload seed.  `defect_probes` runs the inputs that ROADMAP items 3-4
list as failing today and counts how many still fail.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

from workloads import README_COMMANDS, acceptance_sector_grid


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def startup_probes(env: dict, reps: int = 3) -> dict:
    """Fresh-interpreter start and import times, from subprocesses."""
    def python_start():
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)

    out = {"startup.python_ms": _median_ms(python_start, reps)}
    for module, name in (("numpy", "import.numpy_ms"),
                         ("scipy.linalg", "import.scipy_linalg_ms"),
                         ("monopole_spectra.cli", "import.monopole_spectra_cli_ms")):
        code = ("import time; t = time.perf_counter(); "
                f"import {module}; print(time.perf_counter() - t)")
        times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
                 for _ in range(reps)]
        out[name] = 1e3 * statistics.median(times)
    return out


def cli_probes(out_path: str, reps: int = 3) -> dict:
    """In-process `cli.main` for each README command, output to a file.

    The file is removed before each call: on ext4, truncating a non-empty
    file on open flushes it, which would add tens of milliseconds of disk
    time that the CLI does not cause."""
    from monopole_spectra import cli

    out = {}
    for name, command in README_COMMANDS:
        argv = command.split() + ["--out", out_path]
        times = []
        for _ in range(reps):
            if os.path.exists(out_path):
                os.remove(out_path)
            t0 = perf_counter()
            code = cli.main(argv)
            times.append(perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"cli.main {command!r} exited with {code}")
        out[f"cli.main_ms.{name}"] = 1e3 * statistics.median(times)
    os.remove(out_path)
    return out


def spectra_probes(tracer) -> dict:
    import monopole_spectra
    from monopole_spectra import spectra
    from monopole_spectra.params import ModelParams

    out = {}
    # 5D radial problem at Lambda = 0, c0 = 1 on a fixed domain
    problem = spectra.SturmLiouvilleProblem(inv_x=-2.0, inv_x2=2.0, domain=(0.0, 200.0))
    for n in (2000, 4000, 8000):
        out[f"spectra.solve_lowest_ms.N{n}"] = _median_ms(
            lambda: spectra.solve_lowest(problem, 5, n), 15)
    # criterion-5 inputs of the acceptance suite, at the README mesh
    mesh = 4000
    calls = {
        "kepler_radial": lambda: spectra.kepler_radial_spectrum(0.0, ModelParams(1.0), 5, mesh),
        "kepler_angular": lambda: spectra.kepler_angular_spectrum(
            0.0, 0.0, ModelParams(1.0, 1.0, 1.0), 5, mesh),
        "oscillator_radial": lambda: spectra.oscillator_radial_spectrum(
            12.0, 1.3, 0.8, 5, mesh),
        "oscillator_angular": lambda: spectra.oscillator_angular_spectrum(
            0.5, 0.5, 1.0, 1.0, 1.0, 5, mesh),
        "cylindrical": lambda: spectra.cylindrical_spectrum(0.5, 1.0, 1.2, 1.0, 5, mesh),
    }
    for picture, call in calls.items():
        out[f"spectra.{picture}_spectrum_ms"] = _median_ms(call, 5)

    # acceptance parabolic case, traced: self time = span minus eigensolves
    first = len(tracer.spans)
    tracer.install(monopole_spectra)
    try:
        out["spectra.parabolic_quantization_ms"] = _median_ms(
            lambda: spectra.parabolic_quantization(
                1.0, 1.0, ModelParams(1.0, 0.7, 0.2), n_max=2, mesh=4000), 2)
    finally:
        tracer.uninstall()
    spans = tracer.spans[first:]
    top = [s for s in spans if s["name"] == "spectra.parabolic_quantization"]
    eig = [s for s in spans if s["name"] == "spectra.eigensolve"]
    total = sum(s["end"] - s["start"] for s in top)
    eig_time = sum(s["end"] - s["start"] for s in eig)
    out["spectra.parabolic_self_ms"] = 1e3 * (total - eig_time) / len(top)
    out["spectra.parabolic_eigensolves"] = len(eig) // len(top)
    return out


def algebra_probes() -> dict:
    from monopole_spectra import algebra, fock
    from monopole_spectra.params import ModelParams, QuantumNumbers

    times = {k: [] for k in ("solve", "rep", "gen", "verify_small", "verify_large",
                             "chain12", "chain100", "chain400")}

    def chain(p, c0, c1, c2, l4, T):
        params, qn = ModelParams(c0, c1, c2), QuantumNumbers(l4, T)
        t0 = perf_counter()
        sol = algebra.solve_unirrep(p, params, qn)
        t1 = perf_counter()
        rep = fock.build_rep(sol, qn, params)
        t2 = perf_counter()
        gen = fock.build_generators(rep, params, qn)
        t3 = perf_counter()
        fock.verify_algebra(gen, rep, params, qn)
        t4 = perf_counter()
        return t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4 - t0

    for pt in acceptance_sector_grid()[::20]:
        for p in range(13):
            s, r, g, v, total = chain(p, *pt)
            times["solve"].append(s)
            times["rep"].append(r)
            times["gen"].append(g)
            times["verify_small"].append(v)
            if p == 12:
                times["chain12"].append(total)
    pt = (1.0, 0.5, 1.5, 1, 0.5)
    for p, reps in ((100, 5), (400, 3)):
        for _ in range(reps):
            *_, v, total = chain(p, *pt)
            times[f"chain{p}"].append(total)
            if p == 400:
                times["verify_large"].append(v)
    med = {k: 1e3 * statistics.median(v) for k, v in times.items()}
    return {
        "algebra.solve_unirrep_ms": med["solve"],
        "fock.build_rep_ms": med["rep"],
        "fock.build_generators_ms": med["gen"],
        "fock.verify_algebra_ms.small": med["verify_small"],
        "fock.verify_algebra_ms.large": med["verify_large"],
        "fock.chain_ms.p12": med["chain12"],
        "fock.chain_ms.p100": med["chain100"],
        "fock.chain_ms.p400": med["chain400"],
    }


def specfun_probes() -> dict:
    """Criterion-6 inputs of the acceptance suite."""
    from monopole_spectra import specfun
    from monopole_spectra.params import ModelParams

    pp = ModelParams(1.0, 0.7, 0.2)
    kappa, lam_tilde, _ = specfun.parabolic_pair_parameters(1, 2, 0.5, 0.5, pp)
    calls = {
        "angular": lambda: specfun.angular_residual(
            "kepler_hyperspherical", 1, 0.0, 0.0, couplings=(1.0, 1.0)),
        "kepler_radial": lambda: specfun.kepler_radial_residual(
            2, 1.8, ModelParams(1.0, 1.0, 1.0)),
        "oscillator_radial": lambda: specfun.oscillator_radial_residual(2, 1.7, 1.3),
        "parabolic": lambda: specfun.parabolic_residual(
            "mu", 1, 0.5, 0.7, kappa, lam_tilde, pp),
        "cylindrical": lambda: specfun.cylindrical_residual(2, 0.5, 1.0),
    }
    return {f"specfun.{name}_residual_ms": _median_ms(call, 5)
            for name, call in calls.items()}


def duality_probes(reps: int = 5) -> dict:
    """Per-call time of spectrum_identity_check over a criterion-4 slice."""
    from monopole_spectra import duality
    from monopole_spectra.params import ModelParams

    params = ModelParams(1.0, 0.5, 1.5)
    calls = []
    for z in (0.0, 1.0):
        for n in range(6):
            for extra in range(6):
                lam = int(2 * z) + extra
                calls += [
                    ("hyperspherical", dict(n=n, lam=lam, J=z, L=z)),
                    ("euler", dict(n=n, lam=lam, T=z, K=z)),
                    ("parabolic", dict(n1=n, n2=extra, J=z, L=z)),
                    ("cylindrical", dict(n1=n, n2=extra, T=z, K=z)),
                ]

    def block():
        for picture, labels in calls:
            duality.spectrum_identity_check(picture, labels, params)

    return {"duality.spectrum_identity_check_us": 1e3 * _median_ms(block, reps) / len(calls)}


def defect_probes() -> tuple[dict, list[dict]]:
    """Inputs ROADMAP items 3-4 list as failing today, checked with the
    package's own tolerances.  Returns failure counters and one record per
    input (measured value or exception)."""
    from monopole_spectra import specfun, spectra
    from monopole_spectra.cli import ODE_RTOL, RESIDUAL_TOL, relative_errors
    from monopole_spectra.errors import ConvergenceFailure
    from monopole_spectra.params import ModelParams

    records = []
    residuals = {
        "kepler_radial_residual n=2 lam_eff=1.8 c0=100": lambda: specfun.kepler_radial_residual(
            2, 1.8, ModelParams(100.0)),
        "kepler_radial_residual n=40 lam_eff=1.8 c0=1": lambda: specfun.kepler_radial_residual(
            40, 1.8, ModelParams(1.0, 1.0, 1.0)),
        "oscillator_radial_residual n=2 lam_eff=1.7 omega=13": (
            lambda: specfun.oscillator_radial_residual(2, 1.7, 13.0)),
        "angular_residual kepler lam=30 c=(1,1)": lambda: specfun.angular_residual(
            "kepler_hyperspherical", 30, 0.0, 0.0, couplings=(1.0, 1.0)),
        "cylindrical_residual n=20 z=0.5 c=1": lambda: specfun.cylindrical_residual(
            20, 0.5, 1.0),
    }
    checks_failed = 0
    for name, call in residuals.items():
        val = call()
        failed = not val <= RESIDUAL_TOL
        checks_failed += failed
        records.append({"probe": f"specfun.{name}", "measured": val,
                        "tolerance": RESIDUAL_TOL, "failed": failed})

    convergence_failures = oracle_failures = 0
    p = ModelParams(1.0)
    try:
        res = spectra.kepler_radial_spectrum(0.0, p, 40, 4000)
        worst = float(max(relative_errors(res.richardson, spectra.kepler_radial_oracle(0.0, p, 40))))
        oracle_failures += worst > ODE_RTOL
        records.append({"probe": "spectra.kepler_radial_spectrum levels=40 mesh=4000",
                        "measured": worst, "tolerance": ODE_RTOL, "failed": worst > ODE_RTOL})
    except ConvergenceFailure as exc:
        convergence_failures += 1
        records.append({"probe": "spectra.kepler_radial_spectrum levels=40 mesh=4000",
                        "error": f"ConvergenceFailure: {exc}", "failed": True})
    p = ModelParams(1.0, 0.75, 0.54)
    levels = spectra.parabolic_quantization(0.0, 0.0, p, n_max=2, mesh=4000)
    worst = float(max(relative_errors(
        [lv.energy for lv in levels],
        [spectra.parabolic_oracle(lv.n1, lv.n2, 0.0, 0.0, p) for lv in levels])))
    oracle_failures += worst > ODE_RTOL
    records.append({"probe": "spectra.parabolic_quantization J=L=0 c=(0.75,0.54) n_max=2",
                    "measured": worst, "tolerance": ODE_RTOL, "failed": worst > ODE_RTOL})
    return {
        "specfun.checks_failed": checks_failed,
        "spectra.convergence_failures": convergence_failures,
        "spectra.oracle_failures": oracle_failures,
    }, records
