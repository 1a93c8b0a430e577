"""Command-line front end: spectrum tables and verification reports.

Subcommands:
    spectrum kepler5d | osc8d      closed-form level tables
    verify algebra | ode | duality | residuals

Reports are emitted as JSON (default), CSV, or plain text.  JSON carries the
schema {version, command, params, results, checks}; result rows carry
{labels, value, oracle, abs_diff, rel_diff} (plus row-specific extras), and
every check records its tolerance and oracle identity.

Exit codes: 0 success, 2 invalid input, 3 convergence failure, 4 invariant
violation (including failed verification checks).

A plain-text config file of `key = value` lines can be passed via --config;
explicit command-line flags take precedence.  Keys must name an option of the
subcommand, and every numeric value, from a flag or the file, must be finite.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, algebra, duality, spectra
from . import specfun
from .errors import (
    ConvergenceFailure,
    MonopoleSpectraError,
    NegativeRadicand,
    NoIntersection,
)
from .params import ModelParams, QuantumNumbers

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INVARIANT = 4

ODE_RTOL = 1e-6
RESIDUAL_TOL = 1e-7
ALGEBRA_RTOL = 1e-9
CASIMIR_SCALAR_RTOL = 1e-8
IDENTITY_RTOL = 1e-12


def relative_errors(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per-level |got-want| / |want|, except that levels whose oracle is
    negligible against the spectrum are scaled by the spectrum magnitude."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    spectrum = float(np.max(np.abs(want))) if want.size else 1.0
    spectrum = max(spectrum, 1e-300)
    scale = np.where(np.abs(want) > 1e-9 * spectrum, np.abs(want), spectrum)
    return np.abs(got - want) / scale


# ------------------------------------------------------------------ envelope

def make_envelope(argv: list[str], params: dict, results: list, checks: list) -> dict:
    return {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": " ".join(argv),
        "params": params,
        "results": results,
        "checks": checks,
    }


def row(labels: dict, value: float, oracle: float | None = None, **extra) -> dict:
    r = {"labels": labels, "value": value, "oracle": oracle,
         "abs_diff": None, "rel_diff": None}
    if oracle is not None:
        r["abs_diff"] = abs(value - oracle)
        r["rel_diff"] = abs(value - oracle) / max(abs(oracle), 1e-300)
    r.update(extra)
    return r


def check(name: str, measured: float, tolerance: float, oracle: str) -> dict:
    return {
        "name": name,
        "passed": bool(measured <= tolerance),
        "measured": measured,
        "tolerance": tolerance,
        "oracle": oracle,
    }


def _fmt17(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def render_csv(envelope: dict) -> str:
    rows = envelope["results"]
    label_keys: list[str] = []
    extra_keys: list[str] = []
    for r in rows:
        for k in r["labels"]:
            if k not in label_keys:
                label_keys.append(k)
        for k in r:
            if k not in ("labels", "value", "oracle", "abs_diff", "rel_diff") and k not in extra_keys:
                extra_keys.append(k)
    header = [f"label.{k}" for k in label_keys] + ["value", "oracle", "abs_diff", "rel_diff"] + extra_keys
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        line = [_fmt17(r["labels"].get(k, "")) for k in label_keys]
        line += [_fmt17(r[k]) if r[k] is not None else "" for k in ("value", "oracle", "abs_diff", "rel_diff")]
        line += [_fmt17(r.get(k, "")) for k in extra_keys]
        w.writerow(line)
    return buf.getvalue()


def render_plain(envelope: dict) -> str:
    out = [f"# {envelope['command']}"]
    rows = envelope["results"]
    if rows:
        label_keys = list(rows[0]["labels"].keys())
        extra_keys = [k for k in rows[0] if k not in ("labels", "value", "oracle", "abs_diff", "rel_diff")]
        header = label_keys + ["value", "oracle", "rel_diff"] + extra_keys
        out.append("  ".join(f"{h:>12}" for h in header))
        for r in rows:
            cells = [r["labels"].get(k, "") for k in label_keys]
            cells += [r["value"], r["oracle"], r["rel_diff"]]
            cells += [r.get(k, "") for k in extra_keys]
            out.append("  ".join(
                f"{c:>12.6g}" if isinstance(c, float) else f"{str(c):>12}" for c in cells
            ))
    for c in envelope["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        out.append(
            f"{status} {c['name']}: measured {c['measured']:.6g} "
            f"(tolerance {c['tolerance']:.6g}, oracle: {c['oracle']})"
        )
    return "\n".join(out) + "\n"


def emit(envelope: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(envelope, indent=2, default=_fmt17) + "\n"
    elif fmt == "csv":
        text = render_csv(envelope)
    elif fmt == "plain":
        text = render_plain(envelope)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------- helpers

def load_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key.replace("-", "_")] = val
    return cfg


# namespace entries that select the subcommand or name the config file itself
NOT_CONFIGURABLE = {"command", "system", "what", "config"}


def check_config_keys(cfg: dict, args: argparse.Namespace) -> None:
    unknown = sorted(set(cfg) - (set(vars(args)) - NOT_CONFIGURABLE))
    if unknown:
        raise ValueError(f"unknown config key(s) for this command: {', '.join(unknown)}")


def resolve(args: argparse.Namespace, name: str, cast, default):
    """CLI flag beats config file beats hard default; numbers must be finite."""
    value = getattr(args, name, None)
    if value is None:
        cfg = getattr(args, "_cfg", {})
        value = cast(cfg[name]) if name in cfg else default
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def model_params(args) -> ModelParams:
    return ModelParams(
        c0=resolve(args, "c0", float, 1.0),
        c1=resolve(args, "c1", float, 0.0),
        c2=resolve(args, "c2", float, 0.0),
        hbar=resolve(args, "hbar", float, 1.0),
    )


# ------------------------------------------------------------------ spectrum

def cmd_spectrum_kepler5d(args, argv) -> tuple[dict, int]:
    params = model_params(args)
    qn = QuantumNumbers(l4=resolve(args, "l4", float, 0.0), T=resolve(args, "T", float, 0.0))
    p_max = resolve(args, "p_max", int, 3)
    J = resolve(args, "J", float, 0.0)
    L = resolve(args, "L", float, 0.0)
    results = []
    if p_max >= 0:
        m = algebra.aux_exponents(params, qn)
        for p in range(p_max + 1):
            e = algebra.energy_level(p, m, params)
            deg = algebra.degeneracy_count(p, J, L) if p >= 1 else 0
            results.append(row({"p": p}, e, degeneracy=deg))
    env = make_envelope(argv, {
        "c0": params.c0, "c1": params.c1, "c2": params.c2, "hbar": params.hbar,
        "l4": qn.l4, "T": qn.T, "p_max": p_max, "J": J, "L": L,
    }, results, [])
    return env, EXIT_OK


def cmd_spectrum_osc8d(args, argv) -> tuple[dict, int]:
    omega = resolve(args, "omega", float, 1.0)
    hbar = resolve(args, "hbar", float, 1.0)
    lam1 = resolve(args, "lambda1", float, 0.0)
    lam2 = resolve(args, "lambda2", float, 0.0)
    T = resolve(args, "T", float, 0.0)
    K = resolve(args, "K", float, 0.0)
    levels = resolve(args, "levels", int, 3)
    if omega <= 0 or hbar <= 0 or lam1 < 0 or lam2 < 0 or T < 0 or K < 0:
        raise ValueError("omega, hbar must be positive; couplings and labels non-negative")
    d = specfun.delta_exponents("oscillator", (lam1, lam2), T, K, hbar)
    base = 0.5 * (T + K + d.delta1 + d.delta2)
    results = []
    for s in range(max(levels, 0)):
        eps = 2.0 * hbar * omega * (s + base + 2.0)
        results.append(row({"n_plus_m": s}, eps, degeneracy=s + 1))
    env = make_envelope(argv, {
        "omega": omega, "hbar": hbar, "lambda1": lam1, "lambda2": lam2,
        "T": T, "K": K, "levels": levels,
    }, results, [])
    return env, EXIT_OK


# -------------------------------------------------------------------- verify

def cmd_verify_algebra(args, argv) -> tuple[dict, int]:
    from .fock import build_generators, build_rep, verify_algebra

    params = model_params(args)
    qn = QuantumNumbers(l4=resolve(args, "l4", float, 0.0), T=resolve(args, "T", float, 0.0))
    p = resolve(args, "p", int, 4)
    sol = algebra.solve_unirrep(p, params, qn)
    rep = build_rep(sol, qn, params)
    gen = build_generators(rep, params, qn)
    rpt = verify_algebra(gen, rep, params, qn)
    results = [
        row({"quantity": "u"}, sol.u),
        row({"quantity": "E"}, sol.E),
        row({"quantity": "rho_calibration"}, rpt.rho_calibration),
        row({"quantity": "residual_q2_alt_sign"}, rpt.residual_q2_alt_sign),
    ]
    checks = [
        check("commutator_definition", rpt.residual_q1, 1e-13, "C = [A, B] by construction"),
        check("first_commutation_relation", rpt.residual_q2, ALGEBRA_RTOL,
              "closure of [A,C] against 2{A,B} + 8B + const"),
        check("second_commutation_relation", rpt.residual_q3, ALGEBRA_RTOL,
              "closure of [B,C] against -2B^2 + 8HA + const, calibrated rho"),
        check("rho_calibration_is_unity", abs(rpt.rho_calibration - 1.0), 1e-8,
              "fitted off-diagonal rescale"),
        check("casimir_centrality", rpt.casimir_offdiag, ALGEBRA_RTOL,
              "off-diagonal of the Casimir matrix"),
        check("casimir_scalar_match", rpt.casimir_scalar_mismatch, CASIMIR_SCALAR_RTOL,
              "diagonal vs closed-form Casimir value"),
    ]
    env = make_envelope(argv, {
        "p": p, "c0": params.c0, "c1": params.c1, "c2": params.c2,
        "hbar": params.hbar, "l4": qn.l4, "T": qn.T,
    }, results, checks)
    code = EXIT_OK if all(c["passed"] for c in checks) else EXIT_INVARIANT
    return env, code


def _ode_table(got: np.ndarray, want: np.ndarray, label: str) -> list[dict]:
    rels = relative_errors(got, want)
    return [
        row({label: i}, float(g), float(w), rel_scaled=float(r))
        for i, (g, w, r) in enumerate(zip(got, want, rels))
    ]


def cmd_verify_ode(args, argv) -> tuple[dict, int]:
    picture = resolve(args, "picture", str, "kepler-radial")
    k = resolve(args, "levels", int, 3)
    if k < 1:
        raise ValueError(f"levels must be at least 1, got {k}")
    mesh = resolve(args, "mesh", int, 2000)
    params = model_params(args)
    omega = resolve(args, "omega", float, 1.0)
    hbar = params.hbar
    if picture == "kepler-radial":
        lam = resolve(args, "Lambda", float, 0.0)
        res = spectra.kepler_radial_spectrum(lam, params, k, mesh)
        want = spectra.kepler_radial_oracle(lam, params, k)
        got = res.richardson
    elif picture == "kepler-angular":
        J = resolve(args, "J", float, 0.0)
        L = resolve(args, "L", float, 0.0)
        res = spectra.kepler_angular_spectrum(J, L, params, k, mesh)
        want = spectra.kepler_angular_oracle(J, L, params, k)
        got = res.richardson
    elif picture == "osc-radial":
        gam = resolve(args, "Gamma", float, 0.0)
        res = spectra.oscillator_radial_spectrum(gam, omega, hbar, k, mesh)
        want = spectra.oscillator_radial_oracle(gam, omega, hbar, k)
        got = res.richardson
    elif picture == "osc-angular":
        T = resolve(args, "T", float, 0.0)
        K = resolve(args, "K", float, 0.0)
        lam1 = resolve(args, "lambda1", float, 0.0)
        lam2 = resolve(args, "lambda2", float, 0.0)
        res = spectra.oscillator_angular_spectrum(T, K, lam1, lam2, hbar, k, mesh)
        want = spectra.oscillator_angular_oracle(T, K, lam1, lam2, hbar, k)
        got = res.richardson
    elif picture == "cylindrical":
        z = resolve(args, "z", float, 0.0)
        lamc = resolve(args, "lam_coupling", float, 0.0)
        res = spectra.cylindrical_spectrum(z, lamc, omega, hbar, k, mesh)
        want = spectra.cylindrical_oracle(z, lamc, omega, hbar, k)
        got = res.richardson
    elif picture == "parabolic":
        J = resolve(args, "J", float, 0.0)
        L = resolve(args, "L", float, 0.0)
        n_max = resolve(args, "n_max", int, 2)
        levels = spectra.parabolic_quantization(J, L, params, n_max=n_max, mesh=mesh)
        got = np.array([l.energy for l in levels])
        want = np.array([
            spectra.parabolic_oracle(l.n1, l.n2, J, L, params) for l in levels
        ])
    else:
        raise ValueError(f"unknown picture {picture!r}")
    results = _ode_table(got, want, "level")
    worst = float(np.max(relative_errors(got, want))) if len(got) else 0.0
    checks = [check(f"{picture}_vs_oracle", worst, ODE_RTOL, "closed-form spectrum")]
    env = make_envelope(argv, {
        "picture": picture, "levels": k, "mesh": mesh, "c0": params.c0,
        "c1": params.c1, "c2": params.c2, "hbar": hbar, "omega": omega,
    }, results, checks)
    code = EXIT_OK if all(c["passed"] for c in checks) else EXIT_INVARIANT
    return env, code


def cmd_verify_duality(args, argv) -> tuple[dict, int]:
    grid = resolve(args, "grid", str, "small")
    seed = resolve(args, "seed", int, 0)
    n_sample = 10_000 if grid == "full" else 1_000
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.1, 50.0, n_sample)
    om = rng.uniform(0.05, 20.0, n_sample)
    l1 = rng.uniform(0.0, 10.0, n_sample)
    l2 = rng.uniform(0.0, 10.0, n_sample)
    c0 = eps / 4.0
    en = -(om ** 2) / 8.0
    c1 = l1 / 2.0
    c2 = l2 / 2.0
    eps2 = 4.0 * c0
    om2 = np.sqrt(-8.0 * en)
    ulps = np.concatenate([
        np.abs(eps2 - eps) / np.spacing(np.abs(eps)),
        np.abs(om2 - om) / np.spacing(np.abs(om)),
        np.abs(2.0 * c1 - l1) / np.maximum(np.spacing(np.abs(l1)), 1e-300),
        np.abs(2.0 * c2 - l2) / np.maximum(np.spacing(np.abs(l2)), 1e-300),
    ])
    roundtrip_ulp = float(np.max(ulps))

    couplings = [0.0, 0.5, 1.5] if grid == "full" else [0.0, 0.5]
    zs = [0.0, 1.0]
    nmax = 5 if grid == "full" else 2
    points = []
    for c1v in couplings:
        for c2v in couplings:
            for z in zs:
                for n in range(nmax + 1):
                    for lam_extra in range(nmax + 1):
                        points.append((c1v, c2v, z, n, lam_extra))

    identity_worst = 0.0
    for c1v, c2v, z, n, lam_extra in points:
        p = ModelParams(c0=1.0, c1=c1v, c2=c2v)
        lam = int(2 * z + lam_extra)
        for picture, labels in (
            ("hyperspherical", dict(n=n, lam=lam, J=z, L=z)),
            ("euler", dict(n=n, lam=lam, T=z, K=z)),
            ("parabolic", dict(n1=n, n2=lam_extra, J=z, L=z)),
            ("cylindrical", dict(n1=n, n2=lam_extra, T=z, K=z)),
        ):
            identity_worst = max(identity_worst, duality.spectrum_identity_check(
                picture, labels, p).rel_diff)
    results = [
        row({"quantity": "roundtrip_max_ulp"}, roundtrip_ulp),
        row({"quantity": "identity_max_rel_diff"}, identity_worst),
        row({"quantity": "sample_size"}, float(n_sample)),
    ]
    checks = [
        check("duality_round_trip", roundtrip_ulp, 2.0, "exact inverse map, ulp units"),
        check("spectrum_identity", identity_worst, IDENTITY_RTOL,
              "algebraic master formula under level identifications"),
    ]
    env = make_envelope(argv, {"grid": grid, "seed": seed}, results, checks)
    code = EXIT_OK if all(c["passed"] for c in checks) else EXIT_INVARIANT
    return env, code


def cmd_verify_residuals(args, argv) -> tuple[dict, int]:
    picture = resolve(args, "picture", str, "kepler-angular")
    params = model_params(args)
    n_points = resolve(args, "points", int, 2001)
    omega = resolve(args, "omega", float, 1.0)
    hbar = params.hbar
    if picture == "kepler-angular":
        lam = resolve(args, "lam", int, 1)
        J = resolve(args, "J", float, 0.0)
        L = resolve(args, "L", float, 0.0)
        val = specfun.angular_residual(
            "kepler_hyperspherical", lam, J, L,
            couplings=(params.c1, params.c2), hbar=hbar, n_points=n_points)
    elif picture == "osc-angular":
        lam = resolve(args, "lam", int, 1)
        T = resolve(args, "T", float, 0.0)
        K = resolve(args, "K", float, 0.0)
        lam1 = resolve(args, "lambda1", float, 0.0)
        lam2 = resolve(args, "lambda2", float, 0.0)
        val = specfun.angular_residual(
            "oscillator_euler", lam, T, K,
            couplings=(lam1, lam2), hbar=hbar, n_points=n_points)
    elif picture == "kepler-radial":
        n = resolve(args, "n", int, 0)
        lam_eff = resolve(args, "lam_eff", float, 0.0)
        val = specfun.kepler_radial_residual(n, lam_eff, params, n_points=n_points)
    elif picture == "osc-radial":
        n = resolve(args, "n", int, 0)
        lam_eff = resolve(args, "lam_eff", float, 0.0)
        val = specfun.oscillator_radial_residual(n, lam_eff, omega, hbar, n_points=n_points)
    elif picture == "parabolic":
        n1 = resolve(args, "n1", int, 0)
        n2 = resolve(args, "n2", int, 0)
        J = resolve(args, "J", float, 0.0)
        L = resolve(args, "L", float, 0.0)
        kappa, lam_tilde, _ = specfun.parabolic_pair_parameters(n1, n2, J, L, params)
        val = max(
            specfun.parabolic_residual("mu", n1, J, params.c1, kappa, lam_tilde, params, n_points),
            specfun.parabolic_residual("nu", n2, L, params.c2, kappa, lam_tilde, params, n_points),
        )
    elif picture == "cylindrical":
        n = resolve(args, "n", int, 1)
        z = resolve(args, "z", float, 0.0)
        lamc = resolve(args, "lam_coupling", float, 0.0)
        val = specfun.cylindrical_residual(n, z, lamc, hbar, n_points=n_points)
    else:
        raise ValueError(f"unknown picture {picture!r}")
    results = [row({"picture": picture}, val)]
    checks = [check(f"{picture}_residual", val, RESIDUAL_TOL,
                    "closed-form solution satisfies the printed equation")]
    env = make_envelope(argv, {"picture": picture, "points": n_points}, results, checks)
    code = EXIT_OK if all(c["passed"] for c in checks) else EXIT_INVARIANT
    return env, code


# --------------------------------------------------------------------- argv

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "plain"), default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--config", default=None, help="key = value config file")


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monopole-spectra",
        description="5D Kepler-monopole / 8D oscillator spectrum toolkit",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form level tables")
    spsub = sp.add_subparsers(dest="system", required=True)
    k5 = spsub.add_parser("kepler5d")
    _add_model(k5)
    k5.add_argument("--l4", type=float, default=None)
    k5.add_argument("--T", type=float, default=None)
    k5.add_argument("--p-max", dest="p_max", type=int, default=None)
    k5.add_argument("--J", type=float, default=None, help="degeneracy label")
    k5.add_argument("--L", type=float, default=None, help="degeneracy label")
    _add_common(k5)
    o8 = spsub.add_parser("osc8d")
    o8.add_argument("--omega", type=float, default=None)
    o8.add_argument("--hbar", type=float, default=None)
    o8.add_argument("--lambda1", type=float, default=None)
    o8.add_argument("--lambda2", type=float, default=None)
    o8.add_argument("--T", type=float, default=None)
    o8.add_argument("--K", type=float, default=None)
    o8.add_argument("--levels", type=int, default=None)
    _add_common(o8)

    vf = sub.add_parser("verify", help="verification reports")
    vfsub = vf.add_subparsers(dest="what", required=True)

    va = vfsub.add_parser("algebra")
    _add_model(va)
    va.add_argument("--p", type=int, default=None)
    va.add_argument("--l4", type=float, default=None)
    va.add_argument("--T", type=float, default=None)
    _add_common(va)

    vo = vfsub.add_parser("ode")
    vo.add_argument("--picture", choices=(
        "kepler-radial", "kepler-angular", "osc-radial", "osc-angular",
        "cylindrical", "parabolic"), default=None)
    _add_model(vo)
    vo.add_argument("--Lambda", type=float, default=None)
    vo.add_argument("--Gamma", type=float, default=None)
    vo.add_argument("--omega", type=float, default=None)
    vo.add_argument("--lambda1", type=float, default=None)
    vo.add_argument("--lambda2", type=float, default=None)
    vo.add_argument("--J", type=float, default=None)
    vo.add_argument("--L", type=float, default=None)
    vo.add_argument("--T", type=float, default=None)
    vo.add_argument("--K", type=float, default=None)
    vo.add_argument("--z", type=float, default=None)
    vo.add_argument("--lam-coupling", dest="lam_coupling", type=float, default=None)
    vo.add_argument("--levels", type=int, default=None)
    vo.add_argument("--mesh", type=int, default=None)
    vo.add_argument("--n-max", dest="n_max", type=int, default=None)
    _add_common(vo)

    vd = vfsub.add_parser("duality")
    vd.add_argument("--grid", choices=("small", "full"), default=None)
    vd.add_argument("--seed", type=int, default=None)
    _add_common(vd)

    vr = vfsub.add_parser("residuals")
    vr.add_argument("--picture", choices=(
        "kepler-angular", "osc-angular", "kepler-radial", "osc-radial",
        "parabolic", "cylindrical"), default=None)
    _add_model(vr)
    vr.add_argument("--lam", type=int, default=None)
    vr.add_argument("--lam-eff", dest="lam_eff", type=float, default=None)
    vr.add_argument("--J", type=float, default=None)
    vr.add_argument("--L", type=float, default=None)
    vr.add_argument("--T", type=float, default=None)
    vr.add_argument("--K", type=float, default=None)
    vr.add_argument("--z", type=float, default=None)
    vr.add_argument("--lam-coupling", dest="lam_coupling", type=float, default=None)
    vr.add_argument("--lambda1", type=float, default=None)
    vr.add_argument("--lambda2", type=float, default=None)
    vr.add_argument("--omega", type=float, default=None)
    vr.add_argument("--n", type=int, default=None)
    vr.add_argument("--n1", type=int, default=None)
    vr.add_argument("--n2", type=int, default=None)
    vr.add_argument("--points", type=int, default=None)
    _add_common(vr)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input, 0 on --help/--version
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else {}
        check_config_keys(cfg, args)
        args._cfg = cfg
        if args.command == "spectrum":
            handler = {"kepler5d": cmd_spectrum_kepler5d, "osc8d": cmd_spectrum_osc8d}[args.system]
        else:
            handler = {
                "algebra": cmd_verify_algebra,
                "ode": cmd_verify_ode,
                "duality": cmd_verify_duality,
                "residuals": cmd_verify_residuals,
            }[args.what]
        envelope, code = handler(args, ["monopole-spectra"] + argv)
        fmt = resolve(args, "format", str, "json")
        emit(envelope, fmt, resolve(args, "out", str, None))
        return code
    except (ConvergenceFailure, NoIntersection) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (NegativeRadicand, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MonopoleSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
