"""Command-line front end: spectrum tables and verification reports.

Subcommands:
    spectrum kepler5d | osc8d      closed-form level tables
    verify algebra | ode | duality | residuals

Every parameter is declared once, as a `Param`, in the table of the command
that reads it; `verify ode` and `verify residuals` keep one table per
`--picture`, and the first picture of a table is its default.  The flags
(`--` + name, with `_` spelled `-`), the config parsing, the input checks and
the `params` echo are all derived from these declarations.

Reports are emitted as JSON (default), CSV, or plain text.  JSON carries the
schema {version, timestamp, command, params, results, checks}; `params`
echoes every resolved input of the command or picture, result rows carry
{labels, value, oracle, abs_diff, rel_diff} (plus row-specific extras), and
every check records its tolerance and oracle identity.

Exit codes: 0 success, 2 invalid input (also inputs whose arithmetic leaves
the floating-point range), 3 convergence failure or a check that measured a
non-finite value (no verdict), 4 invariant violation (including failed
verification checks).

A plain-text config file of `key = value` lines can be passed via --config;
explicit command-line flags take precedence.  Config values are typed and
checked like flags: cast by the declared type, checked against the declared
choices and bound, and every number must be finite.  A flag or key that the
command, or its chosen picture, does not read exits 2 and is named.

Each command imports only the modules it runs.  At module level this file
imports the standard library and the numpy-free modules (`algebra`,
`duality`, `specfun`, `params`, `errors`); numpy, `spectra` (and with it
scipy) and `fock` are imported inside the functions that use them.  So the
`spectrum` commands, which are pure arithmetic, load neither numpy nor scipy;
`verify ode` alone loads `spectra`, and `verify algebra` alone loads `fock`.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__, algebra, duality, specfun
from .errors import ConvergenceFailure, MonopoleSpectraError
from .params import ModelParams, QuantumNumbers

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np

    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    spectrum = float(np.max(np.abs(want))) if want.size else 1.0
    spectrum = max(spectrum, 1e-300)
    scale = np.where(np.abs(want) > 1e-9 * spectrum, np.abs(want), spectrum)
    return np.abs(got - want) / scale


# ------------------------------------------------------------------ envelope

ROW_KEYS = ("labels", "value", "oracle", "abs_diff", "rel_diff")


def row(labels: dict, value: float, oracle: float | None = None, **extra) -> dict:
    r = {"labels": labels, "value": value, "oracle": oracle,
         "abs_diff": None, "rel_diff": None}
    if oracle is not None:
        r["abs_diff"] = abs(value - oracle)
        r["rel_diff"] = abs(value - oracle) / max(abs(oracle), 1e-300)
    r.update(extra)
    return r


def check(name: str, measured: float, tolerance: float, oracle: str, **extra) -> dict:
    return {
        "name": name,
        "passed": bool(measured <= tolerance),
        "measured": measured,
        "tolerance": tolerance,
        "oracle": oracle,
        **extra,
    }


def _fmt17(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def render_json(envelope: dict) -> str:
    return json.dumps(envelope, indent=2, default=_fmt17) + "\n"


def render_csv(envelope: dict) -> str:
    rows = envelope["results"]
    label_keys = list(dict.fromkeys(k for r in rows for k in r["labels"]))
    extra_keys = list(dict.fromkeys(k for r in rows for k in r if k not in ROW_KEYS))
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
        extra_keys = [k for k in rows[0] if k not in ROW_KEYS]
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


RENDERERS = {"json": render_json, "csv": render_csv, "plain": render_plain}


def emit(envelope: dict, fmt: str, out_path: str | None) -> None:
    text = RENDERERS[fmt](envelope)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------ declarations

class Param(NamedTuple):
    """One parameter: flag `--name` (`_` spelled `-`), config key `name`.

    Values from a flag or the config file are cast by `type`, must be one of
    `choices` when given, greater than `above` when given, and finite."""

    name: str
    type: type
    default: object = None
    choices: tuple | None = None
    above: float | None = None


C0 = Param("c0", float, 1.0)
COUPLINGS = [Param("c1", float, 0.0), Param("c2", float, 0.0)]
HBAR = Param("hbar", float, 1.0, above=0.0)
MODEL = [C0, *COUPLINGS, HBAR]
OMEGA = Param("omega", float, 1.0, above=0.0)
LAMBDAS = [Param("lambda1", float, 0.0), Param("lambda2", float, 0.0)]
T = Param("T", float, 0.0)
L4_T = [Param("l4", float, 0.0), T]               # algebraic sector labels
J_L = [Param("J", float, 0.0), Param("L", float, 0.0)]  # 5D picture labels
T_K = [T, Param("K", float, 0.0)]                 # 8D picture labels
SECTOR = [Param("z", float, 0.0), Param("lam_coupling", float, 0.0)]
MESH = Param("mesh", int, 2000)
LEVELS = Param("levels", int, 3, above=0)
SOLVE = [LEVELS, MESH]
LAM = Param("lam", int, 1)
LAM_EFF = Param("lam_eff", float, 0.0)
POINTS = Param("points", int, 2001)

OUTPUT = [Param("format", str, "json", tuple(RENDERERS)), Param("out", str)]
CONFIG = Param("config", str)


def model(v: dict) -> ModelParams:
    """ModelParams of the resolved values; fields the run does not read keep their defaults."""
    return ModelParams(**{p.name: v.get(p.name, p.default) for p in MODEL})


class Pictures(NamedTuple):
    """A command whose parameters depend on `--picture` (the first one is the
    default): each picture pairs its declarations with a function of their
    values, whose output `report` turns into (results, checks)."""

    table: dict[str, tuple[list[Param], Callable]]
    report: Callable

    @property
    def picture(self) -> Param:
        return Param("picture", str, next(iter(self.table)), tuple(self.table))

    def plan(self, picture: str) -> tuple[list[Param], Callable]:
        decls, fn = self.table[picture]
        return [self.picture, *decls], lambda v: self.report(picture, fn(v))


# ------------------------------------------------------------------ spectrum

def spectrum_kepler5d(v: dict) -> tuple[list, list]:
    params = model(v)
    qn = QuantumNumbers(l4=v["l4"], T=v["T"])
    results = []
    if v["p_max"] >= 0:
        m = algebra.aux_exponents(params, qn)
        for p in range(v["p_max"] + 1):
            e = algebra.energy_level(p, m, params)
            deg = algebra.degeneracy_count(p, v["J"], v["L"]) if p >= 1 else 0
            results.append(row({"p": p}, e, degeneracy=deg))
    return results, []


def spectrum_osc8d(v: dict) -> tuple[list, list]:
    omega, hbar, T, K = v["omega"], v["hbar"], v["T"], v["K"]
    if v["lambda1"] < 0 or v["lambda2"] < 0 or T < 0 or K < 0:
        raise ValueError("couplings and labels must be non-negative")
    d = specfun.delta_exponents("oscillator", (v["lambda1"], v["lambda2"]), T, K, hbar)
    results = []
    for s in range(v["levels"]):
        eps = specfun.oscillator_level(specfun.effective_exponent(s, T, K, d) + 2.0, omega, hbar)
        results.append(row({"n_plus_m": s}, eps, degeneracy=s + 1))
    return results, []


# -------------------------------------------------------------------- verify

def verify_algebra(v: dict) -> tuple[list, list]:
    from .fock import build_generators, build_rep, verify_algebra

    params = model(v)
    qn = QuantumNumbers(l4=v["l4"], T=v["T"])
    sol = algebra.solve_unirrep(v["p"], params, qn)
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
        # q3 is relative entry by entry, against the rounding magnitudes of
        # the generator entries; in units of eps it stays near 1 at every p
        # (1.4 at p = 100, 1.5 at p = 12000 on c = (0.5, 0.5), l4 = 1, T = 0.5)
        check("second_commutation_relation", rpt.residual_q3, ALGEBRA_RTOL,
              "closure of [B,C] against -2B^2 + 8HA + const, calibrated rho",
              dim=rep.dim, q3_per_eps=rpt.residual_q3 / sys.float_info.epsilon),
        check("rho_calibration_is_unity", abs(rpt.rho_calibration - 1.0), 1e-8,
              "fitted off-diagonal rescale"),
        check("casimir_centrality", rpt.casimir_offdiag, ALGEBRA_RTOL,
              "off-diagonal of the Casimir matrix"),
        check("casimir_scalar_match", rpt.casimir_scalar_mismatch, CASIMIR_SCALAR_RTOL,
              "diagonal vs closed-form Casimir value"),
    ]
    return results, checks


def _solved(v: dict, stem: str, *args) -> tuple:
    """Richardson-extrapolated and closed-form lowest `levels` of one picture:
    `spectra.<stem>_spectrum` and `spectra.<stem>_oracle` at args."""
    from . import spectra

    return (getattr(spectra, f"{stem}_spectrum")(*args, v["levels"], v["mesh"]).richardson,
            getattr(spectra, f"{stem}_oracle")(*args, v["levels"]))


def _parabolic_levels(v: dict) -> tuple:
    import numpy as np

    from . import spectra

    params = model(v)
    levels = spectra.parabolic_quantization(
        v["J"], v["L"], params, n_max=v["n_max"], mesh=v["mesh"])
    return (np.array([l.energy for l in levels]), np.array([
        spectra.parabolic_oracle(l.n1, l.n2, v["J"], v["L"], params) for l in levels]))


def ode_report(picture: str, levels: tuple) -> tuple[list, list]:
    got, want = levels
    rels = relative_errors(got, want)
    results = [
        row({"level": i}, float(g), float(w), rel_scaled=float(r))
        for i, (g, w, r) in enumerate(zip(got, want, rels))
    ]
    return results, [check(f"{picture}_vs_oracle", float(rels.max()), ODE_RTOL,
                           "closed-form spectrum")]


ODE = Pictures({
    "kepler-radial": ([Param("Lambda", float, 0.0), C0, HBAR, *SOLVE], lambda v: _solved(
        v, "kepler_radial", v["Lambda"], model(v))),
    "kepler-angular": ([*J_L, *COUPLINGS, HBAR, *SOLVE], lambda v: _solved(
        v, "kepler_angular", v["J"], v["L"], model(v))),
    "osc-radial": ([Param("Gamma", float, 0.0), OMEGA, HBAR, *SOLVE], lambda v: _solved(
        v, "oscillator_radial", v["Gamma"], v["omega"], v["hbar"])),
    "osc-angular": ([*T_K, *LAMBDAS, HBAR, *SOLVE], lambda v: _solved(
        v, "oscillator_angular", v["T"], v["K"], v["lambda1"], v["lambda2"], v["hbar"])),
    "cylindrical": ([*SECTOR, OMEGA, HBAR, *SOLVE], lambda v: _solved(
        v, "cylindrical", v["z"], v["lam_coupling"], v["omega"], v["hbar"])),
    "parabolic": ([*J_L, *MODEL, MESH, Param("n_max", int, 2, above=-1)], _parabolic_levels),
}, ode_report)


def verify_duality(v: dict) -> tuple[list, list]:
    import numpy as np

    grid = v["grid"]
    n_sample = 10_000 if grid == "full" else 1_000
    rng = np.random.default_rng(v["seed"])
    eps, om, l1, l2 = (rng.uniform(lo, hi, n_sample)
                       for lo, hi in ((0.1, 50.0), (0.05, 20.0), (0.0, 10.0), (0.0, 10.0)))
    # each sampled 8D level goes to its 5D dual and back through the package's maps
    roundtrip_ulp = 0.0
    for sample in zip(eps.tolist(), om.tolist(), l1.tolist(), l2.tolist()):
        back = duality.oscillator_from_kepler(*duality.kepler_from_oscillator(*sample))
        roundtrip_ulp = max(roundtrip_ulp, *(
            abs(b - s) / max(math.ulp(s), 1e-300) for b, s in zip(back, sample)))

    couplings = [0.0, 0.5, 1.5] if grid == "full" else [0.0, 0.5]
    nmax = 5 if grid == "full" else 2
    identity_worst = 0.0
    for c1v, c2v, z, n, lam_extra in itertools.product(
            couplings, couplings, (0.0, 1.0), range(nmax + 1), range(nmax + 1)):
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
    return results, checks


def _parabolic_residual(v: dict) -> float:
    params = model(v)
    n1, n2, J, L, n_points = v["n1"], v["n2"], v["J"], v["L"], v["points"]
    kappa, lam_tilde, _ = specfun.parabolic_pair_parameters(n1, n2, J, L, params)
    return max(
        specfun.parabolic_residual("mu", n1, J, params.c1, kappa, lam_tilde, params, n_points),
        specfun.parabolic_residual("nu", n2, L, params.c2, kappa, lam_tilde, params, n_points),
    )


def residual_report(picture: str, val: float) -> tuple[list, list]:
    return [row({"picture": picture}, val)], [check(
        f"{picture}_residual", val, RESIDUAL_TOL,
        "closed-form solution satisfies the printed equation")]


RESIDUALS = Pictures({
    "kepler-angular": ([LAM, *J_L, *COUPLINGS, HBAR, POINTS], lambda v: specfun.angular_residual(
        "kepler_hyperspherical", v["lam"], v["J"], v["L"],
        couplings=(v["c1"], v["c2"]), hbar=v["hbar"], n_points=v["points"])),
    "osc-angular": ([LAM, *T_K, *LAMBDAS, HBAR, POINTS], lambda v: specfun.angular_residual(
        "oscillator_euler", v["lam"], v["T"], v["K"],
        couplings=(v["lambda1"], v["lambda2"]), hbar=v["hbar"], n_points=v["points"])),
    "kepler-radial": ([Param("n", int, 0, above=-1), LAM_EFF, C0, HBAR, POINTS],
                      lambda v: specfun.kepler_radial_residual(
                          v["n"], v["lam_eff"], model(v), n_points=v["points"])),
    "osc-radial": ([Param("n", int, 0, above=-1), LAM_EFF, OMEGA, HBAR, POINTS],
                   lambda v: specfun.oscillator_radial_residual(
                       v["n"], v["lam_eff"], v["omega"], v["hbar"], n_points=v["points"])),
    "parabolic": ([Param("n1", int, 0, above=-1), Param("n2", int, 0, above=-1),
                   *J_L, *MODEL, POINTS], _parabolic_residual),
    "cylindrical": ([Param("n", int, 1, above=-1), *SECTOR, HBAR, POINTS],
                    lambda v: specfun.cylindrical_residual(
                        v["n"], v["z"], v["lam_coupling"], v["hbar"], n_points=v["points"])),
}, residual_report)


COMMANDS = {
    "spectrum": {
        "kepler5d": ([*MODEL, *L4_T, Param("p_max", int, 3), *J_L], spectrum_kepler5d),
        "osc8d": ([OMEGA, HBAR, *LAMBDAS, *T_K, LEVELS], spectrum_osc8d),
    },
    "verify": {
        "algebra": ([Param("p", int, 4), *MODEL, *L4_T], verify_algebra),
        "ode": ODE,
        "duality": ([Param("grid", str, "small", ("small", "full")),
                     Param("seed", int, 0, above=-1)], verify_duality),
        "residuals": RESIDUALS,
    },
}


# ----------------------------------------------------------------- boundary

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


def declared(entry) -> list[Param]:
    """Every parameter a command accepts, once per name."""
    decls = ([entry.picture, *(p for d, _ in entry.table.values() for p in d)]
             if isinstance(entry, Pictures) else entry[0])
    return list({p.name: p for p in decls}.values())


def resolve(p: Param, args: argparse.Namespace, cfg: dict):
    """Flag beats config file beats the declared default; a value from a
    flag or the file is checked against the declaration."""
    value = getattr(args, p.name)
    if value is None and p.name in cfg:
        try:
            value = p.type(cfg[p.name])
        except ValueError:
            raise ValueError(f"{p.name} must be {p.type.__name__}, got {cfg[p.name]!r}") from None
    if value is None:
        return p.default
    if p.choices is not None and value not in p.choices:
        raise ValueError(f"{p.name} must be one of {', '.join(p.choices)}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{p.name} must be finite, got {value!r}")
    if p.above is not None and not value > p.above:
        raise ValueError(f"{p.name} must be greater than {p.above}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monopole-spectra",
        description="5D Kepler-monopole / 8D oscillator spectrum toolkit",
    )
    ap.add_argument("--version", action="version", version=__version__)
    groups = ap.add_subparsers(dest="group", required=True)
    for group, commands in COMMANDS.items():
        names = groups.add_parser(group).add_subparsers(dest="name", required=True)
        for name, entry in commands.items():
            sub = names.add_parser(name)
            for p in [*declared(entry), *OUTPUT, CONFIG]:
                sub.add_argument("--" + p.name.replace("_", "-"), type=p.type, choices=p.choices)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input, 0 on --help/--version
        return int(exc.code or 0)
    label = f"{args.group} {args.name}"
    try:
        cfg = load_config(args.config) if args.config else {}
        entry = COMMANDS[args.group][args.name]
        if isinstance(entry, Pictures):
            picture = resolve(entry.picture, args, cfg)
            decls, run = entry.plan(picture)
            label += f" --picture {picture}"
        else:
            decls, run = entry
        supplied = {p.name for p in declared(entry) + OUTPUT if getattr(args, p.name) is not None}
        unread = sorted((supplied | set(cfg)) - {p.name for p in decls + OUTPUT})
        if unread:
            raise ValueError(f"{label} does not read {', '.join(unread)}")
        values = {p.name: resolve(p, args, cfg) for p in decls}
        fmt, out = (resolve(p, args, cfg) for p in OUTPUT)
        results, checks = run(values)
        undecided = [c["name"] for c in checks if not math.isfinite(c["measured"])]
        if undecided:
            print(f"error: {label}: {', '.join(undecided)} measured a non-finite value, "
                  "so no verdict", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        emit({
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "command": " ".join(["monopole-spectra"] + argv),
            "params": values,
            "results": results,
            "checks": checks,
        }, fmt, out)
        return EXIT_OK if all(c["passed"] for c in checks) else EXIT_INVARIANT
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"error: {label}: the inputs leave the floating-point range "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_INVALID
    except MonopoleSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
