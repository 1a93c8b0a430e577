import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopole_spectra.cli import (
    COMMANDS, COUPLINGS, J_L, LAMBDAS, ODE, ODE_RTOL, RESIDUALS, SECTOR, T_K, Pictures, main,
    relative_errors,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
BENCH = str(ROOT / "bench")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv + ["--format", "json"], capsys)
    return code, (json.loads(out) if out else None)


class TestSpectrumCommands:
    def test_kepler5d_table(self, capsys):
        code, env = run_json(
            ["spectrum", "kepler5d", "--c0", "1", "--c1", "0", "--c2", "0",
             "--l4", "0", "--T", "0", "--p-max", "3"], capsys)
        assert code == 0
        values = [r["value"] for r in env["results"]]
        assert values == pytest.approx([-1 / 8, -1 / 18, -1 / 32, -1 / 50], rel=1e-15)

    def test_osc8d_levels(self, capsys):
        code, env = run_json(
            ["spectrum", "osc8d", "--omega", "1", "--lambda1", "0",
             "--lambda2", "0", "--levels", "3"], capsys)
        assert code == 0
        assert [r["value"] for r in env["results"]] == pytest.approx([4.0, 6.0, 8.0])
        assert [r["degeneracy"] for r in env["results"]] == [1, 2, 3]

    def test_empty_range_exits_zero(self, capsys):
        code, env = run_json(["spectrum", "kepler5d", "--p-max", "-1"], capsys)
        assert code == 0
        assert env["results"] == []

    def test_invalid_params_exit_2(self, capsys):
        code = main(["spectrum", "kepler5d", "--c0", "-1", "--p-max", "2"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys):
        code = main(["spectrum", "kepler5d", "--bogus", "1"])
        capsys.readouterr()
        assert code == 2


class TestEnvelopeSchema:
    def test_top_level_keys(self, capsys):
        _, env = run_json(["spectrum", "kepler5d", "--p-max", "1"], capsys)
        assert set(env) == {"version", "timestamp", "command", "params", "results", "checks"}

    def test_row_keys(self, capsys):
        _, env = run_json(
            ["verify", "ode", "--picture", "kepler-radial", "--Lambda", "0",
             "--levels", "2", "--mesh", "1000"], capsys)
        for r in env["results"]:
            assert {"labels", "value", "oracle", "abs_diff", "rel_diff"} <= set(r)

    def test_checks_carry_tolerance_and_oracle(self, capsys):
        _, env = run_json(["verify", "duality", "--grid", "small"], capsys)
        for c in env["checks"]:
            assert {"name", "passed", "measured", "tolerance", "oracle"} <= set(c)

    def test_json_floats_roundtrip(self, capsys):
        _, env = run_json(["spectrum", "kepler5d", "--p-max", "2"], capsys)
        assert env["results"][1]["value"] == -1 / 18

    def test_csv_is_lossless_flattening(self, capsys):
        code, out = run(
            ["verify", "ode", "--picture", "kepler-radial", "--Lambda", "0",
             "--levels", "2", "--mesh", "1000", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        code2, env = run_json(
            ["verify", "ode", "--picture", "kepler-radial", "--Lambda", "0",
             "--levels", "2", "--mesh", "1000"], capsys)
        assert len(data) == len(env["results"])
        vi = header.index("value")
        for line, r in zip(data, env["results"]):
            assert float(line[vi]) == float(r["value"])
            assert float(line[header.index("label.level")]) == r["labels"]["level"]


class TestVerifyCommands:
    def test_algebra_pass(self, capsys):
        code, env = run_json(
            ["verify", "algebra", "--p", "4", "--c0", "1", "--c1", "0.5",
             "--c2", "0.5", "--l4", "1", "--T", "0.5"], capsys)
        assert code == 0
        assert all(c["passed"] for c in env["checks"])

    @pytest.mark.parametrize("p, sector", [
        (3000, ["--c0", "2", "--c1", "1.5", "--c2", "0", "--l4", "2", "--T", "1"]),
        (5000, []),
        (12000, ["--c1", "0.5", "--c2", "0.5", "--l4", "1", "--T", "0.5"]),
        (16000, ["--c1", "0.5", "--c2", "0.5", "--l4", "1", "--T", "0.5"]),
        (100000, ["--c1", "0.5", "--c2", "0.5", "--l4", "1", "--T", "0.5"]),
    ])
    def test_algebra_large_p_pass(self, p, sector, capsys):
        code, env = run_json(["verify", "algebra", "--p", str(p), *sector], capsys)
        assert code == 0
        assert all(c["passed"] for c in env["checks"])

    def test_algebra_measures_do_not_grow_with_p(self, capsys):
        """Rounding of the generator entries grows with p; measured entry by
        entry against the terms that form it, it does not."""
        sector = ["--c1", "0.5", "--c2", "0.5", "--l4", "1", "--T", "0.5"]
        measured = {}
        for p in (100, 100000):
            code, env = run_json(["verify", "algebra", "--p", str(p), *sector], capsys)
            assert code == 0
            measured[p] = {c["name"]: c["measured"] for c in env["checks"]}
        for name in ("first_commutation_relation", "second_commutation_relation",
                     "casimir_centrality"):
            assert 0.0 < measured[100000][name] <= 10.0 * measured[100][name], (name, measured)

    def test_algebra_q3_rounding_extras(self, capsys):
        code, env = run_json(
            ["verify", "algebra", "--p", "100", "--c1", "0.5", "--c2", "0.5",
             "--l4", "1", "--T", "0.5"], capsys)
        (q3,) = [c for c in env["checks"] if c["name"] == "second_commutation_relation"]
        assert q3["dim"] == 101
        assert q3["q3_per_eps"] == pytest.approx(q3["measured"] / 2.0 ** -52)
        assert 0.0 < q3["q3_per_eps"] < 1e3
        assert set(env) == {"version", "timestamp", "command", "params", "results", "checks"}

    def test_algebra_invalid_sector_exit_2(self, capsys):
        code = main(["verify", "algebra", "--p", "2", "--T", "1"])
        capsys.readouterr()
        assert code == 2

    def test_ode_kepler_radial(self, capsys):
        code, env = run_json(
            ["verify", "ode", "--picture", "kepler-radial", "--Lambda", "0",
             "--levels", "3", "--mesh", "2000"], capsys)
        assert code == 0
        assert env["checks"][0]["passed"]

    def test_ode_convergence_failure_exit_3(self, capsys):
        code = main(["verify", "ode", "--picture", "kepler-radial",
                     "--Lambda", "0", "--levels", "3", "--mesh", "10"])
        capsys.readouterr()
        assert code == 3

    def test_lapack_failure_exit_3(self, capsys, monkeypatch):
        import scipy.linalg

        def failed(*args, **kwargs):
            raise scipy.linalg.LinAlgError("eigenvectors failed to converge")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failed)
        code = main(["verify", "ode", "--picture", "kepler-radial", "--levels", "3",
                     "--mesh", "2000"])
        err = capsys.readouterr().err
        assert code == 3
        assert "mesh 2000" in err and "failed to converge" in err

    def test_failed_checks_exit_4(self, capsys, monkeypatch):
        import monopole_spectra.cli as cli_mod

        monkeypatch.setattr(cli_mod, "ODE_RTOL", 1e-30)
        code = main(["verify", "ode", "--picture", "kepler-radial",
                     "--Lambda", "0", "--levels", "2", "--mesh", "1000"])
        capsys.readouterr()
        assert code == 4

    def test_duality(self, capsys):
        code, env = run_json(["verify", "duality", "--grid", "small"], capsys)
        assert code == 0
        assert all(c["passed"] for c in env["checks"])

    def test_duality_round_trip_runs_the_package_maps(self, capsys, monkeypatch):
        from monopole_spectra import duality

        exact = duality.oscillator_from_kepler

        def off_by_1e12(*args):
            return tuple(x * (1.0 + 1e-12) for x in exact(*args))

        monkeypatch.setattr(duality, "oscillator_from_kepler", off_by_1e12)
        code, env = run_json(["verify", "duality", "--grid", "small"], capsys)
        assert code == 4
        checks = {c["name"]: c for c in env["checks"]}
        assert not checks["duality_round_trip"]["passed"]
        assert checks["spectrum_identity"]["passed"]

    @pytest.mark.parametrize("picture", list(ODE.table))
    def test_ode_rows_carry_the_check_measure(self, picture, capsys):
        code, env = run_json(["verify", "ode", "--picture", picture], capsys)
        assert code == 0
        rows = env["results"]
        rels = relative_errors([r["value"] for r in rows], [r["oracle"] for r in rows])
        assert [r["rel_diff"] for r in rows] == list(rels)
        assert max(rels) == env["checks"][0]["measured"] <= ODE_RTOL

    def test_residuals(self, capsys):
        code, env = run_json(
            ["verify", "residuals", "--picture", "kepler-angular", "--lam", "1",
             "--c1", "1", "--c2", "1"], capsys)
        assert code == 0
        assert env["checks"][0]["measured"] <= 1e-7


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c0 = 2.0\np-max = 1\n# comment\n")
        _, env = run_json(
            ["spectrum", "kepler5d", "--config", str(cfg)], capsys)
        # E scales with c0^2: ground level -4/8
        assert env["results"][0]["value"] == pytest.approx(-0.5)
        assert len(env["results"]) == 2

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c0 = 2.0\np-max = 3\n")
        _, env = run_json(
            ["spectrum", "kepler5d", "--config", str(cfg), "--c0", "1"], capsys)
        assert env["results"][0]["value"] == pytest.approx(-0.125)
        assert len(env["results"]) == 4

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code = main(["spectrum", "kepler5d", "--config", str(cfg)])
        capsys.readouterr()
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["spectrum", "kepler5d", "--p-max", "1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        env = json.loads(out.read_text())
        assert env["results"][0]["value"] == -0.125


class TestInputBoundary:
    def test_non_finite_value_exit_2(self, capsys):
        code = main(["spectrum", "osc8d", "--omega", "nan", "--levels", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "omega" in err

    def test_non_finite_config_value_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = inf\n")
        code = main(["spectrum", "osc8d", "--config", str(cfg)])
        assert code == 2
        assert "omega" in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("c0 = 2.0\npmax = 5\n")
        code = main(["spectrum", "kepler5d", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "pmax" in captured.err

    def test_negative_parabolic_label_exit_2(self, capsys):
        code = main(["verify", "ode", "--picture", "parabolic", "--J", "-1"])
        assert code == 2
        assert "J must be finite and non-negative, got -1.0" in capsys.readouterr().err

    def test_zero_levels_exit_2(self, capsys):
        # one `levels` declaration: spectrum osc8d rejects what verify ode does
        for argv in (["verify", "ode", "--picture", "kepler-radial", "--levels", "0"],
                     ["spectrum", "osc8d", "--levels", "0"],
                     ["spectrum", "osc8d", "--levels", "-2"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.out == ""
            assert "levels" in captured.err, argv

    @pytest.mark.parametrize("argv, label", [
        ("verify residuals --picture kepler-radial --hbar 1e+300",
         "verify residuals --picture kepler-radial"),
        ("verify ode --picture cylindrical --hbar 1e-300", "verify ode --picture cylindrical"),
        ("verify algebra --hbar 1e+300 --l4 1e+150", "verify algebra"),
        ("spectrum osc8d --hbar 1e-300 --lambda1 1", "spectrum osc8d"),
        # l4 (l4 + 2) overflows, so m1 is not finite: no table of -0 energies
        ("spectrum kepler5d --c2 1e-300 --l4 1e+300 --T 1", "spectrum kepler5d"),
        # the finite coarse levels refine to nan or inf: no ordering to check
        ("verify ode --picture kepler-radial --Lambda 1e+150", "verify ode --picture kepler-radial"),
        ("verify ode --picture osc-radial --Gamma 1e+150", "verify ode --picture osc-radial"),
        ("verify ode --picture kepler-angular --c1 1e+150", "verify ode --picture kepler-angular"),
        ("verify ode --picture parabolic --c1 1e+150", "verify ode --picture parabolic"),
        ("verify ode --picture osc-angular --lambda1 1e+150", "verify ode --picture osc-angular"),
    ])
    def test_arithmetic_out_of_range_exit_2(self, argv, label, capsys):
        # finite flags whose arithmetic overflows or divides by an underflow
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{label}: the inputs leave the floating-point range" in captured.err

    @pytest.mark.parametrize("argv, check_name", [
        ("verify residuals --picture cylindrical --z 10000 --lam-coupling 0.5",
         "cylindrical_residual"),
        ("verify residuals --picture osc-angular --lam 30 --K 1e-12 --lambda2 1e6 --hbar 1e-12",
         "osc-angular_residual"),
    ])
    def test_non_finite_measure_is_no_verdict_exit_3(self, argv, check_name, capsys):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert f"{check_name} measured a non-finite value" in captured.err


# the float values the boundary property test draws each declared float from
EXTREMES = (0.0, -1.0, 1e-300, 1e-12, 0.5, 1.0, 7.25, 1e6, 1e150, 1e300)


def command_tables():
    """(argv prefix, declared parameters) of every command and picture."""
    for group, commands in COMMANDS.items():
        for name, entry in commands.items():
            tables = ({picture: entry.plan(picture)[0] for picture in entry.table}
                      if isinstance(entry, Pictures) else {None: entry[0]})
            for picture, decls in tables.items():
                prefix = [group, name] + (["--picture", picture] if picture else [])
                yield pytest.param(prefix, decls, id=" ".join(prefix))


@pytest.mark.parametrize("prefix, decls", list(command_tables()))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_float_input_ends_in_a_documented_exit(prefix, decls, data):
    """Whatever finite value each declared float takes, from an underflow to
    an overflow, `main` raises nothing, exits 0, 2, 3 or 4, and no check it
    prints measured a non-finite value (ints keep their defaults)."""
    argv = list(prefix)
    for p in decls:
        if p.type is float:
            value = data.draw(st.sampled_from(EXTREMES), label=p.name)
            argv += ["--" + p.name.replace("_", "-"), repr(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if out.getvalue():
        assert all(math.isfinite(c["measured"]) for c in json.loads(out.getvalue())["checks"])


class TestCoulombPicturesThroughOscillator:
    """Inputs the Coulomb-mesh solver failed on: the 5D radial equation is
    now solved as the 8D radial one."""

    def test_kepler_radial_eight_levels(self, capsys):
        code, env = run_json(
            ["verify", "ode", "--picture", "kepler-radial", "--levels", "8"], capsys)
        assert code == 0
        assert env["checks"][0]["passed"]

    def test_kepler_radial_forty_levels(self, capsys):
        code, env = run_json(
            ["verify", "ode", "--picture", "kepler-radial", "--levels", "40",
             "--mesh", "4000"], capsys)
        assert code == 0
        assert env["checks"][0]["passed"]


FRESH_ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))


def fresh(code: str) -> list[str]:
    """Lines that `code` prints in a fresh interpreter importing the package from src."""
    return subprocess.run([sys.executable, "-c", code], env=FRESH_ENV, check=True,
                          capture_output=True, text=True).stdout.splitlines()


LOADED = "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"


def test_cli_import_does_not_load_scipy():
    """The `spectrum` commands are pure arithmetic and `verify duality` maps
    Python floats drawn by `random`: importing the package or the CLI, or
    running a README `spectrum` line or `verify duality` on either grid as
    `python -m monopole_spectra`, loads neither numpy nor scipy.  scipy is
    imported on the first eigensolve."""
    for module in ("monopole_spectra", "monopole_spectra.cli"):
        assert fresh(f"import sys, {module}; {LOADED}") == ["[]"], module
    spectrum = [argv for argv in readme_cli_commands() if argv[0] == "spectrum"]
    assert [argv[1] for argv in spectrum] == ["kepler5d", "osc8d"]
    duality = [["verify", "duality", "--grid", grid] for grid in ("small", "full")]
    for argv in spectrum + duality:
        out = fresh(f"import runpy, sys\nsys.argv = ['monopole_spectra', *{argv!r}]\n"
                    "try:\n    runpy.run_module('monopole_spectra', run_name='__main__',"
                    " alter_sys=True)\nexcept SystemExit as exc:\n    assert exc.code == 0\n"
                    + LOADED)
        assert json.loads("\n".join(out[:-1]))["results"], argv
        assert out[-1] == "[]", argv


# every name the package exports at top level
PUBLIC = """
    RAW_TO_FACTORED_SCALE UnirrepSolution aux_exponents degeneracy_count energy_level
    factored_roots solve_unirrep structure_function_factored
    structure_function_raw ycm_energy kepler_from_oscillator oscillator_from_kepler
    spectrum_identity_check AlgebraReport DeformedOscillatorRep GeneratorMatrices
    build_generators build_rep verify_algebra AuxExponents ModelParams
    QuantumNumbers end_exponent jacobi_p kummer_poly
    EigenResult SturmLiouvilleProblem cylindrical_spectrum kepler_angular_spectrum
    kepler_radial_spectrum oscillator_angular_spectrum oscillator_radial_spectrum
    parabolic_quantization
""".split()


def test_layers_resolve_by_attribute():
    """`bench/tracing.py` reaches each layer as getattr(package, layer),
    possibly before anything imported it, so that call must import the
    submodule; and every public name imports from the package."""
    out = fresh(f"import sys; sys.path.insert(0, {BENCH!r})\n"
                "import monopole_spectra as pkg\n"
                "from tracing import LAYER_FUNCTIONS\n"
                "for layer, names in LAYER_FUNCTIONS.items():\n"
                "    module = getattr(pkg, layer)\n"
                "    assert module.__name__ == 'monopole_spectra.' + layer, module\n"
                "    assert all(callable(getattr(module, n)) for n in names), layer\n"
                f"from monopole_spectra import {', '.join(PUBLIC)}\n"
                "print(hasattr(pkg, 'no_such_name'))")
    assert out == ["False"]


def config_file(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


def non_positive_scales():
    """Each command and picture that reads hbar or omega, with that flag at a
    zero or negative value, and the validator's message it must print."""
    for case in command_tables():
        prefix, decls = case.values
        for flag, value in (("hbar", "0"), ("hbar", "-1"), ("omega", "0")):
            if any(p.name == flag for p in decls):
                argv = prefix + [f"--{flag}", value]
                yield pytest.param(argv, f"{flag} must be finite and positive, got {float(value)!r}",
                                   id=" ".join(argv))


# each count or degree the commands read -> (the rule's wording, the first
# value it rejects): the number of levels must be positive, the others
# non-negative
COUNTS = {"levels": ("positive", 0),
          **{name: ("non-negative", -1) for name in ("n_max", "n", "n1", "n2", "p", "seed")}}
# integers that size a grid or fix a degree, checked where they are used
STRUCTURAL = {"mesh", "points", "lam"}


def counts_out_of_range():
    """Each command and picture that reads a count or degree, with it at the
    first value outside its range, and the validator's message it must print."""
    for case in command_tables():
        prefix, decls = case.values
        for p in decls:
            if p.name in COUNTS:
                word, value = COUNTS[p.name]
                argv = prefix + ["--" + p.name.replace("_", "-"), str(value)]
                yield pytest.param(argv, f"{p.name} must be finite and {word}, got {value}",
                                   id=" ".join(argv))


class TestParameterTables:
    """Each parameter is declared once; flags, config parsing, checks and
    the params echo all come from the declaration."""

    @pytest.mark.parametrize("argv, message", list(non_positive_scales()))
    def test_non_positive_scale_exit_2(self, argv, message, capsys):
        # hbar and omega go through the one positivity rule, as c0 does
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_config_choice_is_checked(self, tmp_path, capsys):
        code = main(["verify", "duality", "--config", config_file(tmp_path, "grid = bogus\n")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "grid" in captured.err

    def test_config_value_is_typed(self, tmp_path, capsys):
        code = main(["verify", "ode", "--config", config_file(tmp_path, "levels = 3.5\n")])
        assert code == 2
        assert "levels" in capsys.readouterr().err

    def test_flag_the_picture_does_not_read_exit_2(self, capsys):
        code = main(["verify", "ode", "--picture", "parabolic", "--levels", "7"])
        assert code == 2
        assert "levels" in capsys.readouterr().err

    def test_config_key_the_picture_does_not_read_exit_2(self, tmp_path, capsys):
        code = main(["verify", "ode", "--picture", "kepler-radial",
                     "--config", config_file(tmp_path, "omega = 2\n")])
        assert code == 2
        assert "omega" in capsys.readouterr().err

    @pytest.mark.parametrize("picture, extra, echoed", [
        ("kepler-radial", [], {"Lambda", "c0", "hbar", "levels", "mesh"}),
        ("kepler-angular", [], {"J", "L", "c1", "c2", "hbar", "levels", "mesh"}),
        ("osc-radial", [], {"Gamma", "omega", "hbar", "levels", "mesh"}),
        ("osc-angular", [], {"T", "K", "lambda1", "lambda2", "hbar", "levels", "mesh"}),
        ("cylindrical", [], {"z", "lam_coupling", "omega", "hbar", "levels", "mesh"}),
        ("parabolic", ["--n-max", "1"], {"J", "L", "c0", "c1", "c2", "hbar", "mesh", "n_max"}),
    ])
    def test_ode_echoes_what_the_picture_reads(self, picture, extra, echoed, capsys):
        code, env = run_json(["verify", "ode", "--picture", picture, "--mesh", "1000"] + extra,
                             capsys)
        assert code == 0
        assert set(env["params"]) == echoed | {"picture"}

    def test_residuals_echo_what_the_picture_reads(self, capsys):
        code, env = run_json(
            ["verify", "residuals", "--picture", "cylindrical", "--n", "2", "--z", "0.5",
             "--lam-coupling", "1"], capsys)
        assert code == 0
        assert env["params"] == {"picture": "cylindrical", "n": 2, "z": 0.5,
                                 "lam_coupling": 1.0, "hbar": 1.0, "points": 2001}

    def test_residual_picture_defaults(self, capsys):
        _, env = run_json(["verify", "residuals", "--picture", "osc-radial"], capsys)
        assert env["params"]["n"] == 0
        _, env = run_json(["verify", "residuals", "--picture", "cylindrical"], capsys)
        assert env["params"]["n"] == 1
        _, env = run_json(["verify", "residuals"], capsys)
        assert env["params"]["picture"] == "kepler-angular"

    @pytest.mark.parametrize("points", ["1", "3", "11"])
    def test_residual_grid_too_small_exit_2(self, points, capsys):
        code = main(["verify", "residuals", "--points", points])
        assert code == 2
        assert "n_points" in capsys.readouterr().err

    def test_inadmissible_residual_degree_exit_2(self, capsys):
        code = main(["verify", "residuals", "--lam", "0", "--J", "1"])
        assert code == 2
        assert "lam" in capsys.readouterr().err

    @pytest.mark.parametrize("picture, name, value", [
        pytest.param(picture, p.name, value, id=f"verify residuals --picture {picture} "
                                                f"--{p.name.replace('_', '-')} {value}")
        for picture, (decls, _) in RESIDUALS.table.items() for p in decls
        if p in [*J_L, *T_K, *SECTOR, *COUPLINGS, *LAMBDAS] for value in (-1.0, -0.1)])
    def test_negative_residual_label_or_coupling_exit_2(self, picture, name, value, capsys):
        # each is named under its own flag, never as another picture's
        code = main(["verify", "residuals", "--picture", picture,
                     "--" + name.replace("_", "-"), repr(value)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {name} must be finite and non-negative, got {value!r}\n"

    @pytest.mark.parametrize("picture, name", [
        pytest.param(picture, p.name, id=f"verify ode --picture {picture} "
                                         f"--{p.name.replace('_', '-')} -1")
        for picture, (decls, _) in ODE.table.items() for p in decls
        if p.type is float and p.name not in ("c0", "hbar", "omega")])
    def test_negative_ode_input_is_named_by_its_flag(self, picture, name, capsys):
        # each is named under its own flag: Lambda, Gamma, lambda1 and lambda2 too
        code = main(["verify", "ode", "--picture", picture,
                     "--" + name.replace("_", "-"), "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {name} must be finite and non-negative, got -1.0\n"

    @pytest.mark.parametrize("argv, message", [
        *counts_out_of_range(),
        *(pytest.param(["verify", "residuals", "--picture", picture, "--lam-eff", "-1"],
                       "lam_eff must be finite and non-negative, got -1.0",
                       id=f"verify residuals --picture {picture} --lam-eff -1")
          for picture in ("kepler-radial", "osc-radial")),
    ])
    def test_count_out_of_range_exit_2(self, argv, message, capsys):
        # counts, degrees, the seed and the radial exponent lam_eff go through
        # the rule labels and scales use
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_every_int_declaration_has_a_rule(self):
        # p_max alone may be negative: `spectrum kepler5d` prints an empty table
        ints = {p.name for case in command_tables() for p in case.values[1] if p.type is int}
        assert set(COUNTS) <= ints
        assert ints <= set(COUNTS) | STRUCTURAL | {"p_max"}

    def test_angular_mesh_too_small_exit_2(self, capsys):
        code = main(["verify", "ode", "--picture", "kepler-angular", "--mesh", "1"])
        assert code == 2
        assert "mesh" in capsys.readouterr().err

    def test_more_levels_than_mesh_points_exit_2(self, capsys):
        code = main(["verify", "ode", "--picture", "osc-angular", "--mesh", "3", "--levels", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "5 levels" in err and "mesh 3" in err

    @pytest.mark.parametrize("picture, mesh, extra", [
        pytest.param("kepler-radial", 10, [], id="kepler-radial"),
        pytest.param("kepler-angular", 10, [], id="kepler-angular"),
        pytest.param("kepler-radial", 4, ["--levels", "3"], id="kepler-radial-mesh4"),
    ])
    def test_convergence_failure_explains_itself(self, picture, mesh, extra, capsys):
        code = main(["verify", "ode", "--picture", picture, "--mesh", str(mesh)] + extra)
        err = capsys.readouterr().err
        assert code == 3
        assert "level " in err and "Richardson delta" in err
        assert "conv_tol=0.001" in err and f"({mesh}, {2 * mesh + 1})" in err


def readme_cli_commands():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("monopole-spectra ")]


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_readme_cli_commands_pass(argv, capsys):
    """Each README line passes in-process, and `main` leaves the collector as
    it found it: only the process entry `run` freezes the heap, because
    `bench/probes.py` and the property test call `main` in the process that
    measures."""
    enabled = gc.isenabled()
    code, env = run_json(argv, capsys)
    assert code == 0
    assert all(c["passed"] for c in env["checks"])
    assert gc.isenabled() == enabled
    assert gc.get_freeze_count() == 0


def test_benchmark_times_the_readme_commands():
    """`bench/workloads.py` times README's `## CLI` lines, all of them and in order."""
    out = fresh(f"import json, sys; sys.path.insert(0, {BENCH!r})\n"
                "from workloads import README_COMMANDS\n"
                "print(json.dumps([command.split() for _, command in README_COMMANDS]))")
    assert json.loads(out[0]) == readme_cli_commands()


# `python -m monopole_spectra`, `python -m monopole_spectra.cli`, and what the
# console script calls
PROCESS_ENTRIES = (["-m", "monopole_spectra"], ["-m", "monopole_spectra.cli"],
                   ["-c", "from monopole_spectra.cli import run; run()"])


def without_timestamp(text: str) -> list[str]:
    return [line for line in text.splitlines() if '"timestamp"' not in line]


@pytest.mark.parametrize("argv, code", [
    *((argv, 0) for argv in readme_cli_commands()),
    (["spectrum", "kepler5d", "--c0", "-1"], 2),
    (["verify", "ode", "--picture", "kepler-angular", "--mesh", "10"], 3),
    (["verify", "residuals", "--picture", "kepler-radial", "--n", "2", "--lam-eff", "1.8",
      "--c0", "100"], 4),
    (["verify", "ode", "--picture", "kepler-angular", "--J", "-1"], 2),
    (["verify", "residuals", "--picture", "kepler-radial", "--n", "-1"], 2),
], ids=lambda x: " ".join(x) if isinstance(x, list) else f"exit{x}")
def test_process_entries_print_what_main_prints(argv, code, capsys):
    """Each process entry, in a fresh interpreter, prints the stdout (the
    timestamp aside) and stderr of in-process `main` and exits with its code."""
    assert main(argv) == code
    want = capsys.readouterr()
    for entry in PROCESS_ENTRIES:
        proc = subprocess.run([sys.executable, *entry, *argv], env=FRESH_ENV,
                              capture_output=True, text=True)
        assert (without_timestamp(proc.stdout), proc.stderr, proc.returncode) == (
            without_timestamp(want.out), want.err, code), entry
