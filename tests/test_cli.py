import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monopole_spectra.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
        assert "J and L" in capsys.readouterr().err

    def test_zero_levels_exit_2(self, capsys):
        code = main(["verify", "ode", "--picture", "kepler-radial", "--levels", "0"])
        assert code == 2
        assert "levels" in capsys.readouterr().err


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


def test_cli_import_does_not_load_scipy():
    """Closed-form commands never solve an ODE, so importing the CLI must
    not pay for scipy; it is imported on the first eigensolve."""
    code = "import sys, monopole_spectra.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def config_file(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


class TestParameterTables:
    """Each parameter is declared once; flags, config parsing, checks and
    the params echo all come from the declaration."""

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

    def test_negative_n_max_exit_2(self, capsys):
        code = main(["verify", "ode", "--picture", "parabolic", "--n-max", "-1"])
        assert code == 2
        assert "n_max" in capsys.readouterr().err

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

    @pytest.mark.parametrize("picture, flag, value", [
        ("kepler-radial", "n", "-1"),
        ("osc-radial", "n", "-1"),
        ("cylindrical", "n", "-2"),
        ("parabolic", "n1", "-1"),
        ("parabolic", "n2", "-1"),
    ])
    def test_negative_residual_degree_exit_2(self, picture, flag, value, capsys):
        code = main(["verify", "residuals", "--picture", picture, "--" + flag, value])
        assert code == 2
        assert f"{flag} must be greater than -1" in capsys.readouterr().err

    def test_negative_duality_seed_exit_2(self, capsys):
        code = main(["verify", "duality", "--seed", "-5"])
        assert code == 2
        assert "seed must be greater than -1" in capsys.readouterr().err

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
        assert "conv_tol=0.001" in err and f"({mesh}, {2 * mesh})" in err


def readme_cli_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("monopole-spectra ")]


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_readme_cli_commands_pass(argv, capsys):
    code, env = run_json(argv, capsys)
    assert code == 0
    assert all(c["passed"] for c in env["checks"])
