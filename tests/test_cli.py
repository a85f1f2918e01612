"""Tests for the command-line interface."""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fracgreen import cli
from fracgreen import kernels as K


def run_cli(*args):
    """Invoke main() in-process, capturing stdout/stderr."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestGreen:
    def test_oracle_value(self):
        code, out, _ = run_cli(
            "green", "--kernel", "gaussian", "--d", "1", "--beta", "0.5",
            "--t", "1", "--x", "0", "--y", "0",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.40803, abs=1e-5)

    def test_json_format(self):
        code, out, _ = run_cli(
            "green", "--kernel", "gaussian", "--d", "1", "--beta", "0.5",
            "--t", "1", "--x", "0.5", "--y", "0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["value"] > 0
        assert 0.0 <= row["error_estimate"] < 1e-10 and row["nodes"] > 0
        assert row["truncated_mass_bound"] == 0.0
        assert payload["config"]["subcommand"] == "green"

    def test_domain_error_exit_1(self):
        code, _, err = run_cli("green", "--beta", "2.5", "--t", "1")
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "DomainError"


class TestEnvelope:
    def test_thm32_value(self):
        code, out, _ = run_cli(
            "envelope", "--theorem", "3.2", "--d", "1", "--alpha", "1",
            "--beta", "0.5", "--t", "1", "--r", "2",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.25, rel=1e-12)

    def test_thm31_branch(self):
        code, out, _ = run_cli(
            "envelope", "--theorem", "3.1", "--d", "3", "--beta", "0.5",
            "--t", "1", "--r", "0.5",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(2.0, rel=1e-12)


    @pytest.mark.parametrize(
        "args",
        [
            ("--theorem", "3.1", "--beta", "1", "--derivative", "1",
             "--case", "local_small_time", "--t", "0.5", "--r", "3"),
            ("--theorem", "3.1", "--beta", "1.5", "--t", "1", "--r", "3"),
        ],
    )
    def test_beta_outside_unit_interval_is_error_record(self, args):
        code, out, err = run_cli("envelope", *args)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_diffusion_second_derivative_is_error_record(self):
        code, out, err = run_cli(
            "envelope", "--theorem", "3.1", "--d", "1", "--beta", "0.5",
            "--derivative", "2", "--t", "1", "--r", "0.5", "2",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "CapabilityError"

    def test_unknown_theorem_is_error_record(self):
        code, out, err = run_cli(
            "envelope", "--theorem", "9.9", "--d", "1", "--alpha", "1",
            "--beta", "0.5", "--t", "1", "--r", "2",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "SpecError"


class TestPointDimension:
    @pytest.mark.parametrize("flags", [("--kernel", "gaussian", "--d", "3"),
                                       ("--kernel", "stable", "--d", "3", "--alpha", "1.5"),
                                       ("--kernel", "anisotropic", "--alpha", "1.5")])
    def test_short_point_is_error_record(self, flags):
        # one coordinate for a d >= 2 kernel: not broadcast, not read as a radius
        code, out, err = run_cli("green", *flags, "--beta", "0.5", "--t", "1", "--x", "1", "--y", "0")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DomainError"


class TestNonFiniteInput:
    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_time_is_error_record(self, t):
        code, out, err = run_cli("green", "--kernel", "gaussian", "--d", "1", "--beta", "0.5", "--t", t,
                                 "--x", "0.5", "--y", "0")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_non_finite_point_is_error_record(self):
        code, out, err = run_cli("green", "--kernel", "gaussian", "--d", "1", "--beta", "0.5", "--t", "1",
                                 "--x", "nan", "--y", "0")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DomainError"


class TestKernelFlags:
    """`kernel`, `green` and `verify` share the flags `_build_kernel` reads,
    and `mc` takes the family and order of its subordinated campaign."""

    @pytest.mark.parametrize("args", [
        ("green", "--kernel", "anisotropic", "--alpha", "1.5", "--spectral", "two_bump", "--x", "1", "0",
         "--beta", "0.5", "--t", "1"),
        ("green", "--kernel", "fd1d", "--coeff-a", "sin_bump", "--beta", "0.5", "--t", "0.3", "--x", "0.5"),
        ("mc", "--campaign", "subordinated", "--kernel", "stable", "--alpha", "1.5", "--n", "2000", "--bins", "20"),
    ])
    def test_flags_are_accepted(self, args):
        code, out, err = run_cli(*args)
        assert code == 0 and err == ""
        if args[0] == "mc":
            assert json.loads(out)["config"]["params"]["kernel"] == "stable"

    @pytest.mark.parametrize("args, flag", [
        (("--spectral", "two_bump"), "--spectral"),
        (("--kernel", "stable", "--coeff-a", "one"), "--coeff-a"),
        (("--kernel", "anisotropic", "--d", "2"), "--d"),
        (("--kernel", "fd1d", "--alpha", "1.5"), "--alpha"),
    ])
    def test_flag_the_family_does_not_read_is_usage_error(self, args, flag):
        code, out, err = run_cli("green", *args, "--beta", "0.5", "--t", "1")
        assert code == 2 and out == ""
        assert flag in err and "usage error" in err

    def test_verify_reads_horizon_for_every_family(self, tmp_path):
        # the grid reads --horizon, so a Gaussian sweep takes it too
        code, _, err = run_cli("verify", "--theorem", "3.1", "--d", "1", "--beta", "0.5", "--horizon", "2",
                               "--out", str(tmp_path / "r.json"))
        assert code == 0 and err == ""

    @pytest.mark.parametrize("flags, has_moment", [(("--kernel", "gaussian"), True),
                                                   (("--kernel", "stable", "--alpha", "1.5"), False)])
    def test_subordinated_summary_reports_only_finite_moments(self, flags, has_moment):
        # X = B(E_t) has no second moment for a stable base with alpha < 2
        code, out, err = run_cli("mc", "--campaign", "subordinated", *flags, "--n", "2000", "--bins", "20")
        summary = json.loads(out)
        assert code == 0 and err == ""
        assert ("second_moment" in summary) is has_moment
        if has_moment:
            assert math.isfinite(summary["second_moment"]) and summary["second_moment"] > 0

    @pytest.mark.parametrize("command, required", [("kernel", ()), ("green", ("--beta", "0.5", "--t", "1")),
                                                   ("verify", ("--beta", "0.5"))])
    def test_commands_share_the_kernel_flags(self, command, required):
        flags = ("--kernel", "fd1d", "--d", "1", "--alpha", "1.5", "--spectral", "two_bump", "--coeff-a", "one",
                 "--coeff-b", "zero", "--coeff-c", "sin_bump", "--horizon", "2")
        ns = cli._parser().parse_args([command, *flags, *required])
        assert (ns.kernel, ns.d, ns.alpha, ns.spectral, ns.coeff_a, ns.coeff_b, ns.coeff_c, ns.horizon) == (
            "fd1d", 1, 1.5, "two_bump", "one", "zero", "sin_bump", 2.0)

    @pytest.mark.parametrize("content", [None, "x,a\n0.0,one\n"], ids=["missing", "not-numeric"])
    def test_unreadable_coefficient_csv_is_error_record(self, tmp_path, content):
        path = tmp_path / "coef.csv"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli("kernel", "--kernel", "fd1d", "--coeff-a", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DomainError"


# (flags of `fracgreen kernel`, the kernel they build)
KERNEL_TABLES = {
    "gaussian": (("--kernel", "gaussian", "--d", "3"), lambda: K.ConstantDiffusion(3)),
    "stable": (("--kernel", "stable", "--d", "2", "--alpha", "1.5"), lambda: K.IsotropicStable(2, 1.5)),
    "anisotropic": (("--kernel", "anisotropic", "--alpha", "1.5", "--spectral", "two_bump"),
                    lambda: K.AnisotropicStable2D(1.5, K.SpectralMeasure.from_callable(K.SPECTRAL_BUILTINS["two_bump"]))),
    "fd1d": (("--kernel", "fd1d",), lambda: K.VariableDiffusion1D("one", horizon=1.0)),
}


class TestSpecfunKernel:
    def test_specfun_table(self, tmp_path):
        out_path = tmp_path / "sf.csv"
        code, _, _ = run_cli(
            "specfun", "--beta", "0.5", "--x", "1.0", "--lam", "1.0",
            "--out", str(out_path),
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        byq = {(r["quantity"], r["argument"]): float(r["value"]) for r in rows}
        assert byq[("w_beta", "1.0")] == pytest.approx(0.2196956, abs=1e-6)
        assert byq[("E_beta", "-1.0")] == pytest.approx(0.4275836, abs=1e-6)

    def test_kernel_table(self):
        code, out, _ = run_cli(
            "kernel", "--kernel", "stable", "--d", "1", "--alpha", "1",
            "--t", "1", "--r", "0",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert float(rows[0]["value"]) == pytest.approx(1 / math.pi, rel=1e-8)

    @pytest.mark.parametrize("family", sorted(KERNEL_TABLES))
    def test_kernel_table_is_value_at_r_e1(self, family):
        # one call for every family: each row is value(t, r e_1, 0)
        flags, make = KERNEL_TABLES[family]
        code, out, _ = run_cli("kernel", *flags, "--t", "0.3", "1", "--r", "0", "0.5", "2", "--format", "json")
        assert code == 0
        kernel, rows = make(), json.loads(out)["rows"]
        assert len(rows) == 6
        for row in rows:
            x = np.zeros(kernel.d)
            x[0] = row["r"]
            assert row["value"] == kernel.value(row["t"], x, np.zeros(kernel.d))


class TestConfigMerge:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.3, "t": 1.0, "x": [0.0], "y": [0.0], "kernel": "gaussian", "d": 1}))
        code, out, _ = run_cli("green", "--config", str(cfg), "--beta", "0.5", "--t", "1")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.40803, abs=1e-5)

    def test_config_supplies_params(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x": [0.0], "y": [0.0], "kernel": "gaussian", "d": 1}))
        code, out, _ = run_cli("green", "--config", str(cfg), "--beta", "0.5", "--t", "1")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.40803, abs=1e-5)

    def test_config_echoed_in_artifact(self, tmp_path):
        out_path = tmp_path / "g.json"
        code, _, _ = run_cli(
            "green", "--kernel", "gaussian", "--d", "1", "--beta", "0.5",
            "--t", "1", "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["config"]["params"]["beta"] == 0.5


class TestVerifyCommand:
    def test_report_files_and_exit(self, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, _ = run_cli(
            "verify", "--theorem", "3.2", "--d", "1", "--alpha", "1.5",
            "--beta", "0.5", "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["passed"] is True
        csv_lines = (tmp_path / "rep.csv").read_text().strip().splitlines()
        assert len(csv_lines) - 1 == len(report["points"])

    @pytest.mark.parametrize("args", [
        ("--theorem", "3.1", "--d", "1"),
        ("--theorem", "3.2", "--kernel", "stable", "--d", "1", "--alpha", "1.5"),
    ])
    def test_csv_numbers_parse(self, tmp_path, args):
        # every numeric field is a plain float repr, never a numpy scalar's
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli("verify", *args, "--beta", "0.5", "--out", str(out_path))
        assert code == 0
        with open(tmp_path / "rep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 100
        for row in rows:
            for col in ("t", "r", "omega", "log_G", "log_envelope", "log_ratio"):
                float(row[col])

    def test_diffusion_second_derivative_is_error_record(self, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, err = run_cli(
            "verify", "--prop", "prop3.1", "--beta", "0.5", "--k", "2", "--out", str(out_path),
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "CapabilityError"
        assert not out_path.exists()

    def test_unknown_prop_is_error_record(self, tmp_path):
        out_path = tmp_path / "rep.json"
        code, out, err = run_cli("verify", "--prop", "prop7", "--beta", "0.5", "--out", str(out_path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "SpecError"
        assert not out_path.exists()

    def test_roundtrip_identity(self, tmp_path):
        out_path = tmp_path / "rep.json"
        run_cli(
            "verify", "--theorem", "3.2", "--d", "1", "--alpha", "1.5",
            "--beta", "0.5", "--out", str(out_path),
        )
        from fracgreen import harness as H

        text = out_path.read_text()
        assert H.report_to_json(H.report_from_json(text)) == text


class TestLaplaceCheck:
    def test_csv_columns(self, tmp_path):
        out_path = tmp_path / "lap.csv"
        code, _, _ = run_cli(
            "laplace-check", "--a", "1", "--N", "0", "--c", "1",
            "--omega", "100", "1000", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "a,N,c,Omega,log_oracle,log_asymptotic,log_ratio"
        assert len(lines) == 3

    def test_tolerance_sets_exit_code(self):
        args = ("laplace-check", "--a", "1", "--N", "0", "--c", "1", "--omega", "100", "1000")
        assert run_cli(*args, "--tolerance", "1.0")[0] == 0
        assert run_cli(*args, "--tolerance", "1e-12")[0] == 1


class TestMcCommand:
    def test_seed_determinism(self, tmp_path):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                "mc", "--campaign", "inverse", "--beta", "0.5", "--t", "1",
                "--n", "2000", "--seed", "123",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_seed_changes_output(self):
        _, out1, _ = run_cli("mc", "--campaign", "inverse", "--beta", "0.5", "--t", "1", "--n", "2000", "--seed", "1")
        _, out2, _ = run_cli("mc", "--campaign", "inverse", "--beta", "0.5", "--t", "1", "--n", "2000", "--seed", "2")
        assert json.loads(out1)["mean"] != json.loads(out2)["mean"]

    def test_histogram_emission(self, tmp_path):
        out_path = tmp_path / "hist.csv"
        code, _, _ = run_cli(
            "mc", "--campaign", "increment", "--beta", "0.5", "--t", "1",
            "--n", "5000", "--seed", "9", "--bins", "20", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count,density"
        assert len(lines) == 21
        summary = json.loads((tmp_path / "hist_summary.json").read_text())
        assert summary["mean_exp"] == pytest.approx(math.exp(-1.0), abs=0.05)


def _src_on_path():
    """The environment with the package's source directory first on PYTHONPATH."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestExitCodes:
    def test_usage_error_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracgreen.cli", "green", "--beta"],
            capture_output=True,
            env=_src_on_path(),
        )
        assert proc.returncode == 2

    def test_tolerance_is_laplace_check_only(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("green", "--kernel", "gaussian", "--beta", "0.5", "--t", "1", "--tolerance", "1e-3")
        assert exc.value.code == 2

    def test_unknown_subcommand_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracgreen.cli", "bogus"],
            capture_output=True,
            env=_src_on_path(),
        )
        assert proc.returncode == 2
