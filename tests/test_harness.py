"""Tests for sweep verification, constant fitting and report serialization."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fracgreen import envelopes as E
from fracgreen import harness as H
from fracgreen import kernels as K
from fracgreen.errors import CapabilityError, DomainError, FitError, SpecError
from fracgreen.subordination import FracGreenRequest, frac_green_detailed


@pytest.fixture(scope="module")
def small_stable_report():
    grid = H.SweepGrid(
        t_values=(0.3, 1.0, 3.0),
        r_values=(0.0,) + tuple(np.geomspace(1e-4, 50.0, 18)),
        theorem="3.2",
    )
    return H.verify_envelope("3.2", K.IsotropicStable(1, 1.0), 0.5, grid=grid)


@pytest.fixture(scope="module")
def small_diffusion_report():
    grid = H.SweepGrid(
        t_values=(0.3, 1.0, 3.0),
        r_values=(0.0,) + tuple(np.geomspace(0.05, 30.0, 16)),
        theorem="3.1",
    )
    return H.verify_envelope("3.1", K.ConstantDiffusion(3), 0.5, grid=grid)


class TestFitConstants:
    def test_power_noiseless(self):
        x = np.geomspace(0.1, 10.0, 25)
        y = 2.0 * x**-3
        fr = H.fit_constants(x, y, model="power")
        assert fr.params["exponent"] == pytest.approx(-3.0, abs=1e-6)
        assert fr.params["prefactor"] == pytest.approx(2.0, rel=1e-6)
        assert fr.r_squared > 1.0 - 1e-12

    def test_power_plus_exponential_noiseless(self):
        x = np.geomspace(0.5, 20.0, 30)
        y = x**-1 * np.exp(-2.0 * x ** (2.0 / 3.0))
        fr = H.fit_constants(x, y, model="power_plus_exponential")
        assert fr.params["rate"] == pytest.approx(2.0, abs=1e-3)
        assert fr.params["q"] == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert fr.params["exponent"] == pytest.approx(-1.0, abs=1e-3)

    def test_fixed_q(self):
        x = np.geomspace(0.5, 20.0, 30)
        y = 3.0 * x**0.5 * np.exp(-0.7 * x)
        fr = H.fit_constants(x, y, model="power_plus_exponential", q=1.0)
        assert fr.params["rate"] == pytest.approx(0.7, abs=1e-8)
        assert fr.params["exponent"] == pytest.approx(0.5, abs=1e-8)

    def test_insufficient_points(self):
        with pytest.raises(FitError):
            H.fit_constants([1, 2, 3], [1, 2, 3], model="power")

    def test_unknown_model(self):
        with pytest.raises(SpecError):
            H.fit_constants(np.ones(10), np.ones(10), model="cubic")


class TestDefaultGrid:
    def test_regime_coverage(self):
        grid = H.default_grid("3.1", K.ConstantDiffusion(2), 0.5)
        omegas = [
            r * r * t**-0.5 for t in grid.t_values for r in grid.r_values if r > 0
        ]
        assert min(omegas) < 1.0 < max(omegas)

    def test_local_needs_horizon(self):
        with pytest.raises(SpecError):
            H.default_grid("4.1", K.ConstantDiffusion(1), 0.5)

    def test_local_capped_at_horizon(self):
        fd = K.VariableDiffusion1D("one", horizon=0.7)
        grid = H.default_grid("4.1", fd, 0.5)
        assert max(grid.t_values) <= 0.7 * (1 + 1e-12)


class TestVerifyEnvelope:
    def test_stable_passes(self, small_stable_report):
        rep = small_stable_report
        assert rep.passed
        assert rep.flags["off_diagonal_slope"]
        got = rep.fits["off_diagonal_power"]["params"]["exponent"]
        assert got == pytest.approx(-2.0, abs=0.1)

    def test_diffusion_passes(self, small_diffusion_report):
        rep = small_diffusion_report
        assert rep.passed
        assert rep.fits["exponential_tail"]["r_squared"] >= 0.99
        assert rep.fits["exponential_tail"]["rate"] - rep.fits["exponential_tail"]["rate_conf95"] > 0

    def test_regime_stats_structure(self, small_stable_report):
        stats = small_stable_report.regime_stats
        assert set(stats) == {"on_diagonal", "off_diagonal"}
        for s in stats.values():
            assert s["spread"] < math.log(1e3)

    def test_per_side_rates_reported(self, small_diffusion_report):
        sides = small_diffusion_report.fits["per_side_rates"]
        assert sides["upper"] > 0 and sides["lower"] > 0

    def test_refit_matches_direct_envelopes(self, small_diffusion_report):
        # the refit reads every trial rate off the shapes at C = 1 and C = 2
        rate = small_diffusion_report.fits["exponential_rate_fitted"]
        assert rate != 1.0
        off = [p for p in small_diffusion_report.points if p["flag"] == "ok" and p["omega"] > 1.0]
        assert len(off) >= 8
        for p in off:
            point = E.compute_omega("diffusion", p["t"], p["r"], 0.5)
            direct = H.envelope_value("diffusion", 3, None, 0.5, 0, point, rate).log_value
            assert p["log_envelope"] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_given_rate_reproduces_fitted_envelopes(self, small_diffusion_report):
        fitted = small_diffusion_report
        rate = fitted.fits["exponential_rate_fitted"]
        grid = H.SweepGrid(tuple(fitted.config["t_values"]), tuple(fitted.config["r_values"]), "3.1")
        rep = H.verify_envelope("3.1", K.ConstantDiffusion(3), 0.5, grid=grid, rate=rate)
        assert "exponential_rate_fitted" not in rep.fits and "per_side_rates" not in rep.fits
        assert rep.config["rate"] == fitted.config["rate"] == rate
        ok = [(p, q) for p, q in zip(fitted.points, rep.points) if p["flag"] == "ok"]
        assert len(ok) > 30
        for p, q in ok:
            assert q["flag"] == "ok"
            assert q["log_envelope"] == pytest.approx(p["log_envelope"], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kernel", [K.ConstantDiffusion(1), K.IsotropicStable(1, 1.5)], ids=["diffusion", "stable"])
    def test_nonpositive_rate_rejected_before_any_point(self, kernel, monkeypatch):
        evaluated = []
        monkeypatch.setattr(H, "frac_green_batch", lambda *args: evaluated.append(args))
        with pytest.raises(DomainError):
            H.verify_envelope("3.1" if kernel.alpha is None else "3.2", kernel, 0.5, rate=0.0)
        assert evaluated == []

    def test_family_mismatch(self):
        with pytest.raises(SpecError):
            H.verify_envelope("3.1", K.IsotropicStable(1, 1.0), 0.5)

    def test_alpha2_excluded(self):
        with pytest.raises(SpecError):
            H.verify_envelope("3.2", K.IsotropicStable(1, 2.0), 0.5)

    def test_unknown_selector(self):
        with pytest.raises(SpecError):
            H.verify_envelope("9.9", K.ConstantDiffusion(1), 0.5)


class TestVerifyDerivative:
    def test_stable_one_sided(self):
        grid = H.SweepGrid(
            t_values=(0.5, 1.0, 2.0),
            r_values=(0.0,) + tuple(np.geomspace(0.03, 300.0, 18)),
            theorem="3.2",
        )
        rep = H.verify_derivative_envelope("prop3.2", K.IsotropicStable(1, 1.0), 0.5, k=1, grid=grid)
        assert rep.passed
        assert rep.one_sided
        assert np.isfinite(rep.fits["fitted_C"])
        got = rep.fits["off_diagonal_power"]["params"]["exponent"]
        assert got == pytest.approx(-3.0, abs=0.15)

    def test_diagonal_column_flagged_not_failed(self):
        grid = H.SweepGrid(
            t_values=(1.0,),
            r_values=(0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            theorem="3.1",
        )
        rep = H.verify_derivative_envelope("prop3.1", K.ConstantDiffusion(1), 0.5, k=1, grid=grid)
        diag = [p for p in rep.points if p["r"] == 0.0]
        assert all(p["flag"].startswith("skipped") for p in diag)
        assert rep.flags["fitted_constant_finite"]

    def test_small_time_prop_regime_split(self):
        grid = H.SweepGrid(
            t_values=(0.5,),
            r_values=tuple(np.geomspace(0.05, 12.0, 14)),
            theorem="3.2",
        )
        rep = H.verify_derivative_envelope(
            "prop4.3-small", K.IsotropicStable(1, 1.0), 0.5, k=1, grid=grid, horizon=1.0
        )
        regimes = {p["regime"] for p in rep.points if p["flag"] == "ok"}
        assert "far_tail" in regimes or "intermediate" in regimes

    def test_diffusion_envelope_is_first_order_only(self):
        point = E.compute_omega("diffusion", 1.0, 0.5, 0.5)
        assert H.envelope_value("diffusion", 1, None, 0.5, 1, point).value > 0
        with pytest.raises(CapabilityError):
            H.envelope_value("diffusion", 1, None, 0.5, 2, point)

    def test_diffusion_k2_rejected_before_any_point(self, monkeypatch):
        evaluated = []
        monkeypatch.setattr(H, "frac_green_batch", lambda *args: evaluated.append(args))
        with pytest.raises(CapabilityError):
            H.verify_derivative_envelope("prop3.1", K.ConstantDiffusion(1), 0.5, k=2)
        assert evaluated == []

    @pytest.mark.parametrize("kernel, k", [(K.IsotropicStable(2, 1.5), 1), (K.IsotropicStable(1, 1.2), 2)])
    def test_stable_order_beyond_kernel_rejected_before_any_point(self, kernel, k, monkeypatch):
        monkeypatch.setattr(H, "frac_green_batch", lambda *args: pytest.fail("evaluated a point"))
        with pytest.raises(CapabilityError):
            H.verify_derivative_envelope("prop3.2", kernel, 0.5, k=k)

    def test_unknown_prop(self):
        with pytest.raises(SpecError):
            H.verify_derivative_envelope("prop7", K.ConstantDiffusion(1), 0.5)

    @pytest.mark.parametrize("call", [
        lambda: H.verify_envelope("prop3.1", K.ConstantDiffusion(1), 0.5),
        lambda: H.verify_derivative_envelope("3.1", K.ConstantDiffusion(1), 0.5),
        lambda: H.verify_derivative_envelope("prop3.1", K.ConstantDiffusion(1), 0.5, k=0),
    ])
    def test_selector_kind_must_match_order(self, call, monkeypatch):
        monkeypatch.setattr(H, "frac_green_batch", lambda *args: pytest.fail("evaluated a point"))
        with pytest.raises(SpecError):
            call()


class TestReports:
    def test_json_roundtrip(self, small_stable_report):
        # NaN-valued flagged points make dict equality useless; the
        # serialized text itself must be reproduced exactly
        text = H.report_to_json(small_stable_report)
        back = H.report_from_json(text)
        assert H.report_to_json(back) == text

    def test_idempotent_serialization(self, small_stable_report):
        grid = H.SweepGrid(
            t_values=(0.3, 1.0, 3.0),
            r_values=(0.0,) + tuple(np.geomspace(1e-4, 50.0, 18)),
            theorem="3.2",
        )
        rerun = H.verify_envelope("3.2", K.IsotropicStable(1, 1.0), 0.5, grid=grid)
        assert H.report_to_json(rerun) == H.report_to_json(small_stable_report)

    def test_file_emission(self, small_stable_report, tmp_path):
        jp = tmp_path / "report.json"
        cp = tmp_path / "report.csv"
        H.write_report_files(small_stable_report, jp, cp)
        back = H.report_from_json(jp.read_text())
        assert back.passed == small_stable_report.passed
        lines = cp.read_text().strip().splitlines()
        assert lines[0] == ",".join(H.CSV_COLUMNS)
        assert len(lines) - 1 == len(small_stable_report.points)

    def test_shallow_dict_matches_deep_copy(self):
        # a certify-sized report: the default Theorem 3.1 grid, diagonal rows included
        kernel = K.ConstantDiffusion(3)
        rep = H.verify_envelope("3.1", kernel, 0.5, grid=H.default_grid("3.1", kernel, 0.5))
        assert len(rep.points) > 100
        deep = dataclasses.asdict(rep)
        text = H.report_to_json(rep)
        assert text == json.dumps(deep, sort_keys=True, default=H._json_default, separators=(",", ":"))
        assert H.csv_text(H.CSV_COLUMNS, rep.points) == H.csv_text(H.CSV_COLUMNS, deep["points"])
        assert H.report_to_json(H.report_from_json(text)) == text

    def test_rows_carry_error_and_nodes(self, small_stable_report, tmp_path):
        rows = small_stable_report.points
        ok = rows[rows["flag"] == "ok"]
        assert ok.size > 30 and (ok["nodes"] > 0).all()
        assert (ok["error_estimate"] < K.IsotropicStable.rule_tol).all()
        diag = rows[rows["flag"] == "skipped:diagonal-divergent"]  # d = 1 >= alpha = 1 at r = 0
        assert diag.size and (diag["nodes"] == 0).all() and np.isnan(diag["error_estimate"]).all()
        H.write_report_files(small_stable_report, tmp_path / "r.json", tmp_path / "r.csv")
        back = json.loads((tmp_path / "r.json").read_text())["points"]
        assert [p["nodes"] for p in back] == rows["nodes"].tolist()
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].endswith(",error_estimate,nodes")
        assert [int(line.rsplit(",", 1)[1]) for line in lines[1:]] == rows["nodes"].tolist()

    def test_points_are_one_compact_record_array(self):
        # the rows of a Theorem 3.2 default-grid report, held as one record
        # array; as a list of dicts they held about four times as much
        kernel = K.IsotropicStable(1, 1.5)
        grid = H.default_grid("3.2", kernel, 0.5)
        H.verify_envelope("3.2", kernel, 0.5, grid=grid)  # splines and weights built outside the count
        tracemalloc.start()
        try:
            rep = H.verify_envelope("3.2", kernel, 0.5, grid=grid)
            rows = len(rep.points)
            with_points = tracemalloc.get_traced_memory()[0]
            rep.points = None
            held = with_points - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rows > 200
        assert held < 40_000

    def test_import_leaves_scipy_stats_out(self):
        src = str(pathlib.Path(H.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, fracgreen.harness; sys.exit('scipy.stats' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCrossTheorem:
    def test_41_reduces_to_31(self):
        fd = K.VariableDiffusion1D("one", horizon=1.0)
        grid = H.SweepGrid(
            t_values=(0.2, 0.6, 1.0),
            r_values=(0.0,) + tuple(np.geomspace(0.05, 4.0, 10)),
            theorem="4.1",
        )
        rep41 = H.verify_envelope("4.1", fd, 0.5, grid=grid)
        rep31 = H.verify_envelope("3.1", K.ConstantDiffusion(1), 0.5, grid=grid)
        assert rep41.passed
        diffs = [
            abs(p1["log_G"] - p2["log_G"])
            for p1, p2 in zip(rep41.points, rep31.points)
            if p1["flag"] == "ok" == p2["flag"]
        ]
        assert diffs and max(diffs) < 2e-3


def _counting_steps(build):
    """``build()`` and the number of Crank-Nicolson steps it took."""
    steps, step = [], K._ThetaStepper.__call__
    K._ThetaStepper.__call__ = lambda self, u, dt, theta: steps.append(dt) or step(self, u, dt, theta)
    try:
        return build(), len(steps)
    finally:
        K._ThetaStepper.__call__ = step


@pytest.fixture(scope="module")
def coarse_fd1d_sweep():
    """Theorem 4.1 default sweep of a coarse Crank-Nicolson kernel at beta =
    1/2, its kernel, and the number of Crank-Nicolson steps it took."""
    fd = K.VariableDiffusion1D("one", horizon=1.0, dx=0.05, dt=0.05)
    grid = H.default_grid("4.1", fd, 0.5, horizon=1.0)
    rep, steps = _counting_steps(lambda: H.verify_envelope("4.1", fd, 0.5, grid=grid))
    return rep, fd, steps


class TestFd1dSharedHistory:
    def test_each_step_taken_once(self, coarse_fd1d_sweep):
        # the seven t rows extend one history, each to its own clip; a
        # straight build to the last clip takes every step of the sweep once
        _, fd, steps = coarse_fd1d_sweep
        assert list(fd._histories) == [0.0]
        hist = fd._histories[0.0]
        fresh = K.VariableDiffusion1D("one", horizon=1.0, dx=0.05, dt=0.05)
        straight, straight_steps = _counting_steps(lambda: fresh.history(0.0, hist.t_max))
        assert straight.t_max == hist.t_max
        assert steps == straight_steps > 0

    def test_points_match_fresh_kernels(self, coarse_fd1d_sweep):
        # a fresh kernel per point grows its history only to that request's
        # own clip; rungs, domain widths and step times depend on t alone,
        # so every value is the same to the last bit
        rep, _, _ = coarse_fd1d_sweep
        assert sum(p["flag"] == "ok" for p in rep.points) > 50
        for p in rep.points:
            fresh = K.VariableDiffusion1D("one", horizon=1.0, dx=0.05, dt=0.05)
            req = FracGreenRequest(kernel=fresh, beta=0.5, t=p["t"], x=p["r"], y=0.0)
            try:
                log_g, flag = frac_green_detailed(req).log_value, "ok"
            except Exception as exc:
                log_g, flag = math.nan, f"error:{type(exc).__name__}"
            assert p["flag"] == flag, (p["t"], p["r"])
            if flag == "ok":
                assert p["log_G"] == log_g, (p["t"], p["r"])


def test_anisotropic_diagonal_row_is_skipped():
    # d = 2 >= alpha: the r = 0 row diverges and is skipped, not an error row
    kernel = K.AnisotropicStable2D(1.5, K.SpectralMeasure.uniform(1.5))
    grid = H.SweepGrid(t_values=(1.0,), r_values=(0.0, 1.0), theorem="3.2")
    rows = H._collect_points(kernel, 0.5, grid, 0, 1.0, "global", None)
    assert [row["flag"] for row in rows] == ["skipped:diagonal-divergent", "ok"]
