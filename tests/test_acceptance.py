"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Criteria with stated runtime budgets are
timed and the budget asserted.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import kstest

from fracgreen import asymptotics as asy
from fracgreen import envelopes as env
from fracgreen import harness as H
from fracgreen import kernels as K
from fracgreen import mc as M
from fracgreen import specfun as sf
from fracgreen import subordination as S


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


class TestCriterion1StableDensityOracle:
    def test_closed_form_sweep(self):
        t0 = time.time()
        xs = np.geomspace(0.05, 20.0, 200)
        w = sf.stable_density_vec(0.5, xs)
        ref = xs**-1.5 * np.exp(-1.0 / (4.0 * xs)) / (2.0 * np.sqrt(np.pi))
        err = float(np.max(np.abs(w / ref - 1.0)))
        elapsed = time.time() - t0
        report(
            "1 (stable density oracle)",
            err < 1e-8 and elapsed < 5.0,
            f"max rel err {err:.2e} (< 1e-8), {elapsed:.2f}s (< 5s)",
        )


class TestCriterion2MittagLefflerCrossMethod:
    def test_series_vs_pz(self):
        t0 = time.time()
        worst = 0.0
        for beta in (0.3, 0.5, 0.7, 0.9):
            for s in np.linspace(-20.0, 0.0, 50):
                worst = max(worst, abs(sf.ml_series(beta, s) - sf.ml_pz(beta, s)))
        elapsed = time.time() - t0
        report(
            "2 (Mittag-Leffler cross-method)",
            worst < 1e-6 and elapsed < 30.0,
            f"max |series - pz| {worst:.2e} (< 1e-6), {elapsed:.1f}s (< 30s)",
        )


class TestCriterion3PotentialIdentity:
    def test_potential_vs_quadrature(self):
        worst = 0.0
        for beta in (0.4, 0.5, 0.7):
            for lam in (0.0, 1.0, 5.0):
                for t in (0.5, 1.0, 2.0):
                    val = sf.potential_density(beta, lam, t)
                    ref, _ = quad(
                        lambda r: math.exp(-lam * r) * sf.subordinator_density(beta, r, t),
                        0.0,
                        np.inf,
                        limit=400,
                    )
                    worst = max(worst, abs(val - ref))
        report(
            "3 (potential identity)",
            worst < 1e-5,
            f"max |analytic - quadrature| {worst:.2e} (< 1e-5) over 27 combos",
        )


class TestCriterion4SubordinationOracle:
    def test_beta_half_grid(self):
        g1 = K.ConstantDiffusion(1)
        worst = 0.0
        for t in (0.25, 1.0, 4.0):
            for r in (0.0, 0.5, 1.0, 2.0, 4.0):
                got = S.frac_green(S.FracGreenRequest(kernel=g1, beta=0.5, t=t, x=[r], y=[0.0]))
                ref, _ = quad(
                    lambda s: math.exp(-r * r / (4 * s)) / math.sqrt(4 * math.pi * s)
                    * math.exp(-s * s / (4 * t)) / math.sqrt(math.pi * t),
                    0.0,
                    np.inf,
                    limit=400,
                )
                worst = max(worst, abs(got / ref - 1.0))
        onq = S.frac_green(S.FracGreenRequest(kernel=g1, beta=0.5, t=1.0, x=[0.0], y=[0.0]))
        pinned = abs(onq - math.gamma(0.25) / (2**1.5 * math.pi))
        report(
            "4 (beta = 1/2 subordination oracle)",
            worst < 1e-6 and pinned < 1e-5,
            f"15-point grid max rel err {worst:.2e} (< 1e-6); (1,0) off by {pinned:.2e} (< 1e-5)",
        )


class TestCriterion5Theorem31Certification:
    def test_three_betas(self):
        t0 = time.time()
        details = []
        ok = True
        for beta in (0.3, 0.5, 0.8):
            rep = H.verify_envelope("3.1", K.ConstantDiffusion(3), beta)
            spread_ok = all(
                s["spread"] < math.log(1e3) for s in rep.regime_stats.values()
            )
            r2 = rep.fits["exponential_tail"]["r_squared"]
            ok = ok and rep.passed and spread_ok and r2 >= 0.99
            details.append(f"beta={beta}: passed={rep.passed} R2={r2:.4f}")
        elapsed = time.time() - t0
        report(
            "5 (Theorem 3.1 certification, d=3)",
            ok and elapsed < 300.0,
            "; ".join(details) + f"; {elapsed:.0f}s (< 300s)",
        )


class TestCriterion6Theorem32Certification:
    def test_three_alphas(self):
        details = []
        ok = True
        for alpha in (0.8, 1.0, 1.5):
            rep = H.verify_envelope("3.2", K.IsotropicStable(1, alpha), 0.5)
            off = rep.fits["off_diagonal_power"]
            got = off["params"]["exponent"]
            expect = off["expected_exponent"]
            this_ok = abs(got - expect) <= 0.1 and rep.passed
            detail = f"alpha={alpha}: off-slope {got:.3f} vs {expect:.3f}"
            if alpha == 0.8:  # only d > alpha case here
                on = rep.fits["on_diagonal_power"]
                got_on = on["params"]["exponent"]
                this_ok = this_ok and abs(got_on - on["expected_exponent"]) <= 0.1
                detail += f", on-slope {got_on:.3f} vs {on['expected_exponent']:.3f}"
            ok = ok and this_ok
            details.append(detail)
        report("6 (Theorem 3.2 certification, d=1)", ok, "; ".join(details))


class TestCriterion7DerivativePropositions:
    def test_one_sided_bounds(self):
        details = []
        ok = True
        for alpha in (1.0, 1.5):
            rep = H.verify_derivative_envelope("prop3.2", K.IsotropicStable(1, alpha), 0.5, k=1)
            off = rep.fits["off_diagonal_power"]
            got = off["params"]["exponent"]
            expect = -1.0 - 2.0 / alpha
            this_ok = (
                rep.flags["fitted_constant_finite"]
                and np.isfinite(rep.fits["fitted_C"])
                and abs(got - expect) <= 0.15
            )
            ok = ok and this_ok
            details.append(f"alpha={alpha}: slope {got:.3f} vs {expect:.3f}, C={rep.fits['fitted_C']:.3g}")
        repg = H.verify_derivative_envelope("prop3.1", K.ConstantDiffusion(1), 0.5, k=1)
        ok = ok and repg.flags["fitted_constant_finite"]
        details.append(f"gaussian d=1: C={repg.fits['fitted_C']:.3g}")
        report("7 (derivative propositions)", ok, "; ".join(details))


class TestCriterion8PropA1:
    def test_twelve_triples(self):
        t0 = time.time()
        ok = True
        worst_final = 0.0
        floor = 1e-9  # (a=1, N=-1/2) is an exact Bessel case: gaps are roundoff
        for a in (1.0, 2.0):
            for N in (-0.5, 0.0, 1.0):
                for c in (0.25, 1.0):
                    gaps = []
                    for om in (1e2, 1e3, 1e4):
                        spec = asy.LaplaceIntegrandSpec(N=N, a=a, c=c, Omega=om)
                        gaps.append(abs(asy.oracle_J(spec) - asy.prop_a1_asymptotic(spec)))
                    converged = all(g < floor for g in gaps)
                    mono = gaps[0] > gaps[1] > gaps[2]
                    ok = ok and (mono or converged) and gaps[2] < 0.05
                    worst_final = max(worst_final, gaps[2])
        elapsed = time.time() - t0
        report(
            "8 (Prop A.1 oracle convergence)",
            ok and elapsed < 60.0,
            f"12 triples monotone (or exact), worst |log ratio| at 1e4 = {worst_final:.2e} (< 0.05); {elapsed:.1f}s (< 60s)",
        )


class TestCriterion9McConsistency:
    def test_ks_and_mean(self):
        cfg = M.McConfig(sample_count=100_000, seed=2_024)
        samples = M.subordinated_path_samples(K.ConstantDiffusion(1), 0.5, 1.0, cfg)
        g1 = K.ConstantDiffusion(1)
        grid = np.linspace(0.0, 14.0, 141)
        pdf = np.array(
            [S.frac_green(S.FracGreenRequest(kernel=g1, beta=0.5, t=1.0, x=[v], y=[0.0])) for v in grid]
        )
        half = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))])

        def cdf(v):
            v = np.asarray(v, dtype=float)
            return 0.5 + np.sign(v) * np.interp(np.abs(v), grid, half)

        ks = kstest(samples, cdf).statistic

        e = M.sample_inverse_subordinator(0.5, 1.0, cfg)
        expect = 1.0 / math.gamma(1.5)
        dev = abs(e.mean() - expect)
        bound = 3.0 * e.std() / math.sqrt(len(e))
        report(
            "9 (MC consistency)",
            ks < 0.02 and dev < bound,
            f"KS {ks:.4f} (< 0.02); inverse-subordinator mean off by {dev:.4f} (< {bound:.4f})",
        )


class TestCriterion10ComparisonPrinciple:
    def test_sandwich_three_functions_three_times(self):
        nu = M.LevyKernelSpec(components=((0.5, 0.4), (0.5, 0.6)))
        fs = {
            "indicator": lambda v: 1.0 if v <= 0.5 else 0.0,
            "logistic": lambda v: 1.0 / (1.0 + math.exp(min(2.0 * v, 50.0))),
            "clipped_linear": lambda v: min(1.0, max(0.0, (1.0 - v) / 2.0)),
        }
        details = []
        ok = True
        for t in (0.5, 1.0, 2.0):
            for name, f in fs.items():
                cfg = M.McConfig(sample_count=40_000, seed=90_210, bracket_tol=2e-3)
                rep = M.comparison_check(nu, K.ConstantDiffusion(1), t, f, cfg)
                ok = ok and rep.ordering_holds
                details.append(f"t={t}/{name}:{'ok' if rep.ordering_holds else 'VIOLATED'}")
        report("10 (comparison principle)", ok, "; ".join(details))


class TestCriterion11Fd1dReduction:
    def test_theorem_41_reduces_to_31(self):
        fd = K.VariableDiffusion1D("one", horizon=1.0, dx=0.006, dt=0.004)
        grid = H.default_grid("4.1", fd, 0.5, horizon=1.0)
        rep41 = H.verify_envelope("4.1", fd, 0.5, grid=grid)
        # the ratio comparison is meaningful only against the same constants
        shared = env.EnvelopeConstants(**rep41.config["constants"])
        rep31 = H.verify_envelope("3.1", K.ConstantDiffusion(1), 0.5, grid=grid,
                                  consts=shared, fit_rate=False)
        diffs = [
            abs(p1["log_ratio"] - p2["log_ratio"])
            for p1, p2 in zip(rep41.points, rep31.points)
            if p1["flag"] == "ok" == p2["flag"]
        ]
        worst = max(diffs)
        report(
            "11 (fd1d reduction to Theorem 3.1)",
            rep41.passed and worst < 1e-3 and len(diffs) > 50,
            f"max |log ratio difference| {worst:.2e} (< 1e-3) over {len(diffs)} shared points",
        )
