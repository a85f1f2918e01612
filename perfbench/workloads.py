"""The four benchmark workloads: inputs from a seed, fixed work, output checks.

Each workload has

* ``setup()``: kernel construction plus one warm-up evaluation per family
  (the cost every process pays before its first answer);
* ``rep()``: the fixed unit of work, timed by the caller, returning its
  outputs;
* ``check(outputs)``: ``(attempted, errors, wrong, notes)`` over the items
  of one rep.  An item is a grid point, a request or a reference order.  It
  is an error if it raised or came back as an ``error:`` row, and wrong if
  the value it returned failed its output check; both count as failed.
* ``request_spans(output, start, end)``: the ``time.perf_counter()``
  intervals of the requests a caller waited on, given the rep's own interval.
  For the sweeps and the campaign the request is the whole rep, as one
  ``fracgreen verify`` or ``fracgreen mc`` call; ``point-stream`` stamps each
  of its single requests.

Checks run outside the timed region and memoise their oracle values, so
repeating a rep costs no second oracle evaluation.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
import time

import numpy as np
from scipy.stats import qmc

import oracle
from fracgreen import harness as H
from fracgreen import kernels as K
from fracgreen import mc as M
from fracgreen import subordination as S

REL_TOL = 1e-6          # oracle agreement for the Gaussian and 2-D checks
FD1D_LOG_TOL = 1e-3     # acceptance criterion 11's tolerance on log G
MC_SIGMAS = 4.0         # pure-order estimates within 4 standard errors
SCRATCH = os.path.join(".bench_build", "perfbench")


def _shift_grid(grid, t_frac, r_frac):
    """Move a log-spaced grid by sub-step fractions of its t and r steps."""
    ts = np.asarray(grid.t_values)
    rs = np.asarray([r for r in grid.r_values if r > 0.0])
    t_step = math.log(ts[1] / ts[0]) if ts.size > 1 else 0.0
    r_step = math.log(rs[1] / rs[0])
    r0 = [0.0] if 0.0 in grid.r_values else []
    return H.SweepGrid(
        t_values=tuple(float(t) for t in ts * math.exp(t_frac * t_step)),
        r_values=tuple(r0 + [float(r) for r in rs * math.exp(r_frac * r_step)]),
        theorem=grid.theorem,
    )


def _rel_err(got, ref):
    return abs(got / ref - 1.0) if ref != 0.0 else math.inf


class Workload:
    """Defaults: the whole rep is one request, and no layer counts of its own."""

    def request_spans(self, output, start, end):
        return [(start, end)]

    def counts(self, output):
        return {}


class Certify(Workload):
    """Theorem 3.1 (Gaussian d = 3) and 3.2 (stable d = 1) sweeps at beta = 1/2."""

    name = "certify"
    beta = 0.5
    alpha = 1.5

    def __init__(self, seed):
        t_frac, r_frac = np.random.default_rng(seed).uniform(-0.5, 0.5, size=2)
        self.offsets = (float(t_frac), float(r_frac))
        self.g3_oracle = functools.cache(lambda t, r: oracle.gaussian_frac_green(self.beta, t, r, d=3))

    def setup(self):
        self.gauss = K.ConstantDiffusion(3)
        self.stable = K.IsotropicStable(1, self.alpha)
        for kernel, x, y in ((self.gauss, [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]), (self.stable, [0.5], [0.0])):
            S.frac_green(S.FracGreenRequest(kernel=kernel, beta=self.beta, t=1.0, x=x, y=y))
        self.grids = [
            _shift_grid(H.default_grid(theorem, kernel, self.beta), *self.offsets)
            for theorem, kernel in (("3.1", self.gauss), ("3.2", self.stable))
        ]

    def rep(self):
        os.makedirs(SCRATCH, exist_ok=True)
        reports = []
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            for (theorem, kernel), grid in zip((("3.1", self.gauss), ("3.2", self.stable)), self.grids):
                rep = H.verify_envelope(theorem, kernel, self.beta, grid=grid)
                H.write_report_files(rep, os.path.join(tmp, f"{theorem}.json"), os.path.join(tmp, f"{theorem}.csv"))
                reports.append(rep)
        return reports

    def point_ok(self, rep, p):
        if rep.family == "diffusion" and p["r"] == 0.0:
            return p["flag"] == "skipped:diagonal-divergent"
        if p["flag"] != "ok" or not math.isfinite(p["log_G"]):
            return False
        if rep.family == "diffusion":
            return _rel_err(math.exp(p["log_G"]), self.g3_oracle(p["t"], p["r"])) <= REL_TOL
        return True  # a finite log value is a finite positive kernel value

    def check(self, reports):
        attempted = errors = wrong = 0
        notes = []
        for rep in reports:
            err = sum(p["flag"].startswith("error:") for p in rep.points)
            bad = sum(not self.point_ok(rep, p) for p in rep.points if not p["flag"].startswith("error:"))
            if not rep.passed:
                notes.append(f"{rep.theorem}: report not passed {rep.flags}")
                bad = len(rep.points) - err
            if err or bad:
                notes.append(f"{rep.theorem}: {err} error rows, {bad} points failed their checks")
            attempted += len(rep.points)
            errors += err
            wrong += bad
        return attempted, errors, wrong, notes

    def counts(self, reports):
        return {
            "harness.points": sum(len(r.points) for r in reports),
            "harness.error_points": sum(p["flag"].startswith("error:") for r in reports for p in r.points),
        }


class Fd1dHorizon(Certify):
    """Theorem 4.1 sweep of the Crank-Nicolson kernel at criterion 11's settings."""

    name = "fd1d-horizon"
    horizon = 1.0

    def __init__(self, seed):
        # only r moves: the t values, and with them the stored histories and
        # peak memory, stay criterion 11's own for every seed
        r_frac = np.random.default_rng(seed).uniform(-0.5, 0.5)
        self.offsets = (0.0, float(r_frac))
        self.g1_oracle = functools.cache(lambda t, r: oracle.gaussian_frac_green(self.beta, t, r, d=1))

    def _kernel(self, dx, dt):
        return K.VariableDiffusion1D("one", dx=dx, dt=dt, horizon=self.horizon)

    def setup(self):
        warm = self._kernel(0.05, 0.05)
        S.frac_green(S.FracGreenRequest(kernel=warm, beta=self.beta, t=0.5, x=0.3, y=0.0))
        grid = H.default_grid("4.1", warm, self.beta, horizon=self.horizon)
        self.grids = [_shift_grid(grid, *self.offsets)]

    def rep(self):
        # a fresh kernel per rep: users pay the history builds on every sweep
        fd = self._kernel(0.006, 0.004)
        return [H.verify_envelope("4.1", fd, self.beta, grid=self.grids[0], horizon=self.horizon)]

    def point_ok(self, rep, p):
        if p["flag"] != "ok" or not math.isfinite(p["log_G"]):
            return False
        return abs(p["log_G"] - math.log(self.g1_oracle(p["t"], p["r"]))) < FD1D_LOG_TOL


class PointStream(Workload):
    """Closed loop, one client: single frac_green / frac_green_derivative requests."""

    name = "point-stream"
    n_requests = 200
    # (family, derivative orders cycled through for that family)
    FAMILIES = (("gauss1", (0, 1, 2)), ("gauss3", (0,)), ("stable1", (0, 1)), ("stable2", (0,)), ("aniso", (0,)))

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        n = self.n_requests - 1
        nf = len(self.FAMILIES)
        # a scrambled Halton set per family, in shuffled order: every seed
        # covers each family's whole (beta, t, r, theta) box evenly in all
        # four axes jointly, so seeds differ in their points, not in how much
        # of the costly corner they happen to sample
        unit = np.empty((4, n))
        for j in range(nf):
            m = len(range(j, n, nf))
            unit[:, j::nf] = rng.permutation(qmc.Halton(d=4, scramble=True, seed=rng).random(m)).T
        betas = 0.3 + 0.6 * unit[0]
        ts = 0.1 * 100.0 ** unit[1]
        rs = 0.05 * 100.0 ** unit[2]
        thetas = 2.0 * math.pi * unit[3]
        # request 0 is the on-diagonal Gamma(1/4) pin: Gaussian d = 1, beta = 1/2, t = 1
        self.requests = [("pin", 0, 0.5, 1.0, 0.0, 0.0)]
        for i in range(n):
            family, orders = self.FAMILIES[i % nf]
            k = orders[(i // nf) % len(orders)]
            self.requests.append((family, k, float(betas[i]), float(ts[i]), float(rs[i]), float(thetas[i])))
        self.oracle = functools.cache(oracle.gaussian_frac_green)
        self.radial_ref = functools.cache(self._radial_reference)
        self.iso15 = K.IsotropicStable(2, 1.5)  # reference for the anisotropic check

    def setup(self):
        self.kernels = {
            "gauss1": K.ConstantDiffusion(1),
            "gauss3": K.ConstantDiffusion(3),
            "stable1": K.IsotropicStable(1, 1.5),
            "stable2": K.IsotropicStable(2, 1.2),
            "aniso": K.AnisotropicStable2D(1.5, K.SpectralMeasure.uniform(1.5)),
        }
        self.kernels["pin"] = self.kernels["gauss1"]
        for family in self.kernels:
            if family != "pin":
                self.evaluate((family, 0, 0.5, 1.0, 0.5, 0.0))

    def request_spans(self, output, start, end):
        return [(t0, t1) for _, t0, t1 in output]

    def _points(self, family, r, theta):
        d = getattr(self.kernels[family], "d", 1)
        x = np.zeros(d)
        if d == 2:
            x[:] = r * math.cos(theta), r * math.sin(theta)
        else:
            x[0] = r
        return x, np.zeros(d)

    def evaluate(self, request):
        family, k, beta, t, r, theta = request
        x, y = self._points(family, r, theta)
        req = S.FracGreenRequest(kernel=self.kernels[family], beta=beta, t=t, x=x, y=y, derivative_order=k)
        return S.frac_green(req) if k == 0 else S.frac_green_derivative(req)

    def rep(self):
        """(value or raised exception, start, end) per request, in order."""
        out = []
        for request in self.requests:
            t0 = time.perf_counter()
            try:
                value = self.evaluate(request)
            except Exception as exc:  # a failed request is a failed item, not a failed run
                value = exc
            out.append((value, t0, time.perf_counter()))
        return out

    def _radial_reference(self, beta, t, r):
        req = S.FracGreenRequest(kernel=self.iso15, beta=beta, t=t, x=[r, 0.0], y=[0.0, 0.0])
        return S.frac_green(req)

    def item_ok(self, request, value):
        family, k, beta, t, r, _ = request
        if isinstance(value, BaseException) or not math.isfinite(value):
            return False
        if family == "pin":
            return _rel_err(value, oracle.diagonal_pin()) <= REL_TOL
        if family in ("gauss1", "gauss3"):
            ref = self.oracle(beta, t, r, 1 if family == "gauss1" else 3, k)
            # k = 2 changes sign: below the kernel's own scale t^{-3 beta/2}
            # the check is absolute
            floor = 1e-3 * t ** (-1.5 * beta) if k == 2 else 0.0
            return abs(value - ref) <= REL_TOL * max(abs(ref), floor)
        if family == "aniso":
            return _rel_err(value, self.radial_ref(beta, t, r)) <= REL_TOL
        # stable: G > 0, and dG/dx has the sign of -(x - y) = -r
        return value > 0.0 if k == 0 else value < 0.0

    def check(self, output):
        bad = [(req, v) for req, (v, *_) in zip(self.requests, output) if not self.item_ok(req, v)]
        errors = sum(isinstance(v, BaseException) for _, v in bad)
        notes = [f"request {req} failed its check: {v!r}" for req, v in bad[:5]]
        return len(output), errors, len(bad) - errors, notes



class McComparison(Workload):
    """Comparison-principle campaign: a two-order mixture between pure orders."""

    name = "mc-comparison"
    t = 1.0
    level = 0.5

    def __init__(self, seed):
        self.cfg = M.McConfig(sample_count=40_000, seed=int(seed), bracket_tol=2e-3)
        self.cdf = functools.cache(lambda beta: oracle.gaussian_frac_cdf(beta, self.t, self.level))

    def test_function(self, v):
        return 1.0 if v <= self.level else 0.0

    def setup(self):
        self.nu = M.LevyKernelSpec(components=((0.5, 0.4), (0.5, 0.6)))
        self.kernel = K.ConstantDiffusion(1)
        warm = M.McConfig(sample_count=100, seed=1, bracket_tol=2e-3)
        M.comparison_check(self.nu, self.kernel, self.t, self.test_function, warm)

    def rep(self):
        return M.comparison_check(self.nu, self.kernel, self.t, self.test_function, self.cfg)

    def check(self, report):
        wrong, notes = 0, []
        if not report.ordering_holds:
            wrong += 1
            notes.append(f"ordering violated: {report.summary()}")
        for beta, est, ci in (
            (report.certificate["beta_lower"], report.estimate_lower_order, report.ci_lower_order),
            (report.certificate["beta_upper"], report.estimate_upper_order, report.ci_upper_order),
        ):
            se = ci / 1.96
            if not abs(est - self.cdf(beta)) <= MC_SIGMAS * se:
                wrong += 1
                notes.append(f"beta={beta}: {est} vs oracle {self.cdf(beta)} (se {se})")
        return 3, 0, wrong, notes


WORKLOADS = {w.name: w for w in (Certify, PointStream, Fd1dHorizon, McComparison)}
