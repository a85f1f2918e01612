"""The array-state lattice rule against a reference oracle: the per-point
generator rule that ran one point per ``send`` before the rule kept its
state in arrays, copied here unchanged except that each request for nodes
carries its level (0 while the window grows) and the result its stop level.

Every point of a batch must keep the oracle's nodes, stop level, flag,
exception type (with an ``AccuracyError``'s estimate and achieved error), and
its log value within 1e-14: the two rules differ only in summation order."""

import math

import numpy as np
import pytest

from fracgreen import kernels as K
from fracgreen import subordination as S
from fracgreen.errors import AccuracyError, HorizonError
from fracgreen.specfun import _beta_value, stable_exponent_constant


def _oracle_scan_window(beta, t, q_scale, depth):
    c_beta = stable_exponent_constant(beta)
    hi = (1.0 - beta) * math.log(60.0 / c_beta) + 3.0
    if q_scale > 0:
        lo = math.log(q_scale) - depth - beta * math.log(t)
    else:
        lo = -40.0
    return min(lo, -10.0), max(hi, 5.0)


def _oracle_point_rule(beta, t, q_scale, depth, tol, zeta_clip):
    _H0, _DROP, _ZETA_LIMIT = S._H0, S._DROP, S._ZETA_LIMIT
    lo, hi = _oracle_scan_window(beta, t, q_scale, depth)
    j_limit = int(_ZETA_LIMIT / _H0)
    j_max = j_limit if zeta_clip is None else min(math.floor(zeta_clip / _H0), j_limit)
    j = np.arange(math.floor(lo / _H0), min(math.ceil(hi / _H0), j_max) + 1)
    vals, signs = yield j * _H0, 0

    b = None
    while True:
        top = vals.max()
        if not math.isfinite(top):
            raise AccuracyError("integrand identically negligible on the scan window")
        grow_left = vals[0] > top - _DROP
        grow_right = vals[-1] > top - _DROP and b is None
        if not (grow_left or grow_right):
            break
        if grow_right and j[-1] == j_max and zeta_clip is not None:
            if (yield np.array([zeta_clip]), 0)[0][0] > top - _DROP:
                raise HorizonError(f"integrand has not decayed at the stored horizon (zeta = {zeta_clip:g})")
            b = zeta_clip
            continue
        n = max(j.size, 8)
        if grow_left:
            new = np.arange(max(j[0] - n, -j_limit), j[0])
        else:
            new = np.arange(j[-1] + 1, min(j[-1] + n, j_max) + 1)
        if new.size == 0:
            raise AccuracyError(f"subordination integrand has not decayed within |zeta| <= {_ZETA_LIMIT:g}")
        v, s = yield new * _H0, 0
        parts = ((new, j), (v, vals), (s, signs)) if grow_left else ((j, new), (vals, v), (signs, s))
        j, vals, signs = (np.concatenate(p) for p in parts)

    above = np.flatnonzero(vals > top - _DROP)
    keep = slice(max(above[0] - 1, 0), min(above[-1] + 2, j.size))
    a = j[keep][0] * _H0
    if b is None:
        b = j[keep][-1] * _H0
    scale = float(top)
    e = np.exp(vals[keep] - scale)
    total = float((signs[keep] * e).sum())
    total_abs = float(e.sum())
    prev = _H0 * total

    for level in range(1, S._MAX_LEVEL + 1):
        h = _H0 / 2 ** level
        v, s = yield np.arange(2 * math.ceil((a / h - 1.0) / 2.0) + 1, 2 * math.floor((b / h - 1.0) / 2.0) + 2, 2) * h, level
        peak = v.max() if v.size else -math.inf
        if peak > scale:
            shrink = math.exp(scale - peak)
            total, total_abs, prev, scale = total * shrink, total_abs * shrink, prev * shrink, float(peak)
        e = np.exp(v - scale)
        total += float((s * e).sum())
        total_abs += float(e.sum())
        err = abs(h * total - prev) / (h * total_abs)
        if err < tol:
            if total == 0.0:
                return -math.inf, 0.0, err, level
            return scale + math.log(h * abs(total)), math.copysign(1.0, total), err, level
        prev = h * total
    raise AccuracyError(
        "subordination quadrature above tolerance at the finest lattice level",
        estimate=scale + math.log(abs(prev)) if prev else -math.inf,
        achieved=err,
    )


def _oracle_run_rules(log_kernel, beta, lb, rules):
    """One kernel call per round over every unfinished rule; returns per
    point (log|I|, sign, error estimate, stop level, nodes, round it entered
    refinement) or its exception."""
    out, nodes, asks, entered, rnd = {}, dict.fromkeys(rules, 0), {}, {}, 0

    def advance(i, sent):
        try:
            asks[i] = rules[i].send(sent)
        except StopIteration as stop:
            out[i] = (*stop.value, nodes[i], entered.get(i))
        except Exception as exc:
            out[i] = exc

    for i in rules:
        advance(i, None)
    while asks:
        rnd += 1
        for i, (_, level) in asks.items():
            if level == 1:
                entered[i] = rnd
        pts, zetas, asks, failed = list(asks), [z for z, _ in asks.values()], {}, {}
        zeta, at = np.concatenate(zetas), np.repeat(pts, [z.size for z in zetas])
        if len(pts) == 1:
            at = pts[0]
        bounds = np.cumsum([0] + [z.size for z in zetas])
        try:
            log_k, sign = log_kernel(np.exp(lb[at] + zeta), at)
        except Exception:
            log_k, sign = np.full(zeta.size, np.nan), np.zeros(zeta.size)
            for i, lo, hi in zip(pts, bounds[:-1], bounds[1:]):
                try:
                    log_k[lo:hi], sign[lo:hi] = log_kernel(np.exp(lb[i] + zeta[lo:hi]), i)
                except Exception as exc:
                    failed[i] = exc
        vals, sign = log_k + S._WEIGHTS.omega(beta, zeta), (sign if np.ndim(sign) else np.full(zeta.size, sign))
        for i, z, lo, hi in zip(pts, zetas, bounds[:-1], bounds[1:]):
            nodes[i] += z.size
            if i in failed:
                out[i] = failed[i]
            else:
                advance(i, (vals[lo:hi], sign[lo:hi]))
    return out


def oracle_batch(kernel, beta, t, x, y, k=0, wrap=lambda f: f):
    """Per point: the oracle's (log value, error estimate, nodes, stop level,
    entry round), or the exception type and message it ends with."""
    beta = _beta_value(beta)
    log_kernel, setup = kernel.base_integrand(x, y, k, t, beta)
    lb, rules = np.zeros(len(setup)), {}
    for i, point in enumerate(setup):
        if isinstance(point, tuple):
            ti, (q_scale, s_clip) = float(t[i]), point
            lb[i] = beta * math.log(ti)
            zeta_clip = None if s_clip is None else math.log(s_clip / ti ** beta)
            rules[i] = _oracle_point_rule(beta, ti, q_scale, S._SCAN_DEPTH[kernel.envelope_family], kernel.rule_tol,
                                          zeta_clip)
    got = _oracle_run_rules(wrap(log_kernel), beta, lb, rules)
    out = []
    for i, point in enumerate(setup):
        res = got.get(i, point)
        if isinstance(res, tuple) and isinstance(point, tuple):
            log_int, sign, err, level, nodes, entered = res
            try:
                S._result(beta, float(t[i]), point[1], log_int, sign, err, nodes)
            except AccuracyError as exc:
                res = exc
            else:
                res = (log_int - math.log(beta), err, nodes, level, entered)
        out.append((type(res), str(res), getattr(res, "estimate", None), getattr(res, "achieved", None))
                   if isinstance(res, Exception) else res)
    return out


def assert_matches_oracle(kernel, beta, t, x, y, k=0, wrap=lambda f: f):
    """The batch's results against the oracle's, point by point; returns the oracle's."""
    want = oracle_batch(kernel, beta, t, x, y, k, wrap)
    got = S.frac_green_batch(wrap_kernel(kernel, wrap), beta, t, x, y, k)
    for point, (w, g) in enumerate(zip(want, got)):
        if isinstance(g, Exception):
            assert w[:2] == (type(g), str(g)), (point, w, g)
            for x, y in zip(w[2:], (getattr(g, "estimate", None), getattr(g, "achieved", None))):
                assert x == y or abs(x - y) <= 1e-14 * max(1.0, abs(x)), (point, w, g)
            continue
        assert isinstance(w, tuple) and len(w) == 5, (point, w, g)
        log_value, err, nodes, _, _ = w
        assert g.nodes == nodes, (point, g.nodes, nodes)
        assert abs(g.log_value - log_value) <= 1e-14, (point, g.log_value, log_value)
        assert abs(g.error_estimate - err) <= 1e-14 * max(1.0, err), (point, g.error_estimate, err)
    return want


class wrap_kernel:
    """The kernel with its ``base_integrand``'s log_kernel passed through ``wrap``."""

    def __init__(self, kernel, wrap):
        self._kernel, self._wrap = kernel, wrap

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def base_integrand(self, *args):
        log_kernel, setup = self._kernel.base_integrand(*args)
        return self._wrap(log_kernel), setup


def entries(want):
    return {w[4] for w in want if isinstance(w, tuple) and len(w) == 5}


def levels(want):
    return {w[3] for w in want if isinstance(w, tuple) and len(w) == 5}


class TestAgainstOracle:
    def test_points_enter_and_stop_at_different_rounds(self):
        # the stable diagonal grows its window to zeta ~ -140 before it refines
        st = K.IsotropicStable(1, 1.5)
        ts = [1.0, 1e-3, 5.0, 0.2, 30.0, 1.0, 0.01]
        xs = [[0.0], [0.4], [3.0], [60.0], [0.05], [1e3], [2.0]]
        want = assert_matches_oracle(st, 0.3, ts, xs, [[0.0]] * len(xs))
        assert len(entries(want)) >= 2 and len(levels(want)) >= 2, want

    def test_gaussian_batch_over_orders(self):
        g = K.ConstantDiffusion(1)
        ts = [0.3, 1.0, 0.05, 4.0, 1e-3, 20.0]
        xs = [[0.3], [-1.2], [2.5], [0.7], [0.01], [6.0]]
        for k in (0, 1):
            assert_matches_oracle(g, 0.6, ts, xs, [[0.0]] * len(xs), k)

    def test_sign_changing_second_derivative(self):
        # d^2 G / dx^2 changes sign in s where s ~ r^2 / 2: the sums cancel
        g = K.ConstantDiffusion(1)
        ts = [1.0, 0.5, 2.0, 1.0, 0.1]
        xs = [[1.0], [0.6], [1.5], [0.2], [0.45]]
        want = assert_matches_oracle(g, 0.5, ts, xs, [[0.0]] * len(xs), 2)
        assert all(isinstance(w, tuple) and len(w) == 5 for w in want), want

    def test_finest_level_exhausted(self, monkeypatch):
        # two points converge on the finest level; the far one exhausts it
        monkeypatch.setattr(S, "_MAX_LEVEL", 4)
        g = K.ConstantDiffusion(1)
        want = assert_matches_oracle(g, 0.8, [0.1, 1.0, 1.0], [[30.0], [0.5], [0.0]], [[0.0]] * 3)
        assert want[0][0] is AccuracyError and levels(want) == {4}, want

    def test_fd1d_clip(self):
        # the far point has not decayed at its clip; the others end their windows there
        fd = K.VariableDiffusion1D("sin_bump", horizon=0.5, dx=0.05, dt=0.05)
        ts, xs = [0.05, 0.3, 0.05, 1.0, 0.2], [6.0, 0.4, 0.1, -1.0, 2.0]
        want = assert_matches_oracle(fd, 0.5, ts, xs, [0.0] * len(xs))
        assert want[0][0] is HorizonError, want
        assert any(isinstance(w, tuple) and len(w) == 5 for w in want[1:]), want
        # windows that reach the clip while they still grow on the left: the probe goes first
        assert_matches_oracle(fd, 0.6, [0.3, 1.0, 0.05, 0.3], [0.3, 1.1, -0.8, 0.0], [0.0] * 4)

    def test_kernel_call_raising_for_one_point_mid_refinement(self):
        def wrap(log_kernel):
            calls = [0]

            def failing(s, i):
                if 2 in np.atleast_1d(i):
                    calls[0] += 1
                    if calls[0] >= 3:  # from its third round on, its retry included: into its levels
                        raise FloatingPointError("kernel failure")
                return log_kernel(s, i)
            return failing

        g = K.ConstantDiffusion(1)
        ts, xs = [0.3, 1.0, 0.05, 4.0], [[0.3], [-1.2], [2.5], [0.7]]
        want = assert_matches_oracle(g, 0.6, ts, xs, [[0.0]] * 4, wrap=wrap)
        assert want[2][0] is FloatingPointError and sum(isinstance(w, tuple) and len(w) == 5 for w in want) == 3


STABLE_CASES = {
    "stable1": (K.IsotropicStable(1, 1.5), [0.7], [0.0]),
    "stable2": (K.IsotropicStable(2, 1.2), [0.3, -0.5], [0.0, 0.0]),
    "anisotropic": (K.AnisotropicStable2D(1.5, K.SpectralMeasure.uniform(1.5)), [0.4, -0.9], [0.0, 0.0]),
}


class TestStableScanDepth:
    """A stable request with r > 0 starts its window below the integrand's
    linear left tail (``subordination._SCAN_DEPTH``), so it refines from its
    first round; its value and error estimate are those of the window grown
    from the diffusion families' depth, bit for bit."""

    @staticmethod
    def run(monkeypatch, kernel, depth, beta, t, x, y):
        calls = []

        def wrap(log_kernel):
            def counted(s, i):
                calls.append(s.size)
                return log_kernel(s, i)
            return counted

        monkeypatch.setitem(S._SCAN_DEPTH, "stable", depth)
        return S.frac_green_batch(wrap_kernel(kernel, wrap), beta, [t], [x], [y])[0], len(calls)

    @pytest.mark.parametrize("family", sorted(STABLE_CASES))
    @pytest.mark.parametrize("beta, t", [(0.35, 0.2), (0.5, 1.0), (0.8, 3.0)])
    def test_no_growth_round(self, monkeypatch, family, beta, t):
        kernel, x, y = STABLE_CASES[family]
        level = oracle_batch(kernel, beta, [t], [x], [y])[0][3]
        deep, shallow = S._SCAN_DEPTH["stable"], S._SCAN_DEPTH["diffusion"]
        res, calls = self.run(monkeypatch, kernel, deep, beta, t, x, y)
        grown, grown_calls = self.run(monkeypatch, kernel, shallow, beta, t, x, y)
        assert calls == 1 + level and grown_calls >= 2 + level, (calls, grown_calls, level)
        assert (res.log_value, res.error_estimate) == (grown.log_value, grown.error_estimate)
