"""Tests for the fractional Green's function subordination quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracgreen import harness as H
from fracgreen import kernels as K
from fracgreen import subordination as S
from fracgreen.errors import AccuracyError, CapabilityError, CoverageError, DomainError, HorizonError


def beta_half_oracle(t, r):
    """Closed-form beta = 1/2 subordination: mix the heat kernel against the
    inverse-stable density (pi t)^{-1/2} exp(-s^2/(4t))."""

    def f(s):
        return (
            math.exp(-r * r / (4 * s)) / math.sqrt(4 * math.pi * s)
            * math.exp(-s * s / (4 * t)) / math.sqrt(math.pi * t)
        )

    val, _ = quad(f, 0, np.inf, limit=400)
    return val


@pytest.fixture(scope="module")
def gauss1d():
    return K.ConstantDiffusion(1)


@pytest.fixture(scope="module")
def cauchy1d():
    return K.IsotropicStable(1, 1.0)


def req(kernel, beta, t, x, y, k=0):
    return S.FracGreenRequest(kernel=kernel, beta=beta, t=t, x=x, y=y, derivative_order=k)


GAUSS_TOL = K.ConstantDiffusion.rule_tol


class TestFracGreenGaussian:
    def test_on_diagonal_closed_form(self, gauss1d):
        res = S.frac_green_detailed(req(gauss1d, 0.5, 1.0, [0.0], [0.0]))
        assert res.value == pytest.approx(math.gamma(0.25) / (2**1.5 * math.pi), rel=1e-9)
        assert res.error_estimate < GAUSS_TOL and res.nodes > 0

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_beta_half_oracle_grid(self, gauss1d, t, r):
        got = S.frac_green(req(gauss1d, 0.5, t, [r], [0.0]))
        assert got == pytest.approx(beta_half_oracle(t, r), rel=1e-6)

    def test_symmetry(self, gauss1d):
        a = S.frac_green(req(gauss1d, 0.6, 0.7, [1.3], [0.2]))
        b = S.frac_green(req(gauss1d, 0.6, 0.7, [0.2], [1.3]))
        assert a == pytest.approx(b, rel=1e-10)

    def test_mass(self, gauss1d):
        mass, _ = quad(
            lambda y: S.frac_green(req(gauss1d, 0.5, 1.0, [0.0], [y])),
            -np.inf,
            np.inf,
            limit=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("beta", [0.4, 0.7])
    def test_scaling_identity(self, gauss1d, beta):
        # Gb(t, x, y) = t^{-beta/2} Gb(1, t^{-beta/2} x, t^{-beta/2} y) in d=1
        t, r = 3.0, 1.2
        lhs = S.frac_green(req(gauss1d, beta, t, [r], [0.0]))
        scale = t ** (-beta / 2.0)
        rhs = scale * S.frac_green(req(gauss1d, beta, 1.0, [r * scale], [0.0]))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_diagonal_divergence_d2(self):
        g2 = K.ConstantDiffusion(2)
        with pytest.raises(DomainError):
            S.frac_green(req(g2, 0.5, 1.0, [0.0, 0.0], [0.0, 0.0]))

    def test_d2_off_diagonal_finite(self):
        g2 = K.ConstantDiffusion(2)
        v = S.frac_green(req(g2, 0.5, 1.0, [0.3, 0.0], [0.0, 0.0]))
        assert np.isfinite(v) and v > 0

    def test_d3_near_diagonal_grows(self):
        g3 = K.ConstantDiffusion(3)
        v1 = S.frac_green(req(g3, 0.5, 1.0, [0.2, 0.0, 0.0], [0.0] * 3))
        v2 = S.frac_green(req(g3, 0.5, 1.0, [0.1, 0.0, 0.0], [0.0] * 3))
        # Omega^{1 - d/2} divergence: halving r roughly doubles the value
        assert v2 / v1 == pytest.approx(2.0, rel=0.15)

    def test_time_domain(self, gauss1d):
        with pytest.raises(DomainError):
            req(gauss1d, 0.5, 0.0, [0.0], [0.0])


class TestFracGreenStable:
    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
    def test_scaling_identity(self, alpha):
        s = K.IsotropicStable(1, alpha)
        beta, t, r = 0.5, 2.0, 1.4
        lhs = S.frac_green(req(s, beta, t, [r], [0.0]))
        scale = t ** (-beta / alpha)
        rhs = scale * S.frac_green(req(s, beta, 1.0, [r * scale], [0.0]))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_mass(self, cauchy1d):
        mass, _ = quad(
            lambda y: S.frac_green(req(cauchy1d, 0.5, 1.0, [0.0], [y])),
            -np.inf,
            np.inf,
            limit=300,
        )
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_symmetry(self, cauchy1d):
        a = S.frac_green(req(cauchy1d, 0.5, 1.0, [0.7], [-0.1]))
        b = S.frac_green(req(cauchy1d, 0.5, 1.0, [-0.1], [0.7]))
        assert a == pytest.approx(b, rel=1e-10)

    def test_far_tail_power(self, cauchy1d):
        # Omega >= 1 branch decays like Omega^{-1 - d/alpha} = Omega^{-2}
        v1 = S.frac_green(req(cauchy1d, 0.5, 1.0, [20.0], [0.0]))
        v2 = S.frac_green(req(cauchy1d, 0.5, 1.0, [40.0], [0.0]))
        slope = math.log(v2 / v1) / math.log(2.0)
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_diagonal_divergence(self, cauchy1d):
        with pytest.raises(DomainError):
            S.frac_green(req(cauchy1d, 0.5, 1.0, [0.0], [0.0]))

    def test_on_diagonal_slow_left_decay(self):
        # d < alpha on the diagonal: the integrand decays only like
        # e^{(1 - d/alpha) zeta} to the left, so the window reaches zeta ~ -140.
        # Closed form: (1/pi) t^{-beta/alpha} Gamma(1/alpha) Gamma(1 - 1/alpha)
        # / (alpha Gamma(1 - beta/alpha)), from the Mellin transform of E_beta(-u)
        alpha, beta = 1.5, 0.3
        res = S.frac_green_detailed(req(K.IsotropicStable(1, alpha), beta, 1.0, [0.0], [0.0]))
        exact = (
            math.gamma(1.0 / alpha) * math.gamma(1.0 - 1.0 / alpha)
            / (math.pi * alpha * math.gamma(1.0 - beta / alpha))
        )
        assert math.isfinite(res.value) and res.value > 0
        assert res.error_estimate < K.IsotropicStable.rule_tol
        assert res.value == pytest.approx(exact, rel=1e-8)

    def test_anisotropic_matches_radial(self):
        an = K.AnisotropicStable2D(1.2, K.SpectralMeasure.uniform(1.2))
        iso = K.IsotropicStable(2, 1.2)
        va = S.frac_green(req(an, 0.5, 1.0, [0.8, 0.6], [0.0, 0.0]))
        vi = S.frac_green(req(iso, 0.5, 1.0, [1.0, 0.0], [0.0, 0.0]))
        assert va == pytest.approx(vi, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("t", [0.1, 1.0])
    def test_anisotropic_alpha_below_one_matches_radial(self, t):
        # sigma_max passes the cap inside these requests; the old angular
        # trapezoid raised AccuracyError on each of them
        an = K.AnisotropicStable2D(0.8, K.SpectralMeasure.uniform(0.8))
        iso = K.IsotropicStable(2, 0.8)
        for r in (0.3, 1.5, 6.0):
            va = S.frac_green(req(an, 0.5, t, [r, 0.0], [0.0, 0.0]))
            assert va == pytest.approx(S.frac_green(req(iso, 0.5, t, [r, 0.0], [0.0, 0.0])), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    @pytest.mark.parametrize("measure", ["uniform", "two_bump"])
    def test_anisotropic_scan_corners(self, alpha, measure):
        # the corners of the (beta, t, r) scan: no request raises, and the
        # uniform measure is the isotropic kernel
        mu = K.SpectralMeasure.uniform(alpha) if measure == "uniform" else (
            K.SpectralMeasure.from_callable(K.SPECTRAL_BUILTINS[measure]))
        an, iso = K.AnisotropicStable2D(alpha, mu), K.IsotropicStable(2, alpha)
        for beta in (0.3, 0.8):
            for t in (1e-4, 10.0):
                for r in (0.1, 60.0):
                    x = [r * math.cos(0.4), r * math.sin(0.4)]
                    res = S.frac_green_detailed(req(an, beta, t, x, [0.0, 0.0]))
                    assert math.isfinite(res.log_value)
                    if measure == "uniform":
                        ref = S.frac_green_detailed(req(iso, beta, t, [r, 0.0], [0.0, 0.0])).log_value
                        assert res.log_value == pytest.approx(ref, abs=1e-9)


class TestFracGreenDerivative:
    def test_odd_symmetry_at_diagonal(self, gauss1d):
        v = S.frac_green_derivative(req(gauss1d, 0.5, 1.0, [0.0], [0.0], k=1))
        assert abs(v) < 1e-8

    def test_sign(self, gauss1d):
        right = S.frac_green_derivative(req(gauss1d, 0.5, 1.0, [1.0], [0.0], k=1))
        left = S.frac_green_derivative(req(gauss1d, 0.5, 1.0, [-1.0], [0.0], k=1))
        assert right < 0 < left

    def test_matches_finite_difference(self, gauss1d):
        h = 1e-5
        fd = (
            S.frac_green(req(gauss1d, 0.5, 1.0, [1.0 + h], [0.0]))
            - S.frac_green(req(gauss1d, 0.5, 1.0, [1.0 - h], [0.0]))
        ) / (2 * h)
        res = S.frac_green_detailed(req(gauss1d, 0.5, 1.0, [1.0], [0.0], k=1))
        assert res.value == pytest.approx(fd, rel=1e-5)
        assert res.error_estimate < GAUSS_TOL
        assert S.frac_green_derivative(req(gauss1d, 0.5, 1.0, [1.0], [0.0], k=1)) == res.value

    def test_stable_derivative_matches_fd(self, cauchy1d):
        h = 1e-5
        fd = (
            S.frac_green(req(cauchy1d, 0.5, 1.0, [2.0 + h], [0.0]))
            - S.frac_green(req(cauchy1d, 0.5, 1.0, [2.0 - h], [0.0]))
        ) / (2 * h)
        got = S.frac_green_derivative(req(cauchy1d, 0.5, 1.0, [2.0], [0.0], k=1))
        assert got == pytest.approx(fd, rel=1e-4)
        assert got < 0

    def test_second_derivative_gaussian(self, gauss1d):
        h = 1e-4
        vals = [
            S.frac_green(req(gauss1d, 0.5, 1.0, [1.0 + s * h], [0.0])) for s in (-1, 0, 1)
        ]
        fd2 = (vals[0] - 2 * vals[1] + vals[2]) / h**2
        res = S.frac_green_detailed(req(gauss1d, 0.5, 1.0, [1.0], [0.0], k=2))
        assert res.value == pytest.approx(fd2, rel=1e-3)
        assert res.error_estimate < GAUSS_TOL
        assert S.frac_green_derivative(req(gauss1d, 0.5, 1.0, [1.0], [0.0], k=2)) == res.value

    def test_second_derivative_diverges_on_diagonal(self, gauss1d):
        with pytest.raises(DomainError):
            S.frac_green_derivative(req(gauss1d, 0.5, 1.0, [0.0], [0.0], k=2))

    def test_capability_budget(self, cauchy1d):
        with pytest.raises(CapabilityError):
            req(cauchy1d, 0.5, 1.0, [1.0], [0.0], k=2)


class TestLatticeRule:
    def test_value_independent_of_call_order(self, gauss1d, monkeypatch):
        monkeypatch.setattr(S, "_WEIGHTS", S._WeightCache())
        point = req(gauss1d, 0.45, 1.3, [0.7], [0.0])
        first = S.frac_green_detailed(point)
        H.verify_envelope("3.1", K.ConstantDiffusion(3), 0.45)
        again = S.frac_green_detailed(point)
        # a fresh cache recomputes every weight in other batches
        monkeypatch.setattr(S, "_WEIGHTS", S._WeightCache())
        fresh = S.frac_green_detailed(point)
        assert first == again == fresh

    def test_weight_cache_bounded(self, gauss1d, monkeypatch):
        cache = S._WeightCache()
        monkeypatch.setattr(S, "_WEIGHTS", cache)
        for beta in np.linspace(0.2, 0.9, 200):
            S.frac_green(req(gauss1d, float(beta), 1.0, [0.5], [0.0]))
        sizes = [len(table) for table in cache._tables.values()]
        assert 0 < len(sizes) <= S._MAX_BETAS
        assert max(sizes) <= S._MAX_NODES

    def test_finest_level_without_convergence_raises(self, gauss1d, monkeypatch):
        monkeypatch.setattr(S, "_MAX_LEVEL", 1)
        with pytest.raises(AccuracyError):
            S.frac_green(req(gauss1d, 0.8, 0.1, [30.0], [0.0]))


class TestFracSolve:
    def test_constants_preserved(self, gauss1d):
        ys = np.linspace(-14.0, 14.0, 241)
        got = S.frac_solve(gauss1d, 0.5, 1.0, ys, np.ones_like(ys), [0.0])
        assert got == pytest.approx(1.0, abs=1e-3)

    def test_initial_condition_consistency(self, gauss1d):
        # the fractional kernel at time t carries variance 2 t^beta / Gamma(1+beta)
        # (~0.023 at t = 1e-4), so the bump must be wide relative to that and
        # the grid fine relative to the kernel width
        ys = np.linspace(-4.0, 4.0, 401)
        bump = np.exp(-(ys**2) / 4.0)
        got = S.frac_solve(gauss1d, 0.5, 1e-4, ys, bump, [0.3])
        assert got == pytest.approx(math.exp(-0.09 / 4.0), abs=1e-2)

    def test_half_space_indicator(self, gauss1d):
        ys = np.linspace(-16.0, 16.0, 401)
        indicator = (ys >= 0).astype(float)
        indicator[ys == 0.0] = 0.5  # midpoint sampling of the jump
        got = S.frac_solve(gauss1d, 0.5, 1.0, ys, indicator, [0.0])
        assert got == pytest.approx(0.5, abs=1e-3)

    def test_coverage_error(self, gauss1d):
        ys = np.linspace(-0.5, 0.5, 51)  # far too narrow for t = 1
        with pytest.raises(CoverageError):
            S.frac_solve(gauss1d, 0.5, 1.0, ys, np.ones_like(ys), [0.0])

    def test_divergent_node_raises(self):
        # d = 1 >= alpha = 0.9: the kernel diverges where y = x, here a grid node
        ys = np.linspace(-14.0, 14.0, 241)
        with pytest.raises(DomainError):
            S.frac_solve(K.IsotropicStable(1, 0.9), 0.5, 1.0, ys, np.ones_like(ys), [0.0])


class TestFracGreenFd1d:
    def test_matches_gaussian_route(self):
        fd = K.VariableDiffusion1D("one", horizon=1.0)
        g1 = K.ConstantDiffusion(1)
        for t, r in [(0.1, 0.0), (0.5, 1.0), (1.0, 2.0)]:
            a = S.frac_green_detailed(S.FracGreenRequest(kernel=fd, beta=0.5, t=t, x=r, y=0.0))
            b = S.frac_green(req(g1, 0.5, t, [r], [0.0]))
            assert a.value == pytest.approx(b, rel=1e-3)
            assert a.truncated_mass_bound < 1e-8

    def test_variable_coefficient_positive(self):
        fd = K.VariableDiffusion1D("sin_bump", horizon=0.5)
        v = S.frac_green_detailed(S.FracGreenRequest(kernel=fd, beta=0.5, t=0.3, x=0.7, y=0.0))
        assert v.value > 0

    def test_far_point_beyond_horizon_raises(self):
        # the integrand still carries weight at the stored horizon: no
        # silently truncated value
        fd = K.VariableDiffusion1D("one", horizon=0.5, dx=0.05, dt=0.05)
        with pytest.raises(HorizonError):
            S.frac_green(S.FracGreenRequest(kernel=fd, beta=0.5, t=0.05, x=6.0, y=0.0))

    def test_point_beyond_grown_domain_raises(self):
        # every base time up to the clip lies beyond the grown domain, where G
        # is the frozen-coefficient Gaussian, not 0, which would leave nothing
        # to scan (AccuracyError): the integrand has not decayed by the clip
        fd = K.VariableDiffusion1D("one", horizon=0.5, dx=0.05, dt=0.05)
        with pytest.raises(HorizonError):
            S.frac_green(S.FracGreenRequest(kernel=fd, beta=0.5, t=0.05, x=30.0, y=0.0))

    def test_derivative_unsupported(self):
        fd = K.VariableDiffusion1D("one", horizon=0.5)
        with pytest.raises(CapabilityError):
            S.FracGreenRequest(kernel=fd, beta=0.5, t=0.3, x=0.0, y=0.0, derivative_order=1)


# (kernel factory, derivative orders, points x against y = 0) per family; the
# point i is taken at time BATCH_TIMES[i % 3]
BATCH_CASES = {
    "gaussian d=1": (lambda: K.ConstantDiffusion(1), (0, 1, 2), [[0.3], [-1.2], [2.5], [0.0]]),
    "gaussian d=2": (lambda: K.ConstantDiffusion(2, [[2.0, 0.5], [0.5, 1.0]]), (0, 1),
                     [[1.0, 0.5], [-0.4, 1.3], [2.0, -1.0]]),
    "gaussian d=3": (lambda: K.ConstantDiffusion(3), (0,), [[0.5, 0.0, 0.0], [1.0, -2.0, 0.5], [0.1, 0.1, 0.1]]),
    "stable d=1": (lambda: K.IsotropicStable(1, 1.5), (0, 1), [[0.0], [0.7], [-3.0], [80.0]]),
    "stable d=2": (lambda: K.IsotropicStable(2, 1.5), (0,), [[0.3, 0.4], [5.0, 0.0], [30.0, 1.0]]),
    "stable d=3": (lambda: K.IsotropicStable(3, 1.5), (0,), [[0.3, 0.0, 0.4], [2.0, 1.0, 0.0], [70.0, 0.0, 0.0]]),
    "anisotropic": (lambda: K.AnisotropicStable2D(1.5, K.SpectralMeasure.from_callable(K.SPECTRAL_BUILTINS["two_bump"])),
                    (0,), [[1.0, 0.5], [-2.0, 3.0], [0.2, -0.1]]),
    "fd1d": (lambda: K.VariableDiffusion1D("sin_bump", horizon=0.5, dx=0.05, dt=0.05), (0,),
             [[0.3], [1.1], [-0.8], [0.0]]),
}
BATCH_TIMES = (0.3, 1.0, 0.05)


class TestBatch:
    """A sweep evaluates all its points in one batch; each point's result
    must be what it gets alone, in a batch of one."""

    @pytest.mark.parametrize("family, k", [(f, k) for f, (_, ks, _) in BATCH_CASES.items() for k in ks])
    def test_batch_equals_batches_of_one(self, family, k):
        make, _, xs = BATCH_CASES[family]
        kernel = make()
        ts = [BATCH_TIMES[i % 3] for i in range(len(xs))]
        ys = [[0.0] * len(x) for x in xs]
        batch = S.frac_green_batch(kernel, 0.6, ts, xs, ys, k)
        for t, x, y, got in zip(ts, xs, ys, batch):
            (alone,) = S.frac_green_batch(kernel, 0.6, [t], [x], [y], k)
            if x == [0.0] and k == 2:  # the diagonal diverges for d + k >= 2
                assert type(got) is type(alone) is DomainError
                continue
            assert isinstance(got, S.FracGreenResult), (x, got)
            for name in ("value", "log_value", "error_estimate", "nodes", "truncated_mass_bound"):
                assert getattr(got, name) == getattr(alone, name), (x, name)
            assert got == S.frac_green_detailed(req(kernel, 0.6, t, x, y, k))

    def test_fd1d_batch_over_sources(self):
        # one history per source, each read only by its own points
        fd = K.VariableDiffusion1D("sin_bump", horizon=0.5, dx=0.05, dt=0.05)
        ts, xs, ys = [0.3, 0.05, 1.0, 0.3], [0.4, 0.4, -1.0, 2.0], [-0.5, 0.0, 0.5, 0.0]
        batch = S.frac_green_batch(fd, 0.6, ts, xs, ys)
        fresh = K.VariableDiffusion1D("sin_bump", horizon=0.5, dx=0.05, dt=0.05)
        assert batch == [S.frac_green_detailed(req(fresh, 0.6, *point)) for point in zip(ts, xs, ys)]
        assert sorted(fd._histories) == [-0.5, 0.0, 0.5]

    def test_mixed_batch_fails_point_by_point(self):
        # a kernel call that raises for one point is repeated point by point,
        # and each failure is the one the point raises alone
        def expect(kernel, ts, xs, failures):
            batch = S.frac_green_batch(kernel, 0.3, ts, xs, [[0.0]] * len(xs))
            for i, (t, x, got) in enumerate(zip(ts, xs, batch)):
                if i in failures:
                    assert type(got) is failures[i], (x, got)
                    with pytest.raises(failures[i]):
                        S.frac_green_detailed(req(kernel, 0.3, t, x, [0.0]))
                else:
                    assert got == S.frac_green_detailed(req(kernel, 0.3, t, x, [0.0])), x

        # fd1d: a point beyond the user's half-width raises in the history's
        # evaluation, a non-finite time in the request
        fd = K.VariableDiffusion1D("one", horizon=0.5, dx=0.05, dt=0.05, half_width=2.0)
        expect(fd, [0.3, 0.3, 0.2, math.inf, 0.3], [[0.5], [3.0], [0.2], [0.5], [1.0]],
               {1: HorizonError, 3: DomainError})
        # stable alpha = 1.05 on the diagonal: phi decays too slowly to close
        # the window within the zeta limit; NaN is no point
        st = K.IsotropicStable(1, 1.05)
        expect(st, [1.0, 1.0, 1.0, 2.0], [[0.0], [0.5], [math.nan], [1.0]], {0: AccuracyError, 2: DomainError})
        # Gaussian d = 2 diverges on the diagonal
        g2 = K.ConstantDiffusion(2)
        batch = S.frac_green_batch(g2, 0.3, [1.0, 1.0, 1.0], [[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]], [[0.0, 0.0]] * 3)
        assert type(batch[0]) is DomainError
        assert batch[1:] == [S.frac_green_detailed(req(g2, 0.3, 1.0, x, [0.0, 0.0])) for x in ([1.0, 0.0], [0.5, 0.5])]

    def test_order_beyond_kernel_fails_the_batch(self):
        with pytest.raises(CapabilityError):
            S.frac_green_batch(K.IsotropicStable(2, 1.5), 0.5, [1.0], [[1.0, 0.0]], [[0.0, 0.0]], 1)

    def test_batch_lengths_must_agree(self, gauss1d):
        with pytest.raises(DomainError):
            S.frac_green_batch(gauss1d, 0.5, [1.0, 2.0], [0.5], [0.0, 0.0])

    def test_one_kernel_call_per_round(self, gauss1d, monkeypatch):
        # 12 points cost no more kernel calls than the slowest of them alone
        calls, log_value = [], K.ConstantDiffusion.log_value
        monkeypatch.setattr(K.ConstantDiffusion, "log_value", lambda *a: calls.append(1) or log_value(*a))
        ts, xs = [0.2, 1.0, 5.0] * 4, [[r] for r in (0.0, 0.1, 1.0, 3.0) for _ in range(3)]
        alone = []
        for t, x in zip(ts, xs):
            calls.clear()
            S.frac_green_detailed(req(gauss1d, 0.5, t, x, [0.0]))
            alone.append(len(calls))
        calls.clear()
        S.frac_green_batch(gauss1d, 0.5, ts, xs, [[0.0]] * 12)
        assert len(calls) == max(alone) < sum(alone)
