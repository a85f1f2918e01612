"""Tests for subordinator sampling, inverse subordinators and comparison checks."""

import math
import signal

import numpy as np
import pytest
from scipy.special import erf
from scipy.stats import ks_2samp, kstest

from fracgreen import kernels as K
from fracgreen import mc as M
from fracgreen import subordination as S
from fracgreen.errors import CapabilityError, CertificateError, DomainError

MIXTURE = M.LevyKernelSpec(components=((0.5, 0.4), (0.5, 0.6)))
# orders from 0.05 to 0.95, weights 1e6 apart, and two orders at one weight
ROOT_MIXTURES = [
    MIXTURE,
    M.LevyKernelSpec(components=((0.2, 0.05), (1.0, 0.5), (2.0, 0.95))),
    M.LevyKernelSpec(components=((1e-3, 0.3), (1e3, 0.7))),
    M.LevyKernelSpec(components=((1.0, 0.1), (1.0, 0.9))),
]
EPS = np.finfo(float).eps


def _unit_log_draws(levy, n, seed):
    """log S_i, the unit draws ``sample_inverse_subordinator`` takes from
    ``rng_stream(seed)``: one row per component, in component order."""
    rng = M.rng_stream(seed)
    return np.log([M.sample_stable_increment(b, 1.0, rng, size=n) for _, b in levy.components])


def _log_g(levy, log_s, log_u):
    """log g(u) = log sum_i (w_i u)^{1/beta_i} S_i for each sample."""
    return np.log(sum(np.exp((math.log(w) + log_u) / b + ls) for (w, b), ls in zip(levy.components, log_s)))


def _bisect_roots(levy, log_s, t):
    """Reference E_t: bisection in log u of the component-root bracket
    [min_i log u_i(t/k), min_i log u_i(t)] down to 4 eps relative."""
    log_w = np.log([[w] for w, _ in levy.components])
    betas = np.array([[b] for _, b in levy.components])

    def log_root(level):
        return np.min(betas * (math.log(level) - log_s) - log_w, axis=0)

    lo, hi = log_root(t / len(betas)), log_root(t)
    while np.any(hi - lo > 4.0 * EPS * np.maximum(1.0, np.abs(hi))):
        mid = 0.5 * (lo + hi)
        below = np.exp((log_w + mid) / betas + log_s).sum(axis=0) < t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.exp(0.5 * (lo + hi))


def _march_first_passage(levy, t, n, dt, rng, block=64):
    """Reference E_t by first passage of n marched paths: exact mixture
    increments over steps dt, marched in blocks until every path crosses t;
    the estimate is the midpoint of the crossing step."""
    passage = np.empty(n)
    alive = np.arange(n)
    s = np.zeros(n)
    x = np.zeros(n)
    while alive.size:
        size = alive.size * block
        J = sum(M.sample_stable_increment(b, w * dt, rng, size=size) for w, b in levy.components)
        levels = x[alive, None] + np.cumsum(J.reshape(alive.size, block), axis=1)
        crossed = levels[:, -1] >= t
        rows = np.where(crossed)[0]
        first = np.argmax(levels[rows] >= t, axis=1)
        passage[alive[rows]] = s[alive[rows]] + (first + 0.5) * dt
        keep_rows = np.where(~crossed)[0]
        keep = alive[keep_rows]
        x[keep] = levels[keep_rows, -1]
        s[keep] += block * dt
        alive = keep
    return passage


class TestStableIncrement:
    def test_laplace_transform_law(self):
        rng = M.rng_stream(42)
        for beta, dt in [(0.5, 1.0), (0.4, 0.5), (0.7, 2.0)]:
            s = M.sample_stable_increment(beta, dt, rng, size=100_000)
            got = np.exp(-s).mean()
            expect = math.exp(-dt)
            serr = np.exp(-s).std() / math.sqrt(len(s))
            assert abs(got - expect) < 3 * serr + 1e-12

    def test_positivity(self):
        rng = M.rng_stream(1)
        s = M.sample_stable_increment(0.5, 1.0, rng, size=10_000)
        assert (s > 0).all()

    def test_tail_constant(self):
        rng = M.rng_stream(5)
        s = M.sample_stable_increment(0.5, 1.0, rng, size=100_000)
        got = (s > 1e3).mean() * 1e3**0.5
        assert got == pytest.approx(1.0 / math.gamma(0.5), rel=0.10)

    def test_scalar_draw(self):
        rng = M.rng_stream(2)
        v = M.sample_stable_increment(0.5, 1.0, rng)
        assert isinstance(v, float) and v > 0

    def test_determinism(self):
        a = M.sample_stable_increment(0.6, 1.0, M.rng_stream(9), size=1000)
        b = M.sample_stable_increment(0.6, 1.0, M.rng_stream(9), size=1000)
        assert np.array_equal(a, b)


class TestSymmetricStable:
    def test_cauchy_quartiles(self):
        rng = M.rng_stream(3)
        z = M.sample_symmetric_stable(1.0, rng, size=100_000)
        # Cauchy quartiles at +-1
        assert np.quantile(z, 0.75) == pytest.approx(1.0, abs=0.02)

    def test_gaussian_limit(self):
        rng = M.rng_stream(4)
        z = M.sample_symmetric_stable(2.0, rng, size=100_000)
        assert z.var() == pytest.approx(2.0, rel=0.03)

    def test_symmetry(self):
        rng = M.rng_stream(6)
        z = M.sample_symmetric_stable(1.5, rng, size=100_000)
        assert abs(np.median(z)) < 0.02


class TestInverseSubordinator:
    @pytest.mark.parametrize("beta", [0.4, 0.5, 0.7])
    def test_mean_identity(self, beta):
        cfg = M.McConfig(sample_count=100_000, seed=17)
        e = M.sample_inverse_subordinator(beta, 1.0, cfg)
        expect = 1.0 / math.gamma(1.0 + beta)
        serr = e.std() / math.sqrt(len(e))
        assert abs(e.mean() - expect) < 3 * serr

    def test_ks_closed_form(self):
        cfg = M.McConfig(sample_count=100_000, seed=23)
        e = M.sample_inverse_subordinator(0.5, 1.0, cfg)
        stat = kstest(e, lambda s: erf(s / 2.0)).statistic
        assert stat < 0.02

    def test_small_time_concentration(self):
        cfg = M.McConfig(sample_count=5_000, seed=31)
        e = M.sample_inverse_subordinator(0.5, 1e-6, cfg)
        assert np.quantile(e, 0.99) < 0.1

    def test_determinism_bit_for_bit(self):
        cfg = M.McConfig(sample_count=2_000, seed=77)
        a = M.sample_inverse_subordinator(0.5, 1.0, cfg)
        b = M.sample_inverse_subordinator(0.5, 1.0, cfg)
        assert np.array_equal(a, b)

    def test_domain(self):
        with pytest.raises(DomainError):
            M.sample_inverse_subordinator(0.5, 0.0, M.McConfig(sample_count=10, seed=1))

    @pytest.mark.parametrize("beta,t", [(0.4, 0.5), (0.7, 3.0)])
    def test_pure_order_closed_form(self, beta, t):
        cfg = M.McConfig(sample_count=10_000, seed=61)
        e = M.sample_inverse_subordinator(beta, t, cfg, rng=M.rng_stream(61))
        s = M.sample_stable_increment(beta, 1.0, M.rng_stream(61), size=cfg.sample_count)
        np.testing.assert_allclose(e, (t / s) ** beta, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "levy",
        [None, MIXTURE, M.LevyKernelSpec(components=((0.2, 0.3), (1.0, 0.5), (2.0, 0.9)))],
    )
    def test_one_draw_per_component_per_path(self, levy, monkeypatch):
        draws = []
        real = M.sample_stable_increment

        def counted(beta, dt, rng, size=None):
            draws.append(1 if size is None else int(size))
            return real(beta, dt, rng, size=size)

        monkeypatch.setattr(M, "sample_stable_increment", counted)
        cfg = M.McConfig(sample_count=1_000, seed=67)
        M.sample_inverse_subordinator(0.5, 1.0, cfg, levy=levy)
        k = 1 if levy is None else len(levy.components)
        assert sum(draws) == k * cfg.sample_count

    def test_mixture_monotone_in_t(self):
        cfg = M.McConfig(sample_count=20_000, seed=71)
        es = [M.sample_inverse_subordinator(None, t, cfg, levy=MIXTURE) for t in (1e-6, 1.0, 1e6)]
        for e in es:
            assert np.isfinite(e).all() and (e > 0).all()
        assert (np.diff(es, axis=0) >= 0).all()

    @pytest.mark.parametrize("t", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("levy", ROOT_MIXTURES, ids=["two", "three", "wide-weights", "far-orders"])
    def test_mixture_roots_match_bisection(self, levy, t):
        cfg = M.McConfig(sample_count=4_000, seed=79)
        got = M.sample_inverse_subordinator(None, t, cfg, levy=levy)
        log_s = _unit_log_draws(levy, cfg.sample_count, cfg.seed)
        np.testing.assert_allclose(got, _bisect_roots(levy, log_s, t), rtol=1e-13, atol=0.0)
        # g(E_t) = t to the rounding of g's own exponents, which carry log t
        # and log S_i: at t = 1 the bisection's roots of the 0.05-order
        # mixture read 176 eps off, so the scale takes max|log S_i| in too
        scale = np.maximum(np.maximum(1.0, abs(math.log(t))), np.abs(log_s).max(axis=0))
        assert (np.abs(_log_g(levy, log_s, np.log(got)) - math.log(t)) <= 64 * EPS * scale).all()

    def test_rounding_bounce_stops(self):
        # at t = 1e6 rounding bounces some of these samples across their
        # roots with steps just above the tolerance: a common stop on |step|
        # never ends (980 samples still above it after 200 passes), a
        # per-sample stop on the signed step takes 6 passes; the alarm turns
        # a hang into a failure
        levy = ROOT_MIXTURES[2]
        cfg = M.McConfig(sample_count=20_000, seed=5)

        def hang(signum, frame):
            raise TimeoutError("the Newton loop did not stop")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(20)
        try:
            got = M.sample_inverse_subordinator(None, 1e6, cfg, levy=levy)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        log_s = _unit_log_draws(levy, cfg.sample_count, cfg.seed)
        np.testing.assert_allclose(got, _bisect_roots(levy, log_s, 1e6), rtol=1e-13, atol=0.0)

    def test_mixture_matches_marcher(self):
        cfg = M.McConfig(sample_count=20_000, seed=73)
        exact = M.sample_inverse_subordinator(None, 1.0, cfg, rng=M.rng_stream(73, task=0), levy=MIXTURE)
        # steps of 2^-9: the crossing-step midpoint is within 1e-3 of E_t
        marched = _march_first_passage(MIXTURE, 1.0, cfg.sample_count, 2.0**-9, M.rng_stream(73, task=1))
        assert ks_2samp(exact, marched).pvalue > 0.01


class TestSubordinatedDensity:
    def test_variance_identity(self):
        cfg = M.McConfig(sample_count=100_000, seed=13)
        x = M.subordinated_path_samples(K.ConstantDiffusion(1), 0.5, 1.0, cfg)
        assert (x**2).mean() == pytest.approx(2.0 / math.gamma(1.5), rel=0.05)

    def test_ks_against_frac_green(self):
        cfg = M.McConfig(sample_count=100_000, seed=19)
        samples = M.subordinated_path_samples(K.ConstantDiffusion(1), 0.5, 1.0, cfg)
        g1 = K.ConstantDiffusion(1)
        grid = np.linspace(0.0, 14.0, 141)
        pdf = np.array([res.value for res in S.frac_green_batch(g1, 0.5, [1.0] * grid.size, grid[:, None],
                                                                np.zeros((grid.size, 1)))])
        # symmetric kernel: build the CDF on r >= 0 and mirror
        half = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))])

        def cdf(v):
            v = np.asarray(v, dtype=float)
            inner = np.interp(np.abs(v), grid, half)
            return 0.5 + np.sign(v) * inner

        stat = kstest(samples, cdf).statistic
        assert stat < 0.02

    def test_median_symmetric_stable(self):
        cfg = M.McConfig(sample_count=50_000, seed=29)
        x = M.subordinated_path_samples(K.IsotropicStable(1, 1.0), 0.5, 1.0, cfg)
        assert abs(np.median(x)) < 0.03

    def test_histogram_output(self):
        cfg = M.McConfig(sample_count=20_000, seed=37, histogram_bins=40)
        est = M.subordinated_density_mc(K.ConstantDiffusion(1), 0.5, 1.0, cfg)
        assert est.counts.sum() <= cfg.sample_count
        assert est.density.shape == (40,)
        width = np.diff(est.bin_edges)
        assert (est.density * width).sum() == pytest.approx(1.0, abs=0.01)
        # paired quadrature values track the empirical density
        assert est.frac_green_density is not None
        mid = est.density > est.density.max() * 0.2
        rel = np.abs(est.density[mid] / est.frac_green_density[mid] - 1.0)
        assert np.median(rel) < 0.1

    def test_unsupported_family(self):
        an = K.AnisotropicStable2D(1.0, K.SpectralMeasure.uniform(1.0))
        with pytest.raises(CapabilityError):
            M.subordinated_path_samples(an, 0.5, 1.0, M.McConfig(sample_count=100, seed=1))


class TestLevyKernelSpec:
    def test_pure_certificate_degenerate(self):
        nu = M.LevyKernelSpec.pure(0.5)
        cert = nu.certificate()
        assert cert["beta_lower"] == cert["beta_upper"] == 0.5
        assert cert["C_low_small"] == pytest.approx(1.0)
        assert cert["C_high_small"] == pytest.approx(1.0)

    def test_mixture_certificate(self):
        nu = M.LevyKernelSpec(components=((0.5, 0.4), (0.5, 0.6)))
        cert = nu.certificate()
        assert cert["beta_lower"] == 0.4 and cert["beta_upper"] == 0.6
        # sandwich inequalities hold numerically on both half-lines
        c = lambda b: b / math.gamma(1.0 - b)
        for s in np.geomspace(1e-4, 1.0, 40):
            assert nu.density(s) <= cert["C_high_small"] * c(0.6) * s ** (-1.6) * (1 + 1e-12)
            assert nu.density(s) >= cert["C_low_small"] * c(0.4) * s ** (-1.4) * (1 - 1e-12)
        for s in np.geomspace(1.0, 1e4, 40):
            assert nu.density(s) <= cert["C_high_large"] * c(0.4) * s ** (-1.4) * (1 + 1e-12)
            assert nu.density(s) >= cert["C_low_large"] * c(0.6) * s ** (-1.6) * (1 - 1e-12)

    def test_bad_declared_orders(self):
        nu = M.LevyKernelSpec(components=((1.0, 0.5),), beta_lower=0.6, beta_upper=0.7)
        with pytest.raises(CertificateError):
            nu.certificate()


class TestComparison:
    def test_degenerate_sandwich_equal(self):
        nu = M.LevyKernelSpec.pure(0.5)
        cfg = M.McConfig(sample_count=30_000, seed=41)
        f = lambda v: 1.0 if v <= 0.5 else 0.0
        rep = M.comparison_check(nu, K.ConstantDiffusion(1), 1.0, f, cfg)
        assert rep.ordering_holds
        assert rep.estimate_mixture == pytest.approx(rep.estimate_lower_order, abs=0.01)

    def test_constant_function(self):
        nu = M.LevyKernelSpec(components=((0.5, 0.4), (0.5, 0.6)))
        cfg = M.McConfig(sample_count=5_000, seed=43)
        rep = M.comparison_check(nu, K.ConstantDiffusion(1), 1.0, lambda v: 1.0, cfg)
        assert rep.estimate_mixture == 1.0
        assert rep.estimate_lower_order == 1.0
        assert rep.estimate_upper_order == 1.0
        assert rep.ordering_holds

    def test_mixture_sandwich(self):
        nu = M.LevyKernelSpec(components=((0.5, 0.4), (0.5, 0.6)))
        cfg = M.McConfig(sample_count=60_000, seed=47)
        f = lambda v: 1.0 if v <= 0.5 else 0.0
        rep = M.comparison_check(nu, K.ConstantDiffusion(1), 1.0, f, cfg)
        assert rep.ordering_holds

    def test_rejects_increasing_function(self):
        nu = M.LevyKernelSpec.pure(0.5)
        cfg = M.McConfig(sample_count=1_000, seed=51)
        with pytest.raises(DomainError):
            M.comparison_check(nu, K.ConstantDiffusion(1), 1.0, lambda v: v, cfg)

    def test_stable_base_process(self):
        nu = M.LevyKernelSpec(components=((0.5, 0.4), (0.5, 0.6)))
        cfg = M.McConfig(sample_count=2_000, seed=53, bracket_tol=4e-3)
        f = lambda v: 1.0 if v <= 0.5 else 0.0
        rep = M.comparison_check(nu, K.IsotropicStable(1, 1.5), 1.0, f, cfg)
        assert isinstance(rep, M.ComparisonReport)
        assert 0.5 < rep.estimate_mixture < 1.0

    def test_unsimulated_family(self):
        nu = M.LevyKernelSpec.pure(0.5)
        an = K.AnisotropicStable2D(1.0, K.SpectralMeasure.uniform(1.0))
        with pytest.raises(CapabilityError):
            M.comparison_check(nu, an, 1.0, lambda v: 1.0, M.McConfig(sample_count=100, seed=1))
