"""Tests for the base spatial Green's function families."""

import ast
import importlib
import inspect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaln

from fracgreen import harness as H
from fracgreen import kernels as K
from fracgreen import subordination as S
from fracgreen.errors import CapabilityError, DomainError, HorizonError


# the origin of the plane
O2 = (0.0, 0.0)


def integrand_of_one(kernel, x, y, k, t, beta):
    """``base_integrand`` for a batch of one point: (log_kernel(s), q_scale,
    s_clip), with None for log_kernel where d^k G vanishes identically; the
    point's own exception is raised."""
    log_kernel, (point,) = kernel.base_integrand([x], [y], k, [t], beta)
    if isinstance(point, Exception):
        raise point
    if point is None:
        return None, None, None
    return (lambda s: log_kernel(s, 0)), *point


def e1(r, d):
    """r times the first unit vector of R^d."""
    return [r] + [0.0] * (d - 1)


def cauchy_1d(t, r):
    return t / (math.pi * (t * t + r * r))


def poisson_kernel(d, t, r):
    cd = math.gamma((d + 1.0) / 2.0) / math.pi ** ((d + 1.0) / 2.0)
    return cd * t / (t * t + r * r) ** ((d + 1.0) / 2.0)


def mp_profile(alpha, d, rho):
    """Unit-time radial stable profile P_d(rho) from an 80-digit series.

    The power series in rho^2 is summed while its terms stay below 1e60
    times the first (it converges for alpha > 1); otherwise the
    inverse-power series in rho^{-d - k alpha} is (it converges for
    alpha < 1).  Where the chosen series is only asymptotic it stops before
    its first growing term, which must lie below 1e-20 of the sum; if it
    does not, the other series is tried.
    """
    with mp.workdps(80):
        a, r, dd = mp.mpf(alpha), mp.mpf(rho), mp.mpf(d)

        def power(k):
            return ((2 * mp.pi) ** (-dd / 2) * 2 ** (1 - dd / 2) * (-1) ** k * mp.gamma((2 * k + dd) / a)
                    / (a * mp.factorial(k) * mp.gamma(k + dd / 2)) * (r / 2) ** (2 * k))

        def inverse(k):
            ka = (k + 1) * a
            return ((-1) ** k * 2 ** ka * mp.gamma((dd + ka) / 2) * mp.gamma(1 + ka / 2) * mp.sin(mp.pi * ka / 2)
                    / (mp.pi ** (dd / 2 + 1) * mp.factorial(k + 1)) * r ** (-dd - ka))

        if rho == 0:
            return float(power(0))
        first_power = alpha > 1 or rho < 0.1
        for term in ((power, inverse) if first_power else (inverse, power)):
            asymptotic = (term is power) == (alpha < 1)
            total, prev, lead = mp.mpf(0), mp.inf, abs(term(0))
            for k in range(20000):
                t = term(k)
                if k and abs(t) < 1e-10 * prev:  # a vanishing sine factor
                    total += t
                    continue
                if abs(t) > 1e60 * lead:  # too much cancellation for 80 digits
                    break
                if asymptotic and abs(t) > prev:  # the smallest term: done, or try the other series
                    if prev < 1e-20 * abs(total):
                        return float(total)
                    break
                total, prev = total + t, abs(t)
                if prev < mp.mpf(10) ** -80 * abs(total):
                    return float(total)
        raise AssertionError(f"no 80-digit series for alpha={alpha}, d={d}, rho={rho}")


def mp_ray_moment(alpha, m, trig, sigma):
    """F_{m,trig}(sigma) = Int_0^inf xi^m e^{-xi^alpha} trig(sigma xi) dxi to 30
    digits, along the ray xi = v e^{i pi/3} in w = v^alpha (alpha < 1.5).

    The ray is one ``_fourier_moment`` does not take below alpha = 1.5; on it
    both e^{-xi^alpha} and e^{i sigma xi} decay, so the series' gaps (alpha
    near 1 at rho below about 1) have a reference too."""
    with mp.workdps(30):
        a, s, rot = mp.mpf(alpha), mp.mpf(sigma), mp.expjpi(mp.mpf(1) / 3)
        z = rot ** (m + 1) / a * mp.quad(
            lambda w: w ** ((m + 1) / a - 1) * mp.exp(-w * rot ** a + 1j * s * w ** (1 / a) * rot),
            [0, 16, mp.inf])
        return float(z.real if trig == "cos" else z.imag)


class TestGaussian:
    def test_on_diagonal_d3(self):
        g = K.ConstantDiffusion(3)
        assert g.value(1.0, [0, 0, 0], [0, 0, 0]) == pytest.approx(
            (4 * math.pi) ** -1.5, rel=1e-14, abs=0.0
        )

    def test_mass_d1(self):
        g = K.ConstantDiffusion(1)
        mass, _ = quad(lambda y: g.value(1.0, [0.0], [y]), -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_off_diagonal_d2(self):
        g = K.ConstantDiffusion(2)
        assert g.value(0.5, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(
            (2 * math.pi) ** -1 * math.exp(-0.5), rel=1e-14, abs=0.0
        )

    def test_anisotropic_matrix(self):
        A = [[2.0, 0.3], [0.3, 1.0]]
        g = K.ConstantDiffusion(2, A)
        x, y = np.array([0.7, -0.2]), np.array([0.0, 0.0])
        q = (x - y) @ np.linalg.inv(A) @ (x - y)
        expect = (4 * math.pi) ** -1 * np.linalg.det(A) ** -0.5 * math.exp(-q / 4.0)
        assert g.value(1.0, x, y) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_spd_validation(self):
        with pytest.raises(DomainError):
            K.ConstantDiffusion(2, [[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(DomainError):
            K.ConstantDiffusion(2, [[1.0, 0.5], [0.0, 1.0]])  # asymmetric

    def test_time_domain(self):
        g = K.ConstantDiffusion(1)
        with pytest.raises(DomainError):
            g.value(0.0, [0.0], [0.0])

    def test_first_derivative_matches_fd(self):
        g = K.ConstantDiffusion(1)
        h = 1e-6
        fd = (g.value(1.0, [0.5 + h], [0.0]) - g.value(1.0, [0.5 - h], [0.0])) / (2 * h)
        assert g.derivative(1.0, [0.5], [0.0], k=1) == pytest.approx(fd, rel=1e-8, abs=0.0)

    def test_second_derivative_matches_fd(self):
        g = K.ConstantDiffusion(1)
        h = 1e-4
        fd = (
            g.value(1.0, [0.5 + h], [0.0])
            - 2 * g.value(1.0, [0.5], [0.0])
            + g.value(1.0, [0.5 - h], [0.0])
        ) / h**2
        assert g.derivative(1.0, [0.5], [0.0], k=2) == pytest.approx(fd, rel=1e-6, abs=0.0)


class TestIsotropicStable:
    def test_cauchy_closed_form(self):
        c = K.IsotropicStable(1, 1.0)
        assert c.value(1.0, [0.0], [0.0]) == pytest.approx(1 / math.pi, rel=1e-9, abs=0.0)
        assert c.value(2.0, [2.0], [0.0]) == pytest.approx(cauchy_1d(2.0, 2.0), rel=1e-9, abs=0.0)

    def test_gaussian_limit(self):
        g = K.IsotropicStable(1, 2.0)
        assert g.value(1.0, [0.0], [0.0]) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-9, abs=0.0)
        ref = K.ConstantDiffusion(1)
        for r in (0.0, 0.5, 2.0):
            assert g.value(0.7, [r], [0.0]) == pytest.approx(ref.value(0.7, [r], [0.0]), rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_self_similarity(self, alpha):
        s = K.IsotropicStable(1, alpha)
        for t, r in [(0.3, 0.4), (2.5, 1.2), (7.0, 0.0)]:
            direct = s.value(t, [r], [0.0])
            scaled = t ** (-1.0 / alpha) * s.value(1.0, [r * t ** (-1.0 / alpha)], [0.0])
            assert direct == pytest.approx(scaled, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
    def test_mass(self, alpha):
        s = K.IsotropicStable(1, alpha)
        mass, _ = quad(lambda r: s.value(1.0, [r], [0.0]), 0, np.inf, limit=300)
        assert 2 * mass == pytest.approx(1.0, abs=1e-7)

    def test_poisson_d2_d3(self):
        for d in (2, 3):
            s = K.IsotropicStable(d, 1.0)
            assert s.value(1.0, e1(0.0, d), e1(0.0, d)) == pytest.approx(poisson_kernel(d, 1.0, 0.0), rel=1e-9, abs=0.0)
            assert s.value(1.5, e1(2.0, d), e1(0.0, d)) == pytest.approx(poisson_kernel(d, 1.5, 2.0), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_radial_quadrature_vs_closed_form_alpha1(self, d):
        # exercise the generic Hankel path by comparing alpha near 1 with
        # the exact alpha = 1 kernel bracketing
        s = K.IsotropicStable(d, 1.3)
        v = s.value(1.0, e1(1.0, d), e1(0.0, d))
        assert v > 0
        # positivity and monotone decay in r
        assert s.value(1.0, e1(2.0, d), e1(0.0, d)) < v

    def test_chapman_kolmogorov_d1(self):
        s = K.IsotropicStable(1, 1.0)
        t1, t2, r = 0.7, 0.5, 0.8
        conv, _ = quad(
            lambda z: s.value(t1, [0.0], [z]) * s.value(t2, [z], [r]),
            -np.inf,
            np.inf,
            limit=400,
        )
        assert conv == pytest.approx(s.value(t1 + t2, [0.0], [r]), abs=1e-4)

    def test_chapman_kolmogorov_gaussian(self):
        g = K.ConstantDiffusion(1)
        t1, t2, r = 0.4, 0.9, 1.1
        conv, _ = quad(
            lambda z: g.value(t1, [0.0], [z]) * g.value(t2, [z], [r]),
            -np.inf,
            np.inf,
        )
        assert conv == pytest.approx(g.value(t1 + t2, [0.0], [r]), abs=1e-10)

    def test_derivative_sign_and_fd(self):
        s = K.IsotropicStable(1, 1.5)
        h = 1e-5
        fd = (s.value(1.0, [1.0 + h], [0.0]) - s.value(1.0, [1.0 - h], [0.0])) / (2 * h)
        got = s.derivative(1.0, 1.0, 0.0, k=1)
        assert got == pytest.approx(fd, rel=1e-5, abs=0.0)
        assert got < 0
        assert s.derivative(1.0, 0.0, 1.0, k=1) > 0
        assert s.derivative(1.0, 0.5, 0.5, k=1) == 0.0

    @pytest.mark.parametrize("alpha", [0.7, 1.5, 2.0])
    def test_log_derivative_equals_linear_formula(self, alpha):
        # sign exp(log|dG/dx|) against the product t^{-2/alpha} P'(rho),
        # P' = -rho exp(log(-P'/rho)) (the Gaussian's at alpha = 2), on rho
        # across the spline and the tail (rho > 60), and +0.0 on the diagonal
        s = K.IsotropicStable(1, alpha)
        rho = np.geomspace(1e-3, 10.0 if alpha == 2.0 else 300.0, 80)
        for t in (0.3, 1.0, 2.5):
            rr = np.concatenate([rho, -rho]) * t ** (1.0 / alpha)
            got = s.derivative(np.full(rr.size, t), rr[:, None], np.zeros((rr.size, 1)), 1)
            r = np.abs(rr) * t ** (-1.0 / alpha)
            if alpha == 2.0:
                dmag = -(r / 2.0) * np.exp(-r * r / 4.0) / math.sqrt(4.0 * math.pi)
            else:
                dmag = -r * np.exp(s._profile.log_minus_deriv_over_rho(r))
            linear = np.copysign(np.abs(t ** (-2.0 / alpha) * dmag), -rr)
            assert np.max(np.abs(got / linear - 1.0)) < 1e-14
        for diagonal in (s.derivative(1.0, 0.3, 0.3, 1), s.derivative(np.array([1.0]), [[0.0]], [[0.0]], 1)[0]):
            assert diagonal == 0.0 and math.copysign(1.0, diagonal) == 1.0

    def test_far_tail_series_consistency(self):
        for alpha in (0.8, 1.5):
            p = K._profile_1d(alpha)
            lo = K._fourier_moment(alpha, 0, "cos", 59.0) / math.pi
            assert np.exp(p.log_value(59.0)) == pytest.approx(lo, rel=1e-8, abs=0.0)
            tail = K._tail_series(alpha, 0, "cos")(61.0) / math.pi
            assert np.exp(p.log_value(61.0)) == pytest.approx(tail, rel=1e-12, abs=0.0)

    def test_radial_tail_series_handoff(self):
        # the d = 2 spline hands over to the tail series at _RADIAL_TAIL_RHO = 20
        for alpha in (0.7, 1.2):
            s = K.IsotropicStable(2, alpha)
            tail = K._radial_tail_series(alpha)(np.array([19.5, 20.0 + 1e-9]))
            spline = np.exp(s.log_profile(np.array([19.5, 20.0 - 1e-9])))
            assert spline == pytest.approx(tail, rel=1e-8, abs=0.0)
            assert s.value(1.0, (100.0, 0.0), (0.0, 0.0)) > 0

    def test_d2_tail_is_abel_transform_of_hankel_series(self):
        # termwise Hankel transform of the symbol expansion, the d = 2 tail
        # before it was derived from the P_1' tail
        for alpha in (0.7, 1.2, 1.5):
            k = np.arange(1, 200, dtype=float)
            ka = k * alpha
            log_coef = ka * math.log(2.0) + 2.0 * gammaln(1.0 + ka / 2.0) - gammaln(k + 1.0) - 2.0 * math.log(math.pi)
            weight = (-1.0) ** (k + 1) * np.sin(math.pi * ka / 2.0)
            keep = np.abs(weight) >= 1e-12
            got_coef, got_weight, got_power = K._abel_coefficients(alpha)
            np.testing.assert_allclose(got_coef, log_coef[keep], rtol=1e-13)
            np.testing.assert_allclose(got_weight, weight[keep], rtol=0, atol=1e-13)  # sines of order 1
            np.testing.assert_allclose(got_power, 2.0 + ka[keep], rtol=1e-15)

    @pytest.mark.parametrize("alpha", [0.7, 0.99, 1.5])
    def test_tail_cache_matches_full_term_matrix(self, alpha):
        # all 200 terms rebuilt and summed at once, each row up to the first
        # term 39 below its first in log envelope or, for alpha > 1, through
        # its smallest term: the cached series, summed in groups of rows,
        # agree bit for bit.  The earlier stop, 1e-17 of the partial sum or
        # the smallest term, agrees within 1e-13
        def full(m, trig, x):
            k = np.arange(200, dtype=float)
            p = k * alpha + m + 1.0
            weight = (-1.0) ** k * getattr(np, trig)(math.pi * p / 2.0)
            keep = np.abs(weight) >= 1e-12
            log_coef, weight, power = (gammaln(p) - gammaln(k + 1.0))[keep], weight[keep], p[keep]
            log_x, n, rows = np.log(x).reshape(-1, 1), weight.size, np.arange(x.size)
            rel = (log_coef - log_coef[0]) - (power - power[0]) * log_x
            stop = np.where(rel[:, 1:] < -39.0, np.arange(1, n), n).min(axis=1, initial=n)
            if alpha > 1.0:
                stop = np.minimum(stop, np.where(rel[:, 1:] > rel[:, :-1], np.arange(1, n), n).min(axis=1, initial=n))
            partial = np.cumsum(weight * np.exp(rel), axis=1)
            now = np.exp(log_coef[0] - power[0] * log_x[:, 0]) * partial[rows, stop - 1]
            env = np.exp(log_coef - power * log_x)
            partial = np.cumsum(env * weight, axis=1)
            grows = np.where(env[:, 1:] > env[:, :-1], np.arange(1, n), n).min(axis=1, initial=n)
            tiny = np.where(env < 1e-17 * np.maximum(np.abs(partial), 1e-300), np.arange(1, n + 1), n).min(axis=1, initial=n)
            return now, partial[rows, np.minimum(grows, tiny) - 1]

        x = np.geomspace(2.0, 1e4, 400)
        for m, trig in ((0, "cos"), (1, "sin"), (1, "cos")):
            now, before = full(m, trig, x)
            got = K._tail_series(alpha, m, trig)(x)
            assert np.array_equal(got, now)
            np.testing.assert_allclose(got, before, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("alpha, deriv", [(1.8, False), (0.7, True), (1.5, True)])
    def test_fourier_moment_far_field(self, alpha, deriv):
        # P_1 = F_{0,cos}/pi and P_1' = -F_{1,sin}/pi = -2 pi rho P_3 on the rotated ray
        for sigma in (5.0, 7.3, 11.0, 23.0, 47.0, 90.0, 150.0, 390.0):
            if deriv:
                got = -K._fourier_moment(alpha, 1, "sin", sigma) / math.pi
                want = -2.0 * math.pi * sigma * mp_profile(alpha, 3, sigma)
            else:
                got, want = K._fourier_moment(alpha, 0, "cos", sigma) / math.pi, mp_profile(alpha, 1, sigma)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_fourier_moment_near_field_relative_tolerance(self):
        # oscillatory-weight quadrature on the real axis (alpha > 1, sigma <= 4):
        # with quad's default relative tolerance this node was 9.4e-8 off
        sigma = 0.2858428443280093
        with mp.workdps(30):
            want = mp.quad(lambda x: x * mp.exp(-x ** mp.mpf(1.5)) * mp.cos(sigma * x), mp.linspace(0, 24, 13) + [mp.inf])
        assert K._fourier_moment(1.5, 1, "cos", sigma) == pytest.approx(float(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 0.7, 1.2, 1.5, 1.9, 1.99])
    def test_radial_profile_against_series(self, d, alpha):
        # off the spline nodes, across the peak, the bend near rho = 5 as
        # alpha nears 2, and both tail hand-overs (20 in d = 2, 60 in d = 1 and 3)
        s = K.IsotropicStable(d, alpha)
        for rho in (0.0, 1e-4, 0.002, 0.0137, 0.05, 0.5, 0.77, 2.0, 2.01, 4.3, 5.6, 10.0, 19.5, 25.0, 40.0, 59.5, 61.0):
            assert math.exp(s.log_profile(rho)) == pytest.approx(mp_profile(alpha, d, rho), rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tail_series_near_alpha_one(self, d):
        # sin(pi k alpha / 2) = 0.003 at k = 2: a sum stopped by its first
        # growing term, weight included, was off by up to 3e-3
        s = K.IsotropicStable(d, 0.999)
        for rho in (25.0, 40.0, 61.0, 128.0):
            assert math.exp(s.log_profile(rho)) == pytest.approx(mp_profile(0.999, d, rho), rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_near_alpha_one_below_the_tail(self, d):
        # no series reaches these radii at alpha = 0.999; P_1 = F_{0,cos}/pi
        # and P_3 = F_{1,sin}/(2 pi^2 rho)
        s = K.IsotropicStable(d, 0.999)
        for rho in (0.1, 0.5, 1.0, 5.0):
            want = (mp_ray_moment(0.999, 0, "cos", rho) / math.pi if d == 1
                    else mp_ray_moment(0.999, 1, "sin", rho) / (2.0 * math.pi ** 2 * rho))
            assert math.exp(s.log_profile(rho)) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("m, trig, sigma", [(1, "sin", 1.9e-9), (1, "sin", 5.7e-5), (1, "cos", 2.2e-4)])
    def test_fourier_moment_small_alpha_tiny_sigma(self, m, trig, sigma):
        # in v the ray's decay spans v ~ 40^5 at alpha = 0.2: quad warned of
        # roundoff at all three, and F_{1,sin}(5.7e-5) came out 99 % low
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = K._fourier_moment(0.2, m, trig, sigma)
        assert got == pytest.approx(mp_ray_moment(0.2, m, trig, sigma), rel=1e-12, abs=0.0)

    def test_d2_far_profile_emits_no_integration_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K._profile_1d.cache_clear()  # build the splines under the filter too
            K._profile_2d.cache_clear()
            K.IsotropicStable(2, 0.7).log_profile(np.linspace(16.85, 20.0, 401))

    def test_capability_limits(self):
        with pytest.raises(CapabilityError):
            K.IsotropicStable(1, 1.5).derivative(1.0, 1.0, 0.0, k=2)
        with pytest.raises(CapabilityError):  # at construction
            K.IsotropicStable(4, 1.5)
        for d in (1, 2, 3):  # below the alpha the profiles are validated for
            with pytest.raises(CapabilityError):
                K.IsotropicStable(d, 0.19)

    def test_unsupported_dimension_fails_at_construction(self):
        with pytest.raises(CapabilityError):
            K.IsotropicStable(4, 1.5)
        # alpha = 2 is the Gaussian closed form in any dimension
        stable, gauss, x, y = K.IsotropicStable(4, 2.0), K.ConstantDiffusion(4), [0.3, -0.2, 0.5, 0.1], [0.0] * 4
        for t in (0.1, 1.0):
            assert stable.value(t, x, y) == pytest.approx(gauss.value(t, x, y), rel=1e-13, abs=0.0)

    def test_derivative_reads_one_vector_points(self):
        s = K.IsotropicStable(1, 1.5)
        assert s.derivative(1.0, [1.0], [0.0], 1) == s.derivative(1.0, 1.0, 0.0, 1) < 0

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_dimension_walk_d3_from_d1(self, alpha):
        # P_3(rho) = -P_1'(rho) / (2 pi rho), the identity the d = 3 profile
        # is built on; test_radial_profile_against_series checks both
        s1, s3 = K.IsotropicStable(1, alpha), K.IsotropicStable(3, alpha)
        for rho in (0.05, 0.5, 2.0, 10.0, 19.5):
            walked = -s1.derivative(1.0, rho, 0.0, k=1) / (2 * math.pi * rho)
            assert s3.value(1.0, e1(rho, 3), e1(0.0, 3)) == pytest.approx(walked, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_d3_origin_closed_form(self, alpha):
        expect = math.gamma(3 / alpha) / (2 * math.pi**2 * alpha)
        assert K.IsotropicStable(3, alpha).value(1.0, e1(0.0, 3), e1(0.0, 3)) == pytest.approx(expect, rel=1e-12, abs=0.0)


def full_remainder_log_g(an, t, rho, phase):
    """``AnisotropicStable2D._log_g`` with every row on the whole remainder rule,
    as before each row took only the panels its scale resolves: the reference
    for the rule sized to each row."""
    a, (u, wt, psi) = an.alpha, K._remainder_rule()[1]
    s = np.maximum(t, (rho / K._COS_SPLINE_CAP) ** a / an._w_min)
    back = slice(None)
    if np.ndim(rho) == 0:
        s, back = np.unique(s, return_inverse=True)
    sigma0 = rho * s ** (-1.0 / a)
    scale_c = an._w(phase + 0.5 * math.pi) ** (-1.0 / a)
    scale = an._w(phase + psi) ** (-1.0 / a) if np.ndim(phase) == 0 else None
    rem = np.empty(s.size)
    for rows in np.array_split(np.arange(s.size), -(-s.size * u.size // K._REMAINDER_BLOCK)):
        sc, sc_c = (scale, scale_c) if scale is not None else (
            an._w(phase[rows, None, None] + psi) ** (-1.0 / a), scale_c[rows, None])
        arg = sigma0[rows, None] * np.sin(u)
        f = (sc ** 2 * an._cos(arg[:, None, :] * sc)).sum(axis=1) - 2.0 * sc_c ** 2 * an._cos(arg * sc_c)
        rem[rows] = f @ wt
    log_tc = np.log(t) - a * np.log(scale_c)
    log_frozen = an._profile.log_value(rho * np.exp(-log_tc / a)) - 2.0 / a * log_tc
    ratio = rem[back] / (2.0 * math.pi ** 2) * np.exp(np.log(t / s[back]) - 2.0 / a * np.log(s[back]) - log_frozen)
    return log_frozen + np.log1p(ratio)


def _two_bump_aniso(alpha):
    return K.AnisotropicStable2D(alpha, K.SpectralMeasure.from_callable(K.SPECTRAL_BUILTINS["two_bump"]))


class TestAnisotropic:
    def test_uniform_reduces_to_isotropic(self):
        an = K.AnisotropicStable2D(1.0, K.SpectralMeasure.uniform(1.0))
        assert np.allclose(an.w, 1.0, atol=1e-12)
        assert an.value(1.0, (0.0, 0.0), O2) == pytest.approx(1 / (2 * math.pi), rel=1e-8, abs=0.0)
        assert an.value(1.0, (1.0, 0.0), O2) == pytest.approx(
            1 / (2 * math.pi * 2**1.5), rel=1e-7, abs=0.0
        )
        assert an.value(1.0, (0.6, -0.8), O2) == pytest.approx(
            1 / (2 * math.pi * 2**1.5), rel=1e-7, abs=0.0
        )

    def test_uniform_noninteger_alpha_matches_radial(self):
        an = K.AnisotropicStable2D(0.7, K.SpectralMeasure.uniform(0.7))
        iso = K.IsotropicStable(2, 0.7)
        for r in (0.0, 0.7, 1.3):
            assert an.value(1.0, (r, 0.0), O2) == pytest.approx(iso.value(1.0, (r, 0.0), O2), rel=1e-6, abs=0.0)

    def test_two_bump_positive_and_anisotropic(self):
        mu = K.SpectralMeasure.from_callable(K.SPECTRAL_BUILTINS["two_bump"])
        an = K.AnisotropicStable2D(1.2, mu)
        vx = an.value(1.0, (1.0, 0.0), O2)
        vy = an.value(1.0, (0.0, 1.0), O2)
        assert vx > 0 and vy > 0
        assert abs(vx / vy - 1.0) > 1e-3  # direction dependence is real

    def test_mass_truncated(self):
        an = K.AnisotropicStable2D(1.2, K.SpectralMeasure.uniform(1.2))
        assert an.mass(1.0, half_width=40.0, n=161) >= 0.99

    def test_positivity_required(self):
        with pytest.raises(DomainError):
            K.SpectralMeasure(np.concatenate([np.ones(100), [-0.1], np.ones(27)]))

    def test_time_domain(self):
        an = K.AnisotropicStable2D(1.0, K.SpectralMeasure.uniform(1.0))
        with pytest.raises(DomainError):
            an.value(-1.0, (0.0, 0.0), O2)

    def test_subordination_integrand_is_log_value_across_cap(self):
        an = K.AnisotropicStable2D(1.5, K.SpectralMeasure.uniform(1.5))
        x, y = np.array([3.0, 4.0]), np.array([1.0, 1.0])
        s_cap = (math.hypot(2.0, 3.0) / K._COS_SPLINE_CAP) ** 1.5 / an.w.min()
        s = s_cap * np.geomspace(0.1, 10.0, 9)
        log_kernel, _, _ = integrand_of_one(an, x, y, 0, 1.0, 0.5)
        logs, sign = log_kernel(s)
        assert sign == 1.0
        np.testing.assert_array_equal(logs, an.log_value(s, x, y))
        assert logs == pytest.approx([an.log_value(si, x, y) for si in s], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.0, 1.2, 1.5])
    def test_large_radius_matches_radial(self, alpha):
        # sigma_max beyond the cap: the linear-in-t extension from t_cap
        an = K.AnisotropicStable2D(alpha, K.SpectralMeasure.uniform(alpha))
        iso = K.IsotropicStable(2, alpha)
        for sigma in (1e3, 1e4, 1e5):
            assert an.value(1.0, (sigma, 0.0), O2) == pytest.approx(iso.value(1.0, (sigma, 0.0), O2), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.5])
    @pytest.mark.parametrize("sigma", [1.0, 5.0, 30.0, 200.0])
    def test_two_bump_matches_fine_trapezoid(self, alpha, sigma):
        # the frozen part and the graded remainder against 2^17 uniform
        # angles of the whole integrand, at scaled radius sigma (2^17 and 2^20
        # angles agree to 3e-11 at sigma = 200, to 3e-14 below)
        an = _two_bump_aniso(alpha)
        rho, phi = sigma * an._w_min ** (1.0 / alpha), 0.7
        theta = np.linspace(0.0, 2 * math.pi, 1 << 17, endpoint=False)
        w = an._w(theta)
        integrand = w ** (-2.0 / alpha) * an._cos(rho * np.cos(theta - phi) * w ** (-1.0 / alpha))
        expect = integrand.mean() / (2 * math.pi)
        assert an.value(1.0, (rho * math.cos(phi), rho * math.sin(phi)), O2) == pytest.approx(expect, rel=6e-9, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.2, 1.5, 1.9])
    def test_row_rule_matches_full_rule(self, alpha):
        # each row on the panels its scale resolves against every row on the whole rule
        an, ts = _two_bump_aniso(alpha), np.exp(np.linspace(-14.0, 4.0, 200))
        for rho in (0.05, 0.3, 1.5, 6.0):
            for phase in (0.0, 0.7, 2.0):
                assert np.abs(an._log_g(ts, rho, phase) - full_remainder_log_g(an, ts, rho, phase)).max() <= 2e-9

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_row_rule_uniform_is_full_rule(self, alpha):
        # the remainder is exactly 0 at every node of either rule
        an, ts = K.AnisotropicStable2D(alpha, K.SpectralMeasure.uniform(alpha)), np.exp(np.linspace(-14.0, 4.0, 200))
        for rho in (0.05, 1.0, 30.0):
            assert np.array_equal(an._log_g(ts, rho, 0.9), full_remainder_log_g(an, ts, rho, 0.9))

    @pytest.mark.parametrize("spectral", ["uniform", "two_bump"])
    def test_mass_row_rule_matches_full_rule(self, spectral):
        # the many-offset path, the centre rho = 0 included
        an = K.AnisotropicStable2D(0.8, K.SpectralMeasure.from_callable(K.SPECTRAL_BUILTINS[spectral]))
        got = an.mass(1.0, half_width=10.0, n=61)
        an._log_g = lambda t, rho, phase: full_remainder_log_g(an, t, rho, phase)
        want = an.mass(1.0, half_width=10.0, n=61)
        assert got == want if spectral == "uniform" else got == pytest.approx(want, rel=2e-9, abs=0.0)

    def test_alpha_below_validated_range_raises(self):
        with pytest.raises(CapabilityError):
            K.AnisotropicStable2D(0.15, K.SpectralMeasure.uniform(0.15))

    def test_nonuniform_angles_resampled(self):
        uniform = K.SpectralMeasure.uniform(1.5)
        angles = np.sort(np.random.default_rng(11).uniform(0.0, 2 * math.pi, 256))
        given = K.SpectralMeasure(np.full(256, uniform.values[0]), angles=angles)
        a, b = K.AnisotropicStable2D(1.5, uniform), K.AnisotropicStable2D(1.5, given)
        for r in (0.5, 2.0, 5.0):
            assert b.value(1.0, (r, 0.3), O2) == pytest.approx(a.value(1.0, (r, 0.3), O2), rel=1e-10, abs=0.0)

    def test_density_angles_must_increase_within_a_turn(self):
        with pytest.raises(DomainError):
            K.SpectralMeasure(np.ones(8), angles=np.linspace(0.0, 2 * math.pi, 8)[::-1])
        with pytest.raises(DomainError):
            K.SpectralMeasure(np.ones(8), angles=np.linspace(0.0, 2 * math.pi, 8))

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_cos_spline_meets_tail_at_cap(self, alpha):
        cap = K._COS_SPLINE_CAP
        cos = K._RadialCosSpline(alpha)
        tail = K._tail_series(alpha, 1, "cos")(cap)
        assert cos(np.array([cap])) == pytest.approx(tail, rel=1e-10, abs=0.0)
        below, above = cos(np.array([cap * (1 - 1e-9), cap * (1 + 1e-9)]))  # spline, then tail
        assert above == pytest.approx(below, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_cos_spline_between_nodes(self, alpha):
        # C_alpha falls like sigma^-2, so the error is weighed against max(1, sigma)^-2
        sigma = np.geomspace(1e-3, 0.99 * K._COS_SPLINE_CAP, 23)
        exact = np.array([K._fourier_moment(alpha, 1, "cos", s) for s in sigma])
        assert np.max(np.abs(K._RadialCosSpline(alpha)(sigma) - exact) * np.maximum(sigma, 1.0) ** 2) < 1e-11


def _drifting_bump(horizon=0.5, **kw):
    """Crank-Nicolson kernel with variable diffusion, a drift and a potential."""
    return K.VariableDiffusion1D("sin_bump", b=lambda x: 0.4 * np.cos(np.asarray(x, float)),
                                 c=lambda x: -0.3 * np.tanh(np.asarray(x, float)), horizon=horizon, dx=0.05, **kw)


class TestVariableDiffusion:
    def test_reduces_to_gaussian(self):
        fd = K.VariableDiffusion1D("one", horizon=1.0)
        assert fd.value(0.1, 0.0, 0.0) == pytest.approx((0.4 * math.pi) ** -0.5, abs=1e-3)

    def test_value_reads_one_vector_points(self):
        fd = K.VariableDiffusion1D("one", dx=0.05, dt=0.05)
        assert fd.value(0.3, [0.5], [0.0]) == fd.value(0.3, 0.5, 0.0) > 0

    def test_log_value_where_g_underflows(self):
        # before the splice time G is the frozen Gaussian, formed in the log
        # domain: exp of it underflows here (log G = -2247.8)
        fd = K.VariableDiffusion1D("one", dx=0.05, dt=0.05)
        got, ref = fd.log_value(0.001, 3.0, 0.0), K.ConstantDiffusion(1).log_value(0.001, 3.0, 0.0)
        assert ref < -2000.0 and got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x", [1.0, 4.0])
    def test_far_tail_at_small_time_is_ok(self, x):
        # criterion 11's grid at beta = 0.8 and t = 1e-6, where log G is
        # -3254 and -32828: every base time the rule reads is in the log domain
        fd = K.VariableDiffusion1D("one", dx=0.006, dt=0.004)
        got, ref = (S.frac_green_detailed(S.FracGreenRequest(kernel=kernel, beta=0.8, t=1e-6, x=x, y=0.0))
                    for kernel in (fd, K.ConstantDiffusion(1)))
        assert ref.log_value < -3000.0
        assert abs(got.log_value - ref.log_value) < 1e-3

    def test_grid_mass(self):
        fd = K.VariableDiffusion1D("one", horizon=1.0)
        assert fd.grid_mass(0.1) == pytest.approx(1.0, abs=1e-4)

    def test_convergence_order(self):
        # halving the spacing cuts the Gaussian-reference error ~4x; the
        # domain is pinned and probe points sit on shared grid nodes so the
        # measurement sees pure scheme error
        errs = []
        for dx in (0.08, 0.04):
            fd = K.VariableDiffusion1D("one", horizon=0.5, dx=dx, dt=0.002, half_width=12.0)
            err = 0.0
            for x in (0.0, 0.8, 1.6):
                ref = math.exp(-x * x / 0.8) / math.sqrt(0.8 * math.pi)
                err = max(err, abs(fd.value(0.2, x, 0.0) - ref))
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0

    def test_variable_coefficient_gaussian_sandwich(self):
        a = K.COEFFICIENT_BUILTINS["sin_bump"]  # 1 + 0.5 sin x in [0.5, 1.5]
        fd = K.VariableDiffusion1D(a, horizon=0.5)
        t = 0.1
        ratios = []
        for x in np.linspace(-3.0, 3.0, 25):
            g = fd.value(t, x, 0.0)
            upper_env = math.exp(-x * x / (4 * t * 1.5)) / math.sqrt(4 * math.pi * t * 1.5)
            lower_env = math.exp(-x * x / (4 * t * 0.5)) / math.sqrt(4 * math.pi * t * 0.5)
            assert g > 0
            ratios.append(g / upper_env)
            assert g / lower_env > 0.5  # lower envelope with fitted constant
        assert max(ratios) < 2.0  # upper envelope with fitted constant

    def test_horizon_enforced(self):
        fd = K.VariableDiffusion1D("one", horizon=0.5)
        with pytest.raises(HorizonError):
            fd.value(0.7, 0.0, 0.0)
        assert fd.value(0.7, 0.0, 0.0, allow_beyond_horizon=True) > 0

    def test_time_domain(self):
        fd = K.VariableDiffusion1D("one", horizon=0.5)
        with pytest.raises(DomainError):
            fd.value(0.0, 0.0, 0.0)

    def test_degenerate_coefficient_rejected(self):
        with pytest.raises(DomainError):
            K.VariableDiffusion1D(lambda x: np.sin(np.asarray(x)), horizon=1.0)

    def test_drift_shifts_mass(self):
        fd = K.VariableDiffusion1D("one", b=lambda x: np.full_like(np.asarray(x, float), 1.0), horizon=0.5)
        # G(t, x, y) is the x -> y transition density, so positive drift
        # favours targets to the right of the start point
        assert fd.value(0.3, 0.0, 0.5) > fd.value(0.3, 0.0, -0.5)

    # the symmetric path ("drift") is the plain theta case
    @pytest.mark.parametrize("case, theta", [
        *(pytest.param("drift", theta, id=str(theta)) for theta in (0.5, 1.0)),
        *((case, theta) for case in ("peclet", "potential") for theta in (0.5, 1.0)),
    ])
    def test_theta_step_matches_dense_solve(self, case, theta):
        const = lambda v: lambda x: np.full_like(np.asarray(x, float), v)
        fd = {
            # a non-trivial symmetrising scale
            "drift": _drifting_bump,
            # cell Peclet number 25 * 0.1 / 2 = 1.25: every lower coupling < 0
            "peclet": lambda: K.VariableDiffusion1D("one", b=const(25.0), horizon=0.5, dx=0.1),
            # theta dt c >= 25 at every step below: M is not positive definite
            "potential": lambda: K.VariableDiffusion1D("one", c=const(5000.0), horizon=0.5, dx=0.05),
        }[case]()
        m = fd._half_nodes(0.5)
        xs = fd.dx * np.arange(-m, m + 1.0)
        lower, diag, upper = fd._step_matrices(xs)
        a = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        a[0] = a[-1] = 0.0  # zero Dirichlet ends: the end values are held at 0
        eye = np.eye(xs.size)
        u = np.exp(-xs**2) * (1.0 + 0.1 * np.sin(3.0 * xs))
        u[0] = u[-1] = 0.0
        step = K._ThetaStepper(lower, diag, upper)
        if case == "drift":
            assert np.ptp(np.log(step.scale)) > 0.05  # 0.11
        # the second step size refactors; the repeated first one reuses its factors
        for dt in (0.01, 0.03, 0.01):
            ref = np.linalg.solve(eye - theta * dt * a, (eye + (1.0 - theta) * dt * a) @ u)
            got = u.copy()
            step(got, dt, theta)
            assert step.symmetric is (case == "drift")
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_extension_equals_straight_build(self):
        # the grown history widens its domain and passes many rungs after t = 2
        grown, straight = _drifting_bump(dt=0.05), _drifting_bump(dt=0.05)
        width = grown.history(0.0, 2.0).xs.size
        a, b = grown.history(0.0, 10.0), straight.history(0.0, 10.0)
        assert a is grown.history(0.0, 5.0) and a.xs.size > width
        for name in ("times", "rung_nodes", "profiles", "xs"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        s = np.geomspace(1e-3, 10.0, 200)
        assert np.array_equal(np.exp(a.log_eval(s, 1.3)), np.exp(b.log_eval(s, 1.3)))

    def test_failed_extension_drops_the_history(self, monkeypatch):
        # a history stepped part way cannot be continued: the next request
        # starts a new one, equal to a fresh kernel's
        fd = K.VariableDiffusion1D("one", horizon=0.5, dx=0.05, dt=0.05)
        fd.history(0.0, 0.5)
        step, calls = K._ThetaStepper.__call__, []

        def fail_on_third(self, u, dt, theta):
            calls.append(dt)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("singular Crank-Nicolson step matrix")
            step(self, u, dt, theta)

        monkeypatch.setattr(K._ThetaStepper, "__call__", fail_on_third)
        with pytest.raises(np.linalg.LinAlgError):
            fd.history(0.0, 2.0)
        assert 0.0 not in fd._histories
        monkeypatch.setattr(K._ThetaStepper, "__call__", step)
        fresh = K.VariableDiffusion1D("one", horizon=0.5, dx=0.05, dt=0.05)
        assert np.array_equal(fd.history(0.0, 2.0).profiles, fresh.history(0.0, 2.0).profiles)

    def test_ladder_rule_exact_for_gaussian_rungs(self):
        # rungs overwritten with the exact heat kernel: log(sqrt(t) G) is
        # linear in 1/t, so the rule between two rungs is exact, prefactor
        # included
        fd = K.VariableDiffusion1D("one", horizon=1.0, dx=0.05, dt=0.05)
        hist = fd.history(0.0, 1.0)
        for t, m, c in zip(hist.times, hist.rung_nodes, hist._centres):
            x = fd.dx * np.arange(-m, m + 1)
            hist.profiles[c - m:c + m + 1] = np.exp(-x**2 / (4.0 * t)) / np.sqrt(4.0 * math.pi * t)
        ts = np.sqrt(hist.times[:-1] * hist.times[1:])
        ts = ts[ts > fd.t_splice]  # the Gaussian itself below t_splice
        assert ts.size > 30
        for k in (0, 10, 30):
            x = fd.dx * k  # on a node, inside every rung
            assert x < hist.rung_nodes[0] * fd.dx
            exact = np.exp(-x**2 / (4.0 * ts)) / np.sqrt(4.0 * math.pi * ts)
            assert np.max(np.abs(np.exp(hist.log_eval(ts, x)) / exact - 1.0)) < 1e-14

    def test_ladder_matches_every_step_history(self, monkeypatch):
        # variable diffusion, drift and potential, where the rule is not
        # exact: at the midpoints between rungs the ladder history is within
        # 2e-4 of each time's peak of one that stores every step (1.1e-4
        # measured at dt = 0.01, 1.5e-4 at dt = 0.05)
        # a horizon of 2: every step up to t = 2 is the working step
        ladder = _drifting_bump(horizon=2.0).history(0.0, 2.0)
        monkeypatch.setattr(K, "_LADDER_Q", 1.0)
        every = _drifting_bump(horizon=2.0).history(0.0, 2.0)
        assert every.times.size > 2 * ladder.times.size
        ts = np.sqrt(ladder.times[:-1] * ladder.times[1:])
        ts = ts[(ts > ladder.t_splice) & (ts <= 2.0)]
        xs = np.linspace(-3.0, 3.0, 121)
        got, ref = np.exp(ladder.log_eval(ts[:, None], xs)), np.exp(every.log_eval(ts[:, None], xs))
        assert np.max(np.abs(got - ref) / ref.max(axis=1, keepdims=True)) < 2e-4

    @pytest.mark.parametrize("make", [
        pytest.param(lambda horizon: K.VariableDiffusion1D("one", horizon=horizon, dx=0.02, dt=0.01), id="one"),
        pytest.param(_drifting_bump, id="drift"),
    ])
    def test_values_up_to_horizon_do_not_depend_on_it(self, make):
        # steps grow only past the horizon, so a kernel with twice the
        # horizon steps the same way up to it
        short, long = make(horizon=0.5), make(horizon=1.0)
        for t in np.geomspace(1e-4, 0.5, 25):
            for x in (0.0, 0.3, -1.1, 2.5):
                assert short.value(t, x, 0.0) == long.value(t, x, 0.0)
        assert short.history(0.0).t_max < 1.0 <= long.history(0.0).t_max

    @pytest.mark.parametrize("dt", [0.004, 0.01, 0.05])
    def test_step_schedule(self, dt):
        # the working step dt up to the horizon 0.5, then dt times powers of
        # 1.25, each step at most the fraction of t the schedule had reached
        # at the horizon or at the end of its ramp, whichever is later
        t, steps = 0.01, []
        for step in K._step_sizes(0.01, dt / 8.0, dt, 0.5):
            steps.append((t, step))
            t += step
            if t > 20.0:
                break
        ramp_end = next(t for t, step in steps if step == dt)
        ratio = dt / max(0.5, ramp_end)
        assert all(step == dt for t, step in steps if ramp_end <= t < 0.5 * 1.25)
        for t, step in steps:
            if t >= ramp_end:
                k = round(math.log(step / dt, 1.25))
                assert step == pytest.approx(dt * 1.25**k, rel=1e-12)
            if t >= max(0.5, ramp_end):
                assert step <= ratio * t * (1.0 + 1e-12)
        assert steps[-1][1] / steps[-1][0] > ratio / 1.25  # the steps did grow

    def test_grown_steps_keep_the_error_at_the_horizon(self):
        # past the horizon each step is at most the same fraction of t as
        # the working step at the horizon, so the relative error against the
        # exact Gaussian, within three standard deviations, does not grow
        h, dx = 0.5, 0.02
        fd = K.VariableDiffusion1D("one", horizon=h, dx=dx, dt=0.01)
        hist = fd.history(0.0, 15.0 * h)

        def worst(t):
            x = dx * np.arange(int(3.0 * math.sqrt(2.0 * t) / dx) + 1)  # nodes
            exact = np.exp(-x**2 / (4.0 * t)) / np.sqrt(4.0 * math.pi * t)
            return np.max(np.abs(np.exp(hist.log_eval(t, x)) / exact - 1.0))

        at_horizon = worst(h)  # 2.37e-4
        assert max(worst(t) for t in np.geomspace(h, 15.0 * h, 61)[1:]) <= at_horizon  # 2.18e-4

    def test_point_outside_domain_raises(self):
        # np.interp would clamp x to the Dirichlet edge value 0, and the
        # integrand would be -inf everywhere
        fd = K.VariableDiffusion1D("one", horizon=0.5, dx=0.05, dt=0.05, half_width=5.0)
        with pytest.raises(HorizonError, match="half-width 5"):
            fd.value(0.3, 8.0, 0.0)
        with pytest.raises(HorizonError, match="half-width 5"):
            S.frac_green(S.FracGreenRequest(kernel=fd, beta=0.5, t=0.3, x=8.0, y=0.0))

    def test_csv_coefficient_roundtrip(self, tmp_path):
        xs = np.linspace(-30, 30, 301)
        path = tmp_path / "coef.csv"
        np.savetxt(path, np.column_stack([xs, 1.0 + 0.1 * np.tanh(xs)]), delimiter=",")
        a = K.coefficient_from_csv(path)
        assert a(0.0) == pytest.approx(1.0)
        fd = K.VariableDiffusion1D(a, horizon=0.2)
        assert fd.value(0.1, 0.0, 0.0) > 0

    @pytest.mark.parametrize("rows", ["1,2\n0,1\n-1,3\n", "0,1\n0,2\n1,3\n", "nan,1\n0,2\n"])
    def test_csv_coefficient_x_must_increase(self, tmp_path, rows):
        # interpolating the first file would give a(0) = 3.0 where it says 1.0
        path = tmp_path / "coef.csv"
        path.write_text(rows)
        with pytest.raises(DomainError):
            K.coefficient_from_csv(path)

    @pytest.mark.parametrize("rows", ["0\n1\n2\n", "0,1,2\n1,2,3\n"])
    def test_csv_coefficient_needs_two_columns(self, tmp_path, rows):
        path = tmp_path / "coef.csv"
        path.write_text(rows)
        with pytest.raises(DomainError):
            K.coefficient_from_csv(path)


class TestSpectralCsv:
    @pytest.mark.parametrize("rows", ["0\n1\n2\n", "0,1,2\n1,2,3\n"])
    def test_needs_two_columns(self, tmp_path, rows):
        path = tmp_path / "mu.csv"
        path.write_text(rows)
        with pytest.raises(DomainError):
            K.spectral_density_from_csv(path)

    def test_roundtrip(self, tmp_path):
        ang = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        vals = 1.0 + 0.3 * np.cos(2 * ang)
        path = tmp_path / "mu.csv"
        np.savetxt(path, np.column_stack([ang, vals]), delimiter=",")
        mu = K.spectral_density_from_csv(path)
        assert mu.values.shape == (64,)
        an = K.AnisotropicStable2D(1.1, mu)
        assert an.value(1.0, (0.5, 0.5), O2) > 0


def _uniform_aniso():
    return K.AnisotropicStable2D(1.5, K.SpectralMeasure.uniform(1.5))


# (kernel factory, envelope traits, x, y, q_scale at (x, y))
PROTOCOL_CASES = {
    "gaussian": (lambda: K.ConstantDiffusion(2, [[2.0, 0.5], [0.5, 1.0]]), ("diffusion", 2, None),
                 [1.0, 0.5], [0.0, 0.0], 4.0 / 7.0),
    "stable": (lambda: K.IsotropicStable(1, 1.5), ("stable", 1, 1.5), [2.0], [0.0], 2.0**1.5),
    "anisotropic": (_uniform_aniso, ("stable", 2, 1.5), [3.0, 4.0], [0.0, 0.0], 5.0**1.5),
    "fd1d": (lambda: K.VariableDiffusion1D("one", horizon=0.5, dx=0.05, dt=0.05), ("diffusion", 1, None),
             0.7, 0.2, 0.25),
}


class TestBaseKernelProtocol:
    @pytest.mark.parametrize("family", sorted(PROTOCOL_CASES))
    def test_traits_and_integrand(self, family):
        make, traits, x, y, q_scale = PROTOCOL_CASES[family]
        kernel = make()
        assert (kernel.envelope_family, kernel.d, kernel.alpha) == traits
        assert H._kernel_traits(kernel) == traits
        log_kernel, q, clip = integrand_of_one(kernel, x, y, 0, 1e-4, 0.5)
        assert q == pytest.approx(q_scale, rel=1e-14, abs=0.0)
        log_g, sign = log_kernel(np.array([0.3]))
        assert np.all(np.isfinite(log_g)) and np.all(np.asarray(sign) == 1.0)
        if family == "fd1d":
            # each request's clip: the horizon or the weight's reach
            # t^beta (55/c_beta)^(1-beta), c_beta = 1/4 at beta = 1/2, whichever
            # is later, plus 2 %
            assert clip == pytest.approx(0.51, rel=1e-14, abs=0.0)
            assert integrand_of_one(kernel, x, y, 0, 0.04, 0.5)[2] == pytest.approx(
                0.2 * math.sqrt(220.0) * 1.02, rel=1e-14, abs=0.0
            )
        else:
            assert clip is None

    @pytest.mark.parametrize(
        "kernel, k",
        [(K.ConstantDiffusion(2), 0), (K.ConstantDiffusion(1), 2), (K.IsotropicStable(1, 0.8), 0),
         (_uniform_aniso(), 0)],
    )
    def test_diagonal_divergence_raised_by_family(self, kernel, k):
        with pytest.raises(DomainError):
            integrand_of_one(kernel, [0.0] * kernel.d, [0.0] * kernel.d, k, 1.0, 0.5)

    @pytest.mark.parametrize(
        "kernel, k", [(K.ConstantDiffusion(1), 1), (K.IsotropicStable(1, 1.5), 1)]
    )
    def test_odd_derivative_vanishes_on_diagonal(self, kernel, k):
        assert integrand_of_one(kernel, [0.0], [0.0], k, 1.0, 0.5)[0] is None

    @pytest.mark.parametrize("module", ["subordination", "harness", "mc", "cli"])
    def test_callers_never_name_a_kernel_class(self, module):
        classes = {"ConstantDiffusion", "IsotropicStable", "AnisotropicStable2D", "VariableDiffusion1D"}
        tree = ast.parse(inspect.getsource(importlib.import_module(f"fracgreen.{module}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                assert not named & classes, f"{module}: isinstance on a kernel class, line {node.lineno}"
            if module == "subordination" and isinstance(node, ast.ImportFrom):
                assert node.module != "kernels", "subordination imports from kernels"

    def test_rule_names_no_family(self):
        # the rule's stop tolerance is the kernel's own rule_tol
        source = inspect.getsource(S)
        for cls in (K.ConstantDiffusion, K.IsotropicStable, K.AnisotropicStable2D, K.VariableDiffusion1D):
            assert cls.family not in source


class TestProtocol:
    """One call signature for every family: log_value(t, x, y), value(t, x, y)
    and derivative(t, x, y, k), and the rule's integrand is log_value itself."""

    TIMES = np.array([0.05, 0.2, 0.45])  # within the fd1d case's horizon

    @pytest.mark.parametrize("family", sorted(PROTOCOL_CASES))
    def test_value_is_exp_log_value(self, family):
        make, _, x, y, _ = PROTOCOL_CASES[family]
        kernel = make()
        for t in self.TIMES:
            assert kernel.value(t, x, y) == pytest.approx(math.exp(kernel.log_value(t, x, y)), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("family", sorted(PROTOCOL_CASES))
    def test_array_of_times_equals_scalar_calls(self, family):
        make, _, x, y, _ = PROTOCOL_CASES[family]
        kernel = make()
        logs = kernel.log_value(self.TIMES, x, y)
        assert np.array_equal(logs, [kernel.log_value(t, x, y) for t in self.TIMES])

    @pytest.mark.parametrize("family", sorted(PROTOCOL_CASES))
    def test_value_takes_an_array_of_times(self, family):
        # np.exp of the array of logs; a scalar call goes through math.exp,
        # which may differ from it in the last bit
        make, _, x, y, _ = PROTOCOL_CASES[family]
        kernel = make()
        values = kernel.value(self.TIMES, x, y)
        assert isinstance(values, np.ndarray) and values.shape == self.TIMES.shape
        assert np.array_equal(values, np.exp(kernel.log_value(self.TIMES, x, y)))
        np.testing.assert_allclose(values, [kernel.value(t, x, y) for t in self.TIMES], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("family", sorted(PROTOCOL_CASES))
    def test_integrand_is_log_value(self, family):
        make, _, x, y, _ = PROTOCOL_CASES[family]
        kernel = make()
        log_kernel, _, _ = integrand_of_one(kernel, x, y, 0, 0.04, 0.5)
        assert np.array_equal(log_kernel(self.TIMES)[0], kernel.log_value(self.TIMES, x, y))

    @pytest.mark.parametrize("family, k, h", [("gaussian", 1, 1e-6), ("gaussian", 2, 1e-4), ("stable", 1, 1e-5)])
    def test_derivative_is_difference_of_values(self, family, k, h):
        make, _, x, y, _ = PROTOCOL_CASES[family]
        kernel = make()
        step = h * np.eye(len(x))[0]
        v = [kernel.value(1.0, np.asarray(x) + j * step, y) for j in (-1, 0, 1)]
        fd = (v[2] - v[0]) / (2 * h) if k == 1 else (v[2] - 2 * v[1] + v[0]) / h**2
        assert kernel.derivative(1.0, x, y, k) == pytest.approx(fd, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("family", ["gaussian", "stable"])
    def test_derivative_of_order_zero_raises(self, family):
        make, _, x, y, _ = PROTOCOL_CASES[family]
        with pytest.raises(CapabilityError):
            make().derivative(1.0, x, y, 0)

    def test_value_of_a_nan_log_is_nan(self):
        class NanLog:
            def log_value(self, t, x, y):
                return math.nan

        assert math.isnan(K._value(NanLog(), 1.0, 0.0, 0.0))


# calls that read a pair of points, each at a time within the fd1d case's horizon
POINT_CALLS = {
    "log_value": lambda kernel, x, y: kernel.log_value(0.3, x, y),
    "value": lambda kernel, x, y: kernel.value(0.3, x, y),
    "base_integrand": lambda kernel, x, y: integrand_of_one(kernel, x, y, 0, 0.3, 0.5),
    "derivative": lambda kernel, x, y: kernel.derivative(0.3, x, y, 1),
}


def _bad_point_pairs(x, y):
    """Pairs that are not two points of the dimension of (x, y)."""
    x, y = np.atleast_1d(x).tolist(), np.atleast_1d(y).tolist()
    return [(x + [0.0], y), (x[:-1], y), (x, y + [0.0]), ([x], y), (np.array([x, x]), y),
            ("one", y), (x, "zero"), ([x, [0.0] * (len(x) + 1)], y)]


class TestPointReader:
    """Every family reads its points through one reader: a vector of length
    d, or a number in d = 1; anything else raises DomainError."""

    @pytest.mark.parametrize(
        "family, call",
        [(f, c) for f in sorted(PROTOCOL_CASES) for c in POINT_CALLS if c != "derivative"]
        + [("gaussian", "derivative"), ("stable", "derivative")],
    )
    def test_malformed_points_raise(self, family, call):
        make, _, x, y, _ = PROTOCOL_CASES[family]
        kernel = make()
        for bad_x, bad_y in _bad_point_pairs(x, y):
            with pytest.raises(DomainError):
                POINT_CALLS[call](kernel, bad_x, bad_y)

    @pytest.mark.parametrize("make", [lambda: K.ConstantDiffusion(1), lambda: K.IsotropicStable(1, 1.5),
                                      lambda: K.VariableDiffusion1D("one", horizon=0.5, dx=0.05, dt=0.05)])
    def test_number_is_a_point_in_d1(self, make):
        kernel = make()
        assert kernel.value(0.3, 0.5, 0.0) == kernel.value(0.3, [0.5], [0.0]) == kernel.value(
            0.3, np.float64(0.5), np.array(0.0)) > 0

    def test_number_is_not_a_point_in_d2(self):
        with pytest.raises(DomainError):
            K.ConstantDiffusion(2).value(0.3, 0.5, 0.0)

    def test_gaussian_does_not_broadcast_a_short_point(self):
        gauss = K.ConstantDiffusion(3)

        def green(x):
            return S.frac_green(S.FracGreenRequest(kernel=gauss, beta=0.5, t=1.0, x=x, y=(0.0, 0.0, 0.0)))

        # a broadcast would read [1.0] as (1, 1, 1), where G is 0.008388363302330375
        with pytest.raises(DomainError):
            green([1.0])
        assert green([1.0, 0.0, 0.0]) == pytest.approx(0.024852423879502747, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x, y", [([1.0], [0.0]), ([1.0, 0.0], [0.0, 0.0]), ([1.0], [0.0, 0.0, 0.0])])
    def test_stable_d3_does_not_read_short_points_as_a_radius(self, x, y):
        stable = K.IsotropicStable(3, 1.5)
        with pytest.raises(DomainError):
            stable.value(1.0, x, y)
        with pytest.raises(DomainError):
            S.frac_green(S.FracGreenRequest(kernel=stable, beta=0.5, t=1.0, x=x, y=y))

    def test_fd1d_does_not_read_first_coordinates(self):
        fd = K.VariableDiffusion1D("one", dx=0.05, dt=0.05)
        with pytest.raises(DomainError):
            fd.value(0.3, [0.5, 9.0], [0.0, 3.0])
        with pytest.raises(DomainError):
            S.frac_green(S.FracGreenRequest(kernel=fd, beta=0.5, t=0.3, x=[0.5, 9.0], y=[0.0, 3.0]))

    @pytest.mark.parametrize(
        "family, call",
        [(f, c) for f in sorted(PROTOCOL_CASES) for c in POINT_CALLS if c != "derivative"]
        + [("gaussian", "derivative"), ("stable", "derivative")],
    )
    def test_non_finite_coordinates_raise(self, family, call):
        make, _, x, y, _ = PROTOCOL_CASES[family]
        kernel = make()
        for bad in (math.nan, math.inf, -math.inf):
            bad_pairs = ((np.append(bad, np.atleast_1d(x)[1:]), y), (x, np.append(np.atleast_1d(y)[:-1], bad)))
            for bad_x, bad_y in bad_pairs:
                with pytest.raises(DomainError, match="finite"):
                    POINT_CALLS[call](kernel, bad_x, bad_y)

    @pytest.mark.parametrize("family", sorted(PROTOCOL_CASES))
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0])
    def test_time_must_be_positive_and_finite(self, family, t):
        make, _, x, y, _ = PROTOCOL_CASES[family]
        kernel = make()
        with pytest.raises(DomainError):
            kernel.log_value(t, x, y)
        with pytest.raises(DomainError):
            kernel.log_value(np.array([0.3, t]), x, y)
        with pytest.raises(DomainError):
            S.FracGreenRequest(kernel=kernel, beta=0.5, t=t, x=x, y=y)

    def test_non_finite_point_fails_frac_green_as_input_error(self):
        with pytest.raises(DomainError, match="finite"):
            S.frac_green(S.FracGreenRequest(kernel=K.ConstantDiffusion(1), beta=0.5, t=1.0, x=math.nan, y=0.0))

    def test_one_point_per_time(self):
        # the rule evaluates many points in one call: point i at time i
        times = np.array([0.05, 0.2, 0.45])
        for kernel, xs in ((K.ConstantDiffusion(2, [[2.0, 0.5], [0.5, 1.0]]), [[1.0, 0.5], [-0.3, 2.0], [0.0, 0.0]]),
                           (K.IsotropicStable(1, 1.5), [[2.0], [-0.5], [0.0]])):
            ys = np.zeros_like(np.asarray(xs))
            assert np.array_equal(kernel.log_value(times, xs, ys),
                                  [kernel.log_value(t, x, y) for t, x, y in zip(times, xs, ys)])
            assert np.array_equal(kernel.derivative(times, xs, ys, 1),
                                  [kernel.derivative(t, x, y, 1) for t, x, y in zip(times, xs, ys)])
        with pytest.raises(DomainError):  # one point per time, not per anything else
            K.ConstantDiffusion(1).log_value(times, [[1.0], [2.0]], [0.0])

    def test_anisotropic_short_point_is_a_domain_error(self):
        an = _uniform_aniso()
        with pytest.raises(DomainError):
            an.value(1.0, [1.0], [0.0])
        with pytest.raises(DomainError):
            S.frac_green(S.FracGreenRequest(kernel=an, beta=0.5, t=1.0, x=[1.0], y=[0.0]))


class TestStableOrder:
    """The stable order alpha is a plain float, checked by ``_alpha_value``."""

    @pytest.mark.parametrize("bad", [0.0, -1.0, 2.5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            K._alpha_value(bad)
        with pytest.raises(DomainError):
            K.IsotropicStable(1, bad)

    def test_accepts_two(self):
        assert K._alpha_value(2.0) == 2.0
        assert K.IsotropicStable(1, 2.0).alpha == 2.0
