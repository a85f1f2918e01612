"""Tests for the base spatial Green's function families."""

import ast
import importlib
import inspect
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracgreen import harness as H
from fracgreen import kernels as K
from fracgreen.errors import CapabilityError, DomainError, HorizonError


def cauchy_1d(t, r):
    return t / (math.pi * (t * t + r * r))


def poisson_kernel(d, t, r):
    cd = math.gamma((d + 1.0) / 2.0) / math.pi ** ((d + 1.0) / 2.0)
    return cd * t / (t * t + r * r) ** ((d + 1.0) / 2.0)


class TestGaussian:
    def test_on_diagonal_d3(self):
        g = K.ConstantDiffusion(3)
        assert K.gaussian_kernel(g, 1.0, [0, 0, 0], [0, 0, 0]) == pytest.approx(
            (4 * math.pi) ** -1.5, rel=1e-14
        )

    def test_mass_d1(self):
        g = K.ConstantDiffusion(1)
        mass, _ = quad(lambda y: g.value(1.0, [0.0], [y]), -np.inf, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_off_diagonal_d2(self):
        g = K.ConstantDiffusion(2)
        assert K.gaussian_kernel(g, 0.5, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(
            (2 * math.pi) ** -1 * math.exp(-0.5), rel=1e-14
        )

    def test_anisotropic_matrix(self):
        A = [[2.0, 0.3], [0.3, 1.0]]
        g = K.ConstantDiffusion(2, A)
        x, y = np.array([0.7, -0.2]), np.array([0.0, 0.0])
        q = (x - y) @ np.linalg.inv(A) @ (x - y)
        expect = (4 * math.pi) ** -1 * np.linalg.det(A) ** -0.5 * math.exp(-q / 4.0)
        assert g.value(1.0, x, y) == pytest.approx(expect, rel=1e-13)

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
        assert g.derivative(1.0, [0.5], [0.0], k=1) == pytest.approx(fd, rel=1e-8)

    def test_second_derivative_matches_fd(self):
        g = K.ConstantDiffusion(1)
        h = 1e-4
        fd = (
            g.value(1.0, [0.5 + h], [0.0])
            - 2 * g.value(1.0, [0.5], [0.0])
            + g.value(1.0, [0.5 - h], [0.0])
        ) / h**2
        assert g.derivative(1.0, [0.5], [0.0], k=2) == pytest.approx(fd, rel=1e-6)


class TestIsotropicStable:
    def test_cauchy_closed_form(self):
        c = K.IsotropicStable(1, 1.0)
        assert c.value(1.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-9)
        assert c.value(2.0, 2.0) == pytest.approx(cauchy_1d(2.0, 2.0), rel=1e-9)

    def test_gaussian_limit(self):
        g = K.IsotropicStable(1, 2.0)
        assert g.value(1.0, 0.0) == pytest.approx((4 * math.pi) ** -0.5, rel=1e-9)
        ref = K.ConstantDiffusion(1)
        for r in (0.0, 0.5, 2.0):
            assert g.value(0.7, r) == pytest.approx(ref.value(0.7, [r], [0.0]), rel=1e-7)

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_self_similarity(self, alpha):
        s = K.IsotropicStable(1, alpha)
        for t, r in [(0.3, 0.4), (2.5, 1.2), (7.0, 0.0)]:
            direct = s.value(t, r)
            scaled = t ** (-1.0 / alpha) * s.value(1.0, r * t ** (-1.0 / alpha))
            assert direct == pytest.approx(scaled, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
    def test_mass(self, alpha):
        s = K.IsotropicStable(1, alpha)
        mass, _ = quad(lambda r: s.value(1.0, r), 0, np.inf, limit=300)
        assert 2 * mass == pytest.approx(1.0, abs=1e-7)

    def test_poisson_d2_d3(self):
        for d in (2, 3):
            s = K.IsotropicStable(d, 1.0)
            assert s.value(1.0, 0.0) == pytest.approx(poisson_kernel(d, 1.0, 0.0), rel=1e-9)
            assert s.value(1.5, 2.0) == pytest.approx(poisson_kernel(d, 1.5, 2.0), rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_radial_quadrature_vs_closed_form_alpha1(self, d):
        # exercise the generic Hankel path by comparing alpha near 1 with
        # the exact alpha = 1 kernel bracketing
        s = K.IsotropicStable(d, 1.3)
        v = s.value(1.0, 1.0)
        assert v > 0
        # positivity and monotone decay in r
        assert s.value(1.0, 2.0) < v

    def test_chapman_kolmogorov_d1(self):
        s = K.IsotropicStable(1, 1.0)
        t1, t2, r = 0.7, 0.5, 0.8
        conv, _ = quad(
            lambda z: s.value(t1, abs(z)) * s.value(t2, abs(r - z)),
            -np.inf,
            np.inf,
            limit=400,
        )
        assert conv == pytest.approx(s.value(t1 + t2, r), abs=1e-4)

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
        fd = (s.value(1.0, 1.0 + h) - s.value(1.0, 1.0 - h)) / (2 * h)
        got = s.derivative(1.0, 1.0, 0.0, k=1)
        assert got == pytest.approx(fd, rel=1e-5)
        assert got < 0
        assert s.derivative(1.0, 0.0, 1.0, k=1) > 0
        assert s.derivative(1.0, 0.5, 0.5, k=1) == 0.0

    def test_far_tail_series_consistency(self):
        for alpha in (0.8, 1.5):
            p = K._profile_1d(alpha)
            lo = K._fourier_moment(alpha, 0, "cos", 59.0) / math.pi
            assert p.value(59.0) == pytest.approx(lo, rel=1e-8)
            tail = K._fourier_moment_tail(alpha, 0, "cos", 61.0) / math.pi
            assert p.value(61.0) == pytest.approx(tail, rel=1e-12)

    def test_radial_tail_series_handoff(self):
        for alpha, d in [(1.2, 2), (0.7, 3)]:
            s = K.IsotropicStable(d, alpha)
            below = K._profile_radial(alpha, d, 19.5)
            above = K._radial_tail(alpha, d, 19.5)
            assert above == pytest.approx(below, rel=1e-8)
            assert s.value(1.0, 100.0) > 0

    def test_capability_limits(self):
        with pytest.raises(CapabilityError):
            K.IsotropicStable(1, 1.5).derivative(1.0, 1.0, 0.0, k=2)

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_dimension_walk_d3_from_d1(self, alpha):
        # P_3(rho) = -P_1'(rho) / (2 pi rho): the d = 3 quadrature and tail
        # against the d = 1 derivative splines
        s1, s3 = K.IsotropicStable(1, alpha), K.IsotropicStable(3, alpha)
        for rho in (0.05, 0.5, 2.0, 10.0, 19.5):
            walked = -s1.derivative(1.0, rho, 0.0, k=1) / (2 * math.pi * rho)
            assert s3.value(1.0, rho) == pytest.approx(walked, rel=1e-7)

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_d3_origin_closed_form(self, alpha):
        expect = math.gamma(3 / alpha) / (2 * math.pi**2 * alpha)
        assert K.IsotropicStable(3, alpha).value(1.0, 0.0) == pytest.approx(expect, rel=1e-12)


class TestAnisotropic:
    def test_uniform_reduces_to_isotropic(self):
        an = K.AnisotropicStable2D(1.0, K.SpectralMeasure.uniform(1.0))
        assert np.allclose(an.w, 1.0, atol=1e-12)
        assert an.value(1.0, (0.0, 0.0)) == pytest.approx(1 / (2 * math.pi), rel=1e-8)
        assert an.value(1.0, (1.0, 0.0)) == pytest.approx(
            1 / (2 * math.pi * 2**1.5), rel=1e-7
        )
        assert an.value(1.0, (0.6, -0.8)) == pytest.approx(
            1 / (2 * math.pi * 2**1.5), rel=1e-7
        )

    def test_uniform_noninteger_alpha_matches_radial(self):
        an = K.AnisotropicStable2D(0.7, K.SpectralMeasure.uniform(0.7))
        iso = K.IsotropicStable(2, 0.7)
        for r in (0.0, 0.7, 1.3):
            assert an.value(1.0, (r, 0.0)) == pytest.approx(iso.value(1.0, r), rel=1e-6)

    def test_two_bump_positive_and_anisotropic(self):
        mu = K.SpectralMeasure.from_callable(K.SPECTRAL_BUILTINS["two_bump"])
        an = K.AnisotropicStable2D(1.2, mu)
        vx = an.value(1.0, (1.0, 0.0))
        vy = an.value(1.0, (0.0, 1.0))
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
            an.value(-1.0, (0.0, 0.0))

    @pytest.mark.parametrize("alpha", [0.7, 1.5])
    def test_cos_spline_meets_tail_at_cap(self, alpha):
        cap = K._COS_SPLINE_CAP
        cos = K._RadialCosSpline(alpha)
        tail = K._fourier_moment_tail(alpha, 1, "cos", cap)
        assert cos(np.array([cap])) == pytest.approx(tail, rel=1e-10)
        below, above = cos(np.array([cap * (1 - 1e-9), cap * (1 + 1e-9)]))  # spline, then tail
        assert above == pytest.approx(below, rel=1e-8)


class TestVariableDiffusion:
    def test_reduces_to_gaussian(self):
        fd = K.VariableDiffusion1D("one", horizon=1.0)
        assert fd.value(0.1, 0.0, 0.0) == pytest.approx((0.4 * math.pi) ** -0.5, abs=1e-3)

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

    def test_csv_coefficient_roundtrip(self, tmp_path):
        xs = np.linspace(-30, 30, 301)
        path = tmp_path / "coef.csv"
        np.savetxt(path, np.column_stack([xs, 1.0 + 0.1 * np.tanh(xs)]), delimiter=",")
        a = K.coefficient_from_csv(path)
        assert a(0.0) == pytest.approx(1.0)
        fd = K.VariableDiffusion1D(a, horizon=0.2)
        assert fd.value(0.1, 0.0, 0.0) > 0


class TestSpectralCsv:
    def test_roundtrip(self, tmp_path):
        ang = np.linspace(0, 2 * math.pi, 64, endpoint=False)
        vals = 1.0 + 0.3 * np.cos(2 * ang)
        path = tmp_path / "mu.csv"
        np.savetxt(path, np.column_stack([ang, vals]), delimiter=",")
        mu = K.spectral_density_from_csv(path)
        assert mu.values.shape == (64,)
        an = K.AnisotropicStable2D(1.1, mu)
        assert an.value(1.0, (0.5, 0.5)) > 0


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
        log_kernel, q, clip = kernel.base_integrand(x, y, 0, 0.1)
        assert q == pytest.approx(q_scale, rel=1e-14)
        log_g, sign = log_kernel(np.array([0.3]))
        assert np.all(np.isfinite(log_g)) and np.all(np.asarray(sign) == 1.0)
        if family == "fd1d":
            # history to the horizon or s_need, whichever is later, plus 2 %
            assert clip == pytest.approx(0.51, rel=1e-14)
            assert kernel.base_integrand(x, y, 0, 2.0)[2] == pytest.approx(2.04, rel=1e-14)
        else:
            assert clip is None

    @pytest.mark.parametrize(
        "kernel, k",
        [(K.ConstantDiffusion(2), 0), (K.ConstantDiffusion(1), 2), (K.IsotropicStable(1, 0.8), 0),
         (_uniform_aniso(), 0)],
    )
    def test_diagonal_divergence_raised_by_family(self, kernel, k):
        with pytest.raises(DomainError):
            kernel.base_integrand([0.0] * kernel.d, [0.0] * kernel.d, k, 1.0)

    @pytest.mark.parametrize(
        "kernel, k", [(K.ConstantDiffusion(1), 1), (K.IsotropicStable(1, 1.5), 1)]
    )
    def test_odd_derivative_vanishes_on_diagonal(self, kernel, k):
        assert kernel.base_integrand([0.0], [0.0], k, 1.0)[0] is None

    @pytest.mark.parametrize("module", ["subordination", "harness", "mc"])
    def test_callers_never_name_a_kernel_class(self, module):
        classes = {"ConstantDiffusion", "IsotropicStable", "AnisotropicStable2D", "VariableDiffusion1D"}
        tree = ast.parse(inspect.getsource(importlib.import_module(f"fracgreen.{module}")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                assert not named & classes, f"{module}: isinstance on a kernel class, line {node.lineno}"
            if module == "subordination" and isinstance(node, ast.ImportFrom):
                assert node.module != "kernels", "subordination imports from kernels"
