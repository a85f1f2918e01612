"""Tests for envelope shapes, regime classification and globalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracgreen import envelopes as env
from fracgreen.errors import DomainError, RegimeError, SpecError


class TestComputeOmega:
    def test_diffusion_point(self):
        p = env.compute_omega("diffusion", t=0.25, r=1.0, beta=0.5)
        assert p.omega == pytest.approx(2.0, rel=1e-14)
        assert p.regime == env.OFF_DIAG

    def test_stable_point(self):
        p = env.compute_omega("stable", t=1.0, r=0.5, beta=0.5, alpha=1.0)
        assert p.omega == pytest.approx(0.5, rel=1e-14)
        assert p.regime == env.ON_DIAG

    def test_intermediate_classification(self):
        p = env.RegimePoint(t=0.5, r=1.0, omega=2.0, regime=env.OFF_DIAG, family="diffusion")
        thr = 0.5 ** (-0.5 * 1.5 / 0.5)
        assert thr == pytest.approx(2.8284271, rel=1e-6)
        assert env.derivative_regime(p, 0.5, "diffusion") == env.INTERMEDIATE

    def test_far_tail_classification(self):
        p = env.RegimePoint(t=0.5, r=1.0, omega=5.0, regime=env.OFF_DIAG, family="diffusion")
        assert env.derivative_regime(p, 0.5, "diffusion") == env.FAR_TAIL

    def test_stable_needs_alpha(self):
        with pytest.raises(SpecError):
            env.compute_omega("stable", t=1.0, r=1.0, beta=0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            env.compute_omega("diffusion", t=0.0, r=1.0, beta=0.5)


def _dpoint(t, r, beta):
    return env.compute_omega("diffusion", t=t, r=r, beta=beta)


def _spoint(t, r, beta, alpha):
    return env.compute_omega("stable", t=t, r=r, beta=beta, alpha=alpha)


class TestDiffusionEnvelope:
    def test_d3_on_diagonal(self):
        v = env.envelope_diffusion(3, 0.5, _dpoint(1.0, 0.5, 0.5))
        assert v.value == pytest.approx(2.0, rel=1e-12)  # Omega=0.25 -> Omega^{-1/2}

    def test_d2_log_branch(self):
        v = env.envelope_diffusion(2, 0.5, _dpoint(1.0, 1.0, 0.5))
        assert v.value == pytest.approx(1.0, rel=1e-12)

    def test_d1_flat_branch(self):
        v = env.envelope_diffusion(1, 0.5, _dpoint(4.0, 0.1, 0.5))
        assert v.value == pytest.approx(4.0 ** -0.25, rel=1e-12)

    def test_off_diagonal_log_form(self):
        p = _dpoint(1.0, 100.0, 0.5)  # Omega = 1e4
        v = env.envelope_diffusion(3, 0.5, p, rate=1.0)
        expect = -1.5 * 0.0 - 1.5 * (1.0 / 3.0) * math.log(1e4) - 1e4 ** (2.0 / 3.0)
        assert v.log_value == pytest.approx(expect, rel=1e-12)
        assert v.value == pytest.approx(math.exp(v.log_value))

    def test_d2_log_divergence_at_zero(self):
        v = env.envelope_diffusion(2, 0.5, _dpoint(1.0, 0.0, 0.5))
        assert v.value == math.inf

    @pytest.mark.parametrize("d", [3, 4])
    def test_power_divergence_at_zero(self, d):
        v = env.envelope_diffusion(d, 0.5, _dpoint(1.0, 0.0, 0.5))
        assert v.log_value == math.inf and v.value == math.inf


class TestStableEnvelope:
    def test_off_diagonal(self):
        v = env.envelope_stable(1, 1.0, 0.5, _spoint(1.0, 2.0, 0.5, 1.0))
        assert v.value == pytest.approx(0.25, rel=1e-12)

    def test_d_below_alpha(self):
        v = env.envelope_stable(1, 1.5, 0.5, _spoint(1.0, 0.3, 0.5, 1.5))
        assert v.value == pytest.approx(1.0, rel=1e-12)

    def test_d_above_alpha(self):
        v = env.envelope_stable(2, 1.0, 0.5, _spoint(1.0, 0.5, 0.5, 1.0))
        assert v.value == pytest.approx(2.0, rel=1e-12)

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            env.envelope_stable(1, 2.0, 0.5, _spoint(1.0, 1.0, 0.5, 2.0))

    @pytest.mark.parametrize(
        "t,r,expect",
        [
            (1.0, 0.5, 1.0 + math.log(2.0)),  # Omega = 1/2: |log Omega| + 1
            (4.0, 0.5, 0.5 + math.log(2.0)),  # Omega = 1/4: t^{-1/2} (|log Omega| + 1)
            (4.0, 2.0, 0.5),  # Omega = 1: the log factor is 1
        ],
    )
    def test_d_equals_alpha_log_branch(self, t, r, expect):
        v = env.envelope_stable(1, 1.0, 0.5, _spoint(t, r, 0.5, 1.0))
        assert v.regime == env.ON_DIAG
        assert v.value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("d,alpha", [(1, 1.0), (2, 1.0), (3, 1.5)])
    def test_on_diagonal_divergence_at_zero(self, d, alpha):
        v = env.envelope_stable(d, alpha, 0.5, _spoint(1.0, 0.0, 0.5, alpha))
        assert v.log_value == math.inf and v.value == math.inf


class TestDiffusionDerivativeEnvelope:
    def test_d2_on_diagonal(self):
        v = env.envelope_diffusion_deriv(2, 0.5, _dpoint(1.0, 0.5, 0.5))
        assert v.value == pytest.approx(2.0, rel=1e-12)  # Omega^{1-3/2} at Omega=1/4

    def test_omega_one_exponential(self):
        # at the Omega = 1 overlap the off-diagonal tag selects the
        # exponential branch: (d+1)/2 polynomial factor is 1, leaving e^{-C}
        p = env.RegimePoint(t=1.0, r=1.0, omega=1.0, regime=env.OFF_DIAG, family="diffusion")
        v = env.envelope_diffusion_deriv(1, 0.5, p, rate=0.7)
        assert v.value == pytest.approx(math.exp(-0.7), rel=1e-12)

    def test_small_time_far_tail_selected(self):
        p = _dpoint(0.5, math.sqrt(5.0 * 0.5 ** 0.5), 0.5)  # Omega = 5 > 2.828
        v = env.envelope_diffusion_deriv(1, 0.5, p, case="local_small_time")
        assert v.regime == env.FAR_TAIL

    def test_small_time_branches_continuous_at_threshold(self):
        beta, d, t = 0.5, 2, 0.5
        thr = t ** (-beta * (2 - beta) / (1 - beta))
        for om in (thr * (1 - 1e-9), thr * (1 + 1e-9)):
            r = math.sqrt(om * t ** beta)
            p = _dpoint(t, r, beta)
            v = env.envelope_diffusion_deriv(d, beta, p, case="local_small_time")
            if om < thr:
                assert v.regime == env.INTERMEDIATE
            else:
                assert v.regime == env.FAR_TAIL
        lo = env.envelope_diffusion_deriv(
            d, beta, _dpoint(t, math.sqrt(thr * (1 - 1e-9) * t ** beta), beta), case="local_small_time"
        )
        hi = env.envelope_diffusion_deriv(
            d, beta, _dpoint(t, math.sqrt(thr * (1 + 1e-9) * t ** beta), beta), case="local_small_time"
        )
        assert lo.log_value == pytest.approx(hi.log_value, abs=1e-6)

    def test_large_time_shapes(self):
        p = _dpoint(2.0, 0.5, 0.5)
        v = env.envelope_diffusion_deriv(3, 0.5, p, case="local_large_time")
        assert v.value == pytest.approx(0.5 ** (1 - 3), rel=1e-12)

    def test_case_time_window_enforced(self):
        with pytest.raises(RegimeError):
            env.envelope_diffusion_deriv(1, 0.5, _dpoint(2.0, 1.0, 0.5), case="local_small_time")
        with pytest.raises(RegimeError):
            env.envelope_diffusion_deriv(1, 0.5, _dpoint(0.5, 1.0, 0.5), case="local_large_time")

    # t = 1/4, beta = 1/2: Omega = 2 r^2, rho = 1/3, the far-tail threshold is 8
    @pytest.mark.parametrize(
        "d,r,regime,expect",
        [
            (1, 0.5, env.ON_DIAG, 2.0 * (1.0 + math.log(2.0))),  # d + 1 = 2: log branch
            (2, 0.5, env.ON_DIAG, 4.0),  # t^{-3/4} Omega^{-1/2}
            (1, math.sqrt(2.0), env.INTERMEDIATE, 2.0 * 4.0 ** (-1.0 / 3.0) * math.exp(-(4.0 ** (2.0 / 3.0)))),
            (1, math.sqrt(8.0), env.FAR_TAIL, math.sqrt(2.0) * 16.0 ** (-1.0 / 6.0) * math.exp(-(16.0 ** (2.0 / 3.0)))),
        ],
    )
    def test_small_time_values(self, d, r, regime, expect):
        v = env.envelope_diffusion_deriv(d, 0.5, _dpoint(0.25, r, 0.5), case="local_small_time")
        assert v.regime == regime
        assert v.value == pytest.approx(expect, rel=1e-12)

    # t = 2, beta = 1/2, C = 0.7: shapes in |x - y| form
    @pytest.mark.parametrize(
        "d,r,regime,expect",
        [
            (1, 0.5, env.ON_DIAG, 2.0 ** -0.5 * (1.0 + 2.5 * math.log(2.0))),  # Omega = 2^{-5/2}
            (1, 3.0, env.OFF_DIAG, 3.0 ** (-1.0 / 3.0) * math.exp(-0.7 * 3.0 ** (4.0 / 3.0))),
            (2, 3.0, env.OFF_DIAG, 3.0 ** (-2.0 / 3.0) * math.exp(-0.7 * 3.0 ** (4.0 / 3.0))),
        ],
    )
    def test_large_time_values(self, d, r, regime, expect):
        v = env.envelope_diffusion_deriv(d, 0.5, _dpoint(2.0, r, 0.5), rate=0.7, case="local_large_time")
        assert v.regime == regime
        assert v.value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case,t", [("global", 1.0), ("local_small_time", 0.5), ("local_large_time", 2.0)])
    def test_divergence_at_zero(self, d, case, t):
        v = env.envelope_diffusion_deriv(d, 0.5, _dpoint(t, 0.0, 0.5), case=case)
        assert v.regime == env.ON_DIAG
        assert v.log_value == math.inf and v.value == math.inf


class TestStableDerivativeEnvelope:
    def test_on_diagonal_power(self):
        v = env.envelope_stable_deriv(1, 1, 1.0, 0.5, _spoint(1.0, 0.5, 0.5, 1.0))
        assert v.value == pytest.approx(2.0, rel=1e-12)

    def test_off_diagonal(self):
        v = env.envelope_stable_deriv(1, 1, 1.0, 0.5, _spoint(1.0, 4.0, 0.5, 1.0))
        assert v.value == pytest.approx(4.0 ** -3, rel=1e-12)

    def test_small_time_far_branch(self):
        p = _spoint(0.5, 3.0 * 0.5 ** 0.5, 0.5, 1.0)  # Omega = 3 > t^{-beta} = 1.414
        v = env.envelope_stable_deriv(1, 1, 1.0, 0.5, p, case="local_small_time")
        assert v.regime == env.FAR_TAIL
        assert v.value == pytest.approx(0.5 ** -0.5 * 3.0 ** -2, rel=1e-12)

    def test_structural_reduction_to_value_shape(self):
        # Omega >= 1 derivative shape equals the value shape with d -> d + k
        for om in (1.5, 4.0, 30.0):
            p = _spoint(1.3, (om * 1.3 ** 0.5) ** (1.0 / 1.0), 0.5, 1.0)
            dv = env.envelope_stable_deriv(1, 1, 1.0, 0.5, p)
            vv = env.envelope_stable(2, 1.0, 0.5, p)
            assert dv.log_value == pytest.approx(vv.log_value, rel=1e-12)

    # alpha = 1, t = 1/4, beta = 1/2: Omega = 2 r, the far-tail threshold is 2
    @pytest.mark.parametrize(
        "d,k,r,regime,expect",
        [
            (1, 1, 0.25, env.ON_DIAG, 8.0),  # t^{-1} Omega^{-1}
            (1, 2, 0.25, env.ON_DIAG, 32.0),  # t^{-3/2} Omega^{-2}
            (1, 1, 0.75, env.INTERMEDIATE, 32.0 / 27.0),  # t^{-1} Omega^{-3}, d + k in the tail
            (2, 1, 1.5, env.FAR_TAIL, 4.0 / 27.0),  # t^{-1} Omega^{-3}, d alone in the tail
        ],
    )
    def test_small_time_values(self, d, k, r, regime, expect):
        v = env.envelope_stable_deriv(d, k, 1.0, 0.5, _spoint(0.25, r, 0.5, 1.0), case="local_small_time")
        assert v.regime == regime
        assert v.value == pytest.approx(expect, rel=1e-12)

    # alpha = 3/2, t = 2, beta = 1/2: r^{alpha - d - k} on the diagonal, r^{-alpha - d} off it
    @pytest.mark.parametrize(
        "d,k,r,regime,expect",
        [
            (1, 1, 0.5, env.ON_DIAG, math.sqrt(2.0)),
            (2, 1, 0.5, env.ON_DIAG, 2.0 * math.sqrt(2.0)),
            (1, 1, 3.0, env.OFF_DIAG, 3.0 ** -2.5),
            (2, 2, 3.0, env.OFF_DIAG, 3.0 ** -3.5),
        ],
    )
    def test_large_time_values(self, d, k, r, regime, expect):
        v = env.envelope_stable_deriv(d, k, 1.5, 0.5, _spoint(2.0, r, 0.5, 1.5), case="local_large_time")
        assert v.regime == regime
        assert v.value == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("case,t", [("global", 1.0), ("local_small_time", 0.5), ("local_large_time", 2.0)])
    def test_divergence_at_zero(self, d, case, t):
        v = env.envelope_stable_deriv(d, 1, 1.5, 0.5, _spoint(t, 0.0, 0.5, 1.5), case=case)
        assert v.regime == env.ON_DIAG
        assert v.log_value == math.inf and v.value == math.inf


_SHAPES = {
    "diffusion": lambda d, beta, p, **kw: env.envelope_diffusion(d, beta, p),
    "stable": lambda d, beta, p, **kw: env.envelope_stable(d, 1.5, beta, p),
    "diffusion_deriv": lambda d, beta, p, **kw: env.envelope_diffusion_deriv(d, beta, p, **kw),
    "stable_deriv": lambda d, beta, p, **kw: env.envelope_stable_deriv(d, 1, 1.5, beta, p, **kw),
}


class TestArgumentValidation:
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("d", [0, -2])
    def test_dimension_below_one(self, shape, d):
        family = shape.split("_")[0]
        p = _dpoint(1.0, 0.5, 0.5) if family == "diffusion" else _spoint(1.0, 0.5, 0.5, 1.5)
        with pytest.raises(DomainError):
            _SHAPES[shape](d, 0.5, p)

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
    def test_beta_outside_unit_interval(self, shape, beta):
        family = shape.split("_")[0]
        # t < 1 and Omega = 3 off the diagonal: the small-time case reaches its threshold
        p = env.RegimePoint(t=0.5, r=1.0, omega=3.0, regime=env.OFF_DIAG, family=family,
                            alpha=None if family == "diffusion" else 1.5)
        kw = {"case": "local_small_time"} if shape.endswith("deriv") else {}
        with pytest.raises(DomainError):
            _SHAPES[shape](1, beta, p, **kw)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
    def test_beta_checked_by_regime_helpers(self, beta):
        with pytest.raises(DomainError):
            env.compute_omega("diffusion", t=0.5, r=1.0, beta=beta)
        p = env.RegimePoint(t=0.5, r=1.0, omega=3.0, regime=env.OFF_DIAG, family="diffusion")
        with pytest.raises(DomainError):
            env.derivative_regime(p, beta, "diffusion")


class TestMakeValue:
    @pytest.mark.parametrize("log_value, value", [(math.inf, math.inf), (-math.inf, 0.0), (-800.0, 0.0), (0.0, 1.0)])
    def test_value_is_exp_of_log(self, log_value, value):
        ev = env._make_value(log_value, "x")
        assert (ev.value, ev.log_value, ev.regime) == (value, log_value, "x")

    def test_nan_stays_nan(self):
        assert math.isnan(env._make_value(math.nan, "x").value)


class TestGlobalize:
    def test_zero_rate(self):
        assert env.globalize_local(1.0, 0.0, 5.0) == (1.0, 1.0)

    def test_arithmetic(self):
        lo, hi = env.globalize_local(2.0, 0.1, 10.0)
        assert lo == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        assert hi == pytest.approx(2.0 * math.exp(1.0), rel=1e-12)

    @given(
        shape=st.floats(min_value=1e-8, max_value=1e8),
        c=st.floats(min_value=1e-6, max_value=2.0),
        tau1=st.floats(min_value=0.01, max_value=50.0),
        tau2=st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_widening(self, shape, c, tau1, tau2):
        if tau1 > tau2:
            tau1, tau2 = tau2, tau1
        # taus closer than that may round to equal bounds
        tau2 = max(tau2, tau1 * (1 + 1e-6))
        lo1, hi1 = env.globalize_local(shape, c, tau1)
        lo2, hi2 = env.globalize_local(shape, c, tau2)
        assert lo2 < lo1 <= hi1 < hi2


class TestBranchConsistency:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_diffusion_ratio_at_omega_one_t_free(self, d, beta):
        # both branches carry the same power of t at Omega = 1, so the
        # on/off ratio there cannot depend on t
        ratios = []
        for t in (0.2, 1.0, 5.0):
            r = math.sqrt(t ** beta)
            on_p = env.RegimePoint(t=t, r=r, omega=1.0, regime=env.ON_DIAG, family="diffusion")
            off_p = env.RegimePoint(t=t, r=r, omega=1.0, regime=env.OFF_DIAG, family="diffusion")
            on = env.envelope_diffusion(d, beta, on_p)
            off = env.envelope_diffusion(d, beta, off_p)
            ratios.append(on.log_value - off.log_value)
        assert max(ratios) - min(ratios) < 1e-12

    @pytest.mark.parametrize("d,alpha", [(1, 0.8), (1, 1.5), (2, 1.0), (3, 1.2)])
    def test_stable_ratio_at_omega_one_t_free(self, d, alpha):
        beta = 0.5
        ratios = []
        for t in (0.2, 1.0, 5.0):
            r = (t ** beta) ** (1.0 / alpha)
            on_p = env.RegimePoint(t=t, r=r, omega=1.0, regime=env.ON_DIAG, family="stable", alpha=alpha)
            off_p = env.RegimePoint(t=t, r=r, omega=1.0, regime=env.OFF_DIAG, family="stable", alpha=alpha)
            on = env.envelope_stable(d, alpha, beta, on_p)
            off = env.envelope_stable(d, alpha, beta, off_p)
            ratios.append(on.log_value - off.log_value)
        assert max(ratios) - min(ratios) < 1e-12

    def test_d2_log_branch_blows_up_and_d1_flat(self):
        beta = 0.5
        omegas = np.geomspace(1e-8, 1.0, 30)
        vals2 = [
            env.envelope_diffusion(2, beta, env.RegimePoint(1.0, math.sqrt(om), om, env.ON_DIAG, "diffusion")).value
            for om in omegas
        ]
        assert vals2[0] > vals2[-1]
        assert vals2[0] > 10.0
        vals1 = [
            env.envelope_diffusion(1, beta, env.RegimePoint(1.0, math.sqrt(om), om, env.ON_DIAG, "diffusion")).value
            for om in omegas
        ]
        assert np.ptp(vals1) == 0.0


class TestRate:
    @pytest.mark.parametrize("rate", [0.0, -0.5, math.nan])
    @pytest.mark.parametrize("shape", ["value", "deriv"])
    def test_nonpositive_rate_rejected(self, rate, shape):
        fn = env.envelope_diffusion if shape == "value" else env.envelope_diffusion_deriv
        with pytest.raises(DomainError):
            fn(1, 0.5, _dpoint(1.0, 3.0, 0.5), rate=rate)
