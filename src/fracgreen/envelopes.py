"""Two-sided estimate shapes with regime classification.

Every envelope is a *shape*: the t- and Omega-dependent factor of a two-sided
estimate ``c * shape <= G <= C * shape``.  The paper fixes the prefactors c, C
and the rate in exp{-rate Omega^{1/(2-beta)}} only up to constants.  No shape
reads a prefactor; the diffusion shapes take the rate (default 1), which the
harness fits, and the stable shapes have no exponential.  The similarity
variable is

    Omega = r**a * t**(-beta),   a = alpha (stable families), a = 2 (diffusion)

All four public shape functions read one table.  The ``case`` and the
point's fine regime (Omega = 1 splits on/off the diagonal; the small-time
case splits the tail again at a t-dependent threshold) pick a branch and say
whether the derivative order k adds to the dimension: a derivative bound is
the value bound with d -> d + k.  On the diagonal every family has the same
branch in dim = d or d + k: t^{-dim beta/a} while dim < a, a factor
|log Omega| + 1 at dim = a, and Omega^{1 - dim/a} above it (the large-time
case writes it in |x - y|).  Only the off-diagonal tail depends on the
family: exp{-rate Omega^{1/(2-beta)}} times a power for diffusion,
Omega^{-1-dim/alpha} for stable.  All shapes are returned with a log value so
that exponential branches survive Omega of order 1e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RegimeError, SpecError
from .specfun import _beta_value

__all__ = [
    "RegimePoint",
    "EnvelopeValue",
    "compute_omega",
    "derivative_regime",
    "envelope_diffusion",
    "envelope_stable",
    "envelope_diffusion_deriv",
    "envelope_stable_deriv",
    "globalize_local",
]

ON_DIAG = "on_diagonal"
OFF_DIAG = "off_diagonal"
INTERMEDIATE = "intermediate"
FAR_TAIL = "far_tail"


@dataclass(frozen=True)
class RegimePoint:
    """A (t, r) point with its similarity variable and coarse regime tag."""

    t: float
    r: float
    omega: float
    regime: str
    family: str  # "diffusion" | "stable"
    alpha: float | None = None


@dataclass(frozen=True)
class EnvelopeValue:
    """Shape value in both linear and log form, with its fine regime."""

    value: float
    log_value: float
    regime: str

    def __float__(self):
        return self.value


def _make_value(log_value: float, regime: str) -> EnvelopeValue:
    return EnvelopeValue(value=math.exp(log_value), log_value=log_value, regime=regime)


def compute_omega(family, t, r, beta, alpha=None) -> RegimePoint:
    """Similarity variable and coarse on/off-diagonal regime for a point."""
    t, r = float(t), float(r)
    if t <= 0:
        raise DomainError("compute_omega requires t > 0")
    if r < 0:
        raise DomainError("compute_omega requires r >= 0")
    beta = _beta_value(beta)
    if family == "diffusion":
        omega = r ** 2 * t ** (-beta)
        a = None
    elif family == "stable":
        if alpha is None:
            raise SpecError("stable family requires alpha")
        a = float(alpha)
        omega = r ** a * t ** (-beta)
    else:
        raise SpecError(f"unknown family {family!r}")
    regime = ON_DIAG if omega <= 1.0 else OFF_DIAG
    return RegimePoint(t=t, r=r, omega=omega, regime=regime, family=family, alpha=a)


def derivative_regime(point: RegimePoint, beta, kind: str) -> str:
    """Fine regime for the small-time derivative bounds.

    ``kind`` is "diffusion" (threshold t^{-beta (2-beta)/(1-beta)}) or
    "stable" (threshold t^{-beta}).  The two exponential/power branches agree
    at the threshold, so a tie is value-neutral; it is resolved to the outer
    branch.
    """
    beta = _beta_value(beta)
    if _on_branch(point):
        return ON_DIAG
    if kind == "diffusion":
        thr = point.t ** (-beta * (2.0 - beta) / (1.0 - beta))
    elif kind == "stable":
        thr = point.t ** (-beta)
    else:
        raise SpecError(f"unknown derivative regime kind {kind!r}")
    return INTERMEDIATE if point.omega < thr else FAR_TAIL


def _check_point(point: RegimePoint, family: str):
    if point.family != family:
        raise SpecError(f"point family {point.family!r} does not match {family!r}")
    # at omega == 1 both tags are legitimate (the branches overlap there)
    if point.regime == ON_DIAG and point.omega > 1.0:
        raise RegimeError(f"regime tag 'on_diagonal' inconsistent with omega={point.omega:g}")
    if point.regime == OFF_DIAG and point.omega < 1.0:
        raise RegimeError(f"regime tag 'off_diagonal' inconsistent with omega={point.omega:g}")


def _on_branch(point: RegimePoint) -> bool:
    # tag picks the branch at the omega == 1 overlap
    if point.omega == 1.0:
        return point.regime != OFF_DIAG
    return point.omega < 1.0


def _log_omega_factor(omega: float) -> float:
    # |log Omega| + 1, in log form; diverges as Omega -> 0
    if omega == 0.0:
        return math.inf
    return math.log(abs(math.log(omega)) + 1.0)


def _on_diag_omega(dim, a, beta, lt, om, r, c):
    # flat below a, a log factor at a, Omega^{1 - dim/a} above it
    if dim < a:
        return -dim * beta / a * lt
    if dim == a:
        return -beta * lt + _log_omega_factor(om)
    return math.inf if om == 0.0 else -dim * beta / a * lt + (1.0 - dim / a) * math.log(om)


def _on_diag_r(dim, a, beta, lt, om, r, c):
    # |x - y| form of the large-time bounds; k >= 1 makes dim >= 2 >= a, so no flat branch
    if dim == a:
        return -beta * lt + _log_omega_factor(om)
    return math.inf if r == 0.0 else (a - dim) * math.log(r)


_ON_DIAG_FORMS = {"omega": _on_diag_omega, "r": _on_diag_r}

# (family, form) -> off-diagonal tail; c is the exponential rate (read by diffusion only)
_TAILS = {
    ("diffusion", "omega"): lambda dim, a, beta, lt, om, r, c: (
        -dim * beta / a * lt
        - (dim / a) * ((1.0 - beta) / (2.0 - beta)) * math.log(om)
        - c * om ** (1.0 / (2.0 - beta))
    ),
    ("diffusion", "r"): lambda dim, a, beta, lt, om, r, c: (
        -dim * ((1.0 - beta) / (2.0 - beta)) * math.log(r) - c * r ** (2.0 / (2.0 - beta))
    ),
    ("stable", "omega"): lambda dim, a, beta, lt, om, r, c: -dim * beta / a * lt + (-1.0 - dim / a) * math.log(om),
    ("stable", "r"): lambda dim, a, beta, lt, om, r, c: (-a - dim) * math.log(r),
}

# case -> fine regime -> (form, whether k adds to d)
_BRANCHES = {
    "global": {ON_DIAG: ("omega", True), OFF_DIAG: ("omega", True)},
    "local_small_time": {ON_DIAG: ("omega", True), INTERMEDIATE: ("omega", True), FAR_TAIL: ("omega", False)},
    "local_large_time": {ON_DIAG: ("r", True), OFF_DIAG: ("r", False)},
}


def _shape(family, d, k, a, beta, point, case, rate=1.0):
    """Shape of one table cell; ``a`` is alpha, or 2 for diffusion, ``k``
    the derivative order (None for the value shapes) and ``rate`` the
    exponential rate of the diffusion tails."""
    rate = float(rate)
    if not rate > 0.0:
        raise DomainError("exponential constant must be positive")
    _check_point(point, family)
    beta = _beta_value(beta)
    a = float(a)
    if family == "stable" and not (0.0 < a < 2.0):
        raise DomainError("stable envelopes require alpha in (0, 2)")
    d = int(d)
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if k is not None and int(k) < 1:
        raise DomainError("derivative order k must be >= 1")
    k = int(k or 0)
    if case not in _BRANCHES:
        raise SpecError(f"unknown case {case!r}")
    if case == "local_small_time" and point.t >= 1.0:
        raise RegimeError("local_small_time shapes hold for t < 1")
    if case == "local_large_time" and point.t <= 1.0:
        raise RegimeError("local_large_time shapes hold for t > 1")
    if case == "local_small_time":
        regime = derivative_regime(point, beta, family)
    else:
        regime = ON_DIAG if _on_branch(point) else OFF_DIAG
    form, adds_k = _BRANCHES[case][regime]
    branch = _ON_DIAG_FORMS[form] if regime == ON_DIAG else _TAILS[family, form]
    dim = d + k if adds_k else d
    logv = branch(dim, a, beta, math.log(point.t), point.omega, point.r, rate)
    return _make_value(logv, regime)


def envelope_diffusion(d, beta, point: RegimePoint, rate: float = 1.0) -> EnvelopeValue:
    """Two-sided shape for the time-fractional diffusion Green's function;
    ``rate`` > 0 is the rate in its exponential tail."""
    return _shape("diffusion", d, None, 2.0, beta, point, "global", rate)


def envelope_stable(d, alpha, beta, point: RegimePoint) -> EnvelopeValue:
    """Two-sided shape for the time-fractional stable Green's function."""
    return _shape("stable", d, None, alpha, beta, point, "global")


def envelope_diffusion_deriv(d, beta, point: RegimePoint, rate: float = 1.0, case: str = "global") -> EnvelopeValue:
    """Upper-bound shape for |d/dx G| in the diffusion families.

    ``rate`` > 0 is the rate in the exponential tail.  ``case``: "global"
    (divergence-form coefficients), "local_small_time" (t < 1, three
    regimes) or "local_large_time" (1 < t < T, bounds in |x - y| form).
    """
    return _shape("diffusion", d, 1, 2.0, beta, point, case, rate)


def envelope_stable_deriv(d, k, alpha, beta, point: RegimePoint, case: str = "global") -> EnvelopeValue:
    """Upper-bound shape for order-k spatial derivatives, stable families."""
    return _shape("stable", d, k, alpha, beta, point, case)


def globalize_local(shape_value, rate_c, tau):
    """Local-to-global correction: (e^{-c tau} shape, e^{+c tau} shape)."""
    rate_c, tau = float(rate_c), float(tau)
    if rate_c < 0:
        raise DomainError("globalization rate must be nonnegative")
    if tau <= 0:
        raise DomainError("tau must be positive")
    v = float(shape_value)
    return v * math.exp(-rate_c * tau), v * math.exp(rate_c * tau)
