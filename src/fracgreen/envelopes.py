"""Two-sided estimate shapes with regime classification.

Every envelope is a *shape*: the t- and Omega-dependent factor of a two-sided
estimate ``c * shape <= G <= C * shape``.  Prefactors and the exponential rate
constant are never assumed; they live in :class:`EnvelopeConstants` and are
fitted by the harness.  The similarity variable is

    Omega = r**a * t**(-beta),   a = alpha (stable families), a = 2 (diffusion)

All four public shape functions read one table.  The ``case`` and the
point's fine regime (Omega = 1 splits on/off the diagonal; the small-time
case splits the tail again at a t-dependent threshold) pick a branch and say
whether the derivative order k adds to the dimension: a derivative bound is
the value bound with d -> d + k.  On the diagonal every family has the same
branch in dim = d or d + k: t^{-dim beta/a} while dim < a, a factor
|log Omega| + 1 at dim = a, and Omega^{1 - dim/a} above it (the large-time
case writes it in |x - y|).  Only the off-diagonal tail depends on the
family: exp{-C Omega^{1/(2-beta)}} times a power for diffusion,
Omega^{-1-dim/alpha} for stable.  All shapes are returned with a log value so
that exponential branches survive Omega of order 1e4.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .errors import DomainError, RegimeError, SpecError
from .specfun import _beta_value

__all__ = [
    "RegimePoint",
    "EnvelopeConstants",
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
class EnvelopeConstants:
    """Constants bundle attached to every envelope evaluation.

    ``c_beta_exponent`` is the rate constant inside exp{-C Omega^{1/(2-beta)}}
    (default 1, always fitted rather than trusted); prefactors bound the
    two-sided constants; ``horizon_T`` is required by the local theorems;
    ``globalization_rate`` is the c of the e^{+-c tau} local-to-global trick.
    """

    c_beta_exponent: float = 1.0
    prefactor_low: float = 1.0
    prefactor_high: float = 1.0
    horizon_T: float | None = None
    globalization_rate: float | None = None

    def __post_init__(self):
        if self.c_beta_exponent <= 0:
            raise DomainError("exponential constant must be positive")
        if self.prefactor_low <= 0 or self.prefactor_low > self.prefactor_high:
            raise DomainError("need 0 < prefactor_low <= prefactor_high")
        if self.horizon_T is not None and self.horizon_T <= 0:
            raise DomainError("horizon must be positive")
        if self.globalization_rate is not None and self.globalization_rate < 0:
            raise DomainError("globalization rate must be nonnegative")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EnvelopeConstants":
        return cls(**json.loads(text))


@dataclass(frozen=True)
class EnvelopeValue:
    """Shape value in both linear and log form, with its constants bundle."""

    value: float
    log_value: float
    regime: str
    constants: EnvelopeConstants = field(default_factory=EnvelopeConstants)

    def __float__(self):
        return self.value


def _make_value(log_value: float, regime: str, consts: EnvelopeConstants) -> EnvelopeValue:
    if log_value == math.inf:
        value = math.inf
    else:
        value = math.exp(log_value) if log_value > -745.0 else 0.0
    return EnvelopeValue(value=value, log_value=log_value, regime=regime, constants=consts)


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

# (family, form) -> off-diagonal tail; c is the exponential rate constant
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


def _shape(family, d, k, a, beta, point, consts, case):
    """Shape of one table cell; ``a`` is alpha, or 2 for diffusion, and ``k``
    the derivative order (None for the value shapes)."""
    consts = consts or EnvelopeConstants()
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
    logv = branch(dim, a, beta, math.log(point.t), point.omega, point.r, consts.c_beta_exponent)
    return _make_value(logv, regime, consts)


def envelope_diffusion(d, beta, point: RegimePoint, consts: EnvelopeConstants | None = None) -> EnvelopeValue:
    """Two-sided shape for the time-fractional diffusion Green's function."""
    return _shape("diffusion", d, None, 2.0, beta, point, consts, "global")


def envelope_stable(d, alpha, beta, point: RegimePoint, consts: EnvelopeConstants | None = None) -> EnvelopeValue:
    """Two-sided shape for the time-fractional stable Green's function."""
    return _shape("stable", d, None, alpha, beta, point, consts, "global")


def envelope_diffusion_deriv(
    d, beta, point: RegimePoint, consts: EnvelopeConstants | None = None, case: str = "global"
) -> EnvelopeValue:
    """Upper-bound shape for |d/dx G| in the diffusion families.

    ``case``: "global" (divergence-form coefficients), "local_small_time"
    (t < 1, three regimes) or "local_large_time" (1 < t < T, bounds in
    |x - y| form).
    """
    return _shape("diffusion", d, 1, 2.0, beta, point, consts, case)


def envelope_stable_deriv(
    d, k, alpha, beta, point: RegimePoint, consts: EnvelopeConstants | None = None, case: str = "global"
) -> EnvelopeValue:
    """Upper-bound shape for order-k spatial derivatives, stable families."""
    return _shape("stable", d, k, alpha, beta, point, consts, case)


def globalize_local(shape_value, rate_c, tau):
    """Local-to-global correction: (e^{-c tau} shape, e^{+c tau} shape)."""
    rate_c, tau = float(rate_c), float(tau)
    if rate_c < 0:
        raise DomainError("globalization rate must be nonnegative")
    if tau <= 0:
        raise DomainError("tau must be positive")
    v = float(shape_value)
    return v * math.exp(-rate_c * tau), v * math.exp(rate_c * tau)
