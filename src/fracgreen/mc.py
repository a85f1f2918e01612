"""Monte Carlo machinery: stable subordinators, inverse subordinators,
subordinated processes, and the semigroup comparison principle.

Subordinator increments are drawn exactly (no discretization bias) from the
Kanter construction: with A(phi) the monotone angular function used for the
density integral,

    S = (A(pi U) / W)^{(1-beta)/beta},  U ~ U(0,1), W ~ Exp(1),

has Laplace transform exp(-lambda^beta), and dt^{1/beta} S is the increment
over dt.  The inverse subordinator E_t is sampled exactly from one such
draw per mixture component: E_t is the root of a monotone function of those
draws, found by Newton steps in log u started from the closed form of the
component that crosses t first (the exact value for a pure order).

Randomness comes from counter-based Philox streams: one root key per
campaign and one jump per task (the three orders of ``comparison_check``), so
a campaign reproduces bit-for-bit from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, CertificateError, DomainError
from .specfun import _beta_value

__all__ = [
    "McConfig",
    "LevyKernelSpec",
    "rng_stream",
    "sample_stable_increment",
    "sample_symmetric_stable",
    "sample_inverse_subordinator",
    "subordinated_density_mc",
    "comparison_check",
    "EmpiricalDensity",
    "ComparisonReport",
]


@dataclass(frozen=True)
class McConfig:
    """Campaign configuration; acceptance-grade runs need >= 1000 samples.

    ``bracket_tol`` is validated but unused: the inverse subordinator is
    sampled exactly, with no time step and no passage bracket.
    """

    sample_count: int = 100_000
    seed: int = 20_250_101
    histogram_bins: int = 80
    bracket_tol: float = 1e-3

    def __post_init__(self):
        if self.sample_count < 1:
            raise DomainError("sample_count must be positive")
        if self.bracket_tol <= 0:
            raise DomainError("bracket_tol must be positive")
        if self.histogram_bins < 4:
            raise DomainError("need at least 4 histogram bins")


def rng_stream(seed, task=0):
    """Deterministic substream: Philox root key jumped per task index."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)).jumped(int(task)))


def _kanter_A(phi, beta):
    return (
        np.sin(beta * phi) ** (beta / (1.0 - beta))
        * np.sin((1.0 - beta) * phi)
        / np.sin(phi) ** (1.0 / (1.0 - beta))
    )


def sample_stable_increment(beta, dt, rng, size=None):
    """Exact draw(s) of the beta-stable subordinator increment over dt."""
    beta = _beta_value(beta)
    if dt <= 0:
        raise DomainError("dt must be positive")
    scalar = size is None
    n = 1 if scalar else int(size)
    u = rng.uniform(0.0, np.pi, size=n)
    w = rng.standard_exponential(size=n)
    s = (_kanter_A(u, beta) / w) ** ((1.0 - beta) / beta) * dt ** (1.0 / beta)
    return float(s[0]) if scalar else s


def sample_symmetric_stable(alpha, rng, size=None):
    """Symmetric alpha-stable draw(s) with characteristic function e^{-|xi|^alpha}."""
    alpha = float(alpha)
    if not (0.0 < alpha <= 2.0):
        raise DomainError("alpha must lie in (0, 2]")
    scalar = size is None
    n = 1 if scalar else int(size)
    if alpha == 2.0:
        out = rng.standard_normal(n) * math.sqrt(2.0)
    elif alpha == 1.0:
        out = np.tan(rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n))
    else:
        v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
        w = rng.standard_exponential(size=n)
        out = (
            np.sin(alpha * v)
            / np.cos(v) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
        )
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class LevyKernelSpec:
    """Time-homogeneous Levy measure on (0, inf): a weighted mixture of
    stable kernels w_i * [beta_i / Gamma(1 - beta_i)] s^{-1-beta_i} ds,
    together with declared sandwich orders beta_1 <= beta_i <= beta_2."""

    components: tuple  # ((weight, beta), ...)
    beta_lower: float | None = None
    beta_upper: float | None = None

    def __post_init__(self):
        comps = tuple((float(w), _beta_value(b)) for w, b in self.components)
        if not comps:
            raise DomainError("need at least one mixture component")
        if any(w <= 0 for w, _ in comps):
            raise DomainError("mixture weights must be positive")
        object.__setattr__(self, "components", comps)
        betas = [b for _, b in comps]
        lo = min(betas) if self.beta_lower is None else float(self.beta_lower)
        hi = max(betas) if self.beta_upper is None else float(self.beta_upper)
        object.__setattr__(self, "beta_lower", lo)
        object.__setattr__(self, "beta_upper", hi)

    @classmethod
    def pure(cls, beta):
        return cls(components=((1.0, _beta_value(beta)),))

    def density(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for w, b in self.components:
            out += w * b / math.gamma(1.0 - b) * s ** (-1.0 - b)
        return out

    def certificate(self):
        """Verified split-domain sandwich constants.

        Returns a dict with C_low/C_high such that on s <= 1:
            C_low_small * nu_{b1}(s) <= nu(s) <= C_high_small * nu_{b2}(s)
        and on s >= 1 with the roles of b1, b2 exchanged.  The suprema are
        closed-form for power mixtures (extremes at the endpoint s = 1 and
        the appropriate limit), which is the symbolic verification.
        """
        b1, b2 = self.beta_lower, self.beta_upper
        betas = [b for _, b in self.components]
        if min(betas) < b1 - 1e-12 or max(betas) > b2 + 1e-12:
            raise CertificateError(
                f"declared sandwich orders ({b1}, {b2}) do not bracket the mixture"
            )
        c = lambda b: b / math.gamma(1.0 - b)
        # s <= 1: s^{b2-b_i} <= 1 and s^{b_i-b1} <= 1; only the extreme-order
        # components survive the limits s -> 0
        hi_small = sum(w * c(b) for w, b in self.components) / c(b2)
        lo_small = sum(w * c(b) for w, b in self.components if abs(b - b1) < 1e-12) / c(b1)
        # s >= 1: reversed roles
        hi_large = sum(w * c(b) for w, b in self.components) / c(b1)
        lo_large = sum(w * c(b) for w, b in self.components if abs(b - b2) < 1e-12) / c(b2)
        if lo_small <= 0 or lo_large <= 0:
            raise CertificateError("mixture has no component at a declared sandwich order")
        return {
            "beta_lower": b1,
            "beta_upper": b2,
            "C_low_small": lo_small,
            "C_high_small": hi_small,
            "C_low_large": lo_large,
            "C_high_large": hi_large,
        }


# relative size of a Newton step in log u at which a sample stops: a few
# units of rounding, where the step's sign no longer tells the root's side
_LOG_ROUNDING = 4.0 * np.finfo(float).eps


def sample_inverse_subordinator(beta, t, cfg: McConfig, rng=None, levy: LevyKernelSpec | None = None):
    """Exact samples of the inverse subordinator E_t = inf{u : D_u > t}.

    ``levy`` defaults to the pure order ``beta``.  For fixed u, D_u has the
    law of g(u) = sum_i (w_i u)^{1/beta_i} S_i with one unit draw S_i per
    mixture component; g increases in u, so the root of g(u) = t has the law
    of E_t.  In v = log u, g is a sum of exponentials, increasing and convex,
    so Newton steps started right of the root, at v = min_i log u_i(t) with
    u_i(s) = (s/S_i)^{beta_i}/w_i the component roots, move down onto it
    monotonically.  Each sample stops on its own once its signed step is at
    most a few units of rounding; a common stop on |step| can cycle forever
    on samples that rounding bounces across their root.  For a pure order
    the start is the closed form (t/S)^beta (Meerschaert & Scheffler 2004).
    """
    if t <= 0:
        raise DomainError("t must be positive")
    if rng is None:
        rng = rng_stream(cfg.seed)
    if levy is None:
        levy = LevyKernelSpec.pure(beta)
    log_w = np.log([[w] for w, _ in levy.components])
    betas = np.array([[b] for _, b in levy.components])
    log_s = np.log([sample_stable_increment(b, 1.0, rng, size=cfg.sample_count) for _, b in levy.components])

    v = np.min(betas * (math.log(t) - log_s) - log_w, axis=0)
    todo = np.arange(v.size)
    while todo.size:
        vt = v[todo]
        terms = np.exp((log_w + vt) / betas + log_s[:, todo])
        step = (terms.sum(axis=0) - t) / (terms / betas).sum(axis=0)
        v[todo] = vt - step
        todo = todo[step > _LOG_ROUNDING * np.maximum(1.0, np.abs(vt))]
    return np.exp(v)


@dataclass
class EmpiricalDensity:
    """Histogram estimate of a subordinated process at time t, paired with
    quadrature values of the fractional kernel on the bin centers."""

    bin_edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    samples: np.ndarray = field(repr=False)
    frac_green_density: np.ndarray

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def _position_given_time(kernel, e_t, rng):
    """Samples of X(E_t) given those of E_t, for the d = 1 families simulated
    directly: Brownian motion with variance 2 a s, and the symmetric
    alpha-stable process with scale s^{1/alpha}."""
    if kernel.d == 1 and kernel.family == "constant_diffusion":
        return np.sqrt(2.0 * float(kernel.matrix[0, 0]) * e_t) * rng.standard_normal(e_t.size)
    if kernel.d == 1 and kernel.family == "isotropic_stable":
        return e_t ** (1.0 / kernel.alpha) * sample_symmetric_stable(kernel.alpha, rng, size=e_t.size)
    raise CapabilityError(f"no direct simulation for {type(kernel).__name__} in d = {kernel.d}")


def subordinated_path_samples(kernel, beta, t, cfg: McConfig, rng=None):
    """Samples of X(E_t) for a simulable kernel family (d = 1)."""
    if rng is None:
        rng = rng_stream(cfg.seed)
    return _position_given_time(kernel, sample_inverse_subordinator(beta, t, cfg, rng=rng), rng)


def subordinated_density_mc(kernel, beta, t, cfg: McConfig, rng=None) -> EmpiricalDensity:
    """Histogram density estimate of X(E_t) on an auto-scaled window."""
    from .subordination import _raised, frac_green_batch

    samples = subordinated_path_samples(kernel, beta, t, cfg, rng=rng)
    lo, hi = np.quantile(samples, [0.001, 0.999])
    pad = 0.2 * (hi - lo)
    counts, edges = np.histogram(samples, bins=cfg.histogram_bins, range=(lo - pad, hi + pad))
    width = np.diff(edges)
    density = counts / (cfg.sample_count * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    # every bin centre in one batch; a centre that fails raises, as frac_green would
    results = frac_green_batch(kernel, beta, [t] * centers.size, centers[:, None], np.zeros((centers.size, 1)))
    paired = np.array([_raised(res).value for res in results])
    return EmpiricalDensity(
        bin_edges=edges, counts=counts, density=density, samples=samples,
        frac_green_density=paired,
    )


@dataclass
class ComparisonReport:
    """Sandwich check for E[f(X(E_t))] between the stable reference orders."""

    estimate_mixture: float
    estimate_lower_order: float
    estimate_upper_order: float
    ci_mixture: float
    ci_lower_order: float
    ci_upper_order: float
    certificate: dict
    ordering_holds: bool

    def summary(self):
        return {
            "mixture": self.estimate_mixture,
            "lower_order_reference": self.estimate_lower_order,
            "upper_order_reference": self.estimate_upper_order,
            "ci_mixture": self.ci_mixture,
            "ci_lower_order": self.ci_lower_order,
            "ci_upper_order": self.ci_upper_order,
            "certificate": self.certificate,
            "ordering_holds": self.ordering_holds,
        }


def _mc_mean_ci(values, z=1.96):
    m = float(np.mean(values))
    ci = z * float(np.std(values, ddof=1)) / math.sqrt(len(values))
    return m, ci


def comparison_check(nu: LevyKernelSpec, kernel, t, f, cfg: McConfig) -> ComparisonReport:
    """Monte Carlo check of the comparison-principle sandwich.

    ``f`` must be non-increasing (sampled check); the mixture estimate of
    E[f(X(E_t))] is compared against the two pure stable reference orders of
    the verified certificate, with 95% confidence intervals.  X is the base
    process of ``kernel``, one of the d = 1 families simulated directly.
    """
    cert = nu.certificate()
    probe = np.linspace(-10.0, 10.0, 201)
    fv = np.asarray([f(p) for p in probe], dtype=float)
    if np.any(np.diff(fv) > 1e-12):
        raise DomainError("test function must be non-increasing")

    ests = {}
    for task, (label, levy) in enumerate(
        [
            ("mixture", nu),
            ("lower", LevyKernelSpec.pure(cert["beta_lower"])),
            ("upper", LevyKernelSpec.pure(cert["beta_upper"])),
        ]
    ):
        rng = rng_stream(cfg.seed, task=task)
        xs = _position_given_time(kernel, sample_inverse_subordinator(None, t, cfg, rng=rng, levy=levy), rng)
        vals = np.asarray([f(v) for v in xs], dtype=float)
        ests[label] = _mc_mean_ci(vals)

    m, ci_m = ests["mixture"]
    lo, ci_lo = ests["lower"]
    hi, ci_hi = ests["upper"]
    # the upper-order reference bounds from below, the lower-order from above
    ordering = (hi - ci_hi - ci_m <= m) and (m <= lo + ci_lo + ci_m)
    return ComparisonReport(
        estimate_mixture=m,
        estimate_lower_order=lo,
        estimate_upper_order=hi,
        ci_mixture=ci_m,
        ci_lower_order=ci_lo,
        ci_upper_order=ci_hi,
        certificate=cert,
        ordering_holds=bool(ordering),
    )
