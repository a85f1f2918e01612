"""One-sided stable densities, subordinator kernels and Mittag-Leffler functions.

The central objects are the totally positively skewed normalised stable
density ``w_beta`` (Laplace transform ``exp(-s**beta)``), the transition
density ``G_beta(r, s) = r**(-1/beta) * w_beta(s * r**(-1/beta))`` of the
beta-stable subordinator, and the Mittag-Leffler function ``E_beta``.

``w_beta`` is evaluated by two methods that are cross-checked in the tests:

* a convergent alternating series in inverse powers of ``x`` (used for
  ``x >= SWITCH_POINT``), and
* a non-oscillatory single integral over ``(0, pi)`` built from the
  monotone angular function ``A(phi)`` with ``A(0+) = c_beta`` (used for
  ``x < SWITCH_POINT``), in log form, on Gauss-Legendre panels built once for
  every beta, of which each row uses only those its own scale resolves; in
  the deep left tail the integral concentrates at ``phi = 0``.

The series goes through the library's one inverse-power summer,
``_InversePowerSeries``, which also sums the far-field profile tails of
``fracgreen.kernels``.  Each row stops on its own envelope, before the first
term e^-39 below its first (and, for an asymptotic series, after its
smallest term); the envelope is linear in ``log x``, so the stop is a
threshold found by bisection, and rows are summed in groups by term count.
A row's value therefore depends on its own argument alone.

``E_beta`` on the negative axis is a completely monotone function whose
alternating power series suffers cancellation of order ``exp(|z|**(1/beta))``.
``ml_series`` therefore uses compensated float summation while the series'
largest term stays within a small factor of the result, and past that the
equivalent completely monotone integral representation.  ``ml_pz`` is the
independent route through the subordinator density and is kept free of any
series machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import DomainError, RangeGuardError

__all__ = [
    "StableDensityEval",
    "stable_density",
    "stable_density_eval",
    "stable_density_log",
    "stable_density_envelope",
    "subordination_log_weight",
    "subordination_reach",
    "subordinator_density",
    "ml_series",
    "ml_series_deriv",
    "ml_pz",
    "potential_density",
]

# Evaluation-strategy constants (see module docstring).
SWITCH_POINT = 1.0          # series for x >= switch, integral below
ML_SERIES_GUARD = 50.0      # hard |z| guard for ml_series
_ML_FLOAT_RELLOG = 4.0      # float summation while max term < e^4 |result|
_ML_SERIES_TOL = 1e-12      # the float series stops at terms below 1e-14


def _beta_value(beta) -> float:
    """The fractional order beta as a float in (0, 1)."""
    b = float(beta)
    if not 0.0 < b < 1.0:
        raise DomainError(f"fractional order must lie in (0, 1), got {beta}")
    return b


@dataclass(frozen=True)
class StableDensityEval:
    """Density value together with the evaluation method that produced it."""

    x: float
    value: float
    method_used: str  # "series" | "integral_rep" | "asymptotic"


def stable_exponent_constant(beta) -> float:
    """The left-tail exponent constant (1 - beta) * beta**(beta/(1-beta))."""
    b = _beta_value(beta)
    return (1.0 - b) * b ** (b / (1.0 - b))


def subordination_reach(beta, t) -> float:
    """Base time t^beta (55/c_beta)^(1-beta) by which the subordination
    weight at time t has decayed: the right end of the base times a clipped
    family is asked to cover."""
    b = _beta_value(beta)
    return float(t) ** b * (55.0 / stable_exponent_constant(b)) ** (1.0 - b)


# ---------------------------------------------------------------------------
# angular function A(phi) and its quadrature nodes
# ---------------------------------------------------------------------------

def _zolo_log_A(phi, b):
    """log A(phi) for the monotone angular function on (0, pi).

    A(phi) = sin(b phi)^(b/(1-b)) sin((1-b) phi) / sin(phi)^(1/(1-b)),
    increasing from A(0+) = c_beta to +inf at pi.
    """
    phi = np.asarray(phi, dtype=float)
    return (
        (b / (1.0 - b)) * np.log(np.sin(b * phi))
        + np.log(np.sin((1.0 - b) * phi))
        - (1.0 / (1.0 - b)) * np.log(np.sin(phi))
    )


def _frozen(*arrays):
    """The arrays made read-only: a cached result is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


_LEFT_PANELS = 65  # the angular rule's panels on (0, pi/2]


@lru_cache(maxsize=1)
def _zolo_panels():
    """Edges, nodes and weights of Gauss-Legendre panels on (0, pi), refined
    at both ends, and the rule on (0, 1): the same for every beta."""
    xg, wg = np.polynomial.legendre.leggauss(14)
    # cluster toward 0 (the deep-tail peak, ~M^{-1/2} wide) and toward pi
    # (the A blow-up), from 0 itself: the peak holds a share of about
    # 1e-13 sqrt(M) below the first geometric edge, 8e-14
    left = np.pi / 2 * 0.62 ** np.arange(_LEFT_PANELS - 1, -1, -1)
    right = np.pi - np.pi / 2 * 0.62 ** np.arange(1, 30)
    edges = np.concatenate(([0.0], left, right))
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return _frozen(edges, (mid[:, None] + half[:, None] * xg).ravel(), (half[:, None] * wg).ravel(),
                   0.5 * (1.0 + xg), 0.5 * wg)


@lru_cache(maxsize=64)
def _zolo_nodes(b: float):
    """log A and A - c_beta at the shared nodes, A - c_beta at their edges
    (nondecreasing over its rounding near 0), and c_beta at this beta."""
    edges, nodes = _zolo_panels()[:2]
    c_beta = stable_exponent_constant(b)
    logA = _zolo_log_A(nodes, b)
    with np.errstate(over="ignore"):  # A = inf near pi for beta close to 1
        rise = np.exp(logA) - c_beta
        edge_rise = np.maximum.accumulate(np.append(0.0, np.exp(_zolo_log_A(edges[1:], b)) - c_beta))
    return logA, rise, edge_rise, c_beta


# ---------------------------------------------------------------------------
# inverse-power series: one summer, stopped row by row
# ---------------------------------------------------------------------------

_SERIES_CUT = 39.0           # a term whose envelope is e^-39 (1.2e-17) below the first ends the sum
_SERIES_GROUPS = (2, 8, 32)  # rows needing at most this many terms are summed together
_GROUP_GAIN = 256            # unless that saves fewer envelope terms than this


def _term_counts(log_env, asymptotic):
    """Each row's term count from its whole log envelope (rows, terms): the
    terms before the first whose envelope lies _SERIES_CUT below the row's
    first term, and for an asymptotic series none past its smallest term.
    ``_InversePowerSeries.counts`` evaluates the same rule in closed form."""
    cols = log_env.shape[1]
    col = np.arange(1, cols)
    n = np.where(log_env[:, 1:] < log_env[:, :1] - _SERIES_CUT, col, cols).min(axis=1, initial=cols)
    if asymptotic:
        n = np.minimum(n, np.where(log_env[:, 1:] > log_env[:, :-1], col, cols).min(axis=1, initial=cols))
    return n


def _leading_terms_sum(weight, log_envelope, counts):
    """Sum_{k < counts_i} weight_k e^{E_ik} for every row i, where
    ``log_envelope(rows, n)`` gives E for the given rows' first n terms.

    Rows are summed in groups by term count (at most 2, 8, 32, then all
    terms), each group only up to the largest count it holds; a group is
    merged into the next when splitting it off would save fewer than
    _GROUP_GAIN envelope terms, which costs less than another pass.  Each
    row is summed in order (a cumulative sum), so the columns past its own
    count never touch its value: a row's sum depends on its own envelope
    alone, not on its group or on which other rows share the call."""
    order = np.argsort(counts, kind="stable")
    n = counts[order]
    ends = [n.size]
    for below in np.searchsorted(n, _SERIES_GROUPS[::-1], side="right").tolist():
        if 0 < below < ends[-1] and below * int(n[ends[-1] - 1] - n[below - 1]) >= _GROUP_GAIN:
            ends.append(below)
    sums, start = [], 0
    for end in ends[::-1]:
        rows, m = order[start:end], int(n[end - 1])
        partial = np.cumsum(weight[:m] * np.exp(log_envelope(rows, m)), axis=1)
        sums.append(partial[np.arange(end - start), n[start:end] - 1])
        start = end
    out = np.empty(counts.shape)
    out[order] = np.concatenate(sums)
    return out


class _InversePowerSeries:
    """Sum_k weight_k e^{log_coef_k} x^{-power_k} with increasing powers,
    each row summed up to its own term count under ``_term_counts``'s rule.

    The log envelope log_coef_k - power_k log x is linear in log x, so each
    stop is a threshold on log x.  Term k lies _SERIES_CUT below the first
    where log x > (log_coef_k - log_coef_0 + _SERIES_CUT) / (power_k -
    power_0), and the envelope grows after term k where log x <
    (log_coef_{k+1} - log_coef_k) / (power_{k+1} - power_k).  The first k
    past a threshold is the first past the thresholds' running minimum
    (maximum), which is monotone, so a bisection finds it.  An asymptotic
    series stops at its smallest term; a convergent one may rise before it
    falls (w_beta below x = 1 near beta = 1), so it does not."""

    def __init__(self, log_coef, weight, power, asymptotic):
        self.log_coef, self.weight, self.power = log_coef, weight, power
        self.asymptotic = asymptotic
        self._rel_coef, self._rel_power = log_coef - log_coef[0], power - power[0]
        self._cut = -np.minimum.accumulate((self._rel_coef[1:] + _SERIES_CUT) / self._rel_power[1:])
        if asymptotic:
            self._turn = np.maximum.accumulate(np.diff(log_coef) / np.diff(power))

    def counts(self, log_x):
        n = 1 + np.searchsorted(self._cut, -log_x, side="right")
        if self.asymptotic:
            n = np.minimum(n, 1 + np.searchsorted(self._turn, log_x, side="right"))
        return n

    def relative_sum(self, log_x):
        """The sum over its first term's envelope e^{log_coef_0} x^{-power_0},
        at an array log_x = log x: finite for any finite log x."""
        rel_coef, rel_power = self._rel_coef, self._rel_power
        return _leading_terms_sum(self.weight, lambda rows, n: rel_coef[:n] - rel_power[:n] * log_x[rows, None],
                                  self.counts(log_x))

    def __call__(self, x):
        """The sum at each x > 0, as a flat array."""
        log_x = np.log(np.asarray(x, dtype=float)).reshape(-1)
        return np.exp(self.log_coef[0] - self.power[0] * log_x) * self.relative_sum(log_x)


_W_K = np.arange(1, 221, dtype=float)  # the terms k of the inverse-power series of w_beta
_W_LOG_FACTORIAL = gammaln(_W_K + 1.0)
_W_ALTERNATION = np.where(_W_K % 2 == 1, 1.0, -1.0)


@lru_cache(maxsize=64)
def _w_series(b: float):
    """w_beta(x) = (1/pi) Sum_{k>=1} (-1)^{k+1} Gamma(k b + 1)/k! sin(pi k b)
    x^{-k b - 1}.  The envelope Gamma(k b + 1)/k! x^{-k b} leaves out the
    sine, which may be near 0 for a term that matters; its log is concave in
    k, so the terms a row keeps run from k = 1 without a gap."""
    kb = _W_K * b
    return _InversePowerSeries(*_frozen(gammaln(kb + 1.0) - _W_LOG_FACTORIAL, _W_ALTERNATION * np.sin(np.pi * kb), kb),
                               asymptotic=False)


def _w_series_log(lx, b):
    """log w_beta by the series from lx = log x (x >= ~0.7).

    The first term's envelope x^{-b} is factored out, so x may be far beyond
    the float range.
    """
    series = _w_series(b)
    return series.log_coef[0] - math.log(np.pi) - (b + 1.0) * lx + np.log(series.relative_sum(lx))


def _row_panels(M, b):
    """Per row, the panels [first, last) it integrates from the table.  Those
    left of the last edge e <= pi/2 with M (A - c_beta) <= 1/4 and A <= 5/4
    c_beta, where the exponent moves by at most 1/4, merge into one panel
    [0, e], first = e (at least the table's first panel), which A's branch
    points at +-pi leave smooth.  Those past the first edge with
    M (A - c_beta) > 800 underflow to 0 for M >= 1, and are dropped."""
    edge_rise, c_beta = _zolo_nodes(b)[2:]
    merge = edge_rise[:_LEFT_PANELS + 1].searchsorted(0.25 * np.fmin(1.0 / M, c_beta), side="right") - 1
    return np.maximum(merge, 1), np.minimum(edge_rise.searchsorted(800.0 / M, side="right"), edge_rise.size - 1)


def _w_integral_log(lx, b):
    """log w_beta by the integral representation from lx = log x (x < 1).

    w = b/((1-b) pi) x^{-1/(1-b)} e^{-c_beta M} Int A e^{-(A - c_beta) M},
    M = x^{-b/(1-b)}, on a row's own panels (``_row_panels``), each row reduced
    alone, so a value does not depend on which other arguments share its call.
    """
    if lx.size > 256:  # bound the (len(lx), angular nodes) temporaries
        return np.concatenate([_w_integral_log(lx[i:i + 256], b) for i in range(0, lx.size, 256)])
    edges, _, weights, unit, unit_w = _zolo_panels()
    logA, rise, _, c_beta = _zolo_nodes(b)
    M = np.exp((-b / (1.0 - b)) * lx)
    first, last = _row_panels(M, b)
    cnt = 14 * (last - first)
    ends = cnt.cumsum()
    at = np.arange(ends[-1]) + (14 * first - ends + cnt).repeat(cnt)
    core = np.add.reduceat(np.exp(logA[at] - M.repeat(cnt) * rise[at]) * weights[at], ends - cnt)
    e = edges[first]  # the merged panel [0, e]
    log_a = _zolo_log_A(e[:, None] * unit, b)
    core += e * (np.exp(log_a - M[:, None] * (np.exp(log_a) - c_beta)) * unit_w).sum(axis=1)
    return math.log(b / ((1.0 - b) * np.pi)) - lx / (1.0 - b) - c_beta * M + np.log(core)


def _w_asymptotic_log(lx, b):
    """Leading small-x asymptotic in log form (see ``_asymptotic``)."""
    c_beta = stable_exponent_constant(b)
    pref = math.log(b ** (1.0 / (2.0 * (1.0 - b)))) - 0.5 * math.log(2.0 * np.pi * (1.0 - b))
    with np.errstate(over="ignore"):
        return pref - (2.0 - b) / (2.0 * (1.0 - b)) * lx - c_beta * np.exp((-b / (1.0 - b)) * lx)


# the leading asymptotic's relative error is a_1 / M, M = x^{-b/(1-b)}, with
# |a_1| b (1 - b) <= 0.11 measured against the Zolotarev integral for b in
# [0.02, 0.995] (a_1 = 0 at b = 1/2); it takes over where that is below 1e-13
_ASYMPTOTIC_M = 1.25e12


def _asymptotic(b, lx):
    """Where the leading asymptotic replaces the integral: M >= _ASYMPTOTIC_M / (b (1 - b))."""
    return (-b / (1.0 - b)) * lx >= math.log(_ASYMPTOTIC_M / (b * (1.0 - b)))


def _w_log(b, lx):
    """log w_beta at lx = log x: series from SWITCH_POINT up, integral below,
    asymptotic deep in the left tail."""
    out = np.empty_like(lx)
    hi = lx >= math.log(SWITCH_POINT)
    tiny = (~hi) & _asymptotic(b, lx)
    mid = (~hi) & (~tiny)
    if hi.any():
        out[hi] = _w_series_log(lx[hi], b)
    if mid.any():
        out[mid] = _w_integral_log(lx[mid], b)
    if tiny.any():
        out[tiny] = _w_asymptotic_log(lx[tiny], b)
    return out


def stable_density_vec(beta, x):
    """Vectorised w_beta for positive array arguments."""
    return np.exp(stable_density_log_vec(beta, x))


def stable_density_log_vec(beta, x):
    """Vectorised log w_beta, safe far into the left tail."""
    b = _beta_value(beta)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(~(x > 0.0)):
        raise DomainError("stable density requires x > 0")
    return _w_log(b, np.log(x))


def subordination_log_weight(beta, zeta):
    """omega_beta(zeta) = -zeta/beta + log w_beta(e^{-zeta/beta}), vectorised.

    This is the beta-only part of the subordination integrand in zeta = ln z.
    It is computed from log u = -zeta/beta, so no exponential of zeta is
    formed and any finite zeta is safe.
    """
    b = _beta_value(beta)
    lu = -np.atleast_1d(np.asarray(zeta, dtype=float)) / b
    return lu + _w_log(b, lu)


def stable_density(beta, x) -> float:
    """w_beta(x): the one-sided stable density with Laplace transform e^{-s^beta}."""
    return float(stable_density_vec(beta, float(x))[0])


def stable_density_log(beta, x) -> float:
    """log w_beta(x), usable where the density itself underflows."""
    return float(stable_density_log_vec(beta, float(x))[0])


def stable_density_eval(beta, x) -> StableDensityEval:
    """Like :func:`stable_density` but reporting which method was used."""
    b = _beta_value(beta)
    xf = float(x)
    if not xf > 0.0:
        raise DomainError("stable density requires x > 0")
    if xf >= SWITCH_POINT:
        method = "series"
    elif _asymptotic(b, math.log(xf)):
        method = "asymptotic"
    else:
        method = "integral_rep"
    return StableDensityEval(x=xf, value=stable_density(b, xf), method_used=method)


def stable_density_envelope(beta, x) -> float:
    """Envelope shape for w_beta, ``exp`` of :func:`stable_density_envelope_log`.

    Both sides of the estimate ``c shape <= w_beta <= C shape`` share this
    shape; the constants c and C are the caller's business.
    """
    return math.exp(stable_density_envelope_log(beta, x))


def stable_density_envelope_log(beta, x) -> float:
    """log of the envelope shape; survives where f_beta underflows.

    f_beta(x) = x^{-(2-beta)/(2(1-beta))} exp{-c_beta x^{-beta/(1-beta)}},
    with c_beta from :func:`stable_exponent_constant`.  For beta < 1/2 the
    shape is min(x^{-1-beta}, f_beta(x)); for beta >= 1/2 it is the piecewise
    form: power branch on (1, inf), f_beta on (0, 1].
    """
    b = _beta_value(beta)
    xf = float(x)
    if not xf > 0.0:
        raise DomainError("envelope requires x > 0")
    log_power = (-1.0 - b) * math.log(xf)
    log_f = (
        -(2.0 - b) / (2.0 * (1.0 - b)) * math.log(xf)
        - stable_exponent_constant(b) * xf ** (-b / (1.0 - b))
    )
    if b < 0.5:
        return min(log_power, log_f)
    return log_power if xf > 1.0 else log_f


def subordinator_density(beta, r, s) -> float:
    """Transition density G_beta(r, s) = r^{-1/beta} w_beta(s r^{-1/beta})."""
    b = _beta_value(beta)
    rf, sf = float(r), float(s)
    if rf <= 0 or sf <= 0:
        raise DomainError("subordinator density requires r > 0 and s > 0")
    scale = rf ** (-1.0 / b)
    return scale * stable_density(b, sf * scale)


# ---------------------------------------------------------------------------
# Mittag-Leffler ladder
# ---------------------------------------------------------------------------

def _ml_maxlog(z, b, deriv=False):
    """ln of the largest term of the series (of the differentiated series
    with ``deriv``); ~ |z|^(1/beta) for |z| >= 1."""
    az = abs(z)
    if az <= 1e-300:
        return 0.0
    # max_k [k ln|z| - lgamma(k b + 1)], or [ln k + (k - 1) ln|z| - ...];
    # the stationary point is at m = b k ~ |z|^(1/b); evaluate exactly around it
    m_star = az ** (1.0 / b)
    k_star = max(1, int(m_star / b))
    ks = np.unique(np.clip([1, k_star // 2, k_star, 2 * k_star], 1, 10 ** 9)).astype(float)
    vals = ks * math.log(az) - gammaln(b * ks + 1.0)
    if deriv:
        vals += np.log(ks) - math.log(az)
    return float(max(vals.max(), 0.0))


def _neumaier_sum(terms):
    s = 0.0
    comp = 0.0
    for t in terms:
        tmp = s + t
        if abs(s) >= abs(t):
            comp += (s - tmp) + t
        else:
            comp += (t - tmp) + s
        s = tmp
    return s + comp


def _ml_series_float(z, b, deriv=False):
    terms = []
    k = 1 if deriv else 0
    biggest = 0.0
    while True:
        lg = gammaln(b * k + 1.0)
        if deriv:
            logt = math.log(k) + (k - 1) * math.log(abs(z))
            signpow = k - 1
        else:
            logt = k * math.log(abs(z))
            signpow = k
        t = math.exp(logt - lg)
        if z < 0 and signpow % 2 == 1:
            t = -t
        terms.append(t)
        biggest = max(biggest, abs(t))
        if k > 3 and abs(t) < 0.01 * _ML_SERIES_TOL and abs(t) < 1e-6 * max(biggest, 1.0):
            break
        k += 1
        if k > 100000:
            break
    return _neumaier_sum(terms)


def _ml_spectral(z, b, deriv=False):
    """Completely monotone integral for E_beta(z) (or E'_beta) on z < 0.

    E_beta(z) = sin(b pi)/(b pi) Int_0^inf exp(-((-z) v)^{1/b})
                / (v^2 + 2 v cos(b pi) + 1) dv.
    """
    t = -z
    cb = math.cos(b * math.pi)
    inv_b = 1.0 / b
    if deriv:
        def f(v):
            return (v ** inv_b) * math.exp(-((t * v) ** inv_b)) / (v * v + 2.0 * v * cb + 1.0)
    else:
        def f(v):
            return math.exp(-((t * v) ** inv_b)) / (v * v + 2.0 * v * cb + 1.0)
    v1, _ = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300)
    v2, _ = quad(f, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)
    out = math.sin(b * math.pi) / (b * math.pi) * (v1 + v2)
    if deriv:
        out *= inv_b * t ** (inv_b - 1.0)
    return out


def _ml_ladder(beta, z, deriv):
    """E_beta(z) or E'_beta(z) for |z| <= ML_SERIES_GUARD (see the module docstring)."""
    b = _beta_value(beta)
    z = float(z)
    if abs(z) > ML_SERIES_GUARD:
        raise RangeGuardError(
            f"|z| = {abs(z):g} beyond the series guard {ML_SERIES_GUARD:g}; use ml_pz"
        )
    if z == 0.0:
        return 1.0 / math.gamma(1.0 + b) if deriv else 1.0
    if z > 0.0:
        return _ml_series_float(z, b, deriv=deriv)
    # the float series loses tens of eps times its largest term to rounding:
    # it is kept while that term (of the series being summed: differentiated
    # terms are larger by about k / |z|) is within e^_ML_FLOAT_RELLOG of the
    # result.  On z < 0 both functions are completely monotone, so at most
    # 1/Gamma(1 + b), and a larger term skips the sum
    maxlog = _ml_maxlog(z, b, deriv)
    if maxlog + gammaln(1.0 + b) <= _ML_FLOAT_RELLOG:
        s = _ml_series_float(z, b, deriv=deriv)
        if maxlog - math.log(s) <= _ML_FLOAT_RELLOG:
            return s
    return _ml_spectral(z, b, deriv=deriv)


def ml_series(beta, z) -> float:
    """Mittag-Leffler function E_beta(z) = sum_k z^k / Gamma(k beta + 1).

    Guarded at |z| <= ML_SERIES_GUARD; beyond the guard use :func:`ml_pz`.
    """
    return _ml_ladder(beta, z, deriv=False)


def ml_series_deriv(beta, z) -> float:
    """Term-wise differentiated series E'_beta(z), same guard as ml_series."""
    return _ml_ladder(beta, z, deriv=True)


def ml_pz(beta, s) -> float:
    """E_beta(s) for s <= 0 through the subordinator-density integral.

    Evaluates (1/beta) Int_0^inf e^{s x} x^{-1-1/beta} w_beta(x^{-1/beta}) dx;
    the integrand extends continuously to x = 0 with value beta / Gamma(1-beta).
    """
    b = _beta_value(beta)
    sf = float(s)
    if sf > 0.0:
        raise DomainError("ml_pz is defined for s <= 0 (integral diverges otherwise)")

    c_beta = stable_exponent_constant(b)
    lead = b / math.gamma(1.0 - b)  # integrand value at x = 0+

    def f(x):
        if x < 1e-280:
            return lead
        u = x ** (-1.0 / b)
        logf = sf * x - (1.0 + 1.0 / b) * math.log(x) + stable_density_log(b, u)
        return math.exp(logf) if logf > -700.0 else 0.0

    # w_beta(x^{-1/beta}) is negligible once c_beta x^{... } > ~60
    x_cut = (60.0 / c_beta) ** (1.0 - b)
    if sf < 0:
        x_cut = min(x_cut, 60.0 / (-sf) + 1.0)
    v1, e1 = quad(f, 0.0, min(1.0, x_cut), epsabs=1e-12, epsrel=1e-11, limit=300)
    v2, e2 = 0.0, 0.0
    if x_cut > 1.0:
        v2, e2 = quad(f, 1.0, x_cut, epsabs=1e-12, epsrel=1e-11, limit=300)
    return (v1 + v2) / b


def potential_density(beta, lam, t) -> float:
    """Resolvent density beta t^{beta-1} E'_beta(-lam t^beta).

    Equals Int_0^inf e^{-lam r} G_beta(r, t) dr, the lambda-potential density
    of the beta-stable subordinator.
    """
    b = _beta_value(beta)
    lamf, tf = float(lam), float(t)
    if tf <= 0.0:
        raise DomainError("potential density requires t > 0")
    if lamf < 0.0:
        raise DomainError("potential density requires lam >= 0")
    z = -lamf * tf ** b
    if abs(z) > ML_SERIES_GUARD:
        # past the guard the differentiated series is replaced by its
        # completely monotone integral, which has no argument restriction
        deriv = _ml_spectral(z, b, deriv=True)
    else:
        deriv = ml_series_deriv(b, z)
    return b * tf ** (b - 1.0) * deriv
