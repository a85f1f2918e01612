"""Base spatial Green's functions for the supported operator families.

Families:

* ``ConstantDiffusion(d, A)`` - heat kernel of ``du/dt = div(A grad u)`` with a
  constant SPD matrix ``A``: ``(4 pi t)^{-d/2} det(A)^{-1/2}
  exp{-(x-y)' A^{-1} (x-y) / (4t)}``, with closed-form spatial derivatives.
* ``IsotropicStable(d, alpha)`` - Fourier inversion of ``exp(-t |xi|^alpha)``.
  Self-similarity reduces everything to the unit-time radial profile
  ``P_d(rho)`` (alpha = 2 is the Gaussian closed form).  Only the d = 1
  profile and its derivative are computed directly, as Fourier moments
  ``F_{m,trig}(sigma) = Int_0^inf xi^m e^{-xi^alpha} trig(sigma xi) dxi``
  (``P_1 = F_{0,cos}/pi``, ``P_1' = -F_{1,sin}/pi``, from
  ``_fourier_moment``), and cached on log-splines once per alpha, on nodes
  sized from alpha (``_LogSpline``).  Every other dimension walks from
  them: ``P_3 = -P_1'/(2 pi rho)``, and ``P_2`` is the inverse Abel
  transform ``-(1/pi) Int_0^inf P_1'(rho cosh u) du``, cached on its own
  log-spline.  Far out (rho > 60 in d = 1 and 3, rho > 20 in d = 2) the
  profiles are inverse-power tail series, summed by the library's one
  inverse-power summer (``specfun._InversePowerSeries``), which stops each
  row on its own envelope.  Profiles are validated for alpha >= 0.2.
* ``AnisotropicStable2D(alpha, mu)`` - symbol ``-|xi|^alpha w_mu(xi/|xi|)``
  with ``w_mu`` computed from a spectral density kept on a uniform angular
  grid.  One rule serves direct calls and the subordination: G = G_frozen +
  R, G_frozen the isotropic d = 2 kernel at time t w_mu(phi + pi/2) (phi the
  angle of x) from the cached P_2, and R the angular integral of the cosine
  transform ``C_alpha = F_{1,cos}`` with w_mu less that with w_mu frozen at
  phi + pi/2, on panels graded toward the crossings phi +- pi/2 (those a
  row's scale leaves unresolved merged), linear in t below the time where the
  scaled radius reaches ``_COS_SPLINE_CAP``.
* ``VariableDiffusion1D(a, b, c, horizon)`` - Crank-Nicolson fundamental
  solution of ``du/dt = a u'' + b u' + c u`` on a truncated line, with
  Rannacher start-up for the point-mass initial condition.  The working step
  dt runs up to the horizon; past it the step grows with t, dt times the
  largest power of 1.25 not above t / horizon (t over the ramp's end, if
  that is later), so dt/t never passes its value there and a subordination
  clip far beyond the horizon costs few steps.  Each step is one
  tridiagonal solve with M = I - theta dt A, u <- (M^{-1} u - (1 - theta) u)
  / theta, which holds the explicit half-step too.  While the cell Peclet
  number |b| dx / (2a) is below 1, M is diagonally similar to a symmetric
  matrix, factored without pivoting (LAPACK pttrf); otherwise, or where that
  is not positive definite, the pivoting LU of gttrf serves.  Factors are
  kept while the step size and the domain repeat.  One time history is kept
  per source point and grown in place: a request for a later time continues
  it, never rebuilds it.  Its domain widens with t (the Gaussian-tail
  half-width a little ahead of the current time, capped by a user
  ``half_width``), and only a geometric ladder of rungs is stored, between
  which log(sqrt(t) G) is linear in 1/t (``_History.log_eval``).  Before
  the splice time, and beyond the domain of the rung read, G is the
  frozen-coefficient Gaussian.  Rungs, widths and steps depend on t alone,
  so no value depends on which request grew the history.

Every family answers one protocol, so no caller needs to know which it has
(only ``mc`` names the two d = 1 families it simulates directly).  Its one
answer is log|d^k G| with its sign, which no family forms from a linear G;
``value`` and ``derivative`` are exp of it, each one shared definition:

* ``log_value(t, x, y)`` and ``value(t, x, y)``, log G and G between x and
  y, ``t`` one time or an array (giving an array); a t not in (0, inf)
  raises ``DomainError``.  Every family reads its points through ``_points``:
  a point is a vector of length d, or a number in d = 1, with finite
  coordinates, and anything else raises ``DomainError``.  The Gaussian and
  isotropic stable families also take one point per time (x, y of shape
  t.shape + (d,)), which is how the rule evaluates many points in one call;
* ``derivative(t, x, y, k)``, the signed d^k G / dx_0^k (k from 1 to
  ``max_derivative_order()``, else ``CapabilityError``; a value is
  ``value``, so k = 0 raises), from ``_log_derivative(t, x, y, k)``;
* ``rule_tol``, the stop tolerance of the subordination rule's h/2h
  difference, set above the family's own evaluation noise (interpolated
  profiles, angular trapezoids, the piecewise-smooth Crank-Nicolson
  history);
* ``family`` (its name), ``envelope_family`` (``"diffusion"`` or
  ``"stable"``, which also sets how deep the subordination rule's first
  window starts), ``d``, ``alpha`` (a plain float in (0, 2], ``None`` for the
  diffusion families), ``horizon`` (``None`` unless the kernel is only valid
  up to a finite time) and ``max_derivative_order()``;
* ``base_integrand(x, y, k, t, beta)`` for a batch of n points x_i, y_i and
  fractional times t_i, which returns ``(log_kernel, setup)``.
  ``log_kernel(s, i)`` gives log|d^k G(s, x_i, y_i)| and its sign at base
  times s of the points i (one index, or one per time), through the
  family's own ``log_value`` or ``_log_derivative``.  ``setup[i]`` is the pair
  (``q_scale``, the scale of the kernel's small-time decay; the base time
  the rule must not pass for the fractional request at t_i and order beta,
  ``None`` without a limit), ``None`` where the derivative vanishes
  identically, or the exception the point raises, which fails that point
  alone: ``DomainError`` for a malformed point or time, or where the
  fractional kernel is known to diverge on the diagonal (Gaussian: k = 2,
  or k = 0 with d >= 2; stable: k = 0 with d >= alpha, which always holds
  for the anisotropic family).  The finite-horizon family clips each
  request at the horizon or the weight's reach
  ``specfun.subordination_reach(beta, t)``, whichever is later, plus 2 %,
  and grows the source's history to it.  That clip is a far-tail accuracy
  guard, not the end of the stored data: a request whose integrand has not
  decayed by its clip raises ``HorizonError`` even where the shared history
  stores more.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly, make_interp_spline
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs
from scipy.special import betainc, gammaln

from .errors import CapabilityError, DomainError, HorizonError
from .specfun import _frozen, _InversePowerSeries, _leading_terms_sum, _term_counts, subordination_reach

__all__ = [
    "ConstantDiffusion",
    "IsotropicStable",
    "AnisotropicStable2D",
    "VariableDiffusion1D",
    "SpectralMeasure",
    "coefficient_from_csv",
    "spectral_density_from_csv",
    "COEFFICIENT_BUILTINS",
    "SPECTRAL_BUILTINS",
]


def _alpha_value(alpha) -> float:
    """alpha as a float in (0, 2]; 2 is the Gaussian limit, which envelopes do not verify."""
    a = float(alpha)
    if not 0.0 < a <= 2.0:
        raise DomainError(f"stable order must lie in (0, 2], got {alpha}")
    return a


def _points(x, y, d, t=None):
    """x and y as float vectors of shape (d,); in d = 1 a number is also a
    point.  With an array of times ``t``, x or y may also hold one point per
    time, of shape t.shape + (d,).  Anything else, a string, a ragged list or
    a coordinate that is not finite, raises ``DomainError``."""
    try:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"points must be vectors of {d} numbers") from None
    x, y = np.atleast_1d(x, y) if d == 1 else (x, y)
    shapes = ((d,), getattr(t, "shape", ()) + (d,))
    if x.shape not in shapes or y.shape not in shapes:
        raise DomainError(f"points must be vectors of length {d}" + (" or numbers" if d == 1 else ""))
    if not (_finite(x) and _finite(y)):
        raise DomainError("points must have finite coordinates")
    return x, y


def _finite(a) -> bool:
    """Whether every entry of a is finite: one point's few coordinates in
    Python, where a numpy reduction costs more than the check, many in numpy."""
    return all(map(math.isfinite, a.tolist())) if a.ndim == 1 else bool(np.isfinite(a).all())


def _norm(dx):
    """|dx| over the last axis, summed axis by axis: a point gets the same
    norm alone as among many, which a numpy reduction does not promise."""
    square = dx[..., 0] * dx[..., 0]
    for i in range(1, dx.shape[-1]):
        square = square + dx[..., i] * dx[..., i]
    return np.sqrt(square)


def _batch(d, prepare, x, y, t):
    """The points of a batch for ``base_integrand``: x and y stacked as (n, d)
    arrays, and per point prepare(x_i, y_i, t_i) on its points as read by
    ``_points`` and its time checked by ``_times``, or the exception any of
    them raised, which fails that point alone."""
    xs, ys, setup = np.zeros((len(t), d)), np.zeros((len(t), d)), []
    for i, (xi, yi, ti) in enumerate(zip(x, y, t)):
        try:
            xs[i], ys[i] = _points(xi, yi, d)
            setup.append(prepare(xs[i], ys[i], float(_times(ti))))
        except Exception as exc:  # a point that cannot be integrated fails on its own
            setup.append(exc)
    return xs, ys, setup


def _check_order(kernel, k):
    """Require 1 <= k <= ``max_derivative_order()``: a value is ``value``."""
    kmax = kernel.max_derivative_order()
    if not 1 <= k <= kmax:
        raise CapabilityError(f"{type(kernel).__name__} in d = {kernel.d}: derivative order {k} not in 1..{kmax}")


def _times(t):
    """t as a float array, checked 0 < t < inf."""
    t = np.asarray(t, dtype=float)
    if not ((t > 0.0) & (t < math.inf)).all():
        raise DomainError("kernel requires 0 < t < inf")
    return t


def _value(self, t, x, y, **kw):
    """G(t, x, y) = exp(``log_value``), by ``math.exp`` for one time (numpy's
    differs in the last bit).  Each class binds it as ``value`` in its own
    body, where perfbench's tracer patches it."""
    log_g = self.log_value(t, x, y, **kw)
    return math.exp(log_g) if np.ndim(log_g) == 0 else np.exp(log_g)


def _derivative(self, t, x, y, k):
    """The signed d^k G / dx_0^k = sign exp(log|d^k G|) of the family's
    ``_log_derivative``, bound as ``derivative`` like ``_value``."""
    _check_order(self, k)
    log_dk, sign = self._log_derivative(t, x, y, k)
    out = sign * np.exp(log_dk)
    return float(out) if out.ndim == 0 else out


def _log_positive(v):
    """log v where v > 0, -inf elsewhere."""
    with np.errstate(divide="ignore"):
        return np.where(v > 0.0, np.log(np.abs(v)), -np.inf)


# ---------------------------------------------------------------------------
# constant-coefficient diffusion
# ---------------------------------------------------------------------------

class ConstantDiffusion:
    """Divergence-form generator with constant SPD diffusion matrix."""

    family = "constant_diffusion"
    envelope_family = "diffusion"
    alpha = None
    rule_tol = 1e-10

    def __init__(self, d, matrix=None):
        self.d = int(d)
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        A = np.eye(self.d) if matrix is None else np.atleast_2d(np.asarray(matrix, dtype=float))
        if A.shape != (self.d, self.d):
            raise DomainError(f"diffusion matrix must be {self.d}x{self.d}")
        if not np.allclose(A, A.T, atol=1e-12):
            raise DomainError("diffusion matrix must be symmetric")
        evals = np.linalg.eigvalsh(A)
        if evals.min() <= 0:
            raise DomainError("diffusion matrix must be positive definite")
        self.matrix = A
        self._inv = np.linalg.inv(A)
        self._logdet = float(np.linalg.slogdet(A)[1])
        self.horizon = None

    def _quad_form(self, dx):
        """(x - y)' A^{-1} (x - y) and the first entry of A^{-1} (x - y) from
        dx = x - y over its last axis, as stacked products of one row each,
        so a point gets the same values alone as among many."""
        w = dx[..., None, :] @ self._inv
        return (w @ dx[..., :, None])[..., 0, 0], w[..., 0, 0]

    def log_value(self, t, x, y):
        """log G(t, x, y); ``t`` may be an array of times, and x and y one point per time."""
        t = _times(t)
        q, _ = self._quad_form(np.subtract(*_points(x, y, self.d, t)))
        out = -0.5 * self.d * np.log(4.0 * math.pi * t) - 0.5 * self._logdet - q / (4.0 * t)
        return float(out) if out.ndim == 0 else out

    value = _value

    def max_derivative_order(self) -> int:
        return 2

    derivative = _derivative

    def _log_derivative(self, t, x, y, k):
        """(log|d^k G / dx_0^k|, sign) at times t, k = 1 or 2: d^k G = factor
        * G, and for k = 2 the factor changes sign at t = w1^2 / 2a."""
        log_g = self.log_value(t, x, y)
        _, w1 = self._quad_form(np.subtract(*_points(x, y, self.d, t)))
        a = float(self._inv[0, 0])
        factor = -w1 / (2.0 * t) if k == 1 else (w1 / (2.0 * t)) ** 2 - a / (2.0 * t)
        return _log_positive(np.abs(factor)) + log_g, np.sign(factor)

    def base_integrand(self, x, y, k, t, beta):
        """d^k G / dx_0^k for the subordination rule (see the module docstring)."""

        def prepare(x, y, t):
            q, w1 = self._quad_form(x - y)
            if q == 0.0 and (k == 2 or (k == 0 and self.d >= 2)):  # A is positive definite: x = y
                raise DomainError("fractional kernel diverges on the diagonal for d + k >= 2")
            return None if k == 1 and w1 == 0.0 else (float(q), None)

        xs, ys, setup = _batch(self.d, prepare, x, y, t)
        if k == 0:
            return (lambda s, i: (self.log_value(s, xs[i], ys[i]), 1.0)), setup
        return (lambda s, i: self._log_derivative(s, xs[i], ys[i], k)), setup


# ---------------------------------------------------------------------------
# stable profiles: one Fourier-moment transform, one tail series
# ---------------------------------------------------------------------------

def _fourier_moment(alpha, m, trig, sigma):
    """F(sigma) = Int_0^inf xi^m e^{-xi^alpha} trig(sigma xi) dxi, ``trig`` "cos" or "sin".

    Closed forms at sigma = 0 (any m) and at alpha = 1; otherwise m is 0 or
    1.  For alpha < 1, and for alpha > 1 in the far field (sigma > 4), the
    integral is taken along the ray xi = v e^{i theta} on which the
    oscillation no longer fights the decay: the contour theta = pi/2 and
    the ray theta = pi/(2 alpha), the standard rotations for stable
    densities (Nolan, Stoch. Models 1997).  For alpha < 1 and sigma < 1 the
    ray is theta = pi/4: on pi/2 the decay e^{-v^alpha cos(alpha theta)}
    is so slow that quad loses the integral to roundoff.  For alpha < 1 the
    ray is integrated in w = v^alpha, where that decay has an O(1) scale: in
    v it spans v ~ 40^{1/alpha}, and at alpha = 0.2 quad lost F_{1,sin} at
    sigma = 5.7e-5 to roundoff (99 % off).  Its absolute tolerance is the
    rounding of the integrand's mass.  Near the origin,
    alpha > 1 uses oscillatory-weight quadrature on the real axis, cut
    where xi^m e^{-xi^alpha} falls below e^{-40}, with a relative tolerance
    of 1e-11: at quad's default of 1.5e-8 a node could be 1e-7 off.
    """
    sigma = abs(float(sigma))  # a numpy scalar would slow every integrand call
    if sigma == 0.0:
        return math.gamma((m + 1.0) / alpha) / alpha if trig == "cos" else 0.0
    if alpha == 1.0:
        z = math.factorial(m) / complex(1.0, -sigma) ** (m + 1)
        return z.real if trig == "cos" else z.imag
    if alpha > 1.0 and sigma <= 4.0:
        f = (lambda xi: xi * math.exp(-xi ** alpha)) if m else (lambda xi: math.exp(-xi ** alpha))
        val, _ = quad(f, 0.0, (40.0 + 2.0 * m) ** (1.0 / alpha), weight=trig, wvar=sigma,
                      epsabs=1e-13, epsrel=1e-11, limit=400)
        return val
    theta = math.pi / (2.0 * alpha) if alpha > 1.0 else math.pi / 2.0 if sigma >= 1.0 else math.pi / 4.0
    # on the ray xi^alpha = v^alpha (a + i b) and i sigma xi = (-damp + i drift) v;
    # v is measured in units of the decay length 1/(sigma sin theta) once
    # that is below 1, so quad sees an O(1) scale however far out sigma is
    scale = max(1.0, sigma * math.sin(theta))
    a, b = math.cos(alpha * theta) / scale ** alpha, math.sin(alpha * theta) / scale ** alpha
    damp, drift, phase = sigma * math.sin(theta) / scale, sigma * math.cos(theta) / scale, (m + 1) * theta
    wave, exp = getattr(math, trig), math.exp

    if alpha < 1.0:
        power, root = (m + 1.0) / alpha - 1.0, 1.0 / alpha

        def fw(w):  # alpha v^m f0(v) dv/dw at v = w^{1/alpha}
            v = w ** root
            return w ** power * exp(-damp * v - a * w) * wave(phase + drift * v - b * w)

        # each decay alone bounds Int |fw| by `mass`; a value cancelled far
        # below it (sin at tiny sigma, cos near a zero of F) is known only
        # to the rounding of that mass, so quad is asked for no more
        mass = min(math.gamma(power + 1.0) / a ** (power + 1.0), alpha * math.factorial(m) / damp ** (m + 1))
        val, _ = quad(fw, 0.0, np.inf, epsabs=max(1e-13, 1e-14 * mass), epsrel=1e-11, limit=400)
        return val / (alpha * scale ** (m + 1))

    def f0(v):
        va = v ** alpha
        return exp(-damp * v - a * va) * wave(phase + drift * v - b * va)

    def f1(v):  # v * f0(v) written out: the nested call would cost a third more
        va = v ** alpha
        return v * exp(-damp * v - a * va) * wave(phase + drift * v - b * va)

    val, _ = quad(f1 if m else f0, 0.0, np.inf, epsabs=1e-14, epsrel=1e-11, limit=400)
    return val / scale ** (m + 1)


@lru_cache(maxsize=64)
def _tail_coefficients(alpha, m, trig):
    """(log_coef, weight, power) of the large-sigma series of ``_fourier_moment``,
    sum_{k>=0} (-1)^k Gamma(p) / k! * trig(pi p / 2) * sigma^{-p} with
    p = k alpha + m + 1, without the terms whose trig factor vanishes."""
    k = np.arange(200, dtype=float)
    p = k * alpha + m + 1.0
    weight = (-1.0) ** k * getattr(np, trig)(math.pi * p / 2.0)
    keep = np.abs(weight) >= 1e-12
    return _frozen((gammaln(p) - gammaln(k + 1.0))[keep], weight[keep], p[keep])


@lru_cache(maxsize=64)
def _tail_series(alpha, m, trig):
    """The large-sigma series of ``_fourier_moment``: asymptotic for alpha > 1,
    so it stops at its smallest term, convergent below."""
    return _InversePowerSeries(*_tail_coefficients(alpha, m, trig), asymptotic=alpha > 1.0)


_TAIL_RHO = 60.0
_RADIAL_TAIL_RHO = 20.0
_MIN_ALPHA = 0.2  # below it some spline nodes of _fourier_moment are not finite


def _peak_width(alpha):
    """sqrt(Gamma(3/alpha)/Gamma(5/alpha)), the width of the peak of P_1'/rho."""
    return math.exp(0.5 * (gammaln(3.0 / alpha) - gammaln(5.0 / alpha)))


class _LogSpline:
    """log|f| of a profile f, even in rho and of one sign, splined up to rho =
    cap with zero slope at 0, on nodes uniform in u = log(1 + rho/L).  The
    width L = sqrt(Gamma(3/alpha)/Gamma(5/alpha)) of the peak of P_1'/rho
    (0.4 at alpha = 1.2, 2e-4 at 0.3) makes u uniform in rho across the peak
    and in log rho along the power tail.  Above alpha = 1.5 log|f| bends from
    a Gaussian-like core to the tail near rho = 5 within a width in u that
    shrinks like 1/log(1/(2 - alpha)), and so does the spacing."""

    def __init__(self, alpha, cap, log_abs):
        self.width = _peak_width(alpha)
        top = math.log1p(cap / self.width)
        step = 0.01 / (1.0 + max(0.0, math.log(0.5 / (2.0 - alpha))))
        u = np.linspace(0.0, top, int(math.ceil(top / step)) + 1)
        self._spline = CubicSpline(u, log_abs(self.width * np.expm1(u)), bc_type=((1, 0.0), "not-a-knot"))

    def __call__(self, rho):
        return self._spline(np.log1p(rho / self.width))


def _spline_or_tail(rho, cap, spline, tail):
    """The spline up to cap, the tail series beyond."""
    rho = np.abs(np.asarray(rho, dtype=float))
    inside = rho <= cap
    if inside.all():
        return spline(rho)
    out = np.empty_like(rho)
    out[inside] = spline(rho[inside])
    out[~inside] = tail(rho[~inside])
    return out


@lru_cache(maxsize=32)
class _profile_1d:
    """Spline-cached unit-time profile P(rho) = F_{0,cos}/pi for d = 1 and its
    derivative P' = -F_{1,sin}/pi, kept as -P'/rho: even, F_{2,cos}(0)/pi at
    rho = 0, and the d = 3 profile times 2 pi.  Each is built on first use,
    so d = 2 and d = 3 never build the value spline."""

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def _spline(self, f):
        return _LogSpline(self.alpha, _TAIL_RHO, lambda rho: np.log([f(r) for r in rho]))

    @cached_property
    def _log_value(self):
        return self._spline(lambda r: _fourier_moment(self.alpha, 0, "cos", r) / math.pi)

    @cached_property
    def _log_minus_over_rho(self):
        return self._spline(lambda r: (_fourier_moment(self.alpha, 1, "sin", r) / r if r else
                                       _fourier_moment(self.alpha, 2, "cos", 0.0)) / math.pi)

    def log_value(self, rho):
        return _spline_or_tail(rho, _TAIL_RHO, self._log_value,
                               lambda r: np.log(_tail_series(self.alpha, 0, "cos")(r) / math.pi))

    def log_minus_deriv_over_rho(self, rho):
        """log(-P'(rho)/rho)."""
        return _spline_or_tail(rho, _TAIL_RHO, self._log_minus_over_rho,
                               lambda r: np.log(_tail_series(self.alpha, 1, "sin")(r) / (math.pi * r)))


class _profile_3d:
    """P_3 = -P_1'/(2 pi rho), the dimension walk from the d = 1 derivative spline."""

    def __init__(self, alpha):
        self._walk = _profile_1d(alpha)

    def log_value(self, rho):
        return self._walk.log_minus_deriv_over_rho(rho) - math.log(2.0 * math.pi)


@lru_cache(maxsize=32)
def _abel_coefficients(alpha):
    """Tail series of P_2 = Int_0^inf F_{1,sin}(rho cosh u) du / pi^2, the
    inverse Abel transform of P_1' = -F_{1,sin}/pi: each F_{1,sin} tail term
    times Int_0^inf cosh(u)^{-p} du = sqrt(pi) Gamma(p/2) / (2 Gamma((p+1)/2))."""
    log_coef, weight, p = _tail_coefficients(alpha, 1, "sin")
    log_abel = math.log(math.sqrt(math.pi) / (2.0 * math.pi ** 2)) + gammaln(p / 2.0) - gammaln((p + 1.0) / 2.0)
    return _frozen(log_coef + log_abel, weight, p)


@lru_cache(maxsize=32)
def _radial_tail_series(alpha):
    """The tail series of the d = 2 profile (``_abel_coefficients``)."""
    return _InversePowerSeries(*_abel_coefficients(alpha), asymptotic=alpha > 1.0)


@lru_cache(maxsize=32)
class _profile_2d:
    """Spline-cached unit-time profile P_2(rho) for d = 2, built on first use:
    the spline up to _RADIAL_TAIL_RHO, the tail series beyond.  The nodes are
    the inverse Abel transform P_2(rho) = -(1/pi) Int_0^inf P_1'(rho cosh u) du:
    Gauss-Legendre in u on the d = 1 spline up to rho cosh u = _TAIL_RHO, the
    P_1' tail integrated termwise beyond, Int_U^inf cosh(u)^{-p} du =
    B(p/2, 1/2) I_{1/cosh^2 U}(p/2, 1/2) / 2, and Gamma(2/alpha)/(2 pi alpha)
    at rho = 0."""

    def __init__(self, alpha):
        self.alpha = float(alpha)

    @cached_property
    def _log_value(self):
        return _LogSpline(self.alpha, _RADIAL_TAIL_RHO, self._abel)

    def _abel(self, nodes):
        rho = nodes[1:].reshape(-1, 1)  # nodes[0] = 0
        x, w = np.polynomial.legendre.leggauss(64)
        top = np.arccosh(_TAIL_RHO / rho)
        r = rho * np.cosh(0.5 * top * (x + 1.0))  # -P_1'(r) = r (-P_1'/r)
        body = 0.5 * top[:, 0] * ((r * np.exp(_profile_1d(self.alpha).log_minus_deriv_over_rho(r))) @ w) / math.pi
        log_coef, weight, p = _abel_coefficients(self.alpha)
        with np.errstate(divide="ignore"):  # I_T underflows to 0 in the high terms at small rho
            log_env = log_coef - p * np.log(rho) + np.log(betainc(p / 2.0, 0.5, (rho / _TAIL_RHO) ** 2))
        counts = _term_counts(log_env, asymptotic=self.alpha > 1.0)
        values = body + _leading_terms_sum(weight, lambda rows, n: log_env[rows, :n], counts)
        if np.any(values <= 0.0):
            raise CapabilityError("Abel transform lost positivity; out of validated range")
        origin = math.gamma(2.0 / self.alpha) / (2.0 * math.pi * self.alpha)
        return np.log(np.concatenate([[origin], values]))

    def log_value(self, rho):
        return _spline_or_tail(rho, _RADIAL_TAIL_RHO, self._log_value,
                               lambda r: np.log(_radial_tail_series(self.alpha)(r)))


_PROFILES = {1: _profile_1d, 2: _profile_2d, 3: _profile_3d}


class IsotropicStable:
    """Rotationally invariant stable generator with symbol -|xi|^alpha."""

    family = "isotropic_stable"
    envelope_family = "stable"
    rule_tol = 1e-8

    def __init__(self, d, alpha):
        self.d = int(d)
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        self.alpha = _alpha_value(alpha)
        self.horizon = None
        if self.alpha < _MIN_ALPHA:
            raise CapabilityError(f"isotropic stable profiles validated for alpha >= {_MIN_ALPHA}")
        if self.alpha < 2.0 and self.d not in _PROFILES:
            raise CapabilityError("isotropic stable kernels implemented for d in {1, 2, 3} below alpha = 2")
        # alpha = 2 short-circuits to the Gaussian closed form everywhere
        self._profile = _PROFILES[self.d](self.alpha) if self.alpha < 2.0 else None

    def log_profile(self, rho):
        """log P(rho), vectorised over an array of rho."""
        rho = np.abs(np.asarray(rho, dtype=float))
        if self.alpha == 2.0:
            return -rho * rho / 4.0 - 0.5 * self.d * math.log(4.0 * math.pi)
        return self._profile.log_value(rho)

    def log_value(self, t, x, y):
        """log G(t, x, y), a function of |x - y|; ``t`` may be an array of
        times, and x and y one point per time."""
        t = _times(t)
        r = _norm(np.subtract(*_points(x, y, self.d, t)))
        out = -self.d / self.alpha * np.log(t) + self.log_profile(r * t ** (-1.0 / self.alpha))
        return float(out) if out.ndim == 0 else out

    value = _value

    def max_derivative_order(self) -> int:
        return 1 if self.d == 1 else 0

    derivative = _derivative

    def _log_derivative(self, t, x, y, k):
        """(log|dG/dx|, sign) at times t, d = 1 and k = 1: dG/dx = -(x - y)
        t^{-3/alpha} (-P'/rho)(rho), rho = |x - y| t^{-1/alpha}, with -P'/rho
        = P/2 at alpha = 2; the sign is that of y - x, +0 on the diagonal."""
        t = _times(t)
        rr = np.subtract(*_points(x, y, 1, t))[..., 0]
        rho = np.abs(rr) * t ** (-1.0 / self.alpha)
        log_p = (self.log_profile(rho) - math.log(2.0) if self.alpha == 2.0
                 else self._profile.log_minus_deriv_over_rho(rho))
        return _log_positive(np.abs(rr)) - 3.0 / self.alpha * np.log(t) + log_p, np.sign(-rr)

    def base_integrand(self, x, y, k, t, beta):
        """G (any d) or dG/dx (d = 1) for the subordination rule (see the module docstring)."""

        def prepare(x, y, t):
            r = float(_norm(x - y))
            if r == 0.0 and k == 0 and self.d >= self.alpha:
                raise DomainError("fractional kernel diverges on the diagonal for d >= alpha")
            return None if r == 0.0 and k else (r ** self.alpha, None)

        xs, ys, setup = _batch(self.d, prepare, x, y, t)
        if k == 0:
            return (lambda s, i: (self.log_value(s, xs[i], ys[i]), 1.0)), setup
        return (lambda s, i: self._log_derivative(s, xs[i], ys[i], k)), setup


# ---------------------------------------------------------------------------
# anisotropic 2-D stable
# ---------------------------------------------------------------------------

# the scaled radius up to which the cosine transform is splined and the
# anisotropic remainder is integrated (see AnisotropicStable2D)
_COS_SPLINE_CAP = 400.0
_REMAINDER_BLOCK = 1 << 16  # rows times angles per block of the remainder
_MEASURE_SAMPLES = 256  # angles of a measure built from a callable or a constant


@lru_cache(maxsize=1)
def _remainder_rule():
    """The remainder's rule in u, the angle to the nearer crossing: 12-node
    Gauss-Legendre panels [E_{k+1}, E_k], E_k = r^k pi/2, r = 0.35, for k < 13,
    then [0, E_13], below 1e-3/_COS_SPLINE_CAP.  Returns the E_k; the rule, as
    nodes u, weights and theta - phi = +-(pi/2 - u); and the table that
    ``AnisotropicStable2D._log_g`` reads, those and sin u at the rule's nodes
    followed by those of each merged panel [0, E_k]."""
    edges = np.append(0.5 * math.pi * 0.35 ** np.arange(14), 0.0)
    x, w = np.polynomial.legendre.leggauss(12)
    lo, hi = np.append(edges[1:], np.zeros(14)), np.tile(edges[:-1], 2)
    half = 0.5 * (hi - lo)[:, None]
    u = (lo[:, None] + half * (1.0 + x)).ravel()
    table = _frozen(u, (half * w).ravel(), np.stack([0.5 * math.pi - u, u - 0.5 * math.pi]), np.sin(u))
    n = u.size // 2
    return _frozen(edges[:-1])[0], (table[0][:n], table[1][:n], table[2][:, :n]), table


@lru_cache(maxsize=32)
class _RadialCosSpline:
    """C_alpha(sigma) = Int_0^inf rho e^{-rho^alpha} cos(sigma rho) drho = F_{1,cos}
    up to _COS_SPLINE_CAP, the tail series beyond: an interpolating spline of
    degree 7 on nodes 0.02 apart in u = log(1 + sigma/L), L the peak width of
    ``_LogSpline``, within about 1e-13 of C(0) where the nodes are exact."""

    def __init__(self, alpha):
        self.alpha = float(alpha)
        self.width = _peak_width(self.alpha)
        top = math.log1p(_COS_SPLINE_CAP / self.width)
        u = np.linspace(0.0, top, int(math.ceil(top / 0.02)) + 1)
        nodes = [_fourier_moment(self.alpha, 1, "cos", s) for s in self.width * np.expm1(u)]
        self._spline = PPoly.from_spline(make_interp_spline(u, nodes, k=7))

    def __call__(self, sigma):
        return _spline_or_tail(sigma, _COS_SPLINE_CAP, lambda s: self._spline(np.log1p(s / self.width)),
                               _tail_series(self.alpha, 1, "cos"))


def _uniform_angles(n):
    return np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)


def _periodic_spline(angles, values):
    """Periodic cubic interpolant of samples at increasing angles less than one turn apart."""
    return CubicSpline(np.append(angles, angles[0] + 2.0 * math.pi), np.append(values, values[0]),
                       bc_type="periodic")


class SpectralMeasure:
    """Spectral density on the unit circle, kept on a uniform angular grid:
    samples given at other angles are resampled onto as many uniform angles
    by their periodic cubic interpolant."""

    def __init__(self, density_values, *, angles=None):
        vals = np.asarray(density_values, dtype=float)
        if vals.ndim != 1 or vals.size < 8:
            raise DomainError("need at least 8 angular density samples")
        if np.any(vals <= 0.0):
            raise DomainError("spectral density must be strictly positive")
        self.angles = _uniform_angles(vals.size)
        if angles is not None:
            angles = np.asarray(angles, dtype=float)
            if angles.shape != vals.shape or np.any(np.diff(angles) <= 0.0) or angles[-1] - angles[0] >= 2.0 * math.pi:
                raise DomainError("density angles must increase and lie within one turn")
            vals = _periodic_spline(angles, vals)(self.angles)
        self.values = vals

    @classmethod
    def from_callable(cls, fn):
        return cls(np.array([fn(a) for a in _uniform_angles(_MEASURE_SAMPLES)]))

    @classmethod
    def uniform(cls, alpha):
        """Uniform measure normalised so that w_mu is identically 1."""
        alpha = _alpha_value(alpha)
        mean_abs_cos = (
            math.gamma((alpha + 1.0) / 2.0) / (math.sqrt(math.pi) * math.gamma(alpha / 2.0 + 1.0))
        )
        const = 1.0 / (2.0 * math.pi * mean_abs_cos)
        return cls(np.full(_MEASURE_SAMPLES, const))

    def w_values(self, alpha):
        """w_mu on the angular grid: w(theta) = Int |cos(theta - s)|^alpha mu(ds), on
        the remainder's rule, graded into the cusps of |cos|^alpha at +-pi/2."""
        alpha = _alpha_value(alpha)
        dens = _periodic_spline(self.angles, self.values)
        _, (_, wt, psi), _ = _remainder_rule()
        deltas = np.concatenate([psi.ravel(), math.pi + psi.ravel()])
        args = (self.angles[:, None] - deltas) % (2.0 * math.pi)
        return (np.abs(np.cos(deltas)) ** alpha * dens(args)) @ np.tile(wt, 4)


class AnisotropicStable2D:
    """2-D stable generator with symbol -|xi|^alpha w_mu(xi/|xi|).

    G(t, x) = (2 pi)^{-2} Int_0^{2 pi} f(theta, w_mu(theta)) dtheta, f(theta, W)
    = (t W)^{-2/alpha} C_alpha(|x| cos(theta - phi) (t W)^{-1/alpha}), phi the
    angle of x.  Both crossings theta = phi +- pi/2 see W_c = w(phi + pi/2) (w
    is pi-periodic), and G = G_frozen + R: G_frozen, the integral of f(theta,
    W_c), is the isotropic kernel at time t W_c; R, that of f(theta, w) -
    f(theta, W_c), has no O(1/sigma) crossing mass and takes the graded rule
    ``_remainder_rule``, sized to each row.  Below the time t_cap at which
    sigma_max = |x| (t min w)^{-1/alpha} reaches _COS_SPLINE_CAP, R is
    R(t_cap) t / t_cap.
    """

    family = "anisotropic_stable_2d"
    envelope_family = "stable"
    rule_tol = 1e-7

    def __init__(self, alpha, spectral_measure: SpectralMeasure):
        self.alpha = _alpha_value(alpha)
        if self.alpha >= 2.0:
            raise DomainError("anisotropic family requires alpha in (0, 2)")
        if self.alpha < _MIN_ALPHA:
            raise CapabilityError(f"anisotropic stable kernels validated for alpha >= {_MIN_ALPHA}")
        self.d = 2
        self.measure = spectral_measure
        self.w = spectral_measure.w_values(self.alpha)
        if np.any(self.w <= 0.0):
            raise DomainError("w_mu must be strictly positive")
        self.horizon = None
        self._w_min = float(np.min(self.w))
        self._w = _periodic_spline(spectral_measure.angles, self.w)
        self._cos = _RadialCosSpline(self.alpha)
        self._profile = _profile_2d(self.alpha)

    def _log_g(self, t, rho, phase):
        """log G at times t and offsets of radius rho and angle phase, 1-D
        arrays of one length or scalars; with one phase w is evaluated once.
        A row of R takes the first k panels of ``_remainder_rule`` and its
        k-th merged panel [0, E_k], the last edge with sigma0 E_k w_min^{-1/alpha}
        <= 1/4: C_alpha's argument stays below 1/4 there."""
        a, (edges, rule, (u, wt, psi, sin_u)) = self.alpha, _remainder_rule()
        n = rule[0].size  # the merged panel [0, E_k] at n + 12 k
        s = np.maximum(t, (rho / _COS_SPLINE_CAP) ** a / self._w_min)  # max(t, t_cap), where R is integrated
        back = slice(None)
        if np.ndim(rho) == 0:  # one offset: every time below t_cap takes R(t_cap)
            s, back = np.unique(s, return_inverse=True)
        sigma0 = rho * s ** (-1.0 / a)
        reach = sigma0 * self._w_min ** (-1.0 / a)
        # W^{-1/alpha} at the crossing and at both crossings' nodes
        scale_c = self._w(phase + 0.5 * math.pi) ** (-1.0 / a)
        scale = self._w(phase + psi) ** (-1.0 / a) if np.ndim(phase) == 0 else None
        rem = np.empty(s.size)
        for rows in np.array_split(np.arange(s.size), -(-s.size * n // _REMAINDER_BLOCK)):
            k12 = 12 * np.count_nonzero(np.multiply.outer(reach[rows], edges) > 0.25, axis=1)  # reach <= 400: k <= 8
            cnt = k12 + 12
            ends = cnt.cumsum()
            pos = np.arange(ends[-1]) - (ends - cnt).repeat(cnt)
            at = pos + np.where(pos < k12.repeat(cnt), 0, n)
            arg = sigma0[rows].repeat(cnt) * sin_u[at]
            sc, sc_c = (scale[:, at], scale_c) if scale is not None else (
                self._w(phase[rows].repeat(cnt) + psi[:, at]) ** (-1.0 / a), scale_c[rows].repeat(cnt))
            f = (sc ** 2 * self._cos(arg * sc)).sum(axis=0) - 2.0 * sc_c ** 2 * self._cos(arg * sc_c)
            rem[rows] = np.add.reduceat(f * wt[at], ends - cnt)
        log_tc = np.log(t) - a * np.log(scale_c)  # log(t W_c)
        log_frozen = self._profile.log_value(rho * np.exp(-log_tc / a)) - 2.0 / a * log_tc
        # R(t) / G_frozen, with R(t) = s^{-2/alpha} rem t / (2 pi^2 s)
        ratio = rem[back] / (2.0 * math.pi ** 2) * np.exp(np.log(t / s[back]) - 2.0 / a * np.log(s[back]) - log_frozen)
        if np.any(ratio <= -1.0):
            raise CapabilityError("anisotropic evaluation lost positivity; out of validated range")
        return log_frozen + np.log1p(ratio)

    def log_value(self, t, x, y):
        """log G(t, x, y) at 2-vectors x, y; ``t`` may be an array of times."""
        t = _times(t)
        xv = np.subtract(*_points(x, y, 2))
        out = self._log_g(t.ravel(), float(np.hypot(xv[0], xv[1])), math.atan2(xv[1], xv[0]))
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    value = _value

    def max_derivative_order(self) -> int:
        return 0

    def base_integrand(self, x, y, k, t, beta):
        """G for the subordination rule (see the module docstring), one
        ``log_value`` call per point: ``_log_g`` evaluates w once per offset."""

        def prepare(x, y, t):
            r = float(_norm(x - y))
            if r == 0.0:
                raise DomainError("fractional kernel diverges on the diagonal for d = 2 >= alpha")
            return r ** self.alpha, None

        def log_kernel(s, i):
            if np.ndim(i) == 0:
                return self.log_value(s, xs[i], ys[i]), 1.0
            out = np.empty(s.size)
            for p in np.unique(i):
                out[i == p] = self.log_value(s[i == p], xs[p], ys[p])
            return out, 1.0

        xs, ys, setup = _batch(2, prepare, x, y, t)
        return log_kernel, setup

    def mass(self, t, half_width=None, n=401) -> float:
        """Numerical mass over a truncated square (tensor trapezoid), the grid
        evaluated through one blocked rule."""
        if half_width is None:
            half_width = 60.0 * t ** (1.0 / self.alpha)
        xs = np.linspace(-half_width, half_width, n)
        # the point (xs[i], xs[j]) at [i, j]
        vals = np.exp(self._log_g(float(t), np.hypot.outer(xs, xs).ravel(), np.arctan2.outer(xs, xs).T.ravel()))
        return float(np.trapezoid(np.trapezoid(vals.reshape(n, n), xs, axis=1), xs))


# ---------------------------------------------------------------------------
# 1-D variable-coefficient diffusion (Crank-Nicolson)
# ---------------------------------------------------------------------------

COEFFICIENT_BUILTINS = {
    "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    "sin_bump": lambda x: 1.0 + 0.5 * np.sin(np.asarray(x, dtype=float)),
}

SPECTRAL_BUILTINS = {
    "uniform": lambda theta: np.ones_like(np.asarray(theta, dtype=float)),
    "two_bump": lambda theta: 1.0 + 0.5 * np.cos(2.0 * np.asarray(theta, dtype=float)),
}


def _two_columns(path):
    """The two columns of a numeric CSV file, else ``DomainError``."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise DomainError(f"{path}: not a readable numeric CSV ({exc})") from None
    if data.shape[1] != 2:
        raise DomainError(f"{path}: need two columns, got {data.shape[1]}")
    return data[:, 0], data[:, 1]


def coefficient_from_csv(path):
    """Callable coefficient from a two-column (x, value) CSV file, x strictly increasing."""
    xs, vals = _two_columns(path)
    if not np.all(np.diff(xs) > 0.0):
        raise DomainError(f"{path}: the x column must strictly increase")
    return lambda x: np.interp(np.asarray(x, dtype=float), xs, vals)


def spectral_density_from_csv(path):
    """SpectralMeasure from a two-column (angle, value) CSV file."""
    angles, vals = _two_columns(path)
    return SpectralMeasure(vals, angles=angles)


# the symmetrising scales stay within e^{+-_LOG_SCALE_MAX}, so u / s and s x
# stay finite for any u the scheme produces
_LOG_SCALE_MAX = 300.0


class _ThetaStepper:
    """One theta-scheme step (I - theta dt A) u_new = (I + (1 - theta) dt A) u
    for the tridiagonal A = (lower, diag, upper) with zero Dirichlet ends,
    written over u (a contiguous 1-D array).

    With M = I - theta dt A the explicit half is (I - (1 - theta) M) / theta,
    so a step is u <- (M^{-1} u - (1 - theta) u) / theta on the interior
    nodes: one solve and no matrix product.  While every coupling is positive
    (cell Peclet number |b| h / (2a) below 1), M = D (I - theta dt S) D^{-1}
    with D = diag(s), s_{i+1} / s_i = sqrt(lower_{i+1} / upper_i) and s = 1 at
    the centre node (the source, so a domain widened about it keeps the
    scales of its old nodes), and S symmetric with off-diagonal
    sqrt(lower_{i+1} upper_i).  I - theta dt S is then factored by LAPACK
    pttrf (LDL', no pivoting) and solved by pttrs.  A step matrix that
    cannot take that path (a coupling <= 0, a scale beyond e^{+-_LOG_SCALE_MAX},
    or pttrf finding it not positive definite) is factored by the pivoting
    LU of gttrf and solved by gttrs instead; ``symmetric`` says which path
    the current factors take.  Factors are kept while (dt, theta) repeats, so
    the constant-step phase of a run factors once."""

    def __init__(self, lower, diag, upper):
        # interior nodes only: node k couples to k + 1 through upper, k + 1 to k through lower
        self.diag, self.lower, self.upper = diag[1:-1], lower[2:-1], upper[1:-2]
        self.scale = None
        if np.all(self.lower > 0.0) and np.all(self.upper > 0.0):
            ratio = 0.5 * np.log(self.lower / self.upper)  # log(s_{k+1} / s_k)
            c = (diag.size - 1) // 2 - 1  # the centre node, counted from the first interior node
            log_s = np.zeros(self.diag.size)
            log_s[c + 1:] = np.cumsum(ratio[c:])
            log_s[:c] = -np.cumsum(ratio[:c][::-1])[::-1]
            if np.max(np.abs(log_s)) < _LOG_SCALE_MAX:
                self.scale, self.coupling = np.exp(log_s), np.sqrt(self.lower * self.upper)
        self._key = self._factors = self.symmetric = None

    def _factor(self, w):
        """Factors of the interior M = I - w A, symmetrised where it can be."""
        if self.scale is not None:
            d, e, info = dpttrf(1.0 - w * self.diag, -w * self.coupling, overwrite_d=1, overwrite_e=1)
            if info == 0:
                return True, (d, e)
        *lu, info = dgttrf(-w * self.lower, 1.0 - w * self.diag, -w * self.upper,
                           overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info:
            raise np.linalg.LinAlgError("singular Crank-Nicolson step matrix")
        return False, lu

    def __call__(self, u, dt, theta):
        if (dt, theta) != self._key:
            self._factors = None  # free the old factors first
            self.symmetric, self._factors = self._factor(theta * dt)
            self._key = (dt, theta)
        u[0] = u[-1] = 0.0
        v = u[1:-1]
        if self.symmetric:
            x, info = dpttrs(*self._factors, v / self.scale, overwrite_b=1)
            x *= self.scale
        else:
            x, info = dgttrs(*self._factors, v)
        if theta == 1.0:
            v[:] = x
        else:
            v *= theta - 1.0
            v += x
            v /= theta


# stored rungs: each the first step at or after _LADDER_Q times the last rung
_LADDER_Q = 1.05
# a widened domain holds the Gaussian-tail rule at this multiple of the
# step's end time, and past the horizon the step grows by this factor, so
# each is refactored about once per 25 % of elapsed time
_WIDEN_AHEAD = 1.25


def _step_sizes(t, dt0, dt, horizon):
    """Step sizes after the Rannacher start-up, which ends at t with step
    dt0: a geometric ramp up to the working step dt, which keeps each step a
    small fraction of elapsed time so the Crank-Nicolson truncation error
    (dt/t)^2 stays uniformly small through the transient, then dt up to the
    horizon.  Past it a step from time t is dt times the largest power of
    ``_WIDEN_AHEAD`` not above t / t_ref, t_ref the horizon or the ramp's end,
    whichever is later: no step is a larger fraction of t than dt is of
    t_ref, so the error (dt/t)^2 does not grow, and a far clip costs few
    steps."""
    dtv = dt0
    while dtv < dt * 0.999:
        dtv = max(min(dtv * 1.05, 0.05 * t, dt), dt0)
        t += dtv
        yield dtv
    grow, t_ref = 1.0, max(horizon, t)
    while True:
        while grow * _WIDEN_AHEAD <= t / t_ref:
            grow *= _WIDEN_AHEAD
        dtv = dt * grow
        t += dtv
        yield dtv


class _History:
    """Crank-Nicolson evolution from a point source at y, grown in place.

    One work vector is stepped forward through the run's fixed sequence of
    step sizes (Rannacher start-up, geometric ramp, the working step up to
    the kernel's horizon and steps growing with t past it, ``_step_sizes``)
    and never restarted: ``extend`` continues it until a rung at or after
    the asked time is stored.  The domain widens with t: when the kernel's
    half-width rule at a step's end time passes it, it widens to the rule at
    ``_WIDEN_AHEAD`` times that time, capped by a user half-width.  Only
    rungs are stored, each the first step at or after ``_LADDER_Q`` times
    the last: ``times``, ``rung_nodes`` (each rung's half-width in nodes) and
    ``profiles``, the rungs' values back to back, each on its own domain.
    ``xs`` is the widest domain so far.  Rungs, widths and step times depend
    on t alone, so a value does not depend on how far the history had been
    grown when it was read.
    """

    def __init__(self, kernel, y):
        # no reference to the kernel, which holds this history
        self.y, self.dx, self.t_splice, self.a, self.c = y, kernel.dx, kernel.t_splice, kernel.a, kernel.c
        self.cap_nodes = None if kernel._half_width is None else kernel._half_nodes(math.inf)
        dt0 = min(kernel.dt / 8.0, kernel.t_splice / 8.0)
        m = kernel._half_nodes(_WIDEN_AHEAD * 2.0 * dt0)
        # the source sits exactly on a node: a half-cell offset would shift
        # the whole fundamental solution by dx/2
        self.xs = y + self.dx * np.arange(-m, m + 1, dtype=float)
        self._step = _ThetaStepper(*kernel._step_matrices(self.xs))
        self._u = np.zeros(self.xs.size)
        self._u[m] = 1.0 / self.dx
        # Rannacher start-up: damped implicit-Euler half steps kill the
        # point-mass ringing that plain Crank-Nicolson would carry
        t = 0.0
        for _ in range(4):
            self._step(self._u, dt0 / 2.0, 1.0)
            t += dt0 / 2.0
        self._dts = _step_sizes(t, dt0, kernel.dt, kernel.horizon)
        self.times = np.array([t])
        self.rung_nodes = np.array([m])
        self.profiles = self._u.copy()
        self._centres = np.array([m])  # index of each rung's source node in profiles

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def extend(self, kernel, t_max):
        """Step on until a rung at or after t_max is stored, with the
        coefficients and half-width rule of ``kernel``."""
        # the work vector always sits at the last rung
        u, m, t, rungs = self._u, int(self.rung_nodes[-1]), self.t_max, []
        last = t
        while last < t_max:
            dtv = next(self._dts)
            t += dtv
            if kernel._half_nodes(t) > m:
                m_new = kernel._half_nodes(_WIDEN_AHEAD * t)
                u, m = np.pad(u, m_new - m), m_new
                self._step = _ThetaStepper(*kernel._step_matrices(self.y + self.dx * np.arange(-m, m + 1)))
            self._step(u, dtv, 0.5)
            if t >= last * _LADDER_Q:
                last = t
                rungs.append((t, m, u.copy()))
        if not rungs:
            return
        times, nodes, rows = zip(*rungs)
        self._u = u
        self.times = np.concatenate([self.times, times])
        self.rung_nodes = np.concatenate([self.rung_nodes, nodes])
        self.profiles = np.concatenate([self.profiles, *rows])
        self._centres = np.cumsum(2 * self.rung_nodes + 1) - self.rung_nodes - 1
        self.xs = self.y + self.dx * np.arange(-m, m + 1, dtype=float)

    def log_eval(self, t, x):
        """log G at base times t and points x (arrays that broadcast; the
        spatial weights are computed once per call).  Between rungs, log(sqrt(t)
        G) is linear in 1/t, which is exact for frozen-coefficient Gaussians
        with their prefactor (G linear in t where a rung is not positive).  At
        t <= t_splice, and at a point beyond the domain of the earlier rung, G
        is that frozen-coefficient Gaussian, which never underflows here."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        r = x - self.y
        if self.cap_nodes is not None and np.any(np.abs(r) > self.cap_nodes * self.dx):
            raise HorizonError(
                f"x = {np.max(np.abs(r)) + self.y:g} outside the simulated domain, "
                f"half-width {self.cap_nodes * self.dx:g} about y = {self.y:g}"
            )
        if np.any(t > self.t_max * (1.0 + 1e-12)):
            raise HorizonError(f"history stored up to t = {self.t_max:g}, asked for {np.max(t):g}")
        mid = 0.5 * (x + self.y)
        a = self.a(mid)
        log_gauss = -r**2 / (4.0 * a * t) + self.c(mid) * t - 0.5 * np.log(4.0 * math.pi * a * t)

        # x between the nodes o and o + 1 counted from the source
        xs, m = self.xs, (self.xs.size - 1) // 2
        j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        wx = (x - xs[j]) / (xs[j + 1] - xs[j])
        o = j - m
        it = np.clip(np.searchsorted(self.times, t), 1, self.times.size - 1)

        def rung(i):
            # linear in x on rung i; nodes beyond its domain are read at its edge
            mi, c = self.rung_nodes[i], self._centres[i]
            return (1.0 - wx) * self.profiles[c + np.clip(o, -mi, mi)] + wx * self.profiles[c + np.clip(o + 1, -mi, mi)]

        t0, t1, v0, v1 = self.times[it - 1], self.times[it], rung(it - 1), rung(it)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (1.0 / t - 1.0 / t0) / (1.0 / t1 - 1.0 / t0)
            log_g = (1.0 - w) * np.log(v0 * np.sqrt(t0)) + w * np.log(v1 * np.sqrt(t1)) - 0.5 * np.log(t)
        log_g = np.where((v0 > 0.0) & (v1 > 0.0), log_g, _log_positive(v0 + (t - t0) / (t1 - t0) * (v1 - v0)))
        beyond = np.abs(r) > self.rung_nodes[it - 1] * self.dx
        return np.where((t <= self.t_splice) | beyond, log_gauss, log_g)


class VariableDiffusion1D:
    """Fundamental solution of du/dt = a(x) u'' + b(x) u' + c(x) u, 0 < t <= horizon.

    ``dx`` is the grid spacing and ``dt`` the working time step up to the
    horizon; past it the history's steps grow with t (``_step_sizes``), and
    those steps give the values read with ``allow_beyond_horizon=True`` and
    the far end of a subordination clip."""

    family = "variable_diffusion_1d"
    envelope_family = "diffusion"
    d = 1
    alpha = None
    rule_tol = 1e-4

    def __init__(self, a, b=None, c=None, horizon=1.0, *, half_width=None, dx=0.01, dt=0.01):
        self.a = a if callable(a) else COEFFICIENT_BUILTINS[a]
        self.b = (b if callable(b) else COEFFICIENT_BUILTINS[b]) if b is not None else COEFFICIENT_BUILTINS["zero"]
        self.c = (c if callable(c) else COEFFICIENT_BUILTINS[c]) if c is not None else COEFFICIENT_BUILTINS["zero"]
        self.horizon = float(horizon)
        if self.horizon <= 0:
            raise DomainError("horizon must be positive")
        self.dx = float(dx)
        self.dt = float(dt)
        self._half_width = half_width
        self._histories: dict = {}

        probe = np.linspace(-20.0, 20.0, 401)
        av = np.asarray(self.a(probe), dtype=float)
        if av.min() <= 0.0:
            raise DomainError("a(x) must be bounded away from zero")
        da = np.diff(av) / np.diff(probe)
        for name, arr in (("b", np.asarray(self.b(probe), dtype=float)),
                          ("c", np.asarray(self.c(probe), dtype=float))):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name}(x) must be bounded")
        if not np.all(np.isfinite(da)):
            raise DomainError("a(x) must be C^1 on the working domain")
        self.a_max = float(av.max())
        self.a_min = float(av.min())
        self.t_splice = max(25.0 * self.dx ** 2 / self.a_min, 1e-4)

    def _half_nodes(self, t):
        """Nodes in the half-width a run that has reached time t needs: the
        Gaussian tail below 1e-14 of its peak at the boundary, plus 3, or the
        user's half-width if that is smaller."""
        L = math.sqrt(4.0 * self.a_max * t * math.log(1e14)) + 3.0
        if self._half_width is not None:
            L = min(L, self._half_width)
        return int(math.ceil(L / self.dx))

    def _step_matrices(self, xs):
        h = self.dx
        av = np.asarray(self.a(xs), dtype=float)
        bv = np.asarray(self.b(xs), dtype=float)
        cv = np.asarray(self.c(xs), dtype=float)
        lower = av / h ** 2 - bv / (2.0 * h)
        diag = -2.0 * av / h ** 2 + cv
        upper = av / h ** 2 + bv / (2.0 * h)
        return lower, diag, upper

    def history(self, y, t_max=None) -> _History:
        """Evolution from a point source at y, stored to t_max (default: the
        horizon) or beyond.  One history is kept per source and extended in
        place when a request needs more."""
        t_max = self.horizon if t_max is None else float(t_max)
        y = float(y)
        if y not in self._histories:
            self._histories[y] = _History(self, y)
        hist = self._histories[y]
        try:
            hist.extend(self, t_max)
        except BaseException:
            del self._histories[y]  # stepped part way: it cannot be continued
            raise
        return hist

    def log_value(self, t, x, y, *, allow_beyond_horizon=False):
        """log G(t, x, y), -inf where the history is not positive; ``t`` may be
        an array of times, beyond the horizon only ``allow_beyond_horizon``."""
        t = _times(t)
        x, y = (float(v[0]) for v in _points(x, y, 1))
        if np.any(t > self.horizon) and not allow_beyond_horizon:
            raise HorizonError(f"t = {np.max(t):g} beyond horizon T = {self.horizon:g}")
        out = self.history(y, t_max=max(self.horizon, np.max(t))).log_eval(t, x)
        return float(out) if out.ndim == 0 else out

    value = _value

    def max_derivative_order(self) -> int:
        return 0

    def _clip(self, t, beta):
        """Base time a request at time t integrates to: the horizon or the
        weight's reach, whichever is later, with 2 % to spare."""
        return max(self.horizon, subordination_reach(beta, t)) * 1.02

    def base_integrand(self, x, y, k, t, beta):
        """G for the subordination rule (see the module docstring), each point
        clipped at its own ``_clip(t, beta)``, to which its source's history
        is extended."""
        hists = {}  # by source, as each point last extended it

        def prepare(x, y, t):
            x, y, t_clip = float(x[0]), float(y[0]), self._clip(t, beta)
            hists[y] = self.history(y, t_clip)
            return (x - y) ** 2, t_clip

        def log_kernel(s, i):
            x, src, out = np.broadcast_to(xs[i, 0], s.shape), np.broadcast_to(ys[i, 0], s.shape), np.empty(s.size)
            for y, hist in hists.items():
                at = src == y
                out[at] = hist.log_eval(s[at], x[at])
            return out, 1.0

        xs, ys, setup = _batch(1, prepare, x, y, t)
        return log_kernel, setup

    def grid_mass(self, t, y=0.0) -> float:
        hist = self.history(y, t_max=max(self.horizon, t))
        return float(np.trapezoid(np.exp(hist.log_eval(t, hist.xs)), hist.xs))
