"""Laplace-method leading-order asymptotics with quadrature oracles.

Two textbook formulas (minimum at the boundary / in the interior) plus the
workhorse asymptotic for integrals of the form

    J(Omega) = Int_0^1 w^N exp{-Omega w - c w^{-a}} dw
             ~ C1(a, N, c) * Omega^{-(2(N+1)+a)/(2(a+1))}
               * exp{-C2(c, a) * Omega^{a/(a+1)}},   Omega -> inf,

with C1 = (ac)^{(2(N+1)-1)/(2(a+1))} sqrt(2 pi/(a+1)) and
C2 = (ac)^{1/(a+1)} (1 + 1/a).  ``oracle_J`` evaluates J directly in log
domain; all comparisons against the asymptotic formula are meant to be done
on log values (e^{-200} underflows doubles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .errors import AccuracyError, DomainError

__all__ = [
    "LaplaceIntegrandSpec",
    "laplace_boundary",
    "laplace_boundary_log",
    "laplace_interior",
    "laplace_interior_log",
    "prop_a1_asymptotic",
    "oracle_J",
]


@dataclass(frozen=True)
class LaplaceIntegrandSpec:
    """Parameters (N, a, c, Omega) of the J integrand."""

    N: float
    a: float
    c: float
    Omega: float

    def __post_init__(self):
        if self.a <= 0 or self.c <= 0:
            raise DomainError("need a > 0 and c > 0")
        if self.Omega < 1.0:
            raise DomainError("asymptotic regime requires Omega >= 1")


def laplace_boundary_log(g_at_b, h_at_b, h_prime_at_b, lam) -> float:
    """log of g(b) (lam h'(b))^{-1} exp{-lam h(b)} for a boundary minimum."""
    if h_prime_at_b <= 0:
        raise DomainError("boundary Laplace formula needs h'(b) > 0")
    if lam <= 0:
        raise DomainError("lam must be positive")
    if g_at_b <= 0:
        raise DomainError("log form needs g(b) > 0")
    return math.log(g_at_b) - math.log(lam * h_prime_at_b) - lam * h_at_b


def laplace_boundary(g_at_b, h_at_b, h_prime_at_b, lam) -> float:
    """Leading asymptotics of Int_b^inf g e^{-lam h} when h is minimal at b."""
    return g_at_b * math.exp(laplace_boundary_log(1.0, h_at_b, h_prime_at_b, lam))


def laplace_interior_log(g_at_bt, h_at_bt, h_second_at_bt, lam) -> float:
    """log of g(b~) sqrt(2 pi/(lam h''(b~))) exp{-lam h(b~)}."""
    if h_second_at_bt <= 0:
        raise DomainError("interior Laplace formula needs h''(b~) > 0")
    if lam <= 0:
        raise DomainError("lam must be positive")
    if g_at_bt <= 0:
        raise DomainError("log form needs g(b~) > 0")
    return (
        math.log(g_at_bt)
        + 0.5 * math.log(2.0 * math.pi / (lam * h_second_at_bt))
        - lam * h_at_bt
    )


def laplace_interior(g_at_bt, h_at_bt, h_second_at_bt, lam) -> float:
    """Leading asymptotics when h has an interior minimum at b~."""
    return g_at_bt * math.exp(laplace_interior_log(1.0, h_at_bt, h_second_at_bt, lam))


def prop_a1_constants(a, c):
    """(C2, Omega-power prefactor pieces) helper: returns C2(c, a)."""
    return (a * c) ** (1.0 / (a + 1.0)) * (1.0 + 1.0 / a)


def prop_a1_asymptotic(spec: LaplaceIntegrandSpec) -> float:
    """log of the leading-order asymptotic of J(Omega)."""
    a, N, c, om = spec.a, spec.N, spec.c, spec.Omega
    log_c1 = (2.0 * (N + 1.0) - 1.0) / (2.0 * (a + 1.0)) * math.log(a * c) + 0.5 * math.log(
        2.0 * math.pi / (a + 1.0)
    )
    power = -(2.0 * (N + 1.0) + a) / (2.0 * (a + 1.0))
    c2 = prop_a1_constants(a, c)
    return log_c1 + power * math.log(om) - c2 * om ** (a / (a + 1.0))


def oracle_J(spec: LaplaceIntegrandSpec) -> float:
    """log of J(Omega) by direct quadrature, concentrated around the saddle.

    The integrand is exponentiated after subtracting its maximum; the
    quadrature grid is split at the saddle w* = (Omega/(a c))^{-1/(a+1)} with
    extra resolution in a window of width ~ 5 / sqrt(phi''(w*)).
    """
    a, N, c, om = spec.a, spec.N, spec.c, spec.Omega

    def phi(w):
        return N * math.log(w) - om * w - c * w ** (-a)

    w_star = (om / (a * c)) ** (-1.0 / (a + 1.0))
    res = minimize_scalar(
        lambda w: -phi(w),
        bounds=(max(w_star / 10.0, 1e-300), min(1.0, w_star * 10.0)),
        method="bounded",
        options={"xatol": 1e-14},
    )
    w_max = min(max(res.x, 1e-300), 1.0)
    phi_max = phi(w_max)

    # curvature sets the scale of the contributing window
    curv = N / w_max ** 2 + c * a * (a + 1.0) * w_max ** (-a - 2.0)
    width = 5.0 / math.sqrt(abs(curv)) if curv != 0 else 0.25 * w_max
    lo = max(w_max - 40.0 * width, 1e-300)
    hi = min(w_max + 40.0 * width, 1.0)
    interior = [w for w in (w_max - width, w_max, w_max + width) if lo < w < hi]

    def f(w):
        return math.exp(phi(w) - phi_max)

    val, err = quad(f, lo, hi, points=sorted(interior), epsabs=1e-13, epsrel=1e-10, limit=400)
    if val <= 0.0 or not np.isfinite(val):
        raise AccuracyError("oracle quadrature failed", estimate=val, achieved=err)
    if err > 1e-7 * val:
        raise AccuracyError(
            "oracle quadrature above tolerance", estimate=phi_max + math.log(val), achieved=err / val
        )
    return phi_max + math.log(val)
