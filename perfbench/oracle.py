"""Closed-form oracles for the fractional diffusion kernel (mpmath).

For the heat kernel ``(4 pi s)^{-1/2} exp(-x^2 / 4s)`` the time-fractional
Green's function of order beta is the M-Wright function (Mainardi, Luchko
and Pagnini 2001):

    G_1(t, x) = 1/2 t^{-nu} M_nu(|x| t^{-nu}),   nu = beta / 2,

    M_nu(z) = (1/pi) sum_{n>=0} (-z)^n / n! Gamma(nu (n+1)) sin(pi nu (n+1)).

The series is entire but alternates with terms far larger than the sum for
large z, so it is summed in mpmath at a precision set from the largest term.
Higher dimensions follow from ``G_3(r) = -(2 pi r)^{-1} d/dr G_1(r)``.
"""

from __future__ import annotations

import math

import mpmath

_GUARD_DIGITS = 25


def mwright(nu, z, k=0):
    """k-th derivative (k >= 0) of M_nu at z >= 0; k = -1 gives Int_0^z M_nu."""
    nu, z = float(nu), float(z)
    if not (0.0 < nu < 1.0) or z < 0.0:
        raise ValueError("mwright needs 0 < nu < 1 and z >= 0")
    if z == 0.0:
        if k < 0:
            return 0.0
        n = k
        return (-1.0) ** n * math.gamma(nu * (n + 1)) * math.sin(math.pi * nu * (n + 1)) / math.pi

    # term m of the k-th derivative series is c_{m+k} (-1)^{m+k} z^m / m!
    # (for k = -1 the integrated series: c_{m-1} (-1)^{m-1} z^m / m!, m >= 1)
    first = 1 if k < 0 else 0
    lz = math.log(z)
    log_max = -math.inf
    m = first
    while True:
        lt = m * lz - math.lgamma(m + 1) + math.lgamma(nu * (m + k + 1))
        log_max = max(log_max, lt)
        if m > 20 and lt < log_max - 60.0 and lt < -60.0:
            break
        m += 1
    digits = int(max(log_max, 0.0) / math.log(10.0)) + _GUARD_DIGITS
    while True:
        value = _sum_series(nu, z, k, first, digits, log_max)
        # at least 15 of the working digits must survive the cancellation
        if value != 0 and math.log10(abs(value)) > log_max / math.log(10.0) - digits + 15:
            return value
        digits *= 2
        if digits > 4000:
            raise ArithmeticError("M-Wright series needs more than 4000 digits")


def _sum_series(nu, z, k, first, digits, log_max):
    with mpmath.workdps(digits):
        nu_mp = mpmath.mpf(nu)
        zz = mpmath.mpf(z)
        pi = mpmath.pi
        # with nu = 1/q, Gamma(nu (n + 1 + q)) = nu (n + 1) Gamma(nu (n + 1))
        # and the sine has period 2q in n, so no term needs a fresh Gamma
        q = round(1.0 / nu)
        step = q if abs(q * nu - 1.0) < 1e-12 and q <= 64 else 0
        gammas, sines = {}, {}

        def coeff(n):
            if step and n >= step:
                g = gammas[n - step] * nu_mp * (n + 1 - step)
            else:
                g = mpmath.gamma(nu_mp * (n + 1))
            gammas[n] = g
            key = n % (2 * step) if step else n
            if key not in sines:
                sines[key] = mpmath.sin(pi * nu_mp * (n + 1))
            return g * sines[key]

        total = mpmath.mpf(0)
        power = zz ** first / mpmath.factorial(first)  # z^m / m!
        stop = log_max - digits * math.log(10.0) - 5.0
        for n in range(max(k, 0)):
            coeff(n)
        m = first
        while True:
            n = m + k  # index of the coefficient c_n
            term = coeff(n) * power
            total += -term if n % 2 else term
            lt = m * math.log(z) - math.lgamma(m + 1) + math.lgamma(nu * (n + 1))
            if m > 20 and lt < stop:
                break
            m += 1
            power = power * zz / m
        return float(total / pi)


def gaussian_frac_green(beta, t, r, d=1, k=0):
    """Fractional Green's function of the unit heat kernel, from M-Wright.

    d = 1: k-th x-derivative at x = r > 0 (k = 0, 1, 2).  d = 3: value
    (k = 0) at radius r > 0.  t > 0.
    """
    nu = 0.5 * float(beta)
    s = float(t) ** (-nu)
    z = float(r) * s
    if d == 1:
        return 0.5 * s ** (k + 1) * mwright(nu, z, k)
    if d == 3 and k == 0:
        return -(s ** 2) * mwright(nu, z, 1) / (4.0 * math.pi * float(r))
    raise ValueError("oracle covers d = 1 (k <= 2) and d = 3 (k = 0)")


def gaussian_frac_cdf(beta, t, x):
    """P(X(E_t) <= x) for X a Brownian motion with generator d^2/dx^2."""
    nu = 0.5 * float(beta)
    s = float(t) ** (-nu)
    half_mass = 0.5 * mwright(nu, abs(float(x)) * s, -1)
    return 0.5 + math.copysign(half_mass, float(x))


def diagonal_pin():
    """G_{1/2}(t = 1, x = y) for the 1-D heat kernel: Gamma(1/4) / (2^1.5 pi)."""
    return math.gamma(0.25) / (2.0 ** 1.5 * math.pi)
