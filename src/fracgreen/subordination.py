"""Time-fractional Green's functions by quadrature of the subordination integral.

The fractional kernel of order beta over a base family with kernel G is

    Gb(t, x, y) = (1/beta) Int_0^inf G(t^beta z, x, y)
                  z^{-1-1/beta} w_beta(z^{-1/beta}) dz.

In zeta = ln z the integrand is sign * exp(phi), phi(zeta) = log|G(t^beta
e^zeta, x, y)| + omega_beta(zeta) with omega_beta(zeta) = -zeta/beta +
log w_beta(e^{-zeta/beta}).  phi is analytic and decays at both ends, so the
trapezoid rule is spectrally accurate (Trefethen & Weideman, SIAM Review
2014).  One rule serves every family and derivative order; each family
supplies its log|G| through ``base_integrand`` (see ``fracgreen.kernels``).
Nodes lie on the fixed dyadic lattice zeta = k _H0 / 2^L; a request's window
starts from the analytic bounds of ``_scan_window`` and is extended, then
trimmed, on level 0 until phi at its ends is ``_DROP`` below the peak; h is
then halved until the h/2h difference (relative to the sum of |integrand|) is
below the family's tolerance.  That difference is the reported error estimate; reaching the
finest level without it raises ``AccuracyError``.  omega_beta depends on beta
alone: it is computed in log form and memoised per beta on the lattice in a
bounded cache, so a sweep at one beta evaluates w_beta about once per node.

A family may clip the window at a base time (the variable-coefficient kernel
is only simulated up to a finite time, and clips each request where the
weight at its t has decayed): an integrand that has not decayed by the clip
raises ``HorizonError``, and the neglected weight mass is reported with the
value.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, CapabilityError, CoverageError, DomainError, HorizonError
from .specfun import (
    FracOrder,
    _beta_value,
    stable_density_log,
    stable_exponent_constant,
    subordination_log_weight,
)

__all__ = ["FracGreenRequest", "frac_green", "frac_green_detailed", "frac_green_derivative", "frac_solve"]


@dataclass(frozen=True)
class FracGreenRequest:
    """Evaluation request for the fractional kernel or a spatial derivative."""

    kernel: object
    beta: float | FracOrder
    t: float
    x: object
    y: object
    derivative_order: int = 0

    def __post_init__(self):
        if self.t <= 0:
            raise DomainError("frac_green requires t > 0")
        if self.derivative_order < 0:
            raise DomainError("derivative order must be >= 0")
        kmax = self.kernel.max_derivative_order()
        if self.derivative_order > kmax:
            raise CapabilityError(
                f"{type(self.kernel).__name__} supports derivatives up to order {kmax}"
            )


@dataclass(frozen=True)
class FracGreenResult:
    """Value with its log, the rule's error estimate and node count, and the
    neglected weight mass (finite-horizon family only)."""

    value: float
    log_value: float
    truncated_mass_bound: float = 0.0
    error_estimate: float = 0.0
    nodes: int = 0


# ---------------------------------------------------------------------------
# the lattice rule
# ---------------------------------------------------------------------------

_H0 = 0.5            # level-0 step of the zeta lattice
_MAX_LEVEL = 12      # finest step _H0 / 2^12
_DROP = 46.0         # window ends: phi this far below its largest node value
_ZETA_LIMIT = 600.0  # |zeta| beyond which a window is not extended
# stop tolerance of the h/2h difference, per base family: each sits above
# that family's own evaluation noise (interpolated profiles, angular
# trapezoids, the piecewise-smooth Crank-Nicolson history)
_FAMILY_TOL = {
    "constant_diffusion": 1e-10,
    "isotropic_stable": 1e-8,
    "anisotropic_stable_2d": 1e-7,
    "variable_diffusion_1d": 1e-4,
}
_TRUNC_MASS = 1e-8   # largest neglected weight mass beyond a clipped window


class _OmegaTable:
    """omega_beta at nodes sorted by zeta, closed by a NaN node, which sorts
    last and equals nothing, so a bisection always lands inside the table."""

    def __init__(self, zeta=np.array([np.nan]), omega=np.array([np.nan])):
        self.zeta, self.omega = zeta, omega

    def __len__(self):
        return self.zeta.size - 1

    def merged(self, zeta, omega):
        """A new table with these nodes added (none of them in this one)."""
        if not (zeta[1:] > zeta[:-1]).all():  # a lattice window comes sorted
            zeta, first = np.unique(zeta, return_index=True)
            omega = omega[first]
        at = np.searchsorted(self.zeta, zeta) + np.arange(zeta.size)
        old = np.ones(self.zeta.size + zeta.size, dtype=bool)
        old[at] = False
        table = _OmegaTable(np.empty(old.size), np.empty(old.size))
        table.zeta[at], table.zeta[old] = zeta, self.zeta
        table.omega[at], table.omega[old] = omega, self.omega
        return table


class _WeightCache:
    """omega_beta memoised per beta, keyed by zeta (exact on the lattice) in
    a sorted array and looked up by bisection, with no per-node Python
    work.  Bounded: at most ``max_betas`` betas, least recently used first
    out, and at most ``max_nodes`` values per beta (a table that outgrows it
    is dropped).  Values are computed elementwise, so none depends on which
    request filled it."""

    def __init__(self, max_betas=8, max_nodes=1 << 15):
        self.max_betas = max_betas
        self.max_nodes = max_nodes
        self._tables = OrderedDict()
        self._lock = threading.Lock()

    def omega(self, beta, zeta):
        with self._lock:
            table = self._tables.pop(beta, None) or _OmegaTable()
            at = np.searchsorted(table.zeta, zeta)
            out = table.omega[at]
            todo = table.zeta[at] != zeta
            if todo.any():
                out[todo] = subordination_log_weight(beta, zeta[todo])
                table = table.merged(zeta[todo], out[todo])
            if len(table) <= self.max_nodes:
                self._tables[beta] = table
                if len(self._tables) > self.max_betas:
                    self._tables.popitem(last=False)
            return out


_WEIGHTS = _WeightCache()


def _lattice_integral(log_kernel, beta, t, q_scale, tol, zeta_clip=None):
    """Trapezoid rule for Int sign * exp(phi) dzeta on the shared lattice.

    ``log_kernel(s)`` maps an array of base times to (log|kernel part|,
    sign), the sign a scalar or an array.  Returns (log|I|, sign of I, error
    estimate, nodes used).  ``zeta_clip`` bounds the window on the right (the
    finite-horizon family); an integrand that has not decayed there raises
    HorizonError.
    """
    lb = beta * math.log(t)
    nodes = 0

    def phi(zeta):
        nonlocal nodes
        nodes += zeta.size
        log_k, sign = log_kernel(np.exp(lb + zeta))
        return log_k + _WEIGHTS.omega(beta, zeta), np.broadcast_to(sign, zeta.shape)

    lo, hi = _scan_window(beta, t, q_scale)
    j_limit = int(_ZETA_LIMIT / _H0)
    j_max = j_limit if zeta_clip is None else min(math.floor(zeta_clip / _H0), j_limit)
    j = np.arange(math.floor(lo / _H0), min(math.ceil(hi / _H0), j_max) + 1)
    vals, signs = phi(j * _H0)

    # extend level 0 until phi has fallen by _DROP at both ends; at the clip
    # the window ends at the clip itself if phi has fallen by then
    b = None
    while True:
        top = vals.max()
        if not np.isfinite(top):
            raise AccuracyError("integrand identically negligible on the scan window")
        grow_left = vals[0] > top - _DROP
        grow_right = vals[-1] > top - _DROP and b is None
        if not (grow_left or grow_right):
            break
        if grow_right and j[-1] == j_max and zeta_clip is not None:
            if phi(np.array([zeta_clip]))[0][0] > top - _DROP:
                raise HorizonError(f"integrand has not decayed at the stored horizon (zeta = {zeta_clip:g})")
            b = zeta_clip
            continue
        n = max(j.size, 8)
        if grow_left:
            new = np.arange(max(j[0] - n, -j_limit), j[0])
        else:
            new = np.arange(j[-1] + 1, min(j[-1] + n, j_max) + 1)
        if new.size == 0:
            raise AccuracyError(f"subordination integrand has not decayed within |zeta| <= {_ZETA_LIMIT:g}")
        v, s = phi(new * _H0)
        parts = ((new, j), (v, vals), (s, signs)) if grow_left else ((j, new), (vals, v), (signs, s))
        j, vals, signs = (np.concatenate(p) for p in parts)

    # trim to the nodes above the drop, keeping one node of margin each side
    above = np.flatnonzero(vals > top - _DROP)
    keep = slice(max(above[0] - 1, 0), min(above[-1] + 2, j.size))
    a = j[keep][0] * _H0
    if b is None:
        b = j[keep][-1] * _H0
    scale = float(top)
    total = float(np.sum(signs[keep] * np.exp(vals[keep] - scale)))
    total_abs = float(np.sum(np.exp(vals[keep] - scale)))
    prev = _H0 * total

    for level in range(1, _MAX_LEVEL + 1):
        h = _H0 / 2 ** level
        # the nodes this level adds inside [a, b]: (2 i + 1) h
        v, s = phi((2.0 * np.arange(math.ceil((a / h - 1.0) / 2.0), math.floor((b / h - 1.0) / 2.0) + 1) + 1.0) * h)
        if v.size and v.max() > scale:
            shrink = math.exp(scale - v.max())
            total, total_abs, prev, scale = total * shrink, total_abs * shrink, prev * shrink, float(v.max())
        e = np.exp(v - scale)
        total += float(np.sum(s * e))
        total_abs += float(np.sum(e))
        err = abs(h * total - prev) / (h * total_abs)
        if err < tol:
            if total == 0.0:
                return -math.inf, 0.0, err, nodes
            return scale + math.log(h * abs(total)), math.copysign(1.0, total), err, nodes
        prev = h * total
    raise AccuracyError(
        "subordination quadrature above tolerance at the finest lattice level",
        estimate=scale + math.log(abs(prev)) if prev else -math.inf,
        achieved=err,
    )


def _scan_window(beta, t, q_scale):
    """Generous zeta window: left end from kernel small-time decay, right
    end from the superexponential stable-weight decay."""
    c_beta = stable_exponent_constant(beta)
    hi = (1.0 - beta) * math.log(60.0 / c_beta) + 3.0
    if q_scale > 0:
        lo = math.log(q_scale / 200.0) - beta * math.log(t) - 3.0
    else:
        lo = -40.0
    return min(lo, -10.0), max(hi, 5.0)


def _result(log_int, sign, beta, err, nodes, trunc=0.0):
    logv = log_int - math.log(beta)
    value = sign * (math.exp(logv) if logv > -745.0 else 0.0)
    return FracGreenResult(value=value, log_value=logv, truncated_mass_bound=trunc, error_estimate=err, nodes=nodes)


def frac_green_detailed(req: FracGreenRequest) -> FracGreenResult:
    """Fractional Green's function (or a signed spatial derivative) with its
    log value, error estimate, node count and truncation bound."""
    beta = _beta_value(req.beta)
    t = float(req.t)
    tb = t ** beta
    log_kernel, q_scale, s_clip = req.kernel.base_integrand(req.x, req.y, req.derivative_order, t, beta)
    if log_kernel is None:
        return FracGreenResult(value=0.0, log_value=-math.inf)
    zeta_clip = None if s_clip is None else math.log(s_clip / tb)
    log_int, sign, err, nodes = _lattice_integral(
        log_kernel, beta, t, q_scale, _FAMILY_TOL[req.kernel.family], zeta_clip=zeta_clip
    )
    trunc = 0.0
    if s_clip is not None:
        # neglected weight beyond the clipped base time: u < u_min
        u_min = (tb / s_clip) ** (1.0 / beta)
        lw = stable_density_log(beta, u_min)
        trunc = u_min * math.exp(lw) if lw > -700.0 else 0.0
        if trunc > _TRUNC_MASS:
            raise AccuracyError(
                "fd1d simulation horizon too short for requested time",
                estimate=math.exp(log_int - math.log(beta)),
                achieved=trunc,
            )
    return _result(log_int, sign, beta, err, nodes, trunc=trunc)


def frac_green(req: FracGreenRequest) -> float:
    """Fractional Green's function value (derivative_order = 0)."""
    if req.derivative_order != 0:
        raise DomainError("use frac_green_derivative for derivative requests")
    return frac_green_detailed(req).value


def frac_green_derivative(req: FracGreenRequest) -> float:
    """Spatial derivative of the fractional kernel (signed)."""
    if req.derivative_order < 1:
        raise DomainError("derivative_order must be >= 1")
    return frac_green_detailed(req).value


def frac_solve(kernel, beta, t, y_grid, y_values, x, mass_threshold=0.999) -> float:
    """Apply the fractional evolution to initial data sampled on a grid.

    ``y_grid``/``y_values`` sample the initial condition; the result is the
    tensor-quadrature value of Int Gb(t, x, y) Y(y) dy.  Raises CoverageError
    when the grid captures less than ``mass_threshold`` of the kernel mass, and
    DomainError when x lies on a node where the kernel diverges.
    """
    beta = _beta_value(beta)
    y_grid = np.asarray(y_grid, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    if y_grid.ndim != 1 or y_grid.shape != y_values.shape:
        raise DomainError("y_grid and y_values must be matching 1-D arrays")
    gvals = np.array([frac_green(FracGreenRequest(kernel=kernel, beta=beta, t=t, x=x, y=yy)) for yy in y_grid])
    mass = float(np.trapezoid(gvals, y_grid))
    if mass < mass_threshold:
        raise CoverageError(
            f"grid captures kernel mass {mass:.6f} < {mass_threshold:.6f}"
        )
    return float(np.trapezoid(gvals * y_values, y_grid))
