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
below the kernel's ``rule_tol``.  That difference is the reported error
estimate; reaching the finest level without it raises ``AccuracyError``.

The rule takes a batch of points at one beta and one kernel
(``frac_green_batch``; a single request is a batch of one).  Each point
keeps its own window, clip, stop level, error estimate and node count, and
its sums are its own, reduced over its own nodes; that state lives in arrays
indexed by point, and each round of window growth or refinement is one kernel
call, one omega lookup and a few whole-array steps over every unfinished point.
A point that raises fails on its own and the rest of the batch goes on.
omega_beta depends on beta alone: it is computed in log form and memoised
per beta on the lattice in a bounded cache, so a sweep at one beta evaluates
w_beta about once per node.

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
    _beta_value,
    stable_density_log,
    stable_exponent_constant,
    subordination_log_weight,
)

__all__ = ["FracGreenRequest", "frac_green", "frac_green_batch", "frac_green_detailed", "frac_green_derivative",
           "frac_solve"]


@dataclass(frozen=True)
class FracGreenRequest:
    """Evaluation request for the fractional kernel or a spatial derivative."""

    kernel: object
    beta: float
    t: float
    x: object
    y: object
    derivative_order: int = 0

    def __post_init__(self):
        if not 0.0 < self.t < math.inf:
            raise DomainError("frac_green requires 0 < t < inf")
        _check_order(self.kernel, self.derivative_order)


def _check_order(kernel, k):
    """Require 0 <= k <= the kernel's ``max_derivative_order()``."""
    if k < 0:
        raise DomainError("derivative order must be >= 0")
    kmax = kernel.max_derivative_order()
    if k > kmax:
        raise CapabilityError(f"{type(kernel).__name__} supports derivatives up to order {kmax}")


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
# how deep below log q_scale - beta log t a first window starts, by envelope family:
# exp(-q/4s) is e^-50 at s = q/200, and a stable integrand falls only 2 per unit
# of zeta left of its peak (log G and omega_beta both grow like zeta)
_SCAN_DEPTH = {"diffusion": math.log(200.0) + 3.0, "stable": _DROP / 2.0 + 3.0}
_ZETA_LIMIT = 600.0  # |zeta| beyond which a window is not extended
_TRUNC_MASS = 1e-8   # largest neglected weight mass beyond a clipped window
_MAX_BETAS = 8       # betas a weight cache keeps, least recently used first out
_MAX_NODES = 1 << 15  # values per beta; a table that outgrows it is dropped
_MASS_THRESHOLD = 0.999  # least kernel mass a frac_solve grid must capture


class _OmegaTable:
    """omega_beta at nodes sorted by zeta, closed by a NaN node, which sorts
    last and equals nothing, so a bisection always lands inside the table."""

    def __init__(self, zeta=np.array([np.nan]), omega=np.array([np.nan])):
        self.zeta, self.omega = zeta, omega

    def __len__(self):
        return self.zeta.size - 1

    def merged(self, zeta, omega):
        """A new table with these nodes added (sorted, none of them in this one)."""
        at = self.zeta.searchsorted(zeta) + np.arange(zeta.size)
        old = np.ones(self.zeta.size + zeta.size, dtype=bool)
        old[at] = False
        table = _OmegaTable(np.empty(old.size), np.empty(old.size))
        table.zeta[at], table.zeta[old] = zeta, self.zeta
        table.omega[at], table.omega[old] = omega, self.omega
        return table


class _WeightCache:
    """omega_beta memoised per beta, keyed by zeta (exact on the lattice) in a
    sorted array and looked up by bisection, with no per-node Python work,
    within ``_MAX_BETAS`` and ``_MAX_NODES``.  Values are computed
    elementwise, so none depends on which request filled it."""

    def __init__(self):
        self._tables = OrderedDict()
        self._lock = threading.Lock()

    def omega(self, beta, zeta):
        with self._lock:
            table = self._tables.pop(beta, None) or _OmegaTable()
            at = table.zeta.searchsorted(zeta)
            out = table.omega[at]
            todo = table.zeta[at] != zeta
            if np.count_nonzero(todo):
                new, back = zeta[todo], slice(None)
                if not (new[1:] > new[:-1]).all():  # a batch asks for a node once per point: compute it once
                    new, back = np.unique(new, return_inverse=True)
                omega = subordination_log_weight(beta, new)
                out[todo] = omega[back]
                table = table.merged(new, omega)
            if len(table) <= _MAX_NODES:
                self._tables[beta] = table
                if len(self._tables) > _MAX_BETAS:
                    self._tables.popitem(last=False)
            return out


_WEIGHTS = _WeightCache()


_J_LIMIT = int(_ZETA_LIMIT / _H0)  # level-0 nodes j _H0 with |j| <= _J_LIMIT
_HALVE = np.array([[2.0], [2.0], [0.5]])  # one level finer: a/2h, b/h and h
_START = np.zeros(1, dtype=int)  # where the one run of a batch of one starts


def _ragged(first, cnt):
    """The runs first[i] + (0, 1, ..., cnt[i] - 1) concatenated, and where each starts."""
    if cnt.size == 1:
        return np.arange(cnt[0]) + first, _START
    ends = cnt.cumsum()
    return np.arange(ends[-1] if cnt.size else 0) + (first - ends + cnt).repeat(cnt), ends - cnt


def _spread(x, cnt):
    """x[i] at each of the cnt[i] nodes of run i (one run: x itself, which broadcasts)."""
    return x if x.size == 1 else x.repeat(cnt)


def _run_rules(log_kernel, beta, tol, lb, w, clip):
    """Trapezoid rules for Int sign * exp(phi) dzeta on the shared lattice
    over a batch.  ``w`` has a column per point on level 0: its index i, its
    window ends, the last node the window may reach, the clip's node (past
    the reach for none) and the run of nodes it asks for (first, count), at
    first its scan window (``_scan_window``); ``clip`` is its zeta clip (NaN
    for none), ``lb[i]`` beta log t_i, and ``log_kernel(s, i)`` (log|kernel
    part|, sign) at base times s of the points i.  A kernel call that raises
    is repeated point by point.  Returns {i: (log|I|, sign of I, error
    estimate, nodes used), or the exception that ended i}."""
    n, out, h_min = clip.size, {}, _H0 / 2 ** _MAX_LEVEL
    # level 0 also keeps per point its clip, peak, and inf once the clip ends its window (0 before); W holds
    # phi + i sign at the windows' nodes, window after window, and the block a point asks for goes in at ins
    wf, probe, probing = np.array([clip, np.full(n, -np.inf), np.zeros(n)]), np.zeros(n, dtype=bool), 0
    W, ins, rp, R = np.zeros(0, dtype=complex), np.zeros(n, dtype=int), np.zeros(0, dtype=int), np.zeros((8, 0))
    # R has a column per point past level 0 (its index in rp): a/2h, b/h, h, scale, the sums of
    # sign * exp(phi - scale), of exp(phi - scale) and of the last level, and nodes used
    while rp.size or w.shape[1]:
        nwp, nrp, failed = w.shape[1], rp.size, {}
        if nrp:  # the odd multiples of h in [a, b]: (2 (c + k) + 1) h, k < m
            mf = (R[1] - 1.0) // 2.0 - R[0] + 1.0  # b >= a: m >= 0
            m = mf.astype(int)
            q, st = _ragged(R[0], m)
            zeta, pts, counts = (2.0 * q + 1.0) * _spread(R[2], m), rp, m
        if nwp:  # window blocks of level-0 nodes j _H0, or the clip a window probes; they go first
            q, sw = _ragged(w[5], w[6])
            zw = q * _H0
            if probing:
                zw[sw[probe]] = wf[0, probe]
            zeta, pts, counts = ((np.concatenate([zw, zeta]), np.concatenate([w[0], rp]), np.concatenate([w[6], m]))
                                 if nrp else (zw, w[0], w[6]))
        nw, at = zw.size if nwp else 0, int(pts[0]) if pts.size == 1 else pts.repeat(counts)
        try:
            log_k, sign = log_kernel(np.exp(lb[at] + zeta), at)
        except Exception:
            log_k, sign = np.full(zeta.size, np.nan), np.zeros(zeta.size)
            for i, hi, c in zip(pts.tolist(), counts.cumsum().tolist(), counts.tolist()):
                try:
                    log_k[hi - c:hi], sign[hi - c:hi] = log_kernel(np.exp(lb[i] + zeta[hi - c:hi]), i)
                except Exception as exc:  # the point fails on its own
                    failed[i] = exc
        vals, gone = log_k + _WEIGHTS.omega(beta, zeta), failed and np.isin(pts, list(failed))

        if nrp:  # refinement: the level's nodes join the sums, rescaled to a new peak
            R[7] += mf
            v, s = vals[nw:], sign[nw:] if isinstance(sign, np.ndarray) else sign
            if v.size:  # a level without a node in [a, b] leaves its point's sums alone
                sel = slice(None) if np.count_nonzero(m) == m.size else m > 0
                st = st[sel]
                scale = np.fmax(R[3, sel], np.maximum.reduceat(v, st))
                R[4:7, sel] *= np.exp(R[3, sel] - scale)
                R[3, sel] = scale
                e = np.exp(v - _spread(scale, m[sel]))
                sum_e = np.add.reduceat(e, st)
                R[4, sel] += np.add.reduceat(s * e, st) if isinstance(s, np.ndarray) else s * sum_e
                R[5, sel] += sum_e
            h_sums = R[2] * R[4:6]
            err = np.abs(h_sums[0] - R[6]) / h_sums[1]
            R[6] = h_sums[0]
            leave = (err < tol) | (R[2] == h_min) | (gone[nwp:] if failed else False)
            if np.count_nonzero(leave):
                for i, er, (_, _, h, sc, total, _, prev, used) in zip(rp[leave].tolist(), err[leave].tolist(),
                                                                      R[:, leave].T.tolist()):
                    out[i] = (AccuracyError("subordination quadrature above tolerance at the finest lattice level",
                                            estimate=sc + math.log(abs(prev)) if prev else -math.inf, achieved=er)
                              if er >= tol else (-math.inf, 0.0, er, int(used)) if total == 0.0
                              else (sc + math.log(h * abs(total)), math.copysign(1.0, total), er, int(used)))
                rp, R = rp[~leave], R[:, ~leave]
            R[:3] *= _HALVE

        if nwp:  # level 0: store the blocks, then probe the clip, grow or trim each window
            j0, j1, cnt, zc, top, fixed = w[1], w[2], w[6], wf[0], wf[1], wf[2]
            v, hz = vals[:nw], False
            peak = np.maximum.reduceat(v, sw)
            block = v + 1j * (sign[:nw] if isinstance(sign, np.ndarray) else sign)
            if probing:  # the integrand must have decayed at the clip, which then ends the window
                hz = probe & (peak > top - _DROP)
                fixed[probe & ~hz] = np.inf
                peak[probe] = -np.inf
                block, cnt = block[_spread(~probe, cnt)], np.where(probe, 0, cnt)
            new, W_old = ins.repeat(cnt) + np.arange(block.size), W  # each block after those before it
            old = np.ones(W.size + block.size, dtype=bool)
            old[new], W = False, np.empty(old.size, dtype=complex)
            W[new], W[old] = block, W_old
            np.maximum(top, peak, out=top)
            size = j1 - j0 + 1
            ends = size.cumsum()
            thr = top - _DROP
            grow_left = W.real[ends - size] > thr
            grow_right = W.real[ends - 1] > thr + fixed  # never once the clip ends the window
            probe, moving, fail = grow_right & (j1 == w[4]), grow_left | grow_right, ~np.isfinite(top) | hz
            probing, growing = np.count_nonzero(probe), np.count_nonzero(moving)
            if growing:  # the block a growing window asks for, at least 8 nodes, left first; or its clip
                left, grow = grow_left & ~probe, np.maximum(size, 8)
                lo = np.where(left, np.maximum(j0 - grow, -_J_LIMIT), j1 + 1)
                hi = np.where(left, j0 - 1, np.minimum(j1 + grow, w[3]))
                fail |= moving & ~probe & (hi < lo)
            fail |= gone[:nwp] if failed else False
            for i, tp, hor, z in zip(*(x[fail].tolist() for x in (w[0], top, fail & hz, zc))) if fail.any() else ():
                out[i] = (AccuracyError("integrand identically negligible on the scan window") if not math.isfinite(tp)
                          else HorizonError(f"integrand has not decayed at the stored horizon (zeta = {z:g})") if hor
                          else AccuracyError(f"subordination integrand has not decayed within |zeta| <= {_ZETA_LIMIT:g}"))
            enter = ~(moving | fail)
            if np.count_nonzero(enter):  # trim to the nodes above the drop, keeping one node of margin each side
                en = slice(None) if (whole := np.count_nonzero(enter) == enter.size) else enter
                span, end, h = size[en], ends[en], _H0 / 2
                flat, st = (en, end - span) if whole else _ragged(end - span, span)
                pv, fin = W[flat], st + span
                above = (pv.real > _spread(thr[en], span)).nonzero()[0]
                k0 = np.maximum(above[above.searchsorted(st)] - 1, st)
                kept = np.minimum(above[above.searchsorted(fin) - 1] + 2, fin) - k0
                pos, kst = _ragged(k0, kept)
                pv = pv[pos]
                e = np.exp(pv.real - _spread(top[en], kept))
                c, clipped = j0[en] + (k0 - st), fixed[en] > 0.0  # c = a / 2h, the window's first node
                b = np.where(clipped, zc[en], (c + (kept - 1)) * _H0)
                total = np.add.reduceat(pv.imag * e, kst)  # level 0 used the window and a probed clip
                new = np.array([c, b / h, np.full(c.size, h), top[en], total, np.add.reduceat(e, kst), _H0 * total,
                                span + clipped])
                R, rp = np.concatenate([R, new], axis=1), np.concatenate([rp, w[0, en]])
            if growing:
                ins = np.where(left, 0, size)  # a block on the left goes first in its window, one on the right last
                np.minimum(j0, lo, out=j0)
                np.maximum(j1, hi, out=j1)
                w[5], w[6] = lo, np.where(probe, 1, hi - lo + 1)
                keep = moving & ~fail
                if np.count_nonzero(keep) < keep.size:
                    W, w, wf = W[keep.repeat(size)], w[:, keep], wf[:, keep]
                    probe, ins, size = probe[keep], ins[keep], size[keep]
                ins += size.cumsum() - size
            else:
                w = w[:, :0]
        out.update(failed)
    return out


def _scan_window(beta, t, q_scale, depth, zeta_clip):
    """Level-0 nodes j of a generous zeta window (left end ``depth`` below
    log q_scale - beta log t, see ``_SCAN_DEPTH``; right end from the
    superexponential stable-weight decay), and the last node a window may
    reach: the clip, if any, within |zeta| <= _ZETA_LIMIT."""
    c_beta = stable_exponent_constant(beta)
    hi = (1.0 - beta) * math.log(60.0 / c_beta) + 3.0
    lo = math.log(q_scale) - depth - beta * math.log(t) if q_scale > 0 else -40.0
    reach = _J_LIMIT if math.isnan(zeta_clip) else min(math.floor(zeta_clip / _H0), _J_LIMIT)
    return math.floor(min(lo, -10.0) / _H0), min(math.ceil(max(hi, 5.0) / _H0), reach), reach


def frac_green_batch(kernel, beta, t, x, y, derivative_order=0) -> list:
    """Fractional Green's function (or a signed spatial derivative) at many
    points at one beta and one kernel: ``t`` holds n times, and ``x`` and
    ``y`` n points each.  Returns per point its ``FracGreenResult``, or the
    exception its evaluation raised, which leaves the other points alone.
    An order the kernel does not have raises for the whole batch."""
    beta = _beta_value(beta)
    _check_order(kernel, derivative_order)
    if not len(t) == len(x) == len(y):
        raise DomainError(f"a batch takes one time and two points per point, got {len(t)}, {len(x)} and {len(y)}")
    log_kernel, setup = kernel.base_integrand(x, y, derivative_order, t, beta)
    # None: the derivative vanishes identically; an exception: the point failed
    out = [FracGreenResult(value=0.0, log_value=-math.inf) if point is None else point for point in setup]
    lb, scan, clip, depth = np.zeros(len(setup)), [], [], _SCAN_DEPTH[kernel.envelope_family]
    for i, point in enumerate(setup):
        if isinstance(point, tuple):  # (q_scale, s_clip): integrate
            ti, (q_scale, s_clip) = float(t[i]), point
            lb[i] = beta * math.log(ti)
            zeta_clip = math.nan if s_clip is None else math.log(s_clip / ti ** beta)
            j0, j1, reach = _scan_window(beta, ti, q_scale, depth, zeta_clip)
            if j1 < j0:  # the clip lies left of the scan window
                out[i] = AccuracyError("integrand identically negligible on the scan window")
            else:
                scan.append((i, j0, j1, reach, _J_LIMIT + 1 if s_clip is None else reach, j0, j1 - j0 + 1))
                clip.append(zeta_clip)
    scan = np.array(scan, dtype=int).reshape(-1, 7).T
    for i, rule in _run_rules(log_kernel, beta, kernel.rule_tol, lb, scan, np.array(clip)).items():
        try:
            out[i] = rule if isinstance(rule, Exception) else _result(beta, float(t[i]), setup[i][1], *rule)
        except AccuracyError as exc:
            out[i] = exc
    # a failure is a per-point value: without its traceback it holds no frame,
    # so no frame of this batch outlives it in a reference cycle
    return [o.with_traceback(None) if isinstance(o, Exception) else o for o in out]


def _result(beta, t, s_clip, log_int, sign, err, nodes):
    """The result of one point's rule, with the weight mass neglected beyond
    a clipped base time s_clip (u < u_min); more than _TRUNC_MASS raises."""
    trunc = 0.0
    if s_clip is not None:
        u_min = (t ** beta / s_clip) ** (1.0 / beta)
        lw = stable_density_log(beta, u_min)
        trunc = u_min * math.exp(lw) if lw > -700.0 else 0.0
        if trunc > _TRUNC_MASS:
            raise AccuracyError(
                "simulated horizon too short for the requested time",
                estimate=math.exp(log_int - math.log(beta)),
                achieved=trunc,
            )
    logv = log_int - math.log(beta)
    return FracGreenResult(value=sign * math.exp(logv), log_value=logv, truncated_mass_bound=trunc,
                           error_estimate=err, nodes=nodes)


def frac_green_detailed(req: FracGreenRequest) -> FracGreenResult:
    """Fractional Green's function (or a signed spatial derivative) with its
    log value, error estimate, node count and truncation bound: a batch of one."""
    return _raised(frac_green_batch(req.kernel, req.beta, [req.t], [req.x], [req.y], req.derivative_order)[0])


def _raised(res):
    """A batch's result for one point, raised if it is a failure."""
    if isinstance(res, Exception):
        raise res
    return res


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


def frac_solve(kernel, beta, t, y_grid, y_values, x) -> float:
    """Apply the fractional evolution to initial data sampled on a grid.

    ``y_grid``/``y_values`` sample the initial condition; the result is the
    tensor-quadrature value of Int Gb(t, x, y) Y(y) dy.  Raises CoverageError
    when the grid captures less than ``_MASS_THRESHOLD`` of the kernel mass, and
    DomainError when x lies on a node where the kernel diverges.
    """
    beta = _beta_value(beta)
    y_grid = np.asarray(y_grid, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    if y_grid.ndim != 1 or y_grid.shape != y_values.shape:
        raise DomainError("y_grid and y_values must be matching 1-D arrays")
    results = frac_green_batch(kernel, beta, [t] * y_grid.size, [x] * y_grid.size, y_grid)
    gvals = np.array([_raised(res).value for res in results])
    mass = float(np.trapezoid(gvals, y_grid))
    if mass < _MASS_THRESHOLD:
        raise CoverageError(
            f"grid captures kernel mass {mass:.6f} < {_MASS_THRESHOLD:.6f}"
        )
    return float(np.trapezoid(gvals * y_values, y_grid))
