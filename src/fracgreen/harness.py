"""Envelope certification: sweep grids, ratio fields, constant fitting.

A verification run evaluates the fractional kernel, or its order-k spatial
derivative, and the matching envelope shape over a (t, r) grid, and classifies
every point's regime.  One table, ``SELECTORS``, says what each theorem or
proposition selector certifies (envelope family, case, one- or two-sided,
horizon or not), and one core serves :func:`verify_envelope` (Theorems 3.1,
3.2, 4.1, 4.2) and :func:`verify_derivative_envelope` (Props 3.1, 3.2, 4.1,
4.3).  A two-sided estimate is certified by

* bounded per-regime log-ratio spread (the paper guarantees existence of
  constants, not their size; the ceiling is configurable), and
* regression on the off-diagonal tail: for diffusion families log G is
  linear in Omega^{1/(2-beta)} (R^2 >= 0.99, slope CI excluding zero); for
  stable families the log-log slope must match the theorem exponent.

A one-sided bound needs a finite fitted constant C with |d^k G| <= C shape,
and for global stable bounds the off-diagonal slope.  The diffusion rate in
exp{-rate ...} is the one envelope constant a shape reads.  With ``rate=None``
it is fitted, not trusted: the off-diagonal log shape is affine in the rate,
so its values at rates 1 and 2 give every trial rate.  A given rate is used
as it is.  Upper and lower exponential rates are fitted separately; nothing
assumes they coincide.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import stdtrit

from . import envelopes as env
from .errors import CapabilityError, DomainError, FitError, SpecError
from .specfun import _beta_value
# frac_green_detailed stays bound here: perfbench's tracer patches this name
from .subordination import FracGreenResult, frac_green_batch, frac_green_detailed  # noqa: F401

__all__ = [
    "SweepGrid",
    "VerificationReport",
    "FitResult",
    "default_grid",
    "verify_envelope",
    "verify_derivative_envelope",
    "theorem_family",
    "envelope_value",
    "fit_constants",
    "report_to_json",
    "report_from_json",
    "write_report_files",
    "csv_text",
    "atomic_write",
]


class Selector(NamedTuple):
    """What a theorem or proposition selector certifies."""

    family: str  # envelope family the kernel must have
    case: str  # envelope case: "global", "local_small_time" or "local_large_time"
    one_sided: bool  # |d^k G| <= C shape (k >= 1), or the two-sided value estimate
    local: bool  # needs a horizon T


SELECTORS = {
    "3.1": Selector("diffusion", "global", False, False),
    "3.2": Selector("stable", "global", False, False),
    "4.1": Selector("diffusion", "global", False, True),
    "4.2": Selector("stable", "global", False, True),
    "prop3.1": Selector("diffusion", "global", True, False),
    "prop3.2": Selector("stable", "global", True, False),
    "prop4.1-small": Selector("diffusion", "local_small_time", True, True),
    "prop4.1-large": Selector("diffusion", "local_large_time", True, True),
    "prop4.3-small": Selector("stable", "local_small_time", True, True),
    "prop4.3-large": Selector("stable", "local_large_time", True, True),
}


@dataclass(frozen=True)
class SweepGrid:
    """A (t, r) grid for one theorem or proposition selector."""

    t_values: tuple
    r_values: tuple
    theorem: str

    def __post_init__(self):
        if len(self.t_values) == 0 or len(self.r_values) == 0:
            raise SpecError("grid must contain t and r values")


def _selector(name):
    if name not in SELECTORS:
        raise SpecError(f"unknown theorem or proposition selector {name!r}")
    return SELECTORS[name]


def theorem_family(theorem):
    """The envelope family a theorem or proposition selector covers."""
    return _selector(theorem).family


def _kernel_traits(kernel):
    if kernel.alpha is not None and kernel.alpha >= 2.0:
        raise SpecError("envelope verification excludes the alpha = 2 sanity limit")
    return kernel.envelope_family, kernel.d, kernel.alpha


def default_grid(theorem, kernel, beta, horizon=None):
    """Log-spaced grid covering both Omega <= 1 and Omega >= 1 with 5 r
    values per decade, and r = 0 first."""
    beta = _beta_value(beta)
    spec = _selector(theorem)
    family, d, alpha = _kernel_traits(kernel)
    expo = 2.0 if family == "diffusion" else alpha
    # the local derivative cases keep their side of t = 1 out of the global sweep
    if spec.local and spec.case == "global":
        T = horizon if horizon is not None else kernel.horizon
        if T is None:
            raise SpecError("local theorems require a horizon")
        ts = np.geomspace(T / 20.0, T, 7)
    else:
        ts = np.geomspace(0.1, 10.0, 11)
    t_mid = float(np.median(ts))
    om_lo, om_hi = 3e-3, 2e3
    if family == "stable" and alpha is not None and d > alpha:
        # the on-diagonal power branch emerges slowly (Omega^{d/alpha - 1}
        # corrections), so reach deep into the small-Omega regime
        om_lo = 1e-7
    r_lo = (om_lo * t_mid**beta) ** (1.0 / expo)
    r_hi = (om_hi * t_mid**beta) ** (1.0 / expo)
    n_r = max(int(5 * math.log10(r_hi / r_lo)) + 1, 8)
    rs = np.geomspace(r_lo, r_hi, n_r)
    return SweepGrid(
        t_values=tuple(float(t) for t in ts),
        r_values=(0.0, *(float(r) for r in rs)),
        theorem=theorem,
    )


@dataclass
class FitResult:
    model: str
    params: dict
    conf95: dict
    r_squared: float

    def as_dict(self):
        return {"model": self.model, "params": self.params, "conf95": self.conf95, "r_squared": self.r_squared}


def _ols(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    dof = max(n - p, 1)
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(X.T @ X)
    half = stdtrit(dof, 0.975) * np.sqrt(np.diag(cov))  # Student-t quantile
    return coef, half, r2


def fit_constants(x, y, model="power", q=None) -> FitResult:
    """Least-squares constant fitting on log values.

    ``power``: y = c x^p.  ``power_plus_exponential``: y = c x^p e^{-r x^q};
    with q fixed the fit is linear, otherwise q is optimized in an outer
    1-D search.  Requires at least 8 points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 8:
        raise FitError(f"need >= 8 points in the target regime, got {x.size}")
    ly = np.log(y) if np.all(y > 0) else np.asarray(y, dtype=float)
    lx = np.log(x)

    if model == "power":
        X = np.column_stack([np.ones_like(lx), lx])
        coef, half, r2 = _ols(X, ly)
        return FitResult(
            model=model,
            params={"prefactor": float(np.exp(coef[0])), "exponent": float(coef[1])},
            conf95={"log_prefactor": float(half[0]), "exponent": float(half[1])},
            r_squared=r2,
        )
    if model == "power_plus_exponential":

        def fit_at(qv):
            X = np.column_stack([np.ones_like(lx), lx, -(x**qv)])
            return _ols(X, ly)

        if q is None:
            res = minimize_scalar(
                lambda qv: float(((fit_at(qv)[0] @ np.column_stack([np.ones_like(lx), lx, -(x**qv)]).T - ly) ** 2).sum()),
                bounds=(0.05, 1.5),
                method="bounded",
                options={"xatol": 1e-10},
            )
            q = float(res.x)
        coef, half, r2 = _ols(np.column_stack([np.ones_like(lx), lx, -(x**q)]), ly)
        return FitResult(
            model=model,
            params={
                "prefactor": float(np.exp(coef[0])),
                "exponent": float(coef[1]),
                "rate": float(coef[2]),
                "q": float(q),
            },
            conf95={"log_prefactor": float(half[0]), "exponent": float(half[1]), "rate": float(half[2])},
            r_squared=r2,
        )
    raise SpecError(f"unknown fit model {model!r}")


@dataclass
class VerificationReport:
    theorem: str
    family: str
    d: int
    alpha: float | None
    beta: float
    derivative_order: int
    one_sided: bool
    ratio_ceiling: float
    points: np.ndarray = field(default_factory=lambda: np.empty(0, ROW_DTYPE))
    regime_stats: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    passed: bool = False
    schema_version: int = 2
    config: dict = field(default_factory=dict)

    def as_dict(self):
        # shallow: the fields hold plain dicts and lists, which json reads as
        # they are, and the rows, which _json_default reads
        return {f.name: getattr(self, f.name) for f in fields(self)}


# one row per grid point; nodes and error_estimate are the rule's, 0 and NaN
# where no rule ran
ROW_DTYPE = np.dtype([("t", float), ("r", float), ("omega", float), ("regime", object), ("log_G", float),
                      ("log_envelope", float), ("log_ratio", float), ("flag", object),
                      ("error_estimate", float), ("nodes", np.int64)])


def _check_envelope_order(family, k):
    if family == "diffusion" and k > 1:
        raise CapabilityError("diffusion derivative envelopes are first order only")


def envelope_value(family, d, alpha, beta, k, point, rate=1.0, case="global"):
    """The envelope shape for a family and derivative order k (0: the value);
    ``rate`` is the diffusion tail's exponential rate (stable shapes have none)."""
    _check_envelope_order(family, k)
    if k == 0:
        if family == "diffusion":
            return env.envelope_diffusion(d, beta, point, rate)
        return env.envelope_stable(d, alpha, beta, point)
    if family == "diffusion":
        return env.envelope_diffusion_deriv(d, beta, point, rate, case=case)
    return env.envelope_stable_deriv(d, k, alpha, beta, point, case=case)


def _collect_points(kernel, beta, grid, k, rate, case, horizon):
    """The rows of a sweep: every point along the first axis evaluated in one batch."""
    family, d, alpha = _kernel_traits(kernel)
    ts = [float(t) for t in grid.t_values
          if not ((horizon is not None and t > horizon * (1 + 1e-12))
                  or (case == "local_small_time" and t >= 1.0) or (case == "local_large_time" and t <= 1.0))]
    rows = np.zeros(len(ts) * len(grid.r_values), ROW_DTYPE)
    rows["t"] = np.repeat(ts, len(grid.r_values))
    rows["r"] = np.tile(np.asarray(grid.r_values, dtype=float), len(ts))
    # odd symmetry: a first derivative vanishes identically on the diagonal
    skip = (rows["r"] == 0.0) & (k > 0)
    x = np.zeros((len(rows), d))
    x[:, 0] = rows["r"]
    results = iter(frac_green_batch(kernel, beta, rows["t"][~skip], x[~skip], np.zeros_like(x[~skip]), k))
    for i, (t, r) in enumerate(zip(rows["t"].tolist(), rows["r"].tolist())):
        point = env.compute_omega(family, t, r, beta, alpha=alpha)
        regime = env.derivative_regime(point, beta, family) if case == "local_small_time" else point.regime
        res = None if skip[i] else next(results)
        err, nodes = (res.error_estimate, res.nodes) if isinstance(res, FracGreenResult) else (math.nan, 0)
        if isinstance(res, DomainError):
            # known on-diagonal divergence (d >= 2 / d >= alpha); the
            # envelope shape diverges there too
            log_g = log_env = math.inf
            flag = "skipped:diagonal-divergent"
        elif isinstance(res, Exception):  # per-point failures are flagged, not fatal
            log_g = log_env = math.nan
            flag = f"error:{type(res).__name__}"
        else:
            log_env = envelope_value(family, d, alpha, beta, k, point, rate, case=case).log_value
            if res is None:
                log_g, err, flag = -math.inf, 0.0, "skipped:diagonal-derivative"
            else:
                log_g, flag = res.log_value, "ok" if np.isfinite(log_env) else "skipped:envelope-divergent"
        rows[i] = (t, r, point.omega, regime, log_g, log_env, log_g - log_env if flag == "ok" else math.nan, flag,
                   err, nodes)
    return rows


def _refit_exponential_rate(rows, kernel, beta, k, case):
    """Choose the exponential rate minimising the off-diagonal ratio spread,
    and set the rows' envelopes and ratios at that rate.

    The paper's estimates leave the rate unspecified, and the default 1 is
    never trusted.  Only the off-diagonal branches carry exp{-rate ...}, so
    the on-diagonal rows are untouched, and there the log shape is affine in
    the rate: its values at 1 and 2 give every trial rate.  Fewer than 4
    off-diagonal rows keep rate 1.
    """
    idx = np.flatnonzero((rows["flag"] == "ok") & (rows["omega"] > 1.0))
    if len(idx) < 4:
        return 1.0
    family, d, alpha = _kernel_traits(kernel)
    points = [env.compute_omega(family, t, r, beta, alpha=alpha)
              for t, r in zip(rows["t"][idx].tolist(), rows["r"][idx].tolist())]
    le1, le2 = (
        np.array([envelope_value(family, d, alpha, beta, k, point, c, case=case).log_value for point in points])
        for c in (1.0, 2.0)
    )
    slope = le2 - le1
    log_g = rows["log_G"][idx]
    res = minimize_scalar(lambda c: np.ptp(log_g - le1 - (c - 1.0) * slope), bounds=(1e-3, 5.0),
                          method="bounded", options={"xatol": 1e-8})
    rate = float(res.x)
    rows["log_envelope"][idx] = le1 + (rate - 1.0) * slope
    rows["log_ratio"][idx] = log_g - rows["log_envelope"][idx]
    return rate


def _per_side_rates(rows, beta):
    """Separate upper/lower exponential rates from the residual hulls."""
    off = rows[(rows["flag"] == "ok") & (rows["omega"] > 1.0)]
    if len(off) < 8:
        return None
    xi = off["omega"] ** (1.0 / (2.0 - beta))
    resid = off["log_ratio"]
    med = np.median(resid)
    out = {}
    for label, mask in (("upper", resid >= med), ("lower", resid < med)):
        if mask.sum() >= 4:
            X = np.column_stack([np.ones(mask.sum()), xi[mask]])
            coef, half, _ = _ols(X, resid[mask])
            out[f"rate_offset_{label}"] = float(-coef[1])
            out[f"rate_offset_{label}_conf95"] = float(half[1])
    return out


def _regime_stats(rows):
    out = {}
    for regime in sorted(set(rows["regime"])):
        vals = rows["log_ratio"][(rows["regime"] == regime) & (rows["flag"] == "ok")]
        if not vals.size:
            continue
        out[regime] = {
            "count": int(vals.size),
            "min_log_ratio": float(vals.min()),
            "max_log_ratio": float(vals.max()),
            "spread": float(vals.max() - vals.min()),
        }
    return out


def _power_slope(rows, dim, beta, alpha, expected, tol):
    """Fit G t^{dim beta/alpha} = c Omega^p over the rows.

    Returns the fit with its expected exponent and whether |p - expected| <= tol,
    or None with fewer than 8 rows.
    """
    if len(rows) < 8:
        return None
    xs = rows["omega"]
    ys = np.exp(rows["log_G"] + dim * beta / alpha * np.log(rows["t"]))
    fr = fit_constants(xs, ys, model="power")
    return {**fr.as_dict(), "expected_exponent": expected}, bool(abs(fr.params["exponent"] - expected) <= tol)


def _certify(selector, kernel, beta, k, grid, rate, ratio_ceiling, horizon):
    """The certification behind both public entry points (see the module docstring)."""
    beta = _beta_value(beta)
    spec = _selector(selector)
    if spec.one_sided != (k > 0):
        kind = "derivative" if spec.one_sided else "value"
        raise SpecError(f"{selector} is a {kind} estimate; derivative order {k} does not apply")
    family, d, alpha = _kernel_traits(kernel)
    if family != spec.family:
        raise SpecError(f"{selector} expects a {spec.family} kernel")
    _check_envelope_order(family, k)
    if k > kernel.max_derivative_order():
        raise CapabilityError(f"{type(kernel).__name__} gives derivatives up to order {kernel.max_derivative_order()}")
    if spec.local:
        horizon = horizon if horizon is not None else kernel.horizon
        if horizon is None:
            raise SpecError(f"{selector} requires a horizon")
    grid = grid or default_grid(selector, kernel, beta, horizon=horizon)
    fit_rate = rate is None and family == "diffusion" and spec.case != "local_large_time"
    rate = 1.0 if rate is None else float(rate)
    if not rate > 0.0:  # checked before any point: the stable shapes never read it
        raise DomainError("exponential constant must be positive")

    rows = _collect_points(kernel, beta, grid, k, rate, spec.case, horizon)
    fits = {}
    if fit_rate:
        rate = _refit_exponential_rate(rows, kernel, beta, k, spec.case)
        fits["exponential_rate_fitted"] = rate
        sides = None if spec.one_sided else _per_side_rates(rows, beta)
        if sides:
            fits["per_side_rates"] = {
                "upper": rate + sides.get("rate_offset_upper", 0.0),
                "lower": rate + sides.get("rate_offset_lower", 0.0),
                "detail": sides,
            }
    stats = _regime_stats(rows)
    ok_rows = rows[rows["flag"] == "ok"]
    log_ratios = ok_rows["log_ratio"]
    flags = {}
    if spec.one_sided:
        tolerances = {"slope_tol": 0.15}
        flags["fitted_constant_finite"] = bool(log_ratios.size) and bool(np.isfinite(log_ratios.max()))
        if log_ratios.size:
            fits["fitted_C"] = math.exp(log_ratios.max())
    else:
        tolerances = {"ratio_ceiling": ratio_ceiling, "r_squared_min": 0.99, "slope_tol": 0.1}
        flags["regime_coverage"] = len(stats) >= 2
        flags["all_ratios_finite"] = bool(np.isfinite(log_ratios).all())
        if log_ratios.size:
            # realized prefactor window (the fitted two-sided constants)
            fits["prefactors"] = {"low": math.exp(log_ratios.min()), "high": math.exp(log_ratios.max())}
    if ratio_ceiling is not None:
        flags["ratio_ceiling"] = all(s["spread"] < math.log(ratio_ceiling) for s in stats.values())

    if family == "diffusion" and not spec.one_sided:
        # log G + (d beta / 2) log t should be linear in Omega^{1/(2-beta)}
        off = ok_rows[ok_rows["omega"] > 1.0]
        xs = off["omega"] ** (1.0 / (2.0 - beta))
        ys = off["log_G"] + d * beta / 2.0 * np.log(off["t"])
        flags["tail_linear_r2"] = flags["tail_slope_nonzero"] = False
        if xs.size >= 8:
            coef, half, r2 = _ols(np.column_stack([np.ones_like(xs), xs]), ys)
            fits["exponential_tail"] = {"rate": float(-coef[1]), "rate_conf95": float(half[1]), "r_squared": float(r2)}
            flags["tail_linear_r2"] = r2 >= 0.99
            flags["tail_slope_nonzero"] = bool((-coef[1] - half[1]) > 0.0)
    elif family == "stable" and spec.case == "global":
        tol = tolerances["slope_tol"]
        dim = d + k
        far = ok_rows[ok_rows["omega"] >= 3.0]
        fit = _power_slope(far, dim, beta, alpha, -1.0 - dim / alpha, tol)
        if fit:
            fits["off_diagonal_power"], flags["off_diagonal_slope"] = fit
        elif not spec.one_sided:
            flags["off_diagonal_slope"] = False
        if d > alpha and not spec.one_sided:
            near = ok_rows[(ok_rows["omega"] <= 3e-3) & (ok_rows["r"] > 0)]
            fit = _power_slope(near, d, beta, alpha, 1.0 - d / alpha, tol)
            if fit:
                fits["on_diagonal_power"], flags["on_diagonal_slope"] = fit

    config = {("prop" if spec.one_sided else "theorem"): selector, "beta": beta, "d": d, "alpha": alpha,
              "horizon": horizon, "t_values": list(grid.t_values), "r_values": list(grid.r_values),
              "rate": rate, **({"k": k, "case": spec.case} if spec.one_sided else {})}
    return VerificationReport(
        theorem=selector, family=family, d=d, alpha=alpha, beta=beta, derivative_order=k,
        one_sided=spec.one_sided, ratio_ceiling=math.inf if ratio_ceiling is None else ratio_ceiling,
        points=rows, regime_stats=stats, fits=fits, flags=flags, tolerances=tolerances,
        passed=all(flags.values()), config=config,
    )


def verify_envelope(theorem, kernel, beta, grid=None, rate=None, ratio_ceiling=1e3, horizon=None):
    """Two-sided envelope certification for one theorem/kernel/beta combo.

    ``rate``: the diffusion tail's exponential rate; None fits it.
    """
    return _certify(theorem, kernel, beta, 0, grid, rate, ratio_ceiling, horizon)


def verify_derivative_envelope(prop, kernel, beta, k=1, grid=None, rate=None, ratio_ceiling=None, horizon=None):
    """One-sided certification: |d^k G| <= fitted_C x shape at every point.

    ``rate``: the diffusion tail's exponential rate; None fits it, except in
    the large-time case, whose tail uses rate 1.
    """
    return _certify(prop, kernel, beta, k, grid, rate, ratio_ceiling, horizon)


def _row_dicts(rows):
    """Report rows as dicts of plain Python values."""
    return [dict(zip(rows.dtype.names, row)) for row in rows.tolist()]


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray) and obj.dtype == ROW_DTYPE:
        return _row_dicts(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, default=_json_default,
                      separators=(",", ":"))


def report_from_json(text: str) -> VerificationReport:
    fields = json.loads(text)
    rows = [tuple(p[c] for c in ROW_DTYPE.names) for p in fields.pop("points")]
    return VerificationReport(points=np.array(rows, dtype=ROW_DTYPE), **fields)


CSV_COLUMNS = ["t", "r", "omega", "regime", "log_G", "log_envelope", "log_ratio", "flag", "error_estimate", "nodes"]


def csv_text(columns, rows):
    """CSV of row dicts, or of report rows, under a header line; floats as
    repr, so they keep 17 digits."""
    if isinstance(rows, np.ndarray):
        rows = _row_dicts(rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in columns])
    return buf.getvalue()


def atomic_write(path, text):
    """Write text to path through a temporary file in the same directory and a rename."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    with os.fdopen(fd, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_report_files(report: VerificationReport, json_path, csv_path=None):
    """Atomic JSON (+ optional per-point CSV) emission; floats keep 17 digits."""
    atomic_write(json_path, report_to_json(report))
    if csv_path is not None:
        atomic_write(csv_path, csv_text(CSV_COLUMNS, report.points))
