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
and for global stable bounds the off-diagonal slope.  The diffusion rate C in
exp{-C ...} is fitted, not trusted: the off-diagonal log shape is affine in C,
so its values at C = 1 and C = 2 give every trial rate.  Upper and lower
exponential constants are fitted separately; nothing assumes they coincide.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import stdtrit

from . import envelopes as env
from .errors import CapabilityError, DomainError, FitError, SpecError
from .specfun import _beta_value
from .subordination import FracGreenRequest, frac_green_detailed

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
    """Log-spaced (t, r) grid; r = 0 is prepended unless excluded."""

    t_values: tuple
    r_values: tuple
    theorem: str
    derivative_order: int = 0

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


def default_grid(theorem, kernel, beta, horizon=None, per_decade=5, include_r0=True, k=0):
    """Grid covering both Omega <= 1 and Omega >= 1 with >= 5 points/decade."""
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
    n_r = max(int(per_decade * math.log10(r_hi / r_lo)) + 1, 8)
    rs = np.geomspace(r_lo, r_hi, n_r)
    r_values = ([0.0] if include_r0 else []) + [float(r) for r in rs]
    return SweepGrid(
        t_values=tuple(float(t) for t in ts),
        r_values=tuple(r_values),
        theorem=theorem,
        derivative_order=k,
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
    points: list = field(default_factory=list)
    regime_stats: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    passed: bool = False
    schema_version: int = 1
    config: dict = field(default_factory=dict)

    def as_dict(self):
        # shallow: the fields hold plain dicts and lists, which json reads as they are
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _eval_point(kernel, beta, t, r, k):
    """(log G or log |dG|, skip flag) at radius r along the first axis."""
    x = np.zeros(kernel.d)
    x[0] = r
    req = FracGreenRequest(kernel=kernel, beta=beta, t=t, x=x, y=np.zeros(kernel.d), derivative_order=k)
    if k > 0 and r == 0.0:
        # odd symmetry: first derivative vanishes identically on the diagonal
        return -math.inf, True
    return frac_green_detailed(req).log_value, False


def _check_envelope_order(family, k):
    if family == "diffusion" and k > 1:
        raise CapabilityError("diffusion derivative envelopes are first order only")


def envelope_value(family, d, alpha, beta, k, point, consts, case="global"):
    """The envelope shape for a family and derivative order k (0: the value)."""
    _check_envelope_order(family, k)
    if k == 0:
        if family == "diffusion":
            return env.envelope_diffusion(d, beta, point, consts)
        return env.envelope_stable(d, alpha, beta, point, consts)
    if family == "diffusion":
        return env.envelope_diffusion_deriv(d, beta, point, consts, case=case)
    return env.envelope_stable_deriv(d, k, alpha, beta, point, consts, case=case)


def _collect_points(kernel, beta, grid, k, consts, case, horizon):
    family, d, alpha = _kernel_traits(kernel)
    rows = []
    for t in grid.t_values:
        if ((horizon is not None and t > horizon * (1 + 1e-12))
                or (case == "local_small_time" and t >= 1.0) or (case == "local_large_time" and t <= 1.0)):
            continue
        t = float(t)
        for r in grid.r_values:
            r = float(r)
            point = env.compute_omega(family, t, r, beta, alpha=alpha)
            regime = point.regime
            if case == "local_small_time":
                regime = env.derivative_regime(point, beta, family)
            try:
                log_g, skipped = _eval_point(kernel, beta, t, r, k)
            except DomainError:
                # known on-diagonal divergence (d >= 2 / d >= alpha); the
                # envelope shape diverges there too
                log_g = log_env = math.inf
                flag = "skipped:diagonal-divergent"
            except Exception as exc:  # per-point failures are flagged, not fatal
                log_g = log_env = math.nan
                flag = f"error:{type(exc).__name__}"
            else:
                log_env = envelope_value(family, d, alpha, beta, k, point, consts, case=case).log_value
                if skipped:
                    flag = "skipped:diagonal-derivative"
                else:
                    flag = "ok" if np.isfinite(log_env) else "skipped:envelope-divergent"
            rows.append({"t": t, "r": r, "omega": point.omega, "regime": regime, "log_G": log_g,
                         "log_envelope": log_env, "log_ratio": log_g - log_env if flag == "ok" else math.nan,
                         "flag": flag})
    return rows


def _refit_exponential_rate(rows, kernel, beta, k, case, consts):
    """Choose the exponential rate minimising the off-diagonal ratio spread.

    The paper's estimates leave the rate constant C unspecified; the default
    1.0 is never trusted.  Only the off-diagonal branches carry exp{-C ...},
    so the on-diagonal rows are untouched, and there the log shape is affine
    in C: its values at C = 1 and C = 2 give it at every trial rate.
    """
    idx = [i for i, p in enumerate(rows) if p["flag"] == "ok" and p["omega"] > 1.0]
    if len(idx) < 4:
        return consts, rows
    family, d, alpha = _kernel_traits(kernel)
    points = [env.compute_omega(family, rows[i]["t"], rows[i]["r"], beta, alpha=alpha) for i in idx]
    le1, le2 = (
        np.array([envelope_value(family, d, alpha, beta, k, point, replace(consts, c_beta_exponent=c),
                                 case=case).log_value for point in points])
        for c in (1.0, 2.0)
    )
    slope = le2 - le1
    log_g = np.array([rows[i]["log_G"] for i in idx])
    res = minimize_scalar(lambda c: np.ptp(log_g - le1 - (c - 1.0) * slope), bounds=(1e-3, 5.0),
                          method="bounded", options={"xatol": 1e-8})
    rate = float(res.x)
    out = list(rows)
    for i, le in zip(idx, le1 + (rate - 1.0) * slope):
        le = float(le)
        out[i] = {**rows[i], "log_envelope": le, "log_ratio": rows[i]["log_G"] - le}
    return replace(consts, c_beta_exponent=rate), out


def _per_side_rates(rows, beta):
    """Separate upper/lower exponential rates from the residual hulls."""
    off = [p for p in rows if p["flag"] == "ok" and p["omega"] > 1.0]
    if len(off) < 8:
        return None
    xi = np.array([p["omega"] ** (1.0 / (2.0 - beta)) for p in off])
    resid = np.array([p["log_ratio"] for p in off])
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
    for regime in sorted({p["regime"] for p in rows}):
        vals = [p["log_ratio"] for p in rows if p["regime"] == regime and p["flag"] == "ok"]
        if not vals:
            continue
        out[regime] = {
            "count": len(vals),
            "min_log_ratio": float(min(vals)),
            "max_log_ratio": float(max(vals)),
            "spread": float(max(vals) - min(vals)),
        }
    return out


def _power_slope(rows, dim, beta, alpha, expected, tol):
    """Fit G t^{dim beta/alpha} = c Omega^p over the rows.

    Returns the fit with its expected exponent and whether |p - expected| <= tol,
    or None with fewer than 8 rows.
    """
    if len(rows) < 8:
        return None
    xs = np.array([p["omega"] for p in rows])
    ys = np.array([math.exp(p["log_G"] + dim * beta / alpha * math.log(p["t"])) for p in rows])
    fr = fit_constants(xs, ys, model="power")
    return {**fr.as_dict(), "expected_exponent": expected}, bool(abs(fr.params["exponent"] - expected) <= tol)


def _certify(selector, kernel, beta, k, grid, consts, ratio_ceiling, horizon, fit_rate):
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
    consts = consts or env.EnvelopeConstants(horizon_T=horizon)
    grid = grid or default_grid(selector, kernel, beta, horizon=horizon, k=k)

    rows = _collect_points(kernel, beta, grid, k, consts, spec.case, horizon)
    fits = {}
    if family == "diffusion" and fit_rate and spec.case != "local_large_time":
        consts, rows = _refit_exponential_rate(rows, kernel, beta, k, spec.case, consts)
        fits["exponential_rate_fitted"] = consts.c_beta_exponent
        sides = None if spec.one_sided else _per_side_rates(rows, beta)
        if sides:
            fits["per_side_rates"] = {
                "upper": consts.c_beta_exponent + sides.get("rate_offset_upper", 0.0),
                "lower": consts.c_beta_exponent + sides.get("rate_offset_lower", 0.0),
                "detail": sides,
            }
    stats = _regime_stats(rows)
    ok_rows = [p for p in rows if p["flag"] == "ok"]
    log_ratios = [p["log_ratio"] for p in ok_rows]
    flags = {}
    if spec.one_sided:
        tolerances = {"slope_tol": 0.15}
        flags["fitted_constant_finite"] = bool(log_ratios) and np.isfinite(max(log_ratios))
        if log_ratios:
            fits["fitted_C"] = float(math.exp(max(log_ratios)))
    else:
        tolerances = {"ratio_ceiling": ratio_ceiling, "r_squared_min": 0.99, "slope_tol": 0.1}
        flags["regime_coverage"] = len(stats) >= 2
        flags["all_ratios_finite"] = all(np.isfinite(log_ratios))
        if log_ratios:
            # realized prefactor window (the fitted two-sided constants)
            fits["prefactors"] = {"low": float(math.exp(min(log_ratios))), "high": float(math.exp(max(log_ratios)))}
    if ratio_ceiling is not None:
        flags["ratio_ceiling"] = all(s["spread"] < math.log(ratio_ceiling) for s in stats.values())

    if family == "diffusion" and not spec.one_sided:
        # log G + (d beta / 2) log t should be linear in Omega^{1/(2-beta)}
        off = [p for p in ok_rows if p["omega"] > 1.0]
        xs = np.array([p["omega"] ** (1.0 / (2.0 - beta)) for p in off])
        ys = np.array([p["log_G"] + d * beta / 2.0 * math.log(p["t"]) for p in off])
        flags["tail_linear_r2"] = flags["tail_slope_nonzero"] = False
        if xs.size >= 8:
            coef, half, r2 = _ols(np.column_stack([np.ones_like(xs), xs]), ys)
            fits["exponential_tail"] = {"rate": float(-coef[1]), "rate_conf95": float(half[1]), "r_squared": float(r2)}
            flags["tail_linear_r2"] = r2 >= 0.99
            flags["tail_slope_nonzero"] = bool((-coef[1] - half[1]) > 0.0)
    elif family == "stable" and spec.case == "global":
        tol = tolerances["slope_tol"]
        dim = d + k
        far = [p for p in ok_rows if p["omega"] >= 3.0]
        fit = _power_slope(far, dim, beta, alpha, -1.0 - dim / alpha, tol)
        if fit:
            fits["off_diagonal_power"], flags["off_diagonal_slope"] = fit
        elif not spec.one_sided:
            flags["off_diagonal_slope"] = False
        if d > alpha and not spec.one_sided:
            near = [p for p in ok_rows if p["omega"] <= 3e-3 and p["r"] > 0]
            fit = _power_slope(near, d, beta, alpha, 1.0 - d / alpha, tol)
            if fit:
                fits["on_diagonal_power"], flags["on_diagonal_slope"] = fit

    config = {("prop" if spec.one_sided else "theorem"): selector, "beta": beta, "d": d, "alpha": alpha,
              "horizon": horizon, "t_values": list(grid.t_values), "r_values": list(grid.r_values),
              "constants": asdict(consts), **({"k": k, "case": spec.case} if spec.one_sided else {})}
    return VerificationReport(
        theorem=selector, family=family, d=d, alpha=alpha, beta=beta, derivative_order=k,
        one_sided=spec.one_sided, ratio_ceiling=math.inf if ratio_ceiling is None else ratio_ceiling,
        points=rows, regime_stats=stats, fits=fits, flags=flags, tolerances=tolerances,
        passed=all(flags.values()), config=config,
    )


def verify_envelope(theorem, kernel, beta, grid=None, consts=None, ratio_ceiling=1e3, horizon=None, fit_rate=True):
    """Two-sided envelope certification for one theorem/kernel/beta combo."""
    return _certify(theorem, kernel, beta, 0, grid, consts, ratio_ceiling, horizon, fit_rate)


def verify_derivative_envelope(prop, kernel, beta, k=1, grid=None, consts=None, ratio_ceiling=None, horizon=None):
    """One-sided certification: |d^k G| <= fitted_C x shape at every point."""
    return _certify(prop, kernel, beta, k, grid, consts, ratio_ceiling, horizon, True)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, default=_json_default,
                      separators=(",", ":"))


def report_from_json(text: str) -> VerificationReport:
    return VerificationReport(**json.loads(text))


CSV_COLUMNS = ["t", "r", "omega", "regime", "log_G", "log_envelope", "log_ratio", "flag"]


def csv_text(columns, rows):
    """CSV of row dicts under a header line; floats as repr, so they keep 17 digits."""
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
