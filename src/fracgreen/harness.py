"""Envelope certification: sweep grids, ratio fields, constant fitting.

A verification run evaluates the fractional kernel and the matching envelope
shape over a (t, r) grid, classifies every point's regime, and certifies the
two-sided estimate by

* bounded per-regime log-ratio spread (the paper guarantees existence of
  constants, not their size; the ceiling is configurable), and
* regression on the off-diagonal tail: for diffusion families log G is
  linear in Omega^{1/(2-beta)} (R^2 >= 0.99, slope CI excluding zero); for
  stable families the log-log slope must match the theorem exponent.

Upper and lower exponential constants are fitted separately; nothing assumes
they coincide.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import stats as sps
from scipy.optimize import minimize_scalar

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

THEOREM_FAMILY = {
    "3.1": "diffusion",
    "3.2": "stable",
    "4.1": "diffusion",
    "4.2": "stable",
}

LOCAL_THEOREMS = {"4.1", "4.2"}

DERIV_PROPS = {
    "prop3.1": ("diffusion", "global"),
    "prop3.2": ("stable", "global"),
    "prop4.1-small": ("diffusion", "local_small_time"),
    "prop4.1-large": ("diffusion", "local_large_time"),
    "prop4.3-small": ("stable", "local_small_time"),
    "prop4.3-large": ("stable", "local_large_time"),
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


def theorem_family(theorem):
    """The envelope family a theorem selector covers."""
    if theorem not in THEOREM_FAMILY:
        raise SpecError(f"unknown theorem selector {theorem!r}")
    return THEOREM_FAMILY[theorem]


def _kernel_traits(kernel):
    if kernel.alpha is not None and kernel.alpha >= 2.0:
        raise SpecError("envelope verification excludes the alpha = 2 sanity limit")
    return kernel.envelope_family, kernel.d, kernel.alpha


def default_grid(theorem, kernel, beta, horizon=None, per_decade=5, include_r0=True, k=0):
    """Grid covering both Omega <= 1 and Omega >= 1 with >= 5 points/decade."""
    beta = _beta_value(beta)
    family, d, alpha = _kernel_traits(kernel)
    expo = 2.0 if family == "diffusion" else alpha
    if theorem in LOCAL_THEOREMS:
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
    half = sps.t.ppf(0.975, dof) * np.sqrt(np.diag(cov))
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
        return asdict(self)


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


def _collect_points(kernel, beta, grid, k, consts, family, d, alpha, case="global", horizon=None):
    rows = []
    for t in grid.t_values:
        if horizon is not None and t > horizon * (1 + 1e-12):
            continue
        if case == "local_small_time" and t >= 1.0:
            continue
        if case == "local_large_time" and t <= 1.0:
            continue
        t = float(t)
        for r in grid.r_values:
            r = float(r)
            point = env.compute_omega(family, t, r, beta, alpha=alpha)
            regime = point.regime
            if case == "local_small_time":
                regime = env.derivative_regime(point, beta, family)
            row = {"t": t, "r": r, "omega": point.omega, "regime": regime}
            try:
                log_g, skipped = _eval_point(kernel, beta, t, r, k)
            except DomainError:
                # known on-diagonal divergence (d >= 2 / d >= alpha); the
                # envelope shape diverges there too
                rows.append({**row, "log_G": math.inf, "log_envelope": math.inf,
                             "log_ratio": math.nan, "flag": "skipped:diagonal-divergent"})
                continue
            except Exception as exc:  # per-point failures are flagged, not fatal
                rows.append({**row, "log_G": math.nan, "log_envelope": math.nan,
                             "log_ratio": math.nan, "flag": f"error:{type(exc).__name__}"})
                continue
            log_env = envelope_value(family, d, alpha, beta, k, point, consts, case=case).log_value
            if skipped:
                flag = "skipped:diagonal-derivative"
                log_ratio = math.nan
            elif not np.isfinite(log_env):
                flag = "skipped:envelope-divergent"
                log_ratio = math.nan
            else:
                flag = "ok"
                log_ratio = log_g - log_env
            rows.append({**row, "log_G": log_g, "log_envelope": log_env,
                         "log_ratio": log_ratio, "flag": flag})
    return rows


def _spread(vals):
    return max(vals) - min(vals) if vals else 0.0


def _refit_exponential_rate(rows, family, d, alpha, beta, k, case, consts):
    """Choose the exponential rate minimising the off-diagonal ratio spread.

    The paper's estimates leave the rate constant unspecified; the default
    1.0 is never trusted.  Only branches carrying exp{-C ...} react to the
    rate, so the on-diagonal rows are untouched by construction.
    """
    off = [p for p in rows if p["flag"] == "ok" and p["omega"] > 1.0]
    if len(off) < 4:
        return consts, rows

    def spread_at(c):
        cc = replace(consts, c_beta_exponent=c)
        vals = []
        for p in off:
            point = env.RegimePoint(
                t=p["t"], r=p["r"], omega=p["omega"], regime=env.OFF_DIAG,
                family=family, alpha=alpha,
            )
            le = envelope_value(family, d, alpha, beta, k, point, cc, case=case).log_value
            vals.append(p["log_G"] - le)
        return _spread(vals)

    res = minimize_scalar(spread_at, bounds=(1e-3, 5.0), method="bounded",
                          options={"xatol": 1e-8})
    fitted = replace(consts, c_beta_exponent=float(res.x))
    out = []
    for p in rows:
        if p["flag"] != "ok" or p["omega"] <= 1.0:
            out.append(p)
            continue
        point = env.RegimePoint(
            t=p["t"], r=p["r"], omega=p["omega"], regime=env.OFF_DIAG,
            family=family, alpha=alpha,
        )
        le = envelope_value(family, d, alpha, beta, k, point, fitted, case=case).log_value
        q = dict(p)
        q["log_envelope"] = le
        q["log_ratio"] = p["log_G"] - le
        out.append(q)
    return fitted, out


def _per_side_rates(rows, beta, family):
    """Separate upper/lower exponential rates from the residual hulls."""
    off = [p for p in rows if p["flag"] == "ok" and p["omega"] > 1.0]
    if len(off) < 8 or family != "diffusion":
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


def verify_envelope(theorem, kernel, beta, grid=None, consts=None, ratio_ceiling=1e3, horizon=None, fit_rate=True):
    """Two-sided envelope certification for one theorem/kernel/beta combo."""
    beta = _beta_value(beta)
    want_family = theorem_family(theorem)
    family, d, alpha = _kernel_traits(kernel)
    if family != want_family:
        raise SpecError(f"theorem {theorem} expects a {want_family} kernel")
    if theorem in LOCAL_THEOREMS:
        horizon = horizon if horizon is not None else kernel.horizon
        if horizon is None:
            raise SpecError("local theorems require a horizon")
    consts = consts or env.EnvelopeConstants(horizon_T=horizon)
    grid = grid or default_grid(theorem, kernel, beta, horizon=horizon)

    rows = _collect_points(kernel, beta, grid, 0, consts, family, d, alpha, horizon=horizon)
    fits = {}
    if family == "diffusion" and fit_rate:
        consts, rows = _refit_exponential_rate(rows, family, d, alpha, beta, 0, "global", consts)
        fits["exponential_rate_fitted"] = consts.c_beta_exponent
        sides = _per_side_rates(rows, beta, family)
        if sides:
            fits["per_side_rates"] = {
                "upper": consts.c_beta_exponent + sides.get("rate_offset_upper", 0.0),
                "lower": consts.c_beta_exponent + sides.get("rate_offset_lower", 0.0),
                "detail": sides,
            }
    stats = _regime_stats(rows)
    flags = {}
    tolerances = {"ratio_ceiling": ratio_ceiling, "r_squared_min": 0.99, "slope_tol": 0.1}

    ok_rows = [p for p in rows if p["flag"] == "ok"]
    flags["regime_coverage"] = len(stats) >= 2
    flags["all_ratios_finite"] = all(np.isfinite(p["log_ratio"]) for p in ok_rows)
    flags["ratio_ceiling"] = all(
        s["spread"] < math.log(ratio_ceiling) for s in stats.values()
    )

    off = [p for p in ok_rows if p["omega"] > 1.0]
    if family == "diffusion":
        # log G + (d beta / 2) log t should be linear in Omega^{1/(2-beta)}
        xs = np.array([p["omega"] ** (1.0 / (2.0 - beta)) for p in off])
        ys = np.array([p["log_G"] + d * beta / 2.0 * math.log(p["t"]) for p in off])
        if xs.size >= 8:
            X = np.column_stack([np.ones_like(xs), xs])
            coef, half, r2 = _ols(X, ys)
            fits["exponential_tail"] = {
                "rate": float(-coef[1]),
                "rate_conf95": float(half[1]),
                "r_squared": float(r2),
            }
            flags["tail_linear_r2"] = r2 >= 0.99
            flags["tail_slope_nonzero"] = bool((-coef[1] - half[1]) > 0.0)
        else:
            flags["tail_linear_r2"] = False
            flags["tail_slope_nonzero"] = False
    else:
        expected = -1.0 - d / alpha
        far = [p for p in off if p["omega"] >= 3.0]
        xs = np.array([math.log(p["omega"]) for p in far])
        ys = np.array([p["log_G"] + d * beta / alpha * math.log(p["t"]) for p in far])
        if xs.size >= 8:
            fr = fit_constants(np.exp(xs), np.exp(ys), model="power")
            fits["off_diagonal_power"] = fr.as_dict()
            fits["off_diagonal_power"]["expected_exponent"] = expected
            flags["off_diagonal_slope"] = bool(abs(fr.params["exponent"] - expected) <= 0.1)
        else:
            flags["off_diagonal_slope"] = False
        if d > alpha:
            on = [p for p in ok_rows if p["omega"] <= 3e-3 and p["r"] > 0]
            xs_on = np.array([p["omega"] for p in on])
            ys_on = np.array([math.exp(p["log_G"] + d * beta / alpha * math.log(p["t"])) for p in on])
            if xs_on.size >= 8:
                fr_on = fit_constants(xs_on, ys_on, model="power")
                fits["on_diagonal_power"] = fr_on.as_dict()
                fits["on_diagonal_power"]["expected_exponent"] = 1.0 - d / alpha
                flags["on_diagonal_slope"] = bool(abs(fr_on.params["exponent"] - (1.0 - d / alpha)) <= 0.1)

    # realized prefactor window (the fitted two-sided constants)
    if ok_rows:
        lr = [p["log_ratio"] for p in ok_rows]
        fits["prefactors"] = {
            "low": float(math.exp(min(lr))),
            "high": float(math.exp(max(lr))),
        }

    passed = all(flags.values())
    return VerificationReport(
        theorem=theorem,
        family=family,
        d=d,
        alpha=alpha,
        beta=beta,
        derivative_order=0,
        one_sided=False,
        ratio_ceiling=ratio_ceiling,
        points=rows,
        regime_stats=stats,
        fits=fits,
        flags=flags,
        tolerances=tolerances,
        passed=bool(passed),
        config={
            "theorem": theorem,
            "beta": beta,
            "d": d,
            "alpha": alpha,
            "horizon": horizon,
            "t_values": list(grid.t_values),
            "r_values": list(grid.r_values),
            "constants": asdict(consts),
        },
    )


def verify_derivative_envelope(prop, kernel, beta, k=1, grid=None, consts=None, ratio_ceiling=None, horizon=None):
    """One-sided certification: |d^k G| <= fitted_C x shape at every point."""
    beta = _beta_value(beta)
    if prop not in DERIV_PROPS:
        raise SpecError(f"unknown derivative proposition selector {prop!r}")
    want_family, case = DERIV_PROPS[prop]
    family, d, alpha = _kernel_traits(kernel)
    if family != want_family:
        raise SpecError(f"{prop} expects a {want_family} kernel")
    _check_envelope_order(family, k)
    if case != "global":
        horizon = horizon if horizon is not None else kernel.horizon
        if horizon is None:
            raise SpecError("local propositions require a horizon")
    consts = consts or env.EnvelopeConstants(horizon_T=horizon)
    theorem = "3.1" if family == "diffusion" else "3.2"
    grid = grid or default_grid(theorem, kernel, beta, horizon=horizon, k=k)

    rows = _collect_points(
        kernel, beta, grid, k, consts, family, d, alpha, case=case, horizon=horizon
    )
    fits = {}
    if family == "diffusion" and case != "local_large_time":
        consts, rows = _refit_exponential_rate(rows, family, d, alpha, beta, k, case, consts)
        fits["exponential_rate_fitted"] = consts.c_beta_exponent
    stats = _regime_stats(rows)
    flags = {}
    tolerances = {"slope_tol": 0.15}

    ok_rows = [p for p in rows if p["flag"] == "ok"]
    finite = [p["log_ratio"] for p in ok_rows]
    flags["fitted_constant_finite"] = bool(finite) and np.isfinite(max(finite))
    if finite:
        fits["fitted_C"] = float(math.exp(max(finite)))
    if ratio_ceiling is not None:
        flags["ratio_ceiling"] = all(s["spread"] < math.log(ratio_ceiling) for s in stats.values())

    if family == "stable" and case == "global":
        expected = -1.0 - (d + k) / alpha
        off = [p for p in ok_rows if p["omega"] >= 3.0]
        xs = np.array([p["omega"] for p in off])
        ys = np.array([math.exp(p["log_G"] + (d + k) * beta / alpha * math.log(p["t"])) for p in off])
        if xs.size >= 8:
            fr = fit_constants(xs, ys, model="power")
            fits["off_diagonal_power"] = fr.as_dict()
            fits["off_diagonal_power"]["expected_exponent"] = expected
            flags["off_diagonal_slope"] = bool(abs(fr.params["exponent"] - expected) <= 0.15)

    passed = all(flags.values())
    return VerificationReport(
        theorem=prop,
        family=family,
        d=d,
        alpha=alpha,
        beta=beta,
        derivative_order=k,
        one_sided=True,
        ratio_ceiling=ratio_ceiling if ratio_ceiling is not None else math.inf,
        points=rows,
        regime_stats=stats,
        fits=fits,
        flags=flags,
        tolerances=tolerances,
        passed=bool(passed),
        config={
            "prop": prop,
            "beta": beta,
            "d": d,
            "alpha": alpha,
            "k": k,
            "case": case,
            "horizon": horizon,
            "t_values": list(grid.t_values),
            "r_values": list(grid.r_values),
            "constants": asdict(consts),
        },
    )


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
