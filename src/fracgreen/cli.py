"""Command-line front end.

Subcommands: ``specfun`` (tabulate the stable density, Mittag-Leffler and
potential density), ``kernel`` (base kernels), ``green`` (fractional kernel
and derivatives), ``envelope`` (estimate shapes), ``verify`` (certification
sweeps), ``laplace-check`` (asymptotics vs oracle CSV), ``mc`` (Monte Carlo
campaigns).

Every subcommand accepts ``--out`` and ``--format {csv,json}``, plus
``--config FILE`` with a JSON parameter map; explicit flags win over
config-file values, and the effective configuration is echoed into every
artifact.  ``laplace-check`` also takes ``--tolerance``, the bound on its
worst log ratio that sets the exit code.  Exit codes: 0 all requested checks
passed, 1 computation or check failure (a JSON error record goes to stderr),
2 usage error.  Output files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import envelopes as env
from . import harness as H
from . import kernels as K
from . import mc as M
from . import specfun as sf
from . import subordination as S
from .errors import FracGreenError

__all__ = ["main", "dispatch", "RunConfig"]


@dataclass
class RunConfig:
    subcommand: str
    params: dict = field(default_factory=dict)

    def as_dict(self):
        return {"subcommand": self.subcommand, "params": self.params}


def _emit_table(rows, columns, fmt, out, config):
    """Rows of dicts -> CSV or JSON artifact (stdout when out is None)."""
    if fmt == "csv":
        text = H.csv_text(columns, rows)
    else:
        text = json.dumps({"config": config, "rows": rows}, sort_keys=True)
    if out:
        H.atomic_write(out, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


_FAMILY_PARAMS = {"gaussian": {"d", "diffusion_matrix"}, "stable": {"d", "alpha"}, "anisotropic": {"alpha", "spectral"},
                  "fd1d": {"coeff_a", "coeff_b", "coeff_c", "horizon"}}


def _build_kernel(p, own=()):
    """The kernel ``p`` asks for; a kernel parameter its family does not read is a usage error unless in ``own``."""
    family = p.get("kernel", "gaussian")
    if family not in _FAMILY_PARAMS:
        raise _Usage(f"unknown kernel family {family!r}")
    for name in sorted(set().union(*_FAMILY_PARAMS.values()) - _FAMILY_PARAMS[family] - set(own)):
        if p.get(name) is not None:
            raise _Usage(f"--{name.replace('_', '-')} is not read by the {family} kernel")
    d = int(p.get("d", 1))
    if family == "gaussian":
        matrix = p.get("diffusion_matrix")
        return K.ConstantDiffusion(d, matrix)
    if family == "stable":
        return K.IsotropicStable(d, float(p.get("alpha", 1.0)))
    if family == "anisotropic":
        alpha = float(p.get("alpha", 1.0))
        spectral = p.get("spectral", "uniform")
        if spectral == "uniform":
            mu = K.SpectralMeasure.uniform(alpha)
        elif spectral in K.SPECTRAL_BUILTINS:
            mu = K.SpectralMeasure.from_callable(K.SPECTRAL_BUILTINS[spectral])
        else:
            mu = K.spectral_density_from_csv(spectral)
        return K.AnisotropicStable2D(alpha, mu)
    if family == "fd1d":
        def coeff(name, default):
            v = p.get(name, default)
            if v in K.COEFFICIENT_BUILTINS:
                return K.COEFFICIENT_BUILTINS[v]
            if isinstance(v, str):
                return K.coefficient_from_csv(v)
            return v

        return K.VariableDiffusion1D(
            coeff("coeff_a", "one"),
            coeff("coeff_b", "zero"),
            coeff("coeff_c", "zero"),
            horizon=float(p.get("horizon", 1.0)),
        )


class _Usage(Exception):
    pass


def _cmd_specfun(p, fmt, out, config):
    beta = float(p["beta"])
    rows = []
    for x in p.get("x", [0.5, 1.0, 2.0]):
        rows.append({"quantity": "w_beta", "argument": float(x), "value": sf.stable_density(beta, float(x))})
    t = float(p.get("t", 1.0))
    for lam in p.get("lam", [0.0, 1.0]):
        lam = float(lam)
        rows.append({"quantity": "E_beta", "argument": -lam, "value": sf.ml_series(beta, -lam)})
        rows.append({"quantity": "potential_density", "argument": lam, "value": sf.potential_density(beta, lam, t)})
    _emit_table(rows, ["quantity", "argument", "value"], fmt, out, config)
    return 0


def _cmd_kernel(p, fmt, out, config):
    kernel = _build_kernel(p)
    t_values = [float(v) for v in p.get("t", [1.0])]
    r_values = [float(v) for v in p.get("r", [0.0, 0.5, 1.0, 2.0])]
    # the points r e_1, each against the origin
    origin, points = np.zeros(kernel.d), np.zeros((len(r_values), kernel.d))
    points[:, 0] = r_values
    rows = [{"t": t, "r": r, "value": kernel.value(t, x, origin)} for t in t_values for r, x in zip(r_values, points)]
    _emit_table(rows, ["t", "r", "value"], fmt, out, config)
    return 0


def _cmd_green(p, fmt, out, config):
    kernel = _build_kernel(p)
    beta = float(p["beta"])
    t = float(p["t"])
    x = p.get("x", [0.0] * kernel.d)
    y = p.get("y", [0.0] * kernel.d)
    k = int(p.get("derivative", 0))
    req = S.FracGreenRequest(kernel=kernel, beta=beta, t=t, x=x, y=y, derivative_order=k)
    res = S.frac_green_detailed(req)
    row = {"value": res.value, "log_value": res.log_value,
           "truncated_mass_bound": res.truncated_mass_bound,
           "error_estimate": res.error_estimate, "nodes": res.nodes}
    if out or "format" in p:
        _emit_table([row], list(row.keys()), fmt, out, config)
    else:
        sys.stdout.write(f"{row['value']!r}\n")
    return 0


def _cmd_envelope(p, fmt, out, config):
    theorem = str(p.get("theorem", "3.1"))
    beta = float(p["beta"])
    d = int(p.get("d", 1))
    alpha = p.get("alpha")
    k = int(p.get("derivative", 0))
    case = p.get("case", "global")
    t = float(p.get("t", 1.0))
    r_values = [float(v) for v in p.get("r", [1.0])]
    rate = float(p.get("c_beta", 1.0))
    family = H.theorem_family(theorem)
    rows = []
    for r in r_values:
        point = env.compute_omega(family, t, r, beta, alpha=alpha)
        ev = H.envelope_value(family, d, alpha, beta, k, point, rate, case=case)
        rows.append(
            {"t": t, "r": r, "omega": point.omega, "regime": ev.regime,
             "value": ev.value, "log_value": ev.log_value}
        )
    if out or "format" in p or len(rows) > 1:
        _emit_table(rows, ["t", "r", "omega", "regime", "value", "log_value"], fmt, out, config)
    else:
        sys.stdout.write(f"{rows[0]['value']!r}\n")
    return 0


def _cmd_verify(p, fmt, out, config):
    beta = float(p["beta"])
    selector = str(p["prop"] if p.get("prop") is not None else p.get("theorem", "3.1"))
    family = H.theorem_family(selector)
    if p.get("kernel") is None:
        p = dict(p)
        p["kernel"] = "fd1d" if selector == "4.1" else {"diffusion": "gaussian", "stable": "stable"}[family]
    kernel = _build_kernel(p, own=("horizon",))  # the grid reads --horizon for every family
    horizon = p.get("horizon")
    if horizon is not None:
        horizon = float(horizon)
    ceiling = float(p.get("ratio_ceiling", 1e3))
    if H.SELECTORS[selector].one_sided:
        rep = H.verify_derivative_envelope(selector, kernel, beta, k=int(p.get("k", 1)), horizon=horizon)
    else:
        rep = H.verify_envelope(selector, kernel, beta, ratio_ceiling=ceiling, horizon=horizon)
    rep.config["cli"] = config
    out_json = out or f"verify_{selector.replace('.', '_')}_beta{beta}.json"
    csv_path = os.path.splitext(out_json)[0] + ".csv"
    H.write_report_files(rep, out_json, csv_path)
    sys.stdout.write(f"report: {out_json}\npoints: {len(rep.points)}\npassed: {rep.passed}\n")
    return 0 if rep.passed else 1


def _cmd_laplace_check(p, fmt, out, config):
    a_vals = [float(v) for v in p.get("a", [1.0, 2.0])]
    n_vals = [float(v) for v in p.get("N", [-0.5, 0.0, 1.0])]
    c_vals = [float(v) for v in p.get("c", [0.25, 1.0])]
    omegas = [float(v) for v in p.get("omega", [1e2, 1e3, 1e4])]
    rows = []
    worst = 0.0
    for a in a_vals:
        for n in n_vals:
            for c in c_vals:
                for om in omegas:
                    spec = asy.LaplaceIntegrandSpec(N=n, a=a, c=c, Omega=om)
                    lo = asy.oracle_J(spec)
                    la = asy.prop_a1_asymptotic(spec)
                    rows.append(
                        {"a": a, "N": n, "c": c, "Omega": om,
                         "log_oracle": lo, "log_asymptotic": la, "log_ratio": lo - la}
                    )
                    if om == max(omegas):
                        worst = max(worst, abs(lo - la))
    _emit_table(rows, ["a", "N", "c", "Omega", "log_oracle", "log_asymptotic", "log_ratio"], fmt, out, config)
    tol = float(p.get("tolerance", 0.05))
    return 0 if worst < tol else 1


def _cmd_mc(p, fmt, out, config):
    campaign = p.get("campaign", "inverse")
    beta = float(p.get("beta", 0.5))
    t = float(p.get("t", 1.0))
    cfg = M.McConfig(
        sample_count=int(p.get("n", 100_000)),
        seed=int(p.get("seed", 20_250_101)),
        histogram_bins=int(p.get("bins", 80)),
        bracket_tol=float(p.get("bracket_tol", 1e-3)),
    )
    if campaign == "increment":
        rng = M.rng_stream(cfg.seed)
        s = M.sample_stable_increment(beta, t, rng, size=cfg.sample_count)
        summary = {
            "campaign": campaign, "beta": beta, "dt": t,
            "mean_exp": float(np.exp(-s).mean()), "expect_exp": math.exp(-t),
            "config": config,
        }
        data = s
    elif campaign == "inverse":
        e = M.sample_inverse_subordinator(beta, t, cfg)
        summary = {
            "campaign": campaign, "beta": beta, "t": t,
            "mean": float(e.mean()),
            "expected_mean": t**beta / math.gamma(1.0 + beta),
            "stderr": float(e.std() / math.sqrt(len(e))),
            "config": config,
        }
        data = e
    elif campaign == "subordinated":
        kernel = _build_kernel({**p, "kernel": p.get("kernel", "gaussian"), "d": 1})
        est = M.subordinated_density_mc(kernel, beta, t, cfg)
        summary = {"campaign": campaign, "beta": beta, "t": t}
        if kernel.alpha is None or kernel.alpha == 2.0:  # a stable base with alpha < 2 has no second moment
            summary["second_moment"] = float((est.samples**2).mean())
        summary["config"] = config
        data = est.samples
    elif campaign == "comparison":
        comps = p.get("components", [[0.5, 0.4], [0.5, 0.6]])
        nu = M.LevyKernelSpec(components=tuple((float(w), float(b)) for w, b in comps))
        thresh = float(p.get("threshold", 0.5))
        rep = M.comparison_check(
            nu, K.ConstantDiffusion(1), t, lambda v: 1.0 if v <= thresh else 0.0, cfg
        )
        summary = {"campaign": campaign, "t": t, **rep.summary(), "config": config}
        text = json.dumps(summary, sort_keys=True)
        if out:
            H.atomic_write(out, text)
        else:
            sys.stdout.write(text + "\n")
        return 0 if rep.ordering_holds else 1
    else:
        raise _Usage(f"unknown mc campaign {campaign!r}")

    counts, edges = np.histogram(data, bins=cfg.histogram_bins)
    width = np.diff(edges)
    rows = [
        {
            "bin_left": float(edges[i]), "bin_right": float(edges[i + 1]),
            "count": int(counts[i]), "density": float(counts[i] / (len(data) * width[i])),
        }
        for i in range(len(counts))
    ]
    if out:
        base, ext = os.path.splitext(out)
        hist_path = out if fmt == "csv" else base + ".csv"
        H.atomic_write(hist_path, H.csv_text(["bin_left", "bin_right", "count", "density"], rows))
        H.atomic_write(base + "_summary.json", json.dumps(summary, sort_keys=True))
    else:
        sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "specfun": _cmd_specfun,
    "kernel": _cmd_kernel,
    "green": _cmd_green,
    "envelope": _cmd_envelope,
    "verify": _cmd_verify,
    "laplace-check": _cmd_laplace_check,
    "mc": _cmd_mc,
}


def dispatch(config: RunConfig) -> int:
    """Run one subcommand from an effective configuration."""
    p = config.params
    fmt = p.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise _Usage(f"unknown format {fmt!r}")
    out = p.get("out")
    try:
        return _COMMANDS[config.subcommand](p, fmt, out, config.as_dict())
    except KeyError as exc:
        if str(exc).strip("'\"") == config.subcommand:
            raise _Usage(f"unknown subcommand {config.subcommand!r}") from exc
        record = {"error": "missing parameter", "detail": str(exc), "config": config.as_dict()}
        sys.stderr.write(json.dumps(record) + "\n")
        return 2


def _add_common(sub):
    sub.add_argument("--out", type=str, default=None, help="output artifact path")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--config", type=str, default=None, help="JSON parameter file (flags win)")


def _add_kernel_flags(sub):
    """The flags ``_build_kernel`` reads, one group for every command that builds a kernel."""
    kg = sub.add_argument_group("kernel")
    kg.add_argument("--kernel", choices=("gaussian", "stable", "anisotropic", "fd1d"), default=None)
    kg.add_argument("--d", type=int, default=None)
    kg.add_argument("--alpha", type=float, default=None)
    for name in ("spectral", "coeff-a", "coeff-b", "coeff-c"):  # each a builtin name or a CSV path
        kg.add_argument(f"--{name}", type=str, default=None)
    kg.add_argument("--horizon", type=float, default=None)


def _parser():
    ap = argparse.ArgumentParser(prog="fracgreen", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"fracgreen {__version__}")
    subs = ap.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("specfun", help="tabulate stable density / Mittag-Leffler / potential")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--x", type=float, nargs="*", default=None)
    sp.add_argument("--lam", type=float, nargs="*", default=None)
    sp.add_argument("--t", type=float, default=None)
    _add_common(sp)

    kp = subs.add_parser("kernel", help="tabulate base spatial kernels")
    _add_kernel_flags(kp)
    kp.add_argument("--t", type=float, nargs="*", default=None)
    kp.add_argument("--r", type=float, nargs="*", default=None)
    _add_common(kp)

    gp = subs.add_parser("green", help="fractional Green's function values")
    _add_kernel_flags(gp)
    gp.add_argument("--beta", type=float, required=True)
    gp.add_argument("--t", type=float, required=True)
    gp.add_argument("--x", type=float, nargs="*", default=None)
    gp.add_argument("--y", type=float, nargs="*", default=None)
    gp.add_argument("--derivative", type=int, default=None)
    _add_common(gp)

    ep = subs.add_parser("envelope", help="two-sided estimate shapes")
    ep.add_argument("--theorem", type=str, default=None)
    ep.add_argument("--d", type=int, default=None)
    ep.add_argument("--alpha", type=float, default=None)
    ep.add_argument("--beta", type=float, required=True)
    ep.add_argument("--t", type=float, default=None)
    ep.add_argument("--r", type=float, nargs="*", default=None)
    ep.add_argument("--derivative", type=int, default=None)
    ep.add_argument("--case", choices=("global", "local_small_time", "local_large_time"), default=None)
    ep.add_argument("--c-beta", dest="c_beta", type=float, default=None,
                    help="exponential rate of the diffusion tails (default 1)")
    _add_common(ep)

    vp = subs.add_parser("verify", help="run an envelope certification sweep")
    vp.add_argument("--theorem", type=str, default=None)
    vp.add_argument("--prop", type=str, default=None, help="derivative proposition selector")
    _add_kernel_flags(vp)
    vp.add_argument("--beta", type=float, required=True)
    vp.add_argument("--k", type=int, default=None)
    vp.add_argument("--ratio-ceiling", dest="ratio_ceiling", type=float, default=None)
    _add_common(vp)

    lp = subs.add_parser("laplace-check", help="Laplace-method asymptotics vs quadrature oracle")
    lp.add_argument("--a", type=float, nargs="*", default=None)
    lp.add_argument("--N", type=float, nargs="*", default=None)
    lp.add_argument("--c", type=float, nargs="*", default=None)
    lp.add_argument("--omega", type=float, nargs="*", default=None)
    lp.add_argument("--tolerance", type=float, default=None, help="bound on the worst log ratio (default 0.05)")
    _add_common(lp)

    mp = subs.add_parser("mc", help="Monte Carlo campaigns")
    mp.add_argument("--campaign", choices=("increment", "inverse", "subordinated", "comparison"), default=None)
    mp.add_argument("--kernel", choices=("gaussian", "stable"), default=None,
                    help="the d = 1 family a subordinated campaign simulates")
    mp.add_argument("--alpha", type=float, default=None)
    mp.add_argument("--beta", type=float, default=None)
    mp.add_argument("--t", type=float, default=None)
    mp.add_argument("--n", type=int, default=None)
    mp.add_argument("--seed", type=int, default=None)
    mp.add_argument("--bracket-tol", dest="bracket_tol", type=float, default=None,
                    help="accepted and validated; exact sampling ignores it")
    mp.add_argument("--bins", type=int, default=None)
    mp.add_argument("--threshold", type=float, default=None)
    _add_common(mp)

    return ap


def main(argv=None) -> int:
    ap = _parser()
    ns = ap.parse_args(argv)
    params = {}
    cfg_path = getattr(ns, "config", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                params.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            ap.error(f"cannot read config file: {exc}")  # exits 2
    for key, val in vars(ns).items():
        if key in ("subcommand", "config") or val is None:
            continue
        params[key] = val
    config = RunConfig(subcommand=ns.subcommand, params=params)
    try:
        return dispatch(config)
    except _Usage as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except FracGreenError as exc:
        record = {
            "error": type(exc).__name__,
            "detail": str(exc),
            "config": config.as_dict(),
        }
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
