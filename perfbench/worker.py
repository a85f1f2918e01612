"""One workload run in a fresh process; prints one JSON line as its result.

    python3 perfbench/worker.py --workload certify --seed 1 --launched <t>
        [--seconds S] [--setup-only | --probe | --spans PATH]

``--launched`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide clock, CLOCK_MONOTONIC on Linux), so
set-up time includes interpreter start and imports.
Without ``--spans`` the worker repeats the workload's rep, with no
instrumentation, while another rep is expected to end within ``--seconds``
(at least once); with ``--spans`` it runs one traced rep and writes the spans
to PATH (gzipped CSV).  With ``--probe`` set-up and reps run under a
``speed.SpeedProbe``, and set-up, reps and requests are reported in reference
time as well as in wall time; without it both are wall time.
"""

from __future__ import annotations

import time  # noqa: I001  (first, so nothing below escapes the set-up clock)

import argparse
import contextlib
import json
import resource
import statistics
import sys
import traceback
import weakref


def _draws(result, *args, **kwargs):
    size = kwargs.get("size", args[3] if len(args) > 3 else None)
    return 1.0 if size is None else float(size)


def instrument(tracer, workload):
    """Wrap the names each layer calls through, plus the benchmark's own call sites."""
    from fracgreen import envelopes as E
    from fracgreen import harness as H
    from fracgreen import kernels as K
    from fracgreen import mc as M
    from fracgreen import subordination as S

    seen = weakref.WeakSet()

    def history_bytes(hist, *args, **kwargs):
        if hist in seen:
            return 0.0
        seen.add(hist)
        return float(hist.xs.nbytes + hist.times.nbytes + hist.profiles.nbytes)

    def stable_family(kernel, *args):
        return "kernels.stable1d" if kernel.d == 1 else "kernels.stable_radial"

    for owner, attr in ((H, "frac_green_detailed"), (S, "frac_green"), (S, "frac_green_derivative")):
        tracer.patch(owner, attr, "subordination")
    tracer.patch(S, "stable_density_log", "specfun.w")
    for attr in ("envelope_diffusion", "envelope_stable", "envelope_diffusion_deriv", "envelope_stable_deriv"):
        tracer.patch(E, attr, "envelopes")
    for cls, name, attrs in (
        (K.ConstantDiffusion, "kernels.gaussian", ("log_value", "value", "derivative")),
        (K.IsotropicStable, stable_family, ("log_value", "value", "derivative")),
        (K.AnisotropicStable2D, "kernels.anisotropic", ("log_value", "value")),
    ):
        for attr in attrs:
            tracer.patch(cls, attr, name)
    tracer.patch(K.VariableDiffusion1D, "history", "kernels.fd1d.history", amount=history_bytes)
    tracer.patch(M, "sample_stable_increment", "mc.increment", amount=_draws)
    tracer.patch(M, "sample_inverse_subordinator", "mc.passage", amount=lambda res, *a, **k: float(len(res)))
    for owner, attr in ((H, "verify_envelope"), (H, "write_report_files")):
        tracer.patch(owner, attr, "harness")
    tracer.patch(M, "comparison_check", "mc")
    if hasattr(workload, "test_function"):
        tracer.patch(workload, "test_function", "testfn")


def layer_metrics(summary, counts):
    """Per-layer metrics of one traced rep: {name: (value, unit)}."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    kernels = {fam: get(f"kernels.{fam}", "self_s") for fam in ("gaussian", "stable1d", "stable_radial", "anisotropic")}
    fd1d_self = get("kernels.fd1d.history", "self_s")
    w_calls, w_self = get("specfun.w", "calls"), get("specfun.w", "self_s")
    sub_calls = get("subordination", "calls")
    sub_errors = summary.get("subordination", {}).get("errors", {})
    draws, paths = get("mc.increment", "amount"), get("mc.passage", "amount")
    history_bytes = get("kernels.fd1d.history", "amount")
    return {
        "specfun.w_calls": (w_calls, "count"),
        "specfun.w_self_s": (w_self, "s"),
        "specfun.w_us_per_call": (1e6 * w_self / w_calls if w_calls else 0.0, "us"),
        "subordination.calls": (sub_calls, "count"),
        "subordination.self_s": (get("subordination", "self_s"), "s"),
        "subordination.w_evals_per_call": (w_calls / sub_calls if sub_calls else 0.0, "ratio"),
        # DomainError is the documented on-diagonal divergence, not a failure
        "subordination.failed": (sum(n for e, n in sub_errors.items() if e != "DomainError"), "count"),
        "kernels.self_s": (sum(kernels.values()) + fd1d_self, "s"),
        **{f"kernels.{fam}.self_s": (v, "s") for fam, v in kernels.items()},
        "kernels.fd1d.history_builds": (get("kernels.fd1d.history", "counted"), "count"),
        "kernels.fd1d.history_s": (get("kernels.fd1d.history", "total_s"), "s"),
        "kernels.fd1d.history_mb": (history_bytes / 1e6, "MB-computed"),
        "envelopes.calls": (get("envelopes", "calls"), "count"),
        "envelopes.self_s": (get("envelopes", "self_s"), "s"),
        "harness.points": (counts.get("harness.points", 0), "count"),
        "harness.error_points": (counts.get("harness.error_points", 0), "count"),
        "harness.self_s": (get("harness", "self_s"), "s"),
        "mc.increment_draws": (draws, "count"),
        "mc.increment_s": (get("mc.increment", "total_s"), "s"),
        "mc.draws_per_path": (draws / paths if paths else 0.0, "ratio"),
        "mc.passage_self_s": (get("mc.passage", "self_s"), "s"),
        "mc.testfn_calls": (get("testfn", "calls"), "count"),
        "mc.testfn_s": (get("testfn", "total_s"), "s"),
    }


def timed_reps(workload, seconds, once):
    """Repeat the rep while another is expected to end within ``seconds``.

    Returns the reps' ``(start, end)`` stamps and their outputs (None for a
    rep that raised).
    """
    reps, outputs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            out = workload.rep()
        except Exception:  # the whole rep failed: report it, keep the process alive
            traceback.print_exc()
            out = None
        reps.append((t0, time.perf_counter()))
        outputs.append(out)
        # another rep only if it is expected to end within --seconds, so a
        # run's rep count does not flip with the machine's speed
        if once or time.perf_counter() - start + statistics.median(b - a for a, b in reps) > seconds:
            return reps, outputs


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    from speed import SpeedProbe

    probe = SpeedProbe()
    reference = probe.reference_s if args.probe else (lambda a, b: b - a)
    tracer = None
    with probe if args.probe else contextlib.nullcontext():
        import workloads
        from spans import Tracer, summarize

        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.setup()
        setup_end = time.perf_counter()
        if not args.setup_only:
            if args.spans:
                tracer = Tracer()
                instrument(tracer, workload)
            reps, outputs = timed_reps(workload, args.seconds, once=tracer is not None)
            if tracer:
                tracer.unpatch()
    result = {"setup_s": reference(args.launched, setup_end), "wall_setup_s": setup_end - args.launched}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    attempted = errors = wrong = 0
    notes, requests = [], []
    for out, rep in zip(outputs, reps):
        a, e, w, n = (1, 1, 0, ["rep raised"]) if out is None else workload.check(out)
        attempted, errors, wrong = attempted + a, errors + e, wrong + w
        notes += n
        requests += [rep] if out is None else workload.request_spans(out, *rep)
    result.update(
        wall_rep_s=[b - a for a, b in reps],
        wall_request_s=[b - a for a, b in requests],
        rep_s=[reference(a, b) for a, b in reps],
        request_s=[reference(a, b) for a, b in requests],
        probes=len(probe.starts),
        attempted=attempted,
        errors=errors,
        wrong=wrong,
        notes=notes[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    if tracer:
        counts = workload.counts(outputs[0]) if outputs[0] is not None else {}
        result["layers"] = layer_metrics(summarize(tracer.spans), counts)
        tracer.write_csv(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
