"""fracgreen benchmark client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/fracgreen`` must exist).  Every
measurement happens in a fresh worker process, started one at a time, so the
library's in-process caches never leak between workloads or runs:

* ``--trace 0``: two set-up probes plus one measured run; prints the
  end-to-end metrics (set-up time is the median of the three set-ups).
  Every time it prints is in reference time: wall time corrected for the
  shared host's drifting speed by ``speed.SpeedProbe``.  The wall-clock
  medians go to the summary line and the run record.
* ``--trace 1``: one untraced rep and two traced reps of the same seed;
  prints the per-layer metrics, checks that every count repeats exactly
  across the two traced processes, and reports the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with the
environment (versions, thread caps, git SHA when available) goes to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(".bench_build", "perfbench")
DEADLINE_S = 170.0  # every run, traced or not, ends within 180 s
SETUP_PROBES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("certify", "point-stream", "fd1d-horizon", "mc-comparison")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "request_p50_ms": "ms", "request_p95_ms": "ms", "peak_rss_mb": "MB"}
# per-layer metrics that are counts, not times: they must repeat exactly
TIME_UNITS = {"s", "us"}


class RunFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(os.cpu_count() or 1)
    for var in THREAD_VARS:
        env[var] = nproc
    # the library's sweep-threading knob stays at its default (unset)
    env.pop("FRACGREEN_THREADS", None)
    return env


def run_worker(args, env, deadline, extra):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a worker")
    launched = time.perf_counter()  # the worker's set-up clock: see worker.py
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--launched", repr(launched), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed("worker timed out")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed("worker printed no result")


def percentile(values, q):
    """q-th percentile (0 < q < 100), interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, env, deadline):
    setups = [run_worker(args, env, deadline, ["--setup-only", "--probe"])["setup_s"] for _ in range(SETUP_PROBES)]
    res = run_worker(args, env, deadline, ["--seconds", str(args.seconds), "--probe"])
    requests = res["request_s"]
    metrics = {
        "setup_s": statistics.median(setups + [res["setup_s"]]),
        "run_s": statistics.median(res["rep_s"]),
        "request_p50_ms": 1e3 * statistics.median(requests),
        "request_p95_ms": 1e3 * percentile(requests, 95),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    info = {
        "reps": len(res["rep_s"]), "requests": len(requests), "probes": res["probes"],
        "setup_samples": setups + [res["setup_s"]],
        "wall_setup_s": res["wall_setup_s"],
        "wall_run_s": statistics.median(res["wall_rep_s"]),
        "wall_request_p50_ms": 1e3 * statistics.median(res["wall_request_s"]),
    }
    return [res], {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def per_layer(args, env, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    base = run_worker(args, env, deadline, ["--seconds", "0"])
    traced = [
        run_worker(args, env, deadline, ["--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}-{i}.csv.gz")])
        for i in (1, 2)
    ]
    layers = [{k: tuple(v) for k, v in t["layers"].items()} for t in traced]
    mismatched = sorted(
        name for name, (value, unit) in layers[0].items()
        if unit not in TIME_UNITS and layers[1][name][0] != value
    )
    metrics = {
        name: (value if unit not in TIME_UNITS else statistics.mean([value, layers[1][name][0]]), unit)
        for name, (value, unit) in layers[0].items()
    }
    traced_run_s = statistics.mean(t["wall_rep_s"][0] for t in traced)
    metrics["trace.overhead_s"] = (traced_run_s - base["wall_rep_s"][0], "s")
    info = {"untraced_run_s": base["wall_rep_s"][0], "traced_run_s": traced_run_s, "count_mismatches": mismatched}
    return [base, *traced], metrics, info


def environment(env):
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "FRACGREEN_THREADS": {"caller": os.environ.get("FRACGREEN_THREADS"), "workers": env.get("FRACGREEN_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "fracgreen", "__init__.py")):
        print("perfbench: run from the root of a fracgreen checkout (src/fracgreen not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    try:
        results, metrics, info = (per_layer if args.trace else end_to_end)(args, env, deadline)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    errors = sum(r["errors"] for r in results)
    wrong = sum(r["wrong"] for r in results)
    notes = [n for r in results for n in r["notes"]]
    correct = wrong == 0 and not info.get("count_mismatches")
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "errors": errors, "wrong": wrong, "failed_frac": (errors + wrong) / attempted,
        "notes": notes, "info": info, "environment": environment(env), "metrics": reported,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"record-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for note in notes[:10]:
        print(f"perfbench: {note}", file=sys.stderr)
    if info.get("count_mismatches"):
        print(f"perfbench: counts differ between traced runs: {info['count_mismatches']}", file=sys.stderr)
    summary = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
    print(f"{args.workload} seed={args.seed}: failed_frac={record['failed_frac']:.4g} ratio "
          f"({errors + wrong}/{attempted}, {errors} errors, {wrong} wrong)  {summary}  {json.dumps(info)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": errors + wrong,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
