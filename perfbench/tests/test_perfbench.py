"""Self-tests of the benchmark's span arithmetic, oracle and output checks.

    python3 -m pytest perfbench/tests -q
"""

import math

import pytest

import oracle
import workloads
from spans import Span, Tracer, self_times_ns, summarize
from speed import REF_S, SpeedProbe


def test_self_time_subtracts_child_cover():
    # root [0, 100] with children [10, 30] and [50, 90]; the second child has
    # a grandchild [60, 70]
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 30, 0),
        Span("b", 50, 90, 0),
        Span("c", 60, 70, 2),
    ]
    assert self_times_ns(spans) == [40, 20, 30, 10]
    totals = summarize(spans)
    assert totals["root"]["self_s"] == pytest.approx(40e-9)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(100e-9)


def test_tracer_records_nesting_errors_and_amounts():
    tracer = Tracer()

    def inner(n):
        if n < 0:
            raise ValueError(n)
        return [0] * n

    traced_inner = tracer.wrap("inner", inner, amount=lambda res, n: float(len(res)))

    def outer():
        traced_inner(3)
        with pytest.raises(ValueError):
            traced_inner(-1)

    tracer.wrap("outer", outer)()
    names = [(s.name, s.parent, s.error, s.amount) for s in tracer.spans]
    assert names == [("outer", -1, "", 0.0), ("inner", 0, "", 3.0), ("inner", 0, "ValueError", 0.0)]
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)


def test_patch_and_unpatch_restore_the_original():
    class Owner:
        def value(self):
            return 1

    original = Owner.__dict__["value"]
    tracer = Tracer()
    tracer.patch(Owner, "value", "owner")
    assert Owner().value() == 1 and tracer.spans[0].name == "owner"
    tracer.unpatch()
    assert Owner.__dict__["value"] is original


@pytest.mark.parametrize("z", [0.0, 0.3, 1.7, 6.0, 25.0])
def test_mwright_half_is_gaussian(z):
    exact = math.exp(-z * z / 4.0) / math.sqrt(math.pi)
    assert oracle.mwright(0.5, z) == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_mwright_derivatives_and_integral_at_half():
    z = 2.0
    g = math.exp(-z * z / 4.0) / math.sqrt(math.pi)
    assert oracle.mwright(0.5, z, 1) == pytest.approx(-z / 2.0 * g, rel=1e-12)
    assert oracle.mwright(0.5, z, 2) == pytest.approx((z * z / 4.0 - 0.5) * g, rel=1e-12)
    assert oracle.mwright(0.5, z, -1) == pytest.approx(math.erf(z / 2.0), rel=1e-12)


def test_gamma_quarter_pin():
    got = oracle.gaussian_frac_green(0.5, 1.0, 0.0)
    assert got == pytest.approx(oracle.diagonal_pin(), rel=1e-14)
    assert got == pytest.approx(math.gamma(0.25) / (2.0 ** 1.5 * math.pi), rel=1e-14)


def test_perturbed_kernel_shows_up_as_failed():
    from fracgreen import kernels as K

    stream = workloads.PointStream(seed=5)
    gauss = [r for r in stream.requests if r[0] in ("pin", "gauss1")][:4]
    stream.requests = gauss
    stream.setup()
    attempted, errors, wrong, _ = stream.check(stream.rep())
    assert (attempted, errors, wrong) == (4, 0, 0)

    original = K.ConstantDiffusion.__dict__["log_value"]
    try:
        K.ConstantDiffusion.log_value = lambda self, t, x, y: original(self, t, x, y) + 1e-4
        attempted, errors, wrong, _ = stream.check(stream.rep())
    finally:
        K.ConstantDiffusion.log_value = original
    assert (attempted, errors) == (4, 0)
    assert wrong == 4


def test_reference_time_scales_by_probe_speed_and_drops_probe_time():
    probe = SpeedProbe()
    # ten probes, 0.1 s apart: the first five at reference speed, the last
    # five at half speed; each spends 3 * REF_S or 6 * REF_S in total
    for i in range(10):
        slow = 2.0 if i >= 5 else 1.0
        probe.starts.append(0.1 * i)
        probe.durations.append(slow * REF_S)
        probe.spent.append(slow * 3 * REF_S)
    # [0, 0.5) holds the five fast probes: wall time less their time
    assert probe.reference_s(0.0, 0.5) == pytest.approx(0.5 - 15 * REF_S)
    # [0.5, 1.0) holds the five slow ones: half of what is left
    assert probe.reference_s(0.5, 1.0) == pytest.approx(0.5 * (0.5 - 30 * REF_S))
    # an interval with no probe inside borrows its five nearest neighbours
    assert probe.reference_s(0.91, 0.92) == pytest.approx(0.5 * 0.01)
    with pytest.raises(RuntimeError):
        SpeedProbe().reference_s(0.0, 1.0)


def test_probe_samples_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.starts) >= 5
    assert all(d > 0.0 for d in probe.durations)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
