"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import hostspeed  # noqa: E402
import importtime  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, instrument, self_times  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = stats.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in range(1, 101)) == 10


def test_tail_capped_at_p95():
    value, pct, n = stats.tail(range(1, 2001))
    assert (value, pct) == (1900, 95.0)


def test_tail_never_below_median():
    value, pct, n = stats.tail(range(1, 16))
    assert value == 8 and n == 15
    assert value >= stats.p50(range(1, 16))
    assert stats.tail(range(1, 21))[0] >= stats.p50(range(1, 21))


def test_tail_of_few_samples_is_the_slowest():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _speed(starts, durations):
    speed = hostspeed.HostSpeed()
    speed.starts, speed.durations = list(starts), list(durations)
    return speed


def test_scaled_time_drops_the_sampler_and_follows_host_speed():
    ref = hostspeed.REF_S
    # host at half speed around the interval; one sample falls inside it
    speed = _speed([9.0, 10.2, 10.9, 20.0], [2 * ref, 2 * ref, 2 * ref, ref])
    assert speed.scaled(10.0, 10.5) == pytest.approx((0.5 - 2 * ref) / 2)
    assert speed.scaled(19.9, 20.0) == pytest.approx(0.1)


def test_scaled_time_without_samples_nearby_uses_the_nearest():
    ref = hostspeed.REF_S
    speed = _speed([1.0, 5.0], [ref, 4 * ref])
    assert speed.scaled(3.0, 3.1) == pytest.approx(0.1 / 2.5)


def test_sampler_runs_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        end = time.perf_counter() + 3 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(speed.durations) >= 1 and signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, "root", 0, 100, -1, 0),
        Span(1, "a", 10, 30, 0, 0),
        Span(2, "b", 40, 70, 0, 0),
        Span(3, "c", 45, 50, 2, 0),
    ]
    assert self_times(spans) == [50, 20, 25, 5]


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "root", 0, 100, -1, 0), Span(1, "a", 10, 50, 0, 0),
             Span(2, "b", 30, 60, 0, 0)]
    assert self_times(spans)[0] == 50


def test_tracer_records_parents_and_ops():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans()
    assert (outer.parent, inner.parent, inner.op) == (-1, outer.id, 7)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_instrument_rebinds_every_alias_and_restores():
    from homcone import invariant, selection

    original = invariant.same_space
    tracer = Tracer()
    target = [("homcone.invariant", "same_space", "invariant.same_space", None)]
    with instrument(tracer, target, "homcone"):
        assert selection.same_space is invariant.same_space is not original
        models = selection.build_butterfly_models()
        selection.dedupe_models(models)
    assert selection.same_space is original and invariant.same_space is original
    assert sum(s.name == "invariant.same_space" for s in tracer.spans()) == 21


REPORT = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   homcone.errors
import time:        50 |         50 |       numpy.version
import time:       400 |        900 |     numpy
import time:       200 |       1100 |   homcone.graphs
import time:        30 |         30 |         scipy._lib
import time:       300 |        330 |       scipy
import time:       500 |        830 |     scipy.linalg
import time:       100 |        930 |   homcone.cone
import time:        70 |         70 |     scipy.special
import time:        20 |         90 |   homcone.oracle
import time:        10 |       2230 | homcone
"""


def test_importtime_sums_outermost_entries_per_package():
    totals = importtime.cumulative_us(REPORT, ("homcone", "numpy", "scipy"))
    assert totals == {"homcone": 2230, "numpy": 900, "scipy": 900}


def test_same_seed_same_inputs(tmp_path):
    exam_chol = workloads.exam_cholesky(workloads.selection.exam_marks_summary())
    for k in (0, 5):
        a, b = workloads.sweep_point(3, k, exam_chol), workloads.sweep_point(3, k, exam_chol)
        assert a[:2] == b[:2] and np.array_equal(a[2], b[2])
    assert workloads.sweep_point(3, 0, exam_chol)[0] != workloads.sweep_point(4, 0, exam_chol)[0]
    assert workloads.lattice_graphs(3, 1) == workloads.lattice_graphs(3, 1)
    assert workloads.mc_seed(3, 2) == workloads.mc_seed(3, 2) != workloads.mc_seed(4, 2)
    args = (exam_chol, list("abcde"), ["G1", "G2"], str(tmp_path))
    one, two = workloads.cli_cycle(3, 0, *args), workloads.cli_cycle(3, 0, *args)
    assert one.commands == two.commands
    assert np.array_equal(one.data["data"].scatter, two.data["data"].scatter)
    assert one.commands != workloads.cli_cycle(4, 0, *args).commands


def test_sweep_point_ranges():
    exam_chol = workloads.exam_cholesky(workloads.selection.exam_marks_summary())
    for k in range(50):
        shape, d, rows = workloads.sweep_point(11, k, exam_chol)
        assert 2.0 < shape <= 10.0 and 1.0 <= d < 1e4 and 20 <= len(rows) <= 200


def test_lattice_graph_names_match_per_graph_metrics():
    assert tuple(workloads.base_graphs()) == tuple(workloads.LATTICE_COUNTS) == layers.GRAPHS


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == layers.metric_units()
