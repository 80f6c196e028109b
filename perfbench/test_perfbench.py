"""Unit tests of the benchmark's own arithmetic and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


class TestTail:
    def test_too_few_samples_gives_the_maximum(self):
        values = [float(v) for v in range(19, 0, -1)]  # n = 19: p50 leaves only 9 beyond
        t = stats.tail(values)
        assert t == {"percentile": 100.0, "value": 19.0, "beyond": 0, "samples": 19,
                     "too_few": True}

    def test_median_needs_twenty_samples(self):
        t = stats.tail([float(v) for v in range(1, 21)])
        assert (t["percentile"], t["value"], t["beyond"], t["too_few"]) == (50.0, 10.0, 10, False)

    def test_p90_from_one_hundred_samples(self):
        t = stats.tail([float(v) for v in range(1, 101)])
        assert (t["percentile"], t["value"], t["beyond"]) == (90.0, 90.0, 10)

    def test_just_below_one_hundred_stays_at_the_median(self):
        t = stats.tail([float(v) for v in range(1, 100)])
        assert (t["percentile"], t["value"], t["beyond"]) == (50.0, 50.0, 49)

    def test_p99_from_one_thousand_samples(self):
        t = stats.tail([float(v) for v in range(1000, 0, -1)])
        assert (t["percentile"], t["value"], t["beyond"]) == (99.0, 990.0, 10)

    def test_single_sample(self):
        assert stats.tail([3.5])["value"] == 3.5

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            stats.tail([])

    def test_percentile_is_nearest_rank(self):
        assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
        assert stats.percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0
        assert stats.percentile([7.0], 0) == 7.0


class TestSelfTime:
    # (name, parent, trajectory, start, end): root 0..100 with children
    # A 10..40 (which has a child 15..25) and B 50..70, plus a second root.
    SPANS = [
        ("root", -1, 0, 0, 100),
        ("A", 0, 0, 10, 40),
        ("A.child", 1, 0, 15, 25),
        ("B", 0, 0, 50, 70),
        ("other", -1, 1, 200, 230),
    ]

    def test_nested_tree(self):
        assert stats.self_times(self.SPANS) == [50, 20, 10, 20, 30]

    def test_self_times_sum_to_root_durations(self):
        assert sum(stats.self_times(self.SPANS)) == 100 + 30

    def test_leaf_self_time_is_its_duration(self):
        assert stats.self_times([("x", -1, -1, 5, 12)]) == [7]


class TestHostScale:
    def test_half_speed_halves_the_times(self):
        assert stats.host_scale([0.02, 0.03, 0.02], 0.01) == pytest.approx(0.5)

    def test_no_timings_is_an_error(self):
        with pytest.raises(ValueError):
            stats.host_scale([], 0.01)

    def test_each_item_uses_the_units_nearest_it(self):
        # Items 0..3; one unit after each, the host twice as slow from item 2 on.
        units = [0.01, 0.01, 0.02, 0.02]
        scales = stats.local_scales(4, units, [0, 1, 2, 3], 0.01, k=1)
        # item i: the unit after item i-1 and the one after item i
        assert scales == pytest.approx([1.0, 1.0, 1 / 1.5, 0.5])

    def test_several_units_after_one_item(self):
        # Item 0 is followed by three units, item 1 by one.
        units = [0.01, 0.02, 0.04, 0.08]
        scales = stats.local_scales(2, units, [0, 0, 0, 1], 0.01, k=2)
        # item 1: the last two units before it and the one after it
        assert scales == pytest.approx([0.01 / 0.015, 0.01 / 0.04])

    def test_every_timing_needs_its_item(self):
        with pytest.raises(ValueError):
            stats.local_scales(2, [0.01, 0.01], [0], 0.01)


class TestFailedFrac:
    def test_share(self):
        assert stats.failed_frac(200, 3) == pytest.approx(0.015)

    def test_none_failed(self):
        assert stats.failed_frac(7, 0) == 0.0

    def test_all_failed(self):
        assert stats.failed_frac(4, 4) == 1.0

    @pytest.mark.parametrize("attempted,failed", [(0, 0), (3, 4), (3, -1)])
    def test_rejects_impossible_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            stats.failed_frac(attempted, failed)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = 11.75, 14.5, 17.25
    assert math.isclose(stats.quartile_spread(values), (q3 - q1) / q2)


def test_make_config_depends_only_on_workload_and_seed():
    from workloads import WORKLOADS, make_config

    for name in WORKLOADS:
        assert make_config(name, 3, 10) == make_config(name, 3, 10)
        assert make_config(name, 3, 10)["master_seed"] != make_config(name, 4, 10)["master_seed"]
        assert make_config(name, 3, 10)["initial_state"] == make_config(name, 3, 99)["initial_state"]


def test_benchmark_json_lists_exactly_the_metrics_run_prints():
    import json

    import run
    from workloads import WORKLOADS

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


@pytest.fixture
def mfsim_src():
    src = HERE.parent / "src"
    if not (src / "mfsim").is_dir():
        pytest.skip("mfsim sources not present")
    sys.path.insert(0, str(src))
    yield
    sys.path.remove(str(src))


def test_tracer_skips_names_that_no_longer_exist(mfsim_src, monkeypatch):
    import spantrace

    gone = (("statevec", "mfsim.statevec", "no_such_function"), ("gone", "mfsim.gone", "f"))
    monkeypatch.setattr(spantrace, "TRACED", spantrace.TRACED + gone)
    with spantrace.Tracer() as tracer:
        pass
    assert tracer.missing == ["statevec.no_such_function", "gone.f"]


def test_tracer_records_spans_and_restores_every_binding(mfsim_src):
    import mfsim.emission
    import mfsim.feedback
    import mfsim.pauli
    import mfsim.statevec
    import mfsim.harness
    from spantrace import Tracer
    from workloads import make_config

    before = {m: dict(vars(m)) for m in (mfsim.statevec, mfsim.feedback, mfsim.emission)}
    updated = vars(mfsim.pauli.ErrorFrame)["updated"]
    from_dict = vars(mfsim.harness.ProtocolConfig)["from_dict"]
    cfg = mfsim.harness.ProtocolConfig.from_dict(make_config("trotter3", 0, 1))
    with Tracer() as tracer:
        assert mfsim.feedback.apply_local is not before[mfsim.feedback]["apply_local"]
        assert mfsim.statevec.apply_local is mfsim.feedback.apply_local
        mfsim.harness.run_trajectory(cfg, 5)
    for module, binding in before.items():
        assert all(vars(module)[k] is v for k, v in binding.items())
    assert vars(mfsim.pauli.ErrorFrame)["updated"] is updated
    assert vars(mfsim.harness.ProtocolConfig)["from_dict"] is from_dict
    assert tracer.missing == []

    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names[0] == "harness.run_trajectory" and tracer.spans[0][1] == -1
    assert all(s[2] == 5 for s in tracer.spans)
    assert all(0 <= s[1] < i for i, s in enumerate(tracer.spans) if i > 0)
    assert "statevec.apply_local" in names and "feedback.realize_v_kl" in names
