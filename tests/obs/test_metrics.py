"""MetricsRegistry semantics: typing, determinism, merge, active scope."""

import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    active_registry,
    collecting,
    merge_metric_dicts,
)


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.value("a") == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("a", -1)

    def test_gauge_set_and_max(self):
        reg = MetricsRegistry()
        reg.gauge_set("g", 7)
        reg.gauge_max("g", 3)  # lower: keeps 7
        assert reg.value("g") == 7
        reg.gauge_max("g", 11)
        assert reg.value("g") == 11

    def test_name_owns_one_kind(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_value_default_for_unknown(self):
        assert MetricsRegistry().value("nope", default=-1) == -1


class TestHistogram:
    def test_buckets_must_be_increasing_integers(self):
        with pytest.raises(ValueError):
            Histogram((4, 2))
        with pytest.raises(ValueError):
            Histogram((1, 1))
        with pytest.raises(ValueError):
            Histogram((1, 2.5))

    def test_exact_bucketing(self):
        h = Histogram((1, 4, 16))
        for v in (0, 1, 2, 4, 5, 16, 17):
            h.observe(v)
        d = h.to_dict()
        assert d["counts"] == [2, 2, 2]  # {0,1}, {2,4}, {5,16}
        assert d["overflow"] == 1  # 17
        assert d["count"] == 7
        assert d["total"] == sum((0, 1, 2, 4, 5, 16, 17))
        assert (d["min"], d["max"]) == (0, 17)

    @pytest.mark.parametrize("value", [0, 3, 16, 17, 2.5])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_counted_observe_equals_repeated_calls(self, value, k):
        counted, repeated = Histogram((1, 4, 16)), Histogram((1, 4, 16))
        counted.observe(5)
        repeated.observe(5)
        counted.observe(value, k)
        for _ in range(k):
            repeated.observe(value)
        assert counted.to_dict() == repeated.to_dict()

    def test_registry_observe_takes_a_count(self):
        counted, repeated = MetricsRegistry(), MetricsRegistry()
        counted.observe("h", 9, 4)
        for _ in range(4):
            repeated.observe("h", 9)
        assert counted.to_dict() == repeated.to_dict()

    def test_zero_count_is_a_no_op(self):
        h = Histogram((1, 4))
        h.observe(3, 0)
        assert h.to_dict() == Histogram((1, 4)).to_dict()
        assert (h.vmin, h.vmax) == (None, None)

    @pytest.mark.parametrize("count", [-1, 1.0, 2.5, True, "2"])
    def test_bad_count_rejected(self, count):
        h = Histogram((1, 4))
        with pytest.raises(ValueError):
            h.observe(3, count)
        assert h.count == 0

    def test_default_buckets_are_powers_of_two(self):
        assert all(b == 2 ** (2 * i) for i, b in enumerate(DEFAULT_BUCKETS))


class TestSnapshots:
    def test_to_dict_sorted_and_json_safe(self):
        reg = MetricsRegistry()
        reg.inc("z.last")
        reg.inc("a.first")
        reg.gauge_set("m.gauge", 2.5)
        reg.observe("h", 3)
        snap = reg.to_dict()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        assert json.loads(json.dumps(snap)) == snap

    def test_snapshot_deterministic_across_instances(self):
        def make():
            reg = MetricsRegistry()
            reg.inc("c", 3)
            reg.observe("h", 9)
            reg.gauge_max("g", 4)
            return reg.to_dict()

        assert make() == make()

    def test_round_trip_through_from_dict(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.gauge_set("g", 5)
        reg.observe("h", 7)
        assert MetricsRegistry.from_dict(reg.to_dict()).to_dict() == reg.to_dict()


class TestMerge:
    def test_counters_add_gauges_max_histograms_sum(self):
        a = MetricsRegistry()
        a.inc("c", 2)
        a.gauge_set("g", 10)
        a.observe("h", 1)
        b = MetricsRegistry()
        b.inc("c", 3)
        b.gauge_set("g", 4)
        b.observe("h", 100)
        merged = merge_metric_dicts([a.to_dict(), b.to_dict()])
        assert merged["counters"]["c"] == 5
        assert merged["gauges"]["g"] == 10  # peak semantics
        h = merged["histograms"]["h"]
        assert h["count"] == 2 and h["total"] == 101
        assert (h["min"], h["max"]) == (1, 100)

    def test_merge_rejects_differing_buckets(self):
        a = MetricsRegistry()
        a.observe("h", 1, buckets=(1, 2))
        b = MetricsRegistry()
        b.observe("h", 1, buckets=(1, 4))
        with pytest.raises(ValueError):
            a.merge(b.to_dict())

    def test_empty_snapshots_are_skipped(self):
        assert merge_metric_dicts([{}, None]) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestActiveScope:
    def test_no_registry_by_default(self):
        assert active_registry() is None

    def test_collecting_activates_and_restores(self):
        with collecting() as reg:
            assert active_registry() is reg
            with collecting() as inner:
                assert active_registry() is inner  # innermost wins
            assert active_registry() is reg
        assert active_registry() is None

    def test_collecting_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError("boom")
        assert active_registry() is None

    def test_thread_safety_of_shared_registry(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.inc("n")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.value("n") == 8000
