"""Quantile sketches, run scopes, and cross-run metric aggregation."""

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runs import run_seeded_migration
from repro.telemetry.sketch import (
    QuantileSketch,
    RunScope,
    aggregate_run_metrics,
    scalar_series,
    snapshot_delta,
)


class TestQuantileSketch:
    def test_quantiles_within_relative_error(self):
        sketch = QuantileSketch(relative_error=0.01)
        values = list(range(1, 10_001))
        for v in values:
            sketch.observe(v)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = values[int(q * (len(values) - 1))]
            assert abs(sketch.quantile(q) - exact) <= 0.025 * exact

    def test_merge_equals_union(self):
        a, b, union = (QuantileSketch() for _ in range(3))
        for v in range(1, 501):
            a.observe(v)
            union.observe(v)
        for v in range(500, 2_001):
            b.observe(v)
            union.observe(v)
        a.merge(b)
        assert a.count == union.count
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == union.quantile(q)

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_error=0.01).merge(
                QuantileSketch(relative_error=0.05)
            )

    def test_zero_and_negative_handling(self):
        sketch = QuantileSketch()
        sketch.observe(0)
        sketch.observe(0)
        sketch.observe(10)
        assert sketch.count == 3
        assert sketch.quantile(0.25) == 0
        with pytest.raises(ValueError):
            sketch.observe(-1)

    def test_round_trip(self):
        sketch = QuantileSketch()
        for v in (0, 1, 5, 123, 99_999):
            sketch.observe(v)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.count == sketch.count
        for q in (0.01, 0.5, 0.95, 0.99):
            assert clone.quantile(q) == sketch.quantile(q)

    def test_deterministic(self):
        def build():
            s = QuantileSketch()
            for v in range(1, 1_000):
                s.observe(v * 7)
            return s.to_dict()

        assert build() == build()


class TestRunScopes:
    def test_scope_captures_only_its_own_deltas(self):
        registry = MetricsRegistry()
        registry.counter("x.total").inc(5)
        scope = RunScope(registry, "r1")
        registry.counter("x.total").inc(3)
        registry.gauge("y").set(42)
        delta = scope.close()
        assert delta["x.total"] == 3
        assert delta["y"] == 42

    def test_scope_spanning_reset_is_discarded(self):
        registry = MetricsRegistry()
        registry.counter("x.total").inc(1)
        scope = RunScope(registry, "r1")
        registry.reset()
        registry.counter("x.total").inc(9)
        assert scope.close() is None

    def test_snapshot_delta_histograms(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_ns")
        h.observe(5_000)
        before = registry.snapshot()
        h.observe(50_000)
        h.observe(70_000)
        delta = snapshot_delta(before, registry.snapshot(), {"lat_ns": "histogram"})
        assert delta["lat_ns"]["count"] == 2
        assert delta["lat_ns"]["sum"] == 120_000
        assert delta["lat_ns"]["mean"] == 60_000
        # histogram deltas are not scalar series
        assert scalar_series(delta) == {}

    def test_migration_run_is_scoped(self):
        tb = run_seeded_migration(seed=11)
        telemetry = tb.telemetry
        assert telemetry.last_run_id is not None
        delta = telemetry.run_metrics[telemetry.last_run_id]
        assert delta["migration.downtime_ns"] > 0
        assert delta["migration.completed_total"] == 1
        assert telemetry.run_isolation_violations() == []

    def test_chain_hops_have_isolated_scopes(self):
        from repro.durability.sweep import build_sweep_app
        from repro.migration.chain import run_chain
        from repro.migration.testbed import build_testbed

        tb = build_testbed(seed=21)
        report = run_chain(tb, build_sweep_app(tb), hops=3)
        run_ids = report.all_run_ids()
        assert len(run_ids) == 3
        assert len(set(run_ids)) == 3
        downtimes = [
            hop.run_metrics[rid]["migration.downtime_ns"]
            for hop in report.hops
            for rid in hop.run_ids
        ]
        assert all(d > 0 for d in downtimes)
        # Per-run deltas must add up within the global registry values.
        assert tb.telemetry.run_isolation_violations() == []
        tb.monitor.check_now()
        assert not tb.monitor.violations
        sketch = report.downtime_sketch()
        assert sketch.count == 3
        assert sketch.p50 == pytest.approx(downtimes[0], rel=0.03)


class TestAggregation:
    def test_aggregate_run_metrics(self):
        runs = {
            "r1": {"migration.downtime_ns": 1_000_000, "wire.bytes": 500},
            "r2": {"migration.downtime_ns": 2_000_000, "wire.bytes": 700},
            "r3": {"migration.downtime_ns": 4_000_000, "wire.bytes": 600},
        }
        sketches = aggregate_run_metrics(runs)
        downtime = sketches["migration.downtime_ns"]
        assert downtime.count == 3
        assert downtime.p50 == pytest.approx(2_000_000, rel=0.03)
        assert downtime.p99 == pytest.approx(4_000_000, rel=0.03)

    def test_aggregate_is_mergeable_across_fleets(self):
        runs_a = {"a": {"m": 100}, "b": {"m": 200}}
        runs_b = {"c": {"m": 400}}
        merged = aggregate_run_metrics(runs_a)["m"]
        merged.merge(aggregate_run_metrics(runs_b)["m"])
        combined = aggregate_run_metrics({**runs_a, **runs_b})["m"]
        assert merged.count == combined.count
        assert merged.quantile(0.5) == combined.quantile(0.5)


class TestRunIsolationCheck:
    """Each branch of ``Telemetry.run_isolation_violations``."""

    OVERCOUNT = (
        "run scopes over-count series {series}: per-run deltas sum to {total} "
        "but the registry holds {held} (concurrent migrations are sharing "
        "one scope)"
    )

    @staticmethod
    def _telemetry():
        from repro.sim.clock import VirtualClock
        from repro.sim.trace import EventTrace
        from repro.telemetry import Telemetry

        clock = VirtualClock()
        return Telemetry(clock, EventTrace(clock))

    def _overlapping_runs(self, telemetry):
        """Two runs sharing one interval: each scope sees the other's work."""
        telemetry.begin_run("a")
        telemetry.begin_run("b")
        telemetry.counter("x.total").inc(4)
        telemetry.histogram("lat_ns").observe(7)
        telemetry.gauge("g").set(3)
        telemetry.end_run("a")
        telemetry.end_run("b")

    def _shrinking_run(self, telemetry):
        """A run whose counter went down: its delta is negative."""
        counter = telemetry.counter("y.total")
        counter.inc(5)
        telemetry.begin_run("c")
        counter.value = 3  # no public path can lower a counter
        telemetry.end_run("c")

    def test_disjoint_runs_are_clean(self):
        telemetry = self._telemetry()
        for run_id in ("a", "b"):
            telemetry.begin_run(run_id)
            telemetry.counter("x.total").inc(2)
            telemetry.end_run(run_id)
        assert telemetry.run_isolation_violations() == []

    def test_overlapping_runs_over_count(self):
        telemetry = self._telemetry()
        self._overlapping_runs(telemetry)
        assert telemetry.run_isolation_violations() == [
            self.OVERCOUNT.format(series="lat_ns", total=2, held=1),
            self.OVERCOUNT.format(series="x.total", total=8, held=4),
        ]

    def test_negative_run_delta(self):
        telemetry = self._telemetry()
        self._shrinking_run(telemetry)
        assert telemetry.run_metrics["c"] == {"y.total": -2}
        assert telemetry.run_isolation_violations() == [
            "run scope c: series y.total decreased by 2 inside one migration "
            "(scopes must only ever add)"
        ]

    def test_registry_reset_skips_the_sum_comparison(self):
        telemetry = self._telemetry()
        self._overlapping_runs(telemetry)
        self._shrinking_run(telemetry)
        assert len(telemetry.run_isolation_violations()) == 3
        telemetry.metrics.reset()
        # The registry no longer holds what the closed runs added, so
        # only the per-run sign check remains.
        assert telemetry.run_isolation_violations() == [
            "run scope c: series y.total decreased by 2 inside one migration "
            "(scopes must only ever add)"
        ]
        telemetry.begin_run("d")
        telemetry.counter("x.total").inc(1)
        telemetry.end_run("d")
        assert len(telemetry.run_isolation_violations()) == 1

    def test_reused_run_id_replaces_its_delta(self):
        telemetry = self._telemetry()
        self._shrinking_run(telemetry)
        telemetry.begin_run("c")
        telemetry.counter("y.total").inc(1)
        telemetry.end_run("c")
        assert telemetry.run_metrics["c"] == {"y.total": 1}
        assert telemetry.run_isolation_violations() == []
