"""The unified metrics registry: counters, gauges, log2 histograms."""

import threading

import pytest

from repro.metrics.registry import (
    TEXT_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    escape_help,
    escape_label_value,
    nearest_rank,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative_increment(self):
        with pytest.raises(MetricError, match="negative"):
            Counter("c").inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(5)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_count_sum_mean_min_max(self):
        hist = Histogram("h")
        for value in (1e-6, 2e-6, 4e-6):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(7e-6)
        assert hist.mean == pytest.approx(7e-6 / 3)
        assert hist.min == pytest.approx(1e-6)
        assert hist.max == pytest.approx(4e-6)

    def test_empty_reads_are_zero(self):
        hist = Histogram("h")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.max == 0.0
        assert hist.percentile(99) == 0.0

    def test_log2_bucket_assignment(self):
        hist = Histogram("h", base=1.0, n_buckets=4)  # bounds 1,2,4,8
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        # 0.5 and 1.0 -> bucket 0; 1.5 -> bucket 1; 3.0 -> bucket 2;
        # 100.0 -> overflow.
        assert hist.bucket_counts() == [2, 1, 1, 0, 1]

    def test_percentile_returns_bucket_bound_clamped_to_max(self):
        hist = Histogram("h", base=1.0, n_buckets=8)
        for _ in range(99):
            hist.observe(1.0)
        hist.observe(100.0)  # p100 outlier in the overflow region
        assert hist.percentile(50) == 1.0
        # The outlier's bucket bound would be 256; clamping keeps the
        # estimate at the observed max.
        assert hist.percentile(100) == 100.0

    def test_percentile_monotone(self):
        hist = Histogram("h")
        for i in range(1, 1000):
            hist.observe(i * 1e-5)
        ps = [hist.percentile(p) for p in (10, 50, 90, 99, 100)]
        assert ps == sorted(ps)

    def test_rejects_negative_observation_and_bad_p(self):
        hist = Histogram("h")
        with pytest.raises(MetricError):
            hist.observe(-1.0)
        with pytest.raises(MetricError):
            hist.percentile(101)

    def test_memory_is_bounded(self):
        hist = Histogram("h")
        buckets = len(hist.bucket_counts())
        for i in range(10_000):
            hist.observe(i * 1e-6)
        assert len(hist.bucket_counts()) == buckets
        assert hist.count == 10_000

    def test_reset(self):
        hist = Histogram("h")
        hist.observe(1.0)
        hist.reset()
        assert hist.count == 0
        assert hist.sum == 0.0
        assert hist.max == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(MetricError, match="already registered"):
            registry.histogram("x")

    def test_get_unknown_name(self):
        with pytest.raises(MetricError, match="no metric"):
            MetricsRegistry().get("nope")

    def test_snapshot_flattens_metrics(self):
        registry = MetricsRegistry()
        registry.counter("reqs").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(0.5)
        snap = registry.snapshot()
        assert snap["reqs"] == 3
        assert snap["depth"] == 2
        assert snap["lat_count"] == 1
        assert snap["lat_sum"] == pytest.approx(0.5)

    def test_collectors_merge_by_summation(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"fallbacks": 2, "only_a": 1})
        registry.register_collector(lambda: {"fallbacks": 3})
        snap = registry.snapshot()
        assert snap["fallbacks"] == 5
        assert snap["only_a"] == 1

    def test_collector_can_shadow_metric_by_summation(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(1)
        registry.register_collector(lambda: {"n": 2})
        assert registry.snapshot()["n"] == 3

    def test_reset_resets_metrics_not_collectors(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(7)
        registry.register_collector(lambda: {"ext": 4})
        registry.reset()
        snap = registry.snapshot()
        assert snap["n"] == 0
        assert snap["ext"] == 4

    def test_render_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("reqs", help="total requests").inc(2)
        registry.histogram("lat", base=1.0, n_buckets=2).observe(1.5)
        text = registry.text_exposition()
        assert "# HELP reqs total requests" in text
        assert "# TYPE reqs counter" in text
        assert "reqs 2" in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text


class TestTextExposition:
    """The scrape-facing contract: escaping, collectors, content type."""

    def test_content_type_is_prometheus_0_0_4(self):
        assert TEXT_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in TEXT_CONTENT_TYPE

    def test_escape_help_round_trip(self):
        raw = 'multi\nline with back\\slash and "quotes"'
        escaped = escape_help(raw)
        assert "\n" not in escaped
        # HELP keeps quotes literal; only \ and newline are escaped.
        assert '"quotes"' in escaped
        unescaped = (escaped.replace("\\n", "\n")
                     .replace("\\\\", "\\"))
        # Round trip is exact when unescaping in spec order (the
        # replace order above is safe because escaping doubled every
        # original backslash first).
        assert escape_help(unescaped) == escaped

    def test_escape_label_value_round_trip(self):
        raw = 'a\\b"c\nd'
        escaped = escape_label_value(raw)
        assert escaped == 'a\\\\b\\"c\\nd'
        unescaped = (escaped.replace("\\\\", "\x00")
                     .replace('\\"', '"').replace("\\n", "\n")
                     .replace("\x00", "\\"))
        assert unescaped == raw

    def test_help_with_newline_stays_one_line(self):
        registry = MetricsRegistry()
        registry.counter("c", help="line one\nline two").inc()
        text = registry.text_exposition()
        help_lines = [ln for ln in text.splitlines()
                      if ln.startswith("# HELP")]
        assert help_lines == ["# HELP c line one\\nline two"]

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", base=1.0, n_buckets=3)
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        text = registry.text_exposition()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="4"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text

    def test_collector_series_rendered_untyped(self):
        registry = MetricsRegistry()
        registry.counter("typed").inc()
        registry.register_collector(lambda: {"external_total": 3.0})
        text = registry.text_exposition()
        assert "# TYPE external_total untyped" in text
        assert "external_total 3" in text
        # A collector key shadowing a typed metric must NOT produce a
        # duplicate series (illegal in the exposition format).
        registry.register_collector(lambda: {"typed": 5.0})
        lines = registry.text_exposition().splitlines()
        assert lines.count("# TYPE typed counter") == 1
        assert sum(1 for ln in lines
                   if ln.split(" ")[0] == "typed") == 1

    def test_ends_with_newline(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert registry.text_exposition().endswith("\n")


class TestScrapeVsMutationRace:
    """A scrape during a worker flush must never observe a torn
    histogram (count/sum/buckets updated non-atomically)."""

    def test_threaded_observe_vs_snapshot(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", base=1.0, n_buckets=8)
        n_per_thread, n_threads = 2_000, 4
        stop = threading.Event()
        torn: list[str] = []

        def scraper():
            while not stop.is_set():
                snap = registry.snapshot()
                count = snap["lat_count"]
                # Every observation has value 1.0, so sum == count at
                # every consistent point; inequality means a scrape
                # interleaved with a half-applied observe().
                if snap["lat_sum"] != count:
                    torn.append(f"count={count} sum={snap['lat_sum']}")
                text = registry.text_exposition()
                inf = cnt = None
                for line in text.splitlines():
                    if line.startswith('lat_bucket{le="+Inf"}'):
                        inf = float(line.split()[-1])
                    elif line.startswith("lat_count"):
                        cnt = float(line.split()[-1])
                # One render is one locked read: the +Inf bucket and
                # _count must agree inside a single exposition.
                if inf != cnt:
                    torn.append(f"inf_bucket={inf} count={cnt}")

        def writer():
            for _ in range(n_per_thread):
                hist.observe(1.0)

        scrape_thread = threading.Thread(target=scraper, daemon=True)
        scrape_thread.start()
        writers = [threading.Thread(target=writer)
                   for _ in range(n_threads)]
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        scrape_thread.join(timeout=10)
        assert not torn, torn[:5]
        assert hist.count == n_per_thread * n_threads
        assert hist.sum == float(n_per_thread * n_threads)

    def test_standalone_histogram_stays_lock_free(self):
        assert Histogram("h")._lock is None

    def test_registry_histogram_shares_registry_lock(self):
        registry = MetricsRegistry()
        assert registry.histogram("h")._lock is registry.lock


class TestNearestRank:
    def test_agrees_with_float_rule_at_reported_percentiles(self):
        """The float rule ``ceil(p / 100 * n)`` that node and cluster
        reports used picks the same index at every percentile they
        print, so replacing it moves no output."""
        import math
        for n in range(1, 20_001):
            for p in (50, 95, 99):
                old = min(n - 1, max(0, math.ceil(p / 100 * n) - 1))
                assert nearest_rank(n, p) == old, (n, p)

    def test_exact_where_the_float_rule_overshoots(self):
        assert nearest_rank(1000, 99.9) == 998
        assert nearest_rank(100, 7) == 6

    def test_clamped_to_the_sample(self):
        assert nearest_rank(10, 0) == 0
        assert nearest_rank(10, 50) == 4
        assert nearest_rank(10, 100) == 9
        assert nearest_rank(1, 99) == 0
