"""Prometheus exposition: format validity and summaries."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import (
    sanitize_name,
    to_prometheus,
    validate_prometheus_text,
)


def _registry():
    reg = MetricsRegistry()
    reg.counter("nets_routed_total").inc(21)
    reg.counter("ripups_total", reason="cut_conflict").inc(3)
    reg.counter("ripups_total", reason="overlay").inc(1)
    reg.gauge("queue_depth").set(7)
    h = reg.histogram("net_route_seconds")
    for v in (0.01, 0.02, 0.03, 0.4):
        h.observe(v)
    return reg


class TestExposition:
    def test_output_is_valid_line_by_line(self):
        text = to_prometheus(_registry())
        assert validate_prometheus_text(text) == []

    def test_counters_and_gauges_one_to_one(self):
        text = to_prometheus(_registry())
        assert "# TYPE nets_routed_total counter" in text
        assert "nets_routed_total 21" in text
        assert 'ripups_total{reason="cut_conflict"} 3' in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 7" in text

    def test_histogram_exposed_as_summary(self):
        text = to_prometheus(_registry())
        assert "# TYPE net_route_seconds summary" in text
        assert 'net_route_seconds{quantile="0.5"}' in text
        assert 'net_route_seconds{quantile="0.95"}' in text
        assert "net_route_seconds_count 4" in text
        assert "net_route_seconds_sum 0.46" in text

    def test_zero_count_histogram_exposes_full_family(self):
        reg = MetricsRegistry()
        reg.histogram("empty_seconds")
        text = to_prometheus(reg)
        assert validate_prometheus_text(text) == []
        assert "empty_seconds_count 0" in text
        assert 'empty_seconds{quantile="0.5"} 0' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", path='a"b\\c\nd').inc()
        text = to_prometheus(reg)
        assert validate_prometheus_text(text) == []
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_metric_names_sanitized(self):
        assert sanitize_name("a.b-c") == "a_b_c"
        assert sanitize_name("0abc").startswith("_")
        reg = MetricsRegistry()
        reg.counter("weird.name-total").inc()
        text = to_prometheus(reg)
        assert validate_prometheus_text(text) == []
        assert "weird_name_total 1" in text

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert validate_prometheus_text("") == []

    def test_registry_method_delegates(self):
        reg = _registry()
        assert reg.to_prometheus() == to_prometheus(reg)


class TestValidator:
    def test_rejects_malformed_sample(self):
        assert validate_prometheus_text("not a metric line!\n")

    def test_rejects_sample_without_type(self):
        assert any(
            "no TYPE" in p for p in validate_prometheus_text("orphan 1\n")
        )

    def test_rejects_duplicate_type(self):
        text = "# TYPE a counter\na 1\n# TYPE a counter\n"
        assert any("duplicate TYPE" in p for p in validate_prometheus_text(text))

    def test_rejects_missing_trailing_newline(self):
        text = "# TYPE a counter\na 1"
        assert any("newline" in p for p in validate_prometheus_text(text))

    def test_sum_count_belong_to_summary_family(self):
        text = "# TYPE s summary\ns_sum 1.5\ns_count 3\n"
        assert validate_prometheus_text(text) == []
