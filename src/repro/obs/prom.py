"""Prometheus text-format exposition for the metrics registry.

:func:`to_prometheus` renders every instrument of a
:class:`~repro.obs.metrics.MetricsRegistry` in the exposition format
(version 0.0.4) that Prometheus, VictoriaMetrics and friends scrape:

* counters and gauges map one-to-one (``name{label="v"} value``);
* histograms are exposed **summary-style** — ``name{quantile="0.5"}`` /
  ``{quantile="0.95"}`` gauges from the reservoir, plus the exact
  ``name_count`` and ``name_sum`` series.

:func:`validate_prometheus_text` is the matching line-by-line checker
(used by the tests and the CI obs-smoke job). The routing service's
``GET /metrics`` serves this format with :data:`CONTENT_TYPE`.

No third-party client library: the format is simple, and the router
must not grow a runtime dependency for it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

#: (quantile label, Histogram.summary() key) exposed per histogram.
QUANTILES: Tuple[Tuple[str, str], ...] = (("0.5", "p50"), ("0.95", "p95"))

_INVALID_NAME_CHAR = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHAR = re.compile(r"[^a-zA-Z0-9_]")

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
_SAMPLE_LINE = re.compile(
    rf"^{_METRIC_NAME}(?:\{{{_LABEL_PAIR}(?:,{_LABEL_PAIR})*\}})?"
    r" (?:[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|inf)|NaN|nan)$"
)
_COMMENT_LINE = re.compile(
    rf"^# (?:HELP {_METRIC_NAME} .*|TYPE {_METRIC_NAME} "
    r"(?:counter|gauge|histogram|summary|untyped))$"
)


def sanitize_name(name: str) -> str:
    name = _INVALID_NAME_CHAR.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _sanitize_label(name: str) -> str:
    name = _INVALID_LABEL_CHAR.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_txt(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = [
        (_sanitize_label(k), _escape_label_value(str(v)))
        for k, v in sorted(labels.items())
    ]
    pairs.extend((k, _escape_label_value(v)) for k, v in extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def to_prometheus(registry) -> str:
    """Exposition-format dump of a registry; deterministic ordering."""
    families: Dict[Tuple[str, str], List[str]] = {}

    def family(name: str, kind: str) -> List[str]:
        return families.setdefault((name, kind), [])

    for entry in registry.snapshot():
        name = sanitize_name(entry["metric"])
        labels = entry["labels"]
        if entry["kind"] == "counter":
            family(name, "counter").append(
                f"{name}{_labels_txt(labels)} {_format_value(entry['value'])}"
            )
        elif entry["kind"] == "gauge":
            family(name, "gauge").append(
                f"{name}{_labels_txt(labels)} {_format_value(entry['value'])}"
            )
        else:  # histogram -> summary exposition
            s = entry["value"]
            lines = family(name, "summary")
            for qlabel, key in QUANTILES:
                lines.append(
                    f"{name}{_labels_txt(labels, (('quantile', qlabel),))} "
                    f"{_format_value(s.get(key, 0.0))}"
                )
            lines.append(
                f"{name}_sum{_labels_txt(labels)} {_format_value(s['sum'])}"
            )
            lines.append(
                f"{name}_count{_labels_txt(labels)} {_format_value(s['count'])}"
            )
    out: List[str] = []
    for (name, kind), lines in sorted(families.items()):
        out.append(f"# HELP {name} repro metric {name}")
        out.append(f"# TYPE {name} {kind}")
        out.extend(lines)
    return "\n".join(out) + ("\n" if out else "")


def validate_prometheus_text(text: str) -> List[str]:
    """Line-by-line format check; returns problems (empty = valid).

    Enforces the exposition grammar per line plus the family invariants
    a scraper relies on: every sample belongs to a ``# TYPE``-declared
    family, and no family is declared twice.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line.startswith("#"):
            if not _COMMENT_LINE.match(line):
                problems.append(f"line {lineno}: malformed comment {line!r}")
            elif line.startswith("# TYPE "):
                name = line.split()[2]
                if name in typed:
                    problems.append(f"line {lineno}: duplicate TYPE for {name}")
                typed[name] = line.split()[3]
            continue
        if not _SAMPLE_LINE.match(line):
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name = re.match(_METRIC_NAME, line).group(0)  # type: ignore[union-attr]
        base = name
        for suffix in ("_sum", "_count", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base not in typed:
            problems.append(f"line {lineno}: sample {name} has no TYPE line")
    if text and not text.endswith("\n"):
        problems.append("output must end with a newline")
    return problems


#: The exposition format's HTTP ``Content-Type``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
