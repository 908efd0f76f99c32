"""In-memory span recorder and the per-layer wrappers of the traced run.

Each wrapper replaces a public name where its caller looks it up (for
example ``outagekit.pipeline.parse_document`` or ``outagekit.io.read_pmf``),
records one span per call and updates the layer's counters; ``restore``
puts the original names back.  Per-row helpers (``parse_utc``,
``format_utc``, ``OutageReport()``, ``HourRange.hours``) stay unwrapped, so
their cost shows as their callers' self time.

A span is ``[name, start, end, parent index]``.  Spans stay in memory and
are written out once, by ``write_spans``, when the sequence has finished.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

from workloads import SIDES


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | None,
        *,
        on_return: Callable[[tuple, object], None] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> None:
        """Replace ``owner.attr``; ``name=None`` counts without a span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    rec[2] = perf_counter()
                    stack.pop()
                    if on_error is not None:
                        on_error(exc)
                    raise
                rec[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, list[float]]:
        """name -> [calls, wall seconds, self seconds] over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def write_spans(self, path: Path) -> None:
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": self.spans}),
            encoding="utf-8",
        )


class _WarningCounter(logging.Handler):
    def __init__(self, counters: dict[str, float]) -> None:
        super().__init__(level=logging.WARNING)
        self.counters = counters

    def emit(self, record: logging.LogRecord) -> None:
        self.counters["xmlparse.skipped_records"] += 1


IO_FUNCTIONS = (
    "read_fleet",
    "write_fleet",
    "read_pmf",
    "write_pmf",
    "read_zone_series",
    "write_zone_series",
    "read_sim_series",
    "write_sim_series",
    "read_demand",
    "write_stats_csv",
)


@contextmanager
def layers(tracer: Tracer):
    """Install every layer wrapper for the duration of the block."""
    import outagekit.io as okio
    import outagekit.markov as markov
    import outagekit.pipeline as pipeline
    from outagekit.errors import StatsError
    from outagekit.fetch import FetchClient
    from outagekit.stats import WinterWindow

    c = tracer.counters

    def add(key: str, value: float = 1) -> None:
        c[key] += value

    # fetch: a None from cached_pages is a miss that fetch_day then stores
    state = {"miss": False}

    def on_cached(args, pages):
        state["miss"] = pages is None
        if pages is not None:
            add("fetch.pages_read", len(pages))
            add("fetch.bytes_read", sum(len(p) for p in pages))

    def on_fetched(args, pages):
        if state["miss"]:
            add("fetch.pages_written", len(pages))

    tracer.wrap(FetchClient, "cached_pages", None, on_return=on_cached)
    tracer.wrap(FetchClient, "fetch_day", "fetch.fetch_day", on_return=on_fetched)

    def on_parsed(args, reports):
        add("xmlparse.bytes_in", len(args[0]))
        add("xmlparse.reports_out", len(reports))

    tracer.wrap(pipeline, "parse_document", "xmlparse.parse_document", on_return=on_parsed)
    tracer.wrap(
        pipeline,
        "deduplicate",
        "reports.deduplicate",
        on_return=lambda a, r: (add("reports.deduplicate.in", len(a[0])), add("reports.deduplicate.out", len(r))),
    )
    tracer.wrap(
        pipeline,
        "filter_reports",
        "reports.filter_reports",
        on_return=lambda a, r: add("reports.filter_reports.out", len(r)),
    )
    tracer.wrap(
        pipeline,
        "unit_series",
        "reconcile.unit_series",
        on_return=lambda a, r: add("reconcile.minute_cells", len(r) * a[1].n_minutes),
    )
    tracer.wrap(pipeline, "zone_aggregate", "reconcile.zone_aggregate")

    tracer.wrap(pipeline, "synthesize_fleet", "fleet.synthesize_fleet")
    tracer.wrap(
        pipeline,
        "fleet_outage_pmf",
        "fleet.fleet_outage_pmf",
        on_return=lambda a, r: add("fleet.convolve_cells", sum(u.capacity_mw + 1 for u in a[0].units)),
    )
    tracer.wrap(pipeline, "pmf_stats", "fleet.pmf_stats")

    tracer.wrap(pipeline, "simulate_fleet", "markov.simulate_fleet")
    tracer.wrap(
        markov,
        "simulate_unit",
        "markov.simulate_unit",
        on_return=lambda a, r: add("markov.unit_hours", a[1]),
    )

    def undefined(exc: BaseException) -> None:
        if isinstance(exc, StatsError):
            add("stats.undefined")

    for fn in ("autocorrelation", "reconciliation_error", "sample_stats", "weekly_profile"):
        tracer.wrap(pipeline, fn, f"stats.{fn}", on_error=undefined)
    tracer.wrap(WinterWindow, "indices_in", "stats.indices_in")

    def on_written(args, _result):
        path = Path(args[-1])
        add("io.bytes_written", path.stat().st_size)
        sidecar = okio.sidecar_for(path)  # only write_sim_series writes one
        if sidecar.exists():
            add("io.bytes_written", sidecar.stat().st_size)

    for fn in IO_FUNCTIONS:
        hook = on_written if fn.startswith("write_") else None
        if fn == "read_pmf":
            hook = lambda a, r: add("io.read_pmf.rows", r.probabilities.size)  # noqa: E731
        tracer.wrap(okio, fn, f"io.{fn}", on_return=hook)

    handler = _WarningCounter(c)
    parse_logger = logging.getLogger("outagekit.ingest.xmlparse")
    parse_logger.addHandler(handler)
    try:
        yield
    finally:
        parse_logger.removeHandler(handler)
        tracer.restore()


# -- per-layer metrics ----------------------------------------------------------

#: per-layer metric name -> unit, in report order
PER_LAYER: dict[str, str] = {}
for _op in SIDES:
    PER_LAYER[f"pipeline.{_op}.wall_s"] = "s"
    PER_LAYER[f"pipeline.{_op}.self_s"] = "s"
PER_LAYER.update(
    {
        "e2e.model_s": "s",
        "e2e.compare_s": "s",
        "fetch.fetch_day.calls": "count",
        "fetch.fetch_day.self_s": "s",
        "fetch.pages_read": "count",
        "fetch.bytes_read": "B",
        "fetch.reads_per_page": "ratio",
        "fetch.pages_written": "count",
        "fetch.bytes_written": "B",
        "xmlparse.parse_document.calls": "count",
        "xmlparse.parse_document.self_s": "s",
        "xmlparse.bytes_in": "B",
        "xmlparse.reports_out": "count",
        "xmlparse.skipped_records": "count",
        "xmlparse.useful_frac": "ratio",
        "reports.deduplicate.self_s": "s",
        "reports.deduplicate.in": "count",
        "reports.deduplicate.out": "count",
        "reports.filter_reports.self_s": "s",
        "reports.filter_reports.out": "count",
        "reports.kept_frac": "ratio",
        "reconcile.unit_series.calls": "count",
        "reconcile.unit_series.self_s": "s",
        "reconcile.minute_cells": "count",
        "reconcile.zone_aggregate.self_s": "s",
        "fleet.synthesize_fleet.self_s": "s",
        "fleet.fleet_outage_pmf.self_s": "s",
        "fleet.convolve_cells": "count",
        "fleet.pmf_stats.self_s": "s",
        "markov.simulate_fleet.calls": "count",
        "markov.simulate_fleet.self_s": "s",
        "markov.simulate_unit.self_s": "s",
        "markov.unit_hours": "count",
        "markov.ns_per_unit_hour": "ns",
        "stats.autocorrelation.calls": "count",
        "stats.autocorrelation.self_s": "s",
        "stats.reconciliation_error.self_s": "s",
        "stats.sample_stats.self_s": "s",
        "stats.indices_in.calls": "count",
        "stats.indices_in.self_s": "s",
        "stats.weekly_profile.self_s": "s",
        "stats.undefined": "count",
    }
)
for _fn in IO_FUNCTIONS:
    PER_LAYER[f"io.{_fn}.calls"] = "count"
    PER_LAYER[f"io.{_fn}.self_s"] = "s"
PER_LAYER.update(
    {"io.read_pmf.rows": "count", "io.bytes_written": "B", "trace.spans": "count", "trace.overhead_s": "s"}
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(summary: dict[str, list[float]], counters: dict[str, float], corpus_counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sequence; 0 where a layer did not run.

    ``e2e.*`` and ``trace.overhead_s`` come from the untraced runs and are
    filled in by the caller.
    """
    fields = ("calls", "wall_s", "self_s")
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field in fields:
            out[metric] = float(summary.get(head, (0, 0.0, 0.0))[fields.index(field)])
        else:
            out[metric] = float(counters.get(metric, 0.0))
    out["fetch.reads_per_page"] = _ratio(out["fetch.pages_read"], corpus_counts["pages"])
    out["xmlparse.useful_frac"] = _ratio(
        corpus_counts["distinct_documents"], corpus_counts["document_days"]
    )
    out["reports.kept_frac"] = _ratio(out["reports.filter_reports.out"], out["reports.deduplicate.in"])
    out["markov.ns_per_unit_hour"] = 1e9 * _ratio(out["markov.simulate_unit.self_s"], out["markov.unit_hours"])
    out["trace.spans"] = float(sum(row[0] for row in summary.values()))
    return out

