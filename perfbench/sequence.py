"""One timed sequence of a workload, run in a fresh interpreter.

Usage: python3 perfbench/sequence.py JOB.json

The job file names the config, the output directory, the operations to run and where to write the result.  The
operations call the program's public entry points in the order
``outagekit run`` and ``outagekit plot-data`` use them.  After the timed
part the output checks run and the artifact digest is taken; peak RSS is
read before the checks so that it covers the sequence only.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) if root.exists() else 0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    # the CLI's logging set-up without -v: warnings go to stderr
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )

    from outagekit.pipeline import (
        PipelineConfig,
        emit_plot_data,
        stage_fetch,
        stage_fleet,
        stage_ingest,
        stage_model,
        stage_simulate,
        stage_stats,
        write_manifest,
    )
    from outagekit.types import FUEL_PARAMS_VERSION

    import checks
    import tracer as tracing

    config = dataclasses.replace(PipelineConfig.from_file(job["config"]), output_dir=Path(job["out_dir"]))

    calls = {
        "stage_fetch": lambda: stage_fetch(config),
        "stage_ingest": lambda: stage_ingest(config),
        "stage_fleet": lambda: stage_fleet(config),
        "stage_model": lambda: stage_model(config),
        "stage_simulate": lambda: stage_simulate(config),
        "stage_stats": lambda: stage_stats(config),
        "write_manifest": lambda: write_manifest(config, FUEL_PARAMS_VERSION),
    }
    for kind in ("histogram", "seasonal", "timeseries"):
        calls[f"emit_plot_data.{kind}"] = lambda kind=kind: emit_plot_data(config, kind)

    tracer = tracing.Tracer() if job["trace"] else None
    cache_before = _tree_bytes(config.cache_dir) if tracer else 0
    ops = []
    with tracing.layers(tracer) if tracer else nullcontext():
        start = perf_counter()
        for name in job["ops"]:
            t0 = perf_counter()
            error = None
            try:
                with tracer.span(f"pipeline.{name}") if tracer else nullcontext():
                    calls[name]()
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            ops.append([name, perf_counter() - t0, error])
        wall = perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out_dir = config.output_dir
    result = {
        "ops": ops,
        "wall_s": wall,
        "maxrss_kb": maxrss_kb,
        "checks": checks.run_checks(out_dir, job["expected"], len(config.zones)),
        "digest": checks.digest(out_dir) if out_dir.is_dir() else "",
        "trace": None,
    }
    if tracer:
        tracer.counters["fetch.bytes_written"] = _tree_bytes(config.cache_dir) - cache_before
        tracer.write_spans(Path(job["spans_path"]))
        result["trace"] = {"summary": tracer.summary(), "counters": dict(tracer.counters)}
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1]))
