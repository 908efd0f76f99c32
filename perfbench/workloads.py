"""The benchmark's workloads: corpus shape, timed sequence and expected artifacts.

Each workload has a paper-scale corpus and a tiny one for the smoke test;
``gb_winters`` also has the one-winter corpus of the ROADMAP baseline.
The program sees only what the corpus generator writes: the cache, the
registry, the config and the demand CSV.

There are two workloads, so that each run can be long enough to be steady
on a small, shared host.  Both start from a warm cache: the time to create
thousands of cache files varies severalfold with the file system's recent
deletions, so a cold cache fill cannot be timed steadily there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from corpus import CorpusSpec, Evaluation, ZoneSpec

#: Which end-to-end side each operation of a sequence belongs to.
SIDES = {
    "stage_fetch": "data",
    "stage_ingest": "data",
    "stage_fleet": "model",
    "stage_model": "model",
    "stage_simulate": "model",
    "stage_stats": "compare",
    "write_manifest": "compare",
    "emit_plot_data.histogram": "compare",
    "emit_plot_data.timeseries": "compare",
    "emit_plot_data.seasonal": "compare",
}

GB_SEASONS = ("16/17", "17/18", "18/19", "19/20", "20/21")

_FULL_RUN = (
    "stage_fetch",
    "stage_ingest",
    "stage_fleet",
    "stage_model",
    "stage_simulate",
    "stage_stats",
    "write_manifest",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: corpus per size; "paper" is the one the benchmark measures
    sizes: dict[str, CorpusSpec]
    #: operations in the order ``outagekit run`` and ``plot-data`` use them
    ops: tuple[str, ...]

    def plot_kinds(self) -> tuple[str, ...]:
        return tuple(op.split(".", 1)[1] for op in self.ops if op.startswith("emit_plot_data."))


_GB_MIX = (("subday", 0.40), ("forced_days", 0.20), ("planned", 0.35), ("nuclear", 0.05))
_GB_WINTER = CorpusSpec(
    zones=(ZoneSpec("GB", 150, 57.0),),
    seasons=GB_SEASONS,
    events_per_zone=820,
    event_mix=_GB_MIX,
)
_FLEET_YEAR = CorpusSpec(
    zones=(ZoneSpec("DE", 300, 80.0), ZoneSpec("FR", 300, 80.0)),
    period_start="2019-01-01T00:00:00Z",
    period_hours=8760,
    events_per_zone=40,
    event_mix=(("subday", 1.0),),
    reporting_units=6,
    demand=True,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gb_winters",
            why=(
                "paper workload: GB winters 16/17-20/21 on a warm cache, each document "
                "re-served on every day it overlaps; data side and winter-window stats dominate"
            ),
            sizes={
                "paper": _GB_WINTER,
                # the corpus of the baseline table in ROADMAP.md
                "one_winter": replace(_GB_WINTER, seasons=("16/17",)),
                "tiny": replace(
                    _GB_WINTER, zones=(ZoneSpec("GB", 20, 6.0),), seasons=("16/17",), events_per_zone=40
                ),
            },
            ops=_FULL_RUN + ("emit_plot_data.histogram", "emit_plot_data.timeseries"),
        ),
        Workload(
            name="fleet_year",
            why=(
                "model-heavy: two 300-unit 80 GW zones over one 8760-hour period with sparse "
                "reports; convolution, chain simulation, PMF CSVs and weekly profile dominate"
            ),
            sizes={
                "paper": _FLEET_YEAR,
                "tiny": replace(
                    _FLEET_YEAR,
                    zones=(ZoneSpec("DE", 20, 5.0), ZoneSpec("FR", 20, 5.0)),
                    events_per_zone=10,
                    reporting_units=3,
                ),
            },
            ops=_FULL_RUN
            + ("emit_plot_data.histogram", "emit_plot_data.timeseries", "emit_plot_data.seasonal"),
        ),
    )
}

def expected_artifacts(
    workload: Workload, zones: tuple[str, ...], evaluations: tuple[Evaluation, ...]
) -> list[str]:
    """Every file the sequence must leave in the output directory."""
    slugs = [ev.slug for ev in evaluations]
    names = [f"series_{z}_{s}.csv" for z in zones for s in slugs]
    if "stage_fleet" in workload.ops:
        for z in zones:
            names += [f"fleet_{z}.csv", f"pmf_{z}.csv"]
            for s in slugs:
                names += [f"sim_{z}_{s}.csv", f"sim_{z}_{s}.csv.meta.json"]
        names += ["stats.csv", "manifest.json"]
    for kind in workload.plot_kinds():
        if kind == "timeseries":
            names += [f"plot_timeseries_{z}_{s}.csv" for z in zones for s in slugs]
        else:
            names += [f"plot_{kind}_{z}.csv" for z in zones]
    return sorted(names)
