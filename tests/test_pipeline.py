from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import os
import shutil
import signal
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Callable

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from outagekit import fetch, pipeline, run_pipeline
from outagekit.cli import main
from outagekit.errors import (
    FetchError,
    InvalidInputError,
    OutageKitError,
    ParseError,
    UsageError,
)
from outagekit.fetch import DOC_TYPES, FetchClient
from outagekit.fleet import pmf_stats
from outagekit.ingest import deduplicate, parse_document
from outagekit.io import (
    RegistryRow,
    read_fleet,
    read_pmf,
    read_sim_series,
    read_zone_series,
)
from outagekit.markov import derive_seed
from outagekit.pipeline import (
    PipelineConfig,
    _STREAM_SIM,
    days_in,
    emit_plot_data,
    evaluations,
    fleet_path,
    manifest_path,
    pmf_path,
    series_path,
    sim_path,
    stage_fleet,
    stage_ingest,
    stage_model,
    stage_simulate,
    stage_stats,
    stats_path,
)
from outagekit.timeseries import HourRange
from outagekit.types import Fuel

from conftest import break_file, capacity_by_fuel, write_registry, write_year_series
from corpusgen import N_HOURS, START, ZONE_EIC, build_reserved_corpus



def rows_by_timestamp(path: Path) -> dict[str, dict[str, str]]:
    with open(path, newline="") as fh:
        return {rec["timestamp_utc"]: rec for rec in csv.DictReader(fh)}


def stats_rows(path: Path) -> dict[tuple[str, str, str], dict[str, str]]:
    with open(path, newline="") as fh:
        return {
            (rec["zone"], rec["channel"], rec["source"]): rec
            for rec in csv.DictReader(fh)
        }


@pytest.fixture(scope="module")
def full_run(corpus):
    """One complete pipeline run in a module-private output directory."""
    config = dataclasses.replace(
        corpus["config"], output_dir=corpus["root"] / "out_pipeline"
    )
    manifest = run_pipeline(config)
    return {"config": config, "manifest": manifest}


# -- configuration -----------------------------------------------------------


def test_config_from_file(corpus):
    config = corpus["config"]
    assert config.zones == ("AA", "BB")
    assert config.seed == 7
    assert config.period == HourRange(START, N_HOURS)
    assert config.zone_eic == ZONE_EIC
    # relative paths resolve against the config file's directory
    assert config.cache_dir == corpus["root"] / "cache"
    assert config.registry_path == corpus["root"] / "registry.csv"


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"zones": ["AA"], "seasons": ["16/17"], "typo_key": 1}, "typo_key"),
        (
            {
                "zones": ["AA"],
                "period": {
                    "start": "2030-01-07T00:00:00Z", "hours": 336, "end": "2031-01-01T00:00:00Z"
                },
            },
            "end",
        ),
    ],
    ids=["top_level", "period"],
)
def test_config_rejects_unknown_keys(tmp_path, raw, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InvalidInputError, match=key):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"zones": ["AA"], "seasons": ["16/17"], "seed": 1, "seed": 2}', "seed"),
        ('{"zones": ["AA"], "period": {"start": "2030-01-07", "hours": 24, "hours": 48}}', "hours"),
    ],
    ids=["top_level", "period"],
)
def test_config_refuses_a_repeated_key_naming_it(tmp_path, text, key):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as info:
        PipelineConfig.from_file(path)
    assert str(info.value) == f"cannot read config: {path}: not valid JSON: repeated key '{key}'"


def test_config_requires_zones_and_periods(tmp_path):
    with pytest.raises(InvalidInputError, match="zone"):
        PipelineConfig(zones=(), seasons=("16/17",))
    with pytest.raises(InvalidInputError, match="seasons or an explicit period"):
        PipelineConfig(zones=("AA",))
    with pytest.raises(InvalidInputError, match="duplicate"):
        PipelineConfig(zones=("AA", "AA"), seasons=("16/17",))


def test_config_accepts_zone_codes_of_letters_digits_underscores_and_hyphens():
    zones = ("GB", "DE_LU", "IT-North", "10YGB")
    assert PipelineConfig(zones=zones, seasons=("16/17",)).zones == zones


def test_config_that_cannot_be_read_names_the_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(InvalidInputError, match=r"cannot read config: .*absent\.json"):
        PipelineConfig.from_file(path)


def test_config_rejects_bad_period(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"zones": ["AA"], "period": {"start": "2030-01-07T00:00:00Z"}}))
    with pytest.raises(InvalidInputError, match="period"):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("zones", "DE"),
        ("zones", ["DE", 7]),
        ("seasons", "16/17"),
        ("seed", 1.9),
        ("seed", True),
        ("seed", "3"),
        ("retries", True),
        ("retries", 2.0),
        ("histogram_bin_mw", 500.0),
        ("timeseries_draws", None),
        ("rate_limit_s", -0.5),
        ("rate_limit_s", True),
        ("rate_limit_s", "0.5"),
        ("rate_limit_s", float("inf")),
        ("period", {"start": "2030-01-07T00:00:00Z", "hours": 24.5}),
        ("period", {"start": "2030-01-07T00:00:00Z", "hours": True}),
        ("period", "2030-01-07"),
        ("zone_eic", "abc"),
        ("zone_eic", [["GB", "10YGB----------A"]]),
        ("zone_eic", {"GB": 5}),
        ("zone_eic", {"GB": ""}),
        ("zone_eic", None),
        ("retries", 0),
        ("retries", -1),
        # a zone code names artifacts and cache directories, so "../x" would
        # write outside output_dir and cache_dir
        *(("zones", ["AA", zone]) for zone in ["../x", "", "a/b", ".", "GB ", "DE\n", "\u00c9"]),
    ],
)
def test_config_rejects_wrong_types(tmp_path, key, value):
    raw = {"zones": ["AA"], "seasons": ["16/17"], key: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(InvalidInputError, match=key):
        PipelineConfig.from_file(path)


@pytest.mark.parametrize(
    "raw, digest",
    [
        (
            {
                "zones": ["DE", "FR"],
                "period": {"start": "2019-01-01T00:00:00Z", "hours": 8760},
                "cache_dir": "/data/cache",
                "output_dir": "/data/out",
                "registry_path": "/data/registry.csv",
                "seed": 21,
                "rate_limit_s": 0,
                "retries": 2,
                "zone_eic": {"DE": "10Y1001A1001A83F"},
                "histogram_bin_mw": 250,
                "timeseries_draws": 4,
            },
            "410fe58f98b27e7e8f278c7e9dce93aabfbc641a15da66d9f7efe6b15a52a2b5",
        ),
        (
            {
                "zones": ["GB"],
                "seasons": ["16/17", "17/18"],
                "cache_dir": "/data/cache",
                "output_dir": "/data/out",
                "rate_limit_s": 1.5,
            },
            "a763d1f93730d64f2bbada087278317be2f43f24e29591d6e761c3e7f86f6dec",
        ),
    ],
    ids=["period", "seasons"],
)
def test_config_hash_of_valid_configs_is_stable(tmp_path, raw, digest):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert PipelineConfig.from_file(path).sha256() == digest


def test_config_token_sources(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"zones": ["AA"], "seasons": ["16/17"]}))
    monkeypatch.delenv("ENTSOE_API_TOKEN", raising=False)
    assert PipelineConfig.from_file(path).api_token == ""
    monkeypatch.setenv("ENTSOE_API_TOKEN", "from-env")
    assert PipelineConfig.from_file(path).api_token == "from-env"
    path.write_text(
        json.dumps({"zones": ["AA"], "seasons": ["16/17"], "api_token": "from-file"})
    )
    assert PipelineConfig.from_file(path).api_token == "from-file"


def test_config_hash_excludes_token(corpus):
    config = corpus["config"]
    with_token = dataclasses.replace(config, api_token="secret")
    assert with_token.sha256() == config.sha256()
    assert "secret" not in json.dumps(with_token.public_dict())
    assert "api_token" not in with_token.public_dict()


def test_config_hash_independent_of_spelling(corpus, monkeypatch):
    direct = PipelineConfig.from_file(corpus["config_path"])
    monkeypatch.chdir(corpus["root"])
    relative = PipelineConfig.from_file(Path("config.json"))
    assert direct.sha256() == relative.sha256()


@pytest.mark.parametrize(
    "key, value",
    [
        ("zones", "DE"),
        ("seasons", "16/17"),
        ("seed", 1.5),
        ("seed", -1),
        ("histogram_bin_mw", 2.5),
        ("retries", 2.5),
        ("api_token", None),
        ("cache_dir", "x"),
        ("seasons", ("16/17", "16/17")),
        ("seasons", ("16-17",)),
        ("zone_eic", {"GB": ""}),
    ],
)
def test_config_validated_however_built(key, value):
    valid = PipelineConfig(zones=("AA",), seasons=("16/17",))
    with pytest.raises(InvalidInputError, match=key):
        PipelineConfig(**{"zones": ("AA",), "seasons": ("16/17",), key: value})
    with pytest.raises(InvalidInputError, match=key):
        dataclasses.replace(valid, **{key: value})


def test_config_file_without_zones_is_invalid(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seasons": ["16/17"]}))
    with pytest.raises(InvalidInputError, match="at least one zone"):
        PipelineConfig.from_file(path)


def test_config_default_dirs_resolve_against_the_file(tmp_path, monkeypatch):
    path = tmp_path / "conf" / "config.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"zones": ["AA"], "seasons": ["16/17"]}))
    monkeypatch.chdir(tmp_path)
    config = PipelineConfig.from_file(Path("conf/config.json"))
    assert config.cache_dir == path.parent.resolve() / "cache"
    assert config.output_dir == path.parent.resolve() / "out"


def test_config_validates_plot_settings():
    with pytest.raises(InvalidInputError, match="histogram_bin_mw"):
        PipelineConfig(zones=("A",), seasons=("16/17",), histogram_bin_mw=0)
    with pytest.raises(InvalidInputError, match="timeseries_draws"):
        PipelineConfig(zones=("A",), seasons=("16/17",), timeseries_draws=0)


# -- evaluation periods ------------------------------------------------------


def test_period_override_yields_single_evaluation(corpus):
    (ev,) = evaluations(corpus["config"])
    assert ev.label == "period"
    assert ev.range == HourRange(START, N_HOURS)
    assert ev.window == ev.range  # the period is its own window


def test_season_evaluations():
    config = PipelineConfig(zones=("AA",), seasons=("16/17", "17/18"))
    evs = evaluations(config)
    assert [ev.label for ev in evs] == ["16/17", "17/18"]
    assert [ev.slug for ev in evs] == ["16-17", "17-18"]
    assert evs[0].range.start == datetime(2016, 11, 6, tzinfo=timezone.utc)
    assert evs[0].range.n_hours == 20 * 168
    assert evs[0].window.label == "16/17"
    assert evs[0].window.span == evs[0].range


def test_days_in_covers_partial_days():
    rng = HourRange(datetime(2030, 1, 7, 23, 0, tzinfo=timezone.utc), 2)
    assert [d.isoformat() for d in days_in(rng)] == ["2030-01-07", "2030-01-08"]
    assert len(days_in(HourRange(START, N_HOURS))) == 14


def test_child_seeds_are_distinct():
    zones, labels = ("AA", "BB", "A", "AAA"), ("period", "16/17", "17/18")
    seeds = {derive_seed(7, 101, zone) for zone in zones}
    seeds |= {derive_seed(7, s, z, label) for s in (102, 103) for z in zones for label in labels}
    assert len(seeds) == 4 + 24
    assert derive_seed(7, 102, "AA", "period") == derive_seed(7, 102, "AA", "period")


@settings(max_examples=200, deadline=None)
@given(a=st.tuples(st.text(), st.text()), b=st.tuples(st.text(), st.text()))
def test_distinct_strings_give_distinct_seeds(a, b):
    # the byte count keeps ("AB", "C") apart from ("A", "BC") and "A" from "A\x00"
    for x, y in [(a, b), (("AB", "C"), ("A", "BC")), (("A\x00", ""), ("A", "")), (("", "x"), ("x", ""))]:
        if x != y:
            assert derive_seed(7, 102, *x) != derive_seed(7, 102, *y)


# -- end-to-end run ----------------------------------------------------------


def test_run_writes_all_artifacts(full_run):
    config = full_run["config"]
    out = config.output_dir
    expected = {
        "fleet_AA.csv", "fleet_BB.csv", "pmf_AA.csv", "pmf_BB.csv",
        "series_AA_period.csv", "series_BB_period.csv",
        "sim_AA_period.csv", "sim_AA_period.csv.meta.json",
        "sim_BB_period.csv", "sim_BB_period.csv.meta.json",
        "stats.csv", "manifest.json",
    }
    assert {p.name for p in out.iterdir()} == expected


def test_manifest_contents(full_run):
    config = full_run["config"]
    manifest = json.loads(full_run["manifest"].read_text())
    assert manifest["tool"] == "outagekit"
    assert manifest["seed"] == 7
    assert manifest["zones"] == ["AA", "BB"]
    assert manifest["evaluations"] == ["period"]
    assert manifest["fuel_params_version"] == "builtin-1"
    assert manifest["config_sha256"] == config.sha256()
    assert len(manifest["artifacts"]) == 11
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((config.output_dir / name).read_bytes()).hexdigest() == digest
    # nothing time-dependent may leak into the manifest
    assert "fetched_at" not in json.dumps(manifest)


def test_rerun_is_byte_identical(full_run):
    config = full_run["config"]
    before = {
        p.name: p.read_bytes() for p in config.output_dir.iterdir() if p.is_file()
    }
    run_pipeline(config)
    after = {p.name: p.read_bytes() for p in config.output_dir.iterdir() if p.is_file()}
    assert before == after


def test_manifest_is_byte_identical_across_directories(corpus, tmp_path):
    # the same config file, cache and seed, copied to two places
    manifests = []
    for name in ("first", "second"):
        root = tmp_path / name
        shutil.copytree(corpus["root"], root, ignore=shutil.ignore_patterns("out*"))
        manifests.append(run_pipeline(PipelineConfig.from_file(root / "config.json")).read_bytes())
    assert manifests[0] == manifests[1]


def test_series_has_full_period(full_run):
    config = full_run["config"]
    rows = rows_by_timestamp(series_path(config, "AA", "period"))
    assert len(rows) == N_HOURS
    assert "2030-01-07T00:00:00Z" in rows
    assert "2030-01-20T23:00:00Z" in rows


def test_series_envelopes_read_back_in_order(full_run):
    # read_zone_series rejects an hour whose min <= mean <= max fails; the
    # bundled series read, and their envelopes are spread somewhere
    config = full_run["config"]
    for zone in config.zones:
        by_channel = read_zone_series(series_path(config, zone, "period"))
        assert any((s.o_min_mw < s.o_max_mw).any() for s in by_channel.values())


def test_series_sub_hourly_step_reconciles_to_170(full_run):
    rows = rows_by_timestamp(series_path(full_run["config"], "AA", "period"))
    rec = rows["2030-01-12T00:00:00Z"]
    assert rec["forced"] == "170.000"
    assert rec["total"] == "170.000"
    assert rec["planned"] == "0.000"


def test_series_overlapping_kinds_pool_not_sum(full_run):
    rows = rows_by_timestamp(series_path(full_run["config"], "AA", "period"))
    rec = rows["2030-01-09T12:00:00Z"]
    assert (rec["forced_min"], rec["forced"], rec["forced_max"]) == (
        "350.000", "350.000", "350.000")
    assert (rec["planned_min"], rec["planned"], rec["planned_max"]) == (
        "400.000", "400.000", "400.000")
    assert (rec["total_min"], rec["total"], rec["total_max"]) == (
        "350.000", "375.000", "400.000")


def test_series_uses_latest_revision(full_run):
    # revision 2 reduced the outage from 400 MW to 350 MW
    rows = rows_by_timestamp(series_path(full_run["config"], "AA", "period"))
    assert rows["2030-01-09T08:00:00Z"]["forced"] == "350.000"


def test_series_conflicting_reports_spread_envelope(full_run):
    rows = rows_by_timestamp(series_path(full_run["config"], "BB", "period"))
    rec = rows["2030-01-10T15:00:00Z"]
    assert (rec["forced_min"], rec["forced"], rec["forced_max"]) == (
        "60.000", "90.000", "120.000")


def test_series_withdrawn_and_renewable_excluded(full_run):
    rows = rows_by_timestamp(series_path(full_run["config"], "AA", "period"))
    assert rows["2030-01-11T06:00:00Z"]["total"] == "0.000"  # withdrawn doc
    assert rows["2030-01-13T12:00:00Z"]["total"] == "0.000"  # wind farm doc


def test_series_oversize_mirror_report_dropped(full_run):
    rows = rows_by_timestamp(series_path(full_run["config"], "AA", "period"))
    # AA-DOC-9 states 450 MW on a 300 MW unit, which is implausible and
    # dropped; only the nuclear maintenance remains in that hour
    assert rows["2030-01-17T03:00:00Z"]["forced"] == "0.000"
    assert rows["2030-01-17T03:00:00Z"]["total"] == "600.000"
    # 360 MW on the same unit is within the 133% slack and kept
    assert rows["2030-01-17T08:00:00Z"]["forced"] == "360.000"
    assert rows["2030-01-17T08:00:00Z"]["total"] == "960.000"


def test_fleet_totals_match_registry(full_run):
    config = full_run["config"]
    aa = read_fleet(fleet_path(config, "AA"), zone="AA")
    assert aa.zone == "AA"
    assert aa.total_capacity_mw == 1550
    assert capacity_by_fuel(aa) == {Fuel.CCGT: 650, Fuel.NUCLEAR: 600, Fuel.COAL: 300}
    bb = read_fleet(fleet_path(config, "BB"), zone="BB")
    assert bb.total_capacity_mw == 970
    assert capacity_by_fuel(bb) == {Fuel.CCGT: 350, Fuel.HYDRO: 120, Fuel.COAL: 500}


def test_model_mean_is_expected_unavailable_capacity(full_run):
    # availability-weighted: 650*0.10 + 600*0.19 + 300*0.14 = 221 MW
    pmf = read_pmf(pmf_path(full_run["config"], "AA"))
    mean, _ = pmf_stats(pmf)
    assert mean == pytest.approx(221.0, abs=1e-9)
    assert pmf.probabilities.size == 1551


def test_sim_sidecar_records_provenance(full_run):
    config = full_run["config"]
    _, meta = read_sim_series(sim_path(config, "AA", "period"))
    assert meta["seed"] == derive_seed(7, _STREAM_SIM, "AA", "period")
    assert "zone code, evaluation label" in meta["seed_derivation"]
    assert meta["n_hours"] == N_HOURS
    assert meta["evaluation"] == "period"
    assert "PCG64" in meta["rng"]
    assert meta["total_capacity_mw"] == 1550


SUBSET_REGISTRY = [
    RegistryRow(zone, fuel, mw)
    for zone, fuel, mw in [
        ("AA", Fuel.CCGT, 400), ("AA", Fuel.NUCLEAR, 600), ("BB", Fuel.CCGT, 350),
        ("BB", Fuel.COAL, 500), ("CC", Fuel.HYDRO, 120), ("CC", Fuel.COAL, 300),
    ]
]


@settings(max_examples=25, deadline=None)
@given(
    zones=st.lists(st.sampled_from(["AA", "BB", "CC"]), min_size=1, max_size=3, unique=True),
    seasons=st.lists(st.sampled_from(["16/17", "17/18", "20/21"]), min_size=1, max_size=3, unique=True),
    data=st.data(),
)
def test_model_side_bytes_do_not_depend_on_the_other_zones_or_seasons(
    tmp_path_factory, zones, seasons, data
):
    """A zone's fleet, PMF and simulations are the full run's whatever else is listed."""
    root = tmp_path_factory.mktemp("subsets")
    write_registry(SUBSET_REGISTRY, root / "registry.csv")
    full = PipelineConfig(
        zones=tuple(zones), seasons=tuple(seasons), registry_path=root / "registry.csv", seed=5
    )

    def model_side(zones, seasons, out) -> dict[str, bytes]:
        config = dataclasses.replace(full, zones=tuple(zones), seasons=tuple(seasons), output_dir=out)
        for stage in (stage_fleet, stage_model, stage_simulate):
            stage(config)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    want = model_side(zones, seasons, root / "full")
    variants = [(data.draw(st.permutations(zones)), data.draw(st.permutations(seasons)))]
    variants += [([zone], seasons) for zone in zones] + [(zones, [label]) for label in seasons]
    for i, (zs, labels) in enumerate(variants):
        got = model_side(zs, labels, root / f"variant{i}")
        # fleet and PMF per zone, and a simulation with its sidecar per zone and season
        assert len(got) == len(zs) * (2 + 2 * len(labels))
        assert got == {name: want[name] for name in got}, (zs, labels)


def test_one_zone_plot_draws_match_the_full_run(full_run, tmp_path):
    outputs = {}
    for zones in (("AA", "BB"), ("BB",)):
        config = dataclasses.replace(
            full_run["config"], zones=zones, output_dir=tmp_path / "_".join(zones)
        )
        shutil.copytree(full_run["config"].output_dir, config.output_dir)
        outputs[zones] = emit_plot_data(config, "timeseries")[-1]
    assert outputs[("BB",)].name == outputs[("AA", "BB")].name == "plot_timeseries_BB_period.csv"
    assert outputs[("BB",)].read_bytes() == outputs[("AA", "BB")].read_bytes()


def test_sim_series_values_are_feasible(full_run):
    config = full_run["config"]
    sim, _ = read_sim_series(sim_path(config, "BB", "period"))
    assert sim.values_mw.size == N_HOURS
    assert (sim.values_mw >= 0).all()
    assert (sim.values_mw <= 970).all()


# -- statistics artifact -----------------------------------------------------


def test_stats_rows_cover_channels_and_sources(full_run):
    rows = stats_rows(stats_path(full_run["config"]))
    assert set(rows) == {
        (zone, channel, "empirical")
        for zone in ("AA", "BB")
        for channel in ("Forced", "Planned", "Total")
    } | {(zone, "Total", source) for zone in ("AA", "BB") for source in ("model", "simulated")}


def test_stats_empirical_means_match_hand_reconciliation(full_run):
    rows = stats_rows(stats_path(full_run["config"]))
    # forced: 350*36 + 170 + 360*6 = 14930 MWh over 336 h
    assert float(rows[("AA", "Forced", "empirical")]["mean_mw"]) == pytest.approx(
        14930 / 336, abs=1e-6)
    # planned: 400*8 + 600*96 = 60800 MWh
    assert float(rows[("AA", "Planned", "empirical")]["mean_mw"]) == pytest.approx(
        60800 / 336, abs=1e-6)
    # total pools the overlap instead of summing it
    assert float(rows[("AA", "Total", "empirical")]["mean_mw"]) == pytest.approx(
        72730 / 336, abs=1e-6)
    assert float(rows[("AA", "Total", "empirical")]["iqr_mw"]) == 600.0


def test_stats_recon_errors_match_hand_values(full_run):
    rows = stats_rows(stats_path(full_run["config"]))
    assert float(rows[("AA", "Total", "empirical")]["recon_error"]) == pytest.approx(
        200 / 72730, abs=1e-6)
    assert float(rows[("BB", "Total", "empirical")]["recon_error"]) == pytest.approx(
        2160 / 32040, abs=1e-6)
    assert float(rows[("BB", "Forced", "empirical")]["recon_error"]) == pytest.approx(
        360 / 12240, abs=1e-6)
    assert rows[("AA", "Planned", "empirical")]["recon_error"] == "0.0"


def test_stats_recon_error_consistent_with_series(full_run):
    config = full_run["config"]
    rows = stats_rows(stats_path(config))
    series = rows_by_timestamp(series_path(config, "AA", "period"))
    num = sum(float(r["total"]) - float(r["total_min"]) for r in series.values())
    denom = sum(float(r["total"]) for r in series.values())
    assert float(rows[("AA", "Total", "empirical")]["recon_error"]) == pytest.approx(
        num / denom, abs=1e-6)


def test_stats_model_and_simulated_rows(full_run):
    rows = stats_rows(stats_path(full_run["config"]))
    model = rows[("AA", "Total", "model")]
    assert float(model["mean_mw"]) == pytest.approx(221.0, abs=1e-6)
    assert model["recon_error"] == ""  # no reconciliation envelope for a PMF
    assert model["acf_1h"] == ""  # no time axis either
    sim = rows[("AA", "Total", "simulated")]
    assert sim["recon_error"] == ""
    assert -1.0 <= float(sim["acf_1h"]) <= 1.0
    for rec in rows.values():
        if rec["source"] == "empirical" and rec["zone"] == "AA":
            assert -1.0 <= float(rec["acf_1h"]) <= 1.0


def test_stats_stage_rebuilds_identically_from_artifacts(full_run):
    config = full_run["config"]
    target = stats_path(config)
    before = target.read_bytes()
    target.unlink()
    assert stage_stats(config) == [target]
    assert target.read_bytes() == before


# -- error handling ----------------------------------------------------------


def test_missing_registry_fails_in_named_stage(corpus, tmp_path):
    config = dataclasses.replace(
        corpus["config"], registry_path=None, output_dir=tmp_path / "out"
    )
    with pytest.raises(InvalidInputError, match="fleet stage:"):
        run_pipeline(config)


def test_parse_failure_names_cached_page(tmp_path):
    cache = tmp_path / "cache"
    client = FetchClient("", cache, rate_limit_s=0.0)
    day = datetime(2030, 2, 1, tzinfo=timezone.utc).date()
    client.store("CC", day, "A77", [b"<wrong_root/>"])
    client.store("CC", day, "A80", [])
    config = PipelineConfig(
        zones=("CC",),
        period=HourRange(datetime(2030, 2, 1, tzinfo=timezone.utc), 24),
        cache_dir=cache,
        output_dir=tmp_path / "out",
        registry_path=None,
        seed=1,
        rate_limit_s=0.0,
    )
    with pytest.raises(ParseError, match=r"A77\.page0\.bin"):
        run_pipeline(config)


def test_zone_with_no_reports_yields_zero_series(tmp_path, caplog):
    cache = tmp_path / "cache"
    client = FetchClient("", cache, rate_limit_s=0.0)
    start = datetime(2030, 2, 1, tzinfo=timezone.utc)
    for offset in range(3):
        day = (start + timedelta(days=offset)).date()
        for doc_type in ("A77", "A80"):
            client.store("CC", day, doc_type, [])
    registry = tmp_path / "registry.csv"
    write_registry([RegistryRow("CC", Fuel.CCGT, 100)], registry)
    config = PipelineConfig(
        zones=("CC",),
        period=HourRange(start, 72),
        cache_dir=cache,
        output_dir=tmp_path / "out",
        registry_path=registry,
        seed=3,
        rate_limit_s=0.0,
    )
    with caplog.at_level(logging.INFO, logger="outagekit.pipeline"):
        run_pipeline(config)
    series = rows_by_timestamp(series_path(config, "CC", "period"))
    assert all(rec["total"] == "0.000" for rec in series.values())
    rows = stats_rows(stats_path(config))
    empirical = rows[("CC", "Total", "empirical")]
    assert empirical["mean_mw"] == "0.0"
    assert empirical["recon_error"] == ""  # undefined on a zero series
    assert empirical["acf_1h"] == ""  # zero variance
    assert float(rows[("CC", "Total", "model")]["mean_mw"]) == pytest.approx(10.0)
    # the skipped statistics are logged, one line per zone, channel and source
    skipped = [m for m in caplog.messages if m.startswith("stats CC ")]
    assert skipped == [
        f"stats CC {channel} empirical: of 1 windows, 1 zero-variance skipped in the ACF, "
        "1 zero-mass skipped in the reconciliation error"
        for channel in ("Forced", "Planned", "Total")
    ] + ["stats CC Total simulated: of 1 windows, 1 zero-variance skipped in the ACF"]


# -- each served document parsed once ----------------------------------------


def _parse_all_zone_periods(config: PipelineConfig) -> dict:
    client = pipeline._client(config)
    return {
        (zone, ev.slug): pipeline._parse_zone_period(client, config, zone, ev)
        for zone in config.zones
        for ev in evaluations(config)
    }


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_parse_skip_matches_parsing_every_page(corpus, tmp_path, monkeypatch, seed):
    """Skipping re-served documents changes neither the reports nor the series.

    ``seed=None`` is the bundled corpus; the others are seeded corpora in
    which every document is re-served on each day it overlaps.
    """
    if seed is None:
        config = corpus["config"]
    else:
        config = PipelineConfig.from_file(build_reserved_corpus(tmp_path / "corpus", seed))
    skipping = _parse_all_zone_periods(config)
    fast_paths = stage_ingest(dataclasses.replace(config, output_dir=tmp_path / "skip"))

    monkeypatch.setattr(
        pipeline,
        "parse_document",
        lambda raw, *, seen=None: parse_document(raw),
    )
    every_page = _parse_all_zone_periods(config)
    slow_paths = stage_ingest(dataclasses.replace(config, output_dir=tmp_path / "every"))

    assert sum(map(len, skipping.values())) < sum(map(len, every_page.values()))
    for key, reports in every_page.items():
        assert deduplicate(skipping[key]) == deduplicate(reports), key
    for fast, slow in zip(fast_paths, slow_paths, strict=True):
        assert fast.name == slow.name
        assert fast.read_bytes() == slow.read_bytes()


def test_warm_cache_fetch_reads_no_page(corpus, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("stage_fetch read a cached day")

    monkeypatch.setattr(FetchClient, "cached_pages", unexpected)
    monkeypatch.setattr(FetchClient, "fetch_day", unexpected)
    config = corpus["config"]
    expected = sum(len(days_in(ev.range)) for ev in evaluations(config))
    assert pipeline.stage_fetch(config) == expected * len(config.zones) * len(DOC_TYPES)


def test_fetch_queries_the_config_zone_eic_over_the_builtin_table(tmp_path, monkeypatch):
    domains = []

    def http_get(url, params):
        domains.append(params["biddingZone_Domain"])
        return 200, b""

    monkeypatch.setattr(fetch, "_default_http_get", http_get)
    config = PipelineConfig(
        zones=("GB",),
        period=HourRange(START, 24),
        cache_dir=tmp_path / "cache",
        api_token="tok",
        rate_limit_s=0,
        zone_eic={"GB": "10Y-TEST-GB----X"},
    )
    assert pipeline.stage_fetch(config) == len(DOC_TYPES)
    assert domains == ["10Y-TEST-GB----X"] * len(DOC_TYPES)


def test_ingest_reads_only_the_cache(corpus, tmp_path, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("stage_ingest called fetch_day")

    monkeypatch.setattr(FetchClient, "fetch_day", unexpected)
    config = dataclasses.replace(corpus["config"], output_dir=tmp_path / "out")
    written = stage_ingest(config)
    assert len(written) == len(config.zones) * len(evaluations(config))


@pytest.mark.parametrize("seed", [None, 1])
def test_ingest_series_independent_of_report_order(corpus, tmp_path, monkeypatch, seed):
    """Units reach the zone sum in unit-id order, however the reports arrive.

    ``seed=None`` is the bundled corpus; seed 1 is a seeded corpus of three
    units.  The CSVs round to 3 decimals, which can hide a change in float
    summation order, so the order of the ``unit_series`` calls is checked
    too.
    """
    if seed is None:
        config = corpus["config"]
    else:
        config = PipelineConfig.from_file(build_reserved_corpus(tmp_path / "corpus", seed))
    filter_reports, unit_series = pipeline.filter_reports, pipeline.unit_series
    parse_zone_period = pipeline._parse_zone_period
    # ingest jobs may run in worker processes, so each job appends the units
    # it reconciles to a file of its own
    order_file: dict[str, Path] = {}

    def recording_parse(client, config, zone, ev):
        order_file["job"] = order_file["run"] / f"{zone}_{ev.slug}.txt"
        return parse_zone_period(client, config, zone, ev)

    def recording_unit_series(reports, period):
        with open(order_file["job"], "a", encoding="utf-8") as fh:
            fh.write(reports[0].unit_id + "\n")
        return unit_series(reports, period)

    def ingest_recording(run: str) -> tuple[list[Path], list[list[str]]]:
        order_file["run"] = tmp_path / f"{run}_units"
        order_file["run"].mkdir()
        written = stage_ingest(dataclasses.replace(config, output_dir=tmp_path / run))
        jobs = [(zone, ev.slug) for zone in config.zones for ev in evaluations(config)]
        return written, [
            (order_file["run"] / f"{zone}_{slug}.txt").read_text(encoding="utf-8").split()
            for zone, slug in jobs
        ]

    monkeypatch.setattr(pipeline, "_parse_zone_period", recording_parse)
    monkeypatch.setattr(pipeline, "unit_series", recording_unit_series)
    forward, forward_orders = ingest_recording("fwd")

    monkeypatch.setattr(pipeline, "filter_reports", lambda reports: filter_reports(reports)[::-1])
    backward, backward_orders = ingest_recording("rev")

    assert len({unit for order in forward_orders for unit in order}) > 1
    assert backward_orders == forward_orders
    for fwd, rev in zip(forward, backward, strict=True):
        assert fwd.name == rev.name
        assert fwd.read_bytes() == rev.read_bytes()


# -- jobs in worker processes ------------------------------------------------


def use_cpus(monkeypatch, n: int) -> None:
    """Let the run use ``n`` CPUs: ``_map_jobs`` runs its jobs in this process
    on one, and in worker processes on two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def two_zone_seeded_config(root: Path) -> PipelineConfig:
    """Seeded corpora of seeds 1 and 2 as zones AA and BB, so ingest has two jobs."""
    config = PipelineConfig.from_file(build_reserved_corpus(root / "aa", 1))
    build_reserved_corpus(root / "bb", 2)
    shutil.copytree(root / "bb" / "cache" / "AA", config.cache_dir / "BB")
    return dataclasses.replace(config, zones=("AA", "BB"))


def stage_outcome(
    stage: Callable[[PipelineConfig], list[Path]], config: PipelineConfig, caplog
) -> tuple[tuple[list[str], dict, list], set[int]]:
    """What ``stage`` did, and the process ids of its log records.

    What it did is the names of the files it returned, the bytes of every
    file then in the output directory by name, and its (logger, level,
    message) records.
    """
    caplog.clear()
    with caplog.at_level(logging.INFO):
        written = stage(config)
    records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    files = {p.name: p.read_bytes() for p in sorted(config.output_dir.iterdir())}
    return ([p.name for p in written], files, records), {r.process for r in caplog.records}


@pytest.mark.parametrize("seeded", [False, True])
def test_worker_ingest_matches_in_process_ingest(corpus, tmp_path, monkeypatch, caplog, seeded):
    config = two_zone_seeded_config(tmp_path) if seeded else corpus["config"]
    use_cpus(monkeypatch, 1)
    serial_config = dataclasses.replace(config, output_dir=tmp_path / "serial")
    serial, serial_pids = stage_outcome(stage_ingest, serial_config, caplog)
    use_cpus(monkeypatch, 2)
    pooled_config = dataclasses.replace(config, output_dir=tmp_path / "pooled")
    pooled, pooled_pids = stage_outcome(stage_ingest, pooled_config, caplog)

    assert pooled == serial
    names, _, records = serial
    assert names == [f"series_{zone}_period.csv" for zone in ("AA", "BB")]
    assert sum(level == logging.WARNING for _, level, _ in records) > 0
    # the warnings were logged in workers, the "ingested" lines here
    assert serial_pids == {os.getpid()}
    assert len(pooled_pids) > 1


def damaged_corpus(corpus, tmp_path: Path, zones: tuple[str, ...]) -> tuple[Path, list[Path]]:
    """A config over a copy of the bundled cache whose first page of each zone is tampered with."""
    cache = tmp_path / "cache"
    shutil.copytree(corpus["root"] / "cache", cache)
    pages = [sorted((cache / zone).glob("*/A77.page0.bin"))[0] for zone in zones]
    for page in pages:
        page.write_bytes(b"<tampered/>")
    raw = json.loads(corpus["config_path"].read_text())
    raw.update(cache_dir=str(cache), output_dir=str(tmp_path / "out"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return config, pages


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("damaged", [("BB",), ("AA", "BB")])
def test_failing_ingest_writes_no_series(corpus, tmp_path, monkeypatch, cpus, damaged):
    """The first damaged zone in config order is named, and no zone's series is written."""
    config, pages = damaged_corpus(corpus, tmp_path, damaged)
    use_cpus(monkeypatch, cpus)
    result = CliRunner().invoke(main, ["ingest", "--config", str(config)])
    assert result.exit_code == 4
    day = pages[0].parent.name
    assert f"cache corrupted for {damaged[0]} {day} A77 page 0" in result.stderr
    assert not list((tmp_path / "out").glob("series_*"))


#: The steps besides ingest that run their jobs, one per zone or per zone and
#: evaluation, through ``_map_jobs``.
POOLED_STEPS: dict[str, Callable[[PipelineConfig], list[Path]]] = {
    "model": stage_model,
    "simulate": stage_simulate,
    "stats": stage_stats,
    "timeseries": lambda config: emit_plot_data(config, "timeseries"),
}


@pytest.fixture(scope="module")
def seeded_run(corpus, tmp_path_factory) -> PipelineConfig:
    """A full run over the two-zone seeded corpus, with the bundled corpus's registry."""
    root = tmp_path_factory.mktemp("seeded_run")
    config = dataclasses.replace(
        two_zone_seeded_config(root), registry_path=corpus["config"].registry_path
    )
    run_pipeline(config)
    return config


def copy_of_run(config: PipelineConfig, out: Path) -> PipelineConfig:
    """``config`` over a copy of its output directory at ``out``."""
    shutil.copytree(config.output_dir, out)
    return dataclasses.replace(config, output_dir=out)


@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("step", list(POOLED_STEPS))
def test_worker_step_matches_in_process_step(
    full_run, seeded_run, tmp_path, monkeypatch, caplog, step, seeded
):
    base = seeded_run if seeded else full_run["config"]
    read_fleet = pipeline._zone_fleet

    def logged_read_fleet(config: PipelineConfig, zone: str):
        # every job of the four steps reads its zone's fleet, so every job logs
        logging.getLogger("jobs").info("fleet of %s read", zone)
        return read_fleet(config, zone)

    monkeypatch.setattr(pipeline, "_zone_fleet", logged_read_fleet)
    outcomes = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        config = copy_of_run(base, tmp_path / f"cpus{cpus}")
        outcomes.append(stage_outcome(POOLED_STEPS[step], config, caplog))
    (serial, serial_pids), (pooled, pooled_pids) = outcomes

    assert pooled == serial
    _, _, records = serial
    assert [m for name, _, m in records if name == "jobs"] == [
        f"fleet of {zone} read" for zone in ("AA", "BB")
    ]
    # every record was logged in a worker, and emitted here
    assert serial_pids == {os.getpid()}
    assert os.getpid() not in pooled_pids


@pytest.mark.parametrize("fault", ["missing", "not_utf8"])
@pytest.mark.parametrize("damaged", [("BB",), ("AA", "BB")])
@pytest.mark.parametrize("step", list(POOLED_STEPS))
def test_failing_pooled_step_names_the_first_failing_zone(
    full_run, tmp_path, monkeypatch, step, damaged, fault
):
    import multiprocessing

    failures = {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        config = copy_of_run(full_run["config"], tmp_path / f"cpus{cpus}")
        for zone in damaged:
            path = fleet_path(config, zone)
            break_file(path, path.read_bytes(), fault)
        with pytest.raises(OutageKitError) as info:
            POOLED_STEPS[step](config)
        assert multiprocessing.active_children() == []
        message = str(info.value).replace(str(config.output_dir), "<out>")
        failures[cpus] = (type(info.value), info.value.exit_code, message)

    assert failures[2] == failures[1]
    kind, exit_code, message = failures[1]
    assert kind is InvalidInputError and exit_code == 2
    assert f"<out>/fleet_{damaged[0]}.csv" in message


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs two CPUs"
)
def test_each_worker_keeps_to_a_cpu_of_its_own():
    def allowed_cpus(k: int) -> set[int]:
        time.sleep(0.2)  # long enough that each worker takes one job
        return os.sched_getaffinity(0)

    first, second = pipeline._map_jobs(allowed_cpus, 2)
    assert len(first) == len(second) == 1
    assert first != second


def test_a_worker_that_dies_fails_the_run(monkeypatch):
    import multiprocessing

    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def job(k: int) -> int:
        if k == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)  # as the kernel's OOM killer would
        return k

    with pytest.raises(OutageKitError, match="worker process ended with exit code -9"):
        pipeline._map_jobs(job, 3)
    assert multiprocessing.active_children() == []


def test_ingest_leaves_no_worker_process(corpus, tmp_path, monkeypatch):
    import multiprocessing

    use_cpus(monkeypatch, 2)
    stage_ingest(dataclasses.replace(corpus["config"], output_dir=tmp_path / "ok"))
    assert multiprocessing.active_children() == []
    config, _ = damaged_corpus(corpus, tmp_path, ("AA",))
    with pytest.raises(FetchError, match="cache corrupted for AA"):
        stage_ingest(PipelineConfig.from_file(config))
    assert multiprocessing.active_children() == []


# -- plot-ready exports ------------------------------------------------------


def test_plot_histogram(full_run):
    config = full_run["config"]
    paths = emit_plot_data(config, "histogram")
    assert [p.name for p in paths] == ["plot_histogram_AA.csv", "plot_histogram_BB.csv"]
    with open(paths[0], newline="") as fh:
        recs = list(csv.DictReader(fh))
    assert recs[0].keys() == {"bin_gw", "freq_total", "freq_forced", "model_prob"}
    assert recs[0]["bin_gw"] == "0.000"
    assert sum(float(r["freq_total"]) for r in recs) == pytest.approx(1.0)
    assert sum(float(r["freq_forced"]) for r in recs) == pytest.approx(1.0)
    assert sum(float(r["model_prob"]) for r in recs) == pytest.approx(1.0, abs=1e-9)
    # AA support tops out at 1550 MW, so 500 MW bins give four rows
    assert len(recs) == 4


def test_plot_histogram_extends_manifest(full_run):
    config = full_run["config"]
    emit_plot_data(config, "histogram")
    manifest = json.loads(manifest_path(config).read_text())
    assert "plot_histogram_AA.csv" in manifest["artifacts"]


def test_plot_timeseries_deterministic(full_run):
    config = full_run["config"]
    (aa, bb) = emit_plot_data(config, "timeseries")
    first = aa.read_bytes()
    emit_plot_data(config, "timeseries")
    assert aa.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "timestamp_utc,empirical_mw,sim1_mw,sim2_mw,sim3_mw"
    assert len(lines) == 1 + N_HOURS
    # empirical column mirrors the reconciled series
    series = rows_by_timestamp(series_path(config, "AA", "period"))
    cells = lines[1].split(",")
    assert cells[1] == series["2030-01-07T00:00:00Z"]["total"]


def test_plot_seasonal_needs_a_year(full_run):
    with pytest.raises(UsageError, match="full year"):
        emit_plot_data(full_run["config"], "seasonal")


def test_plot_seasonal_on_year_long_series(tmp_path):
    start = datetime(2001, 1, 1, tzinfo=timezone.utc)
    out = tmp_path / "out"
    out.mkdir()
    write_year_series(out / "series_ZZ_period.csv", start, "100.000")
    demand_path = tmp_path / "demand.csv"
    demand_lines = ["timestamp_utc,demand_mw"]
    demand_lines.extend(
        f"{(start + timedelta(hours=k)).strftime('%Y-%m-%dT%H:%M:%SZ')},30000.0"
        for k in range(8760)
    )
    demand_path.write_text("\n".join(demand_lines) + "\n")
    config = PipelineConfig(
        zones=("ZZ",),
        period=HourRange(start, 8760),
        cache_dir=tmp_path / "cache",
        output_dir=out,
        demand_path=demand_path,
        seed=0,
    )
    (path,) = emit_plot_data(config, "seasonal")
    with open(path, newline="") as fh:
        recs = list(csv.DictReader(fh))
    assert len(recs) == 52
    assert recs[0].keys() == {"week", "outage", "demand"}
    assert all(float(r["outage"]) == pytest.approx(1.0) for r in recs)
    assert all(float(r["demand"]) == pytest.approx(1.0) for r in recs)


def test_plot_unknown_kind(full_run):
    with pytest.raises(UsageError, match="histogram"):
        emit_plot_data(full_run["config"], "violin")


# -- compare-side bytes --------------------------------------------------------

#: SHA-256 of the compare-side files of the bundled corpus.  A change that
#: alters any of them on purpose updates this pin and says why.  Last changed
#: when the fleet, simulation and plot seeds began to follow the zone code and
#: the evaluation label instead of their positions in the config.
COMPARE_SHA256 = {
    "plot_histogram_AA.csv": "31672a171b7a57553a6325005e908252e49e013a924d89e4e3434596daf2374b",
    "plot_histogram_BB.csv": "3744ba53035c53e2ec3f83be59dd070245ce8104630944a7c0d08aac8f7be494",
    "plot_timeseries_AA_period.csv": "e0d1222197216c7be71b8597227bb023430cf08069b296f56551b5099ef3d964",
    "plot_timeseries_BB_period.csv": "aad97ebb8184bd5025b49699b7659067c65d5b208414e18647722fd6f9c892d1",
    "stats.csv": "53f6b48360ff5f00dff6301058a849a58b4c93e3a3502f3869c3215b644ee875",
}


#: SHA-256 of the model-side files of the bundled corpus: the exported PMFs
#: and the simulated period series.  A change that alters any of them on
#: purpose updates this pin and says why.  Last changed when the fleet and
#: simulation seeds began to follow the zone code and the evaluation label
#: instead of their positions in the config.
MODEL_SHA256 = {
    "pmf_AA.csv": "abc14826254fa64cafa3edc4b23543e5bac729ad966d5940f6dffc74ee2a01f6",
    "pmf_BB.csv": "c66702827e3bca52a07a69047e379515ba46069d1c6d2590cba5ed8081eb8199",
    "sim_AA_period.csv": "0217c9bc13d284373845e0431593c14df9aca3faf815f73c8ff1bdae47a19d51",
    "sim_BB_period.csv": "0143e0f4f4f0b786c7d3fa4126a0da6a30741934067b7f7b1f105923595383a6",
}


def test_shorter_period_over_longer_artifacts_matches_a_fresh_run(full_run, tmp_path):
    """A period inside the artifacts' range reads just its hours of them."""
    week = HourRange(START, 168)
    reused = dataclasses.replace(full_run["config"], period=week, output_dir=tmp_path / "reused")
    shutil.copytree(full_run["config"].output_dir, reused.output_dir)
    fresh = dataclasses.replace(reused, output_dir=tmp_path / "fresh")
    run_pipeline(fresh)
    names = set()
    for config in (reused, fresh):
        stage_stats(config)
        for kind in ("histogram", "timeseries"):
            names.update(p.name for p in emit_plot_data(config, kind))
    assert len(names) == 4
    for name in sorted(names | {"stats.csv"}):
        assert (reused.output_dir / name).read_bytes() == (fresh.output_dir / name).read_bytes(), name
    # the reused artifacts still span both weeks, the fresh ones only the first
    spans = [read_sim_series(sim_path(c, "AA", "period"))[0].n_hours for c in (reused, fresh)]
    assert spans == [336, 168]


@pytest.mark.parametrize("cpus", [1, 2])
def test_compare_side_bytes_are_pinned(full_run, tmp_path, monkeypatch, cpus):
    # plot files go to a copy, so the shared run directory keeps its artifact set
    config = copy_of_run(full_run["config"], tmp_path / "out")
    for p in config.output_dir.glob("plot_*"):
        p.unlink()
    stats_path(config).unlink()
    use_cpus(monkeypatch, cpus)
    stage_stats(config)
    for kind in ("histogram", "timeseries"):
        emit_plot_data(config, kind)
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(config.output_dir.iterdir())
        if p.name == "stats.csv" or p.name.startswith(("plot_histogram_", "plot_timeseries_"))
    }
    assert got == COMPARE_SHA256


@pytest.mark.parametrize("cpus", [1, 2])
def test_model_side_bytes_are_pinned(full_run, tmp_path, monkeypatch, cpus):
    config = copy_of_run(full_run["config"], tmp_path / "out")
    for p in [*config.output_dir.glob("pmf_*"), *config.output_dir.glob("sim_*")]:
        p.unlink()
    use_cpus(monkeypatch, cpus)
    stage_model(config)
    stage_simulate(config)
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(config.output_dir.iterdir())
        if p.name.startswith("pmf_") or (p.name.startswith("sim_") and p.suffix == ".csv")
    }
    assert got == MODEL_SHA256
