from __future__ import annotations

import io
import json
import logging
import struct
import zipfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from click.testing import CliRunner

from outagekit.cli import main
from outagekit.fetch import FetchClient
from outagekit.pipeline import STAGES

from conftest import READ_FAULTS, break_file, write_year_series
from corpusgen import _document, _timeseries


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(corpus, tmp_path: Path, **overrides) -> Path:
    """Corpus config with absolute paths and a test-private output directory."""
    raw = json.loads((corpus["root"] / "config.json").read_text())
    raw["cache_dir"] = str(corpus["root"] / "cache")
    raw["registry_path"] = str(corpus["root"] / "registry.csv")
    raw["output_dir"] = str(tmp_path / "out")
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


# -- interface shape ---------------------------------------------------------


COMMAND_HELP = {
    "fetch": "Download the unavailability documents missing from the cache.",
    "fleet": "Synthesize per-zone fleets from the unit registry.",
    "ingest": "Parse cached documents into reconciled hourly series CSVs.",
    "model": "Convolve fleets into capacity-outage distributions.",
    "plot-data": "Export plot-ready CSVs from existing pipeline artifacts.",
    "run": "Run the full pipeline and write the artifact manifest.",
    "simulate": "Simulate hourly fleet outages with the two-state chain.",
    "stats": "Compute the empirical-vs-model comparison statistics CSV.",
}


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    listed = result.output.split("Commands:\n", 1)[1].splitlines()
    assert dict(line.split(None, 1) for line in listed) == COMMAND_HELP
    for command, help_line in COMMAND_HELP.items():
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert f"\n\n  {help_line}\n\nOptions:\n" in result.output
    assert {s.name: s.help for s in STAGES}.items() <= COMMAND_HELP.items()


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_no_token_option_anywhere(runner):
    for command in ("fetch", "run"):
        result = runner.invoke(main, [command, "--help"])
        assert "--token" not in result.output
        assert "--config" in result.output
    result = runner.invoke(main, ["fetch", "--token", "x"])
    assert result.exit_code == 2


def test_config_is_required(runner):
    result = runner.invoke(main, ["ingest"])
    assert result.exit_code == 2
    assert "--config" in result.stderr


def test_missing_config_file(runner, tmp_path):
    result = runner.invoke(main, ["ingest", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


# -- full run ----------------------------------------------------------------


def test_run_end_to_end(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    result = runner.invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    manifest = Path(result.output.strip())
    assert manifest.name == "manifest.json"
    artifacts = json.loads(manifest.read_text())["artifacts"]
    assert "stats.csv" in artifacts
    assert len(artifacts) == 11


def test_run_never_echoes_the_token(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path, api_token="super-secret-token")
    result = runner.invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 0
    assert "super-secret-token" not in result.output
    assert "super-secret-token" not in result.stderr
    out_dir = tmp_path / "out"
    for artifact in out_dir.iterdir():
        assert b"super-secret-token" not in artifact.read_bytes()


def test_verbose_flag_accepted(runner, corpus, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="outagekit.pipeline")
    config_path = write_config(corpus, tmp_path)
    result = runner.invoke(main, ["-v", "run", "--config", str(config_path)])
    assert result.exit_code == 0
    # run_pipeline runs the stages in STAGES order
    ran = [r.args[0] for r in caplog.records if r.msg == "stage %s"]
    assert ran == [s.name for s in STAGES]
    assert ran == ["fetch", "ingest", "fleet", "model", "simulate", "stats"]


def _stats_csv(out: Path) -> dict[tuple[str, str, str], dict[str, str]]:
    header, *lines = (out / "stats.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    return {(row["zone"], row["channel"], row["source"]): row for row in rows}


def test_week_long_run_leaves_the_week_lag_blank(runner, corpus, tmp_path, caplog):
    # a lag as long as the window is undefined, like a zero-variance ACF
    caplog.set_level(logging.INFO, logger="outagekit.pipeline")
    period = {"start": "2030-01-07T00:00:00Z", "hours": 168}
    config_path = write_config(corpus, tmp_path, period=period)
    result = runner.invoke(main, ["-v", "run", "--config", str(config_path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    rows = _stats_csv(tmp_path / "out")
    assert all(row["acf_168h"] == "" for row in rows.values())
    assert rows[("AA", "Total", "empirical")]["acf_24h"] != ""
    assert rows[("AA", "Total", "simulated")]["acf_24h"] != ""
    assert (
        "stats AA Total simulated: of 1 windows, 0 zero-variance skipped in the ACF; "
        "lags 168 h left out, not shorter than the 168-hour window"
    ) in caplog.messages


def test_one_hour_run_has_no_acf(runner, corpus, tmp_path):
    period = {"start": "2030-01-07T00:00:00Z", "hours": 1}
    config_path = write_config(corpus, tmp_path, period=period)
    result = runner.invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 0, result.output + str(result.exception)
    rows = _stats_csv(tmp_path / "out")
    assert len(rows) == 10
    for row in rows.values():
        assert [row[f"acf_{lag}h"] for lag in (1, 6, 24, 168)] == ["", "", "", ""]


# -- stage commands ----------------------------------------------------------


def test_stage_commands_print_what_they_write(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    result = runner.invoke(main, ["fetch", "--config", str(config_path)])
    assert result.exit_code == 0
    assert result.output == "56 zone-day documents in cache\n"  # 2 zones, 14 days, 2 types
    out = tmp_path / "out"
    # simulate prints its series, not their sidecars
    for command, names in [
        ("ingest", ["series_AA_period.csv", "series_BB_period.csv"]),
        ("fleet", ["fleet_AA.csv", "fleet_BB.csv"]),
        ("model", ["pmf_AA.csv", "pmf_BB.csv"]),
        ("simulate", ["sim_AA_period.csv", "sim_BB_period.csv"]),
        ("stats", ["stats.csv"]),
    ]:
        result = runner.invoke(main, [command, "--config", str(config_path)])
        assert result.exit_code == 0, command
        assert result.output == "".join(f"{out / name}\n" for name in names), command
        assert all((out / name).exists() for name in names), command


def test_zone_restriction(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    result = runner.invoke(
        main, ["ingest", "--config", str(config_path), "--zone", "AA"]
    )
    assert result.exit_code == 0
    assert "series_BB" not in result.output
    assert (tmp_path / "out" / "series_AA_period.csv").exists()
    assert not (tmp_path / "out" / "series_BB_period.csv").exists()


def test_seed_override_changes_fleet(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    fleet_file = tmp_path / "out" / "fleet_AA.csv"

    assert runner.invoke(main, ["fleet", "--config", str(config_path)]).exit_code == 0
    baseline = fleet_file.read_bytes()
    assert runner.invoke(main, ["fleet", "--config", str(config_path)]).exit_code == 0
    assert fleet_file.read_bytes() == baseline  # same seed, same bytes

    # small size pools mean two seeds can draw the same composition, so scan
    # a few overrides and require that at least one changes the fleet
    variants = set()
    for seed in range(1, 9):
        result = runner.invoke(
            main, ["fleet", "--config", str(config_path), "--seed", str(seed)]
        )
        assert result.exit_code == 0
        variants.add(fleet_file.read_bytes())
    assert any(v != baseline for v in variants)


def test_season_override_replaces_period(runner, corpus, tmp_path, monkeypatch):
    # The corpus cache only covers the explicit period; asking for a winter
    # season needs uncached days, which without a token is an auth failure.
    monkeypatch.delenv("ENTSOE_API_TOKEN", raising=False)
    config_path = write_config(corpus, tmp_path)
    result = runner.invoke(
        main, ["fetch", "--config", str(config_path), "--season", "16/17"]
    )
    assert result.exit_code == 3
    assert "error:" in result.stderr


def test_stats_before_other_stages(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    result = runner.invoke(main, ["stats", "--config", str(config_path)])
    assert result.exit_code == 2
    missing = tmp_path / "out" / "series_AA_period.csv"
    assert result.stderr == f"error: zone AA: {missing}: No such file or directory\n"


# -- exit codes --------------------------------------------------------------


def test_invalid_config_exits_2(runner, tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({"zones": ["AA"], "seasons": ["16/17"], "bogus": True}))
    result = runner.invoke(main, ["ingest", "--config", str(bad)])
    assert result.exit_code == 2
    assert "error:" in result.stderr
    assert "bogus" in result.stderr
    # a token that is not a string is rejected without echoing the secret
    for token in (12345, ["s3cret"], {"key": "s3cret"}, None, True):
        bad.write_text(json.dumps({"zones": ["AA"], "seasons": ["16/17"], "api_token": token}))
        result = runner.invoke(main, ["ingest", "--config", str(bad)])
        assert result.exit_code == 2, token
        assert result.stderr == f"error: {bad}: api_token must be a string\n", token


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"zones": [', "error: cannot read config: {}: "),
        (b"\xff\xfe{}", "error: cannot read config: {}: "),
        (b'["AA"]', "error: {}: config must be a JSON object\n"),
        (b'"AA"', "error: {}: config must be a JSON object\n"),
    ],
    ids=["not_json", "not_utf8", "list", "string"],
)
def test_unreadable_or_non_object_config_exits_2_naming_it(runner, tmp_path, data, message):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    result = runner.invoke(main, ["ingest", "--config", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(message.format(path))


@pytest.mark.parametrize(
    "overrides, args, key",
    [
        ({"cache_dir": 5}, [], "cache_dir"),
        ({"registry_path": ["a"]}, [], "registry_path"),
        ({"seed": -1}, [], "seed"),
        ({}, ["--seed", "-3"], "seed"),
        ({}, ["--season", "16/17", "--season", "16/17"], "seasons"),
        # a zone code names artifacts and cache directories
        ({"zones": ["AA", "../x"]}, [], "zones"),
        ({}, ["--zone", "a/b"], "zones"),
    ],
)
def test_bad_config_value_exits_2_before_any_stage(
    runner, corpus, tmp_path, overrides, args, key
):
    config_path = write_config(corpus, tmp_path, **overrides)
    result = runner.invoke(main, ["fleet", "--config", str(config_path), *args])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert key in result.stderr
    assert not (tmp_path / "out").exists()


def test_malformed_artifact_exits_2(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    fleet = tmp_path / "out" / "fleet_AA.csv"
    lines = fleet.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",not-a-number"
    fleet.write_text("\n".join(lines) + "\n")
    result = runner.invoke(
        main, ["plot-data", "--kind", "histogram", "--config", str(config_path)]
    )
    assert result.exit_code == 2
    assert "fleet_AA.csv:3: mttr_hours" in result.stderr


def test_stats_and_histogram_read_the_model_from_the_fleet_not_the_pmf(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    out = tmp_path / "out"
    histogram = ["plot-data", "--kind", "histogram", "--config", str(config_path)]
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    assert runner.invoke(main, histogram).exit_code == 0
    names = ["stats.csv", "plot_histogram_AA.csv", "plot_histogram_BB.csv"]
    before = {name: (out / name).read_bytes() for name in names}
    pmfs = sorted(out.glob("pmf_*.csv"))
    assert [p.name for p in pmfs] == ["pmf_AA.csv", "pmf_BB.csv"]
    for path in pmfs:
        path.unlink()
    for name in names:
        (out / name).unlink()
    for args in (["stats", "--config", str(config_path)], histogram):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.stderr
    assert {name: (out / name).read_bytes() for name in names} == before


def test_malformed_params_file_exits_2(runner, corpus, tmp_path):
    params = tmp_path / "params.json"
    params.write_text('{"fuels": {"CCGT": {"availability": "high", "mttr_hours": 50}}}')
    config_path = write_config(corpus, tmp_path, model_params_path=str(params))
    result = runner.invoke(main, ["fleet", "--config", str(config_path)])
    assert result.exit_code == 2
    assert "params.json: fuel CCGT" in result.stderr


def test_registry_without_units_for_a_zone_exits_2_naming_it(runner, corpus, tmp_path):
    registry = tmp_path / "registry.csv"
    registry.write_text("zone,fuel,capacity_mw\nAA,CCGT,400\n")
    config_path = write_config(corpus, tmp_path, registry_path=str(registry))
    result = runner.invoke(main, ["fleet", "--config", str(config_path)])
    assert result.exit_code == 2
    assert result.stderr == f"error: {registry}: registry has no units for zone BB\n"


def test_failing_fleet_run_writes_no_fleet_file(runner, corpus, tmp_path):
    # zones AA and BB, but units only for AA: the run fails before writing AA's fleet
    registry = tmp_path / "registry.csv"
    registry.write_text("zone,fuel,capacity_mw\nAA,CCGT,400\n")
    config_path = write_config(corpus, tmp_path, registry_path=str(registry))
    assert runner.invoke(main, ["fleet", "--config", str(config_path)]).exit_code == 2
    assert not list((tmp_path / "out").glob("fleet_*.csv"))


def test_repeated_config_key_exits_2_naming_it(runner, tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"zones": ["AA"], "seasons": ["16/17"], "seed": 1, "seed": 2}')
    result = runner.invoke(main, ["ingest", "--config", str(path)])
    assert result.exit_code == 2
    message = f"error: cannot read config: {path}: not valid JSON: repeated key 'seed'\n"
    assert result.stderr == message


def test_integer_params_are_written_to_the_fleet_as_floats(runner, corpus, tmp_path):
    params = tmp_path / "params.json"
    pair = {"availability": 1, "mttr_hours": 45}
    fuels = dict.fromkeys(("CCGT", "Coal", "Hydro", "Nuclear"), pair)
    params.write_text(json.dumps({"fuels": fuels}))
    config_path = write_config(corpus, tmp_path, model_params_path=str(params))
    assert runner.invoke(main, ["fleet", "--config", str(config_path)]).exit_code == 0
    for zone in ("AA", "BB"):
        _, *rows = (tmp_path / "out" / f"fleet_{zone}.csv").read_text().splitlines()
        assert rows and all(row.endswith(",1.0,45.0") for row in rows), rows


def test_non_finite_mttr_in_fleet_exits_2(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["fleet", "--config", str(config_path)]).exit_code == 0
    fleet = tmp_path / "out" / "fleet_AA.csv"
    header, first, *rest = fleet.read_text().splitlines()
    for mttr, message in [
        ("inf", "mttr_hours must be finite and > 0, got inf"),
        ("0.5", "mttr_hours must be >= 1 and availability >= 1/(1 + mttr_hours)"),
    ]:
        bad = first.rsplit(",", 1)[0] + "," + mttr
        fleet.write_text("\n".join([header, bad, *rest]) + "\n")
        for stage in ("model", "simulate"):
            result = runner.invoke(main, [stage, "--config", str(config_path)])
            assert result.exit_code == 2, (mttr, stage)
            assert "fleet_AA.csv: unit AA-" in result.stderr
            assert message in result.stderr
    params = tmp_path / "params.json"
    params.write_text('{"fuels": {"CCGT": {"availability": 0.05, "mttr_hours": 10}}}')
    config_path = write_config(corpus, tmp_path, model_params_path=str(params))
    result = runner.invoke(main, ["fleet", "--config", str(config_path)])
    assert result.exit_code == 2
    assert "params.json: fuel CCGT: mttr_hours must be >= 1" in result.stderr


def test_non_finite_sim_cell_exits_2_naming_the_file_and_hour(runner, corpus, tmp_path):
    # a NaN read as a number would become blank stats.csv cells
    config_path = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    sim = tmp_path / "out" / "sim_AA_period.csv"
    lines = sim.read_text().splitlines()
    stamp = lines[3].split(",")[0]
    lines[3] = f"{stamp},nan"
    sim.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["stats", "--config", str(config_path)])
    assert result.exit_code == 2
    assert f"sim_AA_period.csv: outage_mw: not a finite number at {stamp}" in result.stderr


def test_garbled_sim_sidecar_exits_2(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    sidecar = next((tmp_path / "out").glob("sim_*.csv.meta.json"))
    sidecar.write_text("{")
    result = runner.invoke(main, ["stats", "--config", str(config_path)])
    assert result.exit_code == 2
    assert f"{sidecar.name}: not valid JSON" in result.stderr


def test_garbled_manifest_exits_2(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    manifest = tmp_path / "out" / "manifest.json"
    for text in ("{", "[]", '{"tool": "outagekit"}', '{"artifacts": ["a"]}'):
        manifest.write_text(text)
        result = runner.invoke(
            main, ["plot-data", "--kind", "histogram", "--config", str(config_path)]
        )
        assert result.exit_code == 2, text
        assert "manifest.json" in result.stderr, text
        assert list((tmp_path / "out").glob("plot_*.csv")) == [], text


def _registry_input(runner, corpus, tmp_path):
    path = tmp_path / "registry.csv"
    config = write_config(corpus, tmp_path, registry_path=str(path))
    return ["fleet"], config, path, (corpus["root"] / "registry.csv").read_bytes()


def _params_input(runner, corpus, tmp_path):
    path = tmp_path / "params.json"
    config = write_config(corpus, tmp_path, model_params_path=str(path))
    return ["fleet"], config, path, b'{"fuels": {"CCGT": {"availability": 0.9, "mttr_hours": 50}}}'


def _demand_input(runner, corpus, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    start = datetime(2001, 1, 1, tzinfo=timezone.utc)
    write_year_series(out / "series_AA_period.csv", start, "1.000")
    path = tmp_path / "demand.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2001-01-01T00:00:00Z", "hours": 8760},
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(out),
        "demand_path": str(path),
    }))
    demand = "timestamp_utc,demand_mw\n" + "".join(
        f"{(start + timedelta(hours=k)).strftime('%Y-%m-%dT%H:%M:%SZ')},30000.0\n"
        for k in range(8760)
    )
    return ["plot-data", "--kind", "seasonal"], config, path, demand.encode()


def _series_input(runner, corpus, tmp_path):
    config = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["ingest", "--config", str(config)]).exit_code == 0
    path = tmp_path / "out" / "series_AA_period.csv"
    return ["stats"], config, path, path.read_bytes()


def _manifest_input(runner, corpus, tmp_path):
    config = write_config(corpus, tmp_path)
    (tmp_path / "out").mkdir()
    path = tmp_path / "out" / "manifest.json"
    return ["plot-data", "--kind", "histogram"], config, path, b'{"artifacts": {}}'


# each input: the command that reads it, its config, the file and valid bytes for it
READ_INPUTS = {
    "registry_path": _registry_input,
    "model_params_path": _params_input,
    "demand_path": _demand_input,
    "series": _series_input,
    "manifest": _manifest_input,
}


@pytest.mark.parametrize(
    "source, fault",
    [
        (source, fault)
        for source in READ_INPUTS
        for fault in READ_FAULTS
        # the JSON files hold no CSV field, and plot-data writes no manifest
        # where none exists
        if not (source in ("model_params_path", "manifest") and fault == "oversized_field")
        and (source, fault) != ("manifest", "missing")
    ],
)
def test_input_file_that_cannot_be_read_exits_2_naming_it(runner, corpus, tmp_path, source, fault):
    args, config, path, valid = READ_INPUTS[source](runner, corpus, tmp_path)
    break_file(path, valid, fault)
    result = runner.invoke(main, [*args, "--config", str(config)])
    assert result.exit_code == 2, result.exception
    assert f"{path}: " in result.stderr
    assert "Traceback" not in result.stderr


def _temporary_files(root: Path) -> list[Path]:
    return [p for p in root.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize(
    "stage, name", [("fleet", "fleet_AA.csv"), ("ingest", "series_AA_period.csv")]
)
@pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
def test_output_dir_that_cannot_be_made_exits_2_naming_it(
    runner, corpus, tmp_path, stage, name, under
):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "out" if under else afile
    config = write_config(corpus, tmp_path, output_dir=str(out))
    result = runner.invoke(main, [stage, "--config", str(config)])
    assert result.exit_code == 2, result.exception
    assert f"error: cannot write {out / name}: {out}: " in result.stderr
    assert "Traceback" not in result.stderr
    assert afile.read_text() == ""
    assert _temporary_files(tmp_path) == []


def test_stats_csv_that_is_a_directory_exits_2_naming_it(runner, corpus, tmp_path):
    config = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    target = tmp_path / "out" / "stats.csv"
    target.unlink()
    target.mkdir()
    result = runner.invoke(main, ["stats", "--config", str(config)])
    assert result.exit_code == 2, result.exception
    assert result.stderr == f"error: cannot write {target}: Is a directory\n"
    assert not any(target.iterdir())
    assert _temporary_files(tmp_path) == []


@pytest.mark.parametrize("stage, overrides", [
    ("fleet", {}),  # the registry has no BB units
    ("ingest", {"period": {"start": "2031-01-01T00:00:00Z", "hours": 24}}),  # not cached
])
def test_a_stage_that_fails_before_writing_makes_no_output_dir(
    runner, corpus, tmp_path, stage, overrides
):
    registry = tmp_path / "registry.csv"
    registry.write_text("zone,fuel,capacity_mw\nAA,CCGT,400\n")
    config = write_config(corpus, tmp_path, registry_path=str(registry), **overrides)
    assert runner.invoke(main, [stage, "--config", str(config)]).exit_code == 2
    assert not (tmp_path / "out").exists()


def test_cold_cache_without_token_exits_3(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("ENTSOE_API_TOKEN", raising=False)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2030-01-07T00:00:00Z", "hours": 24},
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(tmp_path / "out"),
        "zone_eic": {"AA": "10Y-TEST-AA----X"},
        "rate_limit_s": 0.0,
    }))
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 3
    assert "token" in result.stderr


@pytest.mark.parametrize("damage", ["garble-meta", "delete-page"])
def test_damaged_cache_exits_4(runner, tmp_path, damage):
    cache = tmp_path / "cache"
    client = FetchClient("", cache, rate_limit_s=0.0)
    day = datetime(2030, 3, 1, tzinfo=timezone.utc).date()
    client.store("AA", day, "A77", [b"<Unavailability_MarketDocument/>"])
    client.store("AA", day, "A80", [])
    if damage == "garble-meta":
        client.page_path("AA", day, "A77", 0).with_name("A77.meta.json").write_text("{")
    else:
        client.page_path("AA", day, "A77", 0).unlink()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2030-03-01T00:00:00Z", "hours": 24},
        "cache_dir": str(cache),
        "output_dir": str(tmp_path / "out"),
        "rate_limit_s": 0.0,
    }))
    result = runner.invoke(main, ["ingest", "--config", str(config)])
    assert result.exit_code == 4
    assert "2030-03-01" in result.stderr
    assert "earlier pipeline stages" not in result.stderr


def test_unparseable_cache_exits_5(runner, tmp_path):
    cache = tmp_path / "cache"
    client = FetchClient("", cache, rate_limit_s=0.0)
    day = datetime(2030, 3, 1, tzinfo=timezone.utc).date()
    client.store("AA", day, "A77", [b"<Unexpected_Document/>"])
    client.store("AA", day, "A80", [])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2030-03-01T00:00:00Z", "hours": 24},
        "cache_dir": str(cache),
        "output_dir": str(tmp_path / "out"),
        "rate_limit_s": 0.0,
    }))
    result = runner.invoke(main, ["ingest", "--config", str(config)])
    assert result.exit_code == 5
    assert "A77.page0.bin" in result.stderr


def _single_day_config(tmp_path: Path, cache: Path) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2030-03-01T00:00:00Z", "hours": 24},
        "cache_dir": str(cache),
        "output_dir": str(tmp_path / "out"),
        "rate_limit_s": 0.0,
    }))
    return config


def test_bad_zip_member_in_cache_exits_5(runner, tmp_path):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("doc_0.xml", b"<Unavailability_MarketDocument/>")
    page = bytearray(buf.getvalue())
    # compression method 99 in the local and the central directory header
    struct.pack_into("<H", page, 8, 99)
    struct.pack_into("<H", page, page.index(b"PK\x01\x02") + 10, 99)
    cache = tmp_path / "cache"
    client = FetchClient("", cache, rate_limit_s=0.0)
    day = datetime(2030, 3, 1, tzinfo=timezone.utc).date()
    client.store("AA", day, "A77", [bytes(page)])
    client.store("AA", day, "A80", [])
    result = runner.invoke(main, ["ingest", "--config", str(_single_day_config(tmp_path, cache))])
    assert result.exit_code == 5
    assert "A77.page0.bin: doc_0.xml: unreadable ZIP member" in result.stderr


def test_fetch_leaves_page_verification_to_ingest(runner, tmp_path):
    cache = tmp_path / "cache"
    client = FetchClient("", cache, rate_limit_s=0.0)
    day = datetime(2030, 3, 1, tzinfo=timezone.utc).date()
    client.store("AA", day, "A77", [b"<Unavailability_MarketDocument/>"])
    client.store("AA", day, "A80", [])
    client.page_path("AA", day, "A77", 0).write_bytes(b"<tampered/>")
    config = str(_single_day_config(tmp_path, cache))
    result = runner.invoke(main, ["fetch", "--config", config])
    assert result.exit_code == 0
    assert "2 zone-day documents in cache" in result.output
    result = runner.invoke(main, ["ingest", "--config", config])
    assert result.exit_code == 4
    assert "cache corrupted for AA 2030-03-01 A77 page 0" in result.stderr


def test_ingest_never_downloads_a_missing_day(runner, tmp_path, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("ingest made a network call")

    monkeypatch.setenv("ENTSOE_API_TOKEN", "a-token")
    monkeypatch.setattr("outagekit.fetch._default_http_get", unexpected)
    cache = tmp_path / "cache"
    client = FetchClient("", cache, rate_limit_s=0.0)
    day = datetime(2030, 3, 1, tzinfo=timezone.utc).date()
    client.store("AA", day, "A77", [])
    client.store("AA", day, "A80", [])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2030-03-01T00:00:00Z", "hours": 48},
        "cache_dir": str(cache),
        "output_dir": str(tmp_path / "out"),
        "zone_eic": {"AA": "10Y-TEST-AA----X"},
        "rate_limit_s": 0.0,
    }))
    result = runner.invoke(main, ["ingest", "--config", str(config)])
    assert result.exit_code == 2
    assert "AA 2030-03-02 A77 is not in the cache" in result.stderr
    assert "run fetch first" in result.stderr
    assert not (tmp_path / "out" / "series_AA_period.csv").exists()


def test_corrupt_zip_page_at_fetch_exits_5(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("ENTSOE_API_TOKEN", "a-token")
    monkeypatch.setattr(
        "outagekit.fetch._default_http_get", lambda url, params: (200, b"PK\x03\x04garbage")
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2030-03-01T00:00:00Z", "hours": 24},
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(tmp_path / "out"),
        "zone_eic": {"AA": "10Y-TEST-AA----X"},
        "rate_limit_s": 0.0,
    }))
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 5
    assert "AA 2030-03-01 A77 offset 0: unreadable page: corrupt ZIP payload" in result.stderr
    assert "Traceback" not in result.stderr
    assert not FetchClient("", tmp_path / "cache").is_cached("AA", date(2030, 3, 1), "A77")


def _one_point_page(quantity: str) -> bytes:
    return _document("AA-DOC-1", 1, [
        _timeseries("1", "A54", "AA", "B04", "AA-U1", 400,
                    ("2030-03-01T00:00Z", "2030-03-01T06:00Z"), "PT60M", [(1, quantity)]),
    ])


def test_page_with_a_field_error_at_fetch_exits_5_and_is_fetched_again(
    runner, tmp_path, monkeypatch
):
    served = {"page": _one_point_page("abc")}
    monkeypatch.setenv("ENTSOE_API_TOKEN", "a-token")
    monkeypatch.setattr(
        "outagekit.fetch._default_http_get", lambda url, params: (200, served["page"])
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2030-03-01T00:00:00Z", "hours": 24},
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(tmp_path / "out"),
        "zone_eic": {"AA": "10Y-TEST-AA----X"},
        "rate_limit_s": 0.0,
    }))
    client = FetchClient("", tmp_path / "cache")
    day = date(2030, 3, 1)
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 5
    assert (
        "AA 2030-03-01 A77 offset 0: unreadable page: "
        "document AA-DOC-1 TimeSeries 1: bad quantity 'abc'"
    ) in result.stderr
    assert not client.is_cached("AA", day, "A77")

    served["page"] = _one_point_page("150")
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0
    assert client.cached_pages("AA", day, "A77") == [served["page"]]
    result = runner.invoke(main, ["ingest", "--config", str(config)])
    assert result.exit_code == 0, result.stderr
    assert (tmp_path / "out" / "series_AA_period.csv").exists()


def test_fleet_of_another_zone_exits_2(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    out = tmp_path / "out"
    (out / "fleet_AA.csv").write_bytes((out / "fleet_BB.csv").read_bytes())
    for args in (["model"], ["simulate"], ["plot-data", "--kind", "timeseries"]):
        result = runner.invoke(main, [*args, "--config", str(config_path)])
        assert result.exit_code == 2, args
        assert "fleet_AA.csv:2: zone: zone 'BB' differs from the expected zone 'AA'" in (
            result.stderr
        )


def test_undefined_statistic_exits_6(runner, tmp_path):
    # a year of all-zero outages has no weekly profile
    out = tmp_path / "out"
    out.mkdir()
    write_year_series(out / "series_AA_period.csv", datetime(2001, 1, 1, tzinfo=timezone.utc), "0.000")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2001-01-01T00:00:00Z", "hours": 8760},
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(out),
    }))
    result = runner.invoke(
        main, ["plot-data", "--kind", "seasonal", "--config", str(config)]
    )
    assert result.exit_code == 6
    assert "identically zero" in result.stderr


def test_period_the_artifacts_do_not_cover_exits_2(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    stats = tmp_path / "out" / "stats.csv"
    before = stats.read_bytes()
    week_later = {"start": "2030-01-14T00:00:00Z", "hours": 336}
    config_path = write_config(corpus, tmp_path, period=week_later)
    for args in (["stats"], ["plot-data", "--kind", "histogram"], ["plot-data", "--kind", "timeseries"]):
        result = runner.invoke(main, [*args, "--config", str(config_path)])
        assert result.exit_code == 2, args
        assert (
            "zone AA: hours 2030-01-14T00:00:00Z+336h not covered by series range "
            "2030-01-07T00:00:00Z+336h"
        ) in result.stderr, args
    assert stats.read_bytes() == before
    assert not list((tmp_path / "out").glob("plot_*"))


def test_seasonal_period_the_series_does_not_cover_exits_2(runner, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    write_year_series(out / "series_AA_period.csv", datetime(2001, 1, 1, tzinfo=timezone.utc), "1.000")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2001-01-08T00:00:00Z", "hours": 8760},
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(out),
    }))
    result = runner.invoke(main, ["plot-data", "--kind", "seasonal", "--config", str(config)])
    assert result.exit_code == 2
    assert (
        "zone AA: hours 2001-01-08T00:00:00Z+8760h not covered by series range "
        "2001-01-01T00:00:00Z+8760h"
    ) in result.stderr
    assert not (out / "plot_seasonal_AA.csv").exists()


@pytest.mark.parametrize(
    "start, hours",
    [(datetime(2010, 1, 1, tzinfo=timezone.utc), 8760), (datetime(2001, 1, 1, tzinfo=timezone.utc), 200)],
    ids=["another_year", "200_hours"],
)
def test_seasonal_demand_that_does_not_cover_the_period_exits_2(runner, tmp_path, start, hours):
    out = tmp_path / "out"
    out.mkdir()
    write_year_series(out / "series_AA_period.csv", datetime(2001, 1, 1, tzinfo=timezone.utc), "1.000")
    demand = tmp_path / "demand.csv"
    demand.write_text("timestamp_utc,demand_mw\n" + "".join(
        f"{(start + timedelta(hours=k)).strftime('%Y-%m-%dT%H:%M:%SZ')},30000.0\n"
        for k in range(hours)
    ))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "zones": ["AA"],
        "period": {"start": "2001-01-01T00:00:00Z", "hours": 8760},
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(out),
        "demand_path": str(demand),
    }))
    result = runner.invoke(main, ["plot-data", "--kind", "seasonal", "--config", str(config)])
    assert result.exit_code == 2
    assert (
        f"{demand}: hours 2001-01-01T00:00:00Z+8760h not covered by series range "
        f"{start.strftime('%Y-%m-%dT%H:%M:%SZ')}+{hours}h"
    ) in result.stderr
    assert not (out / "plot_seasonal_AA.csv").exists()


def test_unknown_plot_kind_exits_2(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    result = runner.invoke(
        main, ["plot-data", "--kind", "sparkline", "--config", str(config_path)]
    )
    assert result.exit_code == 2
    assert "sparkline" in result.stderr


def test_plot_data_after_run(runner, corpus, tmp_path):
    config_path = write_config(corpus, tmp_path)
    assert runner.invoke(main, ["run", "--config", str(config_path)]).exit_code == 0
    result = runner.invoke(
        main, ["plot-data", "--kind", "histogram", "--config", str(config_path)]
    )
    assert result.exit_code == 0
    printed = [Path(line) for line in result.output.splitlines()]
    assert [p.name for p in printed] == [
        "plot_histogram_AA.csv", "plot_histogram_BB.csv"
    ]
    assert all(p.exists() for p in printed)
