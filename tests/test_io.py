from __future__ import annotations

import codecs
import dataclasses
import functools
import json
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagekit import io
from outagekit.errors import InvalidInputError
from outagekit.fleet import CapacityOutagePMF, fleet_outage_pmf, synthesize_fleet, unit_id
from outagekit.ingest import Channel, HourlyOutageSeries
from outagekit.io import (
    PMF_HEADER,
    RegistryRow,
    StatsRow,
    ZONE_SERIES_HEADER,
    load_fuel_params,
    read_demand,
    read_fleet,
    read_pmf,
    read_registry,
    read_sim_series,
    read_zone_series,
    sidecar_for,
    stats_header,
    write_fleet,
    write_bytes,
    write_histogram,
    write_json,
    write_lines,
    write_pmf,
    write_seasonal,
    write_sim_series,
    write_stats_csv,
    write_timeseries_plot,
    write_zone_series,
)
from outagekit.pipeline import PipelineConfig
from outagekit.timeseries import HOUR, HourlySeries, format_utc
from outagekit.types import FUEL_PARAMS, Fleet, Fuel, FuelSizePool

from conftest import READ_FAULTS, T0, break_file, make_unit, utc_hours, write_registry


# -- registry ----------------------------------------------------------------


def test_registry_round_trip(tmp_path):
    rows = [
        RegistryRow("AA", Fuel.CCGT, 400),
        RegistryRow("AA", Fuel.NUCLEAR, 1200),
        RegistryRow("BB", Fuel.COAL, 600),
    ]
    path = tmp_path / "registry.csv"
    write_registry(rows, path)
    assert read_registry(path) == rows
    assert path.read_text().startswith("zone,fuel,capacity_mw\nAA,CCGT,400\n")


def test_registry_rejects_unknown_fuel(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("zone,fuel,capacity_mw\nAA,Fusion,100\n")
    with pytest.raises(InvalidInputError, match="Fusion"):
        read_registry(path)


def test_registry_rejects_bad_capacity(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("zone,fuel,capacity_mw\nAA,CCGT,0\n")
    with pytest.raises(InvalidInputError, match="positive"):
        read_registry(path)


def test_registry_rejects_missing_columns(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("zone,capacity_mw\nAA,100\n")
    with pytest.raises(InvalidInputError, match="missing columns"):
        read_registry(path)


def test_registry_rejects_empty(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text("zone,fuel,capacity_mw\n")
    with pytest.raises(InvalidInputError, match="no rows"):
        read_registry(path)


# -- fleet -------------------------------------------------------------------


def test_fleet_round_trip(tmp_path):
    fleet = Fleet(
        zone="AA",
        units=(
            make_unit("AA-CCGT-000", 400, 0.9, 50.0),
            make_unit("AA-CCGT-001", 250, 0.9, 50.0),
            make_unit("AA-Nuclear-000", 600, 0.81, 150.0, Fuel.NUCLEAR),
        ),
    )
    path = tmp_path / "fleet.csv"
    write_fleet(fleet, path)
    back = read_fleet(path, zone="AA")
    assert back == fleet  # positional ids regenerate identically


def test_fleet_availability_survives_round_trip_exactly(tmp_path):
    # availabilities and repair times are written with repr, so values that
    # are not exactly representable still round-trip bit for bit
    fleet = Fleet(zone="Z", units=(make_unit("Z-CCGT-000", 100, 0.8613841, 41.77),))
    path = tmp_path / "fleet.csv"
    write_fleet(fleet, path)
    back = read_fleet(path, zone="Z")
    assert back.units[0].availability == 0.8613841
    assert back.units[0].mttr_hours == 41.77


@pytest.mark.parametrize("mttr", ["inf", "nan", "0", "0.5"])
def test_fleet_bad_mttr_rejected_naming_the_file(tmp_path, mttr):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "zone,fuel,capacity_mw,availability,mttr_hours\n"
        "AA,CCGT,400,0.9,50.0\n"
        f"AA,CCGT,250,0.9,{mttr}\n"
    )
    with pytest.raises(InvalidInputError, match=r"fleet\.csv: unit AA-CCGT-001: mttr_hours"):
        read_fleet(path, zone="AA")


def test_fleet_mixed_zones_rejected_naming_the_line(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "zone,fuel,capacity_mw,availability,mttr_hours\n"
        "XX,CCGT,400,0.9,50.0\n"
        "YY,CCGT,250,0.9,50.0\n"
    )
    with pytest.raises(InvalidInputError, match=r"fleet\.csv:3: zone: zone 'YY' differs"):
        read_fleet(path, zone="XX")


def test_fleet_of_another_zone_rejected_at_its_first_row(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "zone,fuel,capacity_mw,availability,mttr_hours\n"
        "BB,CCGT,400,0.9,50.0\n"
        "BB,CCGT,250,0.9,50.0\n"
    )
    with pytest.raises(
        InvalidInputError, match=r"fleet\.csv:2: zone: zone 'BB' differs from the expected zone 'AA'"
    ):
        read_fleet(path, zone="AA")


@pytest.mark.parametrize("zone", ["AA", ""])
def test_synthesized_ids_and_pmf_survive_the_fleet_file(tmp_path, zone):
    pools = {
        Fuel.CCGT: FuelSizePool(fuel=Fuel.CCGT, sizes_mw=(400, 250)),
        Fuel.NUCLEAR: FuelSizePool(fuel=Fuel.NUCLEAR, sizes_mw=(900,)),
    }
    targets = {Fuel.CCGT: 2_000, Fuel.NUCLEAR: 1_800}
    fleet = synthesize_fleet(targets, pools, FUEL_PARAMS, seed=3, zone=zone)
    write_fleet(fleet, tmp_path / "fleet.csv")
    back = read_fleet(tmp_path / "fleet.csv", zone=zone)
    assert back == fleet
    assert back.units[0].id == unit_id(zone, Fuel.CCGT, 0)
    assert back.units[-1].id == (f"{zone}-" if zone else "") + "Nuclear-001"
    # the ids order the convolution, so the PMF bytes match too
    write_pmf(fleet_outage_pmf(fleet), tmp_path / "a.csv")
    write_pmf(fleet_outage_pmf(back), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fleet_empty_rejected(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text("zone,fuel,capacity_mw,availability,mttr_hours\n")
    with pytest.raises(InvalidInputError, match="no units"):
        read_fleet(path, zone="AA")


# -- PMF ---------------------------------------------------------------------


def test_pmf_round_trip_is_bitwise(tmp_path):
    fleet = Fleet(
        zone="Z",
        units=(make_unit("a", 3, 0.9), make_unit("b", 5, 0.77), make_unit("c", 2, 0.985)),
    )
    pmf = fleet_outage_pmf(fleet)
    path = tmp_path / "pmf.csv"
    write_pmf(pmf, path)
    back = read_pmf(path)
    assert back.probabilities.tolist() == pmf.probabilities.tolist()


def test_pmf_file_shape(tmp_path):
    pmf = CapacityOutagePMF(probabilities=np.array([0.9, 0.0, 0.1]))
    path = tmp_path / "pmf.csv"
    write_pmf(pmf, path)
    assert path.read_text() == "outage_mw,probability\n0,0.9\n1,0.0\n2,0.1\n"


def test_pmf_rejects_gappy_grid(tmp_path):
    path = tmp_path / "pmf.csv"
    path.write_text("outage_mw,probability\n0,0.9\n2,0.1\n")
    with pytest.raises(InvalidInputError, match=r"pmf\.csv:3: .*contiguous"):
        read_pmf(path)


def test_pmf_rejects_a_float_grid_point(tmp_path):
    path = tmp_path / "pmf.csv"
    path.write_text("outage_mw,probability\n0,0.5\n1.0,0.5\n")
    with pytest.raises(InvalidInputError, match=r"pmf\.csv:3: outage_mw"):
        read_pmf(path)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_pmf_rejects_non_finite_probability(tmp_path, cell):
    path = tmp_path / "pmf.csv"
    path.write_text(f"outage_mw,probability\n0,0.5\n1,{cell}\n")
    with pytest.raises(InvalidInputError, match="finite"):
        read_pmf(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "PMF must be a non-empty 1-D array"),
        ("0,0.5\n1,0.4\n", "PMF mass 0.9 is not 1 within 1e-09"),
        ("0,1.5\n1,-0.5\n", "PMF entries must be finite and non-negative"),
    ],
    ids=["no_rows", "mass", "negative"],
)
def test_pmf_errors_name_the_file(tmp_path, body, message):
    path = tmp_path / "pmf.csv"
    path.write_text(f"{PMF_HEADER}\n{body}")
    with pytest.raises(InvalidInputError, match=rf"pmf\.csv: {message}"):
        read_pmf(path)


# -- zone series -------------------------------------------------------------


def _zone_channels(n: int = 4) -> dict[Channel, HourlyOutageSeries]:
    rng = np.random.default_rng(1)
    out = {}
    for channel in Channel:
        lo = np.round(rng.uniform(0, 100, size=n), 3)
        hi = lo + np.round(rng.uniform(0, 50, size=n), 3)
        out[channel] = HourlyOutageSeries(
            start=T0, values_mw=(lo + hi) / 2, o_min_mw=lo, o_max_mw=hi
        )
    return out


def test_zone_series_round_trip(tmp_path):
    channels = _zone_channels()
    path = tmp_path / "series.csv"
    write_zone_series(channels, path)
    back = read_zone_series(path)
    for channel in Channel:
        np.testing.assert_allclose(
            back[channel].values_mw, channels[channel].values_mw, atol=5e-4
        )
        assert back[channel].start == T0


def test_zone_series_header_and_formatting(tmp_path):
    channels = _zone_channels(1)
    path = tmp_path / "series.csv"
    write_zone_series(channels, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ZONE_SERIES_HEADER
    assert lines[1].startswith("2030-01-07T00:00:00Z,")
    # every value cell has exactly three decimals
    for cell in lines[1].split(",")[1:]:
        assert len(cell.split(".")[1]) == 3


def _zone_series_lines_per_cell(by_channel: dict[Channel, HourlyOutageSeries]) -> list[str]:
    """The zone-series writer's lines built one NumPy scalar and one timestamp at a time."""
    cols = [col for c in Channel for col in (
        by_channel[c].o_min_mw, by_channel[c].values_mw, by_channel[c].o_max_mw
    )]
    lines = [ZONE_SERIES_HEADER]
    total = by_channel[Channel.TOTAL]
    for i, hour in enumerate(utc_hours(total.start, total.n_hours)):
        values = ",".join(f"{col[i]:.3f}" for col in cols)
        lines.append(f"{format_utc(hour)},{values}")
    return lines


def test_zone_series_bytes_match_per_cell_formatting(tmp_path):
    # nan, signed zero, halves at the third decimal (binary values just
    # above and below a tie), large values, and a span over a leap day and
    # a year end
    special = [
        np.nan, -0.0, 0.0, 0.0005, 0.0015, 0.0025, 1.0005, 2.675, -0.0004,
        -1.2345, 999999.9995, 1e6, 1234567.8915, 8.5e7, 1e15, np.inf, -np.inf,
    ]
    rng = np.random.default_rng(7)
    n = 24 * 400
    start = datetime(2015, 12, 30, tzinfo=timezone.utc)
    channels = {}
    for k, channel in enumerate(Channel):
        cols = []
        for j in range(3):
            col = np.round(rng.uniform(-5, 2e6, n), int(rng.integers(2, 6)))
            col[: len(special)] = np.roll(special, 3 * k + j)
            cols.append(col)
        lo, mid, hi = cols
        channels[channel] = HourlyOutageSeries(start, mid, lo, hi)
    path = tmp_path / "series.csv"
    write_zone_series(channels, path)
    expected = "".join(f"{line}\n" for line in _zone_series_lines_per_cell(channels))
    assert path.read_bytes() == expected.encode()


def test_series_starting_before_year_1000_round_trip(tmp_path):
    # strftime writes year 999 as "999", which parse_utc cannot read back
    start = datetime(999, 12, 31, 22, tzinfo=timezone.utc)
    values = np.array([0.0, 1.5, 2.25, 3.0])
    sim_path = tmp_path / "sim.csv"
    write_sim_series(HourlySeries(start=start, values_mw=values), {}, sim_path)
    back, _ = read_sim_series(sim_path)
    assert back.start == start
    np.testing.assert_array_equal(back.values_mw, values)
    channels = {c: HourlyOutageSeries(start, values, values, values) for c in Channel}
    zone_path = tmp_path / "series.csv"
    write_zone_series(channels, zone_path)
    back_channels = read_zone_series(zone_path)
    assert all(s.start == start for s in back_channels.values())
    np.testing.assert_array_equal(back_channels[Channel.TOTAL].values_mw, values)
    assert "\n0999-12-31T22:00:00Z," in sim_path.read_text()


def test_zone_series_requires_all_channels(tmp_path):
    channels = _zone_channels()
    del channels[Channel.PLANNED]
    with pytest.raises(InvalidInputError, match="Planned"):
        write_zone_series(channels, tmp_path / "series.csv")


def test_zone_series_requires_aligned_periods(tmp_path):
    channels = _zone_channels()
    short = channels[Channel.TOTAL]
    channels[Channel.TOTAL] = HourlyOutageSeries(
        start=short.start, values_mw=short.values_mw[:-1],
        o_min_mw=short.o_min_mw[:-1], o_max_mw=short.o_max_mw[:-1],
    )
    with pytest.raises(InvalidInputError, match="different periods"):
        write_zone_series(channels, tmp_path / "series.csv")


@pytest.mark.parametrize("cells", [("9.000", "1.000", "2.000"), ("0.000", "3.000", "2.000"),
                                   ("1.000", "0.500", "2.000"), ("2.000", "2.000", "1.000")])
@pytest.mark.parametrize("channel", list(Channel))
def test_zone_series_rejects_envelopes_out_of_order(tmp_path, channel, cells):
    good = ["0.000", "1.000", "2.000"] * len(Channel)
    bad = list(good)
    k = 3 * list(Channel).index(channel)
    bad[k : k + 3] = cells
    path = tmp_path / "series.csv"
    path.write_text(
        f"{ZONE_SERIES_HEADER}\n2030-01-07T00:00:00Z,{','.join(good)}\n"
        f"2030-01-07T01:00:00Z,{','.join(bad)}\n"
    )
    with pytest.raises(
        InvalidInputError,
        match=rf"series\.csv: {channel.value}: min <= mean <= max fails at 2030-01-07T01:00:00Z",
    ):
        read_zone_series(path)


def test_zone_series_empty_file_rejected(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(ZONE_SERIES_HEADER + "\n")
    with pytest.raises(InvalidInputError, match="no rows"):
        read_zone_series(path)


# -- simulated series --------------------------------------------------------


def test_sim_series_round_trip_with_sidecar(tmp_path):
    series = HourlySeries(start=T0, values_mw=np.array([0.0, 100.0, 100.0, 0.0]))
    meta = {"seed": 7, "rng": "numpy.random.Generator(PCG64)"}
    path = tmp_path / "sim.csv"
    write_sim_series(series, meta, path)
    back, back_meta = read_sim_series(path)
    np.testing.assert_array_equal(back.values_mw, series.values_mw)
    assert back.start == T0
    assert back_meta == meta
    assert sidecar_for(path).name == "sim.csv.meta.json"


def test_sim_series_not_hour_aligned_names_the_file(tmp_path):
    path = tmp_path / "sim.csv"
    path.write_text("timestamp_utc,outage_mw\n2030-01-07T00:30:00Z,5.0\n2030-01-07T01:30:00Z,1.0\n")
    with pytest.raises(
        InvalidInputError, match=r"sim\.csv: timestamp 2030-01-07T00:30:00\+00:00 is not hour-aligned"
    ):
        read_sim_series(path)


def test_sim_series_without_sidecar(tmp_path):
    path = tmp_path / "sim.csv"
    path.write_text("timestamp_utc,outage_mw\n2030-01-07T00:00:00Z,5.0\n")
    series, meta = read_sim_series(path)
    assert series.values_mw.tolist() == [5.0]
    assert meta == {}


@pytest.mark.parametrize("sidecar_text", ["{", "[1, 2]"])
def test_sim_series_bad_sidecar_names_it(tmp_path, sidecar_text):
    path = tmp_path / "sim.csv"
    path.write_text("timestamp_utc,outage_mw\n2030-01-07T00:00:00Z,5.0\n")
    sidecar_for(path).write_text(sidecar_text)
    with pytest.raises(InvalidInputError, match="sim.csv.meta.json"):
        read_sim_series(path)


# -- byte oracles of the array-backed writers --------------------------------
#
# Each reference formats one cell and one timestamp at a time, as the
# writers did before they shared one row formatter.

# nan, signed zero, halves at the third decimal (binary values just above and
# below a tie), large values and infinities
SPECIAL = [
    np.nan, -0.0, 0.0, 0.0005, 0.0015, 0.0025, 1.0005, 2.675, -0.0004, -1.2345,
    999999.9995, 1e6, 1234567.8915, 8.5e7, 1e9 + 0.5, 1e12, 1e15, np.inf, -np.inf,
]
# a span over a leap day and a year end
ORACLE_START = datetime(2015, 12, 30, tzinfo=timezone.utc)


def _oracle_columns(n: int, k: int) -> list[np.ndarray]:
    """``k`` columns of ``n`` values: the special values, rolled per column, then random."""
    rng = np.random.default_rng(11)
    cols = []
    for j in range(k):
        col = np.round(rng.uniform(-5, 2e6, n), int(rng.integers(0, 6)))
        col[: len(SPECIAL)] = np.roll(SPECIAL, j)
        cols.append(col)
    return cols


def _sim_series_lines(values):
    hours = utc_hours(ORACLE_START, values.size)
    cells = values.tolist()
    return ["timestamp_utc,outage_mw"] + [
        f"{format_utc(hour)},{cells[i]!r}" for i, hour in enumerate(hours)
    ]


def _pmf_lines(probs):
    return ["outage_mw,probability"] + [
        f"{mw},{prob!r}" for mw, prob in enumerate(probs.tolist())
    ]


def _histogram_lines(edges, freq_total, freq_forced, model_prob):
    return ["bin_gw,freq_total,freq_forced,model_prob"] + [
        f"{edges[i] / 1000.0:.3f},{float(freq_total[i])!r},"
        f"{float(freq_forced[i])!r},{float(model_prob[i])!r}"
        for i in range(edges.size - 1)
    ]


def _seasonal_lines(*profiles):
    header = "week,outage" + (",demand" if len(profiles) == 2 else "")
    cells = [p.tolist() for p in profiles]
    return [header] + [
        ",".join([str(week + 1), *(repr(p[week]) for p in cells)]) for week in range(52)
    ]


def _timeseries_lines(empirical, *sims):
    header = "timestamp_utc,empirical_mw," + ",".join(
        f"sim{k + 1}_mw" for k in range(len(sims))
    )
    lines = [header]
    for i, hour in enumerate(utc_hours(ORACLE_START, empirical.size)):
        sim_cells = ",".join(f"{s[i]:.0f}" for s in sims)
        lines.append(f"{format_utc(hour)},{empirical[i]:.3f},{sim_cells}")
    return lines


def _probabilities(col):
    """A valid PMF from ``col``: signed zeros and tiny and subnormal masses,
    then the finite cells with negatives flipped, scaled to unit mass."""
    col = col[np.isfinite(col)]
    col = np.where(col < 0, -col, col)
    return np.concatenate([[-0.0, 0.0, 5e-324, 1e-300, 1e-17], col / col.sum()])


def _write_histogram(edges, *freqs, path):
    write_histogram((edges / 1000.0)[:-1], *freqs, path)


# name -> (rows, columns, writer(*columns, path=...), per-cell reference)
BYTE_ORACLES = {
    "sim_series": (
        24 * 400, 1,
        lambda v, path: write_sim_series(HourlySeries(ORACLE_START, v), {}, path),
        _sim_series_lines,
    ),
    "pmf": (
        5000, 1,
        lambda p, path: write_pmf(CapacityOutagePMF(_probabilities(p)), path),
        lambda p: _pmf_lines(_probabilities(p)),
    ),
    "histogram": (4001, 4, _write_histogram, _histogram_lines),
    "seasonal": (52, 1, lambda o, path: write_seasonal(o, None, path), _seasonal_lines),
    "seasonal_demand": (52, 2, lambda o, d, path: write_seasonal(o, d, path), _seasonal_lines),
    "timeseries_one_draw": (
        24 * 400, 2,
        lambda e, s, path: write_timeseries_plot(e, [s], ORACLE_START, path),
        _timeseries_lines,
    ),
    "timeseries_three_draws": (
        24 * 400, 4,
        lambda e, *s, path: write_timeseries_plot(e, s, ORACLE_START, path),
        _timeseries_lines,
    ),
}


@pytest.mark.parametrize("name", BYTE_ORACLES)
def test_writer_bytes_match_per_cell_formatting(tmp_path, name):
    n_rows, n_cols, write, reference = BYTE_ORACLES[name]
    cols = _oracle_columns(n_rows, n_cols)
    path = tmp_path / f"{name}.csv"
    write(*cols, path=path)
    expected = "".join(f"{line}\n" for line in reference(*cols))
    assert path.read_bytes() == expected.encode()


# -- statistics CSV ----------------------------------------------------------


def test_stats_csv_layout(tmp_path):
    rows = [
        StatsRow("AA", "Total", "empirical", 120.5, 80.0, 0.0123456789,
                 {1: 0.97, 6: 0.9, 24: 0.75, 168: 0.5}),
        StatsRow("AA", "Total", "model", 119.0, 100.0),
    ]
    path = tmp_path / "stats.csv"
    write_stats_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == stats_header()
    assert lines[0] == (
        "zone,channel,source,mean_mw,iqr_mw,recon_error,acf_1h,acf_6h,acf_24h,acf_168h"
    )
    assert lines[1] == "AA,Total,empirical,120.5,80.0,0.012346,0.97,0.9,0.75,0.5"
    # statistics that do not apply are empty cells, not zeros
    assert lines[2] == "AA,Total,model,119.0,100.0,,,,,"


def test_stats_csv_rounds_to_six_decimals(tmp_path):
    rows = [StatsRow("Z", "Total", "empirical", 1 / 3, 2 / 3, None, {1: 1 / 7})]
    path = tmp_path / "stats.csv"
    write_stats_csv(rows, path)
    line = path.read_text().splitlines()[1]
    assert line == "Z,Total,empirical,0.333333,0.666667,,0.142857,,,"


# -- fuel parameter table ----------------------------------------------------


def test_load_fuel_params(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({
        "version": "test-override",
        "fuels": {
            "CCGT": {"availability": 0.92, "mttr_hours": 45},
            "Nuclear": {"availability": 0.85, "mttr_hours": 120},
        },
    }))
    table, version = load_fuel_params(path)
    assert version == "test-override"
    assert table[Fuel.CCGT].availability == 0.92
    assert table[Fuel.NUCLEAR].mttr_hours == 120.0
    assert Fuel.COAL not in table


def test_load_fuel_params_matches_builtin_shape(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({
        "version": "full",
        "fuels": {
            fuel.value: {"availability": p.availability, "mttr_hours": p.mttr_hours}
            for fuel, p in FUEL_PARAMS.items()
        },
    }))
    table, _ = load_fuel_params(path)
    assert table == FUEL_PARAMS


def test_load_fuel_params_bad_shapes(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"fuels": {}}))
    with pytest.raises(InvalidInputError, match="no fuels"):
        load_fuel_params(path)
    path.write_text(json.dumps(["not", "an", "object"]))
    with pytest.raises(InvalidInputError, match="fuels"):
        load_fuel_params(path)
    path.write_text(json.dumps({"fuels": {"CCGT": {"availability": 0.9}}}))
    with pytest.raises(InvalidInputError, match="mttr_hours"):
        load_fuel_params(path)
    path.write_text(json.dumps({"fuels": {"Geothermal": {"availability": 0.9, "mttr_hours": 1}}}))
    with pytest.raises(InvalidInputError, match="Geothermal"):
        load_fuel_params(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"fuels": {"CCGT": {"availability": "abc", "mttr_hours": 50}}}',
        '{"fuels": {"CCGT": {"availability": 0.9, "mttr_hours": "50"}}}',
        '{"fuels": {"CCGT": {"availability": true, "mttr_hours": 50}}}',
        '{"fuels": {"CCGT": {"availability": NaN, "mttr_hours": 50}}}',
        '{"fuels": {"CCGT": {"availability": 0.9, "mttr_hours": Infinity}}}',
        '{"fuels": {"CCGT": {"availability": 1.5, "mttr_hours": 50}}}',
        '{"fuels": {"CCGT": {"availability": 0.9, "mttr_hours": 0.5}}}',
        '{"fuels": {"CCGT": {"availability": 0.05, "mttr_hours": 10}}}',
        '{"fuels": {"CCGT": [0.9, 50]}}',
        '{"fuels": ["CCGT"]}',
        '{"fuels": "CCGT"}',
        '{"fuels": {"CCGT": ',
        "",
    ],
)
def test_load_fuel_params_rejects_malformed_file_naming_it(tmp_path, text):
    path = tmp_path / "params.json"
    path.write_text(text)
    with pytest.raises(InvalidInputError, match="params.json"):
        load_fuel_params(path)


@pytest.mark.parametrize("version", [None, 5, ["x"]])
def test_load_fuel_params_rejects_non_string_version(tmp_path, version):
    path = tmp_path / "params.json"
    fuels = {"CCGT": {"availability": 0.9, "mttr_hours": 50}}
    path.write_text(json.dumps({"version": version, "fuels": fuels}))
    with pytest.raises(InvalidInputError, match="params.json: version must be a string"):
        load_fuel_params(path)
    path.write_text(json.dumps({"fuels": fuels}))
    assert load_fuel_params(path)[1] == "unversioned"


@pytest.mark.parametrize(
    "text, key",
    [
        (
            '{"fuels": {"CCGT": {"availability": 0.5, "mttr_hours": 50},'
            ' "CCGT": {"availability": 0.9, "mttr_hours": 50}}}',
            "CCGT",
        ),
        (
            '{"fuels": {"CCGT": {"availability": 0.5, "availability": 0.9, "mttr_hours": 50}}}',
            "availability",
        ),
        (
            '{"version": "a", "fuels": {"CCGT": {"availability": 0.9, "mttr_hours": 50}},'
            ' "version": "b"}',
            "version",
        ),
    ],
    ids=["fuel", "field", "top_level"],
)
def test_load_fuel_params_refuses_a_repeated_key_naming_it(tmp_path, text, key):
    path = tmp_path / "params.json"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as info:
        load_fuel_params(path)
    assert str(info.value) == f"{path}: not valid JSON: repeated key '{key}'"


def test_load_fuel_params_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "params.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InvalidInputError, match="params.json: not valid JSON"):
        load_fuel_params(path)


# -- demand ------------------------------------------------------------------


def test_read_demand(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text(
        "timestamp_utc,demand_mw\n"
        "2030-01-07T00:00:00Z,41000.5\n"
        "2030-01-07T01:00:00Z,39875.0\n"
    )
    series = read_demand(path)
    assert series.start == T0
    assert series.values_mw.tolist() == [41000.5, 39875.0]


def test_read_demand_empty_rejected(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("timestamp_utc,demand_mw\n")
    with pytest.raises(InvalidInputError, match="no rows"):
        read_demand(path)


def test_read_demand_missing_column(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("timestamp_utc,load\n2030-01-07T00:00:00Z,1\n")
    with pytest.raises(InvalidInputError, match="demand_mw"):
        read_demand(path)


# -- malformed rows, shared by every reader ----------------------------------


# reader, header, and two valid data rows whose last cell is numeric
READERS = {
    "registry": (read_registry, "zone,fuel,capacity_mw", ["AA,CCGT,400", "AA,Coal,600"]),
    "fleet": (
        functools.partial(read_fleet, zone="AA"),
        "zone,fuel,capacity_mw,availability,mttr_hours",
        ["AA,CCGT,400,0.9,50.0", "AA,CCGT,250,0.85,41.5"],
    ),
    "pmf": (read_pmf, "outage_mw,probability", ["0,0.25", "1,0.75"]),
    "zone_series": (
        read_zone_series,
        ZONE_SERIES_HEADER,
        [
            "2030-01-07T00:00:00Z,0.000,1.000,2.000,0.000,0.000,0.000,0.000,1.000,2.000",
            "2030-01-07T01:00:00Z,1.000,1.500,2.000,3.000,3.000,3.000,4.000,4.500,5.000",
        ],
    ),
    "sim_series": (
        read_sim_series,
        "timestamp_utc,outage_mw",
        ["2030-01-07T00:00:00Z,0.0", "2030-01-07T01:00:00Z,250.0"],
    ),
    "demand": (
        read_demand,
        "timestamp_utc,demand_mw",
        ["2030-01-07T00:00:00Z,41000.5", "2030-01-07T01:00:00Z,39875.0"],
    ),
}

HOURLY_READERS = [
    kind for kind, (_, header, _) in READERS.items() if header.startswith("timestamp_utc,")
]


MALFORMED = {
    "non_numeric": lambda cells: [*cells[:-1], "abc"],
    "short_row": lambda cells: cells[:-1],
    "extra_cell": lambda cells: [*cells, "1"],
    "bad_timestamp": lambda cells: ["2030-01-07 one o'clock", *cells[1:]],
}


@pytest.mark.parametrize(
    "kind, case",
    [
        (kind, case)
        for kind in READERS
        for case in MALFORMED
        if case != "bad_timestamp" or kind in HOURLY_READERS
    ],
)
def test_readers_reject_malformed_rows_naming_the_line(tmp_path, kind, case):
    reader, header, (first, second) = READERS[kind]
    bad = ",".join(MALFORMED[case](second.split(",")))
    path = tmp_path / f"{kind}.csv"
    # the blank line 3 is skipped but still counted, so the bad row is line 4
    path.write_text(f"{header}\n{first}\n\n{bad}\n")
    with pytest.raises(InvalidInputError, match=rf"{kind}\.csv:4: "):
        reader(path)


def _permuted(header: str, rows: list[str]) -> list[str]:
    """Header and rows with the column order reversed."""
    return [",".join(reversed(line.split(","))) for line in [header, *rows]]


@pytest.mark.parametrize(
    "layout",
    [
        lambda header, rows: [header, "", rows[0], "", "", rows[1], ""],
        _permuted,
    ],
    ids=["blank_lines", "permuted_columns"],
)
@pytest.mark.parametrize("kind", list(READERS))
def test_readers_skip_blank_lines_and_find_columns_by_name(tmp_path, kind, layout):
    reader, header, rows = READERS[kind]
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join([header, *rows]) + "\n")
    other = tmp_path / "other.csv"
    other.write_text("\n".join(layout(header, rows)) + "\n")
    # the results hold arrays, which do not compare with ==; their reprs do
    assert repr(reader(other)) == repr(reader(plain))


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("kind", list(READERS))
def test_readers_refuse_a_repeated_column(tmp_path, kind, position):
    # the second copy holds the other row's cell, so reading either copy
    # would give a plausible but different answer
    reader, header, rows = READERS[kind]
    name = header.split(",")[position]
    cells = [row.split(",")[position] for row in rows]
    lines = [f"{header},{name}", *(f"{row},{cell}" for row, cell in zip(rows, cells[::-1]))]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match=rf"{kind}\.csv: repeated columns \['{name}'\]"):
        reader(path)


# -- how every input file is opened ------------------------------------------


@pytest.mark.parametrize(
    "kind, fault",
    [
        (kind, fault)
        for kind in [*READERS, "json"]
        for fault in READ_FAULTS
        if kind != "json" or fault != "oversized_field"
    ],
)
def test_a_file_that_cannot_be_read_is_invalid_input_naming_it(tmp_path, kind, fault):
    if kind == "json":
        read, valid = io.read_json, b'{"a": 1}\n'
    else:
        read, header, rows = READERS[kind]
        valid = "".join(f"{line}\n" for line in [header, *rows]).encode()
    path = tmp_path / "input"
    break_file(path, valid, fault)
    with pytest.raises(InvalidInputError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}: ")
    assert type(info.value.__cause__) is READ_FAULTS[fault]


# reader and file text
MARKED_INPUTS = {
    "registry": (read_registry, b"zone,fuel,capacity_mw\nAA,CCGT,400\n"),
    "params": (load_fuel_params, b'{"fuels": {"CCGT": {"availability": 0.9, "mttr_hours": 50}}}'),
    "demand": (read_demand, b"timestamp_utc,demand_mw\n2030-01-07T00:00:00Z,41000.5\n"),
    "config": (PipelineConfig.from_file, b'{"zones": ["AA"], "seasons": ["16/17"]}'),
}


def _comparable(result):
    """A reader's result in a form ``==`` compares (an ``HourlySeries`` holds an array)."""
    if isinstance(result, HourlySeries):
        return result.start, result.values_mw.tolist()
    return result


@pytest.mark.parametrize("kind", MARKED_INPUTS)
def test_one_leading_byte_order_mark_is_skipped(tmp_path, kind):
    read, text = MARKED_INPUTS[kind]
    plain, marked, twice = tmp_path / "plain", tmp_path / "marked", tmp_path / "twice"
    plain.write_bytes(text)
    marked.write_bytes(codecs.BOM_UTF8 + text)
    twice.write_bytes(codecs.BOM_UTF8 * 2 + text)
    assert _comparable(read(marked)) == _comparable(read(plain))
    with pytest.raises(InvalidInputError, match="twice"):
        read(twice)


# -- hourly timestamps -------------------------------------------------------


@pytest.mark.parametrize(
    "stamps",
    [
        ["2030-01-07T00:00:00Z", "2030-01-07T01:00:00Z", "2030-01-07T05:00:00Z"],
        ["2030-01-07T00:00:00Z", "2030-01-07T01:00:00Z", "2030-01-07T01:00:00Z"],
        ["2030-01-07T00:00:00Z", "2030-01-07T01:00:00Z", "2029-01-07T00:00:00Z"],
    ],
    ids=["gap", "duplicate", "out_of_order"],
)
@pytest.mark.parametrize("kind", HOURLY_READERS)
def test_hourly_readers_reject_non_consecutive_rows(tmp_path, kind, stamps):
    reader, header, rows = READERS[kind]
    cells = rows[0][rows[0].index(","):]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join([header, *(ts + cells for ts in stamps)]) + "\n")
    with pytest.raises(InvalidInputError, match=rf"{kind}\.csv:4: .*not one hour after"):
        reader(path)


# -- bulk reads and their oracle --------------------------------------------
#
# The hourly readers parse the writers' own layout in bulk and hand every
# file the bulk parse refuses to _read_columns, the oracle.  read_pmf has no
# bulk path: it is _read_columns alone.


def _write_demand(values: np.ndarray, path) -> None:
    # the hourly writers' layout under the demand header
    io._write_rows("timestamp_utc,demand_mw", "%r", [values], path, start=T0)


def _bits(value) -> list:
    """Every value in a reader's result; arrays as dtype, shape and bytes,
    so that NaNs and signed zeros compare by their bits."""
    if isinstance(value, np.ndarray):
        return [(value.dtype.str, value.shape, value.tobytes())]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = [*value, *value.values()]
    if isinstance(value, (list, tuple)):
        return [bits for item in value for bits in _bits(item)]
    return [value]


def test_bulk_path_reads_the_writers_own_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    channels = _zone_channels(24 * 9)
    write_zone_series(channels, tmp_path / "series.csv")
    sim = HourlySeries(T0, np.round(rng.uniform(0, 9e4, 24 * 9)))
    write_sim_series(sim, {"seed": 1}, tmp_path / "sim.csv")
    demand = HourlySeries(T0, rng.uniform(3e4, 8e4, 24 * 9))
    _write_demand(demand.values_mw, tmp_path / "demand.csv")
    # what _read_columns would return, read before it is taken away
    expected_series = _bits(read_zone_series(tmp_path / "series.csv"))

    def refuse(*args, **kwargs):
        raise AssertionError("fell back to _read_columns")

    monkeypatch.setattr(io, "_read_columns", refuse)
    assert _bits(read_zone_series(tmp_path / "series.csv")) == expected_series
    assert _bits(read_sim_series(tmp_path / "sim.csv")) == _bits((sim, {"seed": 1}))
    assert _bits(read_demand(tmp_path / "demand.csv")) == _bits(demand)


CELLS = ["nan", "-nan", "inf", "-0", "1_0", "1e400", " 1.5 ", '"1.5"', "0x3", "3.0", "", "1\x00", "1#"]


def _replace_cell(data, lines):
    i = data.draw(st.integers(1, len(lines) - 1))
    cells = lines[i].split(",")
    j = data.draw(st.integers(0, len(cells) - 1))
    if data.draw(st.booleans()):
        cells[j] = data.draw(st.sampled_from(CELLS))
    else:  # the same number written another way
        cells[j] = data.draw(st.sampled_from(["{}.0", "{}e0", "+{}", " {}", "0{}", "{}\x00"])).format(cells[j])
    lines[i] = ",".join(cells)


def _resize_row(data, lines):
    i = data.draw(st.integers(1, len(lines) - 1))
    lines[i] = lines[i].rsplit(",", 1)[0] if data.draw(st.booleans()) else f"{lines[i]},1"


def _insert_line(data, lines):
    text = data.draw(st.sampled_from(["", " ", "\t", "#", "# note", f"#{lines[-1]}"]))
    lines.insert(data.draw(st.integers(1, len(lines))), text)


def _restamp(data, lines):
    """Change the first cell of a row, its stamp."""
    i = data.draw(st.integers(1, len(lines) - 1))
    stamp, rest = lines[i].split(",", 1)
    how = data.draw(st.sampled_from(["offset", "suffix", "earlier", "later"]))
    if how == "offset":
        stamp = stamp.replace("Z", "+00:00")
    elif how == "suffix":
        stamp += data.draw(st.sampled_from(["0", " ", "\x00", "Z"]))
    else:
        j = i - 1 if how == "earlier" else i + 1
        stamp = lines[j if 1 <= j < len(lines) else i].split(",", 1)[0]
    lines[i] = f"{stamp},{rest}"


def _reorder(data, lines):
    order = data.draw(st.permutations(range(lines[0].count(",") + 1)))
    for i, line in enumerate(lines):
        cells = line.split(",")
        lines[i] = ",".join(cells[k] for k in order)


MUTATIONS = {
    "cell": _replace_cell,
    "row_width": _resize_row,
    "inserted_line": _insert_line,
    "stamp": _restamp,
    "column_order": _reorder,
}


def _base_file(kind: str, values: list[float], path) -> None:
    values = np.array(values)
    if kind == "zone_series":
        channels = {c: HourlyOutageSeries(T0, values, values - 1, values + 1) for c in Channel}
        write_zone_series(channels, path)
    elif kind == "sim_series":
        write_sim_series(HourlySeries(T0, values), {}, path)
    else:
        _write_demand(values, path)


def _outcome(reader, path) -> tuple:
    try:
        return ("read", _bits(reader(path)))
    except Exception as exc:  # the oracle's every error, whatever its type
        return ("raised", type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(HOURLY_READERS),
    values=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]), min_size=2, max_size=6),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),
    data=st.data(),
)
def test_bulk_path_agrees_with_the_oracle(tmp_path_factory, kind, values, mutation, line_end, data):
    path = tmp_path_factory.mktemp("mutated") / f"{kind}.csv"
    _base_file(kind, values, path)
    lines = path.read_text().splitlines()
    MUTATIONS[mutation](data, lines)
    path.write_bytes(line_end.join(lines).encode() + line_end.encode())
    _assert_bulk_agrees_with_oracle(READERS[kind][0], path)


def _assert_bulk_agrees_with_oracle(reader, path) -> None:
    got = _outcome(reader, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_bulk_read", lambda *args: None)
        assert got == _outcome(reader, path)


# Files that np.loadtxt, used naively, reads differently from the oracle.
LOADTXT_TRAPS = {
    "blank_value_cell": ("sim_series", ["2030-01-07T00:00:00Z,1.0", "2030-01-07T01:00:00Z,",
                                        "2030-01-07T02:00:00Z,2.0"]),
    "comment_in_cell": ("demand", ["2030-01-07T00:00:00Z,1.0", "2030-01-07T01:00:00Z,1#2"]),
    "comment_line": ("demand", ["2030-01-07T00:00:00Z,1.0", "#", "2030-01-07T01:00:00Z,1.0"]),
    "extra_cell": ("sim_series", ["2030-01-07T00:00:00Z,0.5", "2030-01-07T01:00:00Z,0.5,2"]),
    "stamp_nul": ("sim_series", ["2030-01-07T00:00:00Z,1.0", "2030-01-07T01:00:00Z\x00,1.0"]),
    "stamp_past_9999": ("sim_series", ["9999-12-31T23:00:00Z,1.0", "10000-01-01T00:00:00Z,1.0"]),
    "stamp_offset": ("demand", ["2030-01-07T00:00:00+00:00,1.0", "2030-01-07T01:00:00Z,1.0"]),
}


@pytest.mark.parametrize("trap", LOADTXT_TRAPS)
def test_bulk_path_agrees_with_the_oracle_on_loadtxt_traps(tmp_path, trap):
    kind, rows = LOADTXT_TRAPS[trap]
    reader, header, _ = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    _assert_bulk_agrees_with_oracle(reader, path)


NON_FINITE = rf"\w+: not a finite number at {format_utc(T0 + HOUR)}"


@pytest.mark.parametrize("cell", ["nan", "-nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("kind", HOURLY_READERS)
def test_hourly_readers_refuse_a_non_finite_cell_naming_the_hour(tmp_path, kind, cell):
    reader, header, (first, second) = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{first}\n{second.rsplit(',', 1)[0]},{cell}\n")
    with pytest.raises(InvalidInputError, match=rf"{kind}\.csv: {NON_FINITE}"):
        reader(path)
    _assert_bulk_agrees_with_oracle(reader, path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("kind", HOURLY_READERS)
def test_bulk_path_refuses_a_non_finite_cell(tmp_path, monkeypatch, kind, value):
    # the writers' own layout; a zone series gets inf in all nine cells of
    # the hour, which the min <= mean <= max check alone lets through
    path = tmp_path / f"{kind}.csv"
    _base_file(kind, [1.0, value], path)

    def refuse(*args, **kwargs):
        raise AssertionError("fell back to _read_columns")

    monkeypatch.setattr(io, "_read_columns", refuse)
    with pytest.raises(InvalidInputError, match=rf"{kind}\.csv: {NON_FINITE}"):
        READERS[kind][0](path)


@pytest.mark.parametrize("kind", ["pmf", *HOURLY_READERS])
def test_header_only_files_are_refused_whatever_the_warning_filter(tmp_path, kind):
    # loadtxt only warns on a file without rows; the bulk path must refuse it
    reader, header, _ = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(InvalidInputError, match=rf"{kind}\.csv: (series has no rows|PMF must)"):
            reader(path)



# -- atomic writes -----------------------------------------------------------


def test_write_lines_replaces_the_whole_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("old\n")
    write_lines(iter(["x,y", "1,2"]), path)
    assert path.read_bytes() == b"x,y\n1,2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]


@pytest.mark.parametrize("existing", [True, False])
def test_failed_write_leaves_old_file_and_no_temporary(tmp_path, existing):
    path = tmp_path / "a.csv"
    if existing:
        path.write_bytes(b"header\nold row\n")
    before = sorted(p.name for p in tmp_path.iterdir())

    def lines():
        yield "header"
        yield "new row"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_lines(lines(), path)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if existing:
        assert path.read_bytes() == b"header\nold row\n"


def test_write_json_layout(tmp_path):
    path = tmp_path / "m.json"
    write_json({"b": [1, 2], "a": None}, path)
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


@pytest.mark.parametrize("write", [
    functools.partial(write_lines, ["x"]), functools.partial(write_bytes, b"x\n"),
], ids=["write_lines", "write_bytes"])
def test_a_name_of_255_bytes_is_written(tmp_path, write):
    path = tmp_path / ("a" * 251 + ".csv")
    write(path)
    assert path.read_bytes() == b"x\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_write_makes_the_target_directory(tmp_path):
    path = tmp_path / "new" / "deeper" / "a.csv"
    write_lines(["x"], path)
    assert path.read_bytes() == b"x\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["a.csv"]


@pytest.mark.parametrize("write", [
    functools.partial(write_lines, ["x"]), functools.partial(write_bytes, b"x"),
], ids=["write_lines", "write_bytes"])
@pytest.mark.parametrize("under, cause", [
    ("", FileExistsError), ("sub", NotADirectoryError),
], ids=["in_a_file", "under_a_file"])
def test_a_write_under_a_regular_file_is_invalid_input_naming_the_directory(
    tmp_path, write, under, cause
):
    afile = tmp_path / "afile"
    afile.write_text("")
    directory = afile / under if under else afile
    target = directory / "stats.csv"
    with pytest.raises(InvalidInputError) as info:
        write(target)
    # the directory's mkdir failed; the temporary file's unlink would fail too,
    # but it must not replace that error
    original = info.value.__cause__
    assert type(original) is cause
    assert original.filename == str(directory)
    assert str(info.value) == f"cannot write {target}: {directory}: {original.strerror}"
    assert afile.read_text() == ""


def test_a_target_that_is_a_directory_is_invalid_input_leaving_no_temporary(tmp_path):
    target = tmp_path / "stats.csv"
    target.mkdir()
    with pytest.raises(InvalidInputError) as info:
        write_lines(["x"], target)
    assert type(info.value.__cause__) is IsADirectoryError
    assert str(info.value) == f"cannot write {target}: Is a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.csv"]
    assert not any(target.iterdir())
