"""Command-line interface.

Each subcommand runs one pipeline stage against a JSON config file; ``run``
chains them all and writes the manifest.  Errors map to distinct exit codes
so shell scripts can react to the failure class:

====  ==========================================
code  meaning
====  ==========================================
0     success
1     unexpected internal error
2     usage or invalid input/config
3     authentication (bad or missing API token)
4     fetch/network failure or damaged cache page
5     document parse failure
6     statistics undefined on the given data
====  ==========================================

The API token is read from the config file or the ENTSOE_API_TOKEN
environment variable; there is deliberately no ``--token`` option, since
command lines leak into shell history and process listings.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
from contextlib import contextmanager

import click

from .errors import (
    AuthError,
    FetchError,
    InvalidInputError,
    MissingPoolError,
    OutageKitError,
    ParseError,
    StatsError,
    UsageError,
)
from .pipeline import (
    PLOT_KINDS,
    PipelineConfig,
    emit_plot_data,
    run_pipeline,
    stage_fetch,
    stage_fleet,
    stage_ingest,
    stage_model,
    stage_simulate,
    stage_stats,
)

_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (UsageError, 2),
    (InvalidInputError, 2),
    (MissingPoolError, 2),
    (AuthError, 3),
    (FetchError, 4),
    (ParseError, 5),
    (StatsError, 6),
)


def _exit_code(exc: OutageKitError) -> int:
    for cls, code in _EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 1


@contextmanager
def _exit_on_error():
    try:
        yield
    except OutageKitError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(_exit_code(exc))
    except FileNotFoundError as exc:
        missing = exc.filename or str(exc)
        click.echo(
            f"error: missing input file {missing}; run the earlier pipeline stages first",
            err=True,
        )
        sys.exit(2)


def _load_config(config_path: str, zones: tuple[str, ...], seasons: tuple[str, ...], seed: int | None) -> PipelineConfig:
    config = PipelineConfig.from_file(config_path)
    overrides = {}
    if zones:
        overrides["zones"] = zones
    if seasons:
        overrides["seasons"] = seasons
        overrides["period"] = None
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _common_options(fn):
    for option in reversed(
        (
            click.option(
                "--config",
                "config_path",
                required=True,
                type=click.Path(exists=True, dir_okay=False),
                help="JSON pipeline configuration.",
            ),
            click.option("--zone", "zones", multiple=True, help="Restrict to zone(s)."),
            click.option(
                "--season", "seasons", multiple=True, help="Restrict to season label(s), e.g. 16/17."
            ),
            click.option("--seed", type=int, default=None, help="Override the config seed."),
        )
    ):
        fn = option(fn)
    return fn


@click.group()
@click.version_option(version="0.1.0", prog_name="outagekit")
@click.option("-v", "--verbose", is_flag=True, help="Log stage progress to stderr.")
def cli(verbose: bool) -> None:
    """Generator-fleet unavailability: data ingestion, models and statistics."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@cli.command()
@_common_options
def fetch(config_path, zones, seasons, seed) -> None:
    """Download the unavailability documents missing from the cache."""
    with _exit_on_error():
        config = _load_config(config_path, zones, seasons, seed)
        n = stage_fetch(config)
    click.echo(f"{n} zone-day documents in cache")


@cli.command()
@_common_options
def ingest(config_path, zones, seasons, seed) -> None:
    """Parse cached documents into reconciled hourly series CSVs."""
    with _exit_on_error():
        config = _load_config(config_path, zones, seasons, seed)
        for path in stage_ingest(config):
            click.echo(str(path))


@cli.command()
@_common_options
def fleet(config_path, zones, seasons, seed) -> None:
    """Synthesize per-zone fleets from the unit registry."""
    with _exit_on_error():
        config = _load_config(config_path, zones, seasons, seed)
        for path in stage_fleet(config):
            click.echo(str(path))


@cli.command()
@_common_options
def model(config_path, zones, seasons, seed) -> None:
    """Convolve fleets into capacity-outage distributions."""
    with _exit_on_error():
        config = _load_config(config_path, zones, seasons, seed)
        for path in stage_model(config):
            click.echo(str(path))


@cli.command()
@_common_options
def simulate(config_path, zones, seasons, seed) -> None:
    """Simulate hourly fleet outages with the two-state chain."""
    with _exit_on_error():
        config = _load_config(config_path, zones, seasons, seed)
        for path in stage_simulate(config):
            click.echo(str(path))


@cli.command()
@_common_options
def stats(config_path, zones, seasons, seed) -> None:
    """Compute the empirical-vs-model comparison statistics CSV."""
    with _exit_on_error():
        config = _load_config(config_path, zones, seasons, seed)
        click.echo(str(stage_stats(config)))


@cli.command("plot-data")
@click.option(
    "--kind",
    required=True,
    help=f"One of: {', '.join(PLOT_KINDS)}.",
)
@_common_options
def plot_data(kind, config_path, zones, seasons, seed) -> None:
    """Export plot-ready CSVs from existing pipeline artifacts."""
    with _exit_on_error():
        config = _load_config(config_path, zones, seasons, seed)
        for path in emit_plot_data(config, kind):
            click.echo(str(path))


@cli.command()
@_common_options
def run(config_path, zones, seasons, seed) -> None:
    """Run the full pipeline and write the artifact manifest."""
    with _exit_on_error():
        config = _load_config(config_path, zones, seasons, seed)
        manifest = run_pipeline(config)
    click.echo(str(manifest))


main = cli

if __name__ == "__main__":
    main()
