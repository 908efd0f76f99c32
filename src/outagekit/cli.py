"""Command-line interface.

Each stage subcommand runs one pipeline stage against a JSON config file;
the subcommands and their help lines come from ``pipeline.STAGES``.  ``run``
chains the stages and writes the manifest.  Each error class carries its exit
code as ``exit_code`` (see errors.py), so shell scripts can react to the
failure class:

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
import functools
import logging
import sys
from pathlib import Path
from typing import Callable, Iterable

import click

from . import __version__
from .errors import OutageKitError
from .pipeline import PLOT_KINDS, STAGES, PipelineConfig, emit_plot_data, run_pipeline


def _with_config(body: Callable[..., Iterable[object]]):
    """Turn ``body(config, **options)`` into a command callback.

    The callback takes the common options, loads the config with their
    overrides, runs ``body``, exits with a toolkit error's ``exit_code`` and
    echoes each line it returns.
    """

    @click.option(
        "--config",
        "config_path",
        required=True,
        type=click.Path(exists=True, dir_okay=False),
        help="JSON pipeline configuration.",
    )
    @click.option("--zone", "zones", multiple=True, help="Restrict to zone(s).")
    @click.option(
        "--season", "seasons", multiple=True, help="Restrict to season label(s), e.g. 16/17."
    )
    @click.option("--seed", type=int, default=None, help="Override the config seed.")
    @functools.wraps(body)
    def callback(config_path, zones, seasons, seed, **options) -> None:
        overrides = {}
        if zones:
            overrides["zones"] = zones
        if seasons:
            overrides.update(seasons=seasons, period=None)
        if seed is not None:
            overrides["seed"] = seed
        try:
            config = dataclasses.replace(PipelineConfig.from_file(config_path), **overrides)
            lines = body(config, **options)
        except OutageKitError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)
        for line in lines:
            click.echo(str(line))

    return callback


@click.group()
@click.version_option(version=__version__, prog_name="outagekit")
@click.option("-v", "--verbose", is_flag=True, help="Log stage progress to stderr.")
def cli(verbose: bool) -> None:
    """Generator-fleet unavailability: data ingestion, models and statistics."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# fetch returns a count, not paths, so it has its own body; every later stage
# echoes the paths it wrote
_fetch, *_path_stages = STAGES


@cli.command(_fetch.name, help=_fetch.help)
@_with_config
def fetch(config: PipelineConfig) -> list[str]:
    return [f"{_fetch.run(config)} zone-day documents in cache"]


for _stage in _path_stages:
    cli.command(_stage.name, help=_stage.help)(_with_config(_stage.run))


@cli.command("plot-data")
@click.option(
    "--kind",
    required=True,
    help=f"One of: {', '.join(PLOT_KINDS)}.",
)
@_with_config
def plot_data(config: PipelineConfig, kind: str) -> list[Path]:
    """Export plot-ready CSVs from existing pipeline artifacts."""
    return emit_plot_data(config, kind)


@cli.command()
@_with_config
def run(config: PipelineConfig) -> list[Path]:
    """Run the full pipeline and write the artifact manifest."""
    return [run_pipeline(config)]


main = cli

if __name__ == "__main__":
    main()
