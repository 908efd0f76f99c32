"""The error policy: each class's exit code, and ``where`` naming where an error happened."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from outagekit import errors
from outagekit.cli import main
from outagekit.errors import (
    AuthError,
    FetchError,
    InvalidInputError,
    MissingPoolError,
    OutageKitError,
    ParseError,
    StatsError,
    UsageError,
    where,
)

ROOT = Path(__file__).resolve().parents[1]

# A phrase naming each class's failures in exactly one row of both exit-code
# tables, README's and cli.py's.
PHRASES = {
    OutageKitError: "internal error",
    InvalidInputError: "input",
    MissingPoolError: "input",
    UsageError: "usage",
    AuthError: "API token",
    FetchError: "network",
    ParseError: "parse",
    StatsError: "statistic",
}


def _readme_codes() -> dict[int, str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    return {int(m[1]): m[2] for m in re.finditer(r"^\| (\d+) \| (.*) \|$", section, re.M)}


def _cli_codes() -> dict[int, str]:
    doc = importlib.import_module("outagekit.cli").__doc__
    return {int(m[1]): m[2] for m in re.finditer(r"^(\d+) {2,}(.+)$", doc, re.M)}


def test_every_error_class_has_a_phrase():
    classes = {
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, OutageKitError)
    }
    assert classes == set(PHRASES)


@pytest.mark.parametrize("table", [_readme_codes, _cli_codes], ids=["README", "cli"])
def test_exit_codes_match_the_documented_table(table):
    codes = table()
    assert codes[0] == "success"
    assert set(codes) == {0} | {cls.exit_code for cls in PHRASES}
    for cls, phrase in PHRASES.items():
        rows = [code for code, meaning in codes.items() if phrase.lower() in meaning.lower()]
        assert rows == [cls.exit_code], (cls.__name__, phrase)


@pytest.mark.parametrize("cls", list(PHRASES), ids=lambda cls: cls.__name__)
def test_cli_exits_with_the_class_exit_code(tmp_path, monkeypatch, cls):
    def fail(config, kind):
        raise cls("boom")

    monkeypatch.setattr("outagekit.cli.emit_plot_data", fail)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"zones": ["AA"], "seasons": ["16/17"]}))
    result = CliRunner().invoke(main, ["plot-data", "--config", str(config), "--kind", "x"])
    assert result.exit_code == cls.exit_code
    assert result.stderr == "error: boom\n"


@pytest.mark.parametrize("cls", list(PHRASES), ids=lambda cls: cls.__name__)
def test_where_prefixes_the_place_and_keeps_the_class(cls):
    original = cls("bad cell")
    with pytest.raises(cls) as info:
        with where(Path("fleet.csv")):
            raise original
    assert type(info.value) is cls
    assert str(info.value) == "fleet.csv: bad cell"
    assert info.value.__cause__ is original


def test_nested_where_adds_one_prefix_each_in_order():
    original = InvalidInputError("cannot parse timestamp 'x'")
    with pytest.raises(InvalidInputError) as info:
        with where("config.json"):
            with where("period must be an object"):
                raise original
    assert str(info.value) == "config.json: period must be an object: cannot parse timestamp 'x'"
    assert info.value.__cause__.__cause__ is original


@pytest.mark.parametrize(
    "exc",
    [FileNotFoundError(2, "No such file or directory", "fleet.csv"), ValueError("x"), KeyError(1)],
    ids=["FileNotFoundError", "ValueError", "KeyError"],
)
def test_where_lets_other_exceptions_through_untouched(exc):
    with pytest.raises(type(exc)) as info:
        with where("zone AA"):
            raise exc
    assert info.value is exc
