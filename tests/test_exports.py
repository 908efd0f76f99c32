from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

import outagekit
import outagekit.ingest
from outagekit.pipeline import PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("module", [outagekit, outagekit.ingest], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_readme_library_example_runs():
    readme = README.read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["rates"].repair_rate_mu == 0.02
    assert namespace["rates"].failure_rate_lambda == pytest.approx(1 / 450)
    assert namespace["mean_mw"] == pytest.approx(400 * 0.10 + 600 * 0.19)
    assert namespace["series"].values_mw.size == 8760


def test_readme_config_table_lists_every_field():
    section = README.read_text().split("## Configuration reference", 1)[1]
    table = section.split("| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    keys = [row.split("|")[1].strip().strip("`") for row in table.splitlines()]
    assert keys == [f.name for f in dataclasses.fields(PipelineConfig)]


def test_readme_manifest_paragraph_names_every_hashed_field():
    text = " ".join(README.read_text().split())  # the paragraph's words, unwrapped
    section = text.split("`config_sha256`, the SHA-256 of the run parameters (", 1)[1]
    hashed = re.findall(r"`(\w+)`", section.split(";", 1)[0])
    config = PipelineConfig(zones=("AA",), seasons=("16/17",))
    assert hashed == list(config.public_dict())
