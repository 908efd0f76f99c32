from __future__ import annotations

import pytest

import outagekit
import outagekit.ingest


@pytest.mark.parametrize("module", [outagekit, outagekit.ingest], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
