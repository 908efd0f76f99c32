"""Output checks run after each timed sequence, and the artifact digest."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

#: Left out of the digest: later changes may add fields to the manifest.
DIGEST_EXCLUDES = ("manifest.json",)
PMF_TOLERANCE = 1e-9
STATS_ROWS_PER_ZONE = 5  # three empirical channels, model, simulated


def digest(out_dir: Path) -> str:
    """One SHA-256 over the names and bytes of every artifact."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name in DIGEST_EXCLUDES:
            continue
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _artifact_set(out_dir: Path, expected: list[str]) -> str | None:
    have = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if have == expected:
        return None
    missing = sorted(set(expected) - set(have))
    extra = sorted(set(have) - set(expected))
    return f"missing {missing[:5]}, unexpected {extra[:5]}"


def _series_envelope(path: Path) -> str | None:
    cols = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, 10), ndmin=2)
    for c, channel in enumerate(("forced", "planned", "total")):
        lo, mid, hi = cols[:, 3 * c], cols[:, 3 * c + 1], cols[:, 3 * c + 2]
        bad = int(np.count_nonzero((lo > mid) | (mid > hi)))
        if bad:
            return f"{channel}: {bad} rows violate min <= mean <= max"
    return None


def _pmf_mass(path: Path) -> str | None:
    probs = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, ndmin=1)
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > PMF_TOLERANCE:
        return f"mass {total!r} is not 1 within {PMF_TOLERANCE}"
    return None


def _stats_rows(path: Path, n_zones: int) -> str | None:
    rows = len(path.read_text(encoding="utf-8").splitlines()) - 1
    if rows != n_zones * STATS_ROWS_PER_ZONE:
        return f"{rows} rows, expected {n_zones * STATS_ROWS_PER_ZONE}"
    return None


def run_checks(out_dir: Path, expected: list[str], n_zones: int) -> list[tuple[str, str | None]]:
    """(check name, failure or None) for every output check of one sequence.

    A check that raises counts as failed with the exception as its reason.
    """
    checks = [("artifact_set", lambda: _artifact_set(out_dir, expected))]
    for name in expected:
        path = out_dir / name
        if name.startswith("series_"):
            checks.append((f"envelope:{name}", lambda p=path: _series_envelope(p)))
        elif name.startswith("pmf_"):
            checks.append((f"pmf_mass:{name}", lambda p=path: _pmf_mass(p)))
        elif name == "stats.csv":
            checks.append(("stats_rows", lambda p=path: _stats_rows(p, n_zones)))
    results = []
    for name, check in checks:
        try:
            results.append((name, check()))
        except Exception as exc:  # a broken artifact fails its check, not the run
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results
