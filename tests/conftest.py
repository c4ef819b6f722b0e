from __future__ import annotations

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def pytest_collection_modifyitems(config, items):
    # the extended checks take minutes: they are collected only when the
    # -m expression names them, so `-m "not slow"` leaves them out too
    if "extended" in config.getoption("markexpr"):
        return
    extended = [item for item in items if item.get_closest_marker("extended")]
    if extended:
        config.hook.pytest_deselected(items=extended)
        items[:] = [item for item in items
                    if not item.get_closest_marker("extended")]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return REPO / "fixtures"


@pytest.fixture(autouse=True)
def fresh_contexts(monkeypatch):
    """An empty oracle cache for every test, so what a test counts (and
    the tables it enumerates) never depends on which tests ran before."""
    from relasph import coset
    monkeypatch.setattr(coset, "_context_cache", {})
