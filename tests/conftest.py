"""Fixtures shared by the test modules."""

import pytest

from cvqec import montecarlo


@pytest.fixture(autouse=True)
def _empty_memos():
    """Every test starts and ends with no carrier and no sweep cached, so
    no test reads rows or chunk sizes that another test computed."""
    montecarlo._carrier.cache_clear()
    montecarlo._sweep_rows.cache_clear()
    yield
    montecarlo._carrier.cache_clear()
    montecarlo._sweep_rows.cache_clear()


@pytest.fixture
def chunk_budget(monkeypatch):
    """Sets montecarlo._CHUNK_BUDGET and empties the memos, which are not
    keyed by the budget; the monkeypatch undoes the budget after the test,
    and _empty_memos empties them again."""
    def set_budget(budget):
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", budget)
        montecarlo._carrier.cache_clear()
        montecarlo._sweep_rows.cache_clear()
    return set_budget
