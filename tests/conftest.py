import pytest

from alap import cli


@pytest.fixture(autouse=True)
def empty_solve_memo(monkeypatch):
    """Start every test with an empty solve memo, so that no test reads a
    pair or report that another test's (possibly patched) solver made."""
    monkeypatch.setattr(cli, "_last_solve", None)
