import os

import pytest

from looptoda import solver


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        child = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid: {child})")


@pytest.fixture
def split_csv(monkeypatch):
    """``write_history_csv`` splits every file over up to three processes,
    one lattice row at least to each."""
    monkeypatch.setattr(solver, "CSV_LINES_PER_WORKER", 1)
    monkeypatch.setattr(solver, "_usable_cpus", lambda: 3)
