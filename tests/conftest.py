import os

import pytest

from heavytail import simulate


@pytest.fixture
def force_csv_processes(monkeypatch):
    """``force(procs, chunk_rows)`` makes ``write_csv_rows`` fork up to ``procs``
    formatting processes for any slice of at least one row, formatting
    ``chunk_rows`` rows at a time; it returns the list that each fork made by
    this process appends to."""

    def force(procs, chunk_rows=simulate._CSV_CHUNK_ROWS):
        monkeypatch.setattr(simulate, "_csv_processes", lambda: procs)
        monkeypatch.setattr(simulate, "_CSV_MIN_SLICE_ROWS", 1)
        monkeypatch.setattr(simulate, "_CSV_CHUNK_ROWS", chunk_rows)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    return force
