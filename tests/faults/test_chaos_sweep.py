"""The chaos sweep gives the same outcomes serially and on the pool."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.faults.chaos import run_chaos_sweep

GRID = dict(schemes=["statement-oriented", "process-oriented"],
            plans=["jitter", "crashy"], seeds=[0, 1], n=12, processors=4)


def test_pool_sweep_matches_serial_outcomes():
    serial = run_chaos_sweep(procs=1, **GRID)
    pooled = run_chaos_sweep(procs=2, **GRID)
    assert len(serial) == 8
    assert ([o.to_json() for o in pooled]
            == [o.to_json() for o in serial])
    assert not multiprocessing.active_children()


def test_pool_sweep_names_the_cells_that_raised():
    with pytest.raises(RuntimeError, match="no-such-scheme/jitter/seed=0"):
        run_chaos_sweep(schemes=["no-such-scheme"], plans=["jitter"],
                        seeds=[0, 1], procs=2, n=12, processors=4)
    assert not multiprocessing.active_children()
