"""The seeded grid generators: deterministic per seed, distinct across seeds."""

import pytest

from perfbench import grids

GENERATORS = {
    "sweep-cold": grids.sweep_cold_cells,
    "optimize": grids.optimize_cells,
    "sweep-incremental": grids.incremental_grid,
    "race-check": grids.race_items,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_one_seed_always_gives_the_same_inputs(name):
    make = GENERATORS[name]
    assert make(grids.DEFAULT_SEED) == make(grids.DEFAULT_SEED)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_two_seeds_give_different_inputs(name):
    make = GENERATORS[name]
    assert make(grids.DEFAULT_SEED) != make(grids.HELD_OUT_SEED)
    assert make(grids.DEFAULT_SEED) != make(grids.DEFAULT_SEED + 1)


def test_sweep_cold_covers_the_paper_grid():
    cells = grids.sweep_cold_cells(grids.DEFAULT_SEED)
    assert len(cells) == len({cell.key for cell in cells}) == 112
    assert {cell.app for cell in cells} == set(grids.SWEEP_APPS)
    assert {cell.scheme for cell in cells} == set(grids.ALL_SCHEMES)
    assert {cell.processors for cell in cells} == set(grids.SWEEP_PROCS)
    assert not any(cell.eliminate for cell in cells)
    assert all(cell.validate for cell in cells)


def test_optimize_cells_are_eliminate_cells_on_arc_schemes():
    cells = grids.optimize_cells(grids.DEFAULT_SEED)
    assert len(cells) == len({cell.key for cell in cells}) == 84
    assert all(cell.eliminate for cell in cells)
    assert {cell.scheme for cell in cells} == set(grids.ARC_SCHEMES)


def test_incremental_jobs_are_a_quarter_new_and_share_some():
    grid = grids.incremental_grid(grids.DEFAULT_SEED)
    prefill = set(grid.prefill)
    new_a = set(grid.job_a) - prefill
    new_b = set(grid.job_b) - prefill
    assert len(new_a) == len(new_b) == grids.INCR_NEW_PER_JOB
    assert len(new_a & new_b) == grids.INCR_SHARED_NEW
    assert len(new_a) / len(grid.job_a) == pytest.approx(0.25)
    # together the jobs read every prefilled cell
    assert prefill <= set(grid.union())


def test_race_items_span_the_processor_ladder_and_trace_band():
    items = grids.race_items(grids.DEFAULT_SEED)
    assert len(items) == grids.RACE_ITEMS
    assert {item.processors for item in items} == set(grids.RACE_PROCS)
    low, high = grids.RACE_EVENTS
    for item in items:
        rate = grids.RACE_APP_RATES[(item.app, item.scheme)]
        assert low - rate <= item.n * rate <= high + rate
