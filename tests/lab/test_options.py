"""The SweepOptions surface.

Every sweep knob travels in one ``options=SweepOptions(...)`` value;
the historical loose-kwargs spelling ``run_sweep(spec, procs=...)`` is
gone and now fails with a :class:`TypeError` naming ``options``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.lab import SweepOptions, SweepSpec, run_sweep


def grid_spec():
    return SweepSpec.build(
        "options-grid",
        apps=[("fig2.1", {"n": n, "cost": 4}) for n in (10, 14)],
        schemes=["process-oriented", "statement-oriented"],
        processors=(2,))


def test_options_are_frozen_and_defaulted():
    options = SweepOptions()
    assert options.procs == 1
    assert options.single_flight
    assert not options.resume
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.procs = 4


def test_unknown_kwarg_is_a_type_error(tmp_path):
    with pytest.raises(TypeError, match="bogus"):
        run_sweep(grid_spec(), bogus=1)


def test_mixing_options_and_legacy_kwargs_is_a_type_error(tmp_path):
    with pytest.raises(TypeError, match="options"):
        run_sweep(grid_spec(), options=SweepOptions(), procs=2)
