"""Cost-model-guided optimizer: beats farthest-first, replay-validated.

The acceptance bar: on at least three standing loops the search finds a
placement with strictly fewer sync ops (or equal ops and lower
predicted cycles) than the greedy farthest-first eliminator, and every
winner survives byte-identical simulator replay.
"""

from __future__ import annotations

import pytest

from repro.analyze import AnalysisError
from repro.analyze.gate import GATE_PARAMS
from repro.analyze.optimize import (OPTIMIZE_SCHEMA_VERSION,
                                    OptimizationReport, optimize,
                                    validate_optimization)
from repro.lab.apps import build_app
from repro.schemes.registry import make_scheme

#: (app, scheme) pairs where the search strictly beats farthest-first
#: in raw sync-op count (pinned: a regression here is a lost win)
STRICT_WINS = [
    ("fig2.1", "statement-oriented"),
    ("example3", "process-oriented"),
    ("fold-chain", "process-oriented"),
]


def _optimize(app, scheme_name):
    loop = build_app(app, GATE_PARAMS[app])
    scheme = make_scheme(scheme_name)
    return loop, scheme, optimize(loop, scheme, app=app)


@pytest.mark.parametrize("app,scheme_name", STRICT_WINS)
def test_search_strictly_beats_farthest_first(app, scheme_name):
    _loop, _scheme, report = _optimize(app, scheme_name)
    assert report.beats_baseline, report.summary()
    assert report.sync_ops_after < report.baseline["sync_ops_after"], (
        f"{app}/{scheme_name}: search {report.sync_ops_after} ops vs "
        f"farthest-first {report.baseline['sync_ops_after']}")
    assert report.improved
    assert report.sync_ops_after < report.sync_ops_before


@pytest.mark.parametrize("app,scheme_name", STRICT_WINS)
def test_every_winner_validates_by_identical_replay(app, scheme_name):
    loop, scheme, report = _optimize(app, scheme_name)
    payload = validate_optimization(loop, scheme, report)
    assert payload["final_state_identical"] is True
    assert payload["sync_ops_after"] < payload["sync_ops_before"]
    assert report.validation is payload  # stored on the report


def test_search_never_loses_to_farthest_first():
    """On every searchable pair the objective is at least as good."""
    for app in ("fig2.1-delay", "hydro", "tridiag"):
        for scheme_name in ("statement-oriented", "process-oriented"):
            _loop, _scheme, report = _optimize(app, scheme_name)
            base_ops = report.baseline["sync_ops_after"]
            assert report.sync_ops_after <= base_ops, (
                f"{app}/{scheme_name}: {report.sync_ops_after} vs "
                f"farthest-first {base_ops}")


def test_audit_trail_records_the_search():
    _loop, _scheme, report = _optimize("fig2.1", "statement-oriented")
    actions = {trial.action for trial in report.audit}
    assert "baseline" in actions and "drop-arc" in actions
    verdicts = {trial.verdict for trial in report.audit}
    assert "accepted" in verdicts
    # the chosen config's kept + dropped partition the arc set
    assert len(report.kept) + len(report.dropped) >= len(report.kept) > 0


def test_report_json_roundtrip(tmp_path):
    _loop, _scheme, report = _optimize("fold-chain", "process-oriented")
    path = tmp_path / "opt.json"
    report.write_json(path)
    loaded = OptimizationReport.read_json(path)
    assert loaded.to_json() == report.to_json()
    assert loaded.chosen_fold == report.chosen_fold
    assert loaded.beats_baseline == report.beats_baseline


def test_report_schema_version_rejected(tmp_path):
    _loop, _scheme, report = _optimize("fold-chain", "process-oriented")
    payload = report.to_json()
    payload["schema_version"] = OPTIMIZE_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        OptimizationReport.from_json(payload)


def test_non_arc_scheme_is_rejected():
    loop = build_app("fig2.1", GATE_PARAMS["fig2.1"])
    with pytest.raises(AnalysisError):
        optimize(loop, make_scheme("reference-based"), app="fig2.1")


def test_fold_search_finds_the_counter_fold_win():
    """fold-chain's d=5 arc only folds away at X=4: the search finds it."""
    _loop, _scheme, report = _optimize("fold-chain", "process-oriented")
    assert report.chosen_scheme == "process-oriented"
    assert report.chosen_fold is not None
    assert report.chosen_fold < 16  # beat the default fold factor


def test_fold_variants_keep_the_input_schemes_settings(monkeypatch):
    """Only X changes: a basic-style input is searched and replayed basic."""
    from repro.schemes.process_oriented import ProcessOrientedScheme

    scheme = make_scheme("process-oriented", style="basic",
                         charge_init=False)
    settings = {key: value for key, value in vars(scheme).items()
                if key != "n_counters"}
    searched = []
    instrument = ProcessOrientedScheme.instrument

    def recording(self, *args, **kwargs):
        searched.append(self)
        return instrument(self, *args, **kwargs)

    monkeypatch.setattr(ProcessOrientedScheme, "instrument", recording)
    loop = build_app("fold-chain", GATE_PARAMS["fold-chain"])
    report = optimize(loop, scheme, app="fold-chain")
    assert report.chosen_fold != scheme.n_counters
    assert len({config.n_counters for config in searched}) > 1
    for config in searched:
        assert {key: value for key, value in vars(config).items()
                if key != "n_counters"} == settings

    searched.clear()
    payload = validate_optimization(loop, scheme, report)
    assert payload["final_state_identical"] is True
    replayed = searched[-1]
    assert replayed.n_counters == report.chosen_fold
    assert replayed.style == "basic" and replayed.charge_init is False
