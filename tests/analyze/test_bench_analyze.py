"""Unit tests for the analyze-bench trajectory + regression gate.

These exercise the pure bookkeeping of ``repro.bench_analyze`` --
trajectory IO and the two-sided (raw + calibration-normalized)
regression rule -- on hand-built entries, so no timing runs here.
"""

from __future__ import annotations

import json

import pytest

from repro.bench_analyze import (
    ANALYZE_BENCH_SCHEMA_VERSION,
    append_entry,
    check_regression,
    load_trajectory,
)


def _entry(score: float, calibration: float,
           case_calibration: float | None = None) -> dict:
    case = {
        "kind": "sanitizer",
        "events": 1000,
        "races": 0,
        "wall_s": 0.1,
        "score_per_s": score,
    }
    if case_calibration is not None:
        case["calibration"] = case_calibration
    return {
        "schema_version": ANALYZE_BENCH_SCHEMA_VERSION,
        "note": "",
        "timestamp": "2026-01-01T00:00:00Z",
        "python": "3.11.7",
        "platform": "test",
        "calibration": calibration,
        "cases": {"sanitize/fig2.1/n=100/vc": case},
    }


def test_real_drop_is_flagged() -> None:
    baseline = {"entries": [_entry(1000.0, 100.0)]}
    problems = check_regression(_entry(500.0, 100.0), baseline)
    assert len(problems) == 1
    assert "0.50x raw" in problems[0]


def test_one_sided_calibration_noise_passes() -> None:
    # raw throughput held steady; only the calibration snapshot moved
    # (a host-load burst at the calibration moment) -> not a regression
    baseline = {"entries": [_entry(1000.0, 100.0)]}
    problems = check_regression(_entry(1000.0, 140.0), baseline)
    assert problems == []


def test_slow_host_is_excused_by_normalization() -> None:
    # the whole host is half speed: raw drops 2x but normalized holds
    baseline = {"entries": [_entry(1000.0, 100.0)]}
    problems = check_regression(_entry(500.0, 50.0), baseline)
    assert problems == []


def test_per_case_calibration_overrides_entry_score() -> None:
    # entry-wide calibration says "same host speed" but the per-case
    # score (taken next to the measurement) says "half speed" -- the
    # per-case one wins, so the raw 2x drop normalizes away
    baseline = {"entries": [_entry(1000.0, 100.0, case_calibration=100.0)]}
    current = _entry(500.0, 100.0, case_calibration=50.0)
    assert check_regression(current, baseline) == []


def test_unmatched_labels_are_skipped() -> None:
    baseline = {"entries": [_entry(1000.0, 100.0)]}
    current = _entry(1.0, 100.0)
    current["cases"] = {"optimize/other/case": {"score_per_s": 1.0,
                                               "wall_s": 1.0}}
    assert check_regression(current, baseline) == []


def test_most_recent_matching_baseline_wins() -> None:
    baseline = {"entries": [_entry(4000.0, 100.0), _entry(1000.0, 100.0)]}
    # 900/s is fine vs the newer 1000/s baseline even though it would
    # fail against the older 4000/s entry
    assert check_regression(_entry(900.0, 100.0), baseline) == []


def test_trajectory_roundtrip(tmp_path) -> None:
    path = tmp_path / "BENCH_analyze.json"
    assert load_trajectory(path)["entries"] == []
    append_entry(path, _entry(1000.0, 100.0))
    append_entry(path, _entry(1100.0, 100.0))
    data = load_trajectory(path)
    assert [e["cases"]["sanitize/fig2.1/n=100/vc"]["score_per_s"]
            for e in data["entries"]] == [1000.0, 1100.0]


def test_wrong_schema_version_rejected(tmp_path) -> None:
    path = tmp_path / "BENCH_analyze.json"
    path.write_text(json.dumps({"schema_version": 999, "entries": []}))
    with pytest.raises(ValueError, match="schema"):
        load_trajectory(path)
