"""``python -m repro analyze``: the CLI face of the static analyzer."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.__main__ import build_analyze_parser, main
from repro.analyze import (ANALYZE_SCHEMA_VERSION, AnalysisReport,
                           OptimizationReport)


def test_gate_mode_passes_on_the_shipped_placements(capsys):
    assert main(["analyze", "--gate"]) == 0
    out = capsys.readouterr().out
    assert "0 failing" in out
    assert "fig2.1/statement-oriented" in out


def test_gate_mode_writes_versioned_reports(tmp_path, capsys):
    path = tmp_path / "gate.json"
    assert main(["analyze", "--gate", "--app", "fig2.1",
                 "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == ANALYZE_SCHEMA_VERSION
    assert len(payload["reports"]) == 4
    report = AnalysisReport.from_json(
        payload["reports"]["fig2.1/statement-oriented"])
    assert report.clean


def test_gate_mode_cross_checks_dynamically_unless_static_only(
        tmp_path, capsys):
    path = tmp_path / "gate.json"
    assert main(["analyze", "--gate", "--app", "fig2.1",
                 "--json", str(path)]) == 0
    assert "4 dynamically cross-checked" in capsys.readouterr().out
    dynamic = json.loads(path.read_text())["dynamic"]
    assert sorted(dynamic.values()) == ["clean"] * 4
    assert main(["analyze", "--gate", "--app", "fig2.1",
                 "--static-only", "--json", str(path)]) == 0
    assert "cross-checked" not in capsys.readouterr().out
    assert json.loads(path.read_text())["dynamic"] == {}


def test_optimize_with_json_still_cross_checks_dynamically(
        tmp_path, capsys):
    path = tmp_path / "opt.json"
    assert main(["analyze", "--app", "fold-chain",
                 "--scheme", "process-oriented", "--optimize",
                 "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dynamic cross-check" in out and "agrees" in out
    assert "wrote optimization report" in out
    report = OptimizationReport.from_json(json.loads(path.read_text()))
    assert report.sync_ops_after < report.sync_ops_before


def test_pair_mode_with_elimination_and_findings_json(tmp_path, capsys):
    path = tmp_path / "findings.json"
    assert main(["analyze", "--app", "fig2.1",
                 "--scheme", "statement-oriented", "--eliminate",
                 "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "elimination" in out
    assert "identical final state" in out
    assert "dynamic cross-check" in out and "agrees" in out
    report = AnalysisReport.read_json(path)
    assert report.clean
    assert report.redundant, "dropped arcs belong in the findings JSON"


def test_pair_mode_requires_app_and_scheme(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--app", "fig2.1"])
    assert "--gate" in capsys.readouterr().err


def test_param_overrides_the_gate_size(capsys):
    assert main(["analyze", "--app", "fig2.1",
                 "--scheme", "reference-based", "--param", "n=8",
                 "--static-only"]) == 0
    assert "window=" in capsys.readouterr().out


def test_analyze_parser_has_the_common_trio():
    args = build_analyze_parser().parse_args([])
    assert args.json is None and args.seed == 0 and args.procs == 1
    args = build_analyze_parser().parse_args(
        ["--json", "out.json", "--seed", "7", "--procs", "3"])
    assert args.json == pathlib.Path("out.json")
    assert args.seed == 7 and args.procs == 3


def test_sweep_preflight_and_elimination_column(tmp_path, capsys):
    spec = tmp_path / "mini.json"
    spec.write_text(json.dumps({
        "name": "mini",
        "apps": [["fig2.1", {"n": 12}]],
        "schemes": ["statement-oriented"],
        "eliminate": True,
    }))
    store = tmp_path / "sweeps.json"
    assert main(["sweep", "--spec", str(spec), "--no-cache",
                 "--preflight", "--json", str(store)]) == 0
    records = json.loads(store.read_text())["records"]
    (record,) = records.values()
    assert record["key"].endswith("/elim")
    elimination = record["metrics"]["elimination"]
    assert elimination["supported"] is True
    assert elimination["sync_ops_after"] < elimination["sync_ops_before"]
    assert elimination["dropped"]
