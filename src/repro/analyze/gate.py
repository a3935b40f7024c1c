"""Pre-flight analysis gate: verify every shipped app x scheme pair.

The gate is what CI runs (``python -m repro analyze --gate``) and what
``repro.lab.runner`` can consult before spending simulation budget on a
sweep: every placement a preset might execute must statically verify
clean.  Each registered application is built at a deliberately small
size -- large enough that the verification window (2 x max dependence
distance, and at least the process-counter fold factor) fits inside the
iteration space, small enough that the whole gate runs in seconds.

Pairs whose loop shape a scheme cannot instrument (raising at
``instrument`` time with a clear error) are reported as skipped, not
failed: refusing an unsupported shape is the compiler doing its job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..depend.graph import DependenceGraph
from ..lab.apps import APP_BUILDERS, build_app
from ..schemes.registry import make_scheme, scheme_names
from .findings import AnalysisReport
from .verifier import AnalysisError, verify

__all__ = ["GATE_PARAMS", "GateResult", "gate"]

#: per-app build parameters for gating: small, but with room for the
#: largest verification window any scheme needs (the process-oriented
#: fold factor defaults to 16 counters -> window 18)
GATE_PARAMS: Dict[str, Dict[str, int]] = {
    "fig2.1": {"n": 24},
    "fig2.1-delay": {"n": 24},
    "example2": {"n": 8, "m": 4},
    "example3": {"n": 24},
    "fold-chain": {"n": 24},
    "relaxation-loop": {"n": 6},
    "triple-nested": {"n": 3, "m": 3, "k": 3},
    "hydro": {"n": 24},
    "tridiag": {"n": 24},
    "state": {"n": 24},
    "adi": {"n": 4, "m": 6},
    "first-diff": {"n": 24},
    "prefix": {"n": 24, "stride": 4},
}


@dataclass
class GateResult:
    """Aggregate verdict over every app x scheme pair."""

    reports: Dict[str, AnalysisReport] = field(default_factory=dict)
    skipped: Dict[str, str] = field(default_factory=dict)
    #: key -> sanitizer verdict string, when the dynamic cross-check ran
    dynamic: Dict[str, str] = field(default_factory=dict)

    @property
    def failing(self) -> List[str]:
        static = [key for key, report in sorted(self.reports.items())
                  if not report.clean and not report.requires_serial]
        static += [key for key, verdict in sorted(self.dynamic.items())
                   if verdict != "clean" and key not in static]
        return static

    @property
    def ok(self) -> bool:
        return not self.failing

    def summary_lines(self) -> List[str]:
        lines = []
        for key, report in sorted(self.reports.items()):
            line = f"{key:40s} {report.summary()}"
            verdict = self.dynamic.get(key)
            if verdict is not None:
                line += f" [dynamic: {verdict}]"
            lines.append(line)
        for key, reason in sorted(self.skipped.items()):
            lines.append(f"{key:40s} SKIP ({reason})")
        return lines


def gate(apps: Optional[List[str]] = None,
         schemes: Optional[List[str]] = None, *,
         dynamic: bool = False) -> GateResult:
    """Statically verify every (app, scheme) placement we ship.

    With ``dynamic``, every statically-clean pair is additionally
    executed on a sanitized maximally-parallel schedule and
    race-checked; the verdicts land in ``GateResult.dynamic`` and a
    non-clean one fails the gate.  The dynamic pass over every shipped
    pair takes well under a second, so the CLI runs it by default; the
    sweep preflight stays static-only.
    """
    result = GateResult()
    for app in apps or sorted(APP_BUILDERS):
        params = GATE_PARAMS.get(app, {})
        loop = build_app(app, params)
        graph = DependenceGraph(loop)
        for scheme_name in schemes or scheme_names():
            key = f"{app}/{scheme_name}"
            try:
                scheme = make_scheme(scheme_name)
                report = verify(loop, scheme, graph=graph, app=app)
            except (AnalysisError, NotImplementedError,
                    ValueError) as err:
                result.skipped[key] = str(err)
                continue
            result.reports[key] = report
            if dynamic and report.clean:
                from .sanitizer import dynamic_check
                verdict = dynamic_check(scheme.instrument(loop, graph))
                result.dynamic[key] = verdict.verdict
    return result
