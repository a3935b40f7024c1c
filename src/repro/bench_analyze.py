"""Analysis benchmark harness: ``python -m repro bench-analyze``.

The race sanitizer is the analysis stack's inner loop: every mutation
kill, every dynamic gate, every optimizer admission pays one
``check_trace`` over a full event stream.  This module measures that
cost on counters-mode traces recorded through the engine's sync tap,
at a ladder of trace sizes so the trajectory pins the *scaling*, not
just one point.  It also times the placement optimizer end to end on a
few standing loops.

Results append to a JSON trajectory (``BENCH_analyze.json`` by
convention), one schema-versioned entry per invocation, exactly like
``bench-engine``: every entry carries a host ``calibration`` score
(plus a per-case score taken next to each measurement) and the
regression check flags a case only when both raw and
calibration-normalized throughput drop, so neither a slow CI machine
nor a burst of host load masquerades as a code regression.  Every case
is keyed by a stable label (``sanitize/<app>/n=<n>/vc`` or
``optimize/<app>/<scheme>``) and compared against the most recent
baseline entry measuring the same label, so a small CI run checks
cleanly against a committed full-scale entry.  (The ``vc`` suffix names
the vector-clock sanitizer; the committed trajectory also holds
``om`` entries from an order-maintenance checker that was measured
slower and removed.)
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from .analyze.gate import GATE_PARAMS
from .analyze.optimize import optimize
from .analyze.sanitizer import check_trace, event_stream
from .bench import calibration_score
from .depend.graph import DependenceGraph
from .lab.apps import build_app
from .schemes import make_scheme
from .sim.machine import Machine, MachineConfig

#: bump when the shape of a trajectory entry changes
ANALYZE_BENCH_SCHEMA_VERSION = 1

#: the app whose counters-mode trace feeds the sanitizer ladder
#: (fig2.1 x statement-oriented: ~19 tap events per iteration)
SANITIZER_APP = "fig2.1"
SANITIZER_SCHEME = "statement-oriented"

#: trace-size ladder per --scale; "full" tops out past 10^6 events,
#: which is the acceptance point the committed trajectory pins
SANITIZER_SIZES: Dict[str, Sequence[int]] = {
    "small": (4_000, 16_000),
    "full": (4_000, 16_000, 60_000),
}

#: (app, scheme) pairs the optimizer is timed on, at GATE_PARAMS sizes
OPTIMIZER_CASES = (
    ("fig2.1", "statement-oriented"),
    ("fold-chain", "process-oriented"),
    ("example3", "process-oriented"),
)


def _record_stream(n: int) -> List[Any]:
    """One counters-mode run of the ladder app; return its tap stream."""
    loop = build_app(SANITIZER_APP, {"n": n})
    scheme = make_scheme(SANITIZER_SCHEME)
    machine = Machine(MachineConfig(processors=8, metrics="counters",
                                    sync_tap=True))
    result = machine.run(scheme.instrument(loop))
    return event_stream(result)


class _Stream:
    """RunResult stand-in: a pre-built stream re-checked per repeat."""

    def __init__(self, events: List[Any]) -> None:
        self.tap = [(kind, where, task) for _seq, kind, where, task
                    in events]
        self.trace: List[Any] = []
        self.sync_trace: List[Any] = []


def bench_cases(scale: str = "small",
                repeats: int = 1) -> Dict[str, Dict[str, Any]]:
    """Measure every case; return ``{label: result}`` dicts.

    Sanitizer cases report ``events`` and ``score_per_s`` (events
    checked per second, best of ``repeats``); optimizer cases report
    ``candidates`` (audit-trail length) and ``score_per_s`` (candidates
    scored per second).  Race counts and candidate counts are
    deterministic; only the wall clock varies.  Every case also
    records its own ``calibration`` score taken immediately after its
    timing samples, so normalization tracks bursty host load at the
    moment the case actually ran rather than one entry-wide snapshot.
    """
    cases: Dict[str, Dict[str, Any]] = {}
    for n in SANITIZER_SIZES[scale]:
        stream = _Stream(_record_stream(n))
        events = len(stream.tap)
        best = float("inf")
        races = 0
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            races = len(check_trace(stream))
            best = min(best, time.perf_counter() - start)
        cases[f"sanitize/{SANITIZER_APP}/n={n}/vc"] = {
            "kind": "sanitizer",
            "events": events,
            "races": races,
            "wall_s": round(best, 6),
            "score_per_s": round(events / best, 1),
            "calibration": round(calibration_score(), 1),
        }
    for app, scheme_name in OPTIMIZER_CASES:
        loop = build_app(app, GATE_PARAMS.get(app, {}))
        graph = DependenceGraph(loop)
        best = float("inf")
        candidates = 0
        # optimizer runs are tens of milliseconds: batch several calls
        # per timed sample so timer granularity and allocator state do
        # not swamp the measurement, then report the per-call average
        inner = 5
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            for _ in range(inner):
                report = optimize(loop, make_scheme(scheme_name),
                                  graph=graph, app=app)
            best = min(best, (time.perf_counter() - start) / inner)
            candidates = len(report.audit)
        cases[f"optimize/{app}/{scheme_name}"] = {
            "kind": "optimizer",
            "candidates": candidates,
            "wall_s": round(best, 6),
            "score_per_s": round(candidates / best, 1),
            "calibration": round(calibration_score(), 1),
        }
    return cases


def make_entry(scale: str = "small", note: str = "",
               repeats: int = 1) -> Dict[str, Any]:
    """One schema-versioned trajectory entry."""
    return {
        "schema_version": ANALYZE_BENCH_SCHEMA_VERSION,
        "note": note,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration": round(calibration_score(), 1),
        "cases": bench_cases(scale, repeats=repeats),
    }


def load_trajectory(path: pathlib.Path) -> Dict[str, Any]:
    """Read a trajectory file; an absent file is an empty trajectory."""
    if not path.exists():
        return {"schema_version": ANALYZE_BENCH_SCHEMA_VERSION,
                "entries": []}
    data = json.loads(path.read_text())
    if data.get("schema_version") != ANALYZE_BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported analyze-bench schema "
            f"{data.get('schema_version')!r}")
    return data


def append_entry(path: pathlib.Path, entry: Dict[str, Any]) -> None:
    """Append ``entry`` to the trajectory at ``path`` (atomic rewrite)."""
    data = load_trajectory(path)
    data["entries"].append(entry)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


def check_regression(entry: Dict[str, Any], baseline: Dict[str, Any],
                     min_ratio: float = 0.8) -> List[str]:
    """Compare ``entry`` against the last matching baseline entries.

    For every case label the entry measured, find the most recent
    baseline entry that measured the same label and compare both raw
    and *calibration-normalized* throughput (per-case calibration when
    recorded, the entry-wide score otherwise).  A case regresses only
    when **both** ratios fall below ``min_ratio``: a genuine code
    regression shows up in raw and normalized throughput alike, while
    a burst of host load at either the calibration moment or the case
    moment moves only one of the two.  Returns regression messages
    (empty: nothing fell below ``min_ratio`` of baseline).
    """
    problems: List[str] = []
    cal = float(entry["calibration"])
    for label, current in entry["cases"].items():
        ref = None
        for old in reversed(baseline.get("entries", [])):
            if label in old.get("cases", {}):
                ref = (old["cases"][label], float(old["calibration"]))
                break
        if ref is None:
            continue
        ref_case, ref_cal = ref
        cur_cal = float(current.get("calibration", cal))
        ref_case_cal = float(ref_case.get("calibration", ref_cal))
        raw_ratio = current["score_per_s"] / ref_case["score_per_s"]
        norm_ratio = ((current["score_per_s"] / cur_cal)
                      / (ref_case["score_per_s"] / ref_case_cal))
        if max(raw_ratio, norm_ratio) < min_ratio:
            problems.append(
                f"{label}: throughput fell to {raw_ratio:.2f}x raw / "
                f"{norm_ratio:.2f}x normalized of baseline "
                f"({current['score_per_s']:.0f}/s now vs "
                f"{ref_case['score_per_s']:.0f}/s then; calibration "
                f"{cur_cal:.0f} vs {ref_case_cal:.0f})")
    return problems


def format_entry(entry: Dict[str, Any]) -> str:
    """Human-readable table for one trajectory entry."""
    lines = [f"analyze bench ({entry['timestamp']}, "
             f"python {entry['python']}, "
             f"calibration {entry['calibration']:.0f})"]
    if entry.get("note"):
        lines[0] += f" -- {entry['note']}"
    lines.append(f"{'case':<42} {'size':>9} {'wall s':>9} "
                 f"{'score/s':>11}")
    for label in sorted(entry["cases"]):
        case = entry["cases"][label]
        size = case.get("events", case.get("candidates", 0))
        lines.append(f"{label:<42} {size:>9} {case['wall_s']:>9.3f} "
                     f"{case['score_per_s']:>11.0f}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro bench-analyze``."""
    from .cli import make_parser, add_common_options

    parser = make_parser(
        "repro bench-analyze",
        "Measure sanitizer throughput (events/sec) and "
        "optimizer wall-clock, appending to a benchmark trajectory.")
    add_common_options(parser)
    parser.add_argument(
        "--scale", choices=sorted(SANITIZER_SIZES), default="small",
        help="trace-size ladder: 'small' for CI, 'full' adds the "
             ">=10^6-event top rung (default small)")
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="time each case N times and keep the best wall clock")
    parser.add_argument(
        "--note", default="", metavar="TEXT",
        help="free-form label stored in the trajectory entry")
    parser.add_argument(
        "--check", type=pathlib.Path, default=None, metavar="PATH",
        help="compare against the trajectory at PATH and exit non-zero "
             "on a calibration-normalized regression")
    parser.add_argument(
        "--min-ratio", type=float, default=0.8, metavar="R",
        help="regression threshold for --check: fail when normalized "
             "throughput drops below R x baseline (default 0.8)")
    args = parser.parse_args(argv)

    entry = make_entry(args.scale, note=args.note, repeats=args.repeat)
    print(format_entry(entry))

    status = 0
    if args.check is not None:
        baseline = load_trajectory(args.check)
        problems = check_regression(entry, baseline,
                                    min_ratio=args.min_ratio)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            status = 1
        else:
            print("regression check: ok "
                  f"(threshold {args.min_ratio:.2f}x, "
                  f"baseline {args.check})")
    if args.json is not None:
        append_entry(args.json, entry)
        print(f"appended entry to {args.json}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
