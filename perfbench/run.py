"""The repository benchmark: one command, four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate run whose rounds alternate untraced and
traced, and reports the per-layer metrics plus the tracing overhead.
Either way the outputs are checked against a serial in-process
reference, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 336, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for every metric, unit and workload.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main
    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
