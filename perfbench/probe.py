"""One cold start of the program, for ``setup_s``.

Run as ``python3 perfbench/probe.py sweep|race CACHE_DIR``.  It imports
the program, and for the sweep workloads also computes the cache's source
fingerprint and starts a :class:`repro.lab.SweepService` with its worker
pool; it then prints ``ready`` and holds the service until its standard
input closes.  The parent times spawn-to-``ready``.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(kind: str, cache_dir: str) -> int:
    """Set the program up, say ``ready``, hold it until stdin closes."""
    sys.path.insert(0, str(ROOT / "src"))
    if kind == "race":
        import repro.analyze  # noqa: F401 - the import is the set-up
        import repro.sim  # noqa: F401
        print("ready", flush=True)
        sys.stdin.read()
        return 0
    from repro.lab import SweepOptions, SweepService
    # the count perfbench.workloads.WORKERS uses; importing it from there
    # would add the benchmark's own imports to the timed set-up
    workers = max(1, min(2, os.cpu_count() or 1))
    service = SweepService(SweepOptions(procs=workers,
                                        cache_dir=pathlib.Path(cache_dir)))
    service.start()
    try:
        deadline = time.monotonic() + 60
        while len(multiprocessing.active_children()) < workers:
            if time.monotonic() > deadline:
                return 1
            time.sleep(0.002)
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
