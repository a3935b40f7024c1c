"""Seeded input generators for the four benchmark workloads.

Every grid is a pure function of ``seed``: the same seed always gives the
same cells in the same order, and the program under test receives only
the generated cells.  The grids are *stratified* -- each seed draws one
``n`` per size stratum and deals processor counts out evenly -- so
every seed does about the same amount of work and the run-to-run
spread of the end-to-end metrics comes from the host, not from one seed
happening to draw only large loops.

``DEFAULT_SEED`` is the seed the benchmark uses when none is given;
``HELD_OUT_SEED`` is reserved for confirming a claimed gain on inputs
that were not looked at while the change was being written.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence, Tuple

from repro.lab import SweepCell

DEFAULT_SEED = 1
HELD_OUT_SEED = 9973

#: the paper-figure apps every sweep workload draws from
SWEEP_APPS = ("fig2.1", "fig2.1-delay", "example3", "fold-chain",
              "relaxation-loop", "tridiag", "prefix")
ALL_SCHEMES = ("reference-based", "instance-based", "statement-oriented",
               "process-oriented")
ARC_SCHEMES = ("statement-oriented", "process-oriented")
SWEEP_PROCS = (4, 8, 16)

#: sweep-cold: n from 50 to 400, one draw per stratum
SWEEP_STRATA = ((50, 137), (138, 225), (226, 312), (313, 400))
#: optimize: n near each of 24, 48 and 96
OPT_LEVELS = (24, 48, 96)
OPT_JITTER = 2
#: sweep-incremental: new cells per job (25% of a 112-cell job), and
#: how many of them the two jobs share
INCR_NEW_PER_JOB = 28
INCR_SHARED_NEW = 14
#: race-check: items, the processor ladder, and the trace-size band
RACE_ITEMS = 100
RACE_PROCS = (4, 8, 16, 32, 64)
RACE_EVENTS = (10_000, 20_000)
#: engine events per loop iteration (measured; stable to a few percent)
#: used to size each race-check item inside ``RACE_EVENTS``
RACE_APP_RATES = {
    ("fig2.1", "statement-oriented"): 48.0,
    ("fig2.1", "process-oriented"): 46.0,
    ("example3", "statement-oriented"): 36.0,
    ("example3", "process-oriented"): 39.5,
    ("fold-chain", "statement-oriented"): 26.0,
    ("fold-chain", "process-oriented"): 27.0,
}
RACE_APPS = ("fig2.1", "example3", "fold-chain")


def app_params(app: str, n: int) -> Dict[str, Any]:
    """Loop parameters for ``app`` at nominal size ``n``.

    ``relaxation-loop`` is a 2-D nest of ``(n-1)**2`` iterations, so its
    side is the square root of the nominal size; ``fig2.1-delay`` puts
    one slow iteration a third of the way in, as Fig 3.2 does.
    """
    if app == "relaxation-loop":
        return {"n": round(math.sqrt(n)) + 1}
    if app == "fig2.1-delay":
        return {"n": n, "slow_iteration": n // 3, "slow_cost": 1600}
    return {"n": n}


def _cell(app: str, n: int, scheme: str, procs: int,
          eliminate: bool = False) -> SweepCell:
    params = tuple(sorted(app_params(app, n).items()))
    return SweepCell(app=app, app_params=params, scheme=scheme,
                     processors=procs, eliminate=eliminate)


def _cold_grid(seed: int) -> Dict[Tuple[str, str, int], SweepCell]:
    """The sweep-cold cells by (app, scheme, stratum), in grid order."""
    rng = random.Random(f"sweep-cold:{seed}")
    offsets = [rng.randrange(len(SWEEP_PROCS)) for _ in SWEEP_STRATA]
    points = {}
    for index, (app, scheme) in enumerate(_pairs(ALL_SCHEMES)):
        for stratum, (low, high) in enumerate(SWEEP_STRATA):
            procs = SWEEP_PROCS[(index + offsets[stratum])
                                % len(SWEEP_PROCS)]
            points[(app, scheme, stratum)] = _cell(
                app, rng.randint(low, high), scheme, procs)
    return points


def _pairs(schemes: Sequence[str]) -> List[Tuple[str, str]]:
    return [(app, scheme) for app in SWEEP_APPS for scheme in schemes]


def sweep_cold_cells(seed: int) -> List[SweepCell]:
    """112 clean, validated cells: 7 apps x 4 schemes x 4 size strata.

    Within each stratum the (app, scheme) pairs take the processor
    counts in turn from a seeded offset, so every seed puts about the
    same number of cells on each P in each stratum.
    """
    cells = list(_cold_grid(seed).values())
    random.Random(f"sweep-cold-order:{seed}").shuffle(cells)
    return cells


def optimize_cells(seed: int) -> List[SweepCell]:
    """84 ``eliminate=True`` cells: 7 apps x 2 schemes x 3 sizes x 2 P.

    Each (app, scheme, size) point drops one of the three processor
    counts, in turn from a seeded offset per size.
    """
    rng = random.Random(f"optimize:{seed}")
    offsets = [rng.randrange(len(SWEEP_PROCS)) for _ in OPT_LEVELS]
    cells = []
    for index, (app, scheme) in enumerate(_pairs(ARC_SCHEMES)):
        for level_index, level in enumerate(OPT_LEVELS):
            n = level + rng.randint(-OPT_JITTER, OPT_JITTER)
            skip = (index + offsets[level_index]) % len(SWEEP_PROCS)
            for procs_index, procs in enumerate(SWEEP_PROCS):
                if procs_index != skip:
                    cells.append(_cell(app, n, scheme, procs,
                                       eliminate=True))
    rng.shuffle(cells)
    return cells


@dataclass(frozen=True)
class IncrementalGrid:
    """The prefilled cells and the two overlapping jobs."""

    prefill: Tuple[SweepCell, ...]
    job_a: Tuple[SweepCell, ...]
    job_b: Tuple[SweepCell, ...]

    def union(self) -> List[SweepCell]:
        """Every distinct cell of the two jobs, in first-seen order."""
        return list(dict.fromkeys(self.job_a + self.job_b))


def _new_cells(rng: random.Random,
               points: Dict[Tuple[str, str, int], SweepCell],
               count: int) -> List[SweepCell]:
    """``count`` cells absent from the grid, in a seed-independent mix.

    Cell ``k`` varies the grid cell of stratum ``k % 4`` and of the apps
    in turn (the scheme is seeded): every other group of four takes a new
    ``n`` from the same stratum, the rest a new processor count.  So
    every seed adds the same mix of sizes, apps and variants.
    """
    taken = {cell.key for cell in points.values()}
    out: List[SweepCell] = []
    k = -1
    while len(out) < count:
        k += 1
        group, stratum = divmod(k, len(SWEEP_STRATA))
        app = SWEEP_APPS[group % len(SWEEP_APPS)]
        source = points[(app, rng.choice(ALL_SCHEMES), stratum)]
        if group % 2:
            cell = _cell(app, rng.randint(*SWEEP_STRATA[stratum]),
                         source.scheme, source.processors)
        else:
            shift = 1 + (k // 2) % 2
            procs = SWEEP_PROCS[(SWEEP_PROCS.index(source.processors)
                                 + shift) % len(SWEEP_PROCS)]
            cell = replace(source, processors=procs)
        if cell.key not in taken:
            taken.add(cell.key)
            out.append(cell)
    return out


def incremental_grid(seed: int) -> IncrementalGrid:
    """The sweep-cold grid as prefill, plus two jobs ~25% new each.

    Job A takes the first three quarters of a seeded permutation of the
    prefill, job B the last three quarters, so together they read every
    prefilled cell and share half of them.  Each job adds
    ``INCR_NEW_PER_JOB`` new cells, ``INCR_SHARED_NEW`` of which are in
    both jobs, so single-flight claims decide who simulates those.
    """
    base = sweep_cold_cells(seed)
    rng = random.Random(f"sweep-incremental:{seed}")
    order = list(base)
    rng.shuffle(order)
    quarter = len(order) // 4
    old_a, old_b = order[:3 * quarter], order[quarter:]
    fresh = _new_cells(rng, _cold_grid(seed),
                       2 * INCR_NEW_PER_JOB - INCR_SHARED_NEW)
    new_a = fresh[:INCR_NEW_PER_JOB]
    new_b = fresh[:INCR_SHARED_NEW] + fresh[INCR_NEW_PER_JOB:]
    job_a = old_a + new_a
    job_b = old_b + new_b
    rng.shuffle(job_a)
    rng.shuffle(job_b)
    return IncrementalGrid(prefill=tuple(base), job_a=tuple(job_a),
                           job_b=tuple(job_b))


@dataclass(frozen=True)
class RaceItem:
    """One race-check item: run a placement in counters mode, check it."""

    app: str
    n: int
    scheme: str
    processors: int

    @property
    def key(self) -> str:
        """Human-readable identity, used as the item's span cell id."""
        return f"{self.app}(n={self.n})/{self.scheme}/p{self.processors}"


def race_items(seed: int) -> List[RaceItem]:
    """``RACE_ITEMS`` items: every (scheme, P) pair ten times.

    Each item's ``n`` is chosen so the engine processes a given number
    of events.  ``RACE_EVENTS`` is cut into as many equal slices as each
    pair has items, and every pair takes one seeded draw from each
    slice, with apps in rotation, so every pair -- and every seed --
    gets the same mix of sizes and apps.
    """
    rng = random.Random(f"race-check:{seed}")
    pairs = [(scheme, procs) for scheme in ARC_SCHEMES
             for procs in RACE_PROCS]
    slices = RACE_ITEMS // len(pairs)
    low, high = RACE_EVENTS
    width = (high - low) / slices
    items = []
    for scheme, procs in pairs:
        for index in range(slices):
            app = RACE_APPS[index % len(RACE_APPS)]
            events = low + width * (index + rng.random())
            n = round(events / RACE_APP_RATES[(app, scheme)])
            items.append(RaceItem(app=app, n=n, scheme=scheme,
                                  processors=procs))
    rng.shuffle(items)
    return items
