"""Mutation kill: neither the verifier nor the sanitizer is vacuous.

Every app x scheme placement gets each eligible sync op deleted or
weakened, one mutant at a time.  The contract proven here:

* every **delete** mutant (a sync write or counted update some other
  task's wait needs) is flagged by the static verifier AND killed by
  the dynamic vector-clock sanitizer under a witness-guided schedule;
* every **weaken** mutant the verifier flags is dynamically killed too;
* every mutant the verifier passes as clean stays clean dynamically --
  the two oracles never disagree (the handful of statically-clean
  weakens are genuinely redundant waits, which is the eliminator's
  domain, not a missed bug);
* on every mutant trace, the sanitizer's vector clocks return the same
  races in the same order as the brute-force per-event reference clocks
  of ``test_sanitizer`` -- the full-corpus differential on real machine
  traces, beside the property test on random streams there;
* enough mutant runs carry a checkable stream, and enough of those
  race, for that differential to mean something.
"""

from __future__ import annotations

import functools

import pytest

from repro.analyze import (apply_mutant, check_trace, dynamic_check,
                           enumerate_mutants, kill_mutant,
                           verify_instrumented)
from repro.lab.apps import build_app
from repro.analyze.sanitizer import event_stream
from repro.schemes.registry import make_scheme, scheme_names

from .test_sanitizer import reference_races

#: small enough to sweep every mutant in seconds, large enough that
#: every verification window (2 x max distance, >= the fold factor
#: actually reachable at this size) fits the iteration space
SMALL = {
    "fig2.1": {"n": 10},
    "fig2.1-delay": {"n": 10},
    "example2": {"n": 5, "m": 3},
    "example3": {"n": 10},
    "fold-chain": {"n": 10},
    "relaxation-loop": {"n": 4},
    "triple-nested": {"n": 3, "m": 2, "k": 2},
    "hydro": {"n": 8},
    "tridiag": {"n": 8},
    "state": {"n": 8},
    "adi": {"n": 3, "m": 4},
    "first-diff": {"n": 8},
    "prefix": {"n": 12, "stride": 4},
}


@functools.lru_cache(maxsize=None)
def _sweep_pair(app, scheme_name):
    """(mutant, static_report, dynamic_verdict) for every mutant.

    Cached: the kill sweep and the reference differential share one
    simulation per mutant instead of paying for the corpus twice.
    """
    loop = build_app(app, SMALL[app])
    instrumented = make_scheme(scheme_name).instrument(loop)
    out = []
    for mutant in enumerate_mutants(instrumented):
        static = verify_instrumented(apply_mutant(instrumented, mutant),
                                     app=app, scheme_name=scheme_name)
        if static.clean:
            verdict = dynamic_check(apply_mutant(instrumented, mutant))
        else:
            verdict = kill_mutant(instrumented, mutant, static)
        out.append((mutant, static, verdict))
    return out


@pytest.mark.parametrize("app", sorted(SMALL))
def test_every_mutant_agreed_on(app):
    """Static and dynamic verdicts agree on every mutant of ``app``."""
    for scheme_name in scheme_names():
        for mutant, static, verdict in _sweep_pair(app, scheme_name):
            label = f"{app}/{scheme_name}/{mutant.label}"
            if mutant.kind in ("delete-write", "delete-update"):
                # deletions starve a waiter: both oracles must fire
                assert not static.clean, f"{label}: static missed"
                assert verdict.killed, f"{label}: sanitizer missed"
            elif static.clean:
                # statically redundant wait: dynamics must agree
                assert not verdict.killed, (
                    f"{label}: static clean but dynamically "
                    f"{verdict.verdict}")
            else:
                assert verdict.killed, (
                    f"{label}: static flagged but no schedule killed it")


@pytest.mark.parametrize("app", sorted(SMALL))
def test_oracles_agree_on_every_mutant(app):
    """Vector clocks == brute-force clocks on every mutant trace.

    Diagnosed deadlocks carry no stream (the machine stopped before a
    trace existed); every other verdict -- clean, race, corruption --
    carries the run, and both checks must match race for race on it.
    """
    for scheme_name in scheme_names():
        for mutant, _static, verdict in _sweep_pair(app, scheme_name):
            if verdict.result is None:
                continue  # diagnosed deadlock: nothing was traced
            expected = reference_races(event_stream(verdict.result))
            assert check_trace(verdict.result) == expected, (
                f"{app}/{scheme_name}/{mutant.label}: the sanitizer "
                f"and the reference clocks disagree")


def test_oracle_differential_is_not_vacuous():
    """Enough mutant runs carry streams (and races) to mean something."""
    streams = races = 0
    for app in sorted(SMALL):
        for scheme_name in scheme_names():
            for _mutant, _static, verdict in _sweep_pair(app, scheme_name):
                if verdict.result is None:
                    continue
                streams += 1
                races += bool(verdict.races)
    assert streams >= 30, streams
    assert races >= 5, races


def test_mutants_exist_for_every_scheme():
    """The eligibility rules do not silently empty the suite."""
    per_scheme = {name: 0 for name in scheme_names()}
    for app in SMALL:
        loop = build_app(app, SMALL[app])
        for scheme_name in scheme_names():
            instrumented = make_scheme(scheme_name).instrument(loop)
            per_scheme[scheme_name] += len(enumerate_mutants(instrumented))
    assert all(count > 0 for count in per_scheme.values()), per_scheme
    assert sum(per_scheme.values()) >= 100


def test_mutant_kinds_all_represented():
    """Deletes of writes, deletes of updates, and weakens all occur."""
    kinds = set()
    for app in SMALL:
        loop = build_app(app, SMALL[app])
        for scheme_name in scheme_names():
            instrumented = make_scheme(scheme_name).instrument(loop)
            kinds.update(m.kind for m in enumerate_mutants(instrumented))
    assert kinds == {"delete-write", "delete-update", "weaken-wait"}
