"""Acceptance gate: every advertised closed-form guarantee, one line each.

Criterion 9's random-frame clause asserts a nullity property that is false
for the literal discord formulas (tilted product states give G, Q > 0 under
generic frames); it runs unweakened and is marked as an expected failure.
The README's known-limitations section carries the counterexample.
"""

import numpy as np
import pytest

from boxlab import acceptance, polytope

CRITERIA = {fn.__name__: fn for fn in acceptance.ALL_CRITERIA}


def _check(result):
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.number}: "
          f"{result.description} -- {result.detail}")
    assert result.passed, f"criterion {result.number}: {result.detail}"


@pytest.mark.parametrize("name", [n for n in CRITERIA if n != "criterion_9"])
def test_criterion(name):
    _check(CRITERIA[name]())


@pytest.mark.xfail(
    strict=True,
    reason="unattainable nullity clause: CQ/QC states give nonzero G/Q under "
           "generic measurement frames (only basis-aligned orthogonal frames "
           "null them); the compatible-measurement clause does hold and is "
           "asserted inside the criterion",
)
def test_criterion_9():
    _check(CRITERIA["criterion_9"]())


@pytest.mark.parametrize("answer", [0.0, np.nan])
def test_criterion_10_fails_an_lp_that_gives_one_answer_for_every_box(answer, monkeypatch):
    # its two-sided stratum has boxes inside and outside the local polytope,
    # so an LP that calls every box local, or every box nonlocal, fails it
    def constant(targets, vertices, tol=polytope.EPS_LP):
        return np.full((len(targets), len(vertices)), answer)

    monkeypatch.setattr(polytope, "lp_vertex_weights", constant)
    result = acceptance.criterion_10()
    assert not result.passed
    inside, outside = (int(w) for w in result.detail.split("two-sided ")[1].split()[::3])
    assert inside > 0 and outside > 0


@pytest.mark.parametrize("answer", [True, False])
def test_criterion_10_fails_a_verdict_path_that_gives_one_answer_for_every_box(
        answer, monkeypatch):
    # the verdicts of every box come from the warm-started stacked LP, so a
    # verdict path that calls every box local, or every box nonlocal, fails
    # the criterion although lp_vertex_weights still answers right
    monkeypatch.setattr(polytope, "_inside_flags",
                        lambda targets, vertices: np.full(len(targets), answer))
    result = acceptance.criterion_10()
    assert not result.passed
    assert "10000 non-boundary boxes, two-sided 502 inside / 498 outside" in result.detail
