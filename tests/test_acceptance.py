"""Acceptance gate: every advertised closed-form guarantee, one line each.

Criterion 9's random-frame clause asserts a nullity property that is false
for the literal discord formulas (tilted product states give G, Q > 0 under
generic frames); it runs unweakened and is marked as an expected failure.
The README's known-limitations section carries the counterexample.
"""

import numpy as np
import pytest

from boxlab import acceptance, discord2, polytope, qstate

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
           "generic measurement frames (four frame sets are measured to null "
           "them: a0 perp r, |a0.r| = |a1.r|, b0 perp w and |b0.w| = |b1.w|, "
           "w = p0 s0 - p1 s1; whether they are the whole zero set is open); "
           "the compatible-measurement clause does hold and is asserted "
           "inside the criterion",
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


@pytest.mark.parametrize("number", [1, 2, 3, 5])
def test_a_bell_discord_wrong_at_the_last_point_of_a_stack_fails_its_criterion(
        number, monkeypatch):
    # the criteria read G as a (k,) array; an error at the last point must
    # count, not only the first
    bell_discord = discord2.bell_discord

    def last_off(box):
        g = np.array(bell_discord(box))
        g[-1] += 1e-6
        return g

    monkeypatch.setattr(discord2, "bell_discord", last_off)
    result = CRITERIA[f"criterion_{number}"]()
    assert not result.passed
    assert result.detail.startswith("max error 1.000e-06")


def test_criterion_16_states_equal_a_per_point_reference_loop():
    # one (100, 8) exponential draw is the stream of a loop of 100 draws of 8
    rng, ref = np.random.default_rng(acceptance.SEED + 4), np.random.default_rng(acceptance.SEED + 4)
    got = acceptance._phased_bell_mixtures(rng).mat
    want = np.stack([qstate.bell_diagonal_state(w / w.sum()).mat
                     for w in (ref.exponential(size=8) for _ in range(100))])
    assert got.shape == (100, 4, 4)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert rng.bit_generator.state == ref.bit_generator.state


def test_criterion_8_tables_equal_a_per_point_reference_loop():
    # the same stream as a loop of random_two_qubit_state, random_settings2
    # and born_box2, drawn after the 10,000 NS tables
    rng, ref = np.random.default_rng(acceptance.SEED), np.random.default_rng(acceptance.SEED)
    for r in (rng, ref):
        polytope.random_ns_tables(r, 10_000)
    got = acceptance._monogamy_boxes(rng).flat
    want = np.stack([qstate.born_box2(qstate.random_two_qubit_state(ref),
                                      qstate.random_settings2(ref)).table.reshape(-1)
                     for _ in range(1_000)])
    assert got.shape == (1_000, 16)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert rng.bit_generator.state == ref.bit_generator.state


def test_criterion_9_states_equal_a_per_point_reference_loop():
    # the same stream as a loop of random_cq_state, random_qc_state and
    # random_two_qubit_state, drawn after the 2 x 1,000 random frames
    rng, ref = np.random.default_rng(acceptance.SEED + 1), np.random.default_rng(acceptance.SEED + 1)
    for r in (rng, ref):
        r.normal(size=(2, 1_000, 2, 3))
    got = acceptance._nullity_states(rng, 1_000)
    samplers = (qstate.random_cq_state, qstate.random_qc_state, qstate.random_two_qubit_state)
    want = np.stack([[sample(ref).mat for sample in samplers] for _ in range(1_000)], axis=1)
    for stack, mats in zip(got, want):
        assert stack.mat.shape == (1_000, 4, 4)
        assert np.max(np.abs(stack.mat - mats)) <= 1e-15
    assert rng.bit_generator.state == ref.bit_generator.state


def test_criterion_9_born_subsample_equals_a_per_box_reference_loop():
    # the stream of a loop of random_qc_state or random_cq_state,
    # random_settings2 and born_box2, drawn after the frames and the states
    rng, ref = np.random.default_rng(acceptance.SEED + 1), np.random.default_rng(acceptance.SEED + 1)
    for r in (rng, ref):
        r.normal(size=(2, 1_000, 2, 3))
        acceptance._nullity_states(r, 1_000)
    got = acceptance._born_subsample(rng)
    want = 0.0
    for n in range(100):
        rho = qstate.random_cq_state(ref) if n % 2 else qstate.random_qc_state(ref)
        box = qstate.born_box2(rho, qstate.random_settings2(ref))
        want = max(want, discord2.bell_discord(box), discord2.mermin_discord(box))
    assert abs(got - want) <= 1e-15
    assert rng.bit_generator.state == ref.bit_generator.state
