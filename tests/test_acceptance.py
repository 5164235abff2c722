"""Acceptance gate: every advertised closed-form guarantee, one line each.

Criterion 9's random-frame clause asserts a nullity property that is false
for the literal discord formulas (tilted product states give G, Q > 0 under
generic frames); it runs unweakened and is marked as an expected failure.
The README's known-limitations section carries the counterexample.
"""

import dataclasses
import os
import sys
import threading
import time

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


# -- run_all: the criteria on one thread per CPU -------------------------------

QUICK = [1, 6, 11, 13, 14]


def _alone(numbers):
    return [acceptance.ALL_CRITERIA[n - 1]() for n in numbers]


def _without_seconds(results):
    return [dataclasses.replace(r, seconds=0.0) for r in results]


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _no_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_all started a thread")
    monkeypatch.setattr(threading, "Thread", refuse)


def test_run_all_equals_each_criterion_called_alone_in_order():
    results = acceptance.run_all(QUICK)
    assert [r.number for r in results] == QUICK
    assert _without_seconds(results) == _alone(QUICK)
    assert all(r.seconds > 0.0 for r in results)


def test_run_all_on_one_cpu_starts_no_thread_and_gives_the_same_results(monkeypatch):
    want = _alone(QUICK)
    _cpus(monkeypatch, 1)
    _no_threads(monkeypatch)
    assert _without_seconds(acceptance.run_all(QUICK)) == want


def test_run_all_of_one_criterion_starts_no_thread(monkeypatch):
    want = _alone([1])
    _cpus(monkeypatch, 2)
    _no_threads(monkeypatch)
    assert _without_seconds(acceptance.run_all([1])) == want


def test_run_all_on_more_threads_than_cpus_runs_each_criterion_once_in_order(monkeypatch):
    # many short criteria and a short switch interval, so that two threads
    # taking the same criterion, or a lost result, would show
    calls = []

    def criterion(n):
        def run():
            calls.append(n)
            time.sleep(0)  # lets the other threads in
            return acceptance.CriterionResult(n, f"criterion {n}", True)
        return run

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [criterion(n) for n in range(1, 301)])
    _cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = acceptance.run_all()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(1, 301))
    assert [r.number for r in results] == list(range(1, 301))


class _Raised(Exception):
    pass


@pytest.mark.parametrize("second", ["returns", "raises"])
def test_run_all_raises_the_lowest_numbered_error_and_takes_no_later_criterion(
        second, monkeypatch):
    # two workers: one holds criterion 1 until the other is in criterion 2,
    # then takes 3, which raises while 2 runs; 2 then returns or raises
    started, raising, called = threading.Event(), threading.Event(), []

    def wait(event):
        assert event.wait(timeout=10), "the other worker did not arrive"

    def first():
        wait(started)
        return acceptance.CriterionResult(1, "first", True)

    def middle():
        started.set()
        wait(raising)
        time.sleep(0.05)  # for the other worker to record criterion 3's error
        if second == "raises":
            raise _Raised(2)
        return acceptance.CriterionResult(2, "second", True)

    def third():
        raising.set()
        raise _Raised(3)

    def later(n):
        def criterion():
            called.append(n)
            return acceptance.CriterionResult(n, "later", True)
        return criterion

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [first, middle, third, later(4), later(5)])
    _cpus(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(_Raised) as info:
        acceptance.run_all()
    assert info.value.args == ((2,) if second == "raises" else (3,))
    assert called == []
    assert threading.active_count() == before
