"""Box construction, extremal catalog and relabeling-group tests."""

import dataclasses
import inspect
import itertools
import json

import numpy as np
import pytest

from boxlab import boxcore, discord2, polytope, qstate, tribox
from boxlab.boxcore import (
    BadWeightsError,
    NegativeEntryError,
    NotNormalizedError,
    SignalingError,
)

RNG = np.random.default_rng(1234)

PR000_TABLE = np.array([
    [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]],
    [[[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.5], [0.5, 0.0]]],
])

MERMIN000_TABLE = np.array([
    [[[0.5, 0.0], [0.0, 0.5]], [[0.25, 0.25], [0.25, 0.25]]],
    [[[0.25, 0.25], [0.25, 0.25]], [[0.0, 0.5], [0.5, 0.0]]],
])

NMM0_TABLE = np.array([  # even mixture of (a=x, b=0) and (a=0, b=y)
    [[[1.0, 0.0], [0.0, 0.0]], [[0.5, 0.5], [0.0, 0.0]]],
    [[[0.5, 0.0], [0.5, 0.0]], [[0.0, 0.5], [0.5, 0.0]]],
])


def test_make_box_accepts_white_noise():
    box = boxcore.make_box(np.full(16, 0.25))
    assert np.allclose(box.table, 0.25)


def test_pr_box_matches_printed_table():
    assert np.array_equal(boxcore.pr_box(0, 0, 0).table, PR000_TABLE)


def test_mermin_box_matches_printed_table():
    assert np.array_equal(boxcore.mermin_box(0, 0, 0).table, MERMIN000_TABLE)


def test_mermin_box_is_even_pr_mixture():
    for al, be, ga in itertools.product(range(2), repeat=3):
        mixed = 0.5 * (boxcore.pr_box(al, be, ga).table
                       + boxcore.pr_box(al ^ 1, be ^ 1, ga ^ be).table)
        assert np.array_equal(boxcore.mermin_box(al, be, ga).table, mixed)


def test_mermin_nmm_variant_zero_of_second_family_matches_table():
    assert np.array_equal(boxcore.mermin_nmm_box(16).table, NMM0_TABLE)


def test_det_box_outputs():
    box = boxcore.det_box(0, 0, 0, 0)
    for x, y in itertools.product(range(2), repeat=2):
        assert box.prob(x, y, 0, 0) == 1.0


def test_make_box_rejects_signaling():
    t = PR000_TABLE.copy()
    # P(a=0|x=0) becomes 0.5 under y=0 but 0.3 under y=1
    t[0, 0] = [[0.5, 0.0], [0.0, 0.5]]
    t[0, 1] = [[0.3, 0.0], [0.2, 0.5]]
    with pytest.raises(SignalingError):
        boxcore.make_box(t)


def test_make_box_rejects_unnormalized():
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 1, 0, 0] = 0.3
    with pytest.raises(NotNormalizedError):
        boxcore.make_box(t)


def test_make_box_rejects_negative_and_clamps_tiny():
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0, 0, 0] = -0.05
    t[0, 0, 1, 1] = 0.55
    with pytest.raises(NegativeEntryError):
        boxcore.make_box(t)
    # slight extrapolation past the PR vertex: -1e-12 on its zero cells,
    # nonsignaling and normalized to the same order
    delta = 4e-12
    t2 = (1 + delta) * PR000_TABLE - delta * 0.25
    box = boxcore.make_box(t2)
    assert box.prob(0, 0, 0, 1) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_box_rejects_non_finite(bad):
    # every comparison with NaN is false, so only an explicit check stops it
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 0, 1, 0] = bad
    with pytest.raises(boxcore.BoxError, match="non-finite"):
        boxcore.make_box(t)


def test_vertex_entries_are_quarters():
    ids = (boxcore.all_pr_ids() + boxcore.all_det_ids() + boxcore.all_mermin_ids()
           + boxcore.all_mermin_nmm_ids() + boxcore.all_cc_ids() + [boxcore.NOISE_ID])
    allowed = {0.0, 0.25, 0.5, 1.0}
    for vid in ids:
        values = set(np.unique(boxcore.vertex(vid).table))
        assert values <= allowed, vid
        boxcore.make_box(boxcore.vertex(vid).table)  # all invariants hold exactly


def test_tsirelson_box_is_valid_and_scaled_pr():
    w = 1 / np.sqrt(2)
    for al, be, ga in itertools.product(range(2), repeat=3):
        box = boxcore.tsirelson_box(al, be, ga)
        expected = w * boxcore.pr_box(al, be, ga).table + (1 - w) * 0.25
        assert np.allclose(box.table, expected)
        boxcore.make_box(box.table)


def test_vertex_catalog_counts():
    assert len(boxcore.all_pr_ids()) == 8
    assert len(boxcore.all_det_ids()) == 16
    assert len(boxcore.all_mermin_ids()) == 8
    assert len(boxcore.all_mermin_nmm_ids()) == 32
    assert len(boxcore.all_cc_ids()) == 8
    assert len(boxcore.all_tsirelson_ids()) == 8
    assert len(boxcore.ns_vertex_ids()) == 24


def test_mermin_boxes_all_distinct():
    tables = [boxcore.vertex(v).table.ravel() for v in boxcore.all_mermin_ids()]
    assert len(np.unique(np.stack(tables), axis=0)) == 8


def test_parse_vertex_label_round_trip():
    for label in ("PR010", "Det1101", "MerminMM001", "MerminNMM17", "CC110",
                  "Tsirelson000", "Noise"):
        vid = boxcore.parse_vertex_label(label)
        assert vid.label() == label


@pytest.mark.parametrize("label", ["PR00", "PR0000", "PR002", "Det01", "CC00",
                                   "Tsirelson", "MerminNMM32", "Noise0",
                                   "MerminNMM07", "MerminNMM\u0661"])
def test_parse_vertex_label_rejects_wrong_parameters(label):
    with pytest.raises(ValueError):
        boxcore.parse_vertex_label(label)


def test_mix_identity_and_average():
    pr = boxcore.pr_box(0, 0, 0)
    assert boxcore.mix([pr], [1.0]).allclose(pr)
    # averaging a PR box with its anti-box gives white noise
    avg = boxcore.mix([pr, boxcore.pr_box(0, 0, 1)], [0.5, 0.5])
    assert np.allclose(avg.table, 0.25)
    iso = boxcore.mix([pr, boxcore.noise_box()], [0.5, 0.5])
    assert np.allclose(iso.table, 0.5 * pr.table + 0.125)


def test_mix_rejects_bad_weights():
    pr = boxcore.pr_box(0, 0, 0)
    with pytest.raises(BadWeightsError):
        boxcore.mix([pr, boxcore.noise_box()], [0.7, 0.7])
    with pytest.raises(BadWeightsError):
        boxcore.mix([pr, boxcore.noise_box()], [1.5, -0.5])
    with pytest.raises(BadWeightsError):
        boxcore.mix([pr, boxcore.noise_box()], [np.nan, 1.0])


def test_joint_expectations_pr_and_noise():
    pr = boxcore.pr_box(0, 0, 0)
    assert boxcore.joint_expectation(pr, 0, 0) == 1.0
    assert boxcore.joint_expectation(pr, 1, 1) == -1.0
    assert boxcore.joint_expectation(boxcore.noise_box(), 0, 1) == 0.0


def test_joint_expectation_is_affine_in_mixtures():
    for _ in range(50):
        w = RNG.exponential(size=3)
        w /= w.sum()
        boxes = [boxcore.pr_box(0, 1, 0), boxcore.det_box(1, 0, 1, 1),
                 boxcore.mermin_box(1, 1, 0)]
        mixed = boxcore.mix(boxes, w)
        expected = sum(wi * boxcore.joint_expectations(b) for wi, b in zip(w, boxes))
        assert np.allclose(boxcore.joint_expectations(mixed), expected, atol=1e-12)


def test_marginal_expectations():
    assert boxcore.marginal_expectation(boxcore.pr_box(1, 0, 1), "A", 0) == 0.0
    assert boxcore.marginal_expectation(boxcore.det_box(0, 0, 0, 0), "A", 0) == 1.0
    nmm = boxcore.mermin_nmm_box(16)
    assert boxcore.marginal_expectation(nmm, "A", 1) == 0.0
    assert boxcore.marginal_expectation(nmm, "A", 0) == 1.0


def test_marginal_expectations_of_a_stack_are_those_of_each_box():
    # a stack's tables have a leading axis, so the party axes are counted from the end
    tables = polytope.random_ns_tables(np.random.default_rng(2401), 6).reshape(6, 16)
    got = boxcore.marginal_expectations(boxcore.make_box(tables))
    assert [g.shape for g in got] == [(6, 2), (6, 2)]
    for k, table in enumerate(tables):
        for g, want in zip(got, boxcore.marginal_expectations(boxcore.make_box(table))):
            assert np.array_equal(g[k], want)


def test_ns_check_matches_h_representation():
    # sample the 8 reduced coordinates (two marginals per party + one joint per
    # input pair) and compare table validity with the H-representation facets
    for _ in range(300):
        pa = RNG.uniform(size=2)   # P(a=0|x)
        pb = RNG.uniform(size=2)   # P(b=0|y)
        joint = RNG.uniform(size=(2, 2))  # P(0,0|x,y)
        t = np.empty((2, 2, 2, 2))
        for x, y in itertools.product(range(2), repeat=2):
            t[x, y, 0, 0] = joint[x, y]
            t[x, y, 0, 1] = pa[x] - joint[x, y]
            t[x, y, 1, 0] = pb[y] - joint[x, y]
            t[x, y, 1, 1] = 1 - pa[x] - pb[y] + joint[x, y]
        h_ok = all(
            joint[x, y] <= pa[x] + 1e-12 and joint[x, y] <= pb[y] + 1e-12
            and joint[x, y] >= pa[x] + pb[y] - 1 - 1e-12
            for x, y in itertools.product(range(2), repeat=2)
        )
        try:
            boxcore.make_box(t)
            accepted = True
        except (NegativeEntryError, SignalingError, NotNormalizedError):
            accepted = False
        assert accepted == h_ok


# -- relabeling group ---------------------------------------------------------

def test_lro_group_size_and_closure():
    group = boxcore.lro_group()
    assert len(group) == 128
    members = set(group)
    sample = RNG.choice(len(group), size=60)
    for i, j in zip(sample[::2], sample[1::2]):
        assert boxcore.compose_lro(group[i], group[j]) in members


def test_lro_inverse_round_trip():
    group = boxcore.lro_group()
    box = boxcore.mix([boxcore.pr_box(0, 0, 0), boxcore.det_box(1, 0, 1, 0),
                       boxcore.noise_box()], [0.3, 0.5, 0.2])
    for g in group:
        gi = boxcore.invert_lro(g)
        assert boxcore.compose_lro(g, gi) == boxcore.IDENTITY_LRO
        back = boxcore.apply_lro(boxcore.apply_lro(box, g), gi)
        assert back.allclose(box, tol=1e-14)


def test_lro_identity_and_alice_output_flip():
    pr = boxcore.pr_box(0, 0, 0)
    assert boxcore.apply_lro(pr, boxcore.IDENTITY_LRO).allclose(pr)
    flip = boxcore.Lro(a=boxcore.PartyRelabel(out_const=1))
    assert boxcore.apply_lro(pr, flip).allclose(boxcore.pr_box(0, 0, 1))


def test_party_swap_fixes_symmetric_mermin_box():
    swap = boxcore.Lro(party_swap=True)
    box = boxcore.mermin_box(0, 0, 0)
    assert boxcore.apply_lro(box, swap).allclose(box)


def test_lro_permutes_pr_and_det_orbits():
    pr_tables = {boxcore.vertex(v).table.tobytes() for v in boxcore.all_pr_ids()}
    det_tables = {boxcore.vertex(v).table.tobytes() for v in boxcore.all_det_ids()}
    for g in boxcore.lro_group():
        moved_pr = {boxcore.apply_lro(boxcore.vertex(v), g).table.tobytes()
                    for v in boxcore.all_pr_ids()}
        moved_det = {boxcore.apply_lro(boxcore.vertex(v), g).table.tobytes()
                     for v in boxcore.all_det_ids()}
        assert moved_pr == pr_tables
        assert moved_det == det_tables


def test_lro_index_permutation_matches_apply():
    box = boxcore.mix([boxcore.pr_box(1, 1, 0), boxcore.cc_box(0, 1, 0),
                       boxcore.noise_box()], [0.25, 0.35, 0.4])
    flat = box.table.ravel()
    for g in boxcore.lro_group()[::7]:
        perm = boxcore.lro_index_permutation(g)
        assert np.array_equal(flat[perm],
                              boxcore.apply_lro(box, g).table.ravel())



def oracle_apply_lro(table, g):
    """The per-cell relabeling: party swap first, then the per-party relabels."""
    t = table.transpose(1, 0, 3, 2) if g.party_swap else table
    out = np.empty((2, 2, 2, 2))
    ra, rb = g.a, g.b
    for x, y, a, b in itertools.product(range(2), repeat=4):
        out[x, y, a, b] = t[
            x ^ ra.input_flip,
            y ^ rb.input_flip,
            a ^ (ra.out_by_input & x) ^ ra.out_const,
            b ^ (rb.out_by_input & y) ^ rb.out_const,
        ]
    return out


def test_apply_lro_matches_per_cell_relabeling_on_every_element():
    rng = np.random.default_rng(5150)
    box = boxcore.make_box(rng.dirichlet(np.ones(24)) @ np.stack(
        [boxcore.vertex(v).table.ravel() for v in boxcore.ns_vertex_ids()]))
    for g in boxcore.lro_group():
        assert np.array_equal(boxcore.apply_lro(box, g).table,
                              oracle_apply_lro(box.table, g))

def test_json_round_trip():
    box = boxcore.mix([boxcore.pr_box(0, 1, 1), boxcore.noise_box()], [0.4, 0.6])
    again = boxcore.box_from_json(boxcore.box_to_json(box))
    assert again.allclose(box, tol=1e-15)


def test_json_rejects_wrong_parties():
    text = boxcore.box_to_json(boxcore.noise_box()).replace('"parties": 2',
                                                            '"parties": 5')
    with pytest.raises(boxcore.BoxError):
        boxcore.box_from_json(text)


def test_no_public_function_takes_its_own_tolerance():
    # every tolerance is a constant of boxlab._tol, not a per-call override
    found = [f"{mod.__name__}.{name}({param})"
             for mod in (boxcore, tribox, polytope, discord2, qstate)
             for name, fn in vars(mod).items()
             if inspect.isfunction(fn) and not name.startswith("_")
             for param in inspect.signature(fn).parameters if param in ("eps", "tol")]
    assert found == []


@pytest.mark.parametrize("make, measure", [
    (lambda: boxcore.pr_box(0, 0, 0), discord2.bell_discord),
    (lambda: tribox.sv_box(0, 0, 0, 0), tribox.svetlichny_discord),
], ids=["bipartite", "tripartite"])
@pytest.mark.parametrize("computed", [False, True], ids=["fresh", "computed"])
def test_no_box_attribute_can_be_assigned(make, measure, computed):
    # both box classes are frozen dataclasses themselves: a frozen base
    # refuses only its own fields, which left the kept correlators open
    box, want = make(), measure(make())
    if computed:
        box.correlators
    for name in ("correlators", "table", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(box, name, np.zeros_like(box.table))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(box, name)
    assert measure(box) == want
    assert np.array_equal(box.correlators, make().correlators)


@pytest.mark.parametrize("n, draw", [
    (2, lambda rng: polytope.random_ns_tables(rng, 1)[0]),
    (3, lambda rng: tribox.random_sv_polytope_box(rng).table),
])
def test_box_stack_passes_valid_tables_unchanged(n, draw):
    rng = np.random.default_rng(77)
    rows = np.stack([draw(rng).reshape(-1) for _ in range(20)])
    assert np.array_equal((boxcore.make_box if n == 2 else tribox.make_box3)(rows).flat, rows)


def _signaling_row(n):
    """A normalized, nonnegative table whose marginal of A depends on y."""
    t = np.full((2,) * (2 * n), 1.0 / 2 ** n)
    t[(0, 1) + (0,) * (n - 2) + (0,) * n] += 0.1
    t[(0, 1) + (0,) * (n - 2) + (1,) + (0,) * (n - 2) + (1,)] -= 0.1
    return t.reshape(-1)


def _stack_with_bad_rows(n, bad):
    """Six noise tables, the third made bad in the way `bad` names and the
    fifth signaling and unnormalized."""
    rows = np.tile(np.full(4 ** n, 1.0 / 2 ** n), (6, 1))
    rows[2] = {"signaling": _signaling_row(n),
               "negative": rows[2] + np.eye(4 ** n)[0] * 0.3 - np.eye(4 ** n)[1] * 0.3,
               "unnormalized": rows[2] * 1.01,
               "nan": np.where(np.arange(4 ** n) == 5, np.nan, rows[2])}[bad]
    rows[4] = _signaling_row(n) * 1.01  # a later bad table is not the one named
    return rows


@pytest.mark.parametrize("n, make", [(2, boxcore.make_box), (3, tribox.make_box3)])
@pytest.mark.parametrize("bad", ["signaling", "negative", "unnormalized", "nan"])
def test_box_stack_raises_the_error_of_the_first_bad_table(n, make, bad):
    rows = _stack_with_bad_rows(n, bad)
    with pytest.raises(boxcore.BoxError) as want:
        make(rows[2])
    with pytest.raises(boxcore.BoxError) as got:
        make(rows)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_box_stack_clamps_rounding_noise_as_make_box_does():
    rows = polytope.random_ns_tables(np.random.default_rng(78), 5).reshape(5, 16)
    rows[3] = boxcore.pr_box(0, 0, 0).table.reshape(-1)
    rows[3, 1] -= 1e-17  # P(a=0,b=1|x=0,y=0) of PR000 is 0
    got = boxcore.make_box(rows).flat
    want = np.stack([boxcore.make_box(r).table.reshape(-1) for r in rows])
    assert np.array_equal(got, want) and got[3, 1] == 0.0


@pytest.mark.parametrize("n, make", [(2, boxcore.make_box), (3, tribox.make_box3)])
@pytest.mark.parametrize("bad", ["signaling", "negative", "unnormalized", "nan"])
def test_make_box_of_a_stack_raises_the_error_of_its_first_bad_table(n, make, bad):
    rows = _stack_with_bad_rows(n, bad)
    with pytest.raises(boxcore.BoxError) as want:
        make(rows[2])
    with pytest.raises(boxcore.BoxError) as got:
        make(rows)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n, make, draw", [
    (2, boxcore.make_box, lambda rng: polytope.random_ns_tables(rng, 1)[0]),
    (3, tribox.make_box3, lambda rng: tribox.random_sv_polytope_box(rng).table),
])
def test_make_box_of_a_stack_holds_each_table_and_its_correlators_read_only(n, make, draw):
    rng = np.random.default_rng(2102)
    rows = np.stack([draw(rng).reshape(-1) for _ in range(7)])
    stack = make(rows)
    assert type(stack) is type(make(rows[0])) and stack.stacked and stack.parties == n
    assert stack.table.shape == (7,) + (2,) * (2 * n)
    assert stack.correlators.shape == (7, 2 ** n)
    assert not stack.table.flags.writeable and not stack.correlators.flags.writeable
    assert not np.shares_memory(stack.table, rows)
    for row, table, corr in zip(rows, stack.table, stack.correlators):
        one = make(row)
        assert not one.stacked
        assert np.array_equal(table, one.table)
        assert np.max(np.abs(corr - one.correlators)) <= 1e-14


@pytest.mark.parametrize("fn, n, args", [
    (boxcore.joint_expectation, 2, (0, 1)),
    (boxcore.marginal_expectation, 2, ("A", 0)),
    (discord2.monogamy_checks, 2, ()),
    (tribox.ghz_paradox_check, 3, ()),
    (tribox.monogamy_checks3, 3, ()),
    (tribox.marginal2, 3, (tribox.PAIR_AB,)),
    (boxcore.BipartiteBox.prob, 2, (0, 0, 0, 0)),
], ids=lambda v: getattr(v, "__name__", None))
def test_one_box_functions_refuse_a_stack_by_name_and_length(fn, n, args):
    make, noise = ((boxcore.make_box, boxcore.noise_box()) if n == 2
                   else (tribox.make_box3, tribox.noise3_box()))
    fn(noise, *args)  # one box is read as before
    stack = make(np.tile(noise.table.reshape(-1), (2, 1)))
    with pytest.raises(boxcore.BoxError, match=f"^{fn.__name__} takes one box, got a stack of 2$"):
        fn(stack, *args)


def test_a_two_dimensional_table_of_another_shape_is_one_box():
    box = boxcore.make_box(np.full((4, 4), 0.25))
    assert not box.stacked and box.table.shape == (2, 2, 2, 2)
    assert box.allclose(boxcore.noise_box())


@pytest.mark.parametrize("n, load", [(2, boxcore.box_from_json), (3, tribox.box3_from_json)])
def test_a_box_file_with_a_table_of_stacked_rows_is_refused(n, load):
    rows = np.full((3, 4 ** n), 1.0 / 2 ** n).tolist()
    with pytest.raises(boxcore.BoxError, match=f"expected {4 ** n} probabilities, got"):
        load(json.dumps({"parties": n, "table": rows}))


def test_box_json_refuses_a_stack():
    two = boxcore.make_box(np.tile(boxcore.noise_box().table.reshape(-1), (3, 1)))
    three = tribox.make_box3(np.tile(tribox.noise3_box().table.reshape(-1), (2, 1)))
    with pytest.raises(boxcore.BoxError):
        boxcore.box_to_json(two)
    with pytest.raises(boxcore.BoxError):
        tribox.box3_to_json(three)
