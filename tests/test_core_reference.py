"""The party-generic box core against per-cell reference loops.

The references below are the bipartite and tripartite catalog builders and
validators that each party count carried before both went through one core
in boxcore: every catalog vertex must be byte-equal to its reference table,
and the validators must reject the same inputs with the same exception
class, or accept them with byte-equal tables.
"""

from itertools import combinations, product

import numpy as np
import pytest

from boxlab import boxcore, polytope, tribox
from boxlab.boxcore import (
    EPS_VALID,
    BoxError,
    NegativeEntryError,
    NotNormalizedError,
    SignalingError,
)

# -- reference catalog -------------------------------------------------------


def ref_pr(al, be, ga):
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        if a ^ b == (x & y) ^ (al & x) ^ (be & y) ^ ga:
            t[x, y, a, b] = 0.5
    return t


def ref_det(al, be, ga, ep):
    t = np.zeros((2, 2, 2, 2))
    for x, y in product(range(2), repeat=2):
        t[x, y, (al & x) ^ be, (ga & y) ^ ep] = 1.0
    return t


def ref_mermin(al, be, ga):
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        if x ^ y != be:
            t[x, y, a, b] = 0.25
        elif a ^ b == (x & y) ^ (al & x) ^ (be & y) ^ ga:
            t[x, y, a, b] = 0.5
    return t


def ref_mermin_nmm(variant):
    p, q, r, s = (variant >> 3) & 1, (variant >> 2) & 1, (variant >> 1) & 1, variant & 1
    t = np.zeros((2, 2, 2, 2))
    for x, y in product(range(2), repeat=2):
        if variant < 16:
            t[x, y, x ^ p, y ^ q] += 0.5
            t[x, y, r, s] += 0.5
        else:
            t[x, y, x ^ p, q] += 0.5
            t[x, y, r, y ^ s] += 0.5
    return t


def ref_cc(al, be, ga):
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in product(range(2), repeat=4):
        if a ^ b == (al & x) ^ (be & y) ^ ga:
            t[x, y, a, b] = 0.5
    return t


def ref_tsirelson(al, be, ga):
    w = 1.0 / np.sqrt(2.0)
    return w * ref_pr(al, be, ga) + (1 - w) * 0.25


def ref_sv(al, be, ga, ep):
    t = np.zeros((2,) * 6)
    for x, y, z, a, b, c in product(range(2), repeat=6):
        par = (x & y) ^ (x & z) ^ (y & z) ^ (al & x) ^ (be & y) ^ (ga & z) ^ ep
        if a ^ b ^ c == par:
            t[x, y, z, a, b, c] = 0.25
    return t


def ref_det3(al, be, ga, ep, ze, et):
    t = np.zeros((2,) * 6)
    for x, y, z in product(range(2), repeat=3):
        t[x, y, z, (al & x) ^ be, (ga & y) ^ ep, (ze & z) ^ et] = 1.0
    return t


def ref_pr2(pair, al, be, ga, ep):
    t = np.zeros((2,) * 6)
    pr = ref_pr(al, be, ga)
    for x, y, z, a, b, c in product(range(2), repeat=6):
        if pair == "AB":
            t[x, y, z, a, b, c] = pr[x, y, a, b] * (c == (ep & z))
        elif pair == "AC":
            t[x, y, z, a, b, c] = pr[x, z, a, c] * (b == (ep & y))
        else:
            t[x, y, z, a, b, c] = pr[y, z, b, c] * (a == (ep & x))
    return t


def ref_mermin3(al, be, ga, ep):
    partner = (al ^ 1, be ^ 1, ga ^ 1, ep ^ al ^ be ^ ga)
    return 0.5 * (ref_sv(al, be, ga, ep) + ref_sv(*partner))


def ref_from_expectations(e):
    t = np.empty((2,) * 6)
    for x, y, z, a, b, c in product(range(2), repeat=6):
        t[x, y, z, a, b, c] = (
            1.0
            + (-1.0) ** a * e.a[x] + (-1.0) ** b * e.b[y] + (-1.0) ** c * e.c[z]
            + (-1.0) ** (a ^ b) * e.ab[x, y]
            + (-1.0) ** (a ^ c) * e.ac[x, z]
            + (-1.0) ** (b ^ c) * e.bc[y, z]
            + (-1.0) ** (a ^ b ^ c) * e.abc[x, y, z]
        ) / 8.0
    return t


def ref_class8():
    e = tribox.TriExpectations(np.zeros(2), np.zeros(2), np.zeros(2),
                               np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                               np.zeros((2, 2, 2)))
    e.ab[0, 0] = e.ab[0, 1] = 1.0
    e.ac[0, 0] = 1.0
    e.bc[0, 0] = e.bc[1, 0] = 1.0
    e.abc[1, 0, 1] = 1.0
    e.abc[1, 1, 1] = -1.0
    return ref_make_box3(ref_from_expectations(e))


REFERENCES = {
    "PR": ref_pr, "Det": ref_det, "MerminMM": ref_mermin, "MerminNMM": ref_mermin_nmm,
    "CC": ref_cc, "Tsirelson": ref_tsirelson, "Noise": lambda: np.full((2,) * 4, 0.25),
    "Sv": ref_sv, "Det3": ref_det3, "Mermin3": ref_mermin3, "Class8Rep": ref_class8,
    "Noise3": lambda: np.full((2,) * 6, 1.0 / 8.0),
    **{f"Pr{pair}": lambda *p, pair=pair: ref_pr2(pair, *p) for pair in ("AB", "AC", "BC")},
}

CATALOG = {
    "PR": (boxcore.all_pr_ids(), 8), "Det": (boxcore.all_det_ids(), 16),
    "MerminMM": (boxcore.all_mermin_ids(), 8), "MerminNMM": (boxcore.all_mermin_nmm_ids(), 32),
    "CC": (boxcore.all_cc_ids(), 8), "Tsirelson": (boxcore.all_tsirelson_ids(), 8),
    "Noise": ([boxcore.NOISE_ID], 1),
    "Sv": (tribox.all_sv_ids(), 16), "Det3": (tribox.all_det3_ids(), 64),
    "Pr2": (tribox.all_pr2_ids(), 48), "Mermin3": (tribox.all_mermin3_ids(), 16),
    "Class8Rep": ([tribox.CLASS8_ID], 1), "Noise3": ([tribox.NOISE3_ID], 1),
}


@pytest.mark.parametrize("family", CATALOG)
def test_catalog_vertices_are_byte_equal_to_reference_loops(family):
    ids, count = CATALOG[family]
    assert len(ids) == count
    build = boxcore.vertex if ids[0].parties == 2 else tribox.tri_vertex
    rows = polytope.vertex_matrix(ids)
    for row, vid in zip(rows, ids):
        want = REFERENCES[vid.kind](*vid.params)
        assert build(vid).table.tobytes() == want.tobytes(), vid
        assert row.tobytes() == want.reshape(-1).tobytes(), vid


def test_public_builders_match_their_vertices():
    assert boxcore.pr_box(0, 1, 1).table.tobytes() == ref_pr(0, 1, 1).tobytes()
    assert boxcore.mermin_nmm_box(21).table.tobytes() == ref_mermin_nmm(21).tobytes()
    assert boxcore.tsirelson_box(1, 0, 1).table.tobytes() == ref_tsirelson(1, 0, 1).tobytes()
    assert tribox.pr2_box("AC", 1, 0, 1, 1).table.tobytes() == ref_pr2("AC", 1, 0, 1, 1).tobytes()
    assert tribox.mermin3_box(1, 1, 0, 1).table.tobytes() == ref_mermin3(1, 1, 0, 1).tobytes()
    assert tribox.class8_box().table.tobytes() == ref_class8().tobytes()


def test_box3_from_expectations_is_byte_equal_to_reference_loop():
    rng = np.random.default_rng(1010)
    for _ in range(5):
        e = tribox.expectations3(tribox.random_sv_polytope_box(rng))
        got = tribox.box3_from_expectations(e, validate=False).table
        assert got.tobytes() == ref_from_expectations(e).tobytes()


# -- reference validators ----------------------------------------------------

def ref_make_box(values, eps=EPS_VALID):
    t = np.asarray(values, dtype=float)
    if t.size != 16:
        raise BoxError(f"expected 16 probabilities, got {t.size}")
    t = t.reshape(2, 2, 2, 2).copy()
    if not np.isfinite(t).all():
        raise BoxError("table has non-finite entries")
    neg = t < 0
    if neg.any():
        worst = np.unravel_index(np.argmin(t), t.shape)
        if t[worst] < -eps:
            raise NegativeEntryError(f"entry {worst} < 0")
        t[neg] = 0.0
    norms = t.sum(axis=(2, 3))
    for x, y in product(range(2), repeat=2):
        if abs(norms[x, y] - 1.0) > eps:
            raise NotNormalizedError(f"inputs {x, y}")
    marg_a = t.sum(axis=3)
    for x, a in product(range(2), repeat=2):
        if abs(marg_a[x, 0, a] - marg_a[x, 1, a]) > eps:
            raise SignalingError("P(a|x) depends on y")
    marg_b = t.sum(axis=2)
    for y, b in product(range(2), repeat=2):
        if abs(marg_b[0, y, b] - marg_b[1, y, b]) > eps:
            raise SignalingError("P(b|y) depends on x")
    return t


def ref_make_box3(values, eps=EPS_VALID):
    t = np.asarray(values, dtype=float)
    if t.size != 64:
        raise BoxError(f"expected 64 probabilities, got {t.size}")
    t = t.reshape((2,) * 6).copy()
    if not np.isfinite(t).all():
        raise BoxError("table has non-finite entries")
    neg = t < 0
    if neg.any():
        worst = np.unravel_index(np.argmin(t), t.shape)
        if t[worst] < -eps:
            raise NegativeEntryError(f"entry {worst} < 0")
        t[neg] = 0.0
    norms = t.sum(axis=(3, 4, 5))
    if np.max(np.abs(norms - 1.0)) > eps:
        raise NotNormalizedError("sum != 1")
    mab = t.sum(axis=5)
    if np.max(np.abs(mab[:, :, 0] - mab[:, :, 1])) > eps:
        raise SignalingError("P(a,b|x,y) depends on z")
    mac = t.sum(axis=4)
    if np.max(np.abs(mac[:, 0] - mac[:, 1])) > eps:
        raise SignalingError("P(a,c|x,z) depends on y")
    mbc = t.sum(axis=3)
    if np.max(np.abs(mbc[0] - mbc[1])) > eps:
        raise SignalingError("P(b,c|y,z) depends on x")
    ma = t.sum(axis=(4, 5))
    if np.max(np.abs(ma - ma[:, :1, :1])) > eps:
        raise SignalingError("P(a|x) depends on y or z")
    mb = t.sum(axis=(3, 5))
    if np.max(np.abs(mb - mb[:1, :, :1])) > eps:
        raise SignalingError("P(b|y) depends on x or z")
    mc = t.sum(axis=(3, 4))
    if np.max(np.abs(mc - mc[:1, :1, :])) > eps:
        raise SignalingError("P(c|z) depends on x or y")
    return t


def _base_tables(n):
    rng = np.random.default_rng(2020 + n)
    if n == 2:
        return [boxcore.noise_box().table, boxcore.pr_box(1, 0, 1).table,
                boxcore.mermin_nmm_box(19).table, polytope.random_ns_tables(rng, 1)[0]]
    return [tribox.noise3_box().table, tribox.sv_box(0, 1, 1, 0).table,
            tribox.class8_box().table, tribox.random_sv_polytope_box(rng).table]


def _signaling_shift(table, n, subset, delta):
    """`table` with mass moved between two outputs of the first party outside
    `subset`, at the inputs where the parties outside `subset` have input 0:
    delta times the number of parties in `subset` with input 1. The others'
    marginal then depends on the inputs of `subset`, by delta per party, so
    a delta just below the tolerance signals only through the whole subset."""
    t = np.array(table, dtype=float)
    kept = min(p for p in range(n) if p not in subset)
    flipped = tuple(int(p == kept) for p in range(n))
    for x in product(range(2), repeat=n):
        if not any(x[p] for p in range(n) if p not in subset):
            t[x + (0,) * n] -= delta * sum(x)
            t[x + flipped] += delta * sum(x)
    return t


def _validator_inputs(n):
    size = 4 ** n
    for base in _base_tables(n):
        for i, factor in product(range(size), (2.0, -2.0, 0.5, -0.5)):
            t = base.copy().reshape(-1)
            t[i] += factor * EPS_VALID
            yield t.reshape(base.shape)
        for k, delta in product(range(1, n), (2.0, 0.9, 0.4, 1e7)):
            for subset in combinations(range(n), k):
                yield _signaling_shift(base, n, subset, delta * EPS_VALID)
    for bad in (np.nan, np.inf):
        t = np.full(size, 1.0 / 2 ** n)
        t[3] = bad
        yield t
    yield np.full(size - 1, 1.0 / 2 ** n)
    yield np.full(4 ** (5 - n), 1.0 / 2 ** n)
    yield [[0.25] * 4] * (size // 4 - 1) + [[0.25] * 3]


@pytest.mark.parametrize("n, make, ref", [(2, boxcore.make_box, ref_make_box),
                                          (3, tribox.make_box3, ref_make_box3)])
def test_validators_agree_with_reference_loops(n, make, ref):
    outcomes = set()
    for values in _validator_inputs(n):
        try:
            want = ref(values)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                make(values)
            # the reference lets numpy's ValueError escape for a ragged
            # input; the core turns it into a BoxError
            want_class = BoxError if type(exc) is ValueError else type(exc)
            assert type(got.value) is want_class, values
            outcomes.add(want_class)
        else:
            assert make(values).table.tobytes() == want.tobytes()
            outcomes.add(None)
    assert outcomes == {None, BoxError, NegativeEntryError, NotNormalizedError, SignalingError}


# -- reference expectations ----------------------------------------------------

def ref_expectations(table, n):
    """{party mask: its correlators (2,)*|mask|} of a (2,)*2n table by a loop
    over its cells, each averaged over the other parties' inputs; the first
    party is the most significant bit of the mask."""
    e = {}
    for mask in range(1, 2 ** n):
        parties = [p for p in range(n) if mask >> (n - 1 - p) & 1]
        e[mask] = np.zeros((2,) * len(parties))
        for x, a in product(product(range(2), repeat=n), repeat=2):
            sign = (-1.0) ** sum(a[p] for p in parties)
            e[mask][tuple(x[p] for p in parties)] += sign * table[x + a] / 2 ** (n - len(parties))
    return e


def ref_marginal2(table, pair):
    p, q = ("ABC".index(party) for party in pair)
    spectator = 3 - p - q
    m = np.zeros((2,) * 4)
    for x, a in product(product(range(2), repeat=3), repeat=2):
        if x[spectator] == 0:
            m[x[p], x[q], a[p], a[q]] += table[x + a]
    return m


def _expectation_tables(n):
    """(k, 4**n) rows: 40 random boxes (NS boxes of two parties, mixtures of
    the Svetlichny polytope of three), then every catalog vertex of n parties."""
    rng = np.random.default_rng(2800 + n)
    if n == 2:
        drawn = polytope.random_ns_tables(rng, 40).reshape(40, 16)
    else:
        drawn = np.stack([tribox.random_sv_polytope_box(rng).flat for _ in range(40)])
    ids = [v for family_ids, _ in CATALOG.values() for v in family_ids if v.parties == n]
    return np.vstack([drawn, polytope.vertex_matrix(ids)])


def test_bipartite_expectations_match_reference_loops_and_a_stack_each_box():
    tables = _expectation_tables(2)
    stack = boxcore.marginal_expectations(boxcore.make_box(tables))
    for k, row in enumerate(tables):
        box = boxcore.make_box(row)
        ea, eb = boxcore.marginal_expectations(box)
        assert np.array_equal(stack[0][k], ea) and np.array_equal(stack[1][k], eb)
        want = ref_expectations(box.table, 2)
        for got, mask in ((ea, 2), (eb, 1), (boxcore.joint_expectations(box), 3)):
            np.testing.assert_allclose(got, want[mask], rtol=0, atol=1e-15, err_msg=str(k))


def test_tripartite_expectations_match_reference_loops_and_a_stack_each_box():
    tables = _expectation_tables(3)
    stack = tribox.make_box3(tables)
    fields = {"a": 4, "b": 2, "c": 1, "ab": 6, "ac": 5, "bc": 3, "abc": 7}
    stacked, class99 = tribox.expectations3(stack), tribox.class99_value(stack)
    for k, row in enumerate(tables):
        box = tribox.make_box3(row)
        e, want = tribox.expectations3(box), ref_expectations(box.table, 3)
        for name, mask in fields.items():
            assert np.array_equal(getattr(stacked, name)[k], getattr(e, name)), (k, name)
            np.testing.assert_allclose(getattr(e, name), want[mask], rtol=0, atol=1e-15,
                                       err_msg=f"{k} {name}")
        assert class99[k] == tribox.class99_value(box)
        for pair in (tribox.PAIR_AB, tribox.PAIR_AC, tribox.PAIR_BC):
            np.testing.assert_allclose(tribox.marginal2(box, pair).table,
                                       ref_marginal2(box.table, pair), rtol=0, atol=1e-15,
                                       err_msg=f"{k} {pair}")
