"""The sign-rule correlation core against per-cell formulas.

The oracles below write every operator out cell by cell, in the form of its
definition: expectations by einsum contractions, operator sums accumulated
in input order, one hand-written coefficient table per Mermin operator. The
core must match them exactly on every catalog vertex and to 1e-12
elsewhere, and its batched results must match the single-box functions to
1e-14.
"""

import itertools

import numpy as np
import pytest

from boxlab import _corr, boxcore, discord2, polytope, qstate, tribox

BITS2 = list(itertools.product(range(2), repeat=2))
BITS3 = list(itertools.product(range(2), repeat=3))
SIGN1 = np.array([1.0, -1.0])
SIGN2 = np.einsum("a,b->ab", SIGN1, SIGN1)
SIGN3 = np.einsum("a,b,c->abc", SIGN1, SIGN1, SIGN1)
DET = polytope.vertex_matrix(boxcore.all_det_ids())
PR = polytope.vertex_matrix(boxcore.all_pr_ids())


# -- oracles: the per-cell formulas -------------------------------------------

def oracle_e2(table):
    return np.einsum("xyab,ab->xy", table.reshape((2,) * 4), SIGN2)


def oracle_chsh(e):
    out = np.empty((2, 2, 2))
    for al, be, ga in BITS3:
        out[al, be, ga] = (
            (-1.0) ** ga * e[0, 0]
            + (-1.0) ** (be ^ ga) * e[0, 1]
            + (-1.0) ** (al ^ ga) * e[1, 0]
            + (-1.0) ** (al ^ be ^ ga ^ 1) * e[1, 1]
        )
    return out


def oracle_mermin_functions(e):
    return np.array([[abs(e[0, 0] - e[1, 1]), abs(e[0, 1] - e[1, 0])],
                     [abs(e[0, 0] + e[1, 1]), abs(e[0, 1] + e[1, 0])]])


def oracle_mermin_value(e, al, be, ga):
    """(-1)^ga * sum over x^y = be of (-1)^(xy ^ al x ^ be y) e[x, y]."""
    return (-1.0) ** ga * sum((-1.0) ** ((x & y) ^ (al & x) ^ (be & y)) * e[x, y]
                              for x, y in BITS2 if x ^ y == be)


def oracle_pairing_min(f):
    f = np.asarray(f).ravel()
    return min(abs(abs(f[i] - f[j]) - abs(f[k] - f[m]))
               for (i, j), (k, m) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))))


def oracle_total_correlation(table):
    t = table.reshape((2,) * 4)
    ea = t.sum(axis=3).mean(axis=1) @ SIGN1
    eb = t.sum(axis=2).mean(axis=0) @ SIGN1
    b = np.abs(oracle_chsh(oracle_e2(t))[..., 0])
    b_prod = np.abs(oracle_chsh(np.outer(ea, eb))[..., 0])
    return float(np.max(np.abs(b - b_prod)))


def oracle_monogamy(b):
    labels = list(BITS2)
    best, worst = np.inf, None
    for li, lj in itertools.combinations(labels, 2):
        margin = 4.0 - (b[li] + b[lj])
        if margin < best:
            best, worst = margin, (li, lj)
    return best, worst


def oracle_e3(table):
    t = table.reshape((2,) * 6)
    return (np.einsum("xyzabc,a->x", t, SIGN1) / 4.0, np.einsum("xyzabc,b->y", t, SIGN1) / 4.0,
            np.einsum("xyzabc,c->z", t, SIGN1) / 4.0, np.einsum("xyzabc,ab->xy", t, SIGN2) / 2.0,
            np.einsum("xyzabc,ac->xz", t, SIGN2) / 2.0, np.einsum("xyzabc,bc->yz", t, SIGN2) / 2.0,
            np.einsum("xyzabc,abc->xyz", t, SIGN3))


def oracle_sv(e3):
    """Unsigned-output Svetlichny sums, shape (2, 2, 2) indexed [al, be, ga]."""
    out = np.empty((2, 2, 2))
    for al, be, ga in BITS3:
        v = 0.0
        for i, j, k in BITS3:
            sgn = (i & j) ^ (i & k) ^ (j & k) ^ (al & i) ^ (be & j) ^ (ga & k)
            v += (-1.0) ** sgn * e3[i, j, k]
        out[al, be, ga] = v
    return out


def oracle_mermin3_coefficients(al, be, ga, ep):
    coef = np.zeros((2, 2, 2))
    if al ^ be ^ ga == 0:
        coef[0, 0, 1] = (-1.0) ** (ga ^ ep)
        coef[0, 1, 0] = (-1.0) ** (be ^ ep)
        coef[1, 0, 0] = (-1.0) ** (al ^ ep)
        coef[1, 1, 1] = (-1.0) ** (al ^ be ^ ga ^ ep ^ 1)
    else:
        coef[1, 1, 0] = (-1.0) ** (al ^ be ^ ep ^ 1)
        coef[1, 0, 1] = (-1.0) ** (al ^ ga ^ ep ^ 1)
        coef[0, 1, 1] = (-1.0) ** (be ^ ga ^ ep ^ 1)
        coef[0, 0, 0] = (-1.0) ** ep
    return coef


def oracle_groupings():
    groups = []
    for outer in range(3):
        halves = ([i for i in range(8) if not (i >> (2 - outer)) & 1],
                  [i for i in range(8) if (i >> (2 - outer)) & 1])
        rest = [u for u in range(3) if u != outer]
        masks = [1 << (2 - rest[0]), 1 << (2 - rest[1]),
                 (1 << (2 - rest[0])) | (1 << (2 - rest[1]))]
        for mask in masks:
            halved = []
            for half in halves:
                pairs, seen = [], set()
                for i in half:
                    j = i ^ mask
                    if i not in seen and j in half:
                        pairs.append((i, j))
                        seen.update((i, j))
                halved.append(tuple(pairs))
            groups.append(tuple(halved))
    return groups


def oracle_grouped_min(f):
    f = np.asarray(f).ravel()
    best = np.inf
    for (p0, p1), (p2, p3) in oracle_groupings():
        v0 = abs(abs(f[p0[0]] - f[p0[1]]) - abs(f[p1[0]] - f[p1[1]]))
        v1 = abs(abs(f[p2[0]] - f[p2[1]]) - abs(f[p3[0]] - f[p3[1]]))
        best = min(best, abs(v0 - v1))
    return float(best)


def oracle_total_correlation3(table):
    a, b, c, ab, ac, bc, abc = oracle_e3(table)
    s = np.abs(oracle_sv(abc))
    cuts = (np.einsum("ij,k->ijk", ab, c), np.einsum("ik,j->ijk", ac, b),
            np.einsum("jk,i->ijk", bc, a))
    return min(float(np.max(np.abs(s - np.abs(oracle_sv(cut))))) for cut in cuts)


def oracle2(table):
    """Every bipartite quantity from the cell formulas, by name."""
    e = oracle_e2(table)
    chsh = oracle_chsh(e)
    bell = np.abs(chsh[..., 0])
    mermin = oracle_mermin_functions(e)
    return {"chsh": chsh, "bell": bell, "mermin": mermin,
            "mermin_values": np.array([oracle_mermin_value(e, *p) for p in BITS3]),
            "G": oracle_pairing_min(bell), "Q": oracle_pairing_min(mermin),
            "T": oracle_total_correlation(table), "monogamy": oracle_monogamy(bell)}


def library2(box):
    return {"chsh": discord2.chsh_values(box), "bell": discord2.bell_functions(box),
            "mermin": discord2.mermin_functions(box),
            "mermin_values": np.array([discord2.mermin_value(box, *p) for p in BITS3]),
            "G": discord2.bell_discord(box), "Q": discord2.mermin_discord(box),
            "T": discord2.total_correlation(box),
            "monogamy": (discord2.monogamy_checks(box).bell_pair_margin,
                         discord2.monogamy_checks(box).worst_bell_pair)}


def oracle3(table):
    abc = oracle_e3(table)[-1]
    sv = oracle_sv(abc)
    m3 = np.array([np.sum(oracle_mermin3_coefficients(*p) * abc)
                   for p in itertools.product(range(2), repeat=4)])
    s = np.abs(sv)
    m = np.abs(m3.reshape(2, 2, 2, 2)[..., 0])
    return {"sv": np.stack([sv, -sv], axis=-1), "mermin3_values": m3, "S": s, "M": m,
            "G": oracle_grouped_min(s), "Q": oracle_grouped_min(m),
            "T": oracle_total_correlation3(table)}


def library3(box):
    return {"sv": tribox.sv_values(box),
            "mermin3_values": np.array([tribox.mermin3_value(box, *p)
                                        for p in itertools.product(range(2), repeat=4)]),
            "S": tribox.sv_functions(box), "M": tribox.mermin3_functions(box),
            "G": tribox.svetlichny_discord(box), "Q": tribox.mermin3_discord(box),
            "T": tribox.total_correlation3(box)}


def assert_close(got, want, atol):
    for key in want:
        if key == "monogamy":
            assert got[key][1] == want[key][1]
            np.testing.assert_allclose(got[key][0], want[key][0], rtol=0, atol=atol)
        else:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=atol, err_msg=key)


# -- samplers for the regions where defects hide ------------------------------

def pr_weighted_tables(rng, n):
    """p * PR + (1 - p) * random NS box, p uniform."""
    p = rng.uniform(size=(n, 1))
    return p * PR[rng.integers(8, size=n)] + (1 - p) * polytope.random_ns_tables(rng, n).reshape(n, 16)


def near_facet_tables(rng, n):
    """Boxes on the segment from a random local box to a random PR box where
    the largest CHSH value is 2 +- delta, delta log-uniform in [1e-6, 1e-2]."""
    out = []
    for _ in range(n):
        local = rng.dirichlet(np.ones(len(DET))) @ DET
        pr = PR[rng.integers(8)]
        c_local = oracle_chsh(oracle_e2(local)).ravel()
        c_pr = oracle_chsh(oracle_e2(pr)).ravel()
        delta = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, -2)
        rising = c_pr > c_local
        s = np.min((2 + delta - c_local[rising]) / (c_pr[rising] - c_local[rising]))
        out.append((1 - s) * local + s * pr)
    return np.array(out)


def bipartite_regions():
    rng = np.random.default_rng(4404)
    return {"pr_weighted": pr_weighted_tables(rng, 150), "near_facet": near_facet_tables(rng, 150),
            "random": polytope.random_ns_tables(rng, 100).reshape(100, 16)}


# -- tests --------------------------------------------------------------------

def test_every_bipartite_catalog_vertex_matches_the_cell_formulas_exactly():
    ids = (boxcore.all_pr_ids() + boxcore.all_det_ids() + boxcore.all_mermin_ids()
           + boxcore.all_mermin_nmm_ids() + boxcore.all_cc_ids()
           + boxcore.all_tsirelson_ids() + [boxcore.NOISE_ID])
    for vid in ids:
        box = boxcore.vertex(vid)
        assert_close(library2(box), oracle2(box.table), atol=0.0)


def test_every_tripartite_catalog_vertex_matches_the_cell_formulas_exactly():
    ids = (tribox.sv_polytope_ids() + tribox.all_mermin3_ids()
           + [tribox.CLASS8_ID, tribox.NOISE3_ID])
    for vid in ids:
        box = tribox.tri_vertex(vid)
        assert_close(library3(box), oracle3(box.table), atol=0.0)


def test_bipartite_core_matches_oracle_on_hard_regions():
    for name, tables in bipartite_regions().items():
        single = []
        for table in tables:
            box = boxcore.make_box(table)
            got = library2(box)
            assert_close(got, oracle2(box.table), atol=1e-12)
            single.append((got["G"], got["Q"], got["T"]))
        batched = np.stack(_corr.measures(tables, 2), axis=-1)
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-14, err_msg=name)
        e = _corr.correlators(tables, 2).reshape(-1, 2, 2)
        chsh = discord2.chsh_values_from_expectations(e)
        np.testing.assert_allclose(chsh, [oracle_chsh(x) for x in e], rtol=0, atol=1e-12)
        np.testing.assert_allclose(discord2.bell_discord_from_expectations(e),
                                   batched[:, 0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(discord2.mermin_discord_from_expectations(e),
                                   batched[:, 1], rtol=0, atol=1e-14)
    # the near-facet sampler does reach the facet from both sides
    c = np.array([oracle_chsh(oracle_e2(t)).max() for t in bipartite_regions()["near_facet"]])
    assert np.all(np.abs(c - 2) < 1.1e-2) and (c > 2).any() and (c < 2).any()


def test_tripartite_core_matches_oracle_on_svetlichny_polytope_draws():
    rng = np.random.default_rng(4405)
    boxes = [tribox.random_sv_polytope_box(rng) for _ in range(60)]
    # Svetlichny-heavy draws: a large weight on one Svetlichny vertex
    sv = tribox.tri_vertex_matrix(tribox.all_sv_ids())
    for _ in range(40):
        w = rng.uniform(0.5, 1.0)
        boxes.append(tribox.make_box3(w * sv[rng.integers(16)]
                                      + (1 - w) * tribox.random_sv_polytope_box(rng).table.ravel()))
    single = []
    for box in boxes:
        got = library3(box)
        assert_close(got, oracle3(box.table), atol=1e-12)
        single.append((got["G"], got["Q"], got["T"]))
    tables = np.stack([box.table.reshape(64) for box in boxes])
    batched = np.stack(_corr.measures(tables, 3), axis=-1)
    np.testing.assert_allclose(batched, single, rtol=0, atol=1e-14)
    assert max(g for g, _, _ in single) > 4.0


@pytest.mark.parametrize("n", [2, 3])
def test_stack_of_shape_k_m_runs_end_to_end(n):
    rng = np.random.default_rng(4406 + n)
    if n == 2:
        boxes = [polytope.random_ns_box(rng) for _ in range(12)]
        scalar = [(discord2.bell_discord(b), discord2.mermin_discord(b),
                   discord2.total_correlation(b)) for b in boxes]
        signed = [discord2.chsh_values(b) for b in boxes]
    else:
        boxes = [tribox.random_sv_polytope_box(rng) for _ in range(12)]
        scalar = [(tribox.svetlichny_discord(b), tribox.mermin3_discord(b),
                   tribox.total_correlation3(b)) for b in boxes]
        signed = [tribox.sv_values(b) for b in boxes]
    stack = np.stack([b.table.reshape(4 ** n) for b in boxes]).reshape(3, 4, 4 ** n)
    e = _corr.correlators(stack, n)
    assert e.shape == (3, 4, 2 ** n)
    values = _corr.operator_values(e, n)
    assert values.shape == (3, 4, 2 ** n, 2)
    np.testing.assert_allclose(values.reshape(12, -1), np.reshape(signed, (12, -1)),
                               rtol=0, atol=1e-14)
    measures = _corr.measures(stack, n)
    assert all(m.shape == (3, 4) for m in measures)
    np.testing.assert_allclose(np.stack(measures, axis=-1).reshape(12, 3), scalar,
                               rtol=0, atol=1e-14)


def test_nested_min_matches_oracles_across_blocks():
    # more rows than one gather block, so the block loop is exercised
    rng = np.random.default_rng(4407)
    f2 = rng.uniform(0, 4, size=(_corr._BLOCK + 37, 4))
    got = _corr.nested_min(f2.T, 2)
    assert got.shape == (len(f2),)
    for k in rng.choice(len(f2), 200):
        assert got[k] == oracle_pairing_min(f2[k])
    f3 = rng.uniform(0, 8, size=(2, 50, 8))
    got = _corr.nested_min(np.moveaxis(f3, -1, 0), 3)
    assert got.shape == (2, 50)
    assert all(got[i, j] == oracle_grouped_min(f3[i, j]) for i in range(2) for j in range(50))


def test_discord_groupings_match_the_explicit_construction():
    assert tribox.discord_groupings() == oracle_groupings()


def test_mermin3_sign_rule_reproduces_the_coefficient_table():
    for p in itertools.product(range(2), repeat=4):
        al, be, ga, ep = p
        label = 4 * al + 2 * be + ga
        coef = _corr._SIGNS[3][1][label] * (-1.0) ** ep
        assert np.array_equal(coef.reshape(2, 2, 2), oracle_mermin3_coefficients(*p))


def test_every_mermin_box_scores_plus_two_on_its_own_operator():
    # gamma flips the sign of every bipartite Mermin operator, (1, 1, *)
    # included, as for the tripartite boxes
    for al, be, ga in BITS3:
        box = boxcore.mermin_box(al, be, ga)
        assert discord2.mermin_value(box, al, be, ga) == 2.0
        assert discord2.mermin_value(box, al, be, ga ^ 1) == -2.0
        values = [discord2.mermin_value(box, *p) for p in BITS3]
        assert sum(v == 2.0 for v in values) == 1


def signed_sums_by_accumulation(corr, n, mermin):
    """The operator sums one input at a time, in input order, labels first."""
    signs = _corr._SIGNS[n][mermin]
    out = np.multiply.outer(signs[:, 0], corr[..., 0])
    for i in range(1, 2 ** n):
        out += np.multiply.outer(signs[:, i], corr[..., i])
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("batch", [(), (7,), (3, 5)])
@pytest.mark.parametrize("mermin", [False, True])
def test_signed_sums_matrix_product_matches_accumulation(n, batch, mermin):
    rng = np.random.default_rng(2 ** n + len(batch))
    corr = rng.uniform(-1.0, 1.0, size=batch + (2 ** n,))
    got = _corr._signed_sums(corr, n, mermin)
    want = signed_sums_by_accumulation(corr, n, mermin)
    assert got.shape == want.shape == (2 ** n,) + batch
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


# -- the lean kernels against explicit loops, on stratified stacks ------------

BATCHES = [(), (7,), (3, 5), (0,)]


def stratified_tables(n):
    """15 tables of each stratum: flat NS, PR-heavy nonlocal and near-facet
    bipartite; flat, Svetlichny-heavy and embedded-PR-heavy tripartite."""
    rng = np.random.default_rng(4410 + n)
    if n == 2:
        return {"flat_ns": polytope.random_ns_tables(rng, 15).reshape(15, 16),
                "pr_heavy": pr_weighted_tables(rng, 15),
                "near_facet": near_facet_tables(rng, 15)}
    flat = np.stack([tribox.random_sv_polytope_box(rng).table.reshape(64) for _ in range(45)])
    out = {"flat": flat[:15]}
    for k, (name, ids) in enumerate((("sv_heavy", tribox.all_sv_ids()),
                                     ("pr2_heavy", tribox.all_pr2_ids()))):
        heavy = tribox.tri_vertex_matrix(ids)[rng.integers(len(ids), size=15)]
        w = rng.uniform(0.6, 1.0, size=(15, 1))
        out[name] = w * heavy + (1 - w) * flat[15 * (k + 1):15 * (k + 2)]
    return out


def batched(tables, batch):
    size = int(np.prod(batch))
    return tables[:size].reshape(batch + tables.shape[-1:])


def signs_by_formula(n, mermin):
    """s[l, i]: (-1)^(e2(i) ^ l.i) from the input and label bits, zero off
    the Mermin operators' inputs when `mermin`."""
    bits = list(itertools.product(range(2), repeat=n))
    s = np.zeros((2 ** n, 2 ** n))
    for l, lb in enumerate(bits):
        for i, ib in enumerate(bits):
            e2 = sum(ib[p] & ib[q] for p, q in itertools.combinations(range(n), 2))
            if mermin and (ib[0] ^ ib[1] != lb[1] if n == 2 else sum(ib) % 2 == sum(lb) % 2):
                continue
            s[l, i] = (-1.0) ** (e2 + sum(a & b for a, b in zip(lb, ib)))
    return s


def correlators_by_cells(table, n, parties):
    """sum_a (-1)^(XOR of the outputs in `parties`) P(a|i), one cell at a time."""
    t = table.reshape(2 ** n, 2 ** n)
    return np.array([sum((-1.0) ** (bin(a & parties).count("1") % 2) * t[i, a]
                         for a in range(2 ** n)) for i in range(2 ** n)])


def total_correlation_by_cuts(table, n):
    """min over cuts of max_l | |V_l(E)| - |V_l(E_S E_S')| |, each side's
    marginal averaged over the other side's inputs, one cut at a time."""
    signs = signs_by_formula(n, False)
    full = 2 ** n - 1
    e = correlators_by_cells(table, n, full)
    best = np.inf
    for cut in range(1, full):
        e_cut = np.ones(2 ** n)
        for side in (cut, full ^ cut):
            e_side = correlators_by_cells(table, n, side).reshape((2,) * n)
            others = tuple(p for p in range(n) if not side >> (n - 1 - p) & 1)
            e_cut *= np.broadcast_to(e_side.mean(axis=others, keepdims=True), (2,) * n).ravel()
        best = min(best, max(abs(abs(s @ e) - abs(s @ e_cut)) for s in signs))
    return best


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", [2, 3])
def test_cut_map_total_correlation_matches_per_cut_marginal_products(n, batch):
    for name, tables in stratified_tables(n).items():
        stack = batched(tables, batch)
        got = _corr.total_correlation(stack, n)
        assert np.shape(got) == batch, name
        want = [total_correlation_by_cuts(t, n) for t in stack.reshape(-1, 4 ** n)]
        np.testing.assert_allclose(np.reshape(got, -1), want, rtol=0, atol=1e-12, err_msg=name)
        # the correlators passed in give the same answer
        given = _corr.total_correlation(stack, n, _corr.correlators(stack, n))
        np.testing.assert_array_equal(given, got)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("n", [2, 3])
def test_operator_kernels_match_explicit_sign_sums(n, batch):
    for name, tables in stratified_tables(n).items():
        stack = batched(tables, batch)
        flat = stack.reshape(-1, 4 ** n)
        for parties in range(1, 2 ** n):
            want = [correlators_by_cells(t, n, parties) for t in flat]
            got = _corr.correlators(stack, n, parties)
            assert got.shape == batch + (2 ** n,)
            np.testing.assert_allclose(got.reshape(-1, 2 ** n), np.reshape(want, (-1, 2 ** n)),
                                       rtol=0, atol=1e-12, err_msg=name)
        e = _corr.correlators(stack, n)
        for mermin in (False, True):
            signs = signs_by_formula(n, mermin)
            sums = np.array([[s @ row for s in signs] for row in e.reshape(-1, 2 ** n)])
            values = _corr.operator_values(e, n, mermin)
            assert values.shape == batch + (2 ** n, 2)
            np.testing.assert_allclose(values.reshape(-1, 2 ** n, 2),
                                       np.stack([sums, -sums], axis=-1).reshape(-1, 2 ** n, 2),
                                       rtol=0, atol=1e-12, err_msg=name)
            moduli = _corr.moduli(e, n, mermin)
            assert moduli.shape == batch + (2 ** n,)
            np.testing.assert_allclose(moduli.reshape(-1, 2 ** n),
                                       np.abs(sums).reshape(-1, 2 ** n),
                                       rtol=0, atol=1e-12, err_msg=name)
            # the labels-first moduli of the discords are the same numbers
            np.testing.assert_array_equal(np.moveaxis(_corr._moduli(e, n, mermin), 0, -1),
                                          moduli)


@pytest.mark.parametrize("n", [2, 3])
def test_nested_min_gives_the_same_bits_in_one_pass_and_in_blocks(n):
    # a stack of more than _FEW rows takes the in-place block loop, its
    # slices of at most _FEW rows the one-pass path
    rng = np.random.default_rng(4420 + n)
    f = rng.uniform(0, 2 ** n, size=(2 ** n, 3 * _corr._FEW + 5))
    whole = _corr.nested_min(f, n)
    parts = [_corr.nested_min(f[:, k:k + _corr._FEW], n)
             for k in range(0, f.shape[1], _corr._FEW)]
    np.testing.assert_array_equal(whole, np.concatenate(parts))
    assert _corr.nested_min(f[:, :0], n).shape == (0,)
    assert _corr.nested_min(f[:, 0], n).shape == ()


def test_classical_sign_is_plus_one_wherever_t_equals_g_plus_q():
    # every GHZ/SMDghz box has T = G + Q, up to rounding of either sign
    rho = qstate.ghz_state()
    for p in np.linspace(0.5, 1.0, 401):
        box = qstate.born_box3(rho, qstate.settings_catalog("SMDghz", p))
        split = tribox.correlation_split3(box)
        assert split.classical < 1e-12 and split.sign == 1, p
    catalog = [(discord2.correlation_split, boxcore.vertex(v))
               for v in boxcore.ns_vertex_ids() + boxcore.all_mermin_ids()
               + boxcore.all_mermin_nmm_ids() + boxcore.all_cc_ids()
               + boxcore.all_tsirelson_ids() + [boxcore.NOISE_ID]]
    catalog += [(tribox.correlation_split3, tribox.tri_vertex(v))
                for v in tribox.sv_polytope_ids() + tribox.all_mermin3_ids()
                + [tribox.CLASS8_ID, tribox.NOISE3_ID]]
    additive = 0
    for split_of, box in catalog:
        split = split_of(box)
        if split.classical < 1e-12:  # |T - G - Q|
            additive += 1
            assert split.sign == 1, box
    assert additive > 100
