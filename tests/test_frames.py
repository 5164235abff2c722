"""Relabeling-frame search of both three-way decompositions.

The screen judges each distinct mapped-back (top, Mermin) vertex pair once.
The oracles below are the searches it replaced: the tripartite screen that
ran both discords on every frame's own residual, the bipartite loop that
tried all 128 frames through the exact per-frame path, and the per-cell
index-permutation loop.
"""

import itertools

import numpy as np
import pytest

from boxlab import _corr, boxcore, discord2, polytope, qstate, tribox
from boxlab.boxcore import EPS_LP, EPS_VALID

TOL = polytope.DISCORD_TOL


def oracle_lro3_index_permutation(g):
    """The per-cell loop that built one frame's index map."""
    inv_perm = [0, 0, 0]
    for k, pk in enumerate(g.perm):
        inv_perm[pk] = k
    perm = np.empty(64, dtype=np.intp)
    r = g.relabels
    for x, y, z, a, b, c in itertools.product(range(2), repeat=6):
        ins = (x ^ r[0].input_flip, y ^ r[1].input_flip, z ^ r[2].input_flip)
        outs = (a ^ (r[0].out_by_input & x) ^ r[0].out_const,
                b ^ (r[1].out_by_input & y) ^ r[1].out_const,
                c ^ (r[2].out_by_input & z) ^ r[2].out_const)
        src = (ins[inv_perm[0]], ins[inv_perm[1]], ins[inv_perm[2]],
               outs[inv_perm[0]], outs[inv_perm[1]], outs[inv_perm[2]])
        dst_flat = ((((x * 2 + y) * 2 + z) * 2 + a) * 2 + b) * 2 + c
        src_flat = ((((src[0] * 2 + src[1]) * 2 + src[2]) * 2
                     + src[3]) * 2 + src[4]) * 2 + src[5]
        perm[dst_flat] = src_flat
    return perm


FRAMES3 = list(tribox._lro3_search_group())
PERMS3 = np.stack([oracle_lro3_index_permutation(g) for g in FRAMES3])


def match_catalog(box, ids, vertex):
    """The catalog id whose table matches the box within EPS_LP."""
    for vid in ids:
        if box.allclose(vertex(vid), tol=EPS_LP):
            return vid
    return None


def screened3(box, tol=TOL):
    """Frame indices that polytope._screened_frames passes for a tripartite box."""
    mu = tribox.svetlichny_discord(box) / 8.0
    nu = tribox.mermin3_discord(box) / 4.0
    return list(polytope._screened_frames(box.table.reshape(-1), tribox._frame_tables(),
                                          mu, nu, tol))


def oracle_screened_frames3(box, tol=TOL):
    """The screen that ran both discords on each frame's own residual;
    frame indices in search order."""
    moved = box.table.reshape(-1)[PERMS3]
    mu = tribox.svetlichny_discord(box) / 8.0
    nu = tribox.mermin3_discord(box) / 4.0
    rest = 1.0 - mu - nu
    sv_tables = tribox.tri_vertex_matrix(tribox.all_sv_ids())
    signed = _corr.operator_values(_corr.correlators(moved, 3), 3).reshape(-1, 16)
    sel = np.argmax(signed - np.arange(16) * 1e-12, axis=1)
    hits = np.zeros(len(FRAMES3), dtype=bool)
    for cand_idx in range(2):
        mm_tables = tribox.tri_vertex_matrix(
            [tribox._mermin3_partners(svid)[cand_idx] for svid in tribox.all_sv_ids()])
        num = moved - mu * sv_tables[sel] - nu * mm_tables[sel]
        if rest > EPS_VALID:
            good = num.min(axis=1) >= -EPS_VALID * rest
            e = _corr.correlators(num[good] / rest, 3)
            good[np.flatnonzero(good)] = ((_corr.discord(e, 3) <= tol)
                                          & (_corr.discord(e, 3, mermin=True) <= tol))
            hits |= good
        else:
            hits |= np.abs(num).max(axis=1) <= EPS_LP
    return list(np.flatnonzero(hits))


def oracle_three_decomposition3(box, tol=TOL):
    """three_decomposition3 with the screen above."""
    if not tribox.in_sv_polytope(box):
        raise tribox.NotInPolytopeError("outside")
    direct = tribox._three_decomposition3_direct(box, tol)
    if direct is not None:
        return direct
    for f in oracle_screened_frames3(box, tol):
        g = FRAMES3[f]
        result = tribox._three_decomposition3_direct(tribox.apply_lro3(box, g), tol)
        if result is None:
            continue
        ginv = tribox.invert_lro3(g)
        back = lambda vid: tribox.apply_lro3(tribox.tri_vertex(vid), ginv)  # noqa: E731
        return polytope.DecompositionResult(
            mu=result.mu, nu=result.nu,
            pr_id=match_catalog(back(result.pr_id), tribox.all_sv_ids(), tribox.tri_vertex),
            mermin_id=match_catalog(back(result.mermin_id), tribox.all_mermin3_ids(),
                                    tribox.tri_vertex),
            residual=tribox.apply_lro3(result.residual, ginv))
    raise polytope.ResidualInvalidError("no frame")


def oracle_frame_hits2(box, tol=TOL):
    """Frames, in search order, where the exact per-frame split succeeds."""
    return [i for i, g in enumerate(boxcore.lro_group())
            if polytope._three_decomposition_direct(boxcore.apply_lro(box, g), tol) is not None]


def oracle_three_decomposition(box, tol=TOL):
    """The bipartite search that tried all 128 frames."""
    direct = polytope._three_decomposition_direct(box, tol)
    if direct is not None:
        return direct
    for g in boxcore.lro_group():
        result = polytope._three_decomposition_direct(boxcore.apply_lro(box, g), tol)
        if result is None:
            continue
        ginv = boxcore.invert_lro(g)
        back = lambda vid: boxcore.apply_lro(boxcore.vertex(vid), ginv)  # noqa: E731
        return polytope.DecompositionResult(
            mu=result.mu, nu=result.nu,
            pr_id=match_catalog(back(result.pr_id), boxcore.all_pr_ids(), boxcore.vertex),
            mermin_id=match_catalog(back(result.mermin_id), boxcore.all_mermin_ids(),
                                    boxcore.vertex),
            residual=boxcore.apply_lro(result.residual, ginv))
    raise polytope.ResidualInvalidError("no frame")


def outcome(decompose, box):
    """Every field of a result, the residual table bit for bit, or the refusal."""
    try:
        dec = decompose(box)
    except (polytope.ResidualInvalidError, tribox.NotInPolytopeError) as exc:
        return type(exc).__name__
    return dec.mu, dec.nu, dec.pr_id, dec.mermin_id, dec.residual.table.tobytes()


# -- boxes -------------------------------------------------------------------

def catalog_mixtures(rng, ids, matrix, make, n):
    """Small-integer mixtures of 2-3 catalog boxes: exact operator-value ties,
    where the direct split fails and some frame succeeds."""
    out = []
    for _ in range(n):
        pick = rng.choice(len(ids), size=rng.integers(2, 4), replace=False)
        w = rng.integers(1, 4, size=len(pick)).astype(float)
        out.append(make((w / w.sum()) @ matrix[pick]))
    return out


# Tied mixtures that the direct split refuses and a relabeling frame splits
FRAMED3 = [(("Det3000000", "Sv1010"), (2, 1)), (("PrBC0110", "Mermin31000"), (1, 1)),
           (("Det3111110", "Mermin31100", "PrAB1000"), (1, 2, 2)),
           (("Sv1110", "Det3010010"), (1, 2)), (("PrAB1111", "Sv1001"), (2, 1))]
FRAMED2 = [(("PR110", "CC000"), (1, 2)), (("Det0101", "CC100", "PR010"), (1, 1, 1)),
           (("PR001", "Det1100", "CC010"), (1, 1, 1)), (("PR111", "Det1101", "PR101"), (3, 3, 1)),
           (("Det0010", "PR001", "PR100"), (3, 1, 3))]


def labeled_mixture(labels, weights, parse, vertex, make):
    w = np.array(weights, dtype=float) / sum(weights)
    return make(sum(wi * vertex(parse(label)).table for wi, label in zip(w, labels)))


def tripartite_boxes():
    rng = np.random.default_rng(6060)
    vertices = tribox.tri_vertex_matrix(tribox.sv_polytope_ids())
    boxes = [tribox.random_sv_polytope_box(rng) for _ in range(8)]
    for _ in range(8):   # Svetlichny-heavy: 50-95 % on the 16 Svetlichny boxes
        heavy = rng.uniform(0.5, 0.95)
        w = np.concatenate([heavy * rng.dirichlet(np.ones(16)),
                            (1 - heavy) * rng.dirichlet(np.ones(112))])
        boxes.append(tribox.make_box3((w @ vertices).reshape((2,) * 6)))
    ghz = qstate.ghz_state()
    boxes += [qstate.born_box3(ghz, qstate.settings_catalog("SMDghz", p))
              for p in (0.5, 0.6, 0.75, 0.9, 1.0)]
    ids = (tribox.all_sv_ids() + tribox.all_mermin3_ids() + tribox.all_pr2_ids()
           + tribox.all_det3_ids() + [tribox.NOISE3_ID])
    boxes += catalog_mixtures(rng, ids, tribox.tri_vertex_matrix(ids),
                              lambda t: tribox.make_box3(t.reshape((2,) * 6)), 24)
    boxes += [labeled_mixture(*m, tribox.parse_tri_vertex_label, tribox.tri_vertex,
                              tribox.make_box3) for m in FRAMED3]
    return boxes


def witness_box(rng):
    """mu PR + nu (canonical Mermin partner) + rest (det/noise mixture),
    under a random relabeling."""
    al, be, ga = (int(v) for v in rng.integers(0, 2, size=3))
    mid = boxcore.mermin_id(al, be, ga) if rng.integers(2) else boxcore.mermin_id(
        al ^ 1, be ^ 1, ga ^ be ^ 1)
    mu, nu, rest = rng.dirichlet(np.ones(3))
    lam = rng.uniform()
    det = boxcore.det_box(*(int(v) for v in rng.integers(0, 2, size=4)))
    box = boxcore.mix([boxcore.pr_box(al, be, ga), boxcore.vertex(mid), det, boxcore.noise_box()],
                      [mu, nu, rest * lam, rest * (1 - lam)])
    return boxcore.apply_lro(box, boxcore.lro_group()[rng.integers(128)])


def bipartite_boxes():
    rng = np.random.default_rng(6161)
    boxes = [boxcore.make_box(t) for t in polytope.random_ns_tables(rng, 24)]
    boxes += [witness_box(rng) for _ in range(24)]
    ids = (boxcore.all_pr_ids() + boxcore.all_mermin_ids() + boxcore.all_det_ids()
           + boxcore.all_cc_ids() + [boxcore.NOISE_ID])
    boxes += catalog_mixtures(rng, ids, polytope.vertex_matrix(ids),
                              lambda t: boxcore.make_box(t.reshape(2, 2, 2, 2)), 80)
    boxes += [labeled_mixture(*m, boxcore.parse_vertex_label, boxcore.vertex, boxcore.make_box)
              for m in FRAMED2]
    return boxes


TRI_BOXES = tripartite_boxes()
BI_BOXES = bipartite_boxes()


# -- index permutations and mapped-back tables -----------------------------

def test_frame_permutations_match_per_frame_builders():
    assert tribox._frame_tables().frames == FRAMES3
    assert np.array_equal(boxcore._group_permutations(tribox._PARTY_PERMS), PERMS3)
    for g, perm in zip(FRAMES3, PERMS3):
        assert np.array_equal(tribox.lro3_index_permutation(g), perm)
    group = boxcore.lro_group()
    assert polytope._lro_frame_tables().frames == group
    assert np.array_equal(boxcore._group_permutations([(0, 1), (1, 0)]),
                          np.stack([boxcore.lro_index_permutation(g) for g in group]))


@pytest.mark.parametrize("n", [2, 3])
def test_mapped_back_rows_are_the_inverse_relabeled_vertices(n):
    if n == 2:
        tables, step = polytope._lro_frame_tables(), 1
        back = lambda table, g: boxcore.apply_lro(  # noqa: E731
            boxcore.make_box(table), boxcore.invert_lro(g)).table.reshape(-1)
    else:
        tables, step = tribox._frame_tables(), 11
        back = lambda table, g: tribox.apply_lro3(  # noqa: E731
            tribox.make_box3(table), tribox.invert_lro3(g)).table.reshape(-1)
    for f in range(0, len(tables.frames), step):
        g = tables.frames[f]
        for rows, index in ((tables.top, tables.top_back), (tables.mermin, tables.mermin_back)):
            for v, table in enumerate(rows):
                assert np.array_equal(back(table, g), rows[index[f, v]])


def test_mapped_back_rejects_a_set_the_frames_leave():
    inverse = np.argsort(boxcore._group_permutations([(0, 1), (1, 0)]), axis=1)
    with pytest.raises(ValueError, match="not closed"):
        polytope._mapped_back(polytope.vertex_matrix(boxcore.all_pr_ids()[:4]), inverse)


# -- the screen and the searches against their oracles ----------------------

def test_tripartite_screen_matches_per_frame_residual_screen():
    nonempty = 0
    for box in TRI_BOXES:
        frames = screened3(box)
        assert frames == oracle_screened_frames3(box)
        nonempty += bool(frames)
    assert nonempty >= 5


def test_three_decomposition3_matches_oracle_search():
    framed = 0
    for box in TRI_BOXES:
        got = outcome(tribox.three_decomposition3, box)
        assert got == outcome(oracle_three_decomposition3, box)
        framed += (not isinstance(got, str)
                   and tribox._three_decomposition3_direct(box, TOL) is None)
    assert framed >= len(FRAMED3)


def test_bipartite_screen_passes_the_frames_the_exact_path_accepts():
    tables = polytope._lro_frame_tables()
    for box in BI_BOXES[::4] + BI_BOXES[-len(FRAMED2):]:
        mu = discord2.bell_discord(box) / 4.0
        nu = discord2.mermin_discord(box) / 2.0
        screened = polytope._screened_frames(box.table.reshape(-1), tables, mu, nu, TOL)
        assert list(screened) == oracle_frame_hits2(box)


def test_three_decomposition_matches_128_frame_loop():
    kinds = {"refused": 0, "direct": 0, "frame": 0}
    for box in BI_BOXES:
        got = outcome(polytope.three_decomposition, box)
        assert got == outcome(oracle_three_decomposition, box)
        if isinstance(got, str):
            kinds["refused"] += 1
        elif polytope._three_decomposition_direct(box, TOL) is not None:
            kinds["direct"] += 1
        else:
            kinds["frame"] += 1
    assert kinds["frame"] >= len(FRAMED2) and min(kinds.values()) >= 5, kinds


@pytest.mark.parametrize("n", [2, 3])
def test_screen_verdict_holds_make_box_negativity_bound(n):
    # a deterministic box (both discords 0) with one zero entry pushed below
    # 0 and its block partner up: the verdict must flip at -EPS_VALID, as
    # make_box's does, not at some looser bound
    rest = 0.6
    det = (boxcore.det_box(0, 1, 1, 0) if n == 2 else tribox.det3_box(0, 1, 1, 0, 1, 1))
    table = det.table.reshape(-1)
    zero, one = np.flatnonzero(table == 0)[0], np.flatnonzero(table == 1)[0]
    rows = np.tile(rest * table, (2, 1))
    for row, delta in zip(rows, (0.5 * EPS_VALID, 2 * EPS_VALID)):
        row[zero] -= delta * rest
        row[one] += delta * rest
    assert list(polytope._double_zero(rows, n, rest, TOL)) == [True, False]
