"""Canonical pair screen of both three-way decompositions, against the
relabeling-frame searches it replaced.

In frame g a split subtracts the top vertex (PR or Svetlichny) of the
largest signed operator value and one of its two Mermin partners. Mapped
back to the box's own frame, that is a split over one canonical pair, so
the screen over the 16 / 32 canonical pairs splits every box some frame
splits. The oracles below are the searches it replaced: the 128-frame
bipartite loop and the 3,072-frame tripartite search, both running the
argmax-only split in each frame, and the per-cell index-permutation loop.
"""

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from boxlab import _corr, boxcore, discord2, polytope, qstate, tribox
from boxlab.boxcore import EPS_LP, EPS_VALID

TOL = polytope.DISCORD_TOL


def oracle_index_permutation(relabels, targets):
    """The per-cell loop that built one frame's index map: party slot k is
    relabeled by relabels[k] and moved to slot targets[k]."""
    n = len(relabels)
    source_slot = [0] * n
    for k, t in enumerate(targets):
        source_slot[t] = k
    perm = np.empty(4 ** n, dtype=np.intp)
    for dst, cell in enumerate(itertools.product(range(2), repeat=2 * n)):
        xs, outs = cell[:n], cell[n:]
        ins = [x ^ r.input_flip for x, r in zip(xs, relabels)]
        outs = [a ^ (r.out_by_input & x) ^ r.out_const for a, x, r in zip(outs, xs, relabels)]
        src = [ins[source_slot[p]] for p in range(n)] + [outs[source_slot[p]] for p in range(n)]
        perm[dst] = int("".join(map(str, src)), 2)
    return perm


# The tripartite search order: party permutations, then one relabeling per
# party slot in turn; the bipartite one is boxcore.lro_group().
FRAMES3 = [tribox.Lro3(perm, rels)
           for perm in itertools.permutations(range(3))
           for rels in itertools.product(boxcore.party_relabels(), repeat=3)]
PERMS3 = np.stack([oracle_index_permutation(g.relabels, g.perm) for g in FRAMES3])
FRAMES2 = boxcore.lro_group()
PERMS2 = np.stack([oracle_index_permutation((g.a, g.b), (1, 0) if g.party_swap else (0, 1))
                   for g in FRAMES2])


@dataclass(frozen=True)
class Party:
    """What the argmax-only split needs of one party count."""

    n: int
    tops: list
    mermins: list
    partners: Callable          # top id -> its two Mermin partners
    values: Callable            # box -> signed operator values
    mermin_functions: Callable  # box -> Mermin moduli
    discords: Callable          # box -> (discord, Mermin discord)
    scale: tuple                # (mu, nu) = discords / scale
    vertex: Callable
    make: Callable
    noise: Callable
    relabel: Callable
    frames: list
    perms: np.ndarray
    pairs: Callable             # the library's pair tables


BI = Party(2, boxcore.all_pr_ids(), boxcore.all_mermin_ids(),
           polytope._partners,
           discord2.chsh_values, discord2.mermin_functions,
           lambda b: (discord2.bell_discord(b), discord2.mermin_discord(b)), (4.0, 2.0),
           boxcore.vertex, boxcore.make_box, boxcore.noise_box, boxcore.apply_lro,
           FRAMES2, PERMS2, lambda: polytope._pairs(2))
TRI = Party(3, tribox.all_sv_ids(), tribox.all_mermin3_ids(), polytope._partners,
            tribox.sv_values, tribox.mermin3_functions,
            lambda b: (tribox.svetlichny_discord(b), tribox.mermin3_discord(b)), (8.0, 4.0),
            tribox.tri_vertex, tribox.make_box3, tribox.noise3_box, tribox.apply_lro3,
            FRAMES3, PERMS3, lambda: polytope._pairs(3))
PARTIES = {2: BI, 3: TRI}


def relabel_back(box, p, f):
    """`box` relabeled by the inverse of frame f, through the inverse of its index map."""
    return type(box)(box.table.reshape(-1)[np.argsort(p.perms[f])].reshape(box.table.shape))


def oracle_direct(box, p, tol=TOL):
    """The split each frame ran: the top of the largest signed operator value
    (1e-12 * label tie-break) with its two Mermin partners, the one whose
    surviving Mermin function is larger on the box first."""
    g, q = p.discords(box)
    mu, nu = g / p.scale[0], q / p.scale[1]
    values = p.values(box).reshape(-1)
    top = p.tops[int(np.argmax(values - 1e-12 * np.arange(values.size)))]
    m_box = p.mermin_functions(box).reshape(-1)
    candidates = sorted(p.partners(top),
                        key=lambda m: -m_box[np.argmax(p.mermin_functions(p.vertex(m)))])
    rest = 1.0 - mu - nu
    for mid in candidates:
        top_table, mermin_table = p.vertex(top).table, p.vertex(mid).table
        if rest <= EPS_VALID:
            if np.max(np.abs(mu * top_table + nu * mermin_table - box.table)) <= EPS_LP:
                return polytope.DecompositionResult(mu, nu, top, mid, p.noise())
            continue
        try:
            res = p.make((box.table - mu * top_table - nu * mermin_table) / rest)
        except boxcore.BoxError:
            continue
        if max(p.discords(res)) <= tol:
            return polytope.DecompositionResult(mu, nu, top, mid, res)
    return None


def mapped_back(vertices, p):
    """index[g, v]: the row of `vertices` (ids) equal to vertex v relabeled
    by the inverse of frame g, through the oracle's index maps."""
    rows = {p.vertex(v).table.tobytes(): i for i, v in enumerate(vertices)}
    tables = np.stack([p.vertex(v).table.reshape(-1) for v in vertices])
    shape = p.vertex(vertices[0]).table.shape
    return np.array([[rows[t.reshape(shape).tobytes()] for t in tables[:, np.argsort(perm)]]
                     for perm in p.perms])


BACK = {n: (mapped_back(p.tops, p), mapped_back(p.mermins, p)) for n, p in PARTIES.items()}


def oracle_frame_search(box, p, frames, tol=TOL):
    """The argmax-only split in the box's own frame, then in each of
    `frames` (frame indices, in search order), mapped back."""
    direct = oracle_direct(box, p, tol)
    if direct is not None:
        return direct
    top_back, mermin_back = BACK[p.n]
    for f in frames:
        result = oracle_direct(p.relabel(box, p.frames[f]), p, tol)
        if result is None:
            continue
        return polytope.DecompositionResult(
            mu=result.mu, nu=result.nu, pr_id=p.tops[top_back[f, p.tops.index(result.pr_id)]],
            mermin_id=p.mermins[mermin_back[f, p.mermins.index(result.mermin_id)]],
            residual=relabel_back(result.residual, p, f))
    raise polytope.ResidualInvalidError("no frame")


def oracle_frame_verdicts3(box, tol=TOL):
    """The tripartite screen that ran both discords on each frame's own
    residual: each frame's argmax top, and (2, n_frames) verdicts for its
    two Mermin partners in polytope._partners order."""
    moved = box.table.reshape(-1)[PERMS3]
    mu = tribox.svetlichny_discord(box) / 8.0
    nu = tribox.mermin3_discord(box) / 4.0
    rest = 1.0 - mu - nu
    sv_tables = tribox.tri_vertex_matrix(TRI.tops)
    signed = _corr.operator_values(_corr.correlators(moved, 3), 3).reshape(-1, 16)
    sel = np.argmax(signed - np.arange(16) * 1e-12, axis=1)
    hits = np.zeros((2, len(FRAMES3)), dtype=bool)
    for k in range(2):
        mm_tables = tribox.tri_vertex_matrix([TRI.partners(s)[k] for s in TRI.tops])
        num = moved - mu * sv_tables[sel] - nu * mm_tables[sel]
        if rest > EPS_VALID:
            good = num.min(axis=1) >= -EPS_VALID * rest
            e = _corr.correlators(num[good] / rest, 3)
            good[np.flatnonzero(good)] = ((_corr.discord(e, 3) <= tol)
                                          & (_corr.discord(e, 3, mermin=True) <= tol))
            hits[k] = good
        else:
            hits[k] = np.abs(num).max(axis=1) <= EPS_LP
    return sel, hits


def oracle_three_decomposition3(box, tol=TOL):
    """The 3,072-frame search: only frames whose residual passes the screen
    above go through the exact split."""
    if not tribox.in_sv_polytope(box):
        raise tribox.NotInPolytopeError("outside")
    frames = np.flatnonzero(oracle_frame_verdicts3(box, tol)[1].any(axis=0))
    return oracle_frame_search(box, TRI, frames, tol)


def oracle_three_decomposition(box, tol=TOL):
    """The bipartite search that tried all 128 frames."""
    return oracle_frame_search(box, BI, range(len(FRAMES2)), tol)


def pair_verdicts(box, p, mu, nu, tol=TOL):
    """verdict[t, m]: whether _double_zero passes top t with Mermin vertex m
    (label order); False for pairs that are not canonical."""
    pairs = p.pairs()
    num = box.table.reshape(-1) - mu * pairs.top[:, None] - nu * pairs.partners
    ok = polytope._double_zero(num.reshape(-1, 4 ** p.n), p.n, 1.0 - mu - nu, tol).reshape(-1, 2)
    verdict = np.zeros((len(p.tops), len(p.mermins)), dtype=bool)
    for t, partners in enumerate(pairs.partner_ids):
        for k, m in enumerate(partners):
            verdict[t, p.mermins.index(m)] = ok[t, k]
    return verdict


def outcome(decompose, box):
    """Every field of a result, the residual table bit for bit, or the refusal."""
    try:
        dec = decompose(box)
    except (polytope.ResidualInvalidError, tribox.NotInPolytopeError) as exc:
        return type(exc).__name__
    return dec.mu, dec.nu, dec.pr_id, dec.mermin_id, dec.residual.table.tobytes()


def assert_valid_split(dec, box, p):
    """The split reconstructs the box to 1e-9 and its residual is a valid
    box with both discords at most TOL."""
    recon = dec.reconstruction(p.vertex(dec.pr_id).table, p.vertex(dec.mermin_id).table)
    assert np.max(np.abs(recon - box.table)) <= 1e-9
    residual = p.make(dec.residual.table)
    assert max(p.discords(residual)) <= TOL


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
    under a random relabeling; with the planted (mu, nu)."""
    top = BI.tops[rng.integers(8)]
    mid = BI.partners(top)[rng.integers(2)]
    mu, nu, rest = rng.dirichlet(np.ones(3))
    lam = rng.uniform()
    det = boxcore.det_box(*(int(v) for v in rng.integers(0, 2, size=4)))
    box = boxcore.mix([boxcore.vertex(top), boxcore.vertex(mid), det, boxcore.noise_box()],
                      [mu, nu, rest * lam, rest * (1 - lam)])
    return boxcore.apply_lro(box, FRAMES2[rng.integers(128)]), mu, nu


def witness_box3(rng):
    """mu Sv + nu (canonical Mermin partner) + rest (det/noise mixture),
    under a random relabeling; with the planted (mu, nu)."""
    top = TRI.tops[rng.integers(16)]
    mid = TRI.partners(top)[rng.integers(2)]
    mu, nu, rest = rng.dirichlet(np.ones(3))
    lam = rng.uniform()
    det = tribox.det3_box(*(int(v) for v in rng.integers(0, 2, size=6)))
    table = (mu * tribox.tri_vertex(top).table + nu * tribox.tri_vertex(mid).table
             + rest * (lam * det.table + (1 - lam) * tribox.noise3_box().table))
    g = tribox.lro3_samples(rng, 1)[0]
    return tribox.apply_lro3(tribox.make_box3(table), g), mu, nu


def bipartite_boxes():
    rng = np.random.default_rng(6161)
    boxes = [boxcore.make_box(t) for t in polytope.random_ns_tables(rng, 24)]
    boxes += [witness_box(rng)[0] for _ in range(24)]
    ids = (boxcore.all_pr_ids() + boxcore.all_mermin_ids() + boxcore.all_det_ids()
           + boxcore.all_cc_ids() + [boxcore.NOISE_ID])
    boxes += catalog_mixtures(rng, ids, polytope.vertex_matrix(ids),
                              lambda t: boxcore.make_box(t.reshape(2, 2, 2, 2)), 80)
    boxes += [labeled_mixture(*m, boxcore.parse_vertex_label, boxcore.vertex, boxcore.make_box)
              for m in FRAMED2]
    return boxes


TRI_BOXES = tripartite_boxes()
BI_BOXES = bipartite_boxes()


# -- index permutations and the pair set ------------------------------------

def test_frame_permutations_match_per_frame_builders():
    for g, perm in zip(FRAMES3, PERMS3):
        assert np.array_equal(boxcore._index_permutation(g.relabels, g.perm), perm)
    for g, perm in zip(FRAMES2, PERMS2):
        assert np.array_equal(boxcore.lro_index_permutation(g), perm)


@pytest.mark.parametrize("n", [2, 3])
def test_canonical_pairs_are_closed_under_relabeling(n):
    # every frame maps each canonical pair back onto a canonical pair, so the
    # pairs a frame's split can take are all in the screen
    p = PARTIES[n]
    pairs = p.pairs()
    assert pairs.top_ids == p.tops
    canonical = {(t, m) for t, partners in zip(pairs.top_ids, pairs.partner_ids)
                 for m in partners}
    assert len(canonical) == 2 * len(p.tops)
    top_back, mermin_back = BACK[n]
    for f in range(len(p.frames)):
        for t, m in canonical:
            assert (p.tops[top_back[f, p.tops.index(t)]],
                    p.mermins[mermin_back[f, p.mermins.index(m)]]) in canonical
    # the oracle's mapped-back rows are the vertices relabeled by the inverse frame
    for f in range(0, len(p.frames), 1 if n == 2 else 11):
        for ids, back in ((p.tops, top_back), (p.mermins, mermin_back)):
            for v, vid in enumerate(ids):
                assert np.array_equal(relabel_back(p.vertex(vid), p, f).table,
                                      p.vertex(ids[back[f, v]]).table)


# -- the screen and the searches against their oracles ----------------------

def test_tripartite_screen_matches_per_frame_residual_screen():
    # each frame's verdict is the verdict of its mapped-back canonical pair
    top_back, mermin_back = BACK[3]
    partner_rows = np.array([[TRI.mermins.index(m) for m in TRI.partners(s)] for s in TRI.tops])
    frames = np.arange(len(FRAMES3))
    nonempty = 0
    for box in TRI_BOXES:
        mu = tribox.svetlichny_discord(box) / 8.0
        nu = tribox.mermin3_discord(box) / 4.0
        verdict = pair_verdicts(box, TRI, mu, nu)
        sel, hits = oracle_frame_verdicts3(box)
        for k in range(2):
            pair = (top_back[frames, sel], mermin_back[frames, partner_rows[sel, k]])
            assert np.array_equal(verdict[pair], hits[k])
        nonempty += bool(hits.any())
    assert nonempty >= 5


def test_bipartite_screen_passes_the_frames_the_exact_path_accepts():
    top_back, mermin_back = BACK[2]
    for box in BI_BOXES[::4] + BI_BOXES[-len(FRAMED2):]:
        mu = discord2.bell_discord(box) / 4.0
        nu = discord2.mermin_discord(box) / 2.0
        verdict = pair_verdicts(box, BI, mu, nu)
        screened, exact = [], []
        for f, g in enumerate(FRAMES2):
            moved = boxcore.apply_lro(box, g)
            values = discord2.chsh_values(moved).reshape(-1)
            t = int(np.argmax(values - 1e-12 * np.arange(8)))
            if any(verdict[top_back[f, t], mermin_back[f, BI.mermins.index(m)]]
                   for m in BI.partners(BI.tops[t])):
                screened.append(f)
            if oracle_direct(moved, BI) is not None:
                exact.append(f)
        assert screened == exact


def check_against_frame_search(boxes, decompose, oracle, p):
    """Every box the frame search splits splits over the same pair, with
    mu, nu and the residual bit-identical where the argmax-only split in the
    box's own frame succeeds and within 1e-15 where only a frame does; every
    other box is refused or split validly."""
    kinds = {"refused": 0, "direct": 0, "frame": 0}
    for box in boxes:
        got = outcome(decompose, box)
        want = outcome(oracle, box)
        if not isinstance(got, str):
            assert_valid_split(decompose(box), box, p)
        if isinstance(want, str):
            kinds["refused"] += isinstance(got, str)
            continue
        assert got[2:4] == want[2:4]
        if oracle_direct(box, p) is not None:
            kinds["direct"] += 1
            assert got == want
        else:
            kinds["frame"] += 1
            assert got[:2] == pytest.approx(want[:2], abs=1e-15, rel=0)
            assert np.max(np.abs(np.frombuffer(got[4]) - np.frombuffer(want[4]))) <= 1e-15
    return kinds


def test_three_decomposition3_matches_oracle_search():
    kinds = check_against_frame_search(TRI_BOXES, tribox.three_decomposition3,
                                       oracle_three_decomposition3, TRI)
    assert kinds["frame"] >= len(FRAMED3) and min(kinds.values()) >= 5, kinds


def test_three_decomposition_matches_128_frame_loop():
    kinds = check_against_frame_search(BI_BOXES, polytope.three_decomposition,
                                       oracle_three_decomposition, BI)
    assert kinds["frame"] >= len(FRAMED2) and min(kinds.values()) >= 5, kinds


@pytest.mark.parametrize("n", [2, 3])
def test_planted_witnesses_split_with_their_weights(n):
    # the frame searches refused some of these; every canonical pair is screened now
    rng = np.random.default_rng(7070 + n)
    p = PARTIES[n]
    decompose = polytope.three_decomposition if n == 2 else tribox.three_decomposition3
    kept = 0
    for _ in range(300 if n == 2 else 200):
        box, mu, nu = (witness_box if n == 2 else witness_box3)(rng)
        g, q = p.discords(box)
        if abs(g - p.scale[0] * mu) > 1e-9 or abs(q - p.scale[1] * nu) > 1e-9:
            continue
        kept += 1
        dec = decompose(box)
        assert dec.mu == pytest.approx(mu, abs=1e-9) and dec.nu == pytest.approx(nu, abs=1e-9)
        assert_valid_split(dec, box, p)
    assert kept >= 50


@pytest.mark.parametrize("n", [2, 3])
def test_refusal_and_weights_are_relabeling_invariant(n):
    # the split itself, without three_decomposition3's membership gate: the
    # 48 embedded PR vertices of in_sv_polytope are not closed under
    # relabeling (flipping the spectator's output leaves them)
    rng = np.random.default_rng(7171 + n)
    p = PARTIES[n]
    if n == 2:
        boxes = BI_BOXES + [boxcore.make_box(t) for t in polytope.random_ns_tables(rng, 200)]
    else:
        boxes = TRI_BOXES + [tribox.random_sv_polytope_box(rng) for _ in range(40)]

    split = polytope._three_decomposition_direct
    splits = 0
    for box, f in zip(boxes, rng.integers(len(p.frames), size=len(boxes))):
        got, moved = split(box), split(p.relabel(box, p.frames[f]))
        assert (got is None) == (moved is None)
        if got is not None:
            splits += 1
            assert (moved.mu, moved.nu) == pytest.approx((got.mu, got.nu), abs=1e-12, rel=0)
    assert splits >= 20 and len(boxes) - splits >= 5


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
